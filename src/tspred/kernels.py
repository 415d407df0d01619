"""Swing-equation numerics: electrical power and one classical RK4 step.

Each function broadcasts over leading axes, so one state (G,) and a batch
of scenarios (S, G), each with its own EMFs, share the code. `Y` is the
complex admittance matrix between the internal buses: (G, G) for all
rows, or one per row. Machine i's internal EMF is the phasor E_i·e^{jδ_i}.
"""

import numpy as np


def electrical_power(delta, E, Y):
    """Per-generator electrical power Re(conj(V_i)·(Y·V)_i) at rotor angles
    `delta` (radians): Σ_j E_i·E_j·(G_ij·cos δij + B_ij·sin δij)."""
    v = np.empty(np.shape(delta), complex)
    np.cos(delta, out=v.real)
    np.sin(delta, out=v.imag)
    v *= E
    yv = v @ Y.T if Y.ndim == 2 else np.einsum("...ij,...j->...i", Y, v)
    return (v.conj() * yv).real


def power_jacobian(delta, E, Y):
    """∂Pe_i/∂δ_j, ([N,] G, G): −Im(conj(V_i)·Y_ij·V_j) off the diagonal,
    minus its row sums on it."""
    v = E * np.exp(1j * delta)
    dpair = -(v.conj()[..., :, None] * Y * v[..., None, :]).imag
    return dpair - np.eye(v.shape[-1]) * dpair.sum(axis=-1)[..., None]


def swing_acceleration(delta, omega, D, E, Pm, Y, m):
    """dΔω/dt from the swing equation (2H/ω0)·dΔω/dt = Pm − Pe − D·Δω,
    given m = ω0/2H; angles in radians, speeds in rad/s."""
    return m * (Pm - electrical_power(delta, E, Y) - D * omega)


def rk4_step(delta, omega, dt, H, D, E, Pm, Y, w0):
    """New (delta, omega) after one RK4 step, the matrix held over it.

    `dt` is a scalar or an (S, 1) array of per-scenario step sizes; the
    inputs are not modified. Each stage's speed is its angle slope.
    """
    args, half = (D, E, Pm, Y, w0 / (2.0 * H)), 0.5 * dt
    a1 = swing_acceleration(delta, omega, *args)
    w2 = omega + half * a1
    a2 = swing_acceleration(delta + half * omega, w2, *args)
    w3 = omega + half * a2
    a3 = swing_acceleration(delta + half * w2, w3, *args)
    w4 = omega + dt * a3
    a4 = swing_acceleration(delta + dt * w3, w4, *args)
    slope = a1 + a2 + a3        # omega + 2·w2 + 2·w3 + w4 = 6·omega + dt·slope
    return (delta + dt * (omega + (dt / 6.0) * slope),
            omega + (dt / 6.0) * (slope + a2 + a3 + a4))
