"""Swing-equation numerics: electrical power and one classical RK4 step.

Each function broadcasts over leading axes, so one state (G,) and a batch
of scenarios (S, G), each with its own EMFs and matrix, share the code.
Machine i's internal EMF is the phasor V_i = E_i·e^{jδ_i}, and `Y` is the
complex admittance matrix between the internal buses.
"""

import numpy as np


def electrical_power(delta, E, Y):
    """Per-generator electrical power Re(conj(V_i)·(Y·V)_i) at rotor angles
    `delta` (radians): Σ_j E_i·E_j·(G_ij·cos δij + B_ij·sin δij)."""
    v = E * np.exp(1j * delta)
    return (v.conj() * np.einsum("...ij,...j->...i", Y, v)).real


def power_jacobian(delta, E, Y):
    """∂Pe_i/∂δ_j, ([N,] G, G): −Im(conj(V_i)·Y_ij·V_j) off the diagonal,
    minus its row sums on it."""
    v = E * np.exp(1j * delta)
    dpair = -(v.conj()[..., :, None] * Y * v[..., None, :]).imag
    return dpair - np.eye(v.shape[-1]) * dpair.sum(axis=-1)[..., None]


def swing_rhs(delta, omega, H, D, E, Pm, Y, w0):
    """(dδ/dt, dΔω/dt) of dδ/dt = Δω, (2H/ω0)·dΔω/dt = Pm − Pe − D·Δω.

    Angles in radians, speeds in rad/s.
    """
    pe = electrical_power(delta, E, Y)
    return omega, (w0 / (2.0 * H)) * (Pm - pe - D * omega)


def rk4_step(delta, omega, dt, H, D, E, Pm, Y, w0):
    """New (delta, omega) after one RK4 step, the matrix held over it.

    `dt` is a scalar or an (S, 1) array of per-scenario step sizes; the
    inputs are not modified.
    """
    args = (H, D, E, Pm, Y, w0)
    k1d, k1w = swing_rhs(delta, omega, *args)
    k2d, k2w = swing_rhs(delta + 0.5 * dt * k1d, omega + 0.5 * dt * k1w,
                         *args)
    k3d, k3w = swing_rhs(delta + 0.5 * dt * k2d, omega + 0.5 * dt * k2w,
                         *args)
    k4d, k4w = swing_rhs(delta + dt * k3d, omega + dt * k3w, *args)
    return (delta + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d),
            omega + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))
