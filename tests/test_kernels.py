"""Tests for the swing-equation kernels: Pe, its Jacobian and the RK4 step."""

import math

import numpy as np
import pytest

from tspred import kernels, simkit

W0 = 2 * np.pi * 60.0


def workload(n_gen=4, seed=0):
    rng = np.random.default_rng(seed)
    H = rng.uniform(1.0, 5.0, n_gen)
    D = rng.uniform(0.0, 0.1, n_gen)
    E = rng.uniform(0.95, 1.1, n_gen)
    b = rng.uniform(0.3, 1.2, (n_gen, n_gen))
    B = (b + b.T) / 2.0
    np.fill_diagonal(B, 0.0)
    G = np.diag(rng.uniform(0.1, 0.4, n_gen))
    delta0 = rng.uniform(-0.5, 0.5, n_gen)
    Pm = kernels.electrical_power(delta0, E, G + 1j * B)
    return dict(H=H, D=D, E=E, G=G, B=B, delta0=delta0, Pm=Pm)


def integrate(w, nsteps=480, dt=1.0 / 240.0, delta=None, omega=None):
    """States after each of `nsteps` RK4 steps, as (nsteps, G) arrays."""
    d = w["delta0"] if delta is None else delta
    o = np.zeros_like(d) if omega is None else omega
    out_d, out_w = [], []
    for _ in range(nsteps):
        d, o = kernels.rk4_step(d, o, dt, w["H"], w["D"], w["E"], w["Pm"],
                                w["G"] + 1j * w["B"], W0)
        out_d.append(d)
        out_w.append(o)
    return np.array(out_d), np.array(out_w)


class TestSwingRhs:
    """The swing equation's acceleration, dδ/dt being Δω itself."""

    def test_equilibrium_is_fixed_point(self):
        # Pm matched to Pe at delta0 with zero speed: zero acceleration
        w = workload(seed=3)
        dw = kernels.swing_acceleration(w["delta0"], np.zeros(4), w["D"],
                                        w["E"], w["Pm"],
                                        w["G"] + 1j * w["B"],
                                        W0 / (2.0 * w["H"]))
        assert np.allclose(dw, 0.0, atol=1e-12)

    def test_single_machine_hand_value(self):
        # [DERIVED] one machine, G11 = 0.2: dw = w0/(2H)·(Pm − E²G11 − D·w)
        H = np.array([2.0])
        D = np.array([0.1])
        E = np.array([1.05])
        Pm = np.array([0.5])
        G = np.array([[0.2]])
        B = np.zeros((1, 1))
        dw = kernels.swing_acceleration(np.array([0.3]), np.array([0.02]),
                                        D, E, Pm, G + 1j * B, W0 / (2.0 * H))
        expected = W0 / 4.0 * (0.5 - 1.05 ** 2 * 0.2 - 0.1 * 0.02)
        assert dw[0] == pytest.approx(expected, abs=1e-14)


def pairwise_power(delta, E, G, B):
    """Reference Pe: Σ_j E_i·E_j·(G_ij·cos δij + B_ij·sin δij), summed pair
    by pair for each state of a batch."""
    pe = np.zeros(np.shape(delta))
    n = pe.shape[-1]
    for idx in np.ndindex(pe.shape[:-1]):
        d, e, g, b = delta[idx], E[idx], G[idx], B[idx]
        for i in range(n):
            for j in range(n):
                a = d[i] - d[j]
                pe[idx + (i,)] += e[i] * e[j] * (g[i, j] * math.cos(a)
                                                 + b[i, j] * math.sin(a))
    return pe


def lossy_batch(n_scen=5, n_gen=4, seed=11):
    """(S, G) angles and EMFs with per-scenario lossy (S, G, G) matrices,
    left unsymmetric so a transposed Y would not pass."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-np.pi, np.pi, (n_scen, n_gen)),
            rng.uniform(0.9, 1.2, (n_scen, n_gen)),
            rng.uniform(0.02, 0.2, (n_scen, n_gen, n_gen)),
            rng.uniform(-1.2, 1.2, (n_scen, n_gen, n_gen)))


class TestElectricalPower:
    @pytest.mark.parametrize("delta, E, G, B", [
        lossy_batch(),
        (np.array([0.7]), np.array([1.1]), np.array([[0.3]]),
         np.array([[-2.0]])),
        (np.array([0.4, 0.0]), np.array([1.0, 1.0]), np.zeros((2, 2)),
         np.array([[0.0, 1.5], [1.5, 0.0]])),
    ], ids=["batched-lossy", "one-machine", "lossless-pair"])
    def test_matches_pairwise_sum(self, delta, E, G, B):
        pe = kernels.electrical_power(delta, E, G + 1j * B)
        assert pe.shape == np.shape(delta)
        assert np.max(np.abs(pe - pairwise_power(delta, E, G, B))) <= 1e-12

    def test_lossless_pair_antisymmetric(self):
        # pure-B tie: P1 = −P2 = E1·E2·B12·sin(δ12)
        E = np.array([1.0, 1.0])
        G = np.zeros((2, 2))
        B = np.array([[0.0, 1.5], [1.5, 0.0]])
        pe = kernels.electrical_power(np.array([0.4, 0.0]), E, G + 1j * B)
        assert pe[0] == pytest.approx(1.5 * np.sin(0.4), abs=1e-14)
        assert pe[0] == pytest.approx(-pe[1], abs=1e-14)

    def test_self_conductance_only(self):
        pe = kernels.electrical_power(np.array([0.7]), np.array([1.1]),
                                      np.array([[0.3]])
                                      + 1j * np.zeros((1, 1)))
        assert pe[0] == pytest.approx(1.1 ** 2 * 0.3, abs=1e-15)

    def test_jacobian_matches_central_differences(self):
        # a batch of states, the workload's first: each row of the batched
        # Jacobian is the one-state call's bit for bit
        w = workload(seed=6)
        w["G"] = w["G"] + 0.05 * (1.0 - np.eye(4))   # lossy off-diagonals
        Y = w["G"] + 1j * w["B"]
        states = np.vstack([w["delta0"], np.random.default_rng(7).uniform(
            -np.pi, np.pi, (5, 4))])
        batched = kernels.power_jacobian(states, w["E"], Y)
        assert batched.shape == (6, 4, 4)
        h = 1e-6
        for delta, row in zip(states, batched):
            jac = kernels.power_jacobian(delta, w["E"], Y)
            assert np.array_equal(row, jac)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                column = (kernels.electrical_power(delta + e, w["E"], Y)
                          - kernels.electrical_power(delta - e, w["E"], Y)
                          ) / (2 * h)
                assert np.allclose(jac[:, j], column, atol=1e-8)


class TestRk4Span:
    """RK4 over a span of steps, and the simulator's guard around it."""

    def test_fills_every_row(self):
        out_d, out_w = integrate(workload(seed=1), nsteps=100)
        assert out_d.shape == (100, 4)
        assert np.all(np.isfinite(out_d))
        assert np.all(np.isfinite(out_w))

    def test_overflow_status(self):
        # one runaway scenario (a sustained bolted fault on a light,
        # heavily loaded machine) aborts the whole batch; alone, the
        # scenario cleared at t = 0 stays at rest
        y = np.array([[-1.0j, 1.0j], [1.0j, -1.0j]])
        model = simkit.PowerSystemModel(
            name="runaway", f0=60.0,
            inertia=np.array([0.01, 0.01]), damping=np.zeros(2),
            emf=np.array([1.0, 1.0]),
            pm=np.array([0.9, -0.9]),
            y_prefault=y, y_fault={"fault": np.zeros((2, 2))})
        calm, runaway = (
            simkit.SimulationScenario(fault="fault", clearing_cycles=c,
                                      horizon=3.0)
            for c in (0.0, 180.0))
        simkit.simulate_scenarios(model, [calm])
        with pytest.raises(simkit.SimkitError, match="overflow guard"):
            simkit.simulate_scenarios(model, [calm, runaway])

    def test_two_half_spans_equal_one(self):
        # a step reads its inputs only, so restarting from a saved state
        # continues the run bit for bit
        w = workload(seed=4)
        full_d, full_w = integrate(w, nsteps=200)
        half_d, half_w = integrate(w, nsteps=100)
        rest_d, rest_w = integrate(w, nsteps=100, delta=half_d[-1].copy(),
                                   omega=half_w[-1].copy())
        assert np.array_equal(full_d[100:], rest_d)
        assert np.array_equal(full_w[100:], rest_w)

    def test_fourth_order_convergence(self):
        # halving dt shrinks the error by ~2^4 (perturbed off equilibrium)
        w = workload(seed=5)
        speed0 = np.array([1.0, -0.5, 0.3, 0.8])

        def end_state(dt, nsteps):
            out_d, _ = integrate(w, nsteps=nsteps, dt=dt, omega=speed0)
            return out_d[-1]

        ref = end_state(1.0 / 3840.0, 3840)

        err_coarse = np.max(np.abs(end_state(1 / 60.0, 60) - ref))
        err_fine = np.max(np.abs(end_state(1 / 120.0, 120) - ref))
        assert err_coarse / err_fine > 10.0


def textbook_rk4(delta, omega, dt, H, D, E, Pm, Y):
    """One classical four-stage RK4 step of the state (δ, Δω), written out
    from dδ/dt = Δω, (2H/ω0)·dΔω/dt = Pm − Pe − D·Δω with Pe pair by pair
    (Y's real and imaginary parts being G and B)."""
    Yb = np.broadcast_to(Y, (*np.shape(delta)[:-1], *np.shape(Y)[-2:]))
    Eb = np.broadcast_to(E, np.shape(delta))

    def f(state):
        d, w = state
        pe = pairwise_power(d, Eb, Yb.real, Yb.imag)
        return np.array([w, W0 / (2.0 * H) * (Pm - pe - D * w)])

    x = np.array([delta, omega])
    k1 = f(x)
    k2 = f(x + dt / 2 * k1)
    k3 = f(x + dt / 2 * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestOracle:
    """The kernels against a textbook RK4 and against each other."""

    @pytest.mark.parametrize("per_row_dt", [False, True],
                             ids=["scalar dt", "(S, 1) dt"])
    @pytest.mark.parametrize("per_row_y", [False, True],
                             ids=["shared Y", "per-row Y"])
    def test_rk4_step_matches_textbook(self, per_row_dt, per_row_y):
        n_scen, n_gen = 6, 4
        rng = np.random.default_rng(21)
        delta, E, G, B = lossy_batch(n_scen, n_gen, seed=22)
        Y = G + 1j * B if per_row_y else G[0] + 1j * B[0]
        omega = rng.uniform(-2.0, 2.0, (n_scen, n_gen))
        H = rng.uniform(1.0, 5.0, n_gen)
        D = rng.uniform(0.0, 0.1, n_gen)
        Pm = rng.uniform(-1.0, 1.0, (n_scen, n_gen))
        dt = (rng.uniform(0.0, 1.0 / 240.0, (n_scen, 1)) if per_row_dt
              else 1.0 / 240.0)
        d, w = kernels.rk4_step(delta, omega, dt, H, D, E, Pm, Y, W0)
        ref_d, ref_w = textbook_rk4(delta, omega, dt, H, D, E, Pm, Y)
        assert np.max(np.abs(d - ref_d)) <= 1e-12
        assert np.max(np.abs(w - ref_w)) <= 1e-12

    def test_shared_and_per_row_power_agree(self):
        # the one matmul of a shared matrix against the per-row einsum
        delta, E, G, B = lossy_batch(n_scen=50, n_gen=5, seed=23)
        Y = G[0] + 1j * B[0]
        shared = kernels.electrical_power(delta, E, Y)
        per_row = kernels.electrical_power(
            delta, E, np.broadcast_to(Y, (50, 5, 5)))
        assert np.max(np.abs(shared - per_row)) <= 1e-13
