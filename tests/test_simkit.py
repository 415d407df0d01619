import gzip
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import networks
from tspred import cli, features, kernels, simkit
from conftest import simulate_one

REFERENCE_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def one_level(model, level=1.0):
    """(emf, pm, delta0) of `model` at one load level: row 0 of
    `operating_points` of that level alone (level 1: the model's own
    vectors and its prefault angles)."""
    return tuple(a[0] for a in simkit.operating_points(model, [level]))


def test_smib_equilibrium_is_arcsine(smib):
    delta = one_level(smib)[2]
    assert np.degrees(delta[0]) == pytest.approx(30.0, abs=1e-6)
    assert delta[1] == pytest.approx(0.0, abs=1e-9)


def test_zero_injection_equilibrium_has_equal_angles():
    y = np.array([[-2.0j, 1.0j], [1.0j, -2.0j]])
    model = simkit.PowerSystemModel(
        name="idle", f0=60.0,
        inertia=np.array([3.0, 3.0]), damping=np.zeros(2),
        emf=np.array([1.0, 1.0]),
        pm=np.zeros(2), y_prefault=y, y_fault={"fault": np.zeros((2, 2))})
    delta = one_level(model)[2]
    assert delta[0] - delta[1] == pytest.approx(0.0, abs=1e-9)


def test_three_machine_equilibrium_residual(three_machine):
    delta = one_level(three_machine)[2]
    mismatch = simkit._power_mismatch(delta, three_machine.emf,
                                      three_machine.pm,
                                      three_machine.y_prefault)
    assert np.max(np.abs(mismatch)) < 1e-8


def test_infeasible_operating_point_raises(smib):
    from dataclasses import replace
    bad = replace(smib, pm=np.array([5.0, -5.0]))  # above the 1.0 pu tie
    with pytest.raises(simkit.SimkitError, match="no prefault equilibrium"):
        one_level(bad)


@pytest.mark.parametrize("shape", [(3,), (378, 3), (5, 7, 10), (4, 1)])
def test_angle_gap_equals_ptp(shape):
    # taken machine by machine, the gap is np.ptp's bit for bit, nan too
    delta = np.random.default_rng(3).normal(scale=200.0, size=shape)
    delta.flat[::7] = np.nan
    assert np.array_equal(simkit.angle_gap(delta), np.ptp(delta, axis=-1),
                          equal_nan=True)


def test_clearing_zero_is_a_fixed_point(smib):
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=0.0,
                                   horizon=1.0)
    traj = simulate_one(smib, sc)
    assert np.max(np.abs(traj.delta_deg - traj.delta_deg[0])) < 1e-6
    assert np.max(np.abs(traj.pm - traj.pe[0])) < 1e-6


@pytest.mark.parametrize("horizon, cycles, step", [
    # zero horizon with an instant clearing
    pytest.param(0.0, 0.0, simkit.DEFAULT_STEP, id="0.0-0.0"),
    pytest.param(-1.0, 0.0, simkit.DEFAULT_STEP, id="-1.0-0.0"),
    pytest.param(math.inf, 6.0, simkit.DEFAULT_STEP, id="inf horizon"),
    pytest.param(3.0, 6.0, math.inf, id="inf step"),
    # over simkit.MAX_STEPS = 1e6 steps, whose time grid a run allocates
    # before its first step: 2.4e9 default steps, and one over the cap
    pytest.param(1e7, 6.0, simkit.DEFAULT_STEP, id="1e7 horizon"),
    pytest.param(500_000.5, 6.0, 0.5, id="cap+1 steps"),
])
def test_scenario_rejects_bad_horizon(smib, horizon, cycles, step):
    # a scenario is a plain row: the batch is checked before the time grid
    # is allocated
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=cycles,
                                   horizon=horizon, step=step)
    with pytest.raises(ValueError):
        simkit.simulate_scenarios(smib, [sc])


def test_nan_clearing_time_refused(smib):
    # nan < 0 is false, so only a test that nan fails refuses this row,
    # here behind a good one
    rows = [simkit.SimulationScenario(fault="fault", clearing_cycles=c,
                                      horizon=0.5) for c in (6.0, math.nan)]
    with pytest.raises(ValueError,
                       match="clearing time must be non-negative"):
        simkit.simulate_scenarios(smib, rows)


def test_batch_check_names_the_first_failing_row(smib):
    # rows 1 and 2 both fail; row 1's check gives the message, as the
    # per-row check gave it
    rows = [simkit.SimulationScenario("fault", 6.0, level)
            for level in (1.0, 1.35, 0.7)]
    with pytest.raises(ValueError,
                       match=r"load level 1\.35 outside \[0\.8, 1\.3\]"):
        simkit.simulate_scenarios(smib, rows)
    rows[2] = rows[2]._replace(load_level=1.0, step=1.0, horizon=0.5)
    with pytest.raises(ValueError, match=r"load level 1\.35 outside"):
        simkit.simulate_scenarios(smib, rows)
    rows[1] = rows[1]._replace(load_level=1.0)
    with pytest.raises(ValueError, match="integration step 1 s exceeds the "
                       "horizon 0.5 s"):
        simkit.simulate_scenarios(smib, rows)
    rows[2] = rows[2]._replace(step=0.01)
    with pytest.raises(ValueError,
                       match="scenarios must share one step and horizon"):
        simkit.simulate_scenarios(smib, rows)


@pytest.mark.parametrize("f0, horizon", [(60.0, 0.05), (50.0, 0.11)],
                         ids=["60 Hz", "50 Hz"])
def test_horizon_before_clearing_refused_at_model_f0(smib, f0, horizon):
    # 6 cycles end at 0.1 s at 60 Hz and 0.12 s at 50 Hz; a scenario does
    # not know f0, so simulate_scenarios holds the one check
    model = replace(smib, f0=f0)
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=6.0,
                                   horizon=horizon)
    with pytest.raises(ValueError, match="horizon shorter than the fault "
                       "clearing time"):
        simkit.simulate_scenarios(model, [sc])


def test_empty_scenario_list_refused(smib):
    with pytest.raises(ValueError, match="the scenario list is empty"):
        simkit.simulate_scenarios(smib, [])


def test_sustained_fault_goes_unstable(smib):
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=180.0,
                                   horizon=3.0)
    traj = simulate_one(smib, sc)
    rel = traj.delta_deg[:, 0] - traj.delta_deg[:, 1]
    assert np.all(np.diff(rel) > 0)  # monotone separation while faulted
    assert rel[-1] - rel[0] > 360.0


def test_smib_critical_clearing_time_matches_equal_area(smib):
    dt = simkit.DEFAULT_STEP
    analytic = networks.smib_critical_clearing_time(smib)

    def stable(t_clear):
        sc = simkit.SimulationScenario(fault="fault",
                                       clearing_cycles=t_clear * smib.f0,
                                       horizon=3.0)
        traj = simulate_one(smib, sc)
        return np.max(np.ptp(traj.delta_deg, axis=1)) < 360.0

    lo, hi = 0.05, 0.30
    assert stable(lo) and not stable(hi)
    while hi - lo > dt / 8:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - analytic) <= dt


def test_verdict_flips_exactly_once_over_clearing_sweep(smib):
    verdicts = []
    for cycles in np.arange(5.0, 14.0, 0.5):
        sc = simkit.SimulationScenario(fault="fault", clearing_cycles=cycles,
                                       horizon=3.0)
        traj = simulate_one(smib, sc)
        verdicts.append(np.max(np.ptp(traj.delta_deg, axis=1)) < 360.0)
    flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert flips == 1 and verdicts[0] and not verdicts[-1]


def test_stage_continuity_across_clearing(smib):
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=6.0,
                                   horizon=1.0)
    traj = simulate_one(smib, sc)
    k = int(round(sc.clearing_cycles / smib.f0 / sc.step))
    d_delta = np.abs(np.diff(traj.delta_deg[:, 0]))
    d_speed = np.abs(np.diff(traj.speed_dev[:, 0]))
    # state increments around the switch stay on the same scale as elsewhere
    assert d_delta[k] < 5 * (d_delta.max() / len(d_delta) + d_delta.mean())
    assert d_speed[k] < 5 * d_speed.mean() + 1e-9
    # electrical power is what jumps at clearing
    assert abs(traj.pe[k + 1, 0] - traj.pe[k - 1, 0]) > 0.1


def test_energy_drift_is_small_without_damping():
    # lossless two-machine system, no damping, perturbed from equilibrium
    b12 = 1.0
    y = np.array([[-2.0j * b12, 1.0j * b12], [1.0j * b12, -2.0j * b12]])
    model = simkit.PowerSystemModel(
        name="lossless", f0=60.0,
        inertia=np.array([3.0, 4.0]), damping=np.zeros(2),
        emf=np.array([1.0, 1.0]),
        pm=np.array([0.4, -0.4]),
        y_prefault=y, y_fault={"fault": np.zeros((2, 2))})
    d = one_level(model)[2] + np.array([0.1, 0.0])
    w = np.zeros(2)
    w0 = model.omega0
    dt = 1.0 / 960.0
    nsteps = 960
    out_d = np.empty((nsteps, 2))
    out_w = np.empty((nsteps, 2))
    for k in range(nsteps):
        d, w = kernels.rk4_step(d, w, dt, model.inertia, model.damping,
                                model.emf, model.pm, y, w0)
        out_d[k], out_w[k] = d, w

    def energy(d, w):
        kinetic = np.sum(model.inertia * w ** 2 / w0)
        potential = -np.sum(model.pm * d) - b12 * math.cos(d[0] - d[1])
        return kinetic + potential

    e0 = energy(out_d[0], out_w[0])
    drift = max(abs(energy(out_d[k], out_w[k]) - e0)
                for k in range(nsteps))
    assert drift < 1e-4


def test_batch_matches_per_scenario_runs(three_machine):
    # 3 faults x off-grid and on-grid clearings x several load levels in
    # one batch; SIMD sin/cos may round differently with array length, so
    # the match is to 1e-9 degrees, not bitwise
    grid = simkit.build_scenario_grid(
        sorted(three_machine.y_fault), [5.3, 6.0, 7.77, 9.9],
        [0.8, 1.0, 1.15, 1.3], seed=2)
    batch = simkit.simulate_scenarios(three_machine, grid)
    assert len(batch.delta_deg) == len(grid) == 48
    labels = features.label_trajectory(batch)
    for s, sc in enumerate(grid):
        alone = simulate_one(three_machine, sc)
        assert batch.t_clear[s] == alone.t_clear == \
            sc.clearing_cycles / three_machine.f0
        assert np.max(np.abs(batch.delta_deg[s] - alone.delta_deg)) < 1e-9
        assert np.max(np.abs(batch.speed_dev[s] - alone.speed_dev)) < 1e-9
        assert np.max(np.abs(batch.pe[s] - alone.pe)) < 1e-9
        assert np.array_equal(batch.pm[s], alone.pm)
        assert labels[s] == features.label_trajectory(alone)
    assert set(labels.tolist()) == {features.STABLE, features.UNSTABLE}


def test_fixture_kb_matches_frozen_reference(three_machine_kb, tmp_path):
    # the frozen benchmark KB is `generate` on the three-machine fixture
    # files; a kernel rewrite may move the features' last digits, never a
    # label
    for name in ("kb_3m.csv", "kb_3m.meta"):
        with gzip.open(REFERENCE_DATA / f"{name}.gz", "rb") as fh:
            (tmp_path / name).write_bytes(fh.read())
    frozen = features.load_knowledge_base(tmp_path / "kb_3m.csv",
                                          tmp_path / "kb_3m.meta")
    kb = three_machine_kb
    assert np.array_equal(kb.labels, frozen.labels)
    assert int(np.sum(kb.labels == features.UNSTABLE)) == 117
    assert np.allclose(kb.samples, frozen.samples, rtol=1e-9, atol=1e-12)


def test_determinism_byte_identical(smib):
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=7.0,
                                   horizon=2.0)
    t1 = simulate_one(smib, sc)
    t2 = simulate_one(smib, sc)
    assert t1.delta_deg.tobytes() == t2.delta_deg.tobytes()
    assert t1.speed_dev.tobytes() == t2.speed_dev.tobytes()
    assert t1.pe.tobytes() == t2.pe.tobytes()


def test_overflow_guard():
    # an absurdly large step makes RK4 blow up numerically
    y = np.array([[-1.0j, 1.0j], [1.0j, -1.0j]])
    model = simkit.PowerSystemModel(
        name="pathological", f0=60.0,
        inertia=np.array([0.01, 0.01]), damping=np.zeros(2),
        emf=np.array([1.0, 1.0]),
        pm=np.array([0.9, -0.9]),
        y_prefault=y, y_fault={"fault": np.zeros((2, 2))})
    sc = simkit.SimulationScenario(fault="fault", clearing_cycles=600.0,
                                   horizon=100.0, step=5.0)
    with pytest.raises(simkit.SimkitError, match="overflow guard"):
        simulate_one(model, sc)


class TestScenarioGrid:
    def test_cartesian_product_cardinality(self):
        grid = simkit.build_scenario_grid(
            ["a", "b"], [5.0, 7.0, 9.0], [0.9, 1.1], seed=1)
        assert len(grid) == 12

    def test_determinism(self):
        g1 = simkit.build_scenario_grid(["a"], [5.0, 6.0], [1.0], seed=9)
        g2 = simkit.build_scenario_grid(["a"], [5.0, 6.0], [1.0], seed=9)
        assert g1 == g2

    def test_out_of_range_rejected(self, smib):
        with pytest.raises(ValueError):
            simkit.build_scenario_grid(["a"], [4.0], [1.0], seed=1)
        # the level range is checked once for the batch, when it runs
        grid = simkit.build_scenario_grid(["fault"], [5.0], [1.5], seed=1)
        with pytest.raises(ValueError):
            simkit.simulate_scenarios(smib, grid)
        with pytest.raises(ValueError):
            simkit.build_scenario_grid([], [5.0], [1.0], seed=1)

    @pytest.mark.parametrize("faults, cycles, levels, message", [
        (["a", "b", "a"], [5.0], [1.0], "faults lists 'a' more than once"),
        (["a"], [5.0, 6, 6.0], [1.0],
         "clearing_cycles lists 6.0 more than once"),
        (["a"], [5.0], [1.0, 1.0, 0.9],
         "load_levels lists 1.0 more than once"),
        (["a"], [5.0], [1, 0.9, 1.0], "load_levels lists 1.0 more than once"),
    ])
    def test_repeated_value_rejected(self, faults, cycles, levels, message):
        # a repeated value would give byte-identical rows, which a split
        # could put on both sides of train and test
        with pytest.raises(ValueError, match=message):
            simkit.build_scenario_grid(faults, cycles, levels, seed=1)


class TestLoadLevel:
    def test_identity(self, smib):
        # level 1's row of the batch holds the model's own vectors
        emf, pm, delta0 = one_level(smib, 1.0)
        assert np.array_equal(emf, smib.emf) and np.array_equal(pm, smib.pm)
        assert np.array_equal(delta0, simkit._newton(
            np.zeros((1, 2)), smib.emf, smib.pm, smib.y_prefault)[0])

    def test_smib_closed_form(self, smib):
        emf, pm, delta0 = one_level(smib, 1.3)
        assert pm[0] == pytest.approx(smib.pm[0] * 1.3)
        assert np.array_equal(emf, smib.emf)
        assert np.degrees(delta0[0]) == pytest.approx(
            math.degrees(math.asin(0.65)), abs=1e-6)

    def test_three_machine_residual(self, three_machine):
        emf, pm, delta0 = one_level(three_machine, 0.8)
        assert np.array_equal(emf, three_machine.emf * math.sqrt(0.8))
        assert np.max(np.abs(simkit._power_mismatch(
            delta0, emf, pm, three_machine.y_prefault))) < 1e-8

    def test_original_model_unmodified(self, three_machine):
        pm_before = three_machine.pm.copy()
        emf_before = three_machine.emf.copy()
        one_level(three_machine, 1.2)
        assert np.array_equal(three_machine.pm, pm_before)
        assert np.array_equal(three_machine.emf, emf_before)

    def test_out_of_range(self, smib):
        sc = simkit.SimulationScenario(fault="fault", clearing_cycles=6.0,
                                       load_level=1.4)
        with pytest.raises(ValueError, match="load level 1.4 outside"):
            simkit.simulate_scenarios(smib, [sc])


def test_one_solve_per_candidate_model(monkeypatch):
    # [DERIVED] fixtures/three_machine.grid has 21 load levels and no
    # transfer conductance, so ΣPe = Σ E_i²·G_ii at every angle and no
    # level but 1.0 can balance its scaled Pm: level 1.0 is the first
    # Newton call's one row, and each other level's E·sqrt(level) row is
    # in the second's, 21 rows, none failing. Trying the scaled-Pm rows
    # first would make it 41 (20 failing); a second solve of a chosen row,
    # 42 or more.
    newton = simkit._newton
    residuals = []

    def recorded(delta, emf, pm, y):
        out = newton(delta, emf, pm, y)
        residuals.append(np.abs(simkit._power_mismatch(out, emf, pm, y))
                         .max(axis=-1))
        return out

    monkeypatch.setattr(simkit, "_newton", recorded)
    spec = simkit.load_grid_spec("fixtures/three_machine.grid")
    scenarios = simkit.build_scenario_grid(**spec)
    simkit.simulate_scenarios(simkit.load_model("fixtures/three_machine.sys"),
                              scenarios)
    assert len(spec["load_levels"]) == 21
    assert [len(r) for r in residuals] == [1, 20]
    assert all(np.all(r <= 1e-8) for r in residuals)


def lossy(model, g=0.01):
    """`model` with conductance g between machines 0 and 1 before, during
    and after every fault, and Pm reset to balance its old angles."""
    extra = np.zeros((model.n_generators,) * 2)
    extra[0, 1] = extra[1, 0] = g
    out = replace(model, y_prefault=model.y_prefault + extra,
                  y_fault={k: v + extra for k, v in model.y_fault.items()})
    return replace(out, pm=kernels.electrical_power(
        one_level(model)[2], model.emf, out.y_prefault))


def test_lossy_level_tries_scaled_pm_first(monkeypatch, three_machine):
    # with transfer conductance ΣPe depends on the angles, so the scaled-Pm
    # row is tried first and the E·sqrt(level) row only after it fails
    model = lossy(three_machine)
    newton = simkit._newton
    tried = []

    def recorded(delta, emf, pm, y):
        tried.append((emf.copy(), pm.copy()))
        return newton(delta, emf, pm, y)

    monkeypatch.setattr(simkit, "_newton", recorded)
    emf, pm, _ = one_level(model, 0.8)
    assert [len(e) for e, _ in tried] == [1, 1]
    (first_emf, first_pm), (last_emf, last_pm) = tried
    assert np.array_equal(first_pm[0], model.pm * 0.8)
    assert np.array_equal(first_emf[0], model.emf)
    assert np.array_equal(last_emf[0], emf) and np.array_equal(last_pm[0], pm)
    assert np.array_equal(emf, model.emf * math.sqrt(0.8))


def test_singular_row_stops_alone(three_machine):
    # a row without EMF has an all-zero Jacobian: the batched solve raises,
    # that row keeps its start, and the others reach their one-level angles
    levels = [0.8, 1.0, 1.2]
    emf, pm, _ = simkit.operating_points(three_machine, levels)
    emf, pm = np.insert(emf, 1, 0.0, axis=0), np.insert(pm, 1, pm[0], axis=0)
    delta = simkit._newton(np.zeros(pm.shape), emf, pm,
                           three_machine.y_prefault)
    assert np.array_equal(delta[1], np.zeros(3))
    for got, level in zip(delta[[0, 2, 3]], levels):
        want = one_level(three_machine, level)[2]
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("levels, message", [
    ([1.1, 0.9, 1.0], "load level 1.1 destroys the operating point"),
    ([0.9, 1.1], "load level 0.9 destroys the operating point"),
    ([1.0, 0.9], "no prefault equilibrium (max mismatch"),
])
def test_first_failing_level_is_named(smib, levels, message):
    # with Pm beyond the tie's 1 pu no level balances, and the first level
    # in grid order names the refusal, in operating_points and in a run
    bad = replace(smib, pm=np.array([5.0, -5.0]))
    with pytest.raises(simkit.SimkitError, match=re.escape(message)):
        simkit.operating_points(bad, levels)
    grid = simkit.build_scenario_grid(["fault"], [5.0], levels, seed=1)
    with pytest.raises(simkit.SimkitError, match=re.escape(message)):
        simkit.simulate_scenarios(bad, grid)


@pytest.mark.parametrize("case", ["smib", "three_machine"])
def test_operating_points_match_one_level(case):
    # the batch holds each level's one-level EMF and Pm bit for bit, and
    # its angles to rounding: SMIB's levels are solved in the first call,
    # the three-machine ones but 1.0 in the second
    model = simkit.load_model(f"fixtures/{case}.sys")
    levels = simkit.load_grid_spec(f"fixtures/{case}.grid")["load_levels"]
    emf, pm, delta0 = simkit.operating_points(model, levels)
    assert emf.shape == pm.shape == delta0.shape == (len(levels),
                                                     model.n_generators)
    for n, level in enumerate(levels):
        one_emf, one_pm, one_delta0 = one_level(model, level)
        assert np.array_equal(emf[n], one_emf)
        assert np.array_equal(pm[n], one_pm)
        assert np.allclose(delta0[n], one_delta0, rtol=0.0, atol=1e-14)


def test_scenarios_build_no_model(monkeypatch, three_machine):
    # a load level is its EMF and Pm vectors: a run over the fixture grid
    # validates no second copy of the network
    built = []
    post_init = simkit.PowerSystemModel.__post_init__

    def counted(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(simkit.PowerSystemModel, "__post_init__", counted)
    grid = simkit.build_scenario_grid(
        **simkit.load_grid_spec("fixtures/three_machine.grid"))
    simkit.simulate_scenarios(three_machine, grid, keep=features.sample_steps)
    assert built == []


@pytest.mark.parametrize("case", ["smib", "three_machine"])
def test_level_angles_match_level_models(case):
    # each fixture level's angles are, bit for bit, those of a model built
    # with the level's vectors: SMIB balances its scaled Pm at its own EMFs,
    # the lossless three-machine network only at E·sqrt(level) (level 1
    # keeps both)
    model = simkit.load_model(f"fixtures/{case}.sys")
    for level in simkit.load_grid_spec(f"fixtures/{case}.grid")[
            "load_levels"]:
        emf, pm, delta0 = one_level(model, level)
        rescaled = case == "three_machine" and level != 1.0
        level_model = replace(model, pm=model.pm * level, emf=model.emf * (
            math.sqrt(level) if rescaled else 1.0))
        assert np.array_equal(emf, level_model.emf)
        assert np.array_equal(pm, level_model.pm)
        assert np.array_equal(delta0, one_level(level_model)[2])


class TestModelValidation:
    def test_asymmetric_matrix_rejected(self, smib):
        y = smib.y_prefault.copy()
        y[0, 1] += 1e-6
        with pytest.raises(simkit.SimkitError,
                           match="prefault matrix is not symmetric"):
            simkit.PowerSystemModel(
                name="bad", f0=60.0, inertia=smib.inertia,
                damping=smib.damping, emf=smib.emf, pm=smib.pm,
                y_prefault=y, y_fault=dict(smib.y_fault))

    def test_postfault_must_equal_prefault(self, tmp_path, capsys):
        # the model keeps no postfault matrix, but the file's block must
        # still equal the prefault one; generate exits 1 naming the file
        sys_path = tmp_path / "reclosed.sys"
        text = Path("fixtures/smib.sys").read_text()
        head, post = text.split("matrix postfault 2\n")
        sys_path.write_text(head + "matrix postfault 2\n"
                            + post.replace("-2.0", "-1.5", 1))
        with pytest.raises(simkit.SimkitError,
                           match="postfault matrix must equal"):
            simkit.load_model(sys_path)
        assert cli.main(["generate", "--model", str(sys_path),
                         "--grid", "fixtures/smib.grid",
                         "--out", str(tmp_path / "kb.csv")]) == \
            cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(sys_path) in err and "Traceback" not in err
        assert not (tmp_path / "kb.csv").exists()

    def test_nonpositive_inertia_rejected(self, smib):
        with pytest.raises(simkit.SimkitError,
                           match="inertia constants must be positive"):
            simkit.PowerSystemModel(
                name="bad", f0=60.0, inertia=np.array([0.0, 1.0]),
                damping=smib.damping, emf=smib.emf, pm=smib.pm,
                y_prefault=smib.y_prefault, y_fault=dict(smib.y_fault))


def test_model_file_round_trip():
    # the committed .sys fixtures are written from the builders; loading
    # them must give the builders' arrays back exactly
    for name, build in (("three_machine", networks.three_machine_model),
                        ("smib", networks.smib_model)):
        loaded = simkit.load_model(f"fixtures/{name}.sys")
        built = build()
        assert (loaded.name, loaded.f0) == (built.name, built.f0)
        for field in ("inertia", "damping", "emf", "pm", "y_prefault"):
            assert np.array_equal(getattr(loaded, field),
                                  getattr(built, field)), (name, field)
        assert list(loaded.y_fault) == list(built.y_fault)
        for fid, mat in built.y_fault.items():
            assert np.array_equal(loaded.y_fault[fid], mat), (name, fid)


def test_grid_spec_round_trip():
    common = {"clearing_cycles": [5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
              "step": 0.004166666666666667, "horizon": 3.0, "seed": 7}
    assert simkit.load_grid_spec("fixtures/smib.grid") == {
        "faults": ["fault"],
        "load_levels": [0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2,
                        1.25, 1.3],
        **common}
    assert simkit.load_grid_spec("fixtures/three_machine.grid") == {
        "faults": ["bus1", "bus2", "bus3"],
        "load_levels": [0.8, 0.825, 0.85, 0.875, 0.9, 0.925, 0.95, 0.975,
                        1.0, 1.025, 1.05, 1.075, 1.1, 1.125, 1.15, 1.175,
                        1.2, 1.225, 1.25, 1.275, 1.3],
        **common}


def test_windowed_run_matches_full_history(monkeypatch):
    # generate keeps step 0 and the window and drops settled rows; the
    # samples it keeps must be the full history's, bit for bit
    model = simkit.load_model("fixtures/three_machine.sys")
    grid = simkit.build_scenario_grid(
        **simkit.load_grid_spec("fixtures/three_machine.grid"))
    full = simkit.simulate_scenarios(model, grid)
    row_steps = []
    rk4_step = kernels.rk4_step

    def counted(delta, *args):
        row_steps.append(len(delta))
        return rk4_step(delta, *args)

    monkeypatch.setattr(kernels, "rk4_step", counted)
    win = simkit.simulate_scenarios(model, grid, keep=features.sample_steps)
    assert win.steps.shape == (len(grid), 1 + features.WINDOW_SAMPLES)
    for name in ("delta_deg", "speed_dev", "pe"):
        kept = np.take_along_axis(getattr(full, name), win.steps[..., None],
                                  axis=1)
        assert np.array_equal(getattr(win, name), kept), name
    gaps = simkit.angle_gap(full.delta_deg).max(axis=1)
    assert np.array_equal(full.max_gap_deg, gaps)
    stable = features.label_trajectory(win) == features.STABLE
    assert np.array_equal(stable, features.label_trajectory(full)
                          == features.STABLE)
    assert np.array_equal(win.max_gap_deg[stable], gaps[stable])
    assert np.all(win.max_gap_deg[~stable] >= 360.0)
    n_steps = len(full.time) - 1
    assert sum(row_steps) < len(grid) * n_steps


def test_rows_share_one_matrix_after_the_last_clearing(monkeypatch):
    # per-row matrices serve the fault-on steps only: once the last row
    # has cleared, every step runs on the one (G, G) prefault matrix
    model = simkit.load_model("fixtures/three_machine.sys")
    grid = simkit.build_scenario_grid(
        **simkit.load_grid_spec("fixtures/three_machine.grid"))
    calls = []
    rk4_step = kernels.rk4_step

    def recorded(delta, omega, dt, *args):
        calls.append((np.ndim(dt), args[-2].ndim))    # (dt, matrix) ranks
        return rk4_step(delta, omega, dt, *args)

    monkeypatch.setattr(kernels, "rk4_step", recorded)
    simkit.simulate_scenarios(model, grid, keep=features.sample_steps)
    # a step where some row clears splits its dt per row
    last_clearing = max(i for i, (dt_rank, _) in enumerate(calls)
                        if dt_rank == 2)
    after = [y_rank for _, y_rank in calls[last_clearing + 1:]]
    assert (0, 3) in calls[:last_clearing]
    assert len(after) > 100 and set(after) == {2}


def test_smib_labels_hold_at_half_step():
    # a run stops at its first 360° gap, so that verdict must not be an
    # artefact of the step: halving it moves none of the fixture labels
    model = simkit.load_model("fixtures/smib.sys")
    spec = simkit.load_grid_spec("fixtures/smib.grid")

    def labels(step):
        grid = simkit.build_scenario_grid(**{**spec, "step": step})
        return features.label_trajectory(simkit.simulate_scenarios(
            model, grid, keep=features.sample_steps))

    base = labels(spec["step"])
    assert base.size == 66 and np.sum(base == features.UNSTABLE) == 16
    assert np.array_equal(labels(spec["step"] / 2), base)


PAPER_GRID = {"faults": ["bus1", "bus2", "bus3"],
              "clearing_cycles": np.linspace(5.0, 10.0, 50),
              "load_levels": np.linspace(0.8, 1.3, 22), "seed": 7}


def count_row_steps(monkeypatch):
    """The number of rows each kernels.rk4_step call advances, as a list
    the calls append to."""
    row_steps = []
    rk4_step = kernels.rk4_step

    def counted(delta, *args):
        row_steps.append(len(delta))
        return rk4_step(delta, *args)

    monkeypatch.setattr(kernels, "rk4_step", counted)
    return row_steps


def windowed_runs(monkeypatch, model, grid):
    """`generate`'s windowed run of `grid`, first with `_certificate`
    patched to refuse every level, then as it is: each (trajectory,
    row-steps)."""
    counted = count_row_steps(monkeypatch)
    runs = []
    for patched in (True, False):
        counted.clear()
        with monkeypatch.context() as m:
            if patched:
                m.setattr(simkit, "_certificate", lambda *_: "not requested")
            runs.append((simkit.simulate_scenarios(
                model, grid, keep=features.sample_steps), sum(counted)))
    return runs


def test_full_history_builds_no_certificate(monkeypatch, smib):
    # with every step kept no row can stop before the horizon, so a run
    # without `keep` never builds a certificate and says so
    def refused(*_):
        raise AssertionError("full history built a certificate")

    monkeypatch.setattr(simkit, "_certificate", refused)
    grid = simkit.build_scenario_grid(["fault"], [5.0, 10.0], [1.0], seed=1)
    traj = simkit.simulate_scenarios(smib, grid)
    assert traj.certificate == "full history"
    assert np.all(traj.stop_step == 720)


def lossless_network(n, seed):
    """A lossless n-machine network with random couplings, resting at
    random angles within ±35° (Pm balances them), with a fault at each
    machine that cuts it off from the others."""
    rng = np.random.default_rng(seed)
    b = np.triu(rng.uniform(0.3, 1.0, (n, n)), 1)
    y = 1j * (b + b.T - np.diag((b + b.T).sum(axis=1)))
    emf = rng.uniform(1.0, 1.2, n)
    faults = {}
    for k in range(n):
        faults[f"bus{k + 1}"] = y.copy()
        faults[f"bus{k + 1}"][k, :] = faults[f"bus{k + 1}"][:, k] = 0.0
    return simkit.PowerSystemModel(
        name=f"lossless{n}", f0=60.0, inertia=rng.uniform(0.2, 0.8, n),
        damping=rng.uniform(0.0, 0.1, n), emf=emf,
        pm=kernels.electrical_power(np.radians(rng.uniform(-35, 35, n)),
                                    emf, y),
        y_prefault=y, y_fault=faults)


#: clearing times, levels and seed for `lossless_network`, faulted at each
#: machine in turn
LOSSLESS_GRID = {"clearing_cycles": [5.0, 7.5, 10.0],
                 "load_levels": [1.0, 1.2], "seed": 1}


@pytest.mark.parametrize("case, stopped, last, row_steps", [
    ("smib", 50, 72, (38_099, 5_699)),
    ("three_machine", 261, 240, (199_655, 37_871)),
    ("paper", 2_296, 264, (1_754_522, 335_954)),
    ("four_machines", 16, 120, (12_107, 1_907)),
])
def test_certified_run_matches_full_horizon(case, stopped, last, row_steps,
                                            monkeypatch):
    # [DERIVED] counts of this tree. The energy certificate stops only
    # stable rows past their window: the labels and the KB's samples, bit
    # for bit (so its bytes), are the full-horizon run's, and no row it
    # stopped is unstable there.
    if case == "four_machines":
        model = lossless_network(4, seed=38)
        spec = {"faults": sorted(model.y_fault), **LOSSLESS_GRID}
    else:
        model = simkit.load_model(
            f"fixtures/{'smib' if case == 'smib' else 'three_machine'}.sys")
        spec = (PAPER_GRID if case == "paper"
                else simkit.load_grid_spec(f"fixtures/{case}.grid"))
    grid = simkit.build_scenario_grid(**spec)
    runs = []
    for traj, steps in windowed_runs(monkeypatch, model, grid):
        kb = features.build_knowledge_base(traj, spec["seed"])
        runs.append((traj, kb.labels, kb.samples.tobytes(), steps))
    (full, full_labels, full_bytes, full_steps), \
        (cert, labels, cert_bytes, cert_steps) = runs
    assert full.certificate == "not requested" and cert.certificate == ""
    assert np.array_equal(labels, full_labels)
    assert cert_bytes == full_bytes
    n_steps = len(cert.time) - 1
    assert np.all(full.stop_step[full_labels == features.STABLE] == n_steps)
    early = cert.stop_step < n_steps
    assert np.all(full_labels[early & (cert.max_gap_deg < 360.0)]
                  == features.STABLE)
    certified = early & (labels == features.STABLE)
    assert int(certified.sum()) == stopped
    assert int(cert.stop_step[certified].max()) == last
    assert (full_steps, cert_steps) == row_steps


def uncoupled(model):
    """`model` with no susceptance between machines 0 and 1 after the
    fault, and Pm reset to balance its old angles."""
    y = model.y_prefault.copy()
    y[0, 1] = y[1, 0] = 0.0
    return replace(model, y_prefault=y, pm=kernels.electrical_power(
        one_level(model)[2], model.emf, y))


@pytest.mark.parametrize("case, why", [
    ("lossy", "transfer conductance in the postfault network"),
    ("uncoupled pair", "a pair with C_ij <= 0"),
])
def test_uncertified_networks_run_full_horizon(case, why, monkeypatch,
                                               three_machine):
    # the bound holds only for a lossless network whose pairs are all
    # coupled: with transfer conductance, or a pair with B_ij = 0, it
    # refuses, and every row runs as without it
    model = {"lossy": lossy, "uncoupled pair": uncoupled}[case](
        three_machine)
    grid = simkit.build_scenario_grid(["bus1"], [5.0, 8.0], [0.9, 1.0, 1.2],
                                      seed=1)
    (full, full_steps), (cert, cert_steps) = windowed_runs(monkeypatch,
                                                          model, grid)
    assert cert.certificate == why
    assert cert_steps == full_steps
    assert np.array_equal(cert.stop_step, full.stop_step)
    stable = features.label_trajectory(cert) == features.STABLE
    assert stable.any() and np.all(cert.stop_step[stable] == 720)


@pytest.mark.parametrize("level", [0.8, 1.0, 1.3])
def test_energy_bound_is_the_equal_area_energy(smib, level):
    # on SMIB the closest unstable equilibrium is π − s, so V_min is the
    # equal-area critical energy ∫_s^{π−s} (C·sin x − P) dx; the ceiling
    # is V_min less 2π·Σ|Pm − Pe(δ*)|, under 1e-14 on these levels
    emf, pm, ref = one_level(smib, level)
    y = smib.y_prefault
    ceiling, c, s, *_ = (a[0] for a in simkit._certificate(
        emf[None], pm[None], ref[None], y))
    p = pm[0] - emf[0] ** 2 * y[0, 0].real
    assert c[0] == emf[0] * emf[1] * y[0, 1].imag
    assert s[0] == ref[0] - ref[1] and 0 < s[0] < math.pi / 2

    def antiderivative(x):
        return -c[0] * math.cos(x) - p * x

    critical = antiderivative(math.pi - s[0]) - antiderivative(s[0])
    assert ceiling == pytest.approx(critical, rel=0, abs=1e-12)


@pytest.mark.parametrize("angle", [90.0, 95.0, 150.0])
def test_energy_bound_refuses_pairs_far_apart(smib, angle):
    # the pair term's smaller end value is ≤ 0 from |s| = 90° on
    def why(ref):
        return simkit._certificate(smib.emf[None], smib.pm[None],
                                   np.radians([ref]), smib.y_prefault)

    assert why([angle, 0.0]) == \
        "a pair 90 degrees or more apart at the operating point"
    assert why([0.0, angle]) == why([angle, 0.0])


def test_energy_bound_refuses_negative_coupling(smib):
    emf, pm, ref = (a[None] for a in one_level(smib))
    assert simkit._certificate(emf, pm, ref, -smib.y_prefault) == \
        "a pair with C_ij <= 0"


@pytest.mark.parametrize("case", ["smib", "4 machines", "10 machines"])
def test_bound_is_sound_on_full_histories(case):
    # a row that meets the row test at any postfault step, with the
    # ceiling a windowed run applies, never reaches a 360° gap later
    if case == "smib":
        model = simkit.load_model("fixtures/smib.sys")
        grid = simkit.build_scenario_grid(
            **simkit.load_grid_spec("fixtures/smib.grid"))
    else:
        model = lossless_network(int(case.split()[0]), seed=38)
        grid = simkit.build_scenario_grid(sorted(model.y_fault),
                                          **LOSSLESS_GRID)
    traj = simkit.simulate_scenarios(model, grid)
    n_rows, n_t, g = traj.delta_deg.shape
    emf, pm, ref = simkit.operating_points(
        model, [sc.load_level for sc in grid])
    certificate = simkit._certificate(emf, pm, ref, model.y_prefault)
    met = simkit._certified(
        np.radians(traj.delta_deg).reshape(-1, g),
        traj.speed_dev.reshape(-1, g),
        [np.repeat(a, n_t, axis=0) for a in certificate], model
    ).reshape(n_rows, n_t)
    met &= traj.time > traj.t_clear[:, None]
    gap = simkit.angle_gap(traj.delta_deg)
    later = np.maximum.accumulate(gap[:, ::-1], axis=1)[:, ::-1]
    assert met.any() and np.any(traj.max_gap_deg >= 360.0)
    assert np.all(later[met] < 360.0)
