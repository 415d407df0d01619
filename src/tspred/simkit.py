"""Classical-model transient simulator for small multi-machine systems.

Generators follow the second-order swing equation with constant internal
EMF; the network is given as reduced admittance matrices at the generator
internal nodes: the prefault matrix, which also holds after clearing
(successful reclosure), and one or more named during-fault matrices.
Three-phase faults are represented purely by switching matrices.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from . import kernels, textio
from .features import INSTABILITY_THRESHOLD_DEG, readonly

#: default integration step: a quarter of a 60 Hz cycle
DEFAULT_STEP = 1.0 / 240.0
DEFAULT_HORIZON = 3.0
#: most steps a scenario may integrate (horizon / step)
MAX_STEPS = 1_000_000

#: |δ| beyond this many degrees aborts with SimkitError
OVERFLOW_LIMIT_DEG = 1.0e6

CLEARING_RANGE_CYCLES = (5.0, 10.0)
LOAD_LEVEL_RANGE = (0.8, 1.3)

_MATRIX_SYMMETRY_TOL = 1e-9
_EQUILIBRIUM_TOL = 1e-8
_NEWTON_MAX_STEPS = 50
_NEWTON_STEP_TOL = 1e-12


class SimkitError(Exception):
    """A malformed or inconsistent power-system model, a prefault
    operating point that cannot be solved, or a rotor angle past the
    overflow guard."""


@dataclass(frozen=True)
class PowerSystemModel:
    """Generators plus reduced admittance matrices for each fault stage.

    `y_fault` maps fault identifiers to during-fault matrices so one model
    file can describe several fault locations on the same system.
    """

    name: str
    f0: float
    inertia: np.ndarray        # H_i, seconds on machine base
    damping: np.ndarray        # D_i, per-unit
    emf: np.ndarray            # internal EMF magnitude E_i, per-unit
    pm: np.ndarray             # mechanical power, per-unit
    y_prefault: np.ndarray     # complex G×G, also after clearing
    y_fault: dict              # fault id -> complex G×G

    def __post_init__(self):
        for name in ("inertia", "damping", "emf", "pm"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        object.__setattr__(self, "y_prefault",
                           readonly(self.y_prefault, complex))
        object.__setattr__(
            self, "y_fault",
            {k: readonly(v, complex) for k, v in self.y_fault.items()})
        self._validate()

    def _validate(self):
        ng = self.n_generators
        if ng == 0:
            raise SimkitError("model has no generators")
        for name in ("damping", "emf", "pm"):
            if getattr(self, name).shape != (ng,):
                raise SimkitError(f"{name} length != generator count")
        for name in ("f0", "inertia", "damping", "emf", "pm"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise SimkitError(f"{name} must be finite")
        if np.any(self.inertia <= 0):
            raise SimkitError("inertia constants must be positive")
        if np.any(self.damping < 0):
            raise SimkitError("damping must be non-negative")
        if self.f0 <= 0:
            raise SimkitError("base frequency must be positive")
        for label, mat in [("prefault", self.y_prefault), *(
                (f"fault '{fid}'", m) for fid, m in self.y_fault.items())]:
            if mat.shape != (ng, ng):
                raise SimkitError(
                    f"{label} matrix shape {mat.shape} != ({ng}, {ng})")
            if not np.all(np.isfinite(mat)):
                raise SimkitError(f"{label} matrix must be finite")
            if not np.allclose(mat, mat.T, atol=_MATRIX_SYMMETRY_TOL,
                               rtol=0.0):
                raise SimkitError(f"{label} matrix is not symmetric")
        if not self.y_fault:
            raise SimkitError("model defines no during-fault matrix")

    @property
    def n_generators(self):
        return int(self.inertia.shape[0])

    @property
    def omega0(self):
        """Synchronous speed in rad/s."""
        return 2.0 * math.pi * self.f0


class SimulationScenario(NamedTuple):
    """One disturbance case; a plain row, checked by simulate_scenarios."""

    fault: str
    clearing_cycles: float
    load_level: float = 1.0
    step: float = DEFAULT_STEP
    horizon: float = DEFAULT_HORIZON


@dataclass(frozen=True)
class Trajectory:
    """Samples of a time-domain response on a uniform grid, of one
    scenario or a batch.

    `steps` names the grid step of each kept sample: every step of `time`
    for a full history, fewer when the run kept only some. Angles in
    degrees, speed deviations in rad/s, powers in per-unit, clearing times
    in seconds. `max_gap_deg` is the largest pairwise rotor-angle gap up to
    `stop_step`, the last step integrated: the horizon's, or earlier on a
    360° gap or an energy certificate (`certificate` says why none applied,
    '' if one did). A batch puts a leading scenario axis S on every series
    and on `pm`, `t_clear`, `max_gap_deg` and `stop_step`; one scenario has
    none. `inertia` and `f0` are echoed from the model for feature extraction.
    """

    time: np.ndarray           # (T+1,), the integration grid
    steps: np.ndarray          # ([S,] K), grid step of each sample
    delta_deg: np.ndarray      # ([S,] K, G)
    speed_dev: np.ndarray      # ([S,] K, G), rad/s
    pm: np.ndarray             # ([S,] G)
    pe: np.ndarray             # ([S,] K, G)
    t_clear: np.ndarray        # ([S]), fault clearing time
    max_gap_deg: np.ndarray    # ([S])
    stop_step: np.ndarray      # ([S])
    inertia: np.ndarray        # (G,)
    f0: float
    certificate: str = "full history"   # a run keeping every step has none

    def __post_init__(self):
        for name in ("time", "delta_deg", "speed_dev", "pm", "pe",
                     "t_clear", "max_gap_deg", "inertia"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        object.__setattr__(self, "steps", readonly(self.steps, int))
        object.__setattr__(self, "stop_step", readonly(self.stop_step, int))

    def row(self, s):
        """Scenario `s` of a batch, without the scenario axis (views)."""
        return replace(self, **{name: getattr(self, name)[s] for name in
                                ("steps", "delta_deg", "speed_dev", "pm",
                                 "pe", "t_clear", "max_gap_deg", "stop_step")})

    def at(self, steps):
        """(delta_deg, speed_dev, pe) at grid `steps` ([S,] n), each
        ([S,] n, G); a step the run did not keep raises ValueError."""
        pos = np.argmax(self.steps[..., None, :] == steps[..., None], axis=-1)
        if not np.array_equal(np.take_along_axis(self.steps, pos, -1),
                              steps):
            raise ValueError("trajectory keeps no sample at some of grid "
                             f"steps {np.unique(steps).tolist()}")
        return tuple(np.take_along_axis(x, pos[..., None], axis=-2)
                     for x in (self.delta_deg, self.speed_dev, self.pe))


def angle_gap(delta_deg):
    """Largest pairwise rotor-angle gap at each instant: max − min over the
    machine axis, one machine at a time (numpy reduces a short axis slowly)."""
    by_machine = delta_deg.T
    return (reduce(np.maximum, by_machine) - reduce(np.minimum, by_machine)).T


def _power_mismatch(delta, emf, pm, y):
    """Pm − Pe(δ) under the prefault matrix `y`; δ in radians."""
    return pm - kernels.electrical_power(delta, emf, y)


def _newton(delta, emf, pm, y):
    """Newton's method on Pm − Pe(δ) = 0 from every start of `delta`
    (radians, ([N,] G)), updated in place with the last machine's angle
    held: at most 50 steps of the analytic ∂Pe/∂δ, each row ending once
    none of its angles moves by over 1e-12 or its Jacobian is singular.
    Returns `delta`."""
    d = np.atleast_2d(delta)
    e, p = (np.broadcast_to(a, d.shape) for a in (emf, pm))
    rows = np.arange(len(d))            # the rows still moving
    for _ in range(_NEWTON_MAX_STEPS):
        at, e_at = d[rows], e[rows]
        jac = kernels.power_jacobian(at, e_at, y)[:, :-1, :-1]
        rhs = _power_mismatch(at, e_at, p[rows], y)[:, :-1, None]
        try:
            step = np.linalg.solve(jac, rhs)[..., 0]
        except np.linalg.LinAlgError:   # a singular row takes no step
            step = np.zeros(rhs.shape[:-1])
            for r in range(len(rows)):
                try:
                    step[r] = np.linalg.solve(jac[r], rhs[r])[:, 0]
                except np.linalg.LinAlgError:
                    pass
        d[rows, :-1] = at[:, :-1] + step
        rows = rows[np.max(np.abs(step), axis=-1, initial=0.0)
                    > _NEWTON_STEP_TOL]
        if not len(rows):
            break
    return delta


def operating_points(model, levels):
    """(emf, pm, delta0), each (L, G): EMFs, Pm and prefault angles of
    `model` at each of `levels`.

    Level 1 keeps the model's own vectors. Otherwise Pm is scaled by the
    level; the EMF magnitudes are kept when the scaled system still has
    an equilibrium, else re-derived as E·sqrt(level), which scales every
    power-flow term by the level and preserves the base-case angles
    exactly. Without transfer conductance ΣPe = ΣE_i²G_ii, so a scaled ΣPm
    off it by over G·1e-8 cannot balance and is not tried. Each candidate
    is solved once, in two rounds of one `_newton` call each: level 1 and
    the levels that keep their EMFs, then the E·sqrt(level) ones. Newton
    holds the last machine's angle at 0 and, from equal angles, solves
    the others; a candidate holds when its full residual (the reference
    machine's too) is at most 1e-8 pu. The first of `levels` that no
    candidate holds raises SimkitError.
    """
    levels = np.asarray(levels, dtype=float)
    y = model.y_prefault
    pm = levels[:, None] * model.pm
    emf = np.repeat(model.emf[None], len(levels), axis=0)
    delta = np.zeros_like(pm)
    mismatch = np.full(len(levels), np.inf)
    base = levels == 1.0
    excess = np.abs(np.sum(pm - model.emf ** 2 * y.real.diagonal(), axis=1))
    kept = base | ~(_lossless_transfer(y)
                    & (excess > model.n_generators * _EQUILIBRIUM_TOL))

    def solve(rows):
        if len(rows):
            e, p = emf[rows], pm[rows]
            delta[rows] = d = _newton(np.zeros(p.shape), e, p, y)
            mismatch[rows] = np.abs(_power_mismatch(d, e, p, y)).max(axis=-1)

    solve(np.flatnonzero(kept))
    rescaled = np.flatnonzero(~base & ~(mismatch <= _EQUILIBRIUM_TOL))
    emf[rescaled] = model.emf * np.sqrt(levels[rescaled, None])
    solve(rescaled)
    failed = np.flatnonzero(~(mismatch <= _EQUILIBRIUM_TOL))
    if len(failed):
        k = failed[0]
        raise SimkitError(
            f"no prefault equilibrium (max mismatch {mismatch[k]:.3e} pu)"
            if base[k] else
            f"load level {levels[k]} destroys the operating point")
    return emf, pm, delta


# Transient-energy certificate (README, "Features and labeling"), after
# T. L. Vu and K. Turitsyn, IEEE Trans. Power Systems 31(2), 2016. Without
# transfer conductance the postfault V = ½ΣM_iω_i² + W has dV/dt = −ΣD_iω_i²
# ≤ 0, and W splits into pair terms, each ≥ 0 on its pair angle's interval
# (−π − s, π − s) and peaking at both ends. A state inside every interval
# with V below the least end value stays inside: each gap < π + |s| < 360°.
CERTIFY_EVERY = 24           # steps between a running row's checks


def _lossless_transfer(y):
    """True when no off-diagonal conductance couples the machines of `y`."""
    return not np.any(y.real - np.diag(np.diag(y.real)))


def _certificate(emf, pm, ref, y):
    """Each load level's energy bound, or why none applies at any level
    (the first level's reason). EMFs `emf`, Pm `pm` and operating angles
    `ref` on `y` are each (L, G); returns (ceiling, C, s, cos s, P, x*),
    each with the level axis first:
    - C_ij = E_iE_jB_ij and s_ij = δ*_i − δ*_j over pairs i < j;
    - P_i = Pm_i − E_i²G_ii, and x* is ref less the last machine's angle;
    - ceiling = V_min − 2π·Σ|Pm − Pe(δ*)|, −inf where the bound fails.
    Pair term −C(cos x − cos s) − C·sin s·(x − s) has its smaller end value
    C(2cos|s| − (π − 2|s|)·sin|s|), positive when C > 0 and |s| < 90°, and
    V_min is the least over the pairs. The subtracted term covers W = Σ pair
    terms − Σr_i·x_i, with r = Pm − Pe(δ*) and |x_i| < 2π."""
    if not _lossless_transfer(y):
        return "transfer conductance in the postfault network"
    i, j = np.triu_indices(ref.shape[-1], 1)
    c, s = emf[:, i] * emf[:, j] * y.imag[i, j], ref[:, i] - ref[:, j]
    a = np.abs(s)
    v_min = np.min(c * (2 * np.cos(a) - (math.pi - 2 * a) * np.sin(a)),
                   axis=-1, initial=math.inf)
    coupled = np.all(c > 0, axis=-1)
    # v_min and the angles both, for rounding
    holds = coupled & (v_min > 0) & np.all(a < math.pi / 2, axis=-1)
    if not np.any(holds):
        return ("a pair 90 degrees or more apart at the operating point"
                if coupled[0] else "a pair with C_ij <= 0")
    ceiling = np.where(holds, v_min, -math.inf) - 2 * math.pi * np.sum(
        np.abs(_power_mismatch(ref, emf, pm, y)), axis=-1)
    return (ceiling, c, s, np.cos(s), pm - emf ** 2 * y.real.diagonal(),
            ref - ref[:, -1:])


def _certified(d, w, certificate, model):
    """Rows of (d, w) with V below the ceiling and every pair angle in
    (−π − s, π − s), `certificate` each row's `_certificate`. W = −ΣP_i·x_i
    − Σ_{i<j} C_ij(cos δ_ij − cos s_ij), x the angles relative to the last
    machine's from x*: its gradient over x is Pe − Pm."""
    ceiling, c, s, cos_s, p, ref = certificate
    i, j = np.triu_indices(d.shape[-1], 1)
    pair = d[:, i] - d[:, j]
    x = d - d[:, -1:] - ref
    pot = (-np.sum(p * x, axis=-1)
           - np.sum(c * (np.cos(pair) - cos_s), axis=-1))
    energy = np.sum(model.inertia / model.omega0 * w ** 2, axis=-1) + pot
    inside = np.all(np.abs(pair + s) < math.pi, axis=-1)
    return (energy < ceiling) & inside


def simulate_scenarios(model, scenarios, keep=None):
    """Integrate fault scenarios together with fixed-step RK4.

    Each scenario starts from the prefault equilibrium at its load level;
    `operating_points` solves the distinct levels together. Its
    during-fault matrix is active on [0, t_clear), the prefault one again
    afterwards; the step containing t_clear is split in two so the state
    is continuous and the switching instant is hit exactly (a clearing on
    the step grid gets a first part of length zero). All rows share one
    step and horizon; each check runs once over the batch (ValueError).

    `keep(t_clear, time)`, called before any step is taken, returns the
    grid steps to record for each scenario, ([S,] K) ints; by default
    every step is kept. Each step updates every running row's largest
    angle gap; a row leaves the batch once that gap has reached the
    instability threshold (its label cannot change) and its last kept
    step is past, so with the default every row runs the whole horizon.
    When some row's last kept step lies before the horizon, a postfault
    row past its last kept step also leaves once its level's energy bound
    proves it stable (checked every 24 steps, from the first step at
    which some row is past its last kept one); a full history tries no
    bound. The overflow guard watches the rows still running. Pe is
    computed at the kept samples only. Returns one Trajectory, scenario
    axis first.
    """
    if not scenarios:
        raise ValueError("the scenario list is empty")
    faults, *columns = zip(*scenarios)
    cycles, levels, dts, spans = (np.array(c, dtype=float) for c in columns)
    lo, hi = LOAD_LEVEL_RANGE
    with np.errstate(all="ignore"):     # a nan or inf row fails below
        ok = ((0 < dts) & (dts <= spans) & (spans < math.inf) & (cycles >= 0)
              & (spans / dts <= MAX_STEPS) & (lo <= levels) & (levels <= hi))
    # the first row failing a check, else row 0: its checks in row order
    _, cyc, level, dt, horizon = scenarios[np.argmin(ok)]
    if not 0 < dt < math.inf:
        raise ValueError("integration step must be positive and finite")
    if not cyc >= 0:
        raise ValueError("clearing time must be non-negative")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if dt > horizon:
        raise ValueError(f"integration step {dt:.4g} s exceeds the horizon "
                         f"{horizon:.4g} s")
    if horizon / dt > MAX_STEPS:
        raise ValueError(f"horizon / step = {horizon / dt:.4g} exceeds the "
                         f"{MAX_STEPS:,}-step limit")
    if not lo <= level <= hi:
        raise ValueError(f"load level {level} outside [{lo}, {hi}]")
    if np.any(dts != dt) or np.any(spans != horizon):
        raise ValueError("scenarios must share one step and horizon")
    try:
        y_fault = np.array([model.y_fault[f] for f in faults])
    except KeyError as exc:
        raise ValueError(f"unknown fault id '{exc.args[0]}'") from None
    t_clear = cycles / model.f0
    if np.any(horizon < t_clear):
        raise ValueError(
            "horizon shorter than the fault clearing time: horizon "
            f"{horizon:g} s, latest clearing {t_clear.max():.4g} s ("
            f"{t_clear.max() * model.f0:g} cycles at f0 = {model.f0:g} Hz)")
    nsteps = int(round(horizon / dt))
    time = np.arange(nsteps + 1) * dt
    n_rows = len(scenarios)
    steps = np.arange(nsteps + 1) if keep is None else keep(t_clear, time)
    steps = np.broadcast_to(steps, (n_rows, np.shape(steps)[-1]))
    if not np.all((0 <= steps) & (steps <= nsteps)):
        raise ValueError("kept steps outside the integration grid")
    _, first, inverse = np.unique(levels, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)           # distinct levels in grid order
    e_lv, p_lv, d_lv = operating_points(model, levels[first[order]])
    at = np.argsort(order)[inverse]     # each row's level
    last = steps.max(axis=1)
    y_pre = model.y_prefault
    why, certify = Trajectory.certificate, ()  # a full history tries no bound
    if np.any(last < nsteps):
        bound = _certificate(e_lv, p_lv, d_lv, y_pre)
        why = bound if isinstance(bound, str) else ""
        if not why:
            certify = tuple(a[at] for a in bound)
    emf, pm, d = e_lv[at], p_lv[at], d_lv[at]
    delta = np.empty((*steps.shape, model.n_generators))
    speed = np.empty_like(delta)
    max_gap = np.empty(n_rows)
    stop_step = np.full(n_rows, nsteps)

    eps = 1e-12
    n_fault = np.minimum(np.floor(t_clear / dt + eps), nsteps).astype(int)
    rem = t_clear - n_fault * dt
    rem[rem <= eps] = 0.0
    hd = (model.inertia, model.damping)
    limit = math.radians(OVERFLOW_LIMIT_DEG)
    recorded = set(np.unique(steps).tolist())
    clearing = set((n_fault + 1).tolist())     # steps some row clears in
    # the running batch: row r of these arrays is scenario rows[r]; y is
    # per row until every row has cleared, then the one prefault matrix
    rows = np.arange(n_rows)
    w = np.zeros_like(d)
    gap = np.full(n_rows, -np.inf)
    y, shared_from = y_fault.copy(), max(clearing)
    run = (emf, pm, n_fault, rem, steps, last, *certify)
    first_settle = last.min()   # no row settles before this step
    for k in range(nsteps + 1):
        e, p, n_f, r_f, kept, last, *cert = run
        if k:
            cut = np.nonzero(n_f == k - 1)[0] if k in clearing else ()
            step = dt
            if len(cut):
                step = np.full((len(d), 1), dt)
                step[cut, 0] = r_f[cut]
            d, w = kernels.rk4_step(d, w, step, *hd, e, p, y, model.omega0)
            if len(cut):
                y[cut] = y_pre
                d[cut], w[cut] = kernels.rk4_step(
                    d[cut], w[cut], dt - r_f[cut, None], *hd, e[cut],
                    p[cut], y_pre, model.omega0)
            if k == shared_from:
                y = y_pre
            if not (np.abs(d) <= limit).all():
                raise SimkitError(
                    "rotor angle exceeded the overflow guard "
                    f"({OVERFLOW_LIMIT_DEG:g} degrees)")
        gap = np.maximum(gap, angle_gap(np.degrees(d)))
        if k in recorded:
            at_r, at_c = np.nonzero(kept == k)
            delta[rows[at_r], at_c] = d[at_r]
            speed[rows[at_r], at_c] = w[at_r]
        if k < first_settle:
            continue
        settled = (gap >= INSTABILITY_THRESHOLD_DEG) & (last <= k)
        if cert and not k % CERTIFY_EVERY:
            settled |= (n_f < k) & (last <= k) & _certified(d, w, cert, model)
        if settled.any():
            max_gap[rows[settled]] = gap[settled]
            stop_step[rows[settled]] = k
            going = np.flatnonzero(~settled)    # take is cheaper than a mask
            rows, d, w, gap = (a.take(going, 0) for a in (rows, d, w, gap))
            run = tuple(a.take(going, 0) for a in run)
            if k < shared_from:
                y = y.take(going, 0)
            if not len(rows):
                break
    max_gap[rows] = gap

    # stored Pe: the prefault matrix's at every kept sample, then the
    # fault's at the samples taken on (0, t_clear)
    pe = kernels.electrical_power(delta, emf[:, None], y_pre)
    row, col = np.nonzero((steps > 0) & (time[steps] < t_clear[:, None]))
    pe[row, col] = kernels.electrical_power(delta[row, col], emf[row],
                                            y_fault[row])
    np.degrees(delta, out=delta)
    for arr in (time, delta, speed, pm, pe, t_clear, max_gap, stop_step):
        arr.setflags(write=False)
    return Trajectory(time=time, steps=steps, delta_deg=delta,
                      speed_dev=speed, pm=pm, pe=pe, t_clear=t_clear,
                      max_gap_deg=max_gap, stop_step=stop_step,
                      inertia=model.inertia, f0=model.f0, certificate=why)


def simulate_trajectory(model, scenario):
    """Integrate one fault scenario: row 0 of a batch of one. Only
    perfbench/make_reference.py calls it."""
    return simulate_scenarios(model, [scenario]).row(0)


def build_scenario_grid(faults, clearing_cycles, load_levels, seed,
                        step=DEFAULT_STEP, horizon=DEFAULT_HORIZON):
    """Cartesian product of faults × clearing times × load levels.

    Deterministic order. `seed` is the grid file's master seed; no
    scenario depends on it, so the same lists give the same grid. A value
    a list repeats (clearing times and load levels compared as floats) is
    refused: its scenarios would be the same rows twice.
    """
    if not faults or not len(clearing_cycles) or not len(load_levels):
        raise ValueError("grid lists must be non-empty")
    for name, values in (("faults", faults),
                         ("clearing_cycles", map(float, clearing_cycles)),
                         ("load_levels", map(float, load_levels))):
        repeated = [v for v, n in Counter(values).items() if n > 1]
        if repeated:
            raise ValueError(f"{name} lists {repeated[0]!r} more than once")
    lo, hi = CLEARING_RANGE_CYCLES
    for c in clearing_cycles:
        if not lo <= c <= hi:
            raise ValueError(f"clearing time {c} cycles outside [{lo}, {hi}]")
    return [SimulationScenario(f, float(cyc), float(lvl), step, horizon)
            for f, cyc, lvl in product(faults, clearing_cycles, load_levels)]


# ---------------------------------------------------------------------------
# Textual file formats
# ---------------------------------------------------------------------------

def load_model(path):
    """Parse the textual .sys model file; a line it cannot read is refused,
    naming the file and the line."""
    with open(path, "rb") as fh:
        lines = textio.directives(fh.read(), path, error=SimkitError,
                                  once=("name", "f0", "generators"))
    name, f0, declared, gens, matrices = "unnamed", 60.0, None, [], {}
    for n, key, value in lines:
        try:
            if key == "name":
                name = " ".join(value.split())
            elif key == "f0":
                f0 = float(value)
            elif key == "generators":
                declared = n, int(value)
            elif key == "gen":
                vals = value.split()
                if len(vals) != 5:
                    raise ValueError(
                        f"'gen {value}' needs 5 values (H D x'd E Pm), not "
                        f"{len(vals)}")
                # x'd is checked to be numeric; the classical model has
                # no use for it
                gens.append([float(v) for v in vals])
            elif key == "matrix":
                label, dim = value.split()
                if label not in ("prefault", "postfault") and (
                        not label.startswith("fault:") or label == "fault:"):
                    raise ValueError(f"matrix label '{label}' is not "
                                     "prefault, postfault or fault:<id>")
                if label in matrices:
                    raise ValueError(f"a second 'matrix {label}' line")
                dim = int(dim)
                if dim < 1:
                    raise ValueError(f"matrix '{label}' dimension {dim} is "
                                     "below 1")
                rows = []
                for r in range(dim):    # past the file's end, an empty row
                    n, first, rest = next(lines, (n, "", ""))
                    rows.append([float(v) for v in f"{first} {rest}".split()])
                    if len(rows[-1]) != 2 * dim:
                        raise ValueError(
                            f"matrix '{label}' row {r} has {len(rows[-1])} "
                            f"values, expected {2 * dim}")
                # each row pairs (re, im) values
                matrices[label] = np.array(rows).view(complex)
            else:
                raise ValueError(f"unknown directive '{key}'")
        except ValueError as exc:
            raise SimkitError(f"{path} line {n}: {exc}") from None
    if not gens:
        raise SimkitError(f"{path}: no generators defined")
    if declared is not None and declared[1] != len(gens):
        raise SimkitError(
            f"{path} line {declared[0]}: 'generators {declared[1]}' but "
            f"{len(gens)} gen lines")
    if "prefault" not in matrices or "postfault" not in matrices:
        raise SimkitError(f"{path}: prefault/postfault matrix missing")
    # checked, not kept: the prefault matrix holds again after clearing
    pre, post = matrices["prefault"], matrices["postfault"]
    if post.shape != pre.shape or not np.allclose(
            post, pre, atol=_MATRIX_SYMMETRY_TOL, rtol=0.0, equal_nan=True):
        raise SimkitError(
            f"{path}: postfault matrix must equal the prefault matrix "
            "(successful reclosure assumption)")
    faults = {label.split(":", 1)[1]: mat
              for label, mat in matrices.items() if label.startswith("fault:")}
    arr = np.array(gens)
    try:
        return PowerSystemModel(
            name=name, f0=f0,
            inertia=arr[:, 0], damping=arr[:, 1], emf=arr[:, 3],
            pm=arr[:, 4], y_prefault=pre, y_fault=faults)
    except SimkitError as exc:
        raise SimkitError(f"{path}: {exc}") from None


def _items(text):
    return [v.strip() for v in text.split(",") if v.strip()]


#: each .grid key and how its value is read
_GRID_KEYS = {"faults": _items, "seed": textio.seed, "step": float,
              "horizon": float,
              "clearing_cycles": lambda v: [float(x) for x in _items(v)],
              "load_levels": lambda v: [float(x) for x in _items(v)]}


def load_grid_spec(path):
    """Parse the .grid file into build_scenario_grid keyword arguments; an
    unknown key or a value it cannot read is refused, naming the file and
    the line."""
    with open(path, "rb") as fh:
        lines = textio.directives(fh.read(), path, sep="=")
    spec = {"step": DEFAULT_STEP, "horizon": DEFAULT_HORIZON}
    for n, key, value in lines:
        try:
            spec[key] = _GRID_KEYS[key](value)
        except KeyError:
            raise ValueError(f"{path} line {n}: unknown key '{key}'") from None
        except ValueError as exc:
            raise ValueError(f"{path} line {n}: {exc}") from None
    missing = [key for key in _GRID_KEYS if key not in spec]
    if missing:
        raise ValueError(f"{path}: no '{missing[0]}' line")
    return spec
