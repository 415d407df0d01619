"""Swarm and genetic optimization of the ELM parameterization.

Particles live in the unit cube; a flat position vector packs the hidden
input weights, biases, a binary feature-selection mask, and per-neuron
activation codes. IPSO augments plain PSO with fitness-variance
monitoring and a mutation rescue when the swarm stagnates below target.
"""

import csv
import functools
import logging
import operator
from dataclasses import dataclass

import numpy as np

from . import elm, metrics
from .features import kfold_partition

logger = logging.getLogger(__name__)

_STREAM_INIT = 0
_STREAM_UPDATE = 1
_STREAM_MUTATE = 2
_STREAM_GA = 3


@dataclass(frozen=True)
class EncodingSpec:
    """Layout of the flat position vector [a | b | s | cf] in [0,1]^D."""

    n_features: int
    hidden: int

    @functools.cached_property
    def dim(self):
        n, L = self.n_features, self.hidden
        return L * n + L + n + L

    @functools.cached_property
    def slices(self):
        n, L = self.n_features, self.hidden
        a_end = L * n
        b_end = a_end + L
        s_end = b_end + n
        return {
            "a": slice(0, a_end),
            "b": slice(a_end, b_end),
            "s": slice(b_end, s_end),
            "cf": slice(s_end, s_end + L),
        }


# IPSO runs with one fixed set of coefficients, as in the paper
C1 = C2 = 2.0
W_START, W_END = 0.9, 0.4       # inertia, falling linearly
V_MAX = 0.2                     # velocity clamp, fraction of the unit range
MUTATION_COEFF = 0.1
BAND_LOW, BAND_HIGH = 0.9, 1.1  # premature-convergence ratio band
VARIANCE_FLOOR = 1e-4           # stagnation needs a variance below this
# GA operator probabilities
CROSSOVER_PROB = 0.85
MUTATION_PROB = 0.01
N_FOLDS = 5                     # cross-validation folds of the fitness
# Most floats one population array may hold (population × dim): 80 MB.
# A run holds a handful of them (positions, velocities, personal bests and
# a rescue's temporaries); 50 particles at L = 200 over 132 features need
# 1.35 million
MAX_SWARM_VALUES = 10_000_000


@dataclass(frozen=True)
class SwarmConfig:
    population: int = 20
    max_iterations: int = 200
    fitness_target: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.max_iterations < 0:
            raise ValueError("max iterations must be at least 0")
        if not 0 <= self.fitness_target <= 1:
            raise ValueError("fitness target must be in [0, 1]")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    best_fitness: float
    avg_fitness: float
    variance: float
    mutated: bool


@dataclass(frozen=True)
class OptimizationResult:
    best_position: np.ndarray
    best_fitness: float
    trace: tuple                 # of IterationRecord
    evaluations: int


def decode_particle(position, spec):
    """Map a unit-cube position to (weights a (L×n), biases b, feature
    mask, activation codes cf); a is over all n features.

    Weights and biases go affinely to [−1, 1]; mask bits switch at 0.5;
    activation codes split [0,1] into thirds. Empty masks and all-off
    activation vectors are repaired by promoting the largest raw entry.
    """
    position = np.asarray(position, dtype=float)
    if position.shape != (spec.dim,):
        raise ValueError(f"position length {position.shape} != {spec.dim}")
    # a NaN anywhere makes the minimum NaN, which fails the test too
    if not (position.min() >= 0.0 and position.max() <= 1.0):
        raise ValueError("position outside the unit cube")
    sl = spec.slices
    a = 2.0 * position[sl["a"]].reshape(spec.hidden, spec.n_features) - 1.0
    b = 2.0 * position[sl["b"]] - 1.0
    raw_s = position[sl["s"]]
    raw_cf = position[sl["cf"]]
    mask = raw_s >= 0.5
    if not mask.any():
        mask[int(np.argmax(raw_s))] = True
    cf = np.minimum(np.floor(raw_cf * 3.0).astype(int), elm.ACT_LINEAR)
    if not cf.any():                    # every code is ACT_OFF, 0
        cf[int(np.argmax(raw_cf))] = elm.ACT_SIGMOID
    return a, b, mask, cf


@dataclass(frozen=True)
class FitnessContext:
    """5-fold cross-validation fitness over a fixed fold partition; its
    `samples` is a read-only view, so the caller's rows stay writeable."""

    samples: np.ndarray
    labels: np.ndarray          # float ±1
    spec: EncodingSpec
    # (N_FOLDS, max fold size) test rows; shorter folds are padded with
    # row N, which the Gram path reads as a zero row
    test_index: np.ndarray

    @classmethod
    def build(cls, samples, labels, spec, seed=0):
        tests = kfold_partition(labels, N_FOLDS, seed)
        test_index = np.full((N_FOLDS, max(map(len, tests))), len(labels))
        for k, test in enumerate(tests):
            test_index[k, :len(test)] = test
        samples, labels = np.asarray(samples).view(), np.array(labels, float)
        for array in (samples, labels, test_index):
            array.setflags(write=False)
        return cls(samples, labels, spec, test_index)

    def __call__(self, position):
        return evaluate_fitness(position, self)


class SharedFitness:
    """`fitness`, every call forwarded, holding IPSO's rescue-free runs
    for `run_pso` to take instead of repeating them.

    PSO and IPSO are one `_search` from the same seeded streams, and only
    `mutated = rescue and premature_check(...)` reads `rescue`: until it is
    true both score the same positions in the same order. So an IPSO run
    with no mutated record is PSO's whole result, best position bytes, best
    fitness, trace and evaluations alike. `runs` maps (dim, config) to
    that result.
    """

    def __init__(self, fitness):
        self._fitness = fitness
        self.runs = {}

    def __call__(self, position):
        return self._fitness(position)


# Certificate floor of the Gram path, relative to the trace of the all-row
# HᵀH: a fold whose smallest training-Gram eigenvalue is not certified above
# it sends the particle to the SVD
GRAM_KEEP = 1e-9


def evaluate_fitness(position, ctx):
    """Fraction of held-out samples classified correctly over all folds.

    The position is decoded once under `ctx.spec`, and one hidden layer of
    the active neurons only is built over all rows; an `ACT_OFF` column is
    zero, so it would get zero weight anyway. Each fold's output weights
    are the minimal-norm least-squares fit that `elm.train` computes: a
    solve with the fold's training Gram matrix when a Cholesky
    factorization certifies it well conditioned (`_gram_fold_scores`), and
    otherwise `elm.pseudoinverse` at the full width's cutoff.

    A degenerate particle that breaks training scores 0 (logged) so the
    optimizer never crashes mid-run.
    """
    a, b, mask, cf = decode_particle(position, ctx.spec)
    on = cf != elm.ACT_OFF
    h = elm.hidden_matrix(ctx.samples[:, mask], a[on][:, mask], b[on], cf[on])
    try:
        correct = _gram_fold_scores(h, ctx.labels, ctx)
        if correct is None:
            correct = _svd_fold_scores(h, ctx.labels, ctx)
    except np.linalg.LinAlgError as exc:
        logger.warning("degenerate particle scored 0: %s", exc)
        return 0.0
    return correct / len(ctx.labels)


def _svd_fold_scores(h, y, ctx):
    """Held-out rows classified correctly over all folds, each fold solved
    by `elm.pseudoinverse` at the full width's cutoff (the reference)."""
    correct = 0
    for test in ctx.test_index:
        test = test[test < len(y)]          # the padding dropped
        train = np.setdiff1d(np.arange(len(y)), test)
        beta = elm.pseudoinverse(h[train], width=ctx.spec.hidden) @ y[train]
        pred = metrics.verdict(h[test] @ beta)
        correct += int(np.count_nonzero(pred == y[test]))
    return correct


def _gram_fold_scores(h, y, ctx):
    """Held-out rows classified correctly over all folds, or None.

    A = [h|y]ᵀ[h|y] over all rows minus a fold's test-row Gram gives that
    fold's training G = HᵀH and Hᵀy. One batched Cholesky of G − τ·I, with
    τ = GRAM_KEEP·trace(HᵀH over all rows), certifies λ_min(G) > τ ≥
    GRAM_KEEP·λ_max(G): every singular value of the fold's H is kept by the
    SVD, so the minimal-norm fit is β = G⁻¹·Hᵀy, one batched solve. It
    returns None, for the SVD to decide, when the Gram is non-finite or
    zero, when any fold is not certified, and when the layer is wider than
    a fold's training rows.
    """
    n, width = h.shape
    if width > n - ctx.test_index.shape[1]:
        return None
    hy = np.zeros((n + 1, width + 1))
    hy[:n, :width] = h
    hy[:n, width] = y
    full = hy.T @ hy
    if not np.isfinite(full).all():
        return None
    tau = GRAM_KEEP * np.trace(full[:width, :width])
    if tau <= 0.0:
        return None
    held = hy[ctx.test_index]               # (folds, rows, width + 1)
    grams = full - held.transpose(0, 2, 1) @ held
    # G − τ·I, exactly: τ off the diagonals of a copy, by a strided view
    shifted = grams[:, :width, :width].copy()
    shifted.reshape(len(shifted), -1)[:, ::width + 1] -= tau
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    beta = np.linalg.solve(grams[:, :width, :width], grams[:, :width, width:])
    scores = (held[:, :, :width] @ beta)[:, :, 0]
    pred = metrics.verdict(scores)
    return int(np.count_nonzero(pred == held[:, :, width]))


def fitness_variance(fitnesses):
    """Population fitness variance normalized by the best fitness.

    σ² = Σ((f_i − f_avg)/f_best)²; when |f_best| is (numerically) zero
    the un-normalized sum of squares is returned instead.
    """
    f = np.asarray(fitnesses, dtype=float)
    f_avg = f.mean()
    f_best = f.max()
    dev = f - f_avg
    if abs(f_best) < 1e-12:
        return float(np.sum(dev ** 2))
    return float(np.sum((dev / f_best) ** 2))


def premature_check(var_prev, var_cur, best_improved=False):
    """Stagnation detector for the mutation rescue.

    Fires when the variance ratio sits inside (BAND_LOW, BAND_HIGH), the
    current variance is below the stagnation floor, and the global best
    did not improve this iteration. Two consecutive zero variances count
    as a ratio of one.
    """
    if best_improved or var_cur >= VARIANCE_FLOOR:
        return False
    if var_prev == 0.0:
        return var_cur == 0.0
    ratio = var_cur / var_prev
    return BAND_LOW < ratio < BAND_HIGH


def velocity_update(v, s, p_best, g_best, w, r1, r2):
    """One PSO velocity step, in place on the array v (elementwise, no
    clamping): v ← w·v + C1·r1·(p_best − s) + C2·r2·(g_best − s), summed
    left to right. The arrays r1 and r2 are overwritten."""
    v *= w
    r1 *= C1
    r1 *= p_best - s
    v += r1
    r2 *= C2
    r2 *= g_best - s
    v += r2


def mutate(positions, rng, exempt=None):
    """Perturb positions by c_m·(rand − 0.5) per entry, clamped to [0,1].

    Row `exempt` (the global-best particle) is left untouched.
    """
    positions = np.array(positions, dtype=float)
    rand = rng.random(positions.shape)
    moved = positions + MUTATION_COEFF * (rand - 0.5)
    if exempt is not None:
        moved[exempt] = positions[exempt]
    return np.clip(moved, 0.0, 1.0)


def _rng(seed, *key):
    """default_rng(SeedSequence([seed, *key])), given the uint32 words
    numpy makes of that list: the seed's little-endian 32-bit words ([0]
    for 0), then the key's (each below 2³²). An array of words skips
    numpy's slower coercion of a list."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"the seed {seed} is negative")
    words = [seed >> n & 0xFFFF_FFFF
             for n in range(0, seed.bit_length() or 1, 32)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array([*words, *key], dtype=np.uint32))))


def _inertia(config, k):
    """Linear 0.9 → 0.4 schedule over the iteration budget."""
    if config.max_iterations <= 1:
        return W_START
    frac = (k - 1) / (config.max_iterations - 1)
    return W_START + (W_END - W_START) * frac


def _search(fitness, dim, config, move, seen=None, rescue=False):
    """The search loop IPSO, PSO and GA share; only `move` differs.

    Each iteration scores all of `move(k, positions, fits, gbest)`; with
    `rescue` (IPSO) a stagnant swarm is then mutated around its best and
    re-scored. `seen(rows, positions, fits)` sees every scoring. Only a
    strictly better score replaces the best-ever, the first index among
    ties; the loop ends when the budget is spent or the best passes the
    target.
    """
    n = config.population
    positions = np.array([_rng(config.seed, _STREAM_INIT, i).random(dim)
                          for i in range(n)])
    fits = np.empty(n)
    evaluations, g_idx, gbest, gbest_fit = 0, None, None, -np.inf

    def score(rows):
        """Score `rows`, update the best; True if it rose."""
        nonlocal evaluations, g_idx, gbest, gbest_fit
        for i in rows:
            fits[i] = fitness(positions[i])
        evaluations += len(rows)
        if seen is not None:
            seen(rows, positions, fits)
        best = rows[int(np.argmax(fits[rows]))]
        if fits[best] <= gbest_fit:
            return False
        g_idx, gbest_fit = best, float(fits[best])
        gbest = positions[best].copy()
        gbest.setflags(write=False)     # a shared result reaches two callers
        return True

    everyone = list(range(n))
    score(everyone)
    var = fitness_variance(fits)
    trace = [IterationRecord(0, gbest_fit, float(fits.mean()), var, False)]
    k = 0
    while k < config.max_iterations and gbest_fit <= config.fitness_target:
        k += 1
        positions = move(k, positions, fits, gbest)
        improved = score(everyone)
        var_prev, var = var, fitness_variance(fits)
        mutated = rescue and premature_check(var_prev, var, improved)
        if mutated:
            rng = _rng(config.seed, _STREAM_MUTATE, k)
            positions = mutate(positions, rng, exempt=g_idx)
            score([i for i in everyone if i != g_idx])
            var = fitness_variance(fits)
        trace.append(IterationRecord(k, gbest_fit, float(fits.mean()),
                                     var, mutated))
    return OptimizationResult(best_position=gbest, best_fitness=gbest_fit,
                              trace=tuple(trace), evaluations=evaluations)


def _swarm(dim, config):
    """PSO's move and the personal bests it steers by: (move, seen)."""
    n = config.population
    velocities = np.zeros((n, dim))
    pbest = np.zeros((n, dim))          # filled by the initial scoring
    pbest_fit = np.full(n, -np.inf)
    r1, r2 = np.empty(dim), np.empty(dim)   # one particle's draws, reused

    def seen(rows, positions, fits):
        for i in rows:
            if fits[i] > pbest_fit[i]:
                pbest_fit[i] = fits[i]
                pbest[i] = positions[i]

    def move(k, positions, fits, gbest):
        w = _inertia(config, k)
        for i in range(n):
            rng = _rng(config.seed, _STREAM_UPDATE, k, i)
            rng.random(out=r1)
            rng.random(out=r2)
            v, s = velocities[i], positions[i]
            velocity_update(v, s, pbest[i], gbest, w, r1, r2)
            np.clip(v, -V_MAX, V_MAX, out=v)
            s += v
            np.clip(s, 0.0, 1.0, out=s)
        return positions

    return move, seen


def run_pso(fitness, dim, config):
    """Plain particle swarm (no stagnation monitoring)."""
    if isinstance(fitness, SharedFitness) and (dim, config) in fitness.runs:
        return fitness.runs[dim, config]
    return _search(fitness, dim, config, *_swarm(dim, config))


def run_ipso(fitness, dim, config):
    """PSO plus variance monitoring and mutation rescue."""
    result = _search(fitness, dim, config, *_swarm(dim, config), rescue=True)
    if (isinstance(fitness, SharedFitness)
            and not any(rec.mutated for rec in result.trace)):
        fitness.runs[dim, config] = result
    return result


def run_ga(fitness, dim, config):
    """Real-coded GA baseline on the same encoding and fitness.

    Tournament selection of size 2, uniform crossover, per-gene uniform
    reset mutation, elitism of one (the best-ever position).
    """
    def move(k, positions, fits, gbest):
        rng = _rng(config.seed, _STREAM_GA, k)
        children = np.empty_like(positions)
        children[0] = gbest
        for c in range(1, config.population):
            pa, pb = _tournament(fits, rng), _tournament(fits, rng)
            if rng.random() < CROSSOVER_PROB:
                take_a = rng.random(dim) < 0.5
                child = np.where(take_a, positions[pa], positions[pb])
            else:
                child = positions[pa].copy()
            reset = rng.random(dim) < MUTATION_PROB
            if reset.any():
                child = np.where(reset, rng.random(dim), child)
            children[c] = child
        return children

    return _search(fitness, dim, config, move)


def _tournament(fits, rng):
    a, b = rng.integers(0, len(fits), size=2)
    return int(a if fits[a] >= fits[b] else b)


OPTIMIZERS = {"ipso": run_ipso, "pso": run_pso, "ga": run_ga}


def save_trace(trace, path):
    """Trace CSV: iteration, best/avg fitness, variance, mutated flag."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_fitness", "avg_fitness",
                         "variance", "mutated"])
        for rec in trace:
            writer.writerow([rec.iteration, repr(rec.best_fitness),
                             repr(rec.avg_fitness), repr(rec.variance),
                             int(rec.mutated)])
