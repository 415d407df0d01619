"""Feature extraction, labeling, and knowledge-base assembly.

A sample is a 9-instant synchrophasor window taken at 60 samples/s from
the fault-clearing instant, combining per-generator dynamic quantities in
the center-of-inertia (COI) frame with prefault static quantities. Labels
follow the sign of 360° minus the largest pairwise rotor-angle excursion.
"""

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import textio

STABLE = 1
UNSTABLE = -1

WINDOW_SAMPLES = 9
WINDOW_RATE_HZ = 60.0
INSTABILITY_THRESHOLD_DEG = 360.0

_CONSTANT_SIGMA = 1e-12


class FeatureError(Exception):
    """A trajectory that ends before the measurement window does, a KB
    that is malformed or of one class, or too few rows to standardize."""


def readonly(arr, dtype=float):
    """A read-only array of `dtype`: `arr` itself when it already is one
    that no writeable array shares memory with, else a read-only copy."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base    # None past the array that owns the memory
    if base is not None or arr.dtype != dtype:
        arr = np.array(arr, dtype=dtype)
        arr.setflags(write=False)
    return arr


def label_trajectory(trajectory):
    """+1 (stable) iff the largest pairwise angle gap stays below 360°.

    A gap of exactly 360° counts as unstable; conservative for a
    protection trigger. One scenario gives one label, a batch an (S,)
    array of them.
    """
    return np.where(trajectory.max_gap_deg < INSTABILITY_THRESHOLD_DEG,
                    STABLE, UNSTABLE)[()]


def feature_dimension(n_generators):
    """9·(4G + 2) window features plus 2G prefault statics."""
    return WINDOW_SAMPLES * (4 * n_generators + 2) + 2 * n_generators


def feature_names(n_generators):
    """The names of a feature row's columns, in order: the KB's column
    layout, which the KB itself does not store."""
    names = []
    for k in range(WINDOW_SAMPLES):
        for i in range(n_generators):
            names += [f"w{k}_g{i}_{kind}" for kind in
                      ("angle_coi", "speed_coi", "acc_power", "kinetic")]
        names += [f"w{k}_max_angle_gap", f"w{k}_coi_speed"]
    for i in range(n_generators):
        names += [f"static_g{i}_pm", f"static_g{i}_angle0_coi"]
    return names


def sample_steps(t_clear, time):
    """Grid steps a feature row reads, ([S,] 10): step 0, then the window
    instants t_clear + k/60 for k = 0..8 on the integration grid `time`:
    the clearing's nearest step, then every 1/60 s. A window that ends
    past the grid raises FeatureError, and a step that does not divide
    1/60 s (within 1e-9) ValueError."""
    dt = time[1] - time[0]
    window = t_clear[..., None] + np.arange(WINDOW_SAMPLES) / WINDOW_RATE_HZ
    if np.max(window) > time[-1] + dt / 2:
        raise FeatureError(
            "horizon shorter than the feature window: horizon "
            f"{time[-1]:.4g} s, window ends {np.max(window):.4g} s")
    per = 1.0 / (WINDOW_RATE_HZ * dt)   # grid steps between two instants
    n = int(np.rint(per))
    if n < 1 or abs(per - n) > 1e-9 * per:
        raise ValueError(f"integration step {dt:.4g} s does not divide the "
                         f"1/{WINDOW_RATE_HZ:g} s feature window spacing")
    idx = np.minimum(np.rint(t_clear / dt).astype(int)[..., None]
                     + n * np.arange(WINDOW_SAMPLES), len(time) - 1)
    return np.concatenate([np.zeros_like(idx[..., :1]), idx], axis=-1)


def extract_features(trajectory):
    """Feature row of one trajectory, or an (S, n) matrix of a batch's
    rows (see feature_names for the layout), read at sample_steps."""
    steps = sample_steps(trajectory.t_clear, trajectory.time)
    delta0 = trajectory.at(steps[..., :1])[0]
    delta, speed, pe = trajectory.at(steps[..., 1:])
    h = trajectory.inertia

    def coi(x):
        return (x @ h / h.sum())[..., None]

    pm = trajectory.pm[..., None, :]
    per_machine = np.stack(
        [delta - coi(delta), speed - coi(speed), pm - pe,
         h * speed ** 2 / (2.0 * np.pi * trajectory.f0)], axis=-1)
    per_instant = np.concatenate(
        [per_machine.reshape(*delta.shape[:-1], -1),
         np.ptp(delta, axis=-1)[..., None], coi(speed)], axis=-1)
    statics = np.stack([pm, delta0 - coi(delta0)], axis=-1)
    lead = steps.shape[:-1]
    return np.concatenate([per_instant.reshape(*lead, -1),
                           statics.reshape(*lead, -1)], axis=-1)


@dataclass(frozen=True)
class KnowledgeBase:
    """Labeled raw feature matrix (columns laid out as feature_names
    lists them) plus its seed and provenance; a non-finite sample value, a
    label other than +1 or -1 and a single class are refused. No field can
    be edited: the arrays are read-only."""

    samples: np.ndarray        # (N, n)
    labels: np.ndarray         # (N,), values in {+1, -1}
    seed: int
    provenance: str = ""

    def __post_init__(self):
        samples = readonly(self.samples)
        labels = np.asarray(self.labels)
        if samples.shape[0] != labels.shape[0]:
            raise FeatureError("sample/label count mismatch")
        bad = _bad_cell(np.column_stack([labels, samples]))
        if bad:
            raise FeatureError(f"sample {bad[0] + 1}, {bad[1]}")
        labels = readonly(labels, int)
        if np.unique(labels).size < 2:
            raise FeatureError(
                f"all {len(labels)} samples have one label: a knowledge base "
                "needs both +1 and -1 rows")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self):
        return int(self.samples.shape[0])

    @property
    def n_features(self):
        return int(self.samples.shape[1])


def _bad_cell(table):
    """(row, why) of the first cell of `table` (labels, then samples) a KB
    refuses, a label other than +1 or -1 or a non-finite sample, or None."""
    bad = ~np.isfinite(table)
    bad[:, 0] = ~np.isin(table[:, 0], (STABLE, UNSTABLE))
    if not np.any(bad):
        return None
    row, col = np.argwhere(bad)[0]
    want = "+1 or -1" if col == 0 else "a finite number"
    return row, (f"CSV column {col + 1} holds {float(table[row, col])!r}, "
                 f"not {want}")


def standardize(samples, train_rows):
    """Z-score each column with statistics from the training rows only.

    Returns (z, means, stds). Uses the sample standard deviation (N−1
    divisor); a column whose training standard deviation is below 1e-12
    maps to all zeros.
    """
    if len(samples) < 2:
        raise FeatureError("need at least 2 samples")
    train = samples[np.asarray(train_rows)]
    means = train.mean(axis=0)
    stds = train.std(axis=0, ddof=1)
    return _zscore(samples, means, stds), means, stds


def apply_standardization(x, means, stds):
    """Standardize raw rows with stored statistics (inference path)."""
    return _zscore(np.atleast_2d(np.asarray(x, dtype=float)), means, stds)


def _zscore(x, means, stds):
    """(x − mean) / std per column; a constant column maps to zeros."""
    constant = stds < _CONSTANT_SIGMA
    z = (x - means) / np.where(constant, 1.0, stds)
    z[:, constant] = 0.0
    return z


class SplitIndex(NamedTuple):
    """A KB's training and test rows: sorted, read-only int arrays."""

    train: np.ndarray
    test: np.ndarray


def split_train_test(kb, train_fraction, seed):
    """Stratified random train/test split, reproducible from the seed. A
    fraction outside (0, 1) raises ValueError, as does one that leaves a
    side fewer than 2 rows when each class has 2 or more."""
    if not 0 < train_fraction < 1:
        raise ValueError("train fraction must be in (0, 1)")
    n = kb.n_samples
    n_train = int(round(train_fraction * n))
    rng = np.random.default_rng(seed)
    classes = [np.nonzero(kb.labels == c)[0] for c in (STABLE, UNSTABLE)]
    counts = [len(c) for c in classes]
    if min(counts) >= 2 and not 2 <= n_train <= n - 2:
        raise ValueError(f"train fraction {train_fraction!r} puts {n_train} "
                         f"of {n} rows in training; each side needs at "
                         "least 2")
    # proportional allocation, largest remainder makes the total exact
    quotas = [train_fraction * c for c in counts]
    takes = [int(q) for q in quotas]
    remainders = sorted(range(2), key=lambda i: quotas[i] - takes[i],
                        reverse=True)
    for i in remainders:
        if sum(takes) >= n_train:
            break
        takes[i] += 1
    for i, c in enumerate(counts):
        if c >= 2:
            takes[i] = min(max(takes[i], 1), c - 1)
    train_parts, test_parts = [], []
    for cls_idx, take in zip(classes, takes):
        perm = rng.permutation(cls_idx)
        train_parts.append(perm[:take])
        test_parts.append(perm[take:])
    return SplitIndex(*(readonly(np.sort(np.concatenate(parts)), int)
                        for parts in (train_parts, test_parts)))


def kfold_partition(labels, k, seed):
    """K disjoint folds, stratified by label, sizes differing by ≤ 1."""
    labels = np.asarray(labels)
    n = len(labels)
    if k < 2:
        raise ValueError("need k >= 2 folds")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} samples")
    # the shuffled stable rows, then the unstable: row j goes to fold j % k
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(np.nonzero(labels == c)[0])
                            for c in (STABLE, UNSTABLE)])
    return [np.sort(order[j::k]) for j in range(k)]


def build_knowledge_base(trajectory, seed, provenance=""):
    """Raw (unstandardized) samples and labels of a simulated batch, one
    row per scenario."""
    return KnowledgeBase(samples=extract_features(trajectory),
                         labels=label_trajectory(trajectory),
                         seed=seed, provenance=provenance)


# ---------------------------------------------------------------------------
# CSV + sidecar persistence
# ---------------------------------------------------------------------------

def save_knowledge_base(kb, csv_path, sidecar_path):
    """Write the KB CSV (CRLF line ends) and its sidecar, a `seed` and a
    `provenance` line. Each is written to a temporary file beside it, and
    both are renamed into place only once both are written, so a failed
    write leaves an earlier pair as it was and no temporary file."""
    header = ",".join(["label"] + [f"f_{j}" for j in range(kb.n_features)])
    temps = [f"{path}.{os.getpid()}.tmp" for path in (csv_path, sidecar_path)]
    try:
        with open(temps[0], "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\r\n")
            # 17 significant digits name every double, so the text reads
            # back to the same bits; one format call per row
            line = "%+d," + ",".join(["%.17g"] * kb.n_features) + "\r\n"
            for label, row in zip(kb.labels.tolist(), kb.samples):
                fh.write(line % (label, *row.tolist()))
        with open(temps[1], "w", encoding="utf-8") as fh:
            fh.write(f"seed {kb.seed}\nprovenance {kb.provenance}\n")
        os.replace(temps[0], csv_path)
        os.replace(temps[1], sidecar_path)
    finally:    # none is left once renamed
        for temp in filter(os.path.exists, temps):
            os.remove(temp)


# (digest, kb) of the last KB this process parsed; the digest covers the
# bytes of both files, so an edited CSV or sidecar never matches, and a
# refused KB is never stored
_last_kb = (None, None)


def load_knowledge_base(csv_path, sidecar_path):
    """Read a KB CSV and its sidecar; sidecar lines other than `seed` and
    `provenance` (such as the feature names and standardization statistics
    older sidecars hold) are skipped, as are blank CSV lines. Rows of
    another width than the header, a non-finite cell, a label other than
    +1 or -1, a single class, a second `seed` or `provenance` line and a
    seed that is not a non-negative integer are refused, naming the file
    and, where there is one, the line.

    Files holding the same bytes as the last KB parsed in this process
    return that same (immutable) KB without parsing it again.
    """
    global _last_kb
    import hashlib  # here, so that `import tspred.cli` does not load it
    with open(csv_path, "rb") as fh:
        csv_data = fh.read()
    with open(sidecar_path, "rb") as fh:
        sidecar_data = fh.read()
    # the CSV's digest has a fixed length, so no bytes can move between
    # the two files without changing the key
    digest = hashlib.sha256(hashlib.sha256(csv_data).digest()
                            + sidecar_data).digest()
    if digest == _last_kb[0]:
        return _last_kb[1]
    kb = _parse_knowledge_base(csv_data, csv_path, sidecar_data, sidecar_path)
    _last_kb = (digest, kb)
    return kb


def _parse_knowledge_base(csv_data, csv_path, sidecar_data, sidecar_path):
    header, *lines = textio.lines(csv_data, csv_path, FeatureError)
    header = header.split(",")
    if header[0] != "label":
        raise FeatureError(f"{csv_path}: bad header")
    table, numbers = textio.rows(lines, csv_path, FeatureError, start=2)
    if table.shape[1] != len(header):
        raise FeatureError(f"{csv_path} line {numbers[0]}: {table.shape[1]} "
                           f"columns, the header names {len(header)}")
    bad = _bad_cell(table)
    if bad:
        raise FeatureError(f"{csv_path} line {numbers[bad[0]]}: {bad[1]}")
    seed = 0
    provenance = ""
    for n, key, value in textio.directives(
            sidecar_data, sidecar_path, once=("seed", "provenance"),
            error=FeatureError):
        if key == "seed":
            try:
                seed = textio.seed(value)
            except ValueError as exc:
                raise FeatureError(f"{sidecar_path} line {n}: {exc}") from None
        elif key == "provenance":
            provenance = value
    try:
        return KnowledgeBase(samples=table[:, 1:], labels=table[:, 0],
                             seed=seed, provenance=provenance)
    except FeatureError as exc:     # a single class, as _bad_cell ran
        raise FeatureError(f"{csv_path}: {exc}") from None
