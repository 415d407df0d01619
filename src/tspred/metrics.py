"""The stability verdict of decision scores and its metrics: confusion
counts, accuracy, Cohen's kappa, ROC AUC and their composite mean."""

import csv
from typing import NamedTuple

import numpy as np


class MetricsError(Exception):
    """Scores and labels that have no metrics."""


def verdict(scores):
    """The stability verdict of each decision score: +1 (stable) where it
    is >= 0, a tie and -0.0 included, else -1. A scalar gives a scalar."""
    return np.where(np.asarray(scores) >= 0.0, 1, -1)[()]


def kappa(tp, fn, fp, tn):
    """Cohen's kappa of the four counts (at least one nonzero); a
    degenerate chance agreement of 1 maps to 1 for perfect predictions and
    0 otherwise."""
    total = tp + fn + fp + tn
    p_o = (tp + tn) / total
    p_e = ((tp + fn) * (tp + fp) + (tn + fp) * (tn + fn)) / total ** 2
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def _checked(scores, labels):
    """`scores` and `labels` as arrays. Scores and labels of different
    shapes, none at all, a label other than +1 or -1 and a score that is
    not finite raise MetricsError."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricsError(f"{scores.shape} scores for {labels.shape} labels")
    if scores.size == 0:
        raise MetricsError("no samples to evaluate")
    bad = (labels != 1) & (labels != -1)
    if bad.any():
        i = int(np.argmax(bad))
        raise MetricsError(
            f"position {i}: the label {labels.flat[i]} is not +1 or -1")
    finite = np.isfinite(scores)
    if not finite.all():
        i = int(np.argmin(finite))
        raise MetricsError(
            f"position {i}: the score {scores.flat[i]} is not a finite number")
    return scores, labels


def auc(scores, labels):
    """Probability a random positive outscores a random negative, ties
    counting one half (Mann-Whitney statistic). Inputs `_checked` refuses
    and a single class raise MetricsError."""
    scores, labels = _checked(scores, labels)
    pos = labels == 1
    neg = labels == -1
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("AUC needs both classes present")
    # U = negatives below each positive, plus one half per tie
    negatives = np.sort(scores[neg])
    u = (np.searchsorted(negatives, scores[pos], side="left").sum()
         + np.searchsorted(negatives, scores[pos], side="right").sum()) / 2.0
    return float(u / (n_pos * n_neg))


def eta(acc, kap, auc_value):
    """Composite indicator: the arithmetic mean of Acc, Kap and AUC,
    with Acc expressed as a fraction."""
    return (acc + kap + auc_value) / 3.0


class EvaluationReport(NamedTuple):
    """Confusion counts with +1 (stable) as the positive class, and the
    metrics; on a single-class set auc and eta are None and the note says
    why."""

    tp: int
    fn: int
    fp: int
    tn: int
    acc: float
    kap: float
    auc: float | None
    eta: float | None
    note: str


def evaluate(scores, labels):
    """All metrics of one decision score per label, each score's class
    its `verdict`.

    Inputs `_checked` refuses raise MetricsError.
    """
    scores, labels = _checked(scores, labels)
    positive = labels == 1
    stable = verdict(scores) == 1
    tp = int(np.count_nonzero(positive & stable))
    fn = int(np.count_nonzero(positive)) - tp
    fp = int(np.count_nonzero(stable)) - tp
    tn = scores.size - tp - fn - fp
    acc = (tp + tn) / scores.size
    kap = kappa(tp, fn, fp, tn)
    try:
        auc_value = auc(scores, labels)
    except MetricsError as exc:
        return EvaluationReport(tp, fn, fp, tn, acc, kap, None, None,
                                f"AUC undefined: {exc}")
    return EvaluationReport(tp, fn, fp, tn, acc, kap, auc_value,
                            eta(acc, kap, auc_value), "")


def render_table(rows):
    """Aligned plain-text table: model, Acc/%, Kap, AUC, eta."""
    table = [["model", "Acc/%", "Kap", "AUC", "eta"]]
    for name, r in rows:
        table.append([name, f"{r.acc * 100.0:.2f}", f"{r.kap:.3f}",
                      *("-" if v is None else f"{v:.3f}"
                        for v in (r.auc, r.eta))])
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


def save_report_csv(rows, path):
    """Machine-readable metrics (deterministic; no timings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "acc", "kap", "auc", "eta",
                         "tp", "fn", "fp", "tn", "note"])
        for name, r in rows:
            writer.writerow([name, *("" if v is None else repr(v)
                                     for v in (r.acc, r.kap, r.auc, r.eta)),
                             r.tp, r.fn, r.fp, r.tn, r.note])
