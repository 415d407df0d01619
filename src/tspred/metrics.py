"""Classification metrics: confusion matrix, accuracy, Cohen's kappa,
ROC AUC, and their composite mean."""

import csv
from dataclasses import dataclass

import numpy as np


class MetricsError(Exception):
    pass


class EmptyEvaluationError(MetricsError):
    pass


class SingleClassError(MetricsError):
    """AUC needs at least one positive and one negative label."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with +1 (stable) as the positive class."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise MetricsError("negative count")

    @property
    def total(self):
        return self.tp + self.fn + self.fp + self.tn

    @classmethod
    def from_labels(cls, true_labels, predicted):
        t = np.asarray(true_labels)
        p = np.asarray(predicted)
        return cls(tp=int(np.sum((t == 1) & (p == 1))),
                   fn=int(np.sum((t == 1) & (p == -1))),
                   fp=int(np.sum((t == -1) & (p == 1))),
                   tn=int(np.sum((t == -1) & (p == -1))))


def accuracy(cm):
    if cm.total == 0:
        raise EmptyEvaluationError("empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def kappa(cm):
    """Cohen's kappa; a degenerate chance agreement of 1 maps to 1 for
    perfect predictions and 0 otherwise."""
    if cm.total == 0:
        raise EmptyEvaluationError("empty confusion matrix")
    p_o = accuracy(cm)
    p_e = ((cm.tp + cm.fn) * (cm.tp + cm.fp)
           + (cm.tn + cm.fp) * (cm.tn + cm.fn)) / cm.total ** 2
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def auc(scores, labels):
    """Probability a random positive outscores a random negative, ties
    counting one half (Mann-Whitney statistic)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == -1
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs both classes present")
    # U = negatives below each positive, plus one half per tie
    negatives = np.sort(scores[neg])
    u = (np.searchsorted(negatives, scores[pos], side="left").sum()
         + np.searchsorted(negatives, scores[pos], side="right").sum()) / 2.0
    return float(u / (n_pos * n_neg))


def eta(acc, kap, auc_value):
    """Composite indicator: the arithmetic mean of Acc, Kap and AUC,
    with Acc expressed as a fraction."""
    return (acc + kap + auc_value) / 3.0


@dataclass(frozen=True)
class EvaluationReport:
    confusion: ConfusionMatrix
    acc: float
    kap: float
    auc: float          # None when the test set is single-class
    eta: float          # None when auc is None
    note: str = ""


def evaluate(scores, labels):
    """All metrics of one decision score per label, a score >= 0 read as
    stable (+1).

    A single-class set yields acc/kappa only, with the AUC error noted.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricsError(f"{scores.shape} scores for {labels.shape} labels")
    if scores.size == 0:
        raise EmptyEvaluationError("no samples to evaluate")
    predicted = np.where(scores >= 0.0, 1, -1)
    cm = ConfusionMatrix.from_labels(labels, predicted)
    acc_value = accuracy(cm)
    kap_value = kappa(cm)
    note = ""
    try:
        auc_value = auc(scores, labels)
        eta_value = eta(acc_value, kap_value, auc_value)
    except SingleClassError as exc:
        auc_value = None
        eta_value = None
        note = f"AUC undefined: {exc}"
    return EvaluationReport(confusion=cm, acc=acc_value, kap=kap_value,
                            auc=auc_value, eta=eta_value, note=note)


def _fmt(value, spec):
    return "-" if value is None else spec.format(value)


def render_table(rows):
    """Aligned plain-text table: model, Acc/%, Kap, AUC, eta."""
    header = ["model", "Acc/%", "Kap", "AUC", "eta"]
    table = [header]
    for name, report in rows:
        table.append([name,
                      _fmt(report.acc * 100.0, "{:.2f}"),
                      _fmt(report.kap, "{:.3f}"),
                      _fmt(report.auc, "{:.3f}"),
                      _fmt(report.eta, "{:.3f}")])
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
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
            writer.writerow([
                name, repr(r.acc), repr(r.kap),
                "" if r.auc is None else repr(r.auc),
                "" if r.eta is None else repr(r.eta),
                r.confusion.tp, r.confusion.fn, r.confusion.fp,
                r.confusion.tn, r.note])
