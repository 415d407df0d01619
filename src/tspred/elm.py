"""Extreme learning machine with per-neuron activation selection.

Hidden weights and biases come from outside (random draws or an
optimizer); only the output weights are fitted, by the minimal-norm
least-squares solve through the Moore-Penrose pseudoinverse.
"""

from dataclasses import dataclass

import numpy as np

from . import textio
from .features import apply_standardization

ACT_OFF = 0
ACT_SIGMOID = 1
ACT_LINEAR = 2

# pseudoinverse: singular values at or below this · max(N, L) · s_max are 0
PINV_RTOL = 1e-12


class ElmError(Exception):
    pass


class ShapeMismatchError(ElmError):
    pass


class NonFiniteScoreError(ElmError):
    """A row's decision score is not finite, so it has no class; `row` is
    the row's index."""

    def __init__(self, row, score):
        super().__init__(f"the score {score!r} is not a finite number, so "
                         "the row gets no verdict")
        self.row = row


def _sigmoid(v):
    # piecewise form: exp never sees a positive argument, so never overflows
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def hidden_matrix(x, w, b, cf):
    """N×L hidden-layer outputs of the sample matrix x (N×n) under input
    weights w (L×n), biases b (L,) and per-neuron activation codes cf
    (L,): 0 → off (zero), 1 → sigmoid, 2 → identity."""
    pre = x @ w.T + b
    return np.where(cf == ACT_SIGMOID, _sigmoid(pre),
                    np.where(cf == ACT_LINEAR, pre, 0.0))


def pseudoinverse(h, width=None):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below 1e-12 · max(N, width) · s_max are treated as
    zero. `width` defaults to L; pass the full L when h holds only the
    nonzero columns of a wider matrix, to get that matrix's solution.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((h.shape[1], h.shape[0]))
    cutoff = PINV_RTOL * max(h.shape[0], width or h.shape[1]) * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


@dataclass(frozen=True)
class ElmModel:
    """Trained classifier: the hidden layer (weights over the masked
    features, biases, activation codes), its output weights, the feature
    mask and the training standardization statistics, so it scores raw rows.

    Every array is a read-only copy, so one model can be shared; a
    non-finite weight or statistic, an unknown activation code, no active
    neuron or feature, a negative std, or sizes that disagree, are refused.
    """

    input_weights: np.ndarray    # (L, n), n = mask bits set
    biases: np.ndarray           # (L,)
    activations: np.ndarray      # (L,), codes in {0, 1, 2}
    output_weights: np.ndarray   # (L,)
    feature_mask: np.ndarray     # (n_full,) booleans
    means: np.ndarray            # (n_full,)
    stds: np.ndarray             # (n_full,)

    def __post_init__(self):
        for name, dtype, ndmin in (
                ("input_weights", float, 2), ("biases", float, 0),
                ("activations", int, 0), ("output_weights", float, 0),
                ("feature_mask", bool, 0), ("means", float, 0),
                ("stds", float, 0)):
            arr = np.array(getattr(self, name), dtype=dtype, ndmin=ndmin)
            if not np.all(np.isfinite(arr)):
                raise ElmError(f"non-finite {name.replace('_', ' ')}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        cf, mask = self.activations, self.feature_mask
        if not np.all((cf >= ACT_OFF) & (cf <= ACT_LINEAR)):
            raise ElmError("activation codes must be 0, 1 or 2")
        if not np.any(cf != ACT_OFF):
            raise ElmError("activations: no active neuron")
        if not np.any(mask):
            raise ElmError("feature_mask: no feature selected")
        # _zscore would read a negative std as a constant column
        if np.any(self.stds < 0.0):
            raise ElmError("stds must not be negative")
        rows, cols = self.input_weights.shape
        hidden = self.biases.shape
        sizes = [("input weights vs hidden size", (rows,), hidden),
                 ("activations vs hidden size", cf.shape, hidden),
                 ("output weights vs hidden size", self.output_weights.shape,
                  hidden),
                 ("mask length vs means", mask.shape, self.means.shape),
                 ("mask length vs stds", mask.shape, self.stds.shape),
                 ("input_dim vs mask bits set", cols,
                  int(np.count_nonzero(mask)))]
        for what, a, b in sizes:
            if a != b:
                raise ShapeMismatchError(f"{what}: {a} != {b}")

    @property
    def effective_hidden_size(self):
        """Neurons with a non-zero activation code."""
        return int(np.count_nonzero(self.activations != ACT_OFF))


def train(w, b, cf, x, y):
    """Minimal-norm least-squares output weights of layer (w, b, cf):
    β = H†·y."""
    y = np.asarray(y, dtype=float)
    h = hidden_matrix(x, w, b, cf)
    if y.shape != (h.shape[0],):
        raise ShapeMismatchError("target length != sample count")
    return pseudoinverse(h) @ y


def predict_full(model, x_full):
    """Decision scores of raw full-dimension rows (standardize, mask,
    score); the sign is the class, the value ranks. The first row whose
    score is not finite raises NonFiniteScoreError."""
    x_full = np.atleast_2d(np.asarray(x_full, dtype=float))
    if x_full.shape[1] != model.feature_mask.shape[0]:
        raise ShapeMismatchError(
            f"expected {model.feature_mask.shape[0]} features, "
            f"got {x_full.shape[1]}")
    # a finite raw value far outside the training range can overflow; the
    # score check below refuses the row, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        z = apply_standardization(x_full, model.means, model.stds)
        scores = (hidden_matrix(z[:, model.feature_mask], model.input_weights,
                                model.biases, model.activations)
                  @ model.output_weights)
    finite = np.isfinite(scores)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteScoreError(row, float(scores[row]))
    return scores


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _vector_line(name, values):
    return name + " " + " ".join(repr(float(v)) for v in values)


def save_model(model, path):
    hidden, input_dim = model.input_weights.shape
    lines = [
        f"hidden {hidden}",
        f"input_dim {input_dim}",
        _vector_line("biases", model.biases),
        "activations " + " ".join(str(int(c)) for c in model.activations),
        _vector_line("beta", model.output_weights),
        *(_vector_line("w", row) for row in model.input_weights),
        "mask " + " ".join(str(int(m)) for m in model.feature_mask),
        _vector_line("means", model.means),
        _vector_line("stds", model.stds),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# (bytes, model) of the last .elm file this process parsed; the key is the
# whole content, so an edited file never matches and a refused one is
# never stored
_last_model = (None, None)


def load_model(path):
    """Read an .elm file; refuse one that lacks a line or whose sizes
    disagree.

    A file holding the same bytes as the last model parsed in this process
    returns that same (read-only) model without parsing it again.
    """
    global _last_model
    with open(path, "rb") as fh:
        data = fh.read()
    if data == _last_model[0]:
        return _last_model[1]
    model = _parse_model(data, path)
    _last_model = (data, model)
    return model


_ONCE_LINES = ("hidden", "input_dim", "biases", "activations", "beta", "mask",
               "means", "stds")


def _parse_model(data, path):
    # every line but `w` (one per hidden neuron) appears once; each line's
    # values are converted as it is read, so a bad one is named by its line
    fields = {"w": []}
    for n, key, value in textio.directives(data, path, error=ElmError,
                                           once=_ONCE_LINES):
        if key != "w" and key not in _ONCE_LINES:
            continue                    # not a model line: ignored
        try:
            parsed = _model_line(key, value.split())
        except ValueError as exc:
            raise ElmError(
                f"malformed model file {path} line {n}: {exc}") from None
        if key == "w":
            fields["w"].append(parsed)
        else:
            fields[key] = parsed
    try:
        model = ElmModel(
            input_weights=fields["w"], biases=fields["biases"],
            activations=fields["activations"], output_weights=fields["beta"],
            feature_mask=fields["mask"], means=fields["means"],
            stds=fields["stds"])
        hidden, input_dim = fields["hidden"], fields["input_dim"]
    except KeyError as exc:
        raise ElmError(
            f"malformed model file {path}: no {exc.args[0]} line") from exc
    except (ValueError, ElmError) as exc:
        raise ElmError(f"malformed model file {path}: {exc}") from exc
    rows, cols = model.input_weights.shape
    for what, stated, actual in (
            ("hidden vs hidden-layer rows", hidden, rows),
            ("input_dim vs w columns", input_dim, cols)):
        if stated != actual:
            raise ShapeMismatchError(
                f"malformed model file {path}: {what}: {stated} != {actual}")
    return model


def _model_line(key, tokens):
    """The value of one `.elm` line from its whitespace-split tokens."""
    if key in ("hidden", "input_dim"):
        if len(tokens) != 1:
            raise ValueError(f"the {key} line must hold exactly one value")
        return int(tokens[0])
    if key == "activations":
        return [int(v) for v in tokens]
    if key == "mask":
        if not set(tokens) <= {"0", "1"}:
            raise ValueError("mask tokens must be 0 or 1")
        return [v == "1" for v in tokens]
    return [float(v) for v in tokens]
