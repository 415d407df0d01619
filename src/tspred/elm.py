"""Extreme learning machine with per-neuron activation selection.

Hidden weights and biases come from outside (random draws or an
optimizer); only the output weights are fitted, by the minimal-norm
least-squares solve through the Moore-Penrose pseudoinverse.

A trained model is saved as one numpy archive (`np.savez` into the path
given, `model.elm` from `optimize`). Its reader refuses pickles and checks
each array's dtype kind; `ElmModel` checks the rest, built or read alike.
"""

from dataclasses import dataclass

import numpy as np

from .features import apply_standardization

ACT_OFF = 0
ACT_SIGMOID = 1
ACT_LINEAR = 2

# pseudoinverse: singular values at or below this · max(N, L) · s_max are 0
PINV_RTOL = 1e-12

# each ElmModel field's dtype and dimension count; a saved model holds one
# array per field, under the field's name
_FIELDS = (("input_weights", float, 2), ("biases", float, 1),
           ("activations", int, 1), ("output_weights", float, 1),
           ("feature_mask", bool, 1), ("means", float, 1), ("stds", float, 1))
# the dtype kinds a saved array of each field may hold
_KINDS = {name: {float: ("f", "floats"), int: ("iu", "integers"),
                 bool: ("b", "booleans")}[dtype]
          for name, dtype, _ in _FIELDS}


class ElmError(Exception):
    pass


class NonFiniteScoreError(ElmError):
    """A row's decision score is not finite, so it has no class; `row` is
    the row's index."""

    def __init__(self, row, score):
        super().__init__(f"the score {score!r} is not a finite number, so "
                         "the row gets no verdict")
        self.row = row


def _sigmoid(v):
    # piecewise form: exp never sees a positive argument, so never
    # overflows; 1/(1 + e) for v >= 0 and e/(1 + e) below, one division
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def hidden_matrix(x, w, b, cf):
    """N×L hidden-layer outputs of the sample matrix x (N×n) under input
    weights w (L×n), biases b (L,) and per-neuron activation codes cf
    (L,): 0 → off (zero), 1 → sigmoid, 2 → identity."""
    h = x @ w.T + b
    if h.dtype.kind != "f":         # integer inputs still give floats
        h = h.astype(float)
    h[:, cf == ACT_OFF] = 0.0
    # only the sigmoid columns pay for the exponential
    sig = cf == ACT_SIGMOID
    h[:, sig] = _sigmoid(h[:, sig])
    return h


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
    neuron or feature, a negative std, an array of the wrong dimension
    count, or sizes that disagree, are refused.
    """

    input_weights: np.ndarray    # (L, n), n = mask bits set
    biases: np.ndarray           # (L,)
    activations: np.ndarray      # (L,), codes in {0, 1, 2}
    output_weights: np.ndarray   # (L,)
    feature_mask: np.ndarray     # (n_full,) booleans
    means: np.ndarray            # (n_full,)
    stds: np.ndarray             # (n_full,)

    def __post_init__(self):
        for name, dtype, ndim in _FIELDS:
            # row-major whatever the caller's layout, which the matmul's
            # last digits follow: a model scores the same however its
            # arrays were cut
            arr = np.array(getattr(self, name), dtype=dtype, order="C")
            if arr.ndim != ndim:
                raise ElmError(f"{name}: {arr.ndim} dimensions, not {ndim}")
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
                raise ElmError(f"{what}: {a} != {b}")


def effective_hidden_size(activations):
    """Neurons with a non-zero activation code."""
    return int(np.count_nonzero(np.asarray(activations) != ACT_OFF))


def train(w, b, cf, x, y):
    """Minimal-norm least-squares output weights of layer (w, b, cf):
    β = H†·y."""
    y = np.asarray(y, dtype=float)
    h = hidden_matrix(x, w, b, cf)
    if y.shape != (h.shape[0],):
        raise ElmError("target length != sample count")
    return pseudoinverse(h) @ y


def predict_full(model, x_full):
    """Decision scores of raw full-dimension rows (standardize, mask,
    score); the sign is the class, the value ranks. The first row whose
    score is not finite raises NonFiniteScoreError."""
    x_full = np.atleast_2d(np.asarray(x_full, dtype=float))
    if x_full.shape[1] != model.feature_mask.shape[0]:
        raise ElmError(
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

def save_model(model, path):
    """Write the model as one numpy archive, an array per field named as
    the field. Through a file handle numpy adds no `.npz` to `path`, and
    its zip entries carry a fixed timestamp, so a model has one byte form.
    """
    with open(path, "wb") as fh:
        np.savez(fh, **{name: getattr(model, name) for name, _, _ in _FIELDS})


# (bytes, model) of the last model file this process read; the key is the
# whole content, so an edited file never matches and a refused one is
# never stored
_last_model = (None, None)


def load_model(path):
    """Read a model archive; refuse one that is not an archive, is
    truncated or corrupt, lacks an array or holds another, holds an array
    of the wrong dtype kind, or whose arrays ElmModel refuses.

    A file holding the same bytes as the last model read in this process
    returns that same (read-only) model without reading it again.
    """
    global _last_model
    with open(path, "rb") as fh:
        data = fh.read()
        if data == _last_model[0]:
            return _last_model[1]
        fh.seek(0)
        try:
            model = ElmModel(**_read_arrays(fh, data))
        except ElmError as exc:
            raise ElmError(f"malformed model file {path}: {exc}") from None
    _last_model = (data, model)
    return model


def _read_arrays(fh, data):
    """The field arrays of the archive `fh`, whose bytes are `data`."""
    if data[:4] not in (b"PK\x03\x04", b"PK\x05\x06"):
        raise ElmError("not a numpy archive (a text model from an earlier "
                       "version is no longer read: rerun optimize)")
    arrays, name = {}, None
    try:
        with np.load(fh, allow_pickle=False) as npz:
            names = npz.files
            for name in names:
                arrays[name] = npz[name]
    except Exception as exc:
        # zipfile, zlib and numpy's .npy reader each raise their own errors
        # on damaged bytes, and an object array is refused as a ValueError
        where = f"the {name} array" if name else "truncated or corrupt archive"
        raise ElmError(f"{where}: {exc}") from None
    for name in names:
        if names.count(name) > 1:
            raise ElmError(f"a second {name} array")
        if name not in _KINDS:
            raise ElmError(f"an array {name!r} that no model field names")
    for name, (kinds, what) in _KINDS.items():
        arr = arrays.get(name)
        if arr is None:
            raise ElmError(f"no {name} array")
        if not isinstance(arr, np.ndarray):
            raise ElmError(f"the {name} member is not an .npy array")
        if arr.dtype.kind not in kinds:
            raise ElmError(f"the {name} array holds {arr.dtype}, not {what}")
    return arrays
