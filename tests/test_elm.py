import dataclasses
import re
import time
import warnings
import zipfile

import numpy as np
import pytest

from tspred import elm


def identity_layer(code=elm.ACT_LINEAR):
    """One neuron with unit weight and zero bias: (w, b, cf)."""
    return np.array([[1.0]]), np.array([0.0]), np.array([code])


def identity_model(layer, beta):
    """A model of the layer (w, b, cf) that scores its rows as given:
    every column kept, zero means and unit standard deviations."""
    n = layer[0].shape[1]
    return elm.ElmModel(*layer, beta, np.ones(n, dtype=bool), np.zeros(n),
                        np.ones(n))


def activate(code, v):
    """One neuron with unit weight and zero bias: its activation of v."""
    return elm.hidden_matrix(np.array([[v]]), *identity_layer(code))[0, 0]


EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0,
               1e4, -1e4]


def piecewise_sigmoid(v):
    """Reference: 1/(1+exp(−v)) for v ≥ 0, exp(v)/(1+exp(v)) below."""
    if v >= 0:
        return 1.0 / (1.0 + np.exp(-v))
    ev = np.exp(v)
    return ev / (1.0 + ev)


class TestActivation:
    def test_off_branch(self):
        assert activate(elm.ACT_OFF, 5.0) == 0.0

    def test_sigmoid_midpoint(self):
        assert activate(elm.ACT_SIGMOID, 0.0) == pytest.approx(0.5)

    def test_identity_branch(self):
        assert activate(elm.ACT_LINEAR, -3.0) == -3.0

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            assert activate(elm.ACT_SIGMOID, 1e4) == pytest.approx(1.0)
            assert activate(elm.ACT_SIGMOID, -1e4) == pytest.approx(0.0)

    def test_bit_exact_at_edges(self):
        # exp(−|v|) underflows to a subnormal or zero past |v| ≈ 708, as
        # the reference's exp does; nothing else may raise
        v = np.array(EDGE_VALUES)
        with np.errstate(under="ignore"):
            sig = np.array([piecewise_sigmoid(x) for x in v])
        # x·1 + 0 is v itself, but for −0, which comes out +0 (−0 + +0 is
        # +0, whatever sign the product sum gives), and ±0 both map to 0.5
        codes = np.array([elm.ACT_SIGMOID, elm.ACT_LINEAR, elm.ACT_OFF])
        want = np.stack([sig, v + 0.0, np.zeros_like(v)], axis=1)
        with np.errstate(all="raise", under="ignore"):
            got = elm.hidden_matrix(v[:, None], np.ones((3, 1)), np.zeros(3),
                                    codes)
            hidden = elm.hidden_matrix(v[:, None], np.ones((1, 1)),
                                       np.array([-0.0]),
                                       np.array([elm.ACT_SIGMOID]))[:, 0]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(hidden.view(np.int64), sig.view(np.int64))
        # the same bits as the nested-where layer it replaced, on mixed
        # codes, with ±inf and NaN in every column, the off ones included
        v = np.concatenate([EDGE_VALUES, [np.inf, -np.inf, np.nan, 750.0,
                                          -750.0], np.linspace(-9, 9, 97)])
        w = np.ones((6, 1))
        b = np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0])
        codes = np.array([elm.ACT_SIGMOID, elm.ACT_LINEAR, elm.ACT_OFF,
                          elm.ACT_LINEAR, elm.ACT_SIGMOID, elm.ACT_OFF])
        with np.errstate(all="raise", under="ignore"):
            pre = v[:, None] @ w.T + b
            e = np.exp(-np.abs(pre))
            old = np.where(codes == elm.ACT_SIGMOID,
                           np.where(pre >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),
                           np.where(codes == elm.ACT_LINEAR, pre, 0.0))
            got = elm.hidden_matrix(v[:, None], w, b, codes)
        assert np.isnan(got[:, codes != elm.ACT_OFF]).any()
        assert np.array_equal(got, old, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(old))

    @pytest.mark.parametrize("code", [-1, 3])
    def test_code_out_of_range_refused(self, code):
        with pytest.raises(elm.ElmError, match="activation codes"):
            identity_model(identity_layer(code), [1.0])


class TestHiddenMatrix:
    def test_identity_neuron(self):
        h = elm.hidden_matrix(np.array([[1.0]]), *identity_layer())
        assert np.allclose(h, [[1.0]])

    def test_all_off_gives_zeros(self):
        h = elm.hidden_matrix(np.random.default_rng(0).normal(size=(4, 2)),
                              np.ones((3, 2)), np.ones(3),
                              np.zeros(3, dtype=int))
        assert np.all(h == 0.0)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=4)
        cf = np.array([0, 1, 2, 1])
        x = rng.normal(size=(3, 2))
        h = elm.hidden_matrix(x, w, b, cf)
        assert h.shape == (3, 4)
        for r in range(3):
            for c in range(4):
                pre = float(w[c] @ x[r] + b[c])
                code = int(cf[c])
                if code == 0:
                    expected = 0.0
                elif code == 1:
                    expected = 1.0 / (1.0 + np.exp(-pre))
                else:
                    expected = pre
                assert h[r, c] == pytest.approx(expected, rel=1e-12)
        # integer arrays give their float copies' layer, not a truncated one
        xi, wi, bi = np.array([[1, -2]]), np.array([[3, 1], [0, 2], [1, 1],
                                                    [-1, 0]]), np.arange(4)
        assert np.array_equal(elm.hidden_matrix(xi, wi, bi, cf),
                              elm.hidden_matrix(xi * 1.0, wi * 1.0, bi * 1.0,
                                                cf))

    def test_shape_mismatch(self):
        # hidden_matrix takes its arrays as given; predict_full checks the
        # width of the rows that come from outside
        with pytest.raises(elm.ElmError, match="expected 1 features, got 2"):
            elm.predict_full(identity_model(identity_layer(), [1.0]),
                             [[1.0, 2.0]])


def moore_penrose_holds(h, hp, tol=1e-8):
    scale = max(np.abs(h).max(), 1.0)
    checks = [
        (h @ hp @ h, h),
        (hp @ h @ hp, hp),
        (h @ hp, (h @ hp).T),
        (hp @ h, (hp @ h).T),
    ]
    return all(np.allclose(a, b, atol=tol * scale, rtol=tol)
               for a, b in checks)


class TestPseudoinverse:
    def test_diagonal(self):
        assert np.allclose(elm.pseudoinverse([[2.0, 0.0], [0.0, 4.0]]),
                           [[0.5, 0.0], [0.0, 0.25]])

    def test_column_vector(self):
        hp = elm.pseudoinverse([[1.0], [1.0]])
        assert np.allclose(hp, [[0.5, 0.5]])
        assert moore_penrose_holds(np.array([[1.0], [1.0]]), hp)

    def test_zero_matrix(self):
        assert np.array_equal(elm.pseudoinverse(np.zeros((3, 2))),
                              np.zeros((2, 3)))

    def test_random_including_rank_deficient(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 12))
            if trial % 3 == 0:
                r = int(rng.integers(1, min(n, m) + 1))
                h = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
            else:
                h = rng.normal(size=(n, m))
            assert moore_penrose_holds(h, elm.pseudoinverse(h))


class TestTrain:
    def test_exact_single_neuron(self):
        beta = elm.train(*identity_layer(), [[1.0]], [1.0])
        assert beta == pytest.approx([1.0])
        assert elm.hidden_matrix([[1.0]], *identity_layer()) @ beta == \
            pytest.approx([1.0])

    def test_square_full_rank_exact_fit(self):
        rng = np.random.default_rng(2)
        layer = (rng.uniform(-1, 1, size=(5, 3)), rng.uniform(-1, 1, size=5),
                 np.full(5, elm.ACT_SIGMOID))
        x = rng.normal(size=(5, 3))
        y = rng.choice([-1.0, 1.0], size=5)
        beta = elm.train(*layer, x, y)
        h = elm.hidden_matrix(x, *layer)
        assert np.linalg.norm(h @ beta - y) < 1e-6

    def test_all_off_gives_zero_model(self):
        layer = (np.ones((2, 1)), np.zeros(2), np.zeros(2, dtype=int))
        beta = elm.train(*layer, [[1.0], [2.0]], [1.0, -1.0])
        assert np.all(beta == 0.0)
        assert elm.hidden_matrix([[3.0]], *layer) @ beta == 0.0

    def test_minimal_norm_among_least_squares_solutions(self):
        rng = np.random.default_rng(4)
        # rank-deficient H: duplicated linear neurons give a null space
        w = rng.uniform(-1, 1, size=(1, 2))
        layer = (np.vstack([w, w, rng.uniform(-1, 1, (2, 2))]), np.zeros(4),
                 np.full(4, elm.ACT_LINEAR))
        x = rng.normal(size=(8, 2))
        y = rng.choice([-1.0, 1.0], size=8)
        beta = elm.train(*layer, x, y)
        h = elm.hidden_matrix(x, *layer)
        _, _, vt = np.linalg.svd(h)
        null_vec = vt[-1]
        assert np.linalg.norm(h @ null_vec) < 1e-9
        for scale in (-1.0, 0.5, 2.0):
            alt = beta + scale * null_vec
            assert np.linalg.norm(h @ alt - y) == pytest.approx(
                np.linalg.norm(h @ beta - y), abs=1e-9)
            assert np.linalg.norm(beta) <= np.linalg.norm(alt) + 1e-12

    def test_residual_monotone_in_hidden_size(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 4))
        y = rng.choice([-1.0, 1.0], size=30)
        prev_residual = np.inf
        weights = rng.uniform(-1, 1, size=(12, 4))
        biases = rng.uniform(-1, 1, size=12)
        for L in (2, 4, 8, 12):
            layer = (weights[:L], biases[:L], np.full(L, elm.ACT_SIGMOID))
            beta = elm.train(*layer, x, y)
            h = elm.hidden_matrix(x, *layer)
            residual = np.linalg.norm(h @ beta - y)
            assert residual <= prev_residual + 1e-9
            prev_residual = residual

    def test_pruned_neuron_equals_deleted_neuron(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(-1, 1, size=(5, 3))
        b = rng.uniform(-1, 1, size=5)
        cf = np.array([1, 1, 2, 1, 2])
        x = rng.normal(size=(10, 3))
        y = rng.choice([-1.0, 1.0], size=10)
        cf_pruned = cf.copy()
        cf_pruned[2] = 0
        pruned = (w, b, cf_pruned)
        keep = [0, 1, 3, 4]
        deleted = (w[keep], b[keep], cf[keep])
        xs = rng.normal(size=(6, 3))
        assert np.allclose(
            elm.hidden_matrix(xs, *pruned) @ elm.train(*pruned, x, y),
            elm.hidden_matrix(xs, *deleted) @ elm.train(*deleted, x, y),
            atol=1e-12)


class TestPredict:
    def test_deterministic(self):
        layer = identity_layer()
        model = identity_model(layer, elm.train(*layer, [[1.0]], [1.0]))
        x = np.random.default_rng(0).normal(size=(5, 1))
        assert np.array_equal(elm.predict_full(model, x),
                              elm.predict_full(model, x))

    def test_separable_training_points_scored_correctly(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(loc=(2, 2), size=(8, 2)),
                       rng.normal(loc=(-2, -2), size=(8, 2))])
        y = np.array([1.0] * 8 + [-1.0] * 8)
        layer = (rng.uniform(-1, 1, size=(20, 2)), rng.uniform(-1, 1, size=20),
                 np.full(20, elm.ACT_SIGMOID))
        model = identity_model(layer, elm.train(*layer, x, y))
        assert np.all(np.sign(elm.predict_full(model, x)) == y)

    @pytest.mark.parametrize("beta, score", [((1.0, 1.0), "inf"),
                                             ((1.0, -1.0), "nan")],
                             ids=["inf", "nan"])
    def test_non_finite_score_refused_without_warning(self, beta, score):
        # two linear neurons weigh a finite 1e300 cell past the largest float
        layer = (np.full((2, 1), 1e10), np.zeros(2),
                 np.full(2, elm.ACT_LINEAR))
        model = identity_model(layer, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(elm.NonFiniteScoreError,
                               match=f"the score {score} is not") as exc:
                elm.predict_full(model, [[1.0], [1e300], [2.0]])
        assert exc.value.row == 1


def saved_model(path):
    """Write a 6-neuron model on 3 of 5 features; returns it."""
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, size=(6, 3))
    b = rng.uniform(-1, 1, size=6)
    cf = np.array([0, 1, 2, 1, 1, 2])
    x = rng.normal(size=(10, 3))
    y = rng.choice([-1.0, 1.0], size=10)
    mask = np.array([True, False, True, True, False])
    model = elm.ElmModel(input_weights=w, biases=b, activations=cf,
                         output_weights=elm.train(w, b, cf, x, y),
                         feature_mask=mask,
                         means=rng.normal(size=5),
                         stds=rng.uniform(0.5, 2.0, size=5))
    elm.save_model(model, path)
    return model


def fields(model):
    """The model's arrays by field name, as `save_model` stores them."""
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}


def write_archive(path, arrays):
    """Write `arrays` (name → array) as a numpy archive at `path`."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_model_file_round_trip(tmp_path):
    # every array comes back bit for bit, with its dtype
    path = tmp_path / "model.elm"
    model = saved_model(path)
    loaded = elm.load_model(path)
    for name, arr in fields(model).items():
        back = getattr(loaded, name)
        assert back.dtype == arr.dtype and back.shape == arr.shape, name
        assert back.tobytes() == arr.tobytes(), name
    assert [str(arr.dtype) for arr in fields(loaded).values()] == [
        "float64", "float64", "int64", "float64", "bool", "float64",
        "float64"]


def test_reloaded_model_scores_the_same_bits(tmp_path):
    # weights cut by the mask from a wider matrix, as optimize cuts them,
    # are column-major; a model keeps every array row-major, the layout
    # earlier versions read from text, so scores keep their last digits,
    # and the saved copy scores exactly as the model did
    rng = np.random.default_rng(15)
    mask = np.array([True, False, True, True, False] * 8)
    w = rng.normal(size=(30, 40))[:, mask]
    assert not w.flags.c_contiguous
    model = elm.ElmModel(w, rng.normal(size=30), np.tile([1, 2], 15),
                         rng.normal(size=30) * 1e6, mask,
                         rng.normal(size=40), rng.uniform(0.5, 2.0, size=40))
    assert model.input_weights.flags.c_contiguous
    elm.save_model(model, tmp_path / "model.elm")
    raw = rng.normal(size=(50, 40))
    assert np.array_equal(
        elm.predict_full(elm.load_model(tmp_path / "model.elm"), raw),
        elm.predict_full(model, raw))


def test_model_file_bytes_do_not_depend_on_the_clock(tmp_path):
    # the archive's entries carry no write time: a model has one byte form
    first, second = tmp_path / "first.elm", tmp_path / "second.elm"
    model = saved_model(first)
    time.sleep(1.1)
    elm.save_model(model, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes()[:4] == b"PK\x03\x04"


@pytest.mark.parametrize("field, edit", [
    ("feature_mask", lambda a: np.ones_like(a)),    # 5 bits set for 3 inputs
    ("input_weights", lambda a: a[:-1]),
    ("means", lambda a: a[:-1]),
    ("biases", lambda a: a[:, None]),
], ids=["all-ones mask", "dropped w row", "short means", "2-D biases"])
def test_model_file_shape_mismatch_refused(tmp_path, field, edit):
    path = tmp_path / "model.elm"
    arrays = fields(saved_model(path))
    arrays[field] = edit(arrays[field])
    write_archive(path, arrays)
    with pytest.raises(elm.ElmError, match="malformed model file"):
        elm.load_model(path)


@pytest.mark.parametrize("field", ["input_weights", "biases", "activations",
                                   "output_weights", "feature_mask", "means",
                                   "stds"])
def test_model_file_missing_array_refused(tmp_path, field):
    # a model without its mask or its standardization would score the
    # wrong columns, or raw rows as if standardized
    path = tmp_path / "model.elm"
    arrays = fields(saved_model(path))
    del arrays[field]
    write_archive(path, arrays)
    with pytest.raises(elm.ElmError, match=re.escape(
            f"malformed model file {path}: no {field} array")):
        elm.load_model(path)


@pytest.mark.parametrize("field, dtype, what", [
    ("input_weights", int, "floats"),
    ("activations", float, "integers"),
    ("feature_mask", int, "booleans"),      # a 2 would read as selected
    ("feature_mask", float, "booleans"),
    ("stds", complex, "floats"),
], ids=["int weights", "float activations", "int mask", "float mask",
        "complex stds"])
def test_model_file_dtype_kind_refused(tmp_path, field, dtype, what):
    # ElmModel would cast each of these to its field's dtype unasked
    path = tmp_path / "model.elm"
    arrays = fields(saved_model(path))
    arrays[field] = arrays[field].astype(dtype)
    write_archive(path, arrays)
    with pytest.raises(elm.ElmError, match=re.escape(
            f"malformed model file {path}: the {field} array holds "
            f"{arrays[field].dtype}, not {what}")):
        elm.load_model(path)


@pytest.mark.parametrize("field", ["output_weights", "feature_mask", "means"])
def test_model_file_repeated_array_refused(tmp_path, field):
    # zip allows two members of one name, and numpy would read the last
    path = tmp_path / "model.elm"
    arrays = fields(saved_model(path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # zipfile's "Duplicate name"
        with zipfile.ZipFile(path, "a") as zf, \
                zf.open(f"{field}.npy", "w") as member:
            np.lib.format.write_array(member, arrays[field])
    with pytest.raises(elm.ElmError, match=re.escape(
            f"malformed model file {path}: a second {field} array")):
        elm.load_model(path)


@pytest.mark.parametrize("text", [
    b"hidden 1\ninput_dim 1\nbiases 0.0\nactivations 1\nbeta 1.0\nw 1.0\n"
    b"mask 1 0\nmeans 0.0 0.0\nstds 1.0 1.0\n", b"", b"\x93NUMPY"],
    ids=["text model", "empty file", "npy file"])
def test_model_file_not_an_archive_refused(tmp_path, text):
    # a text model of an earlier version is refused with what to do
    path = tmp_path / "model.elm"
    path.write_bytes(text)
    with pytest.raises(elm.ElmError, match=re.escape(
            f"malformed model file {path}: not a numpy archive (a text model "
            "from an earlier version is no longer read: rerun optimize)")):
        elm.load_model(path)


@pytest.mark.parametrize("keep", [200, -1, -30])
def test_model_file_truncated_refused(tmp_path, keep):
    path = tmp_path / "model.elm"
    saved_model(path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(elm.ElmError, match=re.escape(
            f"malformed model file {path}: truncated or corrupt archive: ")):
        elm.load_model(path)


@pytest.mark.parametrize("field, value, what", [
    ("feature_mask", [True, True, True, True, False], "mask bits set"),
    ("means", np.zeros(4), "mask length vs means"),
    ("stds", np.ones(6), "mask length vs stds"),
    ("output_weights", np.ones(5), "output weights vs hidden size"),
    ("input_weights", np.ones((5, 3)), "input weights vs hidden size"),
    ("activations", np.ones(5, dtype=int), "activations vs hidden size"),
], ids=["mask bits", "means", "stds", "beta", "input weights", "activations"])
def test_model_sizes_checked_on_construction(tmp_path, field, value, what):
    model = saved_model(tmp_path / "model.elm")
    with pytest.raises(elm.ElmError, match=what):
        dataclasses.replace(model, **{field: value})


@pytest.mark.parametrize("field, index, value, what", [
    ("means", 0, np.nan, "means"),     # column 0 is masked in
    ("stds", 0, np.inf, "stds"),
    ("input_weights", (0, 0), -np.inf, "input weights"),
    ("biases", 0, np.nan, "biases"),
], ids=["nan mean", "inf std", "inf w", "nan bias"])
def test_model_file_non_finite_refused(tmp_path, field, index, value, what):
    # a model that would score every row nan gives no verdict
    path = tmp_path / "model.elm"
    arrays = fields(saved_model(path))
    arrays[field] = arrays[field].copy()
    arrays[field][index] = value
    write_archive(path, arrays)
    with pytest.raises(elm.ElmError, match=f"model file.*non-finite {what}"):
        elm.load_model(path)


def test_unchanged_model_file_parsed_once(tmp_path):
    # the same bytes, at any path, give back the model already read
    path = tmp_path / "model.elm"
    saved_model(path)
    first = elm.load_model(path)
    copy = tmp_path / "copy.elm"
    copy.write_bytes(path.read_bytes())
    assert elm.load_model(path) is first
    assert elm.load_model(copy) is first


def test_overwritten_model_file_gives_new_scores(tmp_path):
    path = tmp_path / "model.elm"
    model = saved_model(path)
    raw = np.random.default_rng(13).normal(size=(4, 5))
    before = elm.predict_full(elm.load_model(path), raw)
    flipped = dataclasses.replace(model, output_weights=-model.output_weights)
    elm.save_model(flipped, path)
    after = elm.predict_full(elm.load_model(path), raw)
    assert np.array_equal(after, -before)
    assert np.array_equal(after, elm.predict_full(flipped, raw))


def test_malformed_overwrite_still_refused(tmp_path):
    path = tmp_path / "model.elm"
    arrays = fields(saved_model(path))
    good = path.read_bytes()
    elm.load_model(path)
    write_archive(path, {**arrays, "biases": np.zeros(7)})
    for _ in range(2):      # a refused file is not kept either
        with pytest.raises(elm.ElmError, match="hidden"):
            elm.load_model(path)
    path.write_bytes(good)
    assert elm.load_model(path).input_weights.shape[0] == 6


def test_loaded_model_arrays_read_only(tmp_path):
    path = tmp_path / "model.elm"
    saved_model(path)
    model = elm.load_model(path)
    arrays = fields(model)
    assert len(arrays) == 7
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = arr[0]
