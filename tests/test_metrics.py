"""Tests for the classification metrics module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspred import elm, metrics


def pairwise_auc(scores, labels):
    """Exhaustive pairwise oracle: concordant pairs, ties at one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def linear_model(weights, bias=0.0):
    """Single linear neuron producing score = w.x + bias via beta."""
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    return elm.ElmModel(input_weights=weights.reshape(1, n),
                        biases=np.array([bias]),
                        activations=np.array([elm.ACT_LINEAR]),
                        output_weights=np.array([1.0]),
                        feature_mask=np.ones(n, dtype=bool),
                        means=np.zeros(n), stds=np.ones(n))


def counted(tp, fn, fp, tn):
    """Scores and labels whose report holds the four counts: +1 and -1
    labels scored 1 (stable) or -1 (unstable)."""
    return ([1.0] * tp + [-1.0] * fn + [1.0] * fp + [-1.0] * tn,
            [1] * (tp + fn) + [-1] * (fp + tn))


class TestConfusionMatrix:
    def test_from_labels(self):
        t = [1, 1, -1, -1, 1]
        p = [1, -1, -1, 1, 1]
        report = metrics.evaluate(p, t)
        assert report[:4] == (2, 1, 1, 1)


class TestAccuracy:
    def test_worked_example(self):
        # [TRIVIAL] TP=40, FN=10, FP=5, TN=45 -> 0.85
        assert metrics.evaluate(*counted(40, 10, 5, 45)).acc == 0.85

    def test_perfect(self):
        assert metrics.evaluate(*counted(3, 0, 0, 7)).acc == 1.0

    def test_all_wrong(self):
        assert metrics.evaluate(*counted(0, 4, 6, 0)).acc == 0.0

    def test_empty_rejected(self):
        with pytest.raises(metrics.MetricsError, match="no samples"):
            metrics.evaluate([], [])


class TestKappa:
    def test_worked_example(self):
        # [DERIVED] p_e = (50*45 + 50*55)/100^2 = 0.5 -> kappa 0.7
        assert metrics.kappa(40, 10, 5, 45) == pytest.approx(0.7, abs=1e-12)

    def test_perfect_both_classes(self):
        assert metrics.kappa(6, 0, 0, 4) == 1.0

    def test_degenerate_chance_agreement(self):
        # p_e = 1 when both marginals are single-class
        assert metrics.kappa(5, 0, 0, 0) == 1.0
        assert metrics.kappa(4, 0, 1, 0) == 0.0

    def test_independent_predictions_near_zero(self):
        # [DERIVED] random predictions, balanced classes -> kappa ~ 0
        rng = np.random.default_rng(17)
        values = []
        for _ in range(400):
            t = rng.choice([1, -1], size=200)
            p = rng.choice([1, -1], size=200)
            values.append(metrics.evaluate(p, t).kap)
        assert abs(np.mean(values)) < 0.05

    def test_marginal_independence_zero(self):
        # constructed matrix with predictions independent of truth
        assert metrics.kappa(30, 10, 45, 15) == pytest.approx(0.0, abs=1e-12)


class TestAuc:
    def test_perfect_ranking(self):
        # [TRIVIAL] positives all outscore negatives
        got = metrics.auc([0.9, 0.8, 0.3, 0.1], [1, 1, -1, -1])
        assert got == 1.0

    def test_worked_example(self):
        # [DERIVED] positives {0.9, 0.2}, negatives {0.5, 0.1} -> 0.75
        got = metrics.auc([0.9, 0.2, 0.5, 0.1], [1, 1, -1, -1])
        assert got == 0.75

    def test_all_ties(self):
        # [TRIVIAL] equal scores -> 0.5
        assert metrics.auc([0.4, 0.4, 0.4], [1, -1, -1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(metrics.MetricsError, match="both classes"):
            metrics.auc([0.1, 0.2], [1, 1])

    def test_pairwise_oracle_random(self):
        # [DERIVED] rank formulation equals exhaustive pairwise count
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            labels = rng.choice([1, -1], size=n)
            if abs(labels.sum()) == n:
                labels[0] = -labels[1]
            scores = np.round(rng.normal(size=n), 1)   # force some ties
            assert metrics.auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        # Property: AUC depends only on the score ordering.
        rng = np.random.default_rng(seed)
        n = 12
        labels = rng.choice([1, -1], size=n)
        if abs(labels.sum()) == n:
            labels[0] = -labels[1]
        scores = rng.normal(size=n)
        transformed = np.exp(3.0 * scores) + 7.0
        assert metrics.auc(scores, labels) == pytest.approx(
            metrics.auc(transformed, labels), abs=1e-12)


class TestEta:
    def test_table_rows(self):
        # [PAPER] published composite-metric rows within rounding
        assert metrics.eta(0.9709, 0.969, 0.979) == pytest.approx(
            0.973, abs=5e-4)
        assert metrics.eta(0.9573, 0.919, 0.953) == pytest.approx(
            0.943, abs=5e-4)

    def test_upper_bound(self):
        assert metrics.eta(1.0, 1.0, 1.0) == 1.0

    @given(st.floats(0, 1), st.floats(-1, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, a, b, c):
        value = metrics.eta(a, b, c)
        assert value == pytest.approx(metrics.eta(c, a, b), abs=1e-12)
        assert min(a, b, c) - 1e-12 <= value <= max(a, b, c) + 1e-12


class TestEvaluate:
    def test_hand_built_report(self):
        # [DERIVED] 4 samples scored by an identity linear model
        model = linear_model([1.0])
        x = np.array([[0.9], [-0.2], [0.5], [-0.1]])
        labels = np.array([1, 1, -1, -1])
        report = metrics.evaluate(elm.predict_full(model, x), labels)
        assert report[:4] == (1, 1, 1, 1)
        assert report.acc == 0.5
        assert report.kap == pytest.approx(0.0, abs=1e-12)
        assert report.auc == pytest.approx(
            pairwise_auc([0.9, -0.2, 0.5, -0.1], labels), abs=1e-12)
        assert report.eta == pytest.approx(
            (report.acc + report.kap + report.auc) / 3.0, abs=1e-15)

    def test_sign_rule_and_tie(self):
        # a score of exactly 0 counts as stable (+1)
        model = linear_model([1.0])
        x = np.array([[0.3], [-0.3], [0.0], [0.0]])
        labels = np.array([1, -1, 1, -1])
        report = metrics.evaluate(elm.predict_full(model, x), labels)
        assert report[:4] == (2, 0, 1, 1)
        # the rule itself, scalar or array: -0.0 ties, and -5e-324, the
        # negative double nearest 0, does not
        for scores, want in [(0.0, 1), (-0.0, 1), (-5e-324, -1),
                             ([0.0, -0.0, -5e-324, 0.3], [1, 1, -1, 1])]:
            got = metrics.verdict(scores)
            assert np.ndim(got) == np.ndim(want)
            assert np.array_equal(got, want)

    def test_single_class_noted(self):
        model = linear_model([1.0], bias=10.0)
        x = np.array([[1.0], [2.0]])
        labels = np.array([1, 1])
        report = metrics.evaluate(elm.predict_full(model, x), labels)
        assert report.acc == 1.0
        assert report.auc is None
        assert report.eta is None
        assert report.note == "AUC undefined: AUC needs both classes present"

    def test_deterministic_metrics(self):
        model = linear_model([1.0, -0.5])
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2))
        labels = np.where(rng.random(20) < 0.5, 1, -1)
        labels[0], labels[1] = 1, -1
        a = metrics.evaluate(elm.predict_full(model, x), labels)
        b = metrics.evaluate(elm.predict_full(model, x), labels)
        assert a == b

    def test_acc_consistent_with_matrix(self):
        model = linear_model([1.0])
        x = np.array([[0.3], [-0.4], [0.6]])
        labels = np.array([1, -1, -1])
        report = metrics.evaluate(elm.predict_full(model, x), labels)
        assert report.acc == (report.tp + report.tn) / sum(report[:4])

    @pytest.mark.parametrize("function, scores, labels, message", [
        # one score would broadcast against four labels and miscount
        ("evaluate", [0.5], [1, -1, 1, -1], "(1,) scores for (4,) labels"),
        ("evaluate", [0.5, -0.5], [1], "(2,) scores for (1,) labels"),
        ("evaluate", [[0.5], [-0.5]], [1, -1],
         "(2, 1) scores for (2,) labels"),
        # a label of neither class would drop out of every count
        ("evaluate", [0.5, -0.5, 0.7], [1, 0, 1],
         "position 1: the label 0 is not +1 or -1"),
        # a NaN fails every comparison, so it would be read as unstable
        ("evaluate", [float("nan"), -0.5, 0.7, 0.2], [1, -1, 1, -1],
         "position 0: the score nan is not a finite number"),
        ("evaluate", [0.1, float("-inf")], [1, -1],
         "position 1: the score -inf is not a finite number"),
        # auc on its own refuses the same inputs: a NaN would rank below
        # every negative, and a label 0 drop out of both classes
        ("auc", [float("nan"), 0.1, 0.2], [1, -1, 1],
         "position 0: the score nan is not a finite number"),
        ("auc", [0.1, 0.2, 0.5], [-1, 1, 0],
         "position 2: the label 0 is not +1 or -1"),
    ], ids=["one score", "one label", "column of scores", "label 0",
            "nan score", "infinite score", "auc nan score", "auc label 0"])
    def test_shape_mismatch_refused(self, function, scores, labels, message):
        with pytest.raises(metrics.MetricsError) as info:
            getattr(metrics, function)(np.array(scores), np.array(labels))
        assert str(info.value) == message

    def test_empty_rejected(self):
        model = linear_model([1.0])
        with pytest.raises(metrics.MetricsError, match="no samples"):
            metrics.evaluate(elm.predict_full(model, np.empty((0, 1))),
                             np.empty(0))


class TestRendering:
    def sample_rows(self):
        model = linear_model([1.0])
        x = np.array([[0.9], [-0.2], [0.5], [-0.1]])
        labels = np.array([1, 1, -1, -1])
        report = metrics.evaluate(elm.predict_full(model, x), labels)
        return [("demo", report)]

    def test_table_header_and_percent(self):
        text = metrics.render_table(self.sample_rows())
        lines = text.splitlines()
        assert lines[0].split() == ["model", "Acc/%", "Kap", "AUC", "eta"]
        assert "50.00" in lines[1]

    def test_table_without_time(self):
        text = metrics.render_table(self.sample_rows())
        assert "time/s" not in text

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = self.sample_rows()
        metrics.save_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,acc,kap,auc,eta,tp,fn,fp,tn")
        fields = lines[1].split(",")
        assert fields[0] == "demo"
        assert float(fields[1]) == rows[0][1].acc
        # timings never enter the deterministic CSV
        assert "0.25" not in lines[1]
