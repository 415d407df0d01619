import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspred import features, simkit
from conftest import make_trajectory, row, separable_kb, simulate_one


class TestLabeling:
    def test_small_excursion_is_stable(self):
        traj = make_trajectory([[0.0, 50.0], [0.0, 100.0]])
        assert features.label_trajectory(traj) == features.STABLE

    def test_large_excursion_is_unstable(self):
        traj = make_trajectory([[0.0, 50.0], [0.0, 400.0]])
        assert features.label_trajectory(traj) == features.UNSTABLE

    def test_boundary_360_is_unstable(self):
        traj = make_trajectory([[0.0, 360.0]])
        assert features.label_trajectory(traj) == features.UNSTABLE

    def test_sustained_fault_smib_is_unstable(self, smib):
        sc = simkit.SimulationScenario(fault="fault", clearing_cycles=180.0,
                                       horizon=3.0)
        traj = simulate_one(smib, sc)
        assert features.label_trajectory(traj) == features.UNSTABLE

    def test_agrees_with_pairwise_brute_force(self):
        rng = np.random.default_rng(1)
        cases, expected = [], []
        for _ in range(50):
            ng = rng.integers(2, 5)
            delta = rng.uniform(-400, 400, size=(20, ng))
            traj = make_trajectory(delta)
            worst = max(abs(delta[t, i] - delta[t, j])
                        for t in range(delta.shape[0])
                        for i in range(ng) for j in range(ng))
            expected.append(features.STABLE if worst < 360.0
                            else features.UNSTABLE)
            assert features.label_trajectory(traj) == expected[-1]
            # as one batch of 4 machines: copies of the last machine
            # move no gap
            cases.append(delta[:, np.minimum(np.arange(4), ng - 1)])
        batch = features.label_trajectory(make_trajectory(np.array(cases)))
        assert batch.tolist() == expected

    @given(offset=st.floats(-1000, 1000))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_common_angle_offset(self, offset):
        delta = np.array([[0.0, 100.0, 250.0], [10.0, 150.0, 300.0]])
        base = features.label_trajectory(make_trajectory(delta))
        shifted = features.label_trajectory(make_trajectory(delta + offset))
        assert base == shifted


class TestExtraction:
    def test_dimension_formula(self):
        assert features.feature_dimension(1) == 56
        assert features.feature_dimension(10) == 398
        for g in (1, 2, 3, 10):
            assert len(features.feature_names(g)) == \
                features.feature_dimension(g)

    def test_equilibrium_trajectory_features_are_static(self, smib):
        sc = simkit.SimulationScenario(fault="fault", clearing_cycles=0.0,
                                       horizon=1.0)
        traj = simulate_one(smib, sc)
        vec = features.extract_features(traj)
        names = features.feature_names(2)
        for name, value in zip(names, vec):
            if "acc_power" in name or "speed" in name or "kinetic" in name:
                assert abs(value) < 1e-6, name

    def test_window_out_of_range(self, smib):
        sc = simkit.SimulationScenario(fault="fault", clearing_cycles=6.0,
                                       horizon=0.15)
        traj = simulate_one(smib, sc)
        with pytest.raises(features.FeatureError,
                           match="horizon shorter than the feature window"):
            features.extract_features(traj)

    @pytest.mark.parametrize("case", ["smib", "three_machine"])
    def test_step_that_merges_window_instants_refused(self, case):
        # 0.02 s is not a whole fraction of the window's 1/60 s spacing
        # (nearest-point selection would put two instants on one grid
        # step): refused before the first step. At the fixtures' 1/240 s
        # every instant keeps its own step, 4 apart, so the KB reads the
        # same samples as before the check
        model = simkit.load_model(f"fixtures/{case}.sys")
        spec = simkit.load_grid_spec(f"fixtures/{case}.grid")

        def windowed(step):
            grid = simkit.build_scenario_grid(**{**spec, "step": step})
            return simkit.simulate_scenarios(model, grid,
                                             keep=features.sample_steps)

        with pytest.raises(ValueError, match=re.escape(
                "integration step 0.02 s does not divide the 1/60 s feature "
                "window spacing")):
            windowed(0.02)
        traj = windowed(spec["step"])
        window = traj.t_clear[:, None] + np.arange(9) / 60.0
        nearest = np.rint(window / spec["step"]).astype(int)
        assert np.array_equal(traj.steps[:, 1:], nearest)
        assert np.all(np.diff(nearest) == 4)

    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_step_that_does_not_divide_the_window_refused(self, step):
        # 1/60 s is 1.67 steps of 0.01 s: each instant read at its nearest
        # step would give samples 0.02, 0.02, 0.01 s apart, none shared
        time = np.arange(301) * step
        with pytest.raises(ValueError, match=re.escape(
                f"integration step {step:g} s does not divide the 1/60 s "
                "feature window spacing")):
            features.sample_steps(np.array([5.0, 6.3]) / 60.0, time)

    @pytest.mark.parametrize("per", [1, 2, 3, 4, 8])
    def test_window_is_whole_steps_apart(self, per):
        # 1/120, 1/240 and 1/480 s are accepted, and so are 1/60 and
        # 1/180 s; a clearing half a step off the grid (5.5 cycles) would
        # round its instants to alternate sides of their steps
        step = 1.0 / (60.0 * per)
        time = np.arange(int(round(1.0 / step)) + 1) * step
        t_clear = np.array([5.0, 5.5, 6.3, 9.9]) / 60.0
        steps = features.sample_steps(t_clear, time)
        assert np.array_equal(steps[:, 1], np.rint(t_clear / step))
        assert np.all(np.diff(steps[:, 1:]) == per)

    def test_batch_equals_stacked_scenarios(self, three_machine):
        # off-grid and on-grid clearings at several load levels
        grid = simkit.build_scenario_grid(
            sorted(three_machine.y_fault), [5.3, 6.0, 7.77, 9.9],
            [0.8, 1.0, 1.15, 1.3], seed=2)
        batch = simkit.simulate_scenarios(three_machine, grid)
        rows = [row(batch, s) for s in range(len(grid))]
        labels = features.label_trajectory(batch)
        assert labels.tolist() == [features.label_trajectory(r) for r in rows]
        assert set(labels.tolist()) == {features.STABLE, features.UNSTABLE}
        stacked = np.array([features.extract_features(r) for r in rows])
        assert np.allclose(features.extract_features(batch), stacked,
                           rtol=0.0, atol=1e-12)

    def test_generator_permutation_permutes_blocks(self, three_machine):
        sc = simkit.SimulationScenario(fault="bus1", clearing_cycles=6.0,
                                       horizon=1.0)
        traj = simulate_one(three_machine, sc)
        vec = features.extract_features(traj)
        perm = [2, 0, 1]
        permuted = dataclasses.replace(
            traj, delta_deg=traj.delta_deg[:, perm],
            speed_dev=traj.speed_dev[:, perm], pm=traj.pm[perm],
            pe=traj.pe[:, perm], inertia=traj.inertia[perm])
        vec_p = features.extract_features(permuted)
        names = features.feature_names(3)
        lookup = dict(zip(names, vec))
        lookup_p = dict(zip(names, vec_p))
        for k in range(features.WINDOW_SAMPLES):
            for new_i, old_i in enumerate(perm):
                for kind in ("angle_coi", "speed_coi", "acc_power",
                             "kinetic"):
                    assert lookup_p[f"w{k}_g{new_i}_{kind}"] == \
                        pytest.approx(lookup[f"w{k}_g{old_i}_{kind}"],
                                      abs=1e-12)
            assert lookup_p[f"w{k}_max_angle_gap"] == \
                pytest.approx(lookup[f"w{k}_max_angle_gap"])


class TestStandardize:
    @staticmethod
    def _x(column):
        return np.column_stack([column, np.arange(len(column), dtype=float)])

    @staticmethod
    def _all_rows(samples):
        return features.standardize(samples, np.arange(len(samples)))

    def test_sample_std_convention(self):
        z, _, _ = self._all_rows(self._x([1.0, 2.0, 3.0]))
        assert z[:, 0] == pytest.approx([-1.0, 0.0, 1.0])

    def test_constant_column_flagged_and_zeroed(self):
        z, _, stds = self._all_rows(self._x([5.0, 5.0, 5.0]))
        assert np.all(z[:, 0] == 0.0)
        assert stds[0] == 0.0

    def test_idempotent(self):
        z, _, _ = self._all_rows(self._x([1.0, 4.0, 7.0, 2.0]))
        again, _, _ = self._all_rows(z)
        assert np.allclose(again, z, atol=1e-9)

    def test_statistics_from_training_rows_only(self):
        x = self._x([1.0, 2.0, 3.0, 1000.0])
        _, means, stds = features.standardize(x, [0, 1, 2])
        assert means[0] == pytest.approx(2.0)
        # corrupting test rows must not change the statistics
        corrupted = self._x([1.0, 2.0, 3.0, -999.0])
        _, means2, stds2 = features.standardize(corrupted, [0, 1, 2])
        assert means[0] == means2[0]
        assert stds[0] == stds2[0]

    def test_inverse_transform_recovers_values(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.5, size=(20, 4))
        z, means, stds = self._all_rows(x)
        assert np.allclose(z * stds + means, x, atol=1e-9)

    def test_columns_normalized(self):
        z, _, _ = self._all_rows(separable_kb(40).samples)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-9)


class TestSplit:
    def test_paper_scale_counts(self):
        labels = np.resize([1, 1, -1], 3300)
        kb = features.KnowledgeBase(
            samples=np.zeros((3300, 1)), labels=labels, seed=0)
        split = features.split_train_test(kb, 2200.0 / 3300.0, seed=1)
        assert len(split.train) == 2200
        assert len(split.test) == 1100

    def test_determinism(self):
        kb = separable_kb(10)
        s1 = features.split_train_test(kb, 0.5, seed=4)
        s2 = features.split_train_test(kb, 0.5, seed=4)
        assert np.array_equal(s1.train, s2.train)
        assert np.array_equal(s1.test, s2.test)

    def test_exact_partition(self):
        kb = separable_kb(37)
        split = features.split_train_test(kb, 0.7, seed=2)
        combined = np.sort(np.concatenate([split.train, split.test]))
        assert np.array_equal(combined, np.arange(37))

    def test_stratified_both_sides(self):
        labels = np.array([1] * 5 + [-1] * 5)
        kb = features.KnowledgeBase(
            samples=np.zeros((10, 1)), labels=labels, seed=0)
        split = features.split_train_test(kb, 0.8, seed=3)
        for side in (split.train, split.test):
            assert set(labels[side]) == {1, -1}


class TestKFold:
    def test_equal_division(self):
        folds = features.kfold_partition(np.resize([1, -1], 10), 5, seed=0)
        assert sorted(len(f) for f in folds) == [2] * 5

    def test_remainder_rule(self):
        folds = features.kfold_partition(np.resize([1, -1], 11), 5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]

    def test_partition_property(self):
        labels = np.resize([1, -1, -1], 23)
        folds = features.kfold_partition(labels, 5, seed=7)
        all_idx = np.sort(np.concatenate(folds))
        assert np.array_equal(all_idx, np.arange(23))
        for i in range(5):
            for j in range(i + 1, 5):
                assert not set(folds[i]) & set(folds[j])

    def test_n_less_than_k_rejected(self):
        with pytest.raises(ValueError):
            features.kfold_partition(np.array([1, -1, 1]), 5, seed=0)

    @pytest.mark.parametrize("k", [2, 5, 7])
    def test_matches_per_index_deal(self, k):
        # the folds of dealing the stable rows, then the unstable ones, each
        # permuted by one generator, one row at a time to fold j mod k
        def reference(labels, seed):
            rng = np.random.default_rng(seed)
            folds = [[] for _ in range(k)]
            cursor = 0
            for c in (features.STABLE, features.UNSTABLE):
                for idx in rng.permutation(np.nonzero(labels == c)[0]):
                    folds[cursor % k].append(int(idx))
                    cursor += 1
            return [np.array(sorted(f), dtype=int) for f in folds]

        rng = np.random.default_rng(k)
        for seed in range(100):     # any size from k up, any class balance
            n = int(rng.integers(k, 60))
            labels = np.where(rng.random(n) < rng.random(), 1, -1)
            got = features.kfold_partition(labels, k, seed)
            want = reference(labels, seed)
            assert len(got) == k
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_knowledge_base_round_trip(tmp_path, smib_kb):
    kb = smib_kb
    csv_path = tmp_path / "kb.csv"
    meta_path = tmp_path / "kb.meta"
    features.save_knowledge_base(kb, csv_path, meta_path)
    loaded = features.load_knowledge_base(csv_path, meta_path)
    assert np.array_equal(loaded.samples, kb.samples)
    assert np.array_equal(loaded.labels, kb.labels)
    assert loaded.seed == kb.seed
    assert [f.name for f in dataclasses.fields(loaded)] == [
        "samples", "labels", "seed", "provenance"]
    assert meta_path.read_text() == f"seed {kb.seed}\nprovenance \n"


def test_knowledge_base_text_is_exact(tmp_path):
    # random finite doubles, the signed zero, the smallest subnormal and
    # the largest magnitudes read back to the same bits, and the loaded KB
    # writes the same bytes again
    rng = np.random.default_rng(11)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=(40, 12), dtype=np.int64, endpoint=True)
    samples = bits.view(np.float64).copy()
    samples[~np.isfinite(samples)] = 0.5
    samples[0, :11] = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                       -1.7976931348623157e308, 0.1, 1.3, 3.0, -2.0, 1e22,
                       2.0 ** 53]
    labels = np.where(np.arange(40) % 3 == 0, features.UNSTABLE,
                      features.STABLE)
    kb = features.KnowledgeBase(samples=samples, labels=labels, seed=3,
                                provenance="bits")
    paths = [tmp_path / name for name in ("a.csv", "a.meta", "b.csv",
                                          "b.meta")]
    features.save_knowledge_base(kb, *paths[:2])
    assert paths[0].read_bytes().split(b"\r\n")[1].startswith(
        b"-1,-0,4.9406564584124654e-324,-4.9406564584124654e-324,"
        b"1.7976931348623157e+308,-1.7976931348623157e+308,"
        b"0.10000000000000001,1.3,3,-2,1e+22,9007199254740992,")
    loaded = features.load_knowledge_base(*paths[:2])
    assert np.array_equal(loaded.samples.view(np.int64),
                          samples.view(np.int64))
    assert np.array_equal(loaded.labels, labels)
    features.save_knowledge_base(loaded, *paths[2:])
    for first, again in zip(paths[:2], paths[2:]):
        assert first.read_bytes() == again.read_bytes()


def test_loads_sidecar_with_feature_lines(tmp_path, smib_kb):
    # earlier writers named each column on a `feature <j> <name>` line after
    # the seed and provenance; such a sidecar loads to the same KB
    csv_path = tmp_path / "kb.csv"
    meta_path = tmp_path / "kb.meta"
    features.save_knowledge_base(smib_kb, csv_path, meta_path)
    current = features.load_knowledge_base(csv_path, meta_path)
    old_lines = [f"seed {smib_kb.seed}", f"provenance {smib_kb.provenance}"]
    old_lines += [f"feature {j} {name}"
                  for j, name in enumerate(features.feature_names(2))]
    meta_path.write_text("\n".join(old_lines) + "\n")
    old = features.load_knowledge_base(csv_path, meta_path)
    assert old is not current
    assert np.array_equal(old.samples, current.samples)
    assert np.array_equal(old.labels, current.labels)
    assert (old.seed, old.provenance) == (current.seed, current.provenance)


def test_loads_sidecar_with_standardization_columns(tmp_path):
    # older sidecars carry a standardized flag, constant-feature names,
    # per-feature mean/std columns and feature lines; the loader skips
    # them, whatever shape a feature line has
    csv_path = tmp_path / "kb.csv"
    meta_path = tmp_path / "kb.meta"
    csv_path.write_text("label,f_0,f_1\n+1,1.0,2.0\n-1,3.0,2.0\n")
    meta_path.write_text("seed 4\nstandardized true\nprovenance m:g\n"
                         "constant_features b\nfeature 0 a 2.0 1.4\n"
                         "feature 1 b 2.0 0.0\nfeature 9999 x\nfeature 3\n"
                         "feature 0 again\nfeature -1 x\nfeature\n")
    kb = features.load_knowledge_base(csv_path, meta_path)
    assert (kb.seed, kb.provenance) == (4, "m:g")
    assert np.array_equal(kb.samples, [[1.0, 2.0], [3.0, 2.0]])
    assert np.array_equal(kb.labels, [1, -1])


def saved_kb(tmp_path, seed=5):
    """Write a toy KB to tmp_path; returns its CSV and sidecar paths."""
    csv_path, meta_path = tmp_path / "kb.csv", tmp_path / "kb.meta"
    features.save_knowledge_base(separable_kb(n=12, n_features=3, seed=seed),
                                 csv_path, meta_path)
    return csv_path, meta_path


def test_unchanged_kb_parsed_once(tmp_path):
    # the same bytes, at any path, give back the KB already parsed
    csv_path, meta_path = saved_kb(tmp_path)
    first = features.load_knowledge_base(csv_path, meta_path)
    copy_csv, copy_meta = tmp_path / "copy.csv", tmp_path / "copy.meta"
    copy_csv.write_bytes(csv_path.read_bytes())
    copy_meta.write_bytes(meta_path.read_bytes())
    assert features.load_knowledge_base(csv_path, meta_path) is first
    assert features.load_knowledge_base(copy_csv, copy_meta) is first


def test_changed_csv_byte_parsed_again(tmp_path):
    csv_path, meta_path = saved_kb(tmp_path)
    first = features.load_knowledge_base(csv_path, meta_path)
    text = csv_path.read_text()
    row = text.splitlines()[1]
    # flip one sample's label: one byte of the CSV
    flipped = ("-" if row[0] == "+" else "+") + row[1:]
    csv_path.write_text(text.replace(row, flipped, 1))
    second = features.load_knowledge_base(csv_path, meta_path)
    assert second is not first
    assert second.labels[0] == -first.labels[0]
    assert np.array_equal(second.labels[1:], first.labels[1:])


def test_changed_sidecar_alone_parsed_again(tmp_path):
    csv_path, meta_path = saved_kb(tmp_path, seed=5)
    assert features.load_knowledge_base(csv_path, meta_path).seed == 5
    meta_path.write_text(meta_path.read_text().replace("seed 5\n",
                                                       "seed 6\n"))
    assert features.load_knowledge_base(csv_path, meta_path).seed == 6


def test_malformed_kb_overwrite_still_refused(tmp_path):
    csv_path, meta_path = saved_kb(tmp_path)
    good = csv_path.read_bytes()
    features.load_knowledge_base(csv_path, meta_path)
    header, row, rest = good.split(b"\r\n", 2)
    row = row.rsplit(b",", 1)[0] + b",nan"
    csv_path.write_bytes(b"\r\n".join([header, row, rest]))
    for _ in range(2):      # a refused file is not kept either
        with pytest.raises(features.FeatureError, match="not a finite"):
            features.load_knowledge_base(csv_path, meta_path)
    csv_path.write_bytes(good)
    assert features.load_knowledge_base(csv_path, meta_path).n_samples == 12


def test_loaded_kb_immutable(tmp_path):
    kb = features.load_knowledge_base(*saved_kb(tmp_path))
    split = features.split_train_test(kb, 0.5, seed=1)
    for arr in (kb.samples, kb.labels, split.train, split.test):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert [arr.dtype for arr in (kb.labels, split.train, split.test)] == \
        [np.dtype(int)] * 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        kb.seed = 1


def test_readonly_copies_only_what_it_must():
    frozen = features.readonly([1.0, 2.0])
    assert not frozen.flags.writeable and frozen.dtype == float
    assert features.readonly(frozen) is frozen
    # another dtype, or a writeable array, gives a read-only copy
    ints = features.readonly(frozen, int)
    assert ints.dtype == int and not ints.flags.writeable
    writeable = np.array([1.0, 2.0])
    copy = features.readonly(writeable)
    assert not copy.flags.writeable and writeable.flags.writeable
    # a read-only view of a writeable array could still change under it
    view = writeable.view()
    view.setflags(write=False)
    for arr in (ints, copy, features.readonly(view)):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, frozen)
        assert not np.shares_memory(arr, writeable)
    # a read-only view of a read-only array is kept
    row = frozen[:1]
    assert features.readonly(row) is row


def test_smib_kb_has_both_classes(smib_kb):
    assert set(smib_kb.labels.tolist()) == {1, -1}


@pytest.mark.parametrize("label", [features.STABLE, features.UNSTABLE])
def test_single_class_rejected(label):
    # a KB of one class is refused where it is built, so no split, fold
    # or fitness ever sees one
    with pytest.raises(features.FeatureError,
                       match="all 4 samples have one label"):
        features.KnowledgeBase(samples=np.zeros((4, 1)),
                               labels=np.full(4, label), seed=0)


def test_single_class_file_refused_naming_it(tmp_path):
    csv_path, meta_path = tmp_path / "kb.csv", tmp_path / "kb.meta"
    csv_path.write_text("label,f_0\n+1,1.0\n+1,2.0\n")
    meta_path.write_text("seed 0\n")
    with pytest.raises(features.FeatureError,
                       match=f"^{re.escape(str(csv_path))}: all 2 samples"):
        features.load_knowledge_base(csv_path, meta_path)


def test_failed_sidecar_write_keeps_the_earlier_pair(tmp_path):
    # a provenance that UTF-8 cannot encode (an undecodable file name)
    # fails the sidecar write after the CSV is written in full
    csv_path, meta_path = saved_kb(tmp_path)
    before = csv_path.read_bytes(), meta_path.read_bytes()
    kb = separable_kb(n=12, n_features=3, seed=9)
    kb = dataclasses.replace(kb, provenance="m:\udcff.grid")
    with pytest.raises(UnicodeEncodeError):
        features.save_knowledge_base(kb, csv_path, meta_path)
    assert (csv_path.read_bytes(), meta_path.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.csv",
                                                          "kb.meta"]
