"""Tests for the swarm optimizers and the mixed-integer ELM encoding."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspred import elm, features, swarm
from conftest import separable_kb


SPEC = swarm.EncodingSpec(n_features=3, hidden=2)


def make_position(spec, a=0.5, b=0.5, s=0.7, cf=0.9):
    """Position filled segment-wise with scalar raw values."""
    pos = np.empty(spec.dim)
    sl = spec.slices
    pos[sl["a"]] = a
    pos[sl["b"]] = b
    pos[sl["s"]] = s
    pos[sl["cf"]] = cf
    return pos


class TestEncodingSpec:
    def test_dimension_formula(self):
        # [TRIVIAL] D = L*n + L + n + L
        assert SPEC.dim == 2 * 3 + 2 + 3 + 2

    def test_slices_cover_dimension(self):
        sl = SPEC.slices
        ends = [sl["a"].stop, sl["b"].stop, sl["s"].stop, sl["cf"].stop]
        assert sl["a"].start == 0
        assert ends == [6, 8, 11, 13]
        assert ends[-1] == SPEC.dim


class TestDecodeParticle:
    def test_mask_threshold(self):
        # [TRIVIAL] raw s [0.7, 0.2, 0.5] -> mask [1, 0, 1], ties to 1
        pos = make_position(SPEC)
        pos[SPEC.slices["s"]] = [0.7, 0.2, 0.5]
        _, _, mask, _ = swarm.decode_particle(pos, SPEC)
        assert mask.tolist() == [True, False, True]

    def test_activation_thirds(self):
        # [TRIVIAL] raw cf 0.1 / 0.4 / 0.9 -> codes 0 / 1 / 2
        spec = swarm.EncodingSpec(n_features=2, hidden=3)
        pos = make_position(spec)
        pos[spec.slices["cf"]] = [0.1, 0.4, 0.9]
        _, _, _, cf = swarm.decode_particle(pos, spec)
        assert cf.tolist() == [0, 1, 2]

    def test_affine_midpoint(self):
        # [TRIVIAL] raw a entry 0.5 -> weight 0.0
        pos = make_position(SPEC, a=0.5)
        a, _, _, _ = swarm.decode_particle(pos, SPEC)
        assert np.all(a == 0.0)

    def test_affine_endpoints(self):
        lo = make_position(SPEC, a=0.0, b=0.0)
        hi = make_position(SPEC, a=1.0, b=1.0)
        a_lo, b_lo, _, _ = swarm.decode_particle(lo, SPEC)
        a_hi, b_hi, _, _ = swarm.decode_particle(hi, SPEC)
        assert np.all(a_lo == -1.0)
        assert np.all(b_lo == -1.0)
        assert np.all(a_hi == 1.0)
        assert np.all(b_hi == 1.0)

    def test_empty_mask_repaired(self):
        pos = make_position(SPEC)
        pos[SPEC.slices["s"]] = [0.1, 0.3, 0.2]
        _, _, mask, _ = swarm.decode_particle(pos, SPEC)
        assert mask.tolist() == [False, True, False]

    def test_all_off_activations_repaired(self):
        pos = make_position(SPEC)
        pos[SPEC.slices["cf"]] = [0.05, 0.2]
        _, _, _, cf = swarm.decode_particle(pos, SPEC)
        assert cf.tolist() == [0, 1]

    def test_weight_columns_follow_mask(self):
        pos = make_position(SPEC)
        pos[SPEC.slices["s"]] = [0.9, 0.1, 0.9]
        a, _, mask, _ = swarm.decode_particle(pos, SPEC)
        assert a[:, mask].shape == (2, 2)
        assert int(mask.sum()) == 2

    def test_out_of_range_rejected(self):
        pos = make_position(SPEC)
        pos[0] = 1.5
        with pytest.raises(ValueError):
            swarm.decode_particle(pos, SPEC)

    @pytest.mark.parametrize("value", [1.5, -0.5, np.nan])
    @pytest.mark.parametrize("part", ["a", "b", "s", "cf"])
    def test_out_of_cube_rejected_in_every_slice(self, part, value):
        # a NaN is outside the cube too: in cf it would cast to INT_MIN,
        # in s it would read as a cleared bit
        kb = separable_kb(n=40, n_features=3, seed=1)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, SPEC)
        pos = make_position(SPEC)
        pos[SPEC.slices[part].start] = value
        with pytest.raises(ValueError, match="outside the unit cube"):
            swarm.decode_particle(pos, SPEC)
        with pytest.raises(ValueError, match="outside the unit cube"):
            swarm.evaluate_fitness(pos, ctx)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            swarm.decode_particle(np.zeros(SPEC.dim + 1), SPEC)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_decode_total_on_unit_cube(self, seed):
        # Property: every position decodes to a trainable hidden layer.
        rng = np.random.default_rng(seed)
        pos = rng.random(SPEC.dim)
        a, b, mask, cf = swarm.decode_particle(pos, SPEC)
        assert mask.any()
        assert np.any(cf != elm.ACT_OFF)
        assert a[:, mask].shape == (2, int(mask.sum()))
        assert np.all(np.abs(a) <= 1.0)
        assert np.all(np.abs(b) <= 1.0)


class TestFitnessVariance:
    def test_zero_deviation(self):
        # [TRIVIAL] identical fitnesses -> zero variance
        assert swarm.fitness_variance([0.8, 0.8, 0.8]) == pytest.approx(
            0.0, abs=1e-24)

    def test_worked_example(self):
        # [PAPER] f = [0.5, 1.0]: f_avg 0.75, f_best 1.0 -> 0.125
        assert swarm.fitness_variance([0.5, 1.0]) == pytest.approx(
            0.125, abs=1e-12)

    def test_zero_best_guard(self):
        # [TRIVIAL] all-zero population -> 0 via guard
        assert swarm.fitness_variance([0.0, 0.0, 0.0]) == 0.0

    def test_guard_unnormalized(self):
        # f_best == 0 with spread: plain sum of squared deviations
        got = swarm.fitness_variance([0.0, -2.0])
        assert got == pytest.approx(2.0, abs=1e-12)


class TestPrematureCheck:
    def test_flat_tiny_variance_fires(self):
        # [TRIVIAL] ratio 1 inside band, below floor, no improvement
        assert swarm.premature_check(1e-5, 1e-5) is True

    def test_above_floor_blocks(self):
        assert swarm.premature_check(0.5, 0.5) is False

    def test_ratio_outside_band_blocks(self):
        assert swarm.premature_check(1e-5, 1e-7) is False

    def test_improvement_blocks(self):
        assert swarm.premature_check(1e-5, 1e-5, best_improved=True) is False

    def test_double_zero_counts(self):
        assert swarm.premature_check(0.0, 0.0) is True

    def test_zero_then_positive_blocks(self):
        assert swarm.premature_check(0.0, 1e-6) is False


class TestVelocityUpdate:
    def test_worked_example(self):
        # [PAPER] w=0.9, c1=c2=2, r1=r2=0.5, v=0.1, s=0.5,
        # pbest=0.6, gbest=0.7 -> v'=0.39, s'=0.89
        v = np.array([0.1])
        swarm.velocity_update(v, 0.5, 0.6, 0.7, 0.9, np.array([0.5]),
                              np.array([0.5]))
        assert v[0] == pytest.approx(0.39, abs=1e-12)
        assert 0.5 + v[0] == pytest.approx(0.89, abs=1e-12)

    def test_fixed_point(self):
        # [TRIVIAL] particle at pbest = gbest = s with v = 0 stays put
        v = np.array([0.0])
        swarm.velocity_update(v, 0.4, 0.4, 0.4, 0.9, np.array([0.3]),
                              np.array([0.8]))
        assert v[0] == 0.0


class _ConstRng:
    """Stub generator returning a constant uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class TestMutate:
    def test_zero_perturbation(self):
        # [TRIVIAL] x=0.5, c_m=0.1, rand=0.5 -> 0.5
        out = swarm.mutate(np.full((2, 3), 0.5), _ConstRng(0.5))
        assert np.all(out == 0.5)

    def test_worked_example(self):
        # [PAPER] x=0.5, c_m=0.1, rand=1.0 -> 0.55
        out = swarm.mutate(np.full((1, 1), 0.5), _ConstRng(1.0))
        assert out[0, 0] == pytest.approx(0.55, abs=1e-12)

    def test_clamped_at_one(self):
        # [TRIVIAL] 0.999 + 0.05 -> 1.0 after clamp
        out = swarm.mutate(np.full((1, 1), 0.999), _ConstRng(1.0))
        assert out[0, 0] == 1.0

    def test_exempt_row_untouched(self):
        pos = np.full((3, 4), 0.5)
        out = swarm.mutate(pos, _ConstRng(1.0), exempt=1)
        assert np.all(out[1] == 0.5)
        assert np.all(out[0] == 0.55)
        assert np.all(out[2] == 0.55)


def reference_fitness(position, spec, samples, labels, seed):
    """5-fold CV fitness with `elm.train` per fold on the full decoded
    hidden layer, ACT_OFF neurons included; a score >= 0 predicts +1."""
    a, b, mask, cf = swarm.decode_particle(position, spec)
    layer = (a[:, mask], b, cf)
    x = samples[:, mask]
    correct = 0
    for fold in features.kfold_partition(labels, 5, seed):
        train_rows = np.setdiff1d(np.arange(len(labels)), fold)
        beta = elm.train(*layer, x[train_rows], labels[train_rows])
        pred = np.where(elm.hidden_matrix(x[fold], *layer) @ beta >= 0.0,
                        1, -1)
        correct += int(np.sum(pred == labels[fold]))
    return correct / len(labels)


class TestEvaluateFitness:
    def test_separable_toy_reaches_one(self):
        # [DERIVED] label = sign of feature 0, linear neuron on feature 0
        kb = separable_kb(n=60, n_features=4, seed=5)
        spec = swarm.EncodingSpec(n_features=4, hidden=1)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, spec, seed=2)
        pos = np.empty(spec.dim)
        sl = spec.slices
        pos[sl["a"]] = [1.0, 0.5, 0.5, 0.5]   # weight 1 on feature 0 only
        pos[sl["b"]] = 0.5                     # zero bias
        pos[sl["s"]] = [1.0, 0.0, 0.0, 0.0]    # mask in feature 0 only
        pos[sl["cf"]] = 0.9                    # linear neuron
        assert swarm.evaluate_fitness(pos, ctx) == 1.0

    def test_deterministic(self):
        kb = separable_kb(n=40, n_features=3, seed=1)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, SPEC, seed=0)
        rng = np.random.default_rng(9)
        pos = rng.random(SPEC.dim)
        assert swarm.evaluate_fitness(pos, ctx) == \
            swarm.evaluate_fitness(pos, ctx)

    def test_fitness_in_unit_interval(self):
        kb = separable_kb(n=40, n_features=3, seed=2)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, SPEC, seed=0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = swarm.evaluate_fitness(rng.random(SPEC.dim), ctx)
            assert 0.0 <= f <= 1.0

    # 48 training rows per fold. hidden=200 exceeds them, so the SVD cutoff
    # scales with the width, and feature scales spread over 8 decades put
    # singular values between the full and the active width's cutoffs.
    @pytest.mark.parametrize("hidden, decades", [(4, 0), (200, 8)])
    def test_matches_per_fold_reference(self, hidden, decades):
        kb = separable_kb(n=60, n_features=6, seed=4)
        x = kb.samples * np.logspace(0, -decades, 6)
        spec = swarm.EncodingSpec(n_features=6, hidden=hidden)
        ctx = swarm.FitnessContext.build(x, kb.labels, spec, seed=3)
        rng = np.random.default_rng(hidden)
        for _ in range(50):
            pos = rng.random(spec.dim)
            pos[spec.slices["cf"]] *= rng.random()  # vary the off share
            assert swarm.evaluate_fitness(pos, ctx) == \
                reference_fitness(pos, spec, x, kb.labels, 3)

    # The Gram path must answer for most particles at L <= 50, or the
    # agreement would only test the SVD; at L=120 every spectrum on this
    # KB fails the certificate and the SVD answers.
    @pytest.mark.parametrize("hidden, gram_at_least", [
        (8, 95), (20, 95), (50, 90), (120, 0)])
    def test_gram_path_matches_reference_on_three_machine_kb(
            self, three_machine_kb, monkeypatch, hidden, gram_at_least):
        kb = three_machine_kb
        split = features.split_train_test(kb, 2 / 3, 7)
        z, _, _ = features.standardize(kb.samples, split.train)
        x, y = z[split.train], kb.labels[split.train]
        spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=hidden)
        ctx = swarm.FitnessContext.build(x, y, spec, seed=7)
        answers = []
        solve = swarm._gram_fold_scores

        def recorded(*args):
            answers.append(solve(*args))
            return answers[-1]

        monkeypatch.setattr(swarm, "_gram_fold_scores", recorded)
        rng = np.random.default_rng(hidden)
        for _ in range(100):
            pos = rng.random(spec.dim)
            assert swarm.evaluate_fitness(pos, ctx) == \
                reference_fitness(pos, spec, x, y, 7)
        assert sum(a is not None for a in answers) >= gram_at_least

    def test_ipso_run_matches_reference_on_three_machine_kb(
            self, three_machine_kb, monkeypatch):
        # the swarm clips positions to the cube's faces, where saturated
        # or repeated neurons make Grams that uniform draws rarely give
        kb = three_machine_kb
        split = features.split_train_test(kb, 2 / 3, 7)
        z, _, _ = features.standardize(kb.samples, split.train)
        x, y = z[split.train], kb.labels[split.train]
        spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=50)
        ctx = swarm.FitnessContext.build(x, y, spec, seed=7)
        answers = []
        solve = swarm._gram_fold_scores

        def recorded(*args):
            answers.append(solve(*args))
            return answers[-1]

        monkeypatch.setattr(swarm, "_gram_fold_scores", recorded)
        scored = []

        def fitness(pos):
            scored.append((pos.copy(), ctx(pos)))
            return scored[-1][1]

        config = swarm.SwarmConfig(max_iterations=5, fitness_target=1.0,
                                   seed=7)
        result = swarm.run_ipso(fitness, spec.dim, config)
        assert result.evaluations == len(scored) >= 120
        for pos, fit in scored:
            assert fit == reference_fitness(pos, spec, x, y, 7)
        assert sum(a is not None for a in answers) >= 100

    def test_gram_guard_sends_particle_to_svd(self):
        # [DERIVED] orthonormal columns over 40 rows, 32 training rows per
        # fold. The certificate needs each fold's λ_min above 1e-9 times
        # the all-row trace, about 1: a column scaled by t = 1e-5
        # (λ ~ 1e-10) or 1e-9, an exact zero column and an all-zero layer
        # are refused; columns scaled by 1, 0.1 and 0.01 (λ ~ 1e-4) pass
        # and score what the SVD scores.
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(40, 3)))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        spec = swarm.EncodingSpec(n_features=1, hidden=3)
        ctx = swarm.FitnessContext.build(np.zeros((40, 1)), y, spec)
        for t in (1e-5, 1e-9):
            assert swarm._gram_fold_scores(q * [1.0, t, 1.0], y, ctx) is None
        assert swarm._gram_fold_scores(q * [1.0, 0.0, 0.0], y, ctx) is None
        assert swarm._gram_fold_scores(np.zeros((40, 3)), y, ctx) is None
        h = q * [1.0, 0.1, 0.01]
        correct = swarm._gram_fold_scores(h, y, ctx)
        assert correct is not None
        assert correct == swarm._svd_fold_scores(h, y, ctx)

    def test_off_neuron_weights_do_not_matter(self):
        kb = separable_kb(n=60, n_features=6, seed=6)
        spec = swarm.EncodingSpec(n_features=6, hidden=5)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, spec, seed=1)
        rng = np.random.default_rng(2)
        sl = spec.slices
        pos = rng.random(spec.dim)
        pos[sl["cf"]] = [0.1, 0.5, 0.9, 0.5, 0.9]   # neuron 0 off
        base = swarm.evaluate_fitness(pos, ctx)
        for _ in range(5):
            moved = pos.copy()
            moved[sl["a"].start:sl["a"].start + 6] = rng.random(6)
            moved[sl["b"].start] = rng.random()
            assert swarm.evaluate_fitness(moved, ctx) == base

    def test_folds_partition_the_rows(self):
        kb = separable_kb(n=47, n_features=3, seed=8)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, SPEC, seed=5)
        # 47 rows in 5 folds: two hold 10 rows, three 9 and the padding
        # row 47
        index = ctx.test_index
        assert index.shape == (5, 10)
        assert sorted(np.sum(index == 47, axis=1)) == [0, 0, 1, 1, 1]
        assert np.array_equal(np.sort(index[index < 47]), np.arange(47))


def sphere_fitness(pos):
    """1-D surrogate maximized at x = 0.3."""
    return 1.0 - float((pos[0] - 0.3) ** 2)


def quantised(steps):
    """Fitness rising in `steps` levels as the mean |x − 0.3| falls."""
    def fitness(pos):
        closeness = 1.0 - float(np.mean(np.abs(pos - 0.3)))
        return math.floor(steps * closeness) / steps
    return fitness


def update_digest(digest, res):
    """Feed a run's best position, fitness, count and trace to `digest`."""
    digest.update(res.best_position.tobytes())
    digest.update(np.array([res.best_fitness, res.evaluations]).tobytes())
    digest.update(np.array([
        [rec.iteration, rec.best_fitness, rec.avg_fitness, rec.variance,
         rec.mutated] for rec in res.trace]).tobytes())


class TestRunSwarm:
    def test_zero_iterations_returns_initial_best(self):
        config = swarm.SwarmConfig(max_iterations=0, seed=4)
        res = swarm.run_pso(sphere_fitness, 1, config)
        assert len(res.trace) == 1
        assert res.evaluations == config.population
        assert res.best_fitness == sphere_fitness(res.best_position)

    def test_target_zero_stops_immediately(self):
        # [TRIVIAL] fitness target 0 -> terminate after first round
        config = swarm.SwarmConfig(fitness_target=0.0, seed=4)
        res = swarm.run_ipso(sphere_fitness, 1, config)
        assert len(res.trace) == 1

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 5,
                                      2**64 + 5, 10**30])
    def test_stream_is_the_seed_sequence_of_the_list(self, seed):
        # each (seed, *key) stream is default_rng(SeedSequence([seed,
        # *key])), seeds of one to four 32-bit words included
        for key in [(), (0, 3), (1, 14, 19), (3, 2**32 - 1)]:
            got = swarm._rng(seed, *key)
            want = np.random.default_rng(
                np.random.SeedSequence([seed, *key]))
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.random(4), want.random(4))
        with pytest.raises(ValueError, match="the seed -1 is negative"):
            swarm._rng(-1, 0)

    def test_same_seed_identical_trace(self):
        config = swarm.SwarmConfig(max_iterations=15, seed=11,
                                   fitness_target=1.0)
        a = swarm.run_ipso(sphere_fitness, 1, config)
        b = swarm.run_ipso(sphere_fitness, 1, config)
        assert a.trace == b.trace
        assert np.array_equal(a.best_position, b.best_position)

    def test_gbest_monotone_all_optimizers(self):
        config = swarm.SwarmConfig(max_iterations=20, seed=8,
                                   fitness_target=1.0)
        for run in (swarm.run_pso, swarm.run_ipso, swarm.run_ga):
            res = run(sphere_fitness, 2, config)
            best = [rec.best_fitness for rec in res.trace]
            assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_positions_contained(self):
        # Containment checked through the fitness callback.
        seen = []

        def probe(pos):
            seen.append(pos.copy())
            return sphere_fitness(pos)

        config = swarm.SwarmConfig(max_iterations=10, seed=3,
                                   fitness_target=1.0)
        swarm.run_ipso(probe, 3, config)
        stacked = np.vstack(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)

    def test_pso_ipso_trace_prefix(self):
        # [DERIVED] identical until the first mutation event
        config = swarm.SwarmConfig(max_iterations=30, seed=21,
                                   fitness_target=1.0)
        a = swarm.run_pso(sphere_fitness, 1, config)
        b = swarm.run_ipso(sphere_fitness, 1, config)
        first_mut = next((rec.iteration for rec in b.trace if rec.mutated),
                         None)
        cut = len(b.trace) if first_mut is None else first_mut
        assert a.trace[:cut] == b.trace[:cut]

    def test_sphere_convergence_rate(self):
        # [DERIVED] >= 18/20 seeds land within 1e-2 of the optimum
        hits = {"pso": 0, "ipso": 0, "ga": 0}
        for seed in range(20):
            config = swarm.SwarmConfig(max_iterations=60, seed=seed,
                                       fitness_target=0.999999)
            for name, run in swarm.OPTIMIZERS.items():
                res = run(sphere_fitness, 1, config)
                if abs(res.best_position[0] - 0.3) < 1e-2:
                    hits[name] += 1
        assert hits["pso"] >= 18
        assert hits["ipso"] >= 18
        # GA is the weaker baseline here; measured 13/20 at this budget.
        assert hits["ga"] >= 11

    def test_mutation_rescue_on_stagnant_swarm(self):
        # Flat fitness below target forces premature_check, then
        # mutation moves at least population-1 particles.
        calls = []

        def flat(pos):
            calls.append(pos.copy())
            return 0.5

        config = swarm.SwarmConfig(population=6, max_iterations=3, seed=2)
        res = swarm.run_ipso(flat, 4, config)
        assert any(rec.mutated for rec in res.trace)
        # mutation re-evaluates population-1 extra particles that round
        mut_iters = sum(rec.mutated for rec in res.trace)
        plain = config.population * (1 + 3)
        assert res.evaluations == plain + mut_iters * (config.population - 1)
        best = [rec.best_fitness for rec in res.trace]
        assert all(b == 0.5 for b in best)   # never decreases on the event

    def test_runs_through_rescues_match_frozen_reference(self):
        # Steps of 0.25 stall the swarm often, so IPSO's rescue fires
        # hundreds of times over these 40 seeds. The digests pin every best
        # position, best fitness, evaluation count and trace field.
        frozen = {
            "ipso": ("5fef69a5178a6effdb41878783ce75e9"
                     "6b5baa41722fb033c61ed7c5480f89c0", 13217, 471),
            "pso": ("cb180051a49ad91ee6ee73fccd3a6c13"
                    "ee6d4f36a3eceee1acf2d91de75f9a6d", 9920, 0),
            "ga": ("3358572a60e5e9da4d6310dd904fd170"
                   "645b1dd9a8243beb6e616c009087f6c5", 9920, 0),
        }
        for name, run in swarm.OPTIMIZERS.items():
            digest, evaluations, mutations = hashlib.sha256(), 0, 0
            for seed in range(40):
                config = swarm.SwarmConfig(population=8, max_iterations=30,
                                           fitness_target=1.0, seed=seed)
                res = run(quantised(4), 6, config)
                update_digest(digest, res)
                evaluations += res.evaluations
                mutations += sum(rec.mutated for rec in res.trace)
            assert (digest.hexdigest(), evaluations, mutations) == \
                frozen[name], name

    @pytest.mark.parametrize("seed, frozen", [
        pytest.param(27, "1da90072d151a6ba0b4a2e76a1bb77a3"
                         "935e742b90871c2e001191f9835491e0", id="seed 27"),
        pytest.param(34, "fc6a89c68ad413ca89da1ac0f30381900"
                         "cc987504b069bc0afe50e541b98846e", id="seed 34"),
    ])
    def test_personal_best_scored_before_a_rescue_is_kept(self, seed, frozen):
        # In these runs a particle beats its personal best on the scoring
        # just before a rescue mutates it. A swarm that updated personal
        # bests only from the scores it sees at its next move would lose
        # that position and part from the frozen run.
        config = swarm.SwarmConfig(population=4, max_iterations=30,
                                   fitness_target=1.0, seed=seed)
        res = swarm.run_ipso(quantised(20), 6, config)
        assert any(rec.mutated for rec in res.trace)
        digest = hashlib.sha256()
        update_digest(digest, res)
        assert digest.hexdigest() == frozen

    # Frozen on the code before the activation, decode, Gram and move were
    # rewritten in place: on the real fitness path, through the Gram
    # certificate and the SVD, every scored position and each run's result
    # keep their bits. No rescue fires in three iterations, so IPSO's runs
    # are PSO's
    @pytest.mark.parametrize("hidden, frozen", [
        pytest.param(20, {
            "ipso seed 3": "bf3b0b97f8e45ab64d385b424dd4b7a7"
                           "6026f2ede2e2bf8748d414456ea3e2b6",
            "pso seed 3": "bf3b0b97f8e45ab64d385b424dd4b7a7"
                          "6026f2ede2e2bf8748d414456ea3e2b6",
            "ga seed 3": "6d4aff9ed9f0ba26c79f7fa3c29d7e7e"
                         "8abdb7a2dfc93ad3c78317a098c8f76e",
            "ipso seed 1001": "7da55492b607932437569550f65fbb19"
                              "d76ec4eddc2cf10dd3c38d8b31dbd070",
            "pso seed 1001": "7da55492b607932437569550f65fbb19"
                             "d76ec4eddc2cf10dd3c38d8b31dbd070",
            "ga seed 1001": "1f06dcc9eb628497914a6c5bc701548e"
                            "7c1cc47e9cbce09dc2a3e050d29ac5f4",
        }, id="L=20"),
        pytest.param(50, {
            "ipso seed 3": "dad17f5f4ed7ef2013044bf7c6af7a5c"
                           "66ca2d5ef4214e3cfb09a8e905ce688e",
            "pso seed 3": "dad17f5f4ed7ef2013044bf7c6af7a5c"
                          "66ca2d5ef4214e3cfb09a8e905ce688e",
            "ga seed 3": "0699f46087f9753242a203c827badd4d"
                         "ca557337a0f35e6f042df72761833d8b",
            "ipso seed 1001": "9cc4a1fdfa709cf4c1b8b2332dc5b7d3"
                              "fd34fe7422928e274d9ab8d0b9f4b066",
            "pso seed 1001": "9cc4a1fdfa709cf4c1b8b2332dc5b7d3"
                             "fd34fe7422928e274d9ab8d0b9f4b066",
            "ga seed 1001": "4f92d1f2595ab26918304a22feed2315"
                            "8f2149fc50d82e3e51392d0819449b26",
        }, id="L=50"),
    ])
    def test_fitness_runs_match_frozen_reference(self, three_machine_kb,
                                                 hidden, frozen):
        kb = three_machine_kb
        split = features.split_train_test(kb, 2 / 3, 7)
        z, _, _ = features.standardize(kb.samples, split.train)
        spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=hidden)
        got = {}
        for seed in (3, 1001):
            ctx = swarm.FitnessContext.build(z[split.train],
                                             kb.labels[split.train], spec,
                                             seed=seed)
            config = swarm.SwarmConfig(max_iterations=3, fitness_target=1.0,
                                       seed=seed)
            for name, run in swarm.OPTIMIZERS.items():
                digest = hashlib.sha256()

                def fitness(position):
                    digest.update(position.tobytes())   # every move's bits
                    return ctx(position)

                update_digest(digest, run(fitness, spec.dim, config))
                got[f"{name} seed {seed}"] = digest.hexdigest()
        assert got == frozen

    def test_ga_identical_parents_crossover(self):
        # [TRIVIAL] uniform crossover of identical parents is the parent
        pos = np.full(4, 0.3)
        rng = np.random.default_rng(0)
        take_a = rng.random(4) < 0.5
        child = np.where(take_a, pos, pos)
        assert np.array_equal(child, pos)

    def test_ga_elitism_without_operators(self, monkeypatch):
        # [TRIVIAL] p_c = p_m = 0 with elitism: best never decreases
        monkeypatch.setattr(swarm, "CROSSOVER_PROB", 0.0)
        monkeypatch.setattr(swarm, "MUTATION_PROB", 0.0)
        config = swarm.SwarmConfig(max_iterations=10, seed=6,
                                   fitness_target=1.0)
        res = swarm.run_ga(sphere_fitness, 2, config)
        best = [rec.best_fitness for rec in res.trace]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


class TestSwarmConfig:
    def test_defaults(self):
        c = swarm.SwarmConfig()
        assert c.population == 20
        assert c.max_iterations == 200
        assert c.fitness_target == 0.99
        assert c.seed == 0
        assert [f.name for f in dataclasses.fields(c)] == [
            "population", "max_iterations", "fitness_target", "seed"]
        assert swarm.C1 == swarm.C2 == 2.0
        assert (swarm.W_START, swarm.W_END) == (0.9, 0.4)
        assert swarm.MUTATION_COEFF == 0.1
        assert swarm.BAND_LOW < 1 < swarm.BAND_HIGH

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            swarm.SwarmConfig(population=1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            swarm.SwarmConfig(max_iterations=-1)
        assert swarm.SwarmConfig(max_iterations=0).max_iterations == 0

    def test_inertia_schedule_endpoints(self):
        c = swarm.SwarmConfig(max_iterations=200)
        assert swarm._inertia(c, 1) == pytest.approx(0.9)
        assert swarm._inertia(c, 200) == pytest.approx(0.4)


def bowl(pos):
    """Smooth fitness on which IPSO makes no rescue at `SHARED`."""
    return 1.0 - float(np.mean((pos - 0.3) ** 2))


SHARED = swarm.SwarmConfig(population=6, max_iterations=8,
                           fitness_target=1.0, seed=1)


def counted_bowl():
    """`bowl`, and the list it appends one entry to per call."""
    calls = []

    def fitness(pos):
        calls.append(1)
        return bowl(pos)

    return fitness, calls


def assert_same_run(got, want):
    assert got.trace == want.trace
    assert got.best_fitness == want.best_fitness
    assert got.evaluations == want.evaluations
    assert got.best_position.tobytes() == want.best_position.tobytes()


class TestSharedFitness:
    def test_copy_hits_and_one_ulp_misses(self):
        # PSO of IPSO's own dim and config takes IPSO's rescue-free run
        # without a fitness call; a config one seed away runs on its own
        counted, calls = counted_bowl()
        shared = swarm.SharedFitness(counted)
        ipso = swarm.run_ipso(shared, 4, SHARED)
        assert not any(rec.mutated for rec in ipso.trace)
        assert len(calls) == ipso.evaluations
        together = swarm.run_pso(shared, 4, SHARED)
        assert len(calls) == ipso.evaluations
        assert_same_run(together, swarm.run_pso(bowl, 4, SHARED))
        moved = dataclasses.replace(SHARED, seed=SHARED.seed + 1)
        other = swarm.run_pso(shared, 4, moved)
        assert len(calls) == ipso.evaluations + other.evaluations
        assert_same_run(other, swarm.run_pso(bowl, 4, moved))

    @pytest.mark.parametrize("dim, config", [
        (3, SHARED),
        (4, dataclasses.replace(SHARED, seed=2)),
        (4, dataclasses.replace(SHARED, population=7)),
    ], ids=["dim", "seed", "population"])
    def test_other_runs_share_nothing(self, dim, config):
        counted, calls = counted_bowl()
        shared = swarm.SharedFitness(counted)
        swarm.run_ipso(shared, 4, SHARED)
        before = len(calls)
        result = swarm.run_pso(shared, dim, config)
        assert len(calls) - before == result.evaluations
        assert_same_run(result, swarm.run_pso(bowl, dim, config))

    def test_pso_before_ipso_shares_nothing(self):
        counted, calls = counted_bowl()
        shared = swarm.SharedFitness(counted)
        pso = swarm.run_pso(shared, 4, SHARED)
        ipso = swarm.run_ipso(shared, 4, SHARED)
        assert len(calls) == pso.evaluations + ipso.evaluations
        assert_same_run(pso, swarm.run_pso(bowl, 4, SHARED))

    def test_ipso_then_pso_through_rescues_equal_unshared_runs(self):
        # a flat fitness forces IPSO's rescue, so the two runs part at its
        # first mutation and PSO must still see its own positions' scores
        def flat(pos):
            return 0.5 + 1e-3 * float(pos[0] > 0.5)

        config = swarm.SwarmConfig(population=6, max_iterations=6, seed=2)
        calls = []

        def counted(pos):
            calls.append(1)
            return flat(pos)

        shared = swarm.SharedFitness(counted)
        for run in (swarm.run_ipso, swarm.run_pso, swarm.run_ga):
            before = len(calls)
            alone = run(flat, 4, config)
            together = run(shared, 4, config)
            assert together.trace == alone.trace
            assert together.best_fitness == alone.best_fitness
            assert together.evaluations == alone.evaluations
            assert np.array_equal(together.best_position,
                                  alone.best_position)
            if run is swarm.run_ipso:
                assert any(rec.mutated for rec in alone.trace)
                ipso_calls = len(calls)
            if run is swarm.run_pso:
                # IPSO rescued, so it left no run: PSO makes its own calls
                assert len(calls) - before == together.evaluations
        # every optimizer scores its own positions
        assert ipso_calls < len(calls) < 3 * ipso_calls

    def test_shared_state_is_read_only(self):
        kb = separable_kb(n=40, n_features=3, seed=1)
        ctx = swarm.FitnessContext.build(kb.samples, kb.labels, SPEC)
        result = swarm.run_pso(ctx, SPEC.dim, swarm.SwarmConfig(
            population=4, max_iterations=2, seed=3))
        for array in (result.best_position, ctx.samples, ctx.labels,
                      ctx.test_index):
            with pytest.raises(ValueError):
                array[0] = 0.5


class TestSaveTrace:
    def test_round_trip_header(self, tmp_path):
        config = swarm.SwarmConfig(max_iterations=3, seed=1,
                                   fitness_target=1.0)
        res = swarm.run_pso(sphere_fitness, 1, config)
        path = tmp_path / "trace.csv"
        swarm.save_trace(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,best_fitness,avg_fitness,variance,mutated"
        assert len(lines) == len(res.trace) + 1
