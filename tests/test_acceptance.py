"""Acceptance suite: one test per criterion, one printed verdict line each.

Published headline numbers are not reproducible at desk scale; these
tests pin
exact formulas against independent oracles and reproduce the published
orderings directionally on fixture-sized knowledge bases.
"""

import contextlib
import time

import numpy as np
import pytest

import networks
from tspred import cli, elm, features, metrics, simkit, swarm
from conftest import make_trajectory, simulate_one

FIXTURES = "fixtures"


@contextlib.contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num:2d}] FAIL  {desc}")
        raise
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] PASS  {desc}")


# --- shared desk-scale knowledge bases (criteria 10, 11, 13) ---------------

@pytest.fixture(scope="module")
def smib_kb_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_smib") / "smib_kb.csv"
    assert cli.main(["generate", "--model", f"{FIXTURES}/smib.sys",
                     "--grid", f"{FIXTURES}/smib.grid",
                     "--out", str(out)]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def multi_kb_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_3m") / "three_machine_kb.csv"
    assert cli.main(["generate", "--model", f"{FIXTURES}/three_machine.sys",
                     "--grid", f"{FIXTURES}/three_machine.grid",
                     "--out", str(out)]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def multi_kb(multi_kb_path):
    return features.load_knowledge_base(
        multi_kb_path, multi_kb_path.with_suffix(".meta"))


def test_criterion_01_pseudoinverse_moore_penrose(capsys):
    with criterion(capsys, 1, "Moore-Penrose conditions on 200 random "
                              "matrices within 1e-8"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(200):
            m = int(rng.integers(1, 31))
            n = int(rng.integers(1, 31))
            a = rng.normal(size=(m, n))
            if trial % 3 == 0 and min(m, n) > 1:
                # force rank deficiency by duplicating a row
                a[int(rng.integers(m))] = a[int(rng.integers(m))]
            ap = elm.pseudoinverse(a)
            scale = max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(a @ ap @ a - a) / scale < 1e-8
            assert np.linalg.norm(ap @ a @ ap - ap) / max(
                np.linalg.norm(ap), 1.0) < 1e-8
            assert np.linalg.norm((a @ ap) - (a @ ap).T) < 1e-8 * scale
            assert np.linalg.norm((ap @ a) - (ap @ a).T) < 1e-8 * scale
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_elm_exact_fit(capsys):
    with criterion(capsys, 2, "ELM interpolates 50 random datasets with "
                              "N <= L, residual < 1e-6"):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        done = 0
        while done < 50:
            n_hidden = int(rng.integers(2, 51))
            n_samples = int(rng.integers(1, n_hidden + 1))
            n_feat = int(rng.integers(1, 8))
            x = rng.normal(size=(n_samples, n_feat))
            y = rng.normal(size=n_samples)
            layer = (rng.uniform(-1, 1, (n_hidden, n_feat)),
                     rng.uniform(-1, 1, n_hidden),
                     np.full(n_hidden, elm.ACT_SIGMOID))
            h = elm.hidden_matrix(x, *layer)
            s = np.linalg.svd(h, compute_uv=False)
            if s[-1] < 1e-6 * s[0]:
                continue   # near rank-deficient draw: regenerate weights
            beta = elm.train(*layer, x, y)
            residual = np.linalg.norm(h @ beta - y)
            assert residual < 1e-6
            done += 1
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_smib_critical_clearing_time(capsys):
    with criterion(capsys, 3, "bisection CCT matches equal-area analytic "
                              "value within one step"):
        t0 = time.perf_counter()
        model = networks.smib_model()
        analytic = networks.smib_critical_clearing_time(model)
        step = simkit.DEFAULT_STEP

        def stable_at(clear_s):
            sc = simkit.SimulationScenario(
                fault="fault", clearing_cycles=clear_s * model.f0,
                load_level=1.0)
            traj = simulate_one(model, sc)
            return features.label_trajectory(traj) == features.STABLE

        lo, hi = 0.01, 1.0
        assert stable_at(lo) and not stable_at(hi)
        while hi - lo > step / 4.0:
            mid = 0.5 * (lo + hi)
            if stable_at(mid):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - analytic) <= step
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_labeling_brute_force(capsys):
    with criterion(capsys, 4, "stability label agrees with brute-force "
                              "pairwise scan on 100 trajectories"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n_t = int(rng.integers(2, 40))
            n_g = int(rng.integers(2, 5))
            delta = np.cumsum(rng.normal(scale=40.0, size=(n_t, n_g)),
                              axis=0)
            traj = make_trajectory(delta)
            worst = 0.0
            for i in range(n_g):
                for j in range(i + 1, n_g):
                    gap = np.max(np.abs(delta[:, i] - delta[:, j]))
                    worst = max(worst, gap)
            expected = (features.STABLE if worst < 360.0
                        else features.UNSTABLE)
            assert features.label_trajectory(traj) == expected


def test_criterion_05_swarm_worked_examples(capsys):
    with criterion(capsys, 5, "swarm unit vectors v'=0.39, sigma^2=0.125, "
                              "mutated x=0.55 to 1e-12"):
        v = np.array([0.1])
        swarm.velocity_update(v, 0.5, 0.6, 0.7, 0.9, np.array([0.5]),
                              np.array([0.5]))
        assert abs(v[0] - 0.39) < 1e-12
        assert abs((0.5 + v[0]) - 0.89) < 1e-12
        assert abs(swarm.fitness_variance([0.5, 1.0]) - 0.125) < 1e-12

        class One:
            def random(self, shape):
                return np.ones(shape)

        out = swarm.mutate(np.full((1, 1), 0.5), One())
        assert abs(out[0, 0] - 0.55) < 1e-12


def test_criterion_06_eta_published_triples(capsys):
    with criterion(capsys, 6, "composite eta reproduces published triples "
                              "within 0.0005"):
        assert abs(metrics.eta(0.9709, 0.969, 0.979) - 0.973) < 5e-4
        assert abs(metrics.eta(0.9573, 0.919, 0.953) - 0.943) < 5e-4


def test_criterion_07_metric_oracles(capsys):
    with criterion(capsys, 7, "AUC pairwise oracle exact and kappa hand "
                              "formula within 1e-12, 100 trials each"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(4, 51))
            labels = rng.choice([1, -1], size=n)
            if abs(labels.sum()) == n:
                labels[0] = -labels[1]
            scores = np.round(rng.normal(size=n), 1)
            pos = scores[labels == 1]
            neg = scores[labels == -1]
            oracle = sum(1.0 if p > q else 0.5 if p == q else 0.0
                         for p in pos for q in neg) / (len(pos) * len(neg))
            assert metrics.auc(scores, labels) == oracle
        for _ in range(100):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 40, size=4))
            total = tp + fn + fp + tn
            if total == 0:
                continue
            p_o = (tp + tn) / total
            p_e = ((tp + fn) * (tp + fp) + (tn + fp) * (tn + fn)) / total**2
            if p_e == 1.0:
                expected = 1.0 if p_o == 1.0 else 0.0
            else:
                expected = (p_o - p_e) / (1.0 - p_e)
            assert abs(metrics.kappa(tp, fn, fp, tn) - expected) < 1e-12


def test_criterion_08_optimizer_sanity(capsys):
    with criterion(capsys, 8, "PSO and IPSO solve the 1-D surrogate in "
                              ">= 18/20 seeds within 5 s"):
        def sphere(pos):
            return 1.0 - float((pos[0] - 0.3) ** 2)

        t0 = time.perf_counter()
        hits = {"pso": 0, "ipso": 0}
        for seed in range(20):
            config = swarm.SwarmConfig(population=20, max_iterations=200,
                                       seed=seed, fitness_target=0.999999)
            for name in hits:
                res = swarm.OPTIMIZERS[name](sphere, 1, config)
                if abs(res.best_position[0] - 0.3) < 1e-2:
                    hits[name] += 1
        assert hits["pso"] >= 18
        assert hits["ipso"] >= 18
        assert time.perf_counter() - t0 < 5.0


def test_criterion_09_mutation_rescue(capsys):
    with criterion(capsys, 9, "stagnant swarm triggers mutation that moves "
                              ">= N_p - 1 particles, G_best preserved"):
        config = swarm.SwarmConfig(population=8, seed=3)
        # hand-constructed stagnation: identical fitness below target
        fits = np.full(config.population, 0.5)
        var = swarm.fitness_variance(fits)
        assert swarm.premature_check(var, var) is True
        positions = np.full((config.population, 5), 0.4)
        rng = swarm._rng(config.seed, 99)
        moved = swarm.mutate(positions, rng, exempt=2)
        changed = int(np.sum(np.any(moved != positions, axis=1)))
        assert changed >= config.population - 1
        assert np.array_equal(moved[2], positions[2])

        # the full optimizer preserves G_best across the event
        res = swarm.run_ipso(lambda p: 0.5, 3,
                             swarm.SwarmConfig(population=6,
                                               max_iterations=4, seed=1))
        assert any(rec.mutated for rec in res.trace)
        best = [rec.best_fitness for rec in res.trace]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def _train_and_score(kb, seed, hidden=50, population=20, iterations=200,
                     target=0.99):
    split = features.split_train_test(kb, cli.DEFAULT_SPLIT_FRACTION, seed)
    z, means, stds = features.standardize(kb.samples, split.train)
    spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=hidden)
    ctx = swarm.FitnessContext.build(z[split.train], kb.labels[split.train],
                                     spec, seed=seed)
    config = swarm.SwarmConfig(population=population,
                               max_iterations=iterations,
                               fitness_target=target, seed=seed)
    return (z, means, stds), split, spec, ctx, config


def test_criterion_10_desk_scale_pipeline(capsys, smib_kb_path, multi_kb,
                                          multi_kb_path):
    with criterion(capsys, 10, "desk-scale IPSO pipeline: acc >= 0.90 and "
                               "eta >= 0.85 in >= 8/10 seeds"):
        t0 = time.perf_counter()
        smib_kb = features.load_knowledge_base(
            smib_kb_path, smib_kb_path.with_suffix(".meta"))
        total = smib_kb.n_samples + multi_kb.n_samples
        assert total >= 300
        for kb in (smib_kb, multi_kb):
            frac_stable = float(np.mean(kb.labels == features.STABLE))
            assert 0.2 <= frac_stable <= 0.8
        successes = 0
        for seed in range(10):
            (z, means, stds), split, spec, ctx, config = _train_and_score(
                multi_kb, seed)
            result = swarm.run_ipso(ctx, spec.dim, config)
            a, b, mask, cf = swarm.decode_particle(result.best_position, spec)
            w = a[:, mask]
            beta = elm.train(w, b, cf, z[split.train][:, mask],
                             multi_kb.labels[split.train])
            # raw test rows through the full model, as the CLI scores them
            model = elm.ElmModel(w, b, cf, beta, mask, means, stds)
            report = metrics.evaluate(
                elm.predict_full(model, multi_kb.samples[split.test]),
                multi_kb.labels[split.test])
            if (report.acc >= 0.90 and report.eta is not None
                    and report.eta >= 0.85):
                successes += 1
        assert successes >= 8
        assert time.perf_counter() - t0 < 600.0


def test_criterion_11_ipso_vs_pso_direction(capsys, multi_kb):
    with criterion(capsys, 11, "IPSO median fitness and success rate >= "
                               "PSO over 20 paired seeds"):
        results = {"ipso": [], "pso": []}
        for seed in range(20):
            _, _, spec, ctx, config = _train_and_score(
                multi_kb, seed, hidden=20, iterations=30, target=1.0)
            for name in results:
                res = swarm.OPTIMIZERS[name](ctx, spec.dim, config)
                results[name].append(res.best_fitness)
        best_overall = max(max(v) for v in results.values())
        threshold = 0.95 * best_overall
        ipso, pso = results["ipso"], results["pso"]
        assert np.median(ipso) >= np.median(pso)
        rate = {n: np.mean([f >= threshold for f in v])
                for n, v in results.items()}
        assert rate["ipso"] >= rate["pso"]


def test_criterion_12_prediction_latency(capsys, smib_kb_path, tmp_path):
    with criterion(capsys, 12, "single-sample prediction latency < 50 ms"):
        out = tmp_path / "opt12"
        assert cli.main(["optimize", "--kb", str(smib_kb_path),
                         "--out", str(out), "--optimizer", "ipso",
                         "--seed", "3", "--hidden", "8",
                         "--population", "8", "--iterations", "10",
                         "--split-fraction", "0.7"]) == cli.EXIT_OK
        row = smib_kb_path.read_text().splitlines()[1]
        # warm-up, then measured call
        for _ in range(2):
            assert cli.main(["predict",
                             "--model", str(out / "model.elm"),
                             "--row", row]) == cli.EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[-1]
        latency = float(line.split("latency_ms=")[1])
        assert latency < 50.0


def test_criterion_13_byte_identical_reruns(capsys, smib_kb_path,
                                            multi_kb_path, tmp_path):
    with criterion(capsys, 13, "reruns of criteria 3/10/11 outputs are "
                               "byte-identical"):
        # criterion 3 analog: regenerate the SMIB knowledge base
        again = tmp_path / "smib_again.csv"
        assert cli.main(["generate", "--model", f"{FIXTURES}/smib.sys",
                         "--grid", f"{FIXTURES}/smib.grid",
                         "--out", str(again)]) == cli.EXIT_OK
        assert again.read_bytes() == smib_kb_path.read_bytes()

        # criterion 10 analog: one representative optimize run, twice
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["optimize", "--kb", str(multi_kb_path),
                             "--out", str(out), "--optimizer", "ipso",
                             "--seed", "0", "--hidden", "50",
                             "--population", "20",
                             "--iterations", "200"]) == cli.EXIT_OK
            blobs.append((out / "model.elm").read_bytes()
                         + (out / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

        # criterion 11 analog: deterministic comparison CSV, twice
        dets = []
        for name in ("c1", "c2"):
            out = tmp_path / f"{name}.csv"
            assert cli.main(["compare", "--kb", str(multi_kb_path),
                             "--out", str(out), "--seed", "0",
                             "--repeats", "2", "--hidden", "10",
                             "--population", "8",
                             "--iterations", "6"]) == cli.EXIT_OK
            det = out.with_name(out.stem + "_deterministic.csv")
            dets.append(det.read_bytes())
        assert dets[0] == dets[1]
