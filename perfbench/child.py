"""One workload run in a fresh interpreter: set up, time, check, report.

run.py starts this script with BLAS/OpenMP pinned to one thread and
``PYTHONPATH=src``. It imports tspred, parses the workload's inputs (that is
``setup_s``), runs whole workload passes through ``tspred.cli.main`` until
``--seconds`` have passed, checks the outputs and writes one JSON record to
``--out``. With ``--setup-only`` it stops after set-up. With ``--trace 1`` it
runs one pass untraced and one traced pass; the per-layer numbers come from
the traced pass, and the tracing overhead is estimated from its span count.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import logging
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed

DEFAULT_SEED = 0
#: float32 storage bounds the reference's own rounding at about 6e-8
REF_RTOL = 1e-6
REF_ATOL = 1e-9
#: the oracles recompute the same quantities in another order
ORACLE_TOL = 1e-12
#: a single-row score and the batch score come from different BLAS calls
SCORE_TOL = 1e-9

TRAIN_ITERATIONS = 15
TRAIN_HIDDEN = 50
COMPARE_ITERATIONS = 15
COMPARE_HIDDEN = 20
POPULATION = 20
PREDICT_PASSES = 2
#: pass i of a run on the frozen KB uses tspred seed
#: ``seed * PASS_SEEDS + i``: the swarm's path, and with it the cost of an
#: evaluation, depends on the seed, so a run averages over several
PASS_SEEDS = 1000


def call_cli(argv):
    """Run ``tspred.cli.main`` in-process; returns (exit code, stdout)."""
    from tspred import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    if code:
        sys.stderr.write(f"tspred {argv[0]} exited {code}: "
                         f"{err.getvalue()[-500:]}\n")
    return code, out.getvalue()


def digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Probes:
    """Result capture at the optimizer and fitness boundaries.

    Active in every run: it records what the optimizer reports (evaluation
    count, trace, best fitness) and checks each fitness value, without
    reading the clock inside a fitness evaluation.
    """

    def __init__(self):
        from tspred import swarm
        self.optimizer_runs = []
        self.fitness_calls = 0
        self.fitness_out_of_range = 0
        self.degenerate = 0
        for name, run in list(swarm.OPTIMIZERS.items()):
            spans.rebind(run, self._optimizer(name, run))
        spans.rebind(swarm.evaluate_fitness,
                     self._fitness(swarm.evaluate_fitness))
        probes = self

        class DegenerateCounter(logging.Handler):
            def emit(self, record):
                if "degenerate" in record.getMessage():
                    probes.degenerate += 1

        logging.getLogger("tspred.swarm").addHandler(DegenerateCounter())

    def _optimizer(self, name, run):
        def probed(fitness, dim, config):
            t0 = time.perf_counter()
            result = run(fitness, dim, config)
            t1 = time.perf_counter()
            fits = [v for rec in result.trace
                    for v in (rec.best_fitness, rec.avg_fitness)]
            self.optimizer_runs.append({
                "name": name, "t0": t0, "t1": t1,
                "evaluations": int(result.evaluations),
                "best_fitness": float(result.best_fitness),
                "population": config.population,
                "iterations": config.max_iterations,
                "trace_len": len(result.trace),
                "mutations": sum(bool(r.mutated) for r in result.trace),
                "trace_min": min(fits), "trace_max": max(fits)})
            return result
        return probed

    def _fitness(self, evaluate):
        def probed(*args, **kwargs):
            value = evaluate(*args, **kwargs)
            self.fitness_calls += 1
            if not 0.0 <= value <= 1.0:
                self.fitness_out_of_range += 1
            return value
        return probed

    def optimizer_checks(self, runs):
        checks, bad = [], {}
        for r in runs:
            p, i = r["population"], r["iterations"]
            expected = p * (i + 1) + (p - 1) * r["mutations"]
            bad.setdefault(r["name"], [])
            if r["evaluations"] != expected or r["trace_len"] != i + 1:
                bad[r["name"]].append(f"{r['evaluations']} vs {expected}, "
                                      f"trace {r['trace_len']}")
        for name, wrong in bad.items():
            checks.append((
                f"{name} evaluations = P(I+1) + (P-1)·mutations, every run",
                not wrong, "; ".join(wrong)))
        checks.append((
            "every fitness in [0, 1]",
            self.fitness_out_of_range == 0 and all(
                0.0 <= r["trace_min"] and r["trace_max"] <= 1.0
                and 0.0 <= r["best_fitness"] <= 1.0 for r in runs),
            f"{self.fitness_out_of_range} of {self.fitness_calls} "
            "evaluations out of range"))
        return checks


def evals_per_s(passes, seconds):
    """Evaluations reported by the optimizers ÷ optimizer wall time; the
    median over passes, as for ``wall_s``."""
    return statistics.median(
        sum(r["evaluations"] for r in p["runs"])
        / sum(seconds(r["t0"], r["t1"]) for r in p["runs"]) for p in passes)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Generate:
    """``generate`` on the three-machine model over a seeded 378-scenario
    grid with off-step clearing times."""

    def __init__(self, root, work, seed):
        self.root, self.work, self.seed = root, work, seed
        self.sys_path = root / "fixtures" / "three_machine.sys"
        self.grid_path = work / "grid.grid"
        self.out = work / "kb.csv"

    def setup(self):
        from tspred import simkit
        self.model = simkit.load_model(self.sys_path)
        self.spec = simkit.load_grid_spec(self.grid_path)
        self.scenarios = simkit.build_scenario_grid(**self.spec)

    def run_pass(self, probes, index):
        n = len(self.scenarios)
        t0 = time.perf_counter()
        code, _ = call_cli(["generate", "--model", self.sys_path,
                            "--grid", self.grid_path, "--out", self.out])
        t1 = time.perf_counter()
        ok = code == 0
        return {"t0": t0, "t1": t1, "attempted": n, "failed": 0 if ok else n,
                "exit": code,
                "digest": digest(self.out, self.out.with_suffix(".meta"))
                if ok else None}

    def checks(self, passes, probes):
        import numpy as np
        from tspred import features
        checks = [("generate exits 0", all(p["exit"] == 0 for p in passes),
                   str([p["exit"] for p in passes]))]
        if not checks[0][1]:
            return checks
        checks.append(("reruns write identical bytes",
                       len({p["digest"] for p in passes}) == 1, ""))
        kb = features.load_knowledge_base(self.out,
                                          self.out.with_suffix(".meta"))
        g = self.model.n_generators
        n = len(self.scenarios)
        checks.append(("KB reloads with one row per scenario",
                       kb.n_samples == n
                       and kb.n_features == features.feature_dimension(g),
                       f"{kb.n_samples} rows, {kb.n_features} features"))
        labels = kb.labels
        checks.append(("both classes present",
                       set(labels.tolist()) == {1, -1},
                       f"{int((labels == -1).sum())} unstable of {n}"))
        checks.append(("features finite",
                       bool(np.all(np.isfinite(kb.samples))), ""))
        names = features.feature_names(g)
        levels = np.array([sc.load_level for sc in self.scenarios])
        pm_cols = [names.index(f"static_g{i}_pm") for i in range(g)]
        expected_pm = levels[:, None] * self.model.pm[None, :]
        checks.append(("static Pm equals Pm·load level",
                       bool(np.allclose(kb.samples[:, pm_cols], expected_pm,
                                        rtol=ORACLE_TOL, atol=ORACLE_TOL)),
                       ""))
        gap_cols = [j for j, name in enumerate(names)
                    if name.endswith("_max_angle_gap")]
        window_unstable = np.any(kb.samples[:, gap_cols] >= 360.0, axis=1)
        checks.append(("a 360° window gap implies label -1",
                       bool(np.all(labels[window_unstable] == -1)),
                       f"{int(window_unstable.sum())} rows cross in window"))
        if self.seed == DEFAULT_SEED:
            ref = np.load(Path(__file__).parent / "data"
                          / f"generate_seed{DEFAULT_SEED}_ref.npz")
            checks.append(("labels match the seed-0 reference exactly",
                           bool(np.array_equal(labels, ref["labels"])), ""))
            close = np.allclose(kb.samples, ref["features"].astype(float),
                                rtol=REF_RTOL, atol=REF_ATOL)
            worst = float(np.max(np.abs(kb.samples - ref["features"])
                                 / (np.abs(ref["features"]) + REF_ATOL)))
            checks.append((f"features match the seed-0 reference "
                           f"(rtol {REF_RTOL:g}, atol {REF_ATOL:g})",
                           bool(close), f"worst relative {worst:.2e}"))
        return checks

    def metrics(self, passes, seconds):
        rate = statistics.median(p["attempted"] / seconds(p["t0"], p["t1"])
                                 for p in passes)
        return {"scenarios_per_s": (rate, "1/s"),
                "throughput_per_s": (rate, "1/s")}


class _FrozenKb:
    """Workloads on the frozen three-machine KB kept with the benchmark."""

    def __init__(self, root, work, seed):
        self.root, self.work, self.seed = root, work, seed
        self.kb_path = work / "kb_3m.csv"

    def setup(self):
        from tspred import features
        self.kb = features.load_knowledge_base(
            self.kb_path, self.kb_path.with_suffix(".meta"))

    def pass_seed(self, index):
        return self.seed * PASS_SEEDS + index

    def split(self, seed):
        from tspred import cli, features
        return features.split_train_test(self.kb, cli.DEFAULT_SPLIT_FRACTION,
                                         seed)

    @staticmethod
    def merge_checks(passes):
        """One line per per-pass check: ok if it held in every pass."""
        merged = {}
        for p in passes:
            for name, ok, detail in p["checks"]:
                if name not in merged or (merged[name][0] and not ok):
                    merged[name] = (bool(ok), detail)
                elif not ok:
                    merged[name] = (False, merged[name][1])
        return [(name, ok, detail) for name, (ok, detail) in merged.items()]

    @staticmethod
    def same_seed_identical(passes, key):
        """Passes run with the same seed must write the same output."""
        seen = {}
        for p in passes:
            seen.setdefault(p["seed"], set()).add(p[key])
        return all(len(v) == 1 for v in seen.values())


class TrainServe(_FrozenKb):
    """IPSO ``optimize`` at L=50, ``evaluate``, then one in-process
    ``predict --row=`` per held-out row over repeated passes."""

    def setup(self):
        super().setup()
        self.lines = self.kb_path.read_text(encoding="utf-8").splitlines()[1:]
        self.run_dir = self.work / "run"
        self.model_path = self.run_dir / "model.elm"
        self.saved_models = []

    def run_pass(self, probes, index):
        from tspred import elm
        if not self.saved_models:
            save = elm.save_model

            def capture(model, path):
                self.saved_models.append(model)
                return save(model, path)
            spans.rebind(save, capture)
        seed = self.pass_seed(index)
        split = self.split(seed)
        rows = [(int(i), self.lines[i]) for i in split.test]
        before = len(probes.optimizer_runs)
        t0 = time.perf_counter()
        code_opt, _ = call_cli([
            "optimize", "--kb", self.kb_path, "--out", self.run_dir,
            "--optimizer", "ipso", "--hidden", TRAIN_HIDDEN,
            "--population", POPULATION, "--iterations", TRAIN_ITERATIONS,
            "--target", "1.0", "--seed", seed])
        code_ev, _ = call_cli([
            "evaluate", "--kb", self.kb_path, "--model", self.model_path,
            "--out", self.run_dir, "--seed", seed])
        calls, answers, failed = [], [], 0
        for _ in range(PREDICT_PASSES):
            for idx, line in rows:
                t = time.perf_counter()
                code, out = call_cli(["predict", "--model", self.model_path,
                                      f"--row={line}"])
                calls.append((t, time.perf_counter()))
                failed += code != 0
                answers.append((idx, code, out))
        t1 = time.perf_counter()
        runs = probes.optimizer_runs[before:]
        result = {"t0": t0, "t1": t1, "seed": seed,
                  "exit": [code_opt, code_ev], "runs": runs,
                  "attempted": sum(r["evaluations"] for r in runs)
                  + len(answers), "failed": failed, "predict_calls": calls}
        if code_opt == 0 and code_ev == 0:
            result["digest"] = digest(self.model_path)
            self.pass_checks(result, split, answers,
                             (self.run_dir / "metrics.csv").read_text(
                                 encoding="utf-8"))
        return result

    def checks(self, passes, probes):
        checks = [("optimize and evaluate exit 0",
                   all(p["exit"] == [0, 0] for p in passes),
                   str([p["exit"] for p in passes]))]
        if not checks[0][1]:
            return checks
        checks += probes.optimizer_checks(
            [r for p in passes for r in p["runs"]])
        checks.append(("passes with the same seed write identical models",
                       self.same_seed_identical(passes, "digest"), ""))
        return checks + self.merge_checks(passes)

    def pass_checks(self, result, split, answers, metrics_csv):
        """Check one pass's split, saved model, metrics and answers; the
        checks and the test metrics go into `result`."""
        import numpy as np
        from tspred import elm
        checks = []
        train, test = set(split.train), set(split.test)
        train_rows = {self.kb.samples[i].tobytes() for i in train}
        shared = sum(self.kb.samples[i].tobytes() in train_rows for i in test)
        checks.append(("no training row in the test split",
                       not train & test and not shared
                       and len(train) + len(test) == self.kb.n_samples,
                       f"{len(train)} train / {len(test)} test, "
                       f"{shared} test rows equal a training row"))

        loaded = elm.load_model(self.model_path)
        in_memory = self.saved_models[-1]
        diff = float(np.max(np.abs(elm.predict_full(loaded, self.kb.samples)
                                   - elm.predict_full(in_memory,
                                                      self.kb.samples))))
        checks.append(("reloaded .elm scores as the in-memory model",
                       diff <= ORACLE_TOL, f"max |Δscore| {diff:.2e}"))

        test_rows = np.asarray(split.test)
        scores = elm.predict_full(loaded, self.kb.samples[test_rows])
        oracle = metric_oracle(scores, self.kb.labels[test_rows])
        rows = {}
        for line in metrics_csv.splitlines()[1:]:
            cells = line.split(",")
            rows[cells[0]] = cells
        reported = rows.get("test")
        ok = reported is not None
        if ok:
            acc, kap, auc, eta = (float(v) for v in reported[1:5])
            counts = tuple(int(v) for v in reported[5:9])
            ok = (counts == oracle["counts"]
                  and all(abs(a - b) <= ORACLE_TOL for a, b in zip(
                      (acc, kap, auc, eta),
                      (oracle["acc"], oracle["kap"], oracle["auc"],
                       oracle["eta"])))
                  and "train" in rows
                  and sum(int(v) for v in rows["train"][5:9]) == len(train))
            result["test_acc"], result["test_eta"] = acc, eta
        checks.append(("metrics.csv matches the pairwise-AUC and kappa "
                       "oracles on the held-out rows", bool(ok),
                       f"oracle {oracle['counts']}"))

        batch = dict(zip(split.test, scores))
        bad = 0
        for idx, code, out in answers:
            try:
                label_text, score_text = out.split()[:2]
                label = int(label_text)
                score = float(score_text.split("=", 1)[1])
            except (ValueError, IndexError):
                bad += 1
                continue
            want = 1 if batch[idx] >= 0.0 else -1
            bad += code != 0 or label != want \
                or abs(score - batch[idx]) > SCORE_TOL
        checks.append(("each predict label is the sign of the batch score",
                       bad == 0, f"{bad} mismatches"))
        result["checks"] = checks

    def metrics(self, passes, seconds):
        lat = []
        for p in passes:
            calls = p["predict_calls"]
            tail = (calls[0][0], calls[-1][1])
            lat += [seconds(t0, t1, speed_over=tail) * 1e3
                    for t0, t1 in calls]
        evals = evals_per_s(passes, seconds)
        return {"fitness_evals_per_s": (evals, "1/s"),
                "throughput_per_s": (evals, "1/s"),
                "predict_ms_p50": (statistics.median(lat), "ms"),
                "predict_ms_p99": (percentile(lat, 99), "ms"),
                "predict_calls": (len(lat), "count"),
                "cv_fitness": (passes[0]["runs"][-1]["best_fitness"],
                               "fraction"),
                "test_acc": (passes[0]["test_acc"], "fraction"),
                "test_eta": (passes[0]["test_eta"], "fraction")}


def metric_oracle(scores, labels):
    """Confusion counts, accuracy, kappa by hand, pairwise AUC, η."""
    import numpy as np
    pred = np.where(scores >= 0.0, 1, -1)
    tp = int(np.sum((labels == 1) & (pred == 1)))
    fn = int(np.sum((labels == 1) & (pred == -1)))
    fp = int(np.sum((labels == -1) & (pred == 1)))
    tn = int(np.sum((labels == -1) & (pred == -1)))
    n = tp + fn + fp + tn
    p_o = (tp + tn) / n
    p_e = ((tp + fn) * (tp + fp) + (tn + fp) * (tn + fn)) / n ** 2
    kap = (p_o - p_e) / (1.0 - p_e)
    pos, neg = scores[labels == 1], scores[labels == -1]
    wins = sum(float(np.sum(s > neg)) + 0.5 * float(np.sum(s == neg))
               for s in pos)
    auc = wins / (len(pos) * len(neg))
    return {"counts": (tp, fn, fp, tn), "acc": p_o, "kap": kap, "auc": auc,
            "eta": (p_o + kap + auc) / 3.0}


class Compare(_FrozenKb):
    """``compare`` of IPSO, PSO and GA at L=20 on the frozen KB."""

    def run_pass(self, probes, index):
        out = self.work / "compare.csv"
        seed = self.pass_seed(index)
        before = len(probes.optimizer_runs)
        t0 = time.perf_counter()
        code, _ = call_cli([
            "compare", "--kb", self.kb_path, "--out", out, "--repeats", "1",
            "--hidden", COMPARE_HIDDEN, "--population", POPULATION,
            "--iterations", COMPARE_ITERATIONS, "--target", "1.0",
            "--seed", seed])
        t1 = time.perf_counter()
        runs = probes.optimizer_runs[before:]
        result = {"t0": t0, "t1": t1, "seed": seed, "exit": code,
                  "runs": runs, "failed": 0,
                  "attempted": sum(r["evaluations"] for r in runs)}
        if code == 0:
            det = out.with_name(out.stem + "_deterministic.csv")
            result["det_csv"] = det.read_text(encoding="utf-8")
            table = {}
            for line in result["det_csv"].splitlines()[1:]:
                cells = line.split(",")
                table[cells[0]] = float(cells[1])
            result["checks"] = [
                ("one run each of ipso, pso, ga per pass",
                 sorted(r["name"] for r in runs) == ["ga", "ipso", "pso"],
                 ""),
                ("table best fitness matches the optimizers",
                 all(table.get(r["name"]) == r["best_fitness"]
                     for r in runs), str(table))]
        return result

    def checks(self, passes, probes):
        checks = [("compare exits 0", all(p["exit"] == 0 for p in passes),
                   str([p["exit"] for p in passes]))]
        if not checks[0][1]:
            return checks
        checks += probes.optimizer_checks(
            [r for p in passes for r in p["runs"]])
        checks.append(("passes with the same seed write identical tables",
                       self.same_seed_identical(passes, "det_csv"), ""))
        return checks + self.merge_checks(passes)

    def metrics(self, passes, seconds):
        evals = evals_per_s(passes, seconds)
        runs = passes[0]["runs"]
        return {"fitness_evals_per_s": (evals, "1/s"),
                "throughput_per_s": (evals, "1/s"),
                "cv_fitness": (statistics.fmean(r["best_fitness"]
                                                for r in runs), "fraction")}


WORKLOADS = {"generate-3m": Generate, "train-serve-3m": TrainServe,
             "compare-3m": Compare}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tracer, stats, in_eval, traced_pass):
    def s(name, key):
        return stats.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    steps = c.get("rk4.steps", 0)
    evals = s("swarm.evaluate_fitness", "calls")
    out = {
        "cli.main.calls": (s("cli.main", "calls"), "count"),
        "cli.main.self_s": (s("cli.main", "self_s"), "s"),
        "kernels.rk4_span.calls": (s("kernels.rk4_span", "calls"), "count"),
        "kernels.rk4_span.steps": (steps, "count"),
        "kernels.rk4_span.busy_s": (s("kernels.rk4_span", "busy_s"), "s"),
        "kernels.rk4_span.ns_per_step": (
            ratio(s("kernels.rk4_span", "busy_s") * 1e9, steps), "ns"),
        "kernels.rk4_span.flops_computed": (c.get("rk4.flops", 0), "flop"),
        "kernels.electrical_power.calls": (
            s("kernels.electrical_power", "calls"), "count"),
        "kernels.electrical_power.busy_s": (
            s("kernels.electrical_power", "busy_s"), "s"),
        "kernels.steps_after_verdict_frac": (
            ratio(c.get("verdict.steps_after", 0), c.get("verdict.steps", 0)),
            "ratio"),
        "simkit.solve_equilibrium.failed": (
            s("simkit.solve_equilibrium", "raised"), "count"),
        "simkit.solve_equilibrium.calls_per_level": (
            ratio(s("simkit.solve_equilibrium", "calls"),
                  len(tracer.levels)), "ratio"),
        "simkit.apply_load_level.fallbacks": (
            c.get("load_level.fallbacks", 0), "count"),
        "features.save_knowledge_base.bytes": (c.get("kb.bytes", 0), "B"),
        "elm.hidden_matrix.calls_per_eval": (ratio(in_eval, evals), "ratio"),
        "elm.pseudoinverse.flops_computed": (c.get("pinv.flops", 0), "flop"),
        "elm.active_column_frac": (
            ratio(c.get("pinv.active_columns", 0), c.get("pinv.columns", 0)),
            "ratio"),
        "swarm.evaluate_fitness.degenerate": (traced_pass["degenerate"],
                                              "count"),
        "swarm.mutations": (sum(r["mutations"]
                                for r in traced_pass.get("runs", ())),
                            "count"),
        "metrics.auc.calls": (s("metrics.auc", "calls"), "count"),
    }
    for name, keys in {
            "simkit.simulate_trajectory": ("calls", "busy_s", "self_s"),
            "simkit.solve_equilibrium": ("calls", "busy_s"),
            "features.extract_features": ("busy_s",),
            "features.label_trajectory": ("busy_s",),
            "features.save_knowledge_base": ("busy_s",),
            "features.load_knowledge_base": ("busy_s",),
            "features.standardize": ("busy_s",),
            "features.kfold_partition": ("busy_s",),
            "features.apply_standardization": ("calls", "busy_s"),
            "elm.train": ("calls", "busy_s", "self_s"),
            "elm.hidden_matrix": ("calls", "busy_s"),
            "elm.pseudoinverse": ("calls", "busy_s"),
            "elm.predict_label": ("busy_s",),
            "elm.load_model": ("calls", "busy_s"),
            "elm.predict_full": ("calls", "busy_s"),
            "swarm.evaluate_fitness": ("calls", "busy_s", "self_s"),
            "swarm.run_ipso": ("self_s",),
            "swarm.run_pso": ("self_s",),
            "swarm.run_ga": ("self_s",),
            "swarm.decode_particle": ("busy_s",),
            "metrics.auc": ("busy_s",)}.items():
        for key in keys:
            unit = "count" if key == "calls" else "s"
            out[f"{name}.{key}"] = (s(name, key), unit)
    return out


def import_times(tracer):
    stats, _, _ = spans.summarize(tracer, float("-inf"), float("inf"))
    return {f"{mod}.import_s": stats.get(f"{mod}.import", {}).get("busy_s",
                                                                   0.0)
            for mod in ("cli", "metrics", "simkit")}


def machine_facts():
    import numpy as np
    import scipy
    from tspred import kernels
    facts = {"nproc": os.cpu_count(),
             "cpus_allowed": len(os.sched_getaffinity(0)),
             "python": sys.version.split()[0],
             "numpy": np.__version__, "scipy": scipy.__version__,
             "numba_importable": importlib.util.find_spec("numba")
             is not None,
             "numba_enabled": bool(getattr(kernels, "NUMBA_ENABLED", False))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        facts[var] = os.environ.get(var)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), "unknown")
    except OSError:
        facts["cpu_model"] = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower()
                           and ".so" in ln.split()[-1]})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sampler = speed.SpeedSampler()
    sampler.start()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.ImportSpans(tracer).install()
    import tspred.cli  # noqa: F401  (imports every tspred module)
    workload = WORKLOADS[args.workload](Path(args.root), Path(args.work),
                                        args.seed)
    workload.setup()
    # from the parent's spawn, so interpreter start and the numpy import
    # count; the ticks from the sampler's start give the speed over it all
    setup = sampler.interval(args.spawned_at, time.perf_counter())
    record = {"setup": setup}
    if tracer is not None:
        record["imports"] = import_times(tracer)
    if args.setup_only:
        sampler.stop()
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
        return 0

    probes = Probes()

    def run_pass(index):
        degenerate = probes.degenerate
        result = workload.run_pass(probes, index)
        result["degenerate"] = probes.degenerate - degenerate
        return result

    passes = []
    t_start = time.perf_counter()
    while not passes or (tracer is None
                         and time.perf_counter() - t_start < args.seconds):
        passes.append(run_pass(len(passes)))
    if tracer is not None:
        missing = spans.instrument(tracer)
        # the untraced pass's inputs again, so its outputs must repeat
        passes.append(run_pass(0))
        traced = passes[-1]
        stats, in_eval, n_spans = spans.summarize(tracer, traced["t0"],
                                                  traced["t1"])
    sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def seconds(t0, t1, speed_over=None):
        """Reference seconds of [t0, t1], at the core speed sampled over
        `speed_over` (default: the interval itself)."""
        interval = sampler.interval(t0, t1)
        if speed_over is not None:
            sampled = sampler.interval(*speed_over)
            interval["inv"], interval["ticks"] = (sampled["inv"],
                                                  sampled["ticks"])
        return speed.corrected(interval)

    walls = [seconds(p["t0"], p["t1"]) for p in passes]
    if tracer is not None:
        layer = layer_metrics(tracer, stats, in_eval, traced)
        layer["trace.spans"] = (n_spans, "count")
        layer["trace.wall_s"] = (walls[-1], "s")
        layer["trace.overhead_est_frac"] = (
            n_spans * spans.span_cost_s() / (traced["t1"] - traced["t0"]),
            "ratio")
        record["per_layer"] = layer
        record["unmeasured"] = missing
        tracer.save(Path(args.out).with_suffix(".spans.npz"))

    checks = workload.checks(passes, probes)
    timed = passes[:1] if tracer is not None else passes
    e2e = {"wall_s": (statistics.median(walls[:len(timed)]), "s"),
           "raw_wall_s": (statistics.median(
               p["t1"] - p["t0"] for p in timed), "s"),
           "peak_rss_mb": (rss_mb, "MB")}
    if all(ok for _, ok, _ in checks):
        e2e.update(workload.metrics(timed, seconds))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] + p["degenerate"] for p in passes)
    e2e["failed_ops_frac"] = (failed / attempted if attempted else 1.0,
                              "ratio")
    facts = machine_facts()
    facts["reference_loop_median_us"] = speed.median(sampler.loop_s) * 1e6
    facts["reference_warmup_median_us"] = (speed.median(sampler.warmup_s)
                                           * 1e6)
    facts["speed_ticks"] = len(sampler.loop_s)
    facts["speed_tick_gap_max_ms"] = sampler.max_gap_s() * 1e3
    facts["pass_walls_s"] = [round(w, 3) for w in walls]
    record.update({
        "e2e": e2e,
        "attempted": attempted, "failed": failed,
        "checks": [[name, bool(ok), detail] for name, ok, detail in checks],
        "facts": facts})
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
