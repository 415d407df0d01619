"""End-to-end tests for the command-line pipeline."""

import ast
import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

import tspred
from tspred import cli, elm, features, kernels, metrics, swarm

FIXTURES = "fixtures"


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def kb_csv(tmp_path_factory):
    """SMIB knowledge base generated once for the module."""
    out = tmp_path_factory.mktemp("kb") / "smib_kb.csv"
    code = run(["generate", "--model", f"{FIXTURES}/smib.sys",
                "--grid", f"{FIXTURES}/smib.grid", "--out", str(out)])
    assert code == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(kb_csv, tmp_path_factory):
    """Model + trace from a small IPSO run on the SMIB knowledge base."""
    out_dir = tmp_path_factory.mktemp("opt")
    code = run(["optimize", "--kb", str(kb_csv), "--out", str(out_dir),
                "--optimizer", "ipso", "--seed", "5",
                "--hidden", "8", "--population", "8",
                "--iterations", "12", "--split-fraction", "0.7"])
    assert code == cli.EXIT_OK
    return out_dir


class TestGenerate:
    def test_writes_both_classes(self, kb_csv):
        # [DERIVED] the SMIB grid spans stable and unstable clearings
        kb = features.load_knowledge_base(
            kb_csv, kb_csv.with_suffix(".meta"))
        assert kb.n_samples == 66     # 6 clearings x 11 load levels
        assert np.any(kb.labels == features.STABLE)
        assert np.any(kb.labels == features.UNSTABLE)

    def test_rerun_byte_identical(self, kb_csv, tmp_path):
        out = tmp_path / "again.csv"
        assert run(["generate", "--model", f"{FIXTURES}/smib.sys",
                    "--grid", f"{FIXTURES}/smib.grid",
                    "--out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == kb_csv.read_bytes()
        assert out.with_suffix(".meta").read_bytes() == \
            kb_csv.with_suffix(".meta").read_bytes()

    def test_creates_output_directory(self, kb_csv, tmp_path):
        out = tmp_path / "new" / "dir" / "kb.csv"
        assert run(["generate", "--model", f"{FIXTURES}/smib.sys",
                    "--grid", f"{FIXTURES}/smib.grid",
                    "--out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == kb_csv.read_bytes()

    def test_empty_grid_usage_error(self, tmp_path):
        grid = tmp_path / "empty.grid"
        grid.write_text("faults =\nclearing_cycles =\nload_levels =\n"
                        "seed = 1\n")
        out = tmp_path / "kb.csv"
        assert run(["generate", "--model", f"{FIXTURES}/smib.sys",
                    "--grid", str(grid),
                    "--out", str(out)]) == cli.EXIT_USAGE

    def test_out_path_of_a_sidecar_refused(self, tmp_path, capsys):
        # the sidecar of kb.meta is kb.meta itself: it would overwrite the KB
        out = tmp_path / "kb.meta"
        assert run(["generate", "--model", f"{FIXTURES}/smib.sys",
                    "--grid", f"{FIXTURES}/smib.grid",
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert f"{out}: a knowledge base path ending in '.meta'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_usage_error(self, tmp_path):
        assert run(["generate", "--model", "nope.sys",
                    "--grid", f"{FIXTURES}/smib.grid",
                    "--out", str(tmp_path / "kb.csv")]) == cli.EXIT_USAGE

    def test_window_past_horizon_refused_before_integrating(
            self, tmp_path, monkeypatch, capsys):
        # a 10-cycle clearing needs the window to 0.3 s; the grid stops at
        # 0.2 s, which is known before the first step
        grid = tmp_path / "short.grid"
        grid.write_text(Path(FIXTURES, "smib.grid").read_text().replace(
            "horizon = 3.0", "horizon = 0.2"))
        steps = []
        rk4_step = kernels.rk4_step
        monkeypatch.setattr(kernels, "rk4_step",
                            lambda *args: steps.append(1) or rk4_step(*args))
        assert run(["generate", "--model", f"{FIXTURES}/smib.sys",
                    "--grid", str(grid),
                    "--out", str(tmp_path / "kb.csv")]) == cli.EXIT_USAGE
        assert "horizon 0.2 s, window ends 0.3 s (latest clearing 10 " \
            "cycles at f0 = 60 Hz)" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("old, new, field", [
        ("f0 60.0", "f0 nan", "f0"),
        ("gen 2.4 0.05", "gen nan 0.05", "inertia"),
        ("gen 2.4 0.05", "gen 2.4 nan", "damping"),
        ("0.25 1.05", "0.25 nan", "emf"),
        ("1.3680304606671134", "nan", "pm"),
        # both copies, so the postfault block still equals the prefault
        ("0.4 -2.2 0.0 1.0 0.0 0.7", "nan -2.2 0.0 1.0 0.0 0.7",
         "prefault matrix"),
        ("0.0 0.0 0.35 -2.3 0.0 0.8", "0.0 0.0 nan -2.3 0.0 0.8",
         "fault 'bus1' matrix"),
    ], ids=["f0", "H", "D", "E", "Pm", "prefault", "fault"])
    def test_non_finite_model_value_refused(self, tmp_path, capsys, old,
                                            new, field):
        text = Path(FIXTURES, "three_machine.sys").read_text()
        assert old in text
        model = tmp_path / "edited.sys"
        model.write_text(text.replace(old, new))
        assert run(["generate", "--model", str(model),
                    "--grid", f"{FIXTURES}/three_machine.grid",
                    "--out", str(tmp_path / "kb.csv")]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{model}: {field} must be finite" in err
        assert "Traceback" not in err


class TestOptimize:
    def test_outputs_exist(self, trained):
        assert (trained / "model.elm").exists()
        assert (trained / "trace.csv").exists()

    def test_prints_evaluation_and_mutation_counts(self, kb_csv, tmp_path,
                                                   capsys):
        out = tmp_path / "run"
        assert run(["optimize", "--kb", str(kb_csv), "--out", str(out),
                    "--optimizer", "ipso", "--seed", "5",
                    "--hidden", "6", "--population", "6",
                    "--iterations", "8", "--target", "1.0",
                    "--split-fraction", "0.7"]) == cli.EXIT_OK
        counts = re.search(r"\((\d+) evaluations, (\d+) mutations, [\d.]+s\)",
                           capsys.readouterr().out)
        rows = [ln.split(",") for ln in
                (out / "trace.csv").read_text().splitlines()[1:]]
        mutations = sum(row[4] == "1" for row in rows)
        assert int(counts[2]) == mutations
        assert int(counts[1]) == 6 * len(rows) + 5 * mutations

    def test_oversized_swarm_refused_before_allocating(self, kb_csv,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        # one particle of 10 million neurons over 94 features holds 7.2 GiB
        # of floats, and the swarm has 20; nothing may be built for them
        def unreachable(*args, **kwargs):
            raise AssertionError("fitness built for an oversized swarm")

        monkeypatch.setattr(swarm.FitnessContext, "build", unreachable)
        assert run(["optimize", "--kb", str(kb_csv), "--out",
                    str(tmp_path / "run"), "--hidden", "10000000"]) == \
            cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert ("population x particle length = 20 x 960,000,094 exceeds "
                "the 10,000,000-value swarm limit") in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("limit, code", [
        pytest.param(6 * 478, cli.EXIT_OK, id="at the limit"),
        pytest.param(6 * 478 - 1, cli.EXIT_USAGE, id="one over")])
    def test_swarm_limit_is_inclusive(self, kb_csv, tmp_path, monkeypatch,
                                      limit, code):
        # 4 neurons over 94 features: 4·94 + 4 + 94 + 4 = 478 per particle
        monkeypatch.setattr(swarm, "MAX_SWARM_VALUES", limit)
        assert run(["optimize", "--kb", str(kb_csv), "--out",
                    str(tmp_path / "run"), "--hidden", "4", "--population",
                    "6", "--iterations", "1"]) == code

    def test_missing_kb_usage_error(self, tmp_path):
        assert run(["optimize", "--kb", "missing.csv",
                    "--out", str(tmp_path)]) == cli.EXIT_USAGE

    def test_unknown_optimizer_rejected(self, kb_csv, tmp_path):
        with pytest.raises(SystemExit):
            run(["optimize", "--kb", str(kb_csv), "--out", str(tmp_path),
                 "--optimizer", "hillclimb"])

    def test_pso_ipso_trace_prefix(self, kb_csv, tmp_path):
        # [DERIVED] same seed: traces identical before any mutation
        traces = {}
        for name in ("pso", "ipso"):
            out = tmp_path / name
            assert run(["optimize", "--kb", str(kb_csv), "--out", str(out),
                        "--optimizer", name, "--seed", "5",
                        "--hidden", "6", "--population", "6",
                        "--iterations", "8",
                        "--split-fraction", "0.7"]) == cli.EXIT_OK
            traces[name] = (out / "trace.csv").read_text().splitlines()
        ipso_rows = [ln.split(",") for ln in traces["ipso"][1:]]
        mutated_at = next((i for i, row in enumerate(ipso_rows)
                           if row[4] == "1"), None)
        cut = len(ipso_rows) if mutated_at is None else mutated_at
        assert traces["pso"][1:cut + 1] == traces["ipso"][1:cut + 1]

    def test_deterministic_rerun(self, kb_csv, trained, tmp_path):
        out = tmp_path / "again"
        assert run(["optimize", "--kb", str(kb_csv), "--out", str(out),
                    "--optimizer", "ipso", "--seed", "5",
                    "--hidden", "8", "--population", "8",
                    "--iterations", "12",
                    "--split-fraction", "0.7"]) == cli.EXIT_OK
        assert (out / "model.elm").read_bytes() == \
            (trained / "model.elm").read_bytes()
        assert (out / "trace.csv").read_bytes() == \
            (trained / "trace.csv").read_bytes()

    def test_config_file_fills_flags(self, kb_csv, trained, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimizer = ipso\nseed = 5\nhidden = 8\n"
                       "population = 8\niterations = 12\n"
                       "split_fraction = 0.7\n")
        out = tmp_path / "from_cfg"
        assert run(["optimize", "--kb", str(kb_csv), "--out", str(out),
                    "--config", str(cfg)]) == cli.EXIT_OK
        assert (out / "model.elm").read_bytes() == \
            (trained / "model.elm").read_bytes()

    def test_flag_beats_config_key(self, kb_csv, trained, tmp_path):
        # keys take either spelling of the flag name; --seed 5 on the
        # command line beats seed = 9 in the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nhidden = 8\npopulation = 8\n"
                       "iterations = 12\nsplit-fraction = 0.7\n")
        out = tmp_path / "from_cfg"
        assert run(["optimize", "--kb", str(kb_csv), "--out", str(out),
                    "--config", str(cfg), "--seed", "5"]) == cli.EXIT_OK
        assert (out / "model.elm").read_bytes() == \
            (trained / "model.elm").read_bytes()

    @pytest.mark.parametrize("line", ["iterashuns = 3", "seed = abc",
                                      "hidden = 2.5", "config = other.cfg"])
    def test_config_line_refused_as_flag_would_be(self, kb_csv, tmp_path,
                                                   line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"hidden = 4\npopulation = 4\niterations = 1\n"
                       f"{line}\n")
        (tmp_path / "other.cfg").write_text("seed = 3\n")
        with pytest.raises(SystemExit) as exc:
            run(["optimize", "--kb", str(kb_csv), "--out", str(tmp_path),
                 "--config", str(cfg)])
        assert exc.value.code == cli.EXIT_USAGE

    def test_missing_config_file_usage_error(self, kb_csv, tmp_path,
                                             capsys):
        missing = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as exc:
            run(["optimize", "--kb", str(kb_csv), "--out", str(tmp_path),
                 "--config", str(missing)])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, code", [
        ("--hidden", "0", cli.EXIT_USAGE),
        ("--split-fraction", "0", cli.EXIT_USAGE),
        ("--split-fraction", "1.5", cli.EXIT_USAGE),
        ("--iterations", "-1", cli.EXIT_USAGE),
        ("--population", "1", cli.EXIT_USAGE),
        ("--target", "2", cli.EXIT_USAGE),
    ])
    def test_out_of_range_value_refused(self, kb_csv, tmp_path, flag, value,
                                        code):
        out = tmp_path / "run"
        argv = ["optimize", "--kb", str(kb_csv), "--out", str(out),
                "--hidden", "4", "--population", "4", "--iterations", "1"]
        assert run(argv + [flag, value]) == code
        assert not out.exists()


class TestEvaluate:
    def test_reports_written_and_consistent(self, kb_csv, trained,
                                            tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--kb", str(kb_csv),
                    "--model", str(trained / "model.elm"),
                    "--out", str(out), "--seed", "5",
                    "--split-fraction", "0.7"]) == cli.EXIT_OK
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("model,acc,kap,auc,eta")
        for ln in lines[1:]:
            f = ln.split(",")
            if f[3]:   # eta = mean(acc, kap, auc) when AUC defined
                assert float(f[4]) == pytest.approx(
                    (float(f[1]) + float(f[2]) + float(f[3])) / 3.0,
                    abs=1e-12)
        assert "seed 5" in (out / "report.txt").read_text()

    def test_deterministic_csv(self, kb_csv, trained, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["evaluate", "--kb", str(kb_csv),
                        "--model", str(trained / "model.elm"),
                        "--out", str(out), "--seed", "5",
                        "--split-fraction", "0.7"]) == cli.EXIT_OK
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_frozen_metrics_and_report_bytes(self, kb_csv, tmp_path, capsys):
        # score = feature 92 + 0.5 exactly (one linear neuron on raw
        # values), so the counts and ranks, and with them every figure,
        # do not move with BLAS; feature 92 takes 11 values, so scores tie
        n = 94
        model = tmp_path / "model.elm"
        elm.save_model(elm.ElmModel(
            input_weights=np.ones((1, 1)), biases=np.array([0.5]),
            activations=np.array([elm.ACT_LINEAR]), output_weights=np.ones(1),
            feature_mask=np.arange(n) == 92, means=np.zeros(n),
            stds=np.ones(n)), model)
        out = tmp_path / "eval"
        assert run(["evaluate", "--kb", str(kb_csv), "--model", str(model),
                    "--out", str(out), "--seed", "7"]) == cli.EXIT_OK
        assert (out / "metrics.csv").read_bytes() == (
            b"model,acc,kap,auc,eta,tp,fn,fp,tn,note\r\n"
            b"test,0.6363636363636364,0.33834586466165406,0.8058823529411765,"
            b"0.5935306179888223,9,8,0,5,\r\n"
            b"train,0.6818181818181818,0.37777777777777766,0.859504132231405,"
            b"0.6397000306091215,20,13,1,10,\r\n")
        report = (out / "report.txt").read_text()
        assert capsys.readouterr().out == report
        timing = report.splitlines()[-1]
        assert re.fullmatch(r"prediction time: \d+\.\d{3} ms "
                            r"\(22 test samples\)", timing)
        assert report[:-len(timing) - 1] == (
            "seed 7\n"
            "model  Acc/%  Kap    AUC    eta\n"
            "test   63.64  0.338  0.806  0.594\n"
            "train  68.18  0.378  0.860  0.640\n")

    def test_no_standardization_leakage(self, kb_csv, trained, tmp_path):
        # corrupting test rows must not change training statistics
        kb = features.load_knowledge_base(
            kb_csv, kb_csv.with_suffix(".meta"))
        split = features.split_train_test(kb, 0.7, 5)
        corrupted = kb.samples.copy()
        corrupted[split.test] *= 100.0
        _, means1, stds1 = features.standardize(kb.samples, split.train)
        _, means2, stds2 = features.standardize(corrupted, split.train)
        assert np.array_equal(means1, means2)
        assert np.array_equal(stds1, stds2)

    def test_model_of_another_width_refused(self, kb_csv, tmp_path, capsys):
        # a model of the three-machine width (132) on the SMIB KB (94):
        # exit 1, naming both files, before any row is scored
        model = tmp_path / "model3.elm"
        _write_model(model, 132)
        out = tmp_path / "eval"
        assert run(["evaluate", "--kb", str(kb_csv), "--model", str(model),
                    "--out", str(out)]) == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"runtime error: {kb_csv}: 94 features, the model {model} "
                "expects 132\n") == captured.err
        assert not (out / "metrics.csv").exists()


def test_kb_path_of_a_sidecar_refused(kb_csv, tmp_path, capsys):
    assert run(["optimize", "--kb", str(kb_csv.with_suffix(".meta")),
                "--out", str(tmp_path / "run")]) == cli.EXIT_USAGE
    assert "a knowledge base path ending in '.meta'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "optimize", "evaluate",
                                     "compare"])
def test_negative_seed_flag_refused(command, tmp_path, capsys):
    # refused by the grammar, before any input is read
    with pytest.raises(SystemExit) as exc:
        run([command, "--seed", "-5", "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_USAGE
    assert "argument --seed: invalid seed value: '-5'" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--hidden"), ("evaluate", "--population"),
    ("evaluate", "--iterations"), ("evaluate", "--target"),
    ("predict", "--seed"),
])
def test_flag_the_handler_never_reads_refused(kb_csv, trained, tmp_path,
                                              command, flag):
    model = str(trained / "model.elm")
    argv = {"evaluate": ["evaluate", "--kb", str(kb_csv), "--model", model,
                         "--out", str(tmp_path)],
            "predict": ["predict", "--model", model,
                        "--row", kb_csv.read_text().splitlines()[1]]}
    with pytest.raises(SystemExit) as exc:
        run(argv[command] + [flag, "1"])
    assert exc.value.code == cli.EXIT_USAGE


class TestCompare:
    def test_single_repeat(self, kb_csv, tmp_path):
        out = tmp_path / "compare.csv"
        assert run(["compare", "--kb", str(kb_csv), "--out", str(out),
                    "--seed", "5", "--repeats", "1",
                    "--hidden", "5", "--population", "5",
                    "--iterations", "4",
                    "--split-fraction", "0.7"]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ("algorithm,mean_train_time_s,mean_best_fitness,"
                            "success_rate,mean_effective_nodes")
        assert {ln.split(",")[0] for ln in lines[1:]} == \
            {"ipso", "pso", "ga"}
        for ln in lines[1:]:
            # [TRIVIAL] one repeat: success rate is 0 or 1
            assert float(ln.split(",")[3]) in (0.0, 1.0)

    def test_deterministic_variant(self, kb_csv, tmp_path):
        dets = []
        for name in ("x", "y"):
            out = tmp_path / f"{name}.csv"
            assert run(["compare", "--kb", str(kb_csv), "--out", str(out),
                        "--seed", "5", "--repeats", "1",
                        "--hidden", "5", "--population", "5",
                        "--iterations", "4",
                        "--split-fraction", "0.7"]) == cli.EXIT_OK
            det = out.with_name(out.stem + "_deterministic.csv")
            dets.append(det.read_bytes())
        assert dets[0] == dets[1]

    def test_bad_repeats_usage_error(self, kb_csv, tmp_path):
        assert run(["compare", "--kb", str(kb_csv),
                    "--out", str(tmp_path / "c.csv"), "--repeats", "0",
                    "--split-fraction", "0.7"]) == cli.EXIT_USAGE

    def test_bad_hidden_refused_before_any_context(self, kb_csv, tmp_path,
                                                   monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("fitness context built")

        monkeypatch.setattr(swarm.FitnessContext, "build", build)
        assert run(["compare", "--kb", str(kb_csv),
                    "--out", str(tmp_path / "c.csv"), "--hidden", "0",
                    "--split-fraction", "0.7"]) == cli.EXIT_USAGE

    def test_shared_fitness_matches_standalone_runs(
            self, three_machine_kb, tmp_path, monkeypatch):
        # IPSO, PSO and GA of a repeat share one fitness; each run must
        # equal the same optimizer on the context alone
        kb_path = tmp_path / "kb3.csv"
        features.save_knowledge_base(three_machine_kb, kb_path,
                                     kb_path.with_suffix(".meta"))
        kb = features.load_knowledge_base(kb_path,
                                          kb_path.with_suffix(".meta"))
        shared_runs, calls = [], []
        for name, optimize in list(swarm.OPTIMIZERS.items()):
            def recorded(fitness, dim, config, name=name, optimize=optimize):
                shared_runs.append((name, config.seed,
                                    optimize(fitness, dim, config)))
                return shared_runs[-1][2]
            monkeypatch.setitem(swarm.OPTIMIZERS, name, recorded)
        evaluate = swarm.evaluate_fitness

        def counted(position, ctx):
            calls.append(1)
            return evaluate(position, ctx)

        monkeypatch.setattr(swarm, "evaluate_fitness", counted)
        assert run(["compare", "--kb", str(kb_path),
                    "--out", str(tmp_path / "cmp" / "compare.csv"),
                    "--hidden", "20", "--iterations", "3", "--target", "1.0",
                    "--repeats", "2", "--seed", "7"]) == cli.EXIT_OK
        monkeypatch.undo()
        assert sorted((n, s) for n, s, _ in shared_runs) == [
            (n, s) for n in ("ga", "ipso", "pso") for s in (7, 8)]
        split = features.split_train_test(kb, cli.DEFAULT_SPLIT_FRACTION, 7)
        z, _, _ = features.standardize(kb.samples, split.train)
        spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=20)
        for name, seed, shared in shared_runs:
            ctx = swarm.FitnessContext.build(
                z[split.train], kb.labels[split.train], spec, seed=seed)
            config = swarm.SwarmConfig(max_iterations=3, fitness_target=1.0,
                                       seed=seed)
            alone = swarm.OPTIMIZERS[name](ctx, spec.dim, config)
            assert shared.best_fitness == alone.best_fitness
            assert shared.trace == alone.trace
            assert shared.evaluations == alone.evaluations
        # IPSO made no rescue, so PSO took its run without a fitness call
        evals = {n: 0 for n in swarm.OPTIMIZERS}
        for name, _, result in shared_runs:
            evals[name] += result.evaluations
            assert name != "ipso" or not any(r.mutated for r in result.trace)
        assert len(calls) == evals["ipso"] + evals["ga"]

    def test_stdout_says_pso_took_ipsos_run(self, three_machine_kb, tmp_path,
                                            capsys):
        # the CI smoke run on the three-machine fixture KB
        kb_path = tmp_path / "kb3.csv"
        features.save_knowledge_base(three_machine_kb, kb_path,
                                     kb_path.with_suffix(".meta"))
        assert run(["compare", "--kb", str(kb_path),
                    "--out", str(tmp_path / "cmp" / "compare.csv"),
                    "--hidden", "20", "--iterations", "3", "--target", "1.0",
                    "--repeats", "2", "--seed", "7"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            "pso took ipso's rescue-free run in 2 of 2 repeats")

    @pytest.mark.parametrize("rescue, pso_s", [(False, "2.000"),
                                                (True, "0.250")],
                             ids=["pso took ipso's run", "ipso rescued"])
    def test_pso_charged_ipsos_time_for_the_run_it_took(
            self, kb_csv, tmp_path, capsys, monkeypatch, rescue, pso_s):
        # a fake clock, read only around each optimizer: the repeats' ipso,
        # pso and ga runs take 1.5, 0.25 and 4 s, then 2.5, 0.25 and 3 s
        ticks = iter([0.0, 1.5, 1.5, 1.75, 1.75, 5.75,
                      5.75, 8.25, 8.25, 8.5, 8.5, 11.5])
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        if rescue:
            monkeypatch.setattr(swarm, "premature_check", lambda *args: True)
        out = tmp_path / "compare.csv"
        assert run(["compare", "--kb", str(kb_csv), "--out", str(out),
                    "--seed", "5", "--repeats", "2", "--hidden", "5",
                    "--population", "5", "--iterations", "2",
                    "--split-fraction", "0.7"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            f"pso took ipso's rescue-free run in {0 if rescue else 2} of 2 ")
        times = dict(line.split(",")[:2]
                     for line in out.read_text().splitlines()[1:])
        assert times == {"ipso": "2.000", "pso": pso_s, "ga": "3.500"}

    def test_stdout_names_the_repeats_ipso_rescued(self, kb_csv, tmp_path,
                                                  capsys, monkeypatch):
        # a rescue in every iteration: PSO runs on its own in each repeat
        monkeypatch.setattr(swarm, "premature_check", lambda *args: True)
        assert run(["compare", "--kb", str(kb_csv),
                    "--out", str(tmp_path / "compare.csv"),
                    "--seed", "5", "--repeats", "2", "--hidden", "5",
                    "--population", "5", "--iterations", "2",
                    "--split-fraction", "0.7"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            "pso took ipso's rescue-free run in 0 of 2 repeats; "
            "ipso rescued in repeat 1 (seed 5), 2 (seed 6)")


class TestPredict:
    def test_self_consistency_with_kb(self, kb_csv, trained, capsys):
        # [DERIVED] predicting KB rows reproduces stored labels on rows
        # the model classifies correctly in evaluate; here just check the
        # protocol: ±1 printed, score parseable, latency reported.
        kb_lines = kb_csv.read_text().splitlines()
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--row", kb_lines[1]]) == cli.EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith(("+1", "-1"))
        assert "score=" in line and "latency_ms=" in line

    def test_unstable_row_passed_with_equals(self, kb_csv, trained, capsys):
        # an unstable KB row starts with "-1", which argparse reads as an
        # option after a separate --row; --row=<row> keeps it a value
        row = next(ln for ln in kb_csv.read_text().splitlines()[1:]
                   if ln.startswith("-1"))
        assert run(["predict", "--model", str(trained / "model.elm"),
                    f"--row={row}"]) == cli.EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith(("+1", "-1")) and "score=" in line

    def test_unstable_row_passed_after_separate_flag(self, kb_csv, trained,
                                                     capsys):
        # `--row "<row>"` binds a row that starts with "-1" as well
        row = next(ln for ln in kb_csv.read_text().splitlines()[1:]
                   if ln.startswith("-1"))
        model = str(trained / "model.elm")
        assert run(["predict", "--model", model, f"--row={row}"]) == \
            cli.EXIT_OK
        joined = capsys.readouterr().out
        assert run(["predict", "--model", model, "--row", row]) == \
            cli.EXIT_OK
        separate = capsys.readouterr().out
        assert separate.split()[:2] == joined.split()[:2]

    def test_config_row_scored_and_flag_row_wins(self, kb_csv, trained,
                                                 tmp_path, capsys):
        rows = kb_csv.read_text().splitlines()[1:]
        stable = next(r for r in rows if r.startswith("+1"))
        unstable = next(r for r in rows if r.startswith("-1"))
        model = str(trained / "model.elm")
        scores = {}
        for row in (stable, unstable):
            assert run(["predict", "--model", model, "--row", row]) == \
                cli.EXIT_OK
            scores[row] = capsys.readouterr().out.split()[1]
        assert scores[stable] != scores[unstable]
        cfg = tmp_path / "predict.cfg"
        cfg.write_text(f"model = {model}\nrow = {unstable}\n")
        assert run(["predict", "--config", str(cfg)]) == cli.EXIT_OK
        assert capsys.readouterr().out.split()[1] == scores[unstable]
        assert run(["predict", "--config", str(cfg), "--row", stable]) == \
            cli.EXIT_OK
        assert capsys.readouterr().out.split()[1] == scores[stable]

    def test_repeated_calls_share_no_arguments(self, kb_csv, trained,
                                               tmp_path, monkeypatch,
                                               capsys):
        # one process, one parser: each call sees only its own flags and
        # the config file it names
        seen = []
        for name in ("predict", "optimize"):
            def record(args, command=cli.COMMANDS[name]):
                code = command(args)
                seen.append(dict(vars(args)))
                return code
            monkeypatch.setitem(cli.COMMANDS, name, record)
        model = str(trained / "model.elm")
        row = kb_csv.read_text().splitlines()[1]
        config = tmp_path / "opt.cfg"
        config.write_text(f"kb = {kb_csv}\nout = {tmp_path / 'a'}\n"
                          "seed = 9\nsplit_fraction = 0.7\nhidden = 4\n"
                          "population = 4\niterations = 2\n")
        kb_seed = features.load_knowledge_base(
            kb_csv, kb_csv.with_suffix(".meta")).seed
        assert kb_seed != 9
        calls = [
            ["predict", "--model", model, "--row", row],
            ["predict", "--model", model, "--input", str(kb_csv)],
            ["optimize", "--config", str(config)],
            ["optimize", "--kb", str(kb_csv), "--out", str(tmp_path / "b"),
             "--hidden", "3", "--population", "4", "--iterations", "1"],
        ]
        outputs = []
        for argv in calls:
            assert run(argv) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out.splitlines())
        assert seen[0]["row"] == row and seen[0]["input"] is None
        assert seen[1]["row"] is None and seen[1]["input"] == str(kb_csv)
        assert len(outputs[0]) == 1 and len(outputs[1]) == 66
        assert (seen[2]["seed"], seen[2]["hidden"], seen[2]["iterations"],
                seen[2]["split_fraction"]) == (9, 4, 2, 0.7)
        assert outputs[2][0] == "seed 9"
        assert seen[3]["config"] is None and seen[3]["seed"] is None
        assert (seen[3]["split_fraction"] == cli.DEFAULT_SPLIT_FRACTION
                and seen[3]["hidden"] == 3)
        assert outputs[3][0] == f"seed {kb_seed}"

    def test_predict_matches_training_labels(self, kb_csv, trained,
                                             capsys):
        # predictions on all rows agree with evaluate-level accuracy:
        # the stored label column must be tolerated and ignored
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--input", str(kb_csv)]) == cli.EXIT_OK
        out_lines = capsys.readouterr().out.strip().splitlines()
        kb = features.load_knowledge_base(
            kb_csv, kb_csv.with_suffix(".meta"))
        assert len(out_lines) == kb.n_samples
        predicted = np.array([int(ln.split()[0]) for ln in out_lines])
        agreement = float(np.mean(predicted == kb.labels))
        assert agreement >= 0.8   # trained model, full-set sanity floor

    def test_malformed_row_usage_error(self, trained):
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--row", "not,a,number"]) == cli.EXIT_USAGE

    def test_dimension_mismatch_usage_error(self, trained):
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--row", "1.0,2.0"]) == cli.EXIT_USAGE

    def test_model_without_mask_runtime_error(self, kb_csv, trained,
                                              tmp_path, capsys):
        with np.load(trained / "model.elm") as npz:
            arrays = dict(npz)
        bare = tmp_path / "bare.elm"
        _write_model(bare, 0, **{**arrays, "feature_mask": None})
        row = kb_csv.read_text().splitlines()[1]
        assert run(["predict", "--model", str(bare),
                    f"--row={row}"]) == cli.EXIT_RUNTIME
        assert "no feature_mask array" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_row_usage_error(self, kb_csv, trained, tmp_path,
                                        capsys, bad):
        good = kb_csv.read_text().splitlines()[1]
        values = good.split(",")
        values[3] = bad
        row = ",".join(values)
        model = str(trained / "model.elm")
        assert run(["predict", "--model", model,
                    f"--row={row}"]) == cli.EXIT_USAGE
        assert "--row line 1: the row holds a non-finite value" in \
            capsys.readouterr().err
        rows = tmp_path / "rows.csv"
        rows.write_text(good + "\n" + row + "\n")
        assert run(["predict", "--model", model,
                    "--input", str(rows)]) == cli.EXIT_USAGE
        assert f"{rows} line 2: the row holds a non-finite value" in \
            capsys.readouterr().err

    def test_refused_row_prints_no_prediction(self, kb_csv, trained,
                                              tmp_path, capsys):
        # every row is checked before the first prediction is printed
        good = kb_csv.read_text().splitlines()[1]
        values = good.split(",")
        values[3] = "nan"
        rows = tmp_path / "rows.csv"
        rows.write_text(good + "\n" + ",".join(values) + "\n")
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--input", str(rows)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{rows} line 2: " in captured.err

    def test_model_with_bad_mask_runtime_error(self, kb_csv, trained,
                                               tmp_path, capsys):
        with np.load(trained / "model.elm") as npz:
            arrays = dict(npz)
        bad = tmp_path / "bad.elm"
        _write_model(bad, 0, **{**arrays, "feature_mask": np.ones_like(
            arrays["feature_mask"])})
        row = kb_csv.read_text().splitlines()[1]
        assert run(["predict", "--model", str(bad),
                    f"--row={row}"]) == cli.EXIT_RUNTIME
        assert "mask bits set" in capsys.readouterr().err

    def test_missing_input_usage_error(self, trained):
        assert run(["predict",
                    "--model", str(trained / "model.elm")]) == \
            cli.EXIT_USAGE

    @pytest.mark.parametrize("text", ["", "\n\n", "label,f_0,f_1\n"],
                             ids=["empty", "blank lines", "header only"])
    def test_input_without_rows_usage_error(self, trained, tmp_path, capsys,
                                            text):
        rows = tmp_path / "rows.csv"
        rows.write_text(text)
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--input", str(rows)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{rows}: no samples" in captured.err

    def test_mixed_width_input_usage_error(self, kb_csv, trained, tmp_path,
                                           capsys):
        # a row with the label column and one without: one file, one width
        header, first, second = kb_csv.read_text().splitlines()[:3]
        rows = tmp_path / "rows.csv"
        rows.write_text("\n".join([header, first, second.split(",", 1)[1]]))
        assert run(["predict", "--model", str(trained / "model.elm"),
                    "--input", str(rows)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{rows} line 3: the number of columns changed from 95 to 94"
                in captured.err)

    def test_row_and_input_conflict(self, kb_csv, trained, capsys):
        # --row would otherwise silently win over the file
        row = kb_csv.read_text().splitlines()[1]
        with pytest.raises(SystemExit) as exc:
            run(["predict", "--model", str(trained / "model.elm"),
                 f"--row={row}", "--input", str(kb_csv)])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


def _write_model(path, n, **arrays):
    """Write a model archive of one sigmoid neuron of weight 1 on the first
    of `n` features, with zero means and unit stds; `arrays` replace arrays
    by name, and None drops one."""
    model = {"input_weights": np.ones((1, 1)), "biases": np.zeros(1),
             "activations": np.ones(1, dtype=int),
             "output_weights": np.ones(1), "feature_mask": np.arange(n) == 0,
             "means": np.zeros(n), "stds": np.ones(n), **arrays}
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in model.items() if v is not None})


def _write_huge_kb(kb_csv, kb):
    """Copy the KB to `kb` with every cell but the label of its lines 3-40
    set to 1e300: finite, but past what a square or a sum of squares
    holds."""
    lines = kb_csv.read_text().splitlines(keepends=True)
    n = lines[0].count(",")
    for i in range(2, 40):
        lines[i] = lines[i].split(",", 1)[0] + ",1e300" * n + "\n"
    kb.write_text("".join(lines))
    shutil.copy(kb_csv.with_suffix(".meta"), kb.with_suffix(".meta"))


def _write_malformed(case, kb_csv, tmp_path):
    """Write the input of one malformed case; returns the argv to run.
    A "\udcff" in the text is written as the byte 0xff, which is not
    UTF-8."""
    kb = tmp_path / "kb.csv"
    if case.startswith("meta"):
        shutil.copy(kb_csv, kb)
        meta = kb_csv.with_suffix(".meta").read_text()
        if case in ("meta seed x", "meta seed empty", "meta seed negative"):
            meta = re.sub(r"^seed .*$", {"meta seed x": "seed x",
                                         "meta seed empty": "seed",
                                         "meta seed negative": "seed -5"}[case],
                          meta, flags=re.M)
        else:
            meta += {
                "meta seed repeated": "seed 99\n",
                "meta provenance repeated": "provenance elsewhere\n",
                "meta utf-8": "# \udcff\n"}[case]
        kb.with_suffix(".meta").write_text(meta, errors="surrogateescape")
        return ["optimize", "--kb", str(kb), "--out", str(tmp_path / "run"),
                "--hidden", "4", "--population", "4", "--iterations", "1"]
    if case.startswith("kb"):
        lines = kb_csv.read_text().splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")      # the second sample
        if case == "kb blank line":
            lines.insert(3, "\n")
        elif case == "kb header only":
            lines = lines[:1]
        elif case == "kb ragged row":
            lines[2] = ",".join(cells + ["0.5"]) + "\n"
        elif case == "kb narrow rows":      # each row's last cell cut
            lines[1:] = [ln.rsplit(",", 1)[0] + "\n" for ln in lines[1:]]
        else:
            col, value = {"kb nan cell": (-1, "nan"),
                          "kb text cell": (5, "abc"),
                          "kb 1_0 cell": (5, "1_0"),
                          "kb fractional label": (0, "1.5"),
                          "kb utf-8": (5, "\udcff")}[case]
            cells[col] = value
            lines[2] = ",".join(cells) + "\n"
        kb.write_text("".join(lines), errors="surrogateescape")
        shutil.copy(kb_csv.with_suffix(".meta"), kb.with_suffix(".meta"))
        return ["optimize", "--kb", str(kb), "--out", str(tmp_path / "run"),
                "--hidden", "4", "--population", "4", "--iterations", "1"]
    if case.startswith(("elm", "predict")) and not case.startswith("elm no"):
        model = tmp_path / "model.elm"
        _write_model(model, 2, **{
            "elm nan mean": {"means": np.array([np.nan, 0.0])},
            "elm corrupt member": {"means": np.array([0.25, -0.5])},
            "elm activation code 3": {"activations": np.array([3])},
            "elm float activations": {"activations": np.ones(1)},
            "elm int mask": {"feature_mask": np.array([1, 2])},
            "elm negative std": {"stds": np.array([-1.0, 1.0])},
            "elm all neurons off": {"activations": np.zeros(1, dtype=int)},
            "elm empty mask": {"input_weights": np.ones((1, 0)),
                               "feature_mask": np.zeros(2, dtype=bool)},
            "elm extra array": {"hidden": np.array(1)},
            "elm object array": {"means": np.zeros(2, dtype=object)},
        }.get(case, {}))
        data = model.read_bytes()
        if case == "elm text model":    # the format of earlier versions
            model.write_text("hidden 1\ninput_dim 1\nbiases 0.0\n"
                             "activations 1\nbeta 1.0\nw 1.0\nmask 1 0\n"
                             "means 0.0 0.0\nstds 1.0 1.0\n")
        elif case == "elm truncated":
            model.write_bytes(data[:200])
        elif case == "elm corrupt member":
            at = data.index(np.array([0.25, -0.5]).tobytes())
            model.write_bytes(data[:at] + bytes([data[at] ^ 1])
                              + data[at + 1:])
        elif case == "elm repeated beta":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # "Duplicate name"
                with zipfile.ZipFile(model, "a") as zf, \
                        zf.open("output_weights.npy", "w") as member:
                    np.lib.format.write_array(member, np.full(1, 2.0))
        if case == "predict input utf-8":
            rows = tmp_path / "rows.csv"
            rows.write_text("1.0,2.0\n1.0,\udcff2.0\n",
                            errors="surrogateescape")
            return ["predict", "--model", str(model), "--input", str(rows)]
        if case == "predict input label 5.0":
            rows = tmp_path / "rows.csv"
            rows.write_text("+1,1.0,2.0\n5.0,1.0,2.0\n")
            return ["predict", "--model", str(model), "--input", str(rows)]
        if case == "predict row label 5.0":
            return ["predict", "--model", str(model), "--row=5.0,1.0,2.0"]
        if case == "predict empty row":
            return ["predict", "--model", str(model), "--row", ""]
        return ["predict", "--model", str(model), "--row=1.0,2.0"]
    if case.startswith("elm no"):
        # one linear neuron on the first of the KB's features
        n = kb_csv.read_text().split("\n", 1)[0].count(",")
        model = tmp_path / "model.elm"
        _write_model(model, n, activations=np.array([2]), stds=None,
                     **({"means": None} if case == "elm no standardization"
                        else {}))
        return ["evaluate", "--kb", str(kb_csv), "--model", str(model),
                "--out", str(tmp_path / "run")]
    if case.startswith("score"):
        # one linear neuron on the first of the KB's features, whose weight
        # takes a 1e300 cell past the largest float
        n = kb_csv.read_text().split("\n", 1)[0].count(",")
        model = tmp_path / "model.elm"
        _write_model(model, n, activations=np.array([2]),
                     input_weights=np.array([[1e10]]))
        huge = ",".join(["1e300"] * n)
        if case == "score not finite in predict":
            return ["predict", "--model", str(model), f"--row={huge}"]
        _write_huge_kb(kb_csv, kb)
        return ["evaluate", "--kb", str(kb), "--model", str(model),
                "--out", str(tmp_path / "run")]
    if case.startswith(("huge", "single class")):
        if case.startswith("huge"):
            _write_huge_kb(kb_csv, kb)
        else:   # every label +1
            kb.write_text(re.sub(r"^-1,", "+1,", kb_csv.read_text(),
                                 flags=re.M))
            shutil.copy(kb_csv.with_suffix(".meta"), kb.with_suffix(".meta"))
        argv = [case.split()[-1], "--kb", str(kb), "--out",
                str(tmp_path / "run")]
        if case.endswith("evaluate"):
            model = tmp_path / "model.elm"
            n = kb_csv.read_text().split("\n", 1)[0].count(",")
            _write_model(model, n)
            return argv + ["--model", str(model)]
        return argv + ["--hidden", "4", "--population", "4",
                       "--iterations", "1"]
    if case.startswith("split fraction"):
        # on the 66-row KB, 0.999 leaves no row to test, and 0.05 leaves 3
        # rows to train on, fewer than the 5 CV folds
        _, _, fraction, _, command = case.split()
        argv = [command, "--kb", str(kb_csv), "--out", str(tmp_path / "run"),
                "--split-fraction", fraction]
        if command == "evaluate":
            model = tmp_path / "model.elm"
            n = kb_csv.read_text().split("\n", 1)[0].count(",")
            _write_model(model, n)
            return argv + ["--model", str(model)]
        return argv + ["--hidden", "4", "--population", "4"]
    if case.startswith("out"):
        # `--out` names the file `taken`, or a path under it, or one of the
        # files the command writes is the directory `made`
        taken = tmp_path / "taken"
        taken.write_text("")
        command, where = case.split()[1], case.split(" ", 2)[2]
        out, made = {
            "names a file": (taken, None),
            "under a file": (taken / "sub" / "x", None),
            "names a directory": (tmp_path, None),
            "sidecar names a directory": (tmp_path / "run.csv", "run.meta"),
            "trace names a directory": (tmp_path / "run", "run/trace.csv"),
            "report names a directory": (tmp_path / "run", "run/report.txt"),
            "deterministic names a directory": (
                tmp_path / "run.csv", "run_deterministic.csv")}[where]
        if made:
            (tmp_path / made).mkdir(parents=True)
        if command == "generate":
            return ["generate", "--model", f"{FIXTURES}/smib.sys", "--grid",
                    f"{FIXTURES}/smib.grid", "--out", str(out)]
        argv = [command, "--kb", str(kb_csv), "--out", str(out)]
        if command == "evaluate":
            model = tmp_path / "model.elm"
            n = kb_csv.read_text().split("\n", 1)[0].count(",")
            _write_model(model, n)
            return argv + ["--model", str(model)]
        return argv + ["--hidden", "4", "--population", "4",
                       "--iterations", "1"]
    if case.startswith(("abbreviated", "config")):
        argv = ["optimize", "--kb", str(kb_csv), "--out", str(tmp_path / "run")]
        if case == "abbreviated flags":
            return argv + ["--hid", "4", "--pop", "4", "--it", "2"]
        config = tmp_path / "run.cfg"
        config.write_text({
            "abbreviated config keys": "pop = 4\niter = 2\nhid = 4\n",
            "config repeated key": "population = 4\nhidden = 4\n"
                                   "population = 6\n",
            "config key spelled twice": "split_fraction = 0.5\n"
                                        "split-fraction = 0.9\n",
            "config utf-8": "population = 4\nhidden = \udcff4\n"}[case],
            errors="surrogateescape")
        return argv + ["--config", str(config)]
    model_text = Path(FIXTURES, "smib.sys").read_text()
    grid_text = Path(FIXTURES, "smib.grid").read_text()
    grid_name = "model.grid"
    if case == "sys short gen line":
        model_text = model_text.replace("gen 1.5 0.0 0.3 1.0 0.5",
                                        "gen 1.5 0.0 0.3")
    elif case == "sys long gen line":
        model_text = model_text.replace("gen 1.5 0.0 0.3 1.0 0.5",
                                        "gen 1.5 0.0 0.3 1.0 0.5 9.9")
    elif case.startswith("sys generators"):
        model_text = model_text.replace("generators 2",
                                        f"generators {case.split()[-1]}")
    elif case == "sys repeated f0":
        model_text = model_text.replace("f0 60.0", "f0 60.0\nf0 50.0")
    elif case == "sys utf-8":
        model_text = model_text.replace("f0 60.0", "f0 60.0\udcff")
    elif case == "sys unknown directive":
        model_text += "speed 3\n"
    elif case == "sys matrix row length":
        model_text = model_text.replace("0.0 -2.0 0.0 1.0", "0.0 -2.0 0.0", 1)
    elif case == "sys matrix dimension -2":
        model_text = model_text.replace("fault:fault 2", "fault:fault -2")
    elif case.startswith("sys matrix label"):
        model_text = model_text.replace("matrix fault:fault",
                                        f"matrix {case.split()[-1]}")
    elif case == "sys matrix cut short":
        model_text = model_text[:model_text.rindex("0.0 1.0 0.0 -2.0")]
    elif case == "grid utf-8":
        grid_text = grid_text.replace("seed = 7", "seed = 7\udcff")
    elif case == "grid seed negative":
        grid_text = grid_text.replace("seed = 7", "seed = -5")
    elif case == "grid step over horizon":
        grid_text = grid_text.replace("step = 0.004166666666666667",
                                      "step = 1e308")
        grid_text = grid_text.replace("horizon = 3.0", "horizon = 0.5")
    elif case in ("grid repeated key", "grid unknown key",
                  "grid line without ="):
        grid_text += {"grid repeated key": "load_levels = 1.0\n",
                      "grid unknown key": "horizen = 0.5\n",
                      "grid line without =": "junk line\n"}[case]
    elif case.startswith("grid horizon"):
        # the 10-cycle clearing ends at 0.1667 s at 60 Hz, 0.2 s at 50 Hz;
        # its feature window at 0.3 s at 60 Hz
        grid_text = grid_text.replace("horizon = 3.0",
                                      f"horizon = {case.split()[2]}")
        if case.endswith("50 Hz"):
            model_text = model_text.replace("f0 60.0", "f0 50.0")
    elif case == "grid repeated load level":
        grid_text = grid_text.replace("1.25, 1.3", "1.25, 1.3, 1.0")
    elif case == "grid unknown fault":
        grid_text = grid_text.replace("faults = fault", "faults = bus9")
    elif case == "grid file name utf-8":
        grid_name = "g\udcff.grid"
    elif case == "grid file name line break":
        grid_name = "a\nseed 9.grid"
    elif case == "grid file name trailing space":
        grid_name = "c.grid "
    elif case == "sys repeated matrix":
        prefault = model_text[model_text.index("matrix prefault"):
                              model_text.index("matrix fault:")]
        model_text = model_text.replace("matrix postfault",
                                        prefault + "matrix postfault")
    else:
        _, value, key = case.split()    # nan or inf; step or horizon
        grid_text = re.sub(rf"^{key} = .*$", f"{key} = {value}", grid_text,
                           flags=re.M)
    model, grid = tmp_path / "model.sys", tmp_path / grid_name
    model.write_text(model_text, errors="surrogateescape")
    grid.write_text(grid_text, errors="surrogateescape")
    return ["generate", "--model", str(model), "--grid", str(grid),
            "--out", str(kb)]


# Each row takes its case name as its test id, which a rewording of its
# message keeps.
@pytest.mark.parametrize("case, code, message", [
    pytest.param("kb blank line", cli.EXIT_OK, "", id="kb blank line"),
    pytest.param("kb header only", cli.EXIT_RUNTIME, "no samples",
                 id="kb header only"),
    pytest.param("kb nan cell", cli.EXIT_RUNTIME,
                 "kb.csv line 3: CSV column 95 holds nan, not a finite number",
                 id="kb nan cell"),
    pytest.param("kb fractional label", cli.EXIT_RUNTIME,
                 "kb.csv line 3: CSV column 1 holds 1.5, not +1 or -1",
                 id="kb fractional label"),
    pytest.param("kb narrow rows", cli.EXIT_RUNTIME,
                 "kb.csv line 2: 94 columns, the header names 95",
                 id="kb narrow rows"),
    pytest.param("kb ragged row", cli.EXIT_RUNTIME,
                 "number of columns changed", id="kb ragged row"),
    pytest.param("kb text cell", cli.EXIT_RUNTIME,
                 "could not convert string 'abc'", id="kb text cell"),
    pytest.param("kb utf-8", cli.EXIT_RUNTIME,
                 "kb.csv line 3: 'utf-8' codec can't decode byte 0xff in "
                 "position",
                 id="kb utf-8"),
    pytest.param("elm nan mean", cli.EXIT_RUNTIME,
                 "model.elm: non-finite means",
                 id="elm nan mean"),
    pytest.param("elm repeated beta", cli.EXIT_RUNTIME,
                 "model.elm: a second output_weights array",
                 id="elm repeated beta"),
    pytest.param("elm text model", cli.EXIT_RUNTIME,
                 "model.elm: not a numpy archive (a text model from an "
                 "earlier version is no longer read: rerun optimize)",
                 id="elm text model"),
    pytest.param("elm truncated", cli.EXIT_RUNTIME,
                 "model.elm: truncated or corrupt archive: File is not a zip "
                 "file",
                 id="elm truncated"),
    pytest.param("elm corrupt member", cli.EXIT_RUNTIME,
                 "model.elm: the means array: Bad CRC-32 for file 'means.npy'",
                 id="elm corrupt member"),
    pytest.param("elm extra array", cli.EXIT_RUNTIME,
                 "model.elm: an array 'hidden' that no model field names",
                 id="elm extra array"),
    pytest.param("elm object array", cli.EXIT_RUNTIME,
                 "model.elm: the means array: Object arrays cannot be loaded "
                 "when allow_pickle=False",
                 id="elm object array"),
    pytest.param("elm float activations", cli.EXIT_RUNTIME,
                 "model.elm: the activations array holds float64, not "
                 "integers",
                 id="elm float activations"),
    pytest.param("elm int mask", cli.EXIT_RUNTIME,
                 "model.elm: the feature_mask array holds int64, not booleans",
                 id="elm int mask"),
    pytest.param("elm activation code 3", cli.EXIT_RUNTIME,
                 "model.elm: activation codes must be 0, 1 or 2",
                 id="elm activation code 3"),
    pytest.param("elm negative std", cli.EXIT_RUNTIME,
                 "model.elm: stds must not be negative",
                 id="elm negative std"),
    pytest.param("elm all neurons off", cli.EXIT_RUNTIME,
                 "model.elm: activations: no active neuron",
                 id="elm all neurons off"),
    pytest.param("elm empty mask", cli.EXIT_RUNTIME,
                 "model.elm: feature_mask: no feature selected",
                 id="elm empty mask"),
    pytest.param("elm no stds", cli.EXIT_RUNTIME,
                 "model.elm: no stds array",
                 id="elm no stds"),
    pytest.param("elm no standardization", cli.EXIT_RUNTIME,
                 "model.elm: no means array",
                 id="elm no standardization"),
    pytest.param("predict input utf-8", cli.EXIT_USAGE,
                 "rows.csv line 2: 'utf-8' codec can't decode byte 0xff in "
                 "position 12:",
                 id="predict input utf-8"),
    pytest.param("sys short gen line", cli.EXIT_RUNTIME,
                 "'gen 1.5 0.0 0.3' needs 5", id="sys short gen line"),
    pytest.param("sys long gen line", cli.EXIT_RUNTIME,
                 "'gen 1.5 0.0 0.3 1.0 0.5 9.9' needs 5 values (H D x'd E "
                 "Pm), not 6",
                 id="sys long gen line"),
    pytest.param("sys generators 4", cli.EXIT_RUNTIME,
                 "'generators 4' but 2 gen lines", id="sys generators 4"),
    pytest.param("sys generators x", cli.EXIT_RUNTIME,
                 "invalid literal for int()", id="sys generators x"),
    pytest.param("sys repeated f0", cli.EXIT_RUNTIME,
                 "model.sys line 3: a second 'f0' line", id="sys repeated f0"),
    pytest.param("sys repeated matrix", cli.EXIT_RUNTIME,
                 "model.sys line 13: a second 'matrix prefault' line",
                 id="sys repeated matrix"),
    pytest.param("sys utf-8", cli.EXIT_RUNTIME,
                 "model.sys line 2: 'utf-8' codec can't decode byte 0xff in "
                 "position 17:",
                 id="sys utf-8"),
    pytest.param("sys unknown directive", cli.EXIT_RUNTIME,
                 "model.sys line 16: unknown directive 'speed'",
                 id="sys unknown directive"),
    pytest.param("sys matrix row length", cli.EXIT_RUNTIME,
                 "model.sys line 8: matrix 'prefault' row 0 has 3 values, "
                 "expected 4",
                 id="sys matrix row length"),
    pytest.param("sys matrix dimension -2", cli.EXIT_RUNTIME,
                 "model.sys line 10: matrix 'fault:fault' dimension -2 is "
                 "below 1",
                 id="sys matrix dimension -2"),
    pytest.param("sys matrix cut short", cli.EXIT_RUNTIME,
                 "model.sys line 14: matrix 'postfault' row 1 has 0 values, "
                 "expected 4",
                 id="sys matrix cut short"),
    pytest.param("sys matrix label fualt:fault", cli.EXIT_RUNTIME,
                 "model.sys line 10: matrix label 'fualt:fault' is not "
                 "prefault, postfault or fault:<id>",
                 id="sys matrix label fualt:fault"),
    pytest.param("sys matrix label fault:", cli.EXIT_RUNTIME,
                 "model.sys line 10: matrix label 'fault:' is not prefault, "
                 "postfault or fault:<id>", id="sys matrix label fault:"),
    pytest.param("grid nan step", cli.EXIT_USAGE, "step must be positive",
                 id="grid nan step"),
    pytest.param("grid nan horizon", cli.EXIT_USAGE,
                 "horizon must be positive", id="grid nan horizon"),
    pytest.param("grid inf step", cli.EXIT_USAGE,
                 "step must be positive and finite", id="grid inf step"),
    pytest.param("grid inf horizon", cli.EXIT_USAGE,
                 "horizon must be positive and finite", id="grid inf horizon"),
    pytest.param("grid horizon 0.15", cli.EXIT_USAGE,
                 "horizon shorter than the fault clearing time: horizon "
                 "0.15 s, latest clearing 0.1667 s (10 cycles at f0 = 60 Hz)",
                 id="grid horizon 0.15"),
    pytest.param("grid horizon 0.18 at 50 Hz", cli.EXIT_USAGE,
                 "horizon shorter than the fault clearing time: horizon "
                 "0.18 s, latest clearing 0.2 s (10 cycles at f0 = 50 Hz)",
                 id="grid horizon 0.18 at 50 Hz"),
    pytest.param("grid horizon 0.2 before the window", cli.EXIT_USAGE,
                 "horizon shorter than the feature window: horizon 0.2 s, "
                 "window ends 0.3 s (latest clearing 10 cycles at f0 = 60 Hz)",
                 id="grid horizon 0.2 before the window"),
    pytest.param("grid unknown fault", cli.EXIT_USAGE,
                 "unknown fault id 'bus9'", id="grid unknown fault"),
    pytest.param("grid repeated load level", cli.EXIT_USAGE,
                 "load_levels lists 1.0 more than once",
                 id="grid repeated load level"),
    pytest.param("grid repeated key", cli.EXIT_RUNTIME,
                 "model.grid line 7: a second 'load_levels' line",
                 id="grid repeated key"),
    pytest.param("grid unknown key", cli.EXIT_RUNTIME,
                 "model.grid line 7: unknown key 'horizen'",
                 id="grid unknown key"),
    pytest.param("grid line without =", cli.EXIT_RUNTIME,
                 "model.grid line 7: 'junk line' has no '='",
                 id="grid line without ="),
    pytest.param("grid utf-8", cli.EXIT_RUNTIME,
                 "model.grid line 6: 'utf-8' codec can't decode byte 0xff in "
                 "position 186:",
                 id="grid utf-8"),
    pytest.param("config repeated key", cli.EXIT_USAGE,
                 "run.cfg line 3: a second 'population' line",
                 id="config repeated key"),
    pytest.param("config utf-8", cli.EXIT_USAGE,
                 "run.cfg line 2: 'utf-8' codec can't decode byte 0xff in "
                 "position 24:",
                 id="config utf-8"),
    pytest.param("config key spelled twice", cli.EXIT_USAGE,
                 "run.cfg gives the key 'split-fraction' twice",
                 id="config key spelled twice"),
    # 2.4e9 steps: a run would allocate its 18 GiB time grid first
    pytest.param("grid 1e7 horizon", cli.EXIT_USAGE,
                 "horizon / step = 2.4e+09 exceeds the 1,000,000-step limit",
                 id="grid 1e7 horizon"),
    # the SMIB sidecar holds 2 lines: seed, provenance
    pytest.param("meta seed repeated", cli.EXIT_RUNTIME,
                 "kb.meta line 3: a second 'seed' line",
                 id="meta seed repeated"),
    pytest.param("meta provenance repeated", cli.EXIT_RUNTIME,
                 "kb.meta line 3: a second 'provenance' line",
                 id="meta provenance repeated"),
    pytest.param("meta utf-8", cli.EXIT_RUNTIME,
                 "kb.meta line 3: 'utf-8' codec can't decode byte 0xff in "
                 "position", id="meta utf-8"),
    pytest.param("meta seed x", cli.EXIT_RUNTIME,
                 "kb.meta line 1: the seed 'x' is not an integer",
                 id="meta seed x"),
    pytest.param("meta seed empty", cli.EXIT_RUNTIME,
                 "kb.meta line 1: the seed '' is not an integer",
                 id="meta seed empty"),
    pytest.param("meta seed negative", cli.EXIT_RUNTIME,
                 "kb.meta line 1: the seed -5 is negative",
                 id="meta seed negative"),
    pytest.param("grid seed negative", cli.EXIT_RUNTIME,
                 "model.grid line 6: the seed -5 is negative",
                 id="grid seed negative"),
    pytest.param("grid step over horizon", cli.EXIT_USAGE,
                 "integration step 1e+308 s exceeds the horizon 0.5 s",
                 id="grid step over horizon"),
    # 1/60 s apart, the window's instants t_clear + k/60 fall two to a
    # 0.02 s step
    pytest.param("grid 0.02 step", cli.EXIT_USAGE,
                 "integration step 0.02 s does not divide the 1/60 s feature "
                 "window spacing", id="grid 0.02 step"),
    # 0.01 s reads the window 0.02, 0.02, 0.01 s apart, no two on one step
    pytest.param("grid 0.01 step", cli.EXIT_USAGE,
                 "integration step 0.01 s does not divide the 1/60 s feature "
                 "window spacing", id="grid 0.01 step"),
    # the sidecar is UTF-8 and records the grid's file name
    pytest.param("grid file name utf-8", cli.EXIT_USAGE,
                 "g\\xff.grid: the grid file name is not UTF-8, so the KB "
                 "sidecar cannot record it", id="grid file name utf-8"),
    # the sidecar's provenance line ends at a break and is read back stripped
    pytest.param("grid file name line break", cli.EXIT_USAGE,
                 "a\\nseed 9.grid': the grid file name holds a line break or "
                 "ends in whitespace, so the KB sidecar cannot record it",
                 id="grid file name line break"),
    pytest.param("grid file name trailing space", cli.EXIT_USAGE,
                 "c.grid ': the grid file name holds a line break or ends in "
                 "whitespace, so the KB sidecar cannot record it",
                 id="grid file name trailing space"),
    # one value wider than the model is a KB row only behind a label
    pytest.param("predict row label 5.0", cli.EXIT_USAGE,
                 "--row line 1: 3 values, the model expects 2, and the "
                 "leading value 5.0 is not a label (+1 or -1)",
                 id="predict row label 5.0"),
    pytest.param("predict input label 5.0", cli.EXIT_USAGE,
                 "rows.csv line 2: 3 values, the model expects 2, and the "
                 "leading value 5.0 is not a label (+1 or -1)",
                 id="predict input label 5.0"),
    # an empty --row is a row with no values, not a missing --row
    pytest.param("predict empty row", cli.EXIT_USAGE, "--row: no samples",
                 id="predict empty row"),
    pytest.param("score not finite in predict", cli.EXIT_USAGE,
                 "--row line 1: the score inf is not a finite number, so the "
                 "row gets no verdict", id="score not finite in predict"),
    pytest.param("score not finite in evaluate", cli.EXIT_RUNTIME,
                 "kb.csv sample 3 of 66 (test split): the score inf is not a "
                 "finite number", id="score not finite in evaluate"),
    pytest.param("huge cells in optimize", cli.EXIT_RUNTIME,
                 "kb.csv: CSV column 2: the training rows give mean "
                 "5.2272727272727295e+299 and std inf, not both finite "
                 "numbers", id="huge cells in optimize"),
    pytest.param("huge cells in compare", cli.EXIT_RUNTIME,
                 "kb.csv: CSV column 2: the training rows give mean "
                 "5.2272727272727295e+299 and std inf, not both finite "
                 "numbers", id="huge cells in compare"),
    pytest.param("out optimize names a file", cli.EXIT_USAGE,
                 "taken/model.elm lies under the file",
                 id="out optimize names a file"),
    pytest.param("out evaluate names a file", cli.EXIT_USAGE,
                 "taken/metrics.csv lies under the file",
                 id="out evaluate names a file"),
    pytest.param("out optimize under a file", cli.EXIT_USAGE,
                 "lies under the file", id="out optimize under a file"),
    pytest.param("out compare under a file", cli.EXIT_USAGE,
                 "lies under the file", id="out compare under a file"),
    pytest.param("out generate under a file", cli.EXIT_USAGE,
                 "lies under the file", id="out generate under a file"),
    pytest.param("out compare names a directory", cli.EXIT_USAGE,
                 "names an existing directory",
                 id="out compare names a directory"),
    pytest.param("out generate names a directory", cli.EXIT_USAGE,
                 "names an existing directory",
                 id="out generate names a directory"),
    pytest.param("out generate sidecar names a directory", cli.EXIT_USAGE,
                 "run.meta names an existing directory",
                 id="out generate sidecar names a directory"),
    pytest.param("out optimize trace names a directory", cli.EXIT_USAGE,
                 "run/trace.csv names an existing directory",
                 id="out optimize trace names a directory"),
    pytest.param("out evaluate report names a directory", cli.EXIT_USAGE,
                 "run/report.txt names an existing directory",
                 id="out evaluate report names a directory"),
    pytest.param("out compare deterministic names a directory",
                 cli.EXIT_USAGE,
                 "run_deterministic.csv names an existing directory",
                 id="out compare deterministic names a directory"),
    pytest.param("single class in optimize", cli.EXIT_RUNTIME,
                 "kb.csv: all 66 samples have one label",
                 id="single class in optimize"),
    pytest.param("single class in evaluate", cli.EXIT_RUNTIME,
                 "kb.csv: all 66 samples have one label",
                 id="single class in evaluate"),
    pytest.param("single class in compare", cli.EXIT_RUNTIME,
                 "kb.csv: all 66 samples have one label",
                 id="single class in compare"),
    # a fraction inside (0, 1) that the KB cannot honour is a flag value
    # out of range
    pytest.param("split fraction 0.999 in evaluate", cli.EXIT_USAGE,
                 "error: train fraction 0.999 puts 66 of 66 rows in training; "
                 "each side needs at least 2",
                 id="split fraction 0.999 in evaluate"),
    pytest.param("split fraction 0.05 in optimize", cli.EXIT_USAGE,
                 "error: --split-fraction 0.05 leaves 3 of 66 rows to train "
                 "on: cannot make 5 folds from 3 samples",
                 id="split fraction 0.05 in optimize"),
    pytest.param("split fraction 0.05 in compare", cli.EXIT_USAGE,
                 "error: --split-fraction 0.05 leaves 3 of 66 rows to train "
                 "on: cannot make 5 folds from 3 samples",
                 id="split fraction 0.05 in compare"),
    pytest.param("abbreviated flags", cli.EXIT_USAGE,
                 "unrecognized arguments: --hid 4 --pop 4 --it 2",
                 id="abbreviated flags"),
    pytest.param("abbreviated config keys", cli.EXIT_USAGE,
                 "unrecognized arguments: --pop=4 --iter=2 --hid=4",
                 id="abbreviated config keys"),
])
def test_malformed_input_exit_code(case, code, message, kb_csv, tmp_path,
                                   capsys, monkeypatch):
    # never a traceback: a blank KB record is skipped, the rest refused;
    # and a refusal comes before the work, with no RK4 step or fitness
    # evaluation (a non-finite score in evaluate needs neither), and
    # writes no file
    argv = _write_malformed(case, kb_csv, tmp_path)
    inputs = sorted(tmp_path.rglob("*"))
    calls = []
    for module, name in ((kernels, "rk4_step"), (swarm, "evaluate_fitness")):
        def counted(*args, _run=getattr(module, name), _name=name):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(module, name, counted)
    try:
        exit_code = run(argv)
    except SystemExit as exc:       # argparse refuses the grammar's errors
        exit_code = exc.code
    assert exit_code == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    # the one accepted row runs the search, so the wrappers see the work
    assert bool(calls) == (code == cli.EXIT_OK), \
        f"{len(calls)} calls: {sorted(set(calls))}"
    if code != cli.EXIT_OK:
        assert sorted(tmp_path.rglob("*")) == inputs


@pytest.mark.parametrize("case", ["kb ragged row", "kb text cell",
                                  "kb 1_0 cell", "kb nan cell"])
def test_kb_parse_error_names_file_and_line(case, kb_csv, trained, tmp_path,
                                            capsys):
    # one row grammar: the KB reader, predict --input and predict --row
    # refuse the same second sample, line 3 of the file under the header
    _write_malformed(case, kb_csv, tmp_path)
    kb, model = tmp_path / "kb.csv", str(trained / "model.elm")
    row = kb.read_text().splitlines()[2]
    for argv, code, where in [
            (["evaluate", "--kb", str(kb), "--model", model,
              "--out", str(tmp_path / "run")], cli.EXIT_RUNTIME,
             f"{kb} line 3: "),
            (["predict", "--model", model, "--input", str(kb)],
             cli.EXIT_USAGE, f"{kb} line 3: "),
            (["predict", "--model", model, f"--row={row}"], cli.EXIT_USAGE,
             "--row line 1: ")]:
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert where in captured.err and "Traceback" not in captured.err


def test_cli_import_loads_every_module():
    # the package ships only what the pipeline runs: a module that
    # `import tspred.cli` leaves unloaded serves nothing but tests
    code = ("import pkgutil, sys, tspred, tspred.cli\n"
            "print(*(m.name for m in pkgutil.iter_modules(tspred.__path__)\n"
            "        if f'tspred.{m.name}' not in sys.modules))")
    src = str(Path(tspred.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []


#: module-level names in src/ that only perfbench and the tests call
#: (ROADMAP item 13 moves perfbench off them)
PERFBENCH_ONLY = {"simkit.simulate_trajectory", "features.feature_dimension"}


def test_every_module_level_name_is_named_elsewhere_in_src():
    # a function or class that src/ names nowhere outside its own
    # definition (code, comments or docstrings) serves only tests
    package = Path(tspred.__file__).resolve().parent
    texts = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    unnamed = []
    for module, text in texts.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno,
                         *(d.lineno for d in node.decorator_list)])
            outside = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(other if name != module else outside)
                       for name, other in texts.items()):
                unnamed.append(f"{module}.{node.name}")
    assert sorted(unnamed) == sorted(PERFBENCH_ONLY)


def test_only_cli_reads_the_clock_and_metrics_imports_no_tspred_module():
    # the CLI times what it reports, so swarm and metrics return pure
    # values; metrics takes scores, not a model, and stays a leaf
    package = Path(tspred.__file__).resolve().parent
    imported = {}
    for path in sorted(package.glob("*.py")):
        tops = imported.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                tops.add("tspred" if node.level else
                         node.module.split(".")[0])
    assert [m for m, tops in imported.items() if "time" in tops] == ["cli"]
    assert "tspred" not in imported["metrics"]


def test_one_error_class_per_module():
    # no caller tells two refusals of one module apart, so each module's
    # error class derives from Exception alone; the one subclass carries
    # the row that evaluate and predict name
    bases = {}
    for info in pkgutil.iter_modules(tspred.__path__):
        module = importlib.import_module(f"tspred.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__):
                bases[f"{info.name}.{cls.__name__}"] = cls.__bases__
    assert bases == {"cli.UsageError": (Exception,),
                     "elm.ElmError": (Exception,),
                     "elm.NonFiniteScoreError": (elm.ElmError,),
                     "features.FeatureError": (Exception,),
                     "metrics.MetricsError": (Exception,),
                     "simkit.SimkitError": (Exception,)}


def test_every_verdict_follows_metrics_verdict(kb_csv, trained, monkeypatch,
                                               capsys):
    # evaluate's counts, predict's label and the CV fitness on its Gram and
    # SVD paths all take a score's class from metrics.verdict: under a
    # sign-flipped rule each verdict flips
    kb = features.load_knowledge_base(kb_csv, kb_csv.with_suffix(".meta"))
    split = features.split_train_test(kb, 0.7, 5)
    z = features.standardize(kb.samples, split.train)[0]
    spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=4)
    ctx = swarm.FitnessContext.build(z[split.train], kb.labels[split.train],
                                     spec, seed=5)
    position = np.random.default_rng(5).random(spec.dim)
    row = kb_csv.read_text().splitlines()[1]
    argv = ["predict", "--model", str(trained / "model.elm"), "--row", row]
    gram = swarm._gram_fold_scores

    def outcomes():
        answers = []

        def recorded(*args):
            answers.append(gram(*args))
            return answers[-1]

        monkeypatch.setattr(swarm, "_gram_fold_scores", recorded)
        on_gram = swarm.evaluate_fitness(position, ctx)
        assert answers[0] is not None       # the Gram path answered
        monkeypatch.setattr(swarm, "_gram_fold_scores", lambda *args: None)
        on_svd = swarm.evaluate_fitness(position, ctx)
        assert run(argv) == cli.EXIT_OK
        label, score = capsys.readouterr().out.split()[:2]
        report = metrics.evaluate([0.5, -0.5, 0.0], [1, -1, -1])
        return report[:4], label, score, on_gram, on_svd

    counts, label, score, on_gram, on_svd = outcomes()
    assert counts == (1, 0, 1, 1)
    rule = metrics.verdict
    monkeypatch.setattr(metrics, "verdict", lambda scores: -rule(scores))
    flipped = outcomes()
    assert flipped[0] == (0, 1, 1, 1)
    assert flipped[1:3] == ({"+1": "-1", "-1": "+1"}[label], score)
    # every held-out row's verdict flips, so each right answer turns wrong
    n = len(ctx.labels)
    assert [round(f * n) for f in flipped[3:]] == \
        [n - round(f * n) for f in (on_gram, on_svd)]
