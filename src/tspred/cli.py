"""Command-line pipeline: generate, optimize, evaluate, compare, predict.

Every subcommand is deterministic given its inputs and the master seed;
all randomness flows from that one seed. Exit codes: 0 success, 1 runtime
failure, 2 usage or validation error.
"""

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import elm, features, metrics, simkit, swarm, textio

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DEFAULT_SPLIT_FRACTION = 2200.0 / 3300.0
DEFAULT_HIDDEN = 50


class UsageError(Exception):
    pass


def _sidecar_path(csv_path):
    """The KB's sidecar path; a KB path that is one itself is refused, so
    that neither file overwrites or stands for the other."""
    if Path(csv_path).suffix == ".meta":
        raise UsageError(f"{csv_path}: a knowledge base path ending in "
                         "'.meta' names its own sidecar")
    return Path(csv_path).parent / (Path(csv_path).stem + ".meta")


def _out(path, what, files):
    """The files a command writes, `files(Path(path))`, each checked before
    the work: one that names an existing directory or lies under a file is
    refused. A missing `path` is refused as a missing --out `what`."""
    if not path:
        raise UsageError(f"missing --out {what}")
    outs = files(Path(path))
    for out in outs:
        if out.is_dir():
            raise UsageError(f"{out} names an existing directory")
        under = next(p for p in out.parents if p.exists())
        if not under.is_dir():
            raise UsageError(f"{out} lies under the file {under}")
    return outs


def _require(path, what):
    if not path:
        raise UsageError(f"missing required {what}")
    if not Path(path).exists():
        raise UsageError(f"{what} not found: {path}")
    return path


def cmd_generate(args):
    model_path = _require(args.model, "model file")
    grid_path = _require(args.grid, "grid spec")
    # the sidecar, UTF-8 text, records the grid's file name
    grid_name = Path(grid_path).name
    try:
        grid_name.encode("utf-8")
    except UnicodeEncodeError:
        shown = grid_path.encode("utf-8", "surrogateescape").decode(
            "utf-8", "backslashreplace")
        raise UsageError(f"{shown}: the grid file name is not UTF-8, so the "
                         "KB sidecar cannot record it") from None
    # its `provenance` line ends at a CR or LF and is read back stripped
    if ("\r" in grid_name or "\n" in grid_name
            or grid_name != grid_name.rstrip()):
        raise UsageError(f"{grid_path!r}: the grid file name holds a line "
                         "break or ends in whitespace, so the KB sidecar "
                         "cannot record it")
    out_path, sidecar_path = _out(args.out, "path for the knowledge base",
                                  lambda out: (out, _sidecar_path(out)))
    model = simkit.load_model(model_path)
    spec = simkit.load_grid_spec(grid_path)
    if args.seed is not None:
        spec["seed"] = args.seed
    try:
        scenarios = simkit.build_scenario_grid(**spec)
        # before the first step, simulate_scenarios refuses a bad step,
        # horizon, clearing or level, a fault the model lacks and a horizon
        # that ends before a clearing at its f0; sample_steps a step that
        # does not divide 1/60 s and, the only FeatureError here, a horizon
        # that ends before a feature window
        traj = simkit.simulate_scenarios(model, scenarios,
                                         keep=features.sample_steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except features.FeatureError as exc:
        cycles = max(sc.clearing_cycles for sc in scenarios)
        raise UsageError(f"{exc} (latest clearing {cycles:g} cycles at f0 = "
                         f"{model.f0:g} Hz)") from exc
    kb = features.build_knowledge_base(
        traj, spec["seed"], provenance=f"{model.name}:{grid_name}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    features.save_knowledge_base(kb, out_path, sidecar_path)
    n_stable = int(np.sum(kb.labels == features.STABLE))
    print(f"seed {spec['seed']}")
    print(f"wrote {kb.n_samples} samples ({kb.n_features} features) "
          f"to {args.out}")
    print(f"class balance: {n_stable} stable / "
          f"{kb.n_samples - n_stable} unstable")
    # a stable row stops before the horizon only on its certificate
    n_steps = len(traj.time) - 1
    stopped = (kb.labels == features.STABLE) & (traj.stop_step < n_steps)
    print("energy certificate: " + (
        f"not applied ({traj.certificate})" if traj.certificate else
        f"{int(np.sum(stopped))} of {kb.n_samples} rows stopped at step <= "
        f"{traj.stop_step[stopped].max(initial=0)} of {n_steps}"))
    return EXIT_OK


def _prepare_training(args):
    kb_path = _require(args.kb, "knowledge base")
    kb = features.load_knowledge_base(kb_path, _sidecar_path(kb_path))
    seed = args.seed if args.seed is not None else kb.seed
    try:
        split = features.split_train_test(kb, args.split_fraction, seed)
    except ValueError as exc:   # out of (0, 1), or a side under 2 rows
        raise UsageError(str(exc)) from exc
    return kb, split, seed


def _fitness_context(kb, split, z, seed, args):
    """The CV fitness over the training rows of the standardized `z`."""
    if args.hidden < 1:
        raise UsageError("hidden must be at least 1")
    spec = swarm.EncodingSpec(n_features=kb.n_features, hidden=args.hidden)
    if args.population * spec.dim > swarm.MAX_SWARM_VALUES:
        raise UsageError(
            f"population x particle length = {args.population} x {spec.dim:,}"
            f" exceeds the {swarm.MAX_SWARM_VALUES:,}-value swarm limit")
    try:
        return swarm.FitnessContext.build(
            z[split.train], kb.labels[split.train], spec, seed=seed)
    except ValueError as exc:   # fewer training rows than CV folds
        raise UsageError(f"--split-fraction {args.split_fraction!r} leaves "
                         f"{len(split.train)} of {kb.n_samples} rows to "
                         f"train on: {exc}") from exc


def _optimize_once(ctx, fitness, seed, optimizer, args):
    """Optimize `fitness` (`ctx`, or a `swarm.SharedFitness` of it);
    returns the result and the optimizer's run time."""
    try:    # runs before anything is written
        config = swarm.SwarmConfig(population=args.population,
                                   max_iterations=args.iterations,
                                   fitness_target=args.target, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    t0 = time.perf_counter()
    result = swarm.OPTIMIZERS[optimizer](fitness, ctx.spec.dim, config)
    return result, time.perf_counter() - t0


def _standardize(kb, split, args):
    """`features.standardize` of the KB by its training rows; statistics
    that overflow are refused before the search, naming the column."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = features.standardize(kb.samples, split.train)
    means, stds = scaled[1:]
    finite = np.isfinite(means) & np.isfinite(stds)
    if not finite.all():
        j = int(np.argmin(finite))
        raise features.FeatureError(
            f"{args.kb}: CSV column {j + 2}: the training rows give mean "
            f"{float(means[j])!r} and std {float(stds[j])!r}, not both "
            "finite numbers")
    return scaled


def cmd_optimize(args):
    model_path, trace_path = _out(args.out, "directory", lambda out: (
        out / "model.elm", out / "trace.csv"))
    kb, split, seed = _prepare_training(args)
    scaled = _standardize(kb, split, args)
    ctx = _fitness_context(kb, split, scaled[0], seed, args)
    result, elapsed = _optimize_once(ctx, ctx, seed, args.optimizer, args)
    a, b, mask, cf = swarm.decode_particle(result.best_position, ctx.spec)
    # fit on the training rows; `scaled`'s statistics let it score raw rows
    w = a[:, mask]
    beta = elm.train(w, b, cf, ctx.samples[:, mask], ctx.labels)
    model = elm.ElmModel(w, b, cf, beta, mask, *scaled[1:])
    model_path.parent.mkdir(parents=True, exist_ok=True)
    elm.save_model(model, model_path)
    swarm.save_trace(result.trace, trace_path)
    print(f"seed {seed}")
    mutations = sum(rec.mutated for rec in result.trace)
    print(f"optimizer {args.optimizer}: best CV fitness "
          f"{result.best_fitness:.4f} after {len(result.trace) - 1} "
          f"iterations ({result.evaluations} evaluations, {mutations} "
          f"mutations, {elapsed:.2f}s)")
    print(f"effective hidden nodes: {elm.effective_hidden_size(cf)}")
    print(f"wrote {model_path} and {trace_path}")
    return EXIT_OK


def cmd_evaluate(args):
    model_path = _require(args.model, "model file")
    metrics_path, report_path = _out(args.out, "directory", lambda out: (
        out / "metrics.csv", out / "report.txt"))
    kb, split, seed = _prepare_training(args)
    model = elm.load_model(model_path)
    n_full = model.feature_mask.shape[0]
    if kb.n_features != n_full:
        raise elm.ElmError(f"{args.kb}: {kb.n_features} features, the model "
                           f"{model_path} expects {n_full}")
    rows, predict_s = [], {}
    for name, idx in (("test", split.test), ("train", split.train)):
        samples = kb.samples[idx]
        t0 = time.perf_counter()
        try:
            scores = elm.predict_full(model, samples)
        except elm.NonFiniteScoreError as exc:
            raise elm.ElmError(f"{args.kb} sample {idx[exc.row] + 1} of "
                               f"{kb.n_samples} ({name} split): {exc}"
                               ) from None
        predict_s[name] = time.perf_counter() - t0
        rows.append((name, metrics.evaluate(scores, kb.labels[idx])))
    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    metrics.save_report_csv(rows, metrics_path)
    text = (f"seed {seed}\n"
            + metrics.render_table(rows)
            + f"prediction time: {predict_s['test'] * 1e3:.3f} ms "
            f"({len(split.test)} test samples)\n")
    report_path.write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_compare(args):
    # the table, and it again without the time column, which a rerun changes
    out_path, det_path = _out(
        args.out, "path for the comparison CSV",
        lambda out: (out, out.parent / (out.stem + "_deterministic.csv")))
    if args.repeats < 1:
        raise UsageError("repeats must be at least 1")
    kb, split, seed = _prepare_training(args)
    scaled = _standardize(kb, split, args)
    runs = {name: [] for name in swarm.OPTIMIZERS}
    took, rescued = 0, []
    for r in range(args.repeats):
        # PSO takes IPSO's run of the repeat when IPSO made no rescue, and
        # is charged that run's time (`swarm.SharedFitness`)
        ctx = _fitness_context(kb, split, scaled[0], seed + r, args)
        shared = swarm.SharedFitness(ctx)
        results = {}
        for name in swarm.OPTIMIZERS:
            result, elapsed = _optimize_once(ctx, shared, seed + r, name, args)
            results[name] = result
            if name == "pso" and result is results["ipso"]:
                elapsed = runs["ipso"][-1][2]
            cf = swarm.decode_particle(result.best_position, ctx.spec)[3]
            runs[name].append((result.best_fitness,
                               elm.effective_hidden_size(cf), elapsed))
        took += results["pso"] is results["ipso"]
        if any(rec.mutated for rec in results["ipso"].trace):
            rescued.append(f"{r + 1} (seed {seed + r})")
    threshold = 0.95 * max(f for rows in runs.values() for f, _, _ in rows)
    table = [("algorithm", "mean_train_time_s", "mean_best_fitness",
              "success_rate", "mean_effective_nodes")]
    for name, rows in runs.items():
        fits, nodes, times = zip(*rows)
        success = sum(f >= threshold for f in fits) / len(fits)
        table.append((name, f"{float(np.mean(times)):.3f}", *map(repr, (
            float(np.mean(fits)), success, float(np.mean(nodes))))))
    text = "".join(",".join(row) + "\n" for row in table)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text, encoding="utf-8")
    det_path.write_text("".join(",".join(row[:1] + row[2:]) + "\n"
                                for row in table), encoding="utf-8")
    print(f"seed {seed} (repeats {args.repeats})")
    print(text, end="")
    print(f"pso took ipso's rescue-free run in {took} of {args.repeats} "
          "repeats" + (f"; ipso rescued in repeat {', '.join(rescued)}"
                       if took < args.repeats else ""))
    return EXIT_OK


def cmd_predict(args):
    model = elm.load_model(_require(args.model, "model file"))
    n_full = model.feature_mask.shape[0]
    if args.row is not None:
        where, lines = "--row", [args.row]
    elif args.input:
        where = _require(args.input, "input file")
        lines = textio.lines(Path(where).read_bytes(), where, UsageError)
        head = next((i for i, line in enumerate(lines) if line), 0)
        if lines[head].startswith("label"):
            lines[head] = ""    # the header of a KB CSV
    else:
        raise UsageError("provide --row or --input")
    # every row is checked before any is scored
    table, numbers = textio.rows(lines, where, UsageError)
    width = f"{table.shape[1]} values, the model expects {n_full}"
    if table.shape[1] == n_full + 1:    # a KB CSV row: a label, then the row
        bad = next(((n, v) for n, v in zip(numbers, table[:, 0].tolist())
                    if v not in (features.STABLE, features.UNSTABLE)), None)
        if bad:
            raise UsageError(f"{where} line {bad[0]}: {width}, and the leading "
                             f"value {bad[1]!r} is not a label (+1 or -1)")
        table = table[:, 1:]
    if table.shape[1] != n_full:
        raise UsageError(f"{where} line {numbers[0]}: {width}")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise UsageError(f"{where} line {numbers[np.argmin(finite)]}: "
                         "the row holds a non-finite value")
    scored = []     # every row is scored before any verdict is printed
    for n, values in zip(numbers, table):
        t0 = time.perf_counter()
        try:
            score = float(elm.predict_full(model, values)[0])
        except elm.NonFiniteScoreError as exc:
            raise UsageError(f"{where} line {n}: {exc}") from None
        scored.append((score, (time.perf_counter() - t0) * 1e3))
    for score, latency_ms in scored:
        print(f"{metrics.verdict(score):+d} score={score!r} "
              f"latency_ms={latency_ms:.3f}")
    return EXIT_OK


# Dispatch table: main looks the subcommand's handler up here at call time,
# since the parser is built once and keeps no handler of its own
COMMANDS = {"generate": cmd_generate, "optimize": cmd_optimize,
            "evaluate": cmd_evaluate, "compare": cmd_compare,
            "predict": cmd_predict}


def _config_args(path):
    """A --config file's `key = value` lines as `--key=value` arguments
    (`_` in a key read as `-`), which the grammar checks as it does flags."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc}") from exc
    args = {}
    for _, key, value in textio.directives(
            data, path, sep="=", error=argparse.ArgumentTypeError):
        name = key.replace("_", "-")    # split_fraction is split-fraction
        if name == "config" or name in args:
            raise argparse.ArgumentTypeError(
                f"{path} names another config file" if name == "config"
                else f"{path} gives the key '{name}' twice")
        args[name] = f"--{name}={value}"
    return list(args.values())


@functools.cache
def build_parser():
    """The argument grammar, built once per process: parse_args returns a
    fresh namespace each call, so no value carries over between calls.
    Each subcommand takes only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="tspred",
        description="Transient stability prediction with a swarm-optimized "
                    "extreme learning machine")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag or config key is spelled out: no prefix stands for a flag
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p):
        p.add_argument("--config", type=_config_args, metavar="FILE",
                       help="key = value lines read as flags")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=textio.seed, help="master seed")

    def training_flags(p):
        seeded(p)
        p.add_argument("--kb", help="knowledge base CSV")
        p.add_argument("--split-fraction", type=float,
                       default=DEFAULT_SPLIT_FRACTION)

    def swarm_flags(p):
        training_flags(p)
        defaults = swarm.SwarmConfig
        p.add_argument("--population", type=int, default=defaults.population)
        p.add_argument("--iterations", type=int,
                       default=defaults.max_iterations)
        p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
        p.add_argument("--target", type=float, default=defaults.fitness_target)

    p = add_parser("generate", help="simulate a scenario grid into a "
                                    "knowledge base CSV")
    seeded(p)
    p.add_argument("--model", help="power-system model (.sys)")
    p.add_argument("--grid", help="scenario grid spec (.grid)")
    p.add_argument("--out", help="knowledge base CSV path")

    p = add_parser("optimize", help="fit the classifier with the "
                                    "selected optimizer")
    swarm_flags(p)
    p.add_argument("--optimizer", choices=sorted(swarm.OPTIMIZERS),
                   default="ipso")
    p.add_argument("--out", help="output directory")

    p = add_parser("evaluate", help="score the held-out rows of a "
                                    "knowledge base")
    training_flags(p)
    p.add_argument("--model", help="trained model (.elm)")
    p.add_argument("--out", help="output directory")

    p = add_parser("compare", help="run ipso/pso/ga repeatedly and "
                                   "tabulate the comparison")
    swarm_flags(p)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", help="comparison CSV path")

    p = add_parser("predict", help="score one raw sample with a "
                                   "persisted model")
    common(p)
    p.add_argument("--model", help="trained model (.elm)")
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--row", help="comma-separated raw feature row")
    rows.add_argument("--input", help="file of comma-separated rows")
    return parser


def _bind_row(argv):
    """Join `--row <row>` into `--row=<row>`: argparse takes a separate
    value that starts with "-", as every unstable KB row does, for an
    option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--row":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = _bind_row(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # after the subcommand, before the command line, whose flags win
        args = parser.parse_args(argv[:1] + args.config + argv[1:])
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (simkit.SimkitError, features.FeatureError, elm.ElmError,
            metrics.MetricsError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
