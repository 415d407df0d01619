"""tspred pipeline benchmark: three workloads through ``tspred.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload generate-3m --seed 1 --seconds 20 \\
        --trace 0

Workloads (closed loop, one caller):

- ``generate-3m``: ``generate`` on ``fixtures/three_machine.sys`` over a
  378-scenario grid drawn from the seed (3 faults × 6 off-step clearing
  times × 21 load levels).
- ``train-serve-3m``: on the frozen three-machine KB in ``perfbench/data``,
  IPSO ``optimize`` at L=50, ``evaluate``, then one in-process
  ``predict --row=<row>`` per held-out row, twice over.
- ``compare-3m``: ``compare`` of IPSO, PSO and GA at L=20 on the same KB.

On the frozen KB each pass runs with its own tspred seed, drawn from the
benchmark seed.

Each workload run is a fresh interpreter (``child.py``) with BLAS/OpenMP
pinned to one thread and ``PYTHONPATH=src``; two more interpreters only set
up, so ``setup_s`` is a median of three. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced pass. Every line but
the last is for people; the last is one JSON object. A failed output check
prints ``"correct": false`` and exits 1; a run that cannot start exits 2
without a result.
"""

import argparse
import gzip
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

WORKLOADS = ("generate-3m", "train-serve-3m", "compare-3m")
SETUP_SAMPLES = 3
DEADLINE_S = 175.0

#: sha256 of the frozen KB, made from fixtures/three_machine.grid by
#: ``tspred generate`` (see make_reference.py); a mismatch means the data
#: under perfbench/data is not the data the figures were taken on.
FROZEN_KB_SHA256 = {
    "kb_3m.csv": "7d98c195813c0e285ef55dfded945ee2"
                 "ba94ec852e8c535d41740297759131d1",
    "kb_3m.meta": "ebe8056838cfdd9779709b7723be9a17"
                  "a54260dd980ca4fce409ef528a06c34f",
}
MODEL_FILE = ROOT / "fixtures" / "three_machine.sys"
FAULTS = ("bus1", "bus2", "bus3")
CLEARING_CYCLES = (5.0, 10.0)
LOAD_LEVELS = (0.8, 1.3)
N_CLEARING = 6
N_LEVELS = 21
STEP = 1.0 / 240.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "throughput_per_s": "1/s"}


def write_grid(path, seed):
    """The seeded 3 × 6 × 21 grid: one clearing time per sixth of [5, 10]
    cycles, kept off the quarter-cycle step grid so the split step runs, and
    one load level per 21st of [0.8, 1.3]."""
    rng = random.Random(seed)
    lo, hi = CLEARING_CYCLES
    width = (hi - lo) / N_CLEARING
    clearing = []
    for j in range(N_CLEARING):
        cycles = lo + width * (j + rng.uniform(0.02, 0.98))
        while abs(cycles * 4.0 - round(cycles * 4.0)) < 0.02:
            cycles = lo + width * (j + rng.uniform(0.02, 0.98))
        clearing.append(cycles)
    lo, hi = LOAD_LEVELS
    width = (hi - lo) / N_LEVELS
    levels = [lo + width * (j + rng.uniform(0.02, 0.98))
              for j in range(N_LEVELS)]
    path.write_text("\n".join([
        "faults = " + ", ".join(FAULTS),
        "clearing_cycles = " + ", ".join(repr(c) for c in clearing),
        "load_levels = " + ", ".join(repr(v) for v in levels),
        f"step = {STEP!r}",
        "horizon = 3.0",
        f"seed = {seed}",
    ]) + "\n", encoding="utf-8")


def unpack_frozen_kb(work):
    for name, want in FROZEN_KB_SHA256.items():
        data = gzip.decompress((DATA / f"{name}.gz").read_bytes())
        got = hashlib.sha256(data).hexdigest()
        if got != want:
            raise RuntimeError(f"frozen KB {name}: sha256 {got} != {want}")
        (work / name).write_bytes(data)


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    # the same dict layouts in every run, so runs differ by less
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, work, out, deadline, setup_only):
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--work", str(work), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a child")
    # perf_counter is CLOCK_MONOTONIC, so the child can read it against its
    # own clock
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=remaining,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"child exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-3000:])
    return json.loads(out.read_text(encoding="utf-8"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative (tspred seeds are)")
    deadline = time.monotonic() + DEADLINE_S
    load_1min = os.getloadavg()[0]

    if not (ROOT / "src" / "tspred" / "cli.py").is_file() \
            or not MODEL_FILE.is_file():
        print("error: no tspred source tree (src/tspred) or fixtures next "
              "to perfbench/", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        if args.workload == "generate-3m":
            write_grid(work / "grid.grid", args.seed)
        else:
            unpack_frozen_kb(work)
        setups = [run_child(args, work, work / f"setup{i}.json", deadline,
                            setup_only=True)
                  for i in range(SETUP_SAMPLES - 1)]
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = run_child(args, work, out_dir / f"{stem}.json", deadline,
                           setup_only=False)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(work, ignore_errors=True)

    samples = setups + [record]
    record["e2e"]["setup_s"] = (statistics.median(
        speed.corrected(s["setup"]) for s in samples), "s")
    record["e2e"]["raw_setup_s"] = (
        statistics.median(s["setup"]["raw"] for s in samples), "s")
    if args.trace:
        for key in record["imports"]:
            record["per_layer"][key] = (
                statistics.median(s["imports"][key] for s in samples), "s")
    record["facts"]["load_1min_at_start"] = load_1min
    record["facts"]["setup_samples"] = len(samples)
    (out_dir / f"{stem}.json").write_text(json.dumps(record),
                                          encoding="utf-8")

    for key, value in sorted(record["facts"].items()):
        print(f"fact {key} = {value}")
    for name, ok, detail in record["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    label = "traced " if args.trace else ""
    for name, (value, unit) in record["e2e"].items():
        print(f"{label}metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(record.get("per_layer", {}).items()):
        print(f"layer {name} = {value:.6g} {unit}")
    for name, reason in sorted(record.get("unmeasured", {}).items()):
        print(f"unmeasured {name}: {reason}")

    correct = all(ok for _, ok, _ in record["checks"])
    if args.trace:
        metrics = record["per_layer"]
    else:
        metrics = {name: record["e2e"].get(name, (0.0, unit))
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
