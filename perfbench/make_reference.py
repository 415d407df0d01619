"""Rebuild the benchmark's frozen inputs and its generate reference.

Run from the repository root; it takes about a minute and a half:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Writes into perfbench/data:

- ``kb_3m.csv.gz``/``kb_3m.meta.gz``: ``tspred generate`` on the fixture
  grid (``fixtures/three_machine.grid``), the frozen KB of
  ``train-serve-3m`` and ``compare-3m``. Paste the printed sha256 values
  into ``FROZEN_KB_SHA256`` in run.py.
- ``generate_seed0_ref.npz``: labels (int8) and features (float32) of
  ``generate`` on the seed-0 grid of ``generate-3m``.

It also prints, for the seed-0 grid, how close any trajectory's largest
angle gap comes to the 360° label threshold: the label check is exact, so
that margin must dwarf the 1e-13° a reordered integrator may move.
"""

import gzip
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import run
from tspred import cli, features, simkit


def generate(grid, out):
    with redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--model", str(run.MODEL_FILE),
                         "--grid", str(grid), "--out", str(out)])
    if code != 0:
        sys.exit(f"generate exited {code}")
    return out, out.with_suffix(".meta")


def main():
    run.DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        for path in generate(run.ROOT / "fixtures" / "three_machine.grid",
                             tmp / "kb_3m.csv"):
            data = path.read_bytes()
            (run.DATA / f"{path.name}.gz").write_bytes(
                gzip.compress(data, compresslevel=9, mtime=0))
            print(f"{path.name} sha256 {hashlib.sha256(data).hexdigest()}")

        grid = tmp / "seed0.grid"
        run.write_grid(grid, 0)
        csv_path, meta_path = generate(grid, tmp / "seed0.csv")
        kb = features.load_knowledge_base(csv_path, meta_path)
        np.savez_compressed(run.DATA / "generate_seed0_ref.npz",
                            labels=kb.labels.astype(np.int8),
                            features=kb.samples.astype(np.float32))

        model = simkit.load_model(run.MODEL_FILE)
        margin = min(
            abs(float(np.max(np.ptp(simkit.simulate_trajectory(
                model, sc).delta_deg, axis=1))) - 360.0)
            for sc in simkit.build_scenario_grid(
                **simkit.load_grid_spec(grid)))
        print(f"seed-0 grid: {kb.n_samples} rows, "
              f"{int((kb.labels == -1).sum())} unstable, "
              f"closest max gap to 360°: {margin:.3e}°")


if __name__ == "__main__":
    main()
