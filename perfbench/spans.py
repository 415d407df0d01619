"""Span recorder for the traced run, attached to tspred from outside.

Each wrapped function records one span (name, start, end, parent) in
memory; nothing inside ``src/`` changes. A function is replaced at every
module-level name that holds it, including names bound by ``from … import``
(``elm.apply_standardization``, ``swarm.kfold_partition``) and dict entries
(``swarm.OPTIMIZERS``, which ``cli`` dispatches through), so the wrapper sits
where each caller looks the function up. ``FitnessContext.__call__`` resolves
the global ``swarm.evaluate_fitness`` at call time, so replacing that global
catches every fitness evaluation.
"""

import importlib.machinery
import os
import sys
import time
from array import array

#: flops per classical swing-equation RK4 step for G machines, as computed
#: from the scalar kernel: each right-hand side costs 9 per ordered machine
#: pair (difference, cos, sin, two products, sum, E_i·E_j twice, accumulate)
#: plus 8 per machine; the three stage states cost 3 per machine and
#: variable, the final combination 8.
def rk4_step_flops(g):
    rhs = 9 * g * (g - 1) + 8 * g
    return 4 * rhs + 3 * 2 * 3 * g + 2 * 8 * g


#: flops of the thin SVD of an m×n matrix (R-SVD, Golub & Van Loan table
#: 8.6.1: 4mn² + 22n³ for n ≤ m) plus the m·n·k back-multiplication of the
#: pseudoinverse, with k = min(m, n).
def pinv_flops(m, n):
    if n > m:
        m, n = n, m
    return 4 * m * n * n + 22 * n ** 3 + 2 * m * n * n


class Tracer:
    """Spans kept in flat arrays; parents are indices into the same arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self.counters = {}
        self.levels = set()

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        """Return `fn` recording a span per call; `after` sees the result."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, parent = self._stack, self.parent
        start, end, raised, name_id = (self.start, self.end, self.raised,
                                       self.name_id)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self):
        return len(self.start)

    def save(self, path):
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            parent=np.array(self.parent), start=np.array(self.start),
            end=np.array(self.end), raised=np.array(self.raised))


def span_cost_s(calls=20000):
    """Seconds one span adds to a call, from wrapping a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (clock() - t0 - bare) / calls)


class ImportSpans:
    """Meta-path finder that records a ``<module>.import`` span per tspred
    module, so nested imports nest as spans."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        if not fullname.startswith("tspred."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            short = fullname.split(".", 1)[1]
            spec.loader.exec_module = self.tracer.wrap(
                f"{short}.import", spec.loader.exec_module)
        return spec

    def install(self):
        sys.meta_path.insert(0, self)


# ---------------------------------------------------------------------------
# What gets wrapped, and the counts taken at each boundary
# ---------------------------------------------------------------------------

def _after_rk4_span(tracer, args, status):
    nsteps = int(args[3])
    tracer.count("rk4.steps", nsteps)
    tracer.count("rk4.flops", nsteps * rk4_step_flops(len(args[0])))


def _after_apply_load_level(tracer, args, model):
    import numpy as np
    if not np.array_equal(model.emf, args[0].emf):
        tracer.count("load_level.fallbacks")


def _after_simulate(tracer, args, traj):
    import numpy as np
    tracer.levels.add(float(args[1].load_level))
    steps = len(traj.time) - 1
    gaps = np.ptp(traj.delta_deg, axis=1)
    crossed = np.nonzero(gaps >= 360.0)[0]
    tracer.count("verdict.steps", steps)
    if crossed.size:
        tracer.count("verdict.steps_after", steps - int(crossed[0]))


def _after_save_kb(tracer, args, _):
    tracer.count("kb.bytes", os.path.getsize(args[1])
                 + os.path.getsize(args[2]))


def _after_pinv(tracer, args, _):
    import numpy as np
    h = np.atleast_2d(np.asarray(args[0]))
    tracer.count("pinv.flops", pinv_flops(*h.shape))
    tracer.count("pinv.columns", h.shape[1])
    tracer.count("pinv.active_columns", int(np.count_nonzero(
        np.any(h != 0.0, axis=0))))


#: (module, function, hook). The span is named "<module>.<function>".
TARGETS = [
    ("cli", "main", None),
    ("cli", "cmd_generate", None),
    ("cli", "cmd_optimize", None),
    ("cli", "cmd_evaluate", None),
    ("cli", "cmd_compare", None),
    ("cli", "cmd_predict", None),
    ("kernels", "rk4_span", _after_rk4_span),
    ("kernels", "electrical_power", None),
    ("simkit", "simulate_trajectory", _after_simulate),
    ("simkit", "solve_equilibrium", None),
    ("simkit", "apply_load_level", _after_apply_load_level),
    ("features", "extract_features", None),
    ("features", "label_trajectory", None),
    ("features", "save_knowledge_base", _after_save_kb),
    ("features", "load_knowledge_base", None),
    ("features", "standardize", None),
    ("features", "kfold_partition", None),
    ("features", "apply_standardization", None),
    ("elm", "train", None),
    ("elm", "hidden_matrix", None),
    ("elm", "pseudoinverse", _after_pinv),
    ("elm", "predict_label", None),
    ("elm", "load_model", None),
    ("elm", "predict_full", None),
    ("swarm", "evaluate_fitness", None),
    ("swarm", "decode_particle", None),
    ("swarm", "run_ipso", None),
    ("swarm", "run_pso", None),
    ("swarm", "run_ga", None),
    ("metrics", "auc", None),
]


def rebind(original, wrapped):
    """Replace `original` at every tspred module-level name or dict entry."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("tspred"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def instrument(tracer):
    """Wrap every target; returns {span name: reason} for those missing."""
    missing = {}
    for module, func, hook in TARGETS:
        mod = sys.modules.get(f"tspred.{module}")
        original = getattr(mod, func, None) if mod is not None else None
        if not callable(original):
            missing[f"{module}.{func}"] = f"tspred.{module}.{func} not found"
            continue
        rebind(original, tracer.wrap(f"{module}.{func}", original, hook))
    return missing


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def summarize(tracer, t0, t1):
    """Per-name calls, busy and self seconds and calls that raised, over
    spans inside [t0, t1]; plus hidden-matrix calls made inside fitness
    evaluations, and the number of spans inside."""
    import numpy as np
    n = len(tracer)
    if n == 0:
        return {}, 0.0, 0
    name_id = np.array(tracer.name_id, dtype=np.intc)
    parent = np.array(tracer.parent, dtype=np.intc)
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    raised = np.array(tracer.raised, dtype=bool)
    dur = end - start
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    inside = (start >= t0) & (end <= t1)
    stats = {}
    for nid, name in enumerate(tracer.names):
        sel = inside & (name_id == nid)
        stats[name] = {"calls": int(sel.sum()),
                       "busy_s": float(dur[sel].sum()),
                       "self_s": float(self_time[sel].sum()),
                       "raised": int((sel & raised).sum())}

    fit_id = tracer._ids.get("swarm.evaluate_fitness")
    hid_id = tracer._ids.get("elm.hidden_matrix")
    in_eval = 0
    if fit_id is not None and hid_id is not None:
        for idx in np.nonzero(inside & (name_id == hid_id))[0]:
            p = parent[idx]
            while p >= 0 and name_id[p] != fit_id:
                p = parent[p]
            in_eval += p >= 0
    return stats, float(in_eval), int(inside.sum())
