"""Spans around the package's layers, recorded from outside the package.

``install`` wraps every function each layer module defines and rebinds the
wrapper wherever another package module imported the original, so
cross-layer calls such as ``classes -> pencil._sphere_certificate`` become
spans without touching the package.  The four LAPACK routines the package
reaches through ``np.linalg`` are wrapped too and belong to the ``linalg``
layer, so raw calls from ``classes``, ``pencil`` and ``transforms`` are
counted where they happen.

A span is ``(name, layer, parent, call, start, end, extra)``; ``call`` is
the index of the ``cli.main`` invocation in progress (``None`` outside one)
and ``extra`` holds what a few entry points return (evaluation counts,
certificate method).  Spans stay in memory until ``summarize`` reduces them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "matrixio", "fixtures", "harness", "generators",
    "classes", "transforms", "pencil", "kernels", "linalg",
)
LAPACK = ("svd", "eigh", "eigvalsh", "eigvals")
PARANORMAL_FAMILY = (
    "classes.is_paranormal",
    "classes.is_k_paranormal",
    "classes.is_absolute_k_paranormal",
    "classes.is_absolute_pr_paranormal",
)
# the work counts that must repeat exactly for one input
EXACT_COUNTS = (
    "kernels.evals", "kernels.starts", "pencil.decisions",
    *(f"linalg.{fn}_calls" for fn in LAPACK),
)

NAME, LAYER, PARENT, CALL, START, END, EXTRA = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sphere_extra(args, kwargs, out):
    starts = _arg(args, kwargs, 2, "starts")
    n = _arg(args, kwargs, 0, "a").shape[0]
    return n, len(starts), int(out[2]), int(out[3])


def _batch_extra(args, kwargs, out):
    return len(_arg(args, kwargs, 2, "xs"))


def _suite_extra(args, kwargs, out):
    return _arg(args, kwargs, 0, "theorem_id"), out.trials, out.skipped


def _certificate_extra(args, kwargs, out):
    if hasattr(out, "decision") and hasattr(out, "method"):
        return out.method, getattr(out, "confidence", "high")
    return None


EXTRAS = {
    "kernels.sphere_minimize": _sphere_extra,
    "kernels.objective_batch": _batch_extra,
    "harness.run_suite": _suite_extra,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self.call = None
        self._stack: list = []
        self._clock = clock

    def wrap(self, layer: str, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[sid] = (name, layer, parent, self.call, start, clock(), None)
                raise
            end = clock()
            stack.pop()
            info = extra(args, kwargs, out) if extra is not None else None
            spans[sid] = (name, layer, parent, self.call, start, end, info)
            return out

        return traced


def install(tracer: Tracer, package: str = "normaloid") -> None:
    """Wrap the package's layer functions and np.linalg's LAPACK routines."""
    import numpy as np

    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                extra = EXTRAS.get(name, _certificate_extra if layer == "pencil" else None)
                wrapped[obj] = tracer.wrap(layer, name, obj, extra)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for fn in LAPACK:
        setattr(np.linalg, fn, tracer.wrap("linalg", f"np.linalg.{fn}", getattr(np.linalg, fn)))


def _ancestors(spans, sid):
    p = spans[sid][PARENT]
    while p != -1:
        yield p
        p = spans[p][PARENT]


def summarize(spans, wall_s: float) -> dict:
    """Reduce spans to layer self times, inclusive times and per-call counts.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap in a single thread, so
    the layer self times plus the time outside every top-level span (the
    benchmark's own work) add up to ``wall_s``.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] != -1:
            child_time[s[PARENT]] += s[END] - s[START]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    family = other = 0.0
    suites: dict = {}
    gate = [0.0, 0]
    load = [0.0, 0]
    calls: dict = defaultdict(lambda: defaultdict(int))
    for sid, s in enumerate(spans):
        name, layer, parent, call = s[NAME], s[LAYER], s[PARENT], s[CALL]
        dur = s[END] - s[START]
        layer_self[layer] += dur - child_time[sid]
        if parent == -1:
            covered += dur
        if layer == "classes" and name != "classes.classify":
            owner = next((p for p in _ancestors(spans, sid) if spans[p][LAYER] == "classes"), -1)
            if owner == -1 or spans[owner][NAME] == "classes.classify":
                if name in PARANORMAL_FAMILY:
                    family += dur
                else:
                    other += dur
        elif name == "harness.run_suite" and s[EXTRA] is not None:
            tid, trials, skipped = s[EXTRA]
            acc = suites.setdefault(tid, [0.0, 0, 0, 0])
            acc[0] += dur
            acc[1] += 1
            acc[2] += trials
            acc[3] += skipped
        elif name == "fixtures.load_fixtures":
            gate[0] += dur
            gate[1] += 1
        elif name == "matrixio.load_matrix":
            load[0] += dur
            load[1] += 1
        if call is None:
            continue
        c = calls[call]
        if name.startswith("np.linalg."):
            fn = name[len("np.linalg."):]
            c[f"linalg.{fn}_calls"] += 1
            if fn == "eigvalsh" and any(
                spans[p][NAME] == "pencil.check_paranormal" for p in _ancestors(spans, sid)
            ):
                c["pencil.grid_eigvalsh"] += 1
        elif name == "kernels.sphere_minimize" and s[EXTRA] is not None:
            n, starts, evals, converged = s[EXTRA]
            c["kernels.sphere_calls"] += 1
            c["kernels.starts"] += starts
            c["kernels.evals"] += evals
            c["kernels.converged"] += converged
            c["kernels.flops_computed"] += evals * 16 * n * n
        elif name == "kernels.objective_batch" and s[EXTRA] is not None:
            c["kernels.batch_calls"] += 1
            c["kernels.batch_points"] += s[EXTRA]
        elif layer == "pencil" and s[EXTRA] is not None and (
            parent == -1 or spans[parent][LAYER] != "pencil"
        ):
            method, confidence = s[EXTRA]
            c["pencil.decisions"] += 1
            c["pencil.reduced_confidence"] += confidence == "reduced"
            c["pencil.oracle_fallbacks"] += method == "dense-oracle"
    return {
        "wall_s": wall_s,
        "client_s": wall_s - covered,
        "layer_self_s": layer_self,
        "paranormal_family_s": family,
        "other_predicates_s": other,
        "suites": suites,
        "gate": gate,
        "load": load,
        "calls": {str(k): dict(v) for k, v in calls.items()},
        "spans": len(spans),
    }


COUNT_METRICS = (
    *(f"linalg.{fn}_calls" for fn in LAPACK),
    "kernels.sphere_calls", "kernels.starts", "kernels.evals",
    "kernels.flops_computed", "kernels.batch_calls", "kernels.batch_points",
    "pencil.decisions", "pencil.grid_eigvalsh",
    "pencil.reduced_confidence", "pencil.oracle_fallbacks",
)


def layer_metrics(summary: dict, ops: int, window_calls, window_ops: int,
                  import_s: float, theorem_ids=()) -> dict:
    """Per-layer metrics: times per op over the run, counts per op over the window.

    The window is the first round, which every traced run completes, so
    its counts repeat exactly for one seed while the number of rounds a
    run fits in its time may differ.  Suite, fixture-gate and transforms
    metrics are added when ``theorem_ids`` names the suites that ran.
    """
    per_op = 1.0 / ops
    selfs = summary["layer_self_s"]
    out = {}
    totals = defaultdict(int)
    for call in window_calls:
        for key, value in summary["calls"].get(str(call), {}).items():
            totals[key] += value
    for key in COUNT_METRICS:
        out[key] = (totals[key] / window_ops, "count")
    starts = totals["kernels.starts"]
    out["kernels.converged_frac"] = (totals["kernels.converged"] / starts if starts else 0.0, "ratio")
    for layer in ("linalg", "kernels", "pencil", "classes", "cli"):
        out[f"{layer}.self_s"] = (selfs[layer] * per_op, "s")
    out["classes.paranormal_family_s"] = (summary["paranormal_family_s"] * per_op, "s")
    out["classes.other_predicates_s"] = (summary["other_predicates_s"] * per_op, "s")
    out["generators.s"] = (selfs["generators"] * per_op, "s")
    out["matrixio.self_s"] = (selfs["matrixio"] * per_op, "s")
    load_s, loads = summary["load"]
    out["matrixio.load_s"] = (load_s / loads if loads else 0.0, "s")
    out["cli.import_s"] = (import_s, "s")
    out["client.self_s"] = (summary["client_s"] * per_op, "s")
    if theorem_ids:
        trials = skipped = 0
        for tid in theorem_ids:
            dur, runs, t, k = summary["suites"].get(tid, (0.0, 0, 0, 0))
            out[f"harness.{tid}_s"] = (dur / runs if runs else 0.0, "s")
            trials += t
            skipped += k
        out["harness.skipped_frac"] = (skipped / trials if trials else 0.0, "ratio")
        out["harness.overhead_s"] = (selfs["harness"] * per_op, "s")
        gate_s, gates = summary["gate"]
        out["fixtures.gate_s"] = (gate_s / gates if gates else 0.0, "s")
        out["fixtures.self_s"] = (selfs["fixtures"] * per_op, "s")
        out["transforms.s"] = (selfs["transforms"] * per_op, "s")
    return out


def exact_counts(summary: dict, calls) -> dict:
    """The counts that must repeat exactly, keyed by call index."""
    return {
        str(call): {k: summary["calls"].get(str(call), {}).get(k, 0) for k in EXACT_COUNTS}
        for call in calls
    }
