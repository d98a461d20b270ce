"""Spans around the library's layer boundaries, recorded from outside.

The tracer replaces public functions of the dptomo modules with thin
wrappers while it is installed, and restores the originals afterwards;
the library itself is not modified.  A name bound by import is wrapped
where the caller looks it up (``experiment_cli.select_next`` as well as
``measurement_selector.select_next``), and methods are wrapped on their
class.  Each wrapped call appends one span to an in-memory list: name,
start, end, parent span, op id, and optional computed counts taken from
the call's arguments and result.  Nothing is written until the run ends.
"""

import functools
import inspect
import os
import time

from dptomo import experiment_cli as ec
from dptomo import gaussian_posterior as gp
from dptomo import measurement_selector as ms
from dptomo import pattern_bank as pb
from dptomo import quantum_model as qm
from dptomo import state_space_shearing as sss

LAYERS = (
    "state_space_shearing",
    "measurement_selector",
    "gaussian_posterior",
    "quantum_model",
    "pattern_bank",
    "experiment_cli",
)
OP = "op"


def _shear_info(args, kwargs, result):
    post, constraints = args[0], args[1]
    report = result[1]
    d, c = post.dim, constraints.count
    return {
        "iterations": report.iterations,
        "cap_hits": int(report.hit_max_iterations),
        # Cholesky of A plus the triangular solve against every constraint
        "flops": report.iterations * (d ** 3 / 3.0 + d * d * c),
    }


_SELECT_SIG = inspect.signature(ms.select_next)


def _select_info(args, kwargs, result):
    bound = _SELECT_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    candidates = len(a["bank_frequencies"]) - len(set(int(k) for k in a["measured"]))
    return {
        "candidates": candidates,
        "outcome_evals": candidates * a["n_nodes"] * (a["n_shots"] + 1),
    }


def _bank_info(args, kwargs, result):
    return {"cells": result.counts.size}


def _save_info(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (owner, attribute, span name, counts taken from the call)
TARGETS = (
    (sss, "shear_until_physical", "state_space_shearing.shear_until_physical", _shear_info),
    (ec, "shear_until_physical", "state_space_shearing.shear_until_physical", _shear_info),
    (ms, "select_next", "measurement_selector.select_next", _select_info),
    (ec, "select_next", "measurement_selector.select_next", _select_info),
    (gp, "bayes_update", "gaussian_posterior.bayes_update", None),
    (ec, "bayes_update", "gaussian_posterior.bayes_update", None),
    (gp, "moments", "gaussian_posterior.moments", None),
    (ec, "moments", "gaussian_posterior.moments", None),
    (ms, "moments", "gaussian_posterior.moments", None),
    (qm, "assemble_estimator", "quantum_model.assemble_estimator", None),
    (ec, "assemble_estimator", "quantum_model.assemble_estimator", None),
    (qm.DensityMatrix, "min_eigenvalue", "quantum_model.min_eigenvalue", None),
    (qm, "constraint_coefficients", "quantum_model.constraint_coefficients", None),
    (ec, "constraint_coefficients", "quantum_model.constraint_coefficients", None),
    (pb, "simulate_probe_bank", "pattern_bank.simulate_probe_bank", _bank_info),
    (ec, "simulate_probe_bank", "pattern_bank.simulate_probe_bank", _bank_info),
    (pb, "save_bank", "pattern_bank.save_bank", _save_info),
    (ec, "save_bank", "pattern_bank.save_bank", _save_info),
    (pb, "load_bank", "pattern_bank.load_bank", None),
    (ec, "load_bank", "pattern_bank.load_bank", None),
    (pb.SignalMeter, "measure_signal", "pattern_bank.measure_signal", None),
    (ec, "run_reconstruction", "experiment_cli.run_reconstruction", None),
    (ec, "lsq_baseline", "experiment_cli.lsq_baseline", None),
)


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one list per finished or open call:
    [name, start, end, parent index or None, op id, counts or None].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, spans[parent][4] if parent is not None else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``, traced."""
        span = [OP, 0.0, 0.0, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        for owner, attr, name, info in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        try:
            span[1] = time.perf_counter()
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()
            self._stack.pop()

    def as_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "counts": c}
            for n, s, e, p, o, c in self.spans
        ]


def per_op_totals(spans):
    """Per op: wall time, and calls, busy, self time and counts per span name.

    A span's self time is its duration minus the durations of its direct
    children; calls are strictly nested on one thread, so children never
    overlap each other.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, _ in spans:
        if parent is not None:
            child[parent] += end - start
    ops = {}
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        tot = ops.setdefault(op, {"wall": 0.0, "names": {}, "first_shear": None})
        if name == OP:
            tot["wall"] = end - start
        entry = tot["names"].setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["busy"] += end - start
        entry["self"] += end - start - child[i]
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if name == "state_space_shearing.shear_until_physical" and tot["first_shear"] is None:
            tot["first_shear"] = end - start
    return ops


def layer_metrics(spans):
    """Per-layer metrics averaged over the traced ops (values per op)."""
    ops = per_op_totals(spans)
    n = len(ops)
    acc = {}

    def add(key, unit, value):
        prev = acc.get(key, (unit, 0.0))[1]
        acc[key] = (unit, prev + value / n)

    for tot in ops.values():
        names = tot["names"]

        def get(name, field="busy", count=None):
            entry = names.get(name)
            if entry is None:
                return 0
            return entry["counts"].get(count, 0) if count else entry[field]

        shear = "state_space_shearing.shear_until_physical"
        add("state_space_shearing.calls", "count/op", get(shear, "calls"))
        add("state_space_shearing.busy_s", "s/op", get(shear))
        add("state_space_shearing.initial_busy_s", "s/op", tot["first_shear"] or 0.0)
        for count in ("iterations", "cap_hits"):
            add(f"state_space_shearing.{count}", "count/op", get(shear, count=count))
        add("state_space_shearing.flops", "flop/op", get(shear, count="flops"))

        sel = "measurement_selector.select_next"
        add("measurement_selector.calls", "count/op", get(sel, "calls"))
        add("measurement_selector.busy_s", "s/op", get(sel))
        for count in ("candidates", "outcome_evals"):
            add(f"measurement_selector.{count}", "count/op", get(sel, count=count))

        for short in ("bayes_update", "moments"):
            name = f"gaussian_posterior.{short}"
            add(f"{name}.calls", "count/op", get(name, "calls"))
            add(f"{name}.busy_s", "s/op", get(name))
        for short in ("assemble_estimator", "min_eigenvalue", "constraint_coefficients"):
            name = f"quantum_model.{short}"
            add(f"{name}.calls", "count/op", get(name, "calls"))
            add(f"{name}.busy_s", "s/op", get(name))

        add("pattern_bank.simulate_probe_bank.busy_s", "s/op", get("pattern_bank.simulate_probe_bank"))
        add("pattern_bank.cells", "count/op", get("pattern_bank.simulate_probe_bank", count="cells"))
        add("pattern_bank.save_bank.busy_s", "s/op", get("pattern_bank.save_bank"))
        add("pattern_bank.save_bank.bytes", "B/op", get("pattern_bank.save_bank", count="bytes"))
        add("pattern_bank.load_bank.busy_s", "s/op", get("pattern_bank.load_bank"))
        add("pattern_bank.measure_signal.calls", "count/op", get("pattern_bank.measure_signal", "calls"))

        add("experiment_cli.run_reconstruction.self_s", "s/op",
            get("experiment_cli.run_reconstruction", "self"))
        add("experiment_cli.lsq_baseline.busy_s", "s/op", get("experiment_cli.lsq_baseline"))

        wall = tot["wall"]
        for layer in LAYERS:
            own = sum(e["self"] for nm, e in names.items() if nm.startswith(layer + "."))
            add(f"share.{layer}", "%", 100.0 * own / wall)
        add("share.benchmark_glue", "%", 100.0 * get(OP, "self") / wall)
        add("trace.spans", "count/op", sum(e["calls"] for e in names.values()))

    shear_iters = acc["state_space_shearing.iterations"][1]
    cands = acc["measurement_selector.candidates"][1]
    acc["state_space_shearing.us_per_iteration"] = (
        "us", 1e6 * acc["state_space_shearing.busy_s"][1] / shear_iters if shear_iters else 0.0)
    acc["measurement_selector.us_per_candidate"] = (
        "us", 1e6 * acc["measurement_selector.busy_s"][1] / cands if cands else 0.0)
    return acc


# The layer each workload exists to stress, by the cost model it was built on.
EXPECTED_LARGEST = {
    "paper_cases": "state_space_shearing",
    "high_shots": "measurement_selector",
    "calibrate_baseline": "pattern_bank",
}


def ordering_report(workload, layer):
    """Lines comparing the traced layer shares with the expected ordering."""
    shares = sorted(((layer[f"share.{name}"][1], name) for name in LAYERS), reverse=True)
    found = ", ".join(f"{name} {share:.1f}%" for share, name in shares)
    lines = [f"layer shares as found: {found}"]
    expected = EXPECTED_LARGEST.get(workload)
    if expected is not None:
        verdict = "matches" if shares[0][1] == expected else "DOES NOT match"
        lines.append(f"expected {expected} largest on {workload}: {verdict}")
    return lines
