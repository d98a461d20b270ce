"""dptomo benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload paper_cases --seed 3 --seconds 30 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout; nothing is installed.  BLAS is held at
one thread and all ops run in this process, so the numbers measure the
program, not the scheduler.

With ``--trace 0`` the run prints every end-to-end metric with its unit:
set-up time (median of twelve set-ups, each in a fresh interpreter so
caches and imports start cold, half before the first op and half after
the last), median and tail seconds per op, mean
settings measured, mean fidelity and peak resident memory.  With
``--trace 1`` it runs every op twice on identical inputs, once untraced
and once traced, and prints the per-layer metrics of the traced ops together
with the tracing overhead (traced minus untraced median op time); the
spans are written to ``perfbench/out/``.  Either way every op passes
through the correctness gate of ``workloads.check_op``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An op that fails the gate or raises one of
``workloads.NUMERICAL_FAILURES`` counts as failed: its time is kept out
of the op times, ``correct`` is false and the run exits with code 1.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# before numpy is first imported, in this process and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up probes per run, split between before the first op and after the
# last, so that one slow or fast phase of the host does not set the median.
SETUP_REPEATS = 12
# The tail is the highest percentile with this many samples beyond it
# (choosing-metrics rule), once that percentile reaches TAIL_PERCENTILE.
TAIL_BEYOND = 10
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "settings_used": "count",
    "fidelity_mean": "overlap",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment():
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(args, repeats):
    """Wall seconds of import plus set-up, each in a fresh process."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail(times):
    """(seconds, percentile label) of the tail op time.

    With fewer than 100 samples no percentile at or above p90 has ten
    samples beyond it, and a lower one would not be a tail, so the
    maximum is reported; runs therefore report the same statistic
    whatever the host's speed lets them fit into --seconds.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n * (100 - TAIL_PERCENTILE) < TAIL_BEYOND * 100:
        return ordered[-1], "p100"
    return ordered[n - TAIL_BEYOND - 1], f"p{(100 * (n - TAIL_BEYOND)) // n}"


class Run:
    """Ops of one run with their times, outputs and gate results."""

    def __init__(self, wk, wl, references):
        self.wk, self.wl, self.references = wk, wl, references
        self.attempted = 0
        self.failed = 0
        self.gate_failures = 0
        self.times = []
        # only the reported figures are kept, so the outputs of past ops
        # do not inflate peak_rss_mb
        self.settings_used = []
        self.fidelities = []

    def op(self, inp, call):
        """Time ``call()``, one op on ``inp``, and gate its outputs."""
        wk, wl = self.wk, self.wl
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except wk.NUMERICAL_FAILURES as exc:
            self.failed += 1
            print(f"op {inp.index} ({inp.key}) failed numerically: {exc!r}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - t0
        problems = wk.check_op(wl, inp, out, self.references)
        if problems:
            self.failed += 1
            self.gate_failures += 1
            print(f"CORRECTNESS GATE FAILED: {wl.name} op {inp.index} ({inp.key}): "
                  + "; ".join(problems), file=sys.stderr)
            return
        # only ops that passed are reported, so a change that makes ops
        # fail early cannot look faster
        self.times.append(elapsed)
        self.settings_used.append(wk.settings_used(wl, out))
        self.fidelities.append(wk.fidelity(wl, out))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dptomo", "__init__.py")):
        print(f"error: no dptomo sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads as wk

    if args.workload not in wk.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wk.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = wk.WORKLOADS[args.workload]
    os.makedirs(wk.SCRATCH_DIR, exist_ok=True)
    if args.setup_probe:
        wk.setup(wl, args.seed, wk.SCRATCH_DIR)
        print(repr(time.perf_counter() - T_START))
        return 0

    env = environment()
    print("environment: " + json.dumps(env))
    references = wk.load_references()
    setup_samples = measure_setup(args, SETUP_REPEATS // 2) if args.trace == 0 else []
    ctx = wk.setup(wl, args.seed, wk.SCRATCH_DIR)
    run = Run(wk, wl, references)
    traced = Run(wk, wl, references)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    try:
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < args.seconds:
            inp = wk.op_input(wl, args.seed, index)
            wk.prepare(wl, ctx, inp)
            plain = (run, lambda: wk.run_op(wl, ctx, inp))
            if tracer is None:
                sides = [plain]
            else:
                # same inputs twice; alternate which goes first so warm-up
                # effects do not land on one side of the overhead figure
                sides = [plain, (traced, lambda: tracer.op(inp.index, wk.run_op, wl, ctx, inp))]
                if index % 2:
                    sides.reverse()
            for side, call in sides:
                side.op(inp, call)
            index += 1
    finally:
        if os.path.exists(ctx["bank_path"]):
            os.remove(ctx["bank_path"])

    if args.trace == 0:
        setup_samples += measure_setup(args, SETUP_REPEATS - len(setup_samples))

    attempted = run.attempted + traced.attempted
    failed = run.failed + traced.failed
    gate_failures = run.gate_failures + traced.gate_failures
    if failed:
        print(f"FAILED: {failed} of {attempted} ops ({gate_failures} at the correctness gate, "
              f"{failed - gate_failures} numerically)", file=sys.stderr)
    if not run.fidelities or (tracer is not None and not traced.fidelities):
        print("error: no op completed; no metrics to report", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print(f"workload {wl.name}, seed {args.seed} (held-out seed: {wk.HELD_OUT_SEED}), "
          f"{attempted} ops attempted, {failed} failed")

    metrics = {}
    if tracer is None:
        op_tail, label = tail(run.times)
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(run.times),
            "op_s_tail": op_tail,
            "settings_used": statistics.fmean(run.settings_used),
            "fidelity_mean": statistics.fmean(run.fidelities),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(setup_samples)} fresh-process set-ups",
            "op_s_p50": f"median of {len(run.times)} ops",
            "op_s_tail": f"{label} of {len(run.times)} ops",
            "settings_used": f"mean of {len(run.fidelities)} ops",
            "fidelity_mean": f"mean of {len(run.fidelities)} ops",
            "peak_rss_mb": "max resident set of this process",
        }
        for name, value in values.items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<14} {value:14.6f} {unit:<8} ({notes[name]})")
    else:
        layer = tracing.layer_metrics(tracer.spans)
        layer["trace.op_s_p50"] = ("s", statistics.median(traced.times))
        layer["trace.untraced_op_s_p50"] = ("s", statistics.median(run.times))
        layer["trace.overhead_s"] = (
            "s", layer["trace.op_s_p50"][1] - layer["trace.untraced_op_s_p50"][1])
        computed = ("iterations", "cap_hits", "flops", "candidates", "outcome_evals",
                    "cells", "bytes")
        for name, (unit, value) in sorted(layer.items()):
            metrics[name] = {"value": value, "unit": unit}
            tag = " (computed)" if name.rsplit(".", 1)[-1] in computed else ""
            print(f"  {name:<46} {value:16.6f} {unit}{tag}")
        print(f"  per-layer values are means over {len(traced.times)} traced ops; "
              f"shares are self time over op wall time")
        for line in tracing.ordering_report(wl.name, layer):
            print("  " + line)
        path = os.path.join(wk.SCRATCH_DIR, f"trace-{wl.name}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"environment": env, "workload": wl.name, "seed": args.seed,
                       "metrics": metrics, "spans": tracer.as_records()}, fh)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
