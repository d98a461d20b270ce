"""Record the reference outputs the benchmark's correctness gate compares to.

Runs every (signal, case) pair of a workload's corpus once and stores the
op summaries in ``references.json`` next to this file, keeping entries of
other workloads.  Run it from the repository root, only when the corpus
definition in ``workloads.py`` changes, and with the library at the commit
whose behaviour the references should pin.  The cases run in a pool of
at most two worker processes:

    python3 perfbench/record_references.py --workload paper_cases
"""

import argparse
import json
import multiprocessing
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wk  # noqa: E402


def _record(task):
    name, signal, case = task
    wl = wk.WORKLOADS[name]
    # index the corpus directly: op 0 of seed `case` has that case, and the
    # signal is forced so every signal is recorded for every case
    inp = wk.op_input(wl, case, 0)
    inp = wk.OpInput(inp.index, signal, inp.case, inp.bank_seed, inp.signal_seed)
    os.makedirs(wk.SCRATCH_DIR, exist_ok=True)
    ctx = wk.setup(wl, case, wk.SCRATCH_DIR)
    try:
        out = wk.run_op(wl, ctx, inp)
    finally:
        if os.path.exists(ctx["bank_path"]):
            os.remove(ctx["bank_path"])
    print(f"{name} {inp.key}: {wk.summarize(wl, out)}", flush=True)
    return inp.key, wk.summarize(wl, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    args = parser.parse_args(argv)
    wl = wk.WORKLOADS[args.workload]
    tasks = [(wl.name, s, c) for c in range(wk.CORPUS) for s in wl.signals]
    with multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1)) as pool:
        results = pool.map(_record, tasks, chunksize=1)
    refs = wk.load_references() if os.path.exists(wk.REFERENCES_PATH) else {}
    refs[wl.name] = dict(sorted(results))
    with open(wk.REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
