"""Workload definitions, per-op inputs, the ops themselves and their gate.

An op is one unit of user-visible work: a full adaptive reconstruction
run to the stopping rule, or one non-adaptive calibrate-and-fit pass.
Every input an op sees is derived from the workload seed and the op
index, so the same seed always replays the same ops.  Seeds map onto a
fixed corpus of cases per workload, and reference outputs for every case
were recorded once with the library at the commit that introduced this
benchmark (see ``record_references.py``); each op is compared against
its reference and against invariants that hold for any correct build.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from dptomo import experiment_cli as ec
from dptomo import pattern_bank as pb
from dptomo import quantum_model as qm
from dptomo.state_space_shearing import ShearSolveError

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")
# Run-time outputs (span files, banks written by calibrate_baseline ops).
SCRATCH_DIR = os.path.join(HERE, "out")

# Cases per workload corpus.  Seed s starts at case s mod CORPUS; seed 11
# is held out: tune on other seeds, then confirm a claim on seed 11.
CORPUS = 12
HELD_OUT_SEED = 11

# Reference tolerances.  Adaptive runs are exactly reproducible at the
# recording commit; the slack admits changes that only reorder floating
# point sums (a near-tie in the selector may then pick another setting)
# but not changes that alter what the estimator converges to.
STEP_TOL = 5
FIDELITY_TOL = 0.05
BASELINE_TOL = 1e-3
TRACE_TOL = 1e-6

# Op failures that count against ops attempted instead of aborting a run.
NUMERICAL_FAILURES = (np.linalg.LinAlgError, ShearSolveError)


@dataclass(frozen=True)
class Workload:
    name: str
    adaptive: bool
    side_count: int
    spacing: float
    n_pulses: int
    signals: tuple
    salt: int


WORKLOADS = {
    w.name: w
    for w in (
        # The configuration every user runs: default lattice and pulse
        # counts, the paper's three signals.  Shearing dominates.  The two
        # quasi-classical signals come first: they cost about the same and
        # reach about the same fidelity, so a run is the same kind of work
        # whether the host's speed lets it finish one op or two.
        Workload("paper_cases", True, 11, 0.125, 1000, ("coherent", "even_cat", "fock1"), 10000),
        # Ten times the pulses on a smaller lattice: the selector's
        # predictive pmf spans N+1 outcomes per node and dominates.  The
        # even cat comes first for the same reason as above.
        Workload("high_shots", True, 9, 0.15, 10000, ("even_cat", "fock1"), 20000),
        # The non-adaptive path: generate, save, load, fit.  No shearing
        # and no selection, so changes to those layers predict no change.
        Workload("calibrate_baseline", False, 15, 0.125, 1000, ("coherent", "fock1", "even_cat"), 30000),
    )
}


@dataclass(frozen=True)
class OpInput:
    index: int
    signal: str
    case: int
    bank_seed: int
    signal_seed: int

    @property
    def key(self):
        return f"{self.signal}/{self.case}"


def op_input(wl, seed, index):
    """Inputs of op ``index`` in a run with workload seed ``seed``.

    Ops cycle through the workload's signals and take a fresh case (bank
    and signal seeds) each, starting from case ``seed mod CORPUS``.
    """
    case = (seed + index) % CORPUS
    return OpInput(
        index=index,
        signal=wl.signals[index % len(wl.signals)],
        case=case,
        bank_seed=wl.salt + case,
        signal_seed=wl.salt + 1000 + case,
    )


def run_config(wl, inp):
    return ec.RunConfig(
        side_count=wl.side_count,
        spacing=wl.spacing,
        signal_kind=inp.signal,
        n_bank_pulses=wl.n_pulses,
        n_signal_pulses=wl.n_pulses,
        bank_seed=inp.bank_seed,
        signal_seed=inp.signal_seed,
    )


def setup(wl, seed, scratch_dir):
    """Everything a run needs before its first op.

    Adaptive workloads build the lattice and the first op's bank; the
    non-adaptive one only needs the lattice and a place to write banks.
    The positivity constraint set is not built here: run_reconstruction
    builds its own inside every op, so its cost is op time.
    """
    lattice = qm.build_probe_lattice(wl.side_count, wl.spacing)
    ctx = {"lattice": lattice, "bank_path": os.path.join(scratch_dir, f"bank-{os.getpid()}.json")}
    if wl.adaptive:
        first = op_input(wl, seed, 0)
        ctx["bank"] = pb.simulate_probe_bank(lattice, None, wl.n_pulses, first.bank_seed)
        ctx["bank_seed"] = first.bank_seed
    return ctx


def prepare(wl, ctx, inp):
    """Untimed per-op preparation: the op's own bank, for adaptive ops."""
    if wl.adaptive and ctx["bank_seed"] != inp.bank_seed:
        ctx["bank"] = pb.simulate_probe_bank(ctx["lattice"], None, wl.n_pulses, inp.bank_seed)
        ctx["bank_seed"] = inp.bank_seed


def run_op(wl, ctx, inp):
    """The timed work of one op; returns its raw outputs."""
    if wl.adaptive:
        trace, report = ec.run_reconstruction(run_config(wl, inp), bank=ctx["bank"])
        return {"trace": trace, "report": report, "bank": ctx["bank"]}
    lattice = ctx["lattice"]
    bank = pb.simulate_probe_bank(lattice, None, wl.n_pulses, inp.bank_seed)
    pb.save_bank(bank, ctx["bank_path"])
    loaded = pb.load_bank(ctx["bank_path"])
    signal = run_config(wl, inp).signal()
    meter = pb.SignalMeter(
        signal=signal,
        setting_amplitudes=loaded.setting_amplitudes,
        n_pulses=wl.n_pulses,
        seed=inp.signal_seed,
    )
    freqs = np.array([meter.measure_signal(k) for k in range(loaded.n_settings)])
    coeffs = ec.lsq_baseline(loaded, freqs)
    density = qm.assemble_estimator(coeffs, lattice)
    return {
        "bank": bank,
        "loaded": loaded,
        "density": density,
        "fidelity": qm.fidelity(qm.signal_fock_vector(signal), density),
        "min_eigenvalue": density.min_eigenvalue(),
    }


def settings_used(wl, out):
    return out["report"].settings_used if wl.adaptive else out["loaded"].n_settings


def fidelity(wl, out):
    return out["report"].fidelity if wl.adaptive else out["fidelity"]


def summarize(wl, out):
    """The recorded reference values of one op."""
    if wl.adaptive:
        trace, report = out["trace"], out["report"]
        return {
            "stop_step": trace.stop_step,
            "settings_used": report.settings_used,
            "fidelity": report.fidelity,
            "initial_shear_iterations": trace.initial_shear_iterations,
            "shear_iterations": sum(r.shear_iterations for r in trace.records),
        }
    return {
        "counts_sha256": hashlib.sha256(out["bank"].counts.tobytes()).hexdigest(),
        "settings_used": out["loaded"].n_settings,
        "fidelity": out["fidelity"],
        "min_eigenvalue": out["min_eigenvalue"],
    }


def load_references():
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def check_op(wl, inp, out, references):
    """Problems found with one op's outputs; an empty list passes."""
    problems = []
    bank = out["bank"]
    if bank.counts.min() < 0 or bank.counts.max() > bank.n_pulses:
        problems.append(f"bank counts outside [0, {bank.n_pulses}]")
    density = out["report"].density if wl.adaptive else out["density"]
    if abs(density.trace() - 1.0) > TRACE_TOL:
        problems.append(f"trace of rho is {density.trace():.9f}, not 1")
    if wl.adaptive:
        threshold = run_config(wl, inp).shearing.p_threshold + 1e-9
        for rec in out["trace"].records:
            if not rec.shear_hit_cap and rec.shear_max_p > threshold:
                problems.append(f"step {rec.step}: shear max_p {rec.shear_max_p:.3g} above threshold")
                break
    else:
        loaded = out["loaded"]
        if not (
            np.array_equal(loaded.counts, bank.counts)
            and np.array_equal(loaded.probe_amplitudes, bank.probe_amplitudes)
            and np.array_equal(loaded.setting_amplitudes, bank.setting_amplitudes)
            and loaded.n_pulses == bank.n_pulses
            and loaded.seed == bank.seed
        ):
            problems.append("save/load round trip is not lossless")

    ref = references.get(wl.name, {}).get(inp.key)
    if ref is None:
        problems.append(f"no reference recorded for {wl.name} {inp.key}")
        return problems
    got = summarize(wl, out)
    if wl.adaptive:
        if (got["stop_step"] is None) != (ref["stop_step"] is None) or (
            got["stop_step"] is not None and abs(got["stop_step"] - ref["stop_step"]) > STEP_TOL
        ):
            problems.append(f"stop step {got['stop_step']} vs reference {ref['stop_step']}")
        if abs(got["settings_used"] - ref["settings_used"]) > STEP_TOL:
            problems.append(f"settings used {got['settings_used']} vs reference {ref['settings_used']}")
        if abs(got["fidelity"] - ref["fidelity"]) > FIDELITY_TOL:
            problems.append(f"fidelity {got['fidelity']:.4f} vs reference {ref['fidelity']:.4f}")
    else:
        if got["counts_sha256"] != ref["counts_sha256"]:
            problems.append("bank counts differ from the reference draw")
        if got["settings_used"] != ref["settings_used"]:
            problems.append(f"settings used {got['settings_used']} vs reference {ref['settings_used']}")
        for key in ("fidelity", "min_eigenvalue"):
            if abs(got[key] - ref[key]) > BASELINE_TOL:
                problems.append(f"{key} {got[key]:.6f} vs reference {ref[key]:.6f}")
    return problems
