"""End-to-end reconstruction runs, baseline, reporting and the CLI.

A run wires the pieces together: build the probe lattice, simulate or
load the pattern bank, start from the nearly flat prior, shear it onto
the physical region, then loop adaptive setting selection, signal
measurement, Bayesian update and re-shearing until the stopping rule
fires or the settings run out.  Everything observable lands in a
SelectionTrace (one record per measured setting) and an EstimatorReport
(final belief and its density matrix), both exportable as JSON/CSV for
plotting.

The prior receives one structural addition before the first shear: the
exact probe patterns span only a low-dimensional visible subspace (the
pattern kernel is nearly degenerate on a fine lattice), and coefficient
directions invisible to every setting would otherwise keep their huge
prior variance forever, drowning the stopping statistic.  Those null
directions are pinned by a stiff quadratic term at initialization; they
are exactly the directions the measurements cannot inform, so pinning
them changes no observable prediction.
"""

import argparse
import cmath
import csv
import datetime
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args

import numpy as np
import scipy

from . import __version__
from .gaussian_posterior import GaussianPosterior, bayes_update, init_prior, moments
from .measurement_selector import (
    StoppingConfig,
    select_next,
    stopping_check,
)
from .pattern_bank import (
    BankFormatError,
    SignalMeter,
    check_seed,
    export_patterns_csv,
    load_bank,
    save_bank,
    simulate_probe_bank,
)
from .quantum_model import (
    CoherentSignal,
    EvenCat,
    SingledPhotonFock,
    assemble_estimator,
    build_probe_lattice,
    coherent_overlap_prob,
    constraint_coefficients,
    fidelity,
    probe_gram,
    signal_born_probability,
    signal_fock_vector,
)
from .state_space_shearing import (
    LinearConstraintSet,
    ShearSolveError,
    ShearingConfig,
    shear_until_physical,
)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """Everything a reconstruction run depends on, seeds included."""

    side_count: int = 11
    spacing: float = 0.125
    center: complex = 0.0
    signal_kind: str = "coherent"
    signal_alpha: complex = 0.5
    n_bank_pulses: int = 1000
    n_signal_pulses: int = 1000
    bank_seed: int = 1
    signal_seed: int = 1001
    shearing: ShearingConfig = field(default_factory=ShearingConfig)
    stopping: StoppingConfig = field(default_factory=StoppingConfig)
    max_settings: int | None = None
    continue_past_stop: bool = False
    strict_paper_sigma: bool = False

    def __post_init__(self):
        if self.signal_kind not in ("coherent", "fock1", "even_cat"):
            raise ValueError(f"unknown signal kind {self.signal_kind!r}")
        if self.n_bank_pulses < 1 or self.n_signal_pulses < 1:
            raise ValueError("pulse counts must be positive")
        if self.max_settings is not None and self.max_settings < 1:
            raise ValueError("max_settings must be positive when given")
        for name in ("spacing", "center", "signal_alpha"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_seed(self.bank_seed)
        check_seed(self.signal_seed)

    def lattice(self):
        return build_probe_lattice(self.side_count, self.spacing, self.center)

    def signal(self):
        if self.signal_kind == "coherent":
            return CoherentSignal(self.signal_alpha)
        if self.signal_kind == "fock1":
            return SingledPhotonFock()
        return EvenCat(self.signal_alpha)

    def to_dict(self):
        """The fields in order as JSON, with complex values as [re, im] and
        signal_kind and signal_alpha as one "signal": {"kind", "alpha"} block."""
        out = {}
        for f in fields(self):
            value = _json_value(f.type, getattr(self, f.name))
            if f.name in _SIGNAL_KEYS:
                out.setdefault("signal", {})[_SIGNAL_KEYS[f.name]] = value
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict; absent keys keep their defaults.  Raises
        ValueError naming an unknown key, at any level, or a key whose value
        has a JSON type that does not fit its field."""
        names = {f.name: f.name for f in fields(cls) if f.name not in _SIGNAL_KEYS}
        names["signal"] = {key: name for name, key in _SIGNAL_KEYS.items()}
        return cls(**_read_fields(cls, data, "", names))


# JSON keys of the one block that groups fields instead of mirroring a dataclass
_SIGNAL_KEYS = {"signal_kind": "kind", "signal_alpha": "alpha"}
# Keys older versions wrote, with the one value each always had: an old config
# or run.json that holds it still loads, and any other value is refused rather
# than run silently on the fixed setting.  None admits any value, because no
# algorithm ever read shearing.epsilon_total.
_RETIRED_KEYS = {
    "shearing.epsilon_total": None,
    "epsilon_reg": 1e-6,
    "null_stiffening": True,
    "stiffening_tau": 5e3,
    "stiffening_cutoff": 1e-6,
    "gh_nodes": 32,
    "fock_n_max": 40,
}
# The JSON types each field annotation admits; a bool fits only bool although
# Python counts it as an int, and complex is read from [re, im]
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), complex: ()}


def _json_value(kind, value):
    if kind is complex:
        value = complex(value)
        return [value.real, value.imag]
    if is_dataclass(kind):
        return {f.name: _json_value(f.type, getattr(value, f.name)) for f in fields(kind)}
    return value


def _read_fields(cls, data, where, names=None):
    """Keywords for dataclass ``cls`` from JSON object ``data``, whose key path starts ``where``.

    ``names`` maps each accepted key to the field it sets (default: the field
    of that name), or to such a mapping for a block of ``cls``'s own fields.
    """
    if not isinstance(data, dict):
        raise ValueError(f"key {where[:-1]!r} must be a JSON object" if where
                         else "expected a JSON object")
    kinds = {f.name: f.type for f in fields(cls)}
    names = names or {name: name for name in kinds}
    kwargs = {}
    for key, value in data.items():
        path = where + key
        if path in _RETIRED_KEYS:
            former = _RETIRED_KEYS[path]
            if former is not None and _read_value(type(former), value, path) != former:
                raise ValueError(f"config key {path!r} is retired; only its former "
                                 f"value {json.dumps(former)} is accepted, got {json.dumps(value)}")
            continue
        if key not in names:
            raise ValueError(f"unknown key {path!r}")
        if isinstance(names[key], dict):
            kwargs.update(_read_fields(cls, value, path + ".", names[key]))
        else:
            kwargs[names[key]] = _read_value(kinds[names[key]], value, path)
    return kwargs


def _read_value(kind, value, path):
    if is_dataclass(kind):
        return kind(**_read_fields(kind, value, path + "."))
    arms = get_args(kind) or (kind,)  # X | None lists X first
    if value is None and type(None) in arms:
        return None
    kind = arms[0]
    if kind is complex and isinstance(value, list) and len(value) == 2:
        return complex(*(_read_value(float, x, path) for x in value))
    if isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind is bool):
        return value
    expected = "[re, im]" if kind is complex else kind.__name__
    raise ValueError(f"key {path!r} must be {expected}, got {json.dumps(value)}")


def load_config(path):
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# trace and report containers

@dataclass
class StepRecord:
    step: int
    setting_index: int
    setting_re: float
    setting_im: float
    predicted_variance: float
    variance: float
    frequency: float
    stopping: bool
    min_eig_before: float
    min_eig_after: float
    hs_distance: float
    step_change: float
    shear_iterations: int
    shear_max_p: float
    shear_hit_cap: bool
    variance_increased: bool


@dataclass
class SelectionTrace:
    records: list
    stop_step: int | None
    exhausted: bool
    initial_variance: float
    initial_shear_iterations: int
    initial_shear_hit_cap: bool
    initial_shear_max_p: float


@dataclass
class EstimatorReport:
    mean: np.ndarray
    covariance: np.ndarray
    density: object
    fidelity: float
    settings_used: int
    probabilities: list  # (setting_index, estimated, measured) triples
    clip_excess: float
    final_variance: float


# ---------------------------------------------------------------------------
# truth projection and distances

def truth_projection(lattice, signal):
    """Best probe-mixture representation of the true state.

    Returns (s_red, c_star, residual): the probe Gram matrix in the free
    coefficients (c_M = 1 - sum(c) eliminated), the free coefficients of
    the Gram-projected least-squares representation computed from exact
    probabilities, and the squared Hilbert-Schmidt norm of what the probe
    span cannot express.  Singular Gram directions below 1e-10 are cut by
    the pseudo-inverse.
    """
    s = probe_gram(lattice)
    t = signal_born_probability(signal, lattice.amplitudes)
    s_red = s[:-1, :-1] - s[:-1, -1:] - s[-1:, :-1] + s[-1, -1]
    r = (t[:-1] - t[-1]) - (s[:-1, -1] - s[-1, -1])
    c_star = np.linalg.pinv(s_red, rcond=1e-10) @ r
    psi = signal_fock_vector(signal)
    purity = float(np.vdot(psi, psi).real) ** 2
    e_norm2 = purity - 2.0 * t[-1] + s[-1, -1]
    residual = float(e_norm2 - 2.0 * c_star @ r + c_star @ s_red @ c_star)
    return s_red, c_star, max(residual, 0.0)


def hs_distance(mean, cov, s_red, c_star, residual):
    """Posterior-averaged squared Hilbert-Schmidt distance to the truth.

    Closed form (m - c*) . S~ . (m - c*) + tr(S~ Sigma) + residual in the
    free coefficients, from the belief's moments and ``truth_projection``'s
    output; no sampling involved.
    """
    e = mean - c_star
    return float(e @ s_red @ e + np.trace(s_red @ cov) + residual)


# ---------------------------------------------------------------------------
# pipeline

# Gives each pinned direction a prior standard deviation of 1/sqrt(2 tau) = 0.01,
# against about 700 under the flat prior's PRIOR_EPSILON = 1e-6.
_STIFFENING_TAU = 5e3
# Directions below this share of the largest singular value count as invisible
# to every setting; 26 of 120 stay visible on the default 11x11 lattice.
_STIFFENING_CUTOFF = 1e-6


def _stiffened_prior(prior, lattice, setting_amplitudes):
    """Pin the pattern-null coefficient directions of the prior.

    The centered exact patterns G0 (settings x free coefficients) are
    decomposed by SVD; directions whose singular value falls below
    ``_STIFFENING_CUTOFF`` times the largest are invisible to every
    setting, and the prior gets a stiff ``_STIFFENING_TAU`` * (I - Vr Vr^T)
    added so they start, and stay, pinned near zero instead of wandering
    at prior scale.
    """
    p_exact = coherent_overlap_prob(lattice.amplitudes[None, :], setting_amplitudes[:, None])
    g0 = p_exact[:, :-1] - p_exact[:, -1:]
    _, sv, vt = np.linalg.svd(g0, full_matrices=True)
    rank = int((sv >= _STIFFENING_CUTOFF * sv[0]).sum())
    vr = vt[:rank]
    null_proj = np.eye(prior.dim) - vr.T @ vr
    return GaussianPosterior(A=prior.A + _STIFFENING_TAU * null_proj, b=prior.b)


def bank_for(config, lattice, bank=None):
    """The bank a run on ``config`` uses: a fresh simulation, or ``bank`` once its
    probes, seed and pulse count match the config, so that the config alone
    reproduces the run (a mismatch raises ValueError naming the config field)."""
    if bank is None:
        return simulate_probe_bank(lattice, None, config.n_bank_pulses, config.bank_seed)
    if bank.n_probes != lattice.n_probes or not np.allclose(
        bank.probe_amplitudes, lattice.amplitudes
    ):
        raise ValueError(f"bank probes do not match the configured lattice (side_count "
                         f"{config.side_count}, spacing {config.spacing}, center {config.center})")
    if bank.seed != config.bank_seed:
        raise ValueError(f"bank seed {bank.seed} does not match the configured "
                         f"bank_seed {config.bank_seed}")
    if bank.n_pulses != config.n_bank_pulses:
        raise ValueError(f"bank n_pulses {bank.n_pulses} does not match the configured "
                         f"n_bank_pulses {config.n_bank_pulses}")
    return bank


def signal_meter(config, bank):
    """The config's signal, measured at the bank's settings with its signal seed."""
    return SignalMeter(config.signal(), bank.setting_amplitudes, config.n_signal_pulses,
                       config.signal_seed)


def run_reconstruction(config, bank=None):
    """Run one adaptive reconstruction; returns (trace, report).

    Deterministic given the config: the bank and every signal record
    come from counter-based streams keyed by the two seeds.  A bank
    passed in explicitly must pass ``bank_for``'s checks.
    """
    lattice = config.lattice()
    bank = bank_for(config, lattice, bank)
    dim = lattice.n_probes - 1
    v, u = constraint_coefficients(lattice)
    constraints = LinearConstraintSet(v, u)

    post = _stiffened_prior(init_prior(dim), lattice, bank.setting_amplitudes)
    post, init_report = shear_until_physical(post, constraints, config.shearing)

    meter = signal_meter(config, bank)
    signal = meter.signal
    freqs = bank.frequencies()
    n_s = config.n_signal_pulses
    budget = bank.n_settings if config.max_settings is None else min(
        config.max_settings, bank.n_settings
    )

    s_red, c_star, residual = truth_projection(lattice, signal)
    psi = signal_fock_vector(signal)

    mean, cov = moments(post)
    var_prev = float(np.trace(cov))
    mean_prev = mean
    initial_variance = var_prev

    history = []
    records = []
    measured = []
    stop_step = None

    for k in range(1, budget + 1):
        best, predicted = select_next(
            post, freqs, n_s, measured, strict_paper=config.strict_paper_sigma,
        )
        history.append((predicted, var_prev))
        if stop_step is None and stopping_check(history, config.stopping):
            stop_step = k - 1
            if records:
                records[-1].stopping = True
            if not config.continue_past_stop:
                break
        f_meas = meter.measure_signal(best)
        post = bayes_update(
            post, freqs[best], f_meas, n_s,
            strict_paper=config.strict_paper_sigma,
        )
        mean_raw, _ = moments(post)
        eig_before = assemble_estimator(mean_raw, lattice).min_eigenvalue()
        post, shear_report = shear_until_physical(post, constraints, config.shearing)
        mean, cov = moments(post)
        eig_after = assemble_estimator(mean, lattice).min_eigenvalue()
        var_now = float(np.trace(cov))
        dmean = mean - mean_prev
        amp = bank.setting_amplitudes[best]
        records.append(StepRecord(
            step=k,
            setting_index=best,
            setting_re=float(amp.real),
            setting_im=float(amp.imag),
            predicted_variance=predicted,
            variance=var_now,
            frequency=float(f_meas),
            stopping=False,
            min_eig_before=eig_before,
            min_eig_after=eig_after,
            hs_distance=hs_distance(mean, cov, s_red, c_star, residual),
            step_change=float(dmean @ s_red @ dmean),
            shear_iterations=shear_report.iterations,
            shear_max_p=shear_report.max_p,
            shear_hit_cap=shear_report.hit_max_iterations,
            variance_increased=bool(var_now > var_prev),
        ))
        measured.append(best)
        var_prev = var_now
        mean_prev = mean

    exhausted = stop_step is None
    trace = SelectionTrace(
        records=records,
        stop_step=stop_step,
        exhausted=exhausted,
        initial_variance=initial_variance,
        initial_shear_iterations=init_report.iterations,
        initial_shear_hit_cap=init_report.hit_max_iterations,
        initial_shear_max_p=init_report.max_p,
    )

    mean, cov = moments(post)
    density = assemble_estimator(mean, lattice)
    fid = fidelity(psi, density)
    probabilities = []
    clip_excess = 0.0
    for idx in measured:
        row = freqs[idx]
        est = float((row[:-1] - row[-1]) @ mean + row[-1])
        clipped = min(1.0, max(0.0, est))
        clip_excess = max(clip_excess, abs(est - clipped))
        probabilities.append((idx, clipped, float(meter.measure_signal(idx))))
    report = EstimatorReport(
        mean=mean,
        covariance=cov,
        density=density,
        fidelity=fid,
        settings_used=len(measured),
        probabilities=probabilities,
        clip_excess=clip_excess,
        final_variance=float(np.trace(cov)),
    )
    return trace, report


def lsq_baseline(bank, signal_frequencies):
    """Unconstrained least squares over all settings at once.

    Minimizes the squared distance between measured signal frequencies
    and the pattern expansion with c_M eliminated, via normal equations
    with a 1e-10 ridge.  Positivity is not enforced; this is the
    non-adaptive reference point, not an estimator of comparable
    quality.  A rank-deficient pattern matrix is reported through a
    warning and the regularized solution is returned anyway.
    """
    if hasattr(bank, "frequencies"):
        table = bank.frequencies()
    else:
        table = np.asarray(bank, dtype=float)
    y = np.asarray(signal_frequencies, dtype=float)
    if y.size != table.shape[0]:
        raise ValueError("need one signal frequency per setting")
    g = table[:, :-1] - table[:, -1:]
    rhs = y - table[:, -1]
    gram = g.T @ g
    rank = np.linalg.matrix_rank(g)
    if rank < g.shape[1]:
        warnings.warn(f"pattern matrix rank {rank} < {g.shape[1]}; ridge solution returned")
    return np.linalg.solve(gram + 1e-10 * np.eye(g.shape[1]), g.T @ rhs)


def fit_baseline(config, lattice, bank):
    """Measure every setting once and fit ``lsq_baseline``; returns
    (coefficients, density, fidelity to the config's signal)."""
    meter = signal_meter(config, bank)
    all_freqs = np.array([meter.measure_signal(k) for k in range(bank.n_settings)])
    coeffs = lsq_baseline(bank, all_freqs)
    density = assemble_estimator(coeffs, lattice)
    return coeffs, density, fidelity(signal_fock_vector(meter.signal), density)


# ---------------------------------------------------------------------------
# export

def _blas_version():
    """Name and version of the BLAS numpy was built with, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        return None


def _git_revision():
    """Commit of the checkout this package runs from; None outside one or without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def export_report(trace, report, config, out_dir):
    """Write run.json (provenance, config, trace and estimator) plus the four
    plot-ready CSV files into out_dir; returns the path of run.json."""
    payload = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": {
            "dptomo": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_version(),
            "git_revision": _git_revision(),
        },
        "config": config.to_dict(),
        **{f.name: getattr(trace, f.name) for f in fields(trace) if f.name != "records"},
        "trace": [vars(rec).copy() for rec in trace.records],
        "estimator": {
            "mean": report.mean.tolist(),
            "covariance": report.covariance.tolist(),
            "density_re": report.density.matrix.real.tolist(),
            "density_im": report.density.matrix.imag.tolist(),
            "fidelity": report.fidelity,
            "settings_used": report.settings_used,
            "final_variance": report.final_variance,
            "clip_excess": report.clip_excess,
            "probabilities": [
                {"setting_index": i, "estimated": est, "measured": meas}
                for i, est, meas in report.probabilities
            ],
        },
    }
    return write_run(payload, out_dir)


def write_run(payload, out_dir):
    """Write an ``export_report`` document as run.json plus the four plot-ready
    CSV files into out_dir; returns the path of run.json."""
    os.makedirs(out_dir, exist_ok=True)
    run_path = os.path.join(out_dir, "run.json")
    with open(run_path, "w") as fh:
        json.dump(payload, fh, indent=1)

    per_step_csvs = {  # every StepRecord field, and two subsets for plotting
        "trace.csv": [f.name for f in fields(StepRecord)],
        "trajectory.csv": ["step", "setting_index", "setting_re", "setting_im"],
        "eigenvalues.csv": ["step", "min_eig_before", "min_eig_after"],
    }
    for name, columns in per_step_csvs.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in payload["trace"]:
                row = [rec[c] for c in columns]
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    with open(os.path.join(out_dir, "frequencies.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting_index", "estimated_probability", "measured_frequency"])
        for p in payload["estimator"]["probabilities"]:
            writer.writerow([p["setting_index"], repr(float(p["estimated"])),
                             repr(float(p["measured"]))])
    return run_path


def load_run(path):
    """Reload run.json into (config, payload): its RunConfig and the whole parsed document.

    Raises ValueError when the document is not a JSON object with a config.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("run.json must be a JSON object")
    if "config" not in payload:
        raise ValueError("run.json lacks key 'config'")
    return RunConfig.from_dict(payload["config"]), payload


# ---------------------------------------------------------------------------
# CLI

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="dptomo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override both seeds deterministically")
        p.add_argument("--out", default="out", help="output directory")

    p_bank = sub.add_parser("bank", help="pattern bank operations")
    bank_sub = p_bank.add_subparsers(dest="bank_command", required=True)
    p_gen = bank_sub.add_parser("generate", help="simulate and store a pattern bank")
    add_common(p_gen)
    p_gen.set_defaults(command_fn=_cmd_bank_generate)

    p_run = sub.add_parser("run", help="adaptive reconstruction")
    add_common(p_run)
    p_run.add_argument("--bank", help="use a stored bank instead of simulating")
    p_run.add_argument("--continue-past-stop", action="store_true")
    p_run.add_argument("--strict-paper-sigma", action="store_true")
    p_run.add_argument("--abs-deviation-shearing", action="store_true")
    p_run.set_defaults(command_fn=_cmd_run)

    p_base = sub.add_parser("baseline", help="least-squares fit from all settings")
    add_common(p_base)
    p_base.add_argument("--bank", help="use a stored bank instead of simulating")
    p_base.set_defaults(command_fn=_cmd_baseline)

    p_rep = sub.add_parser("report", help="regenerate CSV outputs from run.json")
    p_rep.add_argument("--run", required=True, help="path to run.json")
    p_rep.add_argument("--out", default="out", help="output directory")
    p_rep.set_defaults(command_fn=_cmd_report)
    return parser


def _config_from_args(args):
    if args.config:
        config = load_config(args.config)
    else:
        config = RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["bank_seed"] = args.seed
        overrides["signal_seed"] = args.seed + 1000003
    if getattr(args, "continue_past_stop", False):
        overrides["continue_past_stop"] = True
    if getattr(args, "strict_paper_sigma", False):
        overrides["strict_paper_sigma"] = True
    if getattr(args, "abs_deviation_shearing", False):
        overrides["shearing"] = replace(config.shearing, select_by_abs=True)
    return replace(config, **overrides) if overrides else config


def _cmd_bank_generate(args):
    config = _config_from_args(args)
    bank = bank_for(config, config.lattice())
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bank.json")
    save_bank(bank, path)
    export_patterns_csv(bank, os.path.join(args.out, "patterns.csv"))
    print(f"bank: {bank.n_settings} settings x {bank.n_probes} probes -> {path}")
    return 0


def _cmd_run(args):
    config = _config_from_args(args)
    bank = load_bank(args.bank) if args.bank else None
    trace, report = run_reconstruction(config, bank=bank)
    run_path = export_report(trace, report, config, args.out)
    status = "exhausted" if trace.exhausted else f"stopped after {trace.stop_step} settings"
    print(f"{status}; fidelity {report.fidelity:.4f}; "
          f"variance {report.final_variance:.3e} -> {run_path}")
    return 0


def _cmd_baseline(args):
    config = _config_from_args(args)
    lattice = config.lattice()
    bank = bank_for(config, lattice, load_bank(args.bank) if args.bank else None)
    coeffs, density, fid = fit_baseline(config, lattice, bank)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "baseline.json")
    with open(path, "w") as fh:
        json.dump({
            "config": config.to_dict(),
            "coefficients": coeffs.tolist(),
            "fidelity": fid,
            "min_eigenvalue": density.min_eigenvalue(),
        }, fh, indent=1)
    print(f"baseline fidelity {fid:.4f} from {bank.n_settings} settings -> {path}")
    return 0


def _require(doc, keys):
    for key in keys:
        if key not in doc:
            raise ValueError(f"run.json lacks key {key!r}")


def _array(doc, key):
    if not isinstance(doc[key], list):
        raise ValueError(f"run.json key {key!r} must be a JSON array")
    return doc[key]


def _cmd_report(args):
    """Rewrite a stored run.json, checked, and its CSV files into --out.

    Every value the CSV files or the status line read is checked for its
    type before anything is written.  The stored document is written back
    as it is, provenance included; only the trace keys that older versions
    did not record are filled with null.
    """
    _, payload = load_run(args.run)
    # absent from run.json files written before they were recorded
    recorded_later = ("initial_shear_hit_cap", "initial_shear_max_p")
    for name in recorded_later:
        payload.setdefault(name, None)
    scalars = [f.name for f in fields(SelectionTrace) if f.name != "records"]
    try:
        _require(payload, scalars + ["trace", "estimator"])
        unrecorded = [name for name in recorded_later if payload[name] is None]
        _read_fields(SelectionTrace, {name: payload[name] for name in scalars
                                      if name not in unrecorded}, "")
        for i, rec in enumerate(_array(payload, "trace")):
            try:
                StepRecord(**_read_fields(StepRecord, rec, ""))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"trace record {i}: {exc}") from exc
        est = payload["estimator"]
        checked = ("fidelity", "settings_used", "final_variance", "clip_excess")
        _require(est, ("mean", "covariance", "probabilities") + checked)
        _read_fields(EstimatorReport, {name: est[name] for name in checked}, "estimator.")
        for p in _array(est, "probabilities"):
            _require(p, ("setting_index", "estimated", "measured"))
            for name, kind in (("setting_index", int), ("estimated", float), ("measured", float)):
                _read_value(kind, p[name], "estimator.probabilities." + name)
    except TypeError as exc:  # e.g. an estimator or a probability that is not a JSON object
        raise ValueError(f"malformed run.json: {exc}") from exc
    write_run(payload, args.out)
    status = ("exhausted" if payload["exhausted"]
              else f"stopped after {payload['stop_step']} settings")
    print(f"{len(payload['trace'])} steps; {status}; fidelity {est['fidelity']:.4f}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.command_fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BankFormatError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ShearSolveError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
