"""Simulated measurement records: probe pattern banks and signal clicks.

A pattern bank holds the no-click/click counts obtained by firing every
probe state at every measurement setting.  Counts are generated from
counter-based Philox streams keyed per (seed, cell), so any sub-block of
the bank is reproducible on its own and the order in which cells are
filled never matters.  The same policy covers signal measurements, keyed
per (seed, setting).

The policy fixes every count: each draw reads the stream
``Generator(Philox(key=[seed, index]))`` from counter zero.  A bank build
and each ``SignalMeter`` own one Philox and re-key it before every draw
by assigning its full state, which gives the same bits as a generator
per draw at about a fifth of the cost.

Persistence is a small JSON schema plus a CSV export of the frequency
table for plotting.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .quantum_model import coherent_overlap_prob, signal_born_probability

SCHEMA_VERSION = 1


class BankFormatError(ValueError):
    """A stored bank that cannot be interpreted."""


class SchemaVersionError(BankFormatError):
    """Stored schema_version is not the one this code writes."""


class DimensionMismatchError(BankFormatError):
    """Counts array inconsistent with the amplitude lists."""


class CountRangeError(BankFormatError):
    """A click count outside [0, N_p]."""


def check_seed(seed):
    """Refuse a seed that is not an integer (a bool is not one) or lies outside
    [-2**63, 2**63): a float would replay the streams of its integer part, and
    Philox would read a seed outside the range through float64."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed {seed!r} is not an integer")
    if not -2**63 <= int(seed) < 2**63:
        raise ValueError(f"seed {seed} outside [-2**63, 2**63)")


class _KeyedBinomial:
    """Binomial sampler whose draw ``index`` reads stream (seed, index).

    ``self(index, n, p)`` equals
    ``Generator(Philox(key=[seed, index])).binomial(n, p)``: the one bit
    generator is reset to key (seed, index), counter zero, an empty
    buffer and no cached half-word before every draw, so neither call
    order nor earlier draws change a result.  The key's first word is
    taken from Philox's own parsing of ``[seed, 0]``, which wraps negative
    seeds; seeds outside [-2**63, 2**63), which it would read through
    float64 into shared streams, raise ValueError.  A class, not a closure,
    so that a ``SignalMeter`` still pickles.
    """

    def __init__(self, seed):
        check_seed(seed)
        self._gen = np.random.Generator(np.random.Philox(key=[int(seed), 0]))
        self._state = self._gen.bit_generator.state

    def __call__(self, index, n, p):
        self._state["state"]["key"][1] = index
        self._gen.bit_generator.state = self._state
        return self._gen.binomial(n, p)


@dataclass
class PatternBank:
    """Click counts for every (setting, probe) pair.

    ``counts[k, m]`` is the number of clicks out of ``n_pulses`` copies
    of probe m measured at setting k.
    """

    probe_amplitudes: np.ndarray
    setting_amplitudes: np.ndarray
    counts: np.ndarray
    n_pulses: int
    seed: int

    def __post_init__(self):
        self.probe_amplitudes = np.asarray(self.probe_amplitudes, dtype=complex)
        self.setting_amplitudes = np.asarray(self.setting_amplitudes, dtype=complex)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k, m = self.setting_amplitudes.size, self.probe_amplitudes.size
        if self.counts.shape != (k, m):
            raise DimensionMismatchError(
                f"counts shape {self.counts.shape} does not match {k} settings x {m} probes"
            )
        if self.counts.min(initial=0) < 0 or self.counts.max(initial=0) > self.n_pulses:
            raise CountRangeError(f"counts must lie in [0, {self.n_pulses}]")

    @property
    def n_settings(self):
        return self.setting_amplitudes.size

    @property
    def n_probes(self):
        return self.probe_amplitudes.size

    def frequencies(self):
        """Relative frequencies f_{km} = counts / n_pulses."""
        return self.counts / float(self.n_pulses)


def simulate_probe_bank(lattice, settings=None, n_pulses=1000, seed=0):
    """Generate the full bank of probe-vs-setting click counts.

    ``settings``, an array of displacement amplitudes, defaults to the
    probe lattice itself (the usual square arrangement where every probe
    amplitude doubles as a displacement setting).  Cell (k, m) draws
    Binomial(n_pulses, exp(-|a_m - b_k|^2)) from its own stream keyed by
    (seed, k * n_probes + m), read from counter zero; one re-keyed Philox
    serves every cell of the call.
    """
    probes = lattice.amplitudes
    setting_amps = probes.copy() if settings is None else np.asarray(settings, dtype=complex)
    p = coherent_overlap_prob(probes[None, :], setting_amps[:, None])
    draw = _KeyedBinomial(seed)
    # the row-major flat index of cell (k, m) is its key word k * n_probes + m
    counts = np.fromiter((draw(i, n_pulses, pk) for i, pk in enumerate(p.flat)),
                         dtype=np.int64, count=p.size).reshape(p.shape)
    return PatternBank(
        probe_amplitudes=probes,
        setting_amplitudes=setting_amps,
        counts=counts,
        n_pulses=n_pulses,
        seed=seed,
    )


@dataclass
class SignalMeter:
    """Simulated signal source measured one setting at a time.

    Each setting index has its own Philox stream, keyed (seed, setting)
    and read from counter zero through one re-keyed generator, so a
    reconstruction may ask for the same setting repeatedly (or in any
    order) and always see one consistent experimental record.
    """

    signal: object
    setting_amplitudes: np.ndarray
    n_pulses: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.setting_amplitudes = np.asarray(self.setting_amplitudes, dtype=complex)
        self._probs = np.clip(signal_born_probability(self.signal, self.setting_amplitudes), 0.0, 1.0)
        self._draw = _KeyedBinomial(self.seed)

    def measure_signal(self, setting_index):
        """Observed click frequency F_k at one setting, from N_s pulses."""
        k = int(setting_index)
        if k < 0 or k >= self.setting_amplitudes.size:
            raise IndexError(f"setting index {k} outside bank of {self.setting_amplitudes.size}")
        return self._draw(k, self.n_pulses, self._probs[k]) / float(self.n_pulses)


# ---------------------------------------------------------------------------
# persistence

def save_bank(bank, path):
    """Write the bank to JSON with integer counts (lossless round trip)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "N_p": int(bank.n_pulses),
        "seed": int(bank.seed),
        "probe_amplitudes": [[float(a.real), float(a.imag)] for a in bank.probe_amplitudes],
        "setting_amplitudes": [[float(a.real), float(a.imag)] for a in bank.setting_amplitudes],
        "counts": bank.counts.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _amplitudes(pairs):
    """Complex amplitudes from save_bank's [re, im] pairs of finite numbers; complex()
    alone would also take a bool, and json reads NaN and Infinity as floats."""
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                for x in pair)):
            raise BankFormatError(f"amplitude {pair!r} is not a pair of finite numbers")
    return np.array([complex(re, im) for re, im in pairs])


def load_bank(path):
    """Read a bank back, refusing files this code cannot have written.

    Raises SchemaVersionError, DimensionMismatchError or CountRangeError
    depending on what is wrong, all subclasses of BankFormatError, and
    BankFormatError itself for a seed, N_p or count that is not an integer
    (or an N_p below 1) and for an amplitude that is not a pair of finite
    numbers.
    """
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(f"schema_version {version!r}, expected {SCHEMA_VERSION}")
    try:
        n_pulses = payload["N_p"]
        seed = payload["seed"]
        check_seed(seed)
        probes = _amplitudes(payload["probe_amplitudes"])
        settings = _amplitudes(payload["setting_amplitudes"])
        counts = np.asarray(payload["counts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BankFormatError(f"malformed bank file: {exc}") from exc
    # save_bank writes integers; truncating anything else would load another bank
    if isinstance(n_pulses, bool) or not isinstance(n_pulses, int) or n_pulses < 1:
        raise BankFormatError(f"N_p must be a positive integer, got {n_pulses!r}")
    if counts.size and counts.dtype.kind != "i":
        raise BankFormatError(f"counts must be integers, got {counts.dtype} values")
    return PatternBank(
        probe_amplitudes=probes,
        setting_amplitudes=settings,
        counts=counts,
        n_pulses=n_pulses,
        seed=seed,
    )


def export_patterns_csv(bank, path):
    """Frequency table as CSV: header of probe indices, one row per setting."""
    f = bank.frequencies()
    with open(path, "w") as fh:
        fh.write("setting," + ",".join(str(m) for m in range(bank.n_probes)) + "\n")
        for k in range(bank.n_settings):
            fh.write(str(k) + "," + ",".join(repr(float(x)) for x in f[k]) + "\n")
