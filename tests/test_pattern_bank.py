import hashlib
import json

import numpy as np
import pytest

from dptomo.pattern_bank import (
    BankFormatError,
    CountRangeError,
    DimensionMismatchError,
    PatternBank,
    SchemaVersionError,
    SignalMeter,
    export_patterns_csv,
    load_bank,
    save_bank,
    simulate_probe_bank,
)
from dptomo.quantum_model import CoherentSignal, build_probe_lattice, coherent_overlap_prob

from helpers import true_probability


@pytest.fixture(scope="module")
def small_bank():
    lat = build_probe_lattice(3, 1.0, 0.0)
    return simulate_probe_bank(lat, None, n_pulses=1000, seed=42)


def test_bank_shape_and_range(small_bank):
    assert small_bank.counts.shape == (9, 9)
    assert small_bank.counts.min() >= 0
    assert small_bank.counts.max() <= 1000
    f = small_bank.frequencies()
    assert f.dtype == float and f.max() <= 1.0


def test_bank_reproducible(small_bank):
    lat = build_probe_lattice(3, 1.0, 0.0)
    again = simulate_probe_bank(lat, None, n_pulses=1000, seed=42)
    assert np.array_equal(small_bank.counts, again.counts)
    other = simulate_probe_bank(lat, None, n_pulses=1000, seed=43)
    assert not np.array_equal(small_bank.counts, other.counts)


def test_bank_frequencies_track_exact_patterns(small_bank):
    lat = build_probe_lattice(3, 1.0, 0.0)
    p = coherent_overlap_prob(lat.amplitudes[None, :], lat.amplitudes[:, None])
    err = np.abs(small_bank.frequencies() - p)
    # binomial at N=1000: a few sigma of sqrt(p q / N) ~ 0.016
    assert err.max() < 0.06
    assert err.mean() < 0.02


def test_diagonal_cells_are_certain(small_bank):
    # probe measured at its own displacement clicks every time
    assert np.array_equal(np.diag(small_bank.counts), np.full(9, 1000))


def test_custom_settings_list():
    lat = build_probe_lattice(3, 1.0, 0.0)
    settings = np.array([0.0 + 0.0j, 0.5 + 0.5j])
    bank = simulate_probe_bank(lat, settings, n_pulses=500, seed=7)
    assert bank.counts.shape == (2, 9)
    assert bank.n_pulses == 500


# Every draw is pinned to the stream the docstrings promise, so a faster
# sampler cannot silently change the data.  -1 and -2**63 exercise Philox's
# wrapping of negative seeds, 2**63 - 1 the largest seed accepted.
PINNED_SEEDS = (42, -1, -2**63, 2**63 - 1)


def _stream_binomial(seed, index, n, p):
    return np.random.Generator(np.random.Philox(key=[seed, index])).binomial(n, p)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_bank_cells_equal_their_keyed_streams(seed):
    lat = build_probe_lattice(3, 0.5, 0.0)
    settings = np.array([0.0, 0.3 + 0.1j, -0.2j, 0.6 - 0.4j, 1.0])
    bank = simulate_probe_bank(lat, settings, n_pulses=400, seed=seed)
    p = coherent_overlap_prob(lat.amplitudes[None, :], settings[:, None])
    n_settings, n_probes = p.shape
    expected = [
        [_stream_binomial(seed, k * n_probes + m, 400, p[k, m]) for m in range(n_probes)]
        for k in range(n_settings)
    ]
    assert np.array_equal(bank.counts, expected)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_meter_draws_equal_their_keyed_streams(seed):
    lat = build_probe_lattice(3, 1.0, 0.0)
    meter = SignalMeter(signal=CoherentSignal(0.5), setting_amplitudes=lat.amplitudes,
                        n_pulses=1000, seed=seed)
    got = {}
    for k in (7, 2, 8, 0, 5, 3, 1, 6, 4):
        # a bank build between queries must not disturb the meter's streams
        simulate_probe_bank(lat, None, n_pulses=1000, seed=seed)
        got[k] = meter.measure_signal(k)
    for k, f in got.items():
        n = _stream_binomial(seed, k, 1000, true_probability(meter, k))
        assert f == n / 1000.0


@pytest.mark.parametrize("seed", [2**63, 2**63 + 5, 2**64 - 1])
def test_seeds_beyond_int64_are_refused(seed):
    # Philox would read these through float64: 2**63 and 2**63 + 5 would
    # share a stream, and 2**64 - 1 would replay seed 0's
    lat = build_probe_lattice(3, 1.0, 0.0)
    with pytest.raises(ValueError, match="seed"):
        simulate_probe_bank(lat, None, n_pulses=10, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        SignalMeter(signal=CoherentSignal(0.5), setting_amplitudes=lat.amplitudes,
                    n_pulses=10, seed=seed)


def test_small_bank_counts_are_pinned(small_bank):
    # SHA-256 of the little-endian int64 counts of the 3x3, seed-42 bank
    digest = hashlib.sha256(small_bank.counts.astype("<i8").tobytes()).hexdigest()
    assert digest == "eedd9dd192c2ef60b4e0ef5bbc5f742585bf392759d2b71926a88b0d32961160"


# ---------------------------------------------------------------------------
# signal meter

def test_meter_caches_and_is_order_independent():
    lat = build_probe_lattice(3, 1.0, 0.0)
    sig = CoherentSignal(0.5)
    m1 = SignalMeter(signal=sig, setting_amplitudes=lat.amplitudes, n_pulses=1000, seed=9)
    m2 = SignalMeter(signal=sig, setting_amplitudes=lat.amplitudes, n_pulses=1000, seed=9)
    a = [m1.measure_signal(k) for k in (5, 1, 7, 1, 5)]
    b = [m2.measure_signal(k) for k in (1, 5, 7, 5, 1)]
    # same settings give the same frequencies regardless of order,
    # and repeats hit the cache
    assert a[0] == b[1] == a[4]
    assert a[1] == b[0] == b[4]
    assert a[2] == b[2]


def test_meter_seed_changes_record():
    lat = build_probe_lattice(3, 1.0, 0.0)
    sig = CoherentSignal(0.5)
    m1 = SignalMeter(signal=sig, setting_amplitudes=lat.amplitudes, n_pulses=1000, seed=1)
    m2 = SignalMeter(signal=sig, setting_amplitudes=lat.amplitudes, n_pulses=1000, seed=2)
    vals1 = [m1.measure_signal(k) for k in range(9)]
    vals2 = [m2.measure_signal(k) for k in range(9)]
    assert vals1 != vals2


def test_meter_rejects_bad_index():
    lat = build_probe_lattice(3, 1.0, 0.0)
    m = SignalMeter(signal=CoherentSignal(0.0), setting_amplitudes=lat.amplitudes)
    with pytest.raises(IndexError):
        m.measure_signal(9)


def test_meter_frequencies_near_truth():
    lat = build_probe_lattice(3, 1.0, 0.0)
    sig = CoherentSignal(0.5)
    m = SignalMeter(signal=sig, setting_amplitudes=lat.amplitudes, n_pulses=1000, seed=3)
    for k in range(9):
        assert abs(m.measure_signal(k) - true_probability(m, k)) < 0.06


# ---------------------------------------------------------------------------
# persistence

def test_round_trip_is_lossless(tmp_path, small_bank):
    path = tmp_path / "bank.json"
    save_bank(small_bank, path)
    again = load_bank(path)
    assert np.array_equal(again.counts, small_bank.counts)
    assert np.array_equal(again.probe_amplitudes, small_bank.probe_amplitudes)
    assert np.array_equal(again.setting_amplitudes, small_bank.setting_amplitudes)
    assert again.n_pulses == small_bank.n_pulses
    assert again.seed == small_bank.seed
    # byte-stable too: saving the reloaded bank reproduces the file
    path2 = tmp_path / "bank2.json"
    save_bank(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def _tampered(path, bank, mutate):
    save_bank(bank, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    return path


def test_load_rejects_schema_version(tmp_path, small_bank):
    p = _tampered(tmp_path / "b.json", small_bank, lambda d: d.update(schema_version=99))
    with pytest.raises(SchemaVersionError):
        load_bank(p)


def test_load_rejects_dimension_mismatch(tmp_path, small_bank):
    def chop(d):
        d["counts"] = [row[:-1] for row in d["counts"]]

    p = _tampered(tmp_path / "b.json", small_bank, chop)
    with pytest.raises(DimensionMismatchError):
        load_bank(p)


def test_load_rejects_counts_beyond_pulses(tmp_path, small_bank):
    def inflate(d):
        d["counts"][0][0] = d["N_p"] + 1

    p = _tampered(tmp_path / "b.json", small_bank, inflate)
    with pytest.raises(CountRangeError):
        load_bank(p)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(seed=3.9),
        lambda d: d.update(seed=True),
        lambda d: d.update(seed="3"),
        lambda d: d.update(N_p=d["N_p"] + 0.6),
        lambda d: d.update(N_p=0, counts=[[0] * len(row) for row in d["counts"]]),
        lambda d: d["counts"][0].__setitem__(0, 100.7),
        lambda d: d["probe_amplitudes"].__setitem__(0, [True, False]),
        lambda d: d["setting_amplitudes"].__setitem__(0, [0.0, True]),
        lambda d: d["probe_amplitudes"].__setitem__(0, [0.1]),
        lambda d: d["setting_amplitudes"].__setitem__(0, [0.1, 0.0, 0.0]),
        lambda d: d["probe_amplitudes"].__setitem__(0, 0.1),
        lambda d: d["setting_amplitudes"].__setitem__(0, ["0.1", 0.0]),
        lambda d: d["probe_amplitudes"].__setitem__(0, [None, 0.0]),
        lambda d: d["setting_amplitudes"].__setitem__(0, [[0.1], 0.0]),
        lambda d: d["probe_amplitudes"].__setitem__(0, [float("nan"), 0.0]),
    ],
    ids=["seed-float", "seed-bool", "seed-string", "n-p-float", "n-p-zero", "count-float",
         "probe-bool", "setting-bool", "amplitude-one-number", "amplitude-three-numbers",
         "amplitude-bare-number", "amplitude-string", "amplitude-null", "amplitude-nested",
         "amplitude-nan"],
)
def test_load_refuses_values_it_would_truncate(tmp_path, small_bank, mutate):
    # save_bank writes integers and [re, im] pairs of numbers only; int() or
    # complex() (which reads true as 1) would have loaded another bank
    p = _tampered(tmp_path / "b.json", small_bank, mutate)
    with pytest.raises(BankFormatError):
        load_bank(p)


def test_distinct_errors_share_base_class():
    for exc in (SchemaVersionError, DimensionMismatchError, CountRangeError):
        assert issubclass(exc, BankFormatError)
        assert issubclass(exc, ValueError)


def test_negative_counts_rejected_at_construction():
    with pytest.raises(CountRangeError):
        PatternBank(
            probe_amplitudes=np.array([0.0j]),
            setting_amplitudes=np.array([0.0j]),
            counts=np.array([[-1]]),
            n_pulses=10,
            seed=0,
        )


def test_csv_export_layout(tmp_path, small_bank):
    path = tmp_path / "patterns.csv"
    export_patterns_csv(small_bank, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "setting," + ",".join(str(m) for m in range(9))
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[0] == "0"
    parsed = np.array([float(x) for x in first[1:]])
    assert np.allclose(parsed, small_bank.frequencies()[0])
