"""End-to-end pipeline, baseline, export, and command-line contracts.

Small lattices keep each run near a second; distances are checked
against a Monte Carlo sampling oracle and the baseline against exact
construct-and-solve cases.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import dptomo
from dptomo.experiment_cli import (
    EstimatorReport,
    RunConfig,
    SelectionTrace,
    StepRecord,
    bank_for,
    export_report,
    hs_distance,
    load_config,
    load_run,
    lsq_baseline,
    main,
    run_reconstruction,
    truth_projection,
)
from dptomo.gaussian_posterior import GaussianPosterior, moments
from dptomo.measurement_selector import StoppingConfig
from dptomo.pattern_bank import simulate_probe_bank
from dptomo.quantum_model import (
    CoherentSignal,
    EvenCat,
    ProbeLattice,
    SingledPhotonFock,
    build_probe_lattice,
    coherent_overlap_prob,
    probe_gram,
    signal_born_probability,
    signal_fock_vector,
)
from dptomo.state_space_shearing import ShearingConfig, ShearSolveError


def _small_config(**overrides):
    base = dict(
        side_count=3,
        spacing=0.9,
        signal_kind="coherent",
        signal_alpha=0.45,
        n_bank_pulses=400,
        n_signal_pulses=400,
        bank_seed=3,
        signal_seed=77,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def small_run():
    config = _small_config()
    return config, run_reconstruction(config)


class TestRunConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(signal_kind="squeezed"),
            dict(n_bank_pulses=0),
            dict(n_signal_pulses=-5),
            dict(max_settings=0),
            dict(bank_seed=1.5),
            dict(bank_seed=2.0),
            dict(signal_seed=True),
            dict(spacing=float("nan")),
            dict(spacing=float("inf")),
            dict(center=complex(0.0, float("nan"))),
            dict(signal_alpha=complex(float("inf"), 0.0)),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _small_config(**overrides)

    def test_dict_round_trip(self):
        config = _small_config(
            center=0.1 + 0.2j,
            signal_kind="even_cat",
            shearing=ShearingConfig(p_threshold=0.02, max_iterations=500),
            stopping=StoppingConfig(eta=0.05, consecutive=2),
            max_settings=7,
            strict_paper_sigma=True,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_default_dict_is_pinned(self):
        # the run.json schema, key order included
        expected = {
            "side_count": 11,
            "spacing": 0.125,
            "center": [0.0, 0.0],
            "signal": {"kind": "coherent", "alpha": [0.5, 0.0]},
            "n_bank_pulses": 1000,
            "n_signal_pulses": 1000,
            "bank_seed": 1,
            "signal_seed": 1001,
            "shearing": {
                "p_threshold": 0.01,
                "p_step": 0.0025,
                "max_iterations": 20000,
                "select_by_abs": False,
            },
            "stopping": {"eta": 0.01, "consecutive": 3},
            "max_settings": None,
            "continue_past_stop": False,
            "strict_paper_sigma": False,
        }
        assert json.dumps(RunConfig().to_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("key, former, other", [
        ("epsilon_reg", 1e-06, 1e-05),
        ("null_stiffening", True, False),
        ("stiffening_tau", 5000.0, 100.0),
        ("stiffening_cutoff", 1e-06, 1e-09),
        ("gh_nodes", 32, 16),
        ("fock_n_max", 40, 5),
    ])
    def test_retired_key_loads_only_at_its_former_value(self, key, former, other):
        # configs and run.json files written while these were RunConfig fields
        config = _small_config(max_settings=4)
        assert RunConfig.from_dict({**config.to_dict(), key: former}) == config
        with pytest.raises(ValueError, match=f"'{key}'"):
            RunConfig.from_dict({**config.to_dict(), key: other})

    def test_load_config_file(self, tmp_path):
        config = _small_config(signal_alpha=0.3 + 0.1j)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        assert load_config(path) == config

    def test_signal_dispatch(self):
        assert isinstance(_small_config().signal(), CoherentSignal)
        assert isinstance(_small_config(signal_kind="fock1").signal(), SingledPhotonFock)
        assert isinstance(_small_config(signal_kind="even_cat").signal(), EvenCat)


def _distance_to_truth(post, lattice, signal):
    return hs_distance(*moments(post), *truth_projection(lattice, signal))


class TestTruthDistance:
    def _pair_lattice(self):
        return ProbeLattice(
            amplitudes=np.array([0.0 + 0j, 0.6 + 0j]), side_count=2, spacing=0.6
        )

    def test_projection_of_probe_is_indicator(self):
        lat = self._pair_lattice()
        _, c_star, residual = truth_projection(lat, CoherentSignal(0.0))
        assert abs(residual) < 1e-12
        assert np.abs(c_star - np.array([1.0])).max() < 1e-8
        # the eliminated probe maps to the all-zero free vector
        _, c_star, residual = truth_projection(lat, CoherentSignal(0.6))
        assert abs(residual) < 1e-12
        assert np.abs(c_star).max() < 1e-8

    def test_distance_vanishes_at_the_truth(self):
        lat = self._pair_lattice()
        post = GaussianPosterior(A=np.array([[5e11]]), b=np.array([0.0]))
        assert _distance_to_truth(post, lat, CoherentSignal(0.6)) < 1e-6

    def test_distance_nonnegative(self):
        lat = build_probe_lattice(3, 0.7)
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = rng.standard_normal((8, 8))
            A = q @ q.T + 0.5 * np.eye(8)
            post = GaussianPosterior(A=A, b=rng.standard_normal(8))
            assert _distance_to_truth(post, lat, EvenCat(0.5)) >= 0.0

    def test_matches_sampling_oracle(self):
        # rho(c) = c rho_0 + (1-c) rho_1; average the squared distance
        # over posterior draws of c and compare with the closed form
        lat = self._pair_lattice()
        sig = CoherentSignal(0.6)
        post = GaussianPosterior(A=np.array([[50.0]]), b=np.array([30.0]))
        closed = _distance_to_truth(post, lat, sig)
        s = probe_gram(lat)
        t = signal_born_probability(sig, lat.amplitudes)
        psi = signal_fock_vector(sig)
        purity = float(np.vdot(psi, psi).real) ** 2
        cs = np.random.default_rng(5).normal(0.3, 0.1, 200_000)
        full = np.stack([cs, 1.0 - cs], axis=1)
        sampled = np.einsum("ni,ij,nj->n", full, s, full) - 2.0 * full @ t + purity
        assert closed == pytest.approx(sampled.mean(), rel=0.01)


class TestLsqBaseline:
    def _exact_table(self):
        lat = build_probe_lattice(3, 1.0)
        return coherent_overlap_prob(lat.amplitudes[None, :], lat.amplitudes[:, None])

    def test_recovers_single_probe(self):
        table = self._exact_table()
        coeffs = lsq_baseline(table, table[:, 0])
        want = np.zeros(8)
        want[0] = 1.0
        assert np.abs(coeffs - want).max() < 1e-8

    def test_recovers_two_probe_mixture(self):
        table = self._exact_table()
        y = 0.3 * table[:, 2] + 0.7 * table[:, 5]
        coeffs = lsq_baseline(table, y)
        want = np.zeros(8)
        want[2], want[5] = 0.3, 0.7
        assert np.abs(coeffs - want).max() < 1e-8

    def test_frequency_count_validated(self):
        with pytest.raises(ValueError):
            lsq_baseline(self._exact_table(), np.ones(4))

    def test_rank_deficiency_warns(self):
        table = self._exact_table()
        table[:, 1] = table[:, 0]  # two indistinguishable probes
        with pytest.warns(UserWarning, match="rank"):
            coeffs = lsq_baseline(table, table[:, 3])
        assert coeffs.shape == (8,)

    def test_bank_object_accepted(self):
        lat = build_probe_lattice(3, 1.0)
        bank = simulate_probe_bank(lat, None, 500, 21)
        coeffs = lsq_baseline(bank, bank.frequencies()[:, 4])
        assert coeffs.shape == (8,)


# config fields a supplied bank can disagree on, and the override that does
_BANK_MISMATCHES = [("spacing", dict(spacing=0.7)), ("bank_seed", dict(bank_seed=5)),
                    ("n_bank_pulses", dict(n_bank_pulses=300))]


class TestBankFor:
    def test_simulates_or_passes_a_matching_bank(self):
        config = _small_config()
        bank = bank_for(config, config.lattice())
        again = simulate_probe_bank(build_probe_lattice(3, 0.9), None, 400, 3)
        assert np.array_equal(bank.counts, again.counts)
        assert bank_for(config, config.lattice(), again) is again

    @pytest.mark.parametrize("named, overrides", _BANK_MISMATCHES)
    def test_refuses_a_mismatched_bank(self, named, overrides):
        other = _small_config(**overrides)
        bank = bank_for(other, other.lattice())
        config = _small_config()
        with pytest.raises(ValueError, match=named):
            bank_for(config, config.lattice(), bank)


class TestPipeline:
    def test_steps_contiguous(self, small_run):
        _, (trace, _) = small_run
        assert [rec.step for rec in trace.records] == list(
            range(1, len(trace.records) + 1)
        )
        assert trace.exhausted and trace.stop_step is None

    def test_settings_never_repeat(self, small_run):
        _, (trace, _) = small_run
        chosen = [rec.setting_index for rec in trace.records]
        assert len(set(chosen)) == len(chosen)

    def test_variance_flags_consistent(self, small_run):
        _, (trace, _) = small_run
        prev = trace.initial_variance
        for rec in trace.records:
            assert rec.variance_increased == (rec.variance > prev)
            prev = rec.variance

    def test_report_contents(self, small_run):
        _, (trace, report) = small_run
        assert report.settings_used == len(trace.records)
        assert report.final_variance == trace.records[-1].variance
        for _, est, meas in report.probabilities:
            assert 0.0 <= est <= 1.0 and 0.0 <= meas <= 1.0
        m = report.density.matrix
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert 0.0 <= report.fidelity <= 1.05

    def test_initial_shear_outcome_recorded(self, small_run):
        # the first shear acts on the wide prior and runs into its cap
        # with violations well above the threshold; the trace says so
        config, (trace, _) = small_run
        assert trace.initial_shear_iterations == config.shearing.max_iterations
        assert trace.initial_shear_hit_cap is True
        assert trace.initial_shear_max_p > config.shearing.p_threshold

    def test_deterministic(self, small_run):
        config, (trace, report) = small_run
        trace2, report2 = run_reconstruction(config)
        assert [vars(a) for a in trace.records] == [vars(b) for b in trace2.records]
        assert np.array_equal(report.mean, report2.mean)
        assert report.fidelity == report2.fidelity

    def test_supplied_bank_must_match(self):
        lat = build_probe_lattice(5, 0.5)
        bank = simulate_probe_bank(lat, None, 400, 3)
        with pytest.raises(ValueError, match="match"):
            run_reconstruction(_small_config(), bank=bank)
        # the configured lattice with another seed or pulse count: run.json
        # would record a bank the run did not use
        lat = build_probe_lattice(3, 0.9)
        for bank, named in ((simulate_probe_bank(lat, None, 400, 5), "bank_seed"),
                            (simulate_probe_bank(lat, None, 300, 3), "n_bank_pulses")):
            with pytest.raises(ValueError, match=named):
                run_reconstruction(_small_config(), bank=bank)

    def test_max_settings_budget(self):
        trace, report = run_reconstruction(_small_config(max_settings=4))
        assert len(trace.records) == 4
        assert report.settings_used == 4

    def test_stopping_consistency(self):
        config = _small_config(stopping=StoppingConfig(eta=0.6, consecutive=2))
        trace, _ = run_reconstruction(config)
        assert not trace.exhausted
        assert trace.stop_step == trace.records[-1].step
        assert trace.records[-1].stopping is True

    def test_continue_past_stop_keeps_going(self):
        stopped = run_reconstruction(
            _small_config(stopping=StoppingConfig(eta=0.6, consecutive=2))
        )[0]
        full = run_reconstruction(
            _small_config(
                stopping=StoppingConfig(eta=0.6, consecutive=2),
                continue_past_stop=True,
            )
        )[0]
        assert full.stop_step == stopped.stop_step
        assert len(full.records) == 9
        # the stop decision must not disturb the measurement stream
        for a, b in zip(stopped.records, full.records):
            assert a.setting_index == b.setting_index
            assert a.frequency == b.frequency
        flags = [rec.stopping for rec in full.records]
        assert flags.count(True) == 1
        assert flags[stopped.stop_step - 1] is True


@pytest.fixture(scope="module")
def exported(small_run, tmp_path_factory):
    config, (trace, report) = small_run
    out = tmp_path_factory.mktemp("export")
    run_path = export_report(trace, report, config, out)
    return config, trace, report, out, run_path


class TestExport:
    def test_run_json_round_trip(self, exported):
        config, trace, report, _, run_path = exported
        config2, payload = load_run(run_path)
        assert config2 == config
        records = [StepRecord(**rec) for rec in payload["trace"]]
        assert [vars(r) for r in records] == [vars(r) for r in trace.records]
        assert payload["estimator"]["fidelity"] == report.fidelity
        assert payload["stop_step"] == trace.stop_step
        assert payload["initial_shear_hit_cap"] == trace.initial_shear_hit_cap
        assert payload["initial_shear_max_p"] == trace.initial_shear_max_p
        versions = payload["versions"]
        assert versions["scipy"] == scipy.__version__
        # present even where they cannot be determined (then null)
        assert "blas" in versions and "git_revision" in versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"] == f"{blas['name']} {blas['version']}"

    def test_git_revision_is_null_without_git(self, tmp_path, monkeypatch):
        import dptomo.experiment_cli as mod
        monkeypatch.setenv("PATH", str(tmp_path))
        assert mod._git_revision() is None

    def test_csv_headers_and_rows(self, exported):
        _, trace, report, out, _ = exported
        expects = {
            "trace.csv": (
                ["step", "setting_index", "setting_re", "setting_im",
                 "predicted_variance", "variance", "frequency", "stopping",
                 "min_eig_before", "min_eig_after", "hs_distance", "step_change",
                 "shear_iterations", "shear_max_p", "shear_hit_cap",
                 "variance_increased"],
                len(trace.records),
            ),
            "trajectory.csv": (
                ["step", "setting_index", "setting_re", "setting_im"],
                len(trace.records),
            ),
            "frequencies.csv": (
                ["setting_index", "estimated_probability", "measured_frequency"],
                len(report.probabilities),
            ),
            "eigenvalues.csv": (
                ["step", "min_eig_before", "min_eig_after"],
                len(trace.records),
            ),
        }
        for name, (header, n_rows) in expects.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header, name
            assert len(rows) - 1 == n_rows, name

    def test_csv_floats_exact(self, exported):
        _, trace, _, out, _ = exported
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, trace.records):
            assert float(row["variance"]) == rec.variance
            assert float(row["hs_distance"]) == rec.hs_distance
            assert int(row["setting_index"]) == rec.setting_index

    def test_report_command_reproduces_csvs(self, exported, tmp_path):
        _, _, _, out, run_path = exported
        assert main(["report", "--run", str(run_path), "--out", str(tmp_path)]) == 0
        for name in ("trace.csv", "trajectory.csv", "frequencies.csv", "eigenvalues.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_report_reads_run_json_without_initial_shear_outcome(self, exported, tmp_path):
        _, _, _, out, run_path = exported
        payload = json.loads(open(run_path).read())
        del payload["initial_shear_hit_cap"], payload["initial_shear_max_p"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        assert main(["report", "--run", str(old), "--out", str(tmp_path / "csv")]) == 0
        reloaded = json.loads((tmp_path / "csv" / "run.json").read_text())
        assert reloaded["initial_shear_hit_cap"] is None
        assert reloaded["initial_shear_max_p"] is None
        assert (tmp_path / "csv" / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "patch, named",
        [
            (lambda d: d.pop("exhausted"), "'exhausted'"),
            (lambda d: d["trace"][0].update(select_s=0.1), "'select_s'"),
            (lambda d: d["trace"][0].pop("frequency"), "'frequency'"),
            (lambda d: d.pop("config"), "'config'"),
            (lambda d: d.pop("estimator"), "'estimator'"),
            (lambda d: d["estimator"].pop("fidelity"), "'fidelity'"),
            (lambda d: d["trace"][0].update(step=[1, 2], variance="oops"), "'step'"),
            (lambda d: d["trace"][-1].update(variance="oops"), "'variance'"),
            (lambda d: d["trace"][0].update(shear_hit_cap=1), "'shear_hit_cap'"),
            (lambda d: d.update(exhausted="no"), "'exhausted'"),
            (lambda d: d.update(initial_variance=None), "'initial_variance'"),
            (lambda d: d.update(initial_shear_max_p="0.4"), "'initial_shear_max_p'"),
            (lambda d: d["estimator"].update(fidelity="0.99"), "'estimator.fidelity'"),
            (lambda d: d["estimator"].update(settings_used=9.0), "'estimator.settings_used'"),
            (lambda d: d["estimator"].update(final_variance=None), "'estimator.final_variance'"),
            (lambda d: d["estimator"].update(clip_excess=[0]), "'estimator.clip_excess'"),
            (lambda d: d["estimator"]["probabilities"][0].update(measured=True),
             "'estimator.probabilities.measured'"),
            (lambda d: d["estimator"]["probabilities"][0].update(setting_index=1.0),
             "'estimator.probabilities.setting_index'"),
            (lambda d: d.update(trace={}), "'trace'"),
            (lambda d: d["estimator"].update(probabilities={}), "'probabilities'"),
        ],
        ids=["trace-key-missing", "record-key-unknown", "record-key-missing",
             "config-missing", "estimator-missing", "estimator-key-missing",
             "record-list-and-string", "record-string", "record-int-for-bool",
             "exhausted-string", "variance-null", "max-p-string", "fidelity-string",
             "settings-used-float", "final-variance-null", "clip-excess-list",
             "measured-bool", "setting-index-float", "trace-object", "probabilities-object"],
    )
    def test_report_refuses_malformed_trace(self, exported, tmp_path, capsys, patch, named):
        _, _, _, _, run_path = exported
        payload = json.loads(open(run_path).read())
        patch(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["report", "--run", str(bad), "--out", str(tmp_path / "csv")]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "csv").exists()  # refused before anything is written

    def test_report_refuses_non_object_run_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2]))
        assert main(["report", "--run", str(bad), "--out", str(tmp_path / "csv")]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "JSON object" in err
        assert "Traceback" not in err

    def test_report_reads_run_json_with_epsilon_total(self, exported, tmp_path):
        # run.json files written while ShearingConfig had epsilon_total carry it
        config, _, _, out, run_path = exported
        payload = json.loads(open(run_path).read())
        payload["config"]["shearing"]["epsilon_total"] = 0.01
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        assert load_run(old)[0] == config
        assert main(["report", "--run", str(old), "--out", str(tmp_path / "csv")]) == 0
        for name in ("trace.csv", "trajectory.csv", "frequencies.csv", "eigenvalues.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (out / name).read_bytes()

    def test_report_into_the_run_directory_keeps_its_provenance(self, exported, tmp_path):
        _, _, _, out, run_path = exported
        payload = json.loads(open(run_path).read())
        payload["generated_at"] = "2020-01-01T00:00:00+00:00"
        payload["versions"]["git_revision"] = "abc123-original"
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "run.json").write_text(json.dumps(payload))
        assert main(["report", "--run", str(run_dir / "run.json"), "--out", str(run_dir)]) == 0
        again = json.loads((run_dir / "run.json").read_text())
        for key in ("generated_at", "versions", "config"):
            assert again[key] == payload[key], key
        assert (run_dir / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()

    def test_export_deterministic_modulo_timestamp(self, exported, tmp_path):
        config, trace, report, _, run_path = exported
        second = export_report(trace, report, config, tmp_path)
        a = json.loads(open(run_path).read())
        b = json.loads(open(second).read())
        a.pop("generated_at"), b.pop("generated_at")
        assert a == b


class TestCommandLine:
    def _config_file(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_small_config(**overrides).to_dict()))
        return str(path)

    def test_bank_generate_then_run(self, tmp_path):
        cfg = self._config_file(tmp_path)
        out = tmp_path / "bank"
        assert main(["bank", "generate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "bank.json").exists() and (out / "patterns.csv").exists()
        run_out = tmp_path / "run"
        code = main(["run", "--config", cfg, "--bank", str(out / "bank.json"),
                     "--out", str(run_out)])
        assert code == 0
        assert (run_out / "run.json").exists()

    def test_run_writes_outputs(self, tmp_path):
        cfg = self._config_file(tmp_path, max_settings=3)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        config, payload = load_run(out / "run.json")
        assert config.max_settings == 3
        assert len(payload["trace"]) == 3

    def test_seed_override_derives_both_seeds(self, tmp_path):
        cfg = self._config_file(tmp_path, max_settings=2)
        out = tmp_path / "seeded"
        assert main(["run", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
        config, _ = load_run(out / "run.json")
        assert config.bank_seed == 9
        assert config.signal_seed == 9 + 1000003

    def test_out_of_range_signal_seed_refused_before_any_work(self, tmp_path, monkeypatch,
                                                             capsys):
        # the bank seed 2**63 - 1 is valid, the derived signal seed is not
        import dptomo.experiment_cli as mod
        def no_bank(*args, **kwargs):
            raise AssertionError("bank simulated before the seeds were checked")
        monkeypatch.setattr(mod, "simulate_probe_bank", no_bank)
        cfg = self._config_file(tmp_path)
        code = main(["run", "--config", cfg, "--seed", str(2**63 - 1),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and str(2**63 - 1 + 1000003) in err

    def test_baseline_command(self, tmp_path):
        cfg = self._config_file(tmp_path)
        out = tmp_path / "base"
        assert main(["baseline", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "baseline.json").read_text())
        assert len(payload["coefficients"]) == 8
        assert 0.0 <= payload["fidelity"] <= 1.1

    def test_mismatched_bank_is_validation_error(self, tmp_path, capsys):
        cfg5 = self._config_file(tmp_path, side_count=5, spacing=0.5)
        bank_out = tmp_path / "bank5"
        assert main(["bank", "generate", "--config", cfg5, "--out", str(bank_out)]) == 0
        cfg3 = str(tmp_path / "cfg3.json")
        with open(cfg3, "w") as fh:
            json.dump(_small_config().to_dict(), fh)
        code = main(["run", "--config", cfg3, "--bank", str(bank_out / "bank.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("named, overrides", _BANK_MISMATCHES)
    def test_baseline_refuses_mismatched_bank(self, tmp_path, capsys, named, overrides):
        bank_out = tmp_path / "bank"
        other = self._config_file(tmp_path, **overrides)
        assert main(["bank", "generate", "--config", other, "--out", str(bank_out)]) == 0
        cfg = self._config_file(tmp_path)
        code = main(["baseline", "--config", cfg, "--bank", str(bank_out / "bank.json"),
                     "--out", str(tmp_path / "base")])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err
        assert not (tmp_path / "base").exists()

    def test_bad_config_value_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = _small_config().to_dict()
        data["signal"]["kind"] = "squeezed"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, named",
        [
            (lambda d: {**d, "gh_node": 16}, "'gh_node'"),
            (lambda d: {**d, "signal": {**d["signal"], "phase": 0.1}}, "'signal.phase'"),
            (lambda d: {**d, "shearing": {**d["shearing"], "p_stop": 0.1}}, "'shearing.p_stop'"),
            (lambda d: {**d, "stopping": {**d["stopping"], "patience": 2}}, "'stopping.patience'"),
            (lambda d: {**d, "signal": {**d["signal"], "alpha": 0.5}}, "'signal.alpha'"),
            (lambda d: {**d, "side_count": "11"}, "'side_count'"),
            (lambda d: {**d, "side_count": 11.0}, "'side_count'"),
            (lambda d: [d], "JSON object"),
            (lambda d: {**d, "signal": {**d["signal"], "alpha": [float("inf"), 0]}},
             "signal_alpha must be finite"),
            (lambda d: {**d, "spacing": float("nan")}, "spacing must be finite"),
        ],
        ids=["top-key", "signal-key", "shearing-key", "stopping-key",
             "alpha-number", "side-count-string", "side-count-float", "top-list",
             "alpha-infinite", "spacing-nan"],
    )
    def test_malformed_config_is_validation_error(self, tmp_path, capsys, patch, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(patch(_small_config().to_dict())))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err
        assert "Traceback" not in err

    def test_module_entry_point_runs_without_warning(self):
        # the package must not import experiment_cli before runpy executes it
        src = os.path.dirname(os.path.dirname(os.path.abspath(dptomo.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        for module in ("dptomo.experiment_cli", "dptomo"):
            proc = subprocess.run([sys.executable, "-m", module, "--help"],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "RuntimeWarning" not in proc.stderr
            assert "usage: dptomo" in proc.stdout

    @pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}],
                             ids=["unset", "user-set"])
    def test_entry_point_defaults_blas_to_one_thread(self, tmp_path, preset):
        src = os.path.dirname(os.path.dirname(os.path.abspath(dptomo.__file__)))
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env.update(preset, PYTHONPATH=src)
        script = (
            "import json, os, sys\n"
            "from dptomo.__main__ import main\n"
            "assert 'numpy' not in sys.modules\n"
            "code = main(['report', '--run', 'absent.json'])\n"
            "assert 'numpy' in sys.modules\n"
            f"print(json.dumps([code] + [os.environ.get(v) for v in {names!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, *values = json.loads(proc.stdout.splitlines()[-1])
        assert code == 2  # the CLI ran: an absent run.json is an i/o error
        assert values == [preset.get(v, "1") for v in names]

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import dptomo.experiment_cli as mod
        def boom(config, bank=None):
            raise ShearSolveError("forced")
        monkeypatch.setattr(mod, "run_reconstruction", boom)
        cfg = self._config_file(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
