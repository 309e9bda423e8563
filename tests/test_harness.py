"""Experiment engine: spec resolution, aggregation, runners, file output."""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from lis_uplink import (
    ConfigError,
    ExperimentSpec,
    RawRecord,
    RunConfig,
    preset_run_config,
    run_asymptotic,
    run_experiment,
    summarize,
    write_outputs,
)
from lis_uplink import harness as hz
from lis_uplink.cli import main


def _rec(sweep, label, value, p=0, b=0):
    return RawRecord(sweep_value=sweep, label=label, placement=p,
                     realization=b, value=value)


def _row(summaries, label, sweep):
    hits = [s for s in summaries if s.label == label and s.sweep_value == float(sweep)]
    assert len(hits) == 1, f"expected one row for ({label!r}, {sweep})"
    return hits[0]


def _shrunk(exp_id, seed=0, *, sweep=None, realizations=None, placements=None,
            **system_kw):
    """Preset config cut down to test scale."""
    rc = preset_run_config(exp_id, seed=seed)
    exp_kw = {}
    if sweep is not None:
        exp_kw["sweep_values"] = tuple(sweep)
    if realizations is not None:
        exp_kw["realizations"] = realizations
    if placements is not None:
        exp_kw["placements"] = placements
    if exp_kw:
        rc = dataclasses.replace(rc, experiment=dataclasses.replace(rc.experiment, **exp_kw))
    if system_kw:
        rc = dataclasses.replace(rc, system=dataclasses.replace(rc.system, **system_kw))
    return rc


class TestSummarize:
    def test_group_stats_exact(self):
        records = [
            _rec(1.0, "b", 10.0, b=0),
            _rec(2.0, "a", 7.0),
            _rec(1.0, "a", 1.0, b=0),
            _rec(1.0, "a", 2.0, b=1),
            _rec(1.0, "b", 14.0, b=1),
            _rec(1.0, "a", 3.0, b=2),
            _rec(1.0, "a", 4.0, b=3),
        ]
        out = summarize(records)
        assert [(s.label, s.sweep_value) for s in out] == [
            ("a", 1.0), ("a", 2.0), ("b", 1.0)]

        a1 = _row(out, "a", 1.0)
        assert a1.count == 4
        assert a1.mean == 2.5
        assert math.isclose(a1.variance, 5.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(a1.stderr, math.sqrt(5.0 / 12.0), rel_tol=1e-15)

        b1 = _row(out, "b", 1.0)
        assert (b1.mean, b1.variance, b1.stderr, b1.count) == (12.0, 8.0, 2.0, 2)

    def test_single_sample_group_has_zero_spread(self):
        (s,) = summarize([_rec(2.0, "a", 7.0)])
        assert (s.variance, s.stderr, s.count, s.mean) == (0.0, 0.0, 1, 7.0)

    def test_input_order_does_not_matter(self):
        records = [_rec(float(v % 3), "c", float(v), b=v) for v in range(12)]
        assert summarize(records) == summarize(list(reversed(records)))

    def test_empty(self):
        assert summarize([]) == []


class TestSpecResolution:
    @pytest.mark.parametrize("exp_id", list(hz.EXPERIMENTS))
    def test_defaults_fill_empty_sweep(self, exp_id):
        spec = ExperimentSpec.from_run_config(preset_run_config(exp_id))
        assert spec.experiment.sweep_values == hz.EXPERIMENTS[exp_id].grid
        expect_regime = "nlos_inter" if exp_id in ("fig6", "fig6b") else "rician"
        assert spec.experiment.interference == expect_regime

    def test_explicit_interference_wins_over_id_default(self):
        rc = preset_run_config("fig6")
        rc = dataclasses.replace(
            rc, experiment=dataclasses.replace(rc.experiment, interference="rician"))
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.interference == "rician"

    def test_custom_sweep_values_kept(self):
        rc = _shrunk("fig5", sweep=(16.0, 36.0))
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.sweep_values == (16, 36)
        assert all(type(v) is int for v in spec.experiment.sweep_values)

    def test_custom_device_count_grid_kept(self):
        rc = preset_run_config("fig8")
        rc = dataclasses.replace(
            rc,
            experiment=dataclasses.replace(rc.experiment, sweep_values=(2.0, 4.0)),
        )
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.sweep_values == (2, 4)

    def test_theory_stride_resolved_per_experiment(self):
        def stride(exp_id, **exp_kw):
            rc = preset_run_config(exp_id)
            rc = dataclasses.replace(rc, experiment=dataclasses.replace(rc.experiment, **exp_kw))
            return ExperimentSpec.from_run_config(rc).experiment.theory_stride

        assert stride("fig5", realizations=24) == 3
        assert stride("fig6", realizations=5) == 1
        assert stride("fig7", realizations=24, theory_stride=0) == 12
        assert stride("fig7", theory_stride=5) == 5
        assert stride("fig4") == 0  # no theory curves

    def test_pilot_sweep_bounds_enforced(self):
        rc = preset_run_config("fig7")
        rc = dataclasses.replace(
            rc,
            experiment=dataclasses.replace(rc.experiment, sweep_values=(4.0, 501.0)),
        )
        with pytest.raises(ConfigError, match=r"\[8, 500\]") as err:
            ExperimentSpec.from_run_config(rc)
        assert err.value.key == "experiment.sweep_values"

    def test_resolution_is_idempotent(self):
        spec = ExperimentSpec.from_run_config(preset_run_config("fig6", seed=9))
        again = ExperimentSpec.from_run_config(spec)
        assert again == spec
        assert spec.system.seed == 9


class TestResolveWorkers:
    def test_default_is_serial(self):
        for runner in (hz.run_experiment, hz.run_asymptotic):
            assert inspect.signature(runner).parameters["workers"].default == 1

    def test_values_clamped_to_one(self):
        # counts below one run serially (a lambda would not survive a pool)
        for workers in (0, -4):
            assert hz._pmap(lambda x: x + 1, [1, 2, 3], workers) == [2, 3, 4]

    def test_serial_map_paths(self):
        assert hz._pmap(lambda x: x + 1, [1, 2, 3], 1) == [2, 3, 4]
        # a single task never spawns a pool (a lambda would not survive one)
        assert hz._pmap(lambda x: x * 2, [5], 8) == [10]


class TestPanelZeroSlice:
    def test_slice_shares_draw_content(self):
        rng = hz._unit_rng(0, 0, 0, 0, 0)
        draw = hz.draw_unit_block(rng, 3, 2, 4, 16)
        cut = hz._draw_prefix(draw, N=1)
        assert cut.coins.shape[0] == 1 and cut.angles.shape[0] == 1
        assert cut.g.shape[0] == 1
        assert np.array_equal(cut.coins, draw.coins[:1])
        assert np.array_equal(cut.angles, draw.angles[:1])
        assert np.array_equal(cut.g, draw.g[:1])
        assert np.shares_memory(cut.g, draw.g)
        assert cut.w is draw.w

    def test_device_prefix_keeps_every_panel(self):
        draw = hz.draw_unit_block(hz._unit_rng(0, 0, 0, 0, 0), 3, 4, 2, 16)
        cut = hz._draw_prefix(draw, K=2)
        assert cut.coins.shape == (3, 2) and cut.angles.shape == (3, 2, 2, 2)
        assert np.array_equal(cut.g, draw.g[:, :2])
        assert np.shares_memory(cut.g, draw.g)
        assert cut.w is draw.w


class TestRunExperiment:
    def test_se_variance_smoke(self):
        rc = _shrunk("fig4", seed=3, sweep=(16.0, 64.0), realizations=40,
                     placements=2)
        result = run_experiment(rc)
        labels = {s.label for s in result.summaries}
        assert labels == {"multi-LIS SE variance", "single-LIS SE variance"}
        for label in labels:
            for M in (16.0, 64.0):
                # one within-drop variance record per placement
                row = _row(result.summaries, label, M)
                assert row.count == 2
                assert math.isfinite(row.mean) and row.mean > 0.0
        for rec in result.records:
            assert rec.realization == 0
            assert rec.value >= 0.0
        assert len(result.extras["placements"]) == 2
        for per_placement in result.extras["placements"]:
            for label in labels:
                per_m = per_placement["mean_se"][label]
                assert set(per_m) == {16, 64}
                assert all(math.isfinite(v) and v > 0.0 for v in per_m.values())

    def test_se_variance_hardening_trend(self):
        # SE fluctuations around the drop-conditioned mean shrink as the
        # array grows; the aggregate interference concentrates.
        rc = _shrunk("fig4", seed=0, sweep=(36.0, 144.0, 400.0, 900.0),
                     realizations=250, placements=6)
        result = run_experiment(rc)
        for label, floor in (("multi-LIS SE variance", 3.0),
                             ("single-LIS SE variance", 1.5)):
            curve = {M: _row(result.summaries, label, M).mean
                     for M in (36.0, 144.0, 400.0, 900.0)}
            assert curve[400.0] < curve[36.0]
            assert curve[900.0] < curve[36.0]
            assert curve[36.0] / curve[900.0] >= floor

    def test_runs_are_reproducible(self):
        rc = _shrunk("fig4", seed=5, sweep=(25.0,), realizations=4, placements=1)
        first = run_experiment(rc)
        second = run_experiment(rc)
        assert first.records == second.records
        assert first.summaries == second.summaries

    def test_asymptotic_curves_grow_with_array_size(self):
        rc = _shrunk("fig5", seed=1, sweep=(16.0, 36.0), realizations=3,
                     placements=1)
        result = run_asymptotic(rc)
        labels = {s.label for s in result.summaries}
        assert "Theorem 1" in labels
        lo = _row(result.summaries, "Theorem 1", 16.0)
        hi = _row(result.summaries, "Theorem 1", 36.0)
        assert 0.0 < lo.mean < hi.mean

    def test_oracle_report_structure(self):
        rc = _shrunk("oracle", seed=2, sweep=(16.0,), realizations=40,
                     placements=1)
        result = run_experiment(rc)
        assert {s.label for s in result.summaries} == {
            "X", "Y total", "Z", "I over M^2"}
        assert _row(result.summaries, "X", 16.0).count == 40

        (report,) = result.extras["placements"][0]["oracle"]
        assert report["M"] == 16 and report["unit"] == [0, 0]
        assert np.asarray(report["kappa"]).shape == (2, 2)
        for term in ("X", "Y_total", "Z", "I", "I_over_M2"):
            entry = report[term]
            assert set(entry) == {"closed", "mc_mean", "mc_stderr", "z", "rel_err"}
            assert math.isfinite(entry["mc_mean"])
            assert entry["mc_stderr"] >= 0.0
        # the report and the summaries reduce the same sample stream
        assert math.isclose(report["X"]["mc_mean"],
                            _row(result.summaries, "X", 16.0).mean,
                            rel_tol=1e-12)
        assert abs(report["X"]["z"]) < 6.0
        assert abs(report["Z"]["z"]) < 6.0

    def test_asymptotic_runner_puts_theory_on_every_block(self):
        rc = _shrunk("fig5", sweep=(16,), realizations=3, placements=1)
        assert run_asymptotic(rc).spec.experiment.theory_stride == 1

    def test_runner_wrappers_check_experiment_id(self):
        with pytest.raises(ConfigError, match="runner expects") as err:
            run_asymptotic(_shrunk("oracle", realizations=2))
        assert err.value.key == "experiment.id"

    def test_oracle_needs_two_realizations(self):
        rc = _shrunk("oracle", sweep=(16.0,), realizations=1)
        with pytest.raises(ConfigError, match="at least 2") as err:
            ExperimentSpec.from_run_config(rc)
        assert err.value.key == "experiment.realizations"


class TestWriteOutputs:
    @staticmethod
    def _result(tmp_records=None, raw=False, extras=None):
        rc = preset_run_config("fig5")
        if raw:
            rc = dataclasses.replace(
                rc, experiment=dataclasses.replace(rc.experiment, raw_records=True))
        spec = ExperimentSpec.from_run_config(rc)
        records = tmp_records if tmp_records is not None else [
            _rec(400.0, "Theorem 1", 1.0 / 3.0, p=0, b=0),
            _rec(100.0, "Theorem 1", 0.5, p=0, b=0),
            _rec(100.0, "multi-LIS imperfect CSI", 2.0, p=0, b=0),
            _rec(100.0, "multi-LIS imperfect CSI", 4.0, p=1, b=0),
        ]
        return hz.ExperimentResult(
            spec=spec, records=records, summaries=summarize(records),
            extras=extras if extras is not None else {})

    def test_one_csv_per_curve_with_sorted_rows(self, tmp_path):
        files = write_outputs(self._result(), tmp_path)
        names = [f.name for f in files]
        assert names == [
            "fig5_theorem-1.csv",
            "fig5_multi-lis-imperfect-csi.csv",
            "fig5_manifest.json",
        ]
        theory = (tmp_path / "fig5_theorem-1.csv").read_text().splitlines()
        assert theory[0] == "sweep_value,mean,variance,stderr,count,label"
        assert theory[1] == "100.0,0.5,0.0,0.0,1,Theorem 1"
        assert theory[2] == f"400.0,{1.0 / 3.0!r},0.0,0.0,1,Theorem 1"
        mc = (tmp_path / "fig5_multi-lis-imperfect-csi.csv").read_text().splitlines()
        assert mc[1] == "100.0,3.0,2.0,1.0,2,multi-LIS imperfect CSI"

    def test_manifest_contents(self, tmp_path):
        extras = {"placements": [{"gain": np.float64(1.5),
                                  "grid": np.arange(3)}]}
        result = self._result(extras=extras)
        files = write_outputs(result, tmp_path)
        manifest = json.loads((tmp_path / "fig5_manifest.json").read_text())
        assert set(manifest) == {
            "config", "config_hash", "experiment_id", "extras", "outputs", "seed",
            "sweep_variable"}
        assert manifest["experiment_id"] == "fig5"
        assert manifest["sweep_variable"] == "M"
        assert manifest["seed"] == 0
        rc = result.spec
        assert manifest["config"] == json.loads(json.dumps(rc.to_dict()))
        assert manifest["config_hash"] == rc.content_hash()
        assert manifest["outputs"] == [f.name for f in files[:-1]]
        assert manifest["extras"] == {"placements": [{"gain": 1.5, "grid": [0, 1, 2]}]}
        raw_text = (tmp_path / "fig5_manifest.json").read_text()
        assert raw_text.endswith("\n") and raw_text.startswith('{\n  "config"')

    def test_raw_records_csv_is_opt_in(self, tmp_path):
        files = write_outputs(self._result(), tmp_path / "no_raw")
        assert not any(f.name.endswith("_raw.csv") for f in files)

        files = write_outputs(self._result(raw=True), tmp_path / "raw")
        raw = next(f for f in files if f.name == "fig5_raw.csv")
        lines = raw.read_text().splitlines()
        assert lines[0] == "sweep_value,placement,realization,value,label"
        assert lines[1] == "400.0,0,0,0.3333333333333333,Theorem 1"
        assert len(lines) == 5

    def test_comma_in_label_rejected(self, tmp_path):
        result = self._result(tmp_records=[_rec(1.0, "a,b", 0.0)])
        with pytest.raises(ValueError, match="comma"):
            write_outputs(result, tmp_path)

    def test_label_slugs(self):
        assert hz._slug("Theorem 2 bound NSE") == "theorem-2-bound-nse"
        assert hz._slug("I over M^2") == "i-over-m-2"
        assert hz._slug("multi-LIS imperfect CSI") == "multi-lis-imperfect-csi"


class TestWorkerCountInvariance:
    # each task carries its reduction function across the process boundary
    CASES = {
        "fig4": (run_experiment, lambda: _shrunk(
            "fig4", seed=0, sweep=(16.0, 36.0), realizations=5, placements=3)),
        "fig9-pool": (run_experiment, lambda: _shrunk(
            "fig9", seed=1, sweep=(16.0,), realizations=2, placements=2,
        ).with_overrides({"placement.pool_size": 6})),
        "asymptotic": (run_asymptotic, lambda: _shrunk(
            "fig5", seed=2, sweep=(16.0,), realizations=2, placements=2)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_are_byte_identical_across_worker_counts(self, tmp_path, case):
        runner, make_rc = self.CASES[case]
        rc = make_rc()
        serial = runner(rc, workers=1)
        pooled = runner(rc, workers=2)
        assert serial.records == pooled.records

        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        f1 = write_outputs(serial, d1)
        f2 = write_outputs(pooled, d2)
        assert [f.name for f in f1] == [f.name for f in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()


class TestPresets:
    @pytest.mark.parametrize("exp_id", list(hz.EXPERIMENTS))
    def test_every_preset_resolves(self, exp_id):
        rc = preset_run_config(exp_id, seed=7)
        assert rc.system.seed == 7
        assert RunConfig.from_dict(rc.to_dict()) == rc
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.id == exp_id
        assert spec.experiment.sweep_values == hz.EXPERIMENTS[exp_id].grid
        assert RunConfig.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_reference_scales(self):
        base = preset_run_config("fig5")
        assert (base.system.M, base.system.K, base.system.N, base.system.T) == (
            900, 8, 4, 500)
        fig4 = preset_run_config("fig4")
        assert fig4.system.K == 20
        assert (fig4.experiment.realizations, fig4.experiment.placements) == (500, 10)
        fig8 = preset_run_config("fig8")
        assert (fig8.system.K, fig8.system.T) == (20, 50)
        fig9 = preset_run_config("fig9")
        assert (fig9.system.M, fig9.system.K, fig9.system.T) == (400, 20, 50)
        oracle = preset_run_config("oracle")
        assert (oracle.system.M, oracle.system.K, oracle.system.N) == (100, 2, 2)
        assert oracle.layout.name == "line" and oracle.layout.d_x == 0.5
        assert oracle.experiment.placements == 1

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment id") as err:
            preset_run_config("fig1")
        assert err.value.key == "experiment.id"

    @pytest.mark.parametrize("runner", [run_experiment, run_asymptotic])
    def test_unknown_id_rejected_before_placement(self, runner, monkeypatch):
        monkeypatch.setattr(hz, "place_devices", None)  # any placement would fail
        rc = RunConfig().with_overrides({"experiment.id": "fig1"})
        with pytest.raises(ConfigError, match="unknown experiment id") as err:
            runner(rc)
        assert err.value.key == "experiment.id"

    def test_optimizer_rejects_unknown_id(self, capsys):
        assert main(["optimize-t", "--set", "experiment.id=fig1"]) == 2
        assert capsys.readouterr().err.startswith("config error (experiment.id)")
