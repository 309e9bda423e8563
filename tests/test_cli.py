"""Command-line front end: parsing, config precedence, dispatch, output
contracts, and exit codes."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from lis_uplink import MomentSet, RunConfig, cli, harness
from lis_uplink.cli import build_parser, main

HELP_GOLDEN = Path(__file__).resolve().parent / "golden" / "lis-sim-help.txt"


def _tiny_fig4_config(tmp_path, **extra_system):
    system = {"M": 16, "K": 2, "N": 2, "T": 50, "seed": 3}
    system.update(extra_system)
    cfg = {
        "system": system,
        "experiment": {
            "id": "fig4",
            "sweep_values": [16],
            "realizations": 4,
            "placements": 1,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _manifest(out_dir, exp_id):
    return json.loads((out_dir / f"{exp_id}_manifest.json").read_text(encoding="utf-8"))


class TestParser:
    def test_prog_name(self):
        assert build_parser().prog == "lis-sim"

    @pytest.mark.parametrize(
        "sub", ["simulate", "asymptotic", "optimize-t", "optimize-k", "validate"]
    )
    def test_subcommands_parse(self, sub):
        args = build_parser().parse_args([sub])
        assert args.subcommand == sub
        assert args.out == "out"
        assert args.config is None and args.seed is None and args.workers == 1
        assert args.overrides == []

    def test_reproduce_takes_experiment_argument(self):
        args = build_parser().parse_args(["reproduce", "fig7"])
        assert args.subcommand == "reproduce"
        assert args.experiment == "fig7"

    def test_common_flags_bind(self):
        args = build_parser().parse_args(
            ["simulate", "--config", "c.json", "--out", "results", "--seed", "9",
             "--workers", "2", "--set", "system.M=16", "--set", "system.K=2"]
        )
        assert args.config == "c.json"
        assert args.out == "results"
        assert args.seed == 9
        assert args.workers == 2
        assert args.overrides == ["system.M=16", "system.K=2"]

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_epilog_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        header = "configuration keys (override with --set key=value):"
        assert header in out
        documented = dict(line.split(maxsplit=1) for line in
                          out.split(header)[1].strip("\n").splitlines())
        rc = RunConfig()
        leaves = [f"{section.name}.{f.name}" for section in dataclasses.fields(rc)
                  for f in dataclasses.fields(getattr(rc, section.name))]
        assert len(leaves) == 29
        assert list(documented) == leaves
        assert all(text.strip() for text in documented.values())

    def test_help_output_matches_golden(self, monkeypatch, capsys):
        # argparse wraps usage lines to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out == HELP_GOLDEN.read_text(encoding="utf-8")


class TestConfigPrecedence:
    def test_simulate_runs_config_file(self, tmp_path, capsys):
        cfg = _tiny_fig4_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert [p.rsplit("/", 1)[-1] for p in printed] == [
            "fig4_multi-lis-se-variance.csv",
            "fig4_single-lis-se-variance.csv",
            "fig4_manifest.json",
        ]
        for p in printed:
            assert (tmp_path / "out" / p.rsplit("/", 1)[-1]).exists()
        man = _manifest(out, "fig4")
        assert man["experiment_id"] == "fig4"
        assert man["seed"] == 3
        assert man["config"]["system"]["M"] == 16

    def test_seed_flag_overrides_config_file(self, tmp_path):
        cfg = _tiny_fig4_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--seed", "11",
                     "--out", str(out)]) == 0
        man = _manifest(out, "fig4")
        assert man["seed"] == 11
        assert man["config"]["system"]["seed"] == 11

    def test_set_overrides_config_file(self, tmp_path):
        cfg = _tiny_fig4_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", "experiment.realizations=2"]) == 0
        man = _manifest(out, "fig4")
        assert man["config"]["experiment"]["realizations"] == 2

    def test_seed_flag_beats_set_override(self, tmp_path):
        cfg = _tiny_fig4_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", "system.seed=5", "--seed", "9"]) == 0
        assert _manifest(out, "fig4")["seed"] == 9

    def test_manifest_round_trips_to_identical_outputs(self, tmp_path):
        cfg = _tiny_fig4_config(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(first / "fig4_manifest.json"),
                     "--out", str(second)]) == 0
        for name in ("fig4_multi-lis-se-variance.csv",
                     "fig4_single-lis-se-variance.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (_manifest(first, "fig4")["config_hash"]
                == _manifest(second, "fig4")["config_hash"])

    def test_workers_flag_keeps_output_bytes(self, tmp_path):
        cfg = _tiny_fig4_config(tmp_path)
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        assert main(["simulate", "--config", str(cfg), "--out", str(serial),
                     "--set", "experiment.placements=2", "--workers", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(pooled),
                     "--set", "experiment.placements=2", "--workers", "2"]) == 0
        for name in ("fig4_multi-lis-se-variance.csv",
                     "fig4_single-lis-se-variance.csv"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()


class TestErrorPaths:
    def test_invalid_value_exits_2_and_names_key(self, capsys):
        assert main(["simulate", "--set", "system.M=17"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error (system.M)")

    @pytest.mark.parametrize("setting", ["system.L=NaN", "system.K=true"])
    def test_non_finite_or_boolean_value_exits_2(self, setting, capsys):
        assert main(["optimize-k", "--set", setting]) == 2
        key = setting.split("=")[0]
        assert capsys.readouterr().err.startswith(f"config error ({key})")

    @pytest.mark.parametrize("setting", ["system.M=-4", "system.seed=-1", "system.rho_tgt=-1",
                                         "system.T=0", "system.K=600", "system.beta_PL=-3"])
    def test_out_of_bound_value_exits_2_before_placement(self, setting, monkeypatch, capsys):
        monkeypatch.setattr("lis_uplink.harness.place_devices", None)
        assert main(["simulate", "--set", setting]) == 2
        key = setting.split("=")[0]
        assert capsys.readouterr().err.startswith(f"config error ({key})")

    def test_unknown_override_key_exits_2(self, capsys):
        assert main(["simulate", "--set", "bogus.key=1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bogus.key" in err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_json_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_reproduce_unknown_experiment_exits_2(self, capsys):
        assert main(["reproduce", "fig1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error (experiment.id)")

    def test_infeasible_quad_layout_exits_2_before_placement(self, capsys):
        assert main(["reproduce", "fig5", "--set", "layout.d_z=1.5"]) == 2
        assert capsys.readouterr().err.startswith("config error (layout.d_z)")

    def test_fractional_theory_stride_exits_2_and_names_key(self, capsys):
        assert main(["simulate", "--set", "experiment.theory_stride=2.5"]) == 2
        assert capsys.readouterr().err.startswith("config error (experiment.theory_stride)")

    def test_theory_stride_string_loads_as_integer(self, tmp_path, capsys):
        path = _tiny_fig4_config(tmp_path)
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cfg["experiment"]["theory_stride"] = "3"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert _manifest(out, "fig4")["config"]["experiment"]["theory_stride"] == 3

    def test_invalid_array_size_in_sweep_exits_2_before_placement(self, monkeypatch, capsys):
        def no_placement(*args, **kwargs):
            raise AssertionError("placement ran before the sweep was validated")

        monkeypatch.setattr("lis_uplink.harness.place_devices", no_placement)
        assert main(["simulate", "--set", "experiment.id=fig5",
                     "--set", "experiment.sweep_values=[16,120]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error (experiment.sweep_values)")
        assert "M=120" in err

    @pytest.mark.parametrize("argv", [["optimize-k"], ["simulate", "--set", "experiment.id=fig8"]])
    def test_pool_above_block_length_exits_2_before_placement(self, argv, monkeypatch, capsys):
        def no_placement(*args, **kwargs):
            raise AssertionError("placement ran before the pool size was checked")

        monkeypatch.setattr("lis_uplink.harness.place_devices", no_placement)
        assert main([*argv, "--set", "system.T=20", "--set", "placement.pool_size=30"]) == 2
        assert capsys.readouterr().err.startswith("config error (placement.pool_size)")

    @pytest.mark.parametrize("argv", [["optimize-k"], ["simulate", "--set", "experiment.id=fig8"],
                                      ["simulate", "--set", "experiment.id=fig9"]])
    def test_empty_default_pool_exits_2_before_placement(self, argv, monkeypatch, capsys):
        # at T = 1 the default pool min(T - 1, 40) holds no device
        def no_placement(*args, **kwargs):
            raise AssertionError("placement ran before the pool size was checked")

        monkeypatch.setattr("lis_uplink.harness.place_devices", no_placement)
        assert main([*argv, "--set", "system.T=1", "--set", "system.K=1"]) == 2
        assert capsys.readouterr().err.startswith("config error (placement.pool_size)")

    @pytest.mark.parametrize("sub, exp_id, values", [
        ("asymptotic", "fig5", "[16, NaN]"),
        ("simulate", "fig5", "[16, Infinity]"),
        ("simulate", "fig5", "[true, 16]"),
        ("simulate", "fig7", "[4, 8.5]"),
        ("simulate", "fig8", "[2.5, 3, 99]"),
        ("simulate", "fig8", "[0, 2]"),
        ("simulate", "fig5", '["a", 1]'),
        ("simulate", "fig5", "[100, 100]"),
    ])
    def test_bad_sweep_value_exits_2_before_placement(self, sub, exp_id, values,
                                                      monkeypatch, capsys):
        monkeypatch.setattr("lis_uplink.harness.place_devices", None)
        assert main([sub, "--set", f"experiment.id={exp_id}",
                     "--set", f"experiment.sweep_values={values}"]) == 2
        assert capsys.readouterr().err.startswith("config error (experiment.sweep_values)")

    def test_manifest_with_sweep_variable_exits_2(self, tmp_path, capsys):
        # manifests written before the swept variable moved out of the
        # config echo still carry experiment.sweep_variable
        path = _tiny_fig4_config(tmp_path)
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cfg["experiment"]["sweep_variable"] = "M"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error (experiment.sweep_variable)")

    def test_reproduce_conflicting_config_exits_2(self, tmp_path, capsys):
        cfg = _tiny_fig4_config(tmp_path)
        assert main(["reproduce", "fig5", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error (experiment.id)")
        assert "fig5" in err and "fig4" in err


class TestOptimizeT:
    def test_emits_solution_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize-t", "--set", "system.M=16", "--set", "system.K=2",
                     "--set", "system.T=100", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert sorted(payload) == ["curve", "objective", "t_opt"]
        assert 2 <= payload["t_opt"] <= 100
        # the integer optimum dominates the sampled curve
        assert payload["objective"] >= max(v for _, v in payload["curve"]) - 1e-9
        assert (out / "optimize_t.json").read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("T, K", [(100, 4), (500, 8)])
    def test_one_pass_over_the_pilot_range(self, T, K, tmp_path, monkeypatch):
        # the search and the curve share one evaluation per t, on the K
        # moment sets of panel 0 built once
        calls = {"objective": 0, "sets": 0}
        build, pilot_objective = harness.build_moment_set, cli.pilot_objective

        def counted_build(stats):
            calls["sets"] += 1
            return build(stats)

        def counted_objective(rc):
            objective = pilot_objective(rc)

            def f(t):
                calls["objective"] += 1
                return objective(t)
            return f

        monkeypatch.setattr(harness, "build_moment_set", counted_build)
        monkeypatch.setattr(cli, "pilot_objective", counted_objective)
        assert main(["optimize-t", "--set", "system.N=4", "--set", "system.M=16",
                     "--set", f"system.K={K}", "--set", f"system.T={T}",
                     "--out", str(tmp_path)]) == 0
        assert calls == {"objective": T - K + 1, "sets": K}

    def test_ignores_the_experiment_sweep(self, tmp_path, capsys):
        # the default fig5 sweep reaches M=400, whose lattice would not fit
        # this spacing; the optimizer evaluates system.M alone
        out = tmp_path / "out"
        assert main(["optimize-t", "--set", "system.M=16", "--set", "system.K=2",
                     "--set", "system.T=60", "--set", "system.delta_L=0.05",
                     "--out", str(out)]) == 0
        assert 2 <= json.loads(capsys.readouterr().out)["t_opt"] <= 60

    def test_curve_covers_pilot_range(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize-t", "--set", "system.M=16", "--set", "system.K=3",
                     "--set", "system.T=60", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        ts = [t for t, _ in payload["curve"]]
        assert ts[0] == 3 and ts[-1] == 60
        assert ts == sorted(ts)


    def test_follows_interference_regime(self, tmp_path, capsys):
        base = ["optimize-t", "--set", "system.N=4", "--set", "system.M=16",
                "--set", "system.T=100", "--out", str(tmp_path)]

        def objective(*extra):
            assert main([*base, *extra]) == 0
            return json.loads(capsys.readouterr().out)["objective"]

        rician = objective()
        nlos = objective("--set", "experiment.interference=nlos_inter")
        assert nlos != rician
        # fig6's default regime is nlos_inter
        assert objective("--set", "experiment.id=fig6") == nlos


class TestOptimizeK:
    def test_emits_solution_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize-k", "--set", "system.M=16", "--set", "system.K=4",
                     "--set", "system.N=2", "--set", "system.T=20",
                     "--set", "placement.pool_size=6", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert sorted(payload) == [
            "K_opt", "K_values", "nse_curve", "nse_opt", "pool"
        ]
        assert payload["pool"] == 6
        assert payload["K_values"] == [1, 2, 3, 4, 5, 6]
        assert len(payload["nse_curve"]) == 6
        assert 1 <= payload["K_opt"] <= 6
        best = payload["K_values"].index(payload["K_opt"])
        assert payload["nse_curve"][best] == payload["nse_opt"]
        assert payload["nse_opt"] == max(payload["nse_curve"])
        assert (out / "optimize_k.json").read_text(encoding="utf-8") == text


    def test_follows_interference_regime(self, tmp_path, capsys):
        base = ["optimize-k", "--set", "system.M=16", "--set", "system.K=4",
                "--set", "system.N=4", "--set", "system.T=20",
                "--set", "placement.pool_size=6", "--out", str(tmp_path)]

        def nse_opt(*extra):
            assert main([*base, *extra]) == 0
            return json.loads(capsys.readouterr().out)["nse_opt"]

        rician = nse_opt()
        nlos = nse_opt("--set", "experiment.interference=nlos_inter")
        assert nlos != rician
        # fig6's default regime is nlos_inter
        assert nse_opt("--set", "experiment.id=fig6") == nlos


class TestValidate:
    def test_oracle_report_passes_at_reference_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["validate", "--set", "experiment.sweep_values=[16]",
                     "--set", "experiment.realizations=500",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "validate: PASS" in text
        for term in ("X", "Y_total", "Z", "I"):
            assert term in text
        assert "99% CI" in text and "reported" in text
        assert (out / "oracle_manifest.json").exists()

    def test_biased_closed_form_fails(self, tmp_path, capsys, monkeypatch):
        # a Z closed form 1.5x too large must fail its gate and the command
        mu_Z = MomentSet.mu_Z
        monkeypatch.setattr(MomentSet, "mu_Z", lambda self, t: 1.5 * mu_Z(self, t))
        code = main(["validate", "--set", "experiment.sweep_values=[16]",
                     "--set", "experiment.realizations=500",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        z_lines = [line for line in lines if re.match(r"M=\s*16 Z ", line)]
        assert len(z_lines) == 1 and z_lines[0].endswith(" FAIL")
        assert lines[-1] == "validate: FAIL"

    def test_single_realization_exits_2(self, tmp_path, capsys):
        # one sample has no standard error; the z-gate must not pass vacuously
        code = main(["validate", "--set", "experiment.realizations=1",
                     "--set", "experiment.sweep_values=[16]",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error (experiment.realizations)")
        assert "PASS" not in captured.out

    def test_forces_oracle_experiment_over_config(self, tmp_path, capsys):
        cfg = _tiny_fig4_config(tmp_path, K=2, N=2, P=4)
        out = tmp_path / "out"
        code = main(["validate", "--config", str(cfg), "--out", str(out),
                     "--set", "experiment.realizations=300"])
        assert code in (0, 1)
        assert "validate:" in capsys.readouterr().out
        assert _manifest(out, "oracle")["experiment_id"] == "oracle"


class TestAsymptotic:
    def test_writes_theorem_curves(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["asymptotic", "--out", str(out), "--seed", "1",
                     "--set", "experiment.id=fig5", "--set", "system.N=4",
                     "--set", "system.K=2", "--set", "experiment.sweep_values=[16]",
                     "--set", "experiment.realizations=2",
                     "--set", "experiment.placements=1"]) == 0
        printed = [p.rsplit("/", 1)[-1] for p in capsys.readouterr().out.split()]
        assert "fig5_theorem-1.csv" in printed
        lines = (out / "fig5_theorem-1.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sweep_value,mean,variance,stderr,count,label"
        assert lines[1].startswith("16.0,") and lines[1].endswith(",2,Theorem 1")
        assert _manifest(out, "fig5")["config"]["experiment"]["id"] == "fig5"


class TestReproduce:
    def test_runs_preset_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "fig4", "--seed", "2", "--out", str(out),
                     "--set", "experiment.sweep_values=[16,36]",
                     "--set", "experiment.realizations=6",
                     "--set", "experiment.placements=1",
                     "--set", "system.K=3"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-1].endswith("fig4_manifest.json")
        man = _manifest(out, "fig4")
        assert man["experiment_id"] == "fig4"
        assert man["seed"] == 2
        assert man["config"]["system"]["K"] == 3
        assert man["outputs"] == [p.rsplit("/", 1)[-1] for p in printed[:-1]]

    def test_preset_keeps_reference_scenario(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "oracle", "--out", str(out),
                     "--set", "experiment.sweep_values=[16]",
                     "--set", "experiment.realizations=40"]) == 0
        man = _manifest(out, "oracle")
        system = man["config"]["system"]
        assert (system["K"], system["N"], system["P"]) == (2, 2, 4)
        assert man["config"]["layout"]["name"] == "line"
