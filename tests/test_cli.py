import json

import numpy as np
import pytest

from tdcert import harness
from tdcert.bundled import bundled_config, bundled_names, THEOREM1_NAMES
from tdcert.harness import ConfigError
from tdcert.cli import (
    EXIT_FAIL,
    EXIT_INVALID_INPUT,
    EXIT_OUT_OF_CONTRACT,
    EXIT_PASS,
    main,
    parse_experiment,
)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


ONE_STATE_CFG = {
    "instance": {
        "chain": {"kind": "explicit", "transitions": [[1.0]],
                  "rewards": [1.0], "gamma": 0.5},
        "features": {"kind": "constant"},
    },
    "experiment": {"kind": "boundedness", "T": 50, "trials": 150,
                   "master_seed": 3},
}


class TestOracleCommand:
    def test_one_state_report(self, tmp_path):
        cfg = write_cfg(tmp_path, ONE_STATE_CFG)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PASS
        doc = json.loads((tmp_path / "o" / "oracle_report.json").read_text())
        # theta* = R / (1 - gamma) for the single-state chain
        assert doc["theta_star"][0] == pytest.approx(2.0, abs=1e-12)
        assert doc["omega"] == pytest.approx(1.0)
        assert [row["tau"] for row in doc["tau_table"]] == [1, 1, 1, 1]

    def test_periodic_chain_exits_invalid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "instance": {"chain": {"kind": "explicit",
                                   "transitions": [[0.0, 1.0], [1.0, 0.0]],
                                   "rewards": [1.0, 0.0], "gamma": 0.5}}})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == EXIT_INVALID_INPUT
        assert "not aperiodic" in capsys.readouterr().err

    def test_theta0_of_wrong_length_exits_invalid(self, tmp_path, capsys):
        # K = 1 features with a two-entry theta0: the report has no B for it,
        # and the run refuses it with the same message
        cfg = dict(ONE_STATE_CFG, instance=dict(ONE_STATE_CFG["instance"],
                                                theta0=[1.0, 2.0]))
        path = write_cfg(tmp_path, cfg)
        for command in ("oracle", "run"):
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) \
                == EXIT_INVALID_INPUT
            assert ("theta0 has length 2 but the provider has dimension 1"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_nonlinear_provider_report_has_the_experiment_B(self, tmp_path):
        # theta0 has the saturating provider's 2 entries; identity features give K = 3
        out = tmp_path / "o"
        assert main(["oracle", "--bundled", "theorem4_saturating",
                     "--out", str(out)]) == EXIT_PASS
        doc = json.loads((out / "oracle_report.json").read_text())
        config, _ = parse_experiment(bundled_config("theorem4_saturating"))
        assert doc["K"] == 3 and len(doc["theta0"]) == 2
        assert doc["B"] == config.B

    def test_nonlinear_provider_report_has_its_fixed_point_and_scale(self, tmp_path):
        # theta_star and sigma are the provider's, the same instance as its B
        out = tmp_path / "o"
        assert main(["oracle", "--bundled", "theorem4_saturating",
                     "--out", str(out)]) == EXIT_PASS
        doc = json.loads((out / "oracle_report.json").read_text())
        config, _ = parse_experiment(bundled_config("theorem4_saturating"))
        assert doc["theta_star"] == [0.5, -0.3]
        assert doc["sigma"] == config.provider.sigma_const

    def test_nonlinear_provider_report_lists_the_tau_its_run_uses(self, tmp_path):
        # the tau table is the provider's certificate, the TV-envelope
        # over-estimate, not the linear-TD enumeration of its chain
        out = tmp_path / "o"
        assert main(["oracle", "--bundled", "theorem4_saturating",
                     "--out", str(out)]) == EXIT_PASS
        table = json.loads((out / "oracle_report.json").read_text())["tau_table"]
        assert [row["tau"] for row in table] == [6, 9, 12, 16]
        assert [row["horizon_checked"] for row in table] == [8, 9, 12, 16]
        config, _ = parse_experiment(bundled_config("theorem4_saturating"))
        assert config.provider.certify(0.01).tau == table[1]["tau"]

    def test_bundled_oracle_matches_derived_values(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "instance": {
                "chain": {"kind": "explicit",
                          "transitions": [[0.9, 0.1], [0.2, 0.8]],
                          "rewards": [1.0, 0.0], "gamma": 0.9},
                "features": {"kind": "explicit", "Phi": [[1.0], [0.0]]},
            }})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PASS
        doc = json.loads((tmp_path / "o" / "oracle_report.json").read_text())
        np.testing.assert_allclose(doc["pi"], [2 / 3, 1 / 3], atol=1e-12)
        assert doc["theta_star"][0] == pytest.approx(100 / 19, abs=1e-10)


class TestRunCommand:
    def test_bundled_run_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bundled": "theorem1_near_uniform"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        doc = json.loads((out / "ledgers.json").read_text())
        assert doc["ledgers"]["boundedness"]["verdict"] == "pass"
        assert doc["fingerprint"]
        assert (out / "estimate.csv").exists()
        assert (out / "manifest.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bundled": "theorem1_near_uniform"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_PASS
        assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_PASS
        assert (out1 / "estimate.csv").read_bytes() == (out2 / "estimate.csv").read_bytes()
        assert (out1 / "ledgers.json").read_bytes() == (out2 / "ledgers.json").read_bytes()

    def test_manifest_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bundled": "theorem1_near_uniform"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        code = main(["run", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == EXIT_PASS
        assert (out1 / "estimate.csv").read_bytes() == (out2 / "estimate.csv").read_bytes()

    def test_unknown_sampling_exits_invalid(self, tmp_path, capsys):
        cfg = bundled_config("theorem1_near_uniform")
        cfg["experiment"]["sampling"] = "bogus"
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_INVALID_INPUT
        assert "sampling" in capsys.readouterr().err
        assert not out.exists()

    def test_low_trial_count_rejected(self, tmp_path):
        cfg = bundled_config("theorem1_near_uniform")
        cfg["experiment"]["trials"] = 10
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
            == EXIT_INVALID_INPUT

    def test_out_of_contract_exit_code(self, tmp_path):
        cfg = bundled_config("theorem1_near_uniform")
        cfg["step_size"]["alpha"] = 0.5625  # ten times the resolved cap
        cfg["experiment"]["T"] = 50
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
            == EXIT_OUT_OF_CONTRACT

    @pytest.mark.parametrize("key, value", [
        ("alpha", "NaN"), ("alpha", "1e400"), ("alpha", "-0.1"), ("alpha", "0"),
        ("alpha", "[0.1]"), ("alpha", '"fast"'), ("alpha_scale", "-1")])
    def test_bad_alpha_exits_invalid(self, tmp_path, capsys, key, value):
        # refused before any tau is certified, so a NaN never searches the
        # mixing oracle out to its largest horizon
        path = tmp_path / "cfg.json"
        path.write_text('{"bundled": "theorem1_two_state_fast", '
                        f'"step_size": {{"{key}": {value}}}}}')
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) \
            == EXIT_INVALID_INPUT
        assert "alpha must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_ledger_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CEILING", 1e-9)  # force the fitted c' over the bar
        cfg = bundled_config("theorem2_base")
        cfg["experiment"]["trials"] = 400
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
            == EXIT_FAIL

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bundled": "theorem1_near_uniform"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "estimate.csv").read_bytes() != (out2 / "estimate.csv").read_bytes()

    def test_missing_config_flag(self):
        assert main(["run"]) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("start_state", [-1, 1])
    def test_start_state_out_of_range_exits_invalid(self, tmp_path, start_state):
        cfg = json.loads(json.dumps(ONE_STATE_CFG))
        cfg["experiment"]["start_state"] = start_state
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
            == EXIT_INVALID_INPUT

    def test_weighted_average_of_a_generic_provider_exits_invalid(self, tmp_path):
        cfg = bundled_config("theorem4_linear_contraction")
        cfg["experiment"].update(kind="weighted_average", trials=200,
                                 averaging_grid=[64, 128, 256])
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
            == EXIT_INVALID_INPUT

    def test_unknown_bundled_name(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bundled": "nope"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == EXIT_INVALID_INPUT


class TestSweepCommand:
    def test_alpha_sweep_summary(self, tmp_path):
        cfg = bundled_config("theorem2_base")
        cfg["experiment"]["trials"] = 500
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--out", str(out),
                     "--sweep", "alpha=1,0.5,0.25"])
        assert code == EXIT_PASS
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert abs(summary["floor_slope"] - 1.0) <= 0.25
        assert len(summary["points"]) == 3
        assert (out / "estimate_alpha_0.csv").exists()

    def test_T_sweep_runs_weighted_average(self, tmp_path):
        cfg = bundled_config("theorem3_averaging")
        cfg["experiment"]["trials"] = 300
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--out", str(out),
                     "--sweep", "T=64,128,256,512"])
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert "tail_slope" in summary
        assert code in (EXIT_PASS, EXIT_FAIL)  # slope verdict over a short grid

    def test_tau_max_sweep(self, tmp_path):
        cfg = bundled_config("theorem1_uniform_two_state")
        cfg["experiment"]["trials"] = 300
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--out", str(out),
                     "--sweep", "tau_max=0,2"])
        assert code == EXIT_PASS
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [p["tau_max"] for p in summary["points"]] == [0, 2]

    def test_tau_max_sweep_follows_nonlinear_mode(self, tmp_path):
        # the undelayed point runs at the configured nonlinear step-size
        path = write_cfg(tmp_path, {"bundled": "theorem4_saturating",
                                    "experiment": {"trials": 100}})
        out = tmp_path / "sweep"
        main(["sweep", "--config", path, "--out", str(out), "--sweep", "tau_max=0"])
        point = json.loads((out / "sweep_summary.json").read_text())["points"][0]
        assert point["alpha"] == pytest.approx(0.009722, rel=1e-3)
        assert (point["tau"], point["T"]) == (9, 1470)
        ledgers = json.loads((out / "ledgers.json").read_text())["ledgers"]
        assert ledgers["tau_max_0"]["hypothesis"]["mode"] == "nonlinear"

    @pytest.mark.parametrize("name, sweep, message", [
        ("theorem1_two_state_fast", "tau_max=-1", "tau_max=-1 must be at least 0"),
        ("theorem3_averaging", "T=0,64", "averaging horizon T=0 must be at least 1"),
        ("theorem2_base", "alpha=0,1", "alpha multiplier 0.0 must be"),
        ("theorem2_base", "alpha=1,-1", "alpha multiplier -1.0 must be"),
    ])
    def test_out_of_range_sweep_value_exits_invalid(self, tmp_path, capsys, name,
                                                    sweep, message):
        assert main(["sweep", "--bundled", name, "--out", str(tmp_path / "o"),
                     "--sweep", sweep]) == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err

    def test_empty_grid_rejected(self, tmp_path):
        path = write_cfg(tmp_path, bundled_config("theorem2_base"))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"),
                     "--sweep", "alpha="]) == EXIT_INVALID_INPUT

    def test_unknown_axis_rejected(self, tmp_path):
        path = write_cfg(tmp_path, bundled_config("theorem2_base"))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"),
                     "--sweep", "gamma=0.5"]) == EXIT_INVALID_INPUT

    def test_sweep_flag_required(self, tmp_path):
        path = write_cfg(tmp_path, bundled_config("theorem2_base"))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) \
            == EXIT_INVALID_INPUT


class TestBundledRegistry:
    def test_ten_boundedness_instances(self):
        assert len(THEOREM1_NAMES) == 10

    @pytest.mark.parametrize("name, mode", [("theorem4_saturating", "td0"),
                                            ("theorem3_averaging", "nonlinear")])
    def test_legacy_mode_key_must_match_the_provider(self, name, mode):
        cfg = bundled_config(name)
        cfg["step_size"]["mode"] = mode
        provider_mode = {"td0": "nonlinear", "nonlinear": "td0"}[mode]
        with pytest.raises(ConfigError,
                           match=f"'{mode}' does not match .* '{provider_mode}'"):
            parse_experiment(cfg)

    @pytest.mark.parametrize("name, section, key, value", [
        ("theorem4_saturating", "step_size", "mode", "nonlinear"),
        ("theorem2_base", "step_size", "mode", "td0"),
        ("theorem2_base", "step_size", "C", 8),
        ("theorem2_base", "experiment", "ceiling", 100),
        ("theorem2_base", "step_size", "tau", 9),
        ("theorem4_saturating", "experiment", "kind", "nonlinear"),
    ])
    def test_matching_legacy_mode_key_keeps_the_fingerprint(self, tmp_path, name,
                                                           section, key, value):
        # a legacy key that restates the derived value changes no written byte
        cfg = bundled_config(name)
        cfg["experiment"]["trials"] = 100
        plain, legacy = tmp_path / "plain", tmp_path / "legacy"
        code = main(["run", "--config", write_cfg(tmp_path, cfg, "plain.json"),
                     "--out", str(plain)])
        cfg[section][key] = value
        assert main(["run", "--config", write_cfg(tmp_path, cfg, "legacy.json"),
                     "--out", str(legacy)]) == code
        for out in ("ledgers.json", "estimate.csv"):
            assert (legacy / out).read_bytes() == (plain / out).read_bytes()

    @pytest.mark.parametrize("section, key, value, derived", [
        ("step_size", "C", 16, "8.0"),
        ("experiment", "ceiling", 1e9, "100.0"),
        ("step_size", "tau", 1, "5"),
    ])
    def test_legacy_key_naming_another_value_exits_invalid(self, tmp_path, capsys,
                                                           section, key, value, derived):
        # at three times the resolved alpha the certified tau is 5; a declared
        # tau of 1 would put the run in contract
        cfg = bundled_config("theorem1_random6")
        cfg["step_size"]["alpha"] = 0.0079461
        cfg[section][key] = value
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"{section}.{key} {value!r} does not match the derived value {derived}" in err
        assert not out.exists()

    def test_all_names_parse(self):
        for name in bundled_names():
            config, kind = parse_experiment(bundled_config(name))
            assert config.trials >= 100
            assert kind in ("boundedness", "recursion", "iid_control",
                            "weighted_average", "nonlinear")

    def test_bundled_flag_runs(self, tmp_path):
        code = main(["run", "--bundled", "theorem1_near_uniform",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PASS

    def test_config_overrides_merge_into_bundled_sections(self, tmp_path):
        from tdcert.cli import load_config
        path = write_cfg(tmp_path, {"bundled": "theorem1_near_uniform",
                                    "experiment": {"trials": 150}})
        cfg = load_config(path)
        assert cfg["experiment"]["trials"] == 150
        # untouched sibling keys survive the section merge
        assert cfg["experiment"]["master_seed"] == 110
        assert cfg["instance"]["chain"]["gamma"] == 0.1
