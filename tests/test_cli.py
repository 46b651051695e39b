import json

import numpy as np
import pytest

from tdcert.bundled import bundled_config, bundled_names, THEOREM1_NAMES
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
        # K = 1 features with a two-entry theta0; the report has no B for it
        cfg = dict(ONE_STATE_CFG, instance=dict(ONE_STATE_CFG["instance"],
                                                theta0=[1.0, 2.0]))
        out = tmp_path / "o"
        assert main(["oracle", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_INVALID_INPUT
        assert "reshape" in capsys.readouterr().err
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

    def test_ledger_failure_exit_code(self, tmp_path):
        cfg = bundled_config("theorem2_base")
        cfg["experiment"]["ceiling"] = 1e-9  # force the fitted c' over the bar
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
        # the undelayed point runs at the configured nonlinear spec
        path = write_cfg(tmp_path, {"bundled": "theorem4_saturating",
                                    "experiment": {"trials": 100}})
        out = tmp_path / "sweep"
        main(["sweep", "--config", path, "--out", str(out), "--sweep", "tau_max=0"])
        point = json.loads((out / "sweep_summary.json").read_text())["points"][0]
        assert point["alpha"] == pytest.approx(0.009722, rel=1e-3)
        assert (point["tau"], point["T"]) == (9, 1470)
        ledgers = json.loads((out / "ledgers.json").read_text())["ledgers"]
        assert ledgers["tau_max_0"]["hypothesis"]["mode"] == "nonlinear"

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
