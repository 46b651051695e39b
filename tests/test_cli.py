import json

import numpy as np
import pytest

from mixing_reference import generic_tau
from tdcert import harness
from tdcert.bundled import bundled_config, bundled_names, THEOREM1_NAMES
from tdcert.harness import ConfigError
from tdcert.sa_core import SaturatingMonotoneProvider
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
        # the tau table is the provider's certificate, the generic rule on
        # the TV curve, not the linear-TD enumeration of its chain
        out = tmp_path / "o"
        assert main(["oracle", "--bundled", "theorem4_saturating",
                     "--out", str(out)]) == EXIT_PASS
        table = json.loads((out / "oracle_report.json").read_text())["tau_table"]
        assert [row["tau"] for row in table] == [5, 9, 12, 15]
        assert [row["horizon_checked"] for row in table] == [8, 16, 16, 16]
        config, _ = parse_experiment(bundled_config("theorem4_saturating"))
        provider = config.provider
        assert [generic_tau(provider.model.mrp, provider.L * provider.sigma_const,
                            row["epsilon"]) for row in table] == [
            (row["tau"], row["horizon_checked"]) for row in table]
        assert provider.certify(0.01).tau == table[1]["tau"]

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

    @pytest.mark.parametrize("command, extra", [
        ("run", []), ("sweep", ["--sweep", "alpha=1,0.5"])])
    def test_seed_override_is_rerun_by_its_manifest(self, tmp_path, command, extra):
        # the manifest's document records the seed that ran, not the
        # document's own (110), so it reruns the run it describes
        cfg = write_cfg(tmp_path, {"bundled": "theorem1_near_uniform",
                                   "experiment": {"trials": 100}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main([command, "--config", cfg, "--out", str(out1), "--seed", "7"] + extra)
        main([command, "--manifest", str(out1 / "manifest.json"),
              "--out", str(out2)] + extra)
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["experiment"]["master_seed"] == 7
        written = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert "ledgers.json" in written and any(n.startswith("estimate") for n in written)
        for name in written:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

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

    @pytest.mark.parametrize("section, key, value", [
        ("step_size", "alpha_scale", [1]), ("step_size", "alpha_scale", "half"),
        ("experiment", "trials", [500]), ("experiment", "trials", None),
        ("experiment", "trials", float("inf")), ("experiment", "T", [64]),
        ("experiment", "T", "soon"), ("experiment", "master_seed", {"seed": 3}),
        ("experiment", "master_seed", True), ("experiment", "start_state", [0]),
        ("experiment", "start_state", "0"), ("experiment", "start_state", 0.5),
        ("experiment", "trials", 150.5), ("delays", "tau_max", [1]),
        ("delays", "tau_max", None), ("delays", "tau_max", 1.5),
        ("delays", "seed", "77")])
    def test_wrong_json_type_exits_invalid(self, tmp_path, capsys, section, key,
                                           value):
        # a value no number (or no whole number, where one is counted) can be
        # read from is an input error (exit 3) that names its key, not a
        # traceback with the ledger-failure exit code. The experiment's keys
        # are named by ExperimentConfig and DelayProcess, which read them
        cfg = bundled_config("delayed_uniform_1")
        if section == "delays":
            cfg["experiment"]["delays"][key] = value
            message = f"delays.{key} must be an integer, got {value!r}"
        else:
            cfg[section][key] = value
            message = f"{key} must be an integer, got {value!r}"
        if key == "alpha_scale":
            message = f"step_size.alpha_scale must be a finite number, got {value!r}"
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) \
            == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        (64, "averaging_grid must be a list, got 64"),
        ([64, "128"], "averaging_grid entry must be an integer, got '128'"),
        ([64, 128.5], "averaging_grid entry must be an integer, got 128.5")])
    def test_malformed_averaging_grid_exits_invalid(self, tmp_path, capsys, grid,
                                                    message):
        # refused by ExperimentConfig, the one place the grid rule is written
        cfg = bundled_config("theorem3_averaging")
        cfg["experiment"]["averaging_grid"] = grid
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(out)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, section, key", [
        ("theorem2_base", "", "lable"), ("theorem2_base", "instance", "theta_0"),
        ("theorem2_base", "step_size", "alpha_scal"),
        ("theorem2_base", "experiment", "trails"),
        # the kind-dependent sections take their own kind's keys only
        ("theorem4_saturating", "provider", "aa"),
        ("theorem4_linear_contraction", "provider", "a"),
        ("theorem2_base", "provider", "noise"),
        ("theorem1_cycle4", "instance.chain", "gama"),
        ("theorem2_base", "instance.chain", "density"),
        ("theorem1_random6", "instance.features", "seeed"),
        ("theorem1_cycle4", "instance.features", "seed"),
        ("delayed_uniform_1", "experiment.delays", "tau")])
    def test_unknown_config_key_exits_invalid(self, tmp_path, capsys, name, section,
                                              key):
        # a misspelt key would otherwise leave its default in place
        cfg = bundled_config(name)
        doc = cfg
        for part in filter(None, section.split(".")):
            doc = doc[part]
        doc[key] = 150
        for command in ("oracle", "run"):
            if command == "oracle" and section.startswith(("step_size", "experiment")):
                continue  # the oracle reads the instance alone
            out = tmp_path / command
            assert main([command, "--config", write_cfg(tmp_path, cfg), "--out",
                         str(out)]) == EXIT_INVALID_INPUT
            err = capsys.readouterr().err
            assert f"unknown config key {'.'.join(filter(None, (section, key)))!r}" in err
            assert not out.exists()

    def test_unknown_key_message_lists_the_kinds_keys(self, tmp_path, capsys):
        cfg = bundled_config("theorem4_saturating")
        cfg["provider"]["aa"] = 0.9
        assert main(["oracle", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_INVALID_INPUT
        assert ("unknown config key 'provider.aa' (known: a, b, kind, noise, "
                "theta_star)") in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_linear_contraction_is_the_saturating_operator_at_a1_b0(self, tmp_path,
                                                                   capsys, key):
        cfg = bundled_config("theorem4_linear_contraction")
        provider = parse_experiment(cfg)[0].provider
        assert type(provider) is SaturatingMonotoneProvider
        assert (provider.a, provider.b, provider.L, provider.beta) == (1.0, 0.0, 1.0, 1.0)
        # its constants are fixed, so the kind reads neither
        cfg["provider"][key] = 1.0
        for command in ("oracle", "run"):
            out = tmp_path / command
            assert main([command, "--config", write_cfg(tmp_path, cfg), "--out",
                         str(out)]) == EXIT_INVALID_INPUT
            assert (f"unknown config key 'provider.{key}' (known: kind, noise, "
                    f"theta_star)") in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_kind_is_left_to_its_builder(self, tmp_path, capsys):
        cfg = bundled_config("theorem2_base")
        cfg["instance"]["chain"] = {"kind": "ring", "n": 4}
        assert main(["oracle", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_INVALID_INPUT
        assert "unknown chain kind 'ring'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["step_size", "experiment", "instance.chain",
                                         "instance.features", "provider",
                                         "experiment.delays"])
    def test_section_that_is_no_object_exits_invalid(self, tmp_path, capsys, section):
        # not a traceback, whose exit code 1 would read as a ledger failure (a
        # null features, provider or delays section takes its default)
        cfg = bundled_config("delayed_uniform_1")
        head, _, tail = section.rpartition(".")
        value = None if section in ("step_size", "experiment") else [1]
        (cfg[head] if head else cfg)[tail] = value
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_INVALID_INPUT
        assert f"config section '{section}' must be an object" in capsys.readouterr().err

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

    def test_start_state_under_iid_restart_exits_invalid(self, tmp_path, capsys):
        # iid_restart draws every state from pi, so a start state would only
        # change the fingerprint
        cfg = bundled_config("lemma4_iid_control")
        cfg["experiment"]["start_state"] = 1
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) \
            == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "start_state" in err and "sampling 'iid_restart'" in err
        assert not out.exists()

    def test_delay_bound_without_a_kind_exits_invalid(self, tmp_path, capsys):
        # kind none is the undelayed process, so it takes no tau_max > 0
        cfg = bundled_config("delayed_uniform_1")
        cfg["experiment"]["delays"] = {"tau_max": 5, "seed": 7}
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) \
            == EXIT_INVALID_INPUT
        assert ("error: delays.tau_max 5 needs a delay kind (constant, uniform or "
                "sawtooth), got kind 'none'\n") == capsys.readouterr().err
        assert not out.exists()

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


TWO_STATE_CFG = {
    "instance": {
        "chain": {"kind": "explicit", "transitions": [[0.6, 0.4], [0.3, 0.7]],
                  "rewards": [1.0, 0.0], "gamma": 0.5},
        "features": {"kind": "explicit", "Phi": [[1.0], [0.5]]},
    },
    "experiment": {"kind": "boundedness", "T": 50, "trials": 100},
}
LINEAR = {"kind": "linear_contraction", "theta_star": [0.5], "noise": [[1.0], [-1.0]]}
SATURATING = dict(LINEAR, kind="saturating")


class TestInputRefusedWhereItEnters:
    # each value is refused by the constructor that takes it, naming its
    # field, so both commands exit 3 before writing anything; JSON numbers
    # read by Python's json may be NaN or Infinity
    @pytest.mark.parametrize("section, key, value, message", [
        ("instance.chain", "transitions", [[float("nan"), 1.0], [0.3, 0.7]],
         "transition matrix P has a non-finite entry nan at index (0, 0)"),
        ("instance.chain", "rewards", [float("nan"), 1.0],
         "reward vector R has a non-finite entry nan at index (0,)"),
        ("instance.features", "Phi", [[1.0], [float("nan")]],
         "feature matrix Phi has a non-finite entry nan at index (1, 0)"),
        ("instance", "theta0", [float("nan")],
         "theta0 has a non-finite entry nan at index (0,)"),
        ("provider", None, dict(LINEAR, theta_star=[float("nan")]),
         "theta_star has a non-finite entry nan at index (0,)"),
        ("provider", None, dict(LINEAR, noise=[[1.0], [float("inf")]]),
         "noise has a non-finite entry inf at index (1, 0)"),
        ("provider", None, dict(SATURATING, theta_star=[float("-inf")]),
         "theta_star has a non-finite entry -inf at index (0,)"),
        ("provider", None, dict(SATURATING, noise=[[float("nan")], [1.0]]),
         "noise has a non-finite entry nan at index (0, 0)"),
        ("provider", None, dict(SATURATING, a=float("nan")),
         "need finite a > 0 and b >= 0"),
        ("provider", None, dict(LINEAR, theta_star=[], noise=[[], []]),
         "theta_star needs at least one coordinate"),
        ("provider", None, dict(SATURATING, theta_star=[], noise=[[], []]),
         "theta_star needs at least one coordinate"),
    ])
    def test_bad_value_exits_invalid(self, tmp_path, capsys, section, key, value,
                                     message):
        cfg = json.loads(json.dumps(TWO_STATE_CFG))
        if key is None:
            cfg[section] = value
        else:
            doc = cfg
            for part in section.split("."):
                doc = doc[part]
            doc[key] = value
        path = write_cfg(tmp_path, cfg)
        for command in ("oracle", "run"):
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) \
                == EXIT_INVALID_INPUT
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestWrongTypedValues:
    # a value of the wrong JSON type is refused by the library function that
    # takes it, naming its key, so both commands exit 3 before writing
    # anything: no traceback (exit 1, a ledger failure), and no cast that runs
    # another experiment (n = 4.7 as a 4-state chain, seed 3.9 as seed 3)
    @pytest.mark.parametrize("name, section, key, value, message", [
        ("theorem4_linear_contraction", "provider", "theta_star", {"x": 1},
         "theta_star must be an array of numbers, got {'x': 1}"),
        ("theorem4_linear_contraction", "provider", "noise", [["1"], ["2"]],
         "noise must be an array of numbers"),
        ("theorem4_saturating", "provider", "a", [1], "got a=[1], b=0.3"),
        ("theorem4_saturating", "provider", "b", "0.3", "got a=0.7, b='0.3'"),
        ("theorem1_cycle4", "instance.chain", "epsilon", [0.5],
         "epsilon must lie in (0, 1), got [0.5]"),
        ("theorem1_cycle4", "instance.chain", "kind", ["cycle"],
         "unknown chain kind ['cycle']"),
        ("theorem1_cycle4", "instance.chain", "n", 4.7, "n must be an integer, got 4.7"),
        ("theorem1_random6", "instance.chain", "seed", 3.9,
         "seed must be an integer, got 3.9"),
        ("theorem1_random6", "instance.chain", "density", True,
         "density must lie in (0, 1], got True"),
        ("theorem1_random6", "instance.features", "K", 2.5,
         "K must be an integer, got 2.5"),
        ("theorem1_random6", "instance.features", "seed", "5",
         "seed must be an integer, got '5'"),
        ("theorem1_cycle4", "instance.chain", "gamma", "0.3",
         "gamma must lie strictly in (0, 1), got '0.3'"),
        ("theorem2_base", "instance.chain", "rewards", [True, False],
         "reward vector R must be an array of numbers, got [True, False]"),
        ("theorem2_base", "instance.chain", "transitions", [[0.5, 0.5], [1.0]],
         "transition matrix P must be an array of numbers"),
        ("lemma4_iid_control", "instance.features", "Phi", "ab",
         "feature matrix Phi must be an array of numbers, got 'ab'"),
        ("theorem2_base", "instance", "theta0", "ab",
         "theta0 must be an array of numbers, got 'ab'"),
        ("theorem2_base", "experiment", "kind", ["boundedness"],
         "unknown experiment kind ['boundedness']"),
        ("theorem2_base", "step_size", "alpha", "0.01",
         "alpha must be a positive finite number, got '0.01'"),
        ("theorem2_base", "", "bundled", ["theorem2_base"],
         "unknown bundled config ['theorem2_base']"),
        # counts are at least 1, and random features no wider than the chain
        ("theorem1_cycle4", "instance.chain", "n", -3, "n must be at least 1, got -3"),
        ("theorem1_random6", "instance.chain", "n", -2, "n must be at least 1, got -2"),
        ("theorem1_random6", "instance.features", "K", -2,
         "need 1 <= K <= n, got K=-2, n=6"),
        ("theorem1_random6", "instance.features", "K", 7,
         "need 1 <= K <= n, got K=7, n=6"),
    ])
    def test_wrong_type_exits_invalid_naming_its_key(self, tmp_path, capsys, name,
                                                     section, key, value, message):
        cfg = bundled_config(name)
        doc = cfg
        for part in filter(None, section.split(".")):
            doc = doc[part]
        doc[key] = value
        path = write_cfg(tmp_path, cfg)
        for command in ("oracle", "run"):
            if command == "oracle" and section in ("step_size", "experiment"):
                continue  # the oracle reads the instance alone
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) \
                == EXIT_INVALID_INPUT
            assert message in capsys.readouterr().err
            assert not out.exists()


    @pytest.mark.parametrize("label", [None, 7])
    def test_label_of_wrong_type_exits_invalid(self, tmp_path, capsys, label):
        # the label goes into the fingerprint; the oracle does not read it
        cfg = bundled_config("theorem1_cycle4")
        cfg["label"] = label
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) \
            == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: label must be a string, got {label!r}\n"
        assert not out.exists()

    def test_weighted_average_below_the_trial_floor_exits_invalid(self, tmp_path,
                                                                   capsys):
        cfg = bundled_config("theorem3_averaging")
        cfg["experiment"]["trials"] = 5
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) \
            == EXIT_INVALID_INPUT
        assert "ledger-producing runs need at least 100 trials, got 5" in \
            capsys.readouterr().err
        assert not out.exists()


# the config schema: the keys each section and kind knows. The CLI learns
# them from the keys each builder asks for, so a builder that stops asking
# for a key, or asks for a new one, changes the schema and shows here
KNOWN = {
    "": "experiment, instance, label, provider, step_size",
    "instance": "chain, features, theta0",
    "instance.chain explicit": "gamma, kind, rewards, states, transitions",
    "instance.chain cycle": "epsilon, gamma, kind, n, rewards",
    "instance.chain random": "density, gamma, kind, n, seed",
    "instance.features explicit": "Phi, kind",
    "instance.features constant": "kind",
    "instance.features identity": "kind",
    "instance.features groups": "K, kind",
    "instance.features random": "K, kind, seed",
    "provider td0": "kind",
    "provider linear_contraction": "kind, noise, theta_star",
    "provider saturating": "a, b, kind, noise, theta_star",
    "step_size": "C, alpha, alpha_scale, mode, tau",
    "experiment": ("T, averaging_grid, ceiling, delays, kind, master_seed, "
                   "sampling, start_state, trials"),
    "experiment.delays": "kind, seed, tau_max",
}


class TestConfigReader:
    # each section drops the optional keys it may (a default kind included),
    # so a builder must ask for a key it is not given to know it
    @pytest.mark.parametrize("name, section, kind, drop", [
        ("theorem2_base", "", None, ("label", "step_size", "experiment", "provider")),
        ("theorem2_base", "instance", None, ("features", "theta0")),
        ("theorem2_base", "instance.chain", "explicit", ("kind",)),
        ("theorem1_cycle4", "instance.chain", "cycle", ("gamma",)),
        ("theorem1_random6", "instance.chain", "random", ("gamma",)),
        ("lemma4_iid_control", "instance.features", "explicit", ("kind",)),
        ("theorem2_base", "instance.features", "constant", ()),
        ("theorem1_three_state", "instance.features", "identity", ()),
        ("theorem1_cycle4", "instance.features", "groups", ()),
        ("theorem1_random6", "instance.features", "random", ("seed",)),
        ("theorem2_base", "provider", "td0", ("kind",)),
        ("theorem4_linear_contraction", "provider", "linear_contraction", ()),
        ("theorem4_saturating", "provider", "saturating", ("a", "b")),
        ("theorem2_base", "step_size", None, ("alpha_scale",)),
        ("theorem2_base", "experiment", None, ("kind", "T", "trials", "master_seed")),
        ("delayed_uniform_1", "experiment.delays", None, ("kind", "tau_max", "seed"))])
    def test_each_kind_knows_the_keys_its_builder_reads(self, tmp_path, capsys, name,
                                                       section, kind, drop):
        cfg = bundled_config(name)
        doc = cfg
        for part in filter(None, section.split(".")):
            doc = doc[part]
        for key in drop:
            del doc[key]
        doc["zz"] = 1
        known = KNOWN[" ".join(filter(None, (section, kind)))]
        unknown = ".".join(filter(None, (section, "zz")))
        path = write_cfg(tmp_path, cfg)
        for command in ("oracle", "run"):
            if command == "oracle" and section.startswith(("step_size", "experiment")):
                continue  # the oracle reads the instance alone
            assert main([command, "--config", path, "--out",
                         str(tmp_path / command)]) == EXIT_INVALID_INPUT
            assert (f"unknown config key {unknown!r} (known: {known})"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("name, section, key, message", [
        ("theorem1_cycle4", "instance.chain", "n",
         "config key 'instance.chain.n' is missing (given: epsilon, gamma, kind, nn)"),
        ("theorem4_saturating", "provider", "noise",
         "config key 'provider.noise' is missing (given: a, b, kind, nnoise, "
         "theta_star)"),
        ("theorem2_base", "", "instance",
         "config key 'instance' is missing (given: experiment, label, ninstance, "
         "provider, step_size)"),
    ])
    def test_missing_required_key_names_the_keys_given(self, tmp_path, capsys, name,
                                                       section, key, message):
        # a misspelt required key reads as missing, its typo listed as given
        cfg = bundled_config(name)
        doc = cfg
        for part in filter(None, section.split(".")):
            doc = doc[part]
        doc["n" + key] = doc.pop(key)
        for command in ("oracle", "run"):
            out = tmp_path / command
            assert main([command, "--config", write_cfg(tmp_path, cfg), "--out",
                         str(out)]) == EXIT_INVALID_INPUT
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_misspelt_section_is_named_before_its_default_is_used(self, tmp_path,
                                                                   capsys):
        # a td0 provider in place of the saturating one would have dimension 3
        # and refuse theta0; the typo is refused first, by name
        cfg = bundled_config("theorem4_saturating")
        cfg["provder"] = cfg.pop("provider")
        for command in ("oracle", "run"):
            assert main([command, "--config", write_cfg(tmp_path, cfg), "--out",
                         str(tmp_path / command)]) == EXIT_INVALID_INPUT
            assert "unknown config key 'provder'" in capsys.readouterr().err

    @pytest.mark.parametrize("delays", [{}, False])
    def test_empty_delays_run_undelayed(self, tmp_path, delays):
        # an empty delays section is no delay process, as null is
        outputs = []
        for tag, value in (("null", None), ("empty", delays)):
            cfg = {**ONE_STATE_CFG,
                   "experiment": {**ONE_STATE_CFG["experiment"], "delays": value}}
            assert parse_experiment(cfg)[0].delays is None
            out = tmp_path / tag
            assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out",
                         str(out)]) == EXIT_PASS
            outputs.append([(out / name).read_bytes()
                            for name in ("estimate.csv", "ledgers.json")])
        assert outputs[0] == outputs[1]

    def test_oracle_accepts_the_run_sections(self, tmp_path):
        cfg = {**ONE_STATE_CFG, "label": "one state",
               "step_size": {"alpha_scale": 0.5, "C": 8.0, "mode": "td0"}}
        assert main(["oracle", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_PASS

    def test_run_accepts_alpha_with_alpha_scale(self, tmp_path):
        # a given alpha bypasses resolution, so its scale is known but unused
        cfg = {**ONE_STATE_CFG, "step_size": {"alpha": 0.01, "alpha_scale": 0.5}}
        config, _ = parse_experiment(cfg)
        assert config.alpha == 0.01
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_PASS


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

    def test_T_sweep_values_are_counted(self, tmp_path):
        cfg = {**ONE_STATE_CFG, "experiment": {"kind": "weighted_average",
                                               "trials": 100, "master_seed": 3}}
        out = tmp_path / "sweep"
        main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
              "--sweep", "T=50.0,100,200,400"])
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["values"] == [r["T"] for r in summary["points"]] == \
            [50, 100, 200, 400]
        assert '"values": [\n    50,\n    100,' in (out / "sweep_summary.json").read_text()

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
        # a = 0.7, b = 0.3: L = 1 and beta = 0.7, so the cap is 0.7 / (8 tau)
        # and T = ceil(10 / (0.7 alpha))
        assert point["alpha"] == 0.7 / (8.0 * 8) == 0.0109375
        assert (point["tau"], point["T"]) == (8, 1307)
        config, _ = parse_experiment(bundled_config("theorem4_saturating"))
        provider = config.provider
        assert generic_tau(provider.model.mrp, provider.L * provider.sigma_const,
                           point["alpha"])[0] == 8
        assert point["T"] == np.ceil(10.0 / (0.7 * point["alpha"]))
        ledgers = json.loads((out / "ledgers.json").read_text())["ledgers"]
        assert ledgers["tau_max_0"]["hypothesis"]["mode"] == "nonlinear"

    @pytest.mark.parametrize("name, sweep, message", [
        ("theorem1_two_state_fast", "tau_max=-1", "tau_max=-1 must be at least 0"),
        ("theorem3_averaging", "T=0,64", "averaging horizon T=0 must be at least 1"),
        ("theorem2_base", "alpha=0,1", "alpha multiplier 0.0 must be"),
        ("theorem2_base", "alpha=1,-1", "alpha multiplier -1.0 must be"),
        ("theorem1_two_state_fast", "tau_max=1,1", "sweep values must be distinct"),
        ("theorem2_base", "alpha=1", "an alpha sweep needs at least two multipliers"),
        ("theorem2_base", "alpha=1,1.0000001",
         "alpha multipliers 1.0 and 1.0000001 share the seed index 1000000"),
        ("theorem3_averaging", "T=64,64,128", "sweep values must be distinct"),
        ("theorem1_two_state_fast", "tau_max=1.5",
         "sweep value tau_max must be an integer, got 1.5"),
    ])
    def test_out_of_range_sweep_value_exits_invalid(self, tmp_path, capsys, name,
                                                    sweep, message):
        out = tmp_path / "o"
        assert main(["sweep", "--bundled", name, "--out", str(out),
                     "--sweep", sweep]) == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()  # refused before any output is written

    def test_T_sweep_of_a_boundedness_config_exits_invalid(self, tmp_path, capsys):
        # a grid in the config does not make it a weighted_average experiment
        cfg = bundled_config("theorem1_two_state_fast")
        cfg["experiment"]["averaging_grid"] = [64, 128]
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     "--sweep", "T=64,128,256,512"]) == EXIT_INVALID_INPUT
        assert "a T sweep needs a weighted_average experiment" in capsys.readouterr().err
        assert not out.exists()

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

    def test_provider_of_another_kind_replaces_the_bundled_one(self, tmp_path):
        from tdcert.cli import load_config
        saturating = bundled_config("theorem4_saturating")["provider"]
        linear = {"kind": "linear_contraction", "theta_star": [0.5, -0.3],
                  "noise": saturating["noise"]}
        path = write_cfg(tmp_path, {"bundled": "theorem4_saturating", "provider": linear})
        assert load_config(path)["provider"] == linear  # no saturating a, b
        assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_PASS
        path = write_cfg(tmp_path, {"bundled": "theorem4_saturating", "provider": {"a": 0.9}})
        assert load_config(path)["provider"] == {**saturating, "a": 0.9}
