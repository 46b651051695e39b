"""Batch command-line interface.

Three subcommands: `oracle` emits the closed-form report for an instance,
`run` executes one configured experiment end to end, and `sweep` drives a
grid along one axis. Configs are single JSON documents (see README for the
schema); every run writes a manifest that fully determines a re-run, and the
columnar outputs are byte-identical across reruns of the same manifest.

Exit codes: 0 all in-contract ledgers pass, 1 ledger failure, 2 hypothesis
out of contract, 3 input/validation error.
"""

import argparse
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .bundled import bundled_config, bundled_names
from .chain import ChainError, mrp_from_dict
from .oracle import (
    CertificationError,
    FeatureError,
    OracleError,
    build_steady_state,
    features_from_dict,
    oracle_report,
)
from .sa_core import (
    STEP_C,
    DelayProcess,
    StepSizeError,
    auto_horizon,
    integer,
    resolve_step_size,
    LinearContractionProvider,
    SaturatingMonotoneProvider,
    TD0Provider,
)
from .harness import (
    CEILING,
    AuditError,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    sweep,
    write_columnar,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_OUT_OF_CONTRACT = 2
EXIT_INVALID_INPUT = 3


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if "bundled" in cfg:
        base = bundled_config(cfg["bundled"])
        for key, value in cfg.items():
            if key == "bundled":
                continue
            section = base.get(key)
            # a provider's keys depend on its kind, so one of another kind
            # replaces the bundled provider rather than merging into it
            if (isinstance(value, dict) and isinstance(section, dict)
                    and (key != "provider"
                         or value.get("kind", section["kind"]) == section["kind"])):
                section.update(value)
            else:
                base[key] = value
        cfg = base
    return cfg


def _build_provider(prov_cfg: dict, model):
    kind = prov_cfg.get("kind", "td0")
    if kind == "td0":
        return TD0Provider(model)
    if kind == "linear_contraction":
        return LinearContractionProvider(prov_cfg["theta_star"],
                                         prov_cfg["noise"], model)
    if kind == "saturating":
        return SaturatingMonotoneProvider(
            prov_cfg["theta_star"], prov_cfg["noise"], model,
            **{key: prov_cfg[key] for key in ("a", "b") if key in prov_cfg})
    raise ConfigError(f"unknown provider kind {kind!r}")


# the keys each config section may carry; step_size's mode, C and tau and
# experiment's ceiling are legacy keys that name a derived value. A section
# that names its kind maps each kind to its keys.
KNOWN_KEYS = {
    "": {"label", "instance", "step_size", "experiment", "provider"},
    "instance": {"chain", "features", "theta0"},
    "instance.chain": {
        "explicit": {"kind", "states", "transitions", "rewards", "gamma"},
        "cycle": {"kind", "n", "epsilon", "gamma", "rewards"},
        "random": {"kind", "n", "density", "seed", "gamma"}},
    "instance.features": {
        "explicit": {"kind", "Phi"}, "constant": {"kind"}, "identity": {"kind"},
        "groups": {"kind", "K"}, "random": {"kind", "K", "seed"}},
    "provider": {
        "td0": {"kind"}, "linear_contraction": {"kind", "theta_star", "noise"},
        "saturating": {"kind", "theta_star", "noise", "a", "b"}},
    "step_size": {"alpha", "alpha_scale", "mode", "C", "tau"},
    "experiment": {"kind", "T", "trials", "master_seed", "sampling", "start_state",
                   "delays", "averaging_grid", "ceiling"},
    "experiment.delays": {"kind", "tau_max", "seed"},
}


def _refuse_unknown_keys(section: str, doc: dict, default_kind=None):
    """A section that is not an object, or a key it does not know, is
    refused, naming it, so a misspelt key cannot leave its default in place.
    A section that names its kind (``default_kind`` if it names none) takes
    that kind's keys; an unknown kind is left to the section's builder."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {section or 'top level'!r} must be an "
                          f"object, got {doc!r}")
    known = KNOWN_KEYS[section]
    if default_kind is not None:
        known = known.get(doc.get("kind", default_kind))
        if known is None:
            return
    unknown = sorted(set(doc) - known)
    if unknown:
        name = f"{section}.{unknown[0]}" if section else unknown[0]
        raise ConfigError(f"unknown config key {name!r} (known: "
                          f"{', '.join(sorted(known))})")


def _check_derived(section: str, doc: dict, key: str, derived):
    """A legacy key that names a value the code derives is accepted when it
    equals that value, and refused otherwise."""
    given = doc.get(key)
    if given is not None and given != derived:
        raise ConfigError(f"{section}.{key} {given!r} does not match the "
                          f"derived value {derived!r}")


def _parse_instance(cfg: dict):
    """The instance of a config document as (provider, theta0): the
    update-direction provider built on the chain (which must pass
    Assumption 1), its features and steady-state model, and theta0 as given
    (None if absent)."""
    _refuse_unknown_keys("", cfg)
    inst = cfg.get("instance")
    if not inst or "chain" not in inst:
        raise ConfigError("config needs an instance with a chain")
    _refuse_unknown_keys("instance", inst)
    features_cfg = inst.get("features") or {"kind": "constant"}
    prov_cfg = cfg.get("provider") or {"kind": "td0"}
    _refuse_unknown_keys("instance.chain", inst["chain"], "explicit")
    _refuse_unknown_keys("instance.features", features_cfg, "explicit")
    _refuse_unknown_keys("provider", prov_cfg, "td0")
    mrp = mrp_from_dict(inst["chain"])
    model = build_steady_state(mrp, features_from_dict(features_cfg, mrp.n))
    return _build_provider(prov_cfg, model), inst.get("theta0")


def _number(name: str, value):
    """A numeric config value as given, refused (ConfigError naming the key)
    unless it is a finite JSON number. Keys that count are read with
    ``sa_core.integer``, the check the library types make, under their key."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _parse_delays(exp: dict):
    doc = exp.get("delays")
    if not doc:
        return None
    _refuse_unknown_keys("experiment.delays", doc)
    tau_max = integer("experiment.delays.tau_max", doc.get("tau_max", 0))
    seed = integer("experiment.delays.seed", doc.get("seed", 0))
    return DelayProcess(doc.get("kind", "none"), tau_max, seed)


def parse_experiment(cfg: dict, seed_override: int | None = None):
    """Turn a config document into an (ExperimentConfig, experiment kind) pair."""
    provider, theta0 = _parse_instance(cfg)
    step_cfg = cfg.get("step_size", {})
    _refuse_unknown_keys("step_size", step_cfg)
    alpha = step_cfg.get("alpha")
    if alpha is None:  # the provider's fixed point, optionally scaled
        scale = _number("step_size.alpha_scale", step_cfg.get("alpha_scale", 1.0))
        alpha = resolve_step_size(provider) * float(scale)

    exp = cfg.get("experiment", {})
    _refuse_unknown_keys("experiment", exp)
    kind = exp.get("kind", "boundedness")
    trials = integer("experiment.trials", exp.get("trials", 2000))
    if trials < 100:
        raise ConfigError(
            f"trials must be at least 100 for a ledger-producing run, got {trials}")
    T = exp.get("T", "auto")
    if T == "auto":
        T = auto_horizon(alpha, provider)
    delays = _parse_delays(exp)
    master_seed = integer("experiment.master_seed", exp.get("master_seed", 0))
    if seed_override is not None:
        master_seed = seed_override
    start_state = exp.get("start_state")  # null draws the start state
    if start_state is not None:
        start_state = integer("experiment.start_state", start_state)
    grid = exp.get("averaging_grid")
    if grid is not None:
        if not isinstance(grid, list):
            raise ConfigError(f"experiment.averaging_grid must be a list, got {grid!r}")
        for T_k in grid:
            integer("experiment.averaging_grid entry", T_k)
    config = ExperimentConfig(
        provider=provider, theta0=theta0, alpha=alpha,
        T=integer("experiment.T", T), trials=trials, master_seed=master_seed,
        delays=delays, sampling=exp.get("sampling", "markov"),
        start_state=start_state,
        averaging_grid=grid, label=cfg.get("label", ""),
    )
    # the provider picks the mode and the config certifies tau
    for key, derived in (("mode", provider.mode), ("C", STEP_C), ("tau", config.tau)):
        _check_derived("step_size", step_cfg, key, derived)
    _check_derived("experiment", exp, "ceiling", CEILING)
    return config, kind


def _verdict_exit(ledgers: dict) -> int:
    verdicts = [led.verdict for led in ledgers.values()]
    if any(v == "out-of-contract" for v in verdicts):
        return EXIT_OUT_OF_CONTRACT
    if any(v != "pass" for v in verdicts):
        return EXIT_FAIL
    return EXIT_PASS


def _manifest(config: ExperimentConfig, cfg_doc: dict, out_dir: str,
              started: float, exit_code: int) -> dict:
    return {
        "config": cfg_doc,
        "resolved": {
            "omega": config.model.omega,
            "tau": config.tau,
            "alpha": config.alpha,
            "B": config.B,
            "theta_star": config.provider.theta_star.tolist(),
            "fingerprint": config.fingerprint(),
            "master_seed": config.master_seed,
            "T": config.T,
            "trials": config.trials,
        },
        "out_dir": os.path.abspath(out_dir),
        "version": __version__,
        "wall_clock": {
            "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
            "elapsed_s": time.time() - started,
        },
        "exit_code": exit_code,
    }


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_oracle(cfg: dict, out_dir: str) -> int:
    provider, theta0 = _parse_instance(cfg)
    doc = oracle_report(provider, theta0)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "oracle_report.json"), doc)
    print(f"oracle report written to {out_dir}/oracle_report.json "
          f"(omega={doc['omega']:.6g}, theta_star={doc['theta_star']})")
    return EXIT_PASS


def cmd_run(cfg: dict, out_dir: str, seed_override=None) -> int:
    started = time.time()
    config, kind = parse_experiment(cfg, seed_override)
    estimate, ledgers = run_experiment(config, kind)
    os.makedirs(out_dir, exist_ok=True)
    if estimate is not None:
        lead = ledgers.get("boundedness")
        write_columnar(os.path.join(out_dir, "estimate.csv"), estimate, lead)
    if "weighted_average" in ledgers:
        rows = ledgers["weighted_average"].fitted["table"]
        with open(os.path.join(out_dir, "averaging.csv"), "w") as fh:
            fh.write(f"# fingerprint={config.fingerprint()}\n")
            fh.write("T,alpha,tau,case,err,se\n")
            for r in rows:
                fh.write(f"{r['T']},{r['alpha']!r},{r['tau']},{r['case']},"
                         f"{r['err']!r},{r['se']!r}\n")
    _write_json(os.path.join(out_dir, "ledgers.json"),
                {"fingerprint": config.fingerprint(),
                 "ledgers": {name: led.to_dict() for name, led in ledgers.items()}})
    code = _verdict_exit(ledgers)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest(config, cfg, out_dir, started, code))
    for name, led in ledgers.items():
        print(f"[{name}] verdict={led.verdict} worst_margin={led.worst_margin:.6g}")
    return code


def _parse_axis(sweep_arg: str):
    """The axis and values of ``--sweep axis=v1,v2,...``, each value read as a
    float; ``sweep`` checks them and counts tau_max and T in whole numbers."""
    if "=" not in sweep_arg:
        raise ConfigError("sweep axis must look like alpha=1,0.5,0.25")
    axis, _, raw = sweep_arg.partition("=")
    return axis, [float(v) for v in raw.split(",") if v]


def cmd_sweep(cfg: dict, out_dir: str, sweep_arg: str, seed_override=None) -> int:
    started = time.time()
    axis, values = _parse_axis(sweep_arg)
    config, kind = parse_experiment(cfg, seed_override)
    if axis == "T" and not config.averaging_grid and kind != "weighted_average":
        raise ConfigError("a T sweep needs a weighted_average experiment")
    summary = sweep(config, axis, values)
    ledgers, estimates = summary.pop("ledgers"), summary.pop("estimates")
    # nothing is written until every point has run: a refused sweep leaves no
    # output directory, as a refused run does
    os.makedirs(out_dir, exist_ok=True)
    for tag, est in estimates.items():
        write_columnar(os.path.join(out_dir, f"estimate_{tag}.csv"), est, ledgers[tag])
    code = _verdict_exit(ledgers)
    _write_json(os.path.join(out_dir, "ledgers.json"),
                {"fingerprint": config.fingerprint(),
                 "ledgers": {name: led.to_dict() for name, led in ledgers.items()}})
    summary.update(fingerprint=config.fingerprint(), exit_code=code)
    _write_json(os.path.join(out_dir, "sweep_summary.json"), summary)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest(config, cfg, out_dir, started, code))
    for name, led in ledgers.items():
        print(f"[{name}] verdict={led.verdict}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdcert",
        description="Simulate TD(0)/contractive SA under Markovian sampling "
                    "and certify finite-time bounds at desk scale.")
    parser.add_argument("command", choices=["oracle", "run", "sweep"])
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--manifest", help="rerun the config embedded in a manifest")
    parser.add_argument("--bundled", help="name of a bundled config "
                        f"({', '.join(bundled_names())})")
    parser.add_argument("--out", default="tdcert_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
    parser.add_argument("--sweep", default=None,
                        help="axis grid, e.g. alpha=1,0.5,0.25")
    args = parser.parse_args(argv)

    try:
        if args.manifest:
            with open(args.manifest) as fh:
                cfg = json.load(fh)["config"]
        elif args.config:
            cfg = load_config(args.config)
        elif args.bundled:
            cfg = bundled_config(args.bundled)
        else:
            print("one of --config, --manifest, --bundled is required",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT

        if args.command == "oracle":
            return cmd_oracle(cfg, args.out)
        if args.command == "run":
            return cmd_run(cfg, args.out, args.seed)
        if args.sweep is None:
            print("sweep needs --sweep axis=v1,v2,...", file=sys.stderr)
            return EXIT_INVALID_INPUT
        return cmd_sweep(cfg, args.out, args.sweep, args.seed)
    except (ConfigError, ChainError, FeatureError, OracleError,
            CertificationError, StepSizeError, AuditError, KeyError,
            FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
