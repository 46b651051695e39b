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
from .chain import ChainError, is_number, mrp_from_dict
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
    resolve_step_size,
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
    if isinstance(cfg, dict) and "bundled" in cfg:
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
    if kind == "linear_contraction":  # the saturating operator at a = 1, b = 0
        return SaturatingMonotoneProvider(prov_cfg["theta_star"], prov_cfg["noise"],
                                          model, a=1.0, b=0.0)
    if kind == "saturating":
        return SaturatingMonotoneProvider(
            prov_cfg["theta_star"], prov_cfg["noise"], model,
            **{key: prov_cfg[key] for key in ("a", "b") if key in prov_cfg})
    raise ConfigError(f"unknown provider kind {kind!r}")


class _Section(dict):
    """A config section as its builder reads it: a dict that records each key
    asked for (``get``, ``[]``, ``in``), given or not. Once the section is
    built, ``done`` refuses a key nobody asked for, so a misspelt key cannot
    leave its default in place and a kind's keys are the ones its builder
    reads. A missing required key is refused naming the keys given."""

    def __init__(self, path: str, doc):
        if not isinstance(doc, dict):
            raise ConfigError(f"config section {path or 'top level'!r} must be an "
                              f"object, got {doc!r}")
        super().__init__(doc)
        self.prefix = f"{path}." if path else ""
        self.asked = set()

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)

    def __missing__(self, key):
        raise ConfigError(f"config key {self.prefix + key!r} is missing (given: "
                          f"{', '.join(sorted(self)) or 'none'})")

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)

    def done(self):
        unknown = sorted(set(self) - self.asked)
        if unknown:
            raise ConfigError(f"unknown config key {self.prefix + unknown[0]!r} "
                              f"(known: {', '.join(sorted(self.asked))})")


def _parse_instance(cfg: dict):
    """The instance of a config document as (provider, theta0, label,
    step_size, experiment): the update-direction provider built on the chain
    (which must pass Assumption 1), its features and steady-state model,
    theta0 as given (None if absent), and the run's sections as given. An
    unknown top-level key is refused before any section is built."""
    cfg = _Section("", cfg)
    inst = _Section("instance", cfg["instance"])
    prov_cfg = _Section("provider", cfg.get("provider") or {"kind": "td0"})
    run = (cfg.get("label", ""), cfg.get("step_size", {}), cfg.get("experiment", {}))
    cfg.done()
    theta0 = inst.get("theta0")
    chain = _Section("instance.chain", inst["chain"])
    feats = _Section("instance.features", inst.get("features") or {"kind": "constant"})
    inst.done()
    mrp = mrp_from_dict(chain)
    chain.done()
    features = features_from_dict(feats, mrp.n)
    feats.done()
    provider = _build_provider(prov_cfg, build_steady_state(mrp, features))
    prov_cfg.done()
    return (provider, theta0) + run


def parse_experiment(cfg: dict, seed_override: int | None = None):
    """Turn a config document into an (ExperimentConfig, experiment kind) pair."""
    provider, theta0, label, step_doc, exp_doc = _parse_instance(cfg)
    # every step_size and experiment key is asked for, and an unknown one
    # refused, before anything is derived from a default
    step = _Section("step_size", step_doc)
    alpha, scale = step.get("alpha"), step.get("alpha_scale", 1.0)
    legacy = {f"step_size.{key}": step.get(key) for key in ("mode", "C", "tau")}
    step.done()
    exp = _Section("experiment", exp_doc)
    kind = exp.get("kind", "boundedness")
    trials, T = exp.get("trials", 2000), exp.get("T", "auto")
    delays = exp.get("delays") or None  # null or {} runs undelayed
    master_seed = exp.get("master_seed", 0)
    if seed_override is not None:
        master_seed = seed_override
    start_state = exp.get("start_state")  # null draws the start state
    grid, sampling = exp.get("averaging_grid"), exp.get("sampling", "markov")
    legacy["experiment.ceiling"] = exp.get("ceiling")
    exp.done()
    if delays is not None:
        doc = _Section("experiment.delays", delays)
        args = doc.get("kind", "none"), doc.get("tau_max", 0), doc.get("seed", 0)
        doc.done()
        delays = DelayProcess(*args)

    if alpha is None:  # the provider's fixed point, optionally scaled
        if not (is_number(scale) and math.isfinite(scale)):
            raise ConfigError(f"step_size.alpha_scale must be a finite number, "
                              f"got {scale!r}")
        alpha = resolve_step_size(provider) * float(scale)
    if T == "auto":
        T = auto_horizon(alpha, provider)
    config = ExperimentConfig(
        provider=provider, theta0=theta0, alpha=alpha, T=T, trials=trials,
        master_seed=master_seed, delays=delays, sampling=sampling,
        start_state=start_state, averaging_grid=grid, label=label,
    )
    # legacy keys that name a derived value are accepted when they equal it:
    # the provider picks the mode and the config certifies tau
    derived = {"step_size.mode": provider.mode, "step_size.C": STEP_C,
               "step_size.tau": config.tau, "experiment.ceiling": CEILING}
    for key, given in legacy.items():
        if given is not None and given != derived[key]:
            raise ConfigError(f"{key} {given!r} does not match the derived value "
                              f"{derived[key]!r}")
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
    # the document with the seed that ran, so a --seed run's manifest reruns it
    experiment = dict(cfg_doc.get("experiment") or {}, master_seed=config.master_seed)
    return {
        "config": dict(cfg_doc, experiment=experiment),
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
    provider, theta0 = _parse_instance(cfg)[:2]  # the run's sections go unused
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
    if axis == "T" and kind != "weighted_average":
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
