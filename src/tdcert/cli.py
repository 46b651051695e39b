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
import os
import sys
import time
from dataclasses import replace
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
    alpha_sweep,
    run_experiment,
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
            if isinstance(value, dict) and isinstance(base.get(key), dict):
                base[key].update(value)
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
            a=prov_cfg.get("a", 0.7), b=prov_cfg.get("b", 0.3))
    raise ConfigError(f"unknown provider kind {kind!r}")


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
    inst = cfg.get("instance")
    if not inst or "chain" not in inst:
        raise ConfigError("config needs an instance with a chain")
    mrp = mrp_from_dict(inst["chain"])
    report = mrp.validation
    if not report.ok:
        raise ChainError(f"Assumption 1 violated: {report.describe()}")
    features = features_from_dict(inst.get("features") or {"kind": "constant"},
                                  mrp.n)
    model = build_steady_state(mrp, features)
    provider = _build_provider(cfg.get("provider") or {"kind": "td0"}, model)
    return provider, inst.get("theta0")


def parse_experiment(cfg: dict, seed_override: int | None = None):
    """Turn a config document into an (ExperimentConfig, experiment kind) pair."""
    provider, theta0 = _parse_instance(cfg)
    step_cfg = cfg.get("step_size", {})
    alpha = step_cfg.get("alpha")
    if alpha is None:  # the provider's fixed point, optionally scaled
        alpha = resolve_step_size(provider) * float(step_cfg.get("alpha_scale", 1.0))

    exp = cfg.get("experiment", {})
    kind = exp.get("kind", "boundedness")
    trials = int(exp.get("trials", 2000))
    if trials < 100:
        raise ConfigError(
            f"trials must be at least 100 for a ledger-producing run, got {trials}")
    T = exp.get("T", "auto")
    if T == "auto":
        T = auto_horizon(alpha, provider)
    delays_cfg = exp.get("delays")
    delays = DelayProcess(**delays_cfg) if delays_cfg else None
    master_seed = int(exp.get("master_seed", 0))
    if seed_override is not None:
        master_seed = int(seed_override)
    config = ExperimentConfig(
        provider=provider, theta0=theta0, alpha=alpha, T=int(T),
        trials=trials, master_seed=master_seed, delays=delays,
        sampling=exp.get("sampling", "markov"), start_state=exp.get("start_state"),
        averaging_grid=exp.get("averaging_grid"),
        label=cfg.get("label", ""),
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
    if "=" not in sweep_arg:
        raise ConfigError("sweep axis must look like alpha=1,0.5,0.25")
    axis, _, raw = sweep_arg.partition("=")
    values = [v for v in raw.split(",") if v]
    if not values:
        raise ConfigError("sweep grid is empty")
    if axis == "alpha":
        return axis, [float(v) for v in values]
    if axis == "T":
        return axis, [int(v) for v in values]
    if axis == "tau_max":
        grid = [int(v) for v in values]
        for tau_max in grid:
            if tau_max < 0:
                raise ConfigError(f"sweep value tau_max={tau_max} must be at least 0")
        return axis, grid
    raise ConfigError(f"unknown sweep axis {axis!r} (alpha, T, tau_max)")


def cmd_sweep(cfg: dict, out_dir: str, sweep_arg: str, seed_override=None) -> int:
    started = time.time()
    axis, values = _parse_axis(sweep_arg)
    config, kind = parse_experiment(cfg, seed_override)
    os.makedirs(out_dir, exist_ok=True)
    summary = {"axis": axis, "values": values, "points": []}
    ledgers_all = {}

    if axis == "alpha":
        result = alpha_sweep(config, multipliers=values)
        for i, point in enumerate(result["points"]):
            tag = f"alpha_{i}"
            write_columnar(os.path.join(out_dir, f"estimate_{tag}.csv"),
                           point["estimate"], point["boundedness"])
            ledgers_all[tag] = point["boundedness"]
            summary["points"].append({
                "alpha": point["alpha"], "tau": point["tau"], "T": point["T"],
                "in_contract": point["in_contract"], "floor": point["floor"],
                "verdict": point["boundedness"].verdict,
            })
        summary["floor_slope"] = result["floor_slope"]
    elif axis == "T":
        if not config.averaging_grid and kind != "weighted_average":
            raise ConfigError("a T sweep needs a weighted_average experiment")
        sub = replace(config, averaging_grid=values)
        _, ledgers_all = run_experiment(sub, "weighted_average")
        led = ledgers_all["weighted_average"]
        summary["points"] = led.fitted["table"]
        summary["tail_slope"] = led.fitted["tail_slope"]
    else:  # tau_max
        base_kind = (config.delays.kind if config.delays is not None
                     else "uniform")
        base_seed = config.delays.seed if config.delays is not None else 77
        provider = config.provider
        base = resolve_step_size(provider)
        for tau_max in values:
            alpha = base / (1 + tau_max)
            T = auto_horizon(alpha, provider)
            delays = DelayProcess(kind=base_kind if tau_max > 0 else "none",
                                  tau_max=tau_max, seed=base_seed)
            sub = replace(config, alpha=alpha, T=T, delays=delays)
            est, ledgers = run_experiment(sub, "boundedness")
            led = ledgers["boundedness"]
            tag = f"tau_max_{tau_max}"
            write_columnar(os.path.join(out_dir, f"estimate_{tag}.csv"), est, led)
            ledgers_all[tag] = led
            summary["points"].append({
                "tau_max": tau_max, "alpha": alpha, "tau": sub.tau, "T": T,
                "verdict": led.verdict,
            })

    code = _verdict_exit(ledgers_all) if ledgers_all else EXIT_INVALID_INPUT
    _write_json(os.path.join(out_dir, "ledgers.json"),
                {"fingerprint": config.fingerprint(),
                 "ledgers": {name: led.to_dict() for name, led in ledgers_all.items()}})
    summary["fingerprint"] = config.fingerprint()
    summary["exit_code"] = code
    _write_json(os.path.join(out_dir, "sweep_summary.json"), summary)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest(config, cfg, out_dir, started, code))
    for name, led in ledgers_all.items():
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
