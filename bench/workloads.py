"""Benchmark workloads and the cycle of operations each one repeats.

A workload turns the benchmark seed into config documents; the package sees
only those documents. An operation is one oracle report (`cmd_oracle`) or
one experiment run (`parse_experiment`, the Monte Carlo call, the ledgers
and the written `estimate.csv`/`ledgers.json`). A cycle is what a user waits
for: the workload's operations in order, from config documents to every
written output. Everything goes through public functions, looked up on the
module at call time so the traced run can wrap them.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

from tdcert import bundled, cli, harness

# The oracle workload's chain and features are fixed: the oracle's work
# depends on the chain (across chains drawn from the workload seed, set-up
# ranged from 0.9 to 1.5 s), and seed-to-seed changes of work would read as
# run-to-run spread. The workload seed drives the Monte Carlo streams.
ORACLE_CHAIN_SEED = 1501
ORACLE_FEATURE_SEED = 1502


@dataclass(frozen=True)
class Scale:
    """Workload sizes; FULL is what the benchmark measures, TOY is for the self-test."""

    mc_T: int = 2048
    mc_trials: int = 2000
    oracle_n: int = 150
    oracle_T: int = 512
    oracle_trials: int = 2000
    delayed_T: int | None = 8192      # None keeps the bundled auto horizon
    delayed_trials: int | None = 500
    avg_trials: int | None = None     # the averaging grid always stays bundled


FULL = Scale()
TOY = Scale(mc_T=64, mc_trials=100, oracle_n=12, oracle_T=64, oracle_trials=100,
            delayed_T=256, delayed_trials=100, avg_trials=500)


@dataclass
class Workload:
    seed: int
    experiments: list              # [(label, config document)]
    oracle: dict | None = None     # config document for cmd_oracle, if any
    params: dict = field(default_factory=dict)


def _override(cfg: dict, **experiment) -> dict:
    cfg["experiment"].update({k: v for k, v in experiment.items() if v is not None})
    return cfg


def make_workload(name: str, seed: int, scale: Scale = FULL) -> Workload:
    if name == "mc_k3":
        cfg = _override(bundled.bundled_config("theorem1_random6"),
                        T=scale.mc_T, trials=scale.mc_trials)
        return Workload(seed, [("theorem1_random6", cfg)],
                        params={"bundled": "theorem1_random6", "n": 6, "K": 3,
                                "T": scale.mc_T, "trials": scale.mc_trials,
                                "master_seed": seed})
    if name == "oracle_n150":
        chain_seed, feature_seed = ORACLE_CHAIN_SEED, ORACLE_FEATURE_SEED
        cfg = {
            "label": f"random n={scale.oracle_n} chain, random K=8 features",
            "instance": {
                "chain": {"kind": "random", "n": scale.oracle_n, "density": 0.5,
                          "gamma": 0.5, "seed": chain_seed},
                "features": {"kind": "random", "K": 8, "seed": feature_seed},
            },
            "step_size": {"C": 8.0, "mode": "td0"},
            "experiment": {"kind": "boundedness", "T": scale.oracle_T,
                           "trials": scale.oracle_trials, "master_seed": seed},
        }
        return Workload(seed, [("random_n150", cfg)], oracle=cfg,
                        params={"n": scale.oracle_n, "density": 0.5, "gamma": 0.5,
                                "K": 8, "chain_seed": chain_seed,
                                "feature_seed": feature_seed, "T": scale.oracle_T,
                                "trials": scale.oracle_trials, "master_seed": seed,
                                "oracle_eps": [1e-1, 1e-2, 1e-3, 1e-4]})
    if name == "delayed_avg":
        delayed = _override(bundled.bundled_config("delayed_uniform_5"),
                            T=scale.delayed_T, trials=scale.delayed_trials)
        # the averaging slope check needs the full horizon grid to pass
        avg = _override(bundled.bundled_config("theorem3_averaging"),
                        trials=scale.avg_trials)
        return Workload(seed, [("delayed_uniform_5", delayed),
                               ("theorem3_averaging", avg)],
                        params={"bundled": ["delayed_uniform_5", "theorem3_averaging"],
                                "delayed_T": delayed["experiment"]["T"],
                                "delayed_trials": delayed["experiment"]["trials"],
                                "delays": delayed["experiment"]["delays"],
                                "avg_grid": avg["experiment"]["averaging_grid"],
                                "avg_trials": avg["experiment"]["trials"],
                                "master_seed": seed})
    raise KeyError(f"unknown workload {name!r}")


@dataclass
class Cycle:
    """Timings of one cycle, and per operation its output digests and problems."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    mc_s: float = 0.0
    trial_steps: int = 0
    steps: int = 0
    bytes_written: int = 0
    host_scale: float = 1.0    # set by the benchmark, see bench.HostReference
    digests: dict = field(default_factory=dict)    # operation -> {file: sha256}
    problems: dict = field(default_factory=dict)   # operation -> [problem]

    @property
    def failed(self) -> int:
        return sum(bool(p) for p in self.problems.values())


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def setup(wl: Workload) -> float:
    """Seconds from the workload's config documents to ready ExperimentConfigs."""
    total = 0.0
    for _, cfg in wl.experiments:
        t0 = time.perf_counter()
        cli.parse_experiment(cfg, wl.seed)
        total += time.perf_counter() - t0
    return total


def operations(wl: Workload) -> list:
    return (["oracle_report"] if wl.oracle is not None else []) + [
        label for label, _ in wl.experiments]


def _experiment(wl: Workload, label: str, cfg: dict, out_dir: str, res: Cycle,
                problems: list):
    t0 = time.perf_counter()
    config, kind = cli.parse_experiment(cfg, wl.seed)
    res.setup_s += time.perf_counter() - t0
    files = []
    t0 = time.perf_counter()
    if kind == "boundedness":
        estimate = harness.estimate_dt_et(config)
        res.mc_s += time.perf_counter() - t0
        ledgers = {"boundedness": harness.check_boundedness(estimate)}
        path = os.path.join(out_dir, f"{label}.estimate.csv")
        harness.write_columnar(path, estimate, ledgers["boundedness"])
        files.append(path)
        steps = config.T
        finite = all(math.isfinite(v) for v in estimate.d_hat.tolist()
                     + estimate.e_hat.tolist())
    elif kind == "weighted_average":
        ledgers = {"weighted_average": harness.weighted_average_experiment(config)}
        res.mc_s += time.perf_counter() - t0
        steps = sum(int(T) for T in config.averaging_grid)
        finite = all(math.isfinite(r["err"])
                     for r in ledgers["weighted_average"].fitted["table"])
    else:
        raise ValueError(f"workload experiment kind {kind!r} is not benchmarked")
    res.steps += steps
    res.trial_steps += config.trials * steps
    path = os.path.join(out_dir, f"{label}.ledgers.json")
    _write_json(path, {"fingerprint": config.fingerprint(),
                       "ledgers": {k: led.to_dict() for k, led in ledgers.items()}})
    files.append(path)
    if not finite:
        problems.append("non-finite d_hat/e_hat")
    for key, led in ledgers.items():
        if led.verdict != "pass":
            problems.append(f"ledger {key} verdict {led.verdict}")
    return files


def run_cycle(wl: Workload, out_dir: str, tamper=None) -> Cycle:
    """One cycle, timed end to end; failures are recorded, not raised.

    An operation fails if it raises (the rest of the cycle then counts as
    failed too), if a ledger verdict is not "pass" or if d_hat/e_hat are not
    finite; the caller compares digests across cycles. `tamper(out_dir)` runs
    after the outputs are written and before they are hashed; the self-test
    uses it to corrupt an output on purpose.
    """
    os.makedirs(out_dir, exist_ok=True)
    res = Cycle()
    files = {}
    t0 = time.perf_counter()
    try:
        for label in operations(wl):
            problems = res.problems[label] = []
            if label == "oracle_report":
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.cmd_oracle(wl.oracle, out_dir)
                if code != cli.EXIT_PASS:
                    problems.append(f"cmd_oracle exit code {code}")
                files[label] = [os.path.join(out_dir, "oracle_report.json")]
            else:
                cfg = dict(wl.experiments)[label]
                files[label] = _experiment(wl, label, cfg, out_dir, res, problems)
    except Exception:  # an operation that raises counts as failed
        problems.append(traceback.format_exc(limit=4))
        for label in operations(wl):
            res.problems.setdefault(label, ["not run: an earlier operation raised"])
    res.wall_s = time.perf_counter() - t0
    if tamper is not None:
        tamper(out_dir)
    for label, paths in files.items():
        res.digests[label] = {}
        for path in paths:
            res.digests[label][os.path.basename(path)] = _sha256(path)
            res.bytes_written += os.path.getsize(path)
    return res
