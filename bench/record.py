"""Run the benchmark over several seeds and summarise, or compare two records.

    python3 bench/record.py --seeds 1-10 --out .bench_out/run_a.json
    python3 bench/record.py --seeds 1-10 --trace 1 --workloads mc_k3 --out ...
    python3 bench/record.py --compare .bench_out/run_a.json .bench_out/run_b.json

Each run is a separate `bench/bench.py` process, one after the other, with
the run length from BENCHMARK.json unless --seconds is given. The record
keeps every run's details and result line, and per workload and metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. --compare checks that the output digests of runs with
the same workload and seed are identical, and that each end-to-end median of
the second record is not worse than the first's by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def record(workloads, seeds, trace, seconds):
    runs, summary = [], {}
    for workload in workloads:
        per_metric = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"details": details, "result": result})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"ops={result['attempted']} failed={result['failed']} " + " ".join(
                      f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        summary[workload] = {name: summarise(v) for name, v in per_metric.items()}
    return {"trace": trace, "seconds": seconds, "seeds": seeds,
            "summary": summary, "runs": runs}


def compare(path_a, path_b) -> bool:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    ok = True
    digests_a = {(r["details"]["workload"], r["details"]["seed"]): r["details"]["digests"]
                 for r in a["runs"]}
    for r in b["runs"]:
        key = (r["details"]["workload"], r["details"]["seed"])
        if key in digests_a:
            same = digests_a[key] == r["details"]["digests"]
            ok &= same
            print(f"digests {key[0]} seed={key[1]}: {'identical' if same else 'DIFFER'}")
    for metric in _spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload, metrics in b["summary"].items():
            if name not in metrics or name not in a["summary"].get(workload, {}):
                continue
            first, second = a["summary"][workload][name], metrics[name]
            worse = sign * (second["median"] - first["median"]) / first["median"]
            within = worse <= bound
            ok &= within
            print(f"{workload} {name}: median {first['median']:.6g} -> "
                  f"{second['median']:.6g} ({worse:+.3f} worse, bound {bound}), "
                  f"spreads {first['spread']:.3f} / {second['spread']:.3f} "
                  f"{'ok' if within else 'WORSE'}")
    return ok


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if not args.out:
        parser.error("--out is required when recording")
    rec = record(args.workloads.split(","), _seeds(args.seeds), args.trace, args.seconds)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, metrics in rec["summary"].items():
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload} {name}: median {s['median']:.6g} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
