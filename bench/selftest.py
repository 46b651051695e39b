"""Self-test of the benchmark at toy size (about half a minute).

    python3 bench/selftest.py

Checks, for every workload at toy size, that a clean run is correct and
prints exactly the metric names and units BENCHMARK.json lists (end-to-end
with tracing off, per-layer with tracing on), and that the correctness gate
fails the one operation whose output was corrupted after it was written.
Exits 0 when every check holds.
"""

import json
import os
import sys

import bench


def _declared(section):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}, [w["name"] for w in spec["workloads"]]


def main() -> int:
    pin = bench._pin()
    bench._import_package()
    import workloads

    problems = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    end_to_end, names = _declared("end_to_end")
    layers, _ = _declared("per_layer")
    check(sorted(names) == sorted(bench.WORKLOADS), "BENCHMARK.json lists the workloads")
    for workload in bench.WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, layers)):
            details, result = bench.run(workload, 7, 0.1, trace,
                                        scale=workloads.TOY, pin=pin)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == declared,
                  f"{workload} trace={int(trace)}: metric names and units match")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={int(trace)}: clean run is correct")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{workload} trace={int(trace)}: every metric is a number")

        calls = []

        def corrupt(out_dir):
            calls.append(out_dir)
            if len(calls) == 2:
                victim = min(f for f in os.listdir(out_dir)
                             if f.endswith((".csv", ".json")))
                with open(os.path.join(out_dir, victim), "a") as fh:
                    fh.write("corrupted\n")

        details, result = bench.run(workload, 7, 0.1, False, scale=workloads.TOY,
                                    tamper=corrupt, pin=pin)
        flagged = [(i, label) for i, cycle in enumerate(details["cycles"])
                   for label, problems in cycle["problems"].items() if problems]
        check(not result["correct"] and result["failed"] == 1 and flagged[0][0] == 1,
              f"{workload}: the gate flags the corrupted operation and only it")
    print("selftest " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
