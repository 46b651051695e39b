"""tdcert benchmark: one workload per invocation, as one closed-loop caller.

    python3 bench/bench.py --workload mc_k3 --seed 1 --seconds 40 --trace 0

The run repeats the workload's cycle of operations (config documents to
written outputs, see workloads.py) back to back, starting another cycle only
while it is expected to finish within --seconds, and always at least three
(a warm-up and two timed) so every run repeats its seed. Every cycle of a run uses the same generated
configs, so each operation must write the same bytes every time; an
operation that does not, raises, or gets a ledger verdict other than "pass"
counts as failed ("failed" of "attempted" in the result).

--trace 0 prints the end-to-end metrics: medians over the run's timed
cycles (set-up time also over extra set-up-only repeats when one set-up is
cheap), each time scaled to a nominal host speed by a fixed reference
computation run between cycles (HostReference; the raw times and scales are
in the details line).
--trace 1 alternates untraced and traced cycles and prints per-layer
figures from the spans of the traced ones (see spans.py), plus the tracing
overhead. The line before the last holds the details: provenance, workload
parameters, per-operation numbers and output digests. The last line is the
result: {"correct", "attempted", "failed", "metrics"}.

The package is imported from src/ next to this directory; the run stops with
exit code 2 if it is not there. The process is pinned to its lowest allowed
core and the BLAS/OpenMP pools to one thread, set before numpy loads:
results differ in the last bits between pool sizes, so the pool size must be
fixed for the output digests to repeat, and pinning keeps the oracle's
caches warm (it halved that workload's run-to-run spread, see NOTES.md).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mc_k3", "oracle_n150", "delayed_avg")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CYCLES = 3  # the warm-up, then at least one untraced and one traced cycle
# After each untraced cycle, up to SETUP_REPEATS extra set-up-only repeats
# that together cost at most SETUP_SHARE of the cycle, so set-up samples
# spread over the whole run rather than one moment of it.
SETUP_REPEATS = 5
SETUP_SHARE = 0.05

# Reference time of HostReference.run on an unloaded core of the host in
# NOTES.md; end-to-end times are reported as if every cycle ran at that speed.
REF_NOMINAL_S = 0.045
# Reference repeats between two cycles, as a share of the cycle before.
REF_SHARE = 0.10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trial_steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def _pin() -> dict:
    """Pin to one core and one BLAS/OpenMP thread; returns where it pinned."""
    allowed = os.sched_getaffinity(0)
    core = min(allowed)
    os.sched_setaffinity(0, {core})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {"pinned_core": core, "cores_allowed": len(allowed)}


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "tdcert", "__init__.py")):
        raise ImportError(f"tdcert sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import tdcert
    if not os.path.abspath(tdcert.__file__).startswith(SRC + os.sep):
        raise ImportError(f"imported tdcert from {tdcert.__file__}, not {SRC}")


def _git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                         text=True, timeout=30, check=True)
    return out.stdout.strip()


def provenance(pin: dict) -> dict:
    import numpy
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "nproc": os.cpu_count(), **pin,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": cpu, "platform": platform.platform(),
    }


class HostReference:
    """Fixed work that measures how fast the host runs at the moment.

    The shared host speeds up and slows down by up to a third for minutes at
    a time, for whole runs at once (see NOTES.md), so medians within a run
    cannot remove it. The reference runs between cycles, in about the mix
    the workloads run, each part about a quarter of its time: numpy gathers
    and reductions on trial-sized arrays from a Python loop (the step loop),
    gathers of n=150 cumulative rows per trial compared with uniforms (the
    sampler at n=150), an n=150, K=8 einsum and batched 8x8 SVD (the
    oracle's deviation curve), and n=150 matrix products (chain powers).
    Contention on the host slows these parts by different amounts, so each
    is there. It does not call the package,
    so a change to the package moves every scaled figure in full; only the
    host's speed cancels.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.rows = rng.random((2000, 8))
        self.index = rng.integers(0, 2000, size=2000)
        self.states = rng.integers(0, 150, size=2000)
        self.uniforms = rng.random(2000)
        self.matrix = rng.random((150, 150)) / 150.0
        self.features = rng.random((150, 8))
        self.mapped = rng.random((150, 8))

    def run(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(200):
            total += float((self.rows[self.index] * 1.0001).sum())
        for _ in range(15):
            total += float((self.matrix[self.states] <= self.uniforms[:, None]).sum())
        for _ in range(3):
            batch = np.einsum("ts,sk,sj->tkj", self.matrix, self.features, self.mapped)
            total += float(np.linalg.svd(batch, compute_uv=False).max())
        m = self.matrix
        for _ in range(60):
            m = self.matrix @ m
        total += float(m[0, 0])
        return time.perf_counter() - t0

    def block(self, seconds: float) -> float:
        """Mean time of the reference, repeated for about `seconds`."""
        return statistics.mean(self.run() for _ in range(max(1, round(seconds / REF_NOMINAL_S))))


def measure(wl, seconds: float, out_dir: str, recorder=None, tamper=None):
    """Run cycles back to back; with a recorder, every second one is traced.

    The first cycle is a warm-up: its outputs are checked like every other
    cycle's, but it is never traced and its timings are not reported.
    """
    import workloads  # imported once the package path and thread pins are set
    start = time.perf_counter()
    reference = HostReference()
    ref_s = [reference.block(0.0)]
    cycles, traced, setups = [], [], []
    while True:
        trace_this = recorder is not None and len(cycles) > 0 and len(cycles) % 2 == 0
        if trace_this:
            recorder.install(len(cycles))
            root = recorder.open("bench.cycle")
        try:
            cycle = workloads.run_cycle(wl, out_dir, tamper)
        finally:
            if trace_this:
                recorder.close(root)
                recorder.uninstall()
        cycles.append(cycle)
        traced.append(trace_this)
        cycle_setups = []
        if len(cycles) > 1 and not trace_this and not cycle.failed:
            repeats = min(SETUP_REPEATS, int(SETUP_SHARE * cycle.wall_s / cycle.setup_s))
            cycle_setups = [cycle.setup_s] + [workloads.setup(wl) for _ in range(repeats)]
        ref_s.append(reference.block(REF_SHARE * cycle.wall_s))
        cycle.host_scale = REF_NOMINAL_S / statistics.mean(ref_s[-2:])
        setups += [s * cycle.host_scale for s in cycle_setups]
        elapsed = time.perf_counter() - start
        typical = statistics.median(c.wall_s for c in cycles)
        if len(cycles) >= MIN_CYCLES and elapsed + typical > seconds:
            break
    # every cycle repeats the same seed, so each operation must write the same bytes
    for cycle in cycles[1:]:
        for label, digests in cycle.digests.items():
            if digests != cycles[0].digests.get(label):
                cycle.problems[label].append("output digests differ from the first cycle")
    return cycles, traced, setups


def end_to_end(cycles, setups) -> dict:
    timed = cycles[1:]
    good = [c for c in timed if not c.failed] or timed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c.wall_s * c.host_scale for c in good),
        "trial_steps_per_s": statistics.median(
            c.trial_steps / (c.mc_s * c.host_scale) if c.mc_s > 0 else 0.0 for c in good),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(cycles, traced, recorder) -> dict:
    import spans
    on = [c for c, t in zip(cycles, traced) if t]
    off = [c for c, t in zip(cycles[1:], traced[1:]) if not t]
    metrics = spans.layer_metrics(
        recorder.spans,
        trial_steps_per_cycle=statistics.mean(c.trial_steps for c in on),
        steps_per_cycle=statistics.mean(c.steps for c in on))
    metrics["io.bytes_written"] = (statistics.mean(c.bytes_written for c in on), "bytes")
    metrics["trace.overhead_share"] = (
        statistics.median(c.wall_s * c.host_scale for c in on)
        / statistics.median(c.wall_s * c.host_scale for c in off) - 1.0, "share")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None,
        tamper=None, pin: dict | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (details, result)."""
    import spans
    import workloads
    scale = scale or workloads.FULL
    wl = workloads.make_workload(workload, seed, scale)
    out_dir = os.path.join(OUT, workload)
    recorder = spans.SpanRecorder(workload) if trace else None
    cycles, traced, setups = measure(wl, seconds, out_dir, recorder, tamper)
    if trace:
        metrics = per_layer(cycles, traced, recorder)
        recorder.dump(os.path.join(out_dir, f"spans_seed{seed}.jsonl"))
    else:
        metrics = end_to_end(cycles, setups)
    failed = sum(c.failed for c in cycles)
    attempted = len(cycles) * len(workloads.operations(wl))
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": wl.params,
        "provenance": provenance(pin) if pin is not None else None,
        "setup_samples": len(setups),
        "setup_quartiles": statistics.quantiles(setups, n=4) if len(setups) > 1 else setups,
        "cycles": [{"wall_s": c.wall_s, "setup_s": c.setup_s, "mc_s": c.mc_s,
                    "trial_steps": c.trial_steps, "bytes_written": c.bytes_written,
                    "host_scale": c.host_scale,
                    "traced": t, "warmup": i == 0, "problems": c.problems}
                   for i, (c, t) in enumerate(zip(cycles, traced))],
        "ops_total": attempted, "ops_failed": failed,
        "digests": cycles[0].digests,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin = _pin()
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details, result = run(args.workload, args.seed, args.seconds,
                          bool(args.trace), pin=pin)
    for cycle in details["cycles"]:
        for label, problems in cycle["problems"].items():
            for problem in problems:
                print(f"operation {label} failed: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} ops_failed = {result['failed']} of ops_total = "
          f"{result['attempted']}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
