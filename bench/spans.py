"""Span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's side: the recorder swaps each
traced tdcert function for a timing wrapper at every module attribute that
holds it (so `harness.generator`, `sa_core.mixing_time` and
`oracle.mixing_time` are all covered), and wraps the TD(0) provider's and the
delay process's methods at class level. The wrappers are installed around
traced cycles only and removed afterwards, so untraced cycles run the
original functions.

Spans live in memory as `[name, start, end, parent, cycle, extra]` lists and
are written out once, when the run ends. Self time is derived from the spans.
"""

import functools
import hashlib
import json
import sys
import time

# (defining module, function name); the span is named "<module>.<function>".
FUNCTIONS = [
    ("chain", "mrp_from_dict"),
    ("chain", "validate_chain"),
    ("chain", "stationary_distribution"),
    ("chain", "tv_mixing_profile"),
    ("chain", "generator"),
    ("oracle", "features_from_dict"),
    ("oracle", "build_steady_state"),
    ("oracle", "mixing_time"),
    ("oracle", "oracle_report"),
    ("sa_core", "resolve_step_size"),
    ("harness", "estimate_dt_et"),
    ("harness", "weighted_average_experiment"),
    ("harness", "tune_weighted_average"),
    ("harness", "check_boundedness"),
    ("harness", "write_columnar"),
    ("cli", "parse_experiment"),
    ("cli", "cmd_oracle"),
]

LEDGER_SPANS = {"harness.check_boundedness"}   # the only check_* the workloads call
MONTE_CARLO_SPANS = {"harness.estimate_dt_et", "harness.weighted_average_experiment"}
CYCLE_SPAN = "bench.cycle"


def _pair_key(args, kwargs):
    """Content hash of the (chain, features) pair a mixing_time call certifies."""
    mrp = args[0] if args else kwargs["mrp"]
    features = args[1] if len(args) > 1 else kwargs["features"]
    h = hashlib.sha1()
    for arr in (mrp.P, mrp.R, features.Phi):
        h.update(arr.tobytes())
    h.update(repr(float(mrp.gamma)).encode())
    return h.hexdigest()


KEYED = {"oracle.mixing_time": _pair_key}


class SpanRecorder:
    """In-memory spans of one workload run, with wrappers installed on demand."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._cycle = -1
        self._installed = []

    # -- recording -------------------------------------------------------
    def open(self, name, extra=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._cycle, extra])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn):
        key_of = KEYED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, key_of(args, kwargs) if key_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- installing wrappers ---------------------------------------------
    def install(self, cycle_index: int):
        """Wrap every traced function at each tdcert module attribute bound to it."""
        self._cycle = cycle_index
        modules = [m for name, m in list(sys.modules.items())
                   if name == "tdcert" or name.startswith("tdcert.")]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules["tdcert." + mod_name], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._installed.append((mod, attr, original))
        sa_core = sys.modules["tdcert.sa_core"]
        methods = [(sa_core.TD0Provider, "direction", "sa_core.direction"),
                   (sa_core.TD0Provider, "steady", "sa_core.steady"),
                   (sa_core.DelayProcess, "sequence", "sa_core.DelayProcess.sequence")]
        for cls, meth, span_name in methods:
            original = vars(cls)[meth]
            setattr(cls, meth, self.wrap(span_name, original))
            self._installed.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------
    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, cycle, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "cycle": cycle,
                                     "workload": self.workload, "extra": extra}))
                fh.write("\n")


def _outermost(spans, names):
    """Indices of spans named in `names` that have no ancestor named in `names`."""
    inside = [False] * len(spans)
    picked = []
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = covered
        if name in names and not covered:
            picked.append(i)
    return picked


def layer_metrics(spans, trial_steps_per_cycle: float, steps_per_cycle: float) -> dict:
    """Per-cycle layer figures (means over the traced cycles).

    Inclusive seconds count only the outermost span of each name; self
    seconds subtract the direct children's durations.
    """
    cycles = [s for s in spans if s[0] == CYCLE_SPAN]
    n = len(cycles)
    wall = sum(s[2] - s[1] for s in cycles) / n
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name)) / n

    def incl(names):
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names)) / n

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - child[i] for i in named(name)) / n

    # mixing_time calls on a (chain, features) pair already certified
    # earlier in the same cycle, and the fixed-point iterations (the
    # mixing_time calls made directly by resolve_step_size)
    seen, repeats, iterations = {}, 0, 0
    for i in named("oracle.mixing_time"):
        _, _, _, parent, cycle, key = spans[i]
        keys = seen.setdefault(cycle, set())
        repeats += key in keys
        keys.add(key)
        iterations += parent >= 0 and spans[parent][0] == "sa_core.resolve_step_size"
    mt_calls = len(named("oracle.mixing_time"))

    mc_s = incl(MONTE_CARLO_SPANS)
    oracle_names = {name for name in by_name
                    if name.startswith(("oracle.", "chain.")) and name != "chain.generator"}
    oracle_names.add("sa_core.resolve_step_size")
    return {
        "harness.estimate_dt_et.s": (incl({"harness.estimate_dt_et"}), "s"),
        "harness.estimate_dt_et.self_s": (self_s("harness.estimate_dt_et"), "s"),
        "harness.step_us": (1e6 * mc_s / steps_per_cycle if steps_per_cycle else 0.0, "us"),
        "harness.trial_steps": (trial_steps_per_cycle, "count"),
        "sa_core.direction.calls": (calls("sa_core.direction"), "count"),
        "sa_core.direction.s": (incl({"sa_core.direction"}), "s"),
        "sa_core.steady.s": (incl({"sa_core.steady"}), "s"),
        "oracle.mixing_time.calls": (calls("oracle.mixing_time"), "count"),
        "oracle.mixing_time.s": (incl({"oracle.mixing_time"}), "s"),
        "oracle.mixing_time.repeat_share": (repeats / mt_calls if mt_calls else 0.0,
                                            "share"),
        "oracle.oracle_report.s": (incl({"oracle.oracle_report"}), "s"),
        "oracle.build_steady_state.s": (incl({"oracle.build_steady_state"}), "s"),
        "sa_core.resolve_step_size.s": (incl({"sa_core.resolve_step_size"}), "s"),
        "sa_core.resolve_step_size.iterations": (iterations / n, "count"),
        "chain.tv_mixing_profile.calls": (calls("chain.tv_mixing_profile"), "count"),
        "chain.tv_mixing_profile.s": (incl({"chain.tv_mixing_profile"}), "s"),
        "chain.stationary_distribution.calls": (
            calls("chain.stationary_distribution"), "count"),
        "chain.stationary_distribution.s": (
            incl({"chain.stationary_distribution"}), "s"),
        "chain.validate_chain.calls": (calls("chain.validate_chain"), "count"),
        "chain.generator.calls": (calls("chain.generator"), "count"),
        "chain.generator.s": (incl({"chain.generator"}), "s"),
        "sa_core.DelayProcess.sequence.calls": (
            calls("sa_core.DelayProcess.sequence"), "count"),
        "sa_core.DelayProcess.sequence.s": (
            incl({"sa_core.DelayProcess.sequence"}), "s"),
        "harness.tune_weighted_average.calls": (
            calls("harness.tune_weighted_average"), "count"),
        "harness.weighted_average_experiment.s": (
            incl({"harness.weighted_average_experiment"}), "s"),
        "harness.ledgers.s": (incl(LEDGER_SPANS), "s"),
        "harness.write_columnar.s": (incl({"harness.write_columnar"}), "s"),
        "cli.parse_experiment.s": (incl({"cli.parse_experiment"}), "s"),
        "cli.cmd_oracle.s": (incl({"cli.cmd_oracle"}), "s"),
        "split.monte_carlo_share": (mc_s / wall, "share"),
        "split.oracle_chain_share": (incl(oracle_names) / wall, "share"),
    }
