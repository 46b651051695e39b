"""Bundled desk-scale experiment configurations.

Each name maps to a complete config dict in the CLI schema, so the command
line, the test suite, and the acceptance runs all build the exact same
experiments. Instances are sized so the certification runs stay fast: chains
mix quickly and the contraction moduli are large enough that the auto
horizon ceil(10 / (alpha * modulus)) stays in the tens of thousands.
"""

import copy

# Chains -------------------------------------------------------------------

TWO_STATE_FAST = {
    "kind": "explicit",
    "transitions": [[0.8, 0.2], [0.3, 0.7]],  # second eigenvalue 0.5
    "rewards": [1.0, -1.0],
    "gamma": 0.4,
}

TWO_STATE_SLOW = {
    "kind": "explicit",
    "transitions": [[0.9, 0.1], [0.2, 0.8]],  # second eigenvalue 0.7
    "rewards": [1.0, 0.0],
    "gamma": 0.5,
}

UNIFORM_TWO_STATE = {
    "kind": "explicit",
    "transitions": [[0.5, 0.5], [0.5, 0.5]],  # mixes in one step
    "rewards": [1.0, -0.5],
    "gamma": 0.3,
}

# Weakly correlated chain with a large contraction modulus; the horizon grid
# {2^6..2^12} reaches the horizon-tuned step-size regime well before its end.
NEAR_UNIFORM_AVG = {
    "kind": "explicit",
    "transitions": [[0.62, 0.38], [0.58, 0.42]],  # second eigenvalue 0.04
    "rewards": [1.0, -0.5],
    "gamma": 0.1,
}

THREE_STATE = {
    "kind": "explicit",
    "transitions": [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
    "rewards": [1.0, 0.0, -1.0],
    "gamma": 0.35,
}

_CONST = {"kind": "constant"}


def _experiment(chain, features, *, kind="boundedness", T="auto", trials=2000,
                seed=20240801, theta0=None, alpha_scale=1.0,
                sampling="markov", delays=None, grid=None, provider=None,
                label=""):
    cfg = {
        "label": label,
        "instance": {"chain": chain, "features": features, "theta0": theta0},
        "step_size": {"alpha_scale": alpha_scale},
        "experiment": {
            "kind": kind,
            "T": T,
            "trials": trials,
            "master_seed": seed,
            "sampling": sampling,
            "delays": delays,
            "averaging_grid": grid,
        },
        "provider": provider or {"kind": "td0"},
    }
    return cfg


_REGISTRY = {
    # Ten boundedness instances spanning chain sizes, feature maps, discounts.
    "theorem1_two_state_fast": _experiment(
        TWO_STATE_FAST, _CONST, seed=101, label="2-state fast mixer, constant feature"),
    "theorem1_two_state_slow": _experiment(
        TWO_STATE_SLOW, {"kind": "explicit", "Phi": [[1.0], [0.0]]},
        seed=102, label="2-state slow mixer, one-hot feature"),
    "theorem1_uniform_two_state": _experiment(
        UNIFORM_TWO_STATE, _CONST, seed=103, label="uniform rows (iid-like)"),
    "theorem1_cycle4": _experiment(
        {"kind": "cycle", "n": 4, "epsilon": 0.5, "gamma": 0.3},
        {"kind": "groups", "K": 2}, seed=104, label="lazy 4-cycle, group features"),
    "theorem1_cycle6": _experiment(
        {"kind": "cycle", "n": 6, "epsilon": 0.3, "gamma": 0.4},
        _CONST, seed=105, label="lazy 6-cycle, constant feature"),
    "theorem1_random5": _experiment(
        {"kind": "random", "n": 5, "density": 0.8, "seed": 11, "gamma": 0.5},
        _CONST, seed=106, label="dense random 5-state"),
    "theorem1_random8": _experiment(
        {"kind": "random", "n": 8, "density": 0.6, "seed": 23, "gamma": 0.4},
        {"kind": "groups", "K": 2}, seed=107, label="random 8-state, group features"),
    "theorem1_random6": _experiment(
        {"kind": "random", "n": 6, "density": 0.9, "seed": 37, "gamma": 0.3},
        {"kind": "random", "K": 3, "seed": 5}, seed=108,
        label="random 6-state, random features"),
    "theorem1_three_state": _experiment(
        THREE_STATE, {"kind": "identity"}, seed=109, label="3-state, tabular features"),
    "theorem1_near_uniform": _experiment(
        NEAR_UNIFORM_AVG, _CONST, seed=110, label="near-uniform 2-state"),

    # Recursion / floor-scaling base point (criterion: fitted c and the
    # alpha-grid floor slope).
    "theorem2_base": _experiment(
        TWO_STATE_FAST, _CONST, kind="recursion", seed=201,
        label="recursion + floor base instance"),

    # The i.i.d.-restart control where the disturbance vanishes identically.
    "lemma4_iid_control": _experiment(
        TWO_STATE_SLOW, {"kind": "explicit", "Phi": [[1.0], [0.0]]},
        kind="iid_control", T=200, seed=202, sampling="iid_restart",
        label="iid restart control"),

    # Weighted-averaging horizon sweep.
    "theorem3_averaging": _experiment(
        NEAR_UNIFORM_AVG, _CONST, kind="weighted_average", T=0, trials=2500,
        seed=301, grid=[2 ** k for k in range(6, 13)],
        label="weighted averaging over a horizon grid"),

    # Generic-operator experiments.
    "theorem4_linear_contraction": _experiment(
        UNIFORM_TWO_STATE, _CONST, kind="recursion", T=300, seed=401,
        provider={"kind": "linear_contraction", "theta_star": [0.7],
                  "noise": [[0.6], [-0.6]]},
        label="linear contraction with iid tuples"),
    "theorem4_saturating": _experiment(
        THREE_STATE, {"kind": "identity"}, kind="recursion", T="auto", seed=402,
        theta0=[2.0, -1.0],
        provider={"kind": "saturating", "theta_star": [0.5, -0.3],
                  "noise": [[0.4, -0.2], [-0.1, 0.3], [-0.3, -0.1]],
                  "a": 0.7, "b": 0.3},
        label="saturating monotone operator"),
}

# Delayed variants: step-size shrunk by (1 + tau_max), horizon auto-extends.
for _kind in ("uniform", "sawtooth"):
    for _tau_max in (1, 5):
        _REGISTRY[f"delayed_{_kind}_{_tau_max}"] = _experiment(
            TWO_STATE_FAST, _CONST, seed=500 + _tau_max,
            alpha_scale=1.0 / (1 + _tau_max),
            delays={"kind": _kind, "tau_max": _tau_max, "seed": 77},
            label=f"{_kind} delays up to {_tau_max}")

THEOREM1_NAMES = tuple(n for n in _REGISTRY if n.startswith("theorem1_"))


def bundled_names():
    return sorted(_REGISTRY)

def bundled_config(name: str) -> dict:
    if not isinstance(name, str) or name not in _REGISTRY:
        raise KeyError(f"unknown bundled config {name!r}; "
                       f"known: {', '.join(bundled_names())}")
    return copy.deepcopy(_REGISTRY[name])
