"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every stochastic comparison uses exactly 3 standard errors of slack and the
master seeds frozen in the bundled configs, so the whole suite is
deterministic. Stated runtime budgets are asserted.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from chain_reference import dnorm_contraction_margin
from scalar_reference import kernel_paths
from tdcert.bundled import THEOREM1_NAMES, bundled_config
from tdcert.chain import derive_seed, generator, random_mrp
from tdcert.cli import main, parse_experiment
from tdcert.harness import (
    check_boundedness,
    check_iid_noise,
    check_recursion,
    estimate_dt_et,
    run_experiment,
    sweep,
    weighted_average_experiment,
)
from tdcert.oracle import (
    FeatureError,
    build_steady_state,
    lemma1_margin,
    mixing_time,
    random_features,
    steady_state_direction,
)
from tdcert.sa_core import DelayProcess


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def random_instances():
    """Fifty random instances with n <= 10 and K <= 4 passing all checks."""
    gammas = (0.3, 0.5, 0.7, 0.9)
    instances = []
    for i in range(50):
        n = 2 + (i % 9)
        K = min(1 + (i % 4), n)
        mrp = random_mrp(n, 0.6 + 0.03 * (i % 10), seed=1000 + i,
                         gamma=gammas[i % 4])
        model = None
        for fs in range(2000 + 7 * i, 2000 + 7 * i + 20):
            try:
                model = build_steady_state(mrp, random_features(n, K, seed=fs))
                break
            except FeatureError:
                continue
        assert model is not None, f"no valid features for instance {i}"
        instances.append(model)
    return instances


@pytest.fixture(scope="module")
def theorem2_base_run():
    config, _ = parse_experiment(bundled_config("theorem2_base"))
    return config, estimate_dt_et(config)


def test_criterion_1_oracle_exactness(random_instances):
    start = time.time()
    worst_g = worst_pi = worst_contraction = -np.inf
    for i, model in enumerate(random_instances):
        g_res = float(np.linalg.norm(
            steady_state_direction(model, model.theta_star[:, None])))
        pi_res = float(np.max(np.abs(
            model.mrp.pi @ model.mrp.P - model.mrp.pi)))
        con = dnorm_contraction_margin(model.mrp, 10_000,
                                       seed=derive_seed(9000, i))
        worst_g = max(worst_g, g_res)
        worst_pi = max(worst_pi, pi_res)
        worst_contraction = max(worst_contraction, con)
    elapsed = time.time() - start
    ok = (worst_g <= 1e-10 and worst_pi <= 1e-10
          and worst_contraction <= 1e-12 and elapsed < 10.0)
    report(1, ok, f"50 instances: max ||g(theta*)||={worst_g:.2e}, "
                  f"max ||pi P - pi||={worst_pi:.2e}, "
                  f"max D-norm violation={worst_contraction:.2e}, {elapsed:.1f}s")


def test_criterion_2_lemma1_margin(random_instances):
    start = time.time()
    worst = np.inf
    for i, model in enumerate(random_instances):
        rng = generator(derive_seed(9100, i))
        raw = rng.normal(size=(10_000, model.K))
        radii = 10.0 * rng.random((10_000, 1)) ** (1.0 / model.K)
        thetas = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii
        worst = min(worst, float(
            lemma1_margin(model, np.ascontiguousarray(thetas.T)).min()))
    elapsed = time.time() - start
    ok = worst >= -1e-10 and elapsed < 30.0
    report(2, ok, f"50 instances x 10^4 parameters: min margin={worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_3_theorem1_boundedness():
    start = time.time()
    lines, ok = [], True
    for name in THEOREM1_NAMES:
        config, _ = parse_experiment(bundled_config(name))
        assert config.trials == 2000
        expected_T = math.ceil(10.0 / (config.alpha
                                       * config.model.contraction_rate))
        assert config.T == expected_T
        led = check_boundedness(estimate_dt_et(config))
        ok = ok and led.verdict == "pass"
        lines.append(f"{name}:{led.verdict}")
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    report(3, ok, f"{'; '.join(lines)}; {elapsed:.1f}s")


def test_criterion_4_theorem2_recursion_and_floor(theorem2_base_run):
    start = time.time()
    config, estimate = theorem2_base_run
    led = check_recursion(estimate)
    c = led.fitted["c"]
    slope = sweep(config, "alpha", (1.0, 0.5, 0.25))["floor_slope"]
    elapsed = time.time() - start
    ok = (led.verdict == "pass" and np.isfinite(c) and c <= 100.0
          and abs(slope - 1.0) <= 0.25 and elapsed < 600.0)
    report(4, ok, f"fitted c={c:.3g} (<=100), floor slope={slope:.3f} "
                  f"(1 +/- 0.25), {elapsed:.1f}s")


def test_criterion_5_lemma4_mixing_bound(theorem2_base_run):
    start = time.time()
    config, estimate = theorem2_base_run
    led = check_recursion(estimate)
    c_prime = led.fitted["c_prime"]
    iid_config, _ = parse_experiment(bundled_config("lemma4_iid_control"))
    iid_led = check_iid_noise(estimate_dt_et(iid_config))
    elapsed = time.time() - start
    ok = (c_prime <= 100.0 and iid_led.verdict == "pass" and elapsed < 300.0)
    report(5, ok, f"fitted c'={c_prime:.3g} (<=100), iid control "
                  f"worst margin={iid_led.worst_margin:.2e} (>=0), {elapsed:.1f}s")


def test_criterion_6_theorem3_weighted_averaging():
    start = time.time()
    config, kind = parse_experiment(bundled_config("theorem3_averaging"))
    assert kind == "weighted_average"
    assert config.averaging_grid == tuple(2 ** k for k in range(6, 13))
    led = weighted_average_experiment(config)
    slope = led.fitted["tail_slope"]
    elapsed = time.time() - start
    ok = led.verdict == "pass" and slope <= -0.8 and elapsed < 600.0
    report(6, ok, f"tail log-log slope={slope:.3f} (<= -0.8), {elapsed:.1f}s")


def test_criterion_7_theorem4_nonlinear():
    start = time.time()
    # linear contraction with beta = L = 1 on an iid chain: the estimate must
    # reproduce the closed-form variance recursion within 3 SE at every step
    config, _ = parse_experiment(bundled_config("theorem4_linear_contraction"))
    provider = config.provider
    est, ledgers = run_experiment(config, "recursion")
    # the stationary noise variance V = sum_s pi(s) ||n(s)||^2
    dev = provider.noise_table
    a, V = config.alpha, float(provider.model.mrp.pi @ (dev ** 2).sum(axis=1))
    d = np.zeros(config.T + 1)
    d[0] = float(np.sum((config.theta0 - provider.theta_star) ** 2))
    for t in range(config.T):
        d[t + 1] = (1 - a) ** 2 * d[t] + a * a * V
    closed_gap = float((np.abs(est.d_hat - d) - 3 * est.d_se).max())
    linear_ok = (closed_gap <= 1e-12
                 and ledgers["boundedness"].verdict == "pass")

    sat_config, _ = parse_experiment(bundled_config("theorem4_saturating"))
    prov = sat_config.provider
    beta_bar = min(prov.beta, 1.0 / prov.beta)
    cap = beta_bar / (8.0 * sat_config.tau * prov.L ** 2)
    _, sat_ledgers = run_experiment(sat_config, "recursion")
    sat_ok = (sat_config.alpha <= cap + 1e-15
              and sat_ledgers["boundedness"].verdict == "pass"
              and sat_ledgers["recursion"].verdict == "pass")
    elapsed = time.time() - start
    ok = linear_ok and sat_ok and elapsed < 300.0
    report(7, ok, f"max(|d_hat - closed form| - 3 SE)={closed_gap:.2e} (<=1e-12), "
                  f"saturating ledgers pass at alpha={sat_config.alpha:.4g}<=cap={cap:.4g}, "
                  f"{elapsed:.1f}s")


def test_criterion_8_delayed_sa():
    start = time.time()
    lines, ok = [], True
    for kind in ("uniform", "sawtooth"):
        for tau_max in (1, 5):
            config, _ = parse_experiment(bundled_config(f"delayed_{kind}_{tau_max}"))
            assert config.delays.tau_max == tau_max
            led = check_boundedness(estimate_dt_et(config))
            ok = ok and led.verdict == "pass"
            lines.append(f"{kind}/{tau_max}:{led.verdict}")

    # the step-size really is the undelayed resolution shrunk by (1+tau_max)
    base, _ = parse_experiment(bundled_config("theorem1_two_state_fast"))
    d5, _ = parse_experiment(bundled_config("delayed_uniform_5"))
    ok = ok and d5.alpha == pytest.approx(base.alpha / 6.0, rel=1e-12)

    # tau_max = 0 reproduces the undelayed loop bit-exactly
    short = replace(base, T=400, trials=4, master_seed=31)
    plain = kernel_paths(short)
    delayed = kernel_paths(replace(short, delays=DelayProcess("uniform", 0, seed=5)))
    bit_exact = np.array_equal(plain, delayed)
    elapsed = time.time() - start
    ok = ok and bit_exact and elapsed < 300.0
    report(8, ok, f"{'; '.join(lines)}; tau_max=0 bit-exact={bit_exact}; "
                  f"{elapsed:.1f}s")


def test_criterion_9_mixing_time_law():
    start = time.time()
    eps_grid = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    cases = [
        (bundled_config("theorem1_two_state_slow"), 0.7),
        (bundled_config("theorem1_two_state_fast"), 0.5),
    ]
    details, ok = [], True
    for cfg, lambda2 in cases:
        config, _ = parse_experiment(cfg)
        model = config.model
        taus = [mixing_time(model.mrp, model.features, e).tau for e in eps_grid]
        slope = float(np.polyfit(np.log(1.0 / eps_grid),
                                 np.array(taus, dtype=float), 1)[0])
        target = 1.0 / math.log(1.0 / lambda2)
        rel = abs(slope - target) / target
        ok = ok and rel <= 0.10
        details.append(f"lambda2={lambda2}: slope={slope:.3f} vs {target:.3f} "
                       f"({100 * rel:.1f}%)")
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(9, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bundled": "theorem1_near_uniform"}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["run", "--manifest", str(out1 / "manifest.json"),
                  "--out", str(out2)])
    identical = ((out1 / "estimate.csv").read_bytes()
                 == (out2 / "estimate.csv").read_bytes())
    ok = code1 == 0 and code2 == 0 and identical
    report(10, ok, f"manifest rerun byte-identical={identical}")
