import json
import math
from dataclasses import replace

import numpy as np
import pytest

from scalar_reference import reference_sa
from tdcert import bundled
from tdcert.chain import ChainError, MarkovRewardProcess, derive_seed, generator, random_mrp
from tdcert.cli import parse_experiment
from tdcert.oracle import (
    FeatureMatrix,
    build_steady_state,
    constant_features,
    random_features,
)
from tdcert.sa_core import (
    DelayProcess,
    LinearContractionProvider,
    SaturatingMonotoneProvider,
    StepSizeSpec,
    TD0Provider,
    bound_B,
    resolve_step_size,
)
from tdcert.harness import (
    _TrialStreams,
    AuditError,
    BoundLedger,
    ConfigError,
    ExperimentConfig,
    alpha_sweep,
    asymptotic_floor,
    check_boundedness,
    check_drift,
    check_iid_noise,
    check_recursion,
    estimate_dt_et,
    nonlinear_sa_experiment,
    simulate_trajectories,
    tune_weighted_average,
    weighted_average_experiment,
    write_columnar,
)

ONE_STATE = MarkovRewardProcess([[1.0]], [1.0], 0.5)
ONE_MODEL = build_steady_state(ONE_STATE, constant_features(1))
ONE_SPEC = resolve_step_size(ONE_MODEL, C=8.0)

FAST = MarkovRewardProcess([[0.8, 0.2], [0.3, 0.7]], [1.0, -1.0], 0.4)
FAST_FEATS = constant_features(2)
FAST_MODEL = build_steady_state(FAST, FAST_FEATS)
FAST_SPEC = resolve_step_size(FAST_MODEL, C=8.0)

SLOW = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.5)
SLOW_FEATS = FeatureMatrix([[1.0], [0.0]])
SLOW_MODEL = build_steady_state(SLOW, SLOW_FEATS)
SLOW_SPEC = resolve_step_size(SLOW_MODEL, C=8.0)


def one_state_config(T=60, trials=100, seed=1):
    return ExperimentConfig(ONE_STATE, constant_features(1), None, ONE_SPEC,
                            T=T, trials=trials, master_seed=seed,
                            model=ONE_MODEL)


def fast_config(**kw):
    base = dict(mrp=FAST, features=FAST_FEATS, theta0=None, spec=FAST_SPEC,
                T=300, trials=400, master_seed=11, model=FAST_MODEL)
    base.update(kw)
    return ExperimentConfig(**base)


WIDE = random_mrp(12, 0.5, seed=31)
WIDE_MODELS = {K: build_steady_state(WIDE, random_features(12, K, seed=32))
               for K in (3, 8, 9)}


def wide_config(K, **kw):
    model = WIDE_MODELS[K]
    theta0 = generator(K).normal(size=K)
    spec = StepSizeSpec(C=8.0, alpha=0.05, tau_alpha=1, mode="td0")
    base = dict(mrp=WIDE, features=model.features, theta0=theta0, spec=spec,
                T=90, trials=5, master_seed=17, model=model)
    base.update(kw)
    return ExperimentConfig(**base)


class TestEstimate:
    def test_one_state_deterministic_closed_form(self):
        cfg = one_state_config(T=40)
        est = estimate_dt_et(cfg)
        t = np.arange(41)
        closed = (1 - ONE_SPEC.alpha * 0.5) ** (2 * t) * 4.0  # d_0 = |0-2|^2
        np.testing.assert_allclose(est.d_hat, closed, rtol=1e-12)
        np.testing.assert_allclose(est.d_se, 0.0, atol=1e-12)
        np.testing.assert_allclose(est.e_hat, 0.0, atol=1e-12)

    def test_standard_errors_shrink_like_root_trials(self):
        a = estimate_dt_et(fast_config(trials=400, T=120))
        b = estimate_dt_et(fast_config(trials=800, T=120))
        sl = slice(40, 120)  # skip the deterministic start where SE ~ 0
        ratio = np.median(b.d_se[sl] / a.d_se[sl])
        assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)

    def test_batch_lanes_equal_single_trials_bitwise(self):
        cfg = fast_config(trials=6, T=80)
        est = simulate_trajectories(cfg)
        provider = TD0Provider(FAST_MODEL)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                provider, FAST, np.zeros(1), FAST_SPEC, 80, seed=derive_seed(11, i)))

    def test_delayed_batch_lanes_equal_single_trials(self):
        delays = DelayProcess("sawtooth", 3, seed=5)
        cfg = fast_config(trials=5, T=70, delays=delays)
        est = simulate_trajectories(cfg)
        provider = TD0Provider(FAST_MODEL)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                provider, FAST, np.zeros(1), FAST_SPEC, 70, seed=derive_seed(11, i),
                delays=delays.spawn(i)))

    @pytest.mark.parametrize("tau_max", [3, 32768])
    def test_delays_past_int16_range_match_single_trial(self, tau_max):
        # step indices and (for tau_max = 32768) delays beyond int16
        T = 32770
        delays = DelayProcess("constant", tau_max)
        estimate = simulate_trajectories(fast_config(trials=1, T=T, delays=delays))
        reference = reference_sa(TD0Provider(FAST_MODEL), FAST, np.zeros(1), FAST_SPEC,
                                 T, seed=derive_seed(11, 0), delays=delays.spawn(0))
        assert np.array_equal(estimate.retained[0], reference)
        d = ((reference - FAST_MODEL.theta_star) ** 2).sum(axis=1)
        assert np.array_equal(estimate.d_hat, d)

    @pytest.mark.parametrize("K", [3, 8, 9])
    @pytest.mark.parametrize("sampling", ["markov", "iid_restart"])
    def test_batch_lanes_equal_single_trials_multi_feature(self, K, sampling):
        # K=8 and K=9 row sums take numpy's 8-accumulator pairwise order
        cfg = wide_config(K, sampling=sampling)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.mrp, cfg.theta0, cfg.spec, cfg.T,
                seed=derive_seed(cfg.master_seed, i), sampling=sampling))

    @pytest.mark.parametrize("K", [8, 9])
    def test_constant_delay_lanes_equal_reference_8_accumulators(self, K):
        delays = DelayProcess("constant", 3)
        cfg = wide_config(K, delays=delays)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.mrp, cfg.theta0, cfg.spec, cfg.T,
                seed=derive_seed(cfg.master_seed, i), delays=delays.spawn(i)))

    @pytest.mark.parametrize("sampling", ["markov", "iid_restart"])
    def test_lanes_equal_reference_across_stream_blocks(self, sampling):
        # T = 4103 crosses a 4096-step block, so later draws start mid-way
        # through a Philox counter block (markov's start draw leads block one)
        cfg = wide_config(3, T=4103, trials=3, sampling=sampling)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.mrp, cfg.theta0, cfg.spec, cfg.T,
                seed=derive_seed(cfg.master_seed, i), sampling=sampling))

    def test_delayed_batch_lanes_equal_single_trials_k3(self):
        delays = DelayProcess("uniform", 4, seed=8)
        cfg = wide_config(3, delays=delays)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.mrp, cfg.theta0, cfg.spec, cfg.T,
                seed=derive_seed(cfg.master_seed, i), delays=delays.spawn(i)))

    @pytest.mark.parametrize("kind", ["linear_contraction", "saturating"])
    def test_generic_provider_lanes_equal_single_trials(self, kind):
        model = WIDE_MODELS[3]
        noise = generator(4).normal(size=(WIDE.n, 3))
        if kind == "linear_contraction":
            provider = LinearContractionProvider([0.5, -0.2, 0.1], noise,
                                                 model.stationary.pi)
        else:
            provider = SaturatingMonotoneProvider([0.5, -0.2, 0.1], noise,
                                                  model.stationary.pi, a=0.6, b=0.4)
        cfg = wide_config(3, provider=provider)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                provider, WIDE, cfg.theta0, cfg.spec, cfg.T,
                seed=derive_seed(cfg.master_seed, i)))

    @pytest.mark.parametrize("blocks", [[1, 4096, 7], [4097, 7], [8192, 14]],
                             ids=["markov_start", "markov_fused", "iid_restart"])
    def test_keyed_streams_equal_per_lane_generators(self, blocks):
        # 133 lanes fill two 64-lane chunks and part of a third
        seeds = [derive_seed(3, i) for i in range(130)] + [0, 2 ** 64 - 1, -7]
        streams = _TrialStreams(seeds)
        drawn = np.concatenate([streams.uniform_block(n) for n in blocks])
        for i, seed in enumerate(seeds):
            assert np.array_equal(drawn[:, i], generator(seed).random(sum(blocks)))

    def test_one_bit_generator_per_run(self, monkeypatch):
        # re-keying replaces one Philox (and its entropy-seeded seed
        # sequence) per lane; 500 lanes must not build 500 of them
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        estimate = estimate_dt_et(fast_config(trials=500, T=20))
        assert estimate.valid
        assert 1 <= len(built) <= 2

    @pytest.mark.parametrize("start_state", [-1, 2])
    def test_start_state_out_of_range_rejected(self, start_state):
        with pytest.raises(ChainError, match="start_state"):
            estimate_dt_et(fast_config(trials=3, T=10, start_state=start_state))

    def test_divergence_marks_estimate_invalid_with_abort_count(self):
        bad_spec = StepSizeSpec(C=8.0, alpha=1e8, tau_alpha=1, mode="td0")
        cfg = fast_config(spec=bad_spec, trials=150, T=2000, theta0=[1.0])
        est = estimate_dt_et(cfg)
        assert not est.valid
        assert est.abort_count > 0
        assert est.abort_step is not None
        assert np.isnan(est.d_hat[-1])

    def test_estimate_determinism(self):
        a = estimate_dt_et(fast_config())
        b = estimate_dt_et(fast_config())
        assert np.array_equal(a.d_hat, b.d_hat)
        assert np.array_equal(a.e_hat, b.e_hat)


class TestBoundedness:
    def test_one_state_margin(self):
        # theta0 = 0, theta* = 2, sigma = 2 gives B = 40 while d_t <= 4
        cfg = one_state_config(T=80)
        led = check_boundedness(estimate_dt_et(cfg))
        assert led.verdict == "pass"
        assert led.hypothesis["B"] == pytest.approx(40.0)
        assert led.worst_margin >= 36.0

    def test_out_of_contract_gating(self):
        # an alpha ten times the cap must be reported as out-of-contract,
        # never as a theorem failure
        alpha = 10 * FAST_SPEC.alpha * FAST_SPEC.C * FAST_SPEC.tau_alpha
        bad = StepSizeSpec(C=8.0, alpha=alpha, tau_alpha=FAST_SPEC.tau_alpha,
                           mode="td0")
        cfg = fast_config(spec=bad, T=50)
        led = check_boundedness(estimate_dt_et(cfg))
        assert led.verdict == "out-of-contract"
        assert not led.hypothesis["in_contract"]

    def test_trials_floor_enforced(self):
        cfg = fast_config(trials=50, T=40)
        with pytest.raises(ConfigError, match="100 trials"):
            check_boundedness(estimate_dt_et(cfg))

    def test_ledger_determinism(self):
        led_a = check_boundedness(estimate_dt_et(fast_config()))
        led_b = check_boundedness(estimate_dt_et(fast_config()))
        assert json.dumps(led_a.to_dict(), sort_keys=True) == \
               json.dumps(led_b.to_dict(), sort_keys=True)


class TestRecursion:
    def test_one_state_no_markov_noise(self):
        cfg = one_state_config(T=60)
        est = estimate_dt_et(cfg)
        led = check_recursion(est)
        assert led.verdict == "pass"
        assert led.fitted["c"] == 0.0
        # e is zero up to one ulp of difference between the sampled and
        # steady direction expressions
        assert led.fitted["c_prime"] <= 1e-12
        np.testing.assert_allclose(est.e_hat, 0.0, atol=1e-12)

    def test_markov_instance_finite_constants(self):
        cfg = fast_config(trials=2000, T=2000)
        est = estimate_dt_et(cfg)
        led = check_recursion(est)
        assert led.verdict == "pass"
        assert led.fitted["c"] <= 100.0
        assert 0.0 <= led.fitted["c_prime"] <= 100.0
        assert led.fitted["pre_tau_ok"]

    def test_iid_restart_control_noise_vanishes(self):
        cfg = ExperimentConfig(SLOW, SLOW_FEATS, None, SLOW_SPEC, T=200,
                               trials=2000, master_seed=202,
                               sampling="iid_restart", model=SLOW_MODEL)
        est = estimate_dt_et(cfg)
        led = check_iid_noise(est)
        assert led.verdict == "pass"
        assert led.worst_margin >= 0.0

    def test_iid_check_requires_iid_sampling(self):
        with pytest.raises(ConfigError, match="iid_restart"):
            check_iid_noise(estimate_dt_et(fast_config()))


def _ledger_json(led):
    return json.dumps(led.to_dict(), sort_keys=True)  # NaN-safe comparison


class TestRefusals:
    """The two verdicts that refuse to check a claim, out-of-contract before
    invalid, with their full ledger records."""

    OUT = {"alpha": 6.0, "tau": 9, "C": 8.0, "B": 10.0, "mode": "td0",
           "in_contract": False}
    IN = dict(OUT, alpha=FAST_SPEC.alpha, in_contract=True)
    REFUSED = " (step-size hypothesis violated; no claim checked)"

    def _out_of_contract(self):
        # ten times the cap; the run also diverges, and out-of-contract wins
        alpha = 10 * FAST_SPEC.alpha * FAST_SPEC.C * FAST_SPEC.tau_alpha
        spec = replace(FAST_SPEC, alpha=alpha)
        est = estimate_dt_et(fast_config(spec=spec, T=50, trials=100))
        assert not est.valid
        return est, spec

    def _invalid(self):
        # retained iterates, so the drift check reads the same estimate
        est = simulate_trajectories(fast_config(T=50, trials=100))
        return replace(est, valid=False, abort_count=3, abort_step=7)

    def test_boundedness_out_of_contract_record(self):
        est, _ = self._out_of_contract()
        assert _ledger_json(check_boundedness(est)) == _ledger_json(BoundLedger(
            theorem_id="theorem1-boundedness", hypothesis=self.OUT,
            verdict="out-of-contract", worst_margin=float("nan"), worst_step=-1,
            fitted={}, slack={"multiplier": 3.0}, n_steps=51,
            notes="B=10" + self.REFUSED))

    def test_recursion_out_of_contract_record(self):
        est, _ = self._out_of_contract()
        assert _ledger_json(check_recursion(est)) == \
            _ledger_json(BoundLedger(
                theorem_id="theorem2-recursion", hypothesis=self.OUT,
                verdict="out-of-contract", worst_margin=float("nan"),
                worst_step=-1, fitted={}, slack={"multiplier": 3.0}, n_steps=50,
                notes=self.REFUSED))

    def test_drift_out_of_contract_record(self):
        # alpha = 1 is far past the cap but stable, so the paths are retained
        spec = replace(FAST_SPEC, alpha=1.0)
        est = simulate_trajectories(fast_config(spec=spec, T=50, trials=100))
        assert _ledger_json(check_drift(est)) == _ledger_json(BoundLedger(
            theorem_id="lemma3-drift", hypothesis=dict(self.OUT, alpha=1.0),
            verdict="out-of-contract", worst_margin=float("nan"), worst_step=-1,
            fitted={}, slack={"multiplier": 3.0}, n_steps=42,
            notes=self.REFUSED))

    def test_boundedness_invalid_record(self):
        assert _ledger_json(check_boundedness(self._invalid())) == \
            _ledger_json(BoundLedger(
                theorem_id="theorem1-boundedness", hypothesis=self.IN,
                verdict="invalid", worst_margin=float("-inf"), worst_step=7,
                fitted={}, slack={"multiplier": 3.0}, n_steps=51,
                notes="3 trials hit the divergence guard"))

    def test_recursion_invalid_record(self):
        led = check_recursion(self._invalid())
        assert _ledger_json(led) == _ledger_json(BoundLedger(
            theorem_id="theorem2-recursion", hypothesis=self.IN,
            verdict="invalid", worst_margin=float("-inf"), worst_step=7,
            fitted={}, slack={"multiplier": 3.0}, n_steps=50,
            notes="3 trials hit the divergence guard"))

    def test_drift_invalid_record(self):
        # n_steps counts the checked steps t = tau..T
        led = check_drift(self._invalid())
        assert _ledger_json(led) == _ledger_json(BoundLedger(
            theorem_id="lemma3-drift", hypothesis=self.IN,
            verdict="invalid", worst_margin=float("-inf"), worst_step=7,
            fitted={}, slack={"multiplier": 3.0}, n_steps=42,
            notes="3 trials hit the divergence guard"))


class TestDrift:
    def test_one_state_closed_form(self):
        cfg = one_state_config(T=50)
        est = simulate_trajectories(cfg)
        led = check_drift(est)
        assert led.verdict == "pass"
        # tau = 1: drift equals one exact deterministic update
        rho = 1 - ONE_SPEC.alpha * 0.5
        t = np.arange(1, 51)
        expected = (rho ** t - rho ** (t - 1)) ** 2 * 4.0
        thetas = est.retained[0][:, 0]
        np.testing.assert_allclose((thetas[1:] - thetas[:-1]) ** 2, expected,
                                   rtol=1e-10)

    def test_alpha_squared_scaling(self):
        # drift magnitude must scale like alpha^2 across a halving grid
        drifts = []
        alphas = [FAST_SPEC.alpha, FAST_SPEC.alpha / 2, FAST_SPEC.alpha / 4]
        for i, alpha in enumerate(alphas):
            spec = StepSizeSpec(C=8.0, alpha=alpha,
                                tau_alpha=FAST_SPEC.tau_alpha, mode="td0")
            cfg = fast_config(spec=spec, trials=300, T=1200,
                              master_seed=derive_seed(77, i))
            thetas = simulate_trajectories(cfg).retained
            tau = spec.tau_alpha
            drift = ((thetas[:, tau:, :] - thetas[:, :-tau, :]) ** 2).sum(2)
            drifts.append(drift[:, 600:].mean())  # past burn-in
        slope = np.polyfit(np.log(alphas), np.log(drifts), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_delayed_run_still_bounded_with_larger_constant(self):
        delays = DelayProcess("sawtooth", 4, seed=9)
        plain = check_drift(simulate_trajectories(fast_config(trials=300, T=600)))
        delayed = check_drift(
            simulate_trajectories(fast_config(trials=300, T=600, delays=delays)))
        assert plain.verdict == "pass" and delayed.verdict == "pass"
        assert delayed.fitted["c"] >= plain.fitted["c"]

    def test_drift_out_of_contract_gating(self):
        inflated = StepSizeSpec(C=8.0, alpha=1.0, tau_alpha=FAST_SPEC.tau_alpha,
                                mode="td0")
        led = check_drift(simulate_trajectories(
            fast_config(spec=inflated, trials=120, T=60)))
        assert led.verdict == "out-of-contract"

    def test_needs_retained_iterates(self):
        est = estimate_dt_et(fast_config(trials=100, T=60))
        with pytest.raises(ConfigError, match="retained iterates"):
            check_drift(est)

    def _linear_paths(self, spec):
        provider = LinearContractionProvider([0.3], [[1.0], [-2.0]],
                                             FAST.stationary.pi)
        est = simulate_trajectories(fast_config(spec=spec, provider=provider,
                                                trials=20, T=40))
        return provider, est

    def test_nonlinear_out_of_contract_gated(self):
        # cap min(beta, 1/beta) / (C tau L^2) = 0.125, so alpha = 1.5 claims nothing
        spec = StepSizeSpec(C=8.0, alpha=1.5, tau_alpha=1, mode="nonlinear")
        _, est = self._linear_paths(spec)
        assert check_drift(est).verdict == "out-of-contract"

    def test_nonlinear_bound_from_the_provider(self):
        spec = StepSizeSpec(C=8.0, alpha=0.1, tau_alpha=1, mode="nonlinear")
        provider, est = self._linear_paths(spec)
        led = check_drift(est)
        assert led.verdict == "pass"
        assert led.hypothesis["B"] == 10.0 * max(0.3 ** 2, provider.sigma_const ** 2)
        assert led.hypothesis["B"] != bound_B(TD0Provider(FAST_MODEL), np.zeros(1))


class TestWeightedAveraging:
    def test_weights_sanity_half_rate(self):
        # (1 - alpha A) = 0.5 and T = 1 gives normalized weights [1/3, 2/3]
        spec = tune_weighted_average(ONE_MODEL, 1)
        w = type(spec)(A=spec.A, alpha=0.5 / spec.A, tau=spec.tau, T=1,
                       lambda_tune=spec.lambda_tune, C=8.0, case=2).weights()
        np.testing.assert_allclose(w, [1 / 3, 2 / 3], atol=1e-12)

    def test_weights_invariants_large_horizon(self):
        spec = tune_weighted_average(FAST_MODEL, 4096)
        w = spec.weights()
        assert np.all(w > 0)
        assert np.all(np.diff(w) > 0)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_incremental_average_matches_direct(self):
        rng = generator(21)
        thetas = rng.normal(size=(30, 2))
        rate = 0.97
        v, S = 1.0, thetas[0].copy()
        for t in range(1, 30):
            v = v * rate + 1.0
            S = S + (thetas[t] - S) / v
        logw = -(np.arange(30) + 1.0) * math.log(rate)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        np.testing.assert_allclose(S, w @ thetas, atol=1e-12)

    def test_tuned_alpha_respects_cap(self):
        for T in (64, 512, 4096):
            spec = tune_weighted_average(FAST_MODEL, T)
            cap = FAST_MODEL.contraction_rate / (8.0 * spec.tau)
            assert spec.alpha <= cap + 1e-15
            assert spec.lambda_tune >= math.e

    def test_one_state_average_converges_geometrically(self):
        cfg = one_state_config(T=400, trials=100)
        cfg = replace(cfg, averaging_grid=[50, 100, 200, 400])
        led = weighted_average_experiment(cfg, slope_threshold=0.0, tail_points=3)
        errs = [row["err"] for row in led.fitted["table"]]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # the transient term e^(-alpha A T) dominates this deterministic
        # instance; doubling T from 200 to 400 must shrink it superlinearly
        assert errs[-1] < errs[-2] / 4.0
        assert errs[-1] < 1e-4

    def test_grid_required(self):
        with pytest.raises(ConfigError, match="grid"):
            weighted_average_experiment(fast_config())

    def test_generic_provider_refused(self):
        # the averaging theory and its error metric are TD(0)'s; this
        # provider's iterates converge to its own theta* = 0.7
        cfg = bundled.bundled_config("theorem4_linear_contraction")
        cfg["experiment"].update(kind="weighted_average", trials=200,
                                 averaging_grid=[64, 128, 256])
        config, kind = parse_experiment(cfg)
        assert kind == "weighted_average"
        with pytest.raises(ConfigError, match="TD\\(0\\)"):
            weighted_average_experiment(config)

    def test_td0_provider_in_nonlinear_mode_refused(self):
        spec = resolve_step_size(FAST_MODEL, C=8.0, mode="nonlinear",
                                 provider=TD0Provider(FAST_MODEL))
        cfg = fast_config(spec=spec, averaging_grid=[50, 100])
        with pytest.raises(ConfigError, match="td0"):
            weighted_average_experiment(cfg)


class TestNonlinearExperiments:
    def test_linear_contraction_matches_closed_form(self):
        uniform = MarkovRewardProcess([[0.5, 0.5], [0.5, 0.5]], [1.0, -0.5], 0.3)
        feats = constant_features(2)
        model = build_steady_state(uniform, feats)
        provider = LinearContractionProvider([0.7], [[0.6], [-0.6]],
                                             model.stationary.pi)
        spec = resolve_step_size(model, C=8.0, mode="nonlinear", provider=provider)
        cfg = ExperimentConfig(uniform, feats, np.zeros(1), spec, T=250,
                               trials=2000, master_seed=401, provider=provider,
                               model=model)
        result = nonlinear_sa_experiment(cfg)
        est = result["estimate"]
        a, V = spec.alpha, provider.noise_variance()
        d = np.zeros(251)
        d[0] = 0.49
        for t in range(250):
            d[t + 1] = (1 - a) ** 2 * d[t] + a * a * V
        gap = np.abs(est.d_hat - d) - 3 * est.d_se
        assert gap.max() <= 1e-12
        assert result["boundedness"].verdict == "pass"
        assert result["recursion"].verdict == "pass"

    def test_td0_through_generic_path_identical_ledgers(self):
        cfg = fast_config(trials=400, T=300)
        est = estimate_dt_et(cfg)
        direct = {
            "boundedness": check_boundedness(est),
            "recursion": check_recursion(est),
        }
        routed = nonlinear_sa_experiment(cfg)
        assert np.array_equal(est.d_hat, routed["estimate"].d_hat)
        for key in ("boundedness", "recursion"):
            assert json.dumps(direct[key].to_dict(), sort_keys=True) == \
                   json.dumps(routed[key].to_dict(), sort_keys=True)

    def test_misdeclared_provider_refused(self):
        provider = TD0Provider(FAST_MODEL)
        provider.L = 0.01
        with pytest.raises(AuditError):
            nonlinear_sa_experiment(fast_config(provider=provider))

    def test_saturating_provider_ledgers_pass(self):
        three = MarkovRewardProcess(
            [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
            [1.0, 0.0, -1.0], 0.35)
        feats = constant_features(3)
        model = build_steady_state(three, feats)
        provider = SaturatingMonotoneProvider(
            [0.5, -0.3], [[0.4, -0.2], [-0.1, 0.3], [-0.3, -0.1]],
            model.stationary.pi, a=0.7, b=0.3)
        spec = resolve_step_size(model, C=8.0, mode="nonlinear", provider=provider)
        T = int(math.ceil(10.0 / (spec.alpha * provider.beta)))
        cfg = ExperimentConfig(three, feats, [2.0, -1.0], spec, T=T, trials=400,
                               master_seed=402, provider=provider, model=model)
        result = nonlinear_sa_experiment(cfg)
        assert result["boundedness"].verdict == "pass"
        assert result["recursion"].verdict == "pass"


class TestSweeps:
    def test_floor_scaling_slope_near_one(self):
        cfg = fast_config(trials=1500, T=100, master_seed=201)
        result = alpha_sweep(cfg, multipliers=(1.0, 0.5, 0.25))
        assert abs(result["floor_slope"] - 1.0) <= 0.25
        for point in result["points"]:
            assert point["in_contract"]
            assert point["boundedness"].verdict == "pass"

    def test_nonlinear_sweep_resolves_tau_and_horizon_like_the_spec(self):
        config, _ = parse_experiment(bundled.bundled_config("theorem4_saturating"))
        assert (config.spec.tau_alpha, config.T) == (9, 1470)
        result = alpha_sweep(replace(config, trials=100), multipliers=(1.0, 0.5))
        first = result["points"][0]
        assert first["alpha"] == config.spec.alpha
        assert (first["tau"], first["T"]) == (9, 1470)

    def test_floor_needs_room_past_burn_in(self):
        cfg = fast_config(T=50)
        est = estimate_dt_et(cfg)
        with pytest.raises(ConfigError, match="burn-in"):
            asymptotic_floor(est)


class TestColumnarExport:
    def test_columns_and_reproducibility(self, tmp_path):
        cfg = fast_config(trials=150, T=60)
        est = estimate_dt_et(cfg)
        led = check_boundedness(est)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_columnar(p1, est, led)
        write_columnar(p2, estimate_dt_et(cfg), check_boundedness(estimate_dt_et(cfg)))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[1] == "t,d_hat,d_se,e_hat,e_se,bound_value,margin"
        assert len(lines) == 63
        last = lines[-1].split(",")
        assert last[3] == "nan" and last[4] == "nan"  # no e_T at the horizon
