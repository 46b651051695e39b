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
    STEP_C,
    DelayProcess,
    LinearContractionProvider,
    SaturatingMonotoneProvider,
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
    run_experiment,
    simulate_trajectories,
    tune_weighted_average,
    weighted_average_experiment,
    write_columnar,
)

ONE_STATE = MarkovRewardProcess([[1.0]], [1.0], 0.5)
ONE_MODEL = build_steady_state(ONE_STATE, constant_features(1))
ONE_ALPHA = resolve_step_size(TD0Provider(ONE_MODEL))

FAST = MarkovRewardProcess([[0.8, 0.2], [0.3, 0.7]], [1.0, -1.0], 0.4)
FAST_FEATS = constant_features(2)
FAST_MODEL = build_steady_state(FAST, FAST_FEATS)
FAST_ALPHA = resolve_step_size(TD0Provider(FAST_MODEL))
FAST_TAU = TD0Provider(FAST_MODEL).certify(FAST_ALPHA).tau  # 9

SLOW = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.5)
SLOW_FEATS = FeatureMatrix([[1.0], [0.0]])
SLOW_MODEL = build_steady_state(SLOW, SLOW_FEATS)
SLOW_ALPHA = resolve_step_size(TD0Provider(SLOW_MODEL))


def one_state_config(T=60, trials=100, seed=1):
    return ExperimentConfig(TD0Provider(ONE_MODEL), None, ONE_ALPHA,
                            T=T, trials=trials, master_seed=seed)


def fast_config(**kw):
    base = dict(provider=TD0Provider(FAST_MODEL), theta0=None, alpha=FAST_ALPHA,
                T=300, trials=400, master_seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


WIDE = random_mrp(12, 0.5, seed=31)
WIDE_MODELS = {K: build_steady_state(WIDE, random_features(12, K, seed=32))
               for K in (3, 8, 9)}


def wide_config(K, **kw):
    model = WIDE_MODELS[K]
    theta0 = generator(K).normal(size=K)
    base = dict(provider=TD0Provider(model), theta0=theta0, alpha=0.05,
                T=90, trials=5, master_seed=17)
    base.update(kw)
    return ExperimentConfig(**base)


class TestProviderInstance:
    """The provider is the instance: a config has no second model to pair
    with it, so a provider built on one chain runs and reports that chain."""

    def test_config_reads_the_providers_chain(self):
        provider = TD0Provider(SLOW_MODEL)
        config = fast_config(provider=provider, theta0=[-20.0])
        assert config.model is provider.model is SLOW_MODEL
        assert config.to_dict()["mrp"]["gamma"] == SLOW.gamma != FAST.gamma
        assert config.B == 10.0 * (-20.0 - SLOW_MODEL.theta_star[0]) ** 2
        assert config.B != bound_B(TD0Provider(FAST_MODEL), config.theta0)

    def test_no_model_beside_the_provider(self):
        with pytest.raises(TypeError):
            replace(fast_config(), model=SLOW_MODEL)


class TestCertifiedTau:
    """A config holds alpha and derives tau = provider.certify(alpha).tau, so
    no config can claim the contract at a mixing time it is not certified at."""

    def test_misstated_tau_cannot_put_a_run_in_contract(self):
        # at alpha = 0.1 the provider certifies tau = 6, whose cap is 1/48;
        # a tau of 1 (cap 1/8) would have put this run in contract
        provider = LinearContractionProvider([0.3], [[1.0], [-2.0]], FAST_MODEL)
        config = ExperimentConfig(provider, None, 0.1, T=300, trials=200,
                                  master_seed=3)
        assert config.tau == provider.certify(0.1).tau == 6
        assert not config.in_contract()
        _, ledgers = run_experiment(config, "recursion")
        for name in ("boundedness", "recursion"):
            assert ledgers[name].verdict == "out-of-contract"
            assert ledgers[name].hypothesis["tau"] == 6

    def test_replace_certifies_the_new_alpha(self):
        config = fast_config()
        assert config.tau == FAST_TAU
        assert (replace(config, alpha=6.0).tau
                == TD0Provider(FAST_MODEL).certify(6.0).tau == 1)

    def test_tau_cannot_be_given(self):
        with pytest.raises(ValueError, match="tau"):
            replace(fast_config(), tau=1)
        with pytest.raises(TypeError, match="tau"):
            fast_config(tau=1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.1, 0.0])
    def test_bad_alpha_refused_before_tau_is_certified(self, alpha):
        class Uncertifiable(TD0Provider):
            def certify(self, epsilon):
                raise AssertionError(f"tau certified at alpha={epsilon}")

        with pytest.raises(ConfigError, match="alpha must be a positive finite number"):
            fast_config(provider=Uncertifiable(FAST_MODEL), alpha=alpha)


class TestEstimate:
    def test_one_state_deterministic_closed_form(self):
        cfg = one_state_config(T=40)
        est = estimate_dt_et(cfg)
        t = np.arange(41)
        closed = (1 - ONE_ALPHA * 0.5) ** (2 * t) * 4.0  # d_0 = |0-2|^2
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
                provider, FAST, np.zeros(1), FAST_ALPHA, 80, seed=derive_seed(11, i)))

    def test_delayed_batch_lanes_equal_single_trials(self):
        delays = DelayProcess("sawtooth", 3, seed=5)
        cfg = fast_config(trials=5, T=70, delays=delays)
        est = simulate_trajectories(cfg)
        provider = TD0Provider(FAST_MODEL)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                provider, FAST, np.zeros(1), FAST_ALPHA, 70, seed=derive_seed(11, i),
                delays=delays.spawn(i)))

    @pytest.mark.parametrize("tau_max", [3, 32768])
    def test_delays_past_int16_range_match_single_trial(self, tau_max):
        # step indices and (for tau_max = 32768) delays beyond int16
        T = 32770
        delays = DelayProcess("constant", tau_max)
        estimate = simulate_trajectories(fast_config(trials=1, T=T, delays=delays))
        reference = reference_sa(TD0Provider(FAST_MODEL), FAST, np.zeros(1), FAST_ALPHA,
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
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), sampling=sampling))

    @pytest.mark.parametrize("K", [8, 9])
    def test_constant_delay_lanes_equal_reference_8_accumulators(self, K):
        delays = DelayProcess("constant", 3)
        cfg = wide_config(K, delays=delays)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), delays=delays.spawn(i)))

    @pytest.mark.parametrize("sampling", ["markov", "iid_restart"])
    def test_lanes_equal_reference_across_stream_blocks(self, sampling):
        # T = 4103 crosses a 4096-step block, so later draws start mid-way
        # through a Philox counter block (markov's start draw leads block one)
        cfg = wide_config(3, T=4103, trials=3, sampling=sampling)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), sampling=sampling))

    def test_delayed_batch_lanes_equal_single_trials_k3(self):
        delays = DelayProcess("uniform", 4, seed=8)
        cfg = wide_config(3, delays=delays)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), delays=delays.spawn(i)))

    @pytest.mark.parametrize("kind", ["linear_contraction", "saturating"])
    def test_generic_provider_lanes_equal_single_trials(self, kind):
        model = WIDE_MODELS[3]
        noise = generator(4).normal(size=(WIDE.n, 3))
        if kind == "linear_contraction":
            provider = LinearContractionProvider([0.5, -0.2, 0.1], noise, model)
        else:
            provider = SaturatingMonotoneProvider([0.5, -0.2, 0.1], noise, model,
                                                  a=0.6, b=0.4)
        cfg = wide_config(3, provider=provider)
        est = simulate_trajectories(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(est.retained[i], reference_sa(
                provider, WIDE, cfg.theta0, cfg.alpha, cfg.T,
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
        assert estimate.abort_step is None
        assert 1 <= len(built) <= 2

    @pytest.mark.parametrize("start_state", [-1, 2])
    def test_start_state_out_of_range_rejected(self, start_state):
        with pytest.raises(ChainError, match="start_state"):
            estimate_dt_et(fast_config(trials=3, T=10, start_state=start_state))

    def test_divergence_marks_estimate_invalid_with_abort_count(self):
        cfg = fast_config(alpha=1e8, trials=150, T=2000, theta0=[1.0])
        est = estimate_dt_et(cfg)
        assert est.abort_step is not None
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
        alpha = 10 * FAST_ALPHA * STEP_C * FAST_TAU
        cfg = fast_config(alpha=alpha, T=50)
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
        cfg = ExperimentConfig(TD0Provider(SLOW_MODEL), None, SLOW_ALPHA, T=200,
                               trials=2000, master_seed=202,
                               sampling="iid_restart")
        est = estimate_dt_et(cfg)
        led = check_iid_noise(est)
        assert led.verdict == "pass"
        assert led.worst_margin >= 0.0

    def test_iid_control_passes_on_seeds_0_to_19(self):
        # one pooled 3-SE comparison, not one per step: a 3-SE band at each of
        # the 199 steps fails 10 of these 20 seeds by chance alone
        config, _ = parse_experiment(bundled.bundled_config("lemma4_iid_control"))
        for seed in range(20):
            led = check_iid_noise(estimate_dt_et(replace(config, master_seed=seed)))
            assert led.verdict == "pass", (seed, led.fitted)
            assert abs(led.fitted["z"]) <= 3.0
            assert led.fitted["steps_pooled"] == led.n_steps == config.T - 1

    def test_iid_control_fails_a_biased_direction(self):
        class Biased(TD0Provider):
            def direction(self, theta, X):
                return super().direction(theta, X) + 0.005

        config, _ = parse_experiment(bundled.bundled_config("lemma4_iid_control"))
        led = check_iid_noise(estimate_dt_et(
            replace(config, provider=Biased(config.model))))
        assert led.verdict == "fail"
        assert led.fitted["z"] < -3.0 and led.worst_margin < 0.0

    def test_iid_check_requires_iid_sampling(self):
        with pytest.raises(ConfigError, match="iid_restart"):
            check_iid_noise(estimate_dt_et(fast_config()))


def _ledger_json(led):
    return json.dumps(led.to_dict(), sort_keys=True)  # NaN-safe comparison


class TestRefusals:
    """The two verdicts that refuse to check a claim, out-of-contract before
    invalid, with their full ledger records."""

    # tau is certified at each alpha: 1 at alpha = 6, 9 at the resolved alpha
    OUT = {"alpha": 6.0, "tau": 1, "C": 8.0, "B": 10.0, "mode": "td0",
           "in_contract": False}
    IN = dict(OUT, alpha=FAST_ALPHA, tau=9, in_contract=True)
    REFUSED = " (step-size hypothesis violated; no claim checked)"

    def _out_of_contract(self):
        # ten times the cap; the run also diverges, and out-of-contract wins
        alpha = 10 * FAST_ALPHA * STEP_C * FAST_TAU
        est = estimate_dt_et(fast_config(alpha=alpha, T=50, trials=100))
        assert est.abort_step is not None
        return est

    def _invalid(self):
        # retained iterates, so the drift check reads the same estimate
        est = simulate_trajectories(fast_config(T=50, trials=100))
        return replace(est, abort_count=3, abort_step=7)

    def test_boundedness_out_of_contract_record(self):
        est = self._out_of_contract()
        assert _ledger_json(check_boundedness(est)) == _ledger_json(BoundLedger(
            theorem_id="theorem1-boundedness", hypothesis=self.OUT,
            verdict="out-of-contract", worst_margin=float("nan"), worst_step=-1,
            fitted={}, slack={"multiplier": 3.0}, n_steps=51,
            notes="B=10" + self.REFUSED))

    def test_recursion_out_of_contract_record(self):
        est = self._out_of_contract()
        assert _ledger_json(check_recursion(est)) == \
            _ledger_json(BoundLedger(
                theorem_id="theorem2-recursion", hypothesis=self.OUT,
                verdict="out-of-contract", worst_margin=float("nan"),
                worst_step=-1, fitted={}, slack={"multiplier": 3.0}, n_steps=50,
                notes=self.REFUSED))

    def test_drift_out_of_contract_record(self):
        # alpha = 1 is far past the cap but stable, so the paths are retained;
        # its certified tau is 2, so the steps t = 2..50 are counted
        est = simulate_trajectories(fast_config(alpha=1.0, T=50, trials=100))
        assert _ledger_json(check_drift(est)) == _ledger_json(BoundLedger(
            theorem_id="lemma3-drift", hypothesis=dict(self.OUT, alpha=1.0, tau=2),
            verdict="out-of-contract", worst_margin=float("nan"), worst_step=-1,
            fitted={}, slack={"multiplier": 3.0}, n_steps=49,
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

    def test_iid_control_invalid_record(self):
        # aborted lanes leave NaN in e_hat; the control refuses, not fails
        est = estimate_dt_et(fast_config(T=50, trials=100, sampling="iid_restart"))
        est = replace(est, abort_count=3, abort_step=7)
        assert _ledger_json(check_iid_noise(est)) == _ledger_json(BoundLedger(
            theorem_id="lemma4-iid-control", hypothesis=self.IN,
            verdict="invalid", worst_margin=float("-inf"), worst_step=7,
            fitted={}, slack={"multiplier": 3.0}, n_steps=49,
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
        rho = 1 - ONE_ALPHA * 0.5
        t = np.arange(1, 51)
        expected = (rho ** t - rho ** (t - 1)) ** 2 * 4.0
        thetas = est.retained[0][:, 0]
        np.testing.assert_allclose((thetas[1:] - thetas[:-1]) ** 2, expected,
                                   rtol=1e-10)

    def test_alpha_squared_scaling(self):
        # drift over one fixed lag must scale like alpha^2 across a halving grid
        drifts = []
        alphas = [FAST_ALPHA, FAST_ALPHA / 2, FAST_ALPHA / 4]
        tau = FAST_TAU
        for i, alpha in enumerate(alphas):
            cfg = fast_config(alpha=alpha, trials=300, T=1200,
                              master_seed=derive_seed(77, i))
            thetas = simulate_trajectories(cfg).retained
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
        led = check_drift(simulate_trajectories(
            fast_config(alpha=1.0, trials=120, T=60)))
        assert led.verdict == "out-of-contract"

    def test_trials_floor_enforced(self):
        est = simulate_trajectories(fast_config(trials=2, T=40))
        with pytest.raises(ConfigError, match="100 trials"):
            check_drift(est)

    def test_needs_retained_iterates(self):
        est = estimate_dt_et(fast_config(trials=100, T=60))
        with pytest.raises(ConfigError, match="retained iterates"):
            check_drift(est)

    LINEAR = LinearContractionProvider([0.3], [[1.0], [-2.0]], FAST_MODEL)

    def _linear_paths(self, alpha):
        return simulate_trajectories(fast_config(alpha=alpha, provider=self.LINEAR,
                                                 trials=100, T=40))

    def test_nonlinear_out_of_contract_gated(self):
        # cap min(beta, 1/beta) / (C tau L^2) <= 0.125, so alpha = 1.5 claims nothing
        est = self._linear_paths(1.5)
        assert check_drift(est).verdict == "out-of-contract"

    def test_nonlinear_bound_from_the_provider(self):
        provider = self.LINEAR
        est = self._linear_paths(resolve_step_size(provider))
        led = check_drift(est)
        assert led.verdict == "pass"
        assert led.hypothesis["B"] == 10.0 * max(0.3 ** 2, provider.sigma_const ** 2)
        assert led.hypothesis["B"] != bound_B(TD0Provider(FAST_MODEL), np.zeros(1))


class TestWeightedAveraging:
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
            provider = TD0Provider(FAST_MODEL)
            alpha, lam, _ = tune_weighted_average(provider, T)
            cap = FAST_MODEL.contraction_rate / (8.0 * provider.certify(alpha).tau)
            assert alpha <= cap + 1e-15
            assert lam >= math.e

    @pytest.mark.parametrize("T, case", [(1, 2), (4096, 2), (16384, 1)])
    def test_tuned_spec_is_the_certified_spec(self, T, case):
        provider = TD0Provider(FAST_MODEL)
        alpha, _, tuned_case = tune_weighted_average(provider, T)
        assert tuned_case == case
        config = fast_config(provider=provider, alpha=alpha, T=T)
        assert config.tau == provider.certify(alpha).tau
        assert config.in_contract()

    def test_one_state_average_converges_geometrically(self):
        cfg = one_state_config(T=400, trials=100)
        cfg = replace(cfg, averaging_grid=[50, 100, 200, 400])
        led = weighted_average_experiment(cfg)
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


class TestNonlinearExperiments:
    def test_linear_contraction_matches_closed_form(self):
        uniform = MarkovRewardProcess([[0.5, 0.5], [0.5, 0.5]], [1.0, -0.5], 0.3)
        feats = constant_features(2)
        model = build_steady_state(uniform, feats)
        provider = LinearContractionProvider([0.7], [[0.6], [-0.6]], model)
        cfg = ExperimentConfig(provider, np.zeros(1), resolve_step_size(provider),
                               T=250, trials=2000, master_seed=401)
        est, ledgers = run_experiment(cfg, "recursion")
        a, V = cfg.alpha, provider.noise_variance()
        d = np.zeros(251)
        d[0] = 0.49
        for t in range(250):
            d[t + 1] = (1 - a) ** 2 * d[t] + a * a * V
        gap = np.abs(est.d_hat - d) - 3 * est.d_se
        assert gap.max() <= 1e-12
        assert ledgers["boundedness"].verdict == "pass"
        assert ledgers["recursion"].verdict == "pass"

    def test_td0_through_generic_path_identical_ledgers(self):
        cfg = fast_config(trials=400, T=300)
        est = estimate_dt_et(cfg)
        direct = {
            "boundedness": check_boundedness(est),
            "recursion": check_recursion(est),
        }
        routed, ledgers = run_experiment(cfg, "recursion")
        assert np.array_equal(est.d_hat, routed.d_hat)
        for key in ("boundedness", "recursion"):
            assert json.dumps(direct[key].to_dict(), sort_keys=True) == \
                   json.dumps(ledgers[key].to_dict(), sort_keys=True)

    def test_misdeclared_provider_refused(self):
        # the audit reads the provider, whatever the experiment kind
        provider = TD0Provider(FAST_MODEL)
        provider.L = 0.01
        config = fast_config(provider=provider, sampling="iid_restart",
                             averaging_grid=[64, 128])
        for kind in ("boundedness", "recursion", "iid_control",
                     "weighted_average", "nonlinear"):
            with pytest.raises(AuditError):
                run_experiment(config, kind)

    def test_saturating_provider_ledgers_pass(self):
        three = MarkovRewardProcess(
            [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
            [1.0, 0.0, -1.0], 0.35)
        feats = constant_features(3)
        model = build_steady_state(three, feats)
        provider = SaturatingMonotoneProvider(
            [0.5, -0.3], [[0.4, -0.2], [-0.1, 0.3], [-0.3, -0.1]],
            model, a=0.7, b=0.3)
        alpha = resolve_step_size(provider)
        T = int(math.ceil(10.0 / (alpha * provider.beta)))
        cfg = ExperimentConfig(provider, [2.0, -1.0], alpha, T=T, trials=400,
                               master_seed=402)
        _, ledgers = run_experiment(cfg, "recursion")
        assert ledgers["boundedness"].verdict == "pass"
        assert ledgers["recursion"].verdict == "pass"


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
        assert (config.tau, config.T) == (9, 1470)
        result = alpha_sweep(replace(config, trials=100), multipliers=(1.0, 0.5))
        first = result["points"][0]
        assert first["alpha"] == config.alpha
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

    @staticmethod
    def _ledger_columns(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        return [r[5] for r in rows], [r[6] for r in rows]

    def test_margin_column_is_the_boundedness_margin(self, tmp_path):
        est = estimate_dt_et(fast_config(trials=150, T=60))
        led = check_boundedness(est)
        assert led.verdict == "pass"
        write_columnar(tmp_path / "a.csv", est, led)
        bound, margin = self._ledger_columns(tmp_path / "a.csv")
        B = led.fitted["B"]
        expected = B - (est.d_hat - 3.0 * est.d_se)
        assert bound == [repr(B)] * 61
        assert margin == [repr(float(m)) for m in expected]
        assert float(margin[led.worst_step]) == led.worst_margin

    def test_refused_ledgers_write_nan_columns(self, tmp_path):
        # out of contract (ten times the cap) and invalid (aborted lanes)
        alpha = 10 * FAST_ALPHA * STEP_C * FAST_TAU
        out = estimate_dt_et(fast_config(alpha=alpha, T=50, trials=100))
        invalid = replace(estimate_dt_et(fast_config(T=50, trials=100)),
                          abort_count=3, abort_step=7)
        for est, verdict in ((out, "out-of-contract"), (invalid, "invalid")):
            led = check_boundedness(est)
            assert led.verdict == verdict
            write_columnar(tmp_path / "a.csv", est, led)
            bound, margin = self._ledger_columns(tmp_path / "a.csv")
            assert bound == margin == ["nan"] * 51
