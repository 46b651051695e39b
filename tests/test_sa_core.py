import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixing_reference import AlternatingTau, generic_tau
from scalar_reference import (
    ReferenceDivergence,
    kernel_paths,
    reference_delays,
    reference_sa,
)
from tdcert.bundled import bundled_config, bundled_names
from tdcert.chain import (
    BLOCK,
    MarkovRewardProcess,
    derive_seed,
    generator,
    mrp_from_dict,
    random_mrp,
)
from tdcert.harness import (
    ConfigError,
    ExperimentConfig,
    estimate_dt_et,
)
from tdcert.oracle import (
    FeatureMatrix,
    build_steady_state,
    constant_features,
    random_features,
)
from tdcert.sa_core import (
    DelayProcess,
    SaturatingMonotoneProvider,
    StepSizeError,
    TD0Provider,
    audit_provider,
    resolve_step_size,
    rowsum,
    td0_direction,
)

ONE_STATE = MarkovRewardProcess([[1.0]], [1.0], 0.5)
TWO_STATE = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.9)
TWO_FEATS = FeatureMatrix([[1.0], [0.0]])

ONE_MODEL = build_steady_state(ONE_STATE, constant_features(1))
TWO_MODEL = build_steady_state(TWO_STATE, TWO_FEATS)
# the linear contraction -theta + theta_star + n(s), the saturating operator at
# a = 1, b = 0
linear_contraction = partial(SaturatingMonotoneProvider, a=1.0, b=0.0)


def obs(features, s, sp, r):
    """The TD(0) observation X = (F_s, F_s') of the table [Phi^T; R] for the
    lanes s -> sp (an int is one lane), with reward r at s (the reward row at
    s' is never read)."""
    s, sp = np.atleast_1d(s), np.atleast_1d(sp)
    r = np.atleast_1d(np.asarray(r, dtype=float))[None]
    PhiT = features.Phi.T
    return (np.concatenate([PhiT.take(s, axis=1), r]),
            np.concatenate([PhiT.take(sp, axis=1), np.zeros_like(r)]))


class TestTD0Direction:
    def test_zero_parameter_gives_reward_times_feature(self):
        g = td0_direction(0.9, np.zeros((1, 1)), obs(TWO_FEATS, 0, 1, 1.0))
        np.testing.assert_allclose(g, [[1.0]])

    def test_one_state_vanishes_at_fixed_point(self):
        g = td0_direction(0.5, np.array([[2.0]]), obs(constant_features(1), 0, 0, 1.0))
        np.testing.assert_allclose(g, [[0.0]], atol=1e-15)

    def test_hand_expansion_two_state(self):
        # phi(0) = 1, phi(1) = 0: td = r + 0.9 * phi(s') theta - phi(s) theta
        g = td0_direction(0.9, np.array([[2.0]]), obs(TWO_FEATS, 0, 1, 1.0))
        np.testing.assert_allclose(g, [[1.0 + 0.9 * 0.0 - 2.0]])
        g = td0_direction(0.9, np.array([[2.0]]), obs(TWO_FEATS, 1, 0, 0.0))
        np.testing.assert_allclose(g, [[0.0]])  # phi(1) = 0 kills the direction

    def test_batch_matches_scalar_calls_bitwise(self):
        # a single parameter is the one-lane batch theta[:, [i]]: every
        # provider's direction and steady map give it the bits of column i of
        # a 50-lane batch. TD(0)'s steady map, steady_state_direction, is a
        # BLAS product, which runs one lane as a matrix-vector call; its bits
        # can differ from the many-lane matrix product's when K > 1, so that
        # map is held to this at K = 1
        models = [TWO_MODEL] + [
            build_steady_state(random_mrp(12, 0.5, seed=70 + K),
                               random_features(12, K, seed=80 + K))
            for K in (3, 9)]
        for j, model in enumerate(models):
            rng = generator(5 + j)
            n, K = model.mrp.n, model.K
            thetas = rng.normal(size=(K, 50)) * 3.0
            s = rng.integers(0, n, size=50)
            sp = rng.integers(0, n, size=50)
            star, noise = rng.normal(size=K), rng.normal(size=(n, K))
            providers = [TD0Provider(model),
                         linear_contraction(star, noise, model),
                         SaturatingMonotoneProvider(star, noise, model)]
            for provider in providers:
                batch = provider.direction(thetas, provider.observe(s, sp))
                steady = provider.steady(thetas)
                exact_steady = K == 1 or provider is not providers[0]
                for i in range(50):
                    lane = thetas[:, [i]]
                    single = provider.direction(lane, provider.observe(s[[i]], sp[[i]]))
                    assert np.array_equal(batch[:, i], single[:, 0])
                    if exact_steady:
                        assert np.array_equal(steady[:, i], provider.steady(lane)[:, 0])

    def test_batch_matches_scalar_calls_bitwise_k9(self):
        # nine features: past the K < 8 range where rowsum is numpy's order
        feats = random_features(12, 9, seed=21)
        rng = generator(6)
        thetas = np.ascontiguousarray(rng.normal(size=(40, 9)).T) * 3.0
        s = rng.integers(0, 12, size=40)
        sp = rng.integers(0, 12, size=40)
        r = rng.uniform(-1.0, 1.0, size=40)
        batch = td0_direction(0.7, thetas, obs(feats, s, sp, r))
        for i in range(40):
            single = td0_direction(0.7, thetas[:, [i]],
                                   obs(feats, int(s[i]), int(sp[i]), float(r[i])))
            assert np.array_equal(batch[:, i], single[:, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=1),
           st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=1),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_affine_consistency(self, t1, t2, lam):
        theta1, theta2 = np.array(t1)[:, None], np.array(t2)[:, None]
        X = obs(TWO_FEATS, 0, 1, 1.0)
        mix = td0_direction(0.9, lam * theta1 + (1 - lam) * theta2, X)
        combo = (lam * td0_direction(0.9, theta1, X)
                 + (1 - lam) * td0_direction(0.9, theta2, X))
        np.testing.assert_allclose(mix, combo, atol=1e-12)

    def test_norm_envelopes(self):
        # ||g(theta, X)|| <= 2 ||theta - theta*|| + 4 sigma and
        # ||steady(theta)|| <= 2 ||theta - theta*||
        provider = TD0Provider(TWO_MODEL)
        rng = generator(17)
        thetas = rng.normal(size=(1, 5000)) * 8.0
        s = rng.integers(0, 2, size=5000)
        sp = rng.integers(0, 2, size=5000)
        g = provider.direction(thetas, provider.observe(s, sp))
        dist = np.linalg.norm(thetas - provider.theta_star[:, None], axis=0)
        assert np.all(np.linalg.norm(g, axis=0)
                      <= 2 * dist + 4 * provider.sigma_const + 1e-12)
        gbar = provider.steady(thetas)
        assert np.all(np.linalg.norm(gbar, axis=0) <= 2 * dist + 1e-12)


class TestResolveStepSize:
    def test_one_state_example(self):
        provider = TD0Provider(ONE_MODEL)
        alpha = resolve_step_size(provider)
        assert alpha == pytest.approx(0.0625, abs=1e-15)
        assert provider.certify(alpha).tau == 1
        # the base-case cap 1/(8*1) = 0.125 is not binding
        assert alpha < 0.125

    def test_self_consistent_fixed_point(self):
        from tdcert.oracle import mixing_time
        provider = TD0Provider(TWO_MODEL)
        alpha = resolve_step_size(provider)
        cert = mixing_time(TWO_STATE, TWO_FEATS, alpha)
        assert cert.tau == provider.certify(alpha).tau
        assert alpha == provider.step_cap(cert.tau)
        assert ExperimentConfig(provider, None, alpha, T=1, trials=1,
                                master_seed=0).in_contract()
        again = resolve_step_size(TD0Provider(TWO_MODEL))
        assert again == alpha

    def test_nonlinear_mode_uses_beta_bar_over_L_squared(self):
        provider = SaturatingMonotoneProvider([0.5], [[0.0]], ONE_MODEL, a=2.0, b=0.5)
        alpha = resolve_step_size(provider)
        assert provider.mode == "nonlinear"
        # L = a + b = 2.5, so min(beta, 1/beta) / L^2 = 0.5 / 6.25, and tau
        # is the generic rule's on the TV curve at G = L sigma
        assert provider.contraction == 0.5 / 6.25
        tau = provider.certify(alpha).tau
        assert tau == generic_tau(ONE_STATE, 2.5 * provider.sigma_const, alpha, 64)[0]
        assert alpha == provider.contraction / (8.0 * tau) < 1.0 / (8.0 * tau)

    def test_refuses_a_tau_that_never_settles(self):
        # tau 2, 1, 2, ... sends alpha between 1/16 and 1/8 until the one
        # 100-step cap
        provider = AlternatingTau(first=2)
        with pytest.raises(StepSizeError, match="within 100 iterations"):
            resolve_step_size(provider)
        assert provider.calls == 100
        # tau 1 first gives back the start contraction / C = 1/8 at once
        assert resolve_step_size(AlternatingTau(first=1)) == 1.0 / 8.0


def one_lane(model, T, seed=0, alpha=None, theta0=None, **kw):
    """A one-trial config on the model's chain at the resolved step-size (or
    ``alpha``); its one lane runs on the stream derive_seed(seed, 0)."""
    provider = TD0Provider(model)
    alpha = resolve_step_size(provider) if alpha is None else alpha
    return ExperimentConfig(provider, theta0, alpha, T=T, trials=1,
                            master_seed=seed, **kw)


class TestRunSA:
    """One-trial runs of a config through the batch kernel."""

    def test_one_state_closed_form(self):
        cfg = one_lane(ONE_MODEL, 50, seed=3)
        thetas = kernel_paths(cfg)[0]
        t = np.arange(51)
        closed = 2.0 + (0.0 - 2.0) * (1 - cfg.alpha * 0.5) ** t
        np.testing.assert_allclose(thetas[:, 0], closed, atol=1e-12)

    def test_zero_horizon(self):
        paths = kernel_paths(one_lane(ONE_MODEL, 0, seed=1, theta0=[0.7]))
        np.testing.assert_array_equal(paths[0], [[0.7]])

    def test_replay_bitwise(self):
        a, b = one_lane(TWO_MODEL, 200, seed=9), one_lane(TWO_MODEL, 200, seed=9)
        assert np.array_equal(kernel_paths(a), kernel_paths(b))
        ea, eb = estimate_dt_et(a), estimate_dt_et(b)
        assert np.array_equal(ea.d_hat, eb.d_hat) and np.array_equal(ea.e_hat, eb.e_hat)
        assert ea.config.fingerprint() == eb.config.fingerprint()

    def test_divergence_guard_reports_step(self):
        bad = 1e9
        cfg = one_lane(TWO_MODEL, 10_000, seed=2, alpha=bad, theta0=[1.0])
        est = estimate_dt_et(cfg)
        with pytest.raises(ReferenceDivergence) as exc:
            reference_sa(TD0Provider(TWO_MODEL), TWO_STATE, np.array([1.0]), bad,
                         10_000, seed=derive_seed(2, 0))
        assert est.abort_step is not None
        assert est.abort_count == 1
        assert est.abort_step == exc.value.step
        with pytest.raises(ReferenceDivergence, match="divergence guard") as exc:
            kernel_paths(cfg)
        assert exc.value.step == est.abort_step

    def test_iid_restart_sampling(self):
        cfg = one_lane(TWO_MODEL, 100, seed=4, sampling="iid_restart")
        thetas = kernel_paths(cfg)[0]
        assert thetas.shape == (101, 1)
        assert np.array_equal(thetas, reference_sa(
            cfg.provider, TWO_STATE, np.zeros(1), cfg.alpha, 100,
            seed=derive_seed(4, 0), sampling="iid_restart"))

    def test_fixed_start_state(self):
        cfg = one_lane(TWO_MODEL, 50, seed=6, start_state=1)
        a = kernel_paths(cfg)[0]
        b = kernel_paths(cfg)[0]
        assert np.array_equal(a, b)
        assert np.array_equal(a, reference_sa(
            cfg.provider, TWO_STATE, np.zeros(1), cfg.alpha, 50,
            seed=derive_seed(6, 0), start_state=1))

    @pytest.mark.parametrize("start_state", [-1, 2])
    def test_start_state_out_of_range_rejected(self, start_state):
        with pytest.raises(ConfigError, match="start_state must be a state in 0..1"):
            one_lane(TWO_MODEL, 10, seed=6, start_state=start_state)

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ConfigError, match="sampling"):
            one_lane(TWO_MODEL, 10, seed=6, sampling="bogus")


class TestDelays:
    def test_emitted_delays_within_bounds(self):
        t = np.arange(200)
        for kind, tau_max in (("none", 0), ("constant", 5), ("uniform", 5),
                              ("sawtooth", 5)):
            seq = DelayProcess(kind, tau_max, seed=3).sequence(200)
            assert np.all(seq >= 0)
            assert np.all(seq <= np.minimum(t, 5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="delay kind"):
            DelayProcess("weird", 2, 0)

    @pytest.mark.parametrize("build, message", [
        (lambda: DelayProcess("weird", 2, 0), "unknown delay kind 'weird'"),
        (lambda: DelayProcess("uniform", -1, 0),
         "delays.tau_max must be nonnegative, got -1"),
        (lambda: DelayProcess("none", 5, 7),
         "delays.tau_max 5 needs a delay kind (constant, uniform or sawtooth), "
         "got kind 'none'")],
        ids=["kind", "tau_max", "tau_max_without_kind"])
    def test_refused_as_a_config_error_naming_the_delays_key(self, build, message):
        # the chain and the features have a seed too, so the delays' keys are
        # qualified
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message

    def test_zero_delay_reproduces_the_undelayed_run_bitwise(self):
        cfg = one_lane(TWO_MODEL, 300, seed=12)
        plain = kernel_paths(cfg)[0]
        for kind in ("none", "uniform"):
            delays = DelayProcess(kind, 0, seed=5)
            delayed = kernel_paths(replace(cfg, delays=delays))[0]
            assert np.array_equal(plain, delayed)
            reference = reference_sa(cfg.provider, TWO_STATE, np.zeros(1), cfg.alpha,
                                     300, seed=derive_seed(12, 0),
                                     delays=delays.spawn(0))
            assert np.array_equal(plain, reference)

    def test_constant_delay_one_state_two_term_recursion(self):
        # oracle: theta_{t+1} = theta_t + alpha (1 - 0.5 theta_{t-1}),
        # with theta_{-1} treated as theta_0 via the early clamp
        T = 400
        cfg = one_lane(ONE_MODEL, T, seed=1, delays=DelayProcess("constant", 1, seed=0))
        a = cfg.alpha
        thetas = kernel_paths(cfg)[0]
        ref = np.zeros(T + 1)
        for t in range(T):
            back = max(t - min(t, 1), 0)
            ref[t + 1] = ref[t] + a * (1.0 - 0.5 * ref[back])
        np.testing.assert_allclose(thetas[:, 0], ref, atol=1e-12)
        # companion matrix [[1, -0.5a], [1, 0]] has spectral radius < 1, so
        # the delayed recursion still converges to theta* = 2
        companion = np.array([[1.0, -0.5 * a], [1.0, 0.0]])
        assert np.max(np.abs(np.linalg.eigvals(companion))) < 1.0
        assert abs(thetas[-1, 0] - 2.0) < 1e-3

    def test_spawned_streams_differ(self):
        dp = DelayProcess("uniform", 4, seed=10)
        s0 = dp.spawn(0).sequence(100)
        s1 = dp.spawn(1).sequence(100)
        assert not np.array_equal(s0, s1)

    @pytest.mark.parametrize("tau_max", [5, 40000], ids=["int16", "past_int16"])
    @pytest.mark.parametrize("kind", ["none", "constant", "uniform", "sawtooth"])
    def test_schedule_columns_are_the_spawned_sequences(self, kind, tau_max):
        # the kernel's delays, gathered from its BLOCK-step blocks: T crosses
        # a block turn and 70 lanes cross a 64-lane tile; each column is its
        # lane's own process, drawn from one generator per lane in the
        # reference
        T, trials = BLOCK + 1, 70
        if kind == "none":
            tau_max = 0  # the one tau_max kind none takes
        process = DelayProcess(kind, tau_max, seed=77)
        buffer = np.empty((BLOCK, trials), dtype=np.int64)
        schedule = np.concatenate([block.copy() for _, block in process.blocks(T, buffer)])
        assert schedule.shape == (T, trials)
        for i in range(trials):
            lane = process.spawn(i)
            expected = reference_delays(lane, T)
            assert np.array_equal(schedule[:, i], expected)
            assert np.array_equal(lane.sequence(T), expected)
        assert np.array_equal(process.sequence(T), reference_delays(process, T))


GENERIC_PROVIDERS = [pytest.param(linear_contraction, id="linear_contraction"),
                     pytest.param(SaturatingMonotoneProvider,
                                  id="SaturatingMonotoneProvider")]


class TestProviderInput:
    @pytest.mark.parametrize("cls", GENERIC_PROVIDERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_star_rejected(self, cls, bad):
        with pytest.raises(ConfigError, match=r"theta_star .* at index \(1,\)"):
            cls([0.3, bad], [[1.0, 0.0], [-2.0, 0.0]], TWO_MODEL)

    @pytest.mark.parametrize("cls", GENERIC_PROVIDERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_rejected(self, cls, bad):
        with pytest.raises(ConfigError, match=r"noise .* at index \(1, 0\)"):
            cls([0.3], [[1.0], [bad]], TWO_MODEL)

    @pytest.mark.parametrize("cls", GENERIC_PROVIDERS)
    def test_zero_dimensional_provider_rejected(self, cls):
        with pytest.raises(ConfigError, match="at least one coordinate"):
            cls([], [[], []], TWO_MODEL)

    @pytest.mark.parametrize("cls", GENERIC_PROVIDERS)
    @pytest.mark.parametrize("noise", [[[1.0]], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]])
    def test_noise_table_of_wrong_shape_rejected(self, cls, noise):
        with pytest.raises(ConfigError, match=r"expected \(n, K\) = \(2, 1\)"):
            cls([0.3], noise, TWO_MODEL)

    @pytest.mark.parametrize("a, b", [(np.nan, 0.3), (np.inf, 0.3), (0.7, np.nan),
                                      (0.7, np.inf), (0.0, 0.3), (0.7, -0.1),
                                      ("0.7", 0.3), (0.7, [0.3]), (True, 0.3)])
    def test_saturating_constants_must_be_finite_and_in_range(self, a, b):
        with pytest.raises(ConfigError, match="need finite a > 0 and b >= 0"):
            SaturatingMonotoneProvider([0.3], [[1.0], [-2.0]], TWO_MODEL, a=a, b=b)

    @pytest.mark.parametrize("cls", GENERIC_PROVIDERS)
    def test_tables_must_be_numbers(self, cls):
        with pytest.raises(ConfigError, match="theta_star must be an array of numbers"):
            cls({"x": 1}, [[1.0], [-2.0]], TWO_MODEL)
        with pytest.raises(ConfigError, match="noise must be an array of numbers"):
            cls([0.3], [["1"], ["-2"]], TWO_MODEL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_theta0_rejected(self, bad):
        provider = TD0Provider(TWO_MODEL)
        with pytest.raises(ConfigError, match=r"theta0 .* at index \(0,\)"):
            provider.initial_theta([bad])


class TestAuditProvider:
    def test_observations_are_the_float_paths(self):
        # the audit picks s' from raw words; every observation it passes is
        # the one the doubles random() makes of those words would pick by a
        # whole-row comparison, so the audit is the one drawn from doubles
        seen = []

        class Recording(TD0Provider):
            def direction(self, theta, X):
                seen.append(X)
                return super().direction(theta, X)

        mrp = random_mrp(6, 0.5, seed=3)
        provider = Recording(build_steady_state(mrp, random_features(6, 3, seed=4)))
        m = 4000
        assert audit_provider(provider, m, seed=9).ok
        rng = generator(derive_seed(9, 0xA0D1))
        rng.uniform(0.1, 10.0, size=(m, 1))
        rng.normal(size=(m, 3))
        rng.normal(size=(m, 3))
        s = rng.integers(0, 6, size=m)
        u = rng.random(m)
        sp = np.minimum((mrp.cum_P[s] <= u[:, None]).sum(axis=1), 5)
        expected = provider.observe(s, sp)
        assert len(seen) == 2
        for X in seen:
            assert all(np.array_equal(a, b) for a, b in zip(X, expected))

    def test_td0_passes_with_declared_constants(self):
        audit = audit_provider(TD0Provider(TWO_MODEL), 20_000, seed=1)
        assert audit.ok
        assert audit.max_lipschitz_ratio <= 2.0 + 1e-9

    def test_underdeclared_lipschitz_fails_with_witness(self):
        provider = TD0Provider(TWO_MODEL)
        provider.L = 0.1  # deliberate misdeclaration
        audit = audit_provider(provider, 20_000, seed=1)
        assert not audit.ok
        assert audit.witness["check"] == "lipschitz"
        assert audit.witness["theta1"] is not None

    def test_linear_contraction_is_exactly_one_monotone(self):
        provider = linear_contraction([0.3], [[1.0], [-2.0]], TWO_MODEL)
        audit = audit_provider(provider, 20_000, seed=2)
        assert audit.ok
        assert audit.min_monotone_ratio == pytest.approx(1.0, abs=1e-9)
        assert audit.max_lipschitz_ratio == pytest.approx(1.0, abs=1e-9)

    def test_saturating_provider_contract(self):
        provider = SaturatingMonotoneProvider([0.5], [[0.3], [-0.6]], TWO_MODEL,
                                              a=0.7, b=0.3)
        audit = audit_provider(provider, 20_000, seed=3)
        assert audit.ok
        assert audit.min_monotone_ratio >= 0.7 - 1e-9

    def test_steep_steady_map_fails_steady_lipschitz(self):
        class Steep(SaturatingMonotoneProvider):
            def steady(self, theta):
                return 3.0 * (self.theta_star[:, None] - theta)

        provider = Steep([0.3], [[1.0], [-2.0]], TWO_MODEL, a=1.0, b=0.0)
        audit = audit_provider(provider, 20_000, seed=2)
        assert not audit.ok
        assert audit.witness["check"] == "steady_lipschitz"
        assert audit.max_steady_ratio == pytest.approx(3.0, abs=1e-9)

    def test_td0_norm_envelope_uses_r_bar(self):
        # an offset of 0.5 phi(s) stays inside the generic 2 (||theta|| + sigma)
        # but not inside TD(0)'s 2 ||theta|| + 2 r_bar with r_bar = 0.1
        mrp = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [0.1, 0.0], 0.9)
        model = build_steady_state(mrp, TWO_FEATS)

        class Offset(TD0Provider):
            def direction(self, theta, X):
                return super().direction(theta, X) + 0.5 * X[0][:-1]

        class GenericOffset(Offset):
            norm_offset = property(lambda self: self.sigma_const)

        audit = audit_provider(Offset(model), 20_000, seed=4)
        assert audit.declared["norm_offset"] == 0.1
        assert not audit.ok
        assert audit.witness["check"] == "norm"
        assert audit_provider(GenericOffset(model), 20_000, seed=4).ok

    def test_centered_noise_means_steady_zero_at_fixed_point(self):
        # the table is centered under the stationary law of its model's chain
        provider = linear_contraction([0.3], [[1.0], [-2.0]], TWO_MODEL)
        pi = provider.model.mrp.pi
        np.testing.assert_allclose(pi @ provider.noise_table, 0.0, atol=1e-14)
        assert np.array_equal(provider.steady(provider.theta_star[:, None]), [[0.0]])


# the distinct chains of the bundled configs, each with constant features
_CHAINS = {repr(chain): chain for chain in (bundled_config(name)["instance"]["chain"]
                                            for name in bundled_names())}
BUNDLED_MODELS = [build_steady_state(mrp, constant_features(mrp.n))
                  for mrp in map(mrp_from_dict, _CHAINS.values())]


class TestSaturatingFamily:
    """The linear contraction is the saturating operator at a = 1, b = 0, and
    one envelope sigma = max(1, ||theta*||, (max_s ||a theta* + n(s)|| +
    b sqrt(K)) / L) serves the whole family."""

    def test_linear_sigma_is_the_largest_state_offset(self):
        # pi = (2/3, 1/3) centers this table to itself; the offsets theta* +
        # n(s) are (1, 1) and (4, -2), so max_s ||theta* + n(s)|| = sqrt(20)
        # is below ||theta*|| + max_s ||n(s)|| = 2 + sqrt(8)
        star, noise = [2.0, 0.0], [[-1.0, 1.0], [2.0, -2.0]]
        provider = linear_contraction(star, noise, TWO_MODEL)
        offsets = np.linalg.norm(provider.theta_star + provider.noise_table, axis=1)
        assert provider.sigma_const == max(1.0, 2.0, offsets.max())
        assert provider.sigma_const == pytest.approx(math.sqrt(20.0), rel=1e-15)
        assert provider.sigma_const < 2.0 + np.linalg.norm(
            provider.noise_table, axis=1).max()
        assert (provider.L, provider.beta, provider.norm_offset) == (
            1.0, 1.0, provider.sigma_const)
        assert audit_provider(provider, 20_000, seed=5).ok

    def test_linear_update_is_minus_theta_plus_the_state_offset(self):
        provider = linear_contraction([0.3], [[1.0], [-2.0]], TWO_MODEL)
        theta = generator(6).normal(size=(1, 40)) * 5.0
        s = generator(7).integers(0, 2, size=40)
        c = provider.theta_star[:, None] + provider.noise_table.T[:, s]
        np.testing.assert_allclose(
            provider.direction(theta, provider.observe(s, s)), c - theta,
            rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BUNDLED_MODELS), st.integers(1, 3), st.data(),
           st.floats(0.05, 5.0), st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           st.integers(0, 2 ** 32 - 1))
    def test_audit_passes_for_every_instance(self, model, K, data, a, b, seed):
        # the audit checks ||g(theta; X)|| <= L (||theta|| + sigma) at sampled
        # theta and states, so a sigma below some state's offset fails it
        entries = st.floats(-10.0, 10.0)
        star = data.draw(arrays(float, K, elements=entries))
        noise = data.draw(arrays(float, (model.mrp.n, K), elements=entries))
        provider = SaturatingMonotoneProvider(star, noise, model, a=a, b=b)
        audit = audit_provider(provider, 2000, seed=seed)
        assert audit.ok, audit.witness


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _same_bits(a, b):
    # equal bit for bit, a NaN matching any NaN: which NaN an add returns is
    # the hardware's choice
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
        _bits(np.where(np.isnan(a), 0.0, a)), _bits(np.where(np.isnan(b), 0.0, b)))


class TestRowsum:
    # values spanning many magnitudes with both signs of zero and the
    # non-finite values, so every change of summation order or of the
    # identity shows in the bits
    _value = st.one_of(
        st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False),
        st.floats(-1e-3, 1e-3, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16,
                         math.inf, -math.inf, math.nan]))

    @staticmethod
    def _left_to_right(x):
        # each lane's K-vector summed one term at a time from 0.0
        sums = []
        for lane in x.T:
            acc = 0.0
            for v in lane:
                acc = acc + float(v)
            sums.append(acc)
        return np.array(sums)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.data())
    def test_equals_left_to_right_sum(self, K, data):
        # a batch of wide-ranging normals with up to 20 drawn values written
        # over it, so long vectors cost no long Hypothesis lists
        lanes = data.draw(st.integers(1, 4))
        rng = generator(data.draw(st.integers(0, 2 ** 32)))
        x = rng.normal(size=(K, lanes)) * np.exp(rng.uniform(-30, 30, size=(K, lanes)))
        cells = data.draw(st.lists(st.tuples(st.integers(0, K * lanes - 1), self._value),
                                   max_size=20))
        for cell, value in cells:
            x.flat[cell] = value
        with np.errstate(invalid="ignore"):
            assert _same_bits(rowsum(x), self._left_to_right(x))
            assert _same_bits(rowsum(x[:, 0]), self._left_to_right(x[:, :1])[0])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_equals_numpy_sum_below_eight_terms(self, K, data):
        # numpy sums a contiguous vector of fewer than 8 terms left to right
        # from 0.0 too, so these lanes keep the bits of np.sum
        lanes = data.draw(st.integers(1, 6))
        x = np.array(data.draw(st.lists(self._value, min_size=lanes * K,
                                        max_size=lanes * K))).reshape(K, lanes)
        with np.errstate(invalid="ignore"):
            lane_sums = np.ascontiguousarray(x.T).sum(axis=-1)
            assert _same_bits(rowsum(x), lane_sums)

    @pytest.mark.parametrize("K", [1, 2, 7, 8, 9])
    def test_sum_of_negative_zeros_is_positive_zero(self, K):
        # the identity 0.0 starts every sum, as it starts numpy's
        x = np.full((K, 2), -0.0)
        assert np.array_equal(_bits(rowsum(x)), _bits(np.zeros(2)))
        assert np.array_equal(_bits(rowsum(x[:, 0])), _bits(0.0))

    @pytest.mark.parametrize("K", [1, 3, 8, 9, 17, 300])
    def test_one_lane_equals_its_column_in_a_wide_batch(self, K):
        rng = generator(K)
        x = rng.normal(size=(K, 50)) * np.exp(rng.uniform(-20, 20, size=(K, 50)))
        x[rng.random((K, 50)) < 0.1] = -0.0
        wide = rowsum(x)
        for i in range(50):
            assert np.array_equal(_bits(rowsum(x[:, [i]])), _bits(wide[[i]]))
            assert np.array_equal(_bits(rowsum(x[:, i])), _bits(wide[i]))
