from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import ReferenceDivergence, reference_sa
from tdcert.chain import ChainError, MarkovRewardProcess, derive_seed, generator
from tdcert.harness import (
    ConfigError,
    ExperimentConfig,
    estimate_dt_et,
    simulate_trajectories,
)
from tdcert.oracle import (
    FeatureMatrix,
    build_steady_state,
    constant_features,
    envelope_mixing_time,
    random_features,
)
from tdcert.sa_core import (
    DelayProcess,
    LinearContractionProvider,
    SaturatingMonotoneProvider,
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


class TestTD0Direction:
    def test_zero_parameter_gives_reward_times_feature(self):
        g = td0_direction(TWO_FEATS, 0.9, np.zeros(1), (0, 1, 1.0))
        np.testing.assert_allclose(g, [1.0])

    def test_one_state_vanishes_at_fixed_point(self):
        g = td0_direction(constant_features(1), 0.5, np.array([2.0]), (0, 0, 1.0))
        np.testing.assert_allclose(g, [0.0], atol=1e-15)

    def test_hand_expansion_two_state(self):
        # phi(0) = 1, phi(1) = 0: td = r + 0.9 * phi(s') theta - phi(s) theta
        g = td0_direction(TWO_FEATS, 0.9, np.array([2.0]), (0, 1, 1.0))
        np.testing.assert_allclose(g, [1.0 + 0.9 * 0.0 - 2.0])
        g = td0_direction(TWO_FEATS, 0.9, np.array([2.0]), (1, 0, 0.0))
        np.testing.assert_allclose(g, [0.0])  # phi(1) = 0 kills the direction

    def test_batch_matches_scalar_calls_bitwise(self):
        rng = generator(5)
        thetas = rng.normal(size=(1, 50))
        s = rng.integers(0, 2, size=50)
        sp = rng.integers(0, 2, size=50)
        X = (s, sp, TWO_STATE.R[s])
        batch = td0_direction(TWO_FEATS, 0.9, thetas, X)
        for i in range(50):
            single = td0_direction(TWO_FEATS, 0.9, thetas[:, i],
                                   (int(s[i]), int(sp[i]), float(TWO_STATE.R[s[i]])))
            assert np.array_equal(batch[:, i], single)

    def test_batch_matches_scalar_calls_bitwise_k9(self):
        # nine features take numpy's 8-accumulator pairwise order
        feats = random_features(12, 9, seed=21)
        rng = generator(6)
        thetas = np.ascontiguousarray(rng.normal(size=(40, 9)).T) * 3.0
        s = rng.integers(0, 12, size=40)
        sp = rng.integers(0, 12, size=40)
        r = rng.uniform(-1.0, 1.0, size=40)
        batch = td0_direction(feats, 0.7, thetas, (s, sp, r))
        for i in range(40):
            single = td0_direction(feats, 0.7, thetas[:, i],
                                   (int(s[i]), int(sp[i]), float(r[i])))
            assert np.array_equal(batch[:, i], single)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=1),
           st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=1),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_affine_consistency(self, t1, t2, lam):
        theta1, theta2 = np.array(t1), np.array(t2)
        X = (0, 1, 1.0)
        mix = td0_direction(TWO_FEATS, 0.9, lam * theta1 + (1 - lam) * theta2, X)
        combo = (lam * td0_direction(TWO_FEATS, 0.9, theta1, X)
                 + (1 - lam) * td0_direction(TWO_FEATS, 0.9, theta2, X))
        np.testing.assert_allclose(mix, combo, atol=1e-12)

    def test_norm_envelopes(self):
        # ||g(theta, X)|| <= 2 ||theta - theta*|| + 4 sigma and
        # ||steady(theta)|| <= 2 ||theta - theta*||
        provider = TD0Provider(TWO_MODEL)
        rng = generator(17)
        thetas = rng.normal(size=(1, 5000)) * 8.0
        s = rng.integers(0, 2, size=5000)
        sp = rng.integers(0, 2, size=5000)
        g = provider.direction(thetas, (s, sp, TWO_STATE.R[s]))
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
        # comes from the TV envelope at G = L sigma on the 64-step profile
        assert provider.contraction == 0.5 / 6.25
        tau = provider.certify(alpha).tau
        profile = ONE_MODEL.mixing.profile(64)
        envelope = envelope_mixing_time(profile, ONE_STATE.pi,
                                        2.5 * provider.sigma_const, alpha)
        assert tau == envelope.tau
        assert alpha == provider.contraction / (8.0 * tau) < 1.0 / (8.0 * tau)


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
        thetas = simulate_trajectories(cfg).retained[0]
        t = np.arange(51)
        closed = 2.0 + (0.0 - 2.0) * (1 - cfg.alpha * 0.5) ** t
        np.testing.assert_allclose(thetas[:, 0], closed, atol=1e-12)

    def test_zero_horizon(self):
        est = simulate_trajectories(one_lane(ONE_MODEL, 0, seed=1, theta0=[0.7]))
        np.testing.assert_array_equal(est.retained[0], [[0.7]])

    def test_replay_bitwise(self):
        a = simulate_trajectories(one_lane(TWO_MODEL, 200, seed=9))
        b = simulate_trajectories(one_lane(TWO_MODEL, 200, seed=9))
        assert np.array_equal(a.retained, b.retained)
        assert a.config.fingerprint() == b.config.fingerprint()

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
        with pytest.raises(ConfigError, match="divergence guard"):
            simulate_trajectories(cfg)

    def test_iid_restart_sampling(self):
        cfg = one_lane(TWO_MODEL, 100, seed=4, sampling="iid_restart")
        thetas = simulate_trajectories(cfg).retained[0]
        assert thetas.shape == (101, 1)
        assert np.array_equal(thetas, reference_sa(
            cfg.provider, TWO_STATE, np.zeros(1), cfg.alpha, 100,
            seed=derive_seed(4, 0), sampling="iid_restart"))

    def test_fixed_start_state(self):
        cfg = one_lane(TWO_MODEL, 50, seed=6, start_state=1)
        a = simulate_trajectories(cfg).retained[0]
        b = simulate_trajectories(cfg).retained[0]
        assert np.array_equal(a, b)
        assert np.array_equal(a, reference_sa(
            cfg.provider, TWO_STATE, np.zeros(1), cfg.alpha, 50,
            seed=derive_seed(6, 0), start_state=1))

    @pytest.mark.parametrize("start_state", [-1, 2])
    def test_start_state_out_of_range_rejected(self, start_state):
        with pytest.raises(ChainError, match="start_state"):
            simulate_trajectories(one_lane(TWO_MODEL, 10, seed=6,
                                           start_state=start_state))

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ConfigError, match="sampling"):
            one_lane(TWO_MODEL, 10, seed=6, sampling="bogus")


class TestDelays:
    def test_emitted_delays_within_bounds(self):
        t = np.arange(200)
        for kind in ("none", "constant", "uniform", "sawtooth"):
            seq = DelayProcess(kind, 5, seed=3).sequence(200)
            assert np.all(seq >= 0)
            assert np.all(seq <= np.minimum(t, 5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="delay kind"):
            DelayProcess("weird", 2, 0)

    def test_zero_delay_reproduces_the_undelayed_run_bitwise(self):
        cfg = one_lane(TWO_MODEL, 300, seed=12)
        plain = simulate_trajectories(cfg).retained[0]
        for kind in ("none", "uniform"):
            delays = DelayProcess(kind, 0, seed=5)
            delayed = simulate_trajectories(replace(cfg, delays=delays)).retained[0]
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
        thetas = simulate_trajectories(cfg).retained[0]
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


class TestAuditProvider:
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
        provider = LinearContractionProvider([0.3], [[1.0], [-2.0]], TWO_MODEL)
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
        class Steep(LinearContractionProvider):
            def steady(self, theta):
                return 3.0 * (self.theta_star - np.asarray(theta, dtype=float))

        provider = Steep([0.3], [[1.0], [-2.0]], TWO_MODEL)
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
                return (super().direction(theta, X)
                        + 0.5 * self.model.features.PhiT.take(X[0], axis=1))

        class GenericOffset(Offset):
            norm_offset = property(lambda self: self.sigma_const)

        audit = audit_provider(Offset(model), 20_000, seed=4)
        assert audit.declared["norm_offset"] == 0.1
        assert not audit.ok
        assert audit.witness["check"] == "norm"
        assert audit_provider(GenericOffset(model), 20_000, seed=4).ok

    def test_centered_noise_means_steady_zero_at_fixed_point(self):
        # the table is centered under the stationary law of its model's chain
        provider = LinearContractionProvider([0.3], [[1.0], [-2.0]], TWO_MODEL)
        pi = provider.model.mrp.pi
        np.testing.assert_allclose(pi @ provider.c_table, provider.theta_star,
                                   atol=1e-14)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestRowsum:
    # values spanning many magnitudes with both signs of zero, so every
    # change of summation order or of the identity shows in the bits
    _value = st.one_of(
        st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False),
        st.floats(-1e-3, 1e-3, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]))

    @staticmethod
    def _lane_sums(x):
        # numpy's sum of each lane's contiguous K-vector
        return np.ascontiguousarray(x.T).sum(axis=-1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.data())
    def test_equals_numpy_sum_on_rows_and_vectors(self, K, data):
        lanes = data.draw(st.integers(1, 6))
        x = np.array(data.draw(st.lists(self._value, min_size=lanes * K,
                                        max_size=lanes * K))).reshape(K, lanes)
        assert np.array_equal(_bits(rowsum(x)), _bits(self._lane_sums(x)))
        assert np.array_equal(_bits(rowsum(x[:, 0])), _bits(x[:, 0].sum()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(21, 300), st.data())
    def test_equals_numpy_sum_on_long_vectors(self, K, data):
        lanes = data.draw(st.integers(1, 3))
        x = np.array(data.draw(st.lists(self._value, min_size=lanes * K,
                                        max_size=lanes * K))).reshape(K, lanes)
        assert np.array_equal(_bits(rowsum(x)), _bits(self._lane_sums(x)))

    @pytest.mark.parametrize("K", [1, 3, 7, 8, 9, 16, 17, 129, 300])
    def test_equals_numpy_sum_on_trial_batches(self, K):
        rng = generator(K)
        x = rng.normal(size=(K, 500)) * np.exp(rng.uniform(-20, 20, size=(K, 500)))
        x[rng.random((K, 500)) < 0.1] = -0.0
        assert np.array_equal(_bits(rowsum(x)), _bits(self._lane_sums(x)))
