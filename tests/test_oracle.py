import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcert.chain import ChainError, MarkovRewardProcess, generator, random_mrp
from tdcert.oracle import (
    CertificationError,
    FeatureError,
    FeatureMatrix,
    MixingOracle,
    build_steady_state,
    constant_features,
    dnorm_contraction_margin,
    envelope_mixing_time,
    group_features,
    identity_features,
    lemma1_margin,
    mixing_time,
    oracle_report,
    random_features,
    steady_state_direction,
)
from tdcert.chain import stationary_distribution, tv_mixing_profile
from tdcert.sa_core import TD0Provider, audit_provider, resolve_step_size
from tdcert.harness import ExperimentConfig

ONE_STATE = MarkovRewardProcess([[1.0]], [1.0], 0.5)
TWO_STATE = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.9)
TWO_FEATS = FeatureMatrix([[1.0], [0.0]])
UNIFORM = MarkovRewardProcess([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0], 0.5)


class TestFeatureMatrix:
    def test_rank_deficient_rejected(self):
        with pytest.raises(FeatureError, match="rank"):
            FeatureMatrix([[1.0, 1.0], [0.5, 0.5]])

    def test_oversized_row_rejected(self):
        with pytest.raises(FeatureError, match="squared norm"):
            FeatureMatrix([[1.0, 0.5], [0.0, 1.0]])

    def test_builders_satisfy_invariants(self):
        for feats in (constant_features(5), identity_features(4),
                      group_features(7, 3), random_features(6, 3, seed=1)):
            assert (np.linalg.norm(feats.Phi, axis=1) <= 1 + 1e-12).all()
            sv = np.linalg.svd(feats.Phi, compute_uv=False)
            assert sv.min() > 1e-10


class TestBuildSteadyState:
    def test_one_state_scalar_algebra(self):
        model = build_steady_state(ONE_STATE, constant_features(1))
        assert model.A_bar[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert model.theta_star[0] == pytest.approx(2.0, abs=1e-12)
        assert model.Sigma[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert model.omega == pytest.approx(1.0, abs=1e-12)
        assert model.sigma_const == pytest.approx(2.0)
        assert oracle_report(TD0Provider(model))["B"] == pytest.approx(40.0)  # theta0 = 0

    def test_identity_features_give_gram_equal_to_D(self):
        mrp = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.5)
        model = build_steady_state(mrp, identity_features(2))
        np.testing.assert_allclose(model.Sigma, np.diag(model.mrp.pi),
                                   atol=1e-14)
        assert model.omega == pytest.approx(model.mrp.pi.min(), abs=1e-12)

    def test_theta_star_matches_projected_bellman_iteration(self):
        # independent oracle: iterate the D-weighted projected Bellman map
        # theta <- Sigma^{-1} Phi^T D (R + gamma P Phi theta), a contraction
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        pi = model.mrp.pi
        Phi = TWO_FEATS.Phi
        Sigma_inv = np.linalg.inv(Phi.T @ (pi[:, None] * Phi))
        theta = np.zeros(1)
        for _ in range(2000):
            target = TWO_STATE.R + TWO_STATE.gamma * TWO_STATE.P @ (Phi @ theta)
            theta = Sigma_inv @ (Phi.T @ (pi * target))
        assert np.max(np.abs(theta - model.theta_star)) <= 1e-8
        # and the closed form for this instance: theta* = (2/3) / (19/150)
        assert model.theta_star[0] == pytest.approx(100.0 / 19.0, abs=1e-12)

    def test_fixed_point_residual(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        resid = model.A_bar @ model.theta_star + model.b_neg
        assert np.linalg.norm(resid) <= 1e-10

    def test_feature_row_count_must_match(self):
        with pytest.raises(FeatureError, match="rows"):
            build_steady_state(TWO_STATE, constant_features(3))


class TestSteadyStateDirection:
    def test_zero_at_fixed_point(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        assert np.linalg.norm(steady_state_direction(model, model.theta_star)) <= 1e-10

    def test_one_state_at_origin(self):
        model = build_steady_state(ONE_STATE, constant_features(1))
        np.testing.assert_allclose(steady_state_direction(model, np.zeros(1)), [1.0])

    def test_monte_carlo_consistency(self):
        # oracle: sample s ~ pi and s' ~ P(s, .) iid, average the sampled
        # TD directions, compare componentwise within 3 standard errors
        from tdcert.sa_core import td0_direction
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        theta = np.array([1.7])
        rng = generator(424242)
        N = 1_000_000
        cum_pi = np.cumsum(model.mrp.pi)
        s = np.minimum((cum_pi[None, :] <= rng.random(N)[:, None]).sum(1), 1)
        sp = np.minimum((TWO_STATE.cum_P[s] <= rng.random(N)[:, None]).sum(1), 1)
        dirs = td0_direction(TWO_FEATS, TWO_STATE.gamma, theta[:, None],
                             (s, sp, TWO_STATE.R[s]))
        mc = dirs.mean(axis=1)
        se = dirs.std(axis=1, ddof=1) / np.sqrt(N)
        exact = steady_state_direction(model, theta)
        assert np.all(np.abs(mc - exact) <= 3 * se)

    def test_batch_rows(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        thetas = np.array([[0.0, 1.0, 5.0]])
        batch = steady_state_direction(model, thetas)
        for col, theta in zip(batch.T, thetas.T):
            np.testing.assert_allclose(col, steady_state_direction(model, theta))

    @pytest.mark.parametrize("K", range(1, 10))
    def test_lanes_last_map_has_the_row_major_bits(self, K):
        # the kernel's (K, K) @ (K, lanes) gives the bits of the one-row-per-
        # lane form theta^T @ A_bar^T + b_neg, lane count by lane count
        mrp = random_mrp(12, 0.5, seed=40 + K)
        model = build_steady_state(mrp, random_features(12, K, seed=50 + K))
        rng = generator(60 + K)
        for lanes in (1, 2, 7, 500, 2000):
            rows = rng.normal(size=(lanes, K)) * np.exp(rng.uniform(-8, 8, (lanes, K)))
            lanes_last = steady_state_direction(model, np.ascontiguousarray(rows.T))
            row_major = rows @ model.A_bar.T + model.b_neg
            assert np.array_equal(lanes_last.view(np.int64),
                                  np.ascontiguousarray(row_major.T).view(np.int64))


class TestMixingTime:
    def test_one_state_tau_is_one(self):
        cert = mixing_time(ONE_STATE, constant_features(1), 1e-3)
        assert cert.tau == 1

    def test_uniform_rows_tau_is_two(self):
        # direct enumeration: conditioning fixes s_1 at k=1, while the
        # conditional law equals pi for every k >= 2
        feats = FeatureMatrix([[1.0], [0.0]])
        for eps in (0.1, 0.01):
            cert = mixing_time(UNIFORM, feats, eps)
            assert cert.tau == 2
            assert cert.margin_curve[0] > eps
            np.testing.assert_allclose(cert.margin_curve[1:], 0.0, atol=1e-14)

    def test_certificate_rechecks(self):
        cert = mixing_time(TWO_STATE, TWO_FEATS, 0.01)
        assert cert.recheck()
        assert np.all(cert.margin_curve[cert.tau - 1:] <= 0.01)

    def test_monotone_in_epsilon(self):
        taus = [mixing_time(TWO_STATE, TWO_FEATS, eps).tau
                for eps in (0.1, 0.03, 0.01, 0.003, 0.001)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))

    def test_affine_growth_in_log_precision(self):
        # two-state chains have exactly geometric deviation decay, governed
        # by the known second eigenvalue 0.7
        eps_grid = [1e-1, 1e-2, 1e-3, 1e-4]
        taus = [mixing_time(TWO_STATE, TWO_FEATS, e).tau for e in eps_grid]
        x = np.log(1.0 / np.array(eps_grid))
        slope = np.polyfit(x, np.array(taus, dtype=float), 1)[0]
        target = 1.0 / np.log(1.0 / 0.7)
        assert abs(slope - target) / target <= 0.1
        assert slope <= target * 1.1  # never grows faster than the spectral rate

    def test_epsilon_beyond_horizon_reports_requirement(self):
        with pytest.raises(CertificationError) as exc:
            mixing_time(TWO_STATE, TWO_FEATS, 1e-4, horizon=8)
        assert exc.value.required_horizon > 8

    def test_horizon_auto_extends_for_tiny_epsilon(self):
        slow = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.5)
        cert = mixing_time(slow, TWO_FEATS, 1e-11)
        assert cert.horizon_checked > 64  # default start is 64
        assert cert.tau > 64 and cert.recheck()

    def test_envelope_fallback_overestimates(self):
        profile = tv_mixing_profile(TWO_STATE, 64)
        stat = stationary_distribution(TWO_STATE)
        exact = mixing_time(TWO_STATE, TWO_FEATS, 0.01)
        env = envelope_mixing_time(profile, stat, lipschitz_scale=2.0, epsilon=0.01)
        assert env.tau >= exact.tau
        assert env.method == "tv-envelope"

    def test_envelope_uniform_chain(self):
        profile = tv_mixing_profile(UNIFORM, 16)
        stat = stationary_distribution(UNIFORM)
        cert = envelope_mixing_time(profile, stat, lipschitz_scale=2.0, epsilon=0.01)
        assert cert.tau == 2  # k=1 deviation positive, zero afterwards

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_envelope_dominates_exact_tau_on_random_chains(self, seed):
        # the fallback uses G = L sigma >= the exact per-step constants and
        # the fitted TV envelope >= the true TV curve, so its tau can only
        # over-estimate (which merely shrinks the admissible step-size)
        mrp = random_mrp(4, 0.9, seed, gamma=0.6)
        model = build_steady_state(mrp, group_features(4, 2))
        profile = tv_mixing_profile(mrp, 64)
        for eps in (0.05, 0.01):
            exact = mixing_time(mrp, model.features, eps)
            env = envelope_mixing_time(profile, model.mrp.pi,
                                       2.0 * model.sigma_const, eps)
            assert env.tau >= exact.tau


def einsum_deviation_curve(oracle, horizon):
    """Reference for the oracle's deviation step: per k = 1..horizon the
    three-operand einsum tensor sum_s (P^(k-1) - pi)[t, s] phi(s) m(s)^T and
    the curve value built on it."""
    mrp, Phi, pi = oracle.mrp, oracle.features.Phi, oracle.mrp.pi
    M = (mrp.gamma * mrp.P - np.eye(mrp.n)) @ Phi
    Q, curve, tensors = np.eye(mrp.n), [], []
    for _ in range(horizon):
        W = Q - pi[None, :]
        A_t = np.einsum("ts,sk,sj->tkj", W, Phi, M)
        vec = np.linalg.norm((W * mrp.R[None, :]) @ Phi, axis=1)
        curve.append(max(np.linalg.svd(A_t, compute_uv=False)[:, 0].max(), vec.max()))
        tensors.append(A_t)
        Q = Q @ mrp.P
    return np.array(curve), tensors


class TestDeviationKernel:
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 150), data=st.data())
    def test_gemm_matches_einsum_reference(self, n, data):
        seed = data.draw(st.integers(0, 2 ** 31 - 1), label="seed")
        K = data.draw(st.integers(1, min(n, 8)), label="K")
        mrp = random_mrp(n, data.draw(st.floats(0.2, 1.0), label="density"), seed)
        oracle = MixingOracle(mrp, random_features(n, K, seed))
        svd, seen = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            seen.append(np.array(a))
            return svd(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", recording_svd)
            cert = oracle.certify(1e300, horizon=16)
        ref_curve, ref_tensors = einsum_deviation_curve(oracle, 16)
        assert len(seen) == 16
        for got, ref in zip(seen, ref_tensors):
            assert got.shape == (n, K, K)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(cert.margin_curve, ref_curve, rtol=1e-12, atol=0.0)


def _outcome(certify, eps):
    try:
        return certify(eps)
    except (ChainError, CertificationError) as exc:
        return (type(exc), str(exc))


class TestMixingOracle:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 30), data=st.data())
    def test_queries_equal_from_scratch_certificates(self, n, data):
        seed = data.draw(st.integers(0, 2 ** 31 - 1), label="seed")
        laziness = data.draw(st.floats(0.7, 0.9), label="laziness")
        K = data.draw(st.integers(1, min(n, 5)), label="K")
        base = random_mrp(n, data.draw(st.floats(0.2, 1.0), label="density"), seed)
        mrp = MarkovRewardProcess(laziness * np.eye(n) + (1.0 - laziness) * base.P,
                                  base.R, base.gamma)
        model = build_steady_state(mrp, random_features(n, K, seed))
        eps_list = data.draw(st.lists(st.floats(1e-10, 0.5), max_size=5), label="eps")
        deep = None
        try:  # half the 64th deviation forces the search past its first horizon
            deep = 0.5 * mixing_time(mrp, model.features, 1e300).margin_curve[63]
            eps_list.append(deep)
        except ChainError:  # no certified envelope: both sides must refuse alike
            pass
        for eps in data.draw(st.permutations(eps_list), label="order"):
            got = _outcome(model.mixing.certify, eps)
            fresh = _outcome(lambda e: mixing_time(mrp, model.features, e), eps)
            if isinstance(fresh, tuple):
                assert got == fresh
                continue
            assert (got.tau, got.horizon_checked, got.tail_coeff, got.tail_rho) == (
                fresh.tau, fresh.horizon_checked, fresh.tail_coeff, fresh.tail_rho)
            assert got.margin_curve.tobytes() == fresh.margin_curve.tobytes()
            assert got.recheck()
            if eps == deep:
                assert got.horizon_checked > 64

    @pytest.mark.parametrize("n", [150, 300])
    def test_large_chain_queries_equal_from_scratch_certificates(self, n):
        mrp = random_mrp(n, 0.5, 1501)
        model = build_steady_state(mrp, random_features(n, 8, 1502))
        for eps in (1e-1, 1e-3, 1e-6, 1e-2):
            got = model.mixing.certify(eps)
            fresh = mixing_time(mrp, model.features, eps)
            assert (got.tau, got.horizon_checked, got.tail_coeff, got.tail_rho) == (
                fresh.tau, fresh.horizon_checked, fresh.tail_coeff, fresh.tail_rho)
            assert got.margin_curve.tobytes() == fresh.margin_curve.tobytes()
            assert got.recheck()

    def test_slow_lazy_chain_certifies(self):
        # |lambda_2| near 1: a 1% grid of rates skipped from below 1 to past it
        base = random_mrp(5, 0.5, 5)
        lazy = MarkovRewardProcess(0.9375 * np.eye(5) + 0.0625 * base.P,
                                   base.R, base.gamma)
        features = random_features(5, 1, 5)
        for eps, tau in ((0.1, 69), (0.01, 143), (0.001, 214)):
            cert = mixing_time(lazy, features, eps)
            assert cert.tau == tau and cert.tail_rho < 1.0 and cert.recheck()

    def test_report_then_step_size_never_restarts_the_powers(self, monkeypatch):
        # one deviation step (one batched SVD) per matrix power: the second
        # caller continues where the first stopped instead of starting at k=1
        model = build_steady_state(random_mrp(12, 0.5, 3), random_features(12, 3, 4))
        svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        provider = TD0Provider(model)
        report = oracle_report(provider)
        alpha = resolve_step_size(provider)
        steps = len(calls)
        monkeypatch.undo()
        checked = [row["horizon_checked"] for row in report["tau_table"]]
        checked.append(model.mixing.certify(alpha).horizon_checked)
        assert steps == max(checked)

    def test_invalid_chain_refused(self):
        periodic = MarkovRewardProcess([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], 0.5)
        for _ in range(2):
            with pytest.raises(ChainError, match="Assumption 1"):
                MixingOracle(periodic, TWO_FEATS)


class TestLemma1:
    def test_zero_margin_at_fixed_point(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        assert lemma1_margin(model, model.theta_star) == pytest.approx(0.0, abs=1e-12)

    def test_one_state_exactly_tight(self):
        model = build_steady_state(ONE_STATE, constant_features(1))
        assert lemma1_margin(model, np.zeros(1)) == pytest.approx(0.0, abs=1e-12)

    def test_random_ball_nonnegative(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        rng = generator(7)
        raw = rng.normal(size=(10_000, 1))
        radii = 10.0 * rng.random((10_000, 1)) ** (1.0 / model.K)
        thetas = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii
        margins = lemma1_margin(model, np.ascontiguousarray(thetas.T))
        assert margins.min() >= -1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=2, max_size=2))
    def test_margin_property_over_parameter_space(self, theta):
        model = build_steady_state(
            MarkovRewardProcess([[0.7, 0.3], [0.4, 0.6]], [0.5, -1.0], 0.6),
            group_features(2, 2))
        assert lemma1_margin(model, np.array(theta)) >= -1e-10


class TestAudits:
    def test_td0_audit_bounds_hold(self):
        # the TD(0) envelope is ||g|| <= 2 ||theta|| + 2 r_bar
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        audit = audit_provider(TD0Provider(model), 100_000, seed=11)
        assert audit.ok
        assert audit.declared["L"] == 2.0
        assert audit.declared["norm_offset"] == TWO_STATE.r_bar
        assert audit.max_lipschitz_ratio <= 2.0 + 1e-9
        assert audit.max_steady_ratio <= 2.0 + 1e-9
        assert audit.max_norm_ratio <= 1.0 + 1e-9

    def test_one_state_lipschitz_constant_is_half(self):
        # g(theta; X) = 1 - 0.5 theta, so the ratio is exactly 0.5
        model = build_steady_state(ONE_STATE, constant_features(1))
        audit = audit_provider(TD0Provider(model), 1000, seed=3)
        assert audit.max_lipschitz_ratio == pytest.approx(0.5, abs=1e-12)

    def test_identical_parameters_give_identical_directions(self):
        from tdcert.sa_core import td0_direction
        theta = np.array([1.3])
        a = td0_direction(TWO_FEATS, 0.9, theta, (0, 1, 1.0))
        b = td0_direction(TWO_FEATS, 0.9, theta, (0, 1, 1.0))
        assert np.array_equal(a, b) and np.all(a - b == 0.0)

    def test_dnorm_contraction(self):
        margin = dnorm_contraction_margin(TWO_STATE, 10_000, seed=9)
        assert margin <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_dnorm_contraction_random_chains(self, seed):
        mrp = random_mrp(5, 0.8, seed)
        assert dnorm_contraction_margin(mrp, 2000, seed=seed) <= 1e-12


class TestReport:
    def test_report_contains_tau_table(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        doc = oracle_report(TD0Provider(model), [0.0], eps_grid=(0.1, 0.01))
        assert doc["omega"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert len(doc["tau_table"]) == 2
        assert doc["tau_table"][1]["tau"] >= doc["tau_table"][0]["tau"]

    def test_report_B_is_the_experiment_B(self):
        # one formula: theta0 = -20 puts B on ||theta0 - theta*||^2, not sigma^2
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        provider = TD0Provider(model)
        config = ExperimentConfig(provider, [-20.0], 0.01, T=1,
                                  trials=1, master_seed=0)
        doc = oracle_report(provider, [-20.0], eps_grid=(0.1,))
        assert doc["theta0"] == [-20.0]
        assert doc["B"] == config.B == 10.0 * (20.0 + model.theta_star[0]) ** 2
        assert doc["B"] > oracle_report(provider, eps_grid=(0.1,))["B"]
