import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdcert.oracle as oracle_module
from tdcert.chain import (
    ChainError,
    ChainPowers,
    MarkovRewardProcess,
    generator,
    random_mrp,
)
from tdcert.oracle import (
    CertificationError,
    FeatureError,
    FeatureMatrix,
    MixingOracle,
    build_steady_state,
    constant_features,
    group_features,
    identity_features,
    lemma1_margin,
    mixing_time,
    oracle_report,
    random_features,
    steady_state_direction,
)
from tdcert.sa_core import TD0Provider, audit_provider, resolve_step_size
from tdcert.harness import ExperimentConfig
from chain_reference import dnorm_contraction_margin
from mixing_reference import (
    first_horizon,
    first_tau,
    rechecks,
    td0_reference,
    tv_reference,
)

ONE_STATE = MarkovRewardProcess([[1.0]], [1.0], 0.5)
TWO_STATE = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.9)
TWO_FEATS = FeatureMatrix([[1.0], [0.0]])
UNIFORM = MarkovRewardProcess([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0], 0.5)


class TestFeatureMatrix:
    def test_rank_deficient_rejected(self):
        with pytest.raises(FeatureError, match="rank"):
            FeatureMatrix([[1.0, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # refused before the SVD, which would fail to converge on a NaN
        with pytest.raises(FeatureError, match=r"feature matrix Phi .* at index \(1, 0\)"):
            FeatureMatrix([[0.5], [bad]])

    @pytest.mark.parametrize("build, message", [
        (lambda: FeatureMatrix("ab"), "feature matrix Phi must be an array of numbers"),
        (lambda: FeatureMatrix([[True], [False]]),
         "feature matrix Phi must be an array of numbers"),
        (lambda: group_features(4, 2.5), "K must be an integer, got 2.5"),
        (lambda: random_features(6, 3, "5"), "seed must be an integer, got '5'"),
        (lambda: random_features(6, True, 5), "K must be an integer, got True"),
        # K > n would silently run n columns (the QR of an n-row matrix has
        # at most n), another experiment than the one stated
        (lambda: random_features(6, 7, 5), "need 1 <= K <= n, got K=7, n=6"),
        (lambda: random_features(6, -2, 5), "need 1 <= K <= n, got K=-2, n=6"),
        (lambda: random_features(6, 0, 5), "need 1 <= K <= n, got K=0, n=6"),
    ])
    def test_value_of_wrong_type_refused_naming_its_field(self, build, message):
        with pytest.raises(FeatureError, match=message):
            build()

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
        assert np.linalg.norm(
            steady_state_direction(model, model.theta_star[:, None])) <= 1e-10

    def test_one_state_at_origin(self):
        model = build_steady_state(ONE_STATE, constant_features(1))
        np.testing.assert_allclose(steady_state_direction(model, np.zeros((1, 1))),
                                   [[1.0]])

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
        dirs = td0_direction(TWO_STATE.gamma, theta[:, None],
                             TD0Provider(model).observe(s, sp))
        mc = dirs.mean(axis=1)
        se = dirs.std(axis=1, ddof=1) / np.sqrt(N)
        exact = steady_state_direction(model, theta[:, None])[:, 0]
        assert np.all(np.abs(mc - exact) <= 3 * se)

    def test_batch_rows(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        thetas = np.array([[0.0, 1.0, 5.0]])
        batch = steady_state_direction(model, thetas)
        for col, theta in zip(batch.T, thetas.T):
            np.testing.assert_allclose(
                col, steady_state_direction(model, theta[:, None])[:, 0])

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
        assert rechecks(cert)
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

    def test_epsilon_beyond_horizon_reports_requirement(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "MAX_HORIZON", 8)
        with pytest.raises(CertificationError, match="within horizon 8"):
            mixing_time(TWO_STATE, TWO_FEATS, 1e-4)

    def test_horizon_auto_extends_for_tiny_epsilon(self):
        slow = MarkovRewardProcess([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 0.5)
        cert = mixing_time(slow, TWO_FEATS, 1e-11)
        assert cert.horizon_checked > 64
        assert cert.tau > 64 and rechecks(cert)

    def test_tail_on_the_rounding_floor_refuses_at_once(self, monkeypatch):
        # d(H) clamped to 0 counts as the clamp bound 1e-13; when even that
        # tail fails, no longer horizon can help, so no more powers are taken
        steps = []
        step = ChainPowers.step
        monkeypatch.setattr(ChainPowers, "step", lambda self: steps.append(1) or step(self))
        with pytest.raises(CertificationError, match="rounding floor"):
            MixingOracle(UNIFORM, TWO_FEATS).certify_tv(1.0, 1e-13)
        assert len(steps) == 8
        assert MixingOracle(UNIFORM, TWO_FEATS).certify_tv(1.0, 2e-13).tau == 2

    def test_envelope_fallback_overestimates(self):
        exact = mixing_time(TWO_STATE, TWO_FEATS, 0.01)
        generic = MixingOracle(TWO_STATE, TWO_FEATS).certify_tv(2.0, 0.01)
        assert generic.tau >= exact.tau
        assert generic.method == "tv-monotone" and rechecks(generic)

    def test_envelope_uniform_chain(self):
        cert = MixingOracle(UNIFORM, TWO_FEATS).certify_tv(2.0, 0.01)
        assert cert.tau == 2  # k=1 deviation positive, zero afterwards
        assert cert.horizon_checked == 8

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_envelope_dominates_exact_tau_on_random_chains(self, seed):
        # the generic rule uses G = L sigma >= the exact per-step constants
        # and the TV curve bounds the deviation, so its tau can only
        # over-estimate (which merely shrinks the admissible step-size)
        mrp = random_mrp(4, 0.9, seed, gamma=0.6)
        model = build_steady_state(mrp, group_features(4, 2))
        for eps in (0.05, 0.01):
            exact = mixing_time(mrp, model.features, eps)
            generic = model.mixing.certify_tv(2.0 * model.sigma_const, eps)
            assert generic.tau >= exact.tau


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
        largest, seen = oracle_module._largest_singular_value, []

        def recording(A_t):  # the GEMM tensor as _deviation forms it
            seen.append(np.array(A_t))
            return largest(A_t)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "_largest_singular_value", recording)
            dev, _, _ = oracle._curves(16)
        ref_curve, ref_tensors = einsum_deviation_curve(oracle, 16)
        assert len(seen) == 16
        for got, ref in zip(seen, ref_tensors):
            assert got.shape == (n, K, K)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(dev, ref_curve, rtol=1e-12, atol=0.0)


def full_batch_deviation(oracle, Q):
    """Reference deviation step: every operator matrix through one batched
    SVD, no pruning."""
    K = oracle.features.K
    W = Q - oracle.mrp.pi[None, :]
    A_t = (W @ oracle._Z).reshape(-1, K, K)
    vec = np.linalg.norm((W * oracle.mrp.R[None, :]) @ oracle.features.Phi, axis=1)
    return max(float(np.linalg.svd(A_t, compute_uv=False)[:, 0].max()),
               float(vec.max()))


def _drawn_oracle(kind, n, K, seed, data):
    """A mixing oracle on a chain of the given kind: random, lazy random, a
    lazy cycle whose rotation-invariant features tie every matrix's norm, or
    the rank-one chain P = 1 pi^T (n a power of two, so P^k = P and pi are
    exact and every matrix is zero after k = 1)."""
    if kind == "rank_one":
        P = np.full((n, n), 1.0 / n)
        mrp = MarkovRewardProcess(P, generator(seed).random(n), 0.9)
        return MixingOracle(mrp, random_features(n, K, seed))
    if kind == "cycle":
        angle = 2.0 * np.pi * np.arange(n) / n
        features = FeatureMatrix(0.9 * np.column_stack([np.cos(angle), np.sin(angle)]))
        P = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
        return MixingOracle(MarkovRewardProcess(P, np.ones(n), 0.9), features)
    base = random_mrp(n, data.draw(st.floats(0.2, 1.0), label="density"), seed)
    if kind == "lazy":
        lazy = data.draw(st.floats(0.5, 0.95), label="laziness")
        base = MarkovRewardProcess(lazy * np.eye(n) + (1.0 - lazy) * base.P,
                                   base.R, base.gamma)
    return MixingOracle(base, random_features(n, K, seed))


class TestPrunedDeviation:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["random", "lazy", "cycle", "rank_one"]),
           prune_all=st.booleans(), data=st.data())
    def test_bits_equal_the_full_batch_svd(self, kind, prune_all, data):
        # every bit of the curve, on the pruned path (forced for small
        # stacks) and on the plain one
        seed = data.draw(st.integers(0, 2 ** 31 - 1), label="seed")
        if kind == "rank_one":
            n = 2 ** data.draw(st.integers(1, 7), label="log2 n")
        elif kind == "cycle":
            n = data.draw(st.integers(3, 200), label="n")
        else:
            n = data.draw(st.integers(2, 200), label="n")
        K = 2 if kind == "cycle" else data.draw(st.integers(1, min(n, 8)), label="K")
        oracle = _drawn_oracle(kind, n, K, seed, data)
        Q = np.eye(n)
        with pytest.MonkeyPatch.context() as mp:
            if prune_all:
                mp.setattr(oracle_module, "_PRUNE_ROWS", 0)
            for k in range(1, 65):
                got = oracle._deviation(Q)
                ref = full_batch_deviation(oracle, Q)
                assert np.float64(got).tobytes() == np.float64(ref).tobytes(), k
                if kind == "rank_one" and k > 1:
                    assert got == 0.0
                Q = Q @ oracle.mrp.P

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 64), K=st.integers(1, 8), seed=st.integers(0, 2 ** 31 - 1))
    def test_near_tied_rank_one_stack(self, n, K, seed):
        # unit-norm rank-one matrices u v^T in random directions: the bound is
        # tight there and its rounding and the SVD's disagree in the last
        # bits, so only the bound's slack keeps the largest computed norm
        rng = generator(seed)
        u, v = rng.normal(size=(2, n, K))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        A = u[:, :, None] * v[:, None, :]
        ref = np.linalg.svd(A, compute_uv=False)[:, 0].max()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "_PRUNE_ROWS", 0)
            got = oracle_module._largest_singular_value(A)
        assert np.float64(got).tobytes() == ref.tobytes()

    def test_pruning_svds_few_matrices_at_scale(self, monkeypatch):
        # n=150, K=8: of 150 matrices a step, the argmax bound's and at most
        # about two more reach an SVD
        oracle = MixingOracle(random_mrp(150, 0.5, 1501), random_features(150, 8, 1502))
        svd, matrices = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            matrices.append(a.shape[0] if a.ndim == 3 else 1)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        oracle._curves(64)
        assert len(matrices) >= 64
        assert sum(matrices) <= 3 * 64


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
        # half the 64th deviation forces the search past k = 64
        deep = 0.5 * MixingOracle(mrp, model.features)._curves(64)[0][63]
        eps_list.append(deep)
        for eps in data.draw(st.permutations(eps_list), label="order"):
            got = _outcome(model.mixing.certify, eps)
            fresh = _outcome(lambda e: mixing_time(mrp, model.features, e), eps)
            if isinstance(fresh, tuple):
                assert got == fresh
                continue
            assert (got.tau, got.horizon_checked, got.tail_bound) == (
                fresh.tau, fresh.horizon_checked, fresh.tail_bound)
            assert got.margin_curve.tobytes() == fresh.margin_curve.tobytes()
            assert rechecks(got)
            if eps == deep:
                assert got.horizon_checked > 64

    @pytest.mark.parametrize("n", [150, 300])
    def test_large_chain_queries_equal_from_scratch_certificates(self, n):
        mrp = random_mrp(n, 0.5, 1501)
        model = build_steady_state(mrp, random_features(n, 8, 1502))
        for eps in (1e-1, 1e-3, 1e-6, 1e-2):
            got = model.mixing.certify(eps)
            fresh = mixing_time(mrp, model.features, eps)
            assert (got.tau, got.horizon_checked, got.tail_bound) == (
                fresh.tau, fresh.horizon_checked, fresh.tail_bound)
            assert got.margin_curve.tobytes() == fresh.margin_curve.tobytes()
            assert rechecks(got)

    def test_slow_lazy_chain_certifies(self):
        # |lambda_2| near 1: a 1% grid of rates skipped from below 1 to past it
        base = random_mrp(5, 0.5, 5)
        lazy = MarkovRewardProcess(0.9375 * np.eye(5) + 0.0625 * base.P,
                                   base.R, base.gamma)
        features = random_features(5, 1, 5)
        for eps, tau in ((0.1, 69), (0.01, 143), (0.001, 214)):
            cert = mixing_time(lazy, features, eps)
            assert cert.tau == tau and cert.tail_bound <= eps and rechecks(cert)

    def test_report_then_step_size_never_restarts_the_powers(self, monkeypatch):
        # one deviation step (one ChainPowers.step) per matrix power: the
        # second caller continues where the first stopped instead of at k=1
        model = build_steady_state(random_mrp(12, 0.5, 3), random_features(12, 3, 4))
        step = ChainPowers.step
        calls = []

        def counting_step(self):
            calls.append(1)
            return step(self)

        monkeypatch.setattr(ChainPowers, "step", counting_step)
        provider = TD0Provider(model)
        report = oracle_report(provider)
        alpha = resolve_step_size(provider)
        steps = len(calls)
        monkeypatch.undo()
        checked = [row["horizon_checked"] for row in report["tau_table"]]
        checked.append(model.mixing.certify(alpha).horizon_checked)
        assert steps == max(checked)

    def test_both_query_kinds_step_one_power(self, monkeypatch):
        # certify and certify_tv read the curves of one shared power:
        # interleaved queries equal a fresh oracle's bit for bit, and the power
        # steps, and the deviation runs, exactly once per step of the longest
        # horizon any query reached, whichever kind asked for it
        base = random_mrp(5, 0.5, 5)
        lazy = MarkovRewardProcess(0.9375 * np.eye(5) + 0.0625 * base.P,
                                   base.R, base.gamma)
        features = random_features(5, 2, 5)
        oracle = MixingOracle(lazy, features)
        deviation, step = MixingOracle._deviation, ChainPowers.step
        calls = {"dev": 0, "step": 0}

        def counting_deviation(self, Q):
            calls["dev"] += self is oracle
            return deviation(self, Q)

        def counting_step(self):
            calls["step"] += self is oracle._powers
            return step(self)

        monkeypatch.setattr(MixingOracle, "_deviation", counting_deviation)
        monkeypatch.setattr(ChainPowers, "step", counting_step)
        queries = [("tv", 1e-2), ("td0", 0.1), ("tv", 1e-4), ("td0", 1e-2),
                   ("td0", 1e-4), ("tv", 1e-6), ("td0", 1e-6),
                   ("td0", 1e-9), ("tv", 1e-9)]
        horizons = {"tv": 0, "td0": 0}
        for kind, eps in queries:
            if kind == "tv":
                got = oracle.certify_tv(1e-3, eps)
                fresh = MixingOracle(lazy, features).certify_tv(1e-3, eps)
            else:
                got = oracle.certify(eps)
                fresh = MixingOracle(lazy, features).certify(eps)
            assert (got.tau, got.horizon_checked, got.tail_bound, got.method) == (
                fresh.tau, fresh.horizon_checked, fresh.tail_bound, fresh.method)
            assert got.margin_curve.tobytes() == fresh.margin_curve.tobytes()
            horizons[kind] = max(horizons[kind], got.horizon_checked)
            assert calls["dev"] == calls["step"] == max(horizons.values())
        monkeypatch.undo()
        assert horizons == {"tv": 512, "td0": 1024}
        assert calls["dev"] == calls["step"] == 1024

    def test_invalid_chain_refused(self):
        periodic = MarkovRewardProcess([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], 0.5)
        for _ in range(2):
            with pytest.raises(ChainError, match="Assumption 1"):
                MixingOracle(periodic, TWO_FEATS)


# Chains whose TV curve later crosses a geometric envelope c0 rho^k fitted to
# its first 64 steps: a near-defective lambda_2 = 0.97 (double) and a
# near-periodic 3-cycle with complex eigenvalues.
NEAR_DEFECTIVE = MarkovRewardProcess(
    [[0.99, 0.01, 0.0], [0.0, 0.99, 0.01], [0.04, 0.0, 0.96]], [1.0, 0.0, -1.0], 0.9)
NEAR_PERIODIC = MarkovRewardProcess(
    [[0.008, 0.992, 0.0], [0.0, 0.008, 0.992], [0.992, 0.0, 0.008]], [1.0, 0.0, -1.0], 0.9)
COUNTEREXAMPLES = pytest.mark.parametrize(
    "mrp", [NEAR_DEFECTIVE, NEAR_PERIODIC], ids=["near_defective", "near_periodic"])


class TestMonotoneTail:
    """Past the checked horizon H a certificate rests on d(H), the recorded TV
    distance, which bounds d(k) for every k > H because d is non-increasing;
    checked against curves recorded out to k = 3000."""

    @COUNTEREXAMPLES
    def test_chain_crosses_a_64_step_envelope(self, mrp):
        # out to k = 400 the curve stays above 1e-5, far from rounding noise
        d = tv_reference(mrp, 400)
        k = np.arange(1, 65)
        rho = ((d[2:65] / d[1]) ** (1.0 / (k[1:] - 1.0))).max()  # fit at k = 1
        envelope = d[1] / rho * rho ** np.arange(-1, 400)
        assert d.min() > 1e-5
        assert np.any(d[65:] > envelope[65:])

    @COUNTEREXAMPLES
    def test_td0_certificates_cover_the_recorded_curve(self, mrp):
        features = identity_features(3)
        dev, d, G = td0_reference(mrp, features.Phi, 3000)
        oracle = MixingOracle(mrp, features)
        for eps in np.geomspace(1e-8, 1.0, 60):
            cert = oracle.certify(eps)
            H = cert.horizon_checked
            assert rechecks(cert)
            assert np.all(cert.tail_bound >= 2.0 * G * d[H + 1:])
            assert np.all(cert.tail_bound >= dev[H:])
            assert np.all(dev[cert.tau - 1:] <= eps)

    @COUNTEREXAMPLES
    def test_generic_certificates_cover_the_recorded_curve(self, mrp):
        d = tv_reference(mrp, 3000)
        oracle = MixingOracle(mrp, identity_features(3))
        for eps in np.geomspace(1e-8, 1.0, 400):
            cert = oracle.certify_tv(1.0, eps)
            H = cert.horizon_checked
            assert rechecks(cert)
            assert np.all(cert.tail_bound >= 2.0 * d[H + 1:])
            # the premise 2 G d(k-1) <= eps for every k >= tau
            assert np.all(2.0 * d[cert.tau - 1:] <= eps)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 10), data=st.data())
    def test_lazy_horizon_tau_equals_the_whole_curve(self, n, data):
        # tau from the search that starts at H = 8 and doubles is the first t
        # whose max of the exact deviation curve over [t, 4096] is <= eps, and
        # the search stops at the first doubled H whose tail 2 G d(H) is too
        seed = data.draw(st.integers(0, 2 ** 31 - 1), label="seed")
        laziness = data.draw(st.floats(0.0, 0.95), label="laziness")
        K = data.draw(st.integers(1, min(n, 4)), label="K")
        base = random_mrp(n, data.draw(st.floats(0.2, 1.0), label="density"), seed)
        mrp = MarkovRewardProcess(laziness * np.eye(n) + (1.0 - laziness) * base.P,
                                  base.R, base.gamma)
        features = random_features(n, K, seed)
        dev, d, G = td0_reference(mrp, features.Phi, 4096)
        oracle = MixingOracle(mrp, features)
        eps_list = data.draw(st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=6),
                             label="eps")
        for eps in eps_list:
            cert = oracle.certify(eps)
            assert rechecks(cert)
            if cert.horizon_checked <= 4096:
                tau = first_tau(dev, eps)
                assert (cert.tau, cert.horizon_checked) == (
                    tau, first_horizon(tau, 2.0 * G * d, eps))


class TestLemma1:
    def test_zero_margin_at_fixed_point(self):
        model = build_steady_state(TWO_STATE, TWO_FEATS)
        margin = lemma1_margin(model, model.theta_star[:, None])[0]
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_one_state_exactly_tight(self):
        model = build_steady_state(ONE_STATE, constant_features(1))
        margin = lemma1_margin(model, np.zeros((1, 1)))[0]
        assert margin == pytest.approx(0.0, abs=1e-12)

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
        assert lemma1_margin(model, np.array(theta)[:, None])[0] >= -1e-10


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
        theta = np.array([[1.3]])
        X = TD0Provider(build_steady_state(TWO_STATE, TWO_FEATS)).observe([0], [1])
        a = td0_direction(0.9, theta, X)
        b = td0_direction(0.9, theta, X)
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
