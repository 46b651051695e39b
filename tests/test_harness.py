import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mixing_reference import generic_tau
from scalar_reference import kernel_paths, reference_sa
from tdcert import bundled, harness
from tdcert.chain import (
    BLOCK,
    InverseCdfTable,
    KeyedStreams,
    MarkovRewardProcess,
    derive_seed,
    generator,
    random_mrp,
)
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
    SaturatingMonotoneProvider,
    TD0Provider,
    auto_horizon,
    fingerprint,
    resolve_step_size,
)
from tdcert.harness import (
    _Average,
    _Curves,
    _Drift,
    _simulate,
    AuditError,
    BoundLedger,
    ConfigError,
    ExperimentConfig,
    asymptotic_floor,
    check_boundedness,
    check_drift,
    check_iid_noise,
    check_recursion,
    estimate_dt_et,
    run_experiment,
    sweep,
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


def generic_provider(kind, K=3):
    noise = generator(4).normal(size=(WIDE.n, K))
    theta_star = [0.5, -0.2, 0.1][:K]
    if kind == "linear_contraction":
        return SaturatingMonotoneProvider(theta_star, noise, WIDE_MODELS[K], a=1.0, b=0.0)
    return SaturatingMonotoneProvider(theta_star, noise, WIDE_MODELS[K], a=0.6, b=0.4)


# the kernel paths a block turn can meet: the start state's word (drawn, or
# fixed), two words per step, the delay ring, and the three provider kinds
BLOCK_TURN_CASES = {
    "markov": {},
    "markov_start_state": {"start_state": 5},
    "iid_restart": {"sampling": "iid_restart"},
    "constant_delay": {"delays": DelayProcess("constant", 3)},
    "uniform_delay": {"delays": DelayProcess("uniform", 4, seed=8)},
    # the ring holds min(tau_max, T) + 1 directions, not tau_max + 1
    "uniform_delay_far_past_T": {"delays": DelayProcess("uniform", 10 ** 5, seed=8)},
    "linear_contraction": {"provider": "linear_contraction"},
    "saturating_iid": {"provider": "saturating", "sampling": "iid_restart"},
}


def traced_peak(config, parts=(_Curves,)):
    """The tracemalloc peak of one kernel run of ``config``, in bytes."""
    tracemalloc.start()
    try:
        _simulate(config, parts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_peak_flat_in_T(config, drift=False):
    """From one block turn to seven, a 2000-lane run of ``config`` grows by
    less than its per-step curve arrays (4 float arrays of T + 1, 6 with the
    drift), the only memory that may depend on T; a drift run's ring of the
    last tau iterates (K tau trials doubles) does not."""

    parts = (_Curves, _Drift) if drift else (_Curves,)

    def peak(T):
        return traced_peak(replace(config, T=T, trials=2000), parts)

    # one warm-up run, so first-use allocations land in neither peak
    _simulate(replace(config, T=2, trials=2000), parts)
    curves = (6 if drift else 4) * 8 * (8 * BLOCK + 1)
    assert peak(8 * BLOCK) - peak(BLOCK + 1) < curves


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
        assert config.B != TD0Provider(FAST_MODEL).bound_B(config.theta0)

    def test_no_model_beside_the_provider(self):
        with pytest.raises(TypeError):
            replace(fast_config(), model=SLOW_MODEL)


class TestFingerprint:
    """The fingerprint JSON-encodes the whole chain, so a config computes it
    once; theta0 is read-only and the grid a tuple, so the cached value
    cannot go stale."""

    def test_computed_once_per_config(self, monkeypatch):
        config = fast_config()
        expected = fingerprint(config.to_dict())
        assert config.fingerprint() == expected
        monkeypatch.setattr(ExperimentConfig, "to_dict",
                            lambda self: pytest.fail("fingerprint re-encoded"))
        assert config.fingerprint() == expected

    def test_replace_fingerprints_the_new_config(self):
        config = fast_config()
        assert config.fingerprint() != replace(config, T=301).fingerprint()
        assert replace(config, T=301).fingerprint() == fast_config(T=301).fingerprint()

    def test_theta0_and_grid_are_read_only_copies(self):
        given_theta0, given_grid = np.array([0.5]), [64, 128]
        config = fast_config(theta0=given_theta0, averaging_grid=given_grid)
        given_theta0[0] = 9.0
        given_grid.append(256)
        assert config.theta0[0] == 0.5 and config.averaging_grid == (64, 128)
        with pytest.raises(ValueError, match="read-only"):
            config.theta0[0] = 1.0


class TestCertifiedTau:
    """A config holds alpha and derives tau = provider.certify(alpha).tau, so
    no config can claim the contract at a mixing time it is not certified at."""

    def test_misstated_tau_cannot_put_a_run_in_contract(self):
        # at alpha = 0.1 the provider certifies tau = 6, whose cap is 1/48;
        # a tau of 1 (cap 1/8) would have put this run in contract
        provider = SaturatingMonotoneProvider([0.3], [[1.0], [-2.0]], FAST_MODEL,
                                              a=1.0, b=0.0)
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

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.1, 0.0, "0.01",
                                       [0.01], True])
    def test_bad_alpha_refused_before_tau_is_certified(self, alpha):
        class Uncertifiable(TD0Provider):
            def certify(self, epsilon):
                raise AssertionError(f"tau certified at alpha={epsilon}")

        with pytest.raises(ConfigError, match="alpha must be a positive finite number"):
            fast_config(provider=Uncertifiable(FAST_MODEL), alpha=alpha)


class TestWholeNumberFields:
    """A counted field is a whole number: a fractional one is refused by the
    type, naming the field, instead of being truncated or carried as a float
    (uniform delays of 1.5, lanes run from state 0 while 0.5 is recorded, or
    an averaging horizon of 64.5 run as 64)."""

    @pytest.mark.parametrize("field, build", [
        ("delays.tau_max", lambda: DelayProcess("uniform", 1.5, 77)),
        ("delays.seed", lambda: DelayProcess("uniform", 2, 7.5)),
        ("delays.tau_max", lambda: DelayProcess("constant", True, 0)),
        ("trials", lambda: fast_config(trials=100.5)),
        ("T", lambda: fast_config(T=300.5)),
        ("master_seed", lambda: fast_config(master_seed=0.5)),
        ("start_state", lambda: fast_config(start_state=0.5)),
        ("start_state", lambda: fast_config(start_state="1")),
        ("averaging_grid entry", lambda: fast_config(averaging_grid=[64.5, 128])),
    ], ids=["delay_tau_max", "delay_seed", "delay_bool", "trials", "T",
            "master_seed", "start_state", "start_state_text", "averaging_grid"])
    def test_fractional_field_refused(self, field, build):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            build()

    def test_whole_floats_are_stored_as_ints(self):
        given = fast_config(T=300.0, trials=400.0, master_seed=11.0, start_state=1.0,
                            delays=DelayProcess("uniform", 2.0, 77.0),
                            averaging_grid=[64.0, 128])
        plain = fast_config(start_state=1, delays=DelayProcess("uniform", 2, 77),
                            averaging_grid=[64, 128])
        assert given.fingerprint() == plain.fingerprint()
        assert given.delays.sequence(50).tobytes() == plain.delays.sequence(50).tobytes()


class TestExperimentRules:
    """Each experiment value has one check, in the type that owns it: the
    averaging grid and the label in ExperimentConfig, the trial floor before
    any ledger-producing run simulates or audits anything."""

    @pytest.mark.parametrize("grid, message", [
        (64, "averaging_grid must be a list, got 64"),
        ({"T": 64}, "averaging_grid must be a list, got {'T': 64}"),
        ([64, 64, 128], "averaging grid repeats a horizon: [64, 64, 128]"),
        ([128, 64, 128.0], "averaging grid repeats a horizon: [64, 128, 128]"),
        ([64], "averaging grid needs at least two horizons"),
        ([64, 0], "averaging horizon T=0 must be at least 1"),
        ([-4, 64], "averaging horizon T=-4 must be at least 1")])
    def test_averaging_grid_refused_at_construction(self, grid, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            fast_config(averaging_grid=grid)

    def test_grid_kept_in_the_given_order(self):
        # the fingerprint payload carries the grid as given; an empty one is none
        assert fast_config(averaging_grid=[256, 64.0]).averaging_grid == (256, 64)
        assert fast_config(averaging_grid=[]).averaging_grid is None

    @pytest.mark.parametrize("label", [None, 3, ["a"]])
    def test_label_must_be_a_string(self, label):
        with pytest.raises(ConfigError, match=f"^label must be a string, got "
                                              f"{re.escape(repr(label))}$"):
            fast_config(label=label)

    @pytest.fixture
    def nothing_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("ran before the config was refused")

        for name in ("_simulate", "audit_provider", "tune_weighted_average"):
            monkeypatch.setattr(harness, name, fail)

    @pytest.mark.parametrize("kind", ["boundedness", "recursion", "iid_control",
                                      "weighted_average"])
    def test_trial_floor_refused_before_the_audit(self, nothing_runs, kind):
        config = fast_config(trials=50, sampling="iid_restart",
                             averaging_grid=[64, 128])
        with pytest.raises(ConfigError, match="need at least 100 trials, got 50"):
            run_experiment(config, kind)

    def test_weighted_average_floor_refused_before_any_horizon(self, nothing_runs):
        config = one_state_config(trials=5)
        with pytest.raises(ConfigError, match="need at least 100 trials, got 5"):
            weighted_average_experiment(replace(config, averaging_grid=[50, 100]))

    def test_start_state_out_of_range_refused_before_the_audit(self, nothing_runs):
        cfg = bundled.bundled_config("theorem1_random6")
        cfg["experiment"]["start_state"] = 9
        with pytest.raises(ConfigError, match="^start_state must be a state in 0..5, got 9$"):
            run_experiment(*parse_experiment(cfg))


class TestScratchBuffers:
    """The kernel's scratch is allocated per run and never reaches a result:
    a second run on the same config returns equal curves sharing no memory
    with the first, and d_t is the cross-lane reduction of single trials."""

    @pytest.mark.parametrize("delays", [None, DelayProcess("uniform", 4, seed=8)])
    def test_back_to_back_runs_are_equal_and_keep_their_curves(self, delays):
        config = wide_config(3, trials=50, delays=delays)
        first = estimate_dt_et(config)
        curves = ("d_hat", "e_hat", "d_se", "e_se")
        kept = [getattr(first, name).copy() for name in curves]
        second = estimate_dt_et(config)
        for name, value in zip(curves, kept):
            a, b = getattr(first, name), getattr(second, name)
            assert np.array_equal(a, value) and np.array_equal(b, value), name
            assert not np.shares_memory(a, b), name

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_lanes_and_d_curve_equal_single_trial_runs(self, K):
        cfg = fast_config(trials=6, T=80) if K == 1 else wide_config(K)
        refs = np.stack([reference_sa(cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha,
                                      cfg.T, seed=derive_seed(cfg.master_seed, i))
                         for i in range(cfg.trials)])
        assert np.array_equal(kernel_paths(cfg), refs)
        # each lane's ||theta_t - theta*||^2 added left to right, then its
        # cross-lane mean and standard error as numpy computes them
        sq = (refs - cfg.provider.theta_star) ** 2
        lane_d = 0.0
        for k in range(K):
            lane_d = lane_d + sq[..., k]
        mean = np.array([np.mean(col) for col in lane_d.T])
        dev = np.array([np.sum((col - m) * (col - m)) for col, m in zip(lane_d.T, mean)])
        estimate = estimate_dt_et(cfg)
        assert np.array_equal(estimate.d_hat, mean)
        assert np.array_equal(estimate.d_se, np.sqrt(dev / (cfg.trials - 1) / cfg.trials))


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
        paths = kernel_paths(cfg)
        provider = TD0Provider(FAST_MODEL)
        for i in range(cfg.trials):
            assert np.array_equal(paths[i], reference_sa(
                provider, FAST, np.zeros(1), FAST_ALPHA, 80, seed=derive_seed(11, i)))

    def test_delayed_batch_lanes_equal_single_trials(self):
        delays = DelayProcess("sawtooth", 3, seed=5)
        cfg = fast_config(trials=5, T=70, delays=delays)
        paths = kernel_paths(cfg)
        provider = TD0Provider(FAST_MODEL)
        for i in range(cfg.trials):
            assert np.array_equal(paths[i], reference_sa(
                provider, FAST, np.zeros(1), FAST_ALPHA, 70, seed=derive_seed(11, i),
                delays=delays.spawn(i)))

    @pytest.mark.parametrize("tau_max", [3, 32768])
    def test_delays_past_int16_range_match_single_trial(self, tau_max):
        # step indices and (for tau_max = 32768) delays beyond int16
        T = 32770
        delays = DelayProcess("constant", tau_max)
        cfg = fast_config(trials=1, T=T, delays=delays)
        estimate = estimate_dt_et(cfg)
        reference = reference_sa(TD0Provider(FAST_MODEL), FAST, np.zeros(1), FAST_ALPHA,
                                 T, seed=derive_seed(11, 0), delays=delays.spawn(0))
        assert np.array_equal(kernel_paths(cfg)[0], reference)
        d = ((reference - FAST_MODEL.theta_star) ** 2).sum(axis=1)
        assert np.array_equal(estimate.d_hat, d)

    @pytest.mark.parametrize("K", [3, 8, 9])
    @pytest.mark.parametrize("sampling", ["markov", "iid_restart"])
    def test_batch_lanes_equal_single_trials_multi_feature(self, K, sampling):
        # K=8 and K=9: past the K < 8 range where rowsum is numpy's order
        cfg = wide_config(K, sampling=sampling)
        paths = kernel_paths(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(paths[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), sampling=sampling))

    @pytest.mark.parametrize("K", [8, 9])
    def test_constant_delay_lanes_equal_reference_8_accumulators(self, K):
        delays = DelayProcess("constant", 3)
        cfg = wide_config(K, delays=delays)
        paths = kernel_paths(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(paths[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), delays=delays.spawn(i)))

    @pytest.mark.parametrize("T", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    @pytest.mark.parametrize("case", list(BLOCK_TURN_CASES))
    def test_lanes_equal_reference_across_stream_blocks(self, case, T):
        # the word buffer is refilled every BLOCK steps (markov's start-state
        # word takes the first block's first step); every lane still replays
        # the one-draw-at-a-time reference on its own stream
        kw = dict(BLOCK_TURN_CASES[case])
        if "provider" in kw:
            kw["provider"] = generic_provider(kw["provider"])
        cfg = wide_config(3, T=T, trials=2, **kw)
        paths = kernel_paths(cfg)
        for i in range(cfg.trials):
            delays = cfg.delays.spawn(i) if cfg.delays else None
            assert np.array_equal(paths[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), sampling=cfg.sampling,
                start_state=cfg.start_state, delays=delays))

    def test_memory_is_flat_in_T(self):
        # the word buffer is reused
        config, _ = parse_experiment(bundled.bundled_config("theorem1_random6"))
        assert config.provider.dim == 3
        assert_peak_flat_in_T(config)

    def test_memory_is_flat_in_T_under_uniform_delays(self):
        # the delays are drawn block by block into one reused buffer, so a
        # (T, trials) schedule (2 bytes a trial-step even as int16) never
        # exists
        config, _ = parse_experiment(bundled.bundled_config("delayed_uniform_5"))
        assert config.delays.kind == "uniform" and config.delays.tau_max == 5
        assert_peak_flat_in_T(config)

    def test_delay_ring_is_sized_by_the_delays_a_run_can_draw(self):
        # no delay exceeds min(t, tau_max) <= T - 1, so tau_max = 10^5 at
        # T = 300 costs what tau_max = T costs, not a 10^5-slot ring (80 MB
        # at 100 lanes)
        def peak(tau_max):
            delays = DelayProcess("uniform", tau_max, seed=8)
            return traced_peak(fast_config(T=300, trials=100, delays=delays))

        peak(300)  # warm-up, so first-use allocations land in neither peak
        assert peak(10 ** 5) <= 1.1 * peak(300)

    def test_memory_is_flat_in_T_with_the_drift(self):
        # the drift reads theta_{t-tau} from a ring of the last tau iterates,
        # so no (trials, T + 1, K) path array exists
        config, kind = parse_experiment(bundled.bundled_config("theorem2_base"))
        assert kind == "recursion" and config.tau > 1
        assert_peak_flat_in_T(config, drift=True)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", ["markov", "markov_start_state", "iid_restart"])
    def test_a_run_fills_once_per_block(self, case, k, monkeypatch):
        # markov's start-state word rides in the first block beside a full
        # BLOCK steps, so no run spends a fill on a tail of one row
        fills = []
        fill = KeyedStreams.fill

        def counting(streams, out):
            fills.append(len(out))
            return fill(streams, out)

        monkeypatch.setattr(KeyedStreams, "fill", counting)
        kw = dict(BLOCK_TURN_CASES[case])
        for T in (k * BLOCK - 1, k * BLOCK, k * BLOCK + 1):
            fills.clear()
            estimate = estimate_dt_et(wide_config(3, T=T, trials=3, **kw))
            assert estimate.abort_step is None
            assert len(fills) == -(-T // BLOCK)

    def test_delayed_batch_lanes_equal_single_trials_k3(self):
        delays = DelayProcess("uniform", 4, seed=8)
        cfg = wide_config(3, delays=delays)
        paths = kernel_paths(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(paths[i], reference_sa(
                cfg.provider, cfg.model.mrp, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i), delays=delays.spawn(i)))

    @pytest.mark.parametrize("kind", ["linear_contraction", "saturating"])
    def test_generic_provider_lanes_equal_single_trials(self, kind):
        provider = generic_provider(kind)
        cfg = wide_config(3, provider=provider)
        paths = kernel_paths(cfg)
        for i in range(cfg.trials):
            assert np.array_equal(paths[i], reference_sa(
                provider, WIDE, cfg.theta0, cfg.alpha, cfg.T,
                seed=derive_seed(cfg.master_seed, i)))

    def test_one_bit_generator_per_run(self, monkeypatch):
        # re-keying replaces one Philox (and its entropy-seeded seed
        # sequence) per lane, for the transitions and for the uniform delay
        # schedule; 500 lanes must not build 500 of them
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        for delays in (None, DelayProcess("uniform", 5, 77)):
            built.clear()
            estimate = estimate_dt_et(fast_config(trials=500, T=20, delays=delays))
            assert estimate.abort_step is None
            assert 1 <= len(built) <= 2

    def test_samplers_built_once_per_chain(self, monkeypatch):
        # the transition and start-state tables live on the chain, so runs
        # and sweep points after the first build none
        built = []
        init = InverseCdfTable.__init__

        def counting(table, cum):
            built.append(cum.shape)
            init(table, cum)

        monkeypatch.setattr(InverseCdfTable, "__init__", counting)
        mrp = MarkovRewardProcess(FAST.P, FAST.R, FAST.gamma)
        provider = TD0Provider(build_steady_state(mrp, FAST_FEATS))
        for sampling in ("markov", "iid_restart", "markov"):
            _simulate(fast_config(provider=provider, T=20, trials=5, sampling=sampling))
        assert sorted(built) == [(1, 2), (2, 2)]

    @pytest.mark.parametrize("start_state", [-1, 2])
    def test_start_state_out_of_range_rejected(self, start_state):
        with pytest.raises(ConfigError, match=f"start_state must be a state in 0..1, got {start_state}"):
            fast_config(trials=3, T=10, start_state=start_state)

    def test_start_state_refused_under_iid_restart(self):
        # iid_restart draws every state from pi and never reads a start state
        with pytest.raises(ConfigError, match="^start_state is never read under "
                                              "sampling 'iid_restart'"):
            fast_config(trials=3, T=10, sampling="iid_restart", start_state=1)

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
        # a drift run, so the drift check reads the same estimate
        est = _simulate(fast_config(T=50, trials=100), (_Curves, _Drift))
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
                worst_step=-1, fitted={}, slack={"multiplier": 3.0}, n_steps=49,
                notes=self.REFUSED))

    def test_drift_out_of_contract_record(self):
        # alpha = 1 is far past the cap but stable; its certified tau is 2,
        # so the steps t = 2..50 are counted
        est = _simulate(fast_config(alpha=1.0, T=50, trials=100), (_Curves, _Drift))
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
            fitted={}, slack={"multiplier": 3.0}, n_steps=41,
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


class TestParts:
    """The kernel's reductions are parts: any set of them reduces one run,
    each exactly as it does alone, and none sees a step past an abort."""

    PARTS = (_Curves, _Drift, _Average)
    FIELDS = {_Curves: ("d_hat", "d_se", "e_hat", "e_se"),
              _Drift: ("drift_hat", "drift_se"), _Average: ("theta_bar",)}

    @pytest.mark.parametrize("kw", [{"delays": DelayProcess("uniform", 4, seed=8)},
                                    {"sampling": "iid_restart"}],
                             ids=["uniform_delays", "iid_restart"])
    def test_every_subset_equals_each_part_alone(self, kw):
        cfg = wide_config(3, **kw)
        alone = {part: _simulate(cfg, (part,)) for part in self.PARTS}
        for r in (1, 2, 3):
            for subset in itertools.combinations(self.PARTS, r):
                for order in (subset, subset[::-1]):
                    estimate = _simulate(cfg, order)
                    assert estimate.abort_step is None
                    for part, names in self.FIELDS.items():
                        for name in names:
                            got = getattr(estimate, name)
                            if part not in subset:
                                assert got is None
                            else:
                                assert got.tobytes() == getattr(alone[part], name).tobytes()

    def test_no_final_call_after_an_abort(self):
        # (1 - a alpha) = -2 doubles the gap each step, so the lanes leave the
        # guard; the last call is the aborting step's, with its direction
        calls = []

        class Spy:
            def __init__(self, config, work, row):
                pass

            def step(self, t, theta, g):
                calls.append((t, g is None))

            def result(self):
                return {}

        provider = SaturatingMonotoneProvider([0.3], [[1.0], [-2.0]], FAST_MODEL,
                                              a=3.0, b=0.0)
        cfg = fast_config(provider=provider, alpha=1.0, T=200, trials=20)
        estimate = _simulate(cfg, (_Curves, Spy, _Drift, _Average))
        abort = estimate.abort_step
        assert abort is not None and abort < cfg.T
        assert calls == [(t, False) for t in range(abort)]
        assert not np.isnan(estimate.d_hat[:abort]).any()
        assert np.isnan(estimate.d_hat[abort:]).all()
        assert not np.isnan(estimate.drift_hat[:abort - cfg.tau]).any()
        assert np.isnan(estimate.drift_hat[abort - cfg.tau:]).all()


def drift_of(paths, tau):
    """Cross-lane mean and SE of ||theta_t - theta_{t-tau}||^2 at t = tau..T
    from whole (trials, T + 1, K) paths."""
    vals = ((paths[:, tau:, :] - paths[:, :paths.shape[1] - tau, :]) ** 2).sum(axis=2)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])


def drift_run(config):
    return _simulate(config, (_Curves, _Drift))


class TestDrift:
    @pytest.mark.parametrize("case", ["K1", "K3", "K3_sawtooth"])
    def test_streamed_drift_equals_the_paths(self, case):
        # the kernel's per-step reduction against the drift of its own paths
        if case == "K1":
            cfg = fast_config(trials=40, T=150)
        else:
            delays = DelayProcess("sawtooth", 3, seed=5) if "sawtooth" in case else None
            cfg = wide_config(3, trials=30, T=150, delays=delays)
        est = drift_run(cfg)
        mean, se = drift_of(kernel_paths(cfg), cfg.tau)
        assert est.drift_hat.shape == est.drift_se.shape == (cfg.T + 1 - cfg.tau,)
        np.testing.assert_allclose(est.drift_hat, mean, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(est.drift_se, se, rtol=1e-12, atol=1e-300)

    def test_drift_leaves_the_curves_unchanged(self):
        cfg = wide_config(3, trials=30, T=150, delays=DelayProcess("uniform", 4, seed=8))
        plain, drifted = estimate_dt_et(cfg), drift_run(cfg)
        for name in ("d_hat", "d_se", "e_hat", "e_se"):
            assert np.array_equal(getattr(plain, name), getattr(drifted, name))
        assert plain.drift_hat is None and plain.drift_se is None

    def test_one_state_closed_form(self):
        est = drift_run(one_state_config(T=50))
        led = check_drift(est)
        assert led.verdict == "pass"
        # tau = 1: drift equals one exact deterministic update, alike in every
        # lane, so its SE is zero up to the rounding of the cross-lane mean
        rho = 1 - ONE_ALPHA * 0.5
        t = np.arange(1, 51)
        expected = (rho ** t - rho ** (t - 1)) ** 2 * 4.0
        np.testing.assert_allclose(est.drift_hat, expected, rtol=1e-10)
        assert np.all(est.drift_se <= 1e-12 * est.drift_hat)
        assert led.n_steps == 50

    def test_alpha_squared_scaling(self):
        # drift over one fixed lag must scale like alpha^2 across a halving grid
        drifts = []
        alphas = [FAST_ALPHA, FAST_ALPHA / 2, FAST_ALPHA / 4]
        for i, alpha in enumerate(alphas):
            cfg = fast_config(alpha=alpha, trials=300, T=1200,
                              master_seed=derive_seed(77, i))
            mean, _ = drift_of(kernel_paths(cfg), FAST_TAU)
            drifts.append(mean[600 - FAST_TAU:].mean())  # past burn-in
        slope = np.polyfit(np.log(alphas), np.log(drifts), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_delayed_run_still_bounded_with_larger_constant(self):
        delays = DelayProcess("sawtooth", 4, seed=9)
        plain = check_drift(drift_run(fast_config(trials=300, T=600)))
        delayed = check_drift(drift_run(fast_config(trials=300, T=600, delays=delays)))
        assert plain.verdict == "pass" and delayed.verdict == "pass"
        assert delayed.fitted["c"] >= plain.fitted["c"]

    def test_drift_out_of_contract_gating(self):
        led = check_drift(drift_run(fast_config(alpha=1.0, trials=120, T=60)))
        assert led.verdict == "out-of-contract"

    def test_trials_floor_enforced(self):
        est = drift_run(fast_config(trials=2, T=40))
        with pytest.raises(ConfigError, match="100 trials"):
            check_drift(est)

    def test_needs_a_drift_run(self):
        est = estimate_dt_et(fast_config(trials=100, T=60))
        assert est.drift_hat is None
        with pytest.raises(ConfigError, match="reduced the drift"):
            check_drift(est)

    def test_recursion_experiment_reduces_a_passing_drift(self):
        config, kind = parse_experiment(bundled.bundled_config("theorem2_base"))
        est, ledgers = run_experiment(replace(config, trials=200), kind)
        assert list(ledgers) == ["boundedness", "recursion", "drift"]
        led = ledgers["drift"]
        assert led.verdict == "pass" and led.theorem_id == "lemma3-drift"
        assert led.n_steps == est.T + 1 - config.tau == est.drift_hat.size

    def test_boundedness_experiment_takes_no_drift(self):
        est, ledgers = run_experiment(fast_config(trials=100, T=60), "boundedness")
        assert list(ledgers) == ["boundedness"]
        assert est.drift_hat is None and est.drift_se is None

    LINEAR = SaturatingMonotoneProvider([0.3], [[1.0], [-2.0]], FAST_MODEL, a=1.0, b=0.0)

    def _linear_paths(self, alpha):
        return drift_run(fast_config(alpha=alpha, provider=self.LINEAR,
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
        assert led.hypothesis["B"] != TD0Provider(FAST_MODEL).bound_B(np.zeros(1))


class TestWeightedAveraging:
    @pytest.mark.parametrize("delays", [None, DelayProcess("uniform", 4, seed=8)],
                             ids=["undelayed", "uniform_delays"])
    @pytest.mark.parametrize("sampling", ["markov", "iid_restart"])
    @pytest.mark.parametrize("K", [1, 3])
    def test_average_is_the_incremental_average_of_the_iterates(self, K, sampling,
                                                                delays):
        # the averaging run's theta_bar, bit for bit, is the incremental
        # average of the same lanes' iterates in the same order
        if K == 1:
            cfg = fast_config(trials=7, T=150, sampling=sampling, delays=delays)
        else:
            cfg = wide_config(3, sampling=sampling, delays=delays)
        weight_A = 0.5 * cfg.provider.contraction
        averaged = _simulate(cfg, (_Average,))
        path = kernel_paths(cfg)
        wrate = 1.0 - cfg.alpha * weight_A
        v, S = 1.0, path[:, 0].copy()
        for t in range(1, cfg.T + 1):
            v = v * wrate + 1.0
            S = S + (path[:, t] - S) / v
        assert averaged.abort_step is None
        assert np.array_equal(averaged.theta_bar, S)

    def test_averaging_estimate_has_no_curves(self):
        # an averaging run reads only theta_bar and the abort fields, so it
        # neither reduces d_t/e_t nor calls the steady-state map
        class NoSteady(TD0Provider):
            def steady(self, theta):
                raise AssertionError("steady called on an averaging run")

        cfg = fast_config(provider=NoSteady(FAST_MODEL), trials=50, T=40)
        estimate = _simulate(cfg, (_Average,))
        assert (estimate.d_hat, estimate.d_se, estimate.e_hat, estimate.e_se) == \
            (None, None, None, None)
        assert estimate.T == cfg.T == 40
        assert estimate.theta_bar.shape == (50, 1)
        assert (estimate.abort_count, estimate.abort_step) == (0, None)

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

    def test_repeated_horizon_refused(self):
        # a repeated horizon reruns the same derived seed, so the tail slope
        # would be fitted over a double-counted point
        with pytest.raises(ConfigError, match="repeats a horizon"):
            weighted_average_experiment(fast_config(averaging_grid=[64, 64, 128]))

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
        provider = SaturatingMonotoneProvider([0.7], [[0.6], [-0.6]], model, a=1.0, b=0.0)
        cfg = ExperimentConfig(provider, np.zeros(1), resolve_step_size(provider),
                               T=250, trials=2000, master_seed=401)
        est, ledgers = run_experiment(cfg, "recursion")
        # the stationary noise variance V = sum_s pi(s) ||n(s)||^2
        dev = provider.noise_table
        a, V = cfg.alpha, float(provider.model.mrp.pi @ (dev ** 2).sum(axis=1))
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
        result = sweep(cfg, "alpha", (1.0, 0.5, 0.25))
        assert abs(result["floor_slope"] - 1.0) <= 0.25
        for point in result["points"]:
            assert point["in_contract"]
            assert point["verdict"] == "pass"
        assert [led.verdict for led in result["ledgers"].values()] == ["pass"] * 3

    def test_nonlinear_sweep_resolves_tau_and_horizon_like_the_spec(self):
        config, _ = parse_experiment(bundled.bundled_config("theorem4_saturating"))
        assert (config.alpha, config.tau, config.T) == (0.0109375, 8, 1307)
        provider = config.provider
        assert generic_tau(provider.model.mrp, provider.L * provider.sigma_const,
                           config.alpha)[0] == 8
        assert config.alpha == provider.contraction / (8.0 * 8)
        result = sweep(replace(config, trials=100), "alpha", (1.0, 0.5))
        first = result["points"][0]
        assert first["alpha"] == config.alpha
        assert (first["tau"], first["T"]) == (8, 1307)

    def test_tau_max_axis_divides_the_step_size(self):
        # without delays in the config the points draw uniform delays on seed 77
        config = fast_config(trials=100)
        result = sweep(config, "tau_max", (0, 2.0))
        assert result["values"] == [0, 2]
        assert list(result["ledgers"]) == list(result["estimates"]) == \
            ["tau_max_0", "tau_max_2"]
        for point, est in zip(result["points"], result["estimates"].values()):
            alpha = FAST_ALPHA / (1 + point["tau_max"])
            assert point["alpha"] == est.config.alpha == alpha
            assert point["T"] == est.config.T == auto_horizon(alpha, config.provider)
            assert point["tau"] == est.config.tau
            assert point["verdict"] == "pass"
        assert result["estimates"]["tau_max_0"].config.delays == DelayProcess("none", 0, 77)
        assert result["estimates"]["tau_max_2"].config.delays == \
            DelayProcess("uniform", 2, 77)
        alone = estimate_dt_et(result["estimates"]["tau_max_2"].config)
        assert np.array_equal(alone.d_hat, result["estimates"]["tau_max_2"].d_hat)

    def test_tau_max_axis_keeps_the_config_delay_process(self):
        config = fast_config(trials=100, delays=DelayProcess("sawtooth", 5, 9))
        result = sweep(config, "tau_max", (1,))
        assert result["estimates"]["tau_max_1"].config.delays == \
            DelayProcess("sawtooth", 1, 9)
        assert "floor_slope" not in result and "tail_slope" not in result

    def test_tau_max_axis_reads_kind_none_as_undelayed(self):
        # kind none takes tau_max 0 alone, so its points draw uniform delays
        # on seed 77 as an undelayed config's do, and those delays act
        none = sweep(fast_config(trials=100, delays=DelayProcess("none", 0, 9)),
                     "tau_max", (0, 3))
        plain = sweep(fast_config(trials=100), "tau_max", (0, 3))
        delayed = none["estimates"]["tau_max_3"]
        assert delayed.config.delays == DelayProcess("uniform", 3, 77)
        assert delayed.config.delays.tau_max > 0
        for tag, est in none["estimates"].items():
            assert np.array_equal(est.d_hat, plain["estimates"][tag].d_hat)
        undelayed = estimate_dt_et(replace(delayed.config, delays=None))
        assert not np.array_equal(delayed.d_hat, undelayed.d_hat)

    def test_T_axis_is_one_averaging_experiment(self):
        config = one_state_config(T=400, trials=100)
        result = sweep(config, "T", (50.0, 100, 200, 400))
        assert result["values"] == [50, 100, 200, 400]
        assert all(type(T) is int for T in result["values"])
        led = weighted_average_experiment(replace(config,
                                                  averaging_grid=[50, 100, 200, 400]))
        assert list(result["ledgers"]) == ["weighted_average"]
        assert result["ledgers"]["weighted_average"].to_dict() == led.to_dict()
        assert result["points"] == led.fitted["table"]
        assert result["tail_slope"] == led.fitted["tail_slope"]
        assert result["estimates"] == {}

    @pytest.mark.parametrize("axis, values, message", [
        ("alpha", (1.0,), "at least two multipliers"),
        ("alpha", (1.0, 1), "distinct"),
        ("alpha", (1.0, float("inf")), "alpha multiplier inf must be"),
        ("alpha", (1, 0.5, 1.0000001),
         r"multipliers 1\.0 and 1\.0000001 share the seed index 1000000,"),
        ("alpha", (1e-7, 2e-7), r"multipliers 1e-07 and 2e-07 share the seed index 0,"),
        ("tau_max", (1, 1), "distinct"),
        ("tau_max", (1.5,), "sweep value tau_max must be an integer, got 1.5"),
        ("tau_max", (0, -1), "tau_max=-1 must be at least 0"),
        ("T", (64, 64.0, 128), "distinct"),
        ("T", (64, 128.5), "sweep value T must be an integer"),
        ("T", (), "empty"),
        ("gamma", (1,), "unknown sweep axis"),
    ])
    def test_values_refused_before_any_point_runs(self, monkeypatch, axis, values,
                                                  message):
        def no_point(*args):
            raise AssertionError("a point ran")
        monkeypatch.setattr("tdcert.harness.run_experiment", no_point)
        with pytest.raises(ConfigError, match=message):
            sweep(fast_config(), axis, values)

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
