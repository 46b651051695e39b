import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_reference
from mixing_reference import tv_reference
from scalar_reference import lane_words
from tdcert import chain
from tdcert.bundled import bundled_config, bundled_names
from tdcert.chain import (
    _TV_CLAMP,
    BLOCK,
    ChainError,
    ChainPowers,
    InverseCdfTable,
    KeyedStreams,
    MarkovRewardProcess,
    cycle_mrp,
    derive_seed,
    generator,
    mrp_from_dict,
    random_mrp,
    stationary_distribution,
    tv_mixing_profile,
    unit,
    validate_chain,
)

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


def words(seed, count):
    """The first ``count`` raw words of the stream ``generator(seed)``."""
    return generator(seed).bit_generator.random_raw(count)


def full_row(cum, w):
    """The sampled cell of each word by comparing its double with the whole
    CDF row (one row, or one row per word). One row is nondecreasing, so its
    values at or below a double are a prefix, counted by binary search."""
    cum = np.asarray(cum)
    u = unit(np.asarray(w, dtype=np.uint64))
    if cum.ndim == 1:
        assert np.all(np.diff(cum) >= 0)
        return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
    return np.minimum((cum <= u[:, None]).sum(axis=1), cum.shape[-1] - 1)


def assert_reference_table(table):
    """``table`` equals the per-row search build of its rows: the same B,
    dtype and bytes."""
    B, ref = chain_reference.inverse_cdf_table(table.cum)
    assert table.B == B
    assert table.table.dtype == ref.dtype
    assert table.table.tobytes() == ref.tobytes()


def make(P, R=None, gamma=0.5):
    P = np.asarray(P, dtype=float)
    if R is None:
        R = np.arange(P.shape[0], dtype=float)
    return MarkovRewardProcess(P, R, gamma)


class TestConstruction:
    def test_row_sum_error_names_row(self):
        with pytest.raises(ChainError, match="row 1"):
            MarkovRewardProcess([[1.0, 0.0], [0.3, 0.6]], [0, 0], 0.5)

    def test_negative_entry_rejected(self):
        with pytest.raises(ChainError, match="lie in"):
            MarkovRewardProcess([[1.2, -0.2], [0.5, 0.5]], [0, 0], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_rejected(self, bad):
        # a NaN would pass the [0, 1] and row-sum checks, which it fails
        # to compare with
        with pytest.raises(ChainError, match=r"transition matrix P .* at index \(1, 0\)"):
            MarkovRewardProcess([[0.5, 0.5], [bad, 1.0]], [0, 0], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, bad):
        with pytest.raises(ChainError, match=r"reward vector R .* at index \(0,\)"):
            MarkovRewardProcess([[0.5, 0.5], [0.5, 0.5]], [bad, 1.0], 0.5)

    def test_gamma_strictly_inside_unit_interval(self):
        for gamma in (0.0, 1.0, -0.1, 1.5, np.nan, np.inf, "0.5", True, [0.5]):
            with pytest.raises(ChainError, match="gamma"):
                MarkovRewardProcess([[1.0]], [1.0], gamma)

    @pytest.mark.parametrize("build, message", [
        (lambda: MarkovRewardProcess("ab", [0.0], 0.5),
         "transition matrix P must be an array of numbers, got 'ab'"),
        (lambda: MarkovRewardProcess([[0.5, "0.5"], [0.5, 0.5]], [0, 0], 0.5),
         "transition matrix P must be an array of numbers"),
        (lambda: MarkovRewardProcess([[0.5, 0.5], [1.0]], [0, 0], 0.5),
         "transition matrix P must be an array of numbers"),
        (lambda: MarkovRewardProcess([[1.0]], [True], 0.5),
         "reward vector R must be an array of numbers, got [True]"),
        (lambda: MarkovRewardProcess([[0.5, 0.5], [0.5, 0.5]], [1.0, False], 0.5),
         "reward vector R must be an array of numbers, got [1.0, False]"),
        (lambda: MarkovRewardProcess([[True, 0], [0, 1]], [0.0, 1.0], 0.5),
         "transition matrix P must be an array of numbers"),
        (lambda: MarkovRewardProcess([[1.0]], {"r": 1.0}, 0.5),
         "reward vector R must be an array of numbers"),
    ])
    def test_array_of_wrong_type_refused_naming_its_field(self, build, message):
        # not cast: np.array(["0.5"], dtype=float) and [True] read as numbers
        with pytest.raises(ChainError, match=re.escape(message)):
            build()

    def test_r_bar_is_max_absolute_reward(self):
        mrp = make(TWO_STATE, R=[-3.0, 2.0])
        assert mrp.r_bar == 3.0

    def test_rows_renormalized_to_machine_precision(self):
        P = [[0.9 + 4e-10, 0.1], [0.2, 0.8]]
        mrp = make(P)
        np.testing.assert_allclose(mrp.P.sum(axis=1), 1.0, atol=1e-15)

    def test_immutable_after_construction(self):
        mrp = make(TWO_STATE)
        with pytest.raises(ValueError):
            mrp.P[0, 0] = 0.0


class TestGeneratorArguments:
    """A count is a whole number and a rate a number: a fractional n or seed
    is refused, naming it, rather than truncated to another chain."""

    @pytest.mark.parametrize("build, message", [
        (lambda: cycle_mrp(4.7, 0.5), "n must be an integer, got 4.7"),
        (lambda: cycle_mrp(4, [0.5]), "epsilon must lie in (0, 1), got [0.5]"),
        (lambda: cycle_mrp(4, "0.5"), "epsilon must lie in (0, 1), got '0.5'"),
        (lambda: random_mrp(6.5, 0.9, 3), "n must be an integer, got 6.5"),
        (lambda: random_mrp(6, 0.9, 3.9), "seed must be an integer, got 3.9"),
        (lambda: random_mrp(6, 0.9, True), "seed must be an integer, got True"),
        (lambda: random_mrp(6, "0.9", 3), "density must lie in (0, 1], got '0.9'"),
        # not numpy's "negative dimensions are not allowed", which names no key
        (lambda: cycle_mrp(-3, 0.5), "n must be at least 1, got -3"),
        (lambda: cycle_mrp(0, 0.5), "n must be at least 1, got 0"),
        (lambda: random_mrp(-2, 0.9, 3), "n must be at least 1, got -2"),
        (lambda: random_mrp(0.0, 0.9, 3), "n must be at least 1, got 0"),
        (lambda: mrp_from_dict({"kind": ["cycle"]}), "unknown chain kind ['cycle']"),
        (lambda: mrp_from_dict({"transitions": [[1.0]], "rewards": [1.0],
                                "gamma": 0.5, "states": 1.5}),
         "states must be an integer, got 1.5"),
    ])
    def test_wrong_type_refused(self, build, message):
        with pytest.raises(ChainError, match=re.escape(message)):
            build()

    def test_whole_floats_build_the_same_chain(self):
        assert cycle_mrp(4.0, 0.5).n == 4
        given, plain = random_mrp(6.0, 0.9, 3.0), random_mrp(6, 0.9, 3)
        assert given.P.tobytes() == plain.P.tobytes()
        assert given.R.tobytes() == plain.R.tobytes()


class TestValidateChain:
    def test_single_absorbing_self_loop(self):
        rep = validate_chain(make([[1.0]]))
        assert rep.irreducible and rep.aperiodic

    def test_deterministic_two_cycle_is_periodic(self):
        rep = validate_chain(make([[0.0, 1.0], [1.0, 0.0]]))
        assert rep.irreducible
        assert not rep.aperiodic
        assert rep.period == 2

    def test_two_state_with_self_loops(self):
        rep = validate_chain(make(TWO_STATE))
        assert rep.ok

    def test_reducible_chain_reports_unreachable_states(self):
        rep = validate_chain(make([[1.0, 0.0], [0.5, 0.5]]))
        assert not rep.irreducible
        assert 1 in rep.not_reachable
        assert "unreachable" in rep.describe()

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_deterministic_cycle_has_its_length_as_period(self, n):
        mrp = make(np.roll(np.eye(n), 1, axis=1))
        rep = validate_chain(mrp)
        assert rep.irreducible and rep.period == n
        assert rep == chain_reference.validate_chain(mrp)

    def test_cycles_of_four_and_six_through_one_state_have_period_two(self):
        # 0 -> 1 -> 2 -> 3 -> 0 and 0 -> 4 -> ... -> 8 -> 0
        P = np.zeros((9, 9))
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6),
                     (6, 7), (7, 8), (8, 0)]:
            P[u, v] = 1.0
        P /= P.sum(axis=1, keepdims=True)
        rep = validate_chain(make(P))
        assert rep.irreducible and rep.period == 2
        assert rep == chain_reference.validate_chain(make(P))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
    def test_matches_python_bfs_reference(self, n, density, seed):
        # sparse patterns give reducible and periodic chains as well as
        # ergodic ones; every row keeps at least one positive entry
        rng = generator(seed)
        pos = rng.random((n, n)) < density
        pos[np.arange(n), rng.integers(0, n, size=n)] = True
        P = pos * (rng.random((n, n)) + 0.1)
        mrp = make(P / P.sum(axis=1, keepdims=True))
        assert validate_chain(mrp) == chain_reference.validate_chain(mrp)


class TestStationary:
    def test_single_state(self):
        pi = stationary_distribution(make([[1.0]]))
        np.testing.assert_allclose(pi, [1.0])

    def test_symmetric_doubly_stochastic(self):
        pi = stationary_distribution(make([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-14)

    def test_two_state_exact_thirds(self):
        # independent oracle for a 2-state chain: pi_0 = p10 / (p01 + p10)
        p01, p10 = 0.1, 0.2
        expected = np.array([p10, p01]) / (p01 + p10)
        pi = stationary_distribution(make(TWO_STATE))
        np.testing.assert_allclose(pi, expected, atol=1e-14)
        np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_periodic_chain_rejected_with_hint(self):
        mrp = make([[0.0, 1.0], [1.0, 0.0]])
        for solve in (stationary_distribution, lambda m: m.pi) * 2:
            with pytest.raises(ChainError, match="validate_chain"):
                solve(mrp)
        assert mrp.validation is mrp.validation

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
    def test_random_chain_invariants(self, seed, n):
        mrp = random_mrp(n, 0.8, seed)
        pi = stationary_distribution(mrp)
        assert np.max(np.abs(pi @ mrp.P - pi)) <= 1e-10
        assert pi.min() > 0.0
        assert abs(pi.sum() - 1.0) <= 1e-12


class TestTvCurve:
    """``ChainPowers.curve``: d(0..H), clamped entries stored as their bound."""

    def test_single_state_curve_is_clamped_at_once(self):
        d, clamped = tv_mixing_profile(make([[1.0]]), 10)
        assert d[0] == 0.0 and clamped
        assert np.all(d[1:] == _TV_CLAMP)

    def test_uniform_rows_mix_in_one_step(self):
        mrp = make([[0.5, 0.5], [0.5, 0.5]])
        d, clamped = tv_mixing_profile(mrp, 10)
        assert d[0] == 1.0 - mrp.pi.min() and clamped
        assert np.all(d[1:] == _TV_CLAMP)

    def test_starts_at_one_minus_min_pi(self):
        mrp = make(TWO_STATE)
        d, clamped = tv_mixing_profile(mrp, 8)
        assert d.shape == (9,) and not clamped
        assert np.float64(d[0]).tobytes() == np.float64(1.0 - float(mrp.pi.min())).tobytes()
        np.testing.assert_allclose(d[0], 2.0 / 3.0, rtol=1e-12)  # pi = (2/3, 1/3)

    def test_second_eigenvalue_governs_decay(self):
        # eigendecomposition oracle: eigenvalues of TWO_STATE are {1, 0.7}
        d, _ = tv_mixing_profile(make(TWO_STATE), 40)
        np.testing.assert_allclose(d[11:21] / d[10:20], 0.7, atol=1e-9)

    def test_curve_non_increasing_and_prefix_stable(self):
        # non-increasing, so the last recorded distance bounds every later one
        d, _ = tv_mixing_profile(make(TWO_STATE), 60)
        assert np.all(np.diff(d) <= 1e-12)
        longer, _ = tv_mixing_profile(make(TWO_STATE), 3000)
        assert np.all(np.diff(longer) <= 1e-12)
        assert longer[:61].tobytes() == d.tobytes()
        assert np.all(longer[61:] <= d[-1])

    def test_underflow_stores_the_clamp_bound_from_its_index(self):
        powers = ChainPowers(make(TWO_STATE))
        d, clamped = powers.curve(3000)
        k = powers.clamp_index
        assert clamped and k is not None
        assert np.all(d[k:] == _TV_CLAMP) and np.all(d[:k] > _TV_CLAMP)
        # clamped exactly from the clamp index on, prefix-stable either side
        before, clamped = powers.curve(k - 1)
        assert not clamped and before.tobytes() == d[:k].tobytes()
        at, clamped = powers.curve(k)
        assert clamped and at.tobytes() == d[:k + 1].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 10), horizon=st.integers(2, 200),
           density=st.floats(0.2, 1.0), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_matrix_power_reference(self, n, horizon, density, seed):
        mrp = random_mrp(n, density, seed)
        powers = ChainPowers(mrp)
        d, clamped = powers.curve(horizon)
        ref = tv_reference(mrp, horizon)
        k = powers.clamp_index if clamped else horizon + 1
        assert d.shape == ref.shape
        np.testing.assert_allclose(d[:k], ref[:k], rtol=0.0, atol=1e-12)
        assert np.all(d[k:] == _TV_CLAMP)

    def test_horizon_precondition(self):
        with pytest.raises(ChainError, match="horizon"):
            tv_mixing_profile(make(TWO_STATE), 1)
        with pytest.raises(ChainError, match="horizon"):
            ChainPowers(make(TWO_STATE)).curve(1)


class TestSampling:
    """The chain's one transition sampler, ``mrp.sampler``."""

    def test_single_state_chain(self):
        mrp = make([[1.0]], R=[1.5])
        assert mrp.sampler.pick(words(7, 3), np.zeros(3, dtype=np.intp)).tolist() == [0, 0, 0]

    def test_deterministic_two_cycle(self):
        mrp = make([[0.0, 1.0], [1.0, 0.0]], R=[2.0, 5.0])
        assert mrp.sampler.pick(words(1, 4), np.array([0, 1, 0, 1])).tolist() == [1, 0, 1, 0]

    def test_same_seed_identical(self):
        mrp = make(TWO_STATE)
        rows = np.arange(500) % 2
        a = mrp.sampler.pick(words(99, 500), rows)
        b = mrp.sampler.pick(words(99, 500), rows)
        assert np.array_equal(a, b)

    def test_occupancy_matches_stationary(self):
        # one-step transition frequencies from each row lie within 3 binomial
        # standard errors of that row of P
        mrp = make(TWO_STATE)
        N = 100_000
        for row in range(2):
            picks = mrp.sampler.pick(words(2024 + row, N),
                                     np.full(N, row, dtype=np.intp))
            freq = np.bincount(picks, minlength=2) / N
            p = mrp.P[row]
            se = np.sqrt(p * (1 - p) / N)
            assert np.all(np.abs(freq - p) <= 3 * se)

    def test_block_draws_match_scalar_draws(self):
        # the batch engine relies on random(n) consuming the stream like
        # n successive scalar draws
        g1 = generator(123)
        g2 = generator(123)
        block = g1.random(64)
        singles = np.array([g2.random() for _ in range(64)])
        assert np.array_equal(block, singles)

    def test_unit_of_raw_words_is_random(self):
        # one word per double, whatever precedes it in the stream
        g = generator(321)
        w = words(321, 4099)
        assert np.array_equal(unit(w[:3]), g.random(3))
        assert np.array_equal(unit(w[3:4]), [g.random()])
        assert np.array_equal(unit(w[4:]), g.random(4095))


# keys at both ends of the 64-bit range beside a hashed one
_KEYS = [derive_seed(3), 0, 2 ** 64 - 1]


def drawn(key, lanes, counts):
    """Every lane's words from one ``KeyedStreams``, filled ``counts`` rows
    at a time into fresh buffers, as one (sum(counts), lanes) array."""
    streams = KeyedStreams(key, lanes)
    parts = [np.empty((count, lanes), dtype=np.uint64) for count in counts]
    for out in parts:
        streams.fill(out)
    return np.concatenate(parts)


class TestKeyedStreams:
    """Lane i's word p under a key is word p mod 4 of the Philox block at the
    counter i + 2^64 floor(p / 4), as the reference draws it one fresh
    Philox per block (``scalar_reference.lane_words``), at any position and
    across the kernel's block turns."""

    @pytest.mark.parametrize("offset", range(8))
    def test_words_are_each_lanes_reference_at_any_offset(self, offset):
        streams = KeyedStreams(_KEYS[0], 133)
        buffer = np.empty((BLOCK, 133), dtype=np.uint64)
        streams.fill(buffer[:offset])
        words = buffer[:offset].copy()
        for count in (BLOCK - offset, BLOCK, 3):  # the buffer is reused
            streams.fill(buffer[:count])
            words = np.concatenate([words, buffer[:count]])
        for i in range(133):
            assert np.array_equal(unit(words[:, i]),
                                  unit(lane_words(_KEYS[0], i, len(words))))

    @pytest.mark.parametrize("key", _KEYS)
    @pytest.mark.parametrize("blocks", [[BLOCK, BLOCK, 7], [1, BLOCK - 1, BLOCK, 5],
                                        [2 * BLOCK, 2 * BLOCK, 14],
                                        [BLOCK + 1, BLOCK, BLOCK, 7]],
                             ids=["markov", "markov_start", "iid_restart",
                                  "markov_start_word"])
    def test_kernel_blocks_equal_reference(self, blocks, key):
        words = drawn(key, 70, blocks)
        for i in range(70):
            assert np.array_equal(words[:, i], lane_words(key, i, sum(blocks)))

    @settings(max_examples=40, deadline=None)
    @given(key=st.integers(0, 2 ** 64 - 1), lanes=st.integers(1, 300),
           counts=st.lists(st.integers(1, 13), min_size=1, max_size=6))
    def test_lane_words_depend_on_key_lane_and_position_only(self, key, lanes, counts):
        # any lane count and any split into fills, 1-row fills and fills of
        # no multiple of 4 among them, gives lane i the reference's words
        words = drawn(key, lanes, counts)
        for i in range(lanes):
            assert np.array_equal(words[:, i], lane_words(key, i, sum(counts)))

    def test_one_draw_per_four_words(self):
        # each 4-word block of every lane is one random_raw call, the fill's
        # start and end inside a block included
        calls = []

        class Counting:
            def __init__(self, bitgen):
                self.bitgen = bitgen

            state = property(lambda self: self.bitgen.state,
                             lambda self, state: setattr(self.bitgen, "state", state))

            def random_raw(self, size):
                calls.append(size)
                return self.bitgen.random_raw(size)

        streams = KeyedStreams(5, 2000)
        streams.bitgen = Counting(streams.bitgen)
        for count, blocks in ((BLOCK + 1, BLOCK // 4 + 1), (BLOCK, BLOCK // 4 + 1), (2, 1)):
            calls.clear()
            streams.fill(np.empty((count, 2000), dtype=np.uint64))
            assert calls == [4 * 2000] * blocks


class TestGeneratorsAndConfig:
    def test_cycle_is_valid_and_lazy(self):
        mrp = cycle_mrp(6, 0.3)
        assert validate_chain(mrp).ok
        np.testing.assert_allclose(np.diag(mrp.P), 0.3)

    def test_cycle_two_states_accumulates_neighbour_mass(self):
        mrp = cycle_mrp(2, 0.5)
        np.testing.assert_allclose(mrp.P, [[0.5, 0.5], [0.5, 0.5]])

    def test_random_mrp_reproducible(self):
        a = random_mrp(5, 0.7, seed=3)
        b = random_mrp(5, 0.7, seed=3)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.R, b.R)

    def test_explicit_config_roundtrip(self):
        cfg = {"states": 2, "transitions": TWO_STATE, "rewards": [1.0, 0.0],
               "gamma": 0.9}
        mrp = mrp_from_dict(cfg)
        assert mrp.n == 2 and mrp.gamma == 0.9

    def test_config_state_count_mismatch(self):
        with pytest.raises(ChainError, match="transition rows"):
            mrp_from_dict({"states": 3, "transitions": TWO_STATE,
                           "rewards": [1, 0], "gamma": 0.5})

    def test_generator_configs(self):
        assert mrp_from_dict({"kind": "cycle", "n": 4, "epsilon": 0.4}).n == 4
        assert mrp_from_dict({"kind": "random", "n": 3, "density": 1.0,
                              "seed": 1}).n == 3

    def test_derive_seed_changes_with_any_index(self):
        base = derive_seed(7, 0)
        assert derive_seed(7, 1) != base
        assert derive_seed(8, 0) != base
        assert derive_seed(7, 0, 1) != base


_MASTERS = st.one_of(st.sampled_from([0, 2 ** 64 - 1, -7]),
                     st.integers(-2 ** 70, 2 ** 70))


class TestDeriveSeed:
    """derive_seed runs splitmix64 on uint64 arrays; it must hash exactly as
    the plain-Python splitmix64 on ints modulo 2^64."""

    @settings(max_examples=200, deadline=None)
    @given(_MASTERS, st.lists(st.integers(-2 ** 64, 2 ** 65), max_size=3))
    def test_ints_match_python_splitmix(self, master, path):
        seed = derive_seed(master, *path)
        assert type(seed) is int
        assert seed == chain_reference.derive_seed(master, *path)

    @settings(max_examples=100, deadline=None)
    @given(_MASTERS, st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
           st.lists(st.integers(0, 2 ** 64 - 1), max_size=2))
    def test_index_array_matches_python_splitmix_per_entry(self, master, column, rest):
        seeds = derive_seed(master, np.array(column, dtype=np.uint64), *rest)
        assert seeds.dtype == np.uint64
        assert [int(z) for z in seeds] == [
            chain_reference.derive_seed(master, ix, *rest) for ix in column]

    def test_signed_index_and_master_arrays_wrap_modulo_2_64(self):
        ix = np.array([-7, -1, 0, 5], dtype=np.int64)
        masters = np.array([3, -2], dtype=np.int64)[:, None]
        seeds = derive_seed(masters, ix, 0xDE1A)
        assert seeds.shape == (2, 4)
        for m, row in zip((3, -2), seeds):
            assert [int(z) for z in row] == [
                chain_reference.derive_seed(m, int(i), 0xDE1A) for i in ix]


@st.composite
def _cdf_rows(draw):
    """Cumulative rows with zero-probability cells (repeated CDF values) and
    rounding: tenths sum to 0.9999999999999999, below 1."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([1, 10, 300])))
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["weights", "tenths", "one_cell"]))
        if kind == "tenths" and n == 10:
            p = np.full(10, 0.1)
        elif kind == "one_cell":
            p = np.zeros(n)
            p[draw(st.integers(0, n - 1))] = 1.0
        else:
            w = np.array(draw(st.lists(
                st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=n, max_size=n)))
            if w.sum() == 0.0:
                w[-1] = 1.0
            p = w / w.sum()
        rows.append(np.cumsum(p))
    return np.array(rows)


def _critical_words(cum, B):
    """The words a comparison is most sensitive to: every bucket edge
    k << (64 - b) and the word below it, and, for every CDF value below 1,
    the first word whose double reaches it, the word below that and the last
    word with the same double; plus 0 and 2^64 - 1."""
    top = np.uint64(2 ** 64 - 1)
    edges = np.arange(B, dtype=np.uint64) << np.uint64(64 - (B.bit_length() - 1))
    # cum * 2^53 is exact, so its ceiling is the first 53-bit grid point at
    # or above the value
    grid = np.ceil(cum[cum < 1.0] * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    w = np.concatenate([edges, grid, grid | np.uint64(2047),
                        np.array([0, top], dtype=np.uint64)])
    below = w[w > 0] - np.uint64(1)
    return np.concatenate([w, below])


class TestInverseCdfTable:
    @settings(max_examples=150, deadline=None)
    @given(_cdf_rows(), st.data())
    def test_matches_full_row_comparison(self, cum, data):
        table = InverseCdfTable(cum)
        assert_reference_table(table)
        m, n = cum.shape
        extra = np.array(data.draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=20)),
                         dtype=np.uint64)
        w = np.concatenate([_critical_words(cum, table.B), extra])
        for row in range(m):
            rows = np.full(w.shape[0], row, dtype=np.intp)
            assert np.array_equal(table.pick(w, rows), full_row(cum[row], w))
        if m == 1:
            assert np.array_equal(table.pick(w), full_row(cum[0], w))

    @pytest.mark.parametrize("n", [1, 2, 6, 150])
    def test_chain_sampler_matches_full_row_comparison(self, n):
        # zero-probability cells repeat CDF values; the rows are mixed per word
        mrp = random_mrp(n, 0.3, seed=n) if n > 1 else make([[1.0]])
        table = mrp.sampler
        w = _critical_words(mrp.cum_P, table.B)
        w = np.concatenate([w, words(n, 5000)])
        s = generator(n + 1).integers(0, n, size=w.shape[0])
        assert np.array_equal(table.pick(w, s), full_row(mrp.cum_P[s], w))
        assert np.array_equal(mrp.pi_sampler.pick(w), full_row(np.cumsum(mrp.pi), w))

    @pytest.mark.parametrize("n, B", [(100, 2048), (6, 2 ** 15), (512, 8192),
                                      (1, 2 ** 18)])
    def test_bucket_is_the_top_bits_of_the_word(self, n, B):
        # floor(unit(w) * B) = w >> (64 - b) for every bucket edge and its
        # neighbours, up to the most buckets the cell budget gives
        table = InverseCdfTable(np.ones((1, n)))
        assert table.B == B
        w = _critical_words(np.ones(1), B)
        assert np.array_equal(w >> np.uint64(table.shift),
                              np.floor(unit(w) * B).astype(np.uint64))

    def test_bucket_count_scales_with_states(self):
        # the larger of 2^ceil(log2 16n) and the most buckets whose n rows
        # fit in 2^18 cells, whatever the table's own row count
        for n, B in {1: 2 ** 18, 2: 2 ** 17, 6: 2 ** 15, 16: 2 ** 14, 17: 8192,
                     64: 4096, 65: 2048, 128: 2048, 129: 4096, 150: 4096,
                     300: 8192, 17000: 2 ** 19}.items():
            for m in (1, 3):
                assert InverseCdfTable(np.ones((m, n))).B == B, (m, n)

    @pytest.mark.parametrize("n, B", [(150, 4096), (300, 8192)])
    def test_large_chain_tables_keep_their_size(self, n, B):
        # from n = 128 on, 16n buckets per row already fill the cell budget
        mrp = random_mrp(n, 0.3, seed=n)
        assert (mrp.sampler.B, mrp.sampler.table.nbytes) == (B, n * B * 2)
        assert (mrp.pi_sampler.B, mrp.pi_sampler.table.nbytes) == (B, B * 2)

    def test_pick_without_a_split_lane_skips_the_resolve(self, monkeypatch):
        mrp = random_mrp(6, 0.3, seed=6)
        table = mrp.sampler
        w = words(11, 20000)
        s = generator(12).integers(0, 6, size=w.shape[0])
        clear = table.table[(w >> np.uint64(table.shift)).astype(np.intp) + s * table.B] >= 0
        w, s = w[clear], s[clear]
        assert w.size > 19000
        monkeypatch.setattr(chain, "unit", None)  # the resolve path would call it
        assert np.array_equal(table.pick(w, s), full_row(mrp.cum_P[s], w))

    def test_pick_with_every_lane_split(self):
        mrp = random_mrp(6, 0.3, seed=6)
        table = mrp.sampler
        rows, cells = np.divmod(np.flatnonzero(table.table < 0), table.B)
        assert rows.size >= 6
        # every split bucket, at random words inside it
        low = words(13, rows.size) >> np.uint64(64 - table.shift)
        w = cells.astype(np.uint64) << np.uint64(table.shift) | low
        assert np.all(table.table[cells + rows * table.B] < 0)
        assert np.array_equal(table.pick(w, rows), full_row(mrp.cum_P[rows], w))

    def test_chain_sampler_is_built_once(self):
        mrp = make(TWO_STATE)
        assert mrp.sampler is mrp.sampler
        assert mrp.pi_sampler is mrp.pi_sampler
        w = words(9, 1000)
        s = np.repeat([0, 1], 500)
        assert np.array_equal(mrp.sampler.pick(w, s), full_row(mrp.cum_P[s], w))
        assert np.array_equal(mrp.pi_sampler.pick(w), full_row(np.cumsum(mrp.pi), w))

    @pytest.mark.parametrize("name", bundled_names())
    def test_bundled_tables_match_reference_build(self, name):
        mrp = mrp_from_dict(bundled_config(name)["instance"]["chain"])
        assert_reference_table(mrp.sampler)
        assert_reference_table(mrp.pi_sampler)

    @pytest.mark.parametrize("n", [1, 2, 6, 150, 300])
    def test_random_chain_tables_match_reference_build(self, n):
        mrp = random_mrp(n, 0.3, seed=n) if n > 1 else make([[1.0]])
        assert_reference_table(mrp.sampler)
        assert_reference_table(mrp.pi_sampler)

    @pytest.mark.parametrize("last", [1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52])
    @pytest.mark.parametrize("n", [1, 2, 7, 17, 150, 300])
    def test_edge_rows_match_reference_build(self, n, last):
        # CDF values on bucket edges k/B and an ulp either side of them, runs
        # of zero-probability cells, and a last value just below, at or just
        # above 1
        B = InverseCdfTable(np.ones((1, n))).B
        rng = generator(n)
        grid = rng.integers(0, B + 1, size=(4, n - 1)) / B
        rows = [
            grid[0],
            np.repeat(grid[1][: (n + 1) // 2], 2)[: n - 1],
            np.nextafter(grid[2], rng.choice([-1.0, 2.0], size=n - 1)),
            np.where(rng.random(n - 1) < 0.5, grid[3], rng.random(n - 1)),
            np.zeros(n - 1),
            np.full(n - 1, last),
        ]
        cum = np.array([np.append(np.sort(np.clip(r, 0.0, last)), last) for r in rows])
        assert_reference_table(InverseCdfTable(cum))

    def test_build_memory_does_not_grow_with_the_table(self):
        # the build holds one chunk of rows at a time: at n = 300 it peaks
        # at most 1 MiB above the 4.9 MB table it returns
        cum = random_mrp(300, 0.5, seed=1501).cum_P
        tracemalloc.start()
        try:
            table = InverseCdfTable(cum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.table.nbytes == 300 * 8192 * 2
        assert table.table.nbytes <= peak <= table.table.nbytes + (1 << 20)
