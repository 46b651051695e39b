"""Finite Markov reward processes.

Validation of the irreducibility/aperiodicity assumption, exact stationary
distributions, the total-variation curve read off exact matrix powers
(non-increasing, so the last recorded distance bounds every later step), and
the exact table samplers of transitions and start states. Everything here is
deterministic given its seed; all objects but ``ChainPowers`` are immutable
after construction.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MASK64 = (1 << 64) - 1
# the steps per refill of the Monte Carlo kernel's reused word and delay
# buffers, and the lanes ``KeyedStreams`` draws per transposed tile
BLOCK = 512
_LANE_CHUNK = 64
# the most cells ``InverseCdfTable`` builds at once (whole rows, at least
# one), and the most cells a small chain's n-row table fills
_TABLE_CHUNK = 1 << 16
_TABLE_CELLS = 1 << 18
_ROW_SUM_TOL = 1e-9
# below this the matrix-power differences are dominated by rounding noise, so
# from the first step under it on the TV curve is stored as this value, its
# upper bound
_TV_CLAMP = 1e-13
_MRP_TRIES = 500  # the candidates ``random_mrp`` draws before it gives up


class ChainError(ValueError):
    """Malformed transition structure or a failed chain assumption."""


def _splitmix64(z):
    """splitmix64's mixer on an int or a uint64 array, modulo 2^64 (an array
    wraps by itself, so the masks only bound an int)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _word(x):
    """x modulo 2^64: an int for an int, a uint64 array for an integer array."""
    if isinstance(x, (int, np.integer)):
        return int(x) & _MASK64
    return np.array(x, ndmin=1).astype(np.uint64)


def derive_seed(master_seed, *indices):
    """Hash a master seed and an index path into an independent stream seed.

    Used everywhere a per-trial or per-component stream is split off a master
    seed, so parallel trials are independent by construction. Each argument
    is an int or an integer array, taken modulo 2^64. Ints give an int;
    arrays broadcast and give a uint64 array whose entry i is the seed of the
    ints at i, hashed in one pass.
    """
    z = _splitmix64(_word(master_seed))
    for ix in indices:
        z = _splitmix64(z ^ _splitmix64(_word(ix)))
    return z


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator for the given stream seed: Philox keyed by
    the seed modulo 2^64, its counter at zero."""
    return np.random.Generator(np.random.Philox(key=_word(seed)))


def unit(words, out=None):
    """The doubles ``Generator.random`` makes of raw Philox words, bit for
    bit: the top 53 bits times 2^-53, in [0, 1). Given ``out`` (a float
    array of the words' shape) the doubles go there and the words are
    shifted in place, so nothing is allocated."""
    if out is None:
        return (words >> 11) * 2.0 ** -53
    words >>= 11
    return np.multiply(words, 2.0 ** -53, out=out)


class KeyedStreams:
    """The streams ``generator(seed)`` of many lanes, drawn as raw 64-bit
    words from one re-keyed Philox in step-major blocks.

    Philox is counter-based: a stream is a key and a position, four 64-bit
    words per counter step, and ``random`` turns one word into one double
    (``unit``). All lanes stand at the same position ``pos``, so a lane's
    words come from writing its key and the counter ``pos // 4`` into the
    public state and dropping ``pos % 4`` words: no generator (nor a seed
    sequence pulled from OS entropy) is built per lane, and a caller whose
    blocks are multiples of 4 words never drops one. ``fill(out)`` writes
    every lane's next ``len(out)`` words into a caller's (rows, lanes)
    uint64 buffer, so row j holds every lane's j-th word and a step reads one
    contiguous row; lanes are drawn ``_LANE_CHUNK`` at a time into a
    lane-major tile and copied in as one transposed tile, about twice as fast
    as writing one strided column per lane. ``tiles`` hands out those tiles
    for a caller that writes its own layout. The tile is allocated once, at
    the widest count drawn, and reused by every later draw. The state is
    re-keyed as a dict of plain-int lists, which the setter reads at about
    half the cost of the uint64 arrays the getter returns.
    """

    def __init__(self, seeds):
        self.keys = [_word(seed) for seed in seeds]
        self.bitgen = generator(0).bit_generator
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}
        self.pos = 0
        self._tile = np.empty((min(_LANE_CHUNK, len(self.keys)), 0), dtype=np.uint64)

    def tiles(self, count: int):
        """Every lane's next ``count`` words, ``_LANE_CHUNK`` lanes at a
        time: yields (lo, tile) where tile[k] holds lane lo + k's words. The
        tile's memory is reused, so each one is consumed before the next."""
        if self._tile.shape[1] < count:
            self._tile = np.empty((self._tile.shape[0], count), dtype=np.uint64)
        tile = self._tile[:, :count]
        bitgen, state = self.bitgen, self.state
        key = state["state"]["key"]
        state["state"]["counter"][0] = self.pos // 4
        skip = self.pos % 4
        self.pos += count
        for lo in range(0, len(self.keys), _LANE_CHUNK):
            keys = self.keys[lo:lo + _LANE_CHUNK]
            for row, k in zip(tile, keys):
                key[0] = k
                bitgen.state = state
                row[:] = bitgen.random_raw(skip + count)[skip:]
            yield lo, tile[:len(keys)]

    def fill(self, out: np.ndarray):
        """Write every lane's next ``len(out)`` words into the (rows, lanes)
        uint64 array ``out``."""
        for lo, tile in self.tiles(len(out)):
            out[:, lo:lo + len(tile)] = tile.T


class InverseCdfTable:
    """Exact inverse-CDF sampling for a batch of lanes, by table lookup on
    raw Philox words.

    ``pick(words, rows)`` returns ``min(#{j : cum[row, j] <= u}, n - 1)`` for
    each lane, with u = ``unit(word)`` the double ``Generator.random`` makes
    of the word: the same index as comparing that u with its whole row. Each
    row's count of cells at or below u is a step function of u; the table
    records it per bucket of [0, 1), cut into B = 2^b equal buckets. The
    bucket that holds u, floor(u B), is the word's top b bits,
    ``word >> (64 - b)``, so no lane converts its word. A bucket whose count
    (capped at n - 1) is the same at both ends answers for every u in it; a
    bucket that a CDF value splits is marked -1, and only lanes that land in
    one (one ``min`` tells) make u and compare it with their row.

    A row has at most n - 1 split buckets, so L lanes resolve about
    L (n - 1) / B a step. B is the larger of 2^ceil(log2 16n) and the most
    buckets whose n rows fit in ``_TABLE_CELLS`` = 2^18 cells (n = 6:
    B = 32768), so a chain's n-row transition table costs at most 256 KiB
    of int8 counts and its one-row stationary table 1/n of that; from
    n = 128 on, 16n buckets fill the budget.

    The table is built without a search (Chen & Asau's guide table). B is a
    power of two, so x = cum B is exact, and bucket b's count at its left
    edge, #{j : cum_j <= b / B}, is #{j : ceil(x_j) <= b}; just below its
    right edge, #{j : cum_j < (b + 1) / B}, it is #{j : floor(x_j) <= b}.
    Both marks are non-decreasing along a row, so each count row is the run
    of count k over buckets [mark_{k-1}, mark_k): one ``repeat``. Rows go
    ``_TABLE_CHUNK`` cells at a time, so the build's scratch memory does not
    grow with the table.
    """

    def __init__(self, cum):
        cum = np.asarray(cum, dtype=float)
        m, n = cum.shape
        c = (n - 1).bit_length()  # ceil(log2 n)
        B = max(16 << c, _TABLE_CELLS >> c)
        dtype = np.int8 if n <= 127 else np.int16 if n <= 32767 else np.int32
        table = np.empty((m, B), dtype=dtype)
        counts = np.minimum(np.arange(n + 1), n - 1).astype(dtype)
        step = max(1, _TABLE_CHUNK // B)
        for r in range(0, m, step):
            x = cum[r:r + step] * B
            lo = _runs(np.ceil(x), counts, B)
            hi = _runs(np.floor(x), counts, B)
            lo[lo != hi] = -1
            table[r:r + step] = lo.reshape(-1, B)
        self.cum = cum
        self.n = n
        self.B = B
        self.shift = 64 - (B.bit_length() - 1)
        self.table = table.reshape(-1)
        self.table.setflags(write=False)

    def pick(self, words, rows=None):
        """Sampled cell per lane for the uint64 ``words`` in rows ``rows``
        (integer array aligned with words; None for a one-row table)."""
        cell = (words >> self.shift).view(np.intp)
        if rows is not None:
            cell += rows * self.B
        idx = self.table.take(cell).astype(np.intp)
        if idx.size and idx.min() < 0:
            split = np.flatnonzero(idx < 0)
            cum = self.cum[0] if rows is None else self.cum.take(rows.take(split), axis=0)
            count = (cum <= unit(words.take(split))[:, None]).sum(axis=1)
            idx[split] = np.minimum(count, self.n - 1)
        return idx


def _runs(marks, counts, B):
    """The rows' bucket counts laid end to end: for each row of integral
    ``marks``, B entries, ``counts[k]`` over buckets [mark_{k-1}, mark_k)
    with mark_{-1} = 0 and mark_n = B, marks clipped to [0, B]."""
    edges = np.clip(marks, 0, B).astype(np.intp)
    runs = np.diff(edges, axis=1, prepend=0, append=B)
    return np.repeat(np.tile(counts, len(edges)), runs.ravel())


def finite_array(name: str, value, error: type) -> np.ndarray:
    """value as a float array, refused (``error`` naming ``name``) unless it
    is a (nested) list or array of numbers, without strings, objects or bools,
    whose entries are all finite; a bad entry is named by its first index."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged rows
        array = np.asarray(None)
    # a bool among the numbers of a list would read as 0 or 1
    if array.dtype.kind not in "iuf" or not isinstance(value, np.ndarray) and any(
            isinstance(x, bool) for x in np.asarray(value, dtype=object).flat):
        raise error(f"{name} must be an array of numbers, got {value!r:.80}")
    array = np.array(array, dtype=float)
    bad = np.argwhere(~np.isfinite(array))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise error(f"{name} has a non-finite entry {array[index]} at index {index}")
    return array


def is_number(value) -> bool:
    """Whether value is a real number: not a string, list, object or bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer(name: str, value, error: type) -> int:
    """value as an int, refused (``error`` naming ``name``) unless it is a
    whole number: an integer other than a bool, or a float with no fraction."""
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


class MarkovRewardProcess:
    """A finite MRP: row-stochastic transitions, expected per-state rewards,
    and a discount factor strictly inside (0, 1), all finite.

    Rows of the transition matrix must sum to 1 within 1e-9 on input and are
    renormalized exactly; the matrix is then frozen. ``r_bar`` is the largest
    absolute reward, recomputed at construction. Because the process is
    immutable, its validation report, stationary law and batch samplers of
    transitions and of start states are computed once, on first use
    (``validation``, ``pi``, ``sampler``, ``pi_sampler``); an invalid chain
    raises from ``pi`` (and ``pi_sampler``) on every access.
    """

    def __init__(self, P, R, gamma):
        P = finite_array("transition matrix P", P, ChainError)
        R = finite_array("reward vector R", R, ChainError).reshape(-1)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ChainError(f"transition matrix must be square, got shape {P.shape}")
        n = P.shape[0]
        if n < 1:
            raise ChainError("chain needs at least one state")
        if R.shape[0] != n:
            raise ChainError(f"reward vector has {R.shape[0]} entries for {n} states")
        if np.any(P < -1e-12) or np.any(P > 1.0 + _ROW_SUM_TOL):
            raise ChainError("transition probabilities must lie in [0, 1]")
        row_sums = P.sum(axis=1)
        bad = np.nonzero(np.abs(row_sums - 1.0) > _ROW_SUM_TOL)[0]
        if bad.size:
            raise ChainError(
                f"row {bad[0]} of P sums to {row_sums[bad[0]]:.12g}, expected 1"
            )
        if not (is_number(gamma) and 0.0 < gamma < 1.0):
            raise ChainError(f"gamma must lie strictly in (0, 1), got {gamma!r}")
        P = np.clip(P, 0.0, None)
        P /= P.sum(axis=1, keepdims=True)
        self.P = P
        self.R = R
        self.gamma = float(gamma)
        self.n = n
        self.r_bar = float(np.max(np.abs(R)))
        self.cum_P = np.cumsum(P, axis=1)
        for a in (self.P, self.R, self.cum_P):
            a.setflags(write=False)

    @cached_property
    def validation(self) -> "ValidationReport":
        return validate_chain(self)

    @cached_property
    def pi(self) -> np.ndarray:
        """The stationary law, read-only."""
        return stationary_distribution(self)

    @cached_property
    def sampler(self) -> InverseCdfTable:
        """Batch transition sampler over the rows of ``cum_P``."""
        return InverseCdfTable(self.cum_P)

    @cached_property
    def pi_sampler(self) -> InverseCdfTable:
        """One-row sampler of the stationary law, for start states."""
        return InverseCdfTable(np.cumsum(self.pi)[None, :])

    def to_dict(self):
        return {
            "P": self.P.tolist(),
            "R": self.R.tolist(),
            "gamma": self.gamma,
        }

    def __repr__(self):
        return f"MarkovRewardProcess(n={self.n}, gamma={self.gamma})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the irreducibility/aperiodicity check."""

    irreducible: bool
    aperiodic: bool
    period: int
    not_reachable: tuple
    not_coreachable: tuple

    @property
    def ok(self) -> bool:
        return self.irreducible and self.aperiodic

    def describe(self) -> str:
        parts = []
        if not self.irreducible:
            parts.append(
                "not irreducible"
                + (f" (unreachable from state 0: {list(self.not_reachable)})" if self.not_reachable else "")
                + (f" (cannot reach state 0: {list(self.not_coreachable)})" if self.not_coreachable else "")
            )
        if not self.aperiodic:
            parts.append(f"not aperiodic (period {self.period})")
        return "; ".join(parts) if parts else "irreducible and aperiodic"


def _bfs(pos, start):
    """Breadth-first distances from ``start`` over the boolean adjacency
    ``pos`` (an edge u -> v where pos[u, v]); -1 where unreachable."""
    dist = np.full(pos.shape[0], -1, dtype=np.int64)
    frontier = np.zeros(pos.shape[0], dtype=bool)
    frontier[start] = True
    d = 0
    while frontier.any():
        dist[frontier] = d
        d += 1
        frontier = (frontier @ pos) & (dist < 0)
    return dist


def validate_chain(mrp: MarkovRewardProcess) -> ValidationReport:
    """Check Assumption-style chain structure: strong connectivity of the
    positive-transition graph and unit gcd of cycle lengths."""
    pos = mrp.P > 0.0
    dist_f = _bfs(pos, 0)
    dist_r = _bfs(pos.T, 0)
    not_reachable = tuple(int(s) for s in np.nonzero(dist_f < 0)[0])
    not_coreachable = tuple(int(s) for s in np.nonzero(dist_r < 0)[0])
    irreducible = not not_reachable and not not_coreachable

    # gcd of (dist[u] + 1 - dist[v]) over edges u->v equals the chain period
    # on the strongly connected part containing state 0; an edge out of a
    # reachable state ends in one
    u, v = np.nonzero(pos & (dist_f >= 0)[:, None])
    period = int(np.gcd.reduce(dist_f[u] + 1 - dist_f[v]))
    aperiodic = period == 1
    return ValidationReport(irreducible, aperiodic, period, not_reachable, not_coreachable)


def stationary_distribution(mrp: MarkovRewardProcess) -> np.ndarray:
    """Exact stationary distribution via a direct linear solve, read-only.

    Solves (P^T - I) pi = 0 with the last balance equation replaced by the
    normalization sum(pi) = 1. Requires the chain to pass validate_chain.
    """
    report = mrp.validation
    if not report.ok:
        raise ChainError(
            f"chain fails Assumption 1 ({report.describe()}); run validate_chain"
        )
    A = mrp.P.T - np.eye(mrp.n)
    A[-1, :] = 1.0
    b = np.zeros(mrp.n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ChainError(
            "stationary solve is singular; run validate_chain on the input chain"
        ) from exc
    if np.min(pi) <= 0.0:
        raise ChainError(
            "stationary solve produced a non-positive entry; run validate_chain"
        )
    pi = pi / pi.sum()
    resid = float(np.max(np.abs(pi @ mrp.P - pi)))
    if resid > 1e-10:
        raise ChainError(f"stationary residual {resid:.3e} exceeds 1e-10")
    pi.setflags(write=False)
    return pi


class ChainPowers:
    """The powers P^k of one chain and its TV curve d, extended one step at
    a time.

    ``d[k]`` = d(k) = max_x ||P^k(x, .) - pi||_TV for k = 0, 1, ..., with
    d(0) = 1 - min pi. d is non-increasing in k (Levin, Peres & Wilmer,
    *Markov Chains and Mixing Times*, ch. 4), so the last recorded value
    bounds every later step. Once a step's distance drops below the
    rounding-noise floor ``_TV_CLAMP``, its index is recorded as
    ``clamp_index`` and that entry and every later one are stored as
    ``_TV_CLAMP``, their upper bound; the powers keep advancing for callers
    that need them (the mixing oracle reads P^(k-1) before each step). Only
    the current power is held. Reading ``mrp.pi`` refuses a chain that fails
    Assumption 1. Unlike the other objects here it is mutable.
    """

    def __init__(self, mrp: MarkovRewardProcess):
        self.mrp = mrp
        self.d = [1.0 - float(mrp.pi.min())]
        self.power = np.eye(mrp.n)  # P^k after k steps; I @ P == P exactly
        self.clamp_index = None

    def step(self):
        self.power = self.power @ self.mrp.P
        tv = _TV_CLAMP
        if self.clamp_index is None:
            pi = self.mrp.pi
            tv = 0.5 * float(np.max(np.abs(self.power - pi[None, :]).sum(axis=1)))
            if tv < _TV_CLAMP:
                self.clamp_index = len(self.d)
                tv = _TV_CLAMP
        self.d.append(tv)

    def curve(self, horizon: int):
        """d(0..horizon), and whether d(horizon) is clamped."""
        if horizon < 2:
            raise ChainError(f"horizon must be at least 2, got {horizon}")
        while len(self.d) <= horizon:
            self.step()
        clamped = self.clamp_index is not None and self.clamp_index <= horizon
        return np.array(self.d[:horizon + 1]), clamped


def tv_mixing_profile(mrp: MarkovRewardProcess, horizon: int):
    """d(0..horizon) from exact matrix powers, and whether d(horizon) is
    clamped; see ``ChainPowers``."""
    return ChainPowers(mrp).curve(horizon)


# ---------------------------------------------------------------------------
# Named generators and config parsing


def cycle_mrp(n: int, epsilon: float, gamma: float = 0.5, rewards=None) -> MarkovRewardProcess:
    """Lazy random walk on an n-cycle: stay with probability epsilon, step to
    each neighbour with probability (1 - epsilon)/2."""
    n = integer("n", n, ChainError)
    if n < 1:
        raise ChainError(f"n must be at least 1, got {n}")
    if not (is_number(epsilon) and 0.0 < epsilon < 1.0):
        raise ChainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] += epsilon
        P[i, (i + 1) % n] += (1.0 - epsilon) / 2.0
        P[i, (i - 1) % n] += (1.0 - epsilon) / 2.0
    if rewards is None:
        rewards = np.cos(2.0 * np.pi * np.arange(n) / n)
    return MarkovRewardProcess(P, rewards, gamma)


def random_mrp(n: int, density: float, seed: int,
               gamma: float = 0.5) -> MarkovRewardProcess:
    """Random stochastic matrix with roughly `density` positive entries per
    row, rejection-sampled until the chain is irreducible and aperiodic.
    Rewards are drawn uniformly from [-1, 1]."""
    n, seed = integer("n", n, ChainError), integer("seed", seed, ChainError)
    if n < 1:
        raise ChainError(f"n must be at least 1, got {n}")
    if not (is_number(density) and 0.0 < density <= 1.0):
        raise ChainError(f"density must lie in (0, 1], got {density!r}")
    rng = generator(derive_seed(seed, 0x6D72))
    # a single positive entry per row makes every candidate deterministic,
    # which can never be both irreducible and aperiodic for n >= 2
    m = min(n, max(2, int(round(density * n)))) if n >= 2 else 1
    for _ in range(_MRP_TRIES):
        P = np.zeros((n, n))
        for i in range(n):
            cols = rng.permutation(n)[:m]
            w = rng.random(m) + 0.05
            P[i, cols] = w / w.sum()
        R = rng.uniform(-1.0, 1.0, size=n)
        mrp = MarkovRewardProcess(P, R, gamma)
        if mrp.validation.ok:
            return mrp
    raise ChainError(
        f"no irreducible aperiodic chain found in {_MRP_TRIES} tries "
        f"(n={n}, density={density})"
    )


def mrp_from_dict(cfg: dict) -> MarkovRewardProcess:
    """Build an MRP from a config mapping.

    Either explicit (keys: states, transitions, rewards, gamma) or generated
    (kind: cycle | random with the generator's parameters). Each kind asks
    for every key it knows, given or not: its keys are the keys it asks for.
    """
    kind = cfg.get("kind", "explicit")
    if kind == "explicit":
        mrp = MarkovRewardProcess(cfg["transitions"], cfg["rewards"], cfg["gamma"])
        if "states" in cfg and integer("states", cfg["states"], ChainError) != mrp.n:
            raise ChainError(f"config declares {cfg['states']} states but has "
                             f"{mrp.n} transition rows")
        return mrp
    if kind == "cycle":
        return cycle_mrp(cfg["n"], cfg["epsilon"], gamma=cfg.get("gamma", 0.5),
                         rewards=cfg.get("rewards"))
    if kind == "random":
        return random_mrp(cfg["n"], cfg["density"], cfg["seed"],
                          gamma=cfg.get("gamma", 0.5))
    raise ChainError(f"unknown chain kind {kind!r}")
