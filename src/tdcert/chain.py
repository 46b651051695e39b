"""Finite Markov reward processes.

Validation of the irreducibility/aperiodicity assumption, exact stationary
distributions, total-variation mixing profiles with certified geometric
envelopes, and the exact table sampler of transitions. Everything here is
deterministic given its seed; all objects are immutable after construction
and safe to share across threads.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

_MASK64 = (1 << 64) - 1
_ROW_SUM_TOL = 1e-9
# below this the matrix-power differences are dominated by rounding noise,
# so the curve is clamped to 0 and the clamp index recorded
_TV_CLAMP = 1e-13


class ChainError(ValueError):
    """Malformed transition structure or a failed chain assumption."""


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Hash a master seed and an index path into an independent stream seed.

    Used everywhere a per-trial or per-component stream is split off a master
    seed, so parallel trials are independent by construction.
    """
    z = _splitmix64(master_seed & _MASK64)
    for ix in indices:
        z = _splitmix64((z ^ _splitmix64(ix & _MASK64)) & _MASK64)
    return z


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator for the given stream seed: Philox keyed by
    ``stream_key(seed)``, its counter at zero."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed)))


def stream_key(seed: int) -> int:
    """The Philox key of the stream ``generator(seed)``."""
    return seed & _MASK64


class InverseCdfTable:
    """Exact inverse-CDF sampling for a batch of lanes, by table lookup.

    ``pick(u, rows)`` returns ``min(#{j : cum[row, j] <= u}, n - 1)`` for
    each lane, the same index as comparing u with its whole row. Each row's
    count of cells at or below u is a step function of u; the table records
    it per bucket of [0, 1), cut into B = 2^ceil(log2 16n) (at least 256)
    equal buckets. B is a power of two, so ``u * B`` is exact and its floor
    is the bucket that holds u. A bucket whose count (capped at n - 1) is
    the same at both ends answers for every u in it; a bucket that a CDF
    value splits is marked -1, and only the lanes that land in one compare u
    with their row. Uniforms must lie in [0, 1), as ``Generator.random``
    draws them.
    """

    def __init__(self, cum):
        cum = np.asarray(cum, dtype=float)
        m, n = cum.shape
        B = max(256, 1 << (16 * n - 1).bit_length())
        edges = np.arange(B + 1) / B
        dtype = np.int8 if n <= 127 else np.int16 if n <= 32767 else np.int32
        table = np.empty((m, B), dtype=dtype)
        for i, row in enumerate(cum):
            # count at the bucket's left edge and just below its right edge
            lo = np.minimum(np.searchsorted(row, edges[:-1], side="right"), n - 1)
            hi = np.minimum(np.searchsorted(row, edges[1:], side="left"), n - 1)
            table[i] = np.where(lo == hi, lo, -1)
        self.cum = cum
        self.n = n
        self.B = B
        self.table = table.reshape(-1)
        self.table.setflags(write=False)

    def pick(self, u, rows=None):
        """Sampled cell per lane for uniforms ``u`` in rows ``rows`` (integer
        array aligned with u; None for a one-row table)."""
        cell = (u * self.B).astype(np.intp)
        if rows is not None:
            cell += rows * self.B
        idx = self.table.take(cell).astype(np.intp)
        split = np.flatnonzero(idx < 0)
        if split.size:
            cum = self.cum[0] if rows is None else self.cum.take(rows.take(split), axis=0)
            count = (cum <= u.take(split)[:, None]).sum(axis=1)
            idx[split] = np.minimum(count, self.n - 1)
        return idx


class MarkovRewardProcess:
    """A finite MRP: row-stochastic transitions, expected per-state rewards,
    and a discount factor strictly inside (0, 1).

    Rows of the transition matrix must sum to 1 within 1e-9 on input and are
    renormalized exactly; the matrix is then frozen. ``r_bar`` is the largest
    absolute reward, recomputed at construction. Because the process is
    immutable, its validation report, stationary law and batch transition
    sampler are computed once, on first use (``validation``, ``stationary``,
    ``sampler``); an invalid chain raises from ``stationary`` on every access.
    """

    def __init__(self, P, R, gamma):
        P = np.array(P, dtype=float)
        R = np.array(R, dtype=float).reshape(-1)
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
        if not (0.0 < float(gamma) < 1.0):
            raise ChainError(f"gamma must lie strictly in (0, 1), got {gamma}")
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
    def stationary(self) -> "StationaryDistribution":
        return stationary_distribution(self)

    @cached_property
    def sampler(self) -> InverseCdfTable:
        """Batch transition sampler over the rows of ``cum_P``."""
        return InverseCdfTable(self.cum_P)

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


def _bfs(adj_rows, start):
    n = len(adj_rows)
    dist = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj_rows[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def validate_chain(mrp: MarkovRewardProcess) -> ValidationReport:
    """Check Assumption-style chain structure: strong connectivity of the
    positive-transition graph and unit gcd of cycle lengths."""
    pos = mrp.P > 0.0
    fwd = [np.nonzero(pos[u])[0] for u in range(mrp.n)]
    rev = [np.nonzero(pos[:, u])[0] for u in range(mrp.n)]
    dist_f = _bfs(fwd, 0)
    dist_r = _bfs(rev, 0)
    not_reachable = tuple(int(s) for s in np.nonzero(dist_f < 0)[0])
    not_coreachable = tuple(int(s) for s in np.nonzero(dist_r < 0)[0])
    irreducible = not not_reachable and not not_coreachable

    # gcd of (dist[u] + 1 - dist[v]) over edges u->v equals the chain period
    # on the strongly connected part containing state 0.
    g = 0
    for u in range(mrp.n):
        if dist_f[u] < 0:
            continue
        for v in fwd[u]:
            if dist_f[v] >= 0:
                g = gcd(g, int(dist_f[u]) + 1 - int(dist_f[v]))
    period = abs(g) if g != 0 else 0
    aperiodic = period == 1
    return ValidationReport(irreducible, aperiodic, period, not_reachable, not_coreachable)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary law pi of a chain."""

    pi: np.ndarray

    def __post_init__(self):
        self.pi.setflags(write=False)


def stationary_distribution(mrp: MarkovRewardProcess) -> StationaryDistribution:
    """Exact stationary distribution via a direct linear solve.

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
    return StationaryDistribution(pi=pi)


@dataclass(frozen=True)
class MixingProfile:
    """Total-variation decay curve with a certified geometric envelope.

    The envelope satisfies tv_curve[k-1] <= c0 * rho**k for every recorded k;
    c0 = tv_1 / rho anchors it at k = 1, and rho is the smallest value from
    |lambda_2| up for which it dominates the whole recorded curve, so the
    bound is certified rather than least-squares.
    """

    rho: float
    c0: float
    tv_curve: np.ndarray
    clamp_index: int | None
    lambda2: float

    def __post_init__(self):
        self.tv_curve.setflags(write=False)


def _second_eigenvalue_magnitude(P) -> float:
    eig = np.linalg.eigvals(P)
    mags = np.sort(np.abs(eig))[::-1]
    return float(mags[1]) if mags.shape[0] > 1 else 0.0


class ChainPowers:
    """The powers P^k of one chain and their worst-case total-variation
    distances to stationarity, extended one step at a time.

    Only the current power is held. ``tv_curve[k-1]`` is the distance at
    P^k; once it drops below the rounding-noise floor the rest of the curve
    is 0 and the clamp index is recorded, while the powers keep advancing for
    callers that need them (the mixing oracle reads P^(k-1) before each step).
    Unlike the other objects here it is mutable; the oracle serialises its use.
    """

    def __init__(self, mrp: MarkovRewardProcess):
        self.mrp = mrp
        self.power = np.eye(mrp.n)  # P^k after k steps; I @ P == P exactly
        self.tv_curve = []
        self.clamp_index = None
        self.lambda2 = _second_eigenvalue_magnitude(mrp.P)

    def step(self):
        self.power = self.power @ self.mrp.P
        tv = 0.0
        if self.clamp_index is None:
            pi = self.mrp.stationary.pi
            tv = 0.5 * float(np.max(np.abs(self.power - pi[None, :]).sum(axis=1)))
            if tv < _TV_CLAMP:
                self.clamp_index = len(self.tv_curve) + 1
                tv = 0.0
        self.tv_curve.append(tv)

    def profile(self, horizon: int) -> MixingProfile:
        """The TV curve for k = 1..horizon with its certified envelope."""
        if horizon < 2:
            raise ChainError(f"horizon must be at least 2, got {horizon}")
        while len(self.tv_curve) < horizon:
            self.step()
        curve = np.array(self.tv_curve[:horizon])
        clamp_index = (self.clamp_index if self.clamp_index is not None
                       and self.clamp_index <= horizon else None)
        lambda2 = self.lambda2
        if float(curve.max(initial=0.0)) <= 1e-15:
            return MixingProfile(0.0, 0.0, curve, clamp_index, lambda2)

        # the smallest rho >= |lambda_2| with tv_k <= tv_1 rho^(k-1) for every k
        ks = np.arange(1, horizon + 1, dtype=float)
        rho = float(max(lambda2, 1e-6,
                        ((curve[1:] / curve[0]) ** (1.0 / (ks[1:] - 1.0))).max()))
        if rho >= 1.0:
            raise ChainError("could not fit a certified geometric envelope below rho = 1")
        c0 = float(curve[0] / rho)
        if not np.all(curve <= c0 * rho ** ks * (1.0 + 1e-12) + 1e-300):
            raise ChainError(f"envelope rho={rho!r} fails to dominate the TV curve")
        return MixingProfile(rho, c0, curve, clamp_index, lambda2)


def tv_mixing_profile(mrp: MarkovRewardProcess, horizon: int) -> MixingProfile:
    """Worst-case total-variation distance to stationarity for k = 1..horizon,
    from exact matrix powers, plus a fitted certified envelope."""
    return ChainPowers(mrp).profile(horizon)


# ---------------------------------------------------------------------------
# Named generators and config parsing


def cycle_mrp(n: int, epsilon: float, gamma: float = 0.5, rewards=None) -> MarkovRewardProcess:
    """Lazy random walk on an n-cycle: stay with probability epsilon, step to
    each neighbour with probability (1 - epsilon)/2."""
    if not (0.0 < epsilon < 1.0):
        raise ChainError(f"epsilon must lie in (0, 1), got {epsilon}")
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] += epsilon
        P[i, (i + 1) % n] += (1.0 - epsilon) / 2.0
        P[i, (i - 1) % n] += (1.0 - epsilon) / 2.0
    if rewards is None:
        rewards = np.cos(2.0 * np.pi * np.arange(n) / max(n, 1))
    return MarkovRewardProcess(P, rewards, gamma)


def random_mrp(n: int, density: float, seed: int, gamma: float = 0.5,
               max_tries: int = 500) -> MarkovRewardProcess:
    """Random stochastic matrix with roughly `density` positive entries per
    row, rejection-sampled until the chain is irreducible and aperiodic.
    Rewards are drawn uniformly from [-1, 1]."""
    if not (0.0 < density <= 1.0):
        raise ChainError(f"density must lie in (0, 1], got {density}")
    rng = generator(derive_seed(seed, 0x6D72))
    # a single positive entry per row makes every candidate deterministic,
    # which can never be both irreducible and aperiodic for n >= 2
    m = min(n, max(2, int(round(density * n)))) if n >= 2 else 1
    for _ in range(max_tries):
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
        f"no irreducible aperiodic chain found in {max_tries} tries "
        f"(n={n}, density={density})"
    )


def mrp_from_dict(cfg: dict) -> MarkovRewardProcess:
    """Build an MRP from a config mapping.

    Either explicit (keys: states, transitions, rewards, gamma) or generated
    (kind: cycle | random with the generator's parameters).
    """
    kind = cfg.get("kind", "explicit")
    if kind == "explicit":
        P = cfg["transitions"]
        R = cfg["rewards"]
        gamma = cfg["gamma"]
        if "states" in cfg and int(cfg["states"]) != len(P):
            raise ChainError(
                f"config declares {cfg['states']} states but has {len(P)} transition rows"
            )
        return MarkovRewardProcess(P, R, gamma)
    if kind == "cycle":
        return cycle_mrp(int(cfg["n"]), float(cfg["epsilon"]),
                         gamma=float(cfg.get("gamma", 0.5)),
                         rewards=cfg.get("rewards"))
    if kind == "random":
        return random_mrp(int(cfg["n"]), float(cfg["density"]), int(cfg["seed"]),
                          gamma=float(cfg.get("gamma", 0.5)))
    raise ChainError(f"unknown chain kind {kind!r}")
