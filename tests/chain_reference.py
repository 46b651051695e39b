"""Plain-Python references for the chain module's seed hashing, chain
validation and sampler table, and a sampled check of the chain's D-norm
contraction.

``derive_seed`` hashes Python ints one at a time with splitmix64 masked to 64
bits, and ``validate_chain`` walks adjacency lists breadth first and folds
the period edge by edge with ``math.gcd``; the library does both on numpy
arrays. ``inverse_cdf_table`` searches each row at every bucket edge, where
the library counts integer marks in run-length passes.
"""

from math import gcd

import numpy as np

from tdcert import chain
from tdcert.chain import ValidationReport

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    z = _splitmix64(master_seed & _MASK64)
    for ix in indices:
        z = _splitmix64((z ^ _splitmix64(ix & _MASK64)) & _MASK64)
    return z


def _bfs(adj_rows, start):
    dist = np.full(len(adj_rows), -1, dtype=np.int64)
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


def validate_chain(mrp) -> ValidationReport:
    pos = mrp.P > 0.0
    fwd = [np.nonzero(pos[u])[0] for u in range(mrp.n)]
    rev = [np.nonzero(pos[:, u])[0] for u in range(mrp.n)]
    dist_f = _bfs(fwd, 0)
    dist_r = _bfs(rev, 0)
    not_reachable = tuple(int(s) for s in np.nonzero(dist_f < 0)[0])
    not_coreachable = tuple(int(s) for s in np.nonzero(dist_r < 0)[0])
    irreducible = not not_reachable and not not_coreachable
    g = 0
    for u in range(mrp.n):
        if dist_f[u] < 0:
            continue
        for v in fwd[u]:
            if dist_f[v] >= 0:
                g = gcd(g, int(dist_f[u]) + 1 - int(dist_f[v]))
    period = abs(g) if g != 0 else 0
    return ValidationReport(irreducible, period == 1, period, not_reachable,
                            not_coreachable)


def inverse_cdf_table(cum):
    """``InverseCdfTable(cum)``'s B and flat table, two ``searchsorted``
    calls per row: a bucket's count (capped at n - 1) at its left edge and
    just below its right edge, or -1 where the two differ. B is the larger
    of the first power of two at or above 16n and the largest power of two
    whose n rows fit in 2^18 cells."""
    cum = np.asarray(cum, dtype=float)
    m, n = cum.shape
    B = 1
    while B < 16 * n or n * 2 * B <= 1 << 18:
        B *= 2
    edges = np.arange(B + 1) / B
    dtype = np.int8 if n <= 127 else np.int16 if n <= 32767 else np.int32
    table = np.empty((m, B), dtype=dtype)
    for i, row in enumerate(cum):
        # count at the bucket's left edge and just below its right edge
        lo = np.minimum(np.searchsorted(row, edges[:-1], side="right"), n - 1)
        hi = np.minimum(np.searchsorted(row, edges[1:], side="left"), n - 1)
        table[i] = np.where(lo == hi, lo, -1)
    return B, table.reshape(-1)


def dnorm_contraction_margin(mrp, sample_count: int, seed: int) -> float:
    """Largest observed violation of ||P x||_D <= ||x||_D over random vectors,
    D the chain's own stationary law.

    Nonpositive (within 1e-12) for any valid chain.
    """
    rng = chain.generator(chain.derive_seed(seed, 0xD0A7))
    X = rng.normal(size=(int(sample_count), mrp.n))
    pi = mrp.pi
    before = np.sqrt((X ** 2 * pi).sum(axis=1))
    after = np.sqrt(((X @ mrp.P.T) ** 2 * pi).sum(axis=1))
    return float(np.max(after - before))
