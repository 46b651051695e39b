"""Exact steady-state oracles for linear TD on a known chain.

Everything the finite-time analysis needs in closed form: the feature Gram
matrix and its smallest eigenvalue, the steady-state update operator and its
fixed point, the scale constants, and a certified mixing-time enumeration.
All computations are dense linear algebra on the exact chain; nothing here is
Monte Carlo.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import (
    _TV_CLAMP,
    ChainPowers,
    MarkovRewardProcess,
    generator,
    derive_seed,
    finite_array,
    integer,
)

_OMEGA_TOL = 1e-10
FIRST_HORIZON = 8  # the horizon a mixing-time search starts at and doubles from
MAX_HORIZON = 1 << 16  # the longest horizon a mixing-time search doubles to
# A stack of at most this many rows (n matrices of K rows) takes the plain
# batched SVD in `_largest_singular_value`: below it, measured on one core,
# the bounds cost more than the SVDs they save (K = 1 and 2 break even at
# n = 50-80, K = 3 near 20, K = 8 below 16).
_PRUNE_ROWS = 128
_FEATURE_TRIES = 50  # the draws ``random_features`` makes before it gives up


class FeatureError(ValueError):
    """Feature matrix violates rank or normalization requirements."""


class OracleError(RuntimeError):
    """Closed-form computation failed; usually an invalid input slipped through."""


class CertificationError(RuntimeError):
    """Mixing-time certification could not be completed at the given horizon."""


class FeatureMatrix:
    """Per-state feature rows phi(s), stacked into an n-by-K matrix.

    Entries must be finite, columns linearly independent (smallest singular
    value > 1e-10), and every row must satisfy ||phi(s)||^2 <= 1.
    """

    def __init__(self, Phi):
        Phi = finite_array("feature matrix Phi", Phi, FeatureError)
        if Phi.ndim != 2:
            raise FeatureError(f"feature matrix must be 2-D, got shape {Phi.shape}")
        n, K = Phi.shape
        if K < 1:
            raise FeatureError("need at least one feature column")
        sv = np.linalg.svd(Phi, compute_uv=False)
        if sv.size < K or sv.min() <= 1e-10:
            raise FeatureError(
                f"feature columns are rank deficient (smallest singular value "
                f"{sv.min():.3e})"
            )
        row_norms_sq = (Phi ** 2).sum(axis=1)
        worst = int(np.argmax(row_norms_sq))
        if row_norms_sq[worst] > 1.0 + 1e-12:
            raise FeatureError(
                f"row {worst} has squared norm {row_norms_sq[worst]:.6g} > 1"
            )
        self.Phi = Phi
        self.n = n
        self.K = K
        self.Phi.setflags(write=False)

    def to_dict(self):
        return {"Phi": self.Phi.tolist()}

    def __repr__(self):
        return f"FeatureMatrix(n={self.n}, K={self.K})"


def constant_features(n: int) -> FeatureMatrix:
    """A single all-ones feature; the Gram matrix is exactly 1."""
    return FeatureMatrix(np.ones((n, 1)))


def identity_features(n: int) -> FeatureMatrix:
    return FeatureMatrix(np.eye(n))


def group_features(n: int, K: int) -> FeatureMatrix:
    """Indicator features over K contiguous state groups."""
    K = integer("K", K, FeatureError)
    if not 1 <= K <= n:
        raise FeatureError(f"need 1 <= K <= n, got K={K}, n={n}")
    Phi = np.zeros((n, K))
    bounds = np.linspace(0, n, K + 1).astype(int)
    for g in range(K):
        Phi[bounds[g]:bounds[g + 1], g] = 1.0
    return FeatureMatrix(Phi)


def random_features(n: int, K: int, seed: int) -> FeatureMatrix:
    """Random features with orthonormal columns rescaled so every row has
    norm at most 1."""
    K, seed = integer("K", K, FeatureError), integer("seed", seed, FeatureError)
    if not 1 <= K <= n:
        raise FeatureError(f"need 1 <= K <= n, got K={K}, n={n}")
    rng = generator(derive_seed(seed, 0xFEA7))
    for _ in range(_FEATURE_TRIES):
        M = rng.normal(size=(n, K))
        Q, _ = np.linalg.qr(M)
        scale = float(np.sqrt((Q ** 2).sum(axis=1).max()))
        Phi = Q / (scale * (1.0 + 1e-12))
        try:
            return FeatureMatrix(Phi)
        except FeatureError:
            continue
    raise FeatureError(f"could not draw a valid feature matrix (n={n}, K={K})")


def features_from_dict(cfg: dict, n: int) -> FeatureMatrix:
    """The features of an n-state chain from a config mapping, explicit (Phi)
    or generated; each kind asks for every key it knows, given or not."""
    kind = cfg.get("kind", "explicit")
    if kind == "explicit":
        return FeatureMatrix(cfg["Phi"])
    if kind == "constant":
        return constant_features(n)
    if kind == "identity":
        return identity_features(n)
    if kind == "groups":
        return group_features(n, cfg["K"])
    if kind == "random":
        return random_features(n, cfg["K"], cfg.get("seed", 0))
    raise FeatureError(f"unknown feature kind {kind!r}")


def _steady_matrices(mrp: MarkovRewardProcess, features: FeatureMatrix):
    """The steady-state affine map: direction(theta) = A_bar theta + b_neg."""
    Phi, pi = features.Phi, mrp.pi
    G = (mrp.gamma * mrp.P - np.eye(mrp.n)) @ Phi
    A_bar = Phi.T @ (pi[:, None] * G)
    b_neg = Phi.T @ (pi * mrp.R)
    Sigma = Phi.T @ (pi[:, None] * Phi)
    Sigma = 0.5 * (Sigma + Sigma.T)
    return A_bar, b_neg, Sigma


class SteadyStateModel:
    """All closed-form quantities of one (chain, features) pair.

    Holds the steady-state operator A_bar theta + b_neg, the Gram matrix and
    its smallest eigenvalue omega, the fixed point theta_star and the scale
    sigma = max(1, r_bar, ||theta_star||). The iterate bound B also depends
    on theta0, so it belongs to the run: ``provider.bound_B``, read through
    ``ExperimentConfig.B`` and ``oracle_report``. ``mixing`` is the pair's
    mixing oracle, built on first use and extended on demand.
    """

    def __init__(self, mrp: MarkovRewardProcess, features: FeatureMatrix):
        if features.n != mrp.n:
            raise FeatureError(
                f"feature matrix has {features.n} rows for a {mrp.n}-state chain"
            )
        self.mrp = mrp
        self.features = features
        A_bar, b_neg, Sigma = _steady_matrices(mrp, features)
        omega = float(np.linalg.eigvalsh(Sigma)[0])
        if omega <= _OMEGA_TOL:
            raise FeatureError(
                f"Gram matrix is numerically rank deficient (omega={omega:.3e}); "
                "features rejected"
            )
        try:
            theta_star = np.linalg.solve(A_bar, -b_neg)
        except np.linalg.LinAlgError as exc:
            raise OracleError(
                "steady-state operator is singular "
                f"(condition number {np.linalg.cond(A_bar):.3e}); "
                "an invalid input slipped through validation"
            ) from exc
        resid = float(np.linalg.norm(A_bar @ theta_star + b_neg))
        if resid > 1e-10:
            raise OracleError(
                f"fixed-point residual {resid:.3e} exceeds 1e-10 "
                f"(condition number {np.linalg.cond(A_bar):.3e})"
            )
        self.A_bar = A_bar
        self.b_neg = b_neg
        self.Sigma = Sigma
        self.omega = omega
        self.theta_star = theta_star
        self.sigma_const = float(max(1.0, mrp.r_bar, np.linalg.norm(theta_star)))
        for a in (self.A_bar, self.b_neg, self.Sigma, self.theta_star):
            a.setflags(write=False)
        self._b_tile = b_neg[:, None]

    @property
    def K(self):
        return self.features.K

    @cached_property
    def mixing(self) -> "MixingOracle":
        return MixingOracle(self.mrp, self.features)

    @property
    def contraction_rate(self) -> float:
        """The drift modulus omega * (1 - gamma)."""
        return self.omega * (1.0 - self.mrp.gamma)

    def b_neg_lanes(self, lanes: int) -> np.ndarray:
        """b_neg as (K, lanes) columns, kept for the last lane count: adding a
        whole tile runs about 2x faster than broadcasting a (K, 1) column."""
        tile = self._b_tile
        if tile.shape[1] != lanes:
            tile = np.tile(self.b_neg[:, None], (1, lanes))
            tile.setflags(write=False)
            self._b_tile = tile
        return tile

    def value_error_D(self, theta):
        """Stationary-weighted squared value error (theta - theta*)^T Sigma (...)
        of each row of a (lanes, K) batch."""
        diff = np.asarray(theta, dtype=float) - self.theta_star
        return np.einsum("ij,jk,ik->i", diff, self.Sigma, diff)


def build_steady_state(mrp: MarkovRewardProcess, features: FeatureMatrix) -> SteadyStateModel:
    return SteadyStateModel(mrp, features)


def steady_state_direction(model: SteadyStateModel, theta):
    """The expected update direction under the stationary law, A_bar theta + b_neg.

    Takes a float (K, lanes) batch, one column per parameter (a single
    vector v is the one-lane batch ``v[:, None]``), and returns its shape.
    """
    out = model.A_bar @ theta
    out += model.b_neg_lanes(theta.shape[1])
    return out


def lemma1_margin(model: SteadyStateModel, theta):
    """Slack of the pseudo-gradient inequality at theta.

    Returns <theta* - theta, direction(theta)> - omega (1 - gamma)
    ||theta* - theta||^2, which is nonnegative (within 1e-10) for every theta:
    one margin per column of a float (K, lanes) batch, as a (lanes,) array.
    """
    gbar = steady_state_direction(model, theta)
    diff = model.theta_star[:, None] - theta
    return (np.sum(diff * gbar, axis=0)
            - model.contraction_rate * np.sum(diff ** 2, axis=0))


def _largest_singular_value(A: np.ndarray) -> float:
    """max_s sigma_max(A[s]) over an (n, K, K) stack, bit for bit
    ``np.linalg.svd(A, compute_uv=False)[:, 0].max()``.

    Stacks of more than ``_PRUNE_ROWS`` rows SVD only the matrices that can
    hold the maximum. With m_s = max |A[s]| and B_s = A[s] / m_s, the bound
    ub_s = m_s ||(B_s^T B_s)^4||_F^(1/8) lies in [1, K^(1/16)] times
    sigma_max(A[s]); scaling by the largest entry keeps the fourth power off
    underflow (sigma_max(B_s) >= 1), and a zero matrix has ub_s = 0. The
    argmax-ub matrix is SVD'd alone for ``lead``, and the batched SVD runs
    on the others with ub_s (1 + 1e-6) >= lead. Each matrix's SVD is the same
    LAPACK call in any batch, and a pruned matrix's computed sigma lies below
    ``lead`` by far more than rounding, so the maximum keeps every bit; ties
    survive the cut.
    """
    n, K, _ = A.shape
    if n * K <= _PRUNE_ROWS:
        return float(np.linalg.svd(A, compute_uv=False)[:, 0].max())
    scale = np.abs(A).max(axis=(1, 2))
    B = A / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    G = B.transpose(0, 2, 1) @ B
    G = G @ G
    G = G @ G
    ub = scale * np.einsum("sij,sij->s", G, G) ** (1.0 / 16.0)
    top = int(np.argmax(ub))
    lead = np.linalg.svd(A[top:top + 1], compute_uv=False)[0, 0]
    keep = ub * (1.0 + 1e-6) >= lead
    keep[top] = False
    if keep.any():
        lead = max(lead, np.linalg.svd(A[keep], compute_uv=False)[:, 0].max())
    return float(lead)


@dataclass(frozen=True)
class MixingTimeCertificate:
    """Certified mixing time at one precision.

    ``margin_curve[k-1]`` bounds the worst-case normalized deviation of the
    k-step conditional expected direction from its steady-state value for
    k = 1..``horizon_checked`` = H, and ``tail_bound`` = 2 G d(H) bounds it
    for every k > H: the deviation at step k is at most 2 G d(k-1), with G
    its scale and d the chain's non-increasing TV curve (``ChainPowers``).
    Every entry from tau on, and the tail bound, are at most epsilon.
    """

    epsilon: float
    tau: int
    horizon_checked: int
    margin_curve: np.ndarray
    tail_bound: float
    method: str = "exact-linear"

    def __post_init__(self):
        self.margin_curve.setflags(write=False)


class MixingOracle:
    """Certified mixing times of one (chain, features) pair.

    Two curves serve the queries, both independent of epsilon, so they are
    computed once and extended on demand: linear TD's exact worst-case
    deviation (``certify``) and the chain's TV curve d (``certify_tv``, for
    operators with no closed conditional form). A query searches the curves
    recorded out to a horizon H, starting at ``FIRST_HORIZON`` and doubling;
    a longer horizon continues the matrix powers where they stopped. One
    ``ChainPowers`` advances both curves in step, whichever kind asked: each
    step records the deviation at k, read off P^(k-1), and then d(k). So
    one n-by-n power and the 1-D curves are held.
    """

    def __init__(self, mrp: MarkovRewardProcess, features: FeatureMatrix):
        self._powers = ChainPowers(mrp)  # refuses a chain failing Assumption 1
        self.mrp = mrp
        self.features = features
        Phi = features.Phi
        M = (mrp.gamma * mrp.P - np.eye(mrp.n)) @ Phi
        # row s is phi(s) M[s]^T flattened, so a deviation step is one GEMM
        self._Z = (Phi[:, :, None] * M[:, None, :]).reshape(mrp.n, -1)
        phi_norms = np.linalg.norm(Phi, axis=1)
        self._G_tail = float(max((phi_norms * np.linalg.norm(M, axis=1)).max(),
                                 (phi_norms * np.abs(mrp.R)).max()))
        self._dev = []

    def _deviation(self, Q) -> float:
        """max(||Phi^T (D_k - D)(gamma P - I) Phi||_op, ||Phi^T (D_k - D) R||)
        over initial tuples, with Q = P^(k-1): conditioning on X_0 reduces to
        the next state s_1. The n operator matrices are one GEMM, and the
        largest of their norms is ``_largest_singular_value``'s pruned SVD,
        bit for bit the full batched one."""
        Phi = self.features.Phi
        W = Q - self.mrp.pi[None, :]
        A_t = (W @ self._Z).reshape(-1, self.features.K, self.features.K)
        vec = np.linalg.norm((W * self.mrp.R[None, :]) @ Phi, axis=1)
        return max(_largest_singular_value(A_t), float(vec.max()))

    def _curves(self, H: int):
        """The deviation curve for k = 1..H, and ``ChainPowers.curve(H)``:
        d(0..H) and whether d(H) is clamped."""
        while len(self._dev) < H:
            self._dev.append(self._deviation(self._powers.power))
            self._powers.step()
        return (np.array(self._dev[:H]), *self._powers.curve(H))

    def certify(self, epsilon: float) -> "MixingTimeCertificate":
        """Smallest certified tau(epsilon) of linear TD; see ``mixing_time``."""
        two_G = 2.0 * self._G_tail
        return self._search(epsilon, "exact-linear",
                            lambda dev, d: (dev, two_G * d[-1]))

    def certify_tv(self, lipschitz_scale: float,
                   epsilon: float) -> "MixingTimeCertificate":
        """Smallest tau with 2 G d(k-1) <= epsilon for every k >= tau, G the
        operator's Lipschitz scale (L sigma): the bound on the k-step
        deviation of an operator with no closed conditional form. The search
        is ``certify``'s; its curve is 2 G d(k-1) for k = 1..H."""
        two_G = 2.0 * float(lipschitz_scale)
        return self._search(epsilon, "tv-monotone",
                            lambda dev, d: (two_G * d[:-1], two_G * d[-1]))

    def _search(self, epsilon, method, bound) -> MixingTimeCertificate:
        """The first tau whose suffix of the curve is at most epsilon, with
        ``bound(dev, d)`` giving the curve for k = 1..H and the tail bound
        2 G d(H) past H. Starts at ``FIRST_HORIZON`` and doubles up to
        ``MAX_HORIZON``; refuses at once when the tail fails on a clamped
        d(H), which no longer horizon can lower."""
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        H = FIRST_HORIZON
        while True:
            dev, d, clamped = self._curves(H)
            curve, tail = bound(dev, d)
            ok = np.flatnonzero(np.maximum.accumulate(curve[::-1])[::-1] <= epsilon)
            if ok.size and tail <= epsilon:
                return MixingTimeCertificate(
                    epsilon=float(epsilon), tau=int(ok[0]) + 1, horizon_checked=H,
                    margin_curve=curve, tail_bound=float(tail), method=method,
                )
            if tail > epsilon and clamped:
                raise CertificationError(
                    f"cannot certify epsilon={epsilon:.3e}: the tail bound past "
                    f"horizon {H} is {tail:.3e}, set by the TV rounding floor "
                    f"{_TV_CLAMP:.0e}")
            if H >= MAX_HORIZON:
                raise CertificationError(
                    f"cannot certify epsilon={epsilon:.3e} within horizon {H}")
            H = min(H * 2, MAX_HORIZON)


def mixing_time(mrp: MarkovRewardProcess, features: FeatureMatrix,
                epsilon: float) -> MixingTimeCertificate:
    """Smallest certified t such that the conditional expected TD direction is
    epsilon-close to steady state, uniformly over theta and the initial tuple,
    for every k >= t.

    For linear TD the uniform-over-theta condition reduces exactly to an
    operator-norm condition per step, enumerated out to a finite horizon H;
    past H the deviation is at most 2 G d(H), the recorded TV distance at H,
    because d is non-increasing. The search starts at ``FIRST_HORIZON`` and
    doubles up to ``MAX_HORIZON``. This computes from scratch on a fresh
    oracle; a model's ``mixing`` oracle reuses its curves across queries.
    """
    return MixingOracle(mrp, features).certify(epsilon)


def oracle_report(provider, theta0=None, eps_grid=(1e-1, 1e-2, 1e-3, 1e-4)) -> dict:
    """Full structured oracle summary for experiment provenance: the
    closed-form quantities of the provider's model, the provider's certified
    tau per epsilon (the certificate its step-size rule uses), and its
    theta_star, sigma and iterate bound B (``provider.bound_B``) from
    ``theta0`` (zeros if None) of the provider's dimension."""
    model = provider.model
    theta0 = provider.initial_theta(theta0)
    certs = [(float(eps), provider.certify(eps)) for eps in eps_grid]
    return {
        "n": model.mrp.n,
        "K": model.K,
        "gamma": model.mrp.gamma,
        "r_bar": model.mrp.r_bar,
        "pi": model.mrp.pi.tolist(),
        "A_bar": model.A_bar.tolist(),
        "b_neg": model.b_neg.tolist(),
        "Sigma": model.Sigma.tolist(),
        "omega": model.omega,
        "theta_star": provider.theta_star.tolist(),
        "sigma": provider.sigma_const,
        "theta0": theta0.tolist(),
        "B": provider.bound_B(theta0),
        "tau_table": [{"epsilon": eps, "tau": c.tau, "horizon_checked": c.horizon_checked}
                      for eps, c in certs],
    }
