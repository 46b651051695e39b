"""Exact steady-state oracles for linear TD on a known chain.

Everything the finite-time analysis needs in closed form: the feature Gram
matrix and its smallest eigenvalue, the steady-state update operator and its
fixed point, the scale constants, and a certified mixing-time enumeration.
All computations are dense linear algebra on the exact chain; nothing here is
Monte Carlo.
"""

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import (
    ChainError,
    ChainPowers,
    MarkovRewardProcess,
    MixingProfile,
    StationaryDistribution,
    generator,
    derive_seed,
)

_OMEGA_TOL = 1e-10


class FeatureError(ValueError):
    """Feature matrix violates rank or normalization requirements."""


class OracleError(RuntimeError):
    """Closed-form computation failed; usually an invalid input slipped through."""


class CertificationError(RuntimeError):
    """Mixing-time certification could not be completed at the given horizon."""

    def __init__(self, message, required_horizon=None):
        super().__init__(message)
        self.required_horizon = required_horizon


class FeatureMatrix:
    """Per-state feature rows phi(s), stacked into an n-by-K matrix.

    Columns must be linearly independent (smallest singular value > 1e-10)
    and every row must satisfy ||phi(s)||^2 <= 1. ``PhiT`` is the contiguous
    K-by-n transpose, whose columns the lanes-last kernel gathers.
    """

    def __init__(self, Phi):
        Phi = np.array(Phi, dtype=float)
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
        self.PhiT = np.ascontiguousarray(Phi.T)
        self.n = n
        self.K = K
        self.Phi.setflags(write=False)
        self.PhiT.setflags(write=False)

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
    if not 1 <= K <= n:
        raise FeatureError(f"need 1 <= K <= n, got K={K}, n={n}")
    Phi = np.zeros((n, K))
    bounds = np.linspace(0, n, K + 1).astype(int)
    for g in range(K):
        Phi[bounds[g]:bounds[g + 1], g] = 1.0
    return FeatureMatrix(Phi)


def random_features(n: int, K: int, seed: int, max_tries: int = 50) -> FeatureMatrix:
    """Random features with orthonormal columns rescaled so every row has
    norm at most 1."""
    rng = generator(derive_seed(seed, 0xFEA7))
    for _ in range(max_tries):
        M = rng.normal(size=(n, K))
        Q, _ = np.linalg.qr(M)
        Q = Q[:, :K]
        scale = float(np.sqrt((Q ** 2).sum(axis=1).max()))
        Phi = Q / (scale * (1.0 + 1e-12))
        try:
            return FeatureMatrix(Phi)
        except FeatureError:
            continue
    raise FeatureError(f"could not draw a valid feature matrix (n={n}, K={K})")


def features_from_dict(cfg: dict, n: int) -> FeatureMatrix:
    kind = cfg.get("kind", "explicit")
    if kind == "explicit":
        return FeatureMatrix(cfg["Phi"])
    if kind == "constant":
        return constant_features(n)
    if kind == "identity":
        return identity_features(n)
    if kind == "groups":
        return group_features(n, int(cfg["K"]))
    if kind == "random":
        return random_features(n, int(cfg["K"]), int(cfg.get("seed", 0)))
    raise FeatureError(f"unknown feature kind {kind!r}")


def _steady_matrices(mrp: MarkovRewardProcess, features: FeatureMatrix,
                     pi: np.ndarray):
    """The steady-state affine map: direction(theta) = A_bar theta + b_neg."""
    Phi = features.Phi
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
    on theta0, so it belongs to the run: ``sa_core.bound_B``, read through
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
        self.stationary = mrp.stationary
        pi = self.stationary.pi
        A_bar, b_neg, Sigma = _steady_matrices(mrp, features, pi)
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
        """Stationary-weighted squared value error (theta - theta*)^T Sigma (...)."""
        diff = np.asarray(theta, dtype=float) - self.theta_star
        if diff.ndim == 1:
            return float(diff @ self.Sigma @ diff)
        return np.einsum("ij,jk,ik->i", diff, self.Sigma, diff)


def build_steady_state(mrp: MarkovRewardProcess, features: FeatureMatrix) -> SteadyStateModel:
    return SteadyStateModel(mrp, features)


def steady_state_direction(model: SteadyStateModel, theta):
    """The expected update direction under the stationary law, A_bar theta + b_neg.

    Accepts a single parameter vector or a (K, lanes) batch, one column per
    parameter.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        return model.A_bar @ theta + model.b_neg
    out = model.A_bar @ theta
    out += model.b_neg_lanes(theta.shape[1])
    return out


def lemma1_margin(model: SteadyStateModel, theta):
    """Slack of the pseudo-gradient inequality at theta.

    Returns <theta* - theta, direction(theta)> - omega (1 - gamma)
    ||theta* - theta||^2, which is nonnegative (within 1e-10) for every theta;
    one margin per column of a (K, lanes) batch.
    """
    theta = np.asarray(theta, dtype=float)
    gbar = steady_state_direction(model, theta)
    rate = model.contraction_rate
    if theta.ndim == 1:
        diff = model.theta_star - theta
        return float(diff @ gbar - rate * np.sum(diff ** 2))
    diff = model.theta_star[:, None] - theta
    return np.sum(diff * gbar, axis=0) - rate * np.sum(diff ** 2, axis=0)


@dataclass(frozen=True)
class MixingTimeCertificate:
    """Certified mixing time at one precision.

    ``margin_curve[k-1]`` is the worst-case normalized deviation of the
    k-step conditional expected direction from its steady-state value, so the
    certificate can be re-checked: every entry from tau on is at most epsilon.
    The tail beyond ``horizon_checked`` is covered by the geometric envelope
    ``tail_coeff * tail_rho ** (k - 1)``, documented here rather than
    enumerated (the envelope argument, not enumeration, certifies the
    infinite tail).
    """

    epsilon: float
    tau: int
    horizon_checked: int
    margin_curve: np.ndarray
    tail_coeff: float
    tail_rho: float
    method: str = "exact-linear"

    def __post_init__(self):
        self.margin_curve.setflags(write=False)

    def recheck(self) -> bool:
        tail_ok = (self.tail_rho <= 0.0
                   or self.tail_coeff * self.tail_rho ** self.horizon_checked
                   <= self.epsilon)
        return bool(np.all(self.margin_curve[self.tau - 1:] <= self.epsilon)
                    and self.tau >= 1 and tail_ok)


class MixingOracle:
    """Certified mixing times of one (chain, features) pair.

    The worst-case deviation curve does not depend on epsilon, so it is
    computed once and extended on demand: a query is a suffix-max lookup, and
    a longer horizon continues the matrix powers where they stopped. The TV
    profile is read off the same powers, and its fitted envelope is kept per
    checked horizon. Only the current power and the 1-D curves are held.
    """

    def __init__(self, mrp: MarkovRewardProcess, features: FeatureMatrix):
        report = mrp.validation
        if not report.ok:
            raise ChainError(f"chain fails Assumption 1 ({report.describe()})")
        self.mrp = mrp
        self.features = features
        self._pi = mrp.stationary.pi
        Phi = features.Phi
        M = (mrp.gamma * mrp.P - np.eye(mrp.n)) @ Phi
        # row s is phi(s) M[s]^T flattened, so a deviation step is one GEMM
        self._Z = (Phi[:, :, None] * M[:, None, :]).reshape(mrp.n, -1)
        phi_norms = np.linalg.norm(Phi, axis=1)
        self._G_tail = float(max((phi_norms * np.linalg.norm(M, axis=1)).max(),
                                 (phi_norms * np.abs(mrp.R)).max()))
        self._powers = ChainPowers(mrp)
        self._dev = []
        self._at = {}  # horizon -> (dev curve, its suffix max, TV profile)
        self._lock = threading.Lock()

    def _deviation(self, Q) -> float:
        """max(||Phi^T (D_k - D)(gamma P - I) Phi||_op, ||Phi^T (D_k - D) R||)
        over initial tuples, with Q = P^(k-1): conditioning on X_0 reduces to
        the next state s_1."""
        Phi = self.features.Phi
        W = Q - self._pi[None, :]
        A_t = (W @ self._Z).reshape(-1, self.features.K, self.features.K)
        op = np.linalg.svd(A_t, compute_uv=False)[:, 0]
        vec = np.linalg.norm((W * self.mrp.R[None, :]) @ Phi, axis=1)
        return max(float(op.max()), float(vec.max()))

    def _checked(self, H: int):
        with self._lock:
            if H not in self._at:
                powers = self._powers
                while len(self._dev) < H:
                    self._dev.append(self._deviation(powers.power))
                    powers.step()
                dev = np.array(self._dev[:H])
                suffix = np.maximum.accumulate(dev[::-1])[::-1]
                self._at[H] = (dev, suffix, powers.profile(H))
            return self._at[H]

    def profile(self, horizon: int) -> MixingProfile:
        """The chain's TV mixing profile over k = 1..horizon."""
        return self._checked(horizon)[2]

    def certify(self, epsilon: float, horizon: int | None = None,
                max_horizon: int = 1 << 16) -> "MixingTimeCertificate":
        """Smallest certified tau(epsilon); see ``mixing_time``."""
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        H = horizon if horizon is not None else 64
        while True:
            dev, suffix, profile = self._checked(H)
            tail_coeff = 2.0 * self._G_tail * profile.c0
            # worst deviation at any k > H is at most tail_coeff * rho^(k-1)
            tail_ok = profile.rho <= 0.0 or tail_coeff * profile.rho ** H <= epsilon
            ok = np.nonzero(suffix <= epsilon)[0]
            if ok.size and tail_ok:
                return MixingTimeCertificate(
                    epsilon=float(epsilon), tau=int(ok[0]) + 1, horizon_checked=H,
                    margin_curve=dev, tail_coeff=tail_coeff,
                    tail_rho=profile.rho, method="exact-linear",
                )
            if horizon is not None or H >= max_horizon:
                if profile.rho > 0.0 and tail_coeff > 0.0:
                    needed = 1 + math.ceil(
                        math.log(tail_coeff / epsilon) / math.log(1.0 / profile.rho)
                    )
                else:
                    needed = H * 2
                raise CertificationError(
                    f"cannot certify epsilon={epsilon:.3e} within horizon {H}; "
                    f"approximately {needed} steps required",
                    required_horizon=needed,
                )
            H = min(H * 2, max_horizon)

    def tau(self, epsilon: float, lipschitz_scale: float | None = None) -> int:
        """tau(epsilon) for a step-size rule: the exact linear-TD certificate,
        or, given an operator's Lipschitz scale G = L * sigma, the TV-envelope
        over-estimate on the 64-step profile."""
        if lipschitz_scale is None:
            return self.certify(epsilon).tau
        return envelope_mixing_time(self.profile(64), self.mrp.stationary,
                                    lipschitz_scale, epsilon).tau


def mixing_time(mrp: MarkovRewardProcess, features: FeatureMatrix,
                epsilon: float, horizon: int | None = None,
                max_horizon: int = 1 << 16) -> MixingTimeCertificate:
    """Smallest certified t such that the conditional expected TD direction is
    epsilon-close to steady state, uniformly over theta and the initial tuple,
    for every k >= t.

    For linear TD the uniform-over-theta condition reduces exactly to an
    operator-norm condition per step, enumerated out to a finite horizon; the
    geometric envelope of the chain extends the certificate past the horizon.
    The search starts at ``horizon`` (64 if None) and doubles up to
    ``max_horizon`` unless a horizon is given. This computes from scratch on a
    fresh oracle; a model's ``mixing`` oracle reuses its curves across queries.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return MixingOracle(mrp, features).certify(epsilon, horizon, max_horizon)


def envelope_mixing_time(profile: MixingProfile, stationary: StationaryDistribution,
                         lipschitz_scale: float, epsilon: float) -> MixingTimeCertificate:
    """Certified over-estimate of the mixing time from the TV envelope alone.

    For operators with no closed conditional form, the deviation at step k is
    at most 2 * G * tv(k-1) with G the operator's Lipschitz scale (L * sigma),
    so tau = 1 + ceil(log(2 G c0 / eps) / log(1 / rho)). Over-estimating tau
    only shrinks the admissible step-size, preserving every hypothesis.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    G = float(lipschitz_scale)
    tv0 = 1.0 - float(stationary.pi.min())
    bound1 = 2.0 * G * tv0
    coeff = 2.0 * G * profile.c0
    if profile.rho <= 0.0 or coeff <= epsilon:
        t2 = 2
    else:
        t2 = max(2, 1 + math.ceil(math.log(coeff / epsilon)
                                  / math.log(1.0 / profile.rho)))
    tau = 1 if (t2 == 2 and bound1 <= epsilon) else t2
    ks = np.arange(1, max(tau, 8) + 1, dtype=float)
    curve = np.where(ks == 1.0, bound1, coeff * profile.rho ** (ks - 1.0))
    return MixingTimeCertificate(
        epsilon=float(epsilon), tau=int(tau), horizon_checked=int(ks[-1]),
        margin_curve=curve, tail_coeff=coeff, tail_rho=profile.rho,
        method="tv-envelope",
    )


def dnorm_contraction_margin(mrp: MarkovRewardProcess,
                             stationary: StationaryDistribution,
                             sample_count: int, seed: int) -> float:
    """Largest observed violation of ||P x||_D <= ||x||_D over random vectors.

    Nonpositive (within 1e-12) for any valid chain.
    """
    rng = generator(derive_seed(seed, 0xD0A7))
    X = rng.normal(size=(int(sample_count), mrp.n))
    pi = stationary.pi
    before = np.sqrt((X ** 2 * pi).sum(axis=1))
    after = np.sqrt(((X @ mrp.P.T) ** 2 * pi).sum(axis=1))
    return float(np.max(after - before))


def oracle_report(model: SteadyStateModel, theta0=None,
                  eps_grid=(1e-1, 1e-2, 1e-3, 1e-4), provider=None) -> dict:
    """Full structured oracle summary for experiment provenance: the model's
    closed-form quantities, the certified tau per epsilon, and the iterate
    bound B of ``provider`` (TD(0) on the model if None) from ``theta0``
    (zeros if None), which must have the provider's dimension."""
    from .sa_core import TD0Provider, bound_B  # sa_core builds on this module

    provider = TD0Provider(model) if provider is None else provider
    theta0 = (np.zeros(provider.dim) if theta0 is None
              else np.array(theta0, dtype=float).reshape(provider.dim))
    certs = [(float(eps), model.mixing.certify(eps)) for eps in eps_grid]
    return {
        "n": model.mrp.n,
        "K": model.K,
        "gamma": model.mrp.gamma,
        "r_bar": model.mrp.r_bar,
        "pi": model.stationary.pi.tolist(),
        "A_bar": model.A_bar.tolist(),
        "b_neg": model.b_neg.tolist(),
        "Sigma": model.Sigma.tolist(),
        "omega": model.omega,
        "theta_star": model.theta_star.tolist(),
        "sigma": model.sigma_const,
        "theta0": theta0.tolist(),
        "B": bound_B(provider, theta0),
        "tau_table": [{"epsilon": eps, "tau": c.tau, "horizon_checked": c.horizon_checked}
                      for eps, c in certs],
    }
