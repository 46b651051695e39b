"""The pieces of the stochastic-approximation recursion
theta_{t+1} = theta_t + alpha g(theta_{t-d_t}; X_{t-d_t}).

Sampled update directions (TD(0) and pluggable providers) with the one audit
of their declared contract, the constant step-size resolved jointly with the
mixing time it depends on, the one iterate bound B and auto horizon, and
bounded delay processes. A provider is the instance: it carries its model
(chain and features), its theorem's constants (TD(0)'s or generic SA's), its
tau certificate and its step-size cap at a given tau. A step-size is alpha
alone; its tau is always ``provider.certify(alpha).tau``. The recursion
itself runs in one place, the harness's batch kernel ``_simulate(config)``,
which takes an experiment and runs its trials as lanes.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import derive_seed, generator
from .oracle import (
    FeatureMatrix,
    MixingTimeCertificate,
    SteadyStateModel,
    envelope_mixing_time,
    steady_state_direction,
)

DIVERGENCE_GUARD = 1e12
STEP_C = 8.0  # the universal constant C of the cap alpha <= contraction / (C tau)


class StepSizeError(RuntimeError):
    """Step-size resolution failed to reach a self-consistent fixed point."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def fingerprint(payload: dict) -> str:
    """Stable short hash of a JSON-serializable config description."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _pairwise(x, lo, n):
    """Sum of rows lo..lo+n-1 of x in the order of numpy's pairwise sum."""
    if n < 8:
        acc = x[lo]
        for j in range(lo + 1, lo + n):
            acc = acc + x[j]
        return acc
    if n <= 128:
        part = [x[lo + j] for j in range(8)]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            part = [part[j] + x[i + j] for j in range(8)]
        acc = ((part[0] + part[1]) + (part[2] + part[3])) + \
              ((part[4] + part[5]) + (part[6] + part[7]))
        for j in range(stop, lo + n):
            acc = acc + x[j]
        return acc
    half = n // 2
    half -= half % 8
    return _pairwise(x, lo, half) + _pairwise(x, lo + half, n - half)


def rowsum(x):
    """The sum of the K rows of a (K, lanes) batch: each lane's K-vector
    summed as numpy sums a contiguous vector, bit for bit
    (``np.ascontiguousarray(x.T).sum(axis=-1)``); a (K,) vector gives its sum.

    numpy reduces a contiguous vector with its pairwise summation: one
    running sum below 8 terms, else 8 interleaved accumulators added as a
    tree (blocks of more than 128 terms are halved first), on top of the
    identity 0.0. Adding whole rows in that order gives the same bits with a
    few vector adds instead of one short reduction per lane. The trailing
    ``+ 0.0`` is the identity; it only turns a -0.0 into 0.0.
    """
    x = np.asarray(x)
    if x.shape[0] == 0:
        return x.sum(axis=0)
    return _pairwise(x, 0, x.shape[0]) + 0.0


def td0_direction(features: FeatureMatrix, gamma: float, theta, X):
    """The TD(0) update direction (r + gamma <phi(s'), theta> - <phi(s), theta>) phi(s).

    ``theta`` may be one parameter vector or a (K, lanes) batch with one
    column per lane; ``X`` is a (s, s_next, r) triple of scalars or arrays
    aligned with the lanes.
    """
    s, sp, r = X
    PhiT = features.PhiT
    phi_s = PhiT.take(s, axis=1)
    td = (r + gamma * rowsum(PhiT.take(sp, axis=1) * theta)
          - rowsum(phi_s * theta))
    return td * phi_s


def _lanes(v, theta):
    """The (K,) vector v shaped to broadcast against theta, (K,) or (K, lanes)."""
    return v if np.ndim(theta) == 1 else v[:, None]


class UpdateDirectionProvider:
    """Interface for a sampled root-finding operator g(theta; X).

    Concrete providers hold the ``model`` (chain and features) they sample and
    expose the sampled direction, its steady-state expectation, the solved-for
    fixed point, and the declared constants (L, sigma_const, beta, norm_offset)
    that ``audit_provider`` verifies. ``direction`` and ``steady`` take one
    parameter vector (K,) or a (K, lanes) batch, one column per lane, and
    return the same shape. It carries generic SA's constants (``contraction``,
    ``recursion_L2``, drift rate ``beta``), mixing-time certificate
    (``certify``) and step-size cap (``step_cap``), named by ``mode`` in the
    output.
    """

    model: SteadyStateModel
    dim: int
    L: float
    sigma_const: float
    beta: float
    theta_star: np.ndarray
    mode = "nonlinear"

    @property
    def norm_offset(self) -> float:
        """The c of the norm envelope ||g(theta; X)|| <= L (||theta|| + c)."""
        return self.sigma_const

    @property
    def contraction(self) -> float:
        """The step-size cap's numerator, min(beta, 1/beta) / L^2."""
        return min(self.beta, 1.0 / self.beta) / self.L ** 2

    def certify(self, epsilon: float) -> MixingTimeCertificate:
        """The certificate of the step-size rule's tau(epsilon): the
        TV-envelope over-estimate on the model's 64-step profile at G = L sigma."""
        model = self.model
        return envelope_mixing_time(model.mixing.profile(64), model.mrp.pi,
                                    self.L * self.sigma_const, epsilon)

    def step_cap(self, tau: int) -> float:
        """The largest alpha in contract at mixing time tau:
        min(contraction / (C tau), 1 / (8 tau)) with C = ``STEP_C``."""
        return min(self.contraction / (STEP_C * tau), 1.0 / (8.0 * tau))

    @property
    def recursion_L2(self) -> float:
        """The L^2 in the recursion check's perturbation and disturbance scales."""
        return self.L ** 2

    def direction(self, theta, X):
        raise NotImplementedError

    def steady(self, theta):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class TD0Provider(UpdateDirectionProvider):
    """TD(0) with linear function approximation: L = 2, beta = omega (1 - gamma),
    and the norm envelope 2 ||theta|| + 2 r_bar; step-size cap omega (1 - gamma)
    at the exact tau, and no L^2 in the recursion scales."""

    mode = "td0"
    recursion_L2 = 1.0

    def __init__(self, model: SteadyStateModel):
        self.model = model
        self.dim = model.K
        self.L = 2.0
        self.sigma_const = model.sigma_const
        self.beta = model.contraction_rate
        self.theta_star = model.theta_star

    @property
    def norm_offset(self) -> float:
        return self.model.mrp.r_bar

    @property
    def contraction(self) -> float:
        return self.model.contraction_rate

    def certify(self, epsilon: float) -> MixingTimeCertificate:
        return self.model.mixing.certify(epsilon)

    def direction(self, theta, X):
        return td0_direction(self.model.features, self.model.mrp.gamma, theta, X)

    def steady(self, theta):
        return steady_state_direction(self.model, theta)

    def describe(self):
        return {"kind": "td0", "gamma": self.model.mrp.gamma,
                "Phi": self.model.features.Phi.tolist()}


class LinearContractionProvider(UpdateDirectionProvider):
    """g(theta; X) = -theta + c(s) with the state table c centered so that its
    mean under the model's pi is theta_star. Exactly 1-Lipschitz and 1-monotone."""

    def __init__(self, theta_star, noise_table, model):
        theta_star = np.array(theta_star, dtype=float).reshape(-1)
        noise = np.array(noise_table, dtype=float)
        if noise.ndim != 2 or noise.shape[1] != theta_star.shape[0]:
            raise ValueError("noise table must be n x K")
        noise = noise - model.mrp.pi @ noise  # recenter under pi
        self.model = model
        self.c_table = theta_star[None, :] + noise
        self._c_cols = np.ascontiguousarray(self.c_table.T)
        self.theta_star = theta_star
        self.dim = theta_star.shape[0]
        self.L = 1.0
        self.beta = 1.0
        self.sigma_const = float(max(1.0, np.linalg.norm(self.c_table, axis=1).max(),
                                     np.linalg.norm(theta_star)))

    def direction(self, theta, X):
        return -np.asarray(theta, dtype=float) + self._c_cols.take(X[0], axis=1)

    def steady(self, theta):
        return _lanes(self.theta_star, theta) - np.asarray(theta, dtype=float)

    def noise_variance(self) -> float:
        """Stationary second moment E ||c(X) - theta_star||^2."""
        dev = self.c_table - self.theta_star[None, :]
        return float(self.model.mrp.pi @ (dev ** 2).sum(axis=1))

    def describe(self):
        return {"kind": "linear_contraction", "c": self.c_table.tolist()}


class SaturatingMonotoneProvider(UpdateDirectionProvider):
    """A nonlinear monotone operator: -(a u + b tanh(u)) plus state noise
    centered under the model's pi, where u = theta - theta_star. Strong
    monotonicity modulus a, Lipschitz constant a + b."""

    def __init__(self, theta_star, noise_table, model, a=0.7, b=0.3):
        if a <= 0 or b < 0:
            raise ValueError("need a > 0 and b >= 0")
        theta_star = np.array(theta_star, dtype=float).reshape(-1)
        noise = np.array(noise_table, dtype=float)
        noise = noise - model.mrp.pi @ noise
        self.model = model
        self.noise_table = noise
        self._noise_cols = np.ascontiguousarray(noise.T)
        self.theta_star = theta_star
        self.dim = theta_star.shape[0]
        self.a = float(a)
        self.b = float(b)
        self.L = max(1.0, self.a + self.b)
        self.beta = self.a
        nmax = float(np.linalg.norm(noise, axis=1).max(initial=0.0))
        raw = (self.a * np.linalg.norm(theta_star)
               + self.b * np.sqrt(self.dim) + nmax) / self.L
        self.sigma_const = float(max(1.0, np.linalg.norm(theta_star), raw))

    def _drift(self, theta):
        u = np.asarray(theta, dtype=float) - _lanes(self.theta_star, theta)
        return -(self.a * u + self.b * np.tanh(u))

    def direction(self, theta, X):
        return self._drift(theta) + self._noise_cols.take(X[0], axis=1)

    def steady(self, theta):
        return self._drift(theta)

    def describe(self):
        return {"kind": "saturating", "a": self.a, "b": self.b,
                "theta_star": self.theta_star.tolist(),
                "noise": self.noise_table.tolist()}


def positive_alpha(alpha) -> float:
    """alpha as a float, refused (ConfigError) unless it is a positive finite
    number."""
    try:
        value = float(alpha)
    except (TypeError, ValueError):  # a list or a word read from a config
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"alpha must be a positive finite number, got {alpha!r}")
    return value


def auto_horizon(alpha: float, provider: UpdateDirectionProvider) -> int:
    """The default horizon T = ceil(10 / (alpha * beta)), ten e-folds of the
    provider's drift rate."""
    return int(math.ceil(10.0 / (positive_alpha(alpha) * provider.beta)))


def bound_B(provider: UpdateDirectionProvider, theta0) -> float:
    """The mean-square iterate bound B = 10 max(||theta0 - theta*||^2, sigma^2)
    of Theorem 1, from the provider's fixed point and scale constant."""
    return 10.0 * max(float(np.sum((theta0 - provider.theta_star) ** 2)),
                      provider.sigma_const ** 2)


def initial_theta(provider: UpdateDirectionProvider, theta0) -> np.ndarray:
    """theta0 as a float vector of the provider's dimension (zeros if None)."""
    theta0 = (np.zeros(provider.dim) if theta0 is None
              else np.array(theta0, dtype=float).reshape(-1))
    if theta0.shape[0] != provider.dim:
        raise ConfigError(f"theta0 has length {theta0.shape[0]} but the provider "
                          f"has dimension {provider.dim}")
    return theta0


def resolve_step_size(provider: UpdateDirectionProvider) -> float:
    """Solve the circular constraint alpha <= contraction / (C tau(alpha)) for
    the provider's instance and theorem, with C = ``STEP_C``.

    Starts from alpha = contraction / C and alternates with the provider's
    certified mixing time (read off its model's mixing oracle) until alpha is
    the cap at its own tau. tau is integer-valued and non-increasing in
    alpha, so the iteration terminates.
    """
    alpha = provider.contraction / STEP_C
    for _ in range(100):
        candidate = provider.step_cap(provider.certify(alpha).tau)
        if candidate == alpha:
            return alpha
        alpha = candidate
    raise StepSizeError(
        "no self-consistent (alpha, tau) pair within 100 iterations; "
        "the mixing input looks pathological"
    )


@dataclass(frozen=True)
class DelayProcess:
    """Bounded staleness generator: emits 0 <= tau_t <= min(t, tau_max).

    Kinds: none, constant (always the max allowed), uniform (i.i.d. on
    [0, tau_max], clamped early), and an adversarial sawtooth sweep.
    """

    kind: str = "none"
    tau_max: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "uniform", "sawtooth"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")

    def sequence(self, T: int) -> np.ndarray:
        t = np.arange(T, dtype=np.int64)
        if self.kind == "none" or self.tau_max == 0:
            return np.zeros(T, dtype=np.int64)
        if self.kind == "constant":
            raw = np.full(T, self.tau_max, dtype=np.int64)
        elif self.kind == "sawtooth":
            raw = t % (self.tau_max + 1)
        else:  # uniform; floor of uniforms keeps the stream chunk-stable
            u = generator(derive_seed(self.seed, 0xDE1A)).random(T)
            raw = np.minimum((u * (self.tau_max + 1)).astype(np.int64), self.tau_max)
        return np.minimum(raw, t)

    def spawn(self, trial_index: int) -> "DelayProcess":
        """Per-trial replica with an independently derived stream."""
        return DelayProcess(self.kind, self.tau_max,
                            derive_seed(self.seed, trial_index, 0xDE1A7))

    def to_dict(self):
        return {"kind": self.kind, "tau_max": self.tau_max, "seed": self.seed}


@dataclass(frozen=True)
class ProviderAudit:
    """Sampled verification of a provider's declared constants."""

    samples: int
    ok: bool
    max_lipschitz_ratio: float
    max_steady_ratio: float
    max_norm_ratio: float
    min_monotone_ratio: float
    declared: dict
    witness: dict | None

    def describe(self) -> str:
        if self.ok:
            return (f"audit passed over {self.samples} samples "
                    f"(lip {self.max_lipschitz_ratio:.4f} <= L, "
                    f"steady lip {self.max_steady_ratio:.4f} <= L, "
                    f"norm {self.max_norm_ratio:.4f} <= 1, "
                    f"monotone {self.min_monotone_ratio:.4f} >= beta)")
        return f"audit FAILED with witness {self.witness}"


def audit_provider(provider: UpdateDirectionProvider, sample_count: int,
                   seed: int) -> ProviderAudit:
    """Check the declared contract on the provider's chain, naming a witness
    on failure: the sampled direction is L-Lipschitz with ||g(theta; X)|| <=
    L (||theta|| + norm_offset), and the steady-state map is L-Lipschitz and
    beta-strongly monotone."""
    mrp = provider.model.mrp
    rng = generator(derive_seed(seed, 0xA0D1))
    m = int(sample_count)
    K = provider.dim
    scale = rng.uniform(0.1, 10.0, size=(m, 1))
    theta1 = rng.normal(size=(m, K)) * scale
    theta2 = rng.normal(size=(m, K)) * scale
    s = rng.integers(0, mrp.n, size=m)
    sp = mrp.sampler.pick(rng.random(m), s)
    X = (s, sp, mrp.R[s])

    # the providers take and return (K, m) columns; the checks reduce (m, K)
    # rows, in the order they always have
    def flip(x):
        return np.ascontiguousarray(x.T)

    cols1, cols2 = flip(theta1), flip(theta2)
    g1 = flip(provider.direction(cols1, X))
    g2 = flip(provider.direction(cols2, X))
    dtheta = np.linalg.norm(theta1 - theta2, axis=1)
    keep = dtheta > 1e-12
    lip = np.linalg.norm(g1 - g2, axis=1)[keep] / dtheta[keep]
    steady1 = flip(provider.steady(cols1))
    steady_lip = (np.linalg.norm(steady1 - flip(provider.steady(cols2)), axis=1)[keep]
                  / dtheta[keep])
    norm_ratio = np.linalg.norm(g1, axis=1) / (
        provider.L * (np.linalg.norm(theta1, axis=1) + provider.norm_offset))
    diff = theta1 - provider.theta_star
    dist_sq = np.sum(diff ** 2, axis=1)
    keep_m = dist_sq > 1e-12
    drift = np.sum(diff * (steady1 - provider.steady(provider.theta_star)), axis=1)
    monotone = -drift[keep_m] / dist_sq[keep_m]

    tol = 1.0 + 1e-9
    max_lip = float(lip.max(initial=0.0))
    max_steady = float(steady_lip.max(initial=0.0))
    max_norm = float(norm_ratio.max(initial=0.0))
    min_mono = float(monotone.min(initial=np.inf))
    witness = None
    if max_lip > provider.L * tol:
        i = int(np.nonzero(keep)[0][np.argmax(lip)])
        witness = {"check": "lipschitz", "ratio": max_lip,
                   "theta1": theta1[i].tolist(), "theta2": theta2[i].tolist(),
                   "X": (int(s[i]), int(sp[i]), float(mrp.R[s[i]]))}
    elif max_steady > provider.L * tol:
        i = int(np.nonzero(keep)[0][np.argmax(steady_lip)])
        witness = {"check": "steady_lipschitz", "ratio": max_steady,
                   "theta1": theta1[i].tolist(), "theta2": theta2[i].tolist(),
                   "X": None}
    elif max_norm > tol:
        i = int(np.argmax(norm_ratio))
        witness = {"check": "norm", "ratio": max_norm,
                   "theta1": theta1[i].tolist(), "theta2": None,
                   "X": (int(s[i]), int(sp[i]), float(mrp.R[s[i]]))}
    elif min_mono < provider.beta * (1.0 - 1e-9) - 1e-12:
        i = int(np.nonzero(keep_m)[0][np.argmin(monotone)])
        witness = {"check": "monotone", "ratio": min_mono,
                   "theta1": theta1[i].tolist(), "theta2": None, "X": None}
    return ProviderAudit(
        samples=m, ok=witness is None, max_lipschitz_ratio=max_lip,
        max_steady_ratio=max_steady, max_norm_ratio=max_norm,
        min_monotone_ratio=min_mono,
        declared={"L": provider.L, "sigma": provider.sigma_const,
                  "beta": provider.beta, "norm_offset": provider.norm_offset},
        witness=witness,
    )
