"""The pieces of the stochastic-approximation recursion
theta_{t+1} = theta_t + alpha g(theta_{t-d_t}; X_{t-d_t}).

Sampled update directions (TD(0) and pluggable providers) with the one audit
of their declared contract, the constant step-size resolved jointly with the
mixing time it depends on, the one iterate bound B and auto horizon, and
bounded delay processes. A provider is the instance: it carries its model
(chain and features), its theorem's constants (TD(0)'s or generic SA's), its
tau certificate and its step-size cap at a given tau. A step-size is alpha
alone; its tau is always ``provider.certify(alpha).tau``. The recursion
itself runs in one place, the harness's batch kernel ``_simulate(config,
parts)``, which runs an experiment's trials as lanes and hands each step to
the per-step reductions it was given.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    BLOCK,
    KeyedStreams,
    derive_seed,
    finite_array,
    generator,
    integer,
    is_number,
    unit,
)
from .oracle import (
    MixingTimeCertificate,
    SteadyStateModel,
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


def rowsum(x, out=None):
    """The sum of the K rows of a (K, lanes) batch, added left to right:
    each lane's sum is ((0.0 + x_0) + x_1) + ... + x_{K-1}, written to
    ``out`` (a (lanes,) float array) when given; a (K,) vector gives its sum.

    The order is fixed, so a lane's bits do not depend on how many lanes run
    beside it. Below 8 terms it is also numpy's order for a contiguous
    vector. The ``+ 0.0`` is the identity; it only turns a -0.0 into 0.0.
    """
    acc = np.add(x[0], 0.0, out=out)
    for j in range(1, x.shape[0]):
        acc += x[j]
    return acc


def td0_direction(gamma: float, theta, X):
    """The TD(0) update direction (r + gamma <phi(s'), theta> - <phi(s), theta>) phi(s).

    ``theta`` is a (K, lanes) batch with one column per lane; ``X`` is the
    pair (F_s, F_s') of the states' columns of the table [Phi^T; R]
    (``TD0Provider.state_table``), (K + 1, lanes) arrays aligned with them.
    """
    F_s, F_sp = X
    phi_s = F_s[:-1]
    # in one row, with the sum's bits (IEEE * and + commute)
    prod = F_sp[:-1] * theta
    td = rowsum(prod)
    td *= gamma
    np.add(F_s[-1], td, out=td)
    td -= rowsum(np.multiply(phi_s, theta, out=prod))
    return td * phi_s


class UpdateDirectionProvider:
    """Interface for a sampled root-finding operator g(theta; X).

    Concrete providers hold the ``model`` (chain and features) they sample and
    expose the sampled direction, its steady-state expectation, the solved-for
    fixed point, and the declared constants (L, sigma_const, beta, norm_offset)
    that ``audit_provider`` verifies. ``direction`` and ``steady`` take a
    float (K, lanes) batch, one column per lane, and return the same shape;
    a single vector v is the one-lane batch ``v[:, None]``. The observation
    X of ``direction`` is the pair (F_s, F_s') of columns s and s' of the
    provider's per-state table ``state_table`` (rows, n), as (rows, lanes)
    arrays (``observe``): the kernel gathers one column per lane and step,
    and in markov sampling carries s' 's columns into the next step. It
    carries generic SA's constants (``contraction``, ``recursion_L2``, drift
    rate ``beta``), mixing-time certificate (``certify``), step-size cap
    (``step_cap``) and iterate bound (``bound_B``), named by ``mode`` in the
    output.
    """

    model: SteadyStateModel
    dim: int
    L: float
    sigma_const: float
    beta: float
    theta_star: np.ndarray
    state_table: np.ndarray
    mode = "nonlinear"

    def observe(self, s, sp):
        """The observation X = (F_s, F_s') of the transitions s -> s', one per
        lane of the int arrays s and sp."""
        return self.state_table.take(s, axis=1), self.state_table.take(sp, axis=1)

    @property
    def norm_offset(self) -> float:
        """The c of the norm envelope ||g(theta; X)|| <= L (||theta|| + c)."""
        return self.sigma_const

    @property
    def contraction(self) -> float:
        """The step-size cap's numerator, min(beta, 1/beta) / L^2."""
        return min(self.beta, 1.0 / self.beta) / self.L ** 2

    def certify(self, epsilon: float) -> MixingTimeCertificate:
        """The certificate of the step-size rule's tau(epsilon): the model's
        TV bound at G = L sigma (``MixingOracle.certify_tv``)."""
        return self.model.mixing.certify_tv(self.L * self.sigma_const, epsilon)

    def step_cap(self, tau: int) -> float:
        """The largest alpha in contract at mixing time tau:
        min(contraction / (C tau), 1 / (8 tau)) with C = ``STEP_C``."""
        return min(self.contraction / (STEP_C * tau), 1.0 / (8.0 * tau))

    @property
    def recursion_L2(self) -> float:
        """The L^2 in the recursion check's perturbation and disturbance scales."""
        return self.L ** 2

    def bound_B(self, theta0) -> float:
        """The mean-square iterate bound B = 10 max(||theta0 - theta*||^2,
        sigma^2) of Theorem 1, from the fixed point and scale constant."""
        return 10.0 * max(float(np.sum((theta0 - self.theta_star) ** 2)),
                          self.sigma_const ** 2)

    def initial_theta(self, theta0) -> np.ndarray:
        """theta0 as a float vector of the provider's dimension (zeros if None)."""
        theta0 = (np.zeros(self.dim) if theta0 is None
                  else finite_array("theta0", theta0, ConfigError).reshape(-1))
        if theta0.shape[0] != self.dim:
            raise ConfigError(f"theta0 has length {theta0.shape[0]} but the "
                              f"provider has dimension {self.dim}")
        return theta0

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
        # column s is (phi(s), r(s))
        self.state_table = np.vstack([model.features.Phi.T, model.mrp.R])
        self.state_table.setflags(write=False)

    @property
    def norm_offset(self) -> float:
        return self.model.mrp.r_bar

    @property
    def contraction(self) -> float:
        return self.model.contraction_rate

    def certify(self, epsilon: float) -> MixingTimeCertificate:
        return self.model.mixing.certify(epsilon)

    def direction(self, theta, X):
        return td0_direction(self.model.mrp.gamma, theta, X)

    def steady(self, theta):
        return steady_state_direction(self.model, theta)

    def describe(self):
        return {"kind": "td0", "gamma": self.model.mrp.gamma,
                "Phi": self.model.features.Phi.tolist()}


class SaturatingMonotoneProvider(UpdateDirectionProvider):
    """A strongly monotone operator: -(a u + b tanh(u)) plus state noise n(s)
    centered under the model's pi, where u = theta - theta_star; ``state_table``
    holds the noise columns. Strong monotonicity modulus a, Lipschitz
    constant L = max(1, a + b). At a = 1, b = 0 it is the linear contraction
    -theta + c(s) with c(s) = theta_star + n(s), exactly 1-Lipschitz and
    1-monotone.

    sigma = max(1, ||theta_star||, (max_s ||a theta_star + n(s)|| + b sqrt(K))
    / L), so ||g(theta; X)|| <= a ||theta|| + ||a theta_star + n(s)|| +
    b sqrt(K) <= L (||theta|| + sigma). Refused (ConfigError) unless a > 0
    and b >= 0 are finite, theta_star has at least one coordinate, the (n, K)
    noise table matches the chain and theta_star, and every entry is finite.
    """

    def __init__(self, theta_star, noise_table, model, a=0.7, b=0.3):
        if not (is_number(a) and is_number(b) and 0.0 < a < math.inf
                and 0.0 <= b < math.inf):
            raise ConfigError(f"need finite a > 0 and b >= 0, got a={a!r}, b={b!r}")
        theta_star = finite_array("theta_star", theta_star, ConfigError).reshape(-1)
        if theta_star.size == 0:
            raise ConfigError("theta_star needs at least one coordinate")
        noise = finite_array("noise", noise_table, ConfigError)
        if noise.shape != (model.mrp.n, theta_star.size):
            raise ConfigError(f"noise table has shape {noise.shape}, expected "
                              f"(n, K) = {(model.mrp.n, theta_star.size)}")
        noise = noise - model.mrp.pi @ noise
        self.model = model
        self.noise_table = noise
        self.state_table = np.ascontiguousarray(noise.T)
        self.theta_star = theta_star
        self.dim = theta_star.shape[0]
        self.a = float(a)
        self.b = float(b)
        self.L = max(1.0, self.a + self.b)
        self.beta = self.a
        offset = np.linalg.norm(self.a * theta_star + noise, axis=1).max()
        self.sigma_const = float(max(1.0, np.linalg.norm(theta_star),
                                     (offset + self.b * np.sqrt(self.dim)) / self.L))

    def _drift(self, theta):
        u = theta - self.theta_star[:, None]
        return -(self.a * u + self.b * np.tanh(u))

    def direction(self, theta, X):
        return self._drift(theta) + X[0]

    def steady(self, theta):
        return self._drift(theta)

    def describe(self):
        return {"kind": "saturating", "a": self.a, "b": self.b,
                "theta_star": self.theta_star.tolist(),
                "noise": self.noise_table.tolist()}


def positive_alpha(alpha) -> float:
    """alpha as a float, refused (ConfigError) unless it is a positive finite
    number."""
    if not (is_number(alpha) and 0.0 < alpha < math.inf):
        raise ConfigError(f"alpha must be a positive finite number, got {alpha!r}")
    return float(alpha)


def auto_horizon(alpha: float, provider: UpdateDirectionProvider) -> int:
    """The default horizon T = ceil(10 / (alpha * beta)), ten e-folds of the
    provider's drift rate."""
    return int(math.ceil(10.0 / (positive_alpha(alpha) * provider.beta)))


def fixed_step_size(provider: UpdateDirectionProvider, rule, alpha: float) -> float:
    """The alpha with alpha = rule(tau(alpha)), tau(alpha) =
    ``provider.certify(alpha).tau``: iterates alpha <- rule(tau(alpha)) from
    the given alpha until the rule returns the alpha it was given. tau is
    integer-valued and non-increasing in alpha, so a rule non-increasing in
    tau stops; StepSizeError after 100 steps."""
    for _ in range(100):
        candidate = rule(provider.certify(alpha).tau)
        if candidate == alpha:
            return alpha
        alpha = candidate
    raise StepSizeError(
        "no self-consistent (alpha, tau) pair within 100 iterations; "
        "the mixing input looks pathological"
    )


def resolve_step_size(provider: UpdateDirectionProvider) -> float:
    """The alpha at the cap of its own tau, alpha = step_cap(tau(alpha)) with
    C = ``STEP_C``: ``fixed_step_size`` from alpha = contraction / C."""
    return fixed_step_size(provider, provider.step_cap, provider.contraction / STEP_C)


@dataclass(frozen=True)
class DelayProcess:
    """Bounded staleness generator: emits 0 <= tau_t <= min(t, tau_max).

    Kinds: none (tau_max 0 only), constant (always the max allowed), uniform
    (i.i.d. on [0, tau_max], clamped early), and an adversarial sawtooth
    sweep. Any kind at tau_max 0 runs undelayed.
    """

    kind: str = "none"
    tau_max: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "uniform", "sawtooth"):
            raise ConfigError(f"unknown delay kind {self.kind!r}")
        # the chain and the features have a seed too, so the key is qualified
        for name in ("tau_max", "seed"):
            value = integer(f"delays.{name}", getattr(self, name), ConfigError)
            object.__setattr__(self, name, value)
        if self.tau_max < 0:
            raise ConfigError(f"delays.tau_max must be nonnegative, got {self.tau_max}")
        if self.tau_max >= 2 ** 63:  # delays and their clamps are int64
            raise ConfigError(f"delays.tau_max must be below 2^63, got {self.tau_max}")
        if self.kind == "none" and self.tau_max > 0:
            raise ConfigError(f"delays.tau_max {self.tau_max} needs a delay kind "
                              f"(constant, uniform or sawtooth), got kind 'none'")

    def sequence(self, T: int) -> np.ndarray:
        """Lane 0's int64 delays tau_0..tau_{T-1}, from ``blocks``."""
        out = np.empty(T, dtype=np.int64)
        buffer = np.empty((min(BLOCK, T), 1), dtype=np.int64)
        for t0, block in self.blocks(T, buffer):
            out[t0:t0 + len(block)] = block[:, 0]
        return out

    def blocks(self, T: int, out: np.ndarray):
        """The delays of steps 0..T-1, ``BLOCK`` steps at a time, written
        into the reused (BLOCK, lanes) int64 buffer ``out``: yields (t0,
        block) where block = out[:L] holds the delays of steps t0..t0+L-1,
        consumed before the next; memory does not grow with T.

        A uniform lane i floors its words' doubles (``unit``) times tau_max
        + 1: its words are lane i's of one ``KeyedStreams`` keyed by
        ``derive_seed(seed, 0xDE1A)``, so they are chunk-stable and lane 0's
        are ``sequence``'s. The words are drawn into the block itself, made
        doubles 8 steps at a time in one reused (8, lanes) tile, scaled there
        and cast back (a floor, as x >= 0). Every kind is then clamped to
        min(t, tau_max) on the integers: trunc(min(x, c)) = min(trunc(x), c)
        for an integer c."""
        cap = self.tau_max
        if self.kind == "uniform" and cap > 0:
            streams = KeyedStreams(derive_seed(self.seed, 0xDE1A), out.shape[1])
            tile = np.empty((8, out.shape[1]))
        for t0 in range(0, T, BLOCK):
            block = out[:min(BLOCK, T - t0)]
            steps = np.arange(t0, t0 + len(block))
            if self.kind == "sawtooth":
                block[:] = (steps % (cap + 1))[:, None]
            elif self.kind != "uniform" or cap == 0:
                block.fill(cap)
            else:
                words = block.view(np.uint64)
                streams.fill(words)
                for r in range(0, len(block), len(tile)):
                    u = unit(words[r:r + len(tile)], out=tile[:len(block) - r])
                    u *= cap + 1
                    np.copyto(block[r:r + len(tile)], u, casting="unsafe")
            np.minimum(block, np.minimum(steps, cap)[:, None], out=block)
            yield t0, block

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
    # drawn as (m, K) rows, checked as (K, m) columns reduced by ``rowsum``
    theta1 = np.ascontiguousarray((rng.normal(size=(m, K)) * scale).T)
    theta2 = np.ascontiguousarray((rng.normal(size=(m, K)) * scale).T)
    s = rng.integers(0, mrp.n, size=m)
    sp = mrp.sampler.pick(rng.bit_generator.random_raw(m), s)
    X = provider.observe(s, sp)

    g1 = provider.direction(theta1, X)
    g2 = provider.direction(theta2, X)
    dtheta = np.sqrt(rowsum((theta1 - theta2) ** 2))
    keep = dtheta > 1e-12
    lip = np.sqrt(rowsum((g1 - g2) ** 2))[keep] / dtheta[keep]
    steady1 = provider.steady(theta1)
    steady_lip = (np.sqrt(rowsum((steady1 - provider.steady(theta2)) ** 2))[keep]
                  / dtheta[keep])
    norm_ratio = np.sqrt(rowsum(g1 ** 2)) / (
        provider.L * (np.sqrt(rowsum(theta1 ** 2)) + provider.norm_offset))
    star = provider.theta_star[:, None]
    diff = theta1 - star
    dist_sq = rowsum(diff ** 2)
    keep_m = dist_sq > 1e-12
    drift = rowsum(diff * (steady1 - provider.steady(star)))
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
                   "theta1": theta1[:, i].tolist(), "theta2": theta2[:, i].tolist(),
                   "X": (int(s[i]), int(sp[i]), float(mrp.R[s[i]]))}
    elif max_steady > provider.L * tol:
        i = int(np.nonzero(keep)[0][np.argmax(steady_lip)])
        witness = {"check": "steady_lipschitz", "ratio": max_steady,
                   "theta1": theta1[:, i].tolist(), "theta2": theta2[:, i].tolist(),
                   "X": None}
    elif max_norm > tol:
        i = int(np.argmax(norm_ratio))
        witness = {"check": "norm", "ratio": max_norm,
                   "theta1": theta1[:, i].tolist(), "theta2": None,
                   "X": (int(s[i]), int(sp[i]), float(mrp.R[s[i]]))}
    elif min_mono < provider.beta * (1.0 - 1e-9) - 1e-12:
        i = int(np.nonzero(keep_m)[0][np.argmin(monotone)])
        witness = {"check": "monotone", "ratio": min_mono,
                   "theta1": theta1[:, i].tolist(), "theta2": None, "X": None}
    return ProviderAudit(
        samples=m, ok=witness is None, max_lipschitz_ratio=max_lip,
        max_steady_ratio=max_steady, max_norm_ratio=max_norm,
        min_monotone_ratio=min_mono,
        declared={"L": provider.L, "sigma": provider.sigma_const,
                  "beta": provider.beta, "norm_offset": provider.norm_offset},
        witness=witness,
    )
