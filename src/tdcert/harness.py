"""Monte Carlo experiment harness.

Runs many independent trajectories (vectorized across trials, one derived
stream per trial), estimates the mean-square error path d_t and the Markov-
noise disturbance e_t with standard errors, and turns the finite-time
statements into pass/fail ledgers with explicit 3-standard-error slack.

``_simulate(config)`` is the one SA kernel and ``MonteCarloEstimate`` its
one result: it runs the config's trials as lanes, lane i on the stream
``derive_seed(master_seed, i)`` with the delays ``delays.spawn(i)``, and a
rerun of the same config replays every lane bit for bit. Lanes are the
last axis of (K, trials) arrays, one column per lane; the uniforms are drawn
from one re-keyed Philox in step-major blocks, transitions come from the chain's
exact table sampler (``mrp.sampler``), and every K-wide sum goes through
``rowsum``, which adds the K rows in the order numpy sums one vector, so a
lane's bits do not depend on how many lanes run beside it. Per-step
aggregation reduces over the trial axis in a fixed order, so results do not
depend on scheduling. Every check takes only the estimate and reads alpha,
tau, the mode, model, provider, ceiling and B from ``estimate.config``, so a
ledger checks the hypothesis it reports; a ledger that checks no claim (out
of contract, or aborted trials) comes from ``_refused``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    ChainError,
    InverseCdfTable,
    MarkovRewardProcess,
    derive_seed,
    generator,
    stream_key,
)
from .oracle import (
    FeatureMatrix,
    SteadyStateModel,
    build_steady_state,
)
from .sa_core import (
    DIVERGENCE_GUARD,
    DelayProcess,
    StepSizeSpec,
    StepSizeError,
    TD0Provider,
    UpdateDirectionProvider,
    audit_provider,
    auto_horizon,
    bound_B,
    contraction_bound,
    drift_rate,
    fingerprint,
    resolve_step_size,
    rowsum,
    spec_at,
)

_GUARD2 = DIVERGENCE_GUARD ** 2
_BLOCK = 4096
_LANE_CHUNK = 64


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class AuditError(RuntimeError):
    """A provider failed its constants audit; the experiment refuses to run."""

    def __init__(self, audit):
        super().__init__(audit.describe())
        self.audit = audit


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything one Monte Carlo experiment needs, deterministically.

    The instance (chain + features + theta0), a resolved step-size spec, the
    horizon and trial count, the master seed all per-trial streams derive
    from, and the optional delay process / sampling mode / averaging grid.
    Derive variants with ``dataclasses.replace``.
    """

    mrp: MarkovRewardProcess
    features: FeatureMatrix
    theta0: np.ndarray | None
    spec: StepSizeSpec
    T: int
    trials: int
    master_seed: int
    provider: UpdateDirectionProvider | None = None
    delays: DelayProcess | None = None
    sampling: str = "markov"
    start_state: int | None = None
    averaging_grid: list | None = None
    ceiling: float = 100.0
    label: str = ""
    model: SteadyStateModel | None = None

    def __post_init__(self):
        if self.T < 0:
            raise ConfigError("T must be nonnegative")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.sampling not in ("markov", "iid_restart"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        model = (self.model if self.model is not None
                 else build_steady_state(self.mrp, self.features))
        provider = self.provider if self.provider is not None else TD0Provider(model)
        theta0 = (np.zeros(provider.dim) if self.theta0 is None
                  else np.array(self.theta0, dtype=float).reshape(-1))
        if theta0.shape[0] != provider.dim:
            raise ConfigError("theta0 dimension does not match the provider")
        normalized = dict(
            model=model, provider=provider, theta0=theta0, T=int(self.T),
            trials=int(self.trials), master_seed=int(self.master_seed),
            averaging_grid=list(self.averaging_grid) if self.averaging_grid else None,
            ceiling=float(self.ceiling))
        for name, value in normalized.items():
            object.__setattr__(self, name, value)

    @property
    def B(self) -> float:
        return bound_B(self.provider, self.theta0)

    def in_contract(self) -> bool:
        return self.spec.in_contract(contraction_bound(
            self.spec.mode, model=self.model, provider=self.provider))

    def hypothesis(self) -> dict:
        return {
            "alpha": self.spec.alpha,
            "tau": self.spec.tau_alpha,
            "C": self.spec.C,
            "B": self.B,
            "mode": self.spec.mode,
            "in_contract": self.in_contract(),
        }

    def to_dict(self) -> dict:
        return {
            "mrp": self.mrp.to_dict(),
            "features": self.features.to_dict(),
            "theta0": self.theta0.tolist(),
            "spec": self.spec.to_dict(),
            "T": self.T,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "provider": self.provider.describe(),
            "delays": self.delays.to_dict() if self.delays else None,
            "sampling": self.sampling,
            "start_state": self.start_state,
            "averaging_grid": self.averaging_grid,
            "ceiling": self.ceiling,
            "label": self.label,
        }

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


@dataclass
class MonteCarloEstimate:
    """Per-step cross-trial estimates of d_t and e_t with standard errors.

    ``config`` is the experiment the lanes ran; ``theta_bar`` holds each
    lane's weighted average when one was requested, and ``retained`` each
    lane's iterates theta_0..theta_T, (trials, T+1, K), when retained.
    """

    d_hat: np.ndarray
    d_se: np.ndarray
    e_hat: np.ndarray
    e_se: np.ndarray
    trials: int
    valid: bool
    abort_count: int
    abort_step: int | None
    config: ExperimentConfig
    theta_bar: np.ndarray | None = None
    retained: np.ndarray | None = None

    @property
    def T(self) -> int:
        return self.d_hat.shape[0] - 1


class _TrialStreams:
    """Every lane's stream ``generator(seed)``, drawn from one re-keyed
    Philox in step-major blocks.

    Philox is counter-based: a stream is a key and a position, four 64-bit
    words per counter step, and ``random`` takes one word per double. All
    lanes stand at the same position ``pos``, so a lane's draws come from
    writing its key and the counter ``pos // 4`` into the public state and
    skipping ``pos % 4`` words: no generator (nor a seed sequence pulled from
    OS entropy) is built per lane. Row j of a block holds every lane's j-th
    draw, so a step reads one contiguous row; lanes are drawn
    ``_LANE_CHUNK`` at a time and copied in as one transposed tile, about
    twice as fast as writing one strided column per lane.
    """

    def __init__(self, seeds):
        self.keys = [stream_key(seed) for seed in seeds]
        self.gen = generator(0)
        self.state = self.gen.bit_generator.state
        self.pos = 0

    def uniform_block(self, count: int) -> np.ndarray:
        trials = len(self.keys)
        U = np.empty((count, trials))
        tile = np.empty((min(_LANE_CHUNK, trials), count))
        bitgen, state = self.gen.bit_generator, self.state
        key = state["state"]["key"]
        state["state"]["counter"][0] = self.pos // 4
        skip = self.pos % 4
        for lo in range(0, trials, _LANE_CHUNK):
            keys = self.keys[lo:lo + _LANE_CHUNK]
            for row, k in zip(tile, keys):
                key[0] = k
                bitgen.state = state
                if skip:
                    bitgen.random_raw(skip)
                self.gen.random(out=row)
            U[:, lo:lo + len(keys)] = tile[:len(keys)].T
        self.pos += count
        return U


def _se_from_centered(sq_dev_total, count):
    if count > 1:
        return np.sqrt(sq_dev_total / (count - 1) / count)
    return np.zeros_like(sq_dev_total)


def _mean_and_dev(vals, trials):
    """Cross-trial mean (``sum / trials`` is ``np.mean`` bit for bit) and
    centered sum of squared deviations."""
    mean = vals.sum() / trials
    dev = vals - mean
    dev *= dev
    return mean, dev.sum()


def _simulate(config: ExperimentConfig, weight_A: float | None = None,
              retain: bool = False) -> MonteCarloEstimate:
    """The SA recursion theta_{t+1} = theta_t + alpha g(theta_{t-d_t}; X_{t-d_t})
    for the config's trials as a batch of lanes; the only code that advances
    theta.

    Lane i draws from the stream ``derive_seed(master_seed, i)`` and takes
    its delays from ``delays.spawn(i)``. Each step samples every lane's
    transition, calls ``provider.direction`` and ``provider.steady`` once on
    the whole (K, trials) batch, updates, and reduces d_t and e_t over the
    lanes. markov sampling draws one uniform per step (plus one for the start
    state when ``start_state`` is None); iid_restart draws the state fresh
    from pi and then its successor, two uniforms per step. A delayed lane
    applies the direction its kernel computed d_t steps earlier, which is
    g(theta_{t-d_t}; X_{t-d_t}) bit for bit. ``weight_A`` keeps each lane's
    weighted average with weight rate 1 - alpha A; ``retain`` keeps every
    lane's iterates.
    """
    provider, mrp, delays = config.provider, config.mrp, config.delays
    alpha, T, trials, K = config.spec.alpha, config.T, config.trials, provider.dim
    # theta* as full (K, trials) rows: subtracting a (K, 1) column runs
    # about 2x slower than a whole-array op
    star = np.tile(provider.theta_star[:, None], (1, trials))
    # with no coordinate above this, every lane's sum of squares is about
    # G^2 / 2, inside the guard whatever the rounding; one max over the batch
    # costs a third of the exact row sums
    safe = DIVERGENCE_GUARD / math.sqrt(2 * K)
    pi_sampler = InverseCdfTable(np.cumsum(mrp.stationary.pi)[None, :])
    sampler, R = mrp.sampler, mrp.R
    iid = config.sampling == "iid_restart"
    draws = 2 if iid else 1

    if retain and trials * (T + 1) * K > 2e8:
        raise ConfigError("iterate retention too large; lower trials or T")

    streams = _TrialStreams([derive_seed(config.master_seed, i) for i in range(trials)])
    theta = np.tile(config.theta0[:, None], (1, trials))

    # per-step cross-trial mean and centered squared deviation (the centered
    # form keeps deterministic instances at exactly zero variance)
    d_mean = np.full(T + 1, np.nan)
    d_dev = np.full(T + 1, np.nan)
    e_mean = np.full(max(T, 1), np.nan)
    e_dev = np.full(max(T, 1), np.nan)

    retained = None
    if retain:
        retained = np.empty((trials, T + 1, K))
        retained[:, 0] = theta.T
    S = theta.copy() if weight_A is not None else None
    wrate = 1.0 - alpha * weight_A if weight_A is not None else None
    v = 1.0

    use_delays = delays is not None and delays.kind != "none" and delays.tau_max > 0
    if use_delays:
        m = delays.tau_max + 1
        # int16 keeps the T x trials schedule small; it cannot hold delays past 32767,
        # and a step index past 32767 must not meet it in int16 arithmetic
        fits = delays.tau_max <= np.iinfo(np.int16).max
        dmat = np.empty((T, trials), dtype=np.int16 if fits else np.int64)
        for i in range(trials):
            dmat[:, i] = delays.spawn(i).sequence(T)
        # the directions of the last m steps; lane i's slot-b direction is
        # hist_g[:, b, i], so a (trials,) slot vector picks (K, trials)
        hist_g = np.zeros((K, m, trials))
        lanes = np.arange(trials)

    s = None
    start_state = config.start_state
    draw_start = not iid and start_state is None
    if not iid and not draw_start:
        if not 0 <= start_state < mrp.n:
            raise ChainError(f"start_state {start_state} out of range")
        s = np.full(trials, int(start_state), dtype=np.int64)

    abort_count, abort_step = 0, None
    t0 = 0
    while t0 < T and abort_step is None:
        L = min(_BLOCK, T - t0)
        U = streams.uniform_block(L * draws + draw_start)
        if draw_start:  # the start state's draw leads the first block
            s = pi_sampler.pick(U[0])
            U = U[1:]
            draw_start = False
        for j in range(L):
            step = t0 + j
            diff = theta - star
            d_mean[step], d_dev[step] = _mean_and_dev(rowsum(diff * diff), trials)

            if iid:
                s = pi_sampler.pick(U[2 * j])
                sp = sampler.pick(U[2 * j + 1], s)
            else:
                sp = sampler.pick(U[j], s)
            r = R.take(s)
            X = (s, sp, r)

            g = provider.direction(theta, X)
            gbar = provider.steady(theta)
            e_mean[step], e_dev[step] = _mean_and_dev(
                rowsum(diff * (g - gbar)), trials)

            if use_delays:
                hist_g[:, step % m] = g
                back = (step - dmat[step].astype(np.int64)) % m
                g = hist_g[:, back, lanes]
            theta += alpha * g

            # NaN fails every comparison, so this is the finite check as well
            if not np.abs(theta).max() <= safe:
                inside = rowsum(theta * theta) <= _GUARD2
                if not inside.all():
                    abort_count = trials - int(np.count_nonzero(inside))
                    abort_step = step + 1
                    break

            if retained is not None:
                retained[:, step + 1] = theta.T
            if S is not None:
                v = v * wrate + 1.0
                S = S + (theta - S) / v
            if not iid:
                s = sp
        t0 += L

    if abort_step is None:
        diff = theta - star
        d_mean[T], d_dev[T] = _mean_and_dev(rowsum(diff * diff), trials)

    return MonteCarloEstimate(
        d_hat=d_mean, d_se=_se_from_centered(d_dev, trials),
        e_hat=e_mean[:T], e_se=_se_from_centered(e_dev[:T], trials),
        trials=trials, valid=abort_step is None, abort_count=abort_count,
        abort_step=abort_step, config=config, retained=retained,
        theta_bar=None if S is None else np.ascontiguousarray(S.T),
    )


def estimate_dt_et(config: ExperimentConfig) -> MonteCarloEstimate:
    """Estimate d_t = E ||theta_t - theta*||^2 and the disturbance inner
    product e_t across `trials` independent trajectories.

    The e_t terms use the same sampled observation that produced each step,
    accumulated during the run rather than by replay.
    """
    return _simulate(config)


def simulate_trajectories(config: ExperimentConfig) -> MonteCarloEstimate:
    """The experiment's estimate with every lane's iterates retained:
    ``retained[i]`` is trial i's theta_0..theta_T, and rerunning the same
    config replays it bit for bit. Raises ConfigError if any lane hits the
    divergence guard."""
    sim = _simulate(config, retain=True)
    if not sim.valid:
        raise ConfigError(
            f"{sim.abort_count} trials hit the divergence guard at step "
            f"{sim.abort_step}; cannot retain trajectories")
    return sim


# ---------------------------------------------------------------------------
# Ledgers

SLACK_MULTIPLIER = 3.0


@dataclass
class BoundLedger:
    """Pass/fail record of one theorem-shaped bound with measured margins.

    Verdicts: "pass", "fail", "out-of-contract" (the step-size hypothesis is
    violated, so the theorem makes no claim), or "invalid" (trials aborted).
    A stochastic comparison never fails without 3 standard errors of slack.
    """

    theorem_id: str
    hypothesis: dict
    verdict: str
    worst_margin: float
    worst_step: int
    fitted: dict
    slack: dict
    n_steps: int
    notes: str = ""
    bound_value: np.ndarray | None = None
    margin: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypothesis": self.hypothesis,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "worst_step": self.worst_step,
            "fitted": self.fitted,
            "slack": self.slack,
            "n_steps": self.n_steps,
            "notes": self.notes,
        }


def _require_ledger_grade(estimate: MonteCarloEstimate):
    if estimate.config.trials < 100:
        raise ConfigError(
            f"ledger-producing runs need at least 100 trials, got "
            f"{estimate.config.trials} (confidence intervals are meaningless below)")


def _refused(estimate: MonteCarloEstimate, theorem_id: str, n_steps: int,
             notes: str) -> BoundLedger | None:
    """The ledger of a check that claims nothing, or None if it may go on:
    out-of-contract (the step-size hypothesis is violated) before invalid
    (trials hit the divergence guard)."""
    config = estimate.config
    if not config.in_contract():
        verdict, margin, step = "out-of-contract", float("nan"), -1
        notes += " (step-size hypothesis violated; no claim checked)"
    elif not estimate.valid:
        verdict, margin, step = "invalid", float("-inf"), estimate.abort_step or -1
        notes = f"{estimate.abort_count} trials hit the divergence guard"
    else:
        return None
    return BoundLedger(
        theorem_id=theorem_id, hypothesis=config.hypothesis(), verdict=verdict,
        worst_margin=margin, worst_step=step, fitted={},
        slack={"multiplier": SLACK_MULTIPLIER}, n_steps=n_steps, notes=notes,
    )


def check_boundedness(estimate: MonteCarloEstimate) -> BoundLedger:
    """Verify d_hat(t) - 3 SE(t) <= B at every step.

    B comes from the configured theta0 and the provider's scale constant.
    """
    _require_ledger_grade(estimate)
    config = estimate.config
    B = config.B
    refused = _refused(estimate, "theorem1-boundedness", estimate.T + 1,
                       f"B={B:.6g}")
    if refused is not None:
        return refused
    lower = estimate.d_hat - SLACK_MULTIPLIER * estimate.d_se
    margin = B - lower
    worst = int(np.argmin(margin))
    verdict = "pass" if margin[worst] >= 0.0 else "fail"
    return BoundLedger(
        theorem_id="theorem1-boundedness", hypothesis=config.hypothesis(),
        verdict=verdict, worst_margin=float(margin[worst]), worst_step=worst,
        fitted={"B": B, "max_d_hat": float(np.max(estimate.d_hat))},
        slack={"multiplier": SLACK_MULTIPLIER,
               "max_width": float(np.max(SLACK_MULTIPLIER * estimate.d_se))},
        n_steps=estimate.T + 1,
        bound_value=np.full(estimate.T + 1, B), margin=margin,
    )


def check_recursion(estimate: MonteCarloEstimate) -> BoundLedger:
    """Fit the smallest constants making the one-step recursion and the
    disturbance bound hold for t >= tau, with 3-SE slack.

    d_hat(t+1) <= rate * d_hat(t) + c * perturb_scale with rate
    1 - alpha * drift rate and scale alpha^2 L^2 tau B, and
    e_hat(t) <= c' * e_scale with e_scale alpha L^2 tau B (L^2 is 1 in td0
    mode). Before tau the disturbance is checked against its coarse 8B bound
    instead.
    """
    _require_ledger_grade(estimate)
    config = estimate.config
    spec, ceiling, B = config.spec, config.ceiling, config.B
    alpha, tau = spec.alpha, spec.tau_alpha
    rate = 1.0 - alpha * drift_rate(spec.mode, config.model, config.provider)
    L2 = config.provider.L ** 2 if spec.mode == "nonlinear" else 1.0
    perturb_scale = alpha ** 2 * L2 * tau * B
    e_scale = alpha * L2 * tau * B
    refused = _refused(estimate, "theorem2-recursion", estimate.T, "")
    if refused is not None:
        return refused
    T = estimate.T
    if T <= tau + 1:
        raise ConfigError(f"horizon T={T} leaves no steps at or beyond tau={tau}")
    t = np.arange(tau, T)
    slack_rec = SLACK_MULTIPLIER * (estimate.d_se[t + 1] + rate * estimate.d_se[t])
    needed_c = (estimate.d_hat[t + 1] - slack_rec
                - rate * estimate.d_hat[t]) / perturb_scale
    c = float(max(needed_c.max(), 0.0))

    needed_cp = (estimate.e_hat[t] - SLACK_MULTIPLIER * estimate.e_se[t]) / e_scale
    c_prime = float(max(needed_cp.max(), 0.0))

    pre = np.arange(0, min(tau, T))
    pre_margin = 8.0 * B - (estimate.e_hat[pre]
                            - SLACK_MULTIPLIER * estimate.e_se[pre])
    pre_tau_ok = bool(np.all(pre_margin >= 0.0)) if pre.size else True

    # full-length per-step columns, indexed by t+1 (the bounded side)
    bound_value = np.full(T + 1, np.nan)
    margin = np.full(T + 1, np.nan)
    bound_value[t + 1] = rate * estimate.d_hat[t] + c * perturb_scale
    margin[t + 1] = ceiling - needed_c
    worst = int(np.argmax(needed_c))
    ok = c <= ceiling and c_prime <= ceiling and pre_tau_ok
    return BoundLedger(
        theorem_id="theorem2-recursion", hypothesis=config.hypothesis(),
        verdict="pass" if ok else "fail",
        worst_margin=float(ceiling - max(c, c_prime)),
        worst_step=int(t[worst]),
        fitted={"c": c, "c_prime": c_prime, "rate": rate,
                "perturb_scale": perturb_scale, "e_scale": e_scale,
                "pre_tau_ok": pre_tau_ok, "ceiling": ceiling},
        slack={"multiplier": SLACK_MULTIPLIER,
               "max_width": float(np.max(slack_rec))},
        n_steps=T - tau, bound_value=bound_value, margin=margin,
    )


def check_iid_noise(estimate: MonteCarloEstimate) -> BoundLedger:
    """Control check: under i.i.d. restart sampling the disturbance e_t is
    exactly zero in expectation, so e_hat must sit within 3 SE of 0 for t >= 1."""
    _require_ledger_grade(estimate)
    config = estimate.config
    if config.sampling != "iid_restart":
        raise ConfigError("the i.i.d. control check needs sampling='iid_restart'")
    if estimate.T < 2:
        raise ConfigError("the control needs a horizon of at least 2 steps")
    t = np.arange(1, estimate.T)
    margin = SLACK_MULTIPLIER * estimate.e_se[t] - np.abs(estimate.e_hat[t])
    worst = int(np.argmin(margin))
    verdict = "pass" if margin[worst] >= 0.0 else "fail"
    return BoundLedger(
        theorem_id="lemma4-iid-control", hypothesis=config.hypothesis(),
        verdict=verdict, worst_margin=float(margin[worst]),
        worst_step=int(t[worst]),
        fitted={"max_abs_e": float(np.max(np.abs(estimate.e_hat[t])))},
        slack={"multiplier": SLACK_MULTIPLIER,
               "max_width": float(np.max(SLACK_MULTIPLIER * estimate.e_se[t]))},
        n_steps=t.size, margin=margin,
    )


def check_drift(estimate: MonteCarloEstimate) -> BoundLedger:
    """Fit the smallest c with E ||theta_t - theta_{t-tau}||^2 <= c alpha^2
    tau^2 B over t >= tau, from the per-trial iterates the estimate retained
    (``simulate_trajectories``)."""
    thetas = estimate.retained  # (trials, T+1, K)
    if thetas is None:
        raise ConfigError("the drift check needs retained iterates; run the "
                          "experiment with simulate_trajectories")
    config = estimate.config
    trials, Tp1, _ = thetas.shape
    tau, alpha, ceiling = config.spec.tau_alpha, config.spec.alpha, config.ceiling
    if Tp1 - 1 < tau + 1:
        raise ConfigError(f"horizon {Tp1 - 1} too short for tau={tau}")
    refused = _refused(estimate, "lemma3-drift", Tp1 - tau, "")
    if refused is not None:
        return refused
    B = config.B
    drift = thetas[:, tau:, :] - thetas[:, :Tp1 - tau, :]
    vals = (drift ** 2).sum(axis=2)  # (trials, T+1-tau)
    mean = vals.mean(axis=0)
    se = (vals.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1
          else np.zeros_like(mean))
    scale = alpha ** 2 * tau ** 2 * B
    needed = (mean - SLACK_MULTIPLIER * se) / scale
    c = float(max(needed.max(), 0.0))
    worst = int(np.argmax(needed)) + tau
    return BoundLedger(
        theorem_id="lemma3-drift", hypothesis=config.hypothesis(),
        verdict="pass" if c <= ceiling else "fail",
        worst_margin=float(ceiling - c), worst_step=worst,
        fitted={"c": c, "scale": scale, "ceiling": ceiling,
                "max_drift": float(mean.max())},
        slack={"multiplier": SLACK_MULTIPLIER,
               "max_width": float(np.max(SLACK_MULTIPLIER * se))},
        n_steps=mean.size,
    )


# ---------------------------------------------------------------------------
# Weighted iterate averaging

@dataclass(frozen=True)
class WeightedAverageSpec:
    """Exponentially increasing iterate weights with the two-case tuned alpha.

    A = 0.5 omega (1 - gamma); unnormalized weights (1 - alpha A)^-(t+1);
    lambda_tune = max(e, A (T+1)^2 / tau). The tuned alpha always satisfies
    the constant-step-size cap, so boundedness applies.
    """

    A: float
    alpha: float
    tau: int
    T: int
    lambda_tune: float
    C: float
    case: int

    def weight_rate(self) -> float:
        return 1.0 - self.alpha * self.A

    def weights(self) -> np.ndarray:
        """Materialized normalized weights w_0..w_T (log-space, overflow-safe)."""
        t = np.arange(self.T + 1, dtype=float)
        logw = -(t + 1.0) * math.log(self.weight_rate())
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()


def tune_weighted_average(model: SteadyStateModel, T: int,
                          C: float = 8.0, max_iter: int = 50) -> WeightedAverageSpec:
    """Resolve the horizon-aware step-size: alpha = ln(lambda)/(A (T+1)) when
    that obeys the mixing cap, otherwise the cap itself; iterated until the
    mixing time it certifies is self-consistent."""
    A = 0.5 * model.contraction_rate
    spec = resolve_step_size(model, C=C, mode="td0")
    for _ in range(max_iter):
        tau_hat = spec.tau_alpha
        lam = max(math.e, A * (T + 1) ** 2 / tau_hat)
        alpha_case1 = math.log(lam) / (A * (T + 1))
        cap = spec.caps(model.contraction_rate)
        case = 1 if alpha_case1 <= cap else 2
        alpha = alpha_case1 if case == 1 else cap
        spec = spec_at(model, None, "td0", alpha, C)
        if spec.tau_alpha == tau_hat:
            return WeightedAverageSpec(A=A, alpha=alpha, tau=tau_hat, T=T,
                                       lambda_tune=lam, C=C, case=case)
    raise StepSizeError("weighted-average tuning did not stabilize")


def weighted_average_experiment(config: ExperimentConfig,
                                slope_threshold: float = -0.8,
                                tail_points: int = 4) -> BoundLedger:
    """For each horizon in the configured geometric grid, tune alpha, run the
    trials with an incrementally normalized weighted average (the raw weights
    are never materialized), and fit the tail log-log slope of the
    stationary-weighted value error against T.

    The tuning and the error metric are TD(0)'s, so other providers and
    nonlinear step-size mode are refused."""
    if not isinstance(config.provider, TD0Provider) or config.spec.mode != "td0":
        kind = config.provider.describe()["kind"]
        raise ConfigError("weighted averaging is certified for TD(0) only (the td0 "
                          f"provider in td0 mode), got {kind} in {config.spec.mode} mode")
    if not config.averaging_grid:
        raise ConfigError("config has no averaging grid")
    grid = sorted(int(T) for T in config.averaging_grid)
    if len(grid) < 2:
        raise ConfigError("averaging grid needs at least two horizons")
    model = config.model
    rows = []
    for T in grid:
        wspec = tune_weighted_average(model, T, C=config.spec.C)
        spec = StepSizeSpec(C=config.spec.C, alpha=wspec.alpha,
                            tau_alpha=wspec.tau, mode="td0")
        sub = replace(config, T=T, spec=spec,
                      master_seed=derive_seed(config.master_seed, T))
        sim = _simulate(sub, weight_A=wspec.A)
        if not sim.valid:
            raise ConfigError(f"averaging run at T={T} hit the divergence guard")
        errs = model.value_error_D(sim.theta_bar)
        rows.append({
            "T": T, "alpha": wspec.alpha, "tau": wspec.tau, "case": wspec.case,
            "lambda": wspec.lambda_tune,
            "err": float(errs.mean()),
            "se": float(errs.std(ddof=1) / math.sqrt(config.trials)),
        })
    tail = rows[-tail_points:]
    x = np.log([r["T"] for r in tail])
    y = np.log([max(r["err"], 1e-300) for r in tail])
    slope = float(np.polyfit(x, y, 1)[0])
    verdict = "pass" if slope <= slope_threshold else "fail"
    return BoundLedger(
        theorem_id="theorem3-weighted-average",
        hypothesis={"C": config.spec.C, "grid": grid,
                    "in_contract": True},
        verdict=verdict, worst_margin=float(slope_threshold - slope),
        worst_step=-1,
        fitted={"tail_slope": slope, "threshold": slope_threshold,
                "tail_points": tail_points, "table": rows},
        slack={"multiplier": SLACK_MULTIPLIER},
        n_steps=len(grid),
    )


# ---------------------------------------------------------------------------
# Generic-provider experiments and sweeps

def nonlinear_sa_experiment(config: ExperimentConfig) -> dict:
    """Boundedness + recursion certification for the config's operator.

    The provider is audited against its declared constants first and the
    experiment refuses to run on failure. Rate and perturbation scale follow
    the step-size spec's mode, so routing TD(0) through this path with a
    td0-mode spec reproduces the TD(0)-specific ledgers exactly.
    """
    audit = audit_provider(config.provider, config.mrp, 20000,
                           derive_seed(config.master_seed, 0xA0D17))
    if not audit.ok:
        raise AuditError(audit)
    estimate = estimate_dt_et(config)
    return {
        "audit": audit,
        "estimate": estimate,
        "boundedness": check_boundedness(estimate),
        "recursion": check_recursion(estimate),
    }


def asymptotic_floor(estimate: MonteCarloEstimate) -> float:
    """Mean of d_hat over the final 10% of steps past the geometric burn-in
    t >= 5 / (alpha * drift rate)."""
    config = estimate.config
    spec = config.spec
    rate = drift_rate(spec.mode, config.model, config.provider)
    burn = int(math.ceil(5.0 / (spec.alpha * rate)))
    start = max(burn, int(math.floor(0.9 * estimate.T)))
    if start >= estimate.T:
        raise ConfigError(
            f"horizon T={estimate.T} leaves no floor window past burn-in {burn}")
    return float(np.mean(estimate.d_hat[start:]))


def alpha_sweep(config: ExperimentConfig, multipliers=(1.0, 0.5, 0.25)) -> dict:
    """Re-run the experiment across an alpha grid (multiples of the resolved
    alpha), recertifying tau per point, and fit the log-log slope of the
    asymptotic floor against alpha."""
    model, mode = config.model, config.spec.mode
    results = []
    for mult in multipliers:
        alpha = config.spec.alpha * float(mult)
        # tau and the auto horizon as parse_experiment resolves them
        spec = spec_at(model, config.provider, mode, alpha, config.spec.C)
        T = auto_horizon(spec, model, config.provider)
        sub = replace(config, spec=spec, T=T,
                      master_seed=derive_seed(config.master_seed, int(mult * 1e6)))
        est = estimate_dt_et(sub)
        results.append({"alpha": alpha, "tau": spec.tau_alpha, "T": T,
                        "in_contract": sub.in_contract(), "floor": asymptotic_floor(est),
                        "boundedness": check_boundedness(est), "estimate": est})
    x = np.log([r["alpha"] for r in results])
    y = np.log([r["floor"] for r in results])
    slope = float(np.polyfit(x, y, 1)[0])
    return {"points": results, "floor_slope": slope}


def write_columnar(path, estimate: MonteCarloEstimate,
                   ledger: BoundLedger | None = None):
    """Flat per-step export: t, d_hat, d_se, e_hat, e_se, bound_value, margin.

    Floats are written with repr so reruns are byte-identical.
    """
    T = estimate.T
    nan = float("nan")
    bound = ledger.bound_value if ledger is not None and ledger.bound_value is not None else None
    marg = ledger.margin if ledger is not None and ledger.margin is not None else None
    with open(path, "w") as fh:
        fh.write(f"# fingerprint={estimate.config.fingerprint()}\n")
        fh.write("t,d_hat,d_se,e_hat,e_se,bound_value,margin\n")
        for t in range(T + 1):
            e_h = float(estimate.e_hat[t]) if t < T else nan
            e_s = float(estimate.e_se[t]) if t < T else nan
            b = float(bound[t]) if bound is not None and t < bound.shape[0] else nan
            mg = float(marg[t]) if marg is not None and t < marg.shape[0] else nan
            fh.write(f"{t},{float(estimate.d_hat[t])!r},{float(estimate.d_se[t])!r},"
                     f"{e_h!r},{e_s!r},{b!r},{mg!r}\n")
