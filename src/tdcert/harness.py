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
tau, the provider (its instance and theorem) and B from ``estimate.config``,
whose tau is certified for its alpha and cannot be restated, so a ledger
checks the hypothesis it reports; one that checks no claim (out
of contract, or aborted trials) comes from ``_refused``. The bars a ledger is
held to (``CEILING``, ``SLOPE_THRESHOLD``, ``SLACK_MULTIPLIER``) are module
constants, not settings. ``run_experiment(config, kind)`` audits the provider
and runs the checks of one experiment kind.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (
    ChainError,
    InverseCdfTable,
    derive_seed,
    generator,
    stream_key,
)
from .oracle import SteadyStateModel
from .sa_core import (
    DIVERGENCE_GUARD,
    STEP_C,
    ConfigError,
    DelayProcess,
    StepSizeError,
    TD0Provider,
    UpdateDirectionProvider,
    audit_provider,
    auto_horizon,
    bound_B,
    fingerprint,
    initial_theta,
    positive_alpha,
    resolve_step_size,
    rowsum,
)

_GUARD2 = DIVERGENCE_GUARD ** 2
_BLOCK = 4096
_LANE_CHUNK = 64


class AuditError(RuntimeError):
    """A provider failed its constants audit; the experiment refuses to run."""

    def __init__(self, audit):
        super().__init__(audit.describe())
        self.audit = audit


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything one Monte Carlo experiment needs, deterministically.

    The instance (the provider, which holds its chain + features ``model``, and
    theta0), the constant step-size alpha, the horizon and trial count, the
    master seed all per-trial streams derive from, and the optional delay
    process / sampling mode / averaging grid. ``tau`` is not an argument: it
    is derived once as ``provider.certify(alpha).tau``, so a config cannot
    restate the mixing time it is certified at. Derive variants with
    ``dataclasses.replace``, which certifies a new alpha again.
    """

    provider: UpdateDirectionProvider
    theta0: np.ndarray | None
    alpha: float
    tau: int = field(init=False)
    T: int
    trials: int
    master_seed: int
    delays: DelayProcess | None = None
    sampling: str = "markov"
    start_state: int | None = None
    averaging_grid: list | None = None
    label: str = ""

    def __post_init__(self):
        alpha = positive_alpha(self.alpha)  # before any tau is certified
        if self.T < 0:
            raise ConfigError("T must be nonnegative")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.sampling not in ("markov", "iid_restart"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        normalized = dict(
            theta0=initial_theta(self.provider, self.theta0), T=int(self.T),
            trials=int(self.trials), master_seed=int(self.master_seed),
            averaging_grid=list(self.averaging_grid) if self.averaging_grid else None,
            alpha=alpha, tau=self.provider.certify(alpha).tau)
        for name, value in normalized.items():
            object.__setattr__(self, name, value)

    @property
    def model(self) -> SteadyStateModel:
        return self.provider.model

    @property
    def B(self) -> float:
        return bound_B(self.provider, self.theta0)

    def in_contract(self) -> bool:
        return self.alpha <= self.provider.step_cap(self.tau) * (1.0 + 1e-12)

    def hypothesis(self) -> dict:
        return {
            "alpha": self.alpha,
            "tau": self.tau,
            "C": STEP_C,
            "B": self.B,
            "mode": self.provider.mode,
            "in_contract": self.in_contract(),
        }

    def to_dict(self) -> dict:
        return {
            "mrp": self.model.mrp.to_dict(),
            "features": self.model.features.to_dict(),
            "theta0": self.theta0.tolist(),
            "spec": {"C": STEP_C, "alpha": self.alpha, "tau": self.tau,
                     "mode": self.provider.mode},
            "T": self.T,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "provider": self.provider.describe(),
            "delays": self.delays.to_dict() if self.delays else None,
            "sampling": self.sampling,
            "start_state": self.start_state,
            "averaging_grid": self.averaging_grid,
            "ceiling": CEILING,
            "label": self.label,
        }

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


@dataclass
class MonteCarloEstimate:
    """Per-step cross-trial estimates of d_t and e_t with standard errors.

    ``config`` is the experiment the lanes ran; ``abort_step`` is None unless
    ``abort_count`` lanes hit the divergence guard, which stops the run at
    that step. ``theta_bar`` holds each lane's weighted average when one was
    requested, and ``retained`` each lane's iterates theta_0..theta_T,
    (trials, T+1, K), when retained.
    """

    d_hat: np.ndarray
    d_se: np.ndarray
    e_hat: np.ndarray
    e_se: np.ndarray
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
    provider, mrp, delays = config.provider, config.model.mrp, config.delays
    alpha, T, trials, K = config.alpha, config.T, config.trials, provider.dim
    # theta* as full (K, trials) rows: subtracting a (K, 1) column runs
    # about 2x slower than a whole-array op
    star = np.tile(provider.theta_star[:, None], (1, trials))
    # with no coordinate above this, every lane's sum of squares is about
    # G^2 / 2, inside the guard whatever the rounding; one max over the batch
    # costs a third of the exact row sums
    safe = DIVERGENCE_GUARD / math.sqrt(2 * K)
    pi_sampler = InverseCdfTable(np.cumsum(mrp.pi)[None, :])
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
        abort_count=abort_count, abort_step=abort_step, config=config,
        retained=retained,
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
    if sim.abort_step is not None:
        raise ConfigError(
            f"{sim.abort_count} trials hit the divergence guard at step "
            f"{sim.abort_step}; cannot retain trajectories")
    return sim


# ---------------------------------------------------------------------------
# Ledgers

SLACK_MULTIPLIER = 3.0
CEILING = 100.0          # the largest fitted recursion or drift constant that passes
SLOPE_THRESHOLD = -0.8   # an averaging tail slope (log-log) at or below this passes
TAIL_POINTS = 4          # horizons at the end of the grid the slope is fitted on


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
    elif estimate.abort_step is not None:
        verdict, margin, step = "invalid", float("-inf"), estimate.abort_step
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
    )


def check_recursion(estimate: MonteCarloEstimate) -> BoundLedger:
    """Fit the smallest constants making the one-step recursion and the
    disturbance bound hold for t >= tau, with 3-SE slack.

    d_hat(t+1) <= rate * d_hat(t) + c * perturb_scale with rate
    1 - alpha beta and scale alpha^2 L^2 tau B, and e_hat(t) <= c' * e_scale
    with e_scale alpha L^2 tau B, beta and L^2 the provider's (L^2 is 1 for
    TD(0)). Before tau the disturbance is checked against its coarse 8B bound
    instead.
    """
    _require_ledger_grade(estimate)
    config = estimate.config
    alpha, tau, B = config.alpha, config.tau, config.B
    rate = 1.0 - alpha * config.provider.beta
    L2 = config.provider.recursion_L2
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

    worst = int(np.argmax(needed_c))
    ok = c <= CEILING and c_prime <= CEILING and pre_tau_ok
    return BoundLedger(
        theorem_id="theorem2-recursion", hypothesis=config.hypothesis(),
        verdict="pass" if ok else "fail",
        worst_margin=float(CEILING - max(c, c_prime)),
        worst_step=int(t[worst]),
        fitted={"c": c, "c_prime": c_prime, "rate": rate,
                "perturb_scale": perturb_scale, "e_scale": e_scale,
                "pre_tau_ok": pre_tau_ok, "ceiling": CEILING},
        slack={"multiplier": SLACK_MULTIPLIER,
               "max_width": float(np.max(slack_rec))},
        n_steps=T - tau,
    )


def check_iid_noise(estimate: MonteCarloEstimate) -> BoundLedger:
    """Control check: under i.i.d. restart sampling the disturbance e_t is
    exactly zero in expectation, so the pooled sum of e_hat over t >= 1 must
    sit within 3 SE of 0, its SE sqrt(sum_t SE(t)^2).

    Each lane's terms are martingale differences in t, uncorrelated across
    steps, so the pooled SE is the SE of the sum, and the one comparison
    keeps the nominal 3-SE false-fail rate; a band at every step would fail
    some step of a long run by chance alone. ``fitted`` records the pooled
    z-score and the number of steps pooled."""
    _require_ledger_grade(estimate)
    config = estimate.config
    if config.sampling != "iid_restart":
        raise ConfigError("the i.i.d. control check needs sampling='iid_restart'")
    if estimate.T < 2:
        raise ConfigError("the control needs a horizon of at least 2 steps")
    refused = _refused(estimate, "lemma4-iid-control", estimate.T - 1, "")
    if refused is not None:
        return refused
    steps = estimate.T - 1
    total = float(estimate.e_hat[1:].sum())
    se = math.sqrt(float(np.sum(estimate.e_se[1:] ** 2)))
    margin = SLACK_MULTIPLIER * se - abs(total)
    return BoundLedger(
        theorem_id="lemma4-iid-control", hypothesis=config.hypothesis(),
        verdict="pass" if margin >= 0.0 else "fail", worst_margin=margin,
        worst_step=-1,
        fitted={"z": total / se if se > 0.0 else float("nan"),
                "steps_pooled": steps},
        slack={"multiplier": SLACK_MULTIPLIER, "max_width": SLACK_MULTIPLIER * se},
        n_steps=steps,
    )


def check_drift(estimate: MonteCarloEstimate) -> BoundLedger:
    """Fit the smallest c with E ||theta_t - theta_{t-tau}||^2 <= c alpha^2
    tau^2 B over t >= tau, from the per-trial iterates the estimate retained
    (``simulate_trajectories``)."""
    _require_ledger_grade(estimate)
    thetas = estimate.retained  # (trials, T+1, K)
    if thetas is None:
        raise ConfigError("the drift check needs retained iterates; run the "
                          "experiment with simulate_trajectories")
    config = estimate.config
    trials, Tp1, _ = thetas.shape
    tau, alpha = config.tau, config.alpha
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
        verdict="pass" if c <= CEILING else "fail",
        worst_margin=float(CEILING - c), worst_step=worst,
        fitted={"c": c, "scale": scale, "ceiling": CEILING,
                "max_drift": float(mean.max())},
        slack={"multiplier": SLACK_MULTIPLIER,
               "max_width": float(np.max(SLACK_MULTIPLIER * se))},
        n_steps=mean.size,
    )


# ---------------------------------------------------------------------------
# Weighted iterate averaging

def tune_weighted_average(provider: UpdateDirectionProvider, T: int):
    """The horizon-aware step-size of averaging with weights
    (1 - alpha A)^-(t+1), A = 0.5 contraction, as (alpha, lambda, case):
    alpha = ln(lambda)/(A (T+1)) with lambda = max(e, A (T+1)^2 / tau) when
    that obeys the mixing cap (case 1), otherwise the cap itself (case 2),
    iterated until the mixing time ``provider.certify(alpha)`` certifies is
    the tau it was tuned at, so alpha always satisfies the cap and
    boundedness applies."""
    A = 0.5 * provider.contraction
    tau = provider.certify(resolve_step_size(provider)).tau
    for _ in range(50):
        lam = max(math.e, A * (T + 1) ** 2 / tau)
        alpha_case1 = math.log(lam) / (A * (T + 1))
        cap = provider.step_cap(tau)
        case = 1 if alpha_case1 <= cap else 2
        alpha = alpha_case1 if case == 1 else cap
        tau_hat, tau = tau, provider.certify(alpha).tau
        if tau == tau_hat:
            return alpha, lam, case
    raise StepSizeError("weighted-average tuning did not stabilize")


def weighted_average_experiment(config: ExperimentConfig) -> BoundLedger:
    """For each horizon in the configured geometric grid, tune alpha, run the
    trials with an incrementally normalized weighted average (the raw weights
    are never materialized), and fit the log-log slope of the
    stationary-weighted value error against T over the last ``TAIL_POINTS``
    horizons; it passes at ``SLOPE_THRESHOLD`` or steeper.

    The tuning and the error metric are TD(0)'s, so other providers are
    refused."""
    if not isinstance(config.provider, TD0Provider):
        raise ConfigError("weighted averaging is certified for TD(0) only, got "
                          f"{config.provider.describe()['kind']}")
    if not config.averaging_grid:
        raise ConfigError("config has no averaging grid")
    grid = sorted(int(T) for T in config.averaging_grid)
    if len(grid) < 2:
        raise ConfigError("averaging grid needs at least two horizons")
    if grid[0] < 1:
        raise ConfigError(f"averaging horizon T={grid[0]} must be at least 1")
    model = config.model
    weight_A = 0.5 * config.provider.contraction
    rows = []
    for T in grid:
        alpha, lam, case = tune_weighted_average(config.provider, T)
        sub = replace(config, T=T, alpha=alpha,
                      master_seed=derive_seed(config.master_seed, T))
        sim = _simulate(sub, weight_A=weight_A)
        if sim.abort_step is not None:
            raise ConfigError(f"averaging run at T={T} hit the divergence guard")
        errs = model.value_error_D(sim.theta_bar)
        rows.append({
            "T": T, "alpha": alpha, "tau": sub.tau, "case": case,
            "lambda": lam,
            "err": float(errs.mean()),
            "se": float(errs.std(ddof=1) / math.sqrt(config.trials)),
        })
    tail = rows[-TAIL_POINTS:]
    x = np.log([r["T"] for r in tail])
    y = np.log([max(r["err"], 1e-300) for r in tail])
    slope = float(np.polyfit(x, y, 1)[0])
    verdict = "pass" if slope <= SLOPE_THRESHOLD else "fail"
    return BoundLedger(
        theorem_id="theorem3-weighted-average",
        hypothesis={"C": STEP_C, "grid": grid,
                    "in_contract": True},
        verdict=verdict, worst_margin=float(SLOPE_THRESHOLD - slope),
        worst_step=-1,
        fitted={"tail_slope": slope, "threshold": SLOPE_THRESHOLD,
                "tail_points": TAIL_POINTS, "table": rows},
        slack={"multiplier": SLACK_MULTIPLIER},
        n_steps=len(grid),
    )


# ---------------------------------------------------------------------------
# Experiments and sweeps

# the ledgers of each experiment kind that checks one estimate, by name;
# "nonlinear" is a legacy name for "recursion"
CHECKS = {
    "boundedness": {"boundedness": check_boundedness},
    "recursion": {"boundedness": check_boundedness, "recursion": check_recursion},
    "iid_control": {"iid_control": check_iid_noise},
}
CHECKS["nonlinear"] = CHECKS["recursion"]


def run_experiment(config: ExperimentConfig, kind: str):
    """One experiment of the given kind as (estimate, ledgers by name).

    Whatever the kind, the provider is first audited against its declared
    constants, and the experiment refuses to run (``AuditError``) on failure.
    ``weighted_average`` runs its horizon grid and has no estimate (None);
    every other kind runs the config's trials once and applies its checks
    from ``CHECKS``.
    """
    if kind != "weighted_average" and kind not in CHECKS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    audit = audit_provider(config.provider, 20000,
                           derive_seed(config.master_seed, 0xA0D17))
    if not audit.ok:
        raise AuditError(audit)
    if kind == "weighted_average":
        return None, {"weighted_average": weighted_average_experiment(config)}
    estimate = estimate_dt_et(config)
    return estimate, {name: check(estimate) for name, check in CHECKS[kind].items()}


def asymptotic_floor(estimate: MonteCarloEstimate) -> float:
    """Mean of d_hat over the final 10% of steps past the geometric burn-in
    t >= 5 / (alpha * beta)."""
    config = estimate.config
    burn = int(math.ceil(5.0 / (config.alpha * config.provider.beta)))
    start = max(burn, int(math.floor(0.9 * estimate.T)))
    if start >= estimate.T:
        raise ConfigError(
            f"horizon T={estimate.T} leaves no floor window past burn-in {burn}")
    return float(np.mean(estimate.d_hat[start:]))


def alpha_sweep(config: ExperimentConfig, multipliers=(1.0, 0.5, 0.25)) -> dict:
    """Re-run the experiment across an alpha grid (positive multiples of the
    config's alpha) as boundedness experiments, recertifying tau per point,
    and fit the log-log slope of the asymptotic floor against alpha."""
    for mult in multipliers:
        if not (math.isfinite(mult) and mult > 0.0):
            raise ConfigError(f"alpha multiplier {mult!r} must be a positive "
                              "finite number")
    results = []
    for mult in multipliers:
        alpha = config.alpha * float(mult)
        # the auto horizon as parse_experiment resolves it; the config certifies tau
        T = auto_horizon(alpha, config.provider)
        sub = replace(config, alpha=alpha, T=T,
                      master_seed=derive_seed(config.master_seed, int(mult * 1e6)))
        est, ledgers = run_experiment(sub, "boundedness")
        results.append({"alpha": alpha, "tau": sub.tau, "T": T,
                        "in_contract": sub.in_contract(), "floor": asymptotic_floor(est),
                        "boundedness": ledgers["boundedness"], "estimate": est})
    x = np.log([r["alpha"] for r in results])
    y = np.log([r["floor"] for r in results])
    slope = float(np.polyfit(x, y, 1)[0])
    return {"points": results, "floor_slope": slope}


def write_columnar(path, estimate: MonteCarloEstimate,
                   ledger: BoundLedger | None = None):
    """Flat per-step export: t, d_hat, d_se, e_hat, e_se, bound_value, margin.

    The last two columns are the boundedness ledger's B and its per-step
    margin B - (d_hat - 3 SE); they are NaN when the ledger has no B (none
    given, or refused: out of contract or invalid). Floats are written with
    repr so reruns are byte-identical.
    """
    T = estimate.T
    nan = float("nan")
    B = float(ledger.fitted.get("B", nan)) if ledger is not None else nan
    margin = B - (estimate.d_hat - SLACK_MULTIPLIER * estimate.d_se)
    with open(path, "w") as fh:
        fh.write(f"# fingerprint={estimate.config.fingerprint()}\n")
        fh.write("t,d_hat,d_se,e_hat,e_se,bound_value,margin\n")
        for t in range(T + 1):
            e_h = float(estimate.e_hat[t]) if t < T else nan
            e_s = float(estimate.e_se[t]) if t < T else nan
            fh.write(f"{t},{float(estimate.d_hat[t])!r},{float(estimate.d_se[t])!r},"
                     f"{e_h!r},{e_s!r},{B!r},{float(margin[t])!r}\n")
