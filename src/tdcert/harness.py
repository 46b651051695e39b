"""Monte Carlo experiment harness.

Runs many independent trajectories (vectorized across trials, one derived
stream per trial), estimates the mean-square error path d_t and the Markov-
noise disturbance e_t with standard errors, and turns the finite-time
statements into pass/fail ledgers with explicit 3-standard-error slack.

``_simulate(config, parts)`` is the one SA kernel and ``MonteCarloEstimate``
its one result: it runs the config's trials as lanes, lane i on its words
under the key ``derive_seed(master_seed)`` and its delays, and a rerun of
the same config replays every lane bit for bit. Lanes are the last axis of
(K, trials) arrays, one column per lane. Transition and delay words each
come under one Philox key, the lane in its counter, in step-major blocks
(``chain.KeyedStreams``); transitions and start states come from the
chain's exact table samplers on those words (``mrp.sampler``,
``mrp.pi_sampler``), and every K-wide sum goes through ``rowsum``, which
adds the K rows left to right, so a lane's bits do not depend on how many
lanes run beside it. A run's parts (``_Curves`` d_t/e_t, ``_Drift`` the
tau-step drift, ``_Average`` each lane's weighted average) are its per-step
reductions over the trial axis, in a fixed order, so results do not depend
on scheduling. Every check takes only the estimate and reads alpha, tau, the
provider (its instance and theorem) and B from ``estimate.config``, whose
tau is certified for its alpha and cannot be restated, so a ledger checks
the hypothesis it reports. Every check's ledger comes from ``_ledger``,
which records one that checks no claim (out of contract, or aborted trials)
without fitting it. The bars a ledger is held to (``CEILING``,
``SLOPE_THRESHOLD``, ``SLACK_MULTIPLIER``) are module constants, not
settings. ``run_experiment(config, kind)`` audits the provider and runs the
parts and checks of one experiment kind (``KINDS``), and ``sweep(config,
axis, values)`` runs one along an alpha, tau_max or T grid.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .chain import (
    BLOCK,
    KeyedStreams,
    derive_seed,
    integer,
)
from .oracle import SteadyStateModel
from .sa_core import (
    DIVERGENCE_GUARD,
    STEP_C,
    ConfigError,
    DelayProcess,
    TD0Provider,
    UpdateDirectionProvider,
    audit_provider,
    auto_horizon,
    fingerprint,
    fixed_step_size,
    positive_alpha,
    resolve_step_size,
    rowsum,
)

_GUARD2 = DIVERGENCE_GUARD ** 2
# the rate A of the averaging weights (1 - alpha A)^-(t+1), as a share of the
# provider's contraction
AVERAGE_SHARE = 0.5


class AuditError(RuntimeError):
    """A provider failed its constants audit; the experiment refuses to run."""

    def __init__(self, audit):
        super().__init__(f"audit FAILED with witness {audit.witness}")
        self.audit = audit


def _averaging_grid(grid) -> tuple | None:
    """The horizons as given, or None for none (a repeated one would rerun
    its derived seed and count twice in the tail slope)."""
    if not isinstance(grid, (list, tuple, type(None))):
        raise ConfigError(f"averaging_grid must be a list, got {grid!r}")
    horizons = tuple(integer("averaging_grid entry", T_k, ConfigError)
                     for T_k in grid or ())
    ordered = sorted(horizons)
    if len(set(ordered)) < len(ordered):
        raise ConfigError(f"averaging grid repeats a horizon: {ordered}")
    if len(ordered) == 1:
        raise ConfigError("averaging grid needs at least two horizons")
    if ordered and ordered[0] < 1:
        raise ConfigError(f"averaging horizon T={ordered[0]} must be at least 1")
    return horizons or None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything one Monte Carlo experiment needs, deterministically.

    The instance (the provider, which holds its chain + features ``model``, and
    theta0), the constant step-size alpha, the horizon and trial count, the
    master seed all per-trial streams derive from, and the optional delay
    process / sampling mode / averaging grid. ``tau`` is not an argument: it
    is derived once as ``provider.certify(alpha).tau``, so a config cannot
    restate the mixing time it is certified at. Derive variants with
    ``dataclasses.replace``, which certifies a new alpha again. Counted
    fields (T, trials, master_seed, start_state, averaging_grid entries) are
    refused unless whole numbers, and stored as ints; start_state must be a
    state of the chain and is refused under iid_restart sampling, which
    never reads it; a grid needs two or more distinct horizons of at least 1,
    and the label is a string. theta0 is stored read-only and the grid as a
    tuple, so the fingerprint, computed once on first use, cannot go stale.
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
    averaging_grid: tuple | None = None
    label: str = ""

    def __post_init__(self):
        alpha = positive_alpha(self.alpha)  # before any tau is certified
        whole = {name: integer(name, getattr(self, name), ConfigError)
                 for name in ("T", "trials", "master_seed")}
        if self.start_state is not None:
            start = whole["start_state"] = integer("start_state", self.start_state, ConfigError)
            if not 0 <= start < self.model.mrp.n:
                raise ConfigError(f"start_state must be a state in 0..{self.model.mrp.n - 1}"
                                  f", got {start}")
        whole["averaging_grid"] = _averaging_grid(self.averaging_grid)
        if whole["T"] < 0:
            raise ConfigError("T must be nonnegative")
        if whole["trials"] < 1:
            raise ConfigError("need at least one trial")
        if self.sampling not in ("markov", "iid_restart"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        if self.sampling == "iid_restart" and self.start_state is not None:
            raise ConfigError("start_state is never read under sampling "
                              "'iid_restart', which draws every state from pi")
        if not isinstance(self.label, str):
            raise ConfigError(f"label must be a string, got {self.label!r}")
        normalized = dict(
            theta0=self.provider.initial_theta(self.theta0),
            alpha=alpha, tau=self.provider.certify(alpha).tau, **whole)
        normalized["theta0"].setflags(write=False)
        for name, value in normalized.items():
            object.__setattr__(self, name, value)

    @property
    def model(self) -> SteadyStateModel:
        return self.provider.model

    @property
    def B(self) -> float:
        return self.provider.bound_B(self.theta0)

    def in_contract(self) -> bool:
        """alpha within the undelayed cap ``provider.step_cap(tau)``; it does
        not read ``delays.tau_max``. A delayed config gets its 1 / (1 + tau_max)
        from ``step_size.alpha_scale`` (as the bundled delayed configs set it)
        or from the tau_max sweep's division."""
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
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # JSON-encoding the whole chain is the cost (23 ms at n = 150)
        return fingerprint(self.to_dict())


@dataclass
class MonteCarloEstimate:
    """What one kernel run reduced over its lanes.

    ``config`` is the experiment the lanes ran; ``abort_step`` is None unless
    ``abort_count`` lanes hit the divergence guard, which stops the run at
    that step. The rest are filled by the run's parts and are None for a
    part that did not run: the per-step cross-trial d_t/e_t curves with
    standard errors (``_Curves``), the tau-step drift ``drift_hat``/
    ``drift_se`` of ||theta_t - theta_{t-tau}||^2 at t = tau..T, entry
    t - tau (``_Drift``), and each lane's weighted average ``theta_bar``
    (``_Average``).
    """

    abort_count: int
    abort_step: int | None
    config: ExperimentConfig
    d_hat: np.ndarray | None = None
    d_se: np.ndarray | None = None
    e_hat: np.ndarray | None = None
    e_se: np.ndarray | None = None
    theta_bar: np.ndarray | None = None
    drift_hat: np.ndarray | None = None
    drift_se: np.ndarray | None = None

    @property
    def T(self) -> int:
        return self.config.T


def _mean_se(curve, count):
    """A reduced curve's (2, n) block of per-step cross-trial means and
    centered sums of squares as (mean, standard error of the mean), the SE
    computed in place in the second row, so the run's peak holds no second
    copy of its curves."""
    mean, sq_dev_total = curve
    if count > 1:
        sq_dev_total /= count - 1
        sq_dev_total /= count
        return mean, np.sqrt(sq_dev_total, out=sq_dev_total)
    return mean, np.zeros_like(sq_dev_total)


def _mean_and_dev(curve, t, vals, trials):
    """Column t of the (2, n) block ``curve``: the cross-trial mean of ``vals``
    (``np.mean`` bit for bit) and its centered sum of squares, overwriting ``vals``."""
    mean = vals.sum() / trials
    vals -= mean
    vals *= vals
    curve[0, t], curve[1, t] = mean, vals.sum()


class _Curves:
    """d_t = E ||theta_t - theta*||^2 at t = 0..T and the disturbance
    e_t = E <g_t - gbar(theta_t), theta_t - theta*> at t = 0..T-1, g_t the
    direction of the step's own sample, each as a (2, n) block of per-step
    cross-trial means and centered sums of squares (the centered form keeps
    a deterministic instance's variance at rounding level). The only part
    that calls ``provider.steady``."""

    def __init__(self, config, work, row):
        provider, trials = config.provider, config.trials
        self.steady, self.work, self.row, self.trials = provider.steady, work, row, trials
        # theta* as full (K, trials) rows: subtracting a (K, 1) column runs
        # about 2x slower than a whole-array op
        self.star = np.tile(provider.theta_star[:, None], (1, trials))
        self.diff = np.empty((provider.dim, trials))
        self.d = np.full((2, config.T + 1), np.nan)
        self.e = np.full((2, config.T), np.nan)

    def step(self, t, theta, g):
        diff, work, row, trials = self.diff, self.work, self.row, self.trials
        np.subtract(theta, self.star, out=diff)
        _mean_and_dev(self.d, t, rowsum(np.multiply(diff, diff, out=work), row), trials)
        if g is not None:
            np.subtract(g, self.steady(theta), out=work)
            work *= diff
            _mean_and_dev(self.e, t, rowsum(work, row), trials)

    def result(self):
        d_hat, d_se = _mean_se(self.d, self.trials)
        e_hat, e_se = _mean_se(self.e, self.trials)
        return {"d_hat": d_hat, "d_se": d_se, "e_hat": e_hat, "e_se": e_se}


class _Drift:
    """The tau-step drift ||theta_t - theta_{t-tau}||^2 reduced over the lanes
    at t = tau..T as d_t is; lane i's theta_{t-tau} is
    ``lag[:, (t mod tau) * trials + i]`` until theta_t replaces it."""

    def __init__(self, config, work, row):
        self.tau, self.trials, self.work, self.row = config.tau, config.trials, work, row
        self.lag = np.empty((config.provider.dim, self.tau * self.trials))
        self.drifts = np.full((2, max(config.T + 1 - self.tau, 0)), np.nan)

    def step(self, t, theta, g):
        tau, trials, work = self.tau, self.trials, self.work
        back = t % tau * trials
        past = self.lag[:, back:back + trials]
        if t >= tau:
            np.subtract(theta, past, out=work)
            _mean_and_dev(self.drifts, t - tau,
                          rowsum(np.multiply(work, work, out=work), self.row), trials)
        past[...] = theta

    def result(self):
        drift_hat, drift_se = _mean_se(self.drifts, self.trials)
        return {"drift_hat": drift_hat, "drift_se": drift_se}


class _Average:
    """Each lane's average of theta_0..theta_T with weights (1 - alpha
    A)^-(t+1), A = ``AVERAGE_SHARE`` times the provider's contraction, as
    S += (theta_t - S) / v_t, v_t = v_{t-1} (1 - alpha A) + 1, from S = theta_0."""

    def __init__(self, config, work, row):
        self.work, self.v = work, 1.0
        self.S = np.tile(config.theta0[:, None], (1, config.trials))
        self.wrate = 1.0 - config.alpha * (AVERAGE_SHARE * config.provider.contraction)

    def step(self, t, theta, g):
        if t:
            self.v = self.v * self.wrate + 1.0
            np.subtract(theta, self.S, out=self.work)
            self.work /= self.v
            self.S += self.work

    def result(self):
        return {"theta_bar": np.ascontiguousarray(self.S.T)}


def _simulate(config: ExperimentConfig, parts=(_Curves,)) -> MonteCarloEstimate:
    """The SA recursion theta_{t+1} = theta_t + alpha g(theta_{t-d_t}; X_{t-d_t})
    for the config's trials as a batch of lanes, reduced by ``parts``; the
    only code that advances theta.

    Lane i draws lane i's words of the key ``derive_seed(master_seed)``
    (``KeyedStreams``) and takes lane i's delays, so its bits do not depend
    on the lanes beside it. Both are drawn ``BLOCK`` steps at a time into
    reused buffers, so memory does not grow with T: the raw words into one
    (BLOCK * draws + 4, trials) uint64 buffer, the delays into one
    (BLOCK, trials) int64 buffer (``DelayProcess.blocks``). markov sampling
    draws one word per step; when ``start_state`` is None the start state is
    word 0 of a 4-word block of its own (words 1-3 unused) that rides in the
    first fill beside its BLOCK steps, so a run fills ceil(T / BLOCK) times,
    each fill on a Philox block boundary; iid_restart draws the
    state fresh from pi and then its successor, two words per step. Each
    step samples every lane's transition, gathers s' 's column of
    ``provider.state_table`` (in markov sampling also the next step's F_s),
    calls ``provider.direction`` once on the whole (K, trials) batch, and
    updates. A delayed lane applies the direction its kernel computed d_t
    steps earlier, which is g(theta_{t-d_t}; X_{t-d_t}) bit for bit, read
    with one gather from a flat ring of the last min(tau_max, T) + 1
    directions.

    A part is one per-step reduction, like ``_Curves`` and the classes beside
    it, built once per run as ``part(config, work, row)`` on the run's scratch
    ``work``, (K, trials), and ``row``, (trials,), free to overwrite within a
    call. In the order given, each part's ``step(t, theta_t, g_t)`` sees every
    step's iterate and undelayed direction g(theta_t; X_t) before the update;
    ``step(T, theta_T, None)`` comes once after the last step, only when no
    lane aborted; ``result()`` gives the estimate fields the part fills.
    """
    provider, mrp, delays = config.provider, config.model.mrp, config.delays
    alpha, T, trials, K = config.alpha, config.T, config.trials, provider.dim
    # with no coordinate above this, every lane's sum of squares is about
    # G^2 / 2, inside the guard whatever the rounding; one max over the batch
    # costs a third of the exact row sums
    safe = DIVERGENCE_GUARD / math.sqrt(2 * K)
    pi_sampler, sampler, F = mrp.pi_sampler, mrp.sampler, provider.state_table
    iid = config.sampling == "iid_restart"
    draws = 2 if iid else 1

    streams = KeyedStreams(derive_seed(config.master_seed), trials)
    s = F_s = None
    start_state = config.start_state
    lead = 4 if not iid and start_state is None else 0  # the start state's block
    words = np.empty((min(BLOCK, T) * draws + lead, trials), dtype=np.uint64)
    theta = np.tile(config.theta0[:, None], (1, trials))
    work, row = np.empty((K, trials)), np.empty(trials)
    parts = [part(config, work, row) for part in parts]

    use_delays = delays is not None and delays.tau_max > 0
    if use_delays:
        # no delay exceeds min(t, tau_max) <= T - 1, so the ring holds the
        # directions of the last m = cap + 1 steps; lane i's slot-b direction
        # is ring[:, b * trials + i]. Each block's delays d_t are drawn into
        # one reused buffer and turned there into the index rows
        # ((t - d_t) mod m) * trials + i, looked up in ``wrap`` at
        # (t mod m) - d_t + cap, in [0, 2 cap], in place of a division per
        # lane-step (always in range, so ``take`` needs no checked copy:
        # mode="clip")
        cap = min(delays.tau_max, T)
        m = cap + 1
        ring = np.zeros((K, m * trials))
        slots = delays.blocks(T, np.empty((min(BLOCK, T), trials), dtype=np.int64))
        wrap = np.arange(-cap, m) % m * trials
        lanes = np.arange(trials)

    if not iid and not lead:
        s = np.full(trials, start_state, dtype=np.int64)
        F_s = F.take(s, axis=1)

    abort_count, abort_step, t0 = 0, None, 0
    while t0 < T and abort_step is None:
        L = min(BLOCK, T - t0)
        W = words[:L * draws + lead]
        streams.fill(W)
        if lead:
            s = pi_sampler.pick(W[0])
            F_s = F.take(s, axis=1)
            W = W[lead:]
            lead = 0
        if use_delays:
            _, idx = next(slots)
            phase = np.arange(t0, t0 + L)[:, None] % m + cap
            np.subtract(phase, idx, out=idx)
            wrap.take(idx, out=idx, mode="clip")
            idx += lanes
        for j in range(L):
            step = t0 + j
            if iid:
                s = pi_sampler.pick(W[2 * j])
                F_s = F.take(s, axis=1)
                sp = sampler.pick(W[2 * j + 1], s)
            else:
                sp = sampler.pick(W[j], s)
            F_sp = F.take(sp, axis=1)

            g = provider.direction(theta, (F_s, F_sp))
            for part in parts:
                part.step(step, theta, g)

            if use_delays:
                slot = step % m * trials
                ring[:, slot:slot + trials] = g
                g = ring.take(idx[j], axis=1, out=work, mode="clip")
            theta += np.multiply(alpha, g, out=work)

            # NaN fails every comparison, so this is the finite check as well
            if not np.abs(theta).max() <= safe:
                inside = rowsum(theta * theta) <= _GUARD2
                if not inside.all():
                    abort_count = trials - int(np.count_nonzero(inside))
                    abort_step = step + 1
                    break
            if not iid:
                s, F_s = sp, F_sp
        t0 += L

    fields = {}
    for part in parts:
        if abort_step is None:
            part.step(T, theta, None)
        fields.update(part.result())
    return MonteCarloEstimate(abort_count=abort_count, abort_step=abort_step,
                              config=config, **fields)


def estimate_dt_et(config: ExperimentConfig) -> MonteCarloEstimate:
    """The d_t and e_t curves (``_Curves``) of the config's trials."""
    return _simulate(config)


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

    def to_dict(self) -> dict:
        return asdict(self)


def _require_ledger_grade(config: ExperimentConfig):
    if config.trials < 100:
        raise ConfigError(
            f"ledger-producing runs need at least 100 trials, got "
            f"{config.trials} (confidence intervals are meaningless below)")


def _ledger(estimate: MonteCarloEstimate, theorem_id: str, n_steps: int, fit,
            notes: str = "") -> BoundLedger:
    """The ledger of one check over ``n_steps`` steps; below 100 trials it
    raises. A check that claims nothing is recorded without calling ``fit``:
    out-of-contract (the step-size hypothesis is violated), its ``notes``
    followed by the refusal, before invalid (trials hit the divergence
    guard). Otherwise ``fit()`` gives (passed, worst margin, worst step,
    fitted, slack width); the hypothesis and the multiplier are added here."""
    config = estimate.config
    _require_ledger_grade(config)
    slack = {"multiplier": SLACK_MULTIPLIER}
    if not config.in_contract():
        verdict, margin, step, fitted = "out-of-contract", float("nan"), -1, {}
        notes += " (step-size hypothesis violated; no claim checked)"
    elif estimate.abort_step is not None:
        verdict, margin, step, fitted = "invalid", float("-inf"), estimate.abort_step, {}
        notes = f"{estimate.abort_count} trials hit the divergence guard"
    else:
        passed, margin, step, fitted, slack["max_width"] = fit()
        verdict, notes = "pass" if passed else "fail", ""
    return BoundLedger(
        theorem_id=theorem_id, hypothesis=config.hypothesis(), verdict=verdict,
        worst_margin=margin, worst_step=step, fitted=fitted, slack=slack,
        n_steps=n_steps, notes=notes)


def check_boundedness(estimate: MonteCarloEstimate) -> BoundLedger:
    """Verify d_hat(t) - 3 SE(t) <= B at every step.

    B comes from the configured theta0 and the provider's scale constant.
    """
    B = estimate.config.B

    def fit():
        margin = B - (estimate.d_hat - SLACK_MULTIPLIER * estimate.d_se)
        worst = int(np.argmin(margin))
        return (margin[worst] >= 0.0, float(margin[worst]), worst,
                {"B": B, "max_d_hat": float(np.max(estimate.d_hat))},
                float(np.max(SLACK_MULTIPLIER * estimate.d_se)))

    return _ledger(estimate, "theorem1-boundedness", estimate.T + 1, fit, f"B={B:.6g}")


def check_recursion(estimate: MonteCarloEstimate) -> BoundLedger:
    """Fit the smallest constants making the one-step recursion and the
    disturbance bound hold for t >= tau, with 3-SE slack.

    d_hat(t+1) <= rate * d_hat(t) + c * perturb_scale with rate
    1 - alpha beta and scale alpha^2 L^2 tau B, and e_hat(t) <= c' * e_scale
    with e_scale alpha L^2 tau B, beta and L^2 the provider's (L^2 is 1 for
    TD(0)). Before tau the disturbance is checked against its coarse 8B bound
    instead.
    """
    config = estimate.config
    alpha, tau, B, T = config.alpha, config.tau, config.B, estimate.T

    def fit():
        if T <= tau + 1:
            raise ConfigError(f"horizon T={T} leaves no steps at or beyond tau={tau}")
        rate = 1.0 - alpha * config.provider.beta
        L2 = config.provider.recursion_L2
        perturb_scale = alpha ** 2 * L2 * tau * B
        e_scale = alpha * L2 * tau * B
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
        # the worst step is that of the fit that sets the margin
        worst = needed_c if c >= c_prime else needed_cp
        return (c <= CEILING and c_prime <= CEILING and pre_tau_ok,
                float(CEILING - max(c, c_prime)), int(t[np.argmax(worst)]),
                {"c": c, "c_prime": c_prime, "rate": rate,
                 "perturb_scale": perturb_scale, "e_scale": e_scale,
                 "pre_tau_ok": pre_tau_ok, "ceiling": CEILING},
                float(np.max(slack_rec)))

    return _ledger(estimate, "theorem2-recursion", max(T - tau, 0), fit)


def check_iid_noise(estimate: MonteCarloEstimate) -> BoundLedger:
    """Control check: under i.i.d. restart sampling the disturbance e_t is
    exactly zero in expectation, so the pooled sum of e_hat over t >= 1 must
    sit within 3 SE of 0, its SE sqrt(sum_t SE(t)^2).

    Each lane's terms are martingale differences in t, uncorrelated across
    steps, so the pooled SE is the SE of the sum, and the one comparison
    keeps the nominal 3-SE false-fail rate; a band at every step would fail
    some step of a long run by chance alone. ``fitted`` records the pooled
    z-score and the number of steps pooled."""
    if estimate.config.sampling != "iid_restart":
        raise ConfigError("the i.i.d. control check needs sampling='iid_restart'")
    if estimate.T < 2:
        raise ConfigError("the control needs a horizon of at least 2 steps")
    steps = estimate.T - 1

    def fit():
        total = float(estimate.e_hat[1:].sum())
        se = math.sqrt(float(np.sum(estimate.e_se[1:] ** 2)))
        margin = SLACK_MULTIPLIER * se - abs(total)
        return (margin >= 0.0, margin, -1,
                {"z": total / se if se > 0.0 else float("nan"), "steps_pooled": steps},
                SLACK_MULTIPLIER * se)

    return _ledger(estimate, "lemma4-iid-control", steps, fit)


def check_drift(estimate: MonteCarloEstimate) -> BoundLedger:
    """Fit the smallest c with E ||theta_t - theta_{t-tau}||^2 <= c alpha^2
    tau^2 B over t >= tau, with 3-SE slack, from the drift the kernel
    reduced over the lanes (``drift_hat``, ``drift_se``)."""
    if estimate.drift_hat is None:
        raise ConfigError("the drift check needs an estimate whose kernel run "
                          "reduced the drift (the _Drift part)")
    config = estimate.config
    T, tau, alpha = estimate.T, config.tau, config.alpha
    if T < tau + 1:
        raise ConfigError(f"horizon {T} too short for tau={tau}")

    def fit():
        scale = alpha ** 2 * tau ** 2 * config.B
        needed = (estimate.drift_hat - SLACK_MULTIPLIER * estimate.drift_se) / scale
        c = float(max(needed.max(), 0.0))
        return (c <= CEILING, float(CEILING - c), int(np.argmax(needed)) + tau,
                {"c": c, "scale": scale, "ceiling": CEILING,
                 "max_drift": float(estimate.drift_hat.max())},
                float(np.max(SLACK_MULTIPLIER * estimate.drift_se)))

    return _ledger(estimate, "lemma3-drift", T + 1 - tau, fit)


# ---------------------------------------------------------------------------
# Weighted iterate averaging

def tune_weighted_average(provider: UpdateDirectionProvider, T: int):
    """The horizon-aware step-size of averaging with weights
    (1 - alpha A)^-(t+1), A = ``AVERAGE_SHARE`` * contraction, as (alpha,
    lambda, case): alpha = ln(lambda)/(A (T+1)) with lambda = max(e,
    A (T+1)^2 / tau) when that obeys the mixing cap (case 1), otherwise the
    cap itself (case 2), at the tau ``provider.certify(alpha)`` certifies
    (``fixed_step_size`` from ``resolve_step_size``), so alpha always
    satisfies the cap and boundedness applies."""
    A = AVERAGE_SHARE * provider.contraction

    def spec(tau):
        lam = max(math.e, A * (T + 1) ** 2 / tau)
        alpha, cap = math.log(lam) / (A * (T + 1)), provider.step_cap(tau)
        return (alpha, lam, 1) if alpha <= cap else (cap, lam, 2)

    alpha = fixed_step_size(provider, lambda tau: spec(tau)[0],
                            resolve_step_size(provider))
    return spec(provider.certify(alpha).tau)


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
    _require_ledger_grade(config)
    grid = sorted(config.averaging_grid)
    model = config.model
    rows = []
    for T in grid:
        alpha, lam, case = tune_weighted_average(config.provider, T)
        sub = replace(config, T=T, alpha=alpha,
                      master_seed=derive_seed(config.master_seed, T))
        sim = _simulate(sub, (_Average,))
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

# each experiment kind that checks one estimate: the parts its kernel run
# reduces and its ledgers by name; "nonlinear" is a legacy name for "recursion"
KINDS = {
    "boundedness": ((_Curves,), {"boundedness": check_boundedness}),
    "recursion": ((_Curves, _Drift), {"boundedness": check_boundedness,
                                      "recursion": check_recursion, "drift": check_drift}),
    "iid_control": ((_Curves,), {"iid_control": check_iid_noise}),
}
KINDS["nonlinear"] = KINDS["recursion"]


def run_experiment(config: ExperimentConfig, kind: str):
    """One experiment of the given kind as (estimate, ledgers by name).

    Whatever the kind, it first refuses fewer than 100 trials and audits the
    provider against its declared constants (``AuditError`` on failure).
    ``weighted_average`` runs its horizon grid and has no estimate (None);
    every other kind runs the config's trials once, reduced by the parts of
    its ``KINDS`` row, and applies the row's checks.
    """
    if not isinstance(kind, str) or kind != "weighted_average" and kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    _require_ledger_grade(config)
    audit = audit_provider(config.provider, 20000,
                           derive_seed(config.master_seed, 0xA0D17))
    if not audit.ok:
        raise AuditError(audit)
    if kind == "weighted_average":
        return None, {"weighted_average": weighted_average_experiment(config)}
    parts, checks = KINDS[kind]
    estimate = _simulate(config, parts)
    return estimate, {name: check(estimate) for name, check in checks.items()}


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


def _sweep_grid(axis: str, values) -> list:
    """The values of a sweep, checked before any point runs: alpha multipliers
    positive finite floats, tau_max (at least 0) and T whole numbers, all
    distinct, and at least two multipliers with distinct seed indices."""
    if axis not in ("alpha", "T", "tau_max"):
        raise ConfigError(f"unknown sweep axis {axis!r} (alpha, T, tau_max)")
    grid = ([float(mult) for mult in values] if axis == "alpha" else
            [integer(f"sweep value {axis}", value, ConfigError) for value in values])
    if not grid:
        raise ConfigError("sweep grid is empty")
    for value in grid:
        if axis == "alpha" and not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"alpha multiplier {value!r} must be a positive "
                              "finite number")
        if axis == "tau_max" and value < 0:
            raise ConfigError(f"sweep value tau_max={value} must be at least 0")
    if len(set(grid)) < len(grid):
        raise ConfigError(f"sweep values must be distinct, got {axis}={grid}")
    if axis == "alpha" and len(grid) < 2:
        raise ConfigError("an alpha sweep needs at least two multipliers")
    if axis == "alpha":  # a point's seed index is int(mult * 1e6)
        seen = {}
        for value in grid:
            other = seen.setdefault(int(value * 1e6), value)
            if other != value:
                raise ConfigError(
                    f"alpha multipliers {other!r} and {value!r} share the seed "
                    f"index {int(value * 1e6)}, so they would draw the same streams")
    return grid


def sweep(config: ExperimentConfig, axis: str, values) -> dict:
    """The experiment re-run along one axis, as a dict of the ``axis``, its
    checked ``values``, a summary dict per point (``points``), the ``ledgers``
    and ``estimates`` by tag, and the axis's slope. Every point goes through
    ``run_experiment``, so each is audited.

    - ``alpha``: multiples of the config's alpha, on the seeds
      ``derive_seed(master_seed, int(mult * 1e6))``; ``floor_slope`` is the
      log-log slope of the asymptotic floor against alpha.
    - ``tau_max``: the provider's step size over 1 + tau_max, under the
      config's delay kind and seed (uniform and 77 if it has none, or kind
      none).
    - ``T``: the horizons of one weighted-average experiment, whose table
      rows are the points; ``tail_slope`` is its ledger's.

    An alpha or tau_max point is a boundedness experiment at the auto horizon.
    """
    grid = _sweep_grid(axis, values)
    result = {"axis": axis, "values": grid, "ledgers": {}, "estimates": {}}
    if axis == "T":
        _, result["ledgers"] = run_experiment(replace(config, averaging_grid=grid),
                                              "weighted_average")
        fitted = result["ledgers"]["weighted_average"].fitted
        return {**result, "points": fitted["table"], "tail_slope": fitted["tail_slope"]}
    if axis == "tau_max":
        base = resolve_step_size(config.provider)
        delays = config.delays
        kind, seed = ((delays.kind, delays.seed) if delays and delays.kind != "none"
                      else ("uniform", 77))
    points = result["points"] = []
    for i, value in enumerate(grid):
        if axis == "alpha":
            tag, alpha = f"alpha_{i}", config.alpha * value
            changes = {"master_seed": derive_seed(config.master_seed, int(value * 1e6))}
        else:
            tag, alpha = f"tau_max_{value}", base / (1 + value)
            changes = {"delays": DelayProcess(kind if value > 0 else "none", value, seed)}
        sub = replace(config, alpha=alpha, T=auto_horizon(alpha, config.provider),
                      **changes)
        est, ledgers = run_experiment(sub, "boundedness")
        led = result["ledgers"][tag] = ledgers["boundedness"]
        result["estimates"][tag] = est
        point = {"alpha": alpha, "tau": sub.tau, "T": sub.T, "verdict": led.verdict}
        if axis == "alpha":
            point.update(in_contract=sub.in_contract(), floor=asymptotic_floor(est))
        else:
            point["tau_max"] = value
        points.append(point)
    if axis == "alpha":
        x = np.log([p["alpha"] for p in points])
        y = np.log([p["floor"] for p in points])
        result["floor_slope"] = float(np.polyfit(x, y, 1)[0])
    return result


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
