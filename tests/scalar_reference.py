"""Reference scalar SA loop that the batch kernel is compared against.

One trajectory, one draw at a time, with the full-row inverse CDF: the
markov chain draws one uniform per step (plus one for a start state drawn
from pi), iid_restart draws the state from pi and then its successor. A ring
buffer of the last tau_max + 1 iterates and observations supplies the stale
direction g(theta_{t-d_t}; X_{t-d_t}), X the states' columns of the
provider's ``state_table``; without delays d_t = 0. The provider is called
on one-lane batches: (K, 1) theta and (rows, 1) X. The delays come from
``reference_delays``, one generator per process.

``kernel_paths`` records the iterates the batch kernel itself computes, so
tests can compare them with this loop.
"""

import copy
from dataclasses import replace

import numpy as np

from chain_reference import derive_seed
from tdcert.chain import generator
from tdcert.harness import estimate_dt_et
from tdcert.sa_core import DIVERGENCE_GUARD, DelayProcess


class ReferenceDivergence(RuntimeError):
    """An iterate left the divergence guard at ``step``."""

    def __init__(self, step: int):
        super().__init__(f"iterate left the divergence guard at step {step}")
        self.step = step


def _inv_cdf(cum, u):
    """Index of the CDF cell of one row that contains the uniform u."""
    idx = int(np.sum(cum <= u))
    return min(idx, cum.shape[0] - 1)


def reference_delays(process: DelayProcess, T: int) -> np.ndarray:
    """The process's delays tau_0..tau_{T-1} (int64), each kind written out:
    a uniform process floors its own stream generator(derive_seed(seed,
    0xDE1A)) times tau_max + 1; every kind is clamped to min(t, tau_max)."""
    t = np.arange(T, dtype=np.int64)
    if process.kind == "none" or process.tau_max == 0:
        return np.zeros(T, dtype=np.int64)
    if process.kind == "constant":
        raw = np.full(T, process.tau_max, dtype=np.int64)
    elif process.kind == "sawtooth":
        raw = t % (process.tau_max + 1)
    else:
        u = generator(derive_seed(process.seed, 0xDE1A)).random(T)
        raw = np.minimum((u * (process.tau_max + 1)).astype(np.int64), process.tau_max)
    return np.minimum(raw, t)


def reference_sa(provider, mrp, theta0, alpha, T, seed, sampling="markov",
                 start_state=None, delays=None):
    """Iterates theta_0..theta_T as a (T + 1, K) array."""
    rng = generator(seed)
    cum_pi = np.cumsum(mrp.pi)
    s = start_state
    if sampling == "markov" and start_state is None:
        s = _inv_cdf(cum_pi, rng.random())
    delays = delays if delays is not None else DelayProcess()
    dseq = reference_delays(delays, T)
    m = delays.tau_max + 1
    hist_theta = np.zeros((m, provider.dim))
    hist_X = [None] * m
    thetas = np.empty((T + 1, provider.dim))
    theta = thetas[0] = np.array(theta0, dtype=float).reshape(provider.dim)
    for t in range(T):
        if sampling == "iid_restart":
            s = _inv_cdf(cum_pi, rng.random())
        sp = _inv_cdf(mrp.cum_P[s], rng.random())
        slot = t % m
        hist_theta[slot] = theta
        hist_X[slot] = (provider.state_table[:, [s]], provider.state_table[:, [sp]])
        back = (t - int(dseq[t])) % m
        g = provider.direction(hist_theta[back][:, None], hist_X[back])
        theta = theta + alpha * g[:, 0]
        if not np.all(np.isfinite(theta)) or np.sum(theta ** 2) > DIVERGENCE_GUARD ** 2:
            raise ReferenceDivergence(t + 1)
        thetas[t + 1] = theta
        s = sp
    return thetas


def kernel_paths(config) -> np.ndarray:
    """Every lane's iterates theta_0..theta_T as the batch kernel computes
    them, as a (trials, T + 1, K) array: the theta each step passes to
    ``provider.direction``, recorded over a run one step longer (a lane's
    words and delays are prefix-stable, so its first T steps are the
    config's). Raises ReferenceDivergence if a lane leaves the divergence
    guard by step T."""
    provider = copy.copy(config.provider)
    direction, seen = provider.direction, []

    def recording(theta, X):
        seen.append(theta.T.copy())
        return direction(theta, X)

    provider.direction = recording
    estimate = estimate_dt_et(replace(config, provider=provider, T=config.T + 1))
    if estimate.abort_step is not None and estimate.abort_step <= config.T:
        raise ReferenceDivergence(estimate.abort_step)
    return np.stack(seen, axis=1)
