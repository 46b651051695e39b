"""Reference scalar SA loop that the batch kernel is compared against.

One trajectory, one draw at a time, with the full-row inverse CDF: the
markov chain draws one uniform per step, after a start state drawn from pi
by word 0 of a 4-word block of its own (words 1-3 unused), iid_restart
draws the state from pi and then its successor. A ring
buffer of the last tau_max + 1 iterates and observations supplies the stale
direction g(theta_{t-d_t}; X_{t-d_t}), X the states' columns of the
provider's ``state_table``; without delays d_t = 0. The provider is called
on one-lane batches: (K, 1) theta and (rows, 1) X.

The words are the stream contract written out without
``chain.KeyedStreams``: lane i's word p under a key is word p mod 4 of the
Philox4x64-10 block at the 256-bit counter i + 2^64 floor(p / 4), each
block drawn from its own ``np.random.Philox(key=key, counter=value - 1)``
(numpy increments the counter before it draws a block; ``lane_block``). A
lane's transitions use the key ``derive_seed(master_seed)`` and its uniform
delays the key ``derive_seed(delays.seed, 0xDE1A)`` (``reference_delays``),
both at the lane's own index.

``kernel_paths`` records the iterates the batch kernel itself computes, with
a recording part passed to the kernel, so tests can compare them with this
loop.
"""

import itertools

import numpy as np

from chain_reference import derive_seed
from tdcert.harness import _simulate
from tdcert.sa_core import DIVERGENCE_GUARD, DelayProcess


def lane_block(key: int, lane: int, b: int) -> np.ndarray:
    """Words 4b..4b+3 of lane ``lane`` under ``key``, from a fresh Philox
    whose counter holds lane + 2^64 b - 1 (modulo 2^256)."""
    counter = (lane + (b << 64) - 1) % (1 << 256)
    return np.random.Philox(key=key, counter=counter).random_raw(4)


def lane_words(key: int, lane: int, count: int) -> np.ndarray:
    """The lane's first ``count`` uint64 words under ``key``."""
    blocks = [lane_block(key, lane, b) for b in range(-(-count // 4))]
    return np.concatenate(blocks or [np.empty(0, dtype=np.uint64)])[:count]


def lane_uniforms(key: int, lane: int):
    """The lane's doubles in order, as ``Generator.random`` makes them of
    its words: the top 53 bits times 2^-53."""
    for b in itertools.count():
        for word in lane_block(key, lane, b):
            yield (int(word) >> 11) * 2.0 ** -53


class ReferenceDivergence(RuntimeError):
    """An iterate left the divergence guard at ``step``."""

    def __init__(self, step: int):
        super().__init__(f"iterate left the divergence guard at step {step}")
        self.step = step


def _inv_cdf(cum, u):
    """Index of the CDF cell of one row that contains the uniform u."""
    idx = int(np.sum(cum <= u))
    return min(idx, cum.shape[0] - 1)


def reference_delays(process: DelayProcess, T: int, lane: int = 0) -> np.ndarray:
    """The lane's delays tau_0..tau_{T-1} (int64), each kind written out: a
    uniform lane floors its doubles under the key derive_seed(seed, 0xDE1A)
    times tau_max + 1; every kind is clamped to min(t, tau_max)."""
    t = np.arange(T, dtype=np.int64)
    if process.kind == "none" or process.tau_max == 0:
        return np.zeros(T, dtype=np.int64)
    if process.kind == "constant":
        raw = np.full(T, process.tau_max, dtype=np.int64)
    elif process.kind == "sawtooth":
        raw = t % (process.tau_max + 1)
    else:
        u = np.fromiter(lane_uniforms(derive_seed(process.seed, 0xDE1A), lane),
                        dtype=float, count=T)
        raw = np.minimum((u * (process.tau_max + 1)).astype(np.int64), process.tau_max)
    return np.minimum(raw, t)


def reference_sa(provider, mrp, theta0, alpha, T, master_seed, lane=0,
                 sampling="markov", start_state=None, delays=None):
    """Lane ``lane``'s iterates theta_0..theta_T of a run with this master
    seed, as a (T + 1, K) array."""
    uniforms = lane_uniforms(derive_seed(master_seed), lane)
    cum_pi = np.cumsum(mrp.pi)
    s = start_state
    if sampling == "markov" and start_state is None:
        s = _inv_cdf(cum_pi, next(uniforms))
        uniforms = itertools.islice(uniforms, 3, None)
    delays = delays if delays is not None else DelayProcess()
    dseq = reference_delays(delays, T, lane)
    m = delays.tau_max + 1
    hist_theta = np.zeros((m, provider.dim))
    hist_X = [None] * m
    thetas = np.empty((T + 1, provider.dim))
    theta = thetas[0] = np.array(theta0, dtype=float).reshape(provider.dim)
    for t in range(T):
        if sampling == "iid_restart":
            s = _inv_cdf(cum_pi, next(uniforms))
        sp = _inv_cdf(mrp.cum_P[s], next(uniforms))
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
    them, as a (trials, T + 1, K) array: the theta each step hands its parts,
    recorded by a part of its own, whose final call supplies theta_T.
    Raises ReferenceDivergence if the run aborts (a lane leaves the
    divergence guard by step T)."""
    seen = []

    class Recording:
        def __init__(self, config, work, row):
            pass

        def step(self, t, theta, g):
            seen.append(theta.T.copy())

        def result(self):
            return {}

    estimate = _simulate(config, (Recording,))
    if estimate.abort_step is not None:
        raise ReferenceDivergence(estimate.abort_step)
    return np.stack(seen, axis=1)
