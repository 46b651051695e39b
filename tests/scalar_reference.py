"""Reference scalar SA loop that the batch kernel is compared against.

One trajectory, one draw at a time, with the full-row inverse CDF: the
markov chain draws one uniform per step (plus one for a start state drawn
from pi), iid_restart draws the state from pi and then its successor. A ring
buffer of the last tau_max + 1 iterates and observations supplies the stale
direction g(theta_{t-d_t}; X_{t-d_t}); without delays d_t = 0.
"""

import numpy as np

from tdcert.chain import generator
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


def reference_sa(provider, mrp, theta0, alpha, T, seed, sampling="markov",
                 start_state=None, delays=None):
    """Iterates theta_0..theta_T as a (T + 1, K) array."""
    rng = generator(seed)
    cum_pi = np.cumsum(mrp.pi)
    s = start_state
    if sampling == "markov" and start_state is None:
        s = _inv_cdf(cum_pi, rng.random())
    delays = delays if delays is not None else DelayProcess()
    dseq = delays.sequence(T)
    m = delays.tau_max + 1
    hist_theta = np.zeros((m, provider.dim))
    hist_X = [(0, 0, 0.0)] * m
    thetas = np.empty((T + 1, provider.dim))
    theta = thetas[0] = np.array(theta0, dtype=float).reshape(provider.dim)
    for t in range(T):
        if sampling == "iid_restart":
            s = _inv_cdf(cum_pi, rng.random())
        sp = _inv_cdf(mrp.cum_P[s], rng.random())
        slot = t % m
        hist_theta[slot] = theta
        hist_X[slot] = (s, sp, float(mrp.R[s]))
        back = (t - int(dseq[t])) % m
        theta = theta + alpha * provider.direction(hist_theta[back], hist_X[back])
        if not np.all(np.isfinite(theta)) or np.sum(theta ** 2) > DIVERGENCE_GUARD ** 2:
            raise ReferenceDivergence(t + 1)
        thetas[t + 1] = theta
        s = sp
    return thetas
