"""Brute-force references for the mixing oracle's certificates.

Every power P^k is its own ``np.linalg.matrix_power`` call rather than the
oracle's running product, and tau is read off the whole recorded curve
rather than searched with a horizon and a tail bound.
"""

import numpy as np


def tv_reference(mrp, horizon):
    """d(k) = max_x ||P^k(x, .) - pi||_TV for k = 0..horizon."""
    pi = mrp.pi
    return np.array([0.5 * np.abs(np.linalg.matrix_power(mrp.P, k) - pi).sum(axis=1).max()
                     for k in range(horizon + 1)])


def td0_reference(mrp, Phi, horizon):
    """Linear TD's worst-case deviation for k = 1..horizon, the max over t of
    ||sum_s W[t, s] phi(s) m(s)^T||_op and ||sum_s W[t, s] R(s) phi(s)|| with
    W = P^(k-1) - pi and m(s) the rows of (gamma P - I) Phi; d(0..horizon);
    and the scale G = max_s ||phi(s)|| max(||m(s)||, |R(s)|), so that the
    deviation at step k is at most 2 G d(k-1)."""
    Phi = np.asarray(Phi, dtype=float)
    M = (mrp.gamma * mrp.P - np.eye(mrp.n)) @ Phi
    dev, d = [], []
    for k in range(horizon + 1):
        W = np.linalg.matrix_power(mrp.P, k) - mrp.pi
        d.append(0.5 * np.abs(W).sum(axis=1).max())
        if k < horizon:
            A = np.einsum("ts,sk,sj->tkj", W, Phi, M)
            vec = np.linalg.norm((W * mrp.R) @ Phi, axis=1)
            dev.append(max(np.linalg.svd(A, compute_uv=False)[:, 0].max(), vec.max()))
    norms = np.linalg.norm(Phi, axis=1)
    G = max((norms * np.linalg.norm(M, axis=1)).max(), (norms * np.abs(mrp.R)).max())
    return np.array(dev), np.array(d), G


def first_tau(curve, epsilon):
    """The first t (1-based) with curve[k-1] <= epsilon for every recorded
    k >= t, or None."""
    ok = np.flatnonzero(np.maximum.accumulate(curve[::-1])[::-1] <= epsilon)
    return int(ok[0]) + 1 if ok.size else None


def first_horizon(tau, tail, epsilon):
    """The first of the doubled horizons H = 8, 16, ... that records tau and
    whose tail bound ``tail[H]`` is at most epsilon."""
    H = 8
    while not (tau <= H and tail[H] <= epsilon):
        H *= 2
    return H


def generic_tau(mrp, lipschitz_scale, epsilon, horizon=2048):
    """The generic rule's (tau, horizon): the first t with 2 G d(k-1) <=
    epsilon for every k >= t out to ``horizon``, and the first doubled
    horizon whose tail 2 G d(H) certifies it."""
    bound = 2.0 * lipschitz_scale * tv_reference(mrp, horizon)
    tau = first_tau(bound, epsilon)
    return tau, first_horizon(tau, bound, epsilon)


def rechecks(cert):
    """Whether a certificate holds on its own record: tau >= 1, and every
    entry of its curve from tau on and its tail bound are at most epsilon."""
    return bool(cert.tau >= 1
                and np.all(cert.margin_curve[cert.tau - 1:] <= cert.epsilon)
                and cert.tail_bound <= cert.epsilon)
