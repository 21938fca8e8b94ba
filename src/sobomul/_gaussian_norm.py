"""The Gaussian trial norm of the (F) and (FF) lower bounds, by pairs.

For the trial function exp(i p x_1 - sigma |x|^2 / 2) the squared H^n
norm is

    sigma^-d int_{R^d} (1 + |k|^2)^n exp(-|k - p e_1|^2 / sigma) dk.

Integer n up to 50 takes a closed triple sum, any other n a trapezoid
rule in k_1 times an exp-sinh rule in |k_perp|^2.  Every evaluator takes
k pairs (p, sigma) at once and returns per-pair arrays, with the gradient
and Hessian in (log p, log sigma) that the (F) search steps on, so one
call serves every live start of the search and both norms of its
quotient.  The exp-sinh nodes are shared with the (B) squared-norm rule
in :mod:`sobomul.bounds`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specfun as sf
from .kernels import BoundQuery

__all__ = []

_LOG_PI = math.log(math.pi)
_HALF_PI = 0.5 * math.pi


def _exp_sinh_nodes(lo: float, hi: float, step: float,
                    offset) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = (pi/2) sinh(t), t = (k + offset) step, of the exp-sinh
    trapezoid rule (Takahasi & Mori 1974) over the integers k that cover
    x in [lo, hi], and log(dx/dt) there.  offset = 1/2 gives the midpoints
    that turn the step-h rule into the h/2 rule; a column of offsets gives
    one row of nodes each."""
    k = np.arange(math.floor(math.asinh(lo / _HALF_PI) / step),
                  math.ceil(math.asinh(hi / _HALF_PI) / step) + 1)
    t = (k + offset) * step
    return _HALF_PI * np.sinh(t), np.log(_HALF_PI * np.cosh(t))


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c-1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


@lru_cache(maxsize=4)
def _gaussian_sum_tables(n: int, d: int):
    """(log-coefficient, p-exponent, sigma-exponent) arrays of the integer-n
    closed form sum_{a+b<=n} C_ab p^(2a) sigma^(b-d/2).  Each C_ab sums, by
    one logsumexp, the terms (l, j, g), g <= j <= l <= n, of monomial
    (a, b) = (j-g, l+g-j), built in l-major order; d = 1 keeps only the
    surviving l = j terms."""
    lf = np.array([sf.log_gamma(k + 1.0) for k in range(2 * n + 1)])  # log k!
    lf2 = lf[::2]  # log (2k)!
    k = np.arange(n + 1)
    # the (l, j) pairs; (0)_(l-j) kills every l != j term at d = 1
    ell, j = (np.repeat(k, k + 1), _ranges(k + 1)) if d >= 2 else (k, k)
    lgc = lf[n] - lf[ell] - lf[n - ell] + lf[ell] - lf[j] - lf[ell - j] + lf2[j]
    # each pair's terms g = 0..j
    count = j + 1
    lgc, g = np.repeat(lgc, count), _ranges(count)
    lgc -= lf2[g]
    lgc -= lf2[np.repeat(j, count) - g]
    # (2g-1)!! / 2^g = (2g)! / (4^g g!)
    lgc += (lf2 - lf[k] - k * math.log(4.0))[g]
    if d >= 2:
        lh = np.array([sf.log_gamma(d / 2.0 - 0.5 + k) for k in range(n + 1)])
        up = np.repeat(ell > j, count)
        lgc[up] += np.repeat((lh - lh[0])[ell - j], count)[up]
    # monomial (a, b) = (j-g, l+g-j) at a (n+1) + b
    group = np.repeat(j * n + ell, count) - g * n
    top = np.full((n + 1) ** 2, -np.inf)
    np.maximum.at(top, group, lgc)
    acc = np.bincount(group, weights=np.exp(lgc - top[group]), minlength=(n + 1) ** 2)
    a, b = np.divmod(np.arange((n + 1) ** 2), n + 1)
    mono = a + b <= n
    return top[mono] + np.log(acc[mono]), 2.0 * a[mono], b[mono] - d / 2.0


def _weighted_mean_cov(w: np.ndarray, feats: np.ndarray):
    """Means (k, 2) and covariance matrices (k, 2, 2) of the feature pairs
    feats (k, 2, N) under the normalized weights w (k, N)."""
    mean = np.einsum("kn,kfn->kf", w, feats)
    dev = feats - mean[..., None]
    return mean, np.einsum("kfn,kgn->kfg", dev * w[:, None], dev)


def _log_gaussian_norm_sq_sum(q: BoundQuery, p, sigma, moments: bool = False):
    """log of the closed sum at each pair (p, sigma), scalars or arrays
    (k,); with moments (arrays only), also its gradient (k, 2) and Hessian
    (k, 2, 2) in (log p, log sigma).  The terms' logs are linear there, so
    the gradient is their weighted mean exponent (p-exponent,
    sigma-exponent) and the Hessian its weighted covariance, both from one
    product of the weights with the exponents and their products, which
    every pair shares."""
    n = int(round(q.n))
    lgc, pe, se = _gaussian_sum_tables(n, q.d)
    logs = lgc + pe * np.log(p)[..., None] + se * np.log(sigma)[..., None]
    m = logs.max(axis=-1)
    w = np.exp(logs - m[..., None], out=logs)
    total = w.sum(axis=-1)
    log_val = 0.5 * q.d * _LOG_PI + m + np.log(total)
    if not moments:
        return log_val
    mom = (w @ np.array([pe, se, pe * pe, pe * se, se * se]).T) / total[:, None]
    mean = mom[:, :2]
    return log_val, mean, mom[:, [2, 3, 3, 4]].reshape(-1, 2, 2) - mean[:, :, None] * mean[:, None]


# Off the closed sum the Gaussian trial norm is, with s = |k_perp|^2,
#     sigma^-d pi^((d-1)/2) / Gamma((d-1)/2) int dk_1 exp(-(k_1 - p)^2 / sigma)
#         int_0^inf s^((d-3)/2) (1 + k_1^2 + s)^n exp(-s / sigma) ds
# (d = 1 keeps the k_1 integral).  The uniform trapezoid rule in k_1 errs
# like exp(-2 pi / h) for the branch points at distance 1 and like
# exp(-pi^2 / (h^2 (1/sigma + n/8))) for the integrand's growth off the real
# line (Trefethen & Weideman, SIAM Rev. 56, 2014), hence its step.  s takes
# the exp-sinh rule in x = log s, centred on each k_1 row's peak.  Both are
# cut 40 nats below the peak.  Searches run on the h rule; reported values
# add the midpoints in both variables (the h/2 rule) and measure |I_h/2 - I_h|.
_GAUSS_T_STEP = 0.07
_GAUSS_CUT = 40.0
# The optimal sigma grows like 1/gap and the k_1 grid like sqrt(60 sigma)/h,
# so a rule call refuses (ArithmeticError) to allocate more nodes than this
# for one pair; the workloads' blocks stay below 3e5 nodes per pair.
_GAUSS_MAX_NODES = 2 ** 22
# A call whose padded k_1 grids pass this many nodes takes its pairs in
# halves: at that size padding a small pair to a large one costs more than
# a call, and the arrays stay small.  The workloads' calls stay below it.
_GAUSS_GROUP = 2 ** 16
# Nodes per chunk of the exp-sinh rows, few enough to stay in cache.
_GAUSS_CHUNK = 8192


def _check_block_size(nodes: int) -> None:
    if nodes > _GAUSS_MAX_NODES:
        raise ArithmeticError(f"Gaussian-trial rule block of {nodes} nodes exceeds "
                              f"{_GAUSS_MAX_NODES}: the gap is too small for the (F) rule")


def _row_moments(n: float, rise: np.ndarray, fall: np.ndarray, x_rel: np.ndarray,
                 col: np.ndarray) -> np.ndarray:
    """(weight, mean t, mean t^2) of each k_1 row's exp-sinh rule in
    t = s / sigma = fall E, one row per entry of rise, with E = e^x_rel =
    s / s* and the weights exp(n log1p(u) - (fall / rise) u + col),
    u = rise (E - 1).  rise = s* / (a + s*) and fall = s* / sigma make the
    exponent the row's log integrand less its value at s*, free of
    cancellation, and col holds the rows' shared column terms.  No node
    needs an exp for s, and the three sums are one product with
    e^col (1, E, E^2).  That keeps col out of the exponent, which is safe:
    s* maximizes b log s + n log(a + s) - s / sigma, so the exponent,
    concave in s, has slope -b / s* there and stays below b."""
    big_e = np.exp(x_rel)
    basis = np.exp(col)[:, None] * np.stack([np.ones_like(big_e), big_e, big_e * big_e], axis=1)
    e_less_1 = np.expm1(x_rel)
    ratio = (fall / rise)[:, None]
    out = np.empty((rise.size, 3))
    step = max(1, _GAUSS_CHUNK // x_rel.size)
    for lo in range(0, rise.size, step):
        part = slice(lo, lo + step)
        u = np.multiply.outer(rise[part], e_less_1)
        z = np.log1p(u)
        z *= n
        u *= ratio[part]
        z -= u
        out[part] = np.exp(z, out=z) @ basis
    scale = fall / out[:, 0]
    out[:, 1] *= scale
    out[:, 2] *= scale * fall
    return out


def _gaussian_rule_block(q: BoundQuery, p, sigma, k_offset,
                         t_offset: float) -> tuple[np.ndarray, ...]:
    """(log of the h rule (k,), its gradient (k, 2), its Hessian (k, 2, 2),
    node count (k,)) of the Gaussian trial norm at each of the k pairs
    (p, sigma), on the nodes shifted by k_offset steps in k_1 (a scalar or
    one per pair) and t_offset in the exp-sinh variable; offsets of 1/2
    give the midpoints.  The pairs' k_1 grids differ in step and reach:
    each is a row of one array, padded to the longest with nodes of
    weight 0 (pairs whose rows together pass _GAUSS_GROUP go in halves).

    The derivatives, in (log p, log sigma), are the rule's with its nodes
    held fixed.  With r = k_1 - p the log integrand has first derivatives
    2 p r / sigma and (r^2 + s) / sigma - d, and second derivatives
    2 p (r - p) / sigma, -2 p r / sigma and -(r^2 + s) / sigma, which are
    linear in the first ones.  For d >= 2 each k_1 row first reduces to its
    weight and the weighted mean and variance of t = s / sigma
    (:func:`_row_moments`)."""
    n, d = q.n, q.d
    p, sigma = np.ravel(p), np.ravel(sigma)
    pairs = []
    for p_i, sigma_i in zip(p.tolist(), sigma.tolist()):
        h1 = min(0.5 / math.sqrt(1.0 / sigma_i + n / 8.0), 0.25)
        # Beyond |k| = hi the integrand lies 60 nats below its value at p e_1.
        hi = p_i + math.sqrt(sigma_i * 60.0)
        while n * math.log1p(hi * hi) > (hi - p_i) ** 2 / sigma_i - 60.0:
            hi *= 1.5
        pairs.append((h1, math.ceil(hi / h1), 2.0 * p_i / sigma_i,
                      math.log(h1) - d * math.log(sigma_i)))
    h1, m, slope, log_scale = np.array(pairs).T
    width = int(m.max())
    _check_block_size(2 * width + 1)
    if p.size > 1 and p.size * (2 * width + 1) > _GAUSS_GROUP:
        k_offset = np.broadcast_to(k_offset, p.shape)
        halves = slice(p.size // 2), slice(p.size // 2, None)
        parts = [_gaussian_rule_block(q, p[h], sigma[h], k_offset[h], t_offset) for h in halves]
        return tuple(np.concatenate(part) for part in zip(*parts))
    p, sigma, slope = p[:, None], sigma[:, None], slope[:, None]
    j = np.arange(-width, width + 1)
    k1 = (j + np.asarray(k_offset)[..., None]) * h1[:, None]
    a = 1.0 + k1 * k1
    dk = k1 - p
    gauss = dk * dk / sigma
    inside = np.abs(j) <= m[:, None]
    if d == 1:
        y = np.where(inside, n * np.log(a) - gauss, -np.inf)
        top = y.max(axis=1)
        weight = np.exp(y - top[:, None])
        t_mean = 0.0
        nodes = 2 * m.astype(int) + 1
    else:
        # A row's log integrand -gauss + b x + n log(a + e^x) - e^x / sigma,
        # b = (d-1)/2, peaks at x* = log s*, s* the positive root of
        # s^2 + c s - sigma b a (in the form free of cancellation for
        # either sign of c).  It falls by at least b (delta - 1) at
        # x* - delta and b (e^delta - 1 - delta) at x* + delta.
        b = 0.5 * (d - 1)
        c = a - sigma * (b + n)
        sba = (sigma * b) * a
        r = np.sqrt(c * c + 4.0 * sba)
        s_peak = np.where(c > 0.0, 2.0 * sba / (r + np.abs(c)), 0.5 * (r - c))
        a_peak, t_peak = a + s_peak, s_peak / sigma
        row_peak = np.where(inside, b * np.log(s_peak) + n * np.log(a_peak) - t_peak - gauss,
                            -np.inf)
        top = row_peak.max(axis=1)
        keep = row_peak > top[:, None] - _GAUSS_CUT
        reach = 1.0 + _GAUSS_CUT / b
        x_rel, log_dx = _exp_sinh_nodes(-reach, math.log(2.0 * reach),
                                        _GAUSS_T_STEP, t_offset)
        nodes = keep.sum(axis=1) * x_rel.size
        _check_block_size(int(nodes.max()))
        moments = np.zeros(keep.shape + (3,))
        moments[keep] = _row_moments(n, (s_peak / a_peak)[keep], t_peak[keep],
                                     x_rel, b * x_rel + log_dx)
        weight = np.exp(row_peak - top[:, None]) * moments[..., 0]
        t_mean, t_sq = moments[..., 1], moments[..., 2]
        log_scale += b * _LOG_PI - math.lgamma(b) + math.log(_GAUSS_T_STEP)
    total = weight.sum(axis=1)
    w = weight / total[:, None]
    feats = np.empty((p.size, 2, dk.shape[1]))
    np.multiply(slope, dk, out=feats[:, 0])
    np.add(gauss, t_mean - d, out=feats[:, 1])
    grad, hess = _weighted_mean_cov(w, feats)
    hess[:, 0, 0] += grad[:, 0] - slope[:, 0] * p[:, 0]
    hess[:, 0, 1] -= grad[:, 0]
    hess[:, 1, 0] -= grad[:, 0]
    hess[:, 1, 1] -= grad[:, 1] + d
    if d > 1:
        # the mean over rows of the within-row variance of t
        hess[:, 1, 1] += (w * (t_sq - t_mean * t_mean)).sum(axis=1)
    return log_scale + top + np.log(total), grad, hess, nodes


def _log_gaussian_norm_sq_refined(q: BoundQuery, p, sigma, tol: float) -> tuple:
    """(log I_h/2, |I_h/2 - I_h| / I_h/2, node count) of the Gaussian trial
    norm's rule at each pair (p, sigma), scalars or arrays: the h rule plus
    its midpoint blocks, both k_1 offsets of all pairs in one rule call per
    exp-sinh offset.  Raises ArithmeticError when a relative difference
    exceeds tol."""
    shape = np.shape(p)
    p2, sigma2 = np.tile(np.ravel(p), 2), np.tile(np.ravel(sigma), 2)
    k_offset = np.repeat([0.0, 0.5], p2.size // 2)
    blocks = [_gaussian_rule_block(q, p2, sigma2, k_offset, t_offset)
              for t_offset in ((0.0,) if q.d == 1 else (0.0, 0.5))]
    # rows: (k_offset, t_offset) = (0, 0), (0, 1/2), (1/2, 0), (1/2, 1/2)
    logs = np.array([blk[0].reshape(2, -1) for blk in blocks]).swapaxes(0, 1)
    logs = logs.reshape(-1, p2.size // 2)
    log_half = np.logaddexp.reduce(logs) - math.log(len(logs))
    rule_error = np.abs(np.expm1(logs[0] - log_half))
    if not (rule_error <= tol).all():
        i = int(np.argmin(rule_error <= tol))
        raise ArithmeticError(
            f"Gaussian-trial norm rule error {rule_error[i]:.2e} exceeds {tol:.0e} "
            f"(n={q.n}, d={q.d}, p={p2[i]}, sigma={sigma2[i]})")
    nodes = sum(blk[3] for blk in blocks).reshape(2, -1).sum(axis=0)
    return log_half.reshape(shape)[()], rule_error.reshape(shape)[()], nodes.reshape(shape)[()]
