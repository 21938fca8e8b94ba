"""Test-side reference implementations shared by several test modules."""

import math

import pytest

from oracles.hyp2f1 import hyp2f1
from sobomul import bounds as B
from sobomul import specfun as sf


def bessel_sq_norm_double_sum(q, lam):
    """Squared Sobolev norm of the squared Macdonald trial kernel at a
    half-integer gap n - d/2 = m + 1/2, by the closed double sum over
    hypergeometric values that the terminating kernel sum yields.

    A second route to :func:`sobomul.bounds.bessel_trial_sq_norm_sq`, which
    integrates.  Its terms alternate and cancel as m grows: sum |t| / |sum t|
    reaches 1.4e3 at m = 3 and 5e4 at m = 5 for d = 1..4, lam in [0.7, 2],
    so it is a reference only for small m.
    """
    n, d = q.n, q.d
    m = round(q.n_gap - 0.5)
    w = 1.0 - 4.0 * lam * lam
    coefs = [1.0]
    for ell in range(m):
        coefs.append(coefs[-1] * (n + ell) * (-m + ell)
                     / ((n + 0.5 + ell) * (ell + 1.0)))
    total = 0.0
    for ell in range(m + 1):
        for j in range(m + 1):
            lg = (sf.log_gamma(d / 2.0 + ell + j) + sf.log_gamma(q.n_gap)
                  - sf.log_gamma(n + ell + j))
            fval = hyp2f1(-n, d / 2.0 + ell + j, n + ell + j, w)
            total += coefs[ell] * coefs[j] * math.exp(lg) * fval
    return math.exp(B._log_sq_norm_prefactor(q, lam) + math.log(total))


@pytest.fixture
def sq_norm_double_sum():
    return bessel_sq_norm_double_sum


def _blind_past(curve, u_max):
    """A log_upper_curve_rows that reads -inf, with no derivatives, past
    u_max, and curve's values below."""
    def rows_curve(rows, at, u):
        value, slope, curvature = curve(rows, at, u)
        far = u > u_max
        value[far], slope[far], curvature[far] = -math.inf, math.nan, math.nan
        return value, slope, curvature
    return rows_curve


@pytest.fixture
def blind_past():
    return _blind_past
