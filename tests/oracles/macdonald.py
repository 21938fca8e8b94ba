"""The Macdonald trial kernel: its norm as a finite sum, its real-space
profile and its J*K^2 moment.

* ``log_bessel_norm_sq_sum``  log of the (B) trial kernel's squared norm
  at integer n, the logsumexp of its binomial expansion; the runtime
  evaluates the same norm as a terminating 2F1.
* ``macdonald_profile``  the radial profile r^(n-d/2) K_(n-d/2)(r) /
  (2^(n-1) Gamma(n)) of the inverse transform of (1+|k|^2)^(-n).
* ``bessel_macdonald_moment``  the closed form of
  int_0^inf r^(mu+nu+1) J_mu(h r) K_(nu/2)(r)^2 dr.

With (mu, nu) = (d/2 - 1, 2n - d) the moment is the Fourier transform of
the squared profile, which is the hypergeometric kernel of the (B) bound;
the tests check that identity and both functions against direct
quadrature.  No bound evaluates any of the three.
"""

from __future__ import annotations

import math

import numpy as np

from oracles.hyp2f1 import hyp2f1
from sobomul import specfun as sf
from sobomul.bessel import bessel_k
from sobomul.kernels import BoundQuery, DomainError

__all__ = ["log_bessel_norm_sq_sum", "macdonald_profile", "bessel_macdonald_moment"]


def log_bessel_norm_sq_sum(q: BoundQuery, lam: float) -> float:
    """Integer-n route: logsumexp of the binomial expansion."""
    n, d = int(round(q.n)), q.d
    loglam2 = 2.0 * math.log(lam)
    terms = [sf.log_gamma(n + 1.0) - sf.log_gamma(ell + 1.0) - sf.log_gamma(n - ell + 1.0)
             + sf.log_gamma(ell + d / 2.0) + sf.log_gamma(2.0 * n - d / 2.0 - ell) + ell * loglam2
             for ell in range(n + 1)]
    m = max(terms)
    s = sum(math.exp(t - m) for t in terms)
    return (0.5 * d * math.log(math.pi) - sf.log_gamma(d / 2.0) - sf.log_gamma(2.0 * n)
            - d * math.log(lam) + m + math.log(s))


def macdonald_profile(q: BoundQuery, r) -> float | np.ndarray:
    """Radial profile r^(n-d/2) K_(n-d/2)(r) / (2^(n-1) Gamma(n)), r > 0."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise ValueError("macdonald_profile needs r > 0")
    nu = q.n_gap
    k_scaled = bessel_k(nu, r_arr, scaled=True)
    logs = (nu * np.log(r_arr) + np.log(k_scaled) - r_arr
            - (q.n - 1.0) * math.log(2.0) - sf.log_gamma(q.n))
    out = np.exp(logs)
    return float(out[0]) if np.ndim(r) == 0 else out


def bessel_macdonald_moment(mu: float, nu: float, h: float) -> float:
    """int_0^inf r^(mu+nu+1) J_mu(h r) K_(nu/2)(r)^2 dr in closed form:

        sqrt(pi) Gamma(mu+nu+1) Gamma(mu+nu/2+1) / (2^(mu+2) Gamma(mu+nu/2+3/2))
        * h^mu * F(mu+nu+1, mu+nu/2+1, mu+nu/2+3/2; -h^2/4).
    """
    if not (mu > -1.0 and nu > 0.0 and h > 0.0):
        raise DomainError("need mu > -1, nu > 0, h > 0")
    lg = (0.5 * math.log(math.pi) + sf.log_gamma(mu + nu + 1.0)
          + sf.log_gamma(mu + nu / 2.0 + 1.0) - (mu + 2.0) * math.log(2.0)
          - sf.log_gamma(mu + nu / 2.0 + 1.5))
    f = hyp2f1(mu + nu + 1.0, mu + nu / 2.0 + 1.0, mu + nu / 2.0 + 1.5,
                  -0.25 * h * h)
    return math.exp(lg + mu * math.log(h)) * f
