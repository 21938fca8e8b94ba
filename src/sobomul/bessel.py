"""Bessel function J_nu and the Macdonald function K_nu.

Real order, positive real argument, vectorized over the argument.  The
selection of method per function:

* J_nu: ascending series for x <= 12, Hankel asymptotic expansion beyond.
* K_nu: the cosh integral K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,
  evaluated in exponentially scaled form on a trapezoid grid with step
  halving; the integrand is even and analytic, so the rule converges
  spectrally.

No bound evaluates either, and no module of the package imports this
one: ``import sobomul`` does not load it and the package does not export
its functions.  The tests' real-space Macdonald kernel
(``tests/oracles/macdonald.py``) draws on K_nu, and the tests use both in
their cross-check quadratures.  It stays in the package because the
benchmark's tracer (``bench/tracer.py``) imports ``sobomul.bessel`` by name
as one of its layers.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import log_gamma_signed

__all__ = ["bessel_j", "bessel_k"]


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


# ----------------------------------------------------------------------
# First kind
# ----------------------------------------------------------------------

def _j_series(nu: float, x: np.ndarray) -> np.ndarray:
    # sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))
    q = 0.25 * x * x
    lg, sg = log_gamma_signed(nu + 1.0)
    term = sg * np.exp(nu * np.log(0.5 * x) - lg)
    total = term.copy()
    for k in range(200):
        term = term * (-q) / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total) + 1e-300):
            break
    return total


def _hankel_pq(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and Q sums of the large-argument expansion:

        P = sum (-1)^k a_{2k}/x^{2k},  Q = sum (-1)^k a_{2k+1}/x^{2k+1},
        a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k).

    Truncated once the terms drop below roundoff (they terminate exactly for
    half-integer order)."""
    mu = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    c = np.ones_like(x)
    for k in range(30):
        c = c * (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1.0) * x)
        j = k + 1
        sgn = -1.0 if (j // 2) % 2 == 1 else 1.0
        if j % 2 == 1:
            q = q + sgn * c
        else:
            p = p + sgn * c
        if np.all(np.abs(c) < 1e-17):
            break
    return p, q


def bessel_j(nu: float, x) -> float | np.ndarray:
    """Bessel function of the first kind, nu >= -1/2, x > 0."""
    arr, scalar = _as_array(x)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_j requires x > 0")
    out = np.empty_like(arr)
    small = arr <= 12.0
    if small.any():
        out[small] = _j_series(nu, arr[small])
    if (~small).any():
        xl = arr[~small]
        p, q = _hankel_pq(nu, xl)
        omega = xl - (0.5 * nu + 0.25) * math.pi
        out[~small] = np.sqrt(2.0 / (math.pi * xl)) * (p * np.cos(omega) - q * np.sin(omega))
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# Macdonald function
# ----------------------------------------------------------------------

def _k_scaled_grid(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(x) K_nu(x) by trapezoid refinement of the cosh integral."""
    xmin = float(x.min())
    # March out until the scaled integrand is negligible for every x.
    t_max = 1.0
    while xmin * (math.cosh(t_max) - 1.0) - abs(nu) * t_max < 60.0:
        t_max += 0.5
        if t_max > 80.0:
            raise ValueError("Macdonald integral failed to localize; "
                             f"nu = {nu}, min x = {xmin}")

    def grid_sum(ts: np.ndarray) -> np.ndarray:
        e = np.exp(-np.outer(x, np.cosh(ts) - 1.0))
        return e @ np.cosh(nu * ts)

    h = 0.5
    ts = np.arange(1, int(t_max / h) + 1) * h
    total = 0.5 + grid_sum(ts)          # f(0)/2 = 1/2
    value = h * total
    for _ in range(12):
        h *= 0.5
        ts = np.arange(1, int(t_max / h) + 1, 2) * h
        total = total + grid_sum(ts)
        new_value = h * total
        if np.all(np.abs(new_value - value) <= 1e-13 * np.abs(new_value)):
            value = new_value
            break
        value = new_value
    return value


def bessel_k(nu: float, x, scaled: bool = False) -> float | np.ndarray:
    """Macdonald function (modified Bessel, second kind), nu real, x > 0.

    Even in nu.  With ``scaled=True`` returns exp(x) K_nu(x).
    """
    nu = abs(float(nu))
    arr, scalar = _as_array(x)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    out = _k_scaled_grid(nu, arr)
    if not scaled:
        out = out * np.exp(-arr)
    return float(out[0]) if scalar else out
