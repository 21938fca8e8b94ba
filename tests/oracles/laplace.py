"""Verification engine for Laplace-integral asymptotics.

A *standard* integral here is L(n) = int_0^b theta(t) exp(-n phi(t)) dt with
phi increasing from phi(0+) = 0.  When the ratio xi = theta/phi' expands as

    xi(t) = sum_i P_i phi(t)^(alpha_i - 1) + O(phi^(alpha_last - 1)),

the large-n behaviour is sum_i P_i Gamma(alpha_i) / n^alpha_i up to
O(n^-alpha_last).  The engine evaluates L(n) by direct quadrature and checks
that the scaled residual |L(n) - partial sum| * n^alpha_last stays bounded
along an n-ladder -- a numerical certificate for the expansion order.

Integrals whose phase has an interior minimum split into two standard
pieces (:func:`split_interior_max`); the leading coefficients of the two
branches coincide while the next-order ones are opposite, so their sum
gains an extra half power -- the engine exposes exactly that via the
boundedness check.

Factories at the bottom build the specs that arise in the large-n analysis
of sobomul's bounds: the tail and centre reductions of the upper-bound
curve, and the phase of the Gaussian-regularized plane-wave norms.  No
bound runs this engine; the tests use it to certify the expansions behind
the large-n laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from sobomul.specfun import gamma

from .gauss_kronrod import integrate_finite

__all__ = [
    "LaplaceSpec",
    "asymp_value",
    "quad_value",
    "check_asymptotics",
    "split_interior_max",
    "upper_tail_spec",
    "upper_centre_spec",
    "plane_wave_phase",
    "plane_wave_split_specs",
]


@dataclass(frozen=True)
class LaplaceSpec:
    """One standard Laplace integral plus its known expansion data.

    ``expansion`` holds (P_i, alpha_i) pairs with 0 < alpha_0 < alpha_1 < ...;
    ``remainder_exponent`` is the first exponent *not* covered (the alpha_l
    of the O(n^-alpha_l) remainder).
    """

    amplitude: Callable[[np.ndarray], np.ndarray]
    phase: Callable[[np.ndarray], np.ndarray]
    b: float
    expansion: tuple[tuple[float, float], ...] = ()
    remainder_exponent: float | None = None

    def __post_init__(self) -> None:
        alphas = [a for _, a in self.expansion]
        if any(a <= 0.0 for a in alphas):
            raise ValueError("expansion exponents must be positive")
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("expansion exponents must increase strictly")
        if self.remainder_exponent is not None and alphas \
                and self.remainder_exponent <= alphas[-1]:
            raise ValueError("remainder exponent must exceed the last expansion exponent")


def asymp_value(spec: LaplaceSpec, n: float, order: int | None = None) -> float:
    """Partial expansion sum_{i < order} P_i Gamma(alpha_i) / n^alpha_i."""
    if order is None:
        order = len(spec.expansion)
    if order > len(spec.expansion):
        raise ValueError(f"order {order} exceeds the {len(spec.expansion)}-term expansion")
    return sum(p * gamma(a) / n ** a for p, a in spec.expansion[:order])


def quad_value(spec: LaplaceSpec, n: float, tol: float = 1e-11) -> float:
    """Direct quadrature of int_0^b theta exp(-n phi)."""
    b = spec.b
    if math.isinf(b):
        # The phase increases without bound; march to where the weight dies.
        t_hi = 1.0
        while n * float(spec.phase(np.array([t_hi]))[0]) < 60.0:
            t_hi *= 2.0
            if t_hi > 1e18:
                raise ValueError("phase grows too slowly to localize the integral")
        b = t_hi

    def f(t: np.ndarray) -> np.ndarray:
        return spec.amplitude(t) * np.exp(-n * spec.phase(t))

    res = integrate_finite(f, 0.0, b, tol=tol)
    if not res.converged:
        raise ArithmeticError(f"Laplace quadrature failed to converge at n = {n}")
    return res.value


def check_asymptotics(spec: LaplaceSpec, n_list: list[float],
                      order: int | None = None, slack: float = 3.0,
                      tol: float = 1e-11) -> dict:
    """Scaled-residual boundedness check along an n-ladder.

    For each n the residual |quad - asymp| is multiplied by
    n^remainder_exponent; the sequence must stay within ``slack`` times its
    first entry for the declared remainder order to be plausible.
    """
    if spec.remainder_exponent is None:
        raise ValueError("spec carries no remainder exponent to test against")
    if len(n_list) < 2:
        raise ValueError("need at least two n values")
    rows = []
    for n in n_list:
        lq = quad_value(spec, n, tol=tol)
        la = asymp_value(spec, n, order)
        rows.append((n, lq, la, abs(lq - la) * n ** spec.remainder_exponent))
    scaled = [r[3] for r in rows]
    floor = max(abs(r[1]) for r in rows) * 1e-12
    bounded = max(scaled) <= slack * max(scaled[0], floor)
    return {
        "n": [r[0] for r in rows],
        "quadrature": [r[1] for r in rows],
        "asymptotic": [r[2] for r in rows],
        "residual_scaled": scaled,
        "remainder_exponent": spec.remainder_exponent,
        "bounded": bounded,
        "slack": slack,
    }


def split_interior_max(amplitude: Callable, phase: Callable,
                       a: float, c: float, h: float,
                       samples: int = 64) -> tuple[LaplaceSpec, LaplaceSpec]:
    """Split int_a^c Theta exp(-n Phi) at an interior phase minimum h.

    Requires Phi decreasing on (a, h) and increasing on (h, c); this is
    verified on a sample grid.  Returns the two standard specs with phases
    Phi(h -/+ t) - Phi(h); the caller attaches expansion coefficients and
    re-assembles the original integral as exp(-n Phi(h)) (L- + L+).
    """
    if not a < h < c:
        raise ValueError("need a < h < c")
    right_probe = min(c, h + max(4.0 * (h - a), 1.0))
    left = np.linspace(a + 1e-9 * (h - a), h, samples)
    right = np.linspace(h, right_probe, samples)
    phi_l = phase(left)
    phi_r = phase(right)
    if np.any(np.diff(phi_l) > 1e-12) or np.any(np.diff(phi_r) < -1e-12):
        raise ValueError("phase is not decreasing-then-increasing around h")

    phi_h = float(phase(np.array([h]))[0])

    def make(sign: float, b: float) -> LaplaceSpec:
        def theta(t: np.ndarray) -> np.ndarray:
            return amplitude(h + sign * t)

        def phi(t: np.ndarray) -> np.ndarray:
            return phase(h + sign * t) - phi_h

        return LaplaceSpec(amplitude=theta, phase=phi, b=b)

    return make(-1.0, h - a), make(+1.0, c - h)


# ----------------------------------------------------------------------
# specs arising in sobomul's large-n analysis
# ----------------------------------------------------------------------

def upper_tail_spec() -> LaplaceSpec:
    """L(m) = int_0^(3/4) dt / (sqrt(t) (1-t)) exp(-m log(1 + t/3)); its
    ratio xi = (3+t)/((1-t) sqrt t) expands as sqrt(3/phi) + O(sqrt phi),
    so L(m) = sqrt(3 pi / m) + O(m^-3/2)."""
    return LaplaceSpec(
        amplitude=lambda t: 1.0 / (np.sqrt(t) * (1.0 - t)),
        phase=lambda t: np.log1p(t / 3.0),
        b=0.75,
        expansion=((math.sqrt(3.0), 0.5),),
        remainder_exponent=1.5,
    )


def upper_centre_spec(d: int) -> LaplaceSpec:
    """L_d(m) = int_0^1 (1-t)^(d/4-1) / sqrt(t) exp(-m phi) with
    phi = 2 log(1 - t/3) - log(1-t); same sqrt(3 pi / m) leading law."""
    e = d / 4.0 - 1.0
    return LaplaceSpec(
        amplitude=lambda t: (1.0 - t) ** e / np.sqrt(t),
        phase=lambda t: 2.0 * np.log1p(-t / 3.0) - np.log1p(-t),
        b=1.0,
        expansion=((math.sqrt(3.0), 0.5),),
        remainder_exponent=1.5,
    )


def plane_wave_phase(p: float, c: float) -> Callable[[np.ndarray], np.ndarray]:
    """Phi(rho) = (rho - p)^2 / c - log(1 + rho^2), the phase of the
    Gaussian-trial norm integrals at sigma = c / n."""

    def phi(rho: np.ndarray) -> np.ndarray:
        return (rho - p) ** 2 / c - np.log1p(rho * rho)

    return phi


def plane_wave_split_specs(alpha: float, doubled: bool) -> tuple[LaplaceSpec, LaplaceSpec, float]:
    """Split specs (minus, plus) and the phase minimum value for

        X(n) = int_p^inf rho^alpha exp(-n Phi_pc(rho)) drho

    at the special pair (p, c) = (1/(2 sqrt 2), 3/4), or its double.  The
    attached expansions carry the known coefficients

        xi_-/+ = s [ 3 / (2 sqrt(g) sqrt(phi)) -/+ e ] + O(sqrt(phi)),

    with (s, g, e) = (2^(-alpha/2-1/2), 5, 9 alpha/10 - 1/5) for the base
    pair and (2^(alpha/2), 7, (9 alpha/14 - 2/49)/sqrt 2) doubled; the
    opposite 1/n coefficients cancel in the sum of the two branches.
    """
    if doubled:
        p, c = 1.0 / math.sqrt(2.0), 1.5
        h = math.sqrt(2.0)
        scale = 2.0 ** (alpha / 2.0)
        groot = math.sqrt(7.0)
        lin = (9.0 * alpha / 14.0 - 2.0 / 49.0) / math.sqrt(2.0)
        phi_min = 1.0 / 3.0 - math.log(3.0)
    else:
        p, c = 0.5 / math.sqrt(2.0), 0.75
        h = 1.0 / math.sqrt(2.0)
        scale = 2.0 ** (-alpha / 2.0 - 0.5)
        groot = math.sqrt(5.0)
        lin = 9.0 * alpha / 10.0 - 0.2
        phi_min = 1.0 / 6.0 - math.log(1.5)

    phase = plane_wave_phase(p, c)
    minus, plus = split_interior_max(lambda r: r ** alpha, phase,
                                     a=p, c=math.inf, h=h)
    p0 = scale * 3.0 / (2.0 * groot)
    minus = replace(minus, expansion=((p0, 0.5), (-scale * lin, 1.0)),
                    remainder_exponent=1.5)
    plus = replace(plus, expansion=((p0, 0.5), (scale * lin, 1.0)),
                   remainder_exponent=1.5)
    return minus, plus, phi_min
