"""Bounds for the best constant K of the multiplication inequality
|| f g ||_n <= K || f ||_n || g ||_n on H^n(R^d), n > d/2.

Upper bounds
    k_plus          K+  = sqrt( sup_u upper_curve(u) ); for
                    n <= d/2 + 1/2 the curve is increasing and the sup is
                    its closed-form limit at u = inf.  Above that a
                    batched Newton search in log u, on the curve's exact
                    slope and curvature, finds the sup; one query is its
                    one-row case, a residual scan its many-row case.
    k_plus_plus     K++ >= K+, an elementary envelope built from the
                    constants of :class:`AsympConstants` and the residual
                    supremum Z_d.
    envelope_residual_sup
                    Z_d and Theta_d from a scan over 400 gaps: K+ in
                    closed form up to gap 1/2 and by one batched search
                    beyond, certified row by row as k_plus certifies its
                    one row; each gap's residual and K++ then come from
                    the float formulas of :mod:`sobomul.envelope`, which
                    envelope_residual and k_plus_plus share.

Lower bounds (Rayleigh quotients of explicit trial functions)
    k_bessel            K^B  = sup_lam ||g_lam^2||_n / ||g_lam||_n^2 with
                        g_lam the scaled Macdonald kernel; the numerator
                        integrates a lam-free kernel on one fixed exp-sinh
                        rule in log u with a closed-form far tail, so the
                        kernel is evaluated once per query.
    k_bessel_minorant   K^BB <= K^B, replaces the slowly converging
                        squared-kernel norm by an analytic minorant; the
                        route of choice for n within 0.1 of d/2.  Both
                        find lam by a Newton search in log lam on the
                        quotient's exact slope and curvature.
    k_fourier           K^F  = sup_{p, sigma} of the Gaussian-regularized
                        plane-wave quotient; off the integer-n closed sum
                        its norms take a trapezoid rule in asinh(k_1)
                        times an exp-sinh rule (both in
                        :mod:`sobomul._gaussian_norm`, for many pairs per
                        call).  A trust-region Newton search finds
                        the sup, its three starts in lockstep, on the
                        gradient and Hessian that both norm routes form
                        exactly from their log-sum-exp weights: one
                        closed-sum or rule call per round serves both
                        norms at every live start.
    k_fourier_fixed     K^FF, the same quotient frozen at
                        (p, sigma) = (1/(2 sqrt 2), 3/(4n)); used for
                        n > 50 where the 2-D search buys nothing.
    best_lower          the applicable maximum, tagged (B)/(BB)/(F)/(FF).

Asymptotic laws (their constants in :mod:`sobomul.envelope`)
    k_plus_asymp_small  M_d / sqrt(n - d/2) * (1 - N_d (n - d/2))
    k_plus_asymp_large  T_d (2/sqrt 3)^n / n^(d/4)

All heavy evaluation runs in log space, so the bounds hold up to where K
itself leaves the double range (n of about 4,950 at d = 1 and 5,130 at
d = 10); beyond it they raise DomainError, checked before any search by
the large-n law and again at the final exp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import specfun as sf
from ._gaussian_norm import (_exp_sinh_nodes, _gaussian_rule_block,
                             _log_gaussian_norm_sq_refined, _log_gaussian_norm_sq_sum)
from .envelope import (AsympConstants, envelope_terms, k_plus_plus_value,
                       log_k_plus_asymp_large, residual)
from .kernels import (BoundQuery, DomainError, KernelRows, _closed_form_upper,
                      _log_curve_limit, log_hyper_kernel, log_upper_curve_limit,
                      log_upper_curve_rows)
from .optim import BracketBoundaryError, MaxResult, maximize_1d_newton, maximize_2d

__all__ = [
    "BoundResult",
    "TrialParams",
    "AsympConstants",
    "MinorantCoeffs",
    "ElementaryBoundData",
    "TwoPathMismatch",
    "TAG_BY_KIND",
    "LOWER_TOL",
    "k_plus",
    "k_plus_asymp_small",
    "k_plus_asymp_large",
    "envelope_residual",
    "envelope_residual_sup",
    "k_plus_plus",
    "default_residual_grid",
    "bessel_trial_norm_sq",
    "bessel_trial_sq_norm_sq",
    "minorant_coeffs",
    "squared_trial_minorant",
    "k_bessel",
    "k_bessel_minorant",
    "gaussian_trial_norm_sq",
    "log_gaussian_trial_norm_sq",
    "k_fourier",
    "k_fourier_fixed",
    "best_lower",
]

_LOG_PI = math.log(math.pi)
_LOG_DBL_MAX = math.log(sys.float_info.max)

# Routing thresholds (see best_lower): the minorant route takes over within
# 0.1 of d/2, the fixed-parameter Fourier bound beyond n = 50.
_BB_SWITCH = 0.1 * (1.0 + 1e-9)
_FF_SWITCH = 50.0
_KB_MIN_GAP = 0.01
# Caps on the lower bounds' measured relative rule errors.
LOWER_TOL = 1e-9
_FF_TOL = 1e-10
# Rounding of a Gaussian log norm per unit of max(1, |log N|) (1.4e-15 measured)
_LOG_NORM_ROUNDING = 4e-15

TAG_BY_KIND = {
    "lower_bessel": "(B)",
    "lower_bessel_bb": "(BB)",
    "lower_fourier": "(F)",
    "lower_fourier_ff": "(FF)",
}


class TwoPathMismatch(RuntimeError):
    """Closed-form and quadrature evaluations of the same norm disagree."""


@dataclass(frozen=True)
class TrialParams:
    """Maximizer coordinates: exactly one of u / lam / (p, sigma)."""

    u: float | None = None
    lam: float | None = None
    p: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        groups = (self.u is not None, self.lam is not None,
                  self.p is not None or self.sigma is not None)
        if sum(groups) != 1:
            raise ValueError("exactly one of u, lam, (p, sigma) must be set")
        if (self.p is None) != (self.sigma is None):
            raise ValueError("p and sigma come as a pair")
        for label, v in vars(self).items():
            if v is not None and not v >= 0.0:
                raise ValueError(f"{label} must be non-negative, got {v}")

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(v for v in vars(self).values() if v is not None)


@dataclass(frozen=True)
class BoundResult:
    value: float
    kind: str
    argmax: TrialParams | None = None
    error_estimate: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def tag(self) -> str:
        return TAG_BY_KIND.get(self.kind, self.kind)


@dataclass(frozen=True)
class MinorantCoeffs:
    """Coefficients of the squared-kernel-norm minorant."""

    p_nd: float
    q_nd: float
    q_small: float


@dataclass(frozen=True)
class ElementaryBoundData:
    """Outcome of the residual scan behind the elementary upper bound."""

    d: int
    big_z: float
    theta: float
    argmax_gap_z: float
    argmax_gap_theta: float
    endpoint_warning: bool


def _exp_in_range(log_value: float, what: str, q: BoundQuery) -> float:
    """exp(log_value), or DomainError when it leaves the double range."""
    if log_value > _LOG_DBL_MAX:
        raise DomainError(
            f"{what} = exp({log_value:.6g}) at (n, d) = ({q.n:g}, {q.d}) exceeds "
            f"the largest double, exp({_LOG_DBL_MAX:.6g}) = {sys.float_info.max:.4g}")
    return math.exp(log_value)


# ----------------------------------------------------------------------
# upper bound K+
# ----------------------------------------------------------------------

_U_LO = 1e-12
_U_HI = 1e12
# The boundary-limit K+ carries a 1e-12 relative error estimate, so the
# log of the squared curve may exceed the limit's by 2e-12 at most.
_LIMIT_LOG_TOL = 2e-12


def _curve_rounding(q: BoundQuery, u: float) -> float:
    """A bound on the rounding error of log_upper_curve at u: 4 eps times
    the sizes of its Gamma constant, n log1p(4u) and (2n - d/2 - 1/2)
    log1p(u), which the kernel's log sums carry too."""
    size = (abs(q._log_curve_scale) + q.n * math.log1p(4.0 * u)
            + (2.0 * q.n - 0.5 * q.d - 0.5) * math.log1p(u))
    return 4.0 * sys.float_info.epsilon * size


_BUDGET_CAVEAT = ("optimizer budget exhausted; the value lies below the "
                  "supremum of the upper curve, so it is not a certified K+")


def _certified_k_plus(queries: list[BoundQuery],
                      outcomes: list[MaxResult | BracketBoundaryError]) -> list[float]:
    """K+ of each row of a finished :func:`_k_plus_search`.

    A search that ended inside [_U_LO, _U_HI] gives the square root of its
    best value, or DomainError when that leaves the double range; that
    value lies below the supremum if the search ran out of budget, which
    each caller checks.  A search still climbing at the upper bound gives
    the closed-form limit, but only if the curve there is finite and not
    above the limit; otherwise, or if the curve is not finite where the
    search stopped, the supremum is unknown and ArithmeticError is raised.
    """
    values = []
    for q, outcome in zip(queries, outcomes):
        if isinstance(outcome, BracketBoundaryError):
            # Still increasing at the bracket boundary: sup effectively at
            # inf, provided the curve there is finite and not above its limit.
            log_limit = log_upper_curve_limit(q)
            if not (math.isfinite(outcome.best_f)
                    and outcome.best_f <= log_limit + _LIMIT_LOG_TOL):
                raise ArithmeticError(
                    f"upper curve at the search boundary is {outcome.best_f!r} against "
                    f"its limit {log_limit!r} (log scale); the supremum is not certified"
                ) from outcome
            values.append(math.exp(0.5 * log_limit))
        elif math.isfinite(outcome.max_value):
            values.append(_exp_in_range(0.5 * outcome.max_value, "K+", q))
        else:
            raise ArithmeticError(
                f"upper curve is {outcome.max_value!r} (log scale) where the K+ search "
                f"stopped, u = {math.exp(outcome.argmax[0])!r}; the supremum is not certified")
    return values


def k_plus(q: BoundQuery) -> BoundResult:
    """Upper bound K+ = sqrt(sup over u >= 0 of the upper curve).

    For n <= d/2 + 1/2 the curve increases toward its limit, which is then
    returned in closed form with the argmax reported as the boundary.
    Otherwise K+ is the one-row case of :func:`_k_plus_search` and
    :func:`_certified_k_plus`.  Its error estimate is half (K+ being a
    square root) of the final Newton model's remaining gain, the search's
    rounding floor and the curve's own (:func:`_curve_rounding`); a search
    whose budget ran out carries a caveat.  Where the large-n law, which
    lies below K+, or K+ itself exceeds the double range, DomainError is
    raised.
    """
    if q.has_closed_form_upper:
        value = math.exp(0.5 * log_upper_curve_limit(q))
        return BoundResult(value=value, kind="upper_plus",
                           argmax=TrialParams(u=math.inf),
                           error_estimate=value * 1e-14,
                           diagnostics={"route": "closed_form_limit"})
    (outcome,), _ = _k_plus_search([q])
    (value,) = _certified_k_plus([q], [outcome])
    if isinstance(outcome, BracketBoundaryError):
        return BoundResult(value=value, kind="upper_plus",
                           argmax=TrialParams(u=math.inf),
                           error_estimate=value * 1e-12,
                           diagnostics={"route": "boundary_limit"})
    u = math.exp(outcome.argmax[0])
    diags = {"route": "maximize", "evaluations": outcome.iterations,
             "converged": outcome.converged, "slope": outcome.slope,
             "curvature": outcome.curvature}
    if not outcome.converged:
        diags["caveat"] = _BUDGET_CAVEAT
    return BoundResult(value=value, kind="upper_plus",
                       argmax=TrialParams(u=u),
                       error_estimate=value * 0.5 * (outcome.gain + _curve_rounding(q, u)),
                       diagnostics=diags)


def _scan_start_u(q: BoundQuery) -> float:
    """A start for the K+ search that depends on (n, d) alone: the argmax
    of the upper curve nears 1/2 + (3d/8 + 3/2)/(n - d/2) at large gaps
    (a fit to the d = 1..10 scans) and grows without bound as the gap
    falls to 1/2."""
    return min(0.5 + (0.375 * q.d + 1.5) / (q.n_gap - 0.5), _U_HI)


def _k_plus_search(queries: list[BoundQuery]
                   ) -> tuple[list[MaxResult | BracketBoundaryError], int]:
    """The outcome of each K+ search of queries of one d, each with
    n > d/2 + 1/2 and given in ascending n, and the number of rounds.

    One batched Newton search (:func:`maximize_1d_newton`) over x = log u
    in [log _U_LO, log _U_HI] runs a row per query, each from
    :func:`_scan_start_u`, which depends on its own (n, d) alone.  Each
    round evaluates the upper curve, its slope and its curvature at every
    live row's next point in one kernel call.  :func:`_certified_k_plus`
    turns the outcomes into K+."""
    for q in queries:
        _exp_in_range(log_k_plus_asymp_large(q.n, q.d), "the large-n law of K+", q)
    rows = KernelRows(queries)
    rounds = 0

    def objective(at: np.ndarray, x: np.ndarray) -> tuple:
        nonlocal rounds
        rounds += 1
        return log_upper_curve_rows(rows, at, np.exp(x))

    outcomes = maximize_1d_newton(objective, math.log(_U_LO), math.log(_U_HI),
                                  [math.log(_scan_start_u(q)) for q in queries])
    return outcomes, rounds


def k_plus_asymp_small(q: BoundQuery) -> float:
    """Leading small-gap law (M_d / sqrt(n - d/2)) (1 - N_d (n - d/2))."""
    c = AsympConstants.for_dimension(q.d)
    return c.amp_small / math.sqrt(q.n_gap) * (1.0 - c.slope_small * q.n_gap)


def k_plus_asymp_large(q: BoundQuery) -> float:
    """Leading large-n law T_d (2/sqrt 3)^n / n^(d/4)."""
    return _exp_in_range(log_k_plus_asymp_large(q.n, q.d), "the large-n law of K+", q)


# ----------------------------------------------------------------------
# elementary envelope K++ and its residual
# ----------------------------------------------------------------------

def envelope_residual(q: BoundQuery, k_plus_value: float | None = None) -> float:
    """The residual z solving

        K+ = lead(n) [ main(n) + z * (n - d/2) / n^2 ],

    where lead = (2/sqrt 3)^n / n^(d/4) and main carries the small-gap and
    large-n model terms.  Bounded in n; its supremum Z_d feeds K++.
    """
    if k_plus_value is None:
        k_plus_value = k_plus(q).value
    terms = envelope_terms(q.n, q.n_gap, AsympConstants.for_dimension(q.d))
    return residual(q.n, q.n_gap, terms, k_plus_value)


def k_plus_plus(q: BoundQuery, big_z: float) -> BoundResult:
    """Elementary upper bound K++ >= K+ given the residual supremum Z_d."""
    terms = envelope_terms(q.n, q.n_gap, AsympConstants.for_dimension(q.d))
    return BoundResult(value=k_plus_plus_value(q.n, q.n_gap, terms, big_z),
                       kind="upper_plus_plus", diagnostics={"big_z": big_z})


def default_residual_grid(d: int) -> tuple[float, ...]:
    """Gap grid for the residual scan: log-dense in (d/2, d/2 + 0.1] where
    the residual varies fastest (it is O(sqrt(gap)) there), log again through
    the middle decades where both suprema live, then linear out to
    d/2 + 200."""
    left = np.geomspace(1e-5, 0.1, 120)
    mid = np.geomspace(0.1, 20.0, 200)[1:]
    right = np.linspace(20.0, 200.0, 82)[1:]
    return tuple(np.concatenate((left, mid, right)).tolist())


def _round_sig(x: float) -> float:
    if x == 0.0:
        return 0.0
    return round(x, 2 - int(math.floor(math.log10(abs(x)))))


def _searched_k_plus(queries: list[BoundQuery]) -> tuple[list[float], list, int]:
    """K+, outcomes and rounds of one :func:`_k_plus_search`, raising
    ArithmeticError for a search that does not converge."""
    found, rounds = _k_plus_search(queries)
    for q, outcome in zip(queries, found):
        if isinstance(outcome, MaxResult) and not outcome.converged:
            raise ArithmeticError(f"K+ search at (n, d) = ({q.n:g}, {q.d}): {_BUDGET_CAVEAT}")
    return _certified_k_plus(queries, found), found, rounds


def _residual_k_plus(d: int, gap_grid: tuple[float, ...]) -> tuple[
        list[BoundQuery | None], list[float], list[MaxResult | None], int]:
    """The residual scan's query, K+ and search outcome per gap of the
    ascending gap_grid (None where K+ takes its closed form), and the
    number of search rounds (each one kernel call).

    The gaps up to 1/2, the grid's first, take K+'s closed form from plain
    floats; the others share one batched search (:func:`_searched_k_plus`),
    in which each row starts from its own (n, d), and only these rows get a
    BoundQuery.  Not cached, unlike the scan's result."""
    ns = [d / 2.0 + nd for nd in gap_grid]
    k = sum(_closed_form_upper(n, d) for n in ns)
    queries = [None] * k + [BoundQuery(d=d, n=n) for n in ns[k:]]
    values, found, rounds = _searched_k_plus(queries[k:]) if ns[k:] else ([], [], 0)
    kps = [math.exp(0.5 * _log_curve_limit(n, d, n - d / 2.0)) for n in ns[:k]] + values
    return queries, kps, [None] * k + found, rounds


@lru_cache(maxsize=32)
def _residual_scan(d: int, gap_grid: tuple[float, ...]) -> ElementaryBoundData:
    """Z_d and Theta_d over gap_grid, from :func:`_residual_k_plus`.

    Each gap's residual and K++ come from the formulas of
    :func:`envelope_residual` and :func:`k_plus_plus`, on plain floats and
    with the gap's envelope terms formed once.  At the two argmax gaps K+
    is then the one-row K+ that k_plus gives, as a batch row may differ
    from it in the last bits."""
    queries, kps, _, _ = _residual_k_plus(d, gap_grid)
    c = AsympConstants.for_dimension(d)
    rows = [(n, n - d / 2.0) for n in (d / 2.0 + nd for nd in gap_grid)]
    terms = [envelope_terms(n, gap, c) for n, gap in rows]

    def one_row(i: int) -> int:
        if queries[i] is not None:
            kps[i] = _searched_k_plus([queries[i]])[0][0]
        return i

    zs = [residual(n, gap, t, k) for (n, gap), t, k in zip(rows, terms, kps)]
    i_z = one_row(int(np.argmax(zs)))
    big_z = residual(*rows[i_z], terms[i_z], kps[i_z])
    # The ratio supremum is quoted for the envelope built with the residual
    # constant at its published 3-significant-figure precision; for d >= 8
    # the ratio responds to the constant with a factor of ~20, so the digit
    # convention is part of the definition.
    z_for_theta = _round_sig(big_z)
    ratios = [k_plus_plus_value(n, gap, t, z_for_theta) / k
              for (n, gap), t, k in zip(rows, terms, kps)]
    i_t = one_row(int(np.argmax(ratios)))
    warn = i_z in (0, len(gap_grid) - 1) or i_t in (0, len(gap_grid) - 1)
    return ElementaryBoundData(
        d=d, big_z=big_z, theta=k_plus_plus_value(*rows[i_t], terms[i_t], z_for_theta) / kps[i_t],
        argmax_gap_z=float(gap_grid[i_z]), argmax_gap_theta=float(gap_grid[i_t]),
        endpoint_warning=warn)


def envelope_residual_sup(d: int) -> ElementaryBoundData:
    """Z_d = sup of the residual and Theta_d = sup of K++/K+ over the
    default gap grid, from one scan, with endpoint warning."""
    return _residual_scan(d, default_residual_grid(d))


# ----------------------------------------------------------------------
# Bessel-kernel trial norms and lower bounds
# ----------------------------------------------------------------------

class _BesselConstants:
    """The lam-free parts of the Bessel-kernel norms at one (n, d):

    log_norm     log of pi^(d/2) Gamma(n+1-d/2) / ((n-d/2) Gamma(n)), the
                 trial norm's prefactor without lam^-d;
    log_sq_norm  log of pi^(d/2) Gamma(2n-d/2)^2 / (Gamma(d/2) Gamma(2n)^2),
                 the squared-kernel norm's prefactor without lam^-d;
    minorant     (P, Q, q), the three Gamma-ratio weights of the minorant's
                 bracket and the log of its prefactor without lam^-d; built
                 on first use, as its Gamma arguments stay positive only
                 for d/2 < n <= d/2 + 1/2.

    Callers add the lam terms last, in the order the formulas write them,
    so every sum rounds as the written formula's does.
    """

    def __init__(self, n: float, d: int) -> None:
        self.n, self.d = n, d
        self.lg_gap1 = sf.log_gamma(n + 1.0 - d / 2.0)
        self.lg_n = sf.log_gamma(n)
        self.lg_2n_half_d = sf.log_gamma(2.0 * n - d / 2.0)
        self.lg_2n = sf.log_gamma(2.0 * n)
        self.log_norm = (0.5 * d * _LOG_PI + self.lg_gap1 - math.log(n - d / 2.0)
                         - self.lg_n)
        self.log_sq_norm = (0.5 * d * _LOG_PI + 2.0 * self.lg_2n_half_d
                            - sf.log_gamma(d / 2.0) - 2.0 * self.lg_2n)

    @cached_property
    def minorant(self) -> tuple[MinorantCoeffs, tuple[float, float, float], float]:
        n, d = self.n, self.d
        lg_half = sf.log_gamma(n + 0.5)
        p_nd = math.exp(lg_half + self.lg_gap1 - 0.5 * _LOG_PI - self.lg_2n_half_d)
        edge = 0.5 + d / 2.0 - n
        if abs(edge) <= 1e-13:
            q_nd = 0.0
        else:
            q_nd = math.exp(lg_half + sf.log_gamma(d / 2.0 + 1.0 - n)
                            - self.lg_n - sf.log_gamma(edge))
        q_small = q_nd if p_nd >= q_nd else p_nd - (n - d / 2.0)
        weights = (p_nd ** 2 * math.exp(self.lg_gap1 - self.lg_n),
                   p_nd * q_nd * math.exp(sf.log_gamma(2.0 * n + 1.0 - d) - self.lg_2n_half_d),
                   q_small ** 2
                   * math.exp(sf.log_gamma(3.0 * n + 1.0 - 1.5 * d) - sf.log_gamma(3.0 * n - d)))
        log_pref = (0.5 * d * _LOG_PI + 2.0 * self.lg_2n_half_d
                    - 2.0 * self.lg_2n - 3.0 * math.log(n - d / 2.0))
        return MinorantCoeffs(p_nd=p_nd, q_nd=q_nd, q_small=q_small), weights, log_pref


@lru_cache(maxsize=64)
def _bessel_constants(n: float, d: int) -> _BesselConstants:
    """The Bessel-kernel norms' lam-free parts, built once per (n, d)."""
    return _BesselConstants(n, d)


def _hyp_in_log_lam(q: BoundQuery, c: float, scale: float, lam: float,
                    derivatives: bool) -> tuple[float, ...]:
    """(F,) or (F, F_x, F_xx): F(-n, d/2; c; 1 - t), t = scale lam^2, and
    its first two derivatives in x = log lam, where w = 1 - t has
    w_x = -2t and w_xx = -4t."""
    t = scale * lam * lam
    if not derivatives:
        return (sf.hyp2f1(-q.n, q.d / 2.0, c, 1.0 - t),)
    f, f1, f2 = sf.hyp2f1_derivatives(-q.n, q.d / 2.0, c, 1.0 - t)
    return f, -2.0 * t * f1, 4.0 * t * (t * f2 - f1)


def _log_and_derivatives(log_value: float, d: int, parts: tuple[float, ...]):
    """log_value, or with parts = (G, G_x, G_xx) of the lam-dependent
    factor G of a norm that also carries lam^-d, the norm's log in
    x = log lam, its slope and its curvature; that log is taken of
    exp(log_value), the norm as its public function returns it."""
    if len(parts) == 1:
        return log_value
    slope = parts[1] / parts[0]
    return math.log(math.exp(log_value)), slope - d, parts[2] / parts[0] - slope * slope


def _log_bessel_norm_sq_hyper(q: BoundQuery, lam: float, derivatives: bool = False):
    """log of the trial norm by its hypergeometric form, and with
    derivatives its slope and curvature in x = log lam."""
    f = _hyp_in_log_lam(q, q.n, 1.0, lam, derivatives)
    if not f[0] > 0.0:
        raise ArithmeticError(f"trial norm hypergeometric factor <= 0 at lam={lam}")
    log_n = _bessel_constants(q.n, q.d).log_norm - q.d * math.log(lam) + math.log(f[0])
    return _log_and_derivatives(log_n, q.d, f)


def _log_bessel_norm_sq_sum(q: BoundQuery, lam: float) -> float:
    """Integer-n route: logsumexp of the binomial expansion."""
    n, d = int(round(q.n)), q.d
    loglam2 = 2.0 * math.log(lam)
    terms = [sf.log_gamma(n + 1.0) - sf.log_gamma(ell + 1.0) - sf.log_gamma(n - ell + 1.0)
             + sf.log_gamma(ell + d / 2.0) + sf.log_gamma(2.0 * n - d / 2.0 - ell) + ell * loglam2
             for ell in range(n + 1)]
    m = max(terms)
    s = sum(math.exp(t - m) for t in terms)
    return (0.5 * d * _LOG_PI - sf.log_gamma(d / 2.0) - sf.log_gamma(2.0 * n)
            - d * math.log(lam) + m + math.log(s))


def bessel_trial_norm_sq(q: BoundQuery, lam: float,
                         validate: bool | None = None) -> float:
    """Squared Sobolev norm of the scaled Macdonald trial kernel:

        pi^(d/2) Gamma(n+1-d/2) / ((n-d/2) Gamma(n) lam^d)
        * F(-n, d/2, n; 1 - lam^2).

    For integer n the equivalent finite binomial sum is evaluated as well
    (by default) and the two routes must agree to 1e-10.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    log_hyper = _log_bessel_norm_sq_hyper(q, lam)
    if validate is not False and q.n_is_integer:
        log_sum = _log_bessel_norm_sq_sum(q, lam)
        if abs(log_sum - log_hyper) > 1e-10:
            raise TwoPathMismatch(
                f"trial norm routes disagree at (n={q.n}, d={q.d}, lam={lam}): "
                f"{log_hyper} vs {log_sum}")
    return math.exp(log_hyper)


def _log_sq_norm_prefactor(q: BoundQuery, lam: float) -> float:
    return _bessel_constants(q.n, q.d).log_sq_norm - q.d * math.log(lam)


# The (B) squared-kernel norm integrates over x = log u with one fixed
# exp-sinh rule, nodes x = (pi/2) sinh(k h) on [-92/d, 46/gap + 10]: the
# integrand falls like e^(d x / 2) below the bulk and like e^(-gap x) above
# it, so both cuts sit e^-46 down.  The searches run on the h rule; reported
# values add the midpoints (the h/2 rule) and measure |I_h/2 - I_h|.  The
# integrand's bulk narrows like 1/sqrt(n), and so does h past n = 50.
_SQ_STEP = 0.05
# Beyond log u = 200 (only gaps below 0.24 reach it) the kernel takes its
# two-term large-u form, whose next terms are e^-200 smaller.
_SQ_X_FAR = 200.0


def _sq_step(q: BoundQuery) -> float:
    return _SQ_STEP * min(1.0, math.sqrt(50.0 / q.n))


def _log_kernel_far(q: BoundQuery, x: np.ndarray) -> np.ndarray:
    """log F(2n-d/2, n, n+1/2; -e^x) for x > _SQ_X_FAR, from the w -> 1
    connection formula (DLMF 15.8.4) of the positive-series form:

        u^(-n) (A + B u^(-gap)),
        A = Gamma(n+1/2) Gamma(gap) / (Gamma(1/2) Gamma(2n-d/2)),
        B = Gamma(n+1/2) Gamma(-gap) / (Gamma(n) Gamma(1/2-gap)).

    Needs a gap that is neither an integer nor a half-integer (Gamma(-gap)
    and 1/Gamma(1/2-gap) are finite and B non-zero); gaps that reach
    _SQ_X_FAR lie below 0.25.
    """
    n, d, gap = q.n, q.d, q.n_gap
    log_a = (sf.log_gamma(n + 0.5) + sf.log_gamma(gap) - 0.5 * _LOG_PI
             - sf.log_gamma(2.0 * n - d / 2.0))
    lg_neg, sign_neg = sf.log_gamma_signed(-gap)
    lg_half, sign_half = sf.log_gamma_signed(0.5 - gap)
    b_over_a = sign_neg * sign_half * math.exp(
        sf.log_gamma(n + 0.5) + lg_neg - sf.log_gamma(n) - lg_half - log_a)
    return -n * x + log_a + np.log1p(b_over_a * np.exp(-gap * x))


def _sq_norm_nodes(q: BoundQuery) -> tuple:
    """(x, base) of the squared-norm h rule and of its midpoints, the
    nodes x = (pi/2) sinh(k h) and (pi/2) sinh((k + 1/2) h) that form the
    h/2 rule, with the lam-free log terms of the integrand there,

        log(dx/dt) + (d/2) x + 2 log F(2n-d/2, n, n+1/2; -e^x),

    from one vector kernel call."""
    x, log_dx = _exp_sinh_nodes(-92.0 / q.d, 46.0 / q.n_gap + 10.0, _sq_step(q),
                                np.array([[0.0], [0.5]]))
    far = x > _SQ_X_FAR
    log_k = np.empty_like(x)
    log_k[~far] = log_hyper_kernel(q, np.exp(x[~far]))
    if far.any():
        log_k[far] = _log_kernel_far(q, x[far])
    return tuple(zip(x, log_dx + 0.5 * q.d * x + 2.0 * log_k))


def _log_sq_norm_sum(q: BoundQuery, nodes: tuple[np.ndarray, np.ndarray],
                     lam: float, derivatives: bool = False):
    """log of the h rule for int u^(d/2-1) (1 + 4 lam^2 u)^n K(u)^2 du on
    the given nodes: one logsumexp.  With derivatives, also its slope and
    curvature in x = log lam: with p = logistic(log 4 lam^2 + x_i) the
    term logs have slope 2n p and curvature 4n p (1 - p), so under the
    term weights the sum has slope 2n E[p] and curvature
    4n E[p (1 - p)] + 4n^2 Var[p]."""
    x, base = nodes
    z = math.log(4.0 * lam * lam) + x
    soft = np.logaddexp(0.0, z)
    y = base + q.n * soft
    m = float(y.max())
    weight = np.exp(y - m)
    total = weight.sum()
    log_sum = m + math.log(_sq_step(q) * total)
    if not derivatives:
        return log_sum
    weight /= total
    p = np.exp(z - soft)
    mean = weight @ p
    spread = weight @ (p * np.exp(-soft)) + q.n * (weight @ np.square(p - mean))
    return log_sum, 2.0 * q.n * mean, 4.0 * q.n * spread


def _log_sq_norm_rule(q: BoundQuery, nodes: tuple[np.ndarray, np.ndarray]):
    """lam -> log of the squared-kernel norm on the h rule, with its slope
    and curvature in x = log lam."""

    def log_sq_norm(lam: float) -> tuple:
        log_int, int_x, int_xx = _log_sq_norm_sum(q, nodes, lam, derivatives=True)
        return _log_sq_norm_prefactor(q, lam) + log_int, int_x - q.d, int_xx

    return log_sq_norm


def _log_sq_norm_refined(q: BoundQuery, nodes: tuple, lam: float,
                         tol: float) -> tuple[float, float, int]:
    """(log I_h/2, |I_h/2 - I_h| / I_h/2, node count) of the squared-norm
    integral at lam on the nodes of :func:`_sq_norm_nodes`.  Raises
    ArithmeticError when the relative difference exceeds tol."""
    log_h, log_mid = (_log_sq_norm_sum(q, part, lam) for part in nodes)
    log_half = float(np.logaddexp(log_h, log_mid)) - math.log(2.0)
    rule_error = abs(math.expm1(log_h - log_half))
    if not rule_error <= tol:
        raise ArithmeticError(
            f"squared-norm rule error {rule_error:.2e} exceeds {tol:.0e} "
            f"(n={q.n}, d={q.d}, lam={lam})")
    return log_half, rule_error, sum(len(x) for x, _ in nodes)


def bessel_trial_sq_norm_sq(q: BoundQuery, lam: float, tol: float = 1e-9) -> float:
    """Squared Sobolev norm of the squared trial kernel: a Gamma prefactor
    times the integral of

        u^(d/2-1) (1 + 4 lam^2 u)^n F(2n-d/2, n, n+1/2; -u)^2

    on [0, inf), whose tail decays like u^(-1-(n-d/2)).  The integral runs
    in x = log u on a fixed exp-sinh rule, nodes x = (pi/2) sinh(k h / 2),
    h = 0.05 min(1, sqrt(50/n)), over [-92/d, 46/gap + 10]; beyond x = 200
    the kernel is its two-term large-u form (DLMF 15.8.4).  tol bounds the
    relative difference between the h/2 and h rules (ArithmeticError above
    it).  Gaps below 0.01 raise DomainError (use the minorant route
    instead).
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if q.n_gap < _KB_MIN_GAP:
        raise DomainError(
            f"squared-kernel norm needs n - d/2 >= {_KB_MIN_GAP}; "
            "use squared_trial_minorant")
    log_int = _log_sq_norm_refined(q, _sq_norm_nodes(q), lam, tol)[0]
    return math.exp(_log_sq_norm_prefactor(q, lam) + log_int)


def minorant_coeffs(q: BoundQuery) -> MinorantCoeffs:
    """The (P, Q, q) coefficient triple of the squared-norm minorant;
    Q vanishes at n = d/2 + 1/2 (1/Gamma(0) = 0)."""
    return _bessel_constants(q.n, q.d).minorant[0]


def squared_trial_minorant(q: BoundQuery, lam: float) -> float:
    """Analytic minorant of the squared-kernel norm, d/2 < n <= d/2 + 1/2:

        pi^(d/2) Gamma(2n-d/2)^2 / ((n-d/2)^3 Gamma(2n)^2 lam^d) *
        [ P^2 (Gamma(n+1-d/2)/Gamma(n)) F(-n, d/2, n; 1-4 lam^2)
          - P Q (Gamma(2n+1-d)/Gamma(2n-d/2)) F(-n, d/2, 2n-d/2; 1-4 lam^2)
          + q^2 (Gamma(3n+1-3d/2)/(3 Gamma(3n-d))) F(-n, d/2, 3n-d; 1-4 lam^2) ].
    """
    return math.exp(_log_minorant(q, lam))


def _log_minorant(q: BoundQuery, lam: float, derivatives: bool = False):
    """log of :func:`squared_trial_minorant`, and with derivatives its
    slope and curvature in x = log lam, from those of each 2F1."""
    n, d = q.n, q.d
    if not (d / 2.0 < n <= d / 2.0 + 0.5 + 1e-12):
        raise DomainError("minorant valid only for d/2 < n <= d/2 + 1/2")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    _co, (w1, w2, w3), log_pref = _bessel_constants(n, d).minorant
    f1, f2, f3 = (_hyp_in_log_lam(q, c, 4.0, lam, derivatives)
                  for c in (n, 2.0 * n - d / 2.0, 3.0 * n - d))
    bracket = tuple(w1 * g1 - w2 * g2 + w3 * g3 / 3.0 for g1, g2, g3 in zip(f1, f2, f3))
    if not bracket[0] > 0.0:
        raise ArithmeticError("squared-norm minorant bracket <= 0")
    return _log_and_derivatives(log_pref - d * math.log(lam) + math.log(bracket[0]), d, bracket)


_LAM_LO = math.log(1e-3)
_LAM_HI = math.log(1e3)


def _lam_objective(q: BoundQuery, log_numerator):
    """lam -> (value, slope, curvature) in x = log lam of the quotient
    1/2 log S - log N, where log_numerator(lam) gives log S, of the
    squared-kernel norm or its minorant, with its slope and curvature, and
    N is the trial norm."""

    def objective(lam: float) -> tuple:
        log_s, s_x, s_xx = log_numerator(lam)
        log_n, n_x, n_xx = _log_bessel_norm_sq_hyper(q, lam, derivatives=True)
        return 0.5 * log_s - log_n, 0.5 * s_x - n_x, 0.5 * s_xx - n_xx

    return objective


def _search_log_lam(objective, lam0: float) -> MaxResult:
    """The lam search of (B) and (BB): a one-row :func:`maximize_1d_newton`
    over x = log lam in [log 1e-3, log 1e3] from lam0, on objective(lam) =
    (value, slope, curvature) in x.  A trial point where any of them is
    not finite, or where a 2F1 series fails (from lam of about 31 the
    series behind the quotient pass their term cap), reads NaN, which the
    search rejects.  Raises the search's BracketBoundaryError, or
    ArithmeticError (the series' own at lam0) if the value at lam0 is not
    finite."""
    x0 = math.log(lam0)

    def row(_at, x):
        try:
            parts = objective(math.exp(float(x[0])))
        except sf.HypergeometricError:
            if x[0] == x0:
                raise
            parts = (math.nan,) * 3
        return np.array(parts if all(map(math.isfinite, parts)) else (math.nan,) * 3)[:, None]

    outcome, = maximize_1d_newton(row, _LAM_LO, _LAM_HI, [x0])
    if isinstance(outcome, BracketBoundaryError):
        raise outcome
    if not math.isfinite(outcome.max_value):
        raise ArithmeticError(f"lower-bound quotient is not finite at lam = {lam0}")
    return outcome


# Bound on the error of specfun.log_gamma(x) relative to
# max(1, |log Gamma(x)|); measured at most 2.2e-15 against 40-digit mpmath
# on [0.01, 2000].
_LOG_GAMMA_ERR = 4e-15


def _bessel_gamma_error(q: BoundQuery) -> float:
    """Bound on the error that specfun.log_gamma leaves in log K^B.  The
    squared-norm prefactor enters with weight 1/2 (Gamma(2n-d/2)^2,
    Gamma(d/2), Gamma(2n)^2), the trial norm with weight 1 (Gamma(n+1-d/2),
    Gamma(n)).  Only the sizes of the log Gammas matter here, so they come
    from math.lgamma."""
    n, d = q.n, q.d

    def size(x: float) -> float:
        return max(1.0, abs(math.lgamma(x)))

    return _LOG_GAMMA_ERR * (size(2.0 * n - d / 2.0) + 0.5 * size(d / 2.0)
                             + size(2.0 * n) + size(n + 1.0 - d / 2.0) + size(n))


def k_bessel(q: BoundQuery) -> BoundResult:
    """K^B: maximize the Macdonald-kernel quotient over the scale lam.

    The squared-kernel norm's kernel does not depend on lam, so it is
    evaluated once, on the h rule's nodes and midpoints, and each lam that
    the Newton search (:func:`_search_log_lam`, from lam = 1.4) tries costs
    one logsumexp with its moments and three 2F1.  K^B is the h/2 rule at the maximizer;
    its error estimate is half the measured relative difference
    |I_h/2 - I_h| / I_h/2 (K^B goes with the square root of the integral)
    plus a rounding bound for the Gamma constants, and the diagnostics
    record the node count and that difference as "nodes" and "rule_error".
    Needs n - d/2 >= 0.01, as the squared-kernel norm does; use
    :func:`k_bessel_minorant` below.
    """
    if q.n_gap < _KB_MIN_GAP:
        raise DomainError(
            f"k_bessel needs n - d/2 >= {_KB_MIN_GAP}; use k_bessel_minorant")
    nodes = _sq_norm_nodes(q)
    res = _search_log_lam(_lam_objective(q, _log_sq_norm_rule(q, nodes[0])), 1.4)
    lam_star = math.exp(res.argmax[0])
    log_int, rule_error, n_nodes = _log_sq_norm_refined(q, nodes, lam_star, LOWER_TOL)
    value = _exp_in_range(0.5 * (_log_sq_norm_prefactor(q, lam_star) + log_int)
                          - math.log(bessel_trial_norm_sq(q, lam_star, validate=False)), "K^B", q)
    return BoundResult(value=value, kind="lower_bessel",
                       argmax=TrialParams(lam=lam_star),
                       error_estimate=(0.5 * rule_error + _bessel_gamma_error(q)) * value,
                       diagnostics={"evaluations": res.iterations,
                                    "converged": res.converged,
                                    "nodes": n_nodes,
                                    "rule_error": rule_error})


def k_bessel_minorant(q: BoundQuery) -> BoundResult:
    """K^BB: like K^B but with the analytic minorant in the numerator;
    valid for d/2 < n <= d/2 + 1/2 and cheap arbitrarily close to d/2.
    Each lam that the Newton search (:func:`_search_log_lam`, from
    lam = 1.42) tries costs twelve 2F1: four and their contiguous
    functions."""
    res = _search_log_lam(_lam_objective(q, lambda lam: _log_minorant(q, lam, True)), 1.42)
    lam_star = math.exp(res.argmax[0])
    value = math.exp(res.max_value)
    return BoundResult(value=value, kind="lower_bessel_bb",
                       argmax=TrialParams(lam=lam_star),
                       error_estimate=value * 1e-9,
                       diagnostics={"evaluations": res.iterations,
                                    "converged": res.converged})


# ----------------------------------------------------------------------
# Gaussian-regularized plane-wave trial norms and lower bounds
# ----------------------------------------------------------------------

def _on_closed_sum(q: BoundQuery) -> bool:
    """Whether the Gaussian trial norms take the closed sum (integer n <= 50)."""
    return q.n_is_integer and q.n <= _FF_SWITCH


def log_gaussian_trial_norm_sq(q: BoundQuery, p: float, sigma: float,
                               tol: float = 1e-10,
                               validate: bool | None = None) -> float:
    """log of the squared Sobolev norm of exp(i p x_1 - sigma |x|^2 / 2),

        sigma^-d int_{R^d} (1 + |k|^2)^n exp(-|k - p e_1|^2 / sigma) dk.

    Integer n up to 50 uses the closed triple sum, any other n the h/2 value
    of a trapezoid rule in asinh(k_1) times an exp-sinh rule in |k_perp|^2; tol
    bounds its relative difference from the h rule (ArithmeticError above
    it).  validate (default: on for the closed sum when tol <= 1e-9) runs
    both routes, which must agree to 1e-11 (TwoPathMismatch otherwise).
    """
    if not (p > 0.0 and sigma > 0.0):
        raise ValueError("p and sigma must be positive")
    if not _on_closed_sum(q):
        return float(_log_gaussian_norm_sq_refined(q, p, sigma, tol)[0])
    log_val = float(_log_gaussian_norm_sq_sum(q, p, sigma))
    if validate or (validate is None and tol <= 1e-9):
        log_rule = _log_gaussian_norm_sq_refined(q, p, sigma, min(tol, 1e-10))[0]
        if abs(log_rule - log_val) > 1e-11:
            raise TwoPathMismatch(
                f"Gaussian norm routes disagree at (n={q.n}, d={q.d}, "
                f"p={p}, sigma={sigma}): {log_val} vs {log_rule}")
    return log_val


def gaussian_trial_norm_sq(q: BoundQuery, p: float, sigma: float,
                           tol: float = 1e-10,
                           validate: bool | None = None) -> float:
    """exp of :func:`log_gaussian_trial_norm_sq`; overflows for n in the
    hundreds, where the log form does not."""
    return math.exp(log_gaussian_trial_norm_sq(q, p, sigma, tol, validate))


def _log_fourier_quotient(q: BoundQuery, p: float, sigma: float,
                          tol: float) -> tuple[float, float, dict]:
    """(log of the plane-wave quotient at (p, sigma), a bound on its relative
    error, the norm route as diagnostics).  The bound is a rounding floor
    plus, off the closed sum, the measured errors of the h/2 rule, which takes
    both norms in one call; the diagnostics add their nodes and larger error."""
    pairs = np.array([2.0 * p, p]), np.array([2.0 * sigma, sigma])
    errors, diags = (0.0, 0.0), {"route": "closed_sum"}
    if _on_closed_sum(q):
        num, den = _log_gaussian_norm_sq_sum(q, *pairs)
    else:
        (num, den), errors, nodes = _log_gaussian_norm_sq_refined(q, *pairs, tol)
        diags = {"route": "rule", "nodes": int(nodes.sum()), "rule_error": float(max(errors))}
    error = 0.5 * errors[0] + errors[1] + _LOG_NORM_ROUNDING * (
        0.5 * max(1.0, abs(num)) + max(1.0, abs(den)))
    return float(0.5 * num - den), float(error), diags


def _fourier_search_objective(q: BoundQuery):
    """The (F) search's objective: arrays (p, sigma) -> (values, gradients,
    Hessians) of the log quotient 1/2 L(2p, 2 sigma) - L(p, sigma), L the
    log norm on the closed sum or the h rule, derivatives in (log p,
    log sigma).  Both norms of every pair take one call."""
    closed = _on_closed_sum(q)

    def objective(p: np.ndarray, sigma: np.ndarray):
        both = np.concatenate([2.0 * p, p]), np.concatenate([2.0 * sigma, sigma])
        if closed:
            value, grad, hess = _log_gaussian_norm_sq_sum(q, *both, moments=True)
        else:
            value, grad, hess, _nodes = _gaussian_rule_block(q, *both, 0.0, 0.0)
        k = p.size
        return 0.5 * value[:k] - value[k:], 0.5 * grad[:k] - grad[k:], 0.5 * hess[:k] - hess[k:]

    return objective


def _fourier_starts(n: float) -> list[tuple[float, float]]:
    """The (F) search's three (p, sigma) starts."""
    return [(0.5 / math.sqrt(2.0), 0.75 / n), (0.4, 1.0 / n), (0.35, 4.0 / n ** 2)]


def k_fourier(q: BoundQuery) -> BoundResult:
    """K^F: trust-region Newton search over (p, sigma) in log coordinates
    from three starts in lockstep, on the closed sum or the h rule with
    their exact gradient and Hessian; each round evaluates both norms at
    every live start in one call.  K^F is the closed sum or the h/2 rule at
    the maximizer, one rule call per exp-sinh offset."""
    res = maximize_2d(_fourier_search_objective(q), _fourier_starts(q.n))
    p_star, sigma_star = res.argmax
    log_value, error, diags = _log_fourier_quotient(q, p_star, sigma_star, LOWER_TOL)
    value = _exp_in_range(log_value, "K^F", q)
    return BoundResult(value=value, kind="lower_fourier",
                       argmax=TrialParams(p=p_star, sigma=sigma_star),
                       error_estimate=value * error,
                       diagnostics={"evaluations": res.iterations,
                                    "converged": res.converged, **diags})


def k_fourier_fixed(q: BoundQuery) -> BoundResult:
    """K^FF: the quotient at the frozen pair (1/(2 sqrt 2), 3/(4n))."""
    p = 0.5 / math.sqrt(2.0)
    sigma = 0.75 / q.n
    log_value, error, diags = _log_fourier_quotient(q, p, sigma, _FF_TOL)
    value = _exp_in_range(log_value, "K^FF", q)
    return BoundResult(value=value, kind="lower_fourier_ff",
                       argmax=TrialParams(p=p, sigma=sigma),
                       error_estimate=value * error,
                       diagnostics=diags)


# ----------------------------------------------------------------------
# best lower bound
# ----------------------------------------------------------------------

def best_lower(q: BoundQuery) -> BoundResult:
    """The best applicable lower bound, tagged (B)/(BB)/(F)/(FF).

    Routing: the minorant (BB) replaces the Bessel quotient within 0.1 of
    d/2, where the squared-norm integral converges too slowly for the
    direct route (and where the Gaussian trials cannot follow the
    1/sqrt(n - d/2) blowup, so the Fourier side is skipped); beyond n = 50
    the frozen-pair Fourier bound (FF) replaces both searches.
    """
    candidates: list[BoundResult] = []
    if q.n_gap <= _BB_SWITCH:
        candidates.append(k_bessel_minorant(q))
    elif q.n <= _FF_SWITCH:
        candidates.append(k_bessel(q))
    if q.n_gap > _BB_SWITCH:
        if q.n <= _FF_SWITCH:
            candidates.append(k_fourier(q))
        else:
            candidates.append(k_fourier_fixed(q))
    return max(candidates, key=lambda r: r.value)
