"""Bounds for the best constant K of the multiplication inequality
|| f g ||_n <= K || f ||_n || g ||_n on H^n(R^d), n > d/2.

Upper bounds
    k_plus          K+  = sqrt( sup_u upper_curve(u) ): the curve's
                    closed-form limit at u = inf for n <= d/2 + 1/2, else a
                    batched Newton search in log u on the curve's exact
                    slope and curvature (one row per query).
    k_plus_plus     K++ >= K+, an elementary envelope built from the
                    constants of :class:`AsympConstants` and the residual
                    supremum Z_d.
    envelope_residual_sup
                    Z_d and Theta_d from a scan over 400 gaps, its K+ from
                    one warm-started batched search, certified row by row
                    by the rule of k_plus.

Lower bounds (Rayleigh quotients of explicit trial functions)
    k_bessel            K^B  = sup_lam ||g_lam^2||_n / ||g_lam||_n^2 with
                        g_lam the scaled Macdonald kernel; the numerator
                        integrates a lam-free kernel on one fixed exp-sinh
                        rule in log u, evaluated once per query.
    k_bessel_minorant   K^BB <= K^B with an analytic minorant of the
                        squared-kernel norm; the route within 0.1 of d/2.
                        Both find lam by a Newton search in log lam.
    k_fourier           K^F  = sup_{p, sigma} of the Gaussian-regularized
                        plane-wave quotient, its norms a closed sum (integer
                        n <= 50) or a rule in asinh(k_1) times an exp-sinh
                        rule (:mod:`sobomul._gaussian_norm`); a trust-region
                        Newton search from three starts in lockstep.
    k_fourier_fixed     K^FF, the same quotient frozen at
                        (p, sigma) = (1/(2 sqrt 2), 3/(4n)); used for n > 50.
    best_lower          the applicable maximum, tagged (B)/(BB)/(F)/(FF).

Asymptotic laws (constants in :class:`AsympConstants`): k_plus_asymp_small
M_d / sqrt(n - d/2) (1 - N_d (n - d/2)), k_plus_asymp_large T_d
(2/sqrt 3)^n / n^(d/4).

Every bound leaves through :func:`_bound_result`, which sets its value,
error estimate and caveat (see :class:`BoundResult`).

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
_BOUND_NAME = {"upper_plus": "K+", "upper_plus_plus": "K++", "lower_bessel": "K^B",
               "lower_bessel_bb": "K^BB", "lower_fourier": "K^F", "lower_fourier_ff": "K^FF"}


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
    """One bound, built by :func:`_bound_result`.

    value           K+, K++ or a Rayleigh quotient K- at argmax (kind
                    "upper_plus", "upper_plus_plus" or "lower_*", tagged
                    (B), (BB), (F), (FF)); not rounded by its error.
    error_estimate  a bound on |value - exact|: value +- error_estimate
                    encloses the supremum of the upper curve (K+), the
                    envelope formula (K++) or the quotient at argmax (K-).
    argmax          where the value was found; u = inf for the curve's
                    limit, None for K++.
    diagnostics     "route" (K+: closed_form_limit, boundary_limit or
                    maximize; (F)/(FF): closed_sum or rule); a search's
                    "evaluations" and "converged"; "slope" and "curvature"
                    at the K+ argmax; "nodes" and "rule_error" of a rule;
                    "big_z" of K++; and "caveat" when a search did not
                    converge: such a K+ is not certified, such a K- is a
                    valid quotient at its argmax whose search stopped early.
    """

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


_UPPER_CAVEAT = ("optimizer budget exhausted; the value lies below the "
                 "supremum of the upper curve, so it is not a certified K+")
_LOWER_CAVEAT = ("optimizer budget exhausted; the value is a valid quotient at "
                 "its argmax, but the search stopped before the supremum")


def _bound_result(q: BoundQuery, kind: str, log_value: float,
                  argmax: TrialParams | None, rel_error: float,
                  search: MaxResult | None = None, **diagnostics) -> BoundResult:
    """The one place a bound becomes a :class:`BoundResult`: the value is
    exp(log_value) (DomainError past the double range), the error estimate
    value * rel_error; a search adds its evaluations, whether it converged
    and, if it did not, a caveat.  Rounding the value outward (K+) or inward
    (K-) by its error would go on the value's line."""
    value = _exp_in_range(log_value, _BOUND_NAME[kind], q)
    if search is not None:
        diagnostics.update(evaluations=search.iterations, converged=search.converged)
        if not search.converged:
            diagnostics["caveat"] = _UPPER_CAVEAT if kind == "upper_plus" else _LOWER_CAVEAT
    return BoundResult(value=value, kind=kind, argmax=argmax,
                       error_estimate=value * rel_error, diagnostics=diagnostics)


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


def _k_plus_row(q: BoundQuery, outcome: MaxResult | BracketBoundaryError
                ) -> tuple[float, MaxResult | None]:
    """log K+ of one row of a finished :func:`_k_plus_search`, and its
    search if it ended inside [_U_LO, _U_HI]: half its best value.  A
    search still climbing at the upper bound gives the closed-form limit
    (search None), if the curve there is finite and not above it;
    otherwise, or if the curve is not finite where the search stopped,
    ArithmeticError is raised."""
    if isinstance(outcome, BracketBoundaryError):
        log_limit = log_upper_curve_limit(q)
        if not (math.isfinite(outcome.best_f)
                and outcome.best_f <= log_limit + _LIMIT_LOG_TOL):
            raise ArithmeticError(
                f"upper curve at the search boundary is {outcome.best_f!r} against "
                f"its limit {log_limit!r} (log scale); the supremum is not certified"
            ) from outcome
        return 0.5 * log_limit, None
    if not math.isfinite(outcome.max_value):
        raise ArithmeticError(
            f"upper curve is {outcome.max_value!r} (log scale) where the K+ search "
            f"stopped, u = {math.exp(outcome.argmax[0])!r}; the supremum is not certified")
    return 0.5 * outcome.max_value, outcome


def k_plus(q: BoundQuery) -> BoundResult:
    """Upper bound K+ = sqrt(sup over u >= 0 of the upper curve): for
    n <= d/2 + 1/2, where the curve increases, its closed-form limit at
    u = inf; otherwise the one-row case of :func:`_k_plus_search`,
    certified by :func:`_k_plus_row`.  The boundary limit carries a 1e-12
    relative error; a search's value carries half (K+ being a square root)
    the final Newton model's remaining gain, the search's rounding floor
    and the curve's own (:func:`_curve_rounding`).  DomainError where the
    large-n law, which lies below K+, or K+ itself exceeds the double range.
    """
    if q.has_closed_form_upper:
        return _bound_result(q, "upper_plus", 0.5 * log_upper_curve_limit(q),
                             TrialParams(u=math.inf), 1e-14, route="closed_form_limit")
    log_k, found = _k_plus_row(q, _k_plus_search([q])[0][0])
    if found is None:
        return _bound_result(q, "upper_plus", log_k, TrialParams(u=math.inf), 1e-12,
                             route="boundary_limit")
    u = math.exp(found.argmax[0])
    return _bound_result(q, "upper_plus", log_k, TrialParams(u=u),
                         0.5 * (found.gain + _curve_rounding(q, u)), found, route="maximize",
                         slope=found.slope, curvature=found.curvature)


def _scan_start_u(q: BoundQuery) -> float:
    """The cold start of a K+ search, from (n, d) alone: the argmax of the
    upper curve nears 1/2 + (3d/8 + 3/2)/(n - d/2 - 1/2) at large gaps (a
    fit to the d = 1..10 scans) and grows without bound as the gap falls to
    1/2.  It misses the argmax by a median of 0.014 in log u, and by up to
    3.4 near gap 1/2; a one-row search and a batch's first pass start here."""
    return min(0.5 + (0.375 * q.d + 1.5) / (q.n_gap - 0.5), _U_HI)


# The first pass of a batched K+ search takes every _SEED_STRIDE-th row and
# the last; over the d = 1..10 scans strides of 8, 16, 32 and 64 take
# 4,813, 4,786, 5,756 and 7,012 evaluations.
_SEED_STRIDE = 16


def _warm_starts(t_seed: np.ndarray, x_seed: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x at each t from the cubic (Lagrange form) through the four seeds
    (t_seed ascending, x_seed) around it, fewer if there are fewer seeds,
    clipped to the search's [log _U_LO, log _U_HI]."""
    start = np.clip(np.searchsorted(t_seed, t) - 2, 0, max(t_seed.size - 4, 0))
    window = start[:, None] + np.arange(min(t_seed.size, 4))
    tk, xk = t_seed[window], x_seed[window]
    x = np.zeros(t.size)
    for j in range(tk.shape[1]):
        others = [k for k in range(tk.shape[1]) if k != j]
        x += xk[:, j] * np.prod((t[:, None] - tk[:, others])
                                / (tk[:, [j]] - tk[:, others]), axis=1)
    return np.clip(x, math.log(_U_LO), math.log(_U_HI))


def _k_plus_search(queries: list[BoundQuery]
                   ) -> tuple[list[MaxResult | BracketBoundaryError], int]:
    """The outcome of each K+ search of queries of one d, each with
    n > d/2 + 1/2 and given in ascending n, and the number of rounds:
    batched Newton searches (:func:`maximize_1d_newton`) over x = log u in
    [log _U_LO, log _U_HI] on one :class:`KernelRows`, in two passes.  The
    first takes every _SEED_STRIDE-th row and the last, each from
    :func:`_scan_start_u` (a one-row search is all first pass); the second
    takes the others, each from :func:`_warm_starts` on the first pass's
    argmaxes in log(n - d/2 - 1/2).  Both run the same search to the same
    stop rule; only the starts differ.  Each round evaluates the upper
    curve, its slope and its curvature at every live row's next point in
    one kernel call."""
    for q in queries:
        _exp_in_range(_log_k_plus_asymp_large(q.n, q.d), "the large-n law of K+", q)
    rows = KernelRows(queries)
    rounds = 0
    outcomes = [None] * len(queries)

    def search(idx: np.ndarray, x0: list[float]) -> None:
        def objective(at: np.ndarray, x: np.ndarray) -> tuple:
            nonlocal rounds
            rounds += 1
            return log_upper_curve_rows(rows, idx[at], np.exp(x))

        for i, outcome in zip(idx.tolist(),
                              maximize_1d_newton(objective, math.log(_U_LO),
                                                 math.log(_U_HI), x0)):
            outcomes[i] = outcome

    first = np.zeros(len(queries), dtype=bool)
    first[::_SEED_STRIDE] = first[-1] = True
    seeds, rest = np.flatnonzero(first), np.flatnonzero(~first)
    search(seeds, [math.log(_scan_start_u(queries[i])) for i in seeds])
    if rest.size:
        x_seed = np.array([o.best_x if isinstance(o, BracketBoundaryError) else o.argmax[0]
                           for o in (outcomes[i] for i in seeds)])
        t = np.log(rows.expo)
        search(rest, _warm_starts(t[seeds], x_seed, t[rest]).tolist())
    return outcomes, rounds


# ----------------------------------------------------------------------
# asymptotic laws, the elementary envelope K++ and its residual
# ----------------------------------------------------------------------
# The formulas on plain floats (_log_k_plus_asymp_large, _envelope_terms,
# _residual, _log_k_plus_plus) serve both the public scalar functions and
# the residual scan, so that each is written once and both paths give the
# same bits.  Every exp, log and power here is the math module's: one ulp
# of log K+ at the scan's first gap moves Z_1 by 3.55e-9.

_LOG_2_OVER_SQRT3 = math.log(2.0 / math.sqrt(3.0))


def _amp_large(d: int) -> float:
    """T_d = 3^(d/4+1/4) / (2^d pi^(d/4)), which needs no Gamma function."""
    return 3.0 ** (d / 4.0 + 0.25) / (2.0 ** d * math.pi ** (d / 4.0))


@dataclass(frozen=True)
class AsympConstants:
    """The four elementary constants of the asymptotic laws:

    amp_small  M_d = 1 / (2^(d/2-1/2) pi^(d/4) sqrt(Gamma(d/2)))
    slope_small N_d = (psi(d/2) + gamma_E) / 2
    amp_large  T_d = 3^(d/4+1/4) / (2^d pi^(d/4))
    drift      V_d = log(sqrt(3)/2) + 1/2 + 3/d - N_d
    """

    d: int
    amp_small: float
    slope_small: float
    amp_large: float
    drift: float

    @classmethod
    @lru_cache(maxsize=None)
    def for_dimension(cls, d: int) -> "AsympConstants":
        """The constants of dimension d, built once per d and process."""
        if d < 1 or d != int(d):
            raise DomainError(f"d must be a positive integer, got {d}")
        m_d = 1.0 / (2.0 ** (d / 2.0 - 0.5) * math.pi ** (d / 4.0)
                     * math.sqrt(math.gamma(d / 2.0)))
        # psi(d/2) + gamma_E = sum_{j < d/2 - h} 1/(h + j), h = 1 for even d;
        # h = 1/2 for odd d, less 2 log 2 (DLMF 5.4.14-5.4.15).
        h = 1.0 - 0.5 * (d % 2)
        n_d = 0.5 * (sum(1.0 / (h + j) for j in range((d - 1) // 2))
                     - (d % 2) * math.log(4.0))
        t_d = _amp_large(d)
        v_d = math.log(math.sqrt(3.0) / 2.0) + 0.5 + 3.0 / d - n_d
        return cls(d=d, amp_small=m_d, slope_small=n_d, amp_large=t_d, drift=v_d)


def _log_k_plus_asymp_large(n: float, d: int) -> float:
    """log of the large-n law T_d (2/sqrt 3)^n / n^(d/4)."""
    return math.log(_amp_large(d)) + n * _LOG_2_OVER_SQRT3 - 0.25 * d * math.log(n)


def _envelope_terms(n: float, gap: float, c: AsympConstants) -> tuple[float, float]:
    """(log lead(n), main(n)) of the envelope at n = d/2 + gap, d = c.d:
    lead is (2/sqrt 3)^n / n^(d/4), and main carries the small-gap and
    large-n model terms."""
    d = c.d
    return (n * _LOG_2_OVER_SQRT3 - 0.25 * d * math.log(n),
            (3.0 * d / 8.0) ** (d / 4.0) * c.amp_small / math.sqrt(gap)
            * (1.0 - gap / n) ** 1.5 * (1.0 + c.drift * gap)
            + c.amp_large * (gap / n) ** 1.5)


def _residual(n: float, gap: float, terms: tuple[float, float], k_plus: float) -> float:
    """The residual z solving K+ = lead(n) [main(n) + z gap / n^2] at
    n = d/2 + gap, given the envelope terms there."""
    log_lead, main = terms
    return (math.exp(math.log(k_plus) - log_lead) - main) * n ** 2 / gap


def _log_k_plus_plus(n: float, gap: float, terms: tuple[float, float], big_z: float) -> float:
    """log K++, K++ = lead(n) [main(n) + Z_d gap / n^2] at n = d/2 + gap,
    given the envelope terms there."""
    log_lead, main = terms
    return log_lead + math.log(main + big_z * gap / n ** 2)


def k_plus_asymp_small(q: BoundQuery) -> float:
    """Leading small-gap law (M_d / sqrt(n - d/2)) (1 - N_d (n - d/2))."""
    c = AsympConstants.for_dimension(q.d)
    return c.amp_small / math.sqrt(q.n_gap) * (1.0 - c.slope_small * q.n_gap)


def k_plus_asymp_large(q: BoundQuery) -> float:
    """Leading large-n law T_d (2/sqrt 3)^n / n^(d/4)."""
    return _exp_in_range(_log_k_plus_asymp_large(q.n, q.d), "the large-n law of K+", q)


def envelope_residual(q: BoundQuery, k_plus_value: float | None = None) -> float:
    """The residual z solving

        K+ = lead(n) [ main(n) + z * (n - d/2) / n^2 ],

    where lead = (2/sqrt 3)^n / n^(d/4) and main carries the small-gap and
    large-n model terms.  Bounded in n; its supremum Z_d feeds K++.
    """
    if k_plus_value is None:
        k_plus_value = k_plus(q).value
    terms = _envelope_terms(q.n, q.n_gap, AsympConstants.for_dimension(q.d))
    return _residual(q.n, q.n_gap, terms, k_plus_value)


def k_plus_plus(q: BoundQuery, big_z: float) -> BoundResult:
    """Elementary upper bound K++ >= K+ given the residual supremum Z_d; its
    error estimate is the rounding of its float formula."""
    terms = _envelope_terms(q.n, q.n_gap, AsympConstants.for_dimension(q.d))
    log_value = _log_k_plus_plus(q.n, q.n_gap, terms, big_z)
    return _bound_result(q, "upper_plus_plus", log_value, None,
                         4.0 * sys.float_info.epsilon * max(1.0, abs(log_value)), big_z=big_z)


def default_residual_grid(d: int) -> tuple[float, ...]:
    """Gap grid for the residual scan: log-dense in (d/2, d/2 + 0.1] where
    the residual varies fastest (it is O(sqrt(gap)) there), log again through
    the middle decades where both suprema live, then linear out to
    d/2 + 200."""
    left = np.geomspace(1e-5, 0.1, 120)
    mid = np.geomspace(0.1, 20.0, 200)[1:]
    right = np.linspace(20.0, 200.0, 82)[1:]
    return tuple(np.concatenate((left, mid, right)).tolist())


def _searched_k_plus(queries: list[BoundQuery]) -> tuple[list[float], list, int]:
    """K+, outcomes and rounds of one :func:`_k_plus_search`, each row
    certified by :func:`_k_plus_row` with no result object built; a row
    whose search did not converge raises ArithmeticError."""
    found, rounds = _k_plus_search(queries)
    values = []
    for q, outcome in zip(queries, found):
        log_k, search = _k_plus_row(q, outcome)
        if search is not None and not search.converged:
            raise ArithmeticError(f"K+ at (n, d) = ({q.n:g}, {q.d}): {_UPPER_CAVEAT}")
        values.append(_exp_in_range(log_k, "K+", q))
    return values, found, rounds


def _residual_k_plus(d: int, gap_grid: tuple[float, ...]) -> tuple[
        list[BoundQuery | None], list[float], list[MaxResult | None], int]:
    """The residual scan's query, K+ and search outcome per gap of the
    ascending gap_grid, and the number of search rounds (each one kernel
    call).  The gaps up to 1/2, the grid's first, take K+'s closed form
    from plain floats (query and outcome None); the others share one
    two-pass batched search, whose second pass starts from the first's
    argmaxes, certified row by row with no result object
    (:func:`_searched_k_plus`).  Not cached."""
    ns = [d / 2.0 + nd for nd in gap_grid]
    k = sum(_closed_form_upper(n, d) for n in ns)
    queries = [None] * k + [BoundQuery(d=d, n=n) for n in ns[k:]]
    values, found, rounds = _searched_k_plus(queries[k:]) if ns[k:] else ([], [], 0)
    kps = [math.exp(0.5 * _log_curve_limit(n, d, n - d / 2.0)) for n in ns[:k]] + values
    return queries, kps, [None] * k + found, rounds


@lru_cache(maxsize=32)
def _residual_scan(d: int, gap_grid: tuple[float, ...]) -> ElementaryBoundData:
    """Z_d and Theta_d over gap_grid, from :func:`_residual_k_plus`: each
    gap's residual and K++ by the formulas of :func:`envelope_residual` and
    :func:`k_plus_plus` on plain floats.  At the two argmax gaps K+ is the
    one-row K+ of k_plus, from which a batch row may differ in the last bits."""
    queries, kps, _, _ = _residual_k_plus(d, gap_grid)
    c = AsympConstants.for_dimension(d)
    rows = [(n, n - d / 2.0) for n in (d / 2.0 + nd for nd in gap_grid)]
    terms = [_envelope_terms(n, gap, c) for n, gap in rows]

    def one_row(i: int) -> int:
        if queries[i] is not None:
            kps[i] = _searched_k_plus([queries[i]])[0][0]
        return i

    zs = [_residual(n, gap, t, k) for (n, gap), t, k in zip(rows, terms, kps)]
    i_z = one_row(int(np.argmax(zs)))
    big_z = _residual(*rows[i_z], terms[i_z], kps[i_z])
    # The ratio supremum is quoted for the envelope built with the residual
    # constant at its published 3-significant-figure precision; for d >= 8
    # the ratio responds to the constant with a factor of ~20, so the digit
    # convention is part of the definition.
    z_for_theta = float(f"{big_z:.3g}")
    ratios = [math.exp(_log_k_plus_plus(n, gap, t, z_for_theta)) / k
              for (n, gap), t, k in zip(rows, terms, kps)]
    i_t = one_row(int(np.argmax(ratios)))
    warn = i_z in (0, len(gap_grid) - 1) or i_t in (0, len(gap_grid) - 1)
    theta = math.exp(_log_k_plus_plus(*rows[i_t], terms[i_t], z_for_theta)) / kps[i_t]
    return ElementaryBoundData(
        d=d, big_z=big_z, theta=theta, argmax_gap_z=float(gap_grid[i_z]),
        argmax_gap_theta=float(gap_grid[i_t]), endpoint_warning=warn)


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
    minorant     (P, Q, q), the minorant bracket's three Gamma-ratio
                 weights and its prefactor's log without lam^-d; built on
                 first use (its Gammas need d/2 < n <= d/2 + 1/2).

    Callers add the lam terms last, in the order the formulas write them.
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


def bessel_trial_norm_sq(q: BoundQuery, lam: float, *, validate: bool = False) -> float:
    """Squared Sobolev norm of the scaled Macdonald trial kernel:

        pi^(d/2) Gamma(n+1-d/2) / ((n-d/2) Gamma(n) lam^d)
        * F(-n, d/2, n; 1 - lam^2).
    """
    if validate:
        raise TypeError("validate is not supported; the binomial-sum oracle is "
                        "tests/oracles/macdonald.py")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    return math.exp(_log_bessel_norm_sq_hyper(q, lam))


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
    times the integral over u >= 0 of

        u^(d/2-1) (1 + 4 lam^2 u)^n F(2n-d/2, n, n+1/2; -u)^2,

    the h/2 value of the exp-sinh rule of :func:`_sq_norm_nodes`.  tol
    bounds its relative difference from the h rule (ArithmeticError above
    it).  Gaps below 0.01 raise DomainError (use the minorant route).
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
    not finite, or where a 2F1 series fails (passes its term cap, from lam
    of about 31, or overflows), reads NaN, which the search rejects.
    Raises the search's BracketBoundaryError, or ArithmeticError (the
    series' own at lam0) if the value at lam0 is not finite."""
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


def _gamma_sizes(*xs: float) -> float:
    """The sum over xs of max(1, |log Gamma(x)|), the size against which
    _LOG_GAMMA_ERR bounds specfun.log_gamma's error; only sizes matter here,
    so they come from math.lgamma."""
    return sum(max(1.0, abs(math.lgamma(x))) for x in xs)


def _bessel_gamma_error(q: BoundQuery) -> float:
    """Bound on the error that specfun.log_gamma leaves in log K^B.  The
    squared-norm prefactor enters with weight 1/2 (Gamma(2n-d/2)^2,
    Gamma(d/2), Gamma(2n)^2), the trial norm with weight 1 (Gamma(n+1-d/2),
    Gamma(n))."""
    n, d = q.n, q.d
    return _LOG_GAMMA_ERR * (_gamma_sizes(2.0 * n - d / 2.0, 2.0 * n, n + 1.0 - d / 2.0, n)
                             + 0.5 * _gamma_sizes(d / 2.0))


# The relative error of one 2F1 of the (B) and (BB) norms, series and
# rounding, against 30-digit mpmath for d <= 10 and gaps 1e-12 to 50 - d/2:
# at most 2.0e-14 for lam in [1, 2], where every argmax of the tables and
# query streams lies, and elsewhere at most 2.9e-12 for lam in [0.1, 30]
# (the Kummer series converges slowly as lam grows) and 1.7e-12 in
# [1e-3, 0.1].  The condition sum |w_i F_i| / bracket of the minorant's
# bracket w_1 F_1 - w_2 F_2 + w_3 F_3 / 3 is at most 7 for lam in [0.5, 30],
# its limit as the gap falls to 0.  Past gap 50 the error grows with n: for
# d = 1, 4 and 10 up to the double-range limit, the trial norm's 2F1 errs by
# at most 2.0e-13 at the (B) argmax and 3.1e-13 over lam in [1, 2] (both
# near n = 4,000; 1.9e-13 at n = 1,200), so both figures scale by
# max(1, n / 100).
_HYP_ERR = 4e-14
_HYP_ERR_OFF_BAND = 6e-12
_BRACKET_CONDITION = 7.0


def _hyp_error(lam: float, n: float) -> float:
    """Bound on the relative error of one 2F1 of the (B)/(BB) norms at lam, n."""
    return (_HYP_ERR if 1.0 <= lam <= 2.0 else _HYP_ERR_OFF_BAND) * max(1.0, n / 100.0)


def _minorant_error(q: BoundQuery, lam: float) -> float:
    """Bound on the relative error of K^BB at lam: half the bracket's,
    which is its condition times that of a part (F_i errs by
    :func:`_hyp_error`, a weight, whose log holds each log Gamma of the
    minorant at most thrice, by three times their rounding), plus the trial
    norm's 2F1 error, the log Gamma rounding of both prefactors (bounded by
    (B)'s) and the rounding of their logs."""
    n, d = q.n, q.d
    consts = _bessel_constants(n, d)
    co, _weights, log_pref = consts.minorant
    # Gamma(1/2 + d/2 - n) enters only through Q, which is 0 at its pole
    edge = (0.5 + d / 2.0 - n,) if co.q_nd else ()
    weight_error = 3.0 * _LOG_GAMMA_ERR * _gamma_sizes(
        n + 0.5, n + 1.0 - d / 2.0, 2.0 * n - d / 2.0, n, d / 2.0 + 1.0 - n,
        2.0 * n + 1.0 - d, 3.0 * n + 1.0 - 1.5 * d, 3.0 * n - d, *edge)
    rounding = 4.0 * sys.float_info.epsilon * (1.0 + 0.5 * abs(log_pref) + abs(consts.log_norm))
    hyp_error = _hyp_error(lam, n)
    return (0.5 * _BRACKET_CONDITION * (hyp_error + weight_error) + hyp_error
            + _bessel_gamma_error(q) + rounding)


def k_bessel(q: BoundQuery) -> BoundResult:
    """K^B: maximize the Macdonald-kernel quotient over the scale lam.

    The squared-kernel norm's kernel does not depend on lam, so it is
    evaluated once, on the h rule's nodes and midpoints, and each lam that
    the Newton search (:func:`_search_log_lam`, from lam = 1.4) tries costs
    one logsumexp with its moments and three 2F1.  K^B is the h/2 rule at
    the maximizer; its relative error is half the measured "rule_error"
    |I_h/2 - I_h| / I_h/2 plus the trial norm's 2F1 error
    (:func:`_hyp_error`) and the Gamma constants' rounding.  Needs
    n - d/2 >= 0.01; use :func:`k_bessel_minorant` below.
    """
    if q.n_gap < _KB_MIN_GAP:
        raise DomainError(
            f"k_bessel needs n - d/2 >= {_KB_MIN_GAP}; use k_bessel_minorant")
    nodes = _sq_norm_nodes(q)
    res = _search_log_lam(_lam_objective(q, _log_sq_norm_rule(q, nodes[0])), 1.4)
    lam_star = math.exp(res.argmax[0])
    log_int, rule_error, n_nodes = _log_sq_norm_refined(q, nodes, lam_star, LOWER_TOL)
    log_value = (0.5 * (_log_sq_norm_prefactor(q, lam_star) + log_int)
                 - math.log(bessel_trial_norm_sq(q, lam_star)))
    error = 0.5 * rule_error + _hyp_error(lam_star, q.n) + _bessel_gamma_error(q)
    return _bound_result(q, "lower_bessel", log_value, TrialParams(lam=lam_star), error, res,
                         nodes=n_nodes, rule_error=rule_error)


def k_bessel_minorant(q: BoundQuery) -> BoundResult:
    """K^BB: like K^B but with the analytic minorant in the numerator;
    valid for d/2 < n <= d/2 + 1/2 and cheap arbitrarily close to d/2.
    Each lam that the Newton search (:func:`_search_log_lam`, from
    lam = 1.42) tries costs twelve 2F1: four and their contiguous
    functions.  Its error is bounded by :func:`_minorant_error`."""
    res = _search_log_lam(_lam_objective(q, lambda lam: _log_minorant(q, lam, True)), 1.42)
    lam_star = math.exp(res.argmax[0])
    return _bound_result(q, "lower_bessel_bb", res.max_value, TrialParams(lam=lam_star),
                         _minorant_error(q, lam_star), res)


# ----------------------------------------------------------------------
# Gaussian-regularized plane-wave trial norms and lower bounds
# ----------------------------------------------------------------------

def _on_closed_sum(q: BoundQuery) -> bool:
    """Whether the Gaussian trial norms take the closed sum (integer n <= 50)."""
    return q.n_is_integer and q.n <= _FF_SWITCH


def log_gaussian_trial_norm_sq(q: BoundQuery, p: float, sigma: float,
                               tol: float = 1e-10, *, validate: bool = False) -> float:
    """log of the squared Sobolev norm of exp(i p x_1 - sigma |x|^2 / 2),

        sigma^-d int_{R^d} (1 + |k|^2)^n exp(-|k - p e_1|^2 / sigma) dk.

    Integer n up to 50 uses the closed triple sum, any other n the h/2 value
    of a trapezoid rule in asinh(k_1) times an exp-sinh rule in |k_perp|^2; tol
    bounds its relative difference from the h rule (ArithmeticError above
    it).
    """
    if validate:
        raise TypeError("validate is not supported; the tests check the closed sum "
                        "against the h/2 rule")
    if not (p > 0.0 and sigma > 0.0):
        raise ValueError("p and sigma must be positive")
    if _on_closed_sum(q):
        return float(_log_gaussian_norm_sq_sum(q, p, sigma))
    return float(_log_gaussian_norm_sq_refined(q, p, sigma, tol)[0])


def gaussian_trial_norm_sq(q: BoundQuery, p: float, sigma: float,
                           tol: float = 1e-10) -> float:
    """exp of :func:`log_gaussian_trial_norm_sq`; overflows for n in the
    hundreds, where the log form does not."""
    return math.exp(log_gaussian_trial_norm_sq(q, p, sigma, tol))


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
    return _bound_result(q, "lower_fourier", log_value,
                         TrialParams(p=p_star, sigma=sigma_star), error, res, **diags)


def k_fourier_fixed(q: BoundQuery) -> BoundResult:
    """K^FF: the quotient at the frozen pair (1/(2 sqrt 2), 3/(4n))."""
    p = 0.5 / math.sqrt(2.0)
    sigma = 0.75 / q.n
    log_value, error, diags = _log_fourier_quotient(q, p, sigma, _FF_TOL)
    return _bound_result(q, "lower_fourier_ff", log_value, TrialParams(p=p, sigma=sigma),
                         error, **diags)


# ----------------------------------------------------------------------
# best lower bound
# ----------------------------------------------------------------------

def best_lower(q: BoundQuery) -> BoundResult:
    """The best applicable lower bound, tagged (B)/(BB)/(F)/(FF): the
    minorant (BB) within 0.1 of d/2, where the squared-norm integral
    converges too slowly for (B) and the Gaussian trials cannot follow the
    1/sqrt(n - d/2) blowup, so (F) is skipped; beyond n = 50 the
    frozen-pair (FF) replaces both searches.
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
