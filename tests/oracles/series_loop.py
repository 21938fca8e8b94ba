"""The 2F1 power series summed one term at a time: the reference that
``sobomul.specfun._series`` must reproduce bit for bit.

``_series`` sums the same series in blocks of cached term ratios with
sequential numpy accumulates; this is the plain loop it replaced, with
the same stop test, term cap and cancellation guard.
"""

from sobomul import specfun as sf

__all__ = ["series_loop"]


def series_loop(a: float, b: float, c: float, w: float) -> tuple[float, int]:
    """(sum, number of terms after the leading 1) of 2F1(a, b, c; w).

    Reads the cap ``sf._MAX_TERMS`` and the guard ``sf._CANCEL_LIMIT`` at
    call time, so a test that patches them patches both evaluators.
    """
    term = 1.0
    total = 1.0
    peak = 1.0
    for ell in range(sf._MAX_TERMS):
        term *= (a + ell) * (b + ell) / ((c + ell) * (ell + 1.0)) * w
        total += term
        at = abs(term)
        if at > peak:
            peak = at
        if at <= 1e-17 * abs(total) and abs(w) * abs((a + ell) * (b + ell) / ((c + ell) * (ell + 1.0))) < 1.0:
            break
    else:
        raise sf.SeriesError(f"2F1 series did not converge for ({a}, {b}, {c}; {w})")
    if abs(total) < peak / sf._CANCEL_LIMIT:
        raise sf.SeriesError(
            f"2F1 series lost too many digits to cancellation for ({a}, {b}, {c}; {w})")
    return total, ell + 1
