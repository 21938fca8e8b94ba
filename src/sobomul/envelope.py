"""The elementary constants of K+'s asymptotic laws and the envelope K++
built from them, as formulas on plain floats.

    AsympConstants          M_d, N_d, T_d and V_d, built once per d
    log_k_plus_asymp_large  log T_d + n log(2/sqrt 3) - (d/4) log n
    envelope_terms          (log lead(n), main(n)) of the envelope
    residual                the residual z of a K+ value
    log_k_plus_plus         log K++ for a residual constant Z_d

``bounds`` builds its public scalar functions (the asymptotic laws,
``envelope_residual`` and ``k_plus_plus``) and the residual scan on these,
so that each formula is written once and both paths give the same bits.
Every exp, log and power here is the ``math`` module's: one ulp of log K+
at the scan's first gap moves Z_1 by 3.55e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .kernels import DomainError

__all__ = [
    "AsympConstants",
    "amp_large",
    "log_k_plus_asymp_large",
    "envelope_terms",
    "residual",
    "log_k_plus_plus",
]

_LOG_2_OVER_SQRT3 = math.log(2.0 / math.sqrt(3.0))


def amp_large(d: int) -> float:
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
        t_d = amp_large(d)
        v_d = math.log(math.sqrt(3.0) / 2.0) + 0.5 + 3.0 / d - n_d
        return cls(d=d, amp_small=m_d, slope_small=n_d, amp_large=t_d, drift=v_d)


def log_k_plus_asymp_large(n: float, d: int) -> float:
    """log of the large-n law T_d (2/sqrt 3)^n / n^(d/4)."""
    return math.log(amp_large(d)) + n * _LOG_2_OVER_SQRT3 - 0.25 * d * math.log(n)


def envelope_terms(n: float, gap: float, c: AsympConstants) -> tuple[float, float]:
    """(log lead(n), main(n)) of the envelope at n = d/2 + gap, d = c.d:
    lead is (2/sqrt 3)^n / n^(d/4), and main carries the small-gap and
    large-n model terms."""
    d = c.d
    return (n * _LOG_2_OVER_SQRT3 - 0.25 * d * math.log(n),
            (3.0 * d / 8.0) ** (d / 4.0) * c.amp_small / math.sqrt(gap)
            * (1.0 - gap / n) ** 1.5 * (1.0 + c.drift * gap)
            + c.amp_large * (gap / n) ** 1.5)


def residual(n: float, gap: float, terms: tuple[float, float], k_plus: float) -> float:
    """The residual z solving K+ = lead(n) [main(n) + z gap / n^2] at
    n = d/2 + gap, given the envelope terms there."""
    log_lead, main = terms
    return (math.exp(math.log(k_plus) - log_lead) - main) * n ** 2 / gap


def log_k_plus_plus(n: float, gap: float, terms: tuple[float, float], big_z: float) -> float:
    """log K++, K++ = lead(n) [main(n) + Z_d gap / n^2] at n = d/2 + gap,
    given the envelope terms there."""
    log_lead, main = terms
    return log_lead + math.log(main + big_z * gap / n ** 2)
