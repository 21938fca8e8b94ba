#!/usr/bin/env python3
"""The special functions the bounds use: log Gamma, and 2F1 across its
series regimes, with the defined error where no regime serves a request.
"""

import math

from sobomul import HyperEval, hyp2f1, log_gamma
from sobomul.specfun import HypergeometricError

print("log Gamma (Lanczos, reflection below 1/2):")
print("  log_gamma(1/2)  =", log_gamma(0.5), " (log sqrt(pi) =", 0.5 * math.log(math.pi), ")")
print("  log_gamma(100)  =", log_gamma(100.0), " (lgamma:", math.lgamma(100.0), ")")

print()
print("2F1 across its evaluation regimes (the selection is internal):")
for a, b, c, w in ((2.0, 1.5, 1.5, -3.0),      # degeneration -> (1-w)^-a
                   (1.0, 1.0, 2.0, -1.0),      # log 2
                   (0.3, 0.7, 2.2, 0.5),       # plain series
                   (5.0, 1.0, 5.5, -40.0),     # mapped argument
                   (1.2, 0.4, 5.0, 0.95),      # Euler transformation
                   (0.5, 0.25, 3.0, 1.0)):     # boundary value
    regime = HyperEval(a, b, c, w).regime
    print(f"  F({a}, {b}, {c}; {w:6.2f}) = {hyp2f1(a, b, c, w):.12g}   [{regime}]")

print()
print("the (B) trial norm's F(-n, d/2; n; 1 - lam^2) at (n, d) = (2.3, 3):")
for lam in (1.2, 1.4, 3.0):
    args = (-2.3, 1.5, 2.3, 1.0 - lam * lam)
    print(f"  lam = {lam:3.1f}: F = {hyp2f1(*args):.12g}   [{HyperEval(*args).regime}]")

print()
print("no quadrature stands behind the series: 0.7 < w < 1 without positive")
print("Euler terms raises a defined error")
try:
    hyp2f1(1.0, 3.5, 3.0, 0.9)
except HypergeometricError as exc:
    print(f"  [{HyperEval(1.0, 3.5, 3.0, 0.9).regime}] {type(exc).__name__}: {exc}")
