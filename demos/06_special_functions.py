#!/usr/bin/env python3
"""The special functions the bounds use: log Gamma, and 2F1 on the one
family that the (B) and (BB) norms need, F(-n, d/2; c; 1 - t lam^2), along
its five paths, with the defined error for a request outside the family.
"""

import math

from sobomul import HyperEval, hyp2f1, log_gamma
from sobomul.specfun import HypergeometricError

print("log Gamma (Lanczos, reflection below 1/2):")
print("  log_gamma(1/2)  =", log_gamma(0.5), " (log sqrt(pi) =", 0.5 * math.log(math.pi), ")")
print("  log_gamma(100)  =", log_gamma(100.0), " (lgamma:", math.lgamma(100.0), ")")

print()
print("the (B) trial norm's F(-n, d/2; n; 1 - lam^2) along its five paths:")
for n, d, lam in ((2.3, 3, 1.0),     # w = 0: 1 without a sum
                  (3.0, 3, 1.4),     # integer n: the terminating polynomial
                  (2.3, 3, 1.2),     # |w| <= 0.7: the direct series
                  (2.3, 3, 3.0),     # w < -0.7: Pfaff's map w -> w/(w-1)
                  (2.3, 3, 0.4)):    # 0.7 < w < 1: Euler's map
    args = (-n, d / 2.0, n, 1.0 - lam * lam)
    print(f"  (n, d) = ({n}, {d}), lam = {lam:3.1f}: F(-{n}, {d / 2}; {n}; {args[3]:5.2f})"
          f" = {hyp2f1(*args):.12g}   [{HyperEval(*args).regime}]")

print()
print("the family's contract is 0 < b < c, a < c, w < 1; the upper bound's")
print("kernel F(2n - d/2, n; n + 1/2; -u) lies outside it (its own rule in")
print("sobomul.kernels evaluates it), so 2F1 raises the defined error")
try:
    hyp2f1(3.0, 2.0, 2.5, -1.0)
except HypergeometricError as exc:
    print(f"  {type(exc).__name__}: {exc}")
