#!/usr/bin/env python3
"""The numerical building blocks the bounds use: log Gamma, 2F1
across its evaluation regimes and the tanh-sinh rule on (0, 1).
"""

import math

import numpy as np

from sobomul import HyperEval, hyp2f1, log_gamma
from sobomul.quad import tanh_sinh_01

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
print("tanh-sinh on (0, 1), the rule behind the Euler integrals; the")
print("integrand receives s and 1-s, so both endpoint singularities keep")
print("full relative accuracy:")
val, err, nev = tanh_sinh_01(lambda s, oms: s ** -0.5 * oms ** -0.5)
print(f"  int_0^1 s^-1/2 (1-s)^-1/2 ds  = {val:.15f}  (pi = {math.pi:.15f}; "
      f"err est {err:.1e}, {nev} nodes)")
val, err, nev = tanh_sinh_01(lambda s, oms: s ** -0.25 * oms ** -0.75)
want = math.exp(log_gamma(0.75) + log_gamma(0.25))
print(f"  int_0^1 s^-1/4 (1-s)^-3/4 ds  = {val:.15f}  (exact {want:.15f}; {nev} nodes)")
vals, _err, nev = tanh_sinh_01(
    lambda s, oms: np.exp(np.outer([1.0, 2.0, 3.0], s)))
print("  int_0^1 e^(k s) ds, k = 1..3  =", ", ".join(f"{v:.12f}" for v in vals),
      f"(= (e^k - 1)/k; one batch, {nev} nodes)")
