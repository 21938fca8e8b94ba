#!/usr/bin/env python3
"""The numerical building blocks: Gamma ladder, 2F1 evaluation regimes,
Bessel/Macdonald functions and the quadrature drivers.
"""

import math

import numpy as np

from sobomul import (HyperEval, TailSpec, bessel_j, bessel_k,
                     digamma, gamma, hyp2f1, integrate_finite,
                     integrate_semiinf, pochhammer, semifactorial)

print("Gamma ladder:")
print("  gamma(1/2)      =", gamma(0.5), " (sqrt(pi) =", math.sqrt(math.pi), ")")
print("  digamma(1)      =", digamma(1.0), " (= -euler_gamma)")
print("  pochhammer(.5,2)=", pochhammer(0.5, 2), "  semifactorial(5) =", semifactorial(5))

print()
print("2F1 across its evaluation regimes (the selection is internal):")
for e in (HyperEval(2.0, 1.5, 1.5, -3.0),      # degeneration -> (1-w)^-a
          HyperEval(1.0, 1.0, 2.0, -1.0),      # log 2
          HyperEval(0.3, 0.7, 2.2, 0.5),       # plain series
          HyperEval(5.0, 1.0, 5.5, -40.0),     # mapped argument
          HyperEval(1.2, 0.4, 5.0, 0.95),      # Euler integral
          HyperEval(0.5, 0.25, 3.0, 1.0)):     # boundary value
    print(f"  F({e.a}, {e.b}, {e.c}; {e.w:6.2f}) = {hyp2f1(e):.12g}   [{e.regime}]")

print()
print("Bessel family (J, Macdonald K):")
print("  J_1(1)            =", bessel_j(1.0, 1.0))
print("  K_1/2(1)          =", bessel_k(0.5, 1.0),
      " (= sqrt(pi/2) e^-1 =", math.sqrt(math.pi / 2) * math.exp(-1.0), ")")

print()
print("Quadrature with endpoint singularities and algebraic tails:")
res = integrate_finite(lambda s: 1.0 / np.sqrt(s), 0.0, 1.0)
print(f"  int_0^1 s^-1/2 ds         = {res.value:.12f}  "
      f"(err est {res.abs_error_estimate:.1e}, {res.evaluations} evals)")
res = integrate_semiinf(lambda u: np.sqrt(u) / (1 + u) ** 4, 0.0, TailSpec(2.5))
want = gamma(1.5) * gamma(2.5) / gamma(4.0)
print(f"  int_0^inf u^.5 (1+u)^-4 du = {res.value:.12f}  (exact {want:.12f})")
