#!/usr/bin/env python3
"""Lower bounds from the two trial-function families.

Every Rayleigh quotient ||f^2||_n / ||f||_n^2 certifies a lower bound, so
each family contributes its supremum: the scaled Macdonald kernel over its
scale lam, and the Gaussian-regularized plane wave over (p, sigma).  The
Macdonald family wins near d/2, the plane-wave family for large n; this
script shows both quotient curves and the crossover.
"""

import math
from fractions import Fraction

from sobomul import (BoundQuery, best_lower, bessel_trial_norm_sq,
                     bessel_trial_sq_norm_sq, gaussian_trial_norm_sq,
                     k_bessel, k_fourier, k_plus)

q = BoundQuery(d=2, n=2.0, n_exact=Fraction(2))
print("Macdonald-kernel quotient at (n, d) = (2, 2) as a function of lam:")
for lam in (0.8, 1.1, 1.36, 1.7, 2.2):
    quot = math.sqrt(bessel_trial_sq_norm_sq(q, lam)) / bessel_trial_norm_sq(q, lam)
    print(f"  lam = {lam:4.2f}: quotient = {quot:.6f}")
print("supremum:", k_bessel(q).value, "at lam =", k_bessel(q).argmax.lam)

print()
print("Plane-wave quotient at the same query, along sigma at p = 0.511:")
for sigma in (0.4, 0.8, 1.05, 1.6, 3.0):
    quot = (math.sqrt(gaussian_trial_norm_sq(q, 2 * 0.511, 2 * sigma))
            / gaussian_trial_norm_sq(q, 0.511, sigma))
    print(f"  sigma = {sigma:4.2f}: quotient = {quot:.6f}")
print("supremum:", k_fourier(q).value, "at (p, sigma) =", k_fourier(q).argmax.as_tuple())

print()
print("Crossover between the families (d = 2):")
print(f"{'n':>6} {'bessel/K+':>11} {'fourier/K+':>11}  best")
for n in (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(4), Fraction(7)):
    qq = BoundQuery(d=2, n=float(n), n_exact=n)
    kp = k_plus(qq).value
    kb = k_bessel(qq).value / kp
    kf = k_fourier(qq).value / kp
    tag = best_lower(qq).tag
    print(f"{str(n):>6} {kb:11.4f} {kf:11.4f}  {tag}")
