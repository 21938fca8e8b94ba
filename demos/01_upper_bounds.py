#!/usr/bin/env python3
"""Upper bounds K+ for the multiplication constant of H^n(R^d).

For n <= d/2 + 1/2 the bounding curve increases toward its closed-form
limit; beyond that it develops a unique interior maximum whose location
drifts toward u = 1/2 as n grows.  This script walks one dimension and
shows both regimes.
"""

import math
from fractions import Fraction

from sobomul import BoundQuery, k_plus, upper_curve

D = 2

print(f"Upper bounds for d = {D}")
print(f"{'n':>10} {'K+':>12} {'maximizer u':>14}  route")
for gap in (Fraction(1, 10000), Fraction(1, 10), Fraction(1, 2), Fraction(1),
            Fraction(3, 2), Fraction(3), Fraction(15), Fraction(60), Fraction(120)):
    n = Fraction(D, 2) + gap
    q = BoundQuery(d=D, n=float(n), n_exact=n)
    res = k_plus(q)
    u = res.argmax.u
    if u is not None and math.isfinite(u):
        loc = f"{u:14.4g}"
    else:
        loc = f"{'boundary':>14}"
    print(f"{str(n):>10} {res.value:12.6g} {loc}  {res.diagnostics['route']}")

print()
print("The curve for n = 2 around its maximum (u* = 6.844):")
q = BoundQuery(d=2, n=2.0, n_exact=Fraction(2))
for u in (0.0, 1.0, 3.0, 6.844, 12.0, 50.0):
    print(f"  curve({u:7.3f}) = {upper_curve(q, u):.8f}")
print("K+ is the square root of the supremum:", math.sqrt(upper_curve(q, 6.844188)))
