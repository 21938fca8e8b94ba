#!/usr/bin/env python3
"""Asymptotic laws at both ends of the n-range.

Near n = d/2 the upper bound blows up like M_d / sqrt(n - d/2) and the
minorant lower bound tracks it at the fixed fraction sqrt(2/3) > 0.816.
For n -> inf both sides grow like (2/sqrt 3)^n n^(-d/4); the fixed-pair
plane-wave bound reaches the fraction (5/3)^(1/2) / 7^(1/4) > 0.793.

Equivalent CLI:  sobomul asymp --regime small -d 1
"""

import math

from sobomul import (AsympConstants, BoundQuery, k_bessel_minorant,
                     k_fourier_fixed, k_plus, k_plus_asymp_large)

print("Small-gap law, d = 1 (scaled by sqrt(gap)/M_d):")
c = AsympConstants.for_dimension(1)
for gap in (1e-2, 1e-4, 1e-6):
    q = BoundQuery(d=1, n=0.5 + gap)
    scale = math.sqrt(gap) / c.amp_small
    print(f"  gap = {gap:8.0e}: upper -> {k_plus(q).value * scale:.6f} (target 1), "
          f"minorant -> {k_bessel_minorant(q).value * scale:.6f} "
          f"(target sqrt(2/3) = {math.sqrt(2/3):.6f})")

print()
print("Large-n law, d = 2 (scaled by T_d (2/sqrt3)^n n^(-d/4)):")
for n in (50, 100, 200):
    q = BoundQuery(d=2, n=float(n))
    lead = k_plus_asymp_large(q)
    print(f"  n = {n:4d}: upper -> {k_plus(q).value / lead:.5f} (target 1), "
          f"fixed-pair -> {k_fourier_fixed(q).value / lead:.5f} "
          f"(target {math.sqrt(5/3)/7**0.25:.5f})")

