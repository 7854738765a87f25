#!/usr/bin/env python3
# The four-tap "compass" filter end to end: exact moments, the algebraic
# curve for the Stieltjes transform, spectral edges from the discriminant,
# and the 1/sqrt|x| blow-up of the density at the origin.

import math
from fractions import Fraction

import numpy as np

from filtered_spectra.kernel import compass_filter, kernel_from_filter
from filtered_spectra.moments import theoretical_moments
from filtered_spectra.combinat import moments_by_enumeration
from filtered_spectra.algebra import (BivariatePolynomial,
                                      rank_one_eliminate, discriminant,
                                      real_roots, verify_curve)
from filtered_spectra.colorsolve import density_profile

h = compass_filter()
kern = kernel_from_filter(h)
print("filter taps:", dict(h.taps))
print("kernel band:", kern.band, " amplitude:", kern.amplitude())

print("\nexact moments m_1..m_8 (recursion | enumeration):")
rec = theoretical_moments(kern, 8)
enum = moments_by_enumeration(kern, 8)
for k, (a, b) in enumerate(zip(rec, enum), start=1):
    print(f"  m_{k} = {a}   | {b}")

# profile relation v^2 m (m - 2) = 1, satisfied by the Stieltjes transform
# v = S_f(m) of the compass profile distribution, encoded in (x, y) = (m, v);
# rank_one_eliminate turns it into the curve of lambda and S
relation = BivariatePolynomial({(2, 2): Fraction(1), (1, 2): Fraction(-2),
                                (0, 0): Fraction(-1)})
curve = rank_one_eliminate(relation, kern)
print("\neliminated curve:", curve.pretty("L", "S"))

lams = [10.0 * complex(math.cos(a), math.sin(a))
        for a in (math.pi * (2 * k + 1) / 40 for k in range(20))]
print("max residual on 20 sample points:", verify_curve(curve, kern, lams))

disc = discriminant(curve, "y")
print("\ndiscriminant coefficients (ascending):", disc)
edges = sorted(r.midpoint for r in real_roots(disc))
edge = max(edges)
surd = 0.25 * math.sqrt(-107 + 51 * math.sqrt(17))
print(f"spectral edge: {edge:.10f}  (closed form {surd:.10f})")

print("\ndensity near the origin (d * sqrt|x| should be flat):")
xs = np.array([-0.04, -0.02, -0.01, 0.01, 0.02, 0.04])
prof = density_profile(kern, xs, eps_pair=(1e-3, 5e-4))
for x, d in zip(prof.xs, prof.density):
    print(f"  x={x:+.3f}  density={d:8.4f}  d*sqrt|x|={d * math.sqrt(abs(x)):.4f}")

print("\ndensity across the support:")
xs = np.linspace(-2.7, 2.7, 37)
prof = density_profile(kern, xs)
for x, d in zip(prof.xs, prof.density):
    bar = "#" * int(60 * d)
    print(f"  {x:+.2f} {d:6.3f} {bar}")
