#!/usr/bin/env python3
# Residuals of the finite-range walk recursion as the horizon grows.
# The generating-function identity behind it is exact; the truncation
# error should shrink geometrically in t_max for contractive steps.

import numpy as np

from filtered_spectra.walks import random_walk_recursion_check

rng = np.random.default_rng(11)

for ell in (1, 2, 3):
    z = rng.uniform(-0.1, 0.1, 2 * ell + 1) + \
        1j * rng.uniform(-0.05, 0.05, 2 * ell + 1)
    print(f"ell = {ell}, steps = {np.round(z, 3)}")
    for t_max in (10, 20, 40, 80):
        resid = random_walk_recursion_check(list(z), ell, t_max=t_max)
        print(f"  t_max = {t_max:>3}: residual = {resid:.3e}")
    print()
