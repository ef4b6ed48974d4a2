"""Estimate Rademacher complexities and assemble a generalization bound.

Two estimators bracket the theory.  For a random-feature coefficient
ball the per-draw supremum is exact (a norm computation), so the Monte
Carlo average is unbiased; for the path-norm ball the inner sup is a
projected subgradient ascent, so the estimate is a lower bound.  Both
sit below their closed-form upper bounds, and the upper bound is what
enters the deviation inequality.
"""

import numpy as np

from minterp import (
    RELU_L1SPHERE,
    FeatureFamily,
    generalization_bound,
    rad_path_ball,
    rad_rf_ball,
    rf_ball_upper,
    rng_from,
)

d, n, m, C = 3, 64, 512, 1.5
X = rng_from(0).uniform(-1, 1, (d, n))

family = FeatureFamily(tag=RELU_L1SPHERE)
Phi = family.features(family.sample_params(d, m, seed=1), X)
est = rad_rf_ball(Phi, C, n_draws=512, seed=2)
up = rf_ball_upper(C, n)
print(f"feature ball, radius {C}:")
print(f"  estimate {est.mean:.4f} +- {est.std_error:.4f}  ({est.n_sign_draws} draws)")
print(f"  closed-form upper {up:.4f}  (C / sqrt(n))")

res = rad_path_ball(X, C, n_draws=128, n_starts=8, seed=3)
print(f"\npath-norm ball, radius {C}:")
print(f"  lower estimate {res.estimate.mean:.4f} +- {res.estimate.std_error:.4f}")
print(f"  closed-form upper {res.upper:.4f}  (2C sqrt(2 ln(2d) / n))")

# the bound for the squared loss on the radius-C ball: loss Lipschitz constant
# C + 1 times the Rademacher upper value, plus the tail term
emp = 0.01
bound = generalization_bound(emp, C, res.upper, delta=0.1, n=n)
print(f"\ndeviation bound at empirical risk {emp}:")
print(f"  {emp} + 2*{C + 1.0:.1f}*{res.upper:.4f} + tail = {bound:.4f}")
for big_n in (64, 256, 1024, 4096):
    up_n = 2 * C * np.sqrt(2 * np.log(2 * d) / big_n)
    print(f"  n={big_n:>5}: bound {generalization_bound(emp, C, up_n, 0.1, big_n):.4f}")
