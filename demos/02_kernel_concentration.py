"""Watch the empirical feature kernel concentrate around its expectation.

K^m = Phi Phi^T / m is an average of m independent rank-one terms with
entries bounded by 1, so Hoeffding plus a union bound gives
||K - K^m||_2 <= sqrt(n^2 ln(2 n^2 / delta) / (2m)) with probability
1 - delta.  The smallest eigenvalue inherits the same width by Weyl's
inequality, which is what the interpolation constructions actually need.
"""

import numpy as np

from minterp import (
    RELU_L1SPHERE,
    FeatureFamily,
    concentration_check,
    kernel_empirical,
    kernel_exact,
    quadrature_rule,
    rng_from,
    smallest_eigenvalue,
)

d, n, delta = 4, 32, 0.1
family = FeatureFamily(tag=RELU_L1SPHERE)
X = rng_from(0).uniform(-1, 1, (d, n))

K = kernel_exact(family, X, quadrature_rule(d, 1_000_000, seed=1))
lam = smallest_eigenvalue(K)
print(f"exact kernel on n={n} points: lambda_min = {lam:.3e}")
print(f"\n{'m':>7} {'bound':>9} {'observed':>9} {'lam_min(K^m)':>13} holds")

for k in range(6, 15):
    m = 2 ** k
    W = family.sample_params(d, m, seed=100 + k)
    Km = kernel_empirical(family.features(W, X))
    check = concentration_check(K, Km, m, delta)
    print(f"{m:>7} {check.bound:>9.4f} {check.observed:>9.4f} "
          f"{check.lambda_min_empirical:>13.3e} {check.holds}")

# the observed error decays like 1/sqrt(m), matching the bound's rate
errs = []
for k in (8, 12):
    W = family.sample_params(d, 2 ** k, seed=200 + k)
    errs.append(np.linalg.norm(K - kernel_empirical(family.features(W, X)), 2))
print(f"\nerror ratio m=256 vs m=4096: {errs[0] / errs[1]:.2f} "
      f"(sqrt(4096/256) = {np.sqrt(16):.1f})")
