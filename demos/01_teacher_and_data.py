"""Build a ground-truth target, bound its norms, and sample labeled data.

The targets are finite mixtures of ReLU ridge functions with directions on
the unit l1 sphere.  That normalization makes two quantities exactly
computable: an upper bound on the representation norm (the mean absolute
coefficient) and an upper bound on sup |f| over the input box.  Drawn
coefficients lie in [-1, 1], so both bounds stay below 1 and every label
lands in [-1, 1] as drawn.
"""

import numpy as np

from minterp import (
    barron_norm_upper,
    make_teacher,
    sample_dataset,
    sup_norm_upper,
    teacher_eval_batch,
)

d, n_atoms, n = 4, 32, 200

teacher = make_teacher(d, n_atoms, seed=0)
print(f"teacher: {teacher.n_atoms} atoms in d={teacher.d}, "
      f"max|a_k| {np.abs(teacher.coefficients).max():.4f}")
print(f"  norm upper bound      {barron_norm_upper(teacher):.4f}")
print(f"  sup|f| upper bound    {sup_norm_upper(teacher):.4f}  (at most the norm bound)")

data = sample_dataset(teacher, n, seed=1)
print(f"\ndataset: X {data.X.shape}, y {data.y.shape}, seed {data.seed}")
print(f"  max|x|  {np.abs(data.X).max():.4f}")
print(f"  max|y|  {np.abs(data.y).max():.4f}  (bound {sup_norm_upper(teacher):.4f})")

# the sup bound is a true envelope: probe on a dense random cloud
probe = np.random.default_rng(2).uniform(-1, 1, (d, 100_000))
vals = teacher_eval_batch(teacher, probe)
print(f"  sup over 1e5 probes {np.abs(vals).max():.4f}")
