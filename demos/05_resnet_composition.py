"""Residual networks compose exactly: embedding, padding, and addition.

Three facts carry the deep construction, and all three are exact linear
algebra rather than approximations:
  1. any two-layer net embeds as a resnet (one neuron per layer) whose
     weighted path norm is exactly three times the two-layer path norm,
  2. identity padding changes neither values nor the weighted norm,
  3. two resnets add by block-stacking, values and norms both additive.
"""

import numpy as np

from minterp import (
    TwoLayerNet,
    embed_two_layer,
    pad_identity_layers,
    path_norm,
    random_resnet,
    resnet_add,
    resnet_eval_batch,
    two_layer_eval_batch,
    weighted_path_norm,
)

rng = np.random.default_rng(0)
d = 3

# 1. embedding
theta = TwoLayerNet(a=rng.standard_normal(8),
                    W=np.column_stack([rng.standard_normal((8, d)), rng.standard_normal(8)]))
deep = embed_two_layer(theta)
X = rng.uniform(-1, 1, (d, 2000))
dev = np.abs(two_layer_eval_batch(theta, X) - resnet_eval_batch(deep, X)).max()
print(f"embed: L={deep.L}, D={deep.D}, m={deep.m}")
print(f"  value deviation   {dev:.2e}")
print(f"  norm ratio        {weighted_path_norm(deep) / path_norm(theta):.12f} (exactly 3)")

# 2. identity padding
padded = pad_identity_layers(deep, L_new=3 * deep.L)
dev = np.abs(resnet_eval_batch(deep, X) - resnet_eval_batch(padded, X)).max()
print(f"\npad to L={padded.L}: value deviation {dev:.2e}, "
      f"norm change {abs(weighted_path_norm(padded) - weighted_path_norm(deep)):.2e}")

# 3. addition
other = random_resnet(d, L=6, D=d + 2, m=4, scale=0.5, seed=1)
total = resnet_add(padded, other)
want = resnet_eval_batch(padded, X) + resnet_eval_batch(other, X)
dev = np.abs(resnet_eval_batch(total, X) - want).max()
norm_gap = abs(weighted_path_norm(total)
               - weighted_path_norm(padded) - weighted_path_norm(other))
print(f"\nadd: L={total.L}, D={total.D}, m={total.m}")
print(f"  value deviation against the sum  {dev:.2e}")
print(f"  norm additivity gap              {norm_gap:.2e}")
