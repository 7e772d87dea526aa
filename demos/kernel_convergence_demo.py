"""The tangent Gram of a finite ReLU stack against its infinite-width limit.

The Gram matrix of parameter gradients fluctuates around the analytic
arc-cosine kernel, and the fluctuation shrinks as the width grows.  The
same recursion also shows the diagonal growing like a quarter of the
squared input norm, which is what keeps feature-oracle angles pinned near
ninety degrees.
"""

import numpy as np

from ntkdistill import NetConfig, analytic_ntk_diag, analytic_ntk_gram, empirical_ntk_gram, init_params

rng = np.random.default_rng(3)
inputs = rng.normal(scale=5.0, size=(16, 2))

print("Frobenius-relative error of the empirical Gram (5 inits per width):")
for width in (64, 256, 1024, 4096):
    cfg = NetConfig(input_dim=2, hidden_layers=3, width=width)
    target = analytic_ntk_gram(cfg, inputs).entries
    errs = [
        np.linalg.norm(
            empirical_ntk_gram(cfg, init_params(cfg, seed), inputs).entries
            - target
        )
        / np.linalg.norm(target)
        for seed in range(5)
    ]
    print(f"  width {width:5d}: {np.mean(errs):.4f}")
print()

cfg = NetConfig(input_dim=2, hidden_layers=3, width=64)
print("Kernel diagonal versus squared input norm (3 hidden layers):")
for norm in (10, 30, 50, 100):
    x = np.array([[norm / np.sqrt(2), norm / np.sqrt(2)]])
    ratio = analytic_ntk_diag(cfg, x)[0] / norm**2
    print(f"  |x| = {norm:4d}: K(x,x) / |x|^2 = {ratio:.4f}")
print("The ratio stays above 1/4 and tightens toward it at large scale.")
