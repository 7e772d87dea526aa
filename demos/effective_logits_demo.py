"""What converged student logits look like under the distillation loss.

An over-parameterized student driven to the minimum of the per-sample loss
does not copy the teacher: each logit lands at the root of the mixed
gradient, which amplifies the teacher when it is right, caps the damage
when it is wrong, and opens a jump across the class boundary as soon as
hard labels carry any weight.
"""

import numpy as np

from ntkdistill import DistillParams, effective_logits, label_smoothing_logit

z_grid = np.array([-4.0, -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, 4.0])

print("Teacher correct (y = sign of z_t), T = 5:")
header = "  rho   " + "".join(f"{z:>8.1f}" for z in z_grid)
print(header)
for rho in (1.0, 0.75, 0.5, 0.25, 0.05):
    dp = DistillParams(soft_ratio=rho, temperature=5.0)
    vals = effective_logits(z_grid, (z_grid > 0).astype(float), dp)
    print(f"  {rho:4.2f} " + "".join(f"{v:8.3f}" for v in vals))
print("rho = 1 reproduces the teacher exactly; smaller rho pushes every")
print("logit away from zero, toward a cut-off at the boundary jump.\n")

# the jump across z_t = 0 (teacher correct on both sides)
print("Boundary jump z(0+) - z(0-) by soft ratio (T = 5):")
for rho in (0.9, 0.5, 0.2, 0.05):
    dp = DistillParams(soft_ratio=rho, temperature=5.0)
    z_right, z_left = effective_logits([1e-9, -1e-9], [1, 0], dp)
    jump = z_right - z_left
    print(f"  rho {rho:4.2f}: jump {jump:6.3f}")
print()

print("Wrong teacher (y = 1 while z_t < 0), T = 1: hard labels cap the damage")
for rho in (0.8, 0.5, 0.3):
    dp = DistillParams(soft_ratio=rho, temperature=1.0)
    vals = effective_logits(np.array([-6.0, -3.0, -1.0]), 1.0, dp)
    sig = 1 / (1 + np.exp(-vals))
    print(
        f"  rho {rho:3.1f}: z_eff {np.round(vals, 3)}  sigma(z_eff) {np.round(sig, 3)}"
        f"  (floor 1 - rho = {1 - rho:.1f})"
    )
print()

print("Label-smoothing limit: a smoothed one-hot teacher pins the logits at")
for eps in (0.4, 0.2, 0.05):
    print(f"  eps {eps:4.2f}: +/- {label_smoothing_logit(1, eps):.4f}")
