"""Transfer risk of a linearized student, its decay, and the angle bound.

A student distilled from a fixed teacher disagrees with it on a shrinking
slice of inputs as the training set grows, and the disagreement follows a
rough power law in the sample size.  Pure soft distillation (rho = 1)
decays faster than a mixed loss: hard labels tear a jump into the targets,
and the jump costs samples.  The survival function of feature-oracle
angles turns a trained student's angle into a risk certificate; at desk
scale nearly every feature is near-orthogonal to the oracle (the diagonal
of the kernel grows with the input norm), so the certificate is loose but
never violated.
"""

import numpy as np

from ntkdistill import (
    DistillParams,
    NetConfig,
    TrainConfig,
    effective_logits,
    empirical_risk,
    fit_power_law,
    init_params,
    train_teacher,
)
from ntkdistill.experiments import student_closed_form
from ntkdistill.network import row_blocks
from ntkdistill.tasks import LabelSource, Task, TaskSpec

task = Task(TaskSpec(kind="mixture", dim=2, modes=6, amplitude=2.0, seed=11))

print("Training the teacher (a few seconds)...")
teacher_net = NetConfig(input_dim=2, hidden_layers=3, width=64)
params = train_teacher(
    teacher_net, task, TrainConfig(0.01, 256, 4096), seed=5,
    checkpoint_epochs=[4096],
)[4096]
label = LabelSource(teacher_net, params, reduction=0.3, ground_truth=task.target_logits)
sampler = task.sample_inputs

student_net = NetConfig(input_dim=2, hidden_layers=2, width=128)
params0 = init_params(student_net, 7)
ns = [8, 16, 32, 64, 128]

print("\nEmpirical transfer risk by sample size (closed-form students):")
print("    n    rho=1.0   rho=0.5")
risk_table = {}
for rho in (1.0, 0.5):
    dp = DistillParams(soft_ratio=rho, temperature=10.0)
    risks = []
    for n in ns:
        rr = np.random.default_rng(1000 + n)
        x = sampler(n, rr)
        targets = effective_logits(label.logits(x), label.hard(x), dp)
        [delta] = student_closed_form(student_net, params0, x, [targets])
        # the linearized student z0 + delta . phi, swept in row blocks
        est = empirical_risk(
            lambda xx: row_blocks(student_net, params0, xx,
                                  lambda s: s.logits + s.jvp(delta)),
            label.logits,
            sampler,
            20000,
            rr,
        )
        risks.append(max(est.risk, 1e-4))
    risk_table[rho] = risks
for i, n in enumerate(ns):
    print(f"  {n:4d}   {risk_table[1.0][i]:7.4f}   {risk_table[0.5][i]:7.4f}")

for rho, risks in risk_table.items():
    print(f"power-law slope at rho={rho}: {fit_power_law(ns, risks):+.3f}")
print("The pure-soft slope is the steeper (more negative) of the two.")
