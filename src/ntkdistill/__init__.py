"""Desk-scale laboratory for knowledge distillation of linearized wide networks.

The package splits into small, composable layers:

* :mod:`~ntkdistill.linalg` — jittered SPD solves and whitening, angles;
* :mod:`~ntkdistill.network` — NTK-parameterized ReLU stacks and
  :class:`~ntkdistill.network.Sweep`, the linearization at a parameter vector
  (logits, jvp, vjp, tangent Gram and diagonal), plus Adam training of
  teachers and linearized students;
* :mod:`~ntkdistill.kernel` — the analytic arc-cosine tangent kernel, one
  recursion for the Gram and its diagonal, and the finite-width empirical
  Gram;
* :mod:`~ntkdistill.distillation` — the two-term distillation loss and its
  converged per-sample targets;
* :mod:`~ntkdistill.tasks` — synthetic targets (Gaussian mixtures, flip noise,
  the zero function, random labels), each described by one ``TaskSpec``, the
  shared N(0, 5^2) input law, and ``LabelSource``, which turns a trained
  teacher's parameter vector into teacher logits and hard labels;
* :mod:`~ntkdistill.metrics` — data inefficiency, angle distributions,
  transfer risk and its bound, power-law fits;
* :mod:`~ntkdistill.hardlabel` — imperfect-teacher corrections on whitened vectors;
* :mod:`~ntkdistill.experiments` / :mod:`~ntkdistill.cli` — the seeded,
  config-driven experiment runner.
"""

__version__ = "0.1.0"

from .distillation import (
    DistillParams,
    correction_logit,
    distill_loss,
    effective_logit_closed_t1,
    effective_logits,
    label_smoothing_logit,
    loss_gradient,
)
from .kernel import (
    analytic_ntk_diag,
    analytic_ntk_gram,
    empirical_ntk_diag,
    empirical_ntk_gram,
)
from .linalg import (
    DegenerateVectorError,
    KernelMatrix,
    SingularKernelError,
    acute_angle,
)
from .metrics import (
    AngleCurve,
    InefficiencyCurve,
    alpha_n,
    angle_distribution,
    data_inefficiency,
    empirical_risk,
    fit_power_law,
    risk_bound,
)
from .network import (
    NetConfig,
    Sweep,
    TrainConfig,
    feature_dot,
    forward,
    init_params,
    param_count,
    train_linearized,
    train_teacher,
    weighted_feature_sum,
)
from .tasks import Task, TaskSpec, realize_mixture
