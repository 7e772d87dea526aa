"""Distillation loss for a binary head and its converged per-sample targets.

The loss mixes a temperature-softened cross-entropy against the teacher with
a plain cross-entropy against the hard label,

    rho * H(sigmoid(z_t / T), sigmoid(z_s / T)) + (1 - rho) * H(y, sigmoid(z_s)),

and an over-parameterized student drives each training logit to the unique
stationary point of this per-sample loss.  That root, the effective student
logit, is what this module solves for (by safeguarded Newton, entry by
entry; see :func:`effective_logits`), together with its closed form at
T = 1, the label-smoothing limit, and the first-order response to mixing in
hard labels near the pure-soft end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# Initial bracket half-width for the root search, and the saturation value
# reported for pure hard labels (where the minimizer runs off to infinity).
_Z_MAX_BASE = 30.0
# iteration cap of the Newton solve, a backstop far above the ~20 it takes
_MAX_ITER = 200


class UnboundedSolutionError(ValueError):
    """The per-sample loss has no finite stationary point."""


@dataclass(frozen=True)
class DistillParams:
    """Soft ratio and temperature of the distillation loss."""

    soft_ratio: float
    temperature: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.soft_ratio <= 1.0:
            raise ValueError(f"soft_ratio must be in [0, 1], got {self.soft_ratio}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def z_max(temperature: float) -> float:
    """Saturation logit used in place of the divergent pure-hard-label root."""
    return _Z_MAX_BASE * max(1.0, temperature)


def _softplus(z):
    return np.logaddexp(0.0, z)


def binary_cross_entropy(p, z):
    """H(p, sigmoid(z)) in softplus form; stable for |z| up to ~1e3."""
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=float)
    return p * _softplus(-z) + (1.0 - p) * _softplus(z)


def distill_loss(z_s, z_t, y_g, params: DistillParams):
    """Per-sample distillation loss at student logit z_s."""
    rho, temp = params.soft_ratio, params.temperature
    soft = binary_cross_entropy(expit(np.asarray(z_t, dtype=float) / temp),
                                np.asarray(z_s, dtype=float) / temp)
    hard = binary_cross_entropy(y_g, z_s)
    return rho * soft + (1.0 - rho) * hard


def loss_gradient(z_s, z_t, y_g, params: DistillParams, soft_target=None):
    """d(distill_loss)/d(z_s); strictly increasing in z_s whenever rho > 0.

    ``soft_target``, when given, is ``expit(z_t / T)`` already evaluated
    (``z_t`` is then not read), so a root search can hoist it out of its
    iterations.
    """
    rho, temp = params.soft_ratio, params.temperature
    z_s = np.asarray(z_s, dtype=float)
    if soft_target is None:
        soft_target = expit(np.asarray(z_t, dtype=float) / temp)
    y_g = np.asarray(y_g, dtype=float)
    return (rho / temp) * (expit(z_s / temp) - soft_target) + (1.0 - rho) * (
        expit(z_s) - y_g
    )


def _slope_and_rounding(z_s, soft_target, y_g, params: DistillParams):
    """Slope of loss_gradient in z_s, and the rounding error of loss_gradient
    evaluated at z_s: eps times the size of the pieces it is summed from.
    """
    rho, temp = params.soft_ratio, params.temperature
    u = z_s / temp
    s_u, s_z = expit(u), expit(z_s)
    slope = (rho / temp**2) * (s_u * expit(-u)) + (1.0 - rho) * (s_z * expit(-z_s))
    rounding = np.finfo(float).eps * (
        (rho / temp) * np.maximum(s_u, soft_target) + (1.0 - rho) * np.maximum(s_z, y_g)
    )
    return slope, rounding


def effective_logits(z_t, y_g, params: DistillParams) -> np.ndarray:
    """Vectorized root of loss_gradient in z_s, by safeguarded Newton.

    The residual is continuous and strictly increasing for rho > 0, so the
    bracket [-z_max, z_max] (grown geometrically if it does not straddle the
    root) pins the root.  Each entry then runs Newton's iteration from its
    teacher logit clipped to the bracket, which is the exact root at
    rho = 1.  Every residual evaluation narrows the entry's bracket, and a
    Newton step that does not land strictly inside it is replaced by the
    bracket midpoint, so the iterate never leaves the bracket.

    Each entry stops on its own, whatever the rest of the batch does, so its
    result does not depend on which entries it is solved with.  It stops when

    * the residual is within its own rounding error, eps times the size of
      the sigmoid terms it is summed from (this includes a residual of
      exactly zero); the iterate is returned;
    * the raw Newton step is at most 1e-13 * max(1, |z|); the stepped
      iterate is returned;
    * the bracket is at most 4e-15 * max(1, |z|) wide.

    The returned residuals are below 1e-12.  That bounds the residual, not
    the distance to the exact root: where the loss is flat (large |z| at
    small T, where sigmoid' is tiny) a residual at rounding level leaves the
    root uncertain by about 1e-16 / slope, some 1e-10 at |z| ~ 15 with
    rho = 0.5, T = 1, and any point of that band is an equally valid answer.
    """
    if params.soft_ratio == 0.0:
        raise UnboundedSolutionError(
            "pure hard labels (soft_ratio = 0) drive the student logit to "
            "+/- infinity; use saturated_effective_logits for a clamped value"
        )
    z_t = np.asarray(z_t, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    z_t, y_g = np.broadcast_arrays(z_t, y_g)
    shape = z_t.shape
    z_t = z_t.ravel()
    y_g = y_g.ravel()

    cap = z_max(params.temperature)
    lo = np.full(z_t.shape, -cap)
    hi = np.full(z_t.shape, cap)
    for _ in range(60):  # geometric growth; residual limits guarantee a root
        grow_lo = loss_gradient(lo, z_t, y_g, params) > 0
        grow_hi = loss_gradient(hi, z_t, y_g, params) < 0
        if not (grow_lo.any() or grow_hi.any()):
            break
        lo[grow_lo] *= 2.0
        hi[grow_hi] *= 2.0
    else:
        raise UnboundedSolutionError("failed to bracket the effective logit")

    out = np.empty(z_t.shape)
    idx = np.arange(z_t.size)
    z = np.clip(z_t, lo, hi)
    soft = expit(z_t / params.temperature)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            f = loss_gradient(z, None, y_g, params, soft_target=soft)
            lo = np.where(f < 0, z, lo)
            hi = np.where(f > 0, z, hi)
            slope, rounding = _slope_and_rounding(z, soft, y_g, params)
            step = -f / slope
            raw = z + step
            nxt = np.where((raw > lo) & (raw < hi), raw, 0.5 * (lo + hi))
            tol = np.maximum(1.0, np.abs(z))
            settled = np.abs(f) <= rounding
            small = np.abs(step) <= 1e-13 * tol
            done = settled | small | (hi - lo <= 4e-15 * tol)
            # a converged step may round onto the bracket end it started
            # from, so it is taken unsafeguarded
            out[idx[done]] = np.where(settled, z, np.where(small, raw, nxt))[done]
            if done.all():
                return out.reshape(shape)
            keep = ~done
            idx, z, lo, hi, soft, y_g = (
                idx[keep], nxt[keep], lo[keep], hi[keep], soft[keep], y_g[keep]
            )
    out[idx] = z
    return out.reshape(shape)


def effective_logit(z_t: float, y_g: float, params: DistillParams) -> float:
    """Scalar effective student logit for one (teacher logit, hard label) pair."""
    return float(effective_logits(z_t, y_g, params))


def saturated_effective_logits(z_t, y_g, params: DistillParams):
    """Effective logits with the rho = 0 divergence clamped to +/- z_max.

    Returns (values, saturated) where ``saturated`` flags entries that were
    substituted rather than solved.
    """
    z_t = np.asarray(z_t, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    z_t, y_g = np.broadcast_arrays(z_t, y_g)
    if params.soft_ratio == 0.0:
        values = np.sign(2.0 * y_g - 1.0) * z_max(params.temperature)
        return values, np.ones(values.shape, dtype=bool)
    return effective_logits(z_t, y_g, params), np.zeros(z_t.shape, dtype=bool)


def effective_logit_closed_t1(z_t, y_g, soft_ratio: float):
    """Closed form at T = 1: the logit of rho*sigmoid(z_t) + (1-rho)*y_g.

    Both the mixed probability and its complement are assembled from
    nonnegative terms, so the log-ratio stays accurate out to extreme teacher
    logits.
    """
    z_t = np.asarray(z_t, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    p = soft_ratio * expit(z_t) + (1.0 - soft_ratio) * y_g
    q = soft_ratio * expit(-z_t) + (1.0 - soft_ratio) * (1.0 - y_g)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise UnboundedSolutionError(
            "mixed probability hit {0, 1}; the effective logit is unbounded"
        )
    out = np.log(p) - np.log(q)
    return float(out) if out.ndim == 0 else out


def correction_logit(z_t, y_g, temperature: float):
    """First-order response of the effective logit to hard labels at rho = 1.

    Implicit differentiation of the stationarity condition at the pure-soft
    solution (where the root sits exactly at z_t) gives

        T^2 * (y_g - sigmoid(z_t)) / sigmoid'(z_t / T).
    """
    z_t = np.asarray(z_t, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    u = z_t / temperature
    if np.any(np.abs(u) > 500.0):
        raise OverflowError(
            "sigmoid'(z_t / T) underflows for |z_t / T| > 500; the correction "
            "logit is numerically meaningless there"
        )
    slope = expit(u) * expit(-u)
    out = temperature**2 * (y_g - expit(z_t)) / slope
    return float(out) if out.ndim == 0 else out


def label_smoothing_logit(y_g, eps: float):
    """Effective logit when the teacher is label smoothing with mass eps.

    A two-class smoothed target (1 - eps/2) yields +/- log(2/eps - 1), signed
    by the class (positive for y_g = 1).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"smoothing mass must be in (0, 1], got {eps}")
    y_g = np.asarray(y_g, dtype=float)
    out = np.where(y_g > 0.5, 1.0, -1.0) * np.log(2.0 / eps - 1.0)
    return float(out) if out.ndim == 0 else out
