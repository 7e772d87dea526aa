"""Imperfect-teacher analysis: does mixing in hard labels help?

All quantities live in the kernel geometry <a, b> = a^T K^{-1} b over
per-sample logit differences, with K = L L^T the tangent Gram of the
training inputs.  Every function takes whitened vectors w = L^{-1} dz
(``KernelMatrix.half_solve``), whose dot products are those inner products,
so a caller whitens each logit difference once.  The student-oracle cosine
measures how well a student trained on effective targets aligns with the
ground-truth weight change; its derivative with respect to the hard-label
ratio at the pure-soft end reduces to a projection of the correction logits
onto the component of the ground-truth direction orthogonal to the teacher.
The sign of that projection is the decision signal: positive means a pinch
of hard labels rotates the student toward the oracle.
"""

from __future__ import annotations

import numpy as np

from .linalg import DegenerateVectorError


def cos_alpha_g(w_g: np.ndarray, w_s: np.ndarray, norm_wg: float) -> float:
    """Cosine of the student and ground-truth oracle weight changes, from the
    whitened logit differences ``w_g`` and ``w_s``,

        <dz_g, dz_s> / (|dw_g| sqrt(<dz_s, dz_s>)),

    with |dw_g| estimated separately (online-batch training on the
    ground-truth targets).
    """
    if not norm_wg > 0:
        raise ValueError("norm_wg must be positive")
    s_s = float(w_s @ w_s)
    if s_s <= 0:
        raise DegenerateVectorError("student logit delta has zero kernel norm")
    return float(w_g @ w_s) / (norm_wg * np.sqrt(s_s))


def correction_projection(w_g: np.ndarray, w_t: np.ndarray, w_h: np.ndarray) -> float:
    """Projection of the hard-label correction onto the teacher's blind spot,
    from the whitened ground-truth, teacher and correction vectors:

        <dz_g, dz_h> - (<dz_g, dz_t> / <dz_t, dz_t>) <dz_t, dz_h>.

    Its sign says whether hard labels push the student toward (positive) or
    away from (negative) the ground-truth direction.
    """
    t_t = float(w_t @ w_t)
    if t_t <= 0:
        raise DegenerateVectorError("teacher logit delta has zero kernel norm")
    g_h = float(w_g @ w_h)
    g_t = float(w_g @ w_t)
    t_h = float(w_t @ w_h)
    return g_h - (g_t / t_t) * t_h


def hard_label_derivative(w_t: np.ndarray, projection: float, norm_wg: float) -> float:
    """Derivative of cos_alpha_g with respect to the hard ratio at rho = 1,

        projection / (|dw_g| sqrt(<dz_t, dz_t>)),

    with ``w_t`` the whitened teacher vector and ``projection`` its
    correction_projection.
    """
    if not norm_wg > 0:
        raise ValueError("norm_wg must be positive")
    t_t = float(w_t @ w_t)
    if t_t <= 0:
        raise DegenerateVectorError("teacher logit delta has zero kernel norm")
    return projection / (norm_wg * np.sqrt(t_t))
