"""Measurements on linearized students: weight-change norms, data
inefficiency, angle statistics, transfer risk, and power-law fits.

The central quantity is the kernel norm of a converged student's weight
change, |dw_n| = sqrt(dz^T K_n^{-1} dz), where dz stacks per-sample target
minus initial logits (the targets alone for the random-label reference) and
K_n is the analytic tangent kernel Gram of the n training inputs.  Data
inefficiency is its discrete log-derivative

    I(n) = n * [ln E|dw_{n+1}| - ln E|dw_n|],

evaluated exactly by augmenting each drawn sample set with one extra point
(the expectation is over sample draws and student initializations, and sits
inside the logarithm).  The transfer-risk bound couples the survival
function of the feature-oracle angle, p(beta), with the student-oracle
angle alpha_n: risk <= p(pi/2 - alpha_n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import analytic_ntk_gram
from .linalg import SingularKernelError, acute_angle
from .network import NetConfig, forward, init_params


def unit_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Record-keyed generator: one independent stream per (root, key) tuple.

    Streams depend only on their own key, so adding grid points or changing
    the dispatch order never perturbs existing results.
    """
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, key)]))


@dataclass
class InefficiencyCurve:
    """I(n) over a sample-size grid, plus the norms behind it."""

    ns: np.ndarray
    log_mean_norm: np.ndarray        # ln E|dw_n| per grid point
    inefficiency: np.ndarray
    skipped: np.ndarray              # singular-kernel repeats per grid point
    unreliable: np.ndarray           # > 20% of repeats skipped


def inefficiency_from_norms(ns, mean_norm, mean_norm_next) -> np.ndarray:
    """I(n) = n * [ln E|dw_{n+1}| - ln E|dw_n|] from precomputed means."""
    ns = np.asarray(ns, dtype=float)
    return ns * (np.log(np.asarray(mean_norm_next)) - np.log(np.asarray(mean_norm)))


def inefficiency_of_norm_law(norm_law, ns) -> np.ndarray:
    """I(n) for a deterministic norm law n -> |dw_n|; the injection oracle."""
    ns = np.asarray(ns, dtype=float)
    return inefficiency_from_norms(
        ns, [norm_law(n) for n in ns], [norm_law(n + 1) for n in ns]
    )


def _unit_norms(cfg: NetConfig, x: np.ndarray, dz: np.ndarray, n: int):
    """|dw_n| on the first n of the inputs ``x``, and the mean |dw_{n+1}|
    over the remaining ones as the (n+1)th point.  The Gram and the base
    factor live only in this call, so they are freed before the next unit
    draws its inputs and its student initialization."""
    # the full Gram is checked once; its leading block shares it
    gram = analytic_ntk_gram(cfg, x)
    base = gram.leading(n)
    # one forward substitution whitens dz and every candidate's cross column;
    # the base norm and each candidate's rank-1 Schur update, on the base
    # factorization and its jitter, are dot products of whitened columns
    whitened = base.half_solve(np.column_stack([dz[:n], gram.entries[:n, n:]]))
    w, cross = whitened[:, 0], whitened[:, 1:]
    base_sq = max(float(w @ w), 0.0)
    resid = dz[n:] - cross.T @ w
    schur = (
        np.diag(gram.entries[n:, n:])
        + base.jitter_used
        - np.einsum("ij,ij->j", cross, cross)
    )
    inc = resid**2 / np.maximum(schur, np.finfo(float).tiny)
    return np.sqrt(base_sq), np.mean(np.sqrt(base_sq + inc))


def data_inefficiency(
    task,
    cfg: NetConfig,
    ns,
    repeats: int,
    root_seed: int,
    targets=None,
    extra_points: int = 1,
) -> InefficiencyCurve:
    """Monte Carlo I(n) curve for a task under a student architecture.

    Each (grid point, repeat) unit draws n + extra_points fresh inputs and
    targets plus a fresh student initialization from its own keyed stream.
    |dw_n| comes from the first n samples, on the analytic tangent kernel;
    |dw_{n+1}| is evaluated once per candidate extra point (a rank-1 Schur
    update of the shared base solve) and averaged.  Every augmented set is a
    valid (n+1)-sample draw, so the average stays an unbiased estimate of
    E|dw_{n+1}| while shrinking the variance of the n -> n+1 increment by
    ~1/extra_points.

    dz is the target minus the student's initial logits when
    ``task.subtract_init``, and the target itself otherwise.  Units that hit
    a singular kernel are skipped and counted; a grid point with more than
    20% of its repeats skipped is flagged unreliable.  ``targets`` overrides
    the task's target function (same (x, rng) signature), which is how
    distilled effective logits are swept.

    At its peak a unit holds two (n + extra_points)^2-sized arrays, the Gram
    and one Cholesky factor, and it releases both before the next unit
    starts.
    """
    ns = np.asarray(ns, dtype=int)
    if np.any(np.diff(ns) <= 0):
        raise ValueError("sample-size grid must be strictly increasing")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if extra_points < 1:
        raise ValueError("extra_points must be >= 1")

    mean_n = np.empty(len(ns))
    mean_next = np.empty(len(ns))
    skipped = np.zeros(len(ns), dtype=int)

    for i, n in enumerate(ns):
        n = int(n)
        norms_n, norms_next = [], []
        for r in range(repeats):
            rng = unit_rng(root_seed, i, r)
            x = task.sample_inputs(n + extra_points, rng)
            dz = np.asarray(targets(x, rng) if targets is not None
                            else task.target_logits(x, rng), dtype=float)
            # the student initialization is the stream's last draw, so it is
            # drawn only when something reads it
            if task.subtract_init:
                dz = dz - forward(cfg, init_params(cfg, rng), x)
            try:
                norm_n, norm_next = _unit_norms(cfg, x, dz, n)
                norms_n.append(norm_n)
                norms_next.append(norm_next)
            except SingularKernelError:
                skipped[i] += 1
        if norms_n:
            mean_n[i] = np.mean(norms_n)
            mean_next[i] = np.mean(norms_next)
        else:
            mean_n[i] = mean_next[i] = np.nan

    return InefficiencyCurve(
        ns=ns,
        log_mean_norm=np.log(mean_n),
        inefficiency=inefficiency_from_norms(ns, mean_n, mean_next),
        skipped=skipped,
        unreliable=skipped > 0.2 * repeats,
    )


def alpha_n(dw_student, dw_oracle, dw_zero) -> float:
    """Angle between the zero-shifted student and oracle weight changes."""
    dw_student = np.asarray(dw_student, dtype=float)
    dw_oracle = np.asarray(dw_oracle, dtype=float)
    dw_zero = np.asarray(dw_zero, dtype=float)
    return acute_angle(dw_oracle - dw_zero, dw_student - dw_zero)


@dataclass
class AngleCurve:
    """Survival function p(beta) of the feature-oracle angle on a grid."""

    betas: np.ndarray
    survival: np.ndarray
    half_width: np.ndarray  # 95% normal-approximation half-widths

    def __post_init__(self):
        if np.any(np.diff(self.survival) > 0):
            raise ValueError("survival estimates must be nonincreasing")


def default_beta_grid(points: int = 512) -> np.ndarray:
    return np.linspace(0.0, np.pi / 2, points)


def angle_distribution(
    eff_logits_fn,
    kernel_diag_fn,
    norm_delta: float,
    sampler,
    n_samples: int,
    rng: np.random.Generator,
    betas: np.ndarray | None = None,
) -> AngleCurve:
    """Monte Carlo estimate of p(beta) without explicit features.

    Uses the identity cos(angle(phi(x), dw)) = z_eff(x) / (|dw| sqrt(K(x,x)))
    with |dw| supplied from an online-batch training run, so each sample
    costs one target evaluation and one kernel-diagonal evaluation.
    """
    if norm_delta <= 0:
        raise ValueError("norm_delta must be positive")
    if betas is None:
        betas = default_beta_grid()
    x = sampler(n_samples, rng)
    cos = np.abs(np.asarray(eff_logits_fn(x), dtype=float))
    cos /= norm_delta * np.sqrt(np.asarray(kernel_diag_fn(x), dtype=float))
    angles = np.arccos(np.clip(cos, 0.0, 1.0))
    angles.sort()
    at_most = np.searchsorted(angles, betas, side="right")
    survival = 1.0 - at_most / n_samples
    half_width = 1.96 * np.sqrt(survival * (1 - survival) / n_samples)
    return AngleCurve(
        betas=np.asarray(betas, dtype=float),
        survival=survival,
        half_width=half_width,
    )


def risk_bound(curve: AngleCurve, alpha: float) -> float:
    """Angle-survival risk bound p(pi/2 - alpha), rounded up conservatively.

    The survival estimate is a nonincreasing step function; taking the grid
    point at or below the query never understates the bound.
    """
    if not 0.0 <= alpha <= np.pi / 2:
        raise ValueError(f"alpha must be in [0, pi/2], got {alpha}")
    query = np.pi / 2 - alpha
    idx = int(np.searchsorted(curve.betas, query, side="right")) - 1
    return float(curve.survival[max(idx, 0)])


@dataclass
class RiskEstimate:
    """Monte Carlo transfer risk; ties are counted as disagreement."""

    risk: float
    tie_rate: float
    std_error: float


def empirical_risk(
    student_fn, teacher_fn, sampler, n_samples: int, rng: np.random.Generator
) -> RiskEstimate:
    """Fraction of fresh samples where student and teacher signs disagree."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = sampler(n_samples, rng)
    z_s = np.asarray(student_fn(x), dtype=float)
    z_t = np.asarray(teacher_fn(x), dtype=float)
    ties = (z_s == 0) | (z_t == 0)
    disagree = (z_s * z_t < 0) | ties
    risk = float(np.mean(disagree))
    return RiskEstimate(
        risk=risk,
        tie_rate=float(np.mean(ties)),
        std_error=float(np.sqrt(risk * (1 - risk) / n_samples)),
    )


def fit_power_law(ns, values) -> float:
    """Exponent of the least-squares line on (ln n, ln value)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 3:
        raise ValueError("need at least 3 points for a power-law fit")
    if np.any(ns <= 0) or np.any(values <= 0):
        raise ValueError("power-law fit needs positive sizes and values")
    slope, _ = np.polyfit(np.log(ns), np.log(values), 1)
    return float(slope)
