"""Synthetic target generators and input samplers.

Targets are scalar logit functions on R^d: Gaussian mixtures with a mode
count controlling their difficulty, sign-flip corruptions of those mixtures,
the constant zero function, and per-sample random logits.  Inputs are always
drawn i.i.d. N(0, INPUT_SCALE^2) per coordinate.  One :class:`TaskSpec`
describes every task, a mixture's shape included, and :class:`Task` realizes
it.  Teacher networks are not tasks: a run trains its teachers on a task,
and :class:`LabelSource` turns a teacher's parameter vector into teacher
logits and hard labels.

All generators are deterministic functions of (seed, draw index): realizing
a spec twice from the same seed, or evaluating a noisy target twice with
identically seeded generators, reproduces the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetConfig, forward

TASK_KINDS = ("mixture", "flipped-mixture", "zero", "random-labels")

# standard deviation of every input coordinate, N(0, 5^2)
INPUT_SCALE = 5.0

# standard deviation of every coordinate of a mixture's mode centers
CENTER_SPREAD = 5.0

# Mode width shrinks with the mode count so every bump stays visible in the
# mixture's shape.
def default_mode_width(modes: int) -> float:
    return 15.0 / modes**2


# relative spread of the realized per-mode amplitudes and widths
JITTER = 0.2


@dataclass(frozen=True)
class Mixture:
    """A realized Gaussian mixture: sum_j A_j exp(-|x - x_j|^2 / s_j)."""

    amplitudes: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sq = ((x[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        return (self.amplitudes * np.exp(-sq / self.widths)).sum(axis=1)


def realize_mixture(spec: TaskSpec, rng: np.random.Generator) -> Mixture:
    """Draw a mixture's modes from the spec's shape fields.

    Amplitudes jitter by ``JITTER`` around ``amplitude`` with equiprobable
    sign, centers are N(0, CENTER_SPREAD^2) per coordinate, and widths
    jitter around ``width`` (15 / modes^2 by default).
    """
    width = spec.width if spec.width is not None else default_mode_width(spec.modes)
    q = spec.modes
    signs = rng.choice([-1.0, 1.0], size=q)
    amplitudes = spec.amplitude * (1 + JITTER * rng.uniform(-1, 1, size=q)) * signs
    centers = rng.normal(scale=CENTER_SPREAD, size=(q, spec.dim))
    widths = width * (1 + JITTER * rng.uniform(-1, 1, size=q))
    return Mixture(amplitudes, centers, widths)


# compared and hashed by identity: the generated forms would compare arrays
@dataclass(frozen=True, eq=False)
class LabelSource:
    """Teacher logits and ground-truth hard labels.

    Teacher logits are the outputs of the network ``net`` at the parameter
    vector ``params``, scaled by the reduction factor; hard labels come from
    the sign of an independent ground-truth function.
    """

    net: NetConfig
    params: np.ndarray
    reduction: float
    ground_truth: object = None

    def __post_init__(self):
        if not self.reduction > 0:
            raise ValueError("reduction factor must be positive")

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.reduction * forward(self.net, self.params, x)

    def hard(self, x: np.ndarray) -> np.ndarray:
        if self.ground_truth is None:
            raise ValueError("no ground-truth function attached")
        return (np.asarray(self.ground_truth(x)) > 0).astype(float)


@dataclass(frozen=True)
class TaskSpec:
    """Config-file description of a synthetic task.

    ``kind`` selects the target: a Gaussian mixture, a sign-flipped mixture
    (``p_flip``), the zero function, or i.i.d. N(0,1) logits per sample.
    Inputs are N(0, INPUT_SCALE^2) per coordinate in every case.  ``modes``,
    ``amplitude`` and ``width`` shape a mixture (see
    :func:`realize_mixture`).
    """

    kind: str = "mixture"
    dim: int = 2
    seed: int = 0
    modes: int = 10
    amplitude: float = 1.0
    width: float | None = None
    p_flip: float = 0.0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind: unknown task kind {self.kind!r}; choose from {TASK_KINDS}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed: must be an integer >= 0")
        if self.modes < 1:
            raise ValueError("modes: must be >= 1")
        if self.width is not None and self.width <= 0:
            raise ValueError("width: must be positive")
        if not 0.0 <= self.p_flip <= 0.5:
            raise ValueError(f"p_flip: must be in [0, 0.5], got {self.p_flip}")


class Task:
    """A realized task: input sampler plus target logit source.

    ``target_logits(x, rng)`` consumes randomness only for the noisy kinds
    (flipped-mixture, random-labels).  ``subtract_init`` says whether weight
    -change targets are measured against a student's initial logits (true
    function targets) or taken as-is (the random-label reference, which is
    defined directly as a logit difference).
    """

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        self._ground: Mixture | None = None
        if spec.kind in ("mixture", "flipped-mixture"):
            self._ground = realize_mixture(spec, rng)

    @property
    def subtract_init(self) -> bool:
        return self.spec.kind != "random-labels"

    def sample_inputs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. inputs with N(0, INPUT_SCALE^2) coordinates; (n, dim)."""
        return rng.normal(scale=INPUT_SCALE, size=(n, self.spec.dim))

    def target_logits(self, x: np.ndarray, rng: np.random.Generator | None = None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        kind = self.spec.kind
        if kind == "mixture":
            return self._ground.values(x)
        if kind == "flipped-mixture":
            if rng is None:
                raise ValueError("flipped-mixture targets need an rng")
            # row i flips on draw i, so a reseeded generator replays the flips
            values = self._ground.values(x)
            return np.where(rng.random(len(values)) < self.spec.p_flip, -1.0, 1.0) * values
        if kind == "zero":
            return np.zeros(len(x))
        if rng is None:
            raise ValueError("random-label targets need an rng")
        return rng.standard_normal(len(x))

    def hard_labels(self, x: np.ndarray, rng: np.random.Generator | None = None):
        return (np.asarray(self.target_logits(x, rng)) > 0).astype(float)
