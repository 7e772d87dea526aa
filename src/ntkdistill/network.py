"""Fully-connected ReLU networks in NTK parameterization.

The forward pass applies, for input x in R^d and L hidden layers of width m,

    h^1     = sw * W^0 x / sqrt(d) + sb * b^0,          a^1 = relu(h^1)
    h^(l+1) = sw * W^l a^l / sqrt(m) + sb * b^l,        a^(l+1) = relu(h^(l+1))
    f(x)    = sw * W^L a^L / sqrt(m) + sb * b^L,

with every entry of every W and b drawn i.i.d. standard normal, and the
scales (sw, sb) kept outside the weights so the infinite-width kernel limit
exists.  Parameters travel as one flat vector in a fixed layer-major order
(W^0, b^0, W^1, b^1, ..., W^L, b^L, each in C order).

Three views of the parameter gradient drive everything downstream:

* ``feature`` materializes the gradient of a single logit, phi(x) in R^p,
  by explicit reverse-mode accumulation through the stack;
* ``weighted_feature_sum`` returns sum_i c_i phi(x_i) from one batched
  backward pass, never materializing an (n, p) matrix;
* ``feature_dot`` returns delta . phi(x_i) for a whole batch from one
  forward tangent pass.

The combination makes kernel solves, linearized-model training, and
linearized evaluation affordable at widths where explicit features would
not fit in memory.

Every entry point builds sweep objects, ``_Cache``, whose forward sweep
runs at construction.  Its reverse sweep (``deltas``) is computed on first
use, so callers that read only logits and forward tangents never pay for
it.  The per-layer offsets of the flat parameter vector are computed once
per :class:`NetConfig`.

Each elementwise pass of a sweep runs in place on the array its matmul
returns.  The forward sweep scales and shifts h = a W^T in place, keeps the
mask h > 0 and applies the ReLU as ``np.maximum(h, 0.0, out=h)``.  The
reverse sweep's deltas and the tangent pass multiply by the mask and add
+0.0, which turns the -0.0 of a negative value times False into +0.0.  Each
step performs the IEEE operations of the one-expression, masked-select form
(``np.where(mask, h, 0.0)``) in the same order, so every value keeps every
bit, the sign of every zero included; the tests keep that form as their
reference.  Only non-finite values differ: a NaN pre-activation propagates
to the logits, where a masked select zeroed it, so the non-finite guards
downstream (teacher and oracle divergence, effective-logit inputs) see it.

A sweep gives delta . phi(x_i) in two forms:

* ``tangent``, the forward tangent pass: two matmuls per hidden layer (the
  direct term a_l dW_l^T and the propagated tangent t_l W_l^T).  The
  forward-only callers use it: ``feature_dot``, ``linear_logit`` and the
  Monte Carlo student of the risk study.
* ``reverse_tangent``, read off the reverse sweep's deltas as
  sum_l rowsum(deltas[l] * (scale_l a_l dW_l^T + sb db_l)) plus the output
  layer's terms: one matmul per layer.  ``train_linearized`` uses it, since
  every step needs the deltas for its gradient anyway.  The two forms agree
  to rounding (about 1e-16 relative), not bitwise.

Batch evaluations that need no cross-row sum (``forward``, ``feature_dot``,
``linear_logit`` and the kernel diagonal) sweep their inputs in row blocks
of ``_BLOCK_ROWS`` rows, so the memory of a 10,000-sample Monte Carlo pass
is set by the block size, not by the sample count.  Blocks start every
``_BLOCK_ROWS`` rows and the last one also takes the remainder, so every
block of a long batch keeps at least ``_BLOCK_ROWS`` rows.  A BLAS routes a
one-row or few-row product through other kernels that sum in another
order, while every long block has the same inner dimension and sums each
row exactly as the unblocked sweep does; the tests check that blocked
results are bitwise the unblocked ones.  Sweeps whose results sum over
rows (gradients, Gram matrices, training steps) stay whole.

``train_linearized`` trains a list of objectives in lockstep on one sweep
per step, each objective with its own weight change and Adam state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .distillation import DistillParams, loss_gradient

CHECKPOINT_FORMAT_VERSION = 1

# rows per sweep of a blocked batch evaluation (see _row_blocks)
_BLOCK_ROWS = 1024


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture and NTK-parameterization scales."""

    input_dim: int
    hidden_layers: int
    width: int
    weight_scale: float = 1.0
    bias_scale: float = 1.0

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_layers < 1 or self.width < 1:
            raise ValueError("input_dim, hidden_layers and width must be >= 1")
        if not self.weight_scale > 0:
            raise ValueError("weight_scale must be positive")
        if self.bias_scale < 0:
            raise ValueError("bias_scale must be nonnegative")


def layer_shapes(cfg: NetConfig) -> list[tuple[tuple[int, int], tuple[int]]]:
    """(W, b) shapes per affine layer, input to output."""
    d, m = cfg.input_dim, cfg.width
    shapes = [((m, d), (m,))]
    shapes += [((m, m), (m,))] * (cfg.hidden_layers - 1)
    shapes += [((1, m), (1,))]
    return shapes


@lru_cache(maxsize=None)
def _layout(cfg: NetConfig) -> tuple[tuple, int]:
    """Per affine layer ``(w_shape, w_start, b_start, b_end)`` in the flat
    vector, and the vector's length; computed once per config."""
    spans = []
    offset = 0
    for (rows, cols), (b_len,) in layer_shapes(cfg):
        b_start = offset + rows * cols
        spans.append(((rows, cols), offset, b_start, b_start + b_len))
        offset = b_start + b_len
    return tuple(spans), offset


def param_count(cfg: NetConfig) -> int:
    return _layout(cfg)[1]


def unflatten(cfg: NetConfig, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views."""
    params = np.asarray(params)
    spans, count = _layout(cfg)
    if params.shape != (count,):
        raise ValueError(f"expected flat vector of length {count}, got {params.shape}")
    return [(params[w0:b0].reshape(w_shape), params[b0:b1]) for w_shape, w0, b0, b1 in spans]


def flatten(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in layers])


def init_params(cfg: NetConfig, seed) -> np.ndarray:
    """Standard-normal parameter vector; deterministic given the seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.standard_normal(param_count(cfg))


def _as_batch(cfg: NetConfig, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != cfg.input_dim:
            raise ValueError(f"input has dim {x.shape[0]}, expected {cfg.input_dim}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"inputs must be (n, {cfg.input_dim}), got {x.shape}")
    return x, False


def _relu_grad(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``v * mask + 0.0`` as a new array: ``np.where(mask, v, 0.0)`` bit for
    bit, except that a -0.0 under a True mask gives +0.0 and a non-finite
    entry under a False mask gives NaN.  The ``+ 0.0`` turns the -0.0 of a
    negative entry times False into +0.0."""
    out = v * mask
    out += 0.0
    return out


class _Cache:
    """Forward activations plus backward deltas at one set of parameters.

    ``acts[0]`` is the input batch; ``acts[l]`` for l >= 1 are post-ReLU
    activations; ``masks[l]`` are the ReLU derivative masks of layer l + 1's
    pre-activations; ``deltas[l]`` is the per-sample gradient of the logit
    with respect to pre-activation h^(l+1).

    Construction runs the forward sweep only.  ``deltas`` comes from the
    reverse sweep, which runs on first access and is then kept, so callers
    that read only ``logits`` or ``tangent`` never pay for it, and
    ``weighted_gradient``, ``reverse_tangent`` and the Gram builders pay for
    it once per cache.
    """

    def __init__(self, cfg: NetConfig, params: np.ndarray, x: np.ndarray):
        self.cfg = cfg
        layers = unflatten(cfg, params)
        sw, sb = cfg.weight_scale, cfg.bias_scale
        d, m = cfg.input_dim, cfg.width

        self.layers = layers
        self.acts = [x]
        self.masks = []
        a = x
        for i, (w, b) in enumerate(layers[:-1]):
            h = a @ w.T
            h *= sw / np.sqrt(d if i == 0 else m)
            h += sb * b
            self.masks.append(h > 0)
            a = np.maximum(h, 0.0, out=h)
            self.acts.append(a)
        w_out, b_out = layers[-1]
        out = a @ w_out.T
        out *= sw / np.sqrt(m)
        out += sb * b_out
        self.logits = out[:, 0]
        self._deltas = None

    @property
    def deltas(self) -> list[np.ndarray]:
        """Reverse sweep, run on first access: deltas[l] = d f / d h^(l+1)."""
        if self._deltas is not None:
            return self._deltas
        layers = self.layers
        sw, m = self.cfg.weight_scale, self.cfg.width
        n = self.acts[0].shape[0]
        deltas = [None] * len(self.masks)
        v = np.broadcast_to(layers[-1][0] * (sw / np.sqrt(m)), (n, m))
        for l in range(len(self.masks) - 1, -1, -1):
            deltas[l] = _relu_grad(v, self.masks[l])
            if l > 0:
                v = deltas[l] @ layers[l][0]
                v *= sw / np.sqrt(m)
        self._deltas = deltas
        return deltas

    def weighted_gradient(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] * phi(x_i), assembled layer by layer."""
        cfg = self.cfg
        sw, sb = cfg.weight_scale, cfg.bias_scale
        d, m = cfg.input_dim, cfg.width
        c = np.asarray(coeffs, dtype=float)
        pieces = []
        for l in range(len(self.deltas)):
            scale = sw / np.sqrt(d if l == 0 else m)
            wd = (self.deltas[l] * c[:, None]).T
            pieces.append((wd @ self.acts[l]).ravel() * scale)
            pieces.append(sb * wd.sum(axis=1))
        pieces.append((c @ self.acts[-1]) * (sw / np.sqrt(m)))
        pieces.append(np.array([sb * c.sum()]))
        return np.concatenate(pieces)

    def reverse_tangent(self, delta: np.ndarray) -> np.ndarray:
        """delta . phi(x_i) for every sample, from the reverse sweep's deltas.

        Layer l contributes rowsum(deltas[l] * (scale_l a_l dW_l^T + sb db_l)),
        one matmul; equal to ``tangent`` up to rounding.
        """
        cfg = self.cfg
        sw, sb = cfg.weight_scale, cfg.bias_scale
        d, m = cfg.input_dim, cfg.width
        dlayers = unflatten(cfg, delta)
        dw_out, db_out = dlayers[-1]
        out = self.acts[-1] @ dw_out[0] * (sw / np.sqrt(m)) + sb * db_out[0]
        for l, (dw, db) in enumerate(dlayers[:-1]):
            scale = sw / np.sqrt(d if l == 0 else m)
            dl = self.deltas[l]
            out += np.einsum("ij,ij->i", dl, self.acts[l] @ dw.T) * scale + sb * (dl @ db)
        return out

    def tangent(self, delta: np.ndarray) -> np.ndarray:
        """delta . phi(x_i) for every sample, via a forward tangent pass."""
        cfg = self.cfg
        sw, sb = cfg.weight_scale, cfg.bias_scale
        d, m = cfg.input_dim, cfg.width
        dlayers = unflatten(cfg, delta)
        t = None
        for l, (dw, db) in enumerate(dlayers[:-1]):
            scale = sw / np.sqrt(d if l == 0 else m)
            th = self.acts[l] @ dw.T
            th *= scale
            th += sb * db
            if t is not None:
                tw = t @ self.layers[l][0].T
                tw *= scale
                th += tw
            t = _relu_grad(th, self.masks[l])
        dw_out, db_out = dlayers[-1]
        out = self.acts[-1] @ dw_out.T
        out *= sw / np.sqrt(m)
        out += sb * db_out
        tw = t @ self.layers[-1][0].T
        tw *= sw / np.sqrt(m)
        out += tw
        return out[:, 0]


def _row_blocks(cfg: NetConfig, params: np.ndarray, batch: np.ndarray, fn) -> np.ndarray:
    """``fn(sweep)`` of every row block of ``batch``, joined along the last
    axis; ``fn`` returns one entry per row in that axis.

    Blocks start every ``_BLOCK_ROWS`` rows and the last also takes the
    remainder, so a long batch never ends in a short block (see the module
    docstring); a batch of at most ``2 * _BLOCK_ROWS - 1`` rows is one sweep.
    """
    params = np.asarray(params, dtype=float)
    n = batch.shape[0]
    starts = list(range(0, max(n - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS))
    ends = starts[1:] + [n]
    parts = [fn(_Cache(cfg, params, batch[a:b])) for a, b in zip(starts, ends)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _linear_logits(cfg: NetConfig, params0: np.ndarray, deltas, batch: np.ndarray) -> np.ndarray:
    """First-order logits f(x; w0) + deltas[j] . phi(x) as a (k, n) array,
    every weight change of ``deltas`` evaluated on each row block's sweep."""
    deltas = [np.asarray(delta, dtype=float) for delta in deltas]
    return _row_blocks(cfg, params0, batch,
                       lambda sweep: np.stack([sweep.logits + sweep.tangent(delta)
                                               for delta in deltas]))


def forward(cfg: NetConfig, params: np.ndarray, x: np.ndarray):
    """Network logit(s); accepts a single input (d,) or a batch (n, d)."""
    batch, single = _as_batch(cfg, x)
    logits = _row_blocks(cfg, params, batch, lambda sweep: sweep.logits)
    return float(logits[0]) if single else logits


def feature(cfg: NetConfig, params0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the logit with respect to every parameter, flat (p,)."""
    batch, _ = _as_batch(cfg, x)
    if batch.shape[0] != 1:
        raise ValueError("feature takes a single input; use features for batches")
    cache = _Cache(cfg, np.asarray(params0, dtype=float), batch)
    return cache.weighted_gradient(np.ones(1))


def features(cfg: NetConfig, params0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked feature rows (n, p).  Memory scales as n * p; small runs only."""
    batch, _ = _as_batch(cfg, x)
    cache = _Cache(cfg, np.asarray(params0, dtype=float), batch)
    n = batch.shape[0]
    out = np.empty((n, param_count(cfg)))
    eye = np.eye(n)
    for i in range(n):
        out[i] = cache.weighted_gradient(eye[i])
    return out


def weighted_feature_sum(
    cfg: NetConfig, params: np.ndarray, x: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """sum_i coeffs[i] * phi(x_i) without materializing features."""
    batch, _ = _as_batch(cfg, x)
    cache = _Cache(cfg, np.asarray(params, dtype=float), batch)
    return cache.weighted_gradient(coeffs)


def feature_dot(cfg: NetConfig, params0: np.ndarray, delta: np.ndarray, x: np.ndarray):
    """delta . phi(x) for one input or a batch, via the tangent pass."""
    batch, single = _as_batch(cfg, x)
    delta = np.asarray(delta, dtype=float)
    out = _row_blocks(cfg, params0, batch, lambda sweep: sweep.tangent(delta))
    return float(out[0]) if single else out


def linear_logit(cfg: NetConfig, params0: np.ndarray, delta: np.ndarray, x: np.ndarray):
    """First-order model f(x; w0) + delta . phi(x)."""
    batch, single = _as_batch(cfg, x)
    out = _linear_logits(cfg, params0, [delta], batch)[0]
    return float(out[0]) if single else out


@dataclass(frozen=True)
class TrainConfig:
    """Adam training schedule.  One epoch is one step on one batch; in
    online mode the batch is freshly sampled every step.

    ``final_learning_rate`` turns on an exponential decay from
    ``learning_rate`` down to that value across the epoch budget; online
    runs need it so the stochastic-update random walk freezes instead of
    inflating the weight-change norm without bound.
    """

    learning_rate: float
    batch_size: int
    epochs: int
    online_batch: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    final_learning_rate: float | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.final_learning_rate is not None and not (
            0 < self.final_learning_rate <= self.learning_rate
        ):
            raise ValueError("final_learning_rate must be in (0, learning_rate]")

    def rate_at(self, epoch: int) -> float:
        if self.final_learning_rate is None or self.epochs <= 1:
            return self.learning_rate
        frac = (epoch - 1) / (self.epochs - 1)
        return self.learning_rate * (self.final_learning_rate / self.learning_rate) ** frac


class _Adam:
    def __init__(self, dim: int, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        c = self.cfg
        self.t += 1
        self.m = c.beta1 * self.m + (1 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1 - c.beta2) * grad**2
        m_hat = self.m / (1 - c.beta1**self.t)
        v_hat = self.v / (1 - c.beta2**self.t)
        return params - c.rate_at(self.t) * m_hat / (np.sqrt(v_hat) + c.adam_eps)


@dataclass(frozen=True)
class Checkpoint:
    """A parameter snapshot with enough context to reproduce it."""

    config: NetConfig
    seed: int
    epoch: int
    params: np.ndarray


def default_checkpoint_epochs(total: int) -> list[int]:
    """Powers of two up to the budget, plus the final epoch."""
    epochs = []
    e = 1
    while e <= total:
        epochs.append(e)
        e *= 2
    if total > 0 and total not in epochs:
        epochs.append(total)
    return epochs


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write a versioned .npz container (see load_checkpoint for the layout)."""
    cfg = ckpt.config
    np.savez(
        path,
        format_version=CHECKPOINT_FORMAT_VERSION,
        input_dim=cfg.input_dim,
        hidden_layers=cfg.hidden_layers,
        width=cfg.width,
        weight_scale=cfg.weight_scale,
        bias_scale=cfg.bias_scale,
        seed=ckpt.seed,
        epoch=ckpt.epoch,
        params=ckpt.params,
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.

    Layout (npz arrays): format_version, input_dim, hidden_layers, width,
    weight_scale, bias_scale, seed, epoch, params (flat float64 vector in
    the layer-major order documented at module top).
    """
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        cfg = NetConfig(
            input_dim=int(data["input_dim"]),
            hidden_layers=int(data["hidden_layers"]),
            width=int(data["width"]),
            weight_scale=float(data["weight_scale"]),
            bias_scale=float(data["bias_scale"]),
        )
        return Checkpoint(
            config=cfg,
            seed=int(data["seed"]),
            epoch=int(data["epoch"]),
            params=np.array(data["params"]),
        )


def train_teacher(
    cfg: NetConfig,
    task,
    train_cfg: TrainConfig,
    seed: int,
    checkpoint_epochs: list[int] | None = None,
) -> list[Checkpoint]:
    """Adam on binary cross-entropy against the task's hard labels.

    Returns checkpoints at the requested epochs (defaults to powers of two
    plus the final epoch).  Epoch 0 is the initialization and is always
    included.  With ``online_batch`` a fresh batch is drawn every epoch.
    """
    ss = np.random.SeedSequence(seed)
    init_rng, data_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    params = init_params(cfg, init_rng)

    if checkpoint_epochs is None:
        checkpoint_epochs = default_checkpoint_epochs(train_cfg.epochs)
    wanted = {e for e in checkpoint_epochs if 0 < e <= train_cfg.epochs}

    checkpoints = [Checkpoint(cfg, seed, 0, params.copy())]
    if train_cfg.epochs == 0:
        return checkpoints

    adam = _Adam(params.size, train_cfg)
    x = task.sample_inputs(train_cfg.batch_size, data_rng)
    y = task.hard_labels(x, data_rng)
    for epoch in range(1, train_cfg.epochs + 1):
        if train_cfg.online_batch and epoch > 1:
            x = task.sample_inputs(train_cfg.batch_size, data_rng)
            y = task.hard_labels(x, data_rng)
        # an overflowing sweep is reported once, by the DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            cache = _Cache(cfg, params, x)
            if not np.all(np.isfinite(cache.logits)):
                raise DivergenceError(f"teacher logits non-finite at epoch {epoch}")
        coeffs = (expit(cache.logits) - y) / len(y)
        params = adam.step(params, cache.weighted_gradient(coeffs))
        if epoch in wanted:
            checkpoints.append(Checkpoint(cfg, seed, epoch, params.copy()))
    return checkpoints


class SquaredTargets:
    """L2 objective 0.5 * mean((z - target)^2); targets fixed or callable."""

    def __init__(self, targets):
        self.targets = targets

    def grad(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        t = self.targets(x) if callable(self.targets) else np.asarray(self.targets)
        return z - t


class DistillTargets:
    """Distillation objective; teacher logits and hard labels fixed or callable."""

    def __init__(self, params: DistillParams, teacher_logits, hard_labels):
        self.params = params
        self.teacher_logits = teacher_logits
        self.hard_labels = hard_labels

    def grad(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        z_t = (
            self.teacher_logits(x)
            if callable(self.teacher_logits)
            else np.asarray(self.teacher_logits)
        )
        y = (
            self.hard_labels(x)
            if callable(self.hard_labels)
            else np.asarray(self.hard_labels)
        )
        return loss_gradient(z, z_t, y, self.params)


@dataclass
class TrainResult:
    delta: np.ndarray
    grad_norm: float
    converged: bool = True


def train_linearized(
    cfg: NetConfig,
    params0: np.ndarray,
    objective,
    train_cfg: TrainConfig,
    data: np.ndarray | None = None,
    sampler=None,
    rng: np.random.Generator | None = None,
    grad_tol: float | None = None,
) -> TrainResult | list[TrainResult]:
    """Gradient training of the model z(x) = f(x; w0) + delta . phi(x).

    Features are frozen at ``params0``.  Fixed-data mode (``data`` given)
    reuses one cached forward/backward sweep for every step; online mode
    (``sampler`` given) draws a fresh batch of ``batch_size`` inputs per
    step, emulating training on unlimited samples.  Non-convergence is
    reported through ``converged`` when ``grad_tol`` is set, never raised.

    ``objective`` is one objective, giving one :class:`TrainResult`, or a
    list or tuple of objectives, giving a list of results in the same order.
    The objectives of a list train in lockstep: each step draws one batch
    and runs one forward/reverse sweep that all of them share, while each
    keeps its own weight change and Adam state.  Every result is therefore
    bitwise the one a separate run on an identically seeded ``rng`` gives,
    and a single objective is the one-element case of the same loop.  Each
    objective's logits come from the sweep's deltas
    (``_Cache.reverse_tangent``), which its gradient needs anyway.
    """
    if (data is None) == (sampler is None):
        raise ValueError("provide exactly one of data or sampler")
    objectives = list(objective) if isinstance(objective, (list, tuple)) else [objective]
    params0 = np.asarray(params0, dtype=float)
    deltas = [np.zeros(param_count(cfg)) for _ in objectives]
    adams = [_Adam(delta.size, train_cfg) for delta in deltas]
    grad_norms = [0.0] * len(objectives)

    cache = None
    if data is not None:
        batch, _ = _as_batch(cfg, data)
        cache = _Cache(cfg, params0, batch)
    elif rng is None:
        raise ValueError("online mode needs an rng")

    for _ in range(train_cfg.epochs):
        if cache is None:
            batch = sampler(train_cfg.batch_size, rng)
            step_cache = _Cache(cfg, params0, batch)
        else:
            step_cache = cache
        for j, obj in enumerate(objectives):
            z = step_cache.logits + step_cache.reverse_tangent(deltas[j])
            if not np.all(np.isfinite(z)):
                raise DivergenceError("linearized logits became non-finite")
            coeffs = obj.grad(z, step_cache.acts[0]) / len(z)
            grad = step_cache.weighted_gradient(coeffs)
            grad_norms[j] = float(np.linalg.norm(grad))
            deltas[j] = adams[j].step(deltas[j], grad)

    results = [
        TrainResult(delta=delta, grad_norm=norm,
                    converged=True if grad_tol is None else norm <= grad_tol)
        for delta, norm in zip(deltas, grad_norms)
    ]
    return results if isinstance(objective, (list, tuple)) else results[0]
