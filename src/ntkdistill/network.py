"""Fully-connected ReLU networks in NTK parameterization.

The forward pass applies, for input x in R^d and L hidden layers of width m,

    h^1     = W^0 x / sqrt(d) + b^0,            a^1 = relu(h^1)
    h^(l+1) = W^l a^l / sqrt(m) + b^l,          a^(l+1) = relu(h^(l+1))
    f(x)    = W^L a^L / sqrt(m) + b^L,

with every entry of every W and b drawn i.i.d. standard normal, and the
1 / sqrt(fan_in) factors kept outside the weights so the infinite-width
kernel limit exists.  This is the NTK parameterization with its weight and
bias scales fixed at 1.  Parameters travel as one flat vector in a fixed
layer-major order (W^0, b^0, W^1, b^1, ..., W^L, b^L, each in C order).

One class holds the per-layer algebra.  :class:`Sweep` ``(cfg, params, x)``
is the linearization of the network at ``params`` on the rows of ``x``, the
model z(x) = f(x; params) + delta . phi(x), with phi(x) in R^p the gradient
of the logit with respect to every parameter:

* ``logits`` is f on every row;
* ``jvp(delta)`` is delta . phi(x_i) for every row;
* ``vjp(coeffs)`` is sum_i coeffs[i] phi(x_i), one length-p vector;
* ``gram()`` and ``diag()`` are the tangent Gram phi(x_i) . phi(x_j) and its
  diagonal.

None of them forms an (n, p) feature matrix, which makes kernel solves,
linearized-model training and linearized evaluation affordable at widths
where explicit features would not fit in memory.  Students are built from
it: a closed-form student from one sweep's logits, Gram and ``vjp``
(``experiments.student_closed_form``), a Monte Carlo student from one
``row_blocks`` pass of ``sweep.logits + sweep.jvp(delta)``.  ``forward``,
``feature_dot`` and ``weighted_feature_sum`` here and the kernel module's
empirical Gram and diagonal are thin compositions over it.  Each takes an
(n, input_dim) batch and nothing else; one input is a one-row batch.

A sweep runs its forward sweep at construction.  Its reverse sweep
(``deltas``) is computed on first use, so callers that read only logits
never pay for it.  The per-layer offsets of the flat parameter vector and
the per-layer scales are computed once per :class:`NetConfig`, and a sweep
holds views of ``params``, never a copy.

Each elementwise pass of a sweep runs in place on the array its matmul
returns.  The forward sweep scales and shifts h = a W^T in place, keeps the
mask h > 0 and applies the ReLU as ``np.maximum(h, 0.0, out=h)``.  The
reverse sweep's deltas multiply by the mask and add +0.0, which turns the
-0.0 of a negative value times False into +0.0.  Each step performs the
IEEE operations of the one-expression, masked-select form
(``np.where(mask, h, 0.0)``) in the same order, so every value keeps every
bit, the sign of every zero included; the tests keep that form as their
reference.  Only non-finite values differ: a NaN pre-activation propagates
to the logits, where a masked select zeroed it, so the non-finite guards
downstream (teacher and oracle divergence, effective-logit inputs) see it.

``jvp`` reads delta . phi(x_i) off the reverse sweep's deltas as
sum_l rowsum(deltas[l] * (scale_l a_l dW_l^T + db_l)) plus the output
layer's terms: one matmul per layer and weight change, against two per
hidden layer for a forward tangent pass.  The oracle steps of
``train_linearized`` need the deltas for their gradients anyway, and every
weight change evaluated on one sweep shares them.  ``gram`` and ``diag``
factor each layer's feature inner products as
(delta . delta)(a . a) / fan_in + (delta . delta), the per-layer
Gram of Fast Finite-Width NTK; they share one loop and differ only in the
inner product, a matrix product for the Gram and a row-wise one for the
diagonal.

Batch evaluations that need no cross-row sum (``forward``, ``feature_dot``,
the kernel diagonal and the Monte Carlo student of the risk study) sweep
their inputs in blocks of ``_BLOCK_ROWS`` rows through ``row_blocks``, so
the memory of a 10,000-sample Monte Carlo pass is set by the block size,
not by the sample count.  Blocks start every ``_BLOCK_ROWS`` rows and the
last one also takes the remainder, so every block of a long batch keeps at
least ``_BLOCK_ROWS`` rows.  A BLAS routes a one-row or few-row product
through other kernels that sum in another order, while every long block has
the same inner dimension and sums each row exactly as the unblocked sweep
does; the tests check that blocked results are bitwise the unblocked ones.
Sweeps whose results sum over rows (gradients, Gram matrices, training
steps) stay whole.

The block is 128 rows because a block's temporaries are then reused from
the heap instead of faulting in fresh pages.  At the risk study's width of
128, a block of B rows allocates about eight (B, 128) temporaries of
B kB each.  glibc serves an allocation above its mmap threshold (128 kB in
a fresh process) with a fresh mapping, and hands heap memory above its trim
threshold back to the kernel on free, so with low thresholds every block
faults its temporaries in again.  Freeing a mapped chunk raises both
thresholds, to that chunk's size and twice it (mallopt(3)), so this module
frees one untouched 16 MB array at import: blocks of up to 16 MB then come
from the heap and stay there.  Without the warm-up a 10,000-row,
two-weight-change student sweep in a fresh interpreter took about 10k minor
faults at width 128, 22k at 256 and 47k at 512, and with it none (glibc
2.36, after one warm-up sweep).
Larger blocks faulted more before the warm-up (about 12.5k with 1,024-row
blocks at width 128) and were no faster per sweep.

``train_linearized`` trains a list of objectives in lockstep on one sweep
per step, each objective with its own weight change and Adam state.  It
draws the batches of ``ceil(_TARGET_CHUNK_ROWS / batch_size)`` steps at a
time (its own constant of 1,024 rows, not the block size) and calls its
one target function once on the chunk's rows; that call returns every
objective's targets (effective logits, or teacher logits and hard labels),
so a teacher shared by the objectives is evaluated once per chunk, and each
step slices its own rows.  That relies on a contract every target function
keeps: its value for a row depends only on that row.  The results equal
those of evaluating each step's batch on its own as long as the target is
computed row by row with the same arithmetic, which elementwise code always
is.  A teacher network's forward sweep is too, except where the BLAS
routes a small product through another kernel (see above): OpenBLAS does so
for products of up to about 1,200 output entries, which at width 64 means
oracle batches of about 18 rows or fewer, whose targets may then move at
rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distillation import DistillParams, expit, loss_gradient

# rows per sweep of a blocked batch evaluation (see row_blocks, and the
# module docstring for why 128)
_BLOCK_ROWS = 128

# the allocator warm-up (see the module docstring): a 16 MB array, never
# written, so none of its pages is faulted in, freed at once
_WARM_UP = np.empty(2 * 1024 * 1024)
del _WARM_UP

# rows of batches drawn ahead per target evaluation of train_linearized; a
# constant of its own, so the block size does not change how often targets
# are evaluated
_TARGET_CHUNK_ROWS = 1024


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture of the ReLU stack."""

    input_dim: int
    hidden_layers: int
    width: int

    def __post_init__(self):
        for name in ("input_dim", "hidden_layers", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")


@lru_cache(maxsize=None)
def _layout(cfg: NetConfig) -> tuple[tuple, int]:
    """Per affine layer, input to output, ``(w_shape, w_start, b_start,
    b_end)`` in the flat vector, and the vector's length; computed once per
    config."""
    d, m = cfg.input_dim, cfg.width
    shapes = [(m, d)] + [(m, m)] * (cfg.hidden_layers - 1) + [(1, m)]
    spans = []
    offset = 0
    for rows, cols in shapes:
        b_start = offset + rows * cols
        spans.append(((rows, cols), offset, b_start, b_start + rows))
        offset = b_start + rows
    return tuple(spans), offset


@lru_cache(maxsize=None)
def _scales(cfg: NetConfig) -> tuple[tuple, tuple]:
    """Per affine layer, input to output: the forward pass's weight scale
    1 / sqrt(fan_in), and the Gram's 1 / fan_in; computed once per config."""
    fan_ins = (cfg.input_dim,) + (cfg.width,) * cfg.hidden_layers
    return tuple(1.0 / np.sqrt(f) for f in fan_ins), tuple(1.0 / f for f in fan_ins)


def param_count(cfg: NetConfig) -> int:
    return _layout(cfg)[1]


def unflatten(cfg: NetConfig, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views."""
    params = np.asarray(params)
    spans, count = _layout(cfg)
    if params.shape != (count,):
        raise ValueError(f"expected flat vector of length {count}, got {params.shape}")
    return [(params[w0:b0].reshape(w_shape), params[b0:b1]) for w_shape, w0, b0, b1 in spans]


def init_params(cfg: NetConfig, seed, out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal parameter vector; deterministic given the seed.

    With ``out``, a float64 vector of length ``param_count(cfg)``, the values
    are drawn into it and it is returned: the same stream as a fresh draw,
    without allocating (and faulting in) a new vector.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if out is None:
        return rng.standard_normal(param_count(cfg))
    if out.shape != (param_count(cfg),):
        raise ValueError(f"out must have shape ({param_count(cfg)},), got {out.shape}")
    return rng.standard_normal(out=out)


def as_batch(cfg: NetConfig, x: np.ndarray) -> np.ndarray:
    """``x`` as an (n, input_dim) float batch; anything else is rejected."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"inputs must be (n, {cfg.input_dim}), got {x.shape}")
    return x


def _relu_grad(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``v * mask + 0.0`` as a new array: ``np.where(mask, v, 0.0)`` bit for
    bit, except that a -0.0 under a True mask gives +0.0 and a non-finite
    entry under a False mask gives NaN.  The ``+ 0.0`` turns the -0.0 of a
    negative entry times False into +0.0."""
    out = v * mask
    out += 0.0
    return out


class Sweep:
    """The linearization of the network at ``params`` on the rows of the
    (n, input_dim) batch ``x`` (see the module docstring).

    ``acts[0]`` is the input batch; ``acts[l]`` for l >= 1 are post-ReLU
    activations, positive exactly where the pre-activation is; ``deltas[l]``
    is the per-sample gradient of the logit with respect to pre-activation
    h^(l+1).

    Construction runs the forward sweep only.  ``deltas`` comes from the
    reverse sweep, which runs on first access and is then kept, so callers
    that read only ``logits`` never pay for it, and ``jvp``, ``vjp``,
    ``gram`` and ``diag`` pay for it once per sweep.
    """

    def __init__(self, cfg: NetConfig, params: np.ndarray, x: np.ndarray):
        self.cfg = cfg
        # views of params: a copy at width 4096 would be another 269 MB
        layers = unflatten(cfg, np.asarray(params, dtype=float))
        scales = _scales(cfg)[0]

        self.layers = layers
        self.acts = [x]
        a = x
        for (w, b), scale in zip(layers[:-1], scales):
            h = a @ w.T
            h *= scale
            h += b
            a = np.maximum(h, 0.0, out=h)
            self.acts.append(a)
        w_out, b_out = layers[-1]
        out = a @ w_out.T
        out *= scales[-1]
        out += b_out
        self.logits = out[:, 0]
        self._deltas = None

    @property
    def deltas(self) -> list[np.ndarray]:
        """Reverse sweep, run on first access: deltas[l] = d f / d h^(l+1)."""
        if self._deltas is not None:
            return self._deltas
        layers, scales = self.layers, _scales(self.cfg)[0]
        n = self.acts[0].shape[0]
        deltas = [None] * self.cfg.hidden_layers
        v = np.broadcast_to(layers[-1][0] * scales[-1], (n, self.cfg.width))
        for l in range(self.cfg.hidden_layers - 1, -1, -1):
            deltas[l] = _relu_grad(v, self.acts[l + 1] > 0)
            if l > 0:
                v = deltas[l] @ layers[l][0]
                v *= scales[l]
        self._deltas = deltas
        return deltas

    def jvp(self, delta: np.ndarray) -> np.ndarray:
        """delta . phi(x_i) for every row, from the reverse sweep's deltas.

        Layer l contributes rowsum(deltas[l] * (scale_l a_l dW_l^T + db_l)),
        one matmul.
        """
        scales = _scales(self.cfg)[0]
        dlayers = unflatten(self.cfg, np.asarray(delta, dtype=float))
        dw_out, db_out = dlayers[-1]
        out = self.acts[-1] @ dw_out[0] * scales[-1] + db_out[0]
        for l, (dw, db) in enumerate(dlayers[:-1]):
            dl = self.deltas[l]
            out += np.einsum("ij,ij->i", dl, self.acts[l] @ dw.T) * scales[l] + dl @ db
        return out

    def vjp(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] * phi(x_i), each layer's piece written into its
        span of one length-p vector."""
        spans, count = _layout(self.cfg)
        scales = _scales(self.cfg)[0]
        c = np.asarray(coeffs, dtype=float)
        out = np.empty(count)
        for (w_shape, w0, b0, b1), dl, a, scale in zip(spans, self.deltas, self.acts, scales):
            wd = (dl * c[:, None]).T
            np.multiply(wd @ a, scale, out=out[w0:b0].reshape(w_shape))
            np.sum(wd, axis=1, out=out[b0:b1])
        _, w0, b0, _ = spans[-1]
        np.multiply(c @ self.acts[-1], scales[-1], out=out[w0:b0])
        out[b0] = c.sum()
        return out

    def gram(self) -> np.ndarray:
        """The tangent Gram phi(x_i) . phi(x_j) of the rows, (n, n)."""
        return self._layer_sum(lambda u: u @ u.T)

    def diag(self) -> np.ndarray:
        """The Gram's diagonal |phi(x_i)|^2, one entry per row."""
        return self._layer_sum(lambda u: np.einsum("ij,ij->i", u, u))

    def _layer_sum(self, inner) -> np.ndarray:
        """Sum over affine layers of the feature inner products, each
        (delta . delta)(a . a) / fan_in + (delta . delta) with ``inner`` the
        inner product of the rows of an (n, m) matrix; the output layer's
        delta is 1."""
        gram_scales = _scales(self.cfg)[1]
        out = 0.0
        for l, dl in enumerate(self.deltas):
            dd = inner(dl)
            out += gram_scales[l] * dd * inner(self.acts[l]) + dd
        out += gram_scales[-1] * inner(self.acts[-1]) + 1.0
        return out


def row_blocks(cfg: NetConfig, params: np.ndarray, batch: np.ndarray, fn) -> np.ndarray:
    """``fn(sweep)`` of the :class:`Sweep` of every row block of ``batch``,
    joined along the last axis; ``fn`` returns one entry per row in that
    axis.

    Blocks start every ``_BLOCK_ROWS`` rows and the last also takes the
    remainder, so a long batch never ends in a short block (see the module
    docstring); a batch of at most ``2 * _BLOCK_ROWS - 1`` rows is one sweep.
    """
    n = batch.shape[0]
    starts = list(range(0, max(n - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS))
    ends = starts[1:] + [n]
    parts = [fn(Sweep(cfg, params, batch[a:b])) for a, b in zip(starts, ends)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def forward(cfg: NetConfig, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Network logits of an (n, input_dim) batch, one per row."""
    return row_blocks(cfg, params, as_batch(cfg, x), lambda sweep: sweep.logits)


def weighted_feature_sum(
    cfg: NetConfig, params: np.ndarray, x: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """sum_i coeffs[i] * phi(x_i) without materializing features."""
    return Sweep(cfg, params, as_batch(cfg, x)).vjp(coeffs)


def feature_dot(
    cfg: NetConfig, params0: np.ndarray, delta: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """delta . phi(x_i) for every row of an (n, input_dim) batch, from the
    reverse sweep."""
    return row_blocks(cfg, params0, as_batch(cfg, x), lambda sweep: sweep.jvp(delta))


@dataclass(frozen=True)
class TrainConfig:
    """Adam training schedule.  One epoch is one step on one batch, freshly
    drawn every step.

    ``final_learning_rate`` turns on an exponential decay from
    ``learning_rate`` down to that value across the epoch budget; online
    runs need it so the stochastic-update random walk freezes instead of
    inflating the weight-change norm without bound.  The defaults are the
    oracle schedule of an experiment config that sets none.
    """

    learning_rate: float = 0.003
    batch_size: int = 128
    epochs: int = 3000
    final_learning_rate: float | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate: must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size: must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs: must be >= 0")
        if self.final_learning_rate is not None and not (
            0 < self.final_learning_rate <= self.learning_rate
        ):
            raise ValueError("final_learning_rate: must be in (0, learning_rate]")

    def rate_at(self, epoch: int) -> float:
        if self.final_learning_rate is None or self.epochs <= 1:
            return self.learning_rate
        frac = (epoch - 1) / (self.epochs - 1)
        return self.learning_rate * (self.final_learning_rate / self.learning_rate) ** frac


class _Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, dim: int, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0
        self._work = (np.empty(dim), np.empty(dim))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One Adam update of ``params`` in place, through two work vectors:
        the IEEE operations of the one-expression form, in its order."""
        c, b1, b2 = self.cfg, self.beta1, self.beta2
        w, u = self._work
        self.t += 1
        np.multiply(grad, 1 - b1, out=w)
        self.m *= b1
        self.m += w
        np.multiply(grad, grad, out=w)
        w *= 1 - b2
        self.v *= b2
        self.v += w
        np.divide(self.m, 1 - b1**self.t, out=w)
        np.divide(self.v, 1 - b2**self.t, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        w *= c.rate_at(self.t)
        w /= u
        params -= w


def train_teacher(
    cfg: NetConfig,
    task,
    train_cfg: TrainConfig,
    seed: int,
    checkpoint_epochs: list[int],
) -> dict[int, np.ndarray]:
    """Adam on binary cross-entropy against the task's hard labels.

    Returns ``{epoch: params}``, a copy of the parameter vector at each epoch
    of ``checkpoint_epochs`` within the budget, in epoch order; epoch 0 is the
    initialization, and an epoch that is not asked for is not kept.  A fresh
    batch is drawn every epoch.
    """
    ss = np.random.SeedSequence(seed)
    init_rng, data_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    params = init_params(cfg, init_rng)

    wanted = set(checkpoint_epochs)
    kept = {0: params.copy()} if 0 in wanted else {}
    adam = _Adam(params.size, train_cfg)
    for epoch in range(1, train_cfg.epochs + 1):
        x = task.sample_inputs(train_cfg.batch_size, data_rng)
        y = task.hard_labels(x, data_rng)
        # an overflowing sweep is reported once, by the DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            sweep = Sweep(cfg, params, x)
            if not np.all(np.isfinite(sweep.logits)):
                raise DivergenceError(f"teacher logits non-finite at epoch {epoch}")
        coeffs = (expit(sweep.logits) - y) / len(y)
        adam.step(params, sweep.vjp(coeffs))
        if epoch in wanted:
            kept[epoch] = params.copy()
    return kept


class SquaredTargets:
    """L2 objective 0.5 * mean((z - t)^2); a step's targets ``t`` are one
    value per row."""

    def grad(self, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        return z - t


class DistillTargets:
    """Distillation objective at ``params``; a step's targets are the teacher
    logits and hard labels stacked, (2, rows)."""

    def __init__(self, params: DistillParams):
        self.params = params

    def grad(self, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        z_t, y = t
        return loss_gradient(z, z_t, y, self.params)


@dataclass
class TrainResult:
    delta: np.ndarray
    grad_norm: float


def _steps(cfg: NetConfig, params0: np.ndarray, train_cfg: TrainConfig, sampler, rng,
           targets):
    """``(sweep, step_targets)`` for each step of ``train_linearized``: the
    step's sweep and its rows of every objective's targets, with ``targets``
    called once per chunk of steps."""
    per_chunk = -(-_TARGET_CHUNK_ROWS // train_cfg.batch_size)
    for first in range(0, train_cfg.epochs, per_chunk):
        batches = [sampler(train_cfg.batch_size, rng)
                   for _ in range(min(per_chunk, train_cfg.epochs - first))]
        values = targets(np.concatenate(batches))
        end = 0
        for batch in batches:
            start, end = end, end + len(batch)
            yield Sweep(cfg, params0, batch), [v[..., start:end] for v in values]


def train_linearized(
    cfg: NetConfig,
    params0: np.ndarray,
    objectives: list,
    train_cfg: TrainConfig,
    sampler,
    rng: np.random.Generator,
    targets,
) -> list[TrainResult]:
    """Gradient training of the model z(x) = f(x; w0) + delta . phi(x).

    Features are frozen at ``params0``.  Each step trains on a fresh batch
    ``sampler(batch_size, rng)``, emulating training on unlimited samples; a
    sampler that returns one fixed batch trains on fixed data.  Each
    result's ``grad_norm`` is the norm of its last step's gradient;
    non-convergence is never raised.

    ``targets(x)`` returns one array per objective, in order, with the rows
    of ``x`` on its last axis: a ``SquaredTargets`` array is (rows,), a
    ``DistillTargets`` one the teacher logits and hard labels stacked,
    (2, rows).  ``sampler`` is called exactly once per step, in step order,
    but the batches of ``ceil(_TARGET_CHUNK_ROWS / batch_size)`` steps are
    drawn ahead (``_TARGET_CHUNK_ROWS`` is 1,024 rows, so 8 steps at batch
    128, whatever the row-block size) and ``targets`` is called once on
    their concatenated rows, however many objectives there are; each step
    then takes its own rows by slicing.  On a fixed-batch sampler the chunk
    holds copies of the batch, so a target function of that batch repeats
    its values along the last axis.
    ``targets`` must therefore give each row a value that depends on that
    row alone; it then trains exactly as it would on per-step evaluations,
    up to the small-batch BLAS rounding noted in the module docstring.  A
    ``targets`` that raises (a non-finite teacher logit raises
    FloatingPointError in the effective-logit solve) does so when its chunk
    is evaluated, before the chunk's first step.

    ``objectives`` is a list of objectives, each with its loss gradient
    ``grad(z, step_targets)``, and the result a list of one
    :class:`TrainResult` each, in the same order.  The objectives train in
    lockstep: each step draws one batch and runs one forward/reverse sweep
    that all of them share, while each keeps its own weight change and Adam
    state.  Every result is therefore bitwise the one a one-element list on
    an identically seeded ``rng`` gives.  Each objective's logits come from
    the sweep's deltas (``Sweep.jvp``), which its gradient needs anyway.
    """
    params0 = np.asarray(params0, dtype=float)
    deltas = [np.zeros(param_count(cfg)) for _ in objectives]
    adams = [_Adam(delta.size, train_cfg) for delta in deltas]
    grads = [np.zeros(1)] * len(objectives)

    for sweep, step_targets in _steps(cfg, params0, train_cfg, sampler, rng, targets):
        for j, obj in enumerate(objectives):
            z = sweep.logits + sweep.jvp(deltas[j])
            if not np.all(np.isfinite(z)):
                raise DivergenceError("linearized logits became non-finite")
            coeffs = obj.grad(z, step_targets[j]) / len(z)
            grads[j] = sweep.vjp(coeffs)
            adams[j].step(deltas[j], grads[j])

    # only the last step's gradient is reported, so its norm is taken once
    return [TrainResult(delta, float(np.linalg.norm(grad))) for delta, grad in zip(deltas, grads)]
