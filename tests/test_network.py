import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ntkdistill
from ntkdistill.kernel import empirical_ntk_diag, empirical_ntk_gram
from ntkdistill.network import (
    DistillTargets,
    DivergenceError,
    NetConfig,
    SquaredTargets,
    Sweep,
    TrainConfig,
    feature_dot,
    forward,
    init_params,
    param_count,
    row_blocks,
    train_linearized,
    train_teacher,
    unflatten,
    weighted_feature_sum,
)
from ntkdistill.network import _BLOCK_ROWS, _TARGET_CHUNK_ROWS, _Adam
from ntkdistill.distillation import DistillParams, effective_logits


CFG = NetConfig(input_dim=2, hidden_layers=3, width=8)


def straight_line_forward(cfg, params, x):
    # independent re-implementation of the forward pass, scalar loops only
    layers = unflatten(cfg, params)
    a = list(x)
    fan = cfg.input_dim
    for li, (w, b) in enumerate(layers):
        h = []
        for i in range(w.shape[0]):
            acc = 0.0
            for j in range(w.shape[1]):
                acc += w[i, j] * a[j]
            h.append(acc / np.sqrt(fan) + b[i])
        if li < len(layers) - 1:
            a = [max(0.0, v) for v in h]
        else:
            a = h
        fan = cfg.width
    return a[0]


def features(cfg, params, x):
    """Explicit feature rows phi(x_i), (n, p): ``Sweep.vjp`` of every unit
    coefficient vector.  Memory scales as n * p; small checks only."""
    sweep = Sweep(cfg, params, np.atleast_2d(x))
    return np.stack([sweep.vjp(unit) for unit in np.eye(len(sweep.logits))])


def linear_logits(cfg, params0, deltas, x):
    """f(x; w0) + delta . phi(x) per row, one row per weight change in
    ``deltas``, swept in row blocks as the risk study's Monte Carlo student."""
    return row_blocks(cfg, params0, x, lambda sweep: np.stack(
        [sweep.logits + sweep.jvp(delta) for delta in deltas]))


def test_param_count_hand_check():
    assert param_count(CFG) == 177


def test_init_deterministic():
    assert np.array_equal(init_params(CFG, 5), init_params(CFG, 5))
    assert not np.array_equal(init_params(CFG, 5), init_params(CFG, 6))


def test_init_standard_normal_moments():
    big = NetConfig(2, 2, 1000)  # ~ 1e6 parameters
    p = init_params(big, 0)
    assert p.size > 10**6
    assert abs(p.mean()) < 0.01
    assert abs(p.std() - 1.0) < 0.01


def test_init_params_draws_into_a_given_buffer():
    # out= is the fresh draw bit for bit, returned as a view of the buffer
    # it was given, and moves a passed Generator as a fresh draw does
    p = param_count(CFG)
    buf = np.full(p + 5, np.nan)
    got = init_params(CFG, 3, out=buf[:p])
    assert np.shares_memory(got, buf)
    assert np.array_equal(got.view(np.int64), init_params(CFG, 3).view(np.int64))
    assert np.all(np.isnan(buf[p:]))
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    got = init_params(CFG, rng, out=buf[:p])
    assert np.array_equal(got.view(np.int64), init_params(CFG, ref).view(np.int64))
    assert rng.random() == ref.random()
    with pytest.raises(ValueError):
        init_params(CFG, 3, out=buf)


def test_layout_round_trips():
    # the per-layer views, each raveled in C order and joined layer by
    # layer, give back the flat vector
    p = init_params(CFG, 3)
    joined = np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                             for w, b in unflatten(CFG, p)])
    assert np.array_equal(joined, p)


def test_forward_zero_params():
    assert forward(CFG, np.zeros(param_count(CFG)), np.array([[1.0, -2.0]]))[0] == 0.0


def test_forward_zero_input_zero_biases():
    p = init_params(CFG, 0)
    layers = unflatten(CFG, p)
    for _, b in layers:
        b[:] = 0.0  # views into p
    assert forward(CFG, p, np.zeros((1, 2)))[0] == 0.0


def test_forward_matches_straight_line_evaluator():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = init_params(CFG, rng)
        x = rng.normal(size=2)
        assert forward(CFG, p, x[None, :])[0] == pytest.approx(
            straight_line_forward(CFG, p, x), abs=1e-12
        )


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    p = init_params(CFG, 1)
    xs = rng.normal(size=(6, 2))
    batch = forward(CFG, p, xs)
    assert batch.shape == (6,)
    for i in range(6):
        assert batch[i] == pytest.approx(forward(CFG, p, xs[i:i + 1])[0], abs=1e-14)


def test_feature_finite_differences():
    rng = np.random.default_rng(4)
    p = init_params(CFG, 11)
    x = rng.normal(size=2)
    phi = Sweep(CFG, p, x[None, :]).vjp(np.ones(1))
    eps = 1e-4
    idx = rng.choice(p.size, size=120, replace=False)
    for i in idx:
        up, down = p.copy(), p.copy()
        up[i] += eps
        down[i] -= eps
        fd = (forward(CFG, up, x[None, :])[0] - forward(CFG, down, x[None, :])[0]) / (2 * eps)
        assert phi[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_feature_output_bias_coordinate():
    # d logit / d b^L is 1
    cfg = NetConfig(2, 2, 4)
    p = init_params(cfg, 0)
    phi = Sweep(cfg, p, np.array([[0.3, -1.2]])).vjp(np.ones(1))
    assert phi[-1] == 1.0


def test_feature_norm_equals_kernel_diagonal():
    p = init_params(CFG, 8)
    x = np.array([[1.5, -0.5]])
    phi = features(CFG, p, x)[0]
    assert phi @ phi == pytest.approx(empirical_ntk_diag(CFG, p, x)[0], rel=1e-12)


def test_weighted_feature_sum_matches_features():
    rng = np.random.default_rng(1)
    p = init_params(CFG, 2)
    xs = rng.normal(size=(5, 2))
    c = rng.normal(size=5)
    f = features(CFG, p, xs)
    assert np.allclose(weighted_feature_sum(CFG, p, xs, c), f.T @ c, atol=1e-12)


def test_feature_dot_matches_features():
    rng = np.random.default_rng(6)
    p = init_params(CFG, 2)
    xs = rng.normal(size=(5, 2))
    delta = rng.normal(size=p.size)
    f = features(CFG, p, xs)
    assert np.allclose(feature_dot(CFG, p, delta, xs), f @ delta, atol=1e-12)


def test_linear_logit_trivial_cases():
    rng = np.random.default_rng(3)
    p = init_params(CFG, 7)
    x = rng.normal(size=(1, 2))
    z0 = forward(CFG, p, x)
    assert linear_logits(CFG, p, [np.zeros(p.size)], x)[0] == pytest.approx(z0)
    phi = features(CFG, p, x)[0]
    c = 2.5
    delta = c * phi / (phi @ phi)
    assert linear_logits(CFG, p, [delta], x)[0] == pytest.approx(z0 + c, rel=1e-12)


def test_linear_logit_is_bitwise_forward_plus_feature_dot():
    rng = np.random.default_rng(11)
    p = init_params(CFG, 4)
    xs = rng.normal(scale=3.0, size=(64, 2))
    delta = rng.normal(size=p.size)
    assert np.array_equal(
        linear_logits(CFG, p, [delta], xs)[0],
        forward(CFG, p, xs) + feature_dot(CFG, p, delta, xs),
    )


def test_cache_skips_reverse_sweep_for_logits():
    rng = np.random.default_rng(12)
    p = init_params(CFG, 5)
    sweep = Sweep(CFG, p, rng.normal(size=(16, 2)))
    sweep.logits
    assert sweep._deltas is None
    deltas = sweep.deltas
    assert sweep.deltas is deltas  # computed once, then kept


def test_weighted_gradient_independent_of_prior_tangent():
    rng = np.random.default_rng(13)
    p = init_params(CFG, 6)
    xs = rng.normal(size=(16, 2))
    c = rng.normal(size=16)
    fresh = Sweep(CFG, p, xs).vjp(c)
    used = Sweep(CFG, p, xs)
    used.jvp(rng.normal(size=p.size))
    assert np.array_equal(fresh, used.vjp(c))


def test_sweep_holds_views_of_the_parameters():
    # a copy of the parameter vector would double the memory of a wide sweep
    p = init_params(CFG, 2)
    sweep = Sweep(CFG, p, np.ones((3, 2)))
    assert all(np.shares_memory(w, p) and np.shares_memory(b, p) for w, b in sweep.layers)


class _WhereSweep(Sweep):
    """Reference: the sweep with every ReLU a masked select, ``np.where(mask,
    value, 0.0)``, and every affine step one expression, as before the
    passes went in place.  ``tangent`` is an independent forward tangent
    pass (two matmuls per hidden layer), the reference for the one tangent
    form the library keeps, ``jvp``; ``vjp`` concatenates the layers'
    pieces, as before they were written into one vector."""

    def __init__(self, cfg, params, x):
        self.cfg = cfg
        layers = unflatten(cfg, params)
        d, m = cfg.input_dim, cfg.width
        self.layers = layers
        self.acts = [x]
        self.masks = []
        a = x
        for i, (w, b) in enumerate(layers[:-1]):
            scale = 1.0 / np.sqrt(d if i == 0 else m)
            h = a @ w.T * scale + b
            self.masks.append(h > 0)
            a = np.where(self.masks[-1], h, 0.0)
            self.acts.append(a)
        w_out, b_out = layers[-1]
        self.logits = (a @ w_out.T * (1.0 / np.sqrt(m)) + b_out)[:, 0]
        self._deltas = None

    @property
    def deltas(self):
        if self._deltas is None:
            layers = self.layers
            m = self.cfg.width
            n = self.acts[0].shape[0]
            deltas = [None] * len(self.masks)
            v = np.broadcast_to(layers[-1][0] * (1.0 / np.sqrt(m)), (n, m))
            for l in range(len(self.masks) - 1, -1, -1):
                deltas[l] = np.where(self.masks[l], v, 0.0)
                if l > 0:
                    v = deltas[l] @ layers[l][0] * (1.0 / np.sqrt(m))
            self._deltas = deltas
        return self._deltas

    def vjp(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        d, m = self.cfg.input_dim, self.cfg.width
        pieces = []
        for l, dl in enumerate(self.deltas):
            wd = (dl * c[:, None]).T
            pieces.append((wd @ self.acts[l]).ravel() * (1.0 / np.sqrt(d if l == 0 else m)))
            pieces.append(wd.sum(axis=1))
        pieces.append((c @ self.acts[-1]) * (1.0 / np.sqrt(m)))
        pieces.append(np.array([c.sum()]))
        return np.concatenate(pieces)

    def tangent(self, delta):
        cfg = self.cfg
        d, m = cfg.input_dim, cfg.width
        dlayers = unflatten(cfg, delta)
        t = None
        for l, (dw, db) in enumerate(dlayers[:-1]):
            scale = 1.0 / np.sqrt(d if l == 0 else m)
            th = self.acts[l] @ dw.T * scale + db
            if t is not None:
                th = th + t @ self.layers[l][0].T * scale
            t = np.where(self.masks[l], th, 0.0)
        dw_out, db_out = dlayers[-1]
        out = self.acts[-1] @ dw_out.T * (1.0 / np.sqrt(m)) + db_out
        out = out + (t @ self.layers[-1][0].T) * (1.0 / np.sqrt(m))
        return out[:, 0]


def _bits(a):
    # compares sign bits too: -0.0 and +0.0 differ here
    return np.ascontiguousarray(a).view(np.int64)


def _biases_times(cfg, params, factor):
    """``params`` with every bias multiplied by ``factor`` in place; a factor
    of 0.0 gives signed zero biases, so with an all-zero input row every
    pre-activation of that row is a signed zero."""
    for _, b in unflatten(cfg, params):
        b *= factor
    return params


@pytest.mark.parametrize("n", [1, 7, 128, 1025])
@pytest.mark.parametrize("bias_factor", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sweep_is_bitwise_the_masked_select_sweep(depth, d, bias_factor, n):
    # the in-place affine steps, np.maximum and the v * mask + 0.0 deltas and
    # tangents perform the masked-select sweep's operations in its order, so
    # every value keeps every bit, the sign of every zero included
    cfg = NetConfig(d, depth, 32)
    rng = np.random.default_rng(1000 * depth + 100 * d + n)
    p = _biases_times(cfg, init_params(cfg, depth), bias_factor)
    x = rng.normal(scale=3.0, size=(n, d))
    x[n // 2] = 0.0
    delta = rng.normal(size=p.size)
    coeffs = rng.normal(size=n)
    new, old = Sweep(cfg, p, x), _WhereSweep(cfg, p, x)
    pairs = [(new.logits, old.logits)]
    pairs += list(zip(new.acts, old.acts)) + list(zip(new.deltas, old.deltas))
    pairs += [(new.jvp(delta), old.jvp(delta)), (new.vjp(coeffs), old.vjp(coeffs))]
    for got, want in pairs:
        assert np.array_equal(_bits(got), _bits(want))


def test_nan_hidden_weight_reaches_the_logits():
    # a NaN pre-activation propagates through the ReLU instead of being
    # zeroed, so the logits are NaN, not the finite output-bias term
    p = init_params(CFG, 7)
    w0, _ = unflatten(CFG, p)[1]
    w0[...] = np.nan  # a view into p
    x = np.random.default_rng(7).normal(size=(5, 2))
    assert np.all(np.isnan(forward(CFG, p, x)))
    assert np.all(np.isnan(linear_logits(CFG, p, [np.zeros(p.size)], x)))


# the block boundaries B - 1, B, B + 1, 2B - 1 and 2B of B = _BLOCK_ROWS; at
# B = 128, 1023 to 1025 and 2047 and 2048 sit at the boundaries 8B and 16B
BOUNDARY_ROWS = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS]


def _assert_row_blocks_bitwise(cfg, n, seed):
    """forward, feature_dot and the Monte Carlo student on n rows equal a
    single sweep of all rows bit for bit."""
    rng = np.random.default_rng(n)
    p = init_params(cfg, seed)
    x = rng.normal(scale=3.0, size=(n, cfg.input_dim))
    deltas = [rng.normal(scale=0.01, size=p.size) for _ in range(3)]
    whole = Sweep(cfg, p, x)
    assert np.array_equal(forward(cfg, p, x), whole.logits)
    assert np.array_equal(feature_dot(cfg, p, deltas[0], x), whole.jvp(deltas[0]))
    assert np.array_equal(
        linear_logits(cfg, p, deltas, x),
        np.stack([whole.logits + whole.jvp(delta) for delta in deltas]),
    )


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("n", [1, 7, *BOUNDARY_ROWS, 1023, 1024, 1025, 2047, 2048, 10000])
def test_row_blocks_are_bitwise_one_sweep(n, width):
    # forward and the Monte Carlo student sweep long batches block by block;
    # every value must be the one a single sweep of all rows gives
    _assert_row_blocks_bitwise(NetConfig(2, 2, width), n, width)


@pytest.mark.parametrize("n", [*BOUNDARY_ROWS, 544])
def test_row_blocks_are_bitwise_one_sweep_on_the_inefficiency_net(n):
    # the inefficiency study's student (d = 1, 5 x 256) sweeps forwards of
    # up to n_max + extra_points = 544 rows
    _assert_row_blocks_bitwise(NetConfig(1, 5, 256), n, 256)


# the risk study's student sweep of 10,000 Monte Carlo rows with two weight
# changes (2 x 128), once to warm up and once counted; prints the minor
# faults of the counted sweep
_FAULT_PROBE = """
import resource
import sys
import numpy as np
from ntkdistill.network import NetConfig, init_params, row_blocks
cfg = NetConfig(2, 2, int(sys.argv[1]))
rng = np.random.default_rng(0)
p = init_params(cfg, 1)
x = rng.normal(size=(10000, 2))
deltas = [rng.normal(scale=0.01, size=p.size) for _ in range(2)]
sweep = lambda: row_blocks(cfg, p, x, lambda s: np.stack([s.logits + s.jvp(d) for d in deltas]))
sweep()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sweep()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator on Linux")
@pytest.mark.parametrize("width", [128, 256, 512])
def test_monte_carlo_sweep_faults_in_no_fresh_pages(width):
    # each block's temporaries must come back from the heap, not from the
    # kernel.  With glibc's thresholds as a fresh process starts, 128-row
    # blocks took about 10k, 22k and 47k minor faults per sweep at these
    # widths, as glibc returned the pages and faulted them in again; the
    # network module's allocator warm-up raises the thresholds.  The probe
    # runs in a fresh interpreter without scipy: scipy's import raises them
    # as a side effect, and so would the large frees of earlier tests here
    env = dict(os.environ, PYTHONPATH=str(Path(ntkdistill.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    probe = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(width)], env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    faults, scipy_loaded = probe.stdout.split()
    assert scipy_loaded == "False"
    assert int(faults) < 2000


@pytest.mark.parametrize("bias_factor", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_reverse_tangent_matches_forward_tangent(depth, d, bias_factor):
    # every caller reads delta . phi(x_i) off the reverse sweep's deltas; it
    # must equal the reference's forward tangent pass up to rounding, for one
    # weight change and for a lockstep list sharing one sweep, whatever ran
    # first
    cfg = NetConfig(d, depth, 32)
    rng = np.random.default_rng(10 * depth + d)
    p = _biases_times(cfg, init_params(cfg, depth), bias_factor)
    x = rng.normal(scale=3.0, size=(64, d))
    deltas = [rng.normal(size=p.size) for _ in range(3)]
    sweep, reference = Sweep(cfg, p, x), _WhereSweep(cfg, p, x)
    for changes in ([deltas[0]], deltas):
        reverse = np.stack([sweep.jvp(delta) for delta in changes])
        tangent = np.stack([reference.tangent(delta) for delta in changes])
        assert np.max(np.abs(reverse - tangent)) <= 1e-13 * np.max(np.abs(tangent))
    fresh = Sweep(cfg, p, x)
    assert np.array_equal(fresh.jvp(deltas[1]), sweep.jvp(deltas[1]))


def test_linearization_fidelity_at_large_width():
    # small parameter displacements barely bend a wide network
    cfg = NetConfig(2, 2, 4096)
    p0 = init_params(cfg, 0)
    rng = np.random.default_rng(1)
    delta = rng.standard_normal(p0.size)
    delta *= 0.3 / np.linalg.norm(delta)
    xs = rng.normal(scale=5.0, size=(16, 2))
    lin = linear_logits(cfg, p0, [delta], xs)[0]
    full = forward(cfg, p0 + delta, xs)
    rel = np.abs(full - lin) / (np.abs(lin) + 1.0)
    assert np.max(rel) <= 0.05


class _ToyTask:
    """Linearly separable labels with N(0, 25) inputs."""

    def sample_inputs(self, n, rng):
        return rng.normal(scale=5.0, size=(n, 2))

    def hard_labels(self, x, rng=None):
        return (x[:, 0] + x[:, 1] > 0).astype(float)


class _ExpressionAdam(_Adam):
    """Reference: the Adam step as one expression per line, each allocating
    its result, as before the step went in place."""

    def step(self, params, grad):
        c, b1, b2 = self.cfg, self.beta1, self.beta2
        self.t += 1
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad**2
        m_hat = self.m / (1 - b1**self.t)
        v_hat = self.v / (1 - b2**self.t)
        return params - c.rate_at(self.t) * m_hat / (np.sqrt(v_hat) + self.eps)


@pytest.mark.parametrize("final_learning_rate", [None, 1e-4])
def test_adam_step_is_bitwise_the_expression_step(final_learning_rate):
    # the in-place step performs the expressions' operations in their order,
    # so parameters and moments keep every bit through a decaying schedule,
    # with signed zeros, subnormal and large gradient entries
    tc = TrainConfig(learning_rate=0.01, batch_size=1, epochs=30,
                     final_learning_rate=final_learning_rate)
    rng = np.random.default_rng(31)
    params = rng.normal(size=64)
    adam, ref = _Adam(params.size, tc), _ExpressionAdam(params.size, tc)
    want = params.copy()
    for _ in range(tc.epochs):
        grad = rng.normal(size=params.size) * 10.0 ** rng.integers(-8, 8, size=params.size)
        grad[:4] = [0.0, -0.0, 5e-324, -1e150]
        adam.step(params, grad)
        want = ref.step(want, grad)
        for got, expect in ((params, want), (adam.m, ref.m), (adam.v, ref.v)):
            assert np.array_equal(_bits(got), _bits(expect))


def _teacher_init(cfg, seed):
    """The initialization ``train_teacher`` draws for ``seed``."""
    return init_params(cfg, np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0]))


def test_train_teacher_zero_epochs_returns_init():
    tc = TrainConfig(learning_rate=0.01, batch_size=16, epochs=0)
    kept = train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=0, checkpoint_epochs=[0])
    assert list(kept) == [0]
    assert np.array_equal(kept[0], _teacher_init(NetConfig(2, 2, 16), 0))


def test_train_teacher_keeps_only_the_requested_epochs():
    # epoch 0 is kept only when asked for, an epoch past the budget never,
    # and each kept vector is a copy that later steps leave alone
    cfg, tc = NetConfig(2, 2, 16), TrainConfig(learning_rate=0.01, batch_size=16, epochs=10)
    kept = train_teacher(cfg, _ToyTask(), tc, seed=4, checkpoint_epochs=[7, 3, 12])
    assert list(kept) == [3, 7]
    assert not np.array_equal(kept[3], kept[7])
    with_init = train_teacher(cfg, _ToyTask(), tc, seed=4, checkpoint_epochs=[0, 7])
    assert list(with_init) == [0, 7]
    assert np.array_equal(with_init[0], _teacher_init(cfg, 4))
    assert np.array_equal(with_init[7], kept[7])
    assert train_teacher(cfg, _ToyTask(), tc, seed=4, checkpoint_epochs=[]) == {}


def test_train_teacher_deterministic():
    tc = TrainConfig(learning_rate=0.01, batch_size=32, epochs=20)
    epochs = [1, 2, 4, 8, 16, 20]
    a = train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=3, checkpoint_epochs=epochs)
    b = train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=3, checkpoint_epochs=epochs)
    assert list(a) == epochs
    assert list(a) == list(b)
    for epoch in a:
        assert np.array_equal(a[epoch], b[epoch])


def test_train_teacher_learns_separable_task():
    cfg = NetConfig(2, 2, 32)
    tc = TrainConfig(learning_rate=0.01, batch_size=128, epochs=2000)
    kept = train_teacher(cfg, _ToyTask(), tc, seed=1, checkpoint_epochs=[2000])
    final = kept[2000]
    rng = np.random.default_rng(99)
    x = rng.normal(scale=5.0, size=(2000, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    acc = np.mean((forward(cfg, final, x) > 0) == (y > 0.5))
    assert acc >= 0.99


def test_diverging_teacher_reports_only_divergence():
    # the overflowing forward sweep must not also print numpy RuntimeWarnings
    tc = TrainConfig(learning_rate=1e200, batch_size=16, epochs=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=0, checkpoint_epochs=[50])


def test_train_linearized_fixed_point():
    # targets equal to current outputs: zero gradient, delta stays zero
    cfg = NetConfig(2, 2, 32)
    p0 = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=(8, 2))
    targets = forward(cfg, p0, x)
    tc = TrainConfig(learning_rate=0.05, batch_size=8, epochs=50)
    [res] = train_linearized(cfg, p0, [SquaredTargets()], tc, sampler=lambda m, _: x, rng=rng,
                             targets=lambda xx: [np.tile(targets, len(xx) // len(x))])
    assert np.allclose(res.delta, 0.0)
    assert res.grad_norm == 0.0


def test_train_linearized_matches_kernel_solve(monkeypatch):
    # gradient training on fixed data lands on the kernel-solve interpolant
    cfg = NetConfig(2, 2, 128)
    p0 = init_params(cfg, 5)
    rng = np.random.default_rng(5)
    n = 16
    x = rng.normal(scale=5.0, size=(n, 2))
    targets = np.cos(0.4 * x[:, 0]) * 2.0
    z0 = forward(cfg, p0, x)
    gram = empirical_ntk_gram(cfg, p0, x)
    delta_solve = weighted_feature_sum(cfg, p0, x, gram.solve(targets - z0))

    # a dominant Adam epsilon makes the update effectively momentum gradient
    # descent: span-preserving, so it converges to the kernel interpolant
    monkeypatch.setattr(_Adam, "eps", 30.0)
    tc = TrainConfig(learning_rate=5.0, batch_size=n, epochs=8000)
    [res] = train_linearized(cfg, p0, [SquaredTargets()], tc, sampler=lambda m, _: x, rng=rng,
                             targets=lambda xx: [np.tile(targets, len(xx) // n)])
    assert res.grad_norm <= 1e-4
    trained = z0 + feature_dot(cfg, p0, res.delta, x)
    assert np.max(np.abs(trained - targets)) <= 1e-3

    probes = rng.normal(scale=5.0, size=(40, 2))
    via_solve, via_train = linear_logits(cfg, p0, [delta_solve, res.delta], probes)
    assert np.max(np.abs(via_train - via_solve)) <= 1e-2


def test_train_linearized_distill_objective_reaches_effective_logits():
    cfg = NetConfig(2, 2, 64)
    p0 = init_params(cfg, 2)
    rng = np.random.default_rng(2)
    n = 8
    x = rng.normal(scale=5.0, size=(n, 2))
    z_t = rng.normal(scale=2.0, size=n)
    y = (z_t + rng.normal(scale=0.5, size=n) > 0).astype(float)
    dp = DistillParams(soft_ratio=0.7, temperature=2.0)
    # at a constant rate Adam leaves the optimum in bursts once the gradient
    # is tiny, so where epoch 20000 lands depended on rounding; the decay
    # freezes the iterate at the optimum
    tc = TrainConfig(learning_rate=0.2, batch_size=n, epochs=20000, final_learning_rate=2e-4)
    [res] = train_linearized(cfg, p0, [DistillTargets(dp)], tc, sampler=lambda m, _: x, rng=rng,
                             targets=lambda xx: [np.tile(np.stack([z_t, y]), len(xx) // n)])
    z = forward(cfg, p0, x) + feature_dot(cfg, p0, res.delta, x)
    assert np.allclose(z, effective_logits(z_t, y, dp), atol=5e-3)


def test_lockstep_objectives_match_separate_runs():
    # k objectives trained in lockstep share each step's batch and sweep but
    # keep their own weight change and Adam state: bitwise the k separate
    # runs on identically seeded rngs, a saturated rho = 0 target included
    cfg = NetConfig(2, 2, 16)
    p0 = init_params(cfg, 3)
    teacher = init_params(cfg, 4)
    dps = (DistillParams(1.0, 10.0), DistillParams(0.5, 10.0), DistillParams(0.0, 10.0))

    def targets(x):
        z_t, hard = 0.3 * forward(cfg, teacher, x), (x[:, 0] > 0).astype(float)
        return [effective_logits(z_t, hard, dp) for dp in dps] + [np.stack([z_t, hard])]

    objectives = [SquaredTargets()] * len(dps) + [DistillTargets(DistillParams(0.7, 2.0))]
    sampler = lambda n, rng: rng.normal(scale=5.0, size=(n, 2))
    tc = TrainConfig(learning_rate=0.01, batch_size=8, epochs=40)

    together = train_linearized(cfg, p0, objectives, tc, sampler, np.random.default_rng(9),
                                targets)
    assert len(together) == len(objectives)
    for j, (obj, res) in enumerate(zip(objectives, together)):
        [alone] = train_linearized(cfg, p0, [obj], tc, sampler, np.random.default_rng(9),
                                   lambda x: targets(x)[j:j + 1])
        assert np.array_equal(res.delta, alone.delta)
        assert res.grad_norm == alone.grad_norm
    assert not np.array_equal(together[0].delta, together[2].delta)


def _per_step_reference(cfg, params0, objectives, tc, sampler, rng, targets):
    """The training loop as it ran before targets were evaluated per chunk:
    every step evaluates the targets on its own batch."""
    deltas = [np.zeros(param_count(cfg)) for _ in objectives]
    adams = [_Adam(delta.size, tc) for delta in deltas]
    norms = [0.0] * len(objectives)
    for _ in range(tc.epochs):
        sweep = Sweep(cfg, params0, sampler(tc.batch_size, rng))
        values = targets(sweep.acts[0])
        for j, obj in enumerate(objectives):
            z = sweep.logits + sweep.jvp(deltas[j])
            coeffs = obj.grad(z, values[j]) / len(z)
            grad = sweep.vjp(coeffs)
            norms[j] = float(np.linalg.norm(grad))
            adams[j].step(deltas[j], grad)
    return deltas, norms


def _chunk_objectives():
    # a teacher network, its effective logits (a saturated rho = 0 point
    # included), an elementwise target and a constant hard label; returns
    # the student, its parameters, the objectives and their target function
    student, teacher_cfg = NetConfig(2, 2, 16), NetConfig(2, 3, 64)
    teacher = init_params(teacher_cfg, 4)
    dps = (DistillParams(1.0, 10.0), DistillParams(0.5, 10.0), DistillParams(0.0, 10.0))

    def targets(x):
        z_t, hard = 0.3 * forward(teacher_cfg, teacher, x), (x[:, 0] > 0).astype(float)
        return ([effective_logits(z_t, hard, dp) for dp in dps]
                + [np.sin(x[:, 0]) * x[:, 1], np.stack([z_t, np.ones(len(x))])])

    objectives = [SquaredTargets()] * (len(dps) + 1) + [DistillTargets(DistillParams(0.7, 2.0))]
    return student, init_params(student, 3), objectives, targets


def _sampler(n, rng):
    return rng.normal(scale=5.0, size=(n, 2))


@pytest.mark.parametrize("batch_size,epochs", [(128, 13), (128, 8), (1100, 3), (128, 0)],
                         ids=["remainder-chunk", "one-chunk", "batch-over-block", "no-steps"])
@pytest.mark.parametrize("lockstep", [True, False], ids=["lockstep", "single"])
def test_chunked_targets_are_bitwise_the_per_step_loop(batch_size, epochs, lockstep):
    # online mode draws ceil(_TARGET_CHUNK_ROWS / batch_size) batches ahead and
    # evaluates every target once on their rows; each step's slice of those
    # values must be bitwise the per-step evaluation, and the sampler must
    # be called once per step in order, leaving the rng where it left it
    cfg, p0, objectives, targets = _chunk_objectives()
    if not lockstep:
        objectives, targets = objectives[1:2], lambda x, all_targets=targets: all_targets(x)[1:2]
    tc = TrainConfig(learning_rate=0.01, batch_size=batch_size, epochs=epochs,
                     final_learning_rate=0.001)
    calls = []

    def counting(n, rng):
        calls.append(n)
        return _sampler(n, rng)

    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    got = train_linearized(cfg, p0, objectives, tc, sampler=counting, rng=rng, targets=targets)
    want, norms = _per_step_reference(cfg, p0, objectives, tc, _sampler, ref_rng, targets)
    assert calls == [batch_size] * epochs
    assert rng.random() == ref_rng.random()
    for res, delta, norm in zip(got, want, norms):
        assert np.array_equal(res.delta, delta) and res.grad_norm == norm
    if epochs:
        assert not np.array_equal(got[0].delta, np.zeros(p0.size))


def test_chunk_size_comes_from_the_block_rows():
    # the target function sees ceil(_TARGET_CHUNK_ROWS / batch_size) batches
    # per call, the last call the steps that remain, in one call per chunk
    # whatever the number of objectives; the chunk is its own constant, not
    # the row-block size
    cfg, p0, objectives, targets = _chunk_objectives()
    tc = TrainConfig(learning_rate=0.01, batch_size=100, epochs=25)
    assert _TARGET_CHUNK_ROWS == 1024
    per_chunk = -(-_TARGET_CHUNK_ROWS // 100)
    for count in (1, len(objectives)):
        rows = []

        def counting(x):
            rows.append(len(x))
            return targets(x)[-count:]

        results = train_linearized(cfg, p0, objectives[-count:], tc, _sampler,
                                   np.random.default_rng(0), counting)
        assert len(results) == count
        assert rows == [100 * per_chunk, 100 * per_chunk, 100 * (25 - 2 * per_chunk)]


def test_fixed_data_evaluates_callable_targets_once():
    # on a sampler that returns one fixed batch, targets computed from the
    # chunk's rows and the batch's targets repeated over its copies in the
    # chunk train alike, and as the per-step loop
    cfg, p0, _, _ = _chunk_objectives()
    x = _sampler(12, np.random.default_rng(5))
    fixed = lambda m, rng: x
    target = lambda xx: np.cos(xx[:, 0])
    tc = TrainConfig(learning_rate=0.01, batch_size=12, epochs=30)
    res = train_linearized(cfg, p0, [SquaredTargets()] * 2, tc, sampler=fixed,
                           rng=np.random.default_rng(0),
                           targets=lambda xx: [target(xx), np.tile(target(x), len(xx) // 12)])
    assert np.array_equal(res[0].delta, res[1].delta)
    want, _ = _per_step_reference(cfg, p0, [SquaredTargets()], tc, fixed, None,
                                  lambda xx: [target(xx)])
    assert np.array_equal(res[0].delta, want[0])


def test_non_finite_teacher_logit_in_a_later_step_raises():
    # one NaN teacher logit among the rows of a later chunk's step still
    # stops training at the effective-logit solve
    cfg, p0, _, _ = _chunk_objectives()
    seen = []

    def teacher(x):
        seen.append(len(x))
        z = np.tanh(x[:, 0])
        if len(seen) == 2:
            z[-1] = np.nan
        return z

    tc = TrainConfig(learning_rate=0.01, batch_size=128, epochs=12)
    with pytest.raises(FloatingPointError):
        train_linearized(cfg, p0, [SquaredTargets()], tc, sampler=_sampler,
                         rng=np.random.default_rng(1),
                         targets=lambda x: [effective_logits(teacher(x), 1.0,
                                                             DistillParams(0.5, 2.0))])
    assert len(seen) == 2


def test_train_linearized_online_needs_rng():
    cfg = NetConfig(2, 2, 8)
    tc = TrainConfig(learning_rate=0.01, batch_size=4, epochs=2)
    with pytest.raises(TypeError, match="rng"):
        train_linearized(cfg, init_params(cfg, 0), [SquaredTargets()], tc,
                         sampler=lambda n, rng: rng.normal(size=(n, 2)),
                         targets=lambda x: [x[:, 0]])


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(0, 1, 4)
    with pytest.raises(ValueError):
        NetConfig(2, 0, 4)
    with pytest.raises(ValueError):
        NetConfig(2, 1, 0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0, batch_size=1, epochs=1)
