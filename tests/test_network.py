import warnings

import numpy as np
import pytest

from ntkdistill.kernel import empirical_ntk_diag, empirical_ntk_gram
from ntkdistill.network import (
    Checkpoint,
    DistillTargets,
    DivergenceError,
    NetConfig,
    SquaredTargets,
    TrainConfig,
    default_checkpoint_epochs,
    feature,
    feature_dot,
    features,
    flatten,
    forward,
    init_params,
    linear_logit,
    load_checkpoint,
    param_count,
    save_checkpoint,
    train_linearized,
    train_teacher,
    unflatten,
    weighted_feature_sum,
)
from ntkdistill.network import _Cache, _linear_logits
from ntkdistill.distillation import DistillParams


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
            h.append(cfg.weight_scale * acc / np.sqrt(fan) + cfg.bias_scale * b[i])
        if li < len(layers) - 1:
            a = [max(0.0, v) for v in h]
        else:
            a = h
        fan = cfg.width
    return a[0]


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


def test_layout_round_trips():
    p = init_params(CFG, 3)
    assert np.array_equal(flatten(unflatten(CFG, p)), p)


def test_forward_zero_params():
    assert forward(CFG, np.zeros(param_count(CFG)), np.array([1.0, -2.0])) == 0.0


def test_forward_zero_input_zero_biases():
    p = init_params(CFG, 0)
    layers = unflatten(CFG, p)
    for _, b in layers:
        b[:] = 0.0  # views into p
    assert forward(CFG, p, np.zeros(2)) == 0.0


def test_forward_matches_straight_line_evaluator():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = init_params(CFG, rng)
        x = rng.normal(size=2)
        assert forward(CFG, p, x) == pytest.approx(
            straight_line_forward(CFG, p, x), abs=1e-12
        )


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    p = init_params(CFG, 1)
    xs = rng.normal(size=(6, 2))
    batch = forward(CFG, p, xs)
    assert batch.shape == (6,)
    for i in range(6):
        assert batch[i] == pytest.approx(forward(CFG, p, xs[i]), abs=1e-14)


def test_feature_finite_differences():
    rng = np.random.default_rng(4)
    p = init_params(CFG, 11)
    x = rng.normal(size=2)
    phi = feature(CFG, p, x)
    eps = 1e-4
    idx = rng.choice(p.size, size=120, replace=False)
    for i in idx:
        up, down = p.copy(), p.copy()
        up[i] += eps
        down[i] -= eps
        fd = (forward(CFG, up, x) - forward(CFG, down, x)) / (2 * eps)
        assert phi[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_feature_output_bias_coordinate():
    cfg = NetConfig(2, 2, 4, bias_scale=0.7)
    p = init_params(cfg, 0)
    phi = feature(cfg, p, np.array([0.3, -1.2]))
    assert phi[-1] == pytest.approx(0.7, abs=1e-15)


def test_feature_norm_equals_kernel_diagonal():
    p = init_params(CFG, 8)
    x = np.array([[1.5, -0.5]])
    phi = feature(CFG, p, x[0])
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
    x = rng.normal(size=2)
    z0 = forward(CFG, p, x)
    assert linear_logit(CFG, p, np.zeros(p.size), x) == pytest.approx(z0)
    phi = feature(CFG, p, x)
    c = 2.5
    delta = c * phi / (phi @ phi)
    assert linear_logit(CFG, p, delta, x) == pytest.approx(z0 + c, rel=1e-12)


def test_linear_logit_is_bitwise_forward_plus_feature_dot():
    rng = np.random.default_rng(11)
    p = init_params(CFG, 4)
    xs = rng.normal(scale=3.0, size=(64, 2))
    delta = rng.normal(size=p.size)
    assert np.array_equal(
        linear_logit(CFG, p, delta, xs),
        forward(CFG, p, xs) + feature_dot(CFG, p, delta, xs),
    )


def test_cache_skips_reverse_sweep_for_logits_and_tangents():
    rng = np.random.default_rng(12)
    p = init_params(CFG, 5)
    cache = _Cache(CFG, p, rng.normal(size=(16, 2)))
    cache.logits
    cache.tangent(rng.normal(size=p.size))
    assert cache._deltas is None
    deltas = cache.deltas
    assert cache.deltas is deltas  # computed once, then kept


def test_weighted_gradient_independent_of_prior_tangent():
    rng = np.random.default_rng(13)
    p = init_params(CFG, 6)
    xs = rng.normal(size=(16, 2))
    c = rng.normal(size=16)
    fresh = _Cache(CFG, p, xs).weighted_gradient(c)
    used = _Cache(CFG, p, xs)
    used.tangent(rng.normal(size=p.size))
    assert np.array_equal(fresh, used.weighted_gradient(c))


class _WhereSweep(_Cache):
    """Reference: the sweep with every ReLU a masked select, ``np.where(mask,
    value, 0.0)``, and every affine step one expression, as before the
    passes went in place."""

    def __init__(self, cfg, params, x):
        self.cfg = cfg
        layers = unflatten(cfg, params)
        sw, sb = cfg.weight_scale, cfg.bias_scale
        d, m = cfg.input_dim, cfg.width
        self.layers = layers
        self.acts = [x]
        self.masks = []
        a = x
        for i, (w, b) in enumerate(layers[:-1]):
            scale = sw / np.sqrt(d if i == 0 else m)
            h = a @ w.T * scale + sb * b
            self.masks.append(h > 0)
            a = np.where(self.masks[-1], h, 0.0)
            self.acts.append(a)
        w_out, b_out = layers[-1]
        self.logits = (a @ w_out.T * (sw / np.sqrt(m)) + sb * b_out)[:, 0]
        self._deltas = None

    @property
    def deltas(self):
        if self._deltas is None:
            layers = self.layers
            sw, m = self.cfg.weight_scale, self.cfg.width
            n = self.acts[0].shape[0]
            deltas = [None] * len(self.masks)
            v = np.broadcast_to(layers[-1][0] * (sw / np.sqrt(m)), (n, m))
            for l in range(len(self.masks) - 1, -1, -1):
                deltas[l] = np.where(self.masks[l], v, 0.0)
                if l > 0:
                    v = deltas[l] @ layers[l][0] * (sw / np.sqrt(m))
            self._deltas = deltas
        return self._deltas

    def tangent(self, delta):
        cfg = self.cfg
        sw, sb = cfg.weight_scale, cfg.bias_scale
        d, m = cfg.input_dim, cfg.width
        dlayers = unflatten(cfg, delta)
        t = None
        for l, (dw, db) in enumerate(dlayers[:-1]):
            scale = sw / np.sqrt(d if l == 0 else m)
            th = self.acts[l] @ dw.T * scale + sb * db
            if t is not None:
                th = th + t @ self.layers[l][0].T * scale
            t = np.where(self.masks[l], th, 0.0)
        dw_out, db_out = dlayers[-1]
        out = self.acts[-1] @ dw_out.T * (sw / np.sqrt(m)) + sb * db_out
        out = out + (t @ self.layers[-1][0].T) * (sw / np.sqrt(m))
        return out[:, 0]


def _bits(a):
    # compares sign bits too: -0.0 and +0.0 differ here
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", [1, 7, 128, 1025])
@pytest.mark.parametrize("bias_scale", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sweep_is_bitwise_the_masked_select_sweep(depth, d, bias_scale, n):
    # the in-place affine steps, np.maximum and the v * mask + 0.0 deltas and
    # tangents perform the masked-select sweep's operations in its order, so
    # every value keeps every bit, the sign of every zero included
    cfg = NetConfig(d, depth, 32, bias_scale=bias_scale)
    rng = np.random.default_rng(1000 * depth + 100 * d + n)
    p = init_params(cfg, depth)
    x = rng.normal(scale=3.0, size=(n, d))
    x[n // 2] = 0.0
    delta = rng.normal(size=p.size)
    coeffs = rng.normal(size=n)
    new, old = _Cache(cfg, p, x), _WhereSweep(cfg, p, x)
    pairs = [(new.logits, old.logits)]
    pairs += list(zip(new.acts, old.acts)) + list(zip(new.deltas, old.deltas))
    pairs += [(new.tangent(delta), old.tangent(delta)),
              (new.reverse_tangent(delta), old.reverse_tangent(delta)),
              (new.weighted_gradient(coeffs), old.weighted_gradient(coeffs))]
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
    assert np.all(np.isnan(_linear_logits(CFG, p, [np.zeros(p.size)], x)))


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 10000])
def test_row_blocks_are_bitwise_one_sweep(n, width):
    # forward and the Monte Carlo student sweep long batches block by block;
    # every value must be the one a single sweep of all rows gives
    cfg = NetConfig(2, 2, width)
    rng = np.random.default_rng(n)
    p = init_params(cfg, width)
    x = rng.normal(scale=3.0, size=(n, 2))
    deltas = [rng.normal(scale=0.01, size=p.size) for _ in range(3)]
    whole = _Cache(cfg, p, x)
    assert np.array_equal(forward(cfg, p, x), whole.logits)
    assert np.array_equal(feature_dot(cfg, p, deltas[0], x), whole.tangent(deltas[0]))
    assert np.array_equal(
        _linear_logits(cfg, p, deltas, x),
        np.stack([whole.logits + whole.tangent(delta) for delta in deltas]),
    )


@pytest.mark.parametrize("bias_scale", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_reverse_tangent_matches_forward_tangent(depth, d, bias_scale):
    # the oracle step reads delta . phi(x_i) off the reverse sweep's deltas;
    # it must equal the forward tangent pass up to rounding, for one weight
    # change and for a lockstep list sharing one sweep, whatever ran first
    cfg = NetConfig(d, depth, 32, bias_scale=bias_scale)
    rng = np.random.default_rng(10 * depth + d)
    p = init_params(cfg, depth)
    x = rng.normal(scale=3.0, size=(64, d))
    deltas = [rng.normal(size=p.size) for _ in range(3)]
    sweep = _Cache(cfg, p, x)
    for changes in ([deltas[0]], deltas):
        reverse = np.stack([sweep.reverse_tangent(delta) for delta in changes])
        tangent = np.stack([sweep.tangent(delta) for delta in changes])
        assert np.max(np.abs(reverse - tangent)) <= 1e-13 * np.max(np.abs(tangent))
    fresh = _Cache(cfg, p, x)
    assert np.array_equal(fresh.reverse_tangent(deltas[1]), sweep.reverse_tangent(deltas[1]))


def test_linearization_fidelity_at_large_width():
    # small parameter displacements barely bend a wide network
    cfg = NetConfig(2, 2, 4096)
    p0 = init_params(cfg, 0)
    rng = np.random.default_rng(1)
    delta = rng.standard_normal(p0.size)
    delta *= 0.3 / np.linalg.norm(delta)
    xs = rng.normal(scale=5.0, size=(16, 2))
    lin = linear_logit(cfg, p0, delta, xs)
    full = forward(cfg, p0 + delta, xs)
    rel = np.abs(full - lin) / (np.abs(lin) + 1.0)
    assert np.max(rel) <= 0.05


class _ToyTask:
    """Linearly separable labels with N(0, 25) inputs."""

    def sample_inputs(self, n, rng):
        return rng.normal(scale=5.0, size=(n, 2))

    def hard_labels(self, x, rng=None):
        return (x[:, 0] + x[:, 1] > 0).astype(float)


def test_train_teacher_zero_epochs_returns_init():
    tc = TrainConfig(learning_rate=0.01, batch_size=16, epochs=0)
    ckpts = train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=0)
    assert len(ckpts) == 1 and ckpts[0].epoch == 0
    assert np.array_equal(ckpts[0].params, init_params(NetConfig(2, 2, 16), np.random.default_rng(np.random.SeedSequence(0).spawn(2)[0])))


def test_train_teacher_deterministic():
    tc = TrainConfig(learning_rate=0.01, batch_size=32, epochs=20)
    a = train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=3)
    b = train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=3)
    assert [c.epoch for c in a] == [c.epoch for c in b]
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.params, cb.params)


def test_train_teacher_learns_separable_task():
    cfg = NetConfig(2, 2, 32)
    tc = TrainConfig(learning_rate=0.01, batch_size=128, epochs=2000)
    ckpts = train_teacher(cfg, _ToyTask(), tc, seed=1, checkpoint_epochs=[2000])
    final = ckpts[-1].params
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
            train_teacher(NetConfig(2, 2, 16), _ToyTask(), tc, seed=0)


def test_default_checkpoint_epochs():
    assert default_checkpoint_epochs(10) == [1, 2, 4, 8, 10]
    assert default_checkpoint_epochs(8) == [1, 2, 4, 8]
    assert default_checkpoint_epochs(0) == []


def test_checkpoint_roundtrip(tmp_path):
    cfg = NetConfig(2, 2, 4, weight_scale=1.5, bias_scale=0.5)
    ck = Checkpoint(cfg, seed=7, epoch=12, params=init_params(cfg, 7))
    path = tmp_path / "teacher.npz"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.config == cfg
    assert back.seed == 7 and back.epoch == 12
    assert np.array_equal(back.params, ck.params)


def test_train_linearized_fixed_point():
    # targets equal to current outputs: zero gradient, delta stays zero
    cfg = NetConfig(2, 2, 32)
    p0 = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=(8, 2))
    targets = forward(cfg, p0, x)
    tc = TrainConfig(learning_rate=0.05, batch_size=8, epochs=50, online_batch=False)
    res = train_linearized(cfg, p0, SquaredTargets(targets), tc, data=x)
    assert np.allclose(res.delta, 0.0)
    assert res.grad_norm == 0.0


def test_train_linearized_matches_kernel_solve():
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

    # a dominant adam_eps makes the update effectively momentum gradient
    # descent: span-preserving, so it converges to the kernel interpolant
    tc = TrainConfig(
        learning_rate=5.0, batch_size=n, epochs=8000, online_batch=False, adam_eps=30.0
    )
    res = train_linearized(
        cfg, p0, SquaredTargets(targets), tc, data=x, grad_tol=1e-4
    )
    assert res.converged
    trained = z0 + feature_dot(cfg, p0, res.delta, x)
    assert np.max(np.abs(trained - targets)) <= 1e-3

    probes = rng.normal(scale=5.0, size=(40, 2))
    via_solve = linear_logit(cfg, p0, delta_solve, probes)
    via_train = linear_logit(cfg, p0, res.delta, probes)
    assert np.max(np.abs(via_train - via_solve)) <= 1e-2


def test_train_linearized_distill_objective_reaches_effective_logits():
    from ntkdistill.distillation import effective_logits

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
    tc = TrainConfig(learning_rate=0.2, batch_size=n, epochs=20000, online_batch=False,
                     final_learning_rate=2e-4)
    res = train_linearized(cfg, p0, DistillTargets(dp, z_t, y), tc, data=x)
    z = forward(cfg, p0, x) + feature_dot(cfg, p0, res.delta, x)
    assert np.allclose(z, effective_logits(z_t, y, dp), atol=5e-3)


@pytest.mark.parametrize("online", [True, False], ids=["online", "fixed-data"])
def test_lockstep_objectives_match_separate_runs(online):
    # k objectives trained in lockstep share each step's batch and sweep but
    # keep their own weight change and Adam state: bitwise the k separate
    # runs on identically seeded rngs, a saturated rho = 0 target included
    from ntkdistill.distillation import saturated_effective_logits

    cfg = NetConfig(2, 2, 16)
    p0 = init_params(cfg, 3)
    teacher = init_params(cfg, 4)
    z_t = lambda x: 0.3 * forward(cfg, teacher, x)
    hard = lambda x: (x[:, 0] > 0).astype(float)
    objectives = [
        SquaredTargets(lambda x, dp=dp: saturated_effective_logits(z_t(x), hard(x), dp)[0])
        for dp in (DistillParams(1.0, 10.0), DistillParams(0.5, 10.0), DistillParams(0.0, 10.0))
    ]
    objectives.append(DistillTargets(DistillParams(0.7, 2.0), z_t, hard))
    sampler = lambda n, rng: rng.normal(scale=5.0, size=(n, 2))
    tc = TrainConfig(learning_rate=0.01, batch_size=8, epochs=40, online_batch=online)
    if online:
        mode = lambda: dict(sampler=sampler, rng=np.random.default_rng(9))
    else:
        x = sampler(8, np.random.default_rng(9))
        mode = lambda: dict(data=x)

    together = train_linearized(cfg, p0, objectives, tc, grad_tol=1e-3, **mode())
    assert len(together) == len(objectives)
    for obj, res in zip(objectives, together):
        alone = train_linearized(cfg, p0, obj, tc, grad_tol=1e-3, **mode())
        assert np.array_equal(res.delta, alone.delta)
        assert (res.grad_norm, res.converged) == (alone.grad_norm, alone.converged)
    assert not np.array_equal(together[0].delta, together[2].delta)


def test_train_linearized_online_needs_rng():
    cfg = NetConfig(2, 2, 8)
    tc = TrainConfig(learning_rate=0.01, batch_size=4, epochs=2)
    with pytest.raises(ValueError):
        train_linearized(cfg, init_params(cfg, 0), SquaredTargets(lambda x: x[:, 0]), tc,
                         sampler=lambda n, rng: rng.normal(size=(n, 2)))


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(0, 1, 4)
    with pytest.raises(ValueError):
        NetConfig(2, 1, 4, weight_scale=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0, batch_size=1, epochs=1)
