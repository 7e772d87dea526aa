from dataclasses import asdict

import numpy as np
import pytest

from ntkdistill.network import NetConfig, forward, init_params
from ntkdistill.tasks import (
    CENTER_SPREAD,
    INPUT_SCALE,
    LabelSource,
    Task,
    TaskSpec,
    default_mode_width,
    realize_mixture,
)


def test_sample_inputs_deterministic_and_shaped():
    task = Task(TaskSpec(kind="zero", dim=3, seed=5))
    a = task.sample_inputs(10, np.random.default_rng(1))
    b = task.sample_inputs(10, np.random.default_rng(1))
    assert a.shape == (10, 3)
    assert np.array_equal(a, b)
    assert task.sample_inputs(0, np.random.default_rng(0)).shape == (0, 3)
    with pytest.raises(ValueError):
        task.sample_inputs(-1, np.random.default_rng(0))


def test_sample_inputs_variance():
    x = Task(TaskSpec(kind="zero", dim=1)).sample_inputs(10**5, np.random.default_rng(7))
    assert INPUT_SCALE == 5.0
    assert np.var(x) == pytest.approx(25.0, abs=0.5)


def test_mode_width_law():
    assert default_mode_width(10) == pytest.approx(0.15)
    assert default_mode_width(250) == pytest.approx(15.0 / 250**2)


def test_mixture_peak_value():
    spec = TaskSpec(modes=1, dim=2, amplitude=2.0)
    mix = realize_mixture(spec, np.random.default_rng(0))
    peak = mix.values(mix.centers[0])[0]
    assert peak == pytest.approx(mix.amplitudes[0], rel=1e-12)


def test_mixture_far_field_decay():
    spec = TaskSpec(modes=4, dim=2)
    mix = realize_mixture(spec, np.random.default_rng(1))
    # ~10 widths away from every center the bumps are numerically dead
    far = mix.centers.max(axis=0) + 10.0 * np.sqrt(mix.widths.max()) + 10.0
    assert abs(mix.values(far)[0]) < 1e-8 * np.abs(mix.amplitudes).sum()


def test_mixture_matches_direct_summation():
    rng = np.random.default_rng(2)
    spec = TaskSpec(modes=7, dim=3, amplitude=1.5)
    mix = realize_mixture(spec, rng)
    x = rng.normal(scale=5.0, size=3)
    direct = sum(
        a * np.exp(-np.sum((x - c) ** 2) / s)
        for a, c, s in zip(mix.amplitudes, mix.centers, mix.widths)
    )
    assert mix.values(x)[0] == pytest.approx(direct, abs=1e-12)


def test_mixture_realization_statistics():
    # q modes, centers spread like N(0, 5^2), signs balanced
    spec = TaskSpec(modes=10, dim=2)
    assert CENTER_SPREAD == 5.0
    centers = []
    signs = []
    for seed in range(1000):
        mix = realize_mixture(spec, np.random.default_rng(seed))
        assert len(mix.amplitudes) == 10
        assert np.all(mix.widths > 0)
        centers.append(mix.centers)
        signs.append(np.sign(mix.amplitudes))
    centers = np.concatenate(centers).ravel()
    assert np.mean(centers) == pytest.approx(0.0, abs=0.1)
    assert np.std(centers) == pytest.approx(5.0, abs=0.1)
    assert abs(np.mean(np.concatenate(signs))) < 0.02


def _flipped(p_flip):
    # wide modes, so no input's base value underflows to a signless 0.0
    spec = dict(dim=1, modes=3, width=50.0, seed=4)
    return (Task(TaskSpec(kind="flipped-mixture", p_flip=p_flip, **spec)),
            Task(TaskSpec(kind="mixture", **spec)).target_logits)


def test_flip_labels_identity_at_zero():
    flipped, base = _flipped(0.0)
    x = np.random.default_rng(0).normal(size=(20, 1))
    assert np.array_equal(flipped.target_logits(x, np.random.default_rng(1)), base(x))


def test_flip_labels_involution_with_replayed_randomness():
    flipped, base = _flipped(0.3)
    x = np.random.default_rng(0).normal(size=(50, 1))
    signs_a = flipped.target_logits(x, np.random.default_rng(9)) / base(x)
    signs_b = flipped.target_logits(x, np.random.default_rng(9)) / base(x)
    assert np.array_equal(signs_a * signs_b, np.ones(len(x)))  # s^2 = 1
    assert np.any(signs_a < 0)


def test_flip_half_decorrelates_sign():
    flipped, base = _flipped(0.5)
    x = np.random.default_rng(0).normal(size=(10**4, 1))
    out = flipped.target_logits(x, np.random.default_rng(4))
    assert np.all(base(x) != 0)
    corr = np.mean(np.sign(out) * np.sign(base(x)))
    assert abs(corr) < 0.02


def test_flip_labels_validates_probability():
    for p_flip in (-0.1, 0.7):
        with pytest.raises(ValueError, match="p_flip"):
            TaskSpec(kind="flipped-mixture", p_flip=p_flip)


def _toy_teacher(seed=0):
    cfg = NetConfig(2, 2, 8)
    return cfg, init_params(cfg, seed)


def test_teacher_labels_scaling():
    net, params = _toy_teacher()
    x = np.random.default_rng(1).normal(size=(12, 2))
    raw = forward(net, params, x)
    src1 = LabelSource(net, params, reduction=1.0)
    src2 = LabelSource(net, params, reduction=2.0)
    assert np.allclose(src1.logits(x), raw)
    assert np.allclose(src2.logits(x), 2.0 * raw)


def test_teacher_hard_labels_from_ground_truth():
    net, params = _toy_teacher()
    src = LabelSource(net, params, 1.0, ground_truth=lambda x: x[:, 0] - 1.0)
    x = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(src.hard(x), [1.0, 0.0])
    bare = LabelSource(net, params, 1.0)
    with pytest.raises(ValueError):
        bare.hard(x)


def test_label_sources_compare_and_hash_by_identity():
    # a source holds a parameter vector, which has no truth value to compare by
    net, params = _toy_teacher()
    src = LabelSource(net, params, 1.0)
    assert src == src and src != LabelSource(net, params, 1.0)
    assert {src: 1}[src] == 1


def test_task_kinds_and_validation():
    with pytest.raises(ValueError):
        TaskSpec(kind="nope")
    with pytest.raises(ValueError):
        TaskSpec(p_flip=0.9)
    # teachers are trained inside a run, never loaded as a task
    with pytest.raises(ValueError, match="unknown task kind"):
        TaskSpec(kind="teacher-net")
    with pytest.raises(ValueError):
        TaskSpec(modes=0)
    zero = Task(TaskSpec(kind="zero"))
    x = np.zeros((4, 2))
    assert np.array_equal(zero.target_logits(x), np.zeros(4))
    rand = Task(TaskSpec(kind="random-labels"))
    draws = rand.target_logits(x, np.random.default_rng(0))
    assert draws.shape == (4,)
    assert not rand.subtract_init and zero.subtract_init


def test_random_label_task_is_standard_normal():
    task = Task(TaskSpec(kind="random-labels"))
    x = np.zeros((10**4, 2))
    z = task.target_logits(x, np.random.default_rng(3))
    assert np.mean(z) == pytest.approx(0.0, abs=0.05)
    assert np.std(z) == pytest.approx(1.0, abs=0.05)


def test_task_target_streams_reproduce():
    spec = TaskSpec(kind="flipped-mixture", modes=5, p_flip=0.3, seed=11)
    task_a, task_b = Task(spec), Task(spec)
    x = task_a.sample_inputs(30, np.random.default_rng(0))
    za = task_a.target_logits(x, np.random.default_rng(5))
    zb = task_b.target_logits(x, np.random.default_rng(5))
    assert np.array_equal(za, zb)


def test_task_spec_round_trips_to_dict():
    spec = TaskSpec(kind="mixture", modes=50, seed=9, dim=1)
    assert TaskSpec(**asdict(spec)) == spec
