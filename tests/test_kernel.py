import math

import numpy as np
import pytest

from ntkdistill import kernel
from ntkdistill.kernel import (
    analytic_ntk_diag,
    analytic_ntk_gram,
    empirical_ntk_diag,
    empirical_ntk_gram,
)
from ntkdistill.linalg import KernelMatrix
from ntkdistill.network import _BLOCK_ROWS, NetConfig, Sweep, init_params


def analytic_ntk(cfg, x, y):
    """Independent scalar reference for one input pair: the recursion in
    scalars, with the closed theta = 0 form on the diagonal."""
    d = cfg.input_dim
    sxx = float(x @ x) / d + 1
    syy = float(y @ y) / d + 1
    sxy = float(x @ y) / d + 1
    if np.array_equal(x, y):
        s = k = sxx
        for _ in range(cfg.hidden_layers):
            # theta = 0: the J factor reduces to pi
            s = s / 2 + 1
            k = s + k / 2
        return k
    k = sxy
    for _ in range(cfg.hidden_layers):
        norm = math.sqrt(sxx * syy)
        c = min(1.0, max(-1.0, sxy / norm))
        theta = math.acos(c)
        sxy = norm * (math.sin(theta) + (math.pi - theta) * c) / (2 * math.pi) + 1
        k = sxy + (math.pi - theta) / (2 * math.pi) * k
        sxx = sxx / 2 + 1
        syy = syy / 2 + 1
    return k


def pair_gram(cfg, x, y):
    return analytic_ntk_gram(cfg, np.stack([x, y])).entries


def test_base_covariance_hand_case():
    # x = (1, 1) and x' = (1, -1) have first-layer covariances
    # S(x, x) = S(x', x') = |x|^2 / d + 1 = 2 and S(x, x') = 0 / d + 1 = 1,
    # so one step runs at c = 1/2, theta = pi/3:
    # K = 2 (sqrt(3)/2 + pi/3) / (2 pi) + 1 + (2 pi/3) / (2 pi) * 1
    cfg = NetConfig(2, 1, 4)
    x, y = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    hand = (math.sqrt(3) / 2 + math.pi / 3) / math.pi + 1 + 1 / 3
    assert pair_gram(cfg, x, y)[0, 1] == pytest.approx(hand, abs=1e-12)
    assert analytic_ntk(cfg, x, y) == pytest.approx(hand, abs=1e-12)


def test_one_layer_diagonal_hand_case():
    # one recursion step at zero angle: S -> S/2 + 1 = 2, Sdot = 1/2,
    # so the kernel value is 2 + 0.5 * 2 = 3
    cfg = NetConfig(2, 1, 4)
    x = np.array([1.0, 1.0])
    assert analytic_ntk(cfg, x, x.copy()) == pytest.approx(3.0, abs=1e-12)
    assert analytic_ntk_diag(cfg, x[None, :])[0] == pytest.approx(3.0, abs=1e-12)


def test_symmetry_exact():
    cfg = NetConfig(3, 2, 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.normal(size=(2, 3))
        assert pair_gram(cfg, x, y)[0, 1] == pair_gram(cfg, y, x)[0, 1]


def test_rotation_invariance():
    cfg = NetConfig(3, 3, 4)
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for _ in range(10):
        x, y = rng.normal(scale=3.0, size=(2, 3))
        assert pair_gram(cfg, q @ x, q @ y)[0, 1] == pytest.approx(
            pair_gram(cfg, x, y)[0, 1], abs=1e-10
        )


def test_correlation_bounded_by_diagonal():
    cfg = NetConfig(2, 3, 4)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = rng.normal(scale=5.0, size=(2, 2))
        k = pair_gram(cfg, x, y)
        assert abs(k[0, 1]) <= np.sqrt(k[0, 0] * k[1, 1]) + 1e-10


def test_diagonal_dominates_quarter_norm():
    # 3-hidden-layer diagonal stays above |x|^2 / 4 out to large scales
    cfg = NetConfig(2, 3, 4)
    rng = np.random.default_rng(3)
    for norm in np.linspace(10, 100, 10):
        d = rng.normal(size=2)
        x = norm * d / np.linalg.norm(d)
        assert analytic_ntk_diag(cfg, x[None, :])[0] >= norm**2 / 4


def test_gram_matches_scalar_and_permutes():
    cfg = NetConfig(2, 2, 4)
    rng = np.random.default_rng(4)
    xs = rng.normal(scale=4.0, size=(5, 2))
    gram = analytic_ntk_gram(cfg, xs)
    for i in range(5):
        for j in range(5):
            assert gram.entries[i, j] == pytest.approx(
                analytic_ntk(cfg, xs[i], xs[j]), abs=1e-12
            )
    diag = analytic_ntk_diag(cfg, xs)
    for i in range(5):
        assert diag[i] == pytest.approx(analytic_ntk(cfg, xs[i], xs[i].copy()), abs=1e-12)
    perm = [3, 1, 4, 0, 2]
    gram_p = analytic_ntk_gram(cfg, xs[perm])
    assert np.allclose(gram_p.entries, gram.entries[np.ix_(perm, perm)], atol=1e-12)


def _full_matrix_gram(cfg, xs):
    # the whole-matrix recursion, re-symmetrized at every layer: an
    # independent reference for the tiled evaluation.  It keeps the clamp
    # of 1 - c^2 at 0 that the library leaves out, which must change no bit
    s = (xs @ xs.T) / cfg.input_dim + 1.0
    s = 0.5 * (s + s.T)
    k = s.copy()
    for _ in range(cfg.hidden_layers):
        diag = np.diag(s)
        norm = np.sqrt(diag[:, None] * diag[None, :])
        c = np.clip(s / norm, -1.0, 1.0)
        theta = np.arccos(c)
        j = np.sqrt(np.maximum(0.0, 1.0 - c**2)) + (np.pi - theta) * c
        s = norm * j / (2 * np.pi) + 1.0
        k = s + (np.pi - theta) / (2 * np.pi) * k
        s = 0.5 * (s + s.T)
        k = 0.5 * (k + k.T)
    return k


# standard deviations of the inputs: at 5 the covariance is mostly x . x',
# at 0.5 mostly the bias term, with correlations near 1
INPUT_SCALES = [5.0, 0.5]
GRAM_CASES = [
    pytest.param(d, n, scale, None, False, id=f"{d}-{n}-scales{i}")
    for d in (1, 2, 5) for n in (1, 2, 7, 64, 300) for i, scale in enumerate(INPUT_SCALES)
] + [
    # one row per tile, with an all-zero input row
    pytest.param(2, 64, INPUT_SCALES[1], 1, True, id="tile1-2-64"),
    # tiles of 100, 150 and 50 rows: a split inside the matrix
    pytest.param(2, 300, INPUT_SCALES[1], 300 * 100 + 7, False, id="tile30007-2-300"),
    # the workload's largest Gram
    pytest.param(1, 544, INPUT_SCALES[0], None, False, id="1-544-scales0"),
]


@pytest.mark.parametrize("d,n,scale,tile_entries,zero_row", GRAM_CASES)
def test_gram_bitwise_equals_full_matrix_recursion(d, n, scale, tile_entries, zero_row,
                                                   monkeypatch):
    if tile_entries is not None:
        monkeypatch.setattr(kernel, "_TILE_ENTRIES", tile_entries)
    cfg = NetConfig(d, 4, 8)
    xs = np.random.default_rng(100 * d + n).normal(scale=scale, size=(n, d))
    if zero_row:
        xs[n // 2] = 0.0
    gram = analytic_ntk_gram(cfg, xs).entries
    assert np.array_equal(gram, _full_matrix_gram(cfg, xs))
    assert np.array_equal(gram, gram.T)


def test_gram_holds_two_arrays_at_its_peak(traced_peak):
    # the tiles are written back into S, so the build holds S and the
    # KernelMatrix's copy of it, not a second Gram buffer besides
    cfg = NetConfig(1, 5, 256)
    xs = np.random.default_rng(544).normal(size=(544, 1))
    _, peak = traced_peak(lambda: analytic_ntk_gram(cfg, xs))
    assert peak <= 2.5 * 544**2 * 8


def test_gram_single_input():
    cfg = NetConfig(2, 2, 4)
    x = np.array([[0.5, -1.0]])
    gram = analytic_ntk_gram(cfg, x)
    assert gram.entries.shape == (1, 1)
    assert gram.entries[0, 0] == pytest.approx(analytic_ntk(cfg, x[0], x[0].copy()))


def test_empirical_kernel_trivial_cases():
    v = np.array([[1.0, 2.0, 2.0]])
    k = KernelMatrix(v @ v.T, jitter=0.0)
    assert k.entries[0, 0] == pytest.approx(9.0)
    dup = np.vstack([v, v])
    k2 = KernelMatrix(dup @ dup.T, jitter=0.0)
    assert np.allclose(k2.entries, 9.0)
    assert np.linalg.matrix_rank(k2.entries) == 1


def test_empirical_gram_equals_explicit_features():
    cfg = NetConfig(2, 3, 16)
    p = init_params(cfg, 0)
    rng = np.random.default_rng(5)
    xs = rng.normal(scale=5.0, size=(7, 2))
    sweep = Sweep(cfg, p, xs)
    f = np.stack([sweep.vjp(unit) for unit in np.eye(len(xs))])
    layerwise = empirical_ntk_gram(cfg, p, xs)
    assert np.allclose(f @ f.T, layerwise.entries, atol=1e-10)
    assert np.allclose(
        empirical_ntk_diag(cfg, p, xs), np.diag(layerwise.entries), atol=1e-10
    )


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, 1023, 1024, 1025, 10000])
def test_empirical_diag_row_blocks_are_bitwise_one_sweep(n, width):
    # the diagonal sweeps its inputs block by block; every entry must be the
    # one the same per-layer sums over a single sweep of all rows give
    cfg = NetConfig(2, 2, width)
    rng = np.random.default_rng(n)
    p = init_params(cfg, width)
    x = rng.normal(scale=3.0, size=(n, 2))
    whole = Sweep(cfg, p, x)
    rows = lambda a, b: np.einsum("ij,ij->i", a, b)
    expected = np.zeros(n)
    for l, delta in enumerate(whole.deltas):
        dd = rows(delta, delta)
        expected += (1.0 / (2 if l == 0 else width)) * dd * rows(whole.acts[l], whole.acts[l]) + dd
    expected += (1.0 / width) * rows(whole.acts[-1], whole.acts[-1]) + 1.0
    assert np.array_equal(empirical_ntk_diag(cfg, p, x), expected)


def test_width_convergence_to_analytic():
    # empirical Gram approaches the analytic kernel as the width grows
    rng = np.random.default_rng(3)
    xs = rng.normal(scale=5.0, size=(16, 2))
    errs = []
    for width in (64, 256, 1024, 4096):
        cfg = NetConfig(2, 3, width)
        target = analytic_ntk_gram(cfg, xs).entries
        rel = []
        for seed in range(5):
            g = empirical_ntk_gram(cfg, init_params(cfg, seed), xs).entries
            rel.append(np.linalg.norm(g - target) / np.linalg.norm(target))
        errs.append(np.mean(rel))
    assert all(np.diff(errs) < 0)
    assert errs[-1] <= 0.05
