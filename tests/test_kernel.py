import numpy as np
import pytest

from ntkdistill.kernel import (
    analytic_ntk,
    analytic_ntk_diag,
    analytic_ntk_gram,
    empirical_kernel,
    empirical_ntk_diag,
    empirical_ntk_gram,
    save_kernel_csv,
)
from ntkdistill.network import NetConfig, _Cache, features, init_params


def test_base_covariance_hand_case():
    # first-layer covariance of x = x' = (1, 1) at unit scales is 2
    cfg = NetConfig(2, 1, 4)
    x = np.array([1.0, 1.0])
    sw, sb = cfg.weight_scale, cfg.bias_scale
    base = sw**2 * (x @ x) / cfg.input_dim + sb**2
    assert base == pytest.approx(2.0, abs=1e-12)


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
        assert analytic_ntk(cfg, x, y) == analytic_ntk(cfg, y, x)


def test_rotation_invariance():
    cfg = NetConfig(3, 3, 4)
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for _ in range(10):
        x, y = rng.normal(scale=3.0, size=(2, 3))
        assert analytic_ntk(cfg, q @ x, q @ y) == pytest.approx(
            analytic_ntk(cfg, x, y), abs=1e-10
        )


def test_correlation_bounded_by_diagonal():
    cfg = NetConfig(2, 3, 4)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = rng.normal(scale=5.0, size=(2, 2))
        cross = analytic_ntk(cfg, x, y)
        bound = np.sqrt(analytic_ntk(cfg, x, x.copy()) * analytic_ntk(cfg, y, y.copy()))
        assert abs(cross) <= bound + 1e-10


def test_diagonal_dominates_quarter_norm():
    # 3-hidden-layer diagonal stays above |x|^2 / 4 out to large scales
    cfg = NetConfig(2, 3, 4)
    rng = np.random.default_rng(3)
    for norm in np.linspace(10, 100, 10):
        d = rng.normal(size=2)
        x = norm * d / np.linalg.norm(d)
        assert analytic_ntk(cfg, x, x.copy()) >= norm**2 / 4


def test_gram_matches_scalar_and_permutes():
    cfg = NetConfig(2, 2, 4)
    rng = np.random.default_rng(4)
    xs = rng.normal(scale=4.0, size=(5, 2))
    gram = analytic_ntk_gram(cfg, xs, jitter=0.0)
    for i in range(5):
        for j in range(5):
            assert gram.entries[i, j] == pytest.approx(
                analytic_ntk(cfg, xs[i], xs[j]), abs=1e-12
            )
    perm = [3, 1, 4, 0, 2]
    gram_p = analytic_ntk_gram(cfg, xs[perm], jitter=0.0)
    assert np.allclose(gram_p.entries, gram.entries[np.ix_(perm, perm)], atol=1e-12)


def _full_matrix_gram(cfg, xs):
    # the whole-matrix recursion, re-symmetrized at every layer: an
    # independent reference for the packed upper-triangle evaluation
    sw, sb = cfg.weight_scale, cfg.bias_scale
    s = sw**2 * (xs @ xs.T) / cfg.input_dim + sb**2
    s = 0.5 * (s + s.T)
    k = s.copy()
    for _ in range(cfg.hidden_layers):
        diag = np.diag(s)
        norm = np.sqrt(diag[:, None] * diag[None, :])
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(norm > 0, s / np.where(norm > 0, norm, 1.0), 1.0)
        c = np.clip(c, -1.0, 1.0)
        theta = np.arccos(c)
        j = np.sqrt(np.maximum(0.0, 1.0 - c**2)) + (np.pi - theta) * c
        s = sw**2 * norm * j / (2 * np.pi) + sb**2
        k = s + sw**2 * (np.pi - theta) / (2 * np.pi) * k
        s = 0.5 * (s + s.T)
        k = 0.5 * (k + k.T)
    return k


@pytest.mark.parametrize("scales", [(1.0, 1.0), (1.3, 0.4)])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_gram_bitwise_equals_full_matrix_recursion(d, n, scales):
    cfg = NetConfig(d, 4, 8, weight_scale=scales[0], bias_scale=scales[1])
    xs = np.random.default_rng(100 * d + n).normal(scale=5.0, size=(n, d))
    gram = analytic_ntk_gram(cfg, xs, jitter=0.0).entries
    assert np.array_equal(gram, _full_matrix_gram(cfg, xs))
    assert np.array_equal(gram, gram.T)


def test_gram_single_input():
    cfg = NetConfig(2, 2, 4)
    x = np.array([[0.5, -1.0]])
    gram = analytic_ntk_gram(cfg, x, jitter=0.0)
    assert gram.entries.shape == (1, 1)
    assert gram.entries[0, 0] == pytest.approx(analytic_ntk(cfg, x[0], x[0].copy()))


def test_empirical_kernel_trivial_cases():
    v = np.array([[1.0, 2.0, 2.0]])
    k = empirical_kernel(v, jitter=0.0)
    assert k.entries[0, 0] == pytest.approx(9.0)
    dup = np.vstack([v, v])
    k2 = empirical_kernel(dup, jitter=0.0)
    assert np.allclose(k2.entries, 9.0)
    assert np.linalg.matrix_rank(k2.entries) == 1


def test_empirical_gram_equals_explicit_features():
    cfg = NetConfig(2, 3, 16)
    p = init_params(cfg, 0)
    rng = np.random.default_rng(5)
    xs = rng.normal(scale=5.0, size=(7, 2))
    f = features(cfg, p, xs)
    direct = empirical_kernel(f, jitter=0.0)
    layerwise = empirical_ntk_gram(cfg, p, xs, jitter=0.0)
    assert np.allclose(direct.entries, layerwise.entries, atol=1e-10)
    assert np.allclose(
        empirical_ntk_diag(cfg, p, xs), np.diag(layerwise.entries), atol=1e-10
    )


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 10000])
def test_empirical_diag_row_blocks_are_bitwise_one_sweep(n, width):
    # the diagonal sweeps its inputs block by block; every entry must be the
    # one the same per-layer sums over a single sweep of all rows give
    cfg = NetConfig(2, 2, width)
    rng = np.random.default_rng(n)
    p = init_params(cfg, width)
    x = rng.normal(scale=3.0, size=(n, 2))
    whole = _Cache(cfg, p, x)
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
        target = analytic_ntk_gram(cfg, xs, jitter=0.0).entries
        rel = []
        for seed in range(5):
            g = empirical_ntk_gram(cfg, init_params(cfg, seed), xs, jitter=0.0).entries
            rel.append(np.linalg.norm(g - target) / np.linalg.norm(target))
        errs.append(np.mean(rel))
    assert all(np.diff(errs) < 0)
    assert errs[-1] <= 0.05


def test_negative_variance_guard():
    cfg = NetConfig(2, 1, 4, bias_scale=0.0)
    x = np.zeros((2, 2))
    gram = analytic_ntk_gram(cfg, x, jitter=0.0)  # zero inputs, zero kernel
    assert np.allclose(gram.entries, 0.0)


def test_kernel_csv_dump(tmp_path):
    cfg = NetConfig(2, 1, 4)
    xs = np.random.default_rng(0).normal(size=(3, 2))
    gram = analytic_ntk_gram(cfg, xs)
    path = tmp_path / "gram.csv"
    save_kernel_csv(gram, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.allclose(back, gram.entries, atol=1e-12)
