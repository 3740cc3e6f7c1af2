import numpy as np
import pytest

from bsei.paths import TimeGrid
from bsei.semigroup import SemigroupCache, gamma_bound, matrix_exponential


def expm_reference(a, order=30):
    """Independent oracle: Taylor series with scaling and squaring."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=1).max()
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 2)
    b = a / 2**s
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, order + 1):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_matrix_exponential_against_taylor_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.integers(1, 9)
        a = rng.normal(size=(d, d))
        a -= (max(np.linalg.eigvals(a).real, default=0.0) + 0.2) * np.eye(d)  # stable
        got = matrix_exponential(a)
        ref = expm_reference(a)
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_matrix_exponential_symmetric_branch():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5))
    a = 0.5 * (m + m.T)
    assert np.allclose(matrix_exponential(a), expm_reference(a), atol=1e-10)


def test_cache_invariants_and_apply():
    a = np.array([[-1.0, 0.4], [0.0, -0.5]])
    cache = SemigroupCache.build(a, 0.125, 16)
    assert np.abs(cache.powers[0] - np.eye(2)).max() <= 1e-12
    assert cache.powers.shape == (17, 2, 2)
    x = np.array([1.0, -2.0])
    assert np.allclose(cache.powers[0] @ x, x)


def test_apply_scalar_decay():
    cache = SemigroupCache.build(-np.eye(3), 0.1, 10)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(cache.powers[10] @ x, np.exp(-1.0) * x, rtol=1e-12)


def test_apply_zero_generator():
    cache = SemigroupCache.build(np.zeros((2, 2)), 0.25, 8)
    x = np.array([3.0, -1.0])
    for k in (0, 2, 8):
        assert np.array_equal(cache.powers[k] @ x, x)


def test_apply_rejects_off_grid_times():
    # the cache holds the powers of the grid nodes alone: a time maps to a
    # power through its node index, which refuses a time off the grid
    cache = SemigroupCache.build(np.zeros((2, 2)), 0.25, 4)
    grid = TimeGrid(cache.step * cache.n_steps, cache.n_steps)
    assert grid.node_index(0.75) == 3
    with pytest.raises(ValueError):
        grid.node_index(0.3)
    with pytest.raises(ValueError):
        grid.node_index(1.25)  # beyond the cached range


def test_semigroup_law_on_grid():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    a -= (max(np.linalg.eigvals(a).real) + 0.1) * np.eye(4)
    cache = SemigroupCache.build(a, 0.0625, 32)
    x = rng.normal(size=4)
    for i, j in [(4, 8), (1, 16), (14, 15)]:  # s = i dt, t = j dt
        lhs = cache.powers[i] @ (cache.powers[j] @ x)
        rhs = cache.powers[i + j] @ x
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


def test_gamma_bound_examples():
    assert gamma_bound(SemigroupCache.build(np.zeros((2, 2)), 0.25, 4)) == 1.0
    # monotone decay: the maximum sits at t = 0
    assert gamma_bound(SemigroupCache.build(-np.eye(2), 0.1, 10)) == pytest.approx(1.0)
    # growth: the maximum sits at t = T
    a = 0.7
    cache = SemigroupCache.build(a * np.eye(1), 0.1, 10)
    assert gamma_bound(cache) == pytest.approx(np.exp(a), rel=1e-10)


def test_apply_batched_states():
    a = np.array([[-0.3, 0.1], [0.2, -0.6]])
    cache = SemigroupCache.build(a, 0.5, 4)
    xs = np.random.default_rng(3).normal(size=(7, 2))
    batched = xs @ cache.powers[2].T
    for i in range(7):
        assert np.allclose(batched[i], cache.powers[2] @ xs[i])


def test_kalton_weis_window_bound():
    # discrete form of the window estimate: the semigroup-weighted Riemann
    # sum over [t1, t2) is controlled by sqrt(t2 - t1) gamma(S) ||f||_{L2}
    rng = np.random.default_rng(4)
    a = np.array([[-1.0, 0.5], [0.0, -0.25]])
    n = 64
    dt = 1.0 / n
    cache = SemigroupCache.build(a, dt, n)
    gs = gamma_bound(cache)
    f = rng.normal(size=(n, 2))
    for (k1, k2) in [(0, n), (16, 48), (8, 16)]:
        total = np.zeros(2)
        for k in range(k1, k2):
            total += dt * cache.powers[k - k1] @ f[k]
        l2_full = np.sqrt(dt * np.sum(f**2))
        bound = np.sqrt((k2 - k1) * dt) * gs * l2_full
        assert np.linalg.norm(total) <= bound * (1.0 + 1e-12)


def test_build_validation():
    with pytest.raises(ValueError):
        SemigroupCache.build(np.zeros((2, 3)), 0.1, 4)
    with pytest.raises(ValueError):
        SemigroupCache.build(np.full((2, 2), np.nan), 0.1, 4)
    with pytest.raises(ValueError):
        SemigroupCache.build(np.zeros((2, 2)), -0.1, 4)
