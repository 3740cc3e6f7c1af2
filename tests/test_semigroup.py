import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert gamma_bound(np.zeros((2, 2)), 1.0) == 1.0
    # monotone decay: the supremum sits at t = 0
    assert gamma_bound(-np.eye(2), 1.0) == 1.0
    # growth: the supremum sits at t = T
    assert gamma_bound(0.7 * np.eye(1), 1.0) == pytest.approx(np.exp(0.7), rel=1e-15)
    # a rotation is an isometry for every t: mu = 0 exactly
    assert gamma_bound(np.array([[0.0, 1.0], [-1.0, 0.0]]), 5.0) == 1.0


def test_gamma_bound_overflow_is_infinite():
    assert gamma_bound(np.array([[800.0]]), 1.0) == math.inf
    # entries near the float range: (A + A^T)/2 is formed without overflow,
    # where a sum first would leave inf and an eigenvalue of nan
    assert gamma_bound(np.diag([-1.7e308, 1.0]), 1.0) == pytest.approx(math.e, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), horizon=st.floats(0.1, 2.0))
def test_gamma_bound_dominates_the_sampled_semigroup_norm(data, d, horizon):
    # the certificate: no node of a fine grid on [0, T] sees a larger norm
    a = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d,
                                    max_size=d * d))).reshape(d, d)
    sampled = max(np.linalg.norm(matrix_exponential(t * a), 2)
                  for t in np.linspace(0.0, horizon, 513))
    assert gamma_bound(a, horizon) >= (1.0 - 1e-12) * sampled


def test_gamma_bound_is_exact_for_symmetric_generators():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            m = rng.uniform(-2.0, 2.0, size=(d, d))
            a, horizon = 0.5 * (m + m.T), rng.uniform(0.1, 2.0)
            norm = max(1.0, np.linalg.norm(matrix_exponential(horizon * a), 2))
            assert gamma_bound(a, horizon) == pytest.approx(norm, rel=1e-12)


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
    powers = [matrix_exponential(k * dt * a) for k in range(n)]
    gs = gamma_bound(a, 1.0)
    f = rng.normal(size=(n, 2))
    for (k1, k2) in [(0, n), (16, 48), (8, 16)]:
        total = np.zeros(2)
        for k in range(k1, k2):
            total += dt * powers[k - k1] @ f[k]
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
