import math
import tracemalloc

import numpy as np
import pytest

from bsei.gamma import (
    _GS_DROP_REL,
    FiniteRankOperator,
    _orthonormalize,
    gamma_norm,
    ito_isomorphism_report,
    kw_integral,
)
from bsei.paths import TimeGrid, from_function, simulate_brownian


# --------------------------------------------------------------- gamma norm

def test_indicator_identity_against_direct_oracle():
    # brute-force oracle: E ||gamma 1_A (x) e|| reduces to sqrt(measure) |e|
    # via the one-term expansion; replicate with an explicit Gaussian average
    rng = np.random.default_rng(0)
    mask = rng.random(40) < 0.5
    e = np.array([1.0, -2.0, 2.0])
    window = (0.5, 2.5)
    op = FiniteRankOperator.indicator(window, mask, e)
    measure = mask.mean() * (window[1] - window[0])
    expect = np.sqrt(measure) * np.linalg.norm(e)
    est = gamma_norm(op, n_gauss=200_000, seed=1)
    assert est.exact == pytest.approx(expect, abs=1e-12)
    assert est.monte_carlo == pytest.approx(expect, rel=0.02)
    draws = np.random.default_rng(2).standard_normal(100_000)
    oracle = np.sqrt(np.mean(draws**2 * measure * (e @ e)))
    assert est.monte_carlo == pytest.approx(oracle, rel=0.02)


def test_zero_operator():
    op = FiniteRankOperator((0.0, 1.0), np.zeros((1, 8)), np.ones((1, 2)))
    est = gamma_norm(op, 100, seed=0)
    assert est.monte_carlo == 0.0 and est.exact == 0.0
    assert est.dropped_terms == 1


def test_two_orthonormal_terms():
    h = np.zeros((2, 8))
    h[0, :4] = np.sqrt(2.0)   # L2(0,1) norm one on cells of width 1/8
    h[1, 4:] = np.sqrt(2.0)
    e = np.array([[3.0, 0.0], [0.0, 4.0]])
    est = gamma_norm(FiniteRankOperator((0.0, 1.0), h, e), 50_000, seed=3)
    # E gamma_i gamma_j = delta_ij expands the square to |e1|^2 + |e2|^2
    assert est.exact == pytest.approx(5.0, abs=1e-12)
    assert est.monte_carlo == pytest.approx(5.0, rel=0.03)


def test_mc_converges_to_closed_form():
    rng = np.random.default_rng(4)
    op = FiniteRankOperator((0.0, 1.0), rng.normal(size=(3, 16)),
                            rng.normal(size=(3, 2)))
    est = gamma_norm(op, 400_000, seed=5)
    assert abs(est.monte_carlo - est.exact) <= 3.0 * est.standard_error


def test_dependent_terms_dropped():
    h = np.ones((2, 8))
    h[1] *= -3.0  # colinear with the first
    est = gamma_norm(FiniteRankOperator((0.0, 1.0), h, np.eye(2)), 100, seed=6)
    assert est.dropped_terms == 1
    # operator equals 1 (x) (e1 - 3 e2): norm sqrt(1 + 9)
    assert est.exact == pytest.approx(np.sqrt(10.0), abs=1e-12)


def test_many_terms_match_the_gram_closed_form():
    # 300 terms, 60 of them combinations of others: the squared norm is
    # trace(E^T G E) with G the Gram matrix of the factors, w h_i . h_j
    rng = np.random.default_rng(8)
    h = rng.normal(size=(240, 400))
    h = np.vstack([h, rng.normal(size=(60, 240)) @ h])[rng.permutation(300)]
    e = rng.normal(size=(300, 3))
    op = FiniteRankOperator((0.0, 2.0), h, e)
    est = gamma_norm(op, 10, seed=0)
    gram = op.cell_width * (h @ h.T)
    assert est.dropped_terms == 60
    assert est.exact == pytest.approx(np.sqrt(np.trace(e.T @ gram @ e)), rel=1e-10)



def test_more_terms_than_cells_keep_one_row_per_cell():
    # at most n_cells factors are independent, so the Gram-Schmidt arrays
    # hold that many rows: 5,000 one-cell terms trace well under 16 MiB
    op = FiniteRankOperator((0.0, 1.0), np.ones((5000, 1)), np.ones((5000, 1)))
    tracemalloc.start()
    try:
        est = gamma_norm(op, 1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert (est.exact, est.dropped_terms) == (5000.0, 4999)
    rng = np.random.default_rng(9)
    h, e = rng.normal(size=(50, 8)), rng.normal(size=(50, 2))
    est = gamma_norm(FiniteRankOperator((0.0, 1.0), h, e), 10, seed=0)
    gram = (h @ h.T) / 8
    assert est.dropped_terms == 42
    assert est.exact == pytest.approx(np.sqrt(np.trace(e.T @ gram @ e)), rel=1e-10)


def _orthonormalize_term_by_term(op):
    # the reference: classical Gram-Schmidt with one reorthogonalisation for
    # every term, also after the accepted q's span all the cells
    w, (k, cells) = op.cell_width, op.h.shape
    r, qs, n = np.zeros((cells, k)), np.empty((cells, cells)), 0
    for j in range(k):
        v = op.h[j].copy()
        orig = np.sqrt(w * (v @ v))
        for _ in range(2):
            c = w * (qs[:n] @ v)
            r[:n, j] += c
            v -= c @ qs[:n]
        nrm = np.sqrt(w * (v @ v))
        if nrm < _GS_DROP_REL * max(orig, 1e-300):
            continue
        qs[n], r[n, j] = v / nrm, nrm
        n += 1
    return r[:n] @ op.e, k - n


@pytest.mark.parametrize("k, cells, dependent", [(2000, 1, 0), (500, 8, 0), (300, 40, 30)])
def test_terms_after_a_full_basis_are_projected_in_one_product(k, cells, dependent):
    # once the q's span the cells, one product projects the remaining terms:
    # the same drops as the term-by-term loop and the same norm to 1e-12
    rng = np.random.default_rng(k + cells)
    h = rng.normal(size=(k - dependent, cells))
    h = np.vstack([h, rng.normal(size=(dependent, k - dependent)) @ h])
    op = FiniteRankOperator((0.0, 1.5), h[rng.permutation(k)], rng.normal(size=(k, 3)))
    got, dropped = _orthonormalize(op)
    want, want_dropped = _orthonormalize_term_by_term(op)
    assert dropped == want_dropped == k - cells
    exact, want_exact = np.sqrt(np.sum(got**2)), np.sqrt(np.sum(want**2))
    assert exact == pytest.approx(want_exact, rel=1e-12)


@pytest.mark.parametrize("n_gauss", [0, 1])
def test_gamma_norm_needs_two_draws(n_gauss):
    # one draw has no standard error: it used to be reported as 0.0
    op = FiniteRankOperator((0.0, 1.0), [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        gamma_norm(op, n_gauss, seed=0)


@pytest.mark.parametrize("k", [100, 0, -100, -500, -535, -537])
def test_gamma_norm_scales_bitwise_with_the_window(k):
    # the window [0, 4^k] has 2^k times the norms of [0, 1], subnormal widths
    # included: its cell width is measured in a power-of-two unit too
    rng = np.random.default_rng(17)
    h, e = rng.normal(size=(3, 7)), rng.normal(size=(3, 2))
    want = gamma_norm(FiniteRankOperator((0.0, 1.0), h, e), 1000, seed=3)
    got = gamma_norm(FiniteRankOperator((0.0, math.ldexp(1.0, 2 * k)), h, e), 1000,
                     seed=3)
    for name in ("exact", "monte_carlo", "standard_error"):
        assert getattr(got, name) == math.ldexp(getattr(want, name), k), name


def test_norm_invariant_under_orthogonal_remix():
    rng = np.random.default_rng(7)
    h = np.linalg.qr(rng.normal(size=(16, 3)))[0].T * np.sqrt(16.0)  # orthonormal rows
    e = rng.normal(size=(3, 4))
    base = gamma_norm(FiniteRankOperator((0.0, 1.0), h, e), 10, seed=0).exact
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    remixed = gamma_norm(FiniteRankOperator((0.0, 1.0), q @ h, q @ e), 10, seed=0).exact
    assert remixed == pytest.approx(base, abs=1e-10)


# ------------------------------------------------------------ window integral

def test_kw_integral_constant_and_ramp():
    grid = TimeGrid(1.0, 200)
    e = np.array([1.0, 2.0])
    const = np.tile(e, (201, 1))
    assert np.allclose(kw_integral(const, grid, 0.0, 1.0), e, atol=1e-12)
    ramp = grid.nodes[:, None] * e
    got = kw_integral(ramp, grid, 0.0, 1.0)
    # left-Riemann oracle of int u du: dt^2 * sum_{k<N} k
    oracle = grid.dt**2 * sum(range(200)) * e
    assert np.allclose(got, oracle, atol=1e-12)
    assert np.allclose(got, 0.5 * e, atol=0.01)


def test_kw_integral_chasles():
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(8)
    f = rng.normal(size=(65, 3))
    whole = kw_integral(f, grid, 0.0, 1.0)
    split = kw_integral(f, grid, 0.0, 0.375) + kw_integral(f, grid, 0.375, 1.0)
    assert np.allclose(whole, split, atol=1e-12)


def test_kw_integral_norm_bound():
    grid = TimeGrid(2.0, 128)
    rng = np.random.default_rng(9)
    f = rng.normal(size=(129, 2))
    l2 = np.sqrt(grid.dt * np.sum(f[:-1] ** 2))
    for (s, t) in [(0.0, 2.0), (0.5, 1.0), (0.0, 0.03125)]:
        val = np.linalg.norm(kw_integral(f, grid, s, t))
        assert val <= np.sqrt(t - s) * l2 * (1.0 + 1e-12)


def test_kw_integral_rejects_reversed_window():
    grid = TimeGrid(1.0, 8)
    f = np.ones((9, 1))
    with pytest.raises(ValueError):
        kw_integral(f, grid, 0.5, 0.25)


def test_pushthrough_identity():
    grid = TimeGrid(1.0, 32)
    rng = np.random.default_rng(10)
    f = grid.nodes[:, None] * np.array([1.0, -1.0])
    # integral(B f) = B integral(f): linear quadrature agrees to rounding
    for b in (np.eye(2), np.zeros((2, 2)), rng.normal(size=(2, 2))):
        lhs = kw_integral(f @ b.T, grid, 0.0, 1.0)
        assert np.abs(lhs - b @ kw_integral(f, grid, 0.0, 1.0)).max() <= 1e-12
    b = rng.normal(size=(2, 2))
    lhs = kw_integral(f @ b.T, grid, 0.0, 1.0)
    left_riemann_half = grid.dt**2 * sum(range(32))
    assert np.allclose(lhs, b @ np.array([1.0, -1.0]) * left_riemann_half)


# ------------------------------------------------------------- isomorphism

def test_isometry_constant_integrand():
    grid = TimeGrid(1.0, 16)
    m = 100_000
    bm = simulate_brownian(grid, m, seed=11)
    phi = from_function(bm, lambda k, w: np.tile([1.0], (m, 1)), 1)
    rep = ito_isomorphism_report(phi, bm, 2.0)
    assert abs(rep.ratio - 1.0) <= 3.0 * rep.standard_error
    assert rep.denominator == pytest.approx(1.0)


def test_isometry_adapted_brownian_integrand():
    grid = TimeGrid(1.0, 32)
    bm = simulate_brownian(grid, 100_000, seed=12)
    phi = from_function(bm, lambda k, w: w[:, None], 1)
    rep = ito_isomorphism_report(phi, bm, 2.0)
    assert abs(rep.ratio - 1.0) <= 3.0 * rep.standard_error


def test_isomorphism_degenerate_integrand_flagged():
    grid = TimeGrid(1.0, 8)
    bm = simulate_brownian(grid, 100, seed=13)
    phi = np.zeros((9, 100, 2))
    rep = ito_isomorphism_report(phi, bm, 2.0)
    assert rep.degenerate and rep.ratio == 1.0


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 1e200, 1e-200],
                         ids=["2^600", "2^-600", "1e200", "1e-200"])
def test_isomorphism_report_is_scale_invariant(scale):
    # phi is taken in units of the power of two above max |phi|, so no square
    # or p-th power leaves the float range at any of these scales
    grid = TimeGrid(1.0, 32)
    bm = simulate_brownian(grid, 20_000, seed=3)
    phi = from_function(bm, lambda k, w: np.column_stack([w, 0.5 * w]), 2)
    base = ito_isomorphism_report(phi, bm, 2.0)
    rep = ito_isomorphism_report(scale * phi, bm, 2.0)
    assert rep.ratio == pytest.approx(base.ratio, rel=1e-14)
    assert rep.standard_error == pytest.approx(base.standard_error, rel=1e-12)
    assert rep.numerator == pytest.approx(scale * base.numerator, rel=1e-14)
    assert rep.denominator == pytest.approx(scale * base.denominator, rel=1e-14)
    if math.log2(scale).is_integer():  # an exact shift of every value
        assert (rep.ratio, rep.standard_error) == (base.ratio, base.standard_error)
        assert rep.denominator == math.ldexp(base.denominator, round(math.log2(scale)))


def test_isomorphism_other_exponents_stable_across_seeds():
    grid = TimeGrid(1.0, 16)
    for p in (1.5, 3.0):
        ratios = []
        for seed in (1, 2):
            bm = simulate_brownian(grid, 50_000, seed=seed)
            phi = from_function(bm, lambda k, w: w[:, None], 1)
            ratios.append(ito_isomorphism_report(phi, bm, p).ratio)
        assert np.isfinite(ratios).all()
        assert abs(ratios[0] - ratios[1]) <= 0.05 * ratios[0]
