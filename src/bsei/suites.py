"""Fixed-seed validation suites behind the ``validate`` CLI subcommand.

Each suite replays the invariant checks of one module with pinned seeds and
returns a machine-readable report: a list of checks with observed values
and bounds, plus an overall pass flag.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .gamma import FiniteRankOperator, gamma_norm, ito_isomorphism_report, kw_integral
from .geometry import Ball, Polytope, Singleton
from .paths import TimeGrid, from_function, martingale_representation, simulate_brownian


def _check(report: list, name: str, value: float, bound: float,
           larger_ok: bool = False) -> None:
    passed = value >= bound if larger_ok else value <= bound
    report.append({
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "passed": bool(passed),
    })


def _random_set(rng: np.random.Generator, dim: int):
    kind = rng.integers(3)
    if kind == 0:
        return Singleton(rng.normal(size=dim))
    if kind == 1:
        return Ball(rng.normal(size=dim), float(abs(rng.normal())))
    return Polytope(rng.normal(size=(int(rng.integers(1, 7)), dim)))


def geometry_suite(seed: int = 2024, n_pairs: int = 200) -> dict:
    rng = np.random.default_rng(seed)
    checks: list = []
    tol = 2.0 * geometry.CLOSED_FORM_TOL

    sym_gap = tri_gap = 0.0
    for _ in range(n_pairs):
        a, b, c = (_random_set(rng, 2) for _ in range(3))
        dab, dba = geometry.hausdorff(a, b), geometry.hausdorff(b, a)
        sym_gap = max(sym_gap, abs(dab - dba))
        dac = geometry.hausdorff(a, c)
        dbc = geometry.hausdorff(b, c)
        tri_gap = max(tri_gap, dac - (dab + dbc))
    _check(checks, "hausdorff symmetry gap", sym_gap, tol)
    _check(checks, "hausdorff triangle violation", tri_gap, tol)

    bb_gap = 0.0
    for _ in range(n_pairs):
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        r1, r2 = abs(rng.normal()), abs(rng.normal())
        got = geometry.hausdorff(Ball(c1, r1), Ball(c2, r2))
        bb_gap = max(bb_gap, abs(got - (np.linalg.norm(c1 - c2) + abs(r1 - r2))))
    _check(checks, "ball-ball closed form gap", bb_gap, 1e-9)

    opt_gap = idem_gap = 0.0
    for _ in range(20):
        poly = Polytope(rng.normal(size=(6, 2)))
        x = 2.0 * rng.normal(size=2)
        proj = geometry.project(x, poly)
        idem_gap = max(idem_gap, float(np.linalg.norm(
            geometry.project(proj, poly) - proj)))
        w = rng.dirichlet(np.ones(6), size=50)
        competitors = w @ poly.vertices
        best = min(np.linalg.norm(competitors - x, axis=1))
        opt_gap = max(opt_gap, float(np.linalg.norm(proj - x)) - best)
    _check(checks, "projection idempotence gap", idem_gap, geometry.CLOSED_FORM_TOL)
    _check(checks, "projection optimality gap", opt_gap, geometry.CLOSED_FORM_TOL)

    # every value of an affine G is a translate of one set, so this identity
    # makes max(||a_y||, ||a_z||) its exact Lipschitz constant
    shift_gap = 0.0
    for _ in range(n_pairs):
        s = _random_set(rng, 2)
        c1, c2 = rng.normal(size=(2, 2))
        got = geometry.hausdorff(s.translate(c1), s.translate(c2))
        shift_gap = max(shift_gap, abs(got - np.linalg.norm(c1 - c2)))
    _check(checks, "translate distance vs shift length gap", shift_gap, tol)
    return _finish("geometry", checks)


def gamma_suite(seed: int = 2024, n_gauss: int = 100_000) -> dict:
    rng = np.random.default_rng(seed)
    checks: list = []
    worst_rel = worst_exact = 0.0
    indicator_value = None
    for i in range(5):
        mask = rng.random(32) < rng.uniform(0.2, 0.8)
        if not mask.any():
            mask[0] = True
        e = rng.normal(size=3)
        op = FiniteRankOperator.indicator((0.0, 1.0), mask, e)
        est = gamma_norm(op, n_gauss, seed + i)
        expect = np.sqrt(mask.mean()) * np.linalg.norm(e)
        worst_rel = max(worst_rel, abs(est.monte_carlo - expect) / expect)
        worst_exact = max(worst_exact, abs(est.exact - expect))
        if indicator_value is None:
            indicator_value = est.monte_carlo
    _check(checks, "indicator gamma-norm MC relative error", worst_rel, 0.02)
    _check(checks, "indicator gamma-norm closed-form gap", worst_exact, 1e-12)
    checks.append({"name": "indicator gamma-norm sample value",
                   "value": float(indicator_value), "bound": None, "passed": True})

    # norm invariance under orthogonal remixing of the scalar factors
    h = np.zeros((2, 8))
    h[0, :4] = np.sqrt(2.0)
    h[1, 4:] = np.sqrt(2.0)
    e = rng.normal(size=(2, 3))
    base = gamma_norm(FiniteRankOperator((0.0, 1.0), h, e), n_gauss, seed).exact
    theta = 0.77
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    mixed = gamma_norm(FiniteRankOperator((0.0, 1.0), q @ h, q @ e), n_gauss,
                       seed).exact
    _check(checks, "orthogonal remix invariance gap", abs(base - mixed), 1e-10)

    grid = TimeGrid(1.0, 128)
    f = np.sin(3.0 * grid.nodes)[:, None] * rng.normal(size=3)
    worst = 0.0
    for (s, t) in [(0.0, 0.5), (0.25, 0.75), (0.0, 1.0)]:
        val = np.linalg.norm(kw_integral(f, grid, s, t))
        l2 = np.sqrt(grid.dt * np.sum(f[:-1] ** 2))
        worst = max(worst, val - np.sqrt(t - s) * l2)
    _check(checks, "window integral norm bound violation", worst, 0.0)
    return _finish("gamma", checks)


def ito_suite(seed: int = 2024, n_paths: int = 100_000) -> dict:
    checks: list = []
    grid = TimeGrid(1.0, 32)
    bm = simulate_brownian(grid, n_paths, seed)
    integrands = {
        "constant": lambda k, w: np.column_stack([np.ones(n_paths), -np.ones(n_paths)]),
        "brownian": lambda k, w: np.column_stack([w, 0.5 * w]),
        "sign": lambda k, w: np.column_stack([np.sign(w), np.ones(n_paths)]),
        "deterministic ramp": lambda k, w: np.column_stack(
            [np.full(n_paths, grid.nodes[k]), np.ones(n_paths)]),
        "quadratic": lambda k, w: np.column_stack([w**2 - grid.nodes[k], w]),
    }
    for name, fn in integrands.items():
        phi = from_function(bm, fn, 2)
        rep = ito_isomorphism_report(phi, bm, 2.0)
        _check(checks, f"p=2 isometry ratio deviation ({name})",
               abs(rep.ratio - 1.0), 3.0 * rep.standard_error)
    for p in (1.5, 3.0):
        phi = from_function(bm, integrands["brownian"], 2)
        rep = ito_isomorphism_report(phi, bm, p)
        checks.append({"name": f"p={p} isomorphism ratio (reported)",
                       "value": float(rep.ratio), "bound": None, "passed": True})
    return _finish("ito", checks)


def representation_suite(seed: int = 2024, n_paths: int = 10_000) -> dict:
    checks: list = []
    grid = TimeGrid(1.0, 24)
    bm = simulate_brownian(grid, n_paths, seed)
    e = np.array([1.0, -1.0]) / np.sqrt(2.0)
    g = from_function(bm, lambda k, w: w[:, None] * e, 2)
    rep = martingale_representation(g, bm, basis_degree=1)
    _check(checks, "brownian reconstruction residual", float(rep.residuals.max()),
           3.0 / np.sqrt(n_paths))
    _check(checks, "brownian mean part", float(np.abs(rep.mean_part).max()),
           4.0 / np.sqrt(n_paths))
    lower_ok = all(t.shape[0] == u for u, t in enumerate(rep.taus))
    checks.append({"name": "kernel strictly lower-triangular", "value": lower_ok,
                   "bound": True, "passed": bool(lower_ok)})

    gd = from_function(bm, lambda k, w: np.tile([2.0, float(k)], (n_paths, 1)), 2)
    repd = martingale_representation(gd, bm, basis_degree=1)
    tau_max = max((float(np.abs(t).max()) if t.size else 0.0)
                  for t in repd.taus)
    _check(checks, "deterministic source kernel magnitude", tau_max, 1e-10)
    _check(checks, "deterministic source residual", float(repd.residuals.max()),
           1e-10)

    # the kernel-to-source norm comparison carries an unspecified constant,
    # so the observed ratio is reported rather than asserted
    dt = grid.dt
    tau_sq = sum(dt * dt * float(np.mean(np.sum(t**2, axis=(0, 2))))
                 for t in rep.taus if t.size)
    g_norm = float(np.sqrt(np.mean(dt * np.sum(g[:-1] ** 2, axis=(0, 2)))))
    checks.append({"name": "kernel/source norm ratio (reported)",
                   "value": float(np.sqrt(tau_sq) / g_norm), "bound": None,
                   "passed": True})
    return _finish("representation", checks)


def _finish(name: str, checks: list) -> dict:
    return {"suite": name, "passed": all(c["passed"] for c in checks),
            "checks": checks}


_SUITES = {"geometry": geometry_suite, "gamma": gamma_suite, "ito": ito_suite,
           "representation": representation_suite}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 2024) -> dict:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](seed)
