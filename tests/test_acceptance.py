"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Solves are shared through module-scoped fixtures, so the
whole suite stays in the minutes range on a laptop.
"""

import json
import math

import numpy as np
import pytest

from bsei import geometry
from bsei.cli import main as cli_main
from bsei.gamma import FiniteRankOperator, gamma_norm, ito_isomorphism_report
from bsei.geometry import Ball, Polytope, SetValuedSpec, Singleton
from bsei.paths import (
    TimeGrid,
    from_function,
    martingale_representation,
    simulate_brownian,
)
from bsei.solver import (
    BSEIProblem,
    SolverConfig,
    TerminalSpec,
    schedule_from_constants,
    solve,
)


def _report(num, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {description} {detail}")
    assert passed, f"criterion {num}: {description} {detail}"


def ball_demo_problem():
    d = 2
    return BSEIProblem(
        horizon=1.0, exponent=2.0, dim=d, generator=np.diag([-1.0, -0.5]),
        terminal=TerminalSpec("linear", [1.0, 1.0]),
        gspec=SetValuedSpec(base=Ball(np.zeros(d), 0.2), a_y=-0.3 * np.eye(d),
                            a_z=np.zeros((d, d))))


def singleton_demo_problem(a=0.5):
    return BSEIProblem(
        horizon=1.0, exponent=2.0, dim=1, generator=np.zeros((1, 1)),
        terminal=TerminalSpec("constant", [1.0]),
        gspec=SetValuedSpec(base=Singleton(np.zeros(1)), a_y=a * np.eye(1),
                            a_z=np.zeros((1, 1))))


@pytest.fixture(scope="module")
def ball_run():
    # N = 40 per window, M = 1e4; min_iter keeps nine iterations alive so the
    # contraction fit over iterations 2..8 has data in every window
    return solve(ball_demo_problem(),
                 SolverConfig(steps_per_window=40, n_paths=10_000, seed=7,
                              min_iter=9))


@pytest.fixture(scope="module")
def singleton_run():
    return solve(singleton_demo_problem(),
                 SolverConfig(steps_per_window=50, n_paths=10_000, seed=2024))


@pytest.fixture(scope="module")
def refinement_runs():
    out = {}
    for tag, prob in (("ball", ball_demo_problem()),
                      ("singleton", singleton_demo_problem())):
        _, coarse = solve(prob, SolverConfig(steps_per_window=50,
                                             n_paths=10_000, seed=7))
        _, fine = solve(prob, SolverConfig(steps_per_window=100,
                                           n_paths=20_000, seed=7))
        out[tag] = (coarse, fine)
    return out


def _geometric_ratio(window, first=2, last=8):
    """Least-squares geometric decay rate of dY + dZ over an iteration range."""
    pts = [(r.iteration, r.dy + r.dz) for r in window.iterations
           if first <= r.iteration <= last and (r.dy + r.dz) > 0.0]
    if len(pts) < 2:
        return 0.0
    ns = np.array([p[0] for p in pts], dtype=float)
    logs = np.log([p[1] for p in pts])
    return float(np.exp(np.polyfit(ns, logs, 1)[0]))


def test_criterion_01_contraction(ball_run):
    sol, report = ball_run
    ratios = [_geometric_ratio(w) for w in report.windows]
    ok = all(r <= 0.6 for r in ratios) and report.runtime_seconds < 120.0
    _report(1, "ball-demo geometric contraction ratio <= 0.6 per window",
            ok, f"(ratios={[round(r, 4) for r in ratios]}, "
                f"runtime={report.runtime_seconds:.1f}s)")


def test_criterion_02_linear_bsde_oracle(singleton_run):
    sol, report = singleton_run
    a = 0.5
    nodes = sol.grid.nodes
    exact = np.exp(-a * (1.0 - nodes))  # closed-form backward solution, c = 1
    rel = max(np.abs(sol.y[k] - exact[k]).max() / exact[k]
              for k in range(len(nodes)))
    # halving the step must reduce the worst relative error as well
    prob = singleton_demo_problem()
    sol2, _ = solve(prob, SolverConfig(steps_per_window=100, n_paths=10_000,
                                       seed=2024))
    nodes2 = sol2.grid.nodes
    exact2 = np.exp(-a * (1.0 - nodes2))
    rel2 = max(np.abs(sol2.y[k] - exact2[k]).max() / exact2[k]
               for k in range(len(nodes2)))
    ok = rel <= 0.05 and rel2 < rel
    _report(2, "singleton linear oracle: relative error <= 5% and shrinking",
            ok, f"(rel={rel:.2e} -> {rel2:.2e})")


def test_criterion_03_martingale_terminal_oracle():
    prob = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=1, generator=np.zeros((1, 1)),
        terminal=TerminalSpec("linear", [1.0]),
        gspec=SetValuedSpec(base=Singleton(np.zeros(1)), a_y=np.zeros((1, 1)),
                            a_z=np.zeros((1, 1))))
    cfg = SolverConfig(steps_per_window=13, n_paths=10_000, seed=5)
    sol, _ = solve(prob, cfg)
    grid = sol.grid
    n, m = grid.n_steps, cfg.n_paths
    w = simulate_brownian(grid, m, cfg.seed).levels
    z_dev = max(np.sqrt(np.mean((sol.z[k][:, 0] - 1.0) ** 2))
                for k in range(1, n))
    y_ok = True
    worst_y = 0.0
    for k in range(n + 1):
        dev = np.sqrt(np.mean((sol.y[k][:, 0] - w[k]) ** 2))
        # accumulated regression noise: each step contributes sd sqrt(dt)
        # through a 3-function basis, independent across steps
        se = np.sqrt(3.0 * (1.0 - grid.nodes[k]) / m)
        y_ok = y_ok and dev <= 3.0 * se + 1e-12
        worst_y = max(worst_y, dev - 3.0 * se)
    ok = z_dev <= 0.05 and y_ok
    _report(3, "martingale terminal: Z within 5% of e, Y within 3 SE of W e",
            ok, f"(max Z rms dev={z_dev:.4f})")


def test_criterion_04_schedule_invariant():
    rng = np.random.default_rng(0)
    worst = 0.0
    ok = True
    for _ in range(1000):
        s = schedule_from_constants(
            lipschitz=float(rng.uniform(0.0, 5.0)),
            gamma_s=float(1.0 + rng.uniform(0.0, 4.0)),
            horizon=float(rng.uniform(0.05, 10.0)),
            c_pe=float(rng.uniform(0.1, 3.0)))
        margin = s.beta * math.sqrt(s.delta)
        worst = max(worst, margin)
        ok = ok and margin <= 0.5
    _report(4, "schedule margin beta sqrt(delta) <= 1/2 on 1000 draws", ok,
            f"(worst={worst:.6f})")


def test_criterion_05_gamma_norm_identity():
    rng = np.random.default_rng(42)
    ok = True
    worst_rel, worst_exact = 0.0, 0.0
    for i in range(20):
        n_cells = int(rng.integers(8, 64))
        mask = rng.random(n_cells) < rng.uniform(0.2, 0.9)
        if not mask.any():
            mask[0] = True
        window = (0.0, float(rng.uniform(0.5, 3.0)))
        e = rng.normal(size=int(rng.integers(1, 5)))
        op = FiniteRankOperator.indicator(window, mask, e)
        est = gamma_norm(op, n_gauss=100_000, seed=1000 + i)
        measure = mask.mean() * (window[1] - window[0])
        expect = np.sqrt(measure) * np.linalg.norm(e)
        rel = abs(est.monte_carlo - expect) / expect
        worst_rel = max(worst_rel, rel)
        worst_exact = max(worst_exact, abs(est.exact - expect))
        ok = ok and rel <= 0.02 and abs(est.exact - expect) <= 1e-12
    _report(5, "indicator gamma-norm within 2% (MC) and 1e-12 (closed form)",
            ok, f"(worst rel={worst_rel:.4f}, worst exact gap={worst_exact:.1e})")


def test_criterion_06_ito_isometry():
    grid = TimeGrid(1.0, 32)
    m = 100_000
    bm = simulate_brownian(grid, m, seed=3)
    integrands = {
        "constant": lambda k, w: np.tile([1.0, -0.5], (m, 1)),
        "brownian": lambda k, w: np.column_stack([w, 0.5 * w]),
        "sign": lambda k, w: np.column_stack([np.sign(w), np.ones(m)]),
        "ramp": lambda k, w: np.column_stack([np.full(m, grid.nodes[k]),
                                              np.ones(m)]),
        "centered square": lambda k, w: np.column_stack([w**2 - grid.nodes[k], w]),
    }
    ok = True
    details = []
    for name, fn in integrands.items():
        rep = ito_isomorphism_report(from_function(bm, fn, 2), bm, 2.0)
        good = abs(rep.ratio - 1.0) <= 3.0 * rep.standard_error
        ok = ok and good
        details.append(f"{name}:{rep.ratio:.4f}")
    _report(6, "p=2 isometry ratio = 1 within 3 SE on 5 integrands", ok,
            "(" + ", ".join(details) + ")")


def test_criterion_07_martingale_representation():
    grid = TimeGrid(1.0, 25)
    m = 10_000
    bm = simulate_brownian(grid, m, seed=9)
    g = from_function(bm, lambda k, w: w[:, None], 1)
    rep = martingale_representation(g, bm, basis_degree=1)
    resid_ok = rep.residuals.max() <= 3.0 / np.sqrt(m)
    shape_ok = all(rep.taus[u].shape[0] == u for u in range(len(rep.taus)))
    _report(7, "representation residual <= 3/sqrt(M), kernel lower-triangular",
            resid_ok and shape_ok,
            f"(max residual={rep.residuals.max():.4f}, bound={3 / np.sqrt(m):.4f})")


def test_criterion_08_geometry_suite():
    rng = np.random.default_rng(8)
    tol = 2.0 * geometry.CLOSED_FORM_TOL

    def random_set():
        kind = rng.integers(3)
        if kind == 0:
            return Singleton(rng.normal(size=2))
        if kind == 1:
            return Ball(rng.normal(size=2), float(abs(rng.normal())))
        return Polytope(rng.normal(size=(int(rng.integers(1, 7)), 2)))

    sym_gap = tri_gap = ident_gap = 0.0
    for _ in range(500):
        a, b, c = random_set(), random_set(), random_set()
        ident_gap = max(ident_gap, geometry.hausdorff(a, a))
        dab, dba = geometry.hausdorff(a, b), geometry.hausdorff(b, a)
        sym_gap = max(sym_gap, abs(dab - dba))
        tri_gap = max(tri_gap, geometry.hausdorff(a, c)
                      - (dab + geometry.hausdorff(b, c)))
    axioms_ok = sym_gap <= tol and tri_gap <= tol and ident_gap <= tol

    bb_gap = 0.0
    for _ in range(500):
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        r1, r2 = abs(rng.normal()), abs(rng.normal())
        got = geometry.hausdorff(Ball(c1, r1), Ball(c2, r2))
        bb_gap = max(bb_gap, abs(got - (np.linalg.norm(c1 - c2)
                                        + abs(r1 - r2))))
    ball_ok = bb_gap <= 1e-9

    opt_gap = 0.0
    for _ in range(10):
        verts = rng.normal(size=(6, 3))
        poly = Polytope(verts)
        x = 2.0 * rng.normal(size=3)
        best = np.linalg.norm(geometry.project(x, poly) - x)
        weights = rng.dirichlet(np.ones(6), size=1000)
        dists = np.linalg.norm(weights @ verts - x, axis=1)
        opt_gap = max(opt_gap, best - dists.min())
    proj_ok = opt_gap <= geometry.CLOSED_FORM_TOL

    _report(8, "metric axioms, ball-ball closed form, projection optimality",
            axioms_ok and ball_ok and proj_ok,
            f"(axiom gaps={max(sym_gap, tri_gap, ident_gap):.1e}, "
            f"ball gap={bb_gap:.1e}, proj excess={opt_gap:.1e})")


def test_criterion_09_inclusion_residual(ball_run, singleton_run):
    worst = max(ball_run[1].inclusion_residual,
                singleton_run[1].inclusion_residual)
    _report(9, "inclusion residual <= 1e-8 at every grid/path point",
            worst <= 1e-8, f"(worst={worst:.2e})")


def test_criterion_10_equation_residual(refinement_runs):
    ok = True
    details = []
    for tag, (coarse, fine) in refinement_runs.items():
        r0, r1 = coarse.equation_residual_max, fine.equation_residual_max
        ok = ok and r0 <= 0.05 and r1 < r0
        details.append(f"{tag}:{r0:.4f}->{r1:.4f}")
    _report(10, "mild-equation residual <= 0.05 and decreasing on refinement",
            ok, "(" + ", ".join(details) + ")")


def test_criterion_11_degenerate_shape_equivalence():
    def run(base):
        prob = BSEIProblem(
            horizon=1.0, exponent=2.0, dim=1, generator=np.zeros((1, 1)),
            terminal=TerminalSpec("linear", [1.0]),
            gspec=SetValuedSpec(base=base, a_y=-0.4 * np.eye(1),
                                a_z=np.zeros((1, 1))))
        return solve(prob, SolverConfig(steps_per_window=10, n_paths=2_000,
                                        seed=77))[0]

    s1, s2 = run(Singleton(np.zeros(1))), run(Ball(np.zeros(1), 0.0))
    gap = max(np.abs(s1.y - s2.y).max(),
              np.abs(s1.z - s2.z).max(),
              np.abs(s1.g - s2.g).max())
    _report(11, "radius-zero ball run equals singleton run", gap <= 1e-12,
            f"(gap={gap:.2e})")


def test_criterion_12_reproducibility(tmp_path):
    cfg = {
        "schema": 1,
        "problem": {
            "dim": 2, "horizon": 1.0, "p": 2.0,
            "generator": [[-1.0, 0.0], [0.0, -0.5]],
            "terminal": {"kind": "linear", "coeff": [1.0, 1.0]},
            "g": {"shape": "ball", "a_y": [[-0.3, 0.0], [0.0, -0.3]],
                  "a_z": [[0.0, 0.0], [0.0, 0.0]], "lipschitz_k": 0.3,
                  "radius": 0.2},
        },
        "numerics": {"steps_per_window": 10, "paths": 2000, "seed": 7},
        "outputs": {"report_path": str(tmp_path / "r.json"),
                    "convergence_csv_path": str(tmp_path / "c.csv"),
                    "emit_plot_data": False},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["solve", str(path)]) == 0
    first = (tmp_path / "c.csv").read_bytes()
    assert cli_main(["solve", str(path)]) == 0
    identical = (tmp_path / "c.csv").read_bytes() == first
    _report(12, "identical config+seed gives byte-identical convergence CSV",
            identical, f"({len(first)} bytes)")
