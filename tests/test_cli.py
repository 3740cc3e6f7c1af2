import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bsei.cli import main


def demo_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "problem": {
            "dim": 1,
            "horizon": 1.0,
            "p": 2.0,
            "generator": [[0.0]],
            "terminal": {"kind": "constant", "coeff": [1.0]},
            "g": {"shape": "singleton", "a_y": [[0.5]], "a_z": [[0.0]],
                  "lipschitz_k": 0.5},
        },
        "numerics": {"steps_per_window": 8, "paths": 1000, "seed": 11},
        "outputs": {
            "report_path": str(tmp_path / "report.json"),
            "convergence_csv_path": str(tmp_path / "conv.csv"),
            "emit_plot_data": False,
        },
    }
    for dotted, value in overrides.items():
        node = cfg
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return cfg


def write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _benchmark_csv_header(monkeypatch):
    """``CSV_HEADER`` of perfbench/run.py, which rejects every solve whose
    convergence CSV starts otherwise."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its tracer
    spec = importlib.util.spec_from_file_location("_perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run.CSV_HEADER


def test_solve_demo_exit_zero_and_outputs(tmp_path, monkeypatch):
    path = write(tmp_path, demo_config(tmp_path))
    assert main(["solve", path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["inclusion_residual"] <= 1e-8
    assert report["equation_residual_max"] <= 0.05
    assert report["schedule"]["beta"] > 0.0
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    # the header the benchmark checks; no iteration measures a g difference
    assert lines[0] == _benchmark_csv_header(monkeypatch)
    assert {line.split(",")[4] for line in lines[1:]} == {"nan"}
    # singleton problem: at most three iterations per window
    assert all(n <= 3 for n in report["iterations_per_window"])


def test_solve_rejects_bad_exponent(tmp_path, capsys):
    path = write(tmp_path, demo_config(tmp_path, **{"problem.p": 0.5}))
    assert main(["solve", path]) == 2
    assert "problem.p" in capsys.readouterr().err


def test_solve_rejects_unknown_key(tmp_path, capsys):
    cfg = demo_config(tmp_path)
    cfg["numerics"]["typo_field"] = 1
    assert main(["solve", write(tmp_path, cfg)]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_solve_rejects_out_of_range_paths(tmp_path, capsys):
    path = write(tmp_path, demo_config(tmp_path, **{"numerics.paths": 10}))
    assert main(["solve", path]) == 2
    assert "paths" in capsys.readouterr().err


def test_solve_missing_file(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2


def test_solve_nonconvergence_exit_three(tmp_path):
    cfg = demo_config(tmp_path, **{"numerics.tol": 1e-16, "numerics.n_max": 2,
                                   "problem.g.a_y": [[0.9]],
                                   "problem.g.lipschitz_k": 0.9,
                                   "problem.terminal.kind": "linear"})
    assert main(["solve", write(tmp_path, cfg)]) == 3
    # partial convergence data still written
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert len(lines) >= 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False


def test_solve_reproducible_byte_identical(tmp_path):
    path = write(tmp_path, demo_config(tmp_path))
    assert main(["solve", path]) == 0
    first_csv = (tmp_path / "conv.csv").read_bytes()
    first_report = (tmp_path / "report.json").read_text()
    assert main(["solve", path]) == 0
    assert (tmp_path / "conv.csv").read_bytes() == first_csv
    second = json.loads((tmp_path / "report.json").read_text())
    baseline = json.loads(first_report)
    baseline.pop("runtime_seconds")
    second.pop("runtime_seconds")
    assert second == baseline


def test_report_carries_mean_y0_of_the_kept_solve(tmp_path):
    # the streamed CLI solve reports mean Y_0 per coordinate: the path mean
    # at node 0 of the same solve with its paths kept
    from bsei.cli import load_config
    from bsei.solver import solve
    cfg = demo_config(tmp_path, **{
        "problem.dim": 2, "problem.generator": [[-1.0, 0.0], [0.0, -0.5]],
        "problem.terminal": {"kind": "linear", "coeff": [1.0, 0.5]},
        "problem.g": {"shape": "ball", "a_y": [[-0.3, 0.0], [0.0, -0.3]],
                      "a_z": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.2}})
    path = write(tmp_path, cfg)
    assert main(["solve", path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    problem, config, _ = load_config(path)
    sol, _ = solve(problem, config)
    assert report["y0_mean"] == [float(sol.y[0][:, i].mean()) for i in range(2)]


def test_plot_data_emitted(tmp_path):
    cfg = demo_config(tmp_path, **{"outputs.emit_plot_data": True})
    assert main(["solve", write(tmp_path, cfg)]) == 0
    plot = (tmp_path / "report.json.plot.csv").read_text().splitlines()
    assert plot[0].startswith("t,y_mean_0,z_mean_0,")
    assert len(plot) == 1 + json.loads(
        (tmp_path / "report.json").read_text())["steps_total"] + 1


def test_validate_unknown_suite(capsys):
    assert main(["validate", "nonsense"]) == 2


def test_validate_unknown_suite_names_the_suite_field(capsys):
    assert main(["validate", "nope"]) == 2
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert out.out == "" and len(err) == 1
    assert err[0].startswith("config error [suite]"), err[0]


def test_every_input_error_is_a_config_error():
    # the CLI catches ConfigError alone, so a schedule refusal must be one
    from bsei.errors import BseiError, ConfigError, ScheduleError

    assert issubclass(ScheduleError, ConfigError)
    assert issubclass(ConfigError, BseiError) and issubclass(ConfigError, ValueError)
    assert ScheduleError("no window").field is None


@pytest.mark.parametrize("numerics, field", [
    ({"min_iter": 30, "n_max": 5}, "numerics.min_iter"),
    ({"min_iter": 30}, "numerics.min_iter"),  # above the default n_max, 25
    ({"n_max": 1}, "numerics.n_max"),  # below the default min_iter, 2
])
def test_min_iter_above_n_max_exits_two(tmp_path, capsys, numerics, field):
    # such a loop can never stop converged: it used to run to n_max and exit 3
    from bsei.solver import SolverConfig

    with pytest.raises(ValueError):
        SolverConfig(**numerics)
    cfg = demo_config(tmp_path, **{f"numerics.{k}": v for k, v in numerics.items()})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert out.out == "" and len(err) == 1
    assert err[0].startswith(f"config error [{field}]"), err[0]
    assert not (tmp_path / "report.json").exists()


def test_validate_representation_passes(capsys):
    assert main(["validate", "representation"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("suite", ["geometry", "gamma", "ito", "representation"])
def test_validate_rejects_seed_outside_philox_key_range(capsys, suite, seed):
    # -1 used to end in a traceback or run, 2^64 to run as seed 0
    assert main(["validate", suite, f"--seed={seed}"]) == 2
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert out.out == "" and len(err) == 1
    assert err[0].startswith("config error [seed]"), err[0]


def test_gamma_norm_subcommand(tmp_path, capsys):
    op = {"window": [0.0, 1.0],
          "terms": [{"h": [1, 1, 1, 1, 0, 0, 0, 0], "e": [2.0, 0.0]}],
          "n_gauss": 20000, "seed": 1}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    assert main(["gamma-norm", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"] == pytest.approx(2.0**0.5, abs=1e-12)
    assert out["monte_carlo"] == pytest.approx(out["exact"], rel=0.05)


def test_gamma_norm_invalid_operator(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"window": [0.0, 1.0]}))
    assert main(["gamma-norm", str(path)]) == 2


_UNIT_TERM = {"h": [1.0], "e": [1.0]}


@pytest.mark.parametrize("op, field", [
    ({"window": [0.0, 1.0], "terms": []}, "terms"),
    ({"window": [0.0, 1.0], "terms": [{"h": [], "e": [1.0]}]}, "terms"),
    ({"window": [0.0, 1.0], "terms": [{"h": [1.0], "e": []}]}, "terms"),
    ({"window": [0.0, 1.0], "terms": [{"h": [1.0]}]}, "terms"),
    ({"window": [0.0, 1.0], "terms": [_UNIT_TERM, {"h": [1.0, 2.0], "e": [1.0]}]},
     "terms"),
    # the term's norm overflows: it used to be dropped as dependent (exact 0)
    ({"window": [0.0, 1.0], "terms": [{"h": [1e200, 1e200], "e": [1e200]}]}, "terms"),
    ({"window": [0.0, 1.0], "terms": [{"h": [1e150, 1e150], "e": [1e200]}]}, "terms"),
    # a JSON string or boolean is not a number, though numpy would read it so
    ({"window": [0.0, 1.0], "terms": [{"h": ["1"], "e": [1.0]}]}, "terms"),
    ({"window": [1.0, 0.0], "terms": [_UNIT_TERM]}, "window"),
    ({"window": [0.0], "terms": [_UNIT_TERM]}, "window"),
    ({"window": [0.0, 1.0], "terms": [_UNIT_TERM], "n_gauss": 10_000_001}, "n_gauss"),
    ({"window": [0.0, 1.0], "terms": [_UNIT_TERM], "seed": -1}, "seed"),
    ({"window": [0.0, 1.0], "terms": [{"h": [1.0], "e": [True]}]}, "terms"),
    ({"window": [0.0, 1.0], "terms": [{"h": [False, 1.0], "e": ["2"]}]}, "terms"),
    ({"window": [0.0, "1"], "terms": [_UNIT_TERM]}, "window"),
    ({"window": [False, True], "terms": [_UNIT_TERM]}, "window"),
    # one draw has no standard error: it used to be reported as 0.0
    ({"window": [0.0, 1.0], "terms": [_UNIT_TERM], "n_gauss": 1}, "n_gauss"),
])
def test_gamma_norm_rejects_hostile_operators(tmp_path, capsys, op, field):
    import warnings

    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gamma-norm", str(path)]) == 2
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert out.out == "" and len(err) == 1
    assert err[0].startswith(f"config error [{field}]"), err[0]


@pytest.mark.parametrize("scale, entries", [
    (1e163, {"h": [1e153, 1e153], "e": [1e10]}),  # its square overflows
    (1e-200, {"h": [1e-200, 1e-200], "e": [1.0]}),  # its square underflows
])
def test_gamma_norm_keeps_tiny_and_huge_finite_norms(tmp_path, capsys, scale,
                                                     entries):
    import warnings

    path = tmp_path / "op.json"
    path.write_text(json.dumps({"window": [0.0, 1.0], "terms": [entries]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gamma-norm", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"] == pytest.approx(scale, rel=1e-12)
    assert abs(out["monte_carlo"] - scale) <= 3.0 * out["standard_error"]
    assert out["dropped_terms"] == 0


def test_gamma_norm_over_memory_budget_exits_two(tmp_path, capsys, monkeypatch):
    # 1000 draws of one term and their images take 16000 bytes
    import bsei.gamma

    monkeypatch.setattr(bsei.gamma, "_physical_memory", lambda: 12_000)
    path = tmp_path / "op.json"
    for n_gauss, code in ((1000, 2), (500, 0)):
        path.write_text(json.dumps({"window": [0.0, 1.0], "terms": [_UNIT_TERM],
                                    "n_gauss": n_gauss}))
        assert main(["gamma-norm", str(path)]) == code
    out = capsys.readouterr()
    err = out.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [n_gauss]"), err
    assert json.loads(out.out)["exact"] == 1.0


def test_ball_demo_config_contracts(tmp_path, monkeypatch):
    # the shipped ball demo: exit 0 and every reported ratio at most 0.6
    import shutil
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "configs" / "ball_demo.json"
    cfg = json.loads(src.read_text())
    cfg["numerics"]["paths"] = 4000  # keep the test quick; ratios are stable
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)  # outputs use relative paths
    assert main(["solve", str(path)]) == 0
    rows = (tmp_path / "ball_demo_convergence.csv").read_text().splitlines()[1:]
    ratios = [float(r.split(",")[5]) for r in rows if r.split(",")[5] != "nan"]
    assert ratios and max(ratios) <= 0.6


def test_console_entry_point(tmp_path):
    import os
    from pathlib import Path

    cfg = demo_config(tmp_path)
    path = write(tmp_path, cfg)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "bsei.cli", "solve", path],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["ok"] is True


def test_solve_draws_builds_and_verifies_once(tmp_path, monkeypatch):
    # one Brownian ensemble and one residual pass per run, and no semigroup
    # cache: gamma(S) is closed-form and the solve reads S(dt) alone; the
    # residual pass runs window by window, so "once" means that its
    # selections, in blocks of 3 nodes here, cover every node 0..N exactly
    # once, node N alone and no block across two windows of 8 nodes
    import collections

    import bsei.paths
    import bsei.solver
    from bsei import geometry
    from bsei.semigroup import SemigroupCache

    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    draw = counted("draw", bsei.paths.simulate_brownian)
    monkeypatch.setattr(bsei.paths, "simulate_brownian", draw)
    monkeypatch.setattr(bsei.solver, "simulate_brownian", draw)
    monkeypatch.setattr(SemigroupCache, "build", classmethod(
        counted("build", SemigroupCache.build.__func__)))
    verifying, blocks = [], []
    feed, select = bsei.solver._Verification.feed, bsei.solver.select_generator

    def feeding(*args):
        verifying.append(True)
        try:
            return feed(*args)
        finally:
            verifying.pop()

    def selecting(g, y, z, times, gspec):
        if verifying:
            blocks.append(times.tolist())
        return select(g, y, z, times, gspec)

    monkeypatch.setattr(bsei.solver._Verification, "feed", feeding)
    monkeypatch.setattr(bsei.solver, "select_generator", selecting)
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", 3 * 1000)  # M = 1000, d = 1
    path = write(tmp_path, demo_config(tmp_path))
    assert main(["solve", path]) == 0
    assert (counts["draw"], counts["build"]) == (1, 0)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["y_continuity_modulus"] > 0.0
    n = report["steps_total"]  # horizon 1: node k at time k / n
    assert n == 8 * len(report["iterations_per_window"])
    blocks = [[round(t * n) for t in b] for b in blocks]
    assert sorted(k for b in blocks for k in b) == list(range(n + 1))
    assert blocks[0] == [n]
    assert all(len(b) <= 3 and len({k // 8 for k in b}) == 1 for b in blocks[1:])


def ball_demo_config(tmp_path, **numerics):
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "configs" / "ball_demo.json"
    cfg = json.loads(src.read_text())
    cfg["numerics"].update(numerics)
    cfg["outputs"] = {"report_path": str(tmp_path / "report.json"),
                      "convergence_csv_path": str(tmp_path / "conv.csv"),
                      "emit_plot_data": True}
    return cfg


@pytest.mark.parametrize("problem", [
    {"terminal": {"kind": "quadratic", "coeff": [1e307, 1e307]}},
    {"terminal": {"kind": "constant", "coeff": [1e308, 1e308]},
     "generator": [[1.0, 0.0], [0.0, 1.0]]},
])
def test_solve_non_finite_iterates_exit_three(tmp_path, problem):
    # the terminal data overflow: one line naming window and iteration, no
    # numpy warning, and the partial report and convergence CSV on disk
    import os
    from pathlib import Path

    cfg = ball_demo_config(tmp_path, paths=200, steps_per_window=4)
    cfg["problem"].update(problem)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "bsei.cli", "solve",
                           write(tmp_path, cfg)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 3
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1
    assert "window [" in err[0] and "iteration 1" in err[0]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False and report["iterations_per_window"] == [1]
    rows = (tmp_path / "conv.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[1] == "1"


def test_solve_huge_terminal_data_keeps_its_difference_norms_finite(tmp_path, capsys):
    # xi x 1e160: the Picard differences square beyond the float range and
    # are measured in units of a power of two; the run still fails the
    # equation gate, whose threshold is absolute
    cfg = ball_demo_config(tmp_path, paths=200, steps_per_window=4)
    cfg["problem"]["terminal"]["coeff"] = [1e160, 1e160]
    assert main(["solve", write(tmp_path, cfg)]) == 3
    assert "residuals above threshold" in capsys.readouterr().err
    rows = (tmp_path / "conv.csv").read_text().splitlines()
    assert rows[0].split(",")[2:4] == ["dY_norm", "dZ_norm"]
    norms = [float(v) for r in rows[1:] for v in r.split(",")[2:4]]
    assert len(norms) > 2 and all(map(math.isfinite, norms))


@pytest.mark.parametrize("plot, suffix", [(False, ""), (True, ".plot.csv")])
def test_solve_refuses_outputs_on_one_file(tmp_path, capsys, plot, suffix):
    # the same file under another spelling; the plot CSV is report + .plot.csv
    cfg = demo_config(tmp_path, **{"outputs.emit_plot_data": plot})
    cfg["outputs"]["convergence_csv_path"] = (str(tmp_path) + "/./report.json"
                                              + suffix)
    assert main(["solve", write(tmp_path, cfg)]) == 2
    assert "[outputs.convergence_csv_path]" in capsys.readouterr().err
    assert not any(tmp_path.glob("report.json*"))
    # without the plot CSV the name report + .plot.csv is free
    if plot:
        cfg["outputs"]["emit_plot_data"] = False
        assert main(["solve", write(tmp_path, cfg)]) == 0
        assert sorted(f.name for f in tmp_path.glob("report.json*")) == [
            "report.json", "report.json.plot.csv"]


@pytest.mark.parametrize("key, plot", [("report_path", False),
                                       ("convergence_csv_path", False),
                                       ("report_path", True)])
def test_solve_refuses_an_output_on_the_config_file(tmp_path, monkeypatch, capsys,
                                                    key, plot):
    # an output on the config's own file, under another spelling, would replace
    # the config, so that the run could not be repeated from it
    monkeypatch.chdir(tmp_path)
    cfg = demo_config(tmp_path, **{"numerics.paths": 100,
                                   "outputs.emit_plot_data": plot,
                                   f"outputs.{key}": "./config.json"})
    config = write(tmp_path, cfg)
    before = (tmp_path / "config.json").read_bytes()
    assert main(["solve", config]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error [outputs.{key}]"), err
    assert (tmp_path / "config.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_solve_write_that_fails_after_the_checks_is_one_line(tmp_path, monkeypatch,
                                                            capsys):
    # a directory that appears where the plot CSV goes while the solve runs:
    # the outputs written before it stay, and the run exits 2 with one line
    import bsei.solver
    solve = bsei.solver.solve

    def solve_then_block_the_plot(*args, **kwargs):
        out = solve(*args, **kwargs)
        (tmp_path / "report.json.plot.csv").mkdir()
        return out
    monkeypatch.setattr(bsei.solver, "solve", solve_then_block_the_plot)
    cfg = demo_config(tmp_path, **{"numerics.paths": 100, "outputs.emit_plot_data": True})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [outputs]: cannot write"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "conv.csv", "report.json", "report.json.plot.csv"]


def test_solve_overflowing_centres_exit_three(tmp_path):
    # Y stays finite, but the centres a_y Y overflow in the first iteration,
    # whose Y starts at the terminal mean xi: the selection hands on
    # non-finite points and the iteration's own finiteness check ends the run
    # in the first window solved, with no numpy warning (L = 20 plans 14,400
    # windows)
    import os
    from pathlib import Path

    cfg = ball_demo_config(tmp_path, paths=100, steps_per_window=4)
    cfg["problem"]["terminal"] = {"kind": "constant", "coeff": [1e307, 1e307]}
    cfg["problem"]["g"].update(a_y=[[20.0, 0.0], [0.0, 20.0]], lipschitz_k=20.0)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "bsei.cli", "solve",
                           write(tmp_path, cfg)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 3
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1
    assert "window [" in err[0] and "iteration 1: non-finite iterate" in err[0]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False and report["iterations_per_window"] == [1]
    rows = (tmp_path / "conv.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["1"]


def test_solve_overflowing_trailing_selection_is_refused(tmp_path, capsys):
    # centres a_y Y that overflow from a Y the first iteration leaves finite
    # need L above about 1e154, and such an L leaves no finite schedule: a
    # declared 0.3 is refused as below L, and an honest 1e160 as a beta
    # whose square overflows, both before any solve
    cfg = ball_demo_config(tmp_path, paths=100, steps_per_window=4, tol=1e308,
                           min_iter=1)
    cfg["problem"]["terminal"] = {"kind": "constant", "coeff": [1e150, 1e150]}
    cfg["problem"]["g"]["a_y"] = [[1e160, 0.0], [0.0, 1e160]]
    for declared, named in ((0.3, "problem.g.lipschitz_k"), (1e160, "problem.g.a_y")):
        cfg["problem"]["g"]["lipschitz_k"] = declared
        assert main(["solve", write(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error [{named}]"), err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("field, value", [
    ("numerics.c_pe", 1e200),
    ("problem.g.a_y", [[1e160]]),
    ("problem.g.a_z", [[1e160]]),
    ("problem.generator", [[300.0]]),
    ("problem.horizon", 1e300),
])
def test_schedule_overflow_names_the_largest_factor_of_beta(tmp_path, capsys, field,
                                                            value):
    # beta = c_pe L gamma (1 + sqrt(T) (1 + gamma)) squares past the float
    # range, or T / delta does; the entry behind its largest factor, of
    # c_pe, L, gamma (1 + gamma) and 1 + sqrt(T), is the one to change
    cfg = demo_config(tmp_path, **{field: value, "problem.g.lipschitz_k": 1e300})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error [{field}]"), err
    assert "leaves no finite window count" in err[0]


def test_declared_lipschitz_below_the_computed_one_exits_two(tmp_path, capsys):
    # a_y = -2 I moves G by exactly 2 |dy|: a declared 0 once planned the
    # 4 windows of beta = 0; without a declaration the schedule reads L = 2
    from bsei.cli import load_config

    cfg = ball_demo_config(tmp_path, paths=200, steps_per_window=4)
    cfg["problem"]["g"].update(a_y=[[-2.0, 0.0], [0.0, -2.0]], lipschitz_k=0)
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [problem.g.lipschitz_k]")
    assert "= 2.0" in err[0]
    assert not (tmp_path / "report.json").exists()
    # within a relative CLOSED_FORM_TOL below L is rounding, not a false claim
    cfg["problem"]["g"]["lipschitz_k"] = 2.0 * (1.0 - 1e-12)
    assert load_config(write(tmp_path, cfg))[0].lipschitz_k == 2.0

    del cfg["problem"]["g"]["lipschitz_k"]
    # every window converges; at 200 paths the absolute equation gate fails
    assert main(["solve", write(tmp_path, cfg)]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    schedule = report["schedule"]
    assert (schedule["lipschitz"], schedule["beta"], schedule["n_windows"]) == (
        2.0, 6.0, 144)
    assert report["steps_total"] == 576 and report["converged"] is True


def test_declared_lipschitz_above_the_computed_one_changes_nothing(tmp_path):
    reports = []
    for declared in (None, 0.5, 1e200):
        cfg = demo_config(tmp_path)
        if declared is None:
            del cfg["problem"]["g"]["lipschitz_k"]
        else:
            cfg["problem"]["g"]["lipschitz_k"] = declared
        assert main(["solve", write(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        report.pop("runtime_seconds")
        reports.append(report)
    assert reports[0]["schedule"]["lipschitz"] == 0.5
    assert reports[0] == reports[1] == reports[2]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "linear", "quadratic"]),
       coeff=st.lists(st.floats(min_value=-1.7e308, max_value=1.7e308),
                      min_size=2, max_size=2))
def test_solve_any_terminal_magnitude_exits_zero_or_three(kind, coeff):
    # the generator stays the demo's: large ones plan thousands of windows
    import contextlib
    import io
    import tempfile
    import warnings
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        cfg = ball_demo_config(Path(tmp), paths=100, steps_per_window=4)
        cfg["problem"]["terminal"] = {"kind": kind, "coeff": coeff}
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(["solve", write(Path(tmp), cfg)])
    assert not caught, [str(w.message) for w in caught]
    assert rc in (0, 3)
    assert len(err.getvalue().splitlines()) == (1 if rc == 3 else 0)


def test_solve_polytope_passes_inclusion_gate(tmp_path):
    # exact polytope projection: the inclusion residual sits at rounding level
    cfg = demo_config(tmp_path, **{
        "problem.dim": 2,
        "problem.generator": [[-1.0, 0.0], [0.0, -0.5]],
        "problem.terminal": {"kind": "linear", "coeff": [0.3, 0.3]},
        "problem.g": {"shape": "polytope", "a_y": [[-0.3, 0.0], [0.0, -0.3]],
                      "a_z": [[0.0, 0.0], [0.0, 0.0]], "lipschitz_k": 0.3,
                      "offsets": [[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25],
                                  [-0.15, 0.15]]},
        "numerics": {"steps_per_window": 4, "paths": 400, "seed": 11}})
    assert main(["solve", write(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["inclusion_residual"] <= 1e-12


def test_solve_rejects_polytope_over_subset_cap(tmp_path, capsys):
    offsets = [[float(i), float(i * i % 7)] for i in range(30)]  # 4525 subsets
    cfg = demo_config(tmp_path, **{
        "problem.dim": 2,
        "problem.generator": [[0.0, 0.0], [0.0, 0.0]],
        "problem.terminal": {"kind": "constant", "coeff": [1.0, 1.0]},
        "problem.g": {"shape": "polytope", "a_y": [[0.0, 0.0], [0.0, 0.0]],
                      "a_z": [[0.0, 0.0], [0.0, 0.0]], "lipschitz_k": 0.0,
                      "offsets": offsets}})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    assert "problem.g" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["outputs.emit_plot_data"])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_solve_rejects_non_boolean_flags(tmp_path, capsys, field, value):
    path = write(tmp_path, demo_config(tmp_path, **{field: value}))
    assert main(["solve", path]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field", ["outputs.report_path",
                                   "outputs.convergence_csv_path",
                                   "problem.terminal.kind", "problem.g.shape"])
@pytest.mark.parametrize("value", [None, 3, [], ""])
def test_solve_rejects_non_string_fields(tmp_path, monkeypatch, capsys, field, value):
    # a path of any other JSON value would become a file name such as 'None'
    monkeypatch.chdir(tmp_path)
    write(tmp_path, demo_config(tmp_path, **{field: value}))
    assert main(["solve", "config.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error [{field}]")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("g, named", [
    ({"shape": "singleton"}, "problem.g.radius"),
    ({"shape": "singleton", "radius": None, "offsets": [[0.0, 0.0]]}, "problem.g.offsets"),
    ({"shape": "polytope", "offsets": [[0.0, 0.0], [0.1, 0.0]]}, "problem.g.radius"),
    ({"offsets": [[0.0, 0.0], [0.1, 0.0]]}, "problem.g.offsets"),
    ({"radius": None}, "problem.g.radius"),
    ({"shape": "polytope", "radius": None, "offsets": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]},
     "problem.g.offsets"),
], ids=["singleton-radius", "singleton-offsets", "polytope-radius", "ball-offsets",
        "ball-no-radius", "polytope-offsets-width"])
def test_solve_rejects_fields_of_another_shape(tmp_path, monkeypatch, capsys, g, named):
    # each shape reads its own fields alone: another shape's field is unknown
    # and a missing one of its own is named, where both were ignored or
    # defaulted (a singleton with a radius solved and exited 0)
    monkeypatch.chdir(tmp_path)
    cfg = ball_demo_config(tmp_path, paths=100)
    cfg["problem"]["g"].update(g)
    cfg["problem"]["g"] = {k: v for k, v in cfg["problem"]["g"].items() if v is not None}
    write(tmp_path, cfg)
    assert main(["solve", "config.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [problem.g.") and named in err[0], err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("outputs, named", [
    ({"report_path": "missing/report.json"}, "outputs.report_path"),
    ({"convergence_csv_path": "missing/conv.csv"}, "outputs.convergence_csv_path"),
    ({"report_path": "."}, "outputs.report_path"),
    ({"convergence_csv_path": "out"}, "outputs.convergence_csv_path"),
    ({"report_path": "nul\0.json"}, "outputs.report_path"),
    # a directory where the plot CSV goes is found before the solve too
    ({"report_path": "out/report.json", "emit_plot_data": True}, "outputs.emit_plot_data"),
])
def test_solve_output_paths_fail_in_one_line(tmp_path, monkeypatch, capsys,
                                             outputs, named):
    # a bad path is refused before the solve, in one line, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "report.json.plot.csv").mkdir(parents=True)
    cfg = demo_config(tmp_path, **{"numerics.paths": 100})
    cfg["outputs"] = {"report_path": "report.json",
                      "convergence_csv_path": "conv.csv",
                      "emit_plot_data": False, **outputs}
    write(tmp_path, cfg)
    assert main(["solve", "config.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error [{named}]"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


@pytest.mark.parametrize("value", ["false", 0, 1, None, False, True])
def test_solve_rejects_y_features(tmp_path, capsys, value):
    # the field is gone from the schema: any value is an unknown field
    path = write(tmp_path, demo_config(tmp_path, **{"numerics.y_features": value}))
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "numerics.y_features" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field, value", [
    ("problem.terminal.coeff", ["1", True]),
    ("problem.terminal.coeff", [1.0, False]),
    ("problem.generator", [["0", False], [False, "0"]]),
    ("problem.g.a_y", [[0.5, 0.0], [0.0, True]]),
    ("problem.g.c0", ["0.1", True]),
    ("problem.g.offsets", [[0.0, 0.0], ["1", 0.0], [0.0, True]]),
])
def test_solve_rejects_strings_and_booleans_in_arrays(tmp_path, capsys, field, value):
    # a JSON string or boolean in a config vector or matrix is not a number
    cfg = ball_demo_config(tmp_path, paths=100)
    if field == "problem.g.offsets":
        cfg["problem"]["g"] = dict(cfg["problem"]["g"], shape="polytope")
        del cfg["problem"]["g"]["radius"]
    *parents, leaf = field.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[leaf] = value
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error [{field}]"), err
    assert not (tmp_path / "report.json").exists()


def test_load_config_keeps_integers_exact(tmp_path):
    from bsei.cli import load_config

    cfg = demo_config(tmp_path, **{"numerics.seed": 2**60 + 1,
                                   "numerics.steps_per_window": 40.0})
    _, config, _ = load_config(write(tmp_path, cfg))
    assert config.seed == 2**60 + 1
    assert config.steps_per_window == 40 and isinstance(config.steps_per_window, int)
    cfg = demo_config(tmp_path, **{"numerics.seed": 2**64 - 1})
    assert load_config(write(tmp_path, cfg))[1].seed == 2**64 - 1


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_solve_rejects_seed_outside_philox_key_range(tmp_path, capsys, seed):
    path = write(tmp_path, demo_config(tmp_path, **{"numerics.seed": seed}))
    assert main(["solve", path]) == 2
    assert "numerics.seed" in capsys.readouterr().err


def test_solve_non_finite_semigroup_bound_exits_two(tmp_path, capsys):
    # exp(800) overflows, so gamma(S) and beta are infinite
    cfg = demo_config(tmp_path, **{"problem.generator": [[800.0]],
                                   "numerics.paths": 100})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "problem.generator" in err and len(err.strip().splitlines()) == 1


def test_solve_generator_near_the_float_range_exits_two(tmp_path, capsys):
    # (A + A^T)/2 = 1e308 is finite, its exponential is not: gamma(S) and
    # beta are infinite
    cfg = demo_config(tmp_path, **{"problem.generator": [[1e308]],
                                   "numerics.paths": 100})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [problem.generator]"), err


@pytest.mark.parametrize("horizon", [5e-324, 1e-323])
def test_solve_horizon_whose_quarter_underflows_exits_two(tmp_path, capsys, horizon):
    # delta = T/4 rounds to 0: the horizon, not beta's largest factor, is
    # the entry to change
    cfg = ball_demo_config(tmp_path, paths=200, steps_per_window=4)
    cfg["problem"]["horizon"] = horizon
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [problem.horizon]"), err
    assert not (tmp_path / "report.json").exists()


def test_solve_subnormal_horizon_exits_zero(tmp_path):
    # Brownian increments near 1e-161 square below the normal range; the
    # kernel regresses them in power-of-two units, so the Gram stays definite
    cfg = ball_demo_config(tmp_path, paths=200, steps_per_window=4)
    cfg["problem"]["horizon"] = 1e-321
    assert main(["solve", write(tmp_path, cfg)]) == 0


def test_solve_over_memory_budget_exits_two(tmp_path, capsys):
    # gamma(S) = e^100 is finite, but the schedule plans about 1e175 steps:
    # refused before any full-grid array is allocated
    cfg = demo_config(tmp_path, **{"problem.generator": [[100.0]],
                                   "numerics.paths": 100})
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "problem.generator" in err and "steps x 100 paths" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_over_memory_budget_names_the_largest_factor_of_beta(tmp_path, capsys):
    # L = 1e10 plans about 1e22 steps: a_y, not the generator, sets them
    cfg = ball_demo_config(tmp_path, paths=100, steps_per_window=4)
    cfg["problem"]["g"].update(a_y=[[1e10, 0.0], [0.0, 1e10]], lipschitz_k=1e10)
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [problem.g.a_y]"), err
    assert "steps x 100 paths" in err[0]


def test_over_memory_budget_of_a_long_horizon_names_the_horizon(tmp_path, capsys):
    # T = 1e6 with gamma(S) = 1 plans about 6e12 steps: 1 + sqrt(T), not
    # gamma (1 + gamma) = 2, is the largest factor of beta
    cfg = ball_demo_config(tmp_path, paths=100, steps_per_window=4)
    cfg["problem"]["horizon"] = 1e6
    assert main(["solve", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error [problem.horizon]"), err
    assert "steps x 100 paths" in err[0]
    assert not (tmp_path / "report.json").exists()


def test_cli_import_loads_no_scipy():
    # scipy is imported only where a non-symmetric generator needs expm
    import os
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import bsei.cli, sys\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_polytope_solve_and_geometry_suite_load_no_scipy(tmp_path):
    # a polytope's facets come from its face table, not from qhull, whose
    # import alone costs about twice a small polytope solve; the geometry
    # suite measures polytopes through the same facets
    import os
    from pathlib import Path

    cfg = json.loads(json.dumps(_MUTATION_BASES["polytope"]))
    cfg["outputs"] = demo_config(tmp_path)["outputs"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import bsei.cli, sys\n"
            "rc = bsei.cli.main(['solve', sys.argv[1]])\n"
            "rc = rc or bsei.cli.main(['validate', 'geometry'])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, write(tmp_path, cfg)], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_import_leaves_the_environment_unchanged():
    # BLAS threads are pinned with the standard variables before Python
    # starts; the package copies nothing into them, BSEI_THREADS included
    import os
    from pathlib import Path

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["BSEI_THREADS"] = "3"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import os\n"
            "before = dict(os.environ)\n"
            "import bsei\n"
            "print(dict(os.environ) == before)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# ------------------------------------------------- config mutation property

def _mutation_bases():
    """Valid ball, singleton and polytope configs that solve in well under a
    second: at most 400 paths, four steps per window, at most nine windows."""
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "configs"
    ball = json.loads((root / "ball_demo.json").read_text())
    ball["numerics"].update(paths=200, steps_per_window=4)
    singleton = json.loads((root / "singleton_demo.json").read_text())
    singleton["numerics"].update(paths=200, steps_per_window=4)
    polytope = json.loads(json.dumps(ball))
    polytope["problem"]["terminal"]["coeff"] = [0.3, 0.3]
    polytope["problem"]["g"] = {
        "shape": "polytope", "a_y": [[-0.3, 0.0], [0.0, -0.3]],
        "a_z": [[0.0, 0.0], [0.0, 0.0]], "lipschitz_k": 0.3,
        "offsets": [[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25], [-0.15, 0.15]]}
    polytope["numerics"] = {"steps_per_window": 4, "paths": 400, "seed": 11,
                            "basis_degree": 2, "c_pe": 1.0, "tol": 1e-3,
                            "n_max": 25, "min_iter": 2}
    return {"ball": ball, "singleton": singleton, "polytope": polytope}


_MUTATION_BASES = _mutation_bases()

# Values that the schema rejects, plus a band of accepted ones, for every
# field that sizes the run: with at most 400 paths, 8 steps per window, 30
# iterations, |A_ij| <= 0.1 (gamma(S) <= 1.4), horizon <= 1.5, c_pe <= 1 and
# entries of a_y and a_z in +-0.25 beside the bases' own (so that
# L = max(||a_y||_2, ||a_z||_2) <= 0.55), no run plans more than about 50
# windows or allocates more than a few MB.  Huge values either fail the
# schema or make the schedule constants overflow or exceed physical memory,
# which exits 2 at once; a declared lipschitz_k is only checked against L.
_REJECTED_OR_OVERFLOWING = {
    "numerics.paths": [-1, 0, 99, 10_000_001, 150.5, 1e308],
    "numerics.steps_per_window": [-4, 0, 3, 10_001, 4.5, 1e308],
    "numerics.n_max": [-1, 0, 10_001, 2.5, 1e308],
    "numerics.min_iter": [-1, 0, 10_001, 2.5, 1e308],
    "numerics.c_pe": [-1.0, 0.0, -1e308, 1e200, 1e308],
    "numerics.tol": [-1.0, 0.0, -1e308],
    "numerics.seed": [-1, 2**64, 1.5, 1e308],
    "numerics.basis_degree": [-1, 9, 2.5, 1e308],
    "problem.horizon": [0.0, -1.0, 5e-324, 1e-310, 1e200, 1e308],
    "problem.p": [1.0, 0.5, 8.5, -1.0, 1e308],
    "problem.dim": [0, -1, 3, 1.5, 1e308],
    "problem.g.lipschitz_k": [-1.0, -1e308, 1e200, 1e308],
    "problem.generator": [1e300, -1e300, 1e308, -1e308],
    "schema": [0, 2, 1.5, -1, 1e308],
}
_ACCEPTED = {
    "numerics.paths": st.integers(100, 400),
    "numerics.steps_per_window": st.integers(4, 8),
    "numerics.n_max": st.integers(1, 30),
    "numerics.min_iter": st.integers(1, 30),
    "numerics.c_pe": st.floats(1e-3, 1.0),
    "numerics.tol": st.floats(1e-300, 1e308),
    "numerics.seed": st.integers(0, 2**64 - 1),
    "numerics.basis_degree": st.integers(0, 8),
    "problem.horizon": st.floats(1e-3, 1.5),
    "problem.p": st.floats(1.01, 8.0),
    "problem.dim": st.just(1),
    "problem.g.lipschitz_k": st.floats(0.0, 0.5),
    "problem.g.a_y": st.floats(-0.25, 0.25),
    "problem.g.a_z": st.floats(-0.25, 0.25),
    "problem.generator": st.floats(-0.1, 0.1),
    "schema": st.just(1),
}
_WRONG_TYPES = ["x", "", None, [], {}, {"a": 1}, True, False]


def _field(path) -> str:
    """Dotted config field of a path, without list indices."""
    return ".".join(p for p in path if isinstance(p, str))


def _mutable_paths(node, path=()):
    """Every key and list entry of the config except the output file names
    and the outputs block that holds them."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        sub = path + (key,)
        if sub[:1] == ("outputs",) and sub != ("outputs", "emit_plot_data"):
            continue
        yield sub
        yield from _mutable_paths(child, sub)


def _mutated_value(draw, path, value):
    """A new value for the entry at ``path`` whose base value is ``value``."""
    field = _field(path)
    budgeted = field in _ACCEPTED
    kinds = ["wrong_type", "out_of_range", "accepted"]
    if isinstance(value, list):
        kinds.append("wrong_length")
    kind = draw(st.sampled_from(kinds))
    if kind == "wrong_type":
        # an object in place of an object would delete its keys
        wrong = [w for w in _WRONG_TYPES
                 if not (isinstance(w, dict) and isinstance(value, dict))]
        return draw(st.sampled_from(wrong))
    if kind == "wrong_length":
        return value[:-1] if draw(st.booleans()) else value + value[:1]
    if kind == "out_of_range":
        return draw(st.sampled_from(_REJECTED_OR_OVERFLOWING.get(
            field, [-1e308, 1e308, -1.0, 0.0, 5e-324, 2**64])))
    if budgeted:
        return draw(_ACCEPTED[field])
    if field in ("problem.terminal.kind", "problem.g.shape"):
        return draw(st.sampled_from(["constant", "linear", "quadratic", "ball",
                                     "singleton", "polytope", "sphere"]))
    if field == "outputs.emit_plot_data":
        return draw(st.booleans())
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def _parent(cfg, path):
    """The container holding the entry at ``path``, or None when it is gone."""
    node = cfg
    for key in path:
        parent = node
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return None
    return parent


def _has_field(cfg, field: str) -> bool:
    node = cfg
    for key in field.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_any_config_mutation_exits_with_a_documented_code(data):
    import contextlib
    import copy
    import io
    import re
    import tempfile
    from pathlib import Path

    base = _MUTATION_BASES[data.draw(st.sampled_from(sorted(_MUTATION_BASES)),
                                     label="base")]
    cfg = json.loads(json.dumps(base))
    paths = list(_mutable_paths(base))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(paths), label="path")
        parent, base_parent = _parent(cfg, path), _parent(base, path)
        if parent is not None:  # else an earlier mutation replaced an ancestor
            parent[path[-1]] = copy.deepcopy(
                _mutated_value(data.draw, path, base_parent[path[-1]]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg["outputs"]["report_path"] = str(Path(tmp) / "report.json")
        cfg["outputs"]["convergence_csv_path"] = str(Path(tmp) / "conv.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["solve", write(Path(tmp), cfg)])
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3)
    assert len(lines) == (0 if rc == 0 else 1), lines
    if rc == 2:
        named = re.match(r"config error \[([^\]]+)\]: ", lines[0])
        assert named and _has_field(cfg, named.group(1)), lines[0]
