import json
import subprocess
import sys

import pytest

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


def test_solve_demo_exit_zero_and_outputs(tmp_path):
    path = write(tmp_path, demo_config(tmp_path))
    assert main(["solve", path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["inclusion_residual"] <= 1e-8
    assert report["equation_residual_max"] <= 0.05
    assert report["schedule"]["beta"] > 0.0
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert lines[0] == "window_index,iteration,dY_norm,dZ_norm,dg_norm,ratio,eps_n"
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


def test_plot_data_emitted(tmp_path):
    cfg = demo_config(tmp_path, **{"outputs.emit_plot_data": True})
    assert main(["solve", write(tmp_path, cfg)]) == 0
    plot = (tmp_path / "report.json.plot.csv").read_text().splitlines()
    assert plot[0].startswith("t,y_mean_0,z_mean_0,")
    assert len(plot) == 1 + json.loads(
        (tmp_path / "report.json").read_text())["steps_total"] + 1


def test_validate_unknown_suite(capsys):
    assert main(["validate", "nonsense"]) == 2


def test_validate_representation_passes(capsys):
    assert main(["validate", "representation"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


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
    cfg = demo_config(tmp_path)
    path = write(tmp_path, cfg)
    proc = subprocess.run([sys.executable, "-m", "bsei.cli", "solve", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["ok"] is True


def test_solve_draws_builds_and_verifies_once(tmp_path, monkeypatch):
    # one Brownian ensemble, two semigroup caches (schedule probe and grid)
    # and one residual pass per run; the Z cross-check reuses them
    import collections

    import bsei.paths
    import bsei.solver
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
    monkeypatch.setattr(bsei.solver, "verify_solution",
                        counted("verify", bsei.solver.verify_solution))
    path = write(tmp_path, demo_config(tmp_path))
    assert main(["solve", path]) == 0
    assert counts == {"draw": 1, "build": 2, "verify": 1}
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["z_check"] and report["y_continuity_modulus"] > 0.0


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


@pytest.mark.parametrize("field", ["numerics.y_features", "outputs.emit_plot_data"])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_solve_rejects_non_boolean_flags(tmp_path, capsys, field, value):
    path = write(tmp_path, demo_config(tmp_path, **{field: value}))
    assert main(["solve", path]) == 2
    assert field in capsys.readouterr().err


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the thread count from /proc")
def test_bsei_threads_pins_blas_before_numpy_loads():
    import os
    from pathlib import Path

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["BSEI_THREADS"] = "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import bsei, numpy as np\n"
            "a = np.ones((500, 500)); a @ a\n"
            "print([l for l in open('/proc/self/status') if l.startswith('Threads:')][0])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Threads:", "1"]
