"""Batch command-line front end.

Subcommands:
  solve <config.json>     run the inclusion solver, write convergence CSV
                          and a JSON summary report
  validate <suite>        run a fixed-seed invariant suite
                          (geometry | gamma | ito | representation)
  gamma-norm <op.json>    Gaussian-sum norm of a finite-rank operator

Exit codes: 0 success, 1 validation-suite failure, 2 input error,
3 numerical non-convergence, a non-finite iterate or residuals above
threshold.  Set BSEI_THREADS to pin the BLAS thread
count; the package applies it on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

_INCLUSION_THRESHOLD = 1e-8
_EQUATION_THRESHOLD = 0.05
# the explicit-Z rebuild is one backward regression sweep, linear in the step
# count (a design factorisation and a fit per step); the cap keeps this extra
# pass off the finest grids, e.g. the 450-step singleton demo would pay about
# a third of a second for it
_Z_CHECK_NODES = 17
_Z_CHECK_MAX_STEPS = 400


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class _Schema:
    """Tiny strict-schema walker: unknown keys rejected, fields validated."""

    def __init__(self, data: dict, context: str = ""):
        if not isinstance(data, dict):
            from .errors import ConfigError
            raise ConfigError(f"expected an object at {context or 'top level'}",
                              field=context)
        self.data = dict(data)
        self.context = context

    def take(self, name: str, check=None, required: bool = True, default=None):
        from .errors import ConfigError
        field = f"{self.context}.{name}" if self.context else name
        if name not in self.data:
            if required:
                raise ConfigError(f"missing field {field!r}", field=field)
            return default
        value = self.data.pop(name)
        if check is not None:
            try:
                value = check(value)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"invalid value for {field!r}: {exc}",
                                  field=field) from exc
        return value

    def finish(self):
        from .errors import ConfigError
        if self.data:
            stray = sorted(self.data)[0]
            field = f"{self.context}.{stray}" if self.context else stray
            raise ConfigError(f"unknown field {field!r}", field=field)


def _number(lo=None, hi=None, lo_open=False, integer=False):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError("not a number")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError("not finite")
        if integer and isinstance(v, float) and not v.is_integer():
            raise ValueError("not an integer")
        # Python ints stay exact: a float round trip would round large seeds
        x = int(v) if integer else float(v)
        if lo is not None and (x <= lo if lo_open else x < lo):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and x > hi:
            raise ValueError(f"must be <= {hi}")
        return x
    return check


def _boolean(v):
    if not isinstance(v, bool):
        raise ValueError("not a boolean (JSON true or false)")
    return v


def _matrix(dim):
    import numpy as np

    def check(v):
        m = np.asarray(v, dtype=float)
        if m.shape != (dim, dim) or not np.all(np.isfinite(m)):
            raise ValueError(f"need a finite {dim}x{dim} matrix")
        return m
    return check


def _vector(dim=None):
    import numpy as np

    def check(v):
        a = np.asarray(v, dtype=float)
        if a.ndim != 1 or not np.all(np.isfinite(a)):
            raise ValueError("need a finite vector")
        if dim is not None and a.size != dim:
            raise ValueError(f"need length {dim}")
        return a
    return check


def load_config(path: str):
    """Parse and validate a run configuration; returns (problem, config, outputs)."""
    import numpy as np

    from .errors import ConfigError
    from .geometry import SetValuedSpec
    from .solver import BSEIProblem, SolverConfig, TerminalSpec

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", field="config")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config")

    top = _Schema(raw)
    if top.take("schema", _number(integer=True)) != 1:
        raise ConfigError("unsupported schema version (expected 1)", field="schema")

    prob = _Schema(top.take("problem"), "problem")
    dim = prob.take("dim", _number(lo=1, integer=True))
    horizon = prob.take("horizon", _number(lo=0, lo_open=True))
    p = prob.take("p", _number(lo=1, hi=8, lo_open=True))
    generator = prob.take("generator", _matrix(dim))

    term = _Schema(prob.take("terminal"), "problem.terminal")
    kind = term.take("kind", str)
    coeff = term.take("coeff", _vector(dim))
    term.finish()
    try:
        terminal = TerminalSpec(kind, coeff)
    except ValueError as exc:
        raise ConfigError(str(exc), field="problem.terminal.kind")

    gsch = _Schema(prob.take("g"), "problem.g")
    shape = gsch.take("shape", str)
    a_y = gsch.take("a_y", _matrix(dim))
    a_z = gsch.take("a_z", _matrix(dim))
    lip = gsch.take("lipschitz_k", _number(lo=0))
    c0 = gsch.take("c0", _vector(dim), required=False)
    radius = gsch.take("radius", _number(lo=0), required=False, default=0.0)
    offsets = gsch.take("offsets", lambda v: np.asarray(v, dtype=float),
                        required=False)
    gsch.finish()
    try:
        gspec = SetValuedSpec(
            dim=dim, shape=shape, a_y=a_y, a_z=a_z, lipschitz_k=lip, c0=c0,
            radius=radius, offsets=offsets)
    except ValueError as exc:
        raise ConfigError(str(exc), field="problem.g")
    prob.finish()
    try:
        problem = BSEIProblem(horizon=horizon, exponent=p, dim=dim,
                              generator=generator, terminal=terminal, gspec=gspec)
    except ValueError as exc:
        raise ConfigError(str(exc), field="problem")

    num = _Schema(top.take("numerics"), "numerics")
    config = SolverConfig(
        steps_per_window=num.take("steps_per_window", _number(4, 10_000, integer=True)),
        n_paths=num.take("paths", _number(100, 10_000_000, integer=True)),
        seed=num.take("seed", _number(0, 2**64 - 1, integer=True)),  # Philox key
        basis_degree=num.take("basis_degree", _number(0, 8, integer=True),
                              required=False, default=2),
        c_pe=num.take("c_pe", _number(lo=0, lo_open=True), required=False, default=1.0),
        tol=num.take("tol", _number(lo=0, lo_open=True), required=False, default=1e-3),
        n_max=num.take("n_max", _number(1, 10_000, integer=True),
                       required=False, default=25),
        min_iter=num.take("min_iter", _number(1, 10_000, integer=True),
                          required=False, default=2),
    )
    num.finish()

    out = _Schema(top.take("outputs"), "outputs")
    outputs = {
        "report_path": out.take("report_path", str),
        "convergence_csv_path": out.take("convergence_csv_path", str),
        "emit_plot_data": out.take("emit_plot_data", _boolean,
                                   required=False, default=False),
    }
    out.finish()
    top.finish()
    return problem, config, outputs


def write_convergence_csv(path: str, windows) -> None:
    lines = ["window_index,iteration,dY_norm,dZ_norm,dg_norm,ratio,eps_n"]
    for w in windows:
        for rec in w.iterations:
            ratio = _fmt(rec.ratio) if rec.ratio is not None else "nan"
            lines.append(",".join([
                str(w.index), str(rec.iteration), _fmt(rec.dy), _fmt(rec.dz),
                _fmt(rec.dg), ratio, _fmt(rec.eps)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary(report) -> dict:
    sched = report.schedule
    out = {
        "schedule": {
            "beta": sched.beta,
            "delta": sched.delta,
            "gamma_s": sched.gamma_s,
            "c_pe": sched.c_pe,
            "lipschitz": sched.lipschitz,
            "n_windows": sched.n_windows,
            "window_length": sched.window_length,
        },
        "converged": report.converged,
        "seed": report.seed,
        "paths": report.n_paths,
        "steps_total": report.n_steps_total,
        "basis_degree": report.basis_degree,
        "runtime_seconds": report.runtime_seconds,
        "ridge_events": report.ridge_events,
        "iterations_per_window": [len(w.iterations) for w in report.windows],
        "inclusion_residual": report.inclusion_residual,
        "equation_residual_max": report.equation_residual_max,
    }
    residuals = report.residuals
    if residuals is not None:
        out["y_continuity_modulus"] = residuals.y_modulus
        out["z_check"] = [
            {"node": zc.node, "discrepancy": zc.discrepancy, "z_norm": zc.z_norm}
            for zc in (residuals.z_checks or [])]
    return out


def _write_plot_csv(path: str, sol, residuals) -> None:
    nodes = sol.y.grid.nodes
    y_mean = sol.y.values.mean(axis=1)
    z_mean = sol.z.values.mean(axis=1)
    d = y_mean.shape[1]
    header = (["t"] + [f"y_mean_{i}" for i in range(d)]
              + [f"z_mean_{i}" for i in range(d)] + ["equation_residual"])
    lines = [",".join(header)]
    for k in range(len(nodes)):
        row = ([_fmt(nodes[k])] + [_fmt(v) for v in y_mean[k]]
               + [_fmt(v) for v in z_mean[k]] + [_fmt(residuals.equation[k])])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# a number that overflows stops the solve at a non-finite iterate or reaches
# the outputs as inf and fails the gates: numpy's warnings would repeat that
@np.errstate(over="ignore", invalid="ignore")
def cmd_solve(config_path: str) -> int:
    from .errors import ConfigError, NonConvergenceError, ScheduleError
    from .solver import solve, z_crosscheck

    try:
        problem, config, outputs = load_config(config_path)
    except ConfigError as exc:
        print(f"config error [{exc.field}]: {exc}", file=sys.stderr)
        return 2

    try:
        solution, report = solve(problem, config)
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        if exc.report is not None and exc.report.windows:
            write_convergence_csv(outputs["convergence_csv_path"],
                                  exc.report.windows)
            with open(outputs["report_path"], "w", encoding="utf-8") as fh:
                json.dump(_summary(exc.report), fh, indent=2)
                fh.write("\n")
        return 3
    except ScheduleError as exc:
        print(f"config error [{exc.field}]: {exc}", file=sys.stderr)
        return 2

    n_steps = solution.y.grid.n_steps
    z_nodes = min(_Z_CHECK_NODES, n_steps) if n_steps <= _Z_CHECK_MAX_STEPS else 0
    report.residuals.z_checks = z_crosscheck(solution, config.basis_degree, z_nodes)
    write_convergence_csv(outputs["convergence_csv_path"], report.windows)
    with open(outputs["report_path"], "w", encoding="utf-8") as fh:
        json.dump(_summary(report), fh, indent=2)
        fh.write("\n")
    if outputs["emit_plot_data"]:
        _write_plot_csv(outputs["report_path"] + ".plot.csv", solution,
                        report.residuals)

    ok = (report.converged
          and report.inclusion_residual <= _INCLUSION_THRESHOLD
          and report.equation_residual_max <= _EQUATION_THRESHOLD)
    print(json.dumps({"converged": report.converged,
                      "inclusion_residual": report.inclusion_residual,
                      "equation_residual_max": report.equation_residual_max,
                      "ok": ok}))
    if not ok:
        print(f"residuals above threshold: inclusion {report.inclusion_residual:.3e}, "
              f"equation {report.equation_residual_max:.3e} (gates "
              f"{_INCLUSION_THRESHOLD:g}, {_EQUATION_THRESHOLD:g})", file=sys.stderr)
    return 0 if ok else 3


def cmd_validate(suite: str, seed: int = 2024) -> int:
    from .suites import SUITE_NAMES, run_suite

    if suite not in SUITE_NAMES:
        print(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}",
              file=sys.stderr)
        return 2
    result = run_suite(suite, seed=seed)
    print(json.dumps(result, indent=2))
    return 0 if result["passed"] else 1


def cmd_gamma_norm(path: str) -> int:
    from .errors import ConfigError
    from .gamma import FiniteRankOperator, gamma_norm

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error [operator]: {exc}", file=sys.stderr)
        return 2
    try:
        top = _Schema(raw)
        window = top.take("window", None)
        terms = top.take("terms", None)
        n_gauss = top.take("n_gauss", _number(1, integer=True),
                           required=False, default=100_000)
        seed = top.take("seed", _number(integer=True), required=False, default=0)
        top.finish()
        h = np.array([t["h"] for t in terms], dtype=float)
        e = np.array([t["e"] for t in terms], dtype=float)
        op = FiniteRankOperator((window[0], window[1]), h, e)
    except (ConfigError, KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"config error [operator]: {exc}", file=sys.stderr)
        return 2
    est = gamma_norm(op, n_gauss, seed)
    print(json.dumps({"monte_carlo": est.monte_carlo, "exact": est.exact,
                      "standard_error": est.standard_error,
                      "dropped_terms": est.dropped_terms}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsei",
        description="Backward stochastic evolution inclusion solver and "
                    "validation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run the solver on a JSON config")
    p_solve.add_argument("config", help="path to the run configuration")
    p_val = sub.add_parser("validate", help="run a fixed-seed invariant suite")
    p_val.add_argument("suite", help="geometry | gamma | ito | representation")
    p_val.add_argument("--seed", type=int, default=2024)
    p_gn = sub.add_parser("gamma-norm",
                          help="Gaussian-sum norm of a finite-rank operator")
    p_gn.add_argument("operator", help="path to the operator description")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args.config)
    if args.command == "validate":
        return cmd_validate(args.suite, seed=args.seed)
    return cmd_gamma_norm(args.operator)


if __name__ == "__main__":
    sys.exit(main())
