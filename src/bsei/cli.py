"""Batch command-line front end.

Subcommands:
  solve <config.json>     run the inclusion solver, write convergence CSV
                          and a JSON summary report
  validate <suite>        run a fixed-seed invariant suite
                          (geometry | gamma | ito | representation)
  gamma-norm <op.json>    Gaussian-sum norm of a finite-rank operator

Exit codes: 0 success, 1 validation-suite failure, 2 input error (an
unwritable output, two outputs on one file and an output on the config
file included), 3 numerical non-convergence, a non-finite iterate or
residuals above threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .gamma import FiniteRankOperator, gamma_norm
from .geometry import CLOSED_FORM_TOL, Ball, Polytope, SetValuedSpec, Singleton
from .paths import TimeGrid
from .solver import BSEIProblem, SolverConfig, TerminalSpec
from .suites import SUITES

_INCLUSION_THRESHOLD = 1e-8
_EQUATION_THRESHOLD = 0.05


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class _Schema:
    """Tiny strict-schema walker: unknown keys rejected, fields validated."""

    def __init__(self, data: dict, context: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(f"expected an object at {context or 'top level'}",
                              field=context)
        self.data = dict(data)
        self.context = context

    def take(self, name: str, check=None, required_by: str | None = None):
        """The field ``name``, checked; a missing one is reported against
        ``required_by``, the field whose value asks for it, when given."""
        field = f"{self.context}.{name}" if self.context else name
        if name not in self.data:
            raise ConfigError(f"missing field {field!r}", field=required_by or field)
        value = self.data.pop(name)
        if check is not None:
            try:
                value = check(value)
            except Exception as exc:
                raise ConfigError(f"invalid value for {field!r}: {exc}",
                                  field=field) from exc
        return value

    def take_present(self, checks: dict) -> dict:
        """The fields among ``checks`` that are present, each checked."""
        return {name: self.take(name, check) for name, check in checks.items()
                if name in self.data}

    def finish(self):
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


def _string(nonempty: bool = False):
    def check(v):
        if not isinstance(v, str) or (nonempty and not v):
            raise ValueError(f"not a {'non-empty ' if nonempty else ''}string")
        return v
    return check


def _output_path(v):
    """A file name in an existing directory, checked before the solve."""
    path = _string(nonempty=True)(v)
    folder = os.path.dirname(path) or "."
    if "\0" in path or os.path.isdir(path) or not os.path.isdir(folder):
        raise ValueError(f"{path!r} is not a file name in an existing directory")
    return path


_seed = _number(0, 2**64 - 1, integer=True)  # the Philox key width
_real = _number()


def _array(v, depth: int) -> np.ndarray:
    """JSON lists nested ``depth`` deep as a float array, each entry held to
    the rule of ``_number``: numpy alone would read "1" and true as numbers."""
    if depth == 0:
        return _real(v)
    if not isinstance(v, list):
        raise ValueError(f"need a list nested {depth} deep")
    return np.array([_array(x, depth - 1) for x in v], dtype=float)  # ragged: raises


def _matrix(dim):
    def check(v):
        m = _array(v, 2)
        if m.shape != (dim, dim):
            raise ValueError(f"need a {dim}x{dim} matrix")
        return m
    return check


def _vector(dim=None):
    def check(v):
        a = _array(v, 1)
        if dim is not None and a.size != dim:
            raise ValueError(f"need length {dim}")
        return a
    return check


def _offsets(dim):
    def check(v):
        m = _array(v, 2)
        if m.ndim != 2 or len(m) < 1 or m.shape[1] != dim:
            raise ValueError(f"need a nonempty list of length-{dim} vertex offsets")
        return m
    return check


def _build(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError reported against ``field``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from exc


def _read_json(path: str, field: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read {path} as JSON: {exc}", field=field) from exc


def _base_set(g: _Schema, dim: int):
    """G's base set at the origin, from ``problem.g.shape`` and the fields of
    that shape alone: a field of another shape is left to be unknown."""
    shape = g.take("shape", _string())
    if shape == "singleton":
        return Singleton(np.zeros(dim))
    if shape == "ball":
        return Ball(np.zeros(dim), g.take("radius", _number(lo=0), "problem.g.shape"))
    if shape == "polytope":
        offsets = g.take("offsets", _offsets(dim), "problem.g.shape")
        return _build("problem.g.offsets", Polytope, offsets)
    raise ConfigError(f"unknown shape {shape!r}; choose from singleton, ball, polytope",
                      field="problem.g.shape")


def load_config(path: str):
    """Parse and validate a run configuration; returns (problem, config, outputs)."""
    top = _Schema(_read_json(path, "config"))
    if top.take("schema", _number(integer=True)) != 1:
        raise ConfigError("unsupported schema version (expected 1)", field="schema")

    prob = _Schema(top.take("problem"), "problem")
    dim = prob.take("dim", _number(lo=1, integer=True))
    horizon = prob.take("horizon", _number(lo=0, lo_open=True))
    p = prob.take("p", _number(lo=1, hi=8, lo_open=True))
    generator = prob.take("generator", _matrix(dim))

    term = _Schema(prob.take("terminal"), "problem.terminal")
    kind = term.take("kind", _string())
    coeff = term.take("coeff", _vector(dim))
    term.finish()
    terminal = _build("problem.terminal.kind", TerminalSpec, kind, coeff)

    gsch = _Schema(prob.take("g"), "problem.g")
    base = _base_set(gsch, dim)
    a_y = gsch.take("a_y", _matrix(dim))
    a_z = gsch.take("a_z", _matrix(dim))
    declared = gsch.take_present({"lipschitz_k": _number(lo=0)})
    c0 = gsch.take_present({"c0": _vector(dim)})
    gsch.finish()
    gspec = _build("problem.g", SetValuedSpec, base=base, a_y=a_y, a_z=a_z, **c0)
    lip = gspec.lipschitz_k
    # the schedule reads the computed constant; a declared one is only checked
    if declared.get("lipschitz_k", lip) < (1.0 - CLOSED_FORM_TOL) * lip:
        raise ConfigError(f"declared {declared['lipschitz_k']} is below G's "
                          f"Lipschitz constant max(||a_y||, ||a_z||) = {lip}",
                          field="problem.g.lipschitz_k")
    prob.finish()
    problem = _build("problem", BSEIProblem, horizon=horizon, exponent=p, dim=dim,
                     generator=generator, terminal=terminal, gspec=gspec)

    num = _Schema(top.take("numerics"), "numerics")
    # a min_iter above n_max is named where the config sets it
    bound = "numerics.min_iter" if "min_iter" in num.data else "numerics.n_max"
    config = _build(
        bound, SolverConfig,
        steps_per_window=num.take("steps_per_window", _number(4, 10_000, integer=True)),
        n_paths=num.take("paths", _number(100, 10_000_000, integer=True)),
        seed=num.take("seed", _seed),
        **num.take_present({
            "basis_degree": _number(0, 8, integer=True),
            "c_pe": _number(lo=0, lo_open=True),
            "tol": _number(lo=0, lo_open=True),
            "n_max": _number(1, 10_000, integer=True),
            "min_iter": _number(1, 10_000, integer=True),
        }),
    )
    num.finish()

    out = _Schema(top.take("outputs"), "outputs")
    outputs = {
        "report_path": out.take("report_path", _output_path),
        "convergence_csv_path": out.take("convergence_csv_path", _output_path),
    }
    # the plot CSV, if emit_plot_data asks for one, sits next to the report
    plot = out.take_present({"emit_plot_data": _boolean}).get("emit_plot_data", False)
    outputs["plot_csv_path"] = _build("outputs.emit_plot_data", _output_path,
                                      outputs["report_path"] + ".plot.csv") if plot else None
    out.finish()
    top.finish()
    # an output written over the config or over another output would leave one
    # file standing where there were two
    taken = {os.path.realpath(path): "the config"}
    for key, field in (("report_path", "outputs.report_path"),
                       ("plot_csv_path", "outputs.emit_plot_data"),
                       ("convergence_csv_path", "outputs.convergence_csv_path")):
        if outputs[key] is not None:
            real = os.path.realpath(outputs[key])
            if real in taken:
                raise ConfigError(f"{outputs[key]!r} would overwrite {taken[real]}",
                                  field=field)
            taken[real] = f"the file of {field}"
    return problem, config, outputs


def write_convergence_csv(path: str, windows) -> None:
    lines = ["window_index,iteration,dY_norm,dZ_norm,dg_norm,ratio,eps_n"]
    # g is a function of (Y, Z) and has no difference norm: dg_norm reads nan,
    # and stays in the header because the benchmark harness checks it
    for w in windows:
        for rec in w.iterations:
            ratio = _fmt(rec.ratio) if rec.ratio is not None else "nan"
            lines.append(",".join([
                str(w.index), str(rec.iteration), _fmt(rec.dy), _fmt(rec.dz),
                "nan", ratio, _fmt(rec.eps)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _residual(x):
    """A residual or mean as JSON: null where it is not finite, as where a
    partial run has none, since strict JSON has no NaN or Infinity."""
    return x if x is not None and math.isfinite(x) else None


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
        "seed": report.config.seed,
        "paths": report.config.n_paths,
        "steps_total": report.n_steps_total,
        "basis_degree": report.config.basis_degree,
        "runtime_seconds": report.runtime_seconds,
        "ridge_events": report.ridge_events,
        "iterations_per_window": [len(w.iterations) for w in report.windows],
        "inclusion_residual": _residual(report.inclusion_residual),
        "equation_residual_max": _residual(report.equation_residual_max),
    }
    if report.residuals is not None:
        out["y_continuity_modulus"] = _residual(report.residuals.y_modulus)
        out["y0_mean"] = [_residual(float(v)) for v in report.residuals.y_mean[0]]
    return out


def _write_plot_csv(path: str, report) -> None:
    res = report.residuals
    nodes = TimeGrid(report.schedule.horizon, report.n_steps_total).nodes
    d = res.y_mean.shape[1]
    header = (["t"] + [f"y_mean_{i}" for i in range(d)]
              + [f"z_mean_{i}" for i in range(d)] + ["equation_residual"])
    lines = [",".join(header)]
    for k in range(len(nodes)):
        row = ([_fmt(nodes[k])] + [_fmt(v) for v in res.y_mean[k]]
               + [_fmt(v) for v in res.z_mean[k]] + [_fmt(res.equation[k])])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_outputs(outputs: dict, report) -> None:
    """The convergence CSV and the JSON report of a full or partial run, and
    with ``emit_plot_data`` the plot CSV of a full one."""
    try:
        write_convergence_csv(outputs["convergence_csv_path"], report.windows)
        with open(outputs["report_path"], "w", encoding="utf-8") as fh:
            json.dump(_summary(report), fh, indent=2, allow_nan=False)
            fh.write("\n")
        if report.residuals is not None and outputs["plot_csv_path"] is not None:
            _write_plot_csv(outputs["plot_csv_path"], report)
    except OSError as exc:
        raise ConfigError(f"cannot write: {exc}", field="outputs") from exc


# a number that overflows stops the solve at a non-finite iterate or reaches
# the outputs as inf and fails the gates: numpy's warnings would repeat that
@np.errstate(over="ignore", invalid="ignore")
def cmd_solve(config_path: str) -> int:
    # looked up at call time, so that a rebinding of this attribute of
    # bsei.solver (as perfbench/tracer.py does) is what runs
    from .solver import solve

    problem, config, outputs = load_config(config_path)
    try:
        # verified window by window: the report carries all that is written
        _, report = solve(problem, config, keep_paths=False)
    except NonConvergenceError as exc:
        _write_outputs(outputs, exc.report)
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3

    _write_outputs(outputs, report)

    ok = (report.converged
          and report.inclusion_residual <= _INCLUSION_THRESHOLD
          and report.equation_residual_max <= _EQUATION_THRESHOLD)
    print(json.dumps({"converged": report.converged,
                      "inclusion_residual": _residual(report.inclusion_residual),
                      "equation_residual_max": _residual(report.equation_residual_max),
                      "ok": ok}, allow_nan=False))
    if not ok:
        print(f"residuals above threshold: inclusion {report.inclusion_residual:.3e}, "
              f"equation {report.equation_residual_max:.3e} (gates "
              f"{_INCLUSION_THRESHOLD:g}, {_EQUATION_THRESHOLD:g})", file=sys.stderr)
    return 0 if ok else 3


def cmd_validate(suite: str, seed: int) -> int:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from "
                          f"{', '.join(SUITES)}", field="suite")
    result = SUITES[suite](_build("seed", _seed, seed))
    print(json.dumps(result, indent=2))
    return 0 if result["passed"] else 1


def _terms(v):
    """Rank-one terms [{"h": cell samples, "e": range vector}, ...] as (h, e)."""
    if not (isinstance(v, list) and v and all(
            isinstance(t, dict) and sorted(t) == ["e", "h"] for t in v)):
        raise ValueError("need a non-empty list of {h, e} objects")
    h, e = (np.array([_vector()(t[k]) for t in v]) for k in "he")  # ragged: raises
    if 0 in h.shape + e.shape:
        raise ValueError("every h and e needs at least one entry")
    return h, e


# an overflowing norm is reported as one line, not as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def cmd_gamma_norm(path: str) -> int:
    top = _Schema(_read_json(path, "operator"))
    window = top.take("window", _vector(2))
    h, e = top.take("terms", _terms)
    sampling = {"n_gauss": 100_000, "seed": 0, **top.take_present({
        "n_gauss": _number(2, 10_000_000, integer=True), "seed": _seed})}
    top.finish()
    # the terms are checked: the operator can refuse only the window
    est = gamma_norm(_build("window", FiniteRankOperator, window, h, e), **sampling)
    if not all(map(math.isfinite, (est.monte_carlo, est.exact, est.standard_error))):
        raise ConfigError("the operator's norm overflows double precision",
                          field="terms")
    print(json.dumps(vars(est)))
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
    try:
        if args.command == "solve":
            return cmd_solve(args.config)
        if args.command == "validate":
            return cmd_validate(args.suite, seed=args.seed)
        return cmd_gamma_norm(args.operator)
    except ConfigError as exc:
        print(f"config error [{exc.field}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
