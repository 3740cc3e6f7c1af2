#!/usr/bin/env python3
"""Benchmark of the user-facing `bsei solve` path.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

The checkout is the parent of this file's directory, and the package is
imported from its `src/`.  Each solve runs in a fresh child interpreter
(child.py) with BLAS pinned to one thread, one solve at a time: a closed
loop with a single client.  Rounds of two import-only children and one
solve (one untraced and traced pair with --trace 1) repeat for about
--seconds, and an untraced run makes at least three solves.

The last line of stdout is the result JSON.  The lines before it print
every metric by name and unit, then a `detail:` line with the
environment stamp, the output hashes and one record per solve.
README.md defines the metrics and says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

# The CLI's documented gates, recomputed from report.json so that an exit
# code which disagrees with the report is caught.
INCLUSION_GATE = 1e-8
EQUATION_GATE = 0.05
CSV_HEADER = "window_index,iteration,dY_norm,dZ_norm,dg_norm,ratio,eps_n"

# import-only children per round of solves, spread over the run because the
# host's speed changes every few seconds
SETUP_PROBES = 2
MIN_SOLVES = 3        # untraced solves per run: a median that one slow solve cannot move
RUN_DEADLINE_S = 170  # children still running this long after the start are killed
SEED_RANGE = 1 << 31

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed with the end-to-end metrics but left out of the result line, where
# every metric must be nonzero and steady across seeds: the first two are 0
# on some workloads, and the equation residual is a Monte Carlo error that
# moves with the seed.  The trace run reports them as per-layer metrics.
OUTCOMES = {"fail_rate": "ratio", "equation_residual_max": "1",
            "inclusion_residual": "1"}
COUNTS = {"solver.windows": "count", "solver.picard_iterations": "count",
          "paths.ridge_share": "ratio", "trace.wall_s": "s",
          "trace.overhead_s": "s"}
PER_LAYER = {**{f"{layer}.{what}": unit for layer in LAYERS
                for what, unit in (("self_s", "s"), ("calls", "count"))},
             **COUNTS, **OUTCOMES}
UNITS = {**END_TO_END, **PER_LAYER}


@dataclass(frozen=True)
class Workload:
    config: str            # base config, relative to the checkout
    demo_seed: int         # numerics.seed at --seed 0
    emit_plot_data: bool
    expected_calls: dict   # today's counts of repeated work; recorded, not enforced


WORKLOADS = {
    "ball_demo": Workload("configs/ball_demo.json", 7, True, {
        "solver.verify.calls": 2, "paths.brownian.calls": 2,
        "semigroup.build.calls": 3, "solver.zrebuild.calls": 1,
        "geometry.project.calls": 0}),
    "singleton_demo": Workload("configs/singleton_demo.json", 2024, True, {
        "solver.zrebuild.calls": 0, "geometry.project.calls": 0}),
    "polytope_small": Workload("perfbench/workloads/polytope_small.json", 11,
                               False, {}),
}


class SetupError(RuntimeError):
    """The checkout cannot run a solve; no result is printed."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_config(name: str, seed: int, numerics: dict | None = None) -> bytes:
    """The workload's config with its seed from --seed and outputs in the cwd."""
    wl = WORKLOADS[name]
    path = ROOT / wl.config
    if not path.is_file():
        raise SetupError(f"missing workload config {wl.config}")
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["numerics"].update(numerics or {})
    cfg["numerics"]["seed"] = wl.demo_seed + seed % SEED_RANGE
    cfg["outputs"] = {"report_path": "report.json",
                      "convergence_csv_path": "convergence.csv",
                      "emit_plot_data": wl.emit_plot_data}
    return (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()


@dataclass
class Child:
    rc: int | None        # None when killed at the run deadline
    peak_rss_mb: float
    result: dict | None   # what child.py wrote, if it got that far
    stderr: str


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait with os.wait4, whose usage is this child's alone (ru_maxrss in KiB)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage.ru_maxrss / 1024
        time.sleep(0.01)


def run_child(run_dir: Path, args: list, deadline: float,
              config: bytes | None = None) -> Child:
    run_dir.mkdir(parents=True)
    if config is not None:
        (run_dir / "config.json").write_bytes(config)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-s", str(BENCH / "child.py"), "result.json", *args],
            cwd=run_dir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            rc, rss = _reap(proc, deadline)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    result_path = run_dir / "result.json"
    result = (json.loads(result_path.read_text(encoding="utf-8"))
              if result_path.is_file() else None)
    stderr = (run_dir / "stderr").read_text(encoding="utf-8", errors="replace")
    return Child(rc, rss, result, stderr[-2000:])


@dataclass
class Solve:
    traced: bool
    child: Child
    hashes: dict | None = None
    report: dict | None = None
    gate_failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.child.rc != 0 or bool(self.problems)

    @property
    def timed(self) -> bool:
        return self.child.result is not None and "wall_s" in self.child.result


def _within(value, gate: float) -> bool:
    return isinstance(value, (int, float)) and value <= gate


def check_outputs(run_dir: Path, rc: int | None, cfg: dict):
    """Hashes, parsed report, failed gates and problems of one solve's outputs."""
    report_path = run_dir / "report.json"
    if rc not in (0, 3) or not report_path.is_file():
        return None, None, [], [f"exit code {rc} without a report"]
    problems = []
    report = json.loads(report_path.read_text(encoding="utf-8"))
    body = {k: v for k, v in report.items() if k != "runtime_seconds"}
    hashes = {"report": sha256(json.dumps(body, sort_keys=True).encode())}
    csv_path = run_dir / "convergence.csv"
    csv = csv_path.read_bytes() if csv_path.is_file() else b""
    hashes["convergence_csv"] = sha256(csv)

    gates = (("converged", report.get("converged") is True),
             ("inclusion", _within(report.get("inclusion_residual"), INCLUSION_GATE)),
             ("equation", _within(report.get("equation_residual_max"), EQUATION_GATE)))
    gate_failures = [name for name, ok in gates if not ok]
    expected_rc = 3 if gate_failures else 0
    if rc != expected_rc:
        problems.append(f"exit code {rc}, but the gates in report.json give {expected_rc}")

    numerics = cfg["numerics"]
    if report.get("seed") != numerics["seed"] or report.get("paths") != numerics["paths"]:
        problems.append("report seed or path count differs from the config")
    iterations = report.get("iterations_per_window") or []
    lines = csv.decode("utf-8", errors="replace").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) - 2 != sum(iterations):
        problems.append("convergence CSV does not list one row per iteration")
    if report.get("converged") is True:
        windows = report["schedule"]["n_windows"]
        if (len(iterations) != windows
                or report.get("steps_total") != windows * numerics["steps_per_window"]):
            problems.append("report windows disagree with the schedule")
        if cfg["outputs"]["emit_plot_data"]:
            plot_path = run_dir / "report.json.plot.csv"
            plot = plot_path.read_bytes() if plot_path.is_file() else b""
            hashes["plot_csv"] = sha256(plot)
            if plot.count(b"\n") != report.get("steps_total", -2) + 2:
                problems.append("plot CSV does not list one row per grid node")
    return hashes, report, gate_failures, problems


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool,
            numerics: dict | None = None) -> dict:
    if not (ROOT / "src" / "bsei" / "cli.py").is_file():
        raise SetupError(f"no package source under {ROOT / 'src'}")
    config = make_config(name, seed, numerics)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(name, config, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _measure(name: str, config: bytes, seconds: float, trace: bool,
             work: Path) -> dict:
    cfg = json.loads(config)
    src = ROOT / "src"
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    stop = start + seconds
    run_dirs = (work / str(i) for i in itertools.count())

    def probe() -> dict:
        child = run_child(next(run_dirs), [], deadline)
        if child.rc != 0 or child.result is None:
            raise SetupError(f"importing bsei failed:\n{child.stderr}")
        if not Path(child.result["bsei_file"]).is_relative_to(src):
            raise SetupError(f"bsei imported from {child.result['bsei_file']}")
        return child.result

    stamp = probe()  # also the warm-up (file cache, bytecode); its set-up is not counted
    setups, solves, rounds = [], [], []
    plan = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_SOLVES
    while True:
        round_start = time.monotonic()
        setups += [probe()["setup_s"] for _ in range(SETUP_PROBES)]
        for traced in plan:
            run_dir = next(run_dirs)
            child = run_child(run_dir, ["config.json", str(int(traced))],
                              deadline, config)
            solve = Solve(traced, child)
            solve.hashes, solve.report, solve.gate_failures, solve.problems = (
                check_outputs(run_dir, child.rc, cfg))
            if child.rc is None:
                solve.problems.append(f"killed after {RUN_DEADLINE_S} s")
            elif not solve.timed:
                solve.problems.append("child wrote no timings: " + child.stderr)
            solves.append(solve)
        rounds.append(time.monotonic() - round_start)
        now, typical = time.monotonic(), statistics.median(rounds)
        # one more round if it is expected to end less than half a round
        # after the stop, so that runs last --seconds on average
        if now + typical > deadline or (len(rounds) >= min_rounds
                                        and now + typical / 2 > stop):
            break

    reference = next((s for s in solves if s.hashes is not None), None)
    for solve in solves:
        if solve.hashes is not None and solve.hashes != reference.hashes:
            solve.problems.append("outputs differ from the first solve at this seed")
    untraced = [s for s in solves if not s.traced and s.timed]
    traced = [s for s in solves if s.traced and s.timed]
    if not untraced or (trace and not traced):
        raise SetupError("no solve finished:\n" + solves[-1].child.stderr)
    first_calls = [traced[0].child.result["layers"][layer]["calls"]
                   for layer in LAYERS] if traced else None
    for solve in traced[1:]:
        if [solve.child.result["layers"][layer]["calls"]
                for layer in LAYERS] != first_calls:
            solve.problems.append("call counts differ between traced solves")

    wall = statistics.median(s.child.result["wall_s"] for s in untraced)
    report = reference.report if reference is not None else {}
    failed = sum(s.failed for s in solves)
    outcomes = {"fail_rate": failed / len(solves)}
    for key in ("equation_residual_max", "inclusion_residual"):
        if isinstance(report.get(key), (int, float)):
            outcomes[key] = report[key]
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(
            setups + [s.child.result["setup_s"] for s in solves if s.timed]),
        "peak_rss_mb": statistics.median(s.child.peak_rss_mb for s in untraced),
        **outcomes,
    }
    detail = {
        "workload": name,
        "numerics_seed": cfg["numerics"]["seed"],
        "trace": int(trace),
        "stamp": {
            "git_revision": git_revision(),
            "source_sha256": source_sha256(),
            "config_sha256": sha256(config),
            "numpy": stamp["numpy"],
            "scipy": stamp["scipy"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": sorted({s.child.result["threads"] for s in solves
                                    if s.timed}, key=str),
        },
        "hashes": reference.hashes if reference is not None else None,
        "gate_failures": reference.gate_failures if reference is not None else None,
        "solves": [{"traced": s.traced, "rc": s.child.rc,
                    "wall_s": s.child.result.get("wall_s") if s.timed else None,
                    "setup_s": s.child.result["setup_s"] if s.timed else None,
                    "peak_rss_mb": s.child.peak_rss_mb,
                    "problems": s.problems} for s in solves],
    }
    if trace:
        per_layer = layer_metrics(traced, report)
        per_layer["trace.wall_s"] = statistics.median(
            s.child.result["wall_s"] for s in traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - wall
        expected = WORKLOADS[name].expected_calls
        detail["expected_calls"] = {key: {"expected": value, "observed": per_layer[key]}
                                    for key, value in expected.items()}
        per_layer.update(outcomes)
        metrics = per_layer
    else:
        metrics = e2e
    return {
        "correct": all(not s.problems for s in solves),
        "attempted": len(solves),
        "failed": failed,
        "e2e": e2e,
        "metrics": metrics,
        "detail": detail,
    }


def layer_metrics(traced: list, report: dict) -> dict:
    """Median self time and call count per layer, plus the report's counts."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(
            s.child.result["layers"][layer]["self_s"] for s in traced)
        out[f"{layer}.calls"] = traced[0].child.result["layers"][layer]["calls"]
    iterations = report.get("iterations_per_window") or []
    out["solver.windows"] = len(iterations)
    out["solver.picard_iterations"] = sum(iterations)
    factorisations = out["paths.factor.calls"]
    out["paths.ridge_share"] = (report.get("ridge_events", 0) / factorisations
                                if factorisations else 0.0)
    return out


def main(argv=None, numerics: dict | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Benchmark of `bsei solve`.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      numerics)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload}  seed {args.seed} "
          f"(numerics.seed {out['detail']['numerics_seed']})  trace {args.trace}  "
          f"solves {out['attempted']}  failed {out['failed']}  "
          f"correct {out['correct']}")
    shown = out["e2e"] if not args.trace else {**out["e2e"], **out["metrics"]}
    for name, value in shown.items():
        print(f"  {name:<32} {value!r} {UNITS[name]}")
    for key, counts in out["detail"].get("expected_calls", {}).items():
        if counts["observed"] != counts["expected"]:
            print(f"  note: {key} is {counts['observed']}, today's count is "
                  f"{counts['expected']}")
    print("detail: " + json.dumps(out["detail"], sort_keys=True))
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in out["metrics"].items()
               if args.trace or name in END_TO_END}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
