"""Per-layer spans for one traced `bsei solve`, recorded from outside the package.

The tracer rebinds module and class attributes of the imported `bsei`
package to wrappers that time each call; no file of the package changes.
A layer's self time is its span's duration minus the durations of the
spans opened directly inside it, so the self times of all layers add up
to at most the wall time of the traced call.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (layer, module, attribute path).  A function reached under two names is
# wrapped under both: `bsei.solver` binds `project`, `_lp_l2` and
# `simulate_brownian` at import, while `cmd_solve` imports `solve`,
# `verify_solution` and `simulate_brownian` at call time.
TARGETS = (
    ("cli.load_config", "bsei.cli", "load_config"),
    ("cli.write", "bsei.cli", "write_convergence_csv"),
    ("cli.write", "bsei.cli", "_write_plot_csv"),
    ("solver.solve", "bsei.solver", "solve"),
    ("solver.picard", "bsei.solver", "picard_solve_interval"),
    ("solver.select", "bsei.solver", "select_generator"),
    ("geometry.project", "bsei.solver", "project"),
    ("geometry.distance", "bsei.geometry", "distance_to"),
    ("solver.sweep", "bsei.solver", "solve_linear_bsee"),
    ("solver.verify", "bsei.solver", "verify_solution"),
    ("solver.zrebuild", "bsei.solver", "_rebuild_z"),
    ("paths.brownian", "bsei.solver", "simulate_brownian"),
    ("paths.brownian", "bsei.paths", "simulate_brownian"),
    ("paths.factor", "bsei.paths", "PolynomialRegression.__init__"),
    ("paths.factor", "bsei.paths", "KernelRegression.__init__"),
    ("paths.fit", "bsei.paths", "PolynomialRegression.fit"),
    ("paths.kernel", "bsei.paths", "KernelRegression.kernel"),
    ("paths.diff_norm", "bsei.solver", "_lp_l2"),
    ("semigroup.build", "bsei.semigroup", "SemigroupCache.build"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """Accumulates self time and call count per layer."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._open = []  # per open span: summed duration of its direct children

    def wrap(self, layer: str, fn):
        open_spans = self._open
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration - open_spans.pop()
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += duration
        return span

    def install(self) -> None:
        """Rebind every target to a timing wrapper."""
        for layer, module, path in TARGETS:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self.wrap(layer, raw.__func__)))
            else:
                setattr(owner, name, self.wrap(layer, raw))

    def summary(self) -> dict:
        return {layer: {"self_s": self.self_s[layer], "calls": self.calls[layer]}
                for layer in LAYERS}
