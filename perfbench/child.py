"""One `bsei solve` in a fresh interpreter; started by run.py.

usage: child.py RESULT_JSON [CONFIG_JSON TRACE]

With RESULT_JSON alone the child only imports the package, which times
set-up by itself.  With a config it calls `bsei.cli.main(["solve", CONFIG])`
in-process, traced through tracer.py when TRACE is 1, and exits with the
CLI's exit code.  Timings go to RESULT_JSON; peak RSS is read by the parent.
"""

import time

_T0 = time.perf_counter()
import bsei.cli  # noqa: E402  (this import is the set-up being timed)

SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import sys  # noqa: E402


def blas_threads():
    """Threads of this process after a BLAS call: 1 when the BLAS pin held."""
    import numpy as np

    np.ones((256, 256)) @ np.ones((256, 256))
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv) -> int:
    import numpy
    import scipy

    result = {"setup_s": SETUP_S, "bsei_file": bsei.cli.__file__,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    rc = 0
    if len(argv) > 1:
        config, traced = argv[1], argv[2] == "1"
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        rc = bsei.cli.main(["solve", config])
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer is not None:
            result["layers"] = tracer.summary()
    result["threads"] = blas_threads()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
