"""One timed operation in a fresh interpreter.

    python3 child.py --result OUT.json [--probe] [--trace] -- verify ARGS...

Imports ``crossing_kit.cli`` (timed as setup), then, unless ``--probe``,
calls ``crossing_kit.cli.main(ARGS)`` once (timed as the run), and writes
the exit code, both times, the process's own peak RSS and the environment
to OUT.json. With ``--trace`` the package's public calls are wrapped by
``tracer.install`` between the two steps, and the per-layer metrics go into
OUT.json too. Only the standard library is imported before the timed
import, so setup time includes numpy and scipy.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    out_path = opts[opts.index("--result") + 1]

    t0 = time.perf_counter()
    import crossing_kit.cli as cli

    setup_s = time.perf_counter() - t0

    import crossing_kit
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": crossing_kit.BACKEND,
            "package": os.path.dirname(crossing_kit.__file__),
        },
    }
    if "--probe" not in opts:
        tracer = None
        if "--trace" in opts:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)
        t1 = time.perf_counter()
        rc = cli.main(cli_args)
        result["run_s"] = time.perf_counter() - t1
        result["rc"] = rc
        if tracer is not None:
            result["per_layer"] = tracer_mod.per_layer_metrics(
                tracer.spans(), tracer.counts(), tracer.sums(), tracer.maxes()
            )
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
