"""Cost of one extraction as h shrinks: seconds and marched nodes per row.

    PYTHONPATH=src python3 scripts/bench_march.py [--label TEXT] [--out PATH]

Extracts the transfer matrix of model-corpus 0, 1 and 2 at h = 1e-2 ..
1e-6 and of schrodinger-corpus 0 at h = 1e-2 .. 1e-5, in this process,
with the ``crossing_kit`` package found on PYTHONPATH. Each row is timed
REPEATS times (the median is kept); its node count comes from the march's
DEBUG line. Writes BENCH_graded_march.json in the repo root (or ``--out``)
with the rows, the log-log slope of seconds against 1/h per problem, and
the environment. Run it with two source trees on the same machine to
compare them: ``--label`` names the tree in the file.

Compare ``nodes`` across trees, not ``seconds``. Each tree is timed in
its own process, one after the other, with no alternation between them,
so machine drift between the two processes reaches the seconds: they
cannot resolve a change under about 20%. The node counts are exact. A
speed claim needs runs of the two trees that alternate.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
H_MODEL = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
H_PAIR = (1e-2, 1e-3, 1e-4, 1e-5)


class _Nodes(logging.Handler):
    """Keeps the node count of the last march's DEBUG line."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.nodes = None

    def emit(self, record):
        found = re.search(r"marched (\d+) nodes", record.getMessage())
        if found:
            self.nodes = int(found.group(1))


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _slope(rows: list[dict]) -> float:
    """Least-squares slope of log(seconds) against log(1/h)."""
    x = np.log([1.0 / r["h"] for r in rows])
    y = np.log([r["seconds"] for r in rows])
    return float(np.polyfit(x, y, 1)[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="names the measured tree")
    parser.add_argument("--out", default=str(ROOT / "BENCH_graded_march.json"))
    args = parser.parse_args()

    import crossing_kit
    from crossing_kit.normalform import model_corpus
    from crossing_kit.schrodinger import schrodinger_corpus

    handler = _Nodes()
    logger = logging.getLogger("crossing_kit")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    cases = [
        (f"model-corpus {k}", lambda h, k=k: model_corpus(h)[k], H_MODEL)
        for k in (0, 1, 2)
    ]
    cases.append(
        ("schrodinger-corpus 0", lambda h: schrodinger_corpus(h)[0], H_PAIR)
    )
    problems = []
    for name, build, h_values in cases:
        rows = []
        for h in h_values:
            prob = build(h)
            seconds = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                prob.extract()
                seconds.append(time.perf_counter() - t0)
            rows.append(
                {"h": h, "nodes": handler.nodes, "seconds": statistics.median(seconds)}
            )
            print(f"{name} h={h:g}: {rows[-1]['nodes']} nodes, "
                  f"{rows[-1]['seconds']:.3f} s", flush=True)
        problems.append({"problem": name, "rows": rows, "slope": _slope(rows)})
    record = {
        "label": args.label,
        "what": "one extraction (both input columns, one march) per row; "
        f"median of {REPEATS} in-process runs. Compare nodes across trees: "
        "each tree is timed in its own process without alternation, so the "
        "seconds cannot resolve a change under about 20%",
        "problems": problems,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "backend": crossing_kit.BACKEND,
            "nproc": os.cpu_count(),
            "cpu": _cpu(),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
