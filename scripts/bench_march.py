"""Cost of one extraction as h shrinks: seconds, panels and us per node per row.

    PYTHONPATH=src python3 scripts/bench_march.py --out PATH [--label TEXT]
    PYTHONPATH=src python3 scripts/bench_march.py --out PATH --against DIR
        --against-out PATH [--against-label TEXT] [--label TEXT]

Extracts the transfer matrix of model-corpus 0, 1, 2 (self-adjoint, one
Neumann chain) and 3 (r1 != r2, two chains) and of schrodinger-corpus 0
and 1 at h = 1e-2 .. 1e-6 and at every second power of ten from 1e-8 to
1e-16, with the ``crossing_kit`` package found on PYTHONPATH. Each row is
timed REPEATS times in one process (the median is kept). Its counts are
the fields of ``crossing_kit.march.SolveStats``, which the march's DEBUG
log record carries, and ``us_per_node`` is the median seconds per panel
node in microseconds. A row the tree refuses (its split's budget) is kept
with its message under ``refused`` and no timing.
Writes ``--out``, which has no default so that no run overwrites a
committed BENCH_*.json by accident, with the rows, the log-log slope of
seconds against 1/h over h = 1e-3 .. 1e-6 (``slope``) and over h = 1e-8
.. 1e-16 (``slope_small_h``), the ratios of the row's seconds at h = 1e-2
and 1e-3 to those at 1e-5 (``ms_ratio_to_1e-5``) per problem, and the
environment.

Without ``--against`` the rows are timed in this process; compare the
panel counts across two such files, not ``seconds``: the two trees then
run one after the other, so machine drift between them reaches the
seconds, which cannot resolve a change under about 20%.

With ``--against DIR`` the rows are timed in ROUNDS pairs of child
processes, one with PYTHONPATH as given and one with PYTHONPATH=DIR/src,
alternating which goes first. Each row keeps the median over rounds of
its per-process medians, and ``rounds_faster`` counts the rounds in which
the row ran faster than in the other tree's process of the same pair.
Writes both trees' files: ``--out`` and ``--against-out``. The other
tree must have this interface: h-free problems whose ``extract`` takes h,
and a march whose DEBUG record carries its ``SolveStats``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPEATS = 3
ROUNDS = 5
H_VALUES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16)
# the h ranges of each problem's slopes
SLOPE_H = (1e-6, 1e-3)
SLOPE_SMALL_H = (1e-16, 1e-8)


class _March(logging.Handler):
    """Keeps the fields of the last march's SolveStats."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.stats = None

    def emit(self, record):
        if hasattr(record, "stats"):
            self.stats = dataclasses.asdict(record.stats)


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _slope(rows: list[dict], h_range: tuple[float, float]) -> float | None:
    """Least-squares slope of log(seconds) against log(1/h) over the timed
    rows with h in ``h_range``; None with fewer than two."""
    timed = [r for r in rows if h_range[0] <= r["h"] <= h_range[1] and r["seconds"]]
    if len(timed) < 2:
        return None
    x = np.log([1.0 / r["h"] for r in timed])
    y = np.log([r["seconds"] for r in timed])
    return float(np.polyfit(x, y, 1)[0])


def _ratios(rows: list[dict]) -> dict:
    """The row's seconds at h = 1e-2 and 1e-3 over those at 1e-5, where the
    problem has timed rows at those h."""
    seconds = {r["h"]: r["seconds"] for r in rows if r["seconds"]}
    if 1e-5 not in seconds:
        return {}
    return {f"{h:g}": seconds[h] / seconds[1e-5] for h in (1e-2, 1e-3) if h in seconds}


def measure(echo) -> dict:
    """Rows per problem, timed in this process, and the environment."""
    import crossing_kit
    from crossing_kit.errors import StepFailure, ValidationError
    from crossing_kit.march import PANEL_POINTS
    from crossing_kit.normalform import model_corpus
    from crossing_kit.schrodinger import schrodinger_corpus

    handler = _March()
    logger = logging.getLogger("crossing_kit")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    cases = [(f"model-corpus {k}", lambda k=k: model_corpus()[k]) for k in range(4)]
    cases += [
        (f"schrodinger-corpus {k}", lambda k=k: schrodinger_corpus()[k])
        for k in (0, 1)
    ]
    problems = {}
    for name, build in cases:
        rows = []
        for h in H_VALUES:
            prob = build()  # a fresh problem per row: its first run sets it up
            seconds = []
            try:
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    prob.extract(h)
                    seconds.append(time.perf_counter() - t0)
            except (ValidationError, StepFailure) as exc:
                rows.append({"h": h, "refused": str(exc), "seconds": None})
                echo(f"{name} h={h:g}: refused ({exc})")
                continue
            stats, median = handler.stats, statistics.median(seconds)
            panels = stats["levin_panels"] + stats["direct_panels"]
            us = 1e6 * median / (panels * PANEL_POINTS)
            rows.append({**stats, "seconds": median, "us_per_node": us})
            echo(f"{name} h={h:g}: {stats['levin_panels']} Levin and "
                 f"{stats['direct_panels']} direct panels, {median:.4f} s, "
                 f"{us:.3f} us/node")
        problems[name] = rows
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": crossing_kit.BACKEND,
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
    }
    return {"problems": problems, "env": env}


def _child(pythonpath: str) -> dict:
    """One measure() in a fresh interpreter with the given PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=pythonpath)
    done = subprocess.run(
        [sys.executable, __file__, "--child"],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def alternate(other: Path, rounds: int) -> tuple[dict, dict]:
    """measure() of this tree and of ``other`` in ``rounds`` pairs of child
    processes, alternating which of the pair runs first. Returns both
    trees' records: per row the median over rounds and ``rounds_faster``."""
    trees = [os.environ.get("PYTHONPATH", ""), str(other / "src")]
    runs = [[], []]
    for r in range(rounds):
        for t in (0, 1) if r % 2 == 0 else (1, 0):
            print(f"round {r + 1}/{rounds}: {trees[t]}", flush=True)
            runs[t].append(_child(trees[t]))
    records = []
    for t in (0, 1):
        problems = {}
        for name, first in runs[t][0]["problems"].items():
            rows = []
            for i, row in enumerate(first):
                if row["seconds"] is None:
                    rows.append(row)
                    continue
                mine = [run["problems"][name][i] for run in runs[t]]
                seconds = [r["seconds"] for r in mine]
                # us_per_node is the seconds over the row's fixed node count
                us = statistics.median(r["us_per_node"] for r in mine)
                theirs = [run["problems"][name][i]["seconds"] for run in runs[1 - t]]
                median = statistics.median(seconds)
                rows.append(dict(row, seconds=median, us_per_node=us))
                # a row the other tree refuses counts as faster
                rows[-1]["rounds_faster"] = sum(
                    b is None or a < b for a, b in zip(seconds, theirs)
                )
            problems[name] = rows
        records.append({"problems": problems, "env": runs[t][0]["env"]})
    return records[0], records[1]


def _write(path: str, label: str, what: str, measured: dict) -> None:
    record = {
        "label": label,
        "what": what,
        "problems": [
            {
                "problem": name,
                "rows": rows,
                "slope": _slope(rows, SLOPE_H),
                "slope_small_h": _slope(rows, SLOPE_SMALL_H),
                "ms_ratio_to_1e-5": _ratios(rows),
            }
            for name, rows in measured["problems"].items()
        ],
        "env": measured["env"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="names the measured tree")
    parser.add_argument("--out", help="the measured tree's file (required)")
    parser.add_argument("--against", type=Path, help="a second source tree")
    parser.add_argument("--against-label", default="", help="names the second tree")
    parser.add_argument("--against-out", help="the second tree's file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        echo = lambda line: print(line, file=sys.stderr, flush=True)  # noqa: E731
        print(json.dumps(measure(echo)))
        return 0
    if args.out is None:
        parser.error("the following arguments are required: --out")
    if args.against is None:
        what = (
            "one extraction (both input columns, one march) per row; median "
            f"of {REPEATS} in-process runs. Compare panels across trees: each "
            "tree is timed in its own process without alternation, so the "
            "seconds cannot resolve a change under about 20%"
        )
        _write(args.out, args.label, what, measure(lambda line: print(line, flush=True)))
        return 0
    if args.against_out is None:
        parser.error("--against needs --against-out")
    what = (
        "one extraction (both input columns, one march) per row; per "
        f"process the median of {REPEATS} runs, then the median over "
        f"{ROUNDS} rounds, each a pair of processes of this tree and "
        "the other that alternate which runs first; rounds_faster counts "
        "the rounds in which this tree's row was the faster of the pair"
    )
    mine, theirs = alternate(args.against, ROUNDS)
    _write(args.out, args.label, what, mine)
    _write(args.against_out, args.against_label, what, theirs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
