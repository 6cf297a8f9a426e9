"""Cost of one extraction as h shrinks: seconds, nodes and us per node per row.

    PYTHONPATH=src python3 scripts/bench_march.py --out PATH [--label TEXT]
    PYTHONPATH=src python3 scripts/bench_march.py --out PATH --against DIR
        --against-out PATH [--against-label TEXT] [--label TEXT]

Extracts the transfer matrix of model-corpus 0, 1, 2 (self-adjoint, one
Neumann chain) and 3 (r1 != r2, two chains) and of schrodinger-corpus 0
and 1 at h = 1e-2 .. 1e-6 and at every second power of ten from 1e-8 to
1e-16, with the ``crossing_kit`` package found on PYTHONPATH. Each row is
timed REPEATS times in one process (the median is kept); its counts come
from the march's DEBUG line, and ``us_per_node`` is the median seconds per
node, uniformly marched or on a panel, in microseconds.

Every measured tree prints ``N Neumann rows per sweep`` and, for its
panels, ``N Levin panels of Q nodes as C panel batches of S sweeps`` and
``N direct panels of Q nodes as C panel batches of S sweeps``, which the
rows record as ``panels``, ``panel_nodes``, ``panel_chunks``,
``panel_sweeps`` and ``direct_panels``, ``direct_nodes``,
``direct_chunks``, ``direct_sweeps`` (a batch that holds both kinds counts
for both; a tree that prints ``panel chunks`` for ``panel batches`` is
read the same way, and one without direct panels records 0 for them). A
tree that keeps a uniform plan of Picard chunks also prints ``marched N
nodes`` and ``N Picard chunks of S sweeps``, recorded as ``nodes``,
``picard_chunks`` and ``sweeps`` (0 for a tree that solves every span on
panels), and ``N panels refused by the Levin check``; a tree whose Levin
check splits a panel prints ``N panels split by the Levin check``, and
``down to level L of D``, the deepest level of its panels and the one its
budget allows. The rows record ``levin_refused`` from either line, and
``level`` and ``allowed_level`` (None for a tree without them). A row the
tree refuses (its node budget or its split's budget) is kept with its
message under ``refused`` and no timing. Writes ``--out``, which has no
default so that no run overwrites a committed BENCH_*.json by accident,
with the rows, the log-log slope of seconds against 1/h over h = 1e-3 ..
1e-6 (``slope``) and over h = 1e-8 .. 1e-16 (``slope_small_h``), the
ratios of the row's seconds at h = 1e-2 and 1e-3 to those at 1e-5
(``ms_ratio_to_1e-5``) per problem, and the environment.

Without ``--against`` the rows are timed in this process; compare
``nodes`` across two such files, not ``seconds``: the two trees then run
one after the other, so machine drift between them reaches the seconds,
which cannot resolve a change under about 20%.

With ``--against DIR`` the rows are timed in ROUNDS pairs of child
processes, one with PYTHONPATH as given and one with PYTHONPATH=DIR/src,
alternating which goes first. Each row keeps the median over rounds of
its per-process medians, and ``rounds_faster`` counts the rounds in which
the row ran faster than in the other tree's process of the same pair.
Writes both trees' files: ``--out`` and ``--against-out``. The other
tree must have this interface, h-free problems whose ``extract`` takes h:
a tree whose problems carry their own h cannot be timed against it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import re
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
# the rows' record of the Levin and the direct panels
LEVIN = ("panels", "panel_nodes", "panel_chunks", "panel_sweeps")
DIRECT = ("direct_panels", "direct_nodes", "direct_chunks", "direct_sweeps")


class _March(logging.Handler):
    """Keeps the counts of the last march's DEBUG line: its uniform nodes,
    Picard chunks and sweeps (0 where it prints none), Neumann rows per
    sweep, Levin panels, their nodes, batches and sweeps, direct panels,
    their nodes, batches and sweeps, the panels the Levin check refused or
    split, and the deepest and allowed levels (None where it prints
    none)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.march = None

    def emit(self, record):
        msg = record.getMessage()
        if "Neumann rows per sweep" not in msg:
            return

        def ints(pattern, names):
            found = re.search(pattern, msg)
            values = [int(g) for g in found.groups()] if found else [0] * len(names)
            return dict(zip(names, values))

        batches = r"as (\d+) panel (?:chunks|batches) of (\d+) sweeps"
        level = re.search(r"down to level (\d+) of (\d+)", msg)
        self.march = {
            **ints(r"marched (\d+) nodes", ["nodes"]),
            **ints(r"(\d+) Picard chunks of (\d+) sweeps", ["picard_chunks", "sweeps"]),
            **ints(r"(\d+) Neumann rows per sweep", ["rows_per_sweep"]),
            **ints(r"(\d+) Levin panels of (\d+) nodes " + batches, LEVIN),
            **ints(r"(\d+) direct panels of (\d+) nodes " + batches, DIRECT),
            **ints(r"(\d+) panels (?:refused|split) by the Levin", ["levin_refused"]),
            "level": int(level.group(1)) if level else None,
            "allowed_level": int(level.group(2)) if level else None,
        }


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


def _row(h: float, march: dict, seconds: float | None) -> dict:
    """One row: h, the march's counts (or the refusal) and the timing."""
    row = {"h": h, **march, "seconds": seconds}
    if seconds is not None:
        panels = march.get("panel_nodes", 0) + march.get("direct_nodes", 0)
        row["us_per_node"] = 1e6 * seconds / (march["nodes"] + panels)
    return row


def measure(echo) -> dict:
    """Rows per problem, timed in this process, and the environment."""
    import crossing_kit
    from crossing_kit.errors import StepFailure, ValidationError
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
                rows.append(_row(h, {"refused": str(exc)}, None))
                echo(f"{name} h={h:g}: refused ({exc})")
                continue
            march = handler.march
            rows.append(_row(h, march, statistics.median(seconds)))
            echo(f"{name} h={h:g}: {march['nodes']} nodes, "
                 f"{march['picard_chunks']} chunks, {march['sweeps']} sweeps, "
                 f"{march['panels']} Levin and {march['direct_panels']} direct "
                 f"panels, {rows[-1]['seconds']:.4f} s, "
                 f"{rows[-1]['us_per_node']:.3f} us/node")
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
                march = {
                    k: v for k, v in row.items()
                    if k not in ("h", "seconds", "us_per_node")
                }
                if row["seconds"] is None:
                    rows.append(_row(row["h"], march, None))
                    continue
                mine = [run["problems"][name][i]["seconds"] for run in runs[t]]
                theirs = [run["problems"][name][i]["seconds"] for run in runs[1 - t]]
                rows.append(_row(row["h"], march, statistics.median(mine)))
                # a row the other tree refuses counts as faster
                rows[-1]["rounds_faster"] = sum(
                    b is None or a < b for a, b in zip(mine, theirs)
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
            f"of {REPEATS} in-process runs. Compare nodes across trees: each "
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
