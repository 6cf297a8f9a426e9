"""Cost of one extraction as h shrinks: seconds, nodes and us per node per row.

    PYTHONPATH=src python3 scripts/bench_march.py --out PATH [--label TEXT]
    PYTHONPATH=src python3 scripts/bench_march.py --out PATH --against DIR
        --against-out PATH [--against-label TEXT] [--label TEXT]

Extracts the transfer matrix of model-corpus 0, 1, 2 (self-adjoint, one
Neumann chain) and 3 (r1 != r2, two chains) at h = 1e-2 .. 1e-6 and of
schrodinger-corpus 0 and 1 at h = 1e-2 .. 1e-5, with the
``crossing_kit`` package found on PYTHONPATH. Each row is timed REPEATS
times in one process (the median is kept); its node count, Picard chunk
count, total Picard sweeps and the Neumann rows each sweep integrates
come from the march's DEBUG line, and ``us_per_node`` is the median
seconds per marched node in microseconds. Each measured tree prints the
DEBUG line's ``marched N nodes``, ``N Picard chunks of S sweeps`` and
``N Neumann rows per sweep`` (every tree from 2b05510 on does). Writes
``--out``, which has no default so that no run overwrites a committed
BENCH_*.json by accident, with the rows, the log-log slope of seconds
against 1/h per problem, and the environment.

Without ``--against`` the rows are timed in this process; compare
``nodes`` across two such files, not ``seconds``: the two trees then run
one after the other, so machine drift between them reaches the seconds,
which cannot resolve a change under about 20%.

With ``--against DIR`` the rows are timed in ROUNDS pairs of child
processes, one with PYTHONPATH as given and one with PYTHONPATH=DIR/src,
alternating which goes first. Each row keeps the median over rounds of
its per-process medians, and ``rounds_faster`` counts the rounds in which
the row ran faster than in the other tree's process of the same pair.
Writes both trees' files: ``--out`` and ``--against-out``.
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
H_MODEL = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
H_PAIR = (1e-2, 1e-3, 1e-4, 1e-5)


class _March(logging.Handler):
    """Keeps the node count, Picard chunks, sweeps and Neumann rows per
    sweep of the last march's DEBUG line."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.nodes = self.chunks = self.sweeps = self.rows = None

    def emit(self, record):
        msg = record.getMessage()
        found = re.search(r"marched (\d+) nodes", msg)
        if not found:
            return
        self.nodes = int(found.group(1))
        solve = re.search(r"(\d+) Picard chunks of (\d+) sweeps", msg)
        self.chunks, self.sweeps = int(solve.group(1)), int(solve.group(2))
        self.rows = int(re.search(r"(\d+) Neumann rows per sweep", msg).group(1))


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


def _row(h: float, nodes: int, chunks: int, sweeps, rows, seconds: float) -> dict:
    return {
        "h": h,
        "nodes": nodes,
        "picard_chunks": chunks,
        "sweeps": sweeps,
        "rows_per_sweep": rows,
        "seconds": seconds,
        "us_per_node": 1e6 * seconds / nodes,
    }


def measure(echo) -> dict:
    """Rows per problem, timed in this process, and the environment."""
    import crossing_kit
    from crossing_kit.normalform import model_corpus
    from crossing_kit.schrodinger import schrodinger_corpus

    handler = _March()
    logger = logging.getLogger("crossing_kit")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    cases = [
        (f"model-corpus {k}", lambda h, k=k: model_corpus(h)[k], H_MODEL)
        for k in (0, 1, 2, 3)
    ]
    cases += [
        (f"schrodinger-corpus {k}", lambda h, k=k: schrodinger_corpus(h)[k], H_PAIR)
        for k in (0, 1)
    ]
    problems = {}
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
                _row(
                    h,
                    handler.nodes,
                    handler.chunks,
                    handler.sweeps,
                    handler.rows,
                    statistics.median(seconds),
                )
            )
            echo(f"{name} h={h:g}: {rows[-1]['nodes']} nodes, "
                 f"{handler.chunks} chunks, {handler.sweeps} sweeps, "
                 f"{rows[-1]['seconds']:.3f} s, {rows[-1]['us_per_node']:.3f} us/node")
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
                mine = [run["problems"][name][i]["seconds"] for run in runs[t]]
                theirs = [run["problems"][name][i]["seconds"] for run in runs[1 - t]]
                rows.append(
                    _row(
                        row["h"],
                        row["nodes"],
                        row["picard_chunks"],
                        row["sweeps"],
                        row["rows_per_sweep"],
                        statistics.median(mine),
                    )
                )
                rows[-1]["rounds_faster"] = sum(a < b for a, b in zip(mine, theirs))
            problems[name] = rows
        records.append({"problems": problems, "env": runs[t][0]["env"]})
    return records[0], records[1]


def _write(path: str, label: str, what: str, measured: dict) -> None:
    record = {
        "label": label,
        "what": what,
        "problems": [
            {"problem": name, "rows": rows, "slope": _slope(rows)}
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
