"""Benchmark of ``crossing-kit verify``, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, timed and traced

Each operation is one ``verify`` call in a fresh interpreter (child.py): the
import of ``crossing_kit.cli`` is timed as setup_s, the call as run_s, and
the process reports its own peak RSS. The load is a closed loop with one
client: the next operation starts when the previous one has ended, for
``--seconds`` seconds, at least once. Extra import-only processes give
setup_s more samples. With ``--trace 1`` the benchmark makes one untraced
and two traced operations instead and reports the per-layer metrics of
tracer.py; the two traced runs must give identical counts.

``--seed`` only permutes the order in which a workload's h values are
passed (each operation draws its own order from the seed's stream); rows
come back in grid order, so every output must stay byte-identical.

Correctness gate, per operation: exit code 0, every CSV row ``ok``, and CSV
bytes identical to one ``jobs=1`` reference run of the same config. The
reference is made once per checkout and workload, outside any timed run,
and kept in ``.perfbench_out/``. An operation that breaks a check is counted as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import accuracy
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
REFERENCE_TIMEOUT_S = 600


@dataclass(frozen=True)
class Workload:
    problem: dict
    jobs: int
    h_values: tuple[float, ...]


def _geom(start: float, stop: float, count: int) -> tuple[float, ...]:
    # the same values the CLI builds for a {"start", "stop", "count"} grid
    import numpy as np

    return tuple(float(v) for v in np.geomspace(start, stop, count))


# Why each workload is here: perfbench/README.md. Grids of the jobs=2
# workloads put their dominant rows where every pass order overlaps them
# the same way, so the seed's order cannot change the thread schedule.
WORKLOADS = {
    "model-verify": Workload(
        {"kind": "model-corpus", "index": 0}, 1, _geom(1e-1, 1e-4, 12)
    ),
    "model-deep": Workload(
        {"kind": "model-corpus", "index": 1}, 2, (1e-3, 5e-4, 2e-5, 1e-5)
    ),
    "schrodinger-verify": Workload(
        {"kind": "schrodinger-corpus", "index": 0}, 2, (1e-2, 5e-3, 2.5e-3, 1e-4)
    ),
}


@dataclass
class Operation:
    result: dict | None
    wall_s: float
    csv: bytes | None
    summary: dict | None
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _child(args: list[str], timeout: float) -> tuple[dict | None, float, str]:
    """Run child.py; returns (its result, wall seconds, failure text)."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)] + args
    t0 = time.perf_counter()
    with open(work / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, f"timed out after {timeout} s"
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "child.log").read_text(encoding="utf-8")[-400:]
        return None, wall, f"benchmark child exited {proc.returncode}: {tail}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    expected = ROOT / "src" / "crossing_kit"
    if Path(result["env"]["package"]).resolve() != expected.resolve():
        return None, wall, f"imported crossing_kit from {result['env']['package']}"
    return result, wall, ""


def _verify(w: Workload, h_values, jobs: int, *, trace=False, timeout=CHILD_TIMEOUT_S):
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    csv_path, summary_path = work / "rows.csv", work / "summary.json"
    for p in (csv_path, summary_path):
        p.unlink(missing_ok=True)
    config = {
        "mode": "verify",
        "problem": w.problem,
        "h_grid": {"values": list(h_values)},
        "output": {"csv": str(csv_path), "summary": str(summary_path)},
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    args = (["--trace"] if trace else []) + [
        "--", "verify", "--config", str(config_path), "--jobs", str(jobs),
    ]
    result, wall, failure = _child(args, timeout)
    problems = [failure] if failure else []
    csv = summary = None
    if result is not None:
        if result["rc"] != 0:
            problems.append(f"verify exited {result['rc']}")
        if csv_path.exists() and summary_path.exists():
            csv = csv_path.read_bytes()
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            bad = accuracy.failed_rows(accuracy.parse_csv(csv.decode()))
            if bad:
                problems.append(f"rows not ok at h = {', '.join(bad)}")
        else:
            problems.append("verify wrote no CSV or summary")
    return Operation(result, wall, csv, summary, problems)


def _source_key(name: str, w: Workload) -> str:
    """Names a reference by everything that could change its CSV bytes."""
    digest = hashlib.sha256()
    digest.update(f"{name}|{w!r}|{sys.version}".encode())
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference(name: str) -> bytes | str:
    """CSV bytes of one jobs=1 run of a workload, or why there is none.

    Made on the workload's first run in a checkout, before any timing, and
    kept for the runs after it.
    """
    w = WORKLOADS[name]
    path = OUT / "ref" / f"{name}-{_source_key(name, w)}.csv"
    if not path.exists():
        op = _verify(w, w.h_values, 1, timeout=REFERENCE_TIMEOUT_S)
        if not op.ok:
            return "jobs=1 reference failed: " + "; ".join(op.problems)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(op.csv)
        tmp.replace(path)
    return path.read_bytes()


def _gate(op: Operation, ref) -> Operation:
    if isinstance(ref, str):
        op.problems.append(ref)
    elif op.csv is not None and op.csv != ref:
        op.problems.append("CSV bytes differ from the jobs=1 reference")
    return op


def _orders(w: Workload, seed: int):
    rng = random.Random(seed)
    while True:
        values = list(w.h_values)
        rng.shuffle(values)
        yield values


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def measure_timed(name: str, seed: int, seconds: float, ref):
    """Closed loop of verify operations for ``seconds``; end-to-end metrics."""
    w = WORKLOADS[name]
    orders = _orders(w, seed)
    deadline = time.perf_counter() + seconds
    setup = []
    for _ in range(SETUP_PROBES):
        result, _, _ = _child(["--probe", "--"], CHILD_TIMEOUT_S)
        if result is not None:
            setup.append(result["setup_s"])
    ops = []
    while True:
        op = _gate(_verify(w, next(orders), w.jobs), ref)
        ops.append(op)
        if time.perf_counter() + op.wall_s > deadline:
            break
    good = [op for op in ops if op.ok]
    setup += [op.result["setup_s"] for op in good]
    samples = {
        "setup_s": setup,
        "run_s": [op.result["run_s"] for op in good],
        "peak_rss_mb": [op.result["peak_rss_mb"] for op in good],
    }
    for op in good:
        rows = accuracy.parse_csv(op.csv.decode())
        for k, v in accuracy.accuracy_metrics(rows, op.summary).items():
            samples.setdefault(k, []).append(v)
    metrics = {k: _median(v) for k, v in samples.items()}
    return ops, metrics, samples


def measure_traced(name: str, seed: int, ref):
    """One untraced and two traced operations; per-layer metrics."""
    w = WORKLOADS[name]
    orders = _orders(w, seed)
    plain = _gate(_verify(w, next(orders), w.jobs), ref)
    traced = [
        _gate(_verify(w, next(orders), w.jobs, trace=True), ref) for _ in range(2)
    ]
    ops = [plain] + traced
    metrics = {}
    if all(op.ok for op in ops):
        first, second = (op.result["per_layer"] for op in traced)
        diff = {
            k: (first[k], second[k])
            for k in tracer_mod.COUNT_METRICS
            if first[k] != second[k]
        }
        if diff:
            traced[1].problems.append(f"counts differ between traced runs: {diff}")
        metrics = dict(first)
        metrics["trace.overhead_s"] = (
            _median([op.result["run_s"] for op in traced]) - plain.result["run_s"]
        )
    samples = {k: [v] for k, v in metrics.items()}
    return ops, metrics, samples


def environment(ops) -> dict:
    env = next((op.result["env"] for op in ops if op.result), {})
    env = {k: v for k, v in env.items() if k != "package"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=False,
        )
        commit = proc.stdout.strip() or commit
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu=cpu,
        commit=commit,
        peak_rss="getrusage(RUSAGE_SELF).ru_maxrss of the verify process, KiB * 1024 / 1e6",
    )
    return env


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(name, trace, ops, metrics, samples, declared, prefix=""):
    """Print a readable block and return the result's metrics by name."""
    kind = "per_layer" if trace else "end_to_end"
    mode = "traced" if trace else "timed"
    print(f"== {name} ({mode}, jobs={WORKLOADS[name].jobs})")
    for op in ops:
        for problem in op.problems:
            print(f"  FAILED: {problem}")
    out = {}
    for m in declared[kind]:
        key = m["name"]
        if key not in metrics or not math.isfinite(metrics[key]):
            continue
        vals = samples[key]
        spread = f"  min {min(vals):.6g}  max {max(vals):.6g}" if len(vals) > 1 else ""
        print(
            f"  {key:<44} {metrics[key]:>14.6g} {m['unit']:<6}"
            f" n={len(vals)}{spread}"
        )
        out[prefix + key] = {"value": metrics[key], "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "crossing_kit" / "cli.py").is_file():
        print(f"no crossing_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared()

    if args.workload == "all":
        runs = [(n, t) for n in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    all_ops = []
    metrics_out = {}
    for name, trace in runs:
        ref = reference(name)
        if trace:
            ops, metrics, samples = measure_traced(name, args.seed, ref)
        else:
            ops, metrics, samples = measure_timed(name, args.seed, args.seconds, ref)
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics_out.update(report(name, trace, ops, metrics, samples, declared, prefix))
        all_ops += ops
    failed = sum(not op.ok for op in all_ops)
    print("env " + json.dumps(environment(all_ops), sort_keys=True))
    expected = sum(
        len(declared["per_layer" if t else "end_to_end"]) for _, t in runs
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and len(metrics_out) == expected,
                "attempted": len(all_ops),
                "failed": failed,
                "metrics": metrics_out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
