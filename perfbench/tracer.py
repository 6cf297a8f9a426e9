"""In-memory spans and counters around the public calls of crossing_kit.

The tracer wraps module attributes from outside the package: nothing under
``src/`` changes. A wrapped call records a span (name, start, end, parent
span, row) in the calling thread; spans of one sweep row carry that row's h
as their identifier. Counters and sums are kept per thread, so the hot
paths (the ODE right-hand side is called about a million times per solve)
take no lock and lose no update when the sweep runs rows on two threads.

``per_layer_metrics`` turns the recorded spans and counters into the
benchmark's per-layer metrics; ``self_times`` is the span arithmetic behind
them.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    row: float | None
    start: float
    end: float
    cpu: float = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: list[int] = []
        self.row: float | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.maxes: dict = {}


class Tracer:
    """Spans and counters, recorded per thread and merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        # spans opened on a thread with an empty stack (sweep rows on pool
        # threads) attach to the innermost open fan-out span
        self._fanout: int | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def maximum(self, name: str, value: float) -> None:
        maxes = self._state().maxes
        if name not in maxes or value > maxes[name]:
            maxes[name] = value

    def call(self, name, fn, args, kwargs, *, row_arg=None, fanout=False):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        st = self._state()
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else self._fanout
        outer_row = st.row
        if row_arg is not None:
            st.row = float(args[row_arg])
        prev_fanout = self._fanout
        if fanout:
            self._fanout = sid
        st.stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            st.stack.pop()
            if fanout:
                self._fanout = prev_fanout
            st.spans.append(Span(sid, name, parent, st.row, t0, t1, c1 - c0))
            st.row = outer_row

    def spans(self) -> list[Span]:
        with self._lock:
            return sorted(
                (s for st in self._states for s in st.spans), key=lambda s: s.id
            )

    def counts(self) -> Counter:
        out: Counter = Counter()
        with self._lock:
            for st in self._states:
                out.update(st.counts)
        return out

    def sums(self) -> dict:
        out: defaultdict = defaultdict(float)
        with self._lock:
            for st in self._states:
                for k, v in st.sums.items():
                    out[k] += v
        return dict(out)

    def maxes(self) -> dict:
        out: dict = {}
        with self._lock:
            for st in self._states:
                for k, v in st.maxes.items():
                    out[k] = max(v, out.get(k, v))
        return out


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children.

    Children may overlap each other (rows running on two threads) or run
    past their parent's end; only the covered part inside the parent counts.
    Grandchildren lie inside their own parent and are not subtracted twice.
    """
    by_parent = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            by_parent[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in by_parent[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - union_length(clipped)
    return out


# -- wrapping the package ----------------------------------------------------


def _patch(tracer, module, attr, name, on_result=None, **span_kw):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs, **span_kw)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    setattr(module, attr, wrapper)


def _patch_counted(tracer, module, attr, name):
    """Count and time every call without a span: for the ODE right-hand side."""
    fn = getattr(module, attr)
    clock = time.perf_counter

    def wrapper(*args):
        t0 = clock()
        out = fn(*args)
        st = tracer._state()
        st.sums[name + ".s"] += clock() - t0
        st.counts[name + ".calls"] += 1
        return out

    setattr(module, attr, wrapper)


def _on_grid(tracer, args, result):
    n = int(result[2])
    tracer.count("grids.grid_for.nodes", n)
    tracer.maximum("grids.grid_for.max_nodes", n)


def _on_cum_quad6(tracer, args, result):
    tracer.count("kernels.cum_quad6.samples", len(result))


def _on_neumann(tracer, args, sol):
    tracer.count("normalform.neumann_solve.term_nodes", sol.terms * sol.u1.n)
    tracer.maximum("normalform.neumann_solve.k_norm_max", sol.k_norm_est)
    tracer.maximum("normalform.neumann_solve.residual_bound_max", sol.residual_bound)


def _on_ode(tracer, args, sol):
    tracer.count("schrodinger.ode.nfev", int(sol.nfev))


def _on_branch(tracer, args, result):
    # the sweep reads the + branch coefficients (crossing at +xi0); their
    # ripple over the read-off window is a free estimate of extraction error
    a = np.asarray(result[0])
    mean = complex(a.mean())
    if abs(mean) > 0.0:
        tracer.maximum(
            "schrodinger.readoff_spread_max", float(np.max(np.abs(a - mean)) / abs(mean))
        )


def _on_sweep(tracer, args, report):
    tracer.count("sweep.rows_failed", sum(r.status != "ok" for r in report.rows))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every crossing_kit layer that verify runs."""
    from crossing_kit import cli, normalform, oscquad, schrodinger, sweep

    _patch(tracer, cli, "parse_config", "cli.parse_config")
    _patch(tracer, sweep, "run_sweep", "sweep.run_sweep", _on_sweep, fanout=True)
    _patch(tracer, sweep, "_solve_pair", "sweep.row", row_arg=1)
    _patch(tracer, sweep, "attach_fits", "sweep.fits")
    _patch(tracer, sweep, "write_csv", "sweep.write_csv")
    for module, attr in (
        (normalform, "predict_transfer"),
        (schrodinger, "predict_transfer_case_i"),
        (cli, "predict_transfer"),
        (cli, "predict_transfer_case_i"),
    ):
        _patch(tracer, module, attr, "predict")
    _patch(tracer, normalform, "transfer_numeric", "normalform.transfer_numeric")
    _patch(tracer, normalform, "build_workspace", "normalform.workspace.request")
    _patch(tracer, normalform, "ModelWorkspace", "normalform.workspace.build")
    _patch(tracer, normalform, "neumann_solve", "normalform.neumann_solve", _on_neumann)
    _patch(tracer, normalform, "extract_transfer", "normalform.extract_transfer")
    _patch(tracer, normalform, "ode_oracle", "normalform.ode_oracle")
    for module in (normalform, schrodinger):
        _patch(tracer, module, "grid_for", "grids.grid_for", _on_grid)
    for module in (normalform, oscquad):
        _patch(tracer, module, "cum_quad6", "kernels.cum_quad6", _on_cum_quad6)
    _patch(
        tracer, schrodinger, "numeric_transfer_case_i", "schrodinger.numeric_transfer"
    )
    _patch(tracer, schrodinger, "solve_ivp", "schrodinger.ode", _on_ode)
    _patch(tracer, schrodinger, "branch_decompose", "schrodinger.branch_decompose", _on_branch)
    _patch(tracer, schrodinger.WkbBasis, "phase", "schrodinger.wkb_phase")
    _patch_counted(tracer, schrodinger, "schrod_rhs", "kernels.schrod_rhs")


# -- per-layer metrics -------------------------------------------------------

# counters that must repeat exactly between two traced runs of one workload
COUNT_METRICS = (
    "kernels.cum_quad6.calls",
    "kernels.cum_quad6.samples",
    "kernels.schrod_rhs.calls",
    "grids.grid_for.nodes",
    "grids.grid_for.max_nodes",
    "normalform.workspace.requests",
    "normalform.workspace.builds",
    "normalform.neumann_solve.calls",
    "normalform.neumann_solve.term_nodes",
    "normalform.ode_fallbacks",
    "schrodinger.numeric_transfer.calls",
    "schrodinger.ode.calls",
    "schrodinger.ode.nfev",
    "predict.calls",
    "sweep.rows",
    "sweep.rows_failed",
)

def _slope(points) -> float:
    """Least-squares slope of log(cost) against log(1/h)."""
    pts = [(math.log(1.0 / h), math.log(c)) for h, c in points if c > 0.0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx if sxx > 0.0 else 0.0


def per_layer_metrics(spans, counts, sums, maxes) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced verify run.

    ``.s`` is the total time inside the layer's calls, children included,
    except ``normalform.neumann_solve.s``, which is self time.
    """
    counts = Counter(counts)
    selft = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1

    rows = [s for s in spans if s.name == "sweep.row"]
    extract = defaultdict(float)
    for s in spans:
        if s.name in ("normalform.transfer_numeric", "schrodinger.numeric_transfer"):
            extract[s.row] += s.end - s.start
    row_wall = sum(s.end - s.start for s in rows)
    row_cpu = sum(s.cpu for s in rows)
    hmin_row = min(rows, key=lambda s: s.row, default=None)

    cq_s = total["kernels.cum_quad6"]
    cq_samples = counts["kernels.cum_quad6.samples"]
    out = {
        "kernels.cum_quad6.calls": calls["kernels.cum_quad6"],
        "kernels.cum_quad6.samples": cq_samples,
        "kernels.cum_quad6.s": cq_s,
        # 16 B read + 16 B written per complex sample, as computed, not measured
        "kernels.cum_quad6.gbps_computed": 32.0 * cq_samples / cq_s / 1e9 if cq_s else 0.0,
        "kernels.schrod_rhs.calls": counts["kernels.schrod_rhs.calls"],
        "kernels.schrod_rhs.s": sums.get("kernels.schrod_rhs.s", 0.0),
        "grids.grid_for.nodes": counts["grids.grid_for.nodes"],
        "grids.grid_for.max_nodes": maxes.get("grids.grid_for.max_nodes", 0),
        "normalform.workspace.requests": calls["normalform.workspace.request"],
        "normalform.workspace.builds": calls["normalform.workspace.build"],
        "normalform.workspace.s": total["normalform.workspace.build"],
        "normalform.neumann_solve.calls": calls["normalform.neumann_solve"],
        "normalform.neumann_solve.s": sum(
            selft[s.id] for s in spans if s.name == "normalform.neumann_solve"
        ),
        "normalform.neumann_solve.term_nodes": counts["normalform.neumann_solve.term_nodes"],
        "normalform.neumann_solve.k_norm_max": maxes.get(
            "normalform.neumann_solve.k_norm_max", 0.0
        ),
        "normalform.neumann_solve.residual_bound_max": maxes.get(
            "normalform.neumann_solve.residual_bound_max", 0.0
        ),
        "normalform.extract_transfer.s": total["normalform.extract_transfer"],
        "normalform.ode_fallbacks": calls["normalform.ode_oracle"],
        "schrodinger.numeric_transfer.calls": calls["schrodinger.numeric_transfer"],
        "schrodinger.numeric_transfer.s": total["schrodinger.numeric_transfer"],
        "schrodinger.ode.calls": calls["schrodinger.ode"],
        "schrodinger.ode.s": total["schrodinger.ode"],
        "schrodinger.ode.nfev": counts["schrodinger.ode.nfev"],
        "schrodinger.branch_decompose.s": total["schrodinger.branch_decompose"],
        "schrodinger.wkb_phase.s": total["schrodinger.wkb_phase"],
        "schrodinger.readoff_spread_max": maxes.get("schrodinger.readoff_spread_max", 0.0),
        "predict.calls": calls["predict"],
        "predict.s": total["predict"],
        "sweep.rows": len(rows),
        "sweep.rows_failed": counts["sweep.rows_failed"],
        "sweep.run_sweep.s": total["sweep.run_sweep"],
        "sweep.fits.s": total["sweep.fits"],
        "sweep.write_csv.s": total["sweep.write_csv"],
        "cli.parse_config.s": total["cli.parse_config"],
        "sweep.row_wait_frac": 1.0 - row_cpu / row_wall if row_wall > 0.0 else 0.0,
        "sweep.row_s.hmin": hmin_row.end - hmin_row.start if hmin_row else 0.0,
        "sweep.cost_slope": _slope(extract.items()),
    }
    return out
