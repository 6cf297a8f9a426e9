"""Span arithmetic and thread-safe counting of the benchmark's tracer."""

import sys
import threading

import pytest

from tracer import COUNT_METRICS, Span, Tracer, per_layer_metrics, self_times, union_length


def _span(sid, parent, start, end, name="x", row=None, cpu=0.0):
    return Span(sid, name, parent, row, start, end, cpu)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(1.0, 2.0), (0.0, 3.0)]) == pytest.approx(3.0)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: already inside span 1
        _span(3, 0, 6.0, 7.0),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # two rows on two threads overlap; a third runs past the parent's end
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 6.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 0, 9.0, 12.0),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_links_spans_and_rows_across_threads():
    tr = Tracer()

    def leaf():
        return tr.call("leaf", lambda: None, (), {})

    def row(h):
        return tr.call("leaf", leaf, (), {})

    def sweep():
        threads = [
            threading.Thread(target=tr.call, args=("sweep.row", row, (h,), {}),
                             kwargs={"row_arg": 0})
            for h in (0.1, 0.01)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tr.call("sweep.run_sweep", sweep, (), {}, fanout=True)
    spans = tr.spans()
    root = next(s for s in spans if s.name == "sweep.run_sweep")
    rows = [s for s in spans if s.name == "sweep.row"]
    assert sorted(s.row for s in rows) == [0.01, 0.1]
    assert all(s.parent == root.id for s in rows)
    for r in rows:
        kids = [s for s in spans if s.parent == r.id]
        assert len(kids) == 1 and kids[0].row == r.row
        assert [s.row for s in spans if s.parent == kids[0].id] == [r.row]


def test_counters_lose_no_update_across_threads():
    tr = Tracer()
    n, workers = 20000, 4

    def work():
        for _ in range(n):
            tr.count("c")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert tr.counts()["c"] == n * workers


def test_per_layer_metrics_from_spans():
    spans = [
        _span(0, None, 0.0, 10.0, "sweep.run_sweep"),
        _span(1, 0, 0.0, 2.0, "sweep.row", row=1e-2, cpu=2.0),
        _span(2, 1, 0.5, 1.5, "normalform.transfer_numeric", row=1e-2),
        _span(3, 2, 0.6, 1.4, "normalform.neumann_solve", row=1e-2),
        _span(4, 3, 0.7, 0.9, "kernels.cum_quad6", row=1e-2),
        _span(5, 0, 2.0, 8.0, "sweep.row", row=1e-3, cpu=3.0),
        _span(6, 5, 2.0, 8.0, "normalform.transfer_numeric", row=1e-3),
    ]
    counts = {"kernels.cum_quad6.samples": 1000}
    m = per_layer_metrics(spans, counts, {}, {})
    assert set(COUNT_METRICS) <= set(m)
    assert m["sweep.rows"] == 2
    assert m["kernels.cum_quad6.calls"] == 1
    assert m["kernels.cum_quad6.gbps_computed"] == pytest.approx(32e3 / 0.2 / 1e9)
    assert m["normalform.neumann_solve.s"] == pytest.approx(0.8 - 0.2)
    assert m["sweep.row_wait_frac"] == pytest.approx(1.0 - 5.0 / 8.0)
    assert m["sweep.row_s.hmin"] == pytest.approx(6.0)
    # extraction time 1 s at h=1e-2 and 6 s at h=1e-3
    assert m["sweep.cost_slope"] == pytest.approx(0.7781512503836436)
