"""Span self-time arithmetic: a parent minus what its children cover."""

from pepobench.spans import (
    Span,
    SpanRecorder,
    covered,
    reconcile,
    self_times,
    stage_shares,
)
from pepobench.summary import tail


def _span(span_id, name, start, end, parent, op_id=0):
    return Span(span_id, name, start, end, parent, op_id)


def test_self_time_is_parent_minus_covered_children():
    spans = [
        _span(0, "op", 0, 100, None),
        _span(1, "a", 10, 30, 0),
        _span(2, "b", 40, 70, 0),
        _span(3, "c", 45, 50, 2),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 100 - 20 - 30, 1: 20, 2: 30 - 5, 3: 5}


def test_overlapping_and_overhanging_children_count_once():
    assert covered((0, 100), [(10, 40), (30, 60)]) == 50
    assert covered((0, 100), [(90, 120)]) == 10
    assert covered((0, 100), []) == 0


def test_reconcile_sums_layers_and_unattributed_to_wall_time():
    spans = [
        _span(0, "op", 0, 100, None, op_id=7),
        _span(1, "store.x", 10, 30, 0, op_id=7),
        _span(2, "store.x", 40, 50, 0, op_id=7),
    ]
    (entry,) = reconcile(spans)
    assert entry["op_id"] == 7
    assert entry["self_ns"] == {"unattributed": 70, "store.x": 30}
    assert entry["balanced"]


def test_stage_shares_split_op_time_and_leave_out_probes():
    spans = [
        _span(0, "op", 0, 100, None, op_id=0),
        _span(1, "a", 0, 75, 0, op_id=0),
        _span(2, "op", 200, 300, None, op_id=1),
        _span(3, "b", 200, 225, 2, op_id=1),
        _span(4, "probe", 400, 900, None, op_id=-1),
        _span(5, "a", 400, 900, 4, op_id=-1),
    ]
    shares = stage_shares(reconcile(spans))
    assert shares == {"unattributed": 0.5, "a": 0.375, "b": 0.125}


def test_recorder_nests_and_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=True)
    with rec.op(3, "op"):
        with rec.span("layer"):
            pass
    root, child = rec.spans
    assert (root.parent, child.parent, child.op_id) == (None, 0, 3)
    assert root.start <= child.start <= child.end <= root.end
    assert all(entry["balanced"] for entry in reconcile(rec.spans))
    quiet = SpanRecorder(enabled=False)
    with quiet.op(1, "op"), quiet.span("layer"):
        pass
    assert quiet.spans == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100))
    pct, value, samples = tail(values)
    assert (pct, value, samples) == (90.0, 89, 100)
    assert sum(1 for v in values if v > value) == 10
    assert tail([5, 1, 3]) == (100.0, 5, 3)
