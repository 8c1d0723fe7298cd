"""Store queries read running folds: exact, read-once, never stale.

The oracle rebuilds every answer from the records each run ingested,
with no numpy reduction: top methods from ``ProfileResult.aggregate``,
context totals and trend rows from row-order loops.
"""

import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.profiler.records import MethodRecord, ProfileResult
from repro.rapl.domains import Domain
from repro.store import ContextTotal, RunColumns, RunStore
from repro.views.dashboard import dashboard_data, render_dashboard


def _result(
    seed: int, n: int = 90, modules=("pkg.a",), contexts: bool = False
) -> ProfileResult:
    rng = random.Random(seed)
    result = ProfileResult()
    counts: dict[str, int] = {}
    for _ in range(n):
        method = f"{rng.choice(modules)}.fn{rng.randrange(6)}"
        ci = counts.get(method, 0)
        counts[method] = ci + 1
        thread = rng.choice([0, 0, 41, 42]) if contexts else 0
        result.add(
            MethodRecord(
                method=method,
                filename="m.py",
                lineno=1,
                call_index=ci,
                wall_seconds=rng.random() * 0.01,
                cpu_seconds=rng.random() * 0.01,
                joules={
                    Domain.PACKAGE: rng.random() * 3,
                    Domain.PP0: rng.random(),
                },
                exclusive_joules={Domain.PACKAGE: rng.random()},
                suspect=rng.random() < 0.1,
                thread_id=thread,
                thread_name="w" if thread else "",
                task_name=rng.choice(["", "t"]) if contexts else "",
            )
        )
    return result


def _ingest_sequence(store: RunStore, tmp_path: Path):
    """Mixed ingests: both sources, new methods and contexts midway, an
    empty run; yields each run's records as the store reads them."""
    steps = [
        ("live", _result(1)),
        ("txt", _result(2)),
        ("live", ProfileResult()),
        ("live", _result(3, modules=("pkg.a", "pkg.b"), contexts=True)),
        ("txt", _result(4, modules=("pkg.c",), contexts=True)),
        ("live", _result(5, modules=("pkg.a", "pkg.c"))),
    ]
    for i, (kind, result) in enumerate(steps):
        if kind == "txt":
            path = tmp_path / f"in{i}.result.txt"
            result.write_result_txt(path)
            store.ingest_result_txt(path)
            result = ProfileResult.read_result_txt(path)
        else:
            store.ingest_result(result, label=f"live{i}")
        yield list(result)


def _queries(store: RunStore) -> dict:
    methods, runs, matrix = store.method_trend_matrix()
    data = dashboard_data(store)
    data["stats"].pop("last_ingest")
    return {
        "top": store.top_methods(n=1000),
        "top_by_context": store.top_methods(n=1000, by_context=True),
        "top3": store.top_methods(n=3),
        "contexts": store.context_totals(),
        "trend": (methods, runs, matrix.shape, matrix.tobytes()),
        "outliers": store.outlier_runs(),
        "drift": store.drift_flags(),
        "dashboard": json.dumps(data),
    }


class _Oracle:
    """A store's answers, rebuilt from the records of each run.

    Provenance (the run list and ``stats``) comes from the store's
    catalog, and outliers and drift run the store's own code over the
    oracle's trend matrix: only the reductions are rebuilt.
    """

    outlier_runs = RunStore.outlier_runs
    drift_flags = RunStore.drift_flags

    def __init__(self, store: RunStore) -> None:
        self.store = store
        self.runs: list[list[MethodRecord]] = []

    def stats(self):
        return self.store.stats()

    def top_methods(self, n: int = 10, by_context: bool = False):
        merged = ProfileResult()
        for records in self.runs:
            merged.extend(records)
        return merged.aggregate(by_context=by_context)[:n]

    def context_totals(self) -> list[ContextTotal]:
        totals: dict[str, float] = {}
        rows: dict[str, int] = {}
        for records in self.runs:
            for r in records:
                label = r.context_label
                totals[label] = totals.get(label, 0.0) + (
                    r.exclusive_joules.get(Domain.PACKAGE, 0.0)
                )
                rows[label] = rows.get(label, 0) + 1
        return [
            ContextTotal(label, totals[label], rows[label])
            for label in sorted(totals, key=lambda label: -totals[label])
        ]

    def method_trend_matrix(self):
        methods = list(
            dict.fromkeys(r.method for records in self.runs for r in records)
        )
        if not methods:
            return [], [], np.zeros((0, 0))
        matrix = []
        for records in self.runs:
            row: dict[str, float] = {}
            for r in records:
                row[r.method] = row.get(r.method, 0.0) + r.package_joules
            matrix.append([row.get(m, 0.0) for m in methods])
        return methods, self.store.runs(), np.asarray(matrix)


def _assert_same_answers(got: dict, want: dict) -> None:
    for name, value in want.items():
        # repr tells apart floats that == cannot (-0.0 and 0.0).  One
        # bool keeps pytest from diffing long reprs on a failure.
        same = got[name] == value and repr(got[name]) == repr(value)
        assert same, f"{name}: {got[name]!r:.400} != {value!r:.400}"


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def test_long_lived_equals_fresh_and_row_reference(root, tmp_path):
    live = RunStore(root)
    oracle = _Oracle(live)
    for records in _ingest_sequence(live, tmp_path):
        oracle.runs.append(records)
        got = _queries(live)
        _assert_same_answers(got, _queries(RunStore(root)))
        _assert_same_answers(got, _queries(oracle))


def test_each_segment_read_once(root, tmp_path, monkeypatch):
    writer = RunStore(root)
    for _ in _ingest_sequence(writer, tmp_path):
        pass
    reads: list[str] = []
    load_npz = RunColumns.load_npz.__func__

    def spy(cls, path, methods, contexts):
        reads.append(Path(path).name)
        return load_npz(cls, path, methods, contexts)

    monkeypatch.setattr(RunColumns, "load_npz", classmethod(spy))
    store = RunStore(root)
    store.top_methods()
    store.context_totals()
    store.method_trend_matrix()
    store.outlier_runs()
    store.drift_flags()
    render_dashboard(store)
    assert sorted(reads) == sorted(r.segment for r in store.runs())
    reads.clear()
    info = writer.ingest_result(_result(9, modules=("pkg.z",)))
    render_dashboard(store)
    assert reads == [info.segment]


def test_other_instance_ingest_is_visible(root):
    first, second = RunStore(root), RunStore(root)
    first.ingest_result(_result(11))
    assert first.top_methods() == RunStore(root).top_methods()
    second.ingest_result(_result(12, modules=("pkg.b",), contexts=True))
    assert _queries(first) == _queries(RunStore(root))
    assert len(first.method_trend_matrix()[1]) == 2


@pytest.mark.parametrize("modules", [("pkg.a",), ("pkg.other",)])
def test_recreated_store_is_not_served_stale(root, modules):
    store = RunStore(root)
    store.ingest_result(_result(21), label="run")
    store.ingest_result(_result(22), label="run")
    before = _queries(store)
    shutil.rmtree(root)
    # Same run ids, labels and row counts; other values (and, in the
    # second case, other method names).
    store_b = RunStore(root)
    store_b.ingest_result(_result(23, modules=modules), label="run")
    store_b.ingest_result(_result(24, modules=modules), label="run")
    after = _queries(store)
    assert after == _queries(RunStore(root))
    assert after["top"] != before["top"]


def test_returned_matrix_is_a_copy(root, tmp_path):
    store = RunStore(root)
    for _ in _ingest_sequence(store, tmp_path):
        pass
    _, _, matrix = store.method_trend_matrix()
    want = matrix.copy()
    matrix[:] = -1.0
    assert store.method_trend_matrix()[2].tobytes() == want.tobytes()
    assert store.outlier_runs() == RunStore(root).outlier_runs()


def test_queries_do_not_create_a_store(root):
    store = RunStore(root)
    assert store.top_methods() == []
    assert store.string_tables() == ([], [])
    assert not root.exists()


# -- any split of the same rows into runs --------------------------------

_FLOATS = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)
#: Package joules in 1/8 J steps: any addition order sums them exactly,
#: so the trend matrix's per-method totals cannot depend on the split
#: (ties in energy, which keep first-seen order, come up often too).
_EIGHTHS = st.integers(0, 8000).map(lambda k: k / 8)
#: (method, context, wall, cpu, package, core, exclusive, suspect).
_ROWS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 3),
        _FLOATS,
        _FLOATS,
        _EIGHTHS,
        _FLOATS,
        _FLOATS,
        st.booleans(),
    ),
    max_size=40,
)
#: Context index → (thread id, thread name, task name).
_CONTEXTS = [(0, "", ""), (41, "w", ""), (0, "", "t"), (42, "v", "t")]


def _records(rows) -> list[MethodRecord]:
    counts: dict[str, int] = {}
    records = []
    for m, c, wall, cpu, pkg, core, excl, suspect in rows:
        method = f"pkg.a.fn{m}"
        counts[method] = counts.get(method, -1) + 1
        thread, thread_name, task = _CONTEXTS[c]
        records.append(
            MethodRecord(
                method=method,
                filename="m.py",
                lineno=1,
                call_index=counts[method],
                wall_seconds=wall,
                cpu_seconds=cpu,
                joules={Domain.PACKAGE: pkg, Domain.PP0: core},
                exclusive_joules={Domain.PACKAGE: excl},
                suspect=suspect,
                thread_id=thread,
                thread_name=thread_name,
                task_name=task,
            )
        )
    return records


def _split_invariants(store) -> dict:
    methods, _, matrix = store.method_trend_matrix()
    return {
        "top": store.top_methods(n=1000),
        "top_by_context": store.top_methods(n=1000, by_context=True),
        "contexts": store.context_totals(),
        "trend_totals": (methods, matrix.sum(axis=0).tobytes()),
    }


@settings(max_examples=40, deadline=None)
@given(rows=_ROWS, cuts=st.lists(st.integers(0, 40), max_size=5))
@example(
    # Runs [], [row 0], [], [row 1]: method 1 and context 1 first
    # appear in the last run, and the two methods tie on energy.
    rows=[
        (0, 0, 0.1, 0.2, 1.5, 0.3, 0.7, False),
        (1, 1, 0.4, 0.5, 1.5, 0.6, 0.9, True),
    ],
    cuts=[0, 1, 1],
)
def test_any_split_into_runs_gives_identical_answers(rows, cuts):
    records = _records(rows)
    bounds = [0, *sorted(min(c, len(records)) for c in cuts), len(records)]
    runs = [records[a:b] for a, b in zip(bounds, bounds[1:])]
    with tempfile.TemporaryDirectory() as tmp:
        whole = RunStore(Path(tmp) / "whole")
        whole.ingest_result(ProfileResult(records))
        split = RunStore(Path(tmp) / "split")
        for run in runs:
            split.ingest_result(ProfileResult(run))
        oracle = _Oracle(split)
        oracle.runs = runs
        got = _split_invariants(split)
        _assert_same_answers(got, _split_invariants(whole))
        _assert_same_answers(got, _split_invariants(oracle))
