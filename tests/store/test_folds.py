"""Store queries read running folds: exact, read-once, never stale."""

import json
import random
import shutil
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.profiler.records import MethodRecord, ProfileResult
from repro.rapl.domains import Domain
from repro.store import ContextTotal, RunColumns, RunStore, detect_drift
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
    empty run; yields after each one."""
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
        else:
            store.ingest_result(result, label=f"live{i}")
        yield


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


def _reference(store: RunStore) -> dict:
    """The same answers, reduced from the concatenated rows."""
    cols, run_ids = store.load_all()
    runs = store.runs()
    methods, contexts = store.string_tables()
    if cols is None or not len(cols):
        return {"top": [], "contexts": [], "trend": ([], [], (0, 0), b"")}
    totals = np.bincount(
        cols.context_code,
        weights=cols.exclusive_package,
        minlength=len(contexts),
    )
    rows = np.bincount(cols.context_code, minlength=len(contexts))
    row_of = {info.run_id: i for i, info in enumerate(runs)}
    key = np.asarray([row_of[r] for r in run_ids.tolist()]) * len(methods)
    key += cols.method_code
    matrix = np.bincount(
        key, weights=cols.package, minlength=len(runs) * len(methods)
    ).reshape(len(runs), len(methods))
    return {
        "top": cols.aggregate(),
        "top_by_context": cols.aggregate(by_context=True),
        "contexts": [
            ContextTotal(contexts[i], float(totals[i]), int(rows[i]))
            for i in np.argsort(-totals, kind="stable").tolist()
            if rows[i]
        ],
        "trend": (methods, runs, matrix.shape, matrix.tobytes()),
        "drift": detect_drift(matrix, methods, [r.label for r in runs]),
    }


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def test_long_lived_equals_fresh_and_row_reference(root, tmp_path):
    live = RunStore(root)
    for _ in _ingest_sequence(live, tmp_path):
        got = _queries(live)
        assert got == _queries(RunStore(root))
        want = _reference(live)
        for name, value in want.items():
            assert got[name] == value, name


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
