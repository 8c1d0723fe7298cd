"""Run-store behavior: ingest, round-trips, catalog, reductions."""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.analyzer.findings import Finding
from repro.profiler.records import (
    MethodRecord,
    ProfileResult,
    parse_result_txt,
)
from repro.rapl.domains import Domain
from repro.store import RunColumns, RunStore
from repro.store.columns import SEGMENT_FIELDS


def _result(seed: int, n: int = 120, module: str = "pkg.mod0") -> ProfileResult:
    rng = random.Random(seed)
    result = ProfileResult()
    counts: dict[str, int] = {}
    for _ in range(n):
        method = f"{module}.fn{rng.randrange(8)}"
        ci = counts.get(method, 0)
        counts[method] = ci + 1
        thread = rng.choice([0, 0, 5501])
        result.add(
            MethodRecord(
                method=method,
                filename=f"src/{module.replace('.', '/')}.py",
                lineno=rng.randrange(200),
                call_index=ci,
                wall_seconds=rng.random() * 0.01,
                cpu_seconds=rng.random() * 0.01,
                joules={Domain.PACKAGE: rng.random() * 2},
                exclusive_joules={Domain.PACKAGE: rng.random()},
                suspect=rng.random() < 0.05,
                thread_id=thread,
                thread_name="w" if thread else "",
            )
        )
    return result


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestIngest:
    def test_live_result_round_trips(self, store):
        result = _result(1)
        info = store.ingest_result(result, label="first")
        assert info.run_id == 1
        assert info.rows == len(list(result))
        assert info.segment == "run-000001.npz"
        assert (store.segments_dir / info.segment).is_file()
        _assert_same_columns(
            store.load_run(1), RunColumns.from_records(list(result))
        )
        assert store.top_methods(n=100) == result.aggregate()

    def test_result_txt_single_pass(self, store, tmp_path):
        path = tmp_path / "result.txt"
        _result(2).write_result_txt(path)
        info = store.ingest_result_txt(path)
        assert info.label == "result"
        assert info.source == str(path)
        direct = RunColumns.from_result_file(parse_result_txt(path))
        _assert_same_columns(store.load_run(info.run_id), direct)
        read = ProfileResult.read_result_txt(path)
        assert store.top_methods(n=100) == read.aggregate()

    def test_ingest_directory_walks_spools(self, store, tmp_path):
        spool = tmp_path / "spool"
        (spool / "sub").mkdir(parents=True)
        _result(3).write_result_txt(spool / "result.txt")
        _result(4).write_result_txt(spool / "sub" / "pepo-99-1.result.txt")
        (spool / "notes.txt").write_text("ignored\n")
        infos = store.ingest_path(spool)
        assert len(infos) == 2
        assert [i.run_id for i in infos] == [1, 2]

    def test_ingest_empty_directory_raises(self, store, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            store.ingest_path(tmp_path / "empty")

    def test_degraded_header_detected(self, store, tmp_path):
        path = tmp_path / "result.txt"
        _result(5).write_result_txt(path)
        lines = path.read_text().splitlines()
        path.write_text("# degraded=true\n" + "\n".join(lines) + "\n")
        info = store.ingest_result_txt(path)
        assert info.degraded
        assert store.runs()[0].degraded

    def test_degraded_flag_after_data_line_matches_reader(
        self, store, tmp_path
    ):
        # The flag is a header fact wherever the comment sits; the store
        # and the reader take it from the same parse.
        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall\tcpu\tpkg\tcore\n"
            "m.f\t1.0\t0.8\t10.0\t7.0\n"
            "# degraded=true\n"
        )
        info = store.ingest_result_txt(path)
        assert info.degraded == ProfileResult.read_result_txt(path).degraded
        assert info.degraded

    def test_global_interning_across_runs(self, store):
        store.ingest_result(_result(6, module="pkg.a"), label="a")
        store.ingest_result(_result(7, module="pkg.b"), label="b")
        store.ingest_result(_result(8, module="pkg.a"), label="a2")
        methods, contexts = store.string_tables()
        # pkg.a methods interned once despite appearing in two runs.
        assert len(methods) == len(set(methods))
        assert len(contexts) == len(set(contexts))
        seg_a = store.load_run(1)
        seg_a2 = store.load_run(3)
        shared = set(seg_a.methods) & set(seg_a2.methods)
        assert shared  # same global table, overlapping methods


class TestQueries:
    def _fill(self, store, n_runs=5):
        for seed in range(n_runs):
            store.ingest_result(_result(10 + seed), label=f"r{seed}")

    def test_stats(self, store):
        self._fill(store, 3)
        stats = store.stats()
        assert stats.runs == 3
        assert stats.rows == 360
        assert stats.methods > 0
        assert stats.bytes > 0
        assert stats.last_ingest is not None
        rendered = stats.render()
        assert "runs: 3" in rendered and "rows: 360" in rendered

    def test_stats_empty_store(self, store):
        stats = store.stats()
        assert stats.runs == 0 and stats.rows == 0
        assert stats.last_ingest is None
        assert "never" in stats.render()

    def test_top_methods_across_runs(self, store):
        self._fill(store)
        top = store.top_methods(n=3)
        assert len(top) == 3
        energies = [a.package_joules for a in top]
        assert energies == sorted(energies, reverse=True)

    def test_top_methods_match_merged_records(self, store):
        merged = ProfileResult()
        for i in range(3):
            result = _result(20 + i)
            store.ingest_result(result, label=f"r{i}")
            merged.extend(list(result))
        for by_context in (False, True):
            assert store.top_methods(
                n=100, by_context=by_context
            ) == merged.aggregate(by_context=by_context)

    def test_context_totals(self, store):
        self._fill(store, 2)
        totals = store.context_totals()
        assert totals
        energies = [t.exclusive_package_joules for t in totals]
        assert energies == sorted(energies, reverse=True)
        assert all(t.rows > 0 for t in totals)

    def test_trend_matrix_shape_and_sums(self, store):
        self._fill(store, 4)
        methods, runs, matrix = store.method_trend_matrix()
        assert matrix.shape == (4, len(methods))
        for i, info in enumerate(runs):
            assert matrix[i].sum() == pytest.approx(
                info.total_package_joules
            )

    def test_outliers_flag_spiked_run(self, store):
        # Same profile four times, then one 20x-hotter run.
        base = _result(30)
        for i in range(4):
            store.ingest_result(base, label=f"base{i}")
        spike = ProfileResult()
        for r in base:
            joules = {d: v * 20 for d, v in r.joules.items()}
            import dataclasses

            spike.add(dataclasses.replace(r, joules=joules))
        store.ingest_result(spike, label="spiked")
        outliers = store.outlier_runs()
        assert outliers
        assert {o.run_label for o in outliers} == {"spiked"}

    def test_outliers_need_four_runs(self, store):
        self._fill(store, 3)
        assert store.outlier_runs() == []

    def test_load_run_unknown_id(self, store):
        self._fill(store, 1)
        with pytest.raises(KeyError):
            store.load_run(99)


class TestRuleSavings:
    def _finding(self, file, rule="E203", pct=50.0):
        return Finding(
            file=file,
            line=3,
            col=0,
            rule_id=rule,
            component="loops",
            message="m",
            suggestion="s",
            overhead_percent=pct,
        )

    def test_matched_module_scales_exclusive_energy(self, store):
        result = _result(40, module="pkg.mod0")
        store.ingest_result(result)
        exclusive = sum(
            r.exclusive_joules.get(Domain.PACKAGE, 0.0) for r in result
        )
        (saving,) = store.rule_savings(
            [self._finding("src/pkg/mod0.py", pct=50.0)]
        )
        assert saving.matched_methods > 0
        assert saving.exclusive_joules == pytest.approx(exclusive)
        # E·p/(100+p): 50% overhead → a third of observed energy.
        assert saving.estimated_savings_joules == pytest.approx(
            exclusive * 50.0 / 150.0
        )

    def test_unmatched_module_saves_nothing(self, store):
        store.ingest_result(_result(41, module="pkg.mod0"))
        (saving,) = store.rule_savings(
            [self._finding("src/other/place.py")]
        )
        assert saving.matched_methods == 0
        assert saving.estimated_savings_joules == 0.0

    def test_sorted_by_savings_desc(self, store):
        store.ingest_result(_result(42, module="pkg.mod0"))
        savings = store.rule_savings(
            [
                self._finding("src/pkg/mod0.py", rule="BIG", pct=80.0),
                self._finding("src/pkg/mod0.py", rule="SMALL", pct=5.0),
                self._finding("src/nowhere.py", rule="NONE", pct=90.0),
            ]
        )
        assert [s.rule_id for s in savings] == ["BIG", "SMALL", "NONE"]


class TestColumns:
    def test_npz_round_trip(self, tmp_path):
        cols = RunColumns.from_records(list(_result(52)))
        path = tmp_path / "seg.npz"
        cols.save_npz(path)
        loaded = RunColumns.load_npz(path, cols.methods, cols.contexts)
        _assert_same_columns(loaded, cols)


def _assert_same_columns(left: RunColumns, right: RunColumns) -> None:
    """Same string tables and byte-identical segment columns."""
    assert (left.methods, left.contexts) == (right.methods, right.contexts)
    for name in SEGMENT_FIELDS:
        a, b = getattr(left, name), getattr(right, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
