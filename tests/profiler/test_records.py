"""Tests for MethodRecord/ProfileResult and the result.txt round trip."""

import time

import pytest

from repro.profiler.records import (
    MethodAggregate,
    MethodRecord,
    ProfileResult,
    ResultFileError,
)
from repro.rapl.domains import Domain


def record(method="m.f", idx=0, wall=1.0, cpu=0.8, pkg=10.0, core=7.0, excl=None):
    joules = {Domain.PACKAGE: pkg, Domain.PP0: core}
    return MethodRecord(
        method=method,
        filename="m.py",
        lineno=1,
        call_index=idx,
        wall_seconds=wall,
        cpu_seconds=cpu,
        joules=joules,
        exclusive_joules=excl if excl is not None else dict(joules),
    )


class TestProfileResult:
    def test_records_stored_per_execution(self):
        result = ProfileResult()
        result.add(record(idx=0))
        result.add(record(idx=1))
        assert len(result) == 2
        assert [r.call_index for r in result.executions_of("m.f")] == [0, 1]

    def test_methods_in_first_completion_order(self):
        result = ProfileResult([record("m.b"), record("m.a"), record("m.b", idx=1)])
        assert result.methods() == ("m.b", "m.a")

    def test_indexing(self):
        result = ProfileResult([record("m.x")])
        assert result[0].method == "m.x"

    def test_aggregate_sums_and_sorts_by_package_energy(self):
        result = ProfileResult(
            [
                record("m.cheap", pkg=1.0),
                record("m.hungry", pkg=50.0),
                record("m.hungry", idx=1, pkg=30.0),
            ]
        )
        aggs = result.aggregate()
        assert [a.method for a in aggs] == ["m.hungry", "m.cheap"]
        hungry = aggs[0]
        assert hungry.calls == 2
        assert hungry.package_joules == pytest.approx(80.0)
        assert hungry.mean_package_joules == pytest.approx(40.0)

    def test_aggregate_of_empty_result(self):
        assert ProfileResult().aggregate() == []

    def test_total_package_joules_uses_exclusive(self):
        # parent inclusive 10 (5 self), child inclusive 5: total must be 10.
        parent = record("m.p", pkg=10.0, excl={Domain.PACKAGE: 5.0})
        child = record("m.c", pkg=5.0, excl={Domain.PACKAGE: 5.0})
        result = ProfileResult([parent, child])
        assert result.total_package_joules() == pytest.approx(10.0)

    def test_mean_of_zero_calls(self):
        agg = MethodAggregate("m", 0, 0, 0, 0, 0, 0)
        assert agg.mean_package_joules == 0.0

    def test_extend_appends_in_order(self):
        result = ProfileResult([record(idx=0)])
        result.extend([record(idx=1), record("m.g")])
        assert len(result) == 3
        assert [r.call_index for r in result.executions_of("m.f")] == [0, 1]
        assert result.methods() == ("m.f", "m.g")

    def test_aggregate_matches_bucketing_reference(self):
        """Single-pass aggregate == the old bucket-then-sum approach."""
        records = [
            record(
                method=f"m.fn{i % 7}",
                idx=i // 7,
                wall=0.1 * i,
                cpu=0.07 * i,
                pkg=1.0 + 0.3 * i,
                core=0.5 + 0.2 * i,
                excl={Domain.PACKAGE: 0.25 * i},
            )
            for i in range(50)
        ]
        result = ProfileResult(records)

        def in_order(values):
            # The aggregate adds in input order.  Builtin sum() is not a
            # reference: it compensates float rounding on Python >= 3.12.
            total = 0.0
            for value in values:
                total += value
            return total

        buckets: dict[str, list[MethodRecord]] = {}
        for r in records:
            buckets.setdefault(r.method, []).append(r)
        reference = sorted(
            (
                MethodAggregate(
                    method=method,
                    calls=len(rs),
                    wall_seconds=in_order(r.wall_seconds for r in rs),
                    cpu_seconds=in_order(r.cpu_seconds for r in rs),
                    package_joules=in_order(r.package_joules for r in rs),
                    core_joules=in_order(r.core_joules for r in rs),
                    exclusive_package_joules=in_order(
                        r.exclusive_joules.get(Domain.PACKAGE, 0.0)
                        for r in rs
                    ),
                    suspect_calls=sum(1 for r in rs if r.suspect),
                )
                for method, rs in buckets.items()
            ),
            key=lambda a: a.package_joules,
            reverse=True,
        )
        assert result.aggregate() == reference


class TestResultTxt:
    def test_round_trip(self, tmp_path):
        result = ProfileResult([record("pkg.Class.method", wall=0.5, pkg=3.25)])
        path = result.write_result_txt(tmp_path / "result.txt")
        loaded = ProfileResult.read_result_txt(path)
        assert len(loaded) == 1
        row = loaded[0]
        assert row.method == "pkg.Class.method"
        assert row.wall_seconds == pytest.approx(0.5)
        assert row.package_joules == pytest.approx(3.25)
        assert row.core_joules == pytest.approx(7.0)

    def test_per_execution_lines(self, tmp_path):
        result = ProfileResult([record(idx=0), record(idx=1), record(idx=2)])
        path = result.write_result_txt(tmp_path / "result.txt")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 executions
        assert lines[0].startswith("#")

    def test_reload_assigns_call_indices(self, tmp_path):
        result = ProfileResult([record(idx=0), record(idx=1)])
        path = result.write_result_txt(tmp_path / "result.txt")
        loaded = ProfileResult.read_result_txt(path)
        assert [r.call_index for r in loaded] == [0, 1]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "result.txt"
        path.write_text("only\ttwo\n")
        with pytest.raises(ValueError, match="expected 5"):
            ProfileResult.read_result_txt(path)

    def test_benchmark_sized_file_parses_linearly(self, tmp_path):
        """Regression: call_index used to be recomputed by scanning all
        previously parsed records, making big files quadratic."""
        executions_per_method = 5_000
        methods = ["m.a", "m.b", "m.c", "m.d"]
        result = ProfileResult(
            record(method, idx=i)
            for i in range(executions_per_method)
            for method in methods
        )
        path = result.write_result_txt(tmp_path / "result.txt")
        start = time.perf_counter()
        loaded = ProfileResult.read_result_txt(path)
        elapsed = time.perf_counter() - start
        assert len(loaded) == executions_per_method * len(methods)
        for method in methods:
            indices = [r.call_index for r in loaded.executions_of(method)]
            assert indices == list(range(executions_per_method))
        # Generous bound: linear parsing takes well under a second even
        # on slow CI; the old quadratic scan took tens of seconds.
        assert elapsed < 2.0

    def test_overhead_comment_round_trip(self, tmp_path):
        from repro.profiler.runtime import OverheadEstimate

        result = ProfileResult([record()])
        result.overhead = OverheadEstimate(
            runtime="monitoring",
            events=1234,
            per_event_seconds=4.3e-7,
            seconds=5.3e-4,
            joules=0.0125,
        )
        path = result.write_result_txt(tmp_path / "result.txt")
        loaded = ProfileResult.read_result_txt(path)
        assert loaded.overhead == result.overhead
        assert len(loaded) == 1

    def test_malformed_overhead_comment_ignored(self, tmp_path):
        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall\tcpu\tpkg\tcore\n"
            "# overhead runtime=x events=notanint\n"
            "m.f\t1.0\t0.8\t10.0\t7.0\n"
        )
        loaded = ProfileResult.read_result_txt(path)
        assert loaded.overhead is None
        assert len(loaded) == 1

    @pytest.mark.parametrize("token", ["thread", "pid"])
    def test_non_integer_context_token_names_path_and_line(
        self, tmp_path, token
    ):
        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall\tcpu\tpkg\tcore\n"
            f"f\t0.1\t0.1\t1.0\t0.5\t{token}=abc\n"
        )
        with pytest.raises(ResultFileError) as excinfo:
            ProfileResult.read_result_txt(path)
        assert str(excinfo.value) == (
            f"{path}:2: could not parse {token} value 'abc'"
        )

    def test_truncated_last_line_rejected(self, tmp_path):
        # A write torn inside a number must not parse as a shorter one.
        path = tmp_path / "result.txt"
        path.write_text("m.f\t1.0\t0.8\t10.0\t7.0\nm.f\t1.0\t0.8\t10.0\t0.")
        with pytest.raises(ResultFileError) as excinfo:
            ProfileResult.read_result_txt(path)
        assert str(excinfo.value) == (
            f"{path}:2: truncated line (no trailing newline)"
        )

    def test_degraded_flag_after_data_lines(self, tmp_path):
        path = tmp_path / "result.txt"
        path.write_text("m.f\t1.0\t0.8\t10.0\t7.0\n\n# degraded=true\n")
        loaded = ProfileResult.read_result_txt(path)
        assert loaded.degraded
        assert len(loaded) == 1
