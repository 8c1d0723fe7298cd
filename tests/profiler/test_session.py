"""Tests for the profiler session and the Fig. 4 report."""

from pathlib import Path

import pytest

from repro.profiler.records import MethodRecord, ProfileResult
from repro.profiler.report import ProfilerReport
from repro.profiler.session import AmbiguousMainError, ProfilerSession, profile_call
from repro.rapl.backends import RealClock, SimulatedBackend
from repro.rapl.domains import Domain


def make_session():
    return ProfilerSession(SimulatedBackend(clock=RealClock()))


class TestProfileProject:
    def test_profiles_single_entry_point_and_writes_result_txt(self, tmp_path):
        (tmp_path / "app.py").write_text(
            "def work():\n    return sum(range(5000))\n"
            "if __name__ == '__main__':\n    work()\n"
        )
        result = make_session().profile_project(tmp_path)
        assert len(result.executions_of("__main__.work")) == 1
        result_txt = tmp_path / "result.txt"
        assert result_txt.exists()
        reloaded = ProfileResult.read_result_txt(result_txt)
        assert reloaded.methods() == result.methods()

    def test_ambiguous_mains_raise_with_candidates(self, tmp_path):
        (tmp_path / "a.py").write_text("def main():\n    pass\n")
        (tmp_path / "b.py").write_text("def main():\n    pass\n")
        with pytest.raises(AmbiguousMainError) as excinfo:
            make_session().profile_project(tmp_path)
        assert len(excinfo.value.candidates) == 2

    def test_explicit_main_selection(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def fa():\n    return 1\n"
            "if __name__ == '__main__':\n    fa()\n"
        )
        (tmp_path / "b.py").write_text(
            "def fb():\n    return 2\n"
            "if __name__ == '__main__':\n    fb()\n"
        )
        result = make_session().profile_project(tmp_path, main="b.py")
        assert result.methods() == ("__main__.fb",)

    def test_no_entry_point_raises(self, tmp_path):
        (tmp_path / "lib.py").write_text("def helper():\n    pass\n")
        with pytest.raises(FileNotFoundError):
            make_session().profile_project(tmp_path)

    def test_follow_mode_traces_relative_project_dir(self, tmp_path, monkeypatch):
        # The include filter uses absolute prefixes; the entry point must
        # be resolved before runpy so co_filename matches even when the
        # caller hands us a relative project path.
        (tmp_path / "app.py").write_text(
            "def work():\n    return sum(range(5000))\n"
            "if __name__ == '__main__':\n    work()\n"
        )
        monkeypatch.chdir(tmp_path.parent)
        result = make_session().profile_project(
            Path(tmp_path.name), follow_threads=True
        )
        assert (tmp_path / "result.txt").is_file()
        assert len(result.executions_of("__main__.work")) == 1


class TestProfileCallable:
    def test_profile_call_convenience(self):
        def work():
            return sum(i * i for i in range(50_000))

        result = profile_call(work, SimulatedBackend(clock=RealClock()))
        assert any("work" in m for m in result.methods())


class TestReport:
    def _result(self):
        def rec(method, idx, wall, pkg):
            joules = {Domain.PACKAGE: pkg, Domain.PP0: pkg * 0.7}
            return MethodRecord(
                method=method, filename="f.py", lineno=1, call_index=idx,
                wall_seconds=wall, cpu_seconds=wall, joules=joules,
                exclusive_joules=dict(joules),
            )

        return ProfileResult(
            [rec("m.small", 0, 0.1, 1.0), rec("m.big", 0, 2.0, 40.0),
             rec("m.big", 1, 1.0, 20.0)]
        )

    def test_rows_aggregate_and_sort(self):
        rows = ProfilerReport(self._result()).rows()
        assert rows[0].method == "m.big"
        assert rows[0].calls == 2
        assert rows[0].energy_joules == pytest.approx(60.0)
        assert rows[1].method == "m.small"

    def test_per_execution_rows(self):
        rows = ProfilerReport(self._result()).rows(per_execution=True)
        assert len(rows) == 3
        assert rows[1].method == "m.big#0"

    def test_render_contains_fig4_columns(self):
        text = ProfilerReport(self._result()).render()
        assert "Method" in text
        assert "Execution Time (s)" in text
        assert "Energy Consumed (J)" in text
        assert "m.big" in text

    def test_render_limit(self):
        text = ProfilerReport(self._result()).render(limit=1)
        assert "m.big" in text
        assert "m.small" not in text

    def test_hungriest(self):
        report = ProfilerReport(self._result())
        assert report.hungriest()[0].method == "m.big"
        with pytest.raises(ValueError):
            report.hungriest(0)
