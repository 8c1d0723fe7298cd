"""CLI integration tests for the ``pepo`` command."""

import importlib.util
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main

DIRTY = (
    "def build(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n\n"
    "    return out\n"
)

#: A valid header and one row whose last line has no trailing newline:
#: the shape a write torn mid-line leaves behind.
TRUNCATED_RESULT = (
    Path(__file__).resolve().parents[1]
    / "fixtures" / "hostile" / "truncated_result.txt"
)

PROJECT_MAIN = (
    "def work():\n"
    "    return sum(range(2000))\n"
    "if __name__ == '__main__':\n"
    "    work()\n"
)


class TestSuggest:
    def test_file(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(DIRTY)
        assert main(["suggest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "R08_STR_CONCAT" in out
        assert "1 suggestion(s)" in out

    def test_project_directory(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        (tmp_path / "b.py").write_text("x = 1\n")
        assert main(["suggest", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Suggestion" in out  # Fig. 5 layout
        assert "a.py" in out

    def test_watch_once(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(DIRTY)
        assert main(["suggest", str(path), "--watch", "--once"]) == 0
        out = capsys.readouterr().out
        assert "+ " in out and "R08_STR_CONCAT" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "mod.py"
        path.write_text(DIRTY)
        assert main(["suggest", str(path), "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r["rule"] == "R08_STR_CONCAT" for r in records)
        assert all({"file", "line", "suggestion"} <= set(r) for r in records)

    def test_extended_flag_adds_extension_findings(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(x * 2)\n"
            "    return out\n"
        )
        main(["suggest", str(path)])
        base = capsys.readouterr().out
        assert "R14_APPEND_LOOP" not in base
        main(["suggest", str(path), "--extended"])
        extended = capsys.readouterr().out
        assert "R14_APPEND_LOOP" in extended

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["suggest", str(tmp_path / "nope.py")]) == 2
        assert "pepo:" in capsys.readouterr().err


class TestOptimize:
    def test_dry_run_leaves_file(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(DIRTY)
        assert main(["optimize", str(path)]) == 0
        assert path.read_text() == DIRTY
        out = capsys.readouterr().out
        assert "dry run" in out

    def test_write_applies(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(DIRTY)
        assert main(["optimize", str(path), "--write"]) == 0
        # The fixpoint pipeline turns += into append, then the copy-loop
        # transform may collapse the append loop into extend.
        rewritten = path.read_text()
        assert "append" in rewritten or "extend" in rewritten
        assert "join" in rewritten
        out = capsys.readouterr().out
        assert "change(s) applied" in out

    def test_diff_flag(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(DIRTY)
        main(["optimize", str(path), "--diff"])
        out = capsys.readouterr().out
        assert "--- a/" in out and "+++ b/" in out


class TestProfile:
    def test_profiles_project(self, tmp_path, capsys):
        (tmp_path / "app.py").write_text(PROJECT_MAIN)
        assert main(["profile", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Energy Consumed (J)" in out
        assert (tmp_path / "result.txt").exists()

    def test_explicit_main(self, tmp_path, capsys):
        (tmp_path / "one.py").write_text(PROJECT_MAIN)
        (tmp_path / "two.py").write_text(PROJECT_MAIN)
        assert main(["profile", str(tmp_path), "--main", "one.py"]) == 0

    def test_timeline_flag(self, tmp_path, capsys):
        (tmp_path / "app.py").write_text(PROJECT_MAIN)
        assert main(["profile", str(tmp_path), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "package power over time" in out
        assert "peak" in out and "mean" in out


class TestCompare:
    def _write_profiles(self, tmp_path):
        before = tmp_path / "before.txt"
        after = tmp_path / "after.txt"
        header = "# method\twall\tcpu\tpkg\tcore\n"
        before.write_text(
            header
            + "m.hot\t1.0\t1.0\t10.0\t7.0\n"
            + "m.cold\t0.1\t0.1\t1.0\t0.7\n"
        )
        after.write_text(
            header
            + "m.hot\t0.6\t0.6\t6.0\t4.0\n"
            + "m.cold\t0.2\t0.2\t2.0\t1.4\n"
        )
        return before, after

    def test_compare_renders_and_lists_regressions(self, tmp_path, capsys):
        before, after = self._write_profiles(tmp_path)
        assert main(["compare", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "improved" in out
        assert "regression(s):" in out
        assert "m.cold" in out

    def test_fail_on_regression(self, tmp_path, capsys):
        before, after = self._write_profiles(tmp_path)
        assert main(
            ["compare", str(before), str(after), "--fail-on-regression"]
        ) == 1

    def test_no_regression_passes_gate(self, tmp_path, capsys):
        before, _ = self._write_profiles(tmp_path)
        clean_after = tmp_path / "clean.txt"
        clean_after.write_text(
            "# h\nm.hot\t0.5\t0.5\t5.0\t3.5\nm.cold\t0.05\t0.05\t0.5\t0.35\n"
        )
        assert main(
            ["compare", str(before), str(clean_after), "--fail-on-regression"]
        ) == 0

    def test_malformed_file_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        before, _ = self._write_profiles(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("# h\nm.hot\t0.5\t0.5\tnan\t3.5\n")
        for path, reason in (
            (bad, "package_joules must be a finite non-negative number, "
                  "got 'nan'"),
            (TRUNCATED_RESULT, "truncated line (no trailing newline)"),
        ):
            assert main(["compare", str(before), str(path)]) == 2
            assert capsys.readouterr().err == f"pepo: {path}:2: {reason}\n"


    def test_non_utf8_file_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        before, _ = self._write_profiles(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# h\nm.hot\t0.5\t0.5\t5\xff\t3.5\n")
        assert main(["compare", str(before), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"pepo: {bad}:2: not UTF-8 (byte 0xff: invalid start byte)\n"
        )

class TestBench:
    def test_bench_table3(self, capsys):
        assert main(["bench", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Airline" in out

    def test_bench_semantics_quick_check(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "semantics", "--quick", "--check"]) == 0
        out = capsys.readouterr().out
        assert "ms/KLoC" in out
        assert (tmp_path / "BENCH_semantics.json").exists()

    def test_bench_project_and_output_flags(self, tmp_path, capsys):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "mod.py").write_text(DIRTY)
        target = tmp_path / "out.json"
        assert main(
            ["bench", "semantics", "--quick", "--check", "--project",
             str(project), "--output", str(target)]
        ) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        assert target.exists()

    def test_bench_table4_custom_size(self, capsys):
        assert main(
            ["bench", "table4", "--instances", "120", "--folds", "3",
             "--repeats", "3"]
        ) == 0
        assert "Random Forest" in capsys.readouterr().out

    def test_bench_matches_python_m_repro_bench(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert main(["bench", "table3"]) == 0
        via_pepo = capsys.readouterr().out
        assert bench_main(["table3"]) == 0
        assert capsys.readouterr().out == via_pepo


class TestFacts:
    def test_text_table_for_file(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(DIRTY)
        assert main(["facts", str(target)]) == 0
        out = capsys.readouterr().out
        assert "build" in out
        assert "cfg_nodes" in out
        assert "1 method(s)" in out

    def test_json_records(self, tmp_path, capsys):
        import json

        target = tmp_path / "mod.py"
        target.write_text(DIRTY)
        assert main(["facts", str(target), "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["qualname"] for r in records] == ["build"]
        assert records[0]["file"] == str(target)
        assert records[0]["max_loop_depth"] == 1
        assert "du_pairs" in records[0]

    def test_project_directory(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        (tmp_path / "b.py").write_text("def g():\n    return 1\n")
        assert main(["facts", str(tmp_path)]) == 0
        assert "2 method(s)" in capsys.readouterr().out

    def test_syntax_error_file_skipped_with_warning(
        self, tmp_path, capsys
    ):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text(DIRTY)
        assert main(["facts", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        assert "1 method(s)" in captured.out

    def test_missing_path_exit_code(self, tmp_path, capsys):
        assert main(["facts", str(tmp_path / "nope.py")]) == 2
        assert "pepo:" in capsys.readouterr().err


class TestFaultTolerantSweeps:
    """The robustness surface: quarantine warnings, check provenance,
    interrupt/--resume round trips, and cache stats listing."""

    @staticmethod
    def _hostile_project(tmp_path):
        for index in range(4):
            (tmp_path / f"mod_{index}.py").write_text(
                DIRTY + f"X = {index}\n"
            )
        (tmp_path / "crash_me.py").write_text("y = 0\n")
        return tmp_path

    @staticmethod
    def _chaos_options(monkeypatch, **plan_kwargs):
        """Route the CLI's built SweepOptions through a chaos plan."""
        import importlib

        from repro.resilience import SweepFaultPlan
        from repro.sweep import SweepOptions

        # ``repro.cli`` re-exports the ``main`` *function* under the
        # same name as the module; import the module explicitly.
        cli_main = importlib.import_module("repro.cli.main")

        plan = SweepFaultPlan(**plan_kwargs)
        monkeypatch.setattr(
            cli_main,
            "_sweep_options",
            lambda args: SweepOptions(
                timeout_seconds=args.timeout,
                max_retries=args.max_retries,
                resume=args.resume,
                faults=plan,
            ),
        )

    def test_suggest_reports_quarantine_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        project = self._hostile_project(tmp_path)
        self._chaos_options(monkeypatch, crash=("crash_me.py",))
        code = main(
            ["suggest", str(project), "--jobs", "2", "--max-retries", "0"]
        )
        captured = capsys.readouterr()
        assert code == 0  # chaos never fails the sweep
        assert "quarantined" in captured.err
        assert "crash_me.py" in captured.err
        assert "crash" in captured.err
        assert "crash_me.py" not in captured.out  # stdout stays clean

    def test_check_verdict_names_quarantined_files(
        self, tmp_path, capsys, monkeypatch
    ):
        project = self._hostile_project(tmp_path)
        self._chaos_options(monkeypatch, memory=("crash_me.py",))
        main(["check", str(project), "--fail-on", "high",
              "--max-retries", "0"])
        captured = capsys.readouterr()
        assert "1 file(s) quarantined, not analyzed" in captured.out
        assert "quarantined" in captured.err

    def test_check_sarif_carries_quarantine_provenance(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        project = self._hostile_project(tmp_path)
        self._chaos_options(monkeypatch, crash=("crash_me.py",))
        main(["check", str(project), "--fail-on", "high",
              "--format", "sarif", "--max-retries", "0"])
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        notes = document["runs"][0]["invocations"][0][
            "toolExecutionNotifications"
        ]
        assert len(notes) == 1
        assert "quarantined" in notes[0]["message"]["text"]
        locations = notes[0]["locations"][0]["physicalLocation"]
        assert locations["artifactLocation"]["uri"] == "crash_me.py"

    def test_interrupted_sweep_exits_130_and_resume_completes(
        self, tmp_path, capsys, monkeypatch
    ):
        project = self._hostile_project(tmp_path)
        (project / "crash_me.py").unlink()  # healthy corpus
        baseline_code = main(["suggest", str(project), "--format", "json"])
        baseline = capsys.readouterr().out
        assert baseline_code == 0

        self._chaos_options(monkeypatch, interrupt_after_files=2)
        code = main(["suggest", str(project), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 130
        assert "--resume" in captured.err
        assert (project / ".pepo_cache" / "analyze-journal.json").exists()

        monkeypatch.undo()
        resume_code = main(["suggest", str(project), "--format", "json", "--resume"])
        resumed = capsys.readouterr().out
        assert resume_code == 0
        assert resumed == baseline  # byte-identical output
        assert not (
            project / ".pepo_cache" / "analyze-journal.json"
        ).exists()

    def test_cache_stats_lists_quarantined_files(
        self, tmp_path, capsys, monkeypatch
    ):
        project = self._hostile_project(tmp_path)
        self._chaos_options(monkeypatch, crash=("crash_me.py",))
        main(["suggest", str(project), "--max-retries", "0"])
        capsys.readouterr()
        assert main(["cache", "stats", str(project)]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "crash_me.py" in out

    def test_serial_fallback_warns_once_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        import ast

        from repro.analyzer.rules.base import Rule

        class LocalRule(Rule):
            rule_id = "X97_LOCAL"
            interested_types = (ast.Mod,)

            def check(self, node, ctx):
                return iter(())

        project = self._hostile_project(tmp_path)
        (project / "crash_me.py").unlink()
        from repro import analyzer as analyzer_module

        real_analyzer = analyzer_module.Analyzer
        monkeypatch.setattr(
            analyzer_module,
            "Analyzer",
            lambda extended=False: real_analyzer(rules=[LocalRule]),
        )
        # Pretend the box has cores to spare: the CLI clamps --jobs at
        # the CPU count, and this test needs the parallel path taken so
        # the pickling check (and its one warning) actually runs.
        import repro.sweep

        monkeypatch.setattr(repro.sweep, "clamp_jobs", lambda jobs: jobs or 1)
        code = main(["suggest", str(project), "--jobs", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("not picklable") == 1

    def test_sweep_flags_parse(self):
        parser = build_parser()
        for command in ("suggest", "optimize", "check"):
            parsed = parser.parse_args(
                [command, "x", "--timeout", "5", "--max-retries", "1",
                 "--resume"]
            )
            assert parsed.timeout == 5.0
            assert parsed.max_retries == 1
            assert parsed.resume is True


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for args in (["suggest", "x.py"], ["optimize", "x.py", "--write"],
                     ["profile", "proj"], ["bench", "table1"]):
            parsed = parser.parse_args(args)
            assert parsed.command == args[0]


def _store_result(seed: int):
    """A small deterministic profile for store-CLI tests."""
    import random

    from repro.profiler.records import MethodRecord, ProfileResult
    from repro.rapl.domains import Domain

    rng = random.Random(seed)
    result = ProfileResult()
    counts = {}
    for _ in range(40):
        method = f"app.cli.fn{rng.randrange(4)}"
        ci = counts.get(method, 0)
        counts[method] = ci + 1
        result.add(
            MethodRecord(
                method=method,
                filename="cli.py",
                lineno=1,
                call_index=ci,
                wall_seconds=rng.random() * 0.01,
                cpu_seconds=rng.random() * 0.01,
                joules={Domain.PACKAGE: rng.random()},
                exclusive_joules={Domain.PACKAGE: rng.random() * 0.5},
            )
        )
    return result


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="run store requires numpy",
)
class TestStoreCommands:

    def test_ingest_files_and_directories(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        _store_result(1).write_result_txt(spool / "result.txt")
        _store_result(2).write_result_txt(spool / "pepo-7-1.result.txt")
        single = tmp_path / "one.result.txt"
        _store_result(3).write_result_txt(single)
        store = tmp_path / "store"
        assert main(
            ["ingest", str(spool), str(single), "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "3 run(s) ingested" in out
        assert "run 1:" in out and "run 3:" in out

    def test_ingest_missing_path_exits_2(self, tmp_path, capsys):
        assert main(
            ["ingest", str(tmp_path / "nope"),
             "--store", str(tmp_path / "store")]
        ) == 2
        assert "pepo:" in capsys.readouterr().err

    def test_ingest_malformed_file_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "result.txt"
        bad.write_text("# h\nm.f\t0.1\t0.1\t1.0\t0.5\tthread=abc\n")
        for path, reason in (
            (bad, "could not parse thread value 'abc'"),
            (TRUNCATED_RESULT, "truncated line (no trailing newline)"),
        ):
            assert main(
                ["ingest", str(path), "--store", str(tmp_path / "store")]
            ) == 2
            assert capsys.readouterr().err == f"pepo: {path}:2: {reason}\n"

    def test_store_stats_and_runs(self, tmp_path, capsys):
        store = tmp_path / "store"
        path = tmp_path / "result.txt"
        _store_result(4).write_result_txt(path)
        main(["ingest", str(path), "--store", str(store)])
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "runs: 1" in out and "rows: 40" in out
        assert main(["store", "runs", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "result" in out and "40 row(s)" in out

    def test_dashboard_writes_html(self, tmp_path, capsys):
        store = tmp_path / "store"
        path = tmp_path / "result.txt"
        _store_result(5).write_result_txt(path)
        main(["ingest", str(path), "--store", str(store)])
        capsys.readouterr()
        out_html = tmp_path / "dash.html"
        assert main(
            ["dashboard", "-o", str(out_html), "--store", str(store)]
        ) == 0
        assert "dashboard written" in capsys.readouterr().out
        assert out_html.read_text(encoding="utf-8").startswith(
            "<!DOCTYPE html>"
        )

    def test_profile_store_flag_ingests(self, tmp_path, capsys):
        (tmp_path / "app.py").write_text(PROJECT_MAIN)
        store = tmp_path / "store"
        assert main(
            ["profile", str(tmp_path), "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "ingested into run store as run 1" in out
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store)]) == 0
        assert "runs: 1" in capsys.readouterr().out

    def test_cache_stats_reports_store_section(self, tmp_path, capsys):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "mod.py").write_text("x = 1\n")
        path = tmp_path / "result.txt"
        _store_result(6).write_result_txt(path)
        store = project / ".pepo_cache" / "store"
        main(["ingest", str(path), "--store", str(store)])
        capsys.readouterr()
        assert main(["cache", "stats", str(project)]) == 0
        out = capsys.readouterr().out
        assert "store: 1 run(s), 40 row(s)" in out
        assert "last ingest" in out

    def test_cache_stats_without_store_has_no_section(
        self, tmp_path, capsys
    ):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "mod.py").write_text("x = 1\n")
        assert main(["cache", "stats", str(project)]) == 0
        assert "store:" not in capsys.readouterr().out

    def test_new_subcommands_parse(self):
        parser = build_parser()
        for args in (
            ["ingest", "spool/"],
            ["store", "stats"],
            ["store", "runs"],
            ["dashboard", "-o", "out.html", "--top", "5"],
            ["profile", "proj", "--store"],
            ["bench", "ingest", "--quick", "--check"],
        ):
            parsed = parser.parse_args(args)
            assert parsed.command == args[0]
