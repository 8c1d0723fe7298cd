"""Tests for the ``pepo bench semantics`` flow-fact layer benchmark."""

import json

from repro.bench.harness import write_bench_json
from repro.bench.semantics import (
    BUDGET_MS_PER_KLOC,
    QUICK_FILE_CAP,
    SemanticsBenchResult,
    corpus_files,
    render_semantics_bench,
    run_semantics_bench,
)


def project(tmp_path, n_files=3):
    for i in range(n_files):
        (tmp_path / f"mod{i}.py").write_text(
            f"def f{i}(xs):\n"
            "    out = 0\n"
            "    for x in xs:\n"
            "        out += x\n"
            "    return out\n"
        )
    return tmp_path


class TestCorpus:
    def test_single_file_corpus(self, tmp_path):
        target = project(tmp_path) / "mod0.py"
        assert corpus_files(target) == [target]

    def test_skip_dirs_never_walked(self, tmp_path):
        project(tmp_path)
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("x = 1\n")
        assert all(
            "__pycache__" not in p.parts for p in corpus_files(tmp_path)
        )

    def test_project_under_skip_dir_name_is_walked(self, tmp_path):
        # Only directories *below* the root are skipped: a project that
        # itself lives under ``venv/`` (or ``.git/``) is still a corpus.
        for parent in ("venv", ".git"):
            root = tmp_path / parent / "proj"
            root.mkdir(parents=True)
            project(root)
            assert corpus_files(root) == sorted(root.glob("mod*.py"))
            nested = root / parent
            nested.mkdir()
            (nested / "vendored.py").write_text("def v():\n    pass\n")
            assert nested / "vendored.py" not in corpus_files(root)

    def test_cap_keeps_largest_files_in_sorted_order(self, tmp_path):
        project(tmp_path, n_files=4)
        big = tmp_path / "big.py"
        big.write_text("def g():\n    return 1\n" * 200)
        capped = corpus_files(tmp_path, cap=2)
        assert len(capped) == 2
        assert big in capped
        assert capped == sorted(capped)


class TestRun:
    def test_measures_quick_project(self, tmp_path):
        result = run_semantics_bench(project(tmp_path), quick=True)
        assert result.files == 3
        assert result.functions == 3
        assert result.loc == 15
        assert result.quick
        assert result.repeats == 2
        assert result.parse_ms >= 0.0
        assert result.facts_ms >= 0.0
        assert result.facts_ms_per_kloc() > 0.0

    def test_quick_caps_corpus(self, tmp_path):
        result = run_semantics_bench(
            project(tmp_path, n_files=QUICK_FILE_CAP + 3), quick=True
        )
        assert result.files == QUICK_FILE_CAP

    def test_unparseable_files_skipped(self, tmp_path):
        project(tmp_path)
        (tmp_path / "broken.py").write_text("def broken(:\n")
        result = run_semantics_bench(tmp_path, quick=True)
        assert result.files == 3


class TestGate:
    def fixed(self, facts_ms):
        return SemanticsBenchResult(
            python="3.x",
            corpus="corpus",
            files=1,
            loc=1000,
            functions=10,
            repeats=1,
            quick=False,
            parse_ms=1.0,
            facts_ms=facts_ms,
        )

    def test_within_budget_passes(self):
        assert self.fixed(BUDGET_MS_PER_KLOC).meets_target()

    def test_over_budget_fails(self):
        assert not self.fixed(BUDGET_MS_PER_KLOC * 1.01).meets_target()

    def test_per_kloc_normalization(self):
        # 1000 LoC corpus: totals are already per-KLoC.
        result = self.fixed(120.0)
        assert result.facts_ms_per_kloc() == 120.0
        assert result.parse_ms_per_kloc() == 1.0

    def test_empty_corpus_is_not_a_regression(self):
        empty = SemanticsBenchResult(
            python="3.x", corpus="none", files=0, loc=0, functions=0,
            repeats=1, quick=True, parse_ms=0.0, facts_ms=0.0,
        )
        assert empty.facts_ms_per_kloc() == 0.0
        assert empty.meets_target()


class TestOutput:
    def test_render_mentions_budget_and_verdict(self, tmp_path):
        result = run_semantics_bench(project(tmp_path), quick=True)
        text = render_semantics_bench(result)
        assert "ms/KLoC" in text
        assert "within budget" in text

    def test_render_flags_regression(self):
        slow = SemanticsBenchResult(
            python="3.x", corpus="corpus", files=1, loc=1000, functions=1,
            repeats=1, quick=False, parse_ms=1.0,
            facts_ms=BUDGET_MS_PER_KLOC * 2,
        )
        assert "SEMANTICS REGRESSION" in render_semantics_bench(slow)

    def test_json_output_round_trips(self, tmp_path):
        result = run_semantics_bench(project(tmp_path), quick=True)
        path = write_bench_json(result, tmp_path / "BENCH_semantics.json")
        data = json.loads(path.read_text())
        assert data["bench"] == "semantics"
        assert data["files"] == 3
        assert data["budget_ms_per_kloc"] == BUDGET_MS_PER_KLOC
        assert data["meets_target"] is True
        assert data["facts_ms_per_kloc"] >= 0.0
