"""Pre-filter parity: trigger-filtered output is byte-identical to
unfiltered output.

The interest pre-filter may only ever skip work, never change answers:
a rule's ``triggers`` are *necessary* substrings, so any file the
filter rejects for a rule cannot contain that rule's pattern.  These
tests hold that contract three ways — a hypothesis property over
generated programs, byte-for-byte parity over a fixture corpus of real
repo sources, and directed edge cases (trigger-free files, broken
files, suppression comments).
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analyzer import Analyzer
from tests.strategies import mixed_program, parseable_soup


def _as_bytes(findings) -> bytes:
    return json.dumps([f.to_dict() for f in findings]).encode()


class TestPrefilterParityProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=mixed_program())
    def test_generated_programs_identical(self, program):
        filtered = Analyzer(extended=True).analyze_source(program)
        unfiltered = Analyzer(
            extended=True, prefilter=False
        ).analyze_source(program)
        assert _as_bytes(filtered) == _as_bytes(unfiltered)

    @settings(max_examples=25, deadline=None)
    @given(text=parseable_soup)
    def test_parseable_soup_identical(self, text):
        compile(text, "<soup>", "exec")  # raises if a draw is not Python
        filtered = Analyzer(extended=True).analyze_source(text)
        unfiltered = Analyzer(
            extended=True, prefilter=False
        ).analyze_source(text)
        assert _as_bytes(filtered) == _as_bytes(unfiltered)


class TestPrefilterParityFixtureCorpus:
    def test_rule_sources_byte_identical(self):
        # The rule implementations themselves are a trigger-dense real
        # corpus (every trigger string appears in them *as code*), and
        # the flow fixtures are curated false-positive bait.
        repo_root = Path(__file__).parents[2]
        corpus = sorted(
            (repo_root / "src" / "repro" / "analyzer" / "rules").glob("*.py")
        ) + sorted(
            (Path(__file__).parent / "fixtures" / "flow").glob("*.py")
        )
        assert len(corpus) >= 15
        filtered_analyzer = Analyzer(extended=True)
        unfiltered_analyzer = Analyzer(extended=True, prefilter=False)
        for path in corpus:
            source = path.read_text(encoding="utf-8")
            assert _as_bytes(
                filtered_analyzer.analyze_source(source, str(path))
            ) == _as_bytes(
                unfiltered_analyzer.analyze_source(source, str(path))
            ), path


class TestPrefilterEdgeCases:
    def test_trigger_free_file_yields_empty(self):
        source = "VALUE = 1\nOTHER = VALUE\n"
        assert Analyzer().analyze_source(source) == []
        assert Analyzer(prefilter=False).analyze_source(source) == []

    def test_broken_file_raises_even_when_all_rules_filtered(self):
        # Parsing happens before filtering: a syntax error must not be
        # masked by "no rule could match anyway".
        with pytest.raises(SyntaxError):
            Analyzer().analyze_source("VALUE = = 1\n")

    def test_suppressions_still_honored_with_prefilter(self):
        source = (
            "def f(xs):\n"
            "    s = ''\n"
            "    for x in xs:\n"
            "        s += x  # pepo: ignore[R08_STR_CONCAT]\n"
            "    return s\n"
        )
        kept = Analyzer().analyze_source(source)
        assert all(f.rule_id != "R08_STR_CONCAT" for f in kept)
