"""``pepo check``: fingerprints, baselines, exit codes, SARIF."""

import json
import textwrap

import pytest

from repro.analyzer.engine import Analyzer
from repro.analyzer.findings import Severity
from repro.check import (
    Baseline,
    evaluate,
    finding_fingerprint,
    normalize_snippet,
    to_sarif,
)
from repro.check.gate import FAIL_ON_LEVELS
from repro.cli.main import main

DIRTY = textwrap.dedent(
    """\
    RATE = 0.07

    def total(xs):
        acc = ""
        for x in xs:
            acc += str(x * RATE)
        return acc
    """
)

CLEAN = "def f(xs):\n    return sum(xs)\n"


def findings_for(tmp_path, source=DIRTY, name="hot.py"):
    path = tmp_path / name
    path.write_text(source)
    return {str(path): Analyzer().analyze_file(path)}


class TestFingerprints:
    def test_stable_across_line_shifts(self, tmp_path):
        by_file = findings_for(tmp_path)
        before = {
            finding_fingerprint(f, tmp_path)
            for fs in by_file.values()
            for f in fs
        }
        shifted = findings_for(tmp_path, "\n\n# comment\n" + DIRTY)
        after = {
            finding_fingerprint(f, tmp_path)
            for fs in shifted.values()
            for f in fs
        }
        assert before == after

    def test_rule_version_bump_retires_fingerprints(
        self, tmp_path, monkeypatch
    ):
        from repro.rules import REGISTRY

        by_file = findings_for(tmp_path)
        flat = [f for fs in by_file.values() for f in fs]
        assert flat
        target = flat[0]
        before = finding_fingerprint(target, tmp_path)
        detector = REGISTRY.get(target.rule_id).detector
        monkeypatch.setattr(detector, "version", detector.version + 1)
        assert finding_fingerprint(target, tmp_path) != before

    def test_stable_across_roots(self, tmp_path):
        a = tmp_path / "checkout_a"
        b = tmp_path / "checkout_b"
        a.mkdir()
        b.mkdir()
        fa = findings_for(a)
        fb = findings_for(b)
        fp_a = {finding_fingerprint(f, a) for fs in fa.values() for f in fs}
        fp_b = {finding_fingerprint(f, b) for fs in fb.values() for f in fs}
        assert fp_a == fp_b

    def test_rule_distinguishes(self, tmp_path):
        by_file = findings_for(tmp_path)
        fingerprints = [
            finding_fingerprint(f, tmp_path)
            for fs in by_file.values()
            for f in fs
        ]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_normalize_snippet_collapses_whitespace(self):
        assert normalize_snippet("  a   +=\tb ") == "a += b"


class TestBaseline:
    def test_round_trip(self, tmp_path):
        by_file = findings_for(tmp_path)
        baseline = Baseline.from_findings(by_file, root=tmp_path)
        target = tmp_path / "baseline.json"
        baseline.save(target)
        loaded = Baseline.load(target)
        assert loaded.fingerprints == baseline.fingerprints

    def test_rejects_non_baseline_json(self, tmp_path):
        target = tmp_path / "junk.json"
        target.write_text("[1, 2]")
        with pytest.raises(ValueError):
            Baseline.load(target)

    def test_evaluate_splits_new_vs_baselined(self, tmp_path):
        by_file = findings_for(tmp_path)
        baseline = Baseline.from_findings(by_file, root=tmp_path)
        result = evaluate(
            by_file,
            fail_on=Severity.MEDIUM,
            baseline=baseline,
            root=tmp_path,
        )
        assert result.new == []
        assert len(result.baselined) == result.total
        assert result.exit_code == 0

    def test_new_finding_gates(self, tmp_path):
        old = findings_for(tmp_path, CLEAN, "clean.py")
        baseline = Baseline.from_findings(old, root=tmp_path)
        current = findings_for(tmp_path)
        result = evaluate(
            current,
            fail_on=Severity.MEDIUM,
            baseline=baseline,
            root=tmp_path,
        )
        assert result.new
        assert result.exit_code == 1


class TestExitCodes:
    def test_fail_on_thresholds(self, tmp_path):
        by_file = findings_for(tmp_path)
        severities = {
            f.severity for fs in by_file.values() for f in fs
        }
        assert Severity.HIGH in severities
        for spelling, level in FAIL_ON_LEVELS.items():
            result = evaluate(by_file, fail_on=level)
            assert result.exit_code == 1, spelling

    def test_clean_project_passes(self, tmp_path):
        by_file = findings_for(tmp_path, CLEAN)
        result = evaluate(by_file, fail_on=Severity.ADVICE)
        assert result.exit_code == 0

    def test_advice_does_not_gate_at_high(self, tmp_path):
        source = "def f(x):\n    return x if x else 0\n"
        path = tmp_path / "advice.py"
        path.write_text(source)
        by_file = {str(path): Analyzer().analyze_file(path)}
        assert all(
            f.severity < Severity.HIGH
            for fs in by_file.values()
            for f in fs
        )
        assert evaluate(by_file, fail_on=Severity.HIGH).exit_code == 0


class TestCli:
    def test_check_fails_then_baseline_passes(self, tmp_path, capsys):
        (tmp_path / "hot.py").write_text(DIRTY)
        assert main(["check", str(tmp_path), "--fail-on", "high"]) == 1
        baseline = tmp_path / ".pepo-baseline.json"
        assert (
            main(
                [
                    "check",
                    str(tmp_path),
                    "--write-baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "check",
                    str(tmp_path),
                    "--baseline",
                    str(baseline),
                    "--fail-on",
                    "advice",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "baselined finding(s) suppressed" in out
        assert "OK:" in out

    def test_check_single_file(self, tmp_path):
        path = tmp_path / "hot.py"
        path.write_text(DIRTY)
        assert main(["check", str(path), "--fail-on", "high"]) == 1
        assert main(["check", str(path), "--fail-on", "high"]) == 1

    def test_json_format_is_pure_json_lines(self, tmp_path, capsys):
        (tmp_path / "hot.py").write_text(DIRTY)
        main(["check", str(tmp_path), "--format", "json"])
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        records = [json.loads(line) for line in lines]
        assert records
        assert all("confidence" in record for record in records)

    def test_suggest_format_json_matches_check_records(
        self, tmp_path, capsys
    ):
        (tmp_path / "hot.py").write_text(DIRTY)
        main(["suggest", str(tmp_path), "--format", "json"])
        suggest_out = capsys.readouterr().out
        main(["check", str(tmp_path), "--format", "json"])
        check_out = capsys.readouterr().out
        assert suggest_out == check_out

    def test_suggest_json_alias_still_works(self, tmp_path, capsys):
        (tmp_path / "hot.py").write_text(DIRTY)
        main(["suggest", str(tmp_path), "--format", "json"])
        jsonl = capsys.readouterr().out
        main(["suggest", str(tmp_path), "--format", "json"])
        assert capsys.readouterr().out == jsonl

    def test_exclude_flag(self, tmp_path, capsys):
        (tmp_path / "hot.py").write_text(DIRTY)
        vendor = tmp_path / "vendor"
        vendor.mkdir()
        (vendor / "dep.py").write_text(DIRTY)
        main(["check", str(tmp_path), "--format", "json"])
        all_files = {
            json.loads(line)["file"]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        assert any("vendor" in f for f in all_files)
        main(["check", str(tmp_path), "--format", "json", "--exclude", "vendor"])
        kept = {
            json.loads(line)["file"]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        assert kept
        assert not any("vendor" in f for f in kept)

    def test_missing_baseline_file_exits_2(self, tmp_path):
        (tmp_path / "hot.py").write_text(DIRTY)
        code = main(
            [
                "check",
                str(tmp_path),
                "--baseline",
                str(tmp_path / "absent.json"),
            ]
        )
        assert code == 2


class TestSarif:
    def test_document_structure(self, tmp_path):
        by_file = findings_for(tmp_path)
        doc = to_sarif(by_file, root=tmp_path)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "pepo"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["level"] in {"note", "warning", "error"}
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert "pepoFingerprint/v1" in result["partialFingerprints"]

    def test_relative_uris(self, tmp_path):
        by_file = findings_for(tmp_path)
        doc = to_sarif(by_file, root=tmp_path)
        for result in doc["runs"][0]["results"]:
            uri = result["locations"][0]["physicalLocation"][
                "artifactLocation"
            ]["uri"]
            assert not uri.startswith("/")
            assert "\\" not in uri

    def test_severity_level_mapping(self, tmp_path):
        by_file = findings_for(tmp_path)
        levels = {
            f.severity: r["level"]
            for fs, results in zip(
                (sorted(v) for v in by_file.values()),
                (doc["runs"][0]["results"] for doc in [to_sarif(by_file)]),
            )
            for f, r in zip(fs, results)
        }
        mapping = {
            Severity.ADVICE: "note",
            Severity.MEDIUM: "warning",
            Severity.HIGH: "error",
        }
        for severity, level in levels.items():
            assert mapping[severity] == level

    def test_rank_carries_confidence_on_0_100_scale(self, tmp_path):
        by_file = findings_for(tmp_path)
        doc = to_sarif(by_file, root=tmp_path)
        results = doc["runs"][0]["results"]
        assert results
        flat = sorted(f for fs in by_file.values() for f in fs)
        for finding, result in zip(flat, results):
            assert result["rank"] == round(finding.confidence * 100, 2)
            assert 0 <= result["rank"] <= 100

    def test_flow_facts_exported_under_properties(self, tmp_path):
        by_file = findings_for(tmp_path)
        doc = to_sarif(by_file, root=tmp_path)
        results = doc["runs"][0]["results"]
        assert results
        flat = sorted(f for fs in by_file.values() for f in fs)
        for finding, result in zip(flat, results):
            props = result["properties"]
            assert props["hotDepth"] == finding.hot_depth
            assert props["callerHotness"] == finding.caller_hotness
            assert props["pureContext"] == finding.pure_context
            assert props["confidence"] == finding.confidence

    def test_validates_against_sarif_2_1_0_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        by_file = findings_for(tmp_path)
        doc = to_sarif(by_file, root=tmp_path)
        # Structural subset of the SARIF 2.1.0 schema covering every
        # object pepo emits (the full OASIS schema is ~500 KB; this
        # subset pins the same required properties and types).
        schema = {
            "type": "object",
            "required": ["version", "runs"],
            "properties": {
                "version": {"const": "2.1.0"},
                "$schema": {"type": "string"},
                "runs": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["tool"],
                        "properties": {
                            "tool": {
                                "type": "object",
                                "required": ["driver"],
                                "properties": {
                                    "driver": {
                                        "type": "object",
                                        "required": ["name"],
                                        "properties": {
                                            "name": {"type": "string"},
                                            "version": {"type": "string"},
                                            "rules": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "required": ["id"],
                                                },
                                            },
                                        },
                                    }
                                },
                            },
                            "results": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["message"],
                                    "properties": {
                                        "ruleId": {"type": "string"},
                                        "ruleIndex": {
                                            "type": "integer",
                                            "minimum": 0,
                                        },
                                        "level": {
                                            "enum": [
                                                "none",
                                                "note",
                                                "warning",
                                                "error",
                                            ]
                                        },
                                        "message": {
                                            "type": "object",
                                            "required": ["text"],
                                        },
                                        "locations": {
                                            "type": "array",
                                            "items": {
                                                "type": "object",
                                                "properties": {
                                                    "physicalLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "artifactLocation": {
                                                                "type": "object",
                                                                "properties": {
                                                                    "uri": {
                                                                        "type": "string"
                                                                    }
                                                                },
                                                            },
                                                            "region": {
                                                                "type": "object",
                                                                "properties": {
                                                                    "startLine": {
                                                                        "type": "integer",
                                                                        "minimum": 1,
                                                                    },
                                                                    "startColumn": {
                                                                        "type": "integer",
                                                                        "minimum": 1,
                                                                    },
                                                                },
                                                            },
                                                        },
                                                    }
                                                },
                                            },
                                        },
                                        "partialFingerprints": {
                                            "type": "object",
                                            "additionalProperties": {
                                                "type": "string"
                                            },
                                        },
                                        "rank": {
                                            "type": "number",
                                            "minimum": 0,
                                            "maximum": 100,
                                        },
                                        "properties": {"type": "object"},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        }
        jsonschema.validate(doc, schema)

    def test_cli_sarif_output_file(self, tmp_path, capsys):
        (tmp_path / "hot.py").write_text(DIRTY)
        target = tmp_path / "report.sarif"
        code = main(
            [
                "check",
                str(tmp_path),
                "--format",
                "sarif",
                "--output",
                str(target),
                "--fail-on",
                "high",
            ]
        )
        assert code == 1
        doc = json.loads(target.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]
        out = capsys.readouterr().out
        assert "report written" in out
        assert "FAIL" in out
