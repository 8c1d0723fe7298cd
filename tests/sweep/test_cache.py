"""Cache correctness: hits only when nothing relevant changed.

The cache key is (file content hash, rule-registry fingerprint,
analyzer options).  These tests pin the invalidation matrix: a no-op
touch stays a hit; a file edit, a rule registration, a rule version
bump, and an option change are all misses.
"""

import ast
import json
import os

import pytest

from repro.analyzer import Analyzer
from repro.analyzer.rules.base import Rule
from repro.rules import REGISTRY, RuleSpec
from repro.rules.registry import RuleRegistry
from repro.sweep import SweepCache, SweepEngine

DIRTY = (
    "def f(names):\n"
    "    out = ''\n"
    "    for n in names:\n"
    "        out += n\n"
    "    return out\n"
)


class RegisteredAtRuntimeRule(Rule):
    """Module-level so it is picklable and registry-registrable."""

    rule_id = "X01_RUNTIME_TEST"
    interested_types = (ast.For,)

    def check(self, node, ctx):
        return iter(())


@pytest.fixture()
def project(tmp_path):
    (tmp_path / "mod.py").write_text(DIRTY, encoding="utf-8")
    (tmp_path / "other.py").write_text("x = 1\n", encoding="utf-8")
    return tmp_path


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cachedir"


def _sweep(project, cache_dir, analyzer=None):
    """One cached sweep; returns (results, stats)."""
    engine = SweepEngine(cache=True, cache_dir=cache_dir)
    results = engine.run(project, (analyzer or Analyzer())._sweep_job())
    return results, engine.last_stats


class TestCacheHits:
    def test_second_sweep_is_all_hits(self, project, cache_dir):
        _, cold = _sweep(project, cache_dir)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        _, warm = _sweep(project, cache_dir)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)

    def test_noop_touch_stays_a_hit(self, project, cache_dir):
        _sweep(project, cache_dir)
        # Bump mtime without changing content: mtime is not in the key.
        os.utime(project / "mod.py", (1, 1))
        _, stats = _sweep(project, cache_dir)
        assert (stats.cache_hits, stats.cache_misses) == (2, 0)

    def test_identical_content_shares_one_entry(self, project, cache_dir):
        (project / "copy.py").write_text("x = 1\n", encoding="utf-8")
        results, stats = _sweep(project, cache_dir)
        assert len(results) == 3
        # other.py and copy.py have identical bytes -> one cache entry.
        cache = SweepCache(cache_dir)
        assert cache.stats().entries == 2


class TestCacheMisses:
    def test_file_edit_is_a_miss(self, project, cache_dir):
        _sweep(project, cache_dir)
        (project / "mod.py").write_text(DIRTY + "\nY = 2\n", encoding="utf-8")
        _, stats = _sweep(project, cache_dir)
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1

    def test_option_change_is_a_miss(self, project, cache_dir):
        _sweep(project, cache_dir, Analyzer())
        _, stats = _sweep(project, cache_dir, Analyzer(prefilter=False))
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2

    def test_extended_rule_set_is_a_miss(self, project, cache_dir):
        _sweep(project, cache_dir, Analyzer())
        _, stats = _sweep(project, cache_dir, Analyzer(extended=True))
        assert stats.cache_hits == 0

    def test_runtime_rule_registration_invalidates(self, project, cache_dir):
        """Acceptance: registering via repro.rules.REGISTRY misses the cache."""
        _, cold = _sweep(project, cache_dir)
        assert cold.cache_misses == 2
        spec = RuleSpec(
            rule_id="X01_RUNTIME_TEST",
            python_component="test component",
            python_suggestion="test suggestion",
            detector=RegisteredAtRuntimeRule,
        )
        REGISTRY.register(spec)
        try:
            _, stats = _sweep(project, cache_dir)
            assert stats.cache_hits == 0
            assert stats.cache_misses == 2
        finally:
            REGISTRY.unregister("X01_RUNTIME_TEST")
        # Unregistering restores the original fingerprint: hits again.
        _, stats = _sweep(project, cache_dir)
        assert (stats.cache_hits, stats.cache_misses) == (2, 0)


class TestRegistryFingerprint:
    def test_stable_across_instances(self):
        from repro.rules.builtin import build_default_registry

        assert build_default_registry().fingerprint() == (
            build_default_registry().fingerprint()
        )

    def test_registration_order_irrelevant(self):
        class RuleA(Rule):
            rule_id = "A01"
            def check(self, node, ctx):
                return iter(())

        class RuleB(Rule):
            rule_id = "B01"
            def check(self, node, ctx):
                return iter(())

        spec_a = RuleSpec(rule_id="A01", python_component="a",
                          python_suggestion="a", detector=RuleA)
        spec_b = RuleSpec(rule_id="B01", python_component="b",
                          python_suggestion="b", detector=RuleB)
        ab = RuleRegistry((spec_a, spec_b)).fingerprint()
        ba = RuleRegistry((spec_b, spec_a)).fingerprint()
        assert ab == ba

    def test_version_bump_changes_fingerprint(self):
        class VersionedRule(Rule):
            rule_id = "V01"
            version = 1
            def check(self, node, ctx):
                return iter(())

        spec = RuleSpec(rule_id="V01", python_component="v",
                        python_suggestion="v", detector=VersionedRule)
        before = RuleRegistry((spec,)).fingerprint()
        VersionedRule.version = 2
        try:
            after = RuleRegistry((spec,)).fingerprint()
        finally:
            VersionedRule.version = 1
        assert before != after


class TestCacheRobustness:
    def test_corrupt_entry_is_a_miss_not_a_crash(self, project, cache_dir):
        _sweep(project, cache_dir)
        for entry in SweepCache(cache_dir).root.rglob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        results, stats = _sweep(project, cache_dir)
        assert stats.cache_hits == 0
        assert results[str(project / "mod.py")]

    def test_payloads_round_trip_every_finding_field(self, project, cache_dir):
        fresh = Analyzer().analyze_project(project)
        _sweep(project, cache_dir)
        cached, stats = _sweep(project, cache_dir)
        assert stats.cache_hits == 2
        fresh_dicts = {k: [f.to_dict() for f in v] for k, v in fresh.items()}
        cached_dicts = {k: [f.to_dict() for f in v] for k, v in cached.items()}
        assert json.dumps(fresh_dicts) == json.dumps(cached_dicts)

    def test_stats_and_clear(self, project, cache_dir):
        _sweep(project, cache_dir)
        cache = SweepCache(cache_dir)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.by_kind == {"analyze": 2}
        assert stats.total_bytes > 0
        assert "2 entries" in stats.render()
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestCacheIntegrity:
    """Format-3 hardening: checksummed entries, auto-evict-and-recompute,
    and the advisory lockfile."""

    def test_bitflip_evicts_and_recomputes(self, project, cache_dir):
        fresh, _ = _sweep(project, cache_dir)
        cache = SweepCache(cache_dir)
        entries = [
            p for p in cache.root.rglob("*.json")
            if len(p.relative_to(cache.root).parts) == 3
        ]
        assert entries
        for entry in entries:
            raw = bytearray(entry.read_bytes())
            # Flip a byte inside the payload, keeping valid-length JSON
            # unlikely but length identical — the checksum must catch it.
            raw[len(raw) // 2] ^= 0xFF
            entry.write_bytes(bytes(raw))
        results, stats = _sweep(project, cache_dir)
        assert stats.cache_hits == 0
        assert stats.cache_evictions == 2
        assert json.dumps(
            {k: [f.to_dict() for f in v] for k, v in results.items()}
        ) == json.dumps(
            {k: [f.to_dict() for f in v] for k, v in fresh.items()}
        )
        # The recomputed entries replaced the corrupt ones: hits again.
        _, warm = _sweep(project, cache_dir)
        assert warm.cache_hits == 2

    def test_truncated_entry_evicts(self, project, cache_dir):
        _sweep(project, cache_dir)
        cache = SweepCache(cache_dir)
        for entry in cache.root.rglob("*.json"):
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 2])
        _, stats = _sweep(project, cache_dir)
        assert stats.cache_hits == 0
        assert stats.cache_evictions == 2

    def test_checksum_mismatch_detected_directly(self, tmp_path):
        from repro.sweep import payload_checksum

        cache = SweepCache(tmp_path / "c")
        cache.put("analyze", "ab" * 32, {"findings": [1, 2]})
        key = "ab" * 32
        entry = cache.entry_path("analyze", key)
        payload = json.loads(entry.read_text())
        assert payload["sha256"] == payload_checksum(payload["result"])
        payload["result"]["findings"] = [1, 2, 3]  # tampered, stale sum
        entry.write_text(json.dumps(payload))
        assert cache.get("analyze", key) is None
        assert cache.evictions == 1
        assert not entry.exists()

    def test_format_mismatch_is_a_miss_without_eviction(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        key = "cd" * 32
        entry = cache.entry_path("analyze", key)
        entry.parent.mkdir(parents=True)
        entry.write_text(json.dumps({"format": 2, "findings": []}))
        assert cache.get("analyze", key) is None
        # Old-schema entries are unreachable (CACHE_FORMAT is in every
        # fingerprint), not corrupt: leave them for inspection.
        assert cache.evictions == 0
        assert entry.exists()

    def test_cache_format_is_in_job_fingerprint(self, monkeypatch):
        job = Analyzer()._sweep_job()
        before = job.fingerprint()
        monkeypatch.setattr("repro.sweep.jobs.CACHE_FORMAT", -1)
        assert job.fingerprint() != before

    def test_lock_shared_vs_exclusive(self, tmp_path):
        pytest.importorskip("fcntl")
        cache = SweepCache(tmp_path / "c")
        with cache.lock() as first:
            assert first
            # Shared + shared: both sweeps proceed.
            with cache.lock(timeout=0.2) as second:
                assert second
            # Shared + exclusive: the clear must wait (here: time out).
            with cache.lock(exclusive=True, timeout=0.2) as cleared:
                assert not cleared

    def test_clear_waits_for_exclusive_lock(self, project, cache_dir):
        pytest.importorskip("fcntl")
        _sweep(project, cache_dir)
        cache = SweepCache(cache_dir)
        assert cache.stats().entries == 2
        assert cache.clear() == 2

    def test_quarantine_and_journal_not_counted_as_entries(
        self, project, cache_dir
    ):
        _sweep(project, cache_dir)
        (SweepCache(cache_dir).root / "analyze-journal.json").write_text(
            "{}", encoding="utf-8"
        )
        (SweepCache(cache_dir).root / "quarantine.json").write_text(
            '{"format": 1, "entries": []}', encoding="utf-8"
        )
        assert SweepCache(cache_dir).stats().entries == 2


class TestCacheChaos:
    """Fault-injected partial writes / corruption via SweepOptions."""

    def test_corrupt_after_put_recomputes_next_sweep(self, project, cache_dir):
        from repro.resilience import SweepFaultPlan
        from repro.sweep import SweepOptions

        plan = SweepFaultPlan(corrupt_cache=("mod.py",))
        engine = SweepEngine(
            cache=True, cache_dir=cache_dir, options=SweepOptions(faults=plan)
        )
        fresh = engine.run(project, Analyzer()._sweep_job())
        warm_engine = SweepEngine(cache=True, cache_dir=cache_dir)
        warm = warm_engine.run(project, Analyzer()._sweep_job())
        stats = warm_engine.last_stats
        assert stats.cache_hits == 1  # other.py survived
        assert stats.cache_evictions == 1  # mod.py's entry was damaged
        assert json.dumps(
            {k: [f.to_dict() for f in v] for k, v in warm.items()}
        ) == json.dumps(
            {k: [f.to_dict() for f in v] for k, v in fresh.items()}
        )

    def test_truncate_after_put_recomputes_next_sweep(
        self, project, cache_dir
    ):
        from repro.resilience import SweepFaultPlan
        from repro.sweep import SweepOptions

        plan = SweepFaultPlan(truncate_cache=("*.py",))
        engine = SweepEngine(
            cache=True, cache_dir=cache_dir, options=SweepOptions(faults=plan)
        )
        engine.run(project, Analyzer()._sweep_job())
        warm = SweepEngine(cache=True, cache_dir=cache_dir)
        warm.run(project, Analyzer()._sweep_job())
        assert warm.last_stats.cache_hits == 0
        assert warm.last_stats.cache_evictions == 2


class TestSemanticsVersionInvalidation:
    """A semantic-model revision must orphan every cached payload.

    Cached findings embed confidence scores computed by the semantic
    layer; replaying them after the model changes would resurrect
    pre-revision judgments.  ``SEMANTICS_VERSION`` is folded into every
    job fingerprint for exactly this reason.
    """

    def test_version_bump_misses_analyze_cache(
        self, project, cache_dir, monkeypatch
    ):
        _, cold = _sweep(project, cache_dir)
        assert cold.cache_misses == 2
        _, warm = _sweep(project, cache_dir)
        assert warm.cache_hits == 2
        monkeypatch.setattr(
            "repro.sweep.jobs.SEMANTICS_VERSION", "test-bump"
        )
        _, stats = _sweep(project, cache_dir)
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2

    def test_version_bump_misses_optimize_cache(
        self, project, cache_dir, monkeypatch
    ):
        from repro.optimizer import Optimizer

        def opt_sweep():
            engine = SweepEngine(cache=True, cache_dir=cache_dir)
            engine.run(project, Optimizer()._sweep_job())
            return engine.last_stats

        opt_sweep()
        assert opt_sweep().cache_hits == 2
        monkeypatch.setattr(
            "repro.sweep.jobs.SEMANTICS_VERSION", "test-bump"
        )
        stats = opt_sweep()
        assert stats.cache_hits == 0

    def test_fingerprint_depends_on_version(self, monkeypatch):
        job = Analyzer()._sweep_job()
        before = job.fingerprint()
        monkeypatch.setattr(
            "repro.sweep.jobs.SEMANTICS_VERSION", "test-bump"
        )
        assert job.fingerprint() != before


class TestConfidenceParity:
    """Confidence must survive every transport: pickle, JSON, cache."""

    def test_confidence_identical_serial_parallel_cached(
        self, project, cache_dir
    ):
        def scores(results):
            return {
                path: [(f.rule_id, f.line, f.confidence) for f in findings]
                for path, findings in results.items()
            }

        serial = Analyzer().analyze_project(project)
        parallel = Analyzer().analyze_project(project, jobs=2)
        Analyzer().analyze_project(project, cache=True, cache_dir=cache_dir)
        cached = Analyzer().analyze_project(
            project, cache=True, cache_dir=cache_dir
        )
        assert scores(serial) == scores(parallel) == scores(cached)
        assert any(
            f.confidence != 0.5 for v in serial.values() for f in v
        )
