"""``edit-loop``: the developer edit loop and the real-time editor view.

Set-up fills the sweep cache for a project of :data:`FILES` stdlib files
spread over the size ranks and writes a ``pepo check`` baseline.  Each
op appends one seeded small function to one of :data:`TARGETS` files,
also spread over the size ranks, then runs a warm
``analyze_project(cache=True, jobs=N)`` and ``evaluate`` against the
baseline, as ``pepo check --baseline`` does after a save.  The edited
buffer then takes a few keystrokes through ``DynamicAnalyzer.update``,
the paper's real-time editor view (Fig. 2).

Most of an op is analysis of the one edited file: the warm sweep
re-analyses it, and the editor buffer analyses the whole file on open
and again on every keystroke.  Walking and hashing the project and
reading the cache are the rest of the sweep (the README gives the
measured shares).  Cache writes happen once per op and in the set-up
fill, so a cache change that trades writes for reads shows up in
``setup_s`` against the edit latency.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

from pepobench import inputs
from pepobench.cold_project import semantics_metrics
from pepobench.summary import median, tail
from pepobench.workload import OpResult, Workload

#: Files in the edit-loop project.
FILES = 60
#: Files the edits go to; a run edits each several times, so each one's
#: median edit time holds against a few seconds of host slowdown.
TARGETS = 12
#: Edits prepared per run (each op uses the next one).
PLAN = 5000
#: All-hit sweeps timed by the traced run for ``sweep.walk_hash_ms``.
ALL_HIT_SWEEPS = 5


class EditLoop(Workload):
    name = "edit-loop"
    detail_units = {
        "edit_p50_ms": "ms",
        "edit_tail_ms": "ms",
        "keystroke_p50_ms": "ms",
    }

    @property
    def project(self) -> Path:
        return self.workdir / "proj"

    def prepare(self) -> dict:
        self.sources = inputs.stratified_pool(FILES, 0.75)
        files = len(self.sources)
        count = min(TARGETS, files)
        #: The middle file of each of ``count`` equal slices of the pool.
        self.targets = [files * (2 * i + 1) // (2 * count) for i in range(count)]
        self.items = count
        inputs.write_project(self.project, self.sources)
        self.edits = inputs.edit_script(self.seed, count, PLAN)
        return {
            "sha256": inputs.digest_texts(
                [(s.origin, s.text) for s in self.sources]
                + [(str(e.file_index), e.snippet) for e in self.edits]
            ),
            "files": len(self.sources),
            "kloc": sum(s.loc for s in self.sources) / 1000.0,
        }

    def setup(self, state_dir: Path) -> None:
        from repro.analyzer import Analyzer, DynamicAnalyzer
        from repro.check.gate import Baseline, evaluate

        self._evaluate = evaluate
        self._dynamic = DynamicAnalyzer
        self.cache_dir = state_dir / "cache"
        self.analyzer = Analyzer(extended=True)
        start = perf_counter()
        findings = self.analyzer.analyze_project(
            self.project, cache=True, cache_dir=self.cache_dir, jobs=self.jobs
        )
        self.fill_s = perf_counter() - start
        baseline_path = state_dir / "baseline.json"
        Baseline.from_findings(findings, root=self.project).save(baseline_path)
        self.baseline = Baseline.load(baseline_path)
        self.records: list[dict] = []

    def _edited(self, index: int, item: int) -> tuple[int, str]:
        """(file index, new text) of op ``index`` on input ``item``.

        Edit ``item`` picks the file and op ``index`` the snippet, so the
        traced run's pair of ops on one item edits one file twice, and
        every snippet stays unique.
        """
        target = self.targets[self.edits[item % len(self.edits)].file_index]
        snippet = self.edits[index % len(self.edits)].snippet
        return target, self.sources[target].text + snippet

    def op(self, index: int, item: int, rec) -> OpResult:
        target, text = self._edited(index, item)
        path = self.project / self.sources[target].flat_name
        t0 = perf_counter()
        with rec.span("edit.write"):
            path.write_text(text, encoding="utf-8")
        with rec.span("analyzer.analyze_project"):
            findings = self.analyzer.analyze_project(
                self.project, cache=True, cache_dir=self.cache_dir, jobs=self.jobs
            )
        with rec.span("check.evaluate"):
            checked = self._evaluate(findings, baseline=self.baseline, root=self.project)
        t1 = perf_counter()
        keystrokes = []
        with rec.span("analyzer.dynamic_open"):
            buffer = self._dynamic(filename=str(path), analyzer=self.analyzer)
            buffer.update(text)
        for typed in inputs.keystroke_script(self.seed, index):
            start = perf_counter()
            with rec.span("analyzer.dynamic_update"):
                buffer.update(text + typed)
            keystrokes.append(perf_counter() - start)
        t2 = perf_counter()
        stats = self.analyzer.last_sweep_stats
        self.records.append(
            {
                "index": index,
                "item": item,
                "name": str(path),
                "findings": _digest(findings.get(str(path), [])),
                "hits": stats.cache_hits,
                "misses": stats.cache_misses,
                "evictions": stats.cache_evictions,
                "new_files": {f.file for f in checked.new},
                "new_in_edited": sum(1 for f in checked.new if f.file == str(path)),
                "dynamic": _digest(buffer.findings),
                "dynamic_typed": _last_parseable(buffer.last_good_source, text),
            }
        )
        return OpResult(
            index=index,
            item=target,
            wall_s=t2 - t0,
            stages={"edit_s": t1 - t0, "keystrokes_s": keystrokes},
        )

    def verify(self, ops: list[OpResult]) -> dict[int, str]:
        """Each op against fresh in-process analyses of the same text."""
        from repro.analyzer import Analyzer

        fresh = Analyzer(extended=True)
        failed: dict[int, str] = {}
        edited: set[str] = set()
        for record in self.records:
            index = record["index"]
            edited.add(record["name"])
            _target, text = self._edited(index, record["item"])
            want = _digest(fresh.analyze_source(text, record["name"]))
            if record["findings"] != want:
                failed[index] = "warm findings differ from a fresh analysis"
            elif (record["misses"], record["hits"]) != (1, len(self.sources) - 1):
                failed[index] = (
                    f"expected 1 miss and {len(self.sources) - 1} hits, got "
                    f"{record['misses']} and {record['hits']}"
                )
            elif not record["new_files"] <= edited or not record["new_in_edited"]:
                failed[index] = "evaluate's new findings do not match the edits"
            elif record["dynamic"] != _digest(
                fresh.analyze_source(text + record["dynamic_typed"], record["name"])
            ):
                failed[index] = "dynamic analyzer findings differ from a fresh analysis"
        return failed

    def detail_metrics(self, ops: list[OpResult]) -> dict[str, float]:
        edits = [op.stages["edit_s"] * 1000 for op in ops]
        keys = [k * 1000 for op in ops for k in op.stages["keystrokes_s"]]
        pct, value, samples = tail(edits)
        return {
            "edit_p50_ms": median(edits),
            "edit_tail_ms": value,
            "edit_tail_percentile": pct,
            "edit_samples": samples,
            "keystroke_p50_ms": median(keys),
            "keystroke_samples": len(keys),
        }

    # -- traced run -----------------------------------------------------

    def layer_metrics(self, rec, ops: list[OpResult]) -> dict[str, float]:
        m: dict[str, float] = {}
        walks = []
        with rec.op(-1, "probe.sweep_all_hit"):
            for _ in range(ALL_HIT_SWEEPS):
                start = perf_counter()
                with rec.span("sweep.all_hit"):
                    self.analyzer.analyze_project(
                        self.project, cache=True, cache_dir=self.cache_dir, jobs=self.jobs
                    )
                walks.append(perf_counter() - start)
        hits = sum(r["hits"] for r in self.records)
        misses = sum(r["misses"] for r in self.records)
        m["sweep.walk_hash_ms"] = 1000 * median(walks)
        m["sweep.cache.hit_ratio"] = hits / (hits + misses)
        m["sweep.cache.evictions"] = sum(r["evictions"] for r in self.records)
        m["sweep.cache.fill_s"] = self.fill_s
        traced = [op for op in ops if op.traced]
        m["check.evaluate_ms"] = _median_span_ms(rec, "check.evaluate")
        m["analyzer.dynamic_update_ms"] = 1000 * median(
            [k for op in traced for k in op.stages["keystrokes_s"]]
        )
        latest = {}
        for record in self.records:
            target, text = self._edited(record["index"], record["item"])
            latest[self.sources[target].flat_name] = text
        named = sorted(latest.items())
        kloc = sum(inputs.count_loc(text) for _, text in named) / 1000.0
        m.update(semantics_metrics(rec, named, kloc, op_id=-2))
        return m


def _digest(findings) -> str:
    """sha256 of every field of every finding, in order."""
    return hashlib.sha256(repr([f.to_dict() for f in findings]).encode()).hexdigest()


def _last_parseable(source: str | None, text: str) -> str:
    """What was typed after ``text`` in the last buffer that parsed."""
    if source is None or not source.startswith(text):
        raise ValueError("dynamic analyzer lost the edited buffer")
    return source[len(text):]


def _median_span_ms(rec, name: str) -> float:
    return median(
        [(s.end - s.start) / 1e6 for s in rec.spans if s.name == name and s.op_id >= 0]
    )
