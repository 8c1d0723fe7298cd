"""``cold-project``: cold, uncached analysis and optimization sweeps.

Each op takes the next sub-project of the seeded split and runs what
``pepo check --format sarif`` and ``pepo optimize --diff`` run:
``Analyzer(extended=True).analyze_project(jobs=N)`` with no cache,
``check.gate.evaluate``, ``check.sarif.to_sarif``, then
``Optimizer().optimize_project(jobs=N)`` with a diff and no write.
Parse, semantics, rules, sweep dispatch and the optimizer do nearly all
the work; the cache, profiler and store are not used.

The pool (:data:`POOL_FILES` stdlib files spread over the size ranks)
is dealt by the seed into :data:`SUBPROJECTS` sub-projects; a run sweeps
every sub-project at least once and then cycles.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path
from time import perf_counter

from pepobench import inputs
from pepobench.summary import median
from pepobench.workload import OpResult, Workload

#: Stdlib files in the pool.
POOL_FILES = 16
#: Sub-projects the pool is dealt into.  A round is the whole pool, so
#: a run sweeps each sub-project several times and each one's median op
#: time holds against a few seconds of host slowdown.
SUBPROJECTS = 4
#: Sub-projects the traced run's layer probes decompose.
PROBE_SUBPROJECTS = 3


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _findings_key(findings_by_file) -> dict[str, str]:
    """file -> digest of every field of its findings, in order."""
    return {
        name: _digest(repr([finding.to_dict() for finding in findings]))
        for name, findings in findings_by_file.items()
    }


class ColdProject(Workload):
    name = "cold-project"
    detail_units = {
        "check_kloc_per_s": "KLoC/s",
        "optimize_kloc_per_s": "KLoC/s",
    }

    def _dir(self, index: int) -> Path:
        return self.workdir / f"sp{index:03d}"

    def prepare(self) -> dict:
        subprojects = inputs.deal_subprojects(
            self.seed, inputs.stratified_pool(POOL_FILES, 0.25), SUBPROJECTS
        )
        self.items = len(subprojects)
        for index, sources in enumerate(subprojects):
            inputs.write_project(self._dir(index), sources)
        self.sources = subprojects
        flat = [s for sp in subprojects for s in sp]
        return {
            "sha256": inputs.digest_texts(
                (f"{i}/{s.origin}", s.text)
                for i, sp in enumerate(subprojects)
                for s in sp
            ),
            "files": len(flat),
            "kloc": sum(s.loc for s in flat) / 1000.0,
            "subprojects": len(subprojects),
        }

    def setup(self, state_dir: Path) -> None:
        from repro.analyzer import Analyzer
        from repro.check.gate import evaluate
        from repro.check.sarif import to_sarif
        from repro.optimizer import Optimizer

        self._evaluate = evaluate
        self._to_sarif = to_sarif
        self.analyzer = Analyzer(extended=True)
        self.optimizer = Optimizer()
        #: sub-project -> [(op index, findings digests, optimized digests)]
        self.outputs: dict[int, list] = {}
        self.sweep_stats = []

    def op(self, index: int, item: int, rec) -> OpResult:
        sp = item % len(self.sources)
        directory = self._dir(sp)
        t0 = perf_counter()
        with rec.span("analyzer.analyze_project"):
            findings = self.analyzer.analyze_project(directory, jobs=self.jobs)
        t1 = perf_counter()
        with rec.span("check.evaluate"):
            self._evaluate(findings, root=directory)
        t2 = perf_counter()
        with rec.span("check.sarif"):
            self._to_sarif(findings, root=directory)
        t3 = perf_counter()
        with rec.span("optimizer.optimize_project"):
            optimized = self.optimizer.optimize_project(directory, jobs=self.jobs)
            for result in optimized.values():
                if result.changed:
                    result.diff()
        t4 = perf_counter()
        self.sweep_stats.append(self.analyzer.last_sweep_stats)
        self.sweep_stats.append(self.optimizer.last_sweep_stats)
        self.outputs.setdefault(sp, []).append(
            (
                index,
                _findings_key(findings),
                {name: _digest(r.optimized) for name, r in optimized.items()},
            )
        )
        return OpResult(
            index=index,
            item=sp,
            wall_s=t4 - t0,
            stages={
                "analyze_s": t1 - t0,
                "evaluate_s": t2 - t1,
                "sarif_s": t3 - t2,
                "optimize_s": t4 - t3,
                "kloc": sum(s.loc for s in self.sources[sp]) / 1000.0,
            },
        )

    def verify(self, ops: list[OpResult]) -> dict[int, str]:
        """Compare every op with a serial, uncached, in-process reference
        run (no pre-filter, eager semantics) of the same sub-project."""
        from repro.analyzer import Analyzer
        from repro.optimizer import Optimizer

        reference = Analyzer(extended=True, prefilter=False, eager_semantics=True)
        optimizer = Optimizer()
        failed: dict[int, str] = {}
        for sp, runs in self.outputs.items():
            directory = self._dir(sp)
            want_findings = {}
            want_optimized = {}
            for path in sorted(directory.rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                name = str(path)
                want_findings.update(
                    _findings_key({name: reference.analyze_source(text, name)})
                )
                want_optimized[name] = _digest(
                    optimizer.optimize_source(text, filename=name).optimized
                )
            for index, got_findings, got_optimized in runs:
                if got_findings != want_findings:
                    failed[index] = f"findings differ from reference in sp{sp:03d}"
                elif got_optimized != want_optimized:
                    failed[index] = f"optimized sources differ in sp{sp:03d}"
        return failed

    def detail_metrics(self, ops: list[OpResult]) -> dict[str, float]:
        kloc = sum(op.stages["kloc"] for op in ops)
        check = sum(
            op.stages["analyze_s"] + op.stages["evaluate_s"] + op.stages["sarif_s"]
            for op in ops
        )
        optimize = sum(op.stages["optimize_s"] for op in ops)
        return {
            "check_kloc_per_s": kloc / check,
            "optimize_kloc_per_s": kloc / optimize,
        }

    # -- traced run -----------------------------------------------------

    def layer_metrics(self, rec, ops: list[OpResult]) -> dict[str, float]:
        from repro.analyzer import Analyzer
        from repro.optimizer import Optimizer
        from repro.rules import REGISTRY

        probe = [s for sp in self.sources[:PROBE_SUBPROJECTS] for s in sp]
        kloc = sum(s.loc for s in probe) / 1000.0
        probe_dir = self.workdir / "probe"
        inputs.write_project(probe_dir, probe)
        named = [(str(probe_dir / s.flat_name), s.text) for s in probe]
        m: dict[str, float] = {}

        def timed(fn):
            start = perf_counter()
            value = fn()
            return perf_counter() - start, value

        parse_s: dict[str, float] = {}
        with rec.op(-1, "probe.analyzer"):
            with rec.span("analyzer.parse"):
                for name, text in named:
                    parse_s[name] = min(
                        timed(lambda: ast.parse(text, name))[0] for _ in range(2)
                    )
            analyzer = Analyzer(extended=True)
            file_s, findings = [], []
            with rec.span("analyzer.analyze_source"):
                for name, text in named:
                    elapsed, found = timed(lambda: analyzer.analyze_source(text, name))
                    file_s.append(elapsed)
                    findings.append(len(found))
        m["analyzer.parse_ms_per_kloc"] = 1000 * sum(parse_s.values()) / kloc
        m["analyzer.ms_per_kloc"] = 1000 * sum(file_s) / kloc
        m["analyzer.file_p50_ms"] = 1000 * median(file_s)
        m["analyzer.file_max_ms"] = 1000 * max(file_s)
        m["analyzer.findings"] = sum(findings)
        m["analyzer.files_with_findings_ratio"] = (
            sum(1 for n in findings if n) / len(findings)
        )

        with rec.op(-2, "probe.rules"):
            for rule_class in REGISTRY.detector_classes(extended=True):
                single = Analyzer(rules=[rule_class])
                rule_id = single.rule_ids[0]
                spent, count = 0.0, 0
                with rec.span(f"rules.{rule_id}"):
                    for name, text in named:
                        elapsed, found = timed(lambda: single.analyze_source(text, name))
                        spent += elapsed - parse_s[name]
                        count += len(found)
                m[f"rules.{rule_id}.ms_per_kloc"] = max(0.0, 1000 * spent / kloc)
                m[f"rules.{rule_id}.findings"] = count

        m.update(semantics_metrics(rec, named, kloc, op_id=-3))

        with rec.op(-4, "probe.sweep"):
            with rec.span("sweep.serial"):
                serial_s, _ = timed(lambda: analyzer.analyze_project(probe_dir, jobs=1))
            with rec.span("sweep.parallel"):
                parallel_s, _ = timed(
                    lambda: analyzer.analyze_project(probe_dir, jobs=self.jobs)
                )
        m["sweep.serial_s"] = serial_s
        m["sweep.parallel_s"] = parallel_s
        m["sweep.parallel_efficiency"] = serial_s / (self.jobs * parallel_s)
        m["sweep.dispatch_overhead_s"] = max(0.0, parallel_s - serial_s / self.jobs)
        for field in ("retries", "pool_restarts", "timeouts", "quarantined"):
            m[f"sweep.{field}"] = sum(getattr(s, field) for s in self.sweep_stats)

        m["check.evaluate_ms"] = 1000 * median(
            [op.stages["evaluate_s"] for op in ops if op.traced]
        )
        m["check.sarif_ms"] = 1000 * median(
            [op.stages["sarif_s"] for op in ops if op.traced]
        )

        with rec.op(-5, "probe.optimizer"):
            raw = Optimizer(report_unfixable=False)
            full = Optimizer()
            raw_s, full_s, changes, changed = [], [], 0, 0
            with rec.span("optimizer.rewrite"):
                for name, text in named:
                    elapsed, result = timed(lambda: raw.optimize_source(text, name))
                    raw_s.append(elapsed)
                    changes += len(result.changes)
                    changed += result.changed
            with rec.span("optimizer.rewrite_and_unfixable"):
                for name, text in named:
                    full_s.append(timed(lambda: full.optimize_source(text, name))[0])
        m["optimizer.ms_per_kloc"] = 1000 * sum(raw_s) / kloc
        m["optimizer.unfixable_ms_per_kloc"] = max(
            0.0, 1000 * (sum(full_s) - sum(raw_s)) / kloc
        )
        m["optimizer.changes"] = changes
        m["optimizer.changed_files_ratio"] = changed / len(named)
        m["optimizer.file_max_ms"] = 1000 * max(raw_s)
        return m


def semantics_metrics(rec, named, kloc: float, op_id: int) -> dict[str, float]:
    """Eager semantic model and per-function flow units over ``named``."""
    from repro.semantics import build_semantic_model

    model_s = flow_s = 0.0
    functions = 0
    with rec.op(op_id, "probe.semantics"):
        for name, text in named:
            tree = ast.parse(text, name)
            with rec.span("semantics.build_semantic_model"):
                start = perf_counter()
                model = build_semantic_model(tree, filename=name, eager=True)
                model_s += perf_counter() - start
            nodes = [
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            functions += len(nodes)
            with rec.span("semantics.flow_unit"):
                start = perf_counter()
                for node in nodes:
                    model.flow_unit(node)
                flow_s += perf_counter() - start
    return {
        "semantics.ms_per_kloc": 1000 * model_s / kloc,
        "semantics.flow_ms_per_kloc": 1000 * flow_s / kloc,
        "semantics.functions": functions,
    }
