"""``profile-history``: ``pepo profile`` runs folded into the run store.

Each op profiles a seeded generated project with ``PEPO.profile_project``,
alternating the default probe path and ``follow_threads=True``, ingests
the ``result.txt`` it wrote with ``RunStore.ingest_path``, runs the
store queries behind ``pepo dashboard`` and renders the dashboard and
the Fig. 4 profiler view.  Only ``rapl``, ``profiler``, ``store`` and
``views`` run; analysis is not used at all.  Set-up ingests a seeded
history of earlier runs; the store then keeps every op's run, so its
working set grows over the run.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from pepobench import inputs
from pepobench.summary import median, tail
from pepobench.workload import OpResult, Workload

#: Function activations per profiled run.
TARGET_CALLS = 4000
#: Earlier runs ingested into the store during set-up.  With a history
#: the store's size, and so the query time, moves little with how many
#: ops a run manages to do.
HISTORY = 24
#: Store queries timed per op, as (span name, stage key).
QUERIES = (
    ("store.top_methods", "top_methods_s"),
    ("store.context_totals", "context_totals_s"),
    ("store.method_trend_matrix", "trend_s"),
    ("store.outlier_runs", "outliers_s"),
    ("store.drift_flags", "drift_s"),
)
#: Repeats of each micro-probe in the traced run.
SNAPSHOTS = 2000
PROBE_REPEATS = 3


class ProfileHistory(Workload):
    name = "profile-history"
    items = 2  # the probe path and the thread-following path
    detail_units = {
        "profile_us_per_call": "us",
        "ingest_rows_per_s": "1/s",
        "report_p50_ms": "ms",
    }

    @property
    def project(self) -> Path:
        return self.workdir / "proj"

    @property
    def history(self) -> Path:
        return self.workdir / "history"

    def prepare(self) -> dict:
        self.generated = inputs.generate_callgraph(self.seed, TARGET_CALLS)
        self.project.mkdir(parents=True, exist_ok=True)
        (self.project / "main.py").write_text(self.generated.source)
        self.history.mkdir()
        runs = [
            inputs.history_result_txt(self.generated, self.seed, run, HISTORY)
            for run in range(HISTORY)
        ]
        for run, text in enumerate(runs):
            (self.history / f"run-{run:03d}.result.txt").write_text(text)
        return {
            "sha256": inputs.digest_texts(
                [("main.py", self.generated.source)]
                + [(f"run-{run:03d}", text) for run, text in enumerate(runs)]
            ),
            "files": 1 + HISTORY,
            "kloc": inputs.count_loc(self.generated.source) / 1000.0,
            "calls": self.generated.calls,
        }

    def setup(self, state_dir: Path) -> None:
        from repro.core.pepo import PEPO
        from repro.rapl.backends import default_backend
        from repro.store import RunStore
        from repro.views.dashboard import render_dashboard

        self._render_dashboard = render_dashboard
        # The simulated backend on the real clock is what ``pepo profile``
        # uses without readable RAPL counters; naming it keeps results
        # comparable between hosts that differ only in powercap access.
        self.pepo = PEPO(backend=default_backend(prefer_live=False))
        self.store = RunStore(state_dir / "store")
        self.store.ingest_path(self.history)
        self.records: list[dict] = []

    def op(self, index: int, item: int, rec) -> OpResult:
        follow = item % 2 == 1
        stages: dict = {"follow": follow}
        t0 = perf_counter()
        with rec.span("profiler.profile_project"):
            result = self.pepo.profile_project(self.project, follow_threads=follow)
        t1 = perf_counter()
        with rec.span("store.ingest_path"):
            (info,) = self.store.ingest_path(self.project / "result.txt")
        t2 = perf_counter()
        for span_name, key in QUERIES:
            start = perf_counter()
            with rec.span(span_name):
                getattr(self.store, span_name.split(".")[1])()
            stages[key] = perf_counter() - start
        start = perf_counter()
        with rec.span("views.render_dashboard"):
            self._render_dashboard(self.store)
        stages["dashboard_s"] = perf_counter() - start
        start = perf_counter()
        with rec.span("views.profiler_view"):
            self.pepo.profiler_view(result)
        t3 = perf_counter()
        stages["profiler_view_s"] = t3 - start
        stages.update(profile_s=t1 - t0, ingest_s=t2 - t1, report_s=t3 - t2)
        self.records.append(_oracle_facts(index, follow, result, info))
        self.last_result = result
        return OpResult(index=index, item=int(follow), wall_s=t3 - t0, stages=stages)

    def verify(self, ops: list[OpResult]) -> dict[int, str]:
        failed: dict[int, str] = {}
        for facts in self.records:
            want = self.generated.calls + (1 if facts["follow"] else 0)
            if facts["records"] != want:
                failed[facts["index"]] = f"{facts['records']} records, expected {want}"
            elif facts["conservation_error"]:
                failed[facts["index"]] = facts["conservation_error"]
            elif facts["store_rows"] != facts["records"]:
                failed[facts["index"]] = "store row count differs from the profile"
            elif abs(facts["store_joules"] - facts["joules"]) > facts["tolerance"]:
                failed[facts["index"]] = "store energy total differs from the profile"
        return failed

    def detail_metrics(self, ops: list[OpResult]) -> dict[str, float]:
        calls = sum(r["records"] for r in self.records)
        rows = sum(r["store_rows"] for r in self.records)
        return {
            "profile_us_per_call": 1e6 * sum(op.stages["profile_s"] for op in ops) / calls,
            "ingest_rows_per_s": rows / sum(op.stages["ingest_s"] for op in ops),
            "report_p50_ms": 1000 * median([op.stages["report_s"] for op in ops]),
        }

    # -- traced run -----------------------------------------------------

    def layer_metrics(self, rec, ops: list[OpResult]) -> dict[str, float]:
        import runpy

        from repro.profiler import EnergyTracer, ProfileResult, SourceInstrumenter

        traced = [op for op in ops if op.traced]
        backend = self.pepo.backend
        m: dict[str, float] = {}

        def ms(key):
            return 1000 * median([op.stages[key] for op in traced])

        with rec.op(-1, "probe.rapl"):
            with rec.span("rapl.snapshot"):
                start = perf_counter()
                snaps = [backend.snapshot() for _ in range(SNAPSHOTS)]
                snapshot_s = perf_counter() - start
            with rec.span("rapl.delta"):
                start = perf_counter()
                for earlier, later in zip(snaps, snaps[1:]):
                    later.delta(earlier)
                delta_s = perf_counter() - start
        m["rapl.snapshot_us"] = 1e6 * snapshot_s / SNAPSHOTS
        m["rapl.delta_us"] = 1e6 * delta_s / (SNAPSHOTS - 1)

        main = self.project / "main.py"
        source = main.read_text()
        instrument, stops = [], []
        with rec.op(-2, "probe.profiler"):
            instrumenter = SourceInstrumenter(backend)
            for _ in range(PROBE_REPEATS):
                start = perf_counter()
                with rec.span("profiler.instrument_source"):
                    instrumenter.instrument_source(source, "__main__", str(main))
                instrument.append(perf_counter() - start)
            for _ in range(2):
                tracer = EnergyTracer(
                    backend, include=[str(self.project.resolve())], follow_threads=True
                )
                tracer.start()
                runpy.run_path(str(main.resolve()), run_name="__main__")
                start = perf_counter()
                with rec.span("profiler.tracer_stop"):
                    tracer.stop()
                stops.append(perf_counter() - start)
        m["profiler.instrument_ms"] = 1000 * median(instrument)
        m["profiler.probe_run_s"] = median(
            [op.stages["profile_s"] for op in traced if not op.stages["follow"]]
        )
        m["profiler.traced_run_s"] = median(
            [op.stages["profile_s"] for op in traced if op.stages["follow"]]
        )
        m["profiler.tracer_stop_ms"] = 1000 * median(stops)
        m["profiler.records"] = median([r["records"] for r in self.records])
        m["profiler.dropped"] = sum(r["dropped"] for r in self.records)

        result_txt = self.workdir / "probe-result.txt"
        writes, reads, aggregates = [], [], []
        with rec.op(-3, "probe.result_txt"):
            for _ in range(PROBE_REPEATS):
                start = perf_counter()
                with rec.span("profiler.write_result_txt"):
                    self.last_result.write_result_txt(result_txt)
                writes.append(perf_counter() - start)
                start = perf_counter()
                with rec.span("profiler.read_result_txt"):
                    parsed = ProfileResult.read_result_txt(result_txt)
                reads.append(perf_counter() - start)
                start = perf_counter()
                with rec.span("profiler.aggregate"):
                    parsed.aggregate()
                aggregates.append(perf_counter() - start)
        m["profiler.write_result_ms"] = 1000 * median(writes)
        m["profiler.read_result_ms"] = 1000 * median(reads)
        m["profiler.aggregate_ms"] = 1000 * median(aggregates)

        traced_ids = {op.index for op in traced}
        rows = sum(r["store_rows"] for r in self.records if r["index"] in traced_ids)
        m["store.ingest_rows_per_s"] = rows / sum(op.stages["ingest_s"] for op in traced)
        m["store.segment_bytes"] = sum(
            p.stat().st_size for p in self.store.segments_dir.glob("*.npz")
        )
        m["store.runs"] = len(self.store.runs())
        m["store.top_methods_ms"] = ms("top_methods_s")
        m["store.context_totals_ms"] = ms("context_totals_s")
        m["store.trend_ms"] = ms("trend_s")
        m["store.outliers_ms"] = ms("outliers_s")
        m["store.drift_ms"] = ms("drift_s")
        m["store.report_tail_ms"] = 1000 * tail([op.stages["report_s"] for op in traced])[1]
        m["views.dashboard_ms"] = ms("dashboard_s")
        m["views.profiler_view_ms"] = ms("profiler_view_s")
        return m


def _oracle_facts(index: int, follow: bool, result, info) -> dict:
    """What the oracle needs from one op, taken before the next op runs.

    Conservation: with ``follow_threads`` the per-record exclusive
    energy plus the unattributed slice must equal the timeline total;
    the probe path has no unattributed slice, so the exclusive energy
    must equal the inclusive energy of ``main``, the only root.
    """
    from repro.rapl.domains import Domain

    exclusive = {
        dom: sum(r.exclusive_joules.get(dom, 0.0) for r in result) for dom in Domain
    }
    if follow:
        expected = {
            dom: result.timeline_joules.get(dom, 0.0)
            - result.unattributed_joules.get(dom, 0.0)
            for dom in Domain
        }
    else:
        roots = [r for r in result if r.method == "__main__.main"]
        expected = {
            dom: sum(r.joules.get(dom, 0.0) for r in roots) for dom in Domain
        }
    error = ""
    for dom in Domain:
        if abs(exclusive[dom] - expected[dom]) > 1e-9 * max(1.0, abs(expected[dom])):
            error = f"{dom.name}: exclusive {exclusive[dom]!r} != {expected[dom]!r}"
            break
    joules = sum(r.package_joules for r in result)
    return {
        "index": index,
        "follow": follow,
        "records": len(result),
        "dropped": result.dropped_events,
        "conservation_error": error,
        "store_rows": info.rows,
        "store_joules": info.total_package_joules,
        "joules": joules,
        # result.txt keeps 9 decimals: at most 5e-10 J rounding per row.
        "tolerance": 5e-10 * len(result) + 1e-9,
    }
