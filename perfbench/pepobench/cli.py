"""Command line and closed-loop harness.

One client, one op in flight: the next op starts when the previous one
returns.  The untraced run (``--trace 0``) reports the end-to-end
metrics; the traced run (``--trace 1``) alternates traced and untraced
ops, reports each layer's metrics and the tracing overhead, and writes
the spans next to the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

from pepobench import metrics
from pepobench.spans import SpanRecorder, reconcile, stage_shares
from pepobench.summary import comparable, machine_fingerprint, median, tail
from pepobench.workload import OpResult

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: A run never does fewer ops than this, so the reported tail percentile
#: has ten samples beyond it.
MIN_OPS = 11
#: Seconds a set-up probe may take before it is killed and the run fails.
SETUP_TIMEOUT = 120


def workload_classes() -> dict:
    from pepobench.cold_project import ColdProject
    from pepobench.edit_loop import EditLoop
    from pepobench.profile_history import ProfileHistory

    return {cls.name: cls for cls in (ColdProject, EditLoop, ProfileHistory)}


def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


def attach_program(root: Path) -> None:
    """Put the checkout's ``src`` on the import path of this process and
    of every process it starts; refuse to run without it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no PEPO sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    paths = [str(src), str(root / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def jobs() -> int:
    from repro.sweep import clamp_jobs

    return clamp_jobs(2)


def time_setup(workload: str, seed: int, workdir: Path, state: Path) -> float:
    """Seconds from starting a fresh interpreter to its first op being
    ready: imports, construction and any cache fill, inputs excluded."""
    command = [
        sys.executable,
        str(repo_root() / "perfbench" / "run.py"),
        "--setup-probe",
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--state", str(state),
    ]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        # A stuck probe is killed, so a run can never hang here.
        watchdog = threading.Timer(SETUP_TIMEOUT, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def setup_probe(args) -> int:
    cls = workload_classes()[args.workload]
    workload = cls(args.seed, Path(args.workdir), jobs())
    workload.setup(Path(args.state))
    print("ready", flush=True)
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def closed_loop(workload, seconds: float, trace: bool) -> tuple[list[OpResult], SpanRecorder]:
    """Run ops back to back for ``seconds``, and at least until every
    input item has run once and ``MIN_OPS`` ops are done.

    In the traced run ops ``2k`` and ``2k + 1`` get the same input item
    and exactly one of them is traced, the first in even pairs and the
    second in odd ones, so the two halves measure the same work with and
    without spans and neither always runs first.
    """
    traced_rec = SpanRecorder(enabled=True)
    quiet = SpanRecorder(enabled=False)
    ops: list[OpResult] = []
    minimum = max(MIN_OPS, workload.items) * (2 if trace else 1)
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline or len(ops) < minimum:
        traced = trace and index % 2 == (index // 2) % 2
        rec = traced_rec if traced else quiet
        item = index // 2 if trace else index
        start = perf_counter()
        try:
            with rec.op(index, workload.name):
                op = workload.op(index, item, rec)
        except Exception:  # an op that raises is a failed op, not a crash
            op = OpResult(index=index, wall_s=perf_counter() - start,
                          error=traceback.format_exc())
        op.traced = traced
        ops.append(op)
        index += 1
    return ops, traced_rec


def run(args, out_dir: Path | None = None) -> dict:
    """One benchmark run; returns the object printed as the last line.

    Inputs and state live in a scratch directory under ``out_dir``
    (default ``.bench_build/perfbench`` in the checkout) that is removed
    at the end; results and spans stay in ``out_dir/results``.
    """
    root = repo_root()
    out_dir = out_dir or root / ".bench_build" / "perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    cls = workload_classes()[args.workload]
    workload = cls(args.seed, workdir, jobs())
    # Temporary files (SQLite's among them) of this process and its
    # children stay inside the checkout too, for the length of the run.
    saved_tmp = os.environ.get("TMPDIR"), tempfile.tempdir
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    try:
        input_fp = workload.prepare()
        workload.setup(workdir / "state")
        ops, rec = closed_loop(workload, args.seconds, bool(args.trace))
        # Children's peak RSS only grows, so this is read before the
        # set-up probes and the oracle start: it covers this process's
        # set-up and ops and the sweep workers they started, nothing else.
        peak_rss = peak_rss_mb()
        # The probes set up on a fresh copy of the inputs, since ops may
        # have edited the measured one.
        probe_inputs = workdir / "probe-inputs"
        cls(args.seed, probe_inputs, workload.jobs).prepare()
        setup_samples = [
            time_setup(args.workload, args.seed, probe_inputs, workdir / f"setup-{k}")
            for k in range(SETUP_REPEATS)
        ]
        ok_ops = [op for op in ops if op.error is None]
        failures = {op.index: op.error for op in ops if op.error is not None}
        failures.update(workload.verify(ok_ops))
        report = {
            "fingerprint": {
                **machine_fingerprint(),
                "workload": args.workload,
                "seed": args.seed,
                "jobs": workload.jobs,
                **{f"inputs_{k}": v for k, v in input_fp.items()},
            },
            "attempted": len(ops),
            "failed": len(failures),
            "error_rate": len(failures) / len(ops),
            "failures": {str(k): v.splitlines()[-1] for k, v in sorted(failures.items())},
            "setup_samples_s": setup_samples,
            # [op index, input item, wall ms, traced] per op, in order.
            "ops": [
                [op.index, op.item, op.wall_s * 1000, int(op.traced)] for op in ops
            ],
        }
        measured = [op for op in ok_ops if not op.traced]
        walls = [op.wall_s * 1000 for op in measured]
        pct, tail_ms, samples = tail(walls)
        by_item: dict[int, list[float]] = {}
        for op in measured:
            by_item.setdefault(op.item, []).append(op.wall_s * 1000)
        end_to_end = {
            "setup_s": median(setup_samples),
            "peak_rss_mb": peak_rss,
            "round_s": sum(median(v) for v in by_item.values()) / 1000,
        }
        report["op"] = {
            "p50_ms": median(walls),
            "tail_ms": tail_ms,
            "tail_percentile": pct,
            "samples": samples,
            "items": len(by_item),
        }
        report["end_to_end"] = end_to_end
        report["detail"] = workload.detail_metrics(measured)
        correct = not failures
        if args.trace:
            layers = workload.layer_metrics(rec, ok_ops)
            traced = [op.wall_s for op in ok_ops if op.traced]
            layers["trace.overhead_ratio"] = median(traced) / median(
                [op.wall_s for op in measured]
            )
            per_op = reconcile(rec.spans)
            spans_path = results_dir / f"{args.workload}-seed{args.seed}.spans.json"
            rec.write(spans_path)
            report["spans"] = os.path.relpath(spans_path, root)
            report["reconciliation"] = per_op
            report["stage_shares"] = stage_shares(per_op)
            report["per_layer"] = layers
            unbalanced = [entry["op_id"] for entry in per_op if not entry["balanced"]]
            if unbalanced:
                report["unbalanced_ops"] = unbalanced
                correct = False
            shown = {
                name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                for name, (unit, _better) in metrics.PER_LAYER.items()
            }
        else:
            shown = {
                name: {"value": float(end_to_end[name]), "unit": unit}
                for name, (unit, _better, _bound) in metrics.END_TO_END.items()
            }
        result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(report, indent=1, default=str))
        _print_human(report, workload, os.path.relpath(result_path, root))
        return {
            "correct": correct,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": shown,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_tmp[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmp[0]
        tempfile.tempdir = saved_tmp[1]


def _print_human(report: dict, workload, result_path: str) -> None:
    fp = report["fingerprint"]
    print(
        f"# {fp['workload']} seed={fp['seed']} jobs={fp['jobs']} "
        f"python={fp['python']} cpus={fp['available_cpus']} "
        f"inputs={fp['inputs_files']} files / {fp['inputs_kloc']:.1f} KLoC "
        f"sha256={fp['inputs_sha256'][:12]}"
    )
    print(
        f"error_rate {report['error_rate']:.4f} "
        f"({report['failed']}/{report['attempted']} ops)"
    )
    for index, reason in report["failures"].items():
        print(f"  failed op {index}: {reason}")
    for name, value in report["end_to_end"].items():
        print(f"{name} {value:.6g} {metrics.END_TO_END[name][0]}")
    op = report["op"]
    print(f"  (one round = one op on each of {op['items']} input items)")
    print(f"op_p50_ms {op['p50_ms']:.6g} ms")
    print(
        f"op_tail_ms {op['tail_ms']:.6g} ms "
        f"(p{op['tail_percentile']:.1f} of {op['samples']} ops)"
    )
    for name, value in report["detail"].items():
        unit = workload.detail_units.get(name, "")
        print(f"{name} {value:.6g} {unit}".rstrip())
    if "per_layer" in report:
        for name, value in sorted(report["per_layer"].items()):
            print(f"{name} {value:.6g} {metrics.PER_LAYER[name][0]}")
        for name, share in report["stage_shares"].items():
            print(f"  share of op time: {name} {100 * share:.1f}%")
        print(f"spans: {report['spans']}")
    print(f"results: {result_path}")


def compare(paths: list[str]) -> int:
    """Print metric ratios between two result files; refuse when their
    fingerprints differ."""
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    differing = comparable(a, b)
    if differing:
        print(f"refusing to compare: fingerprints differ in {', '.join(differing)}")
        return 1
    for section in ("end_to_end", "detail", "per_layer"):
        for name, old in a.get(section, {}).items():
            new = b.get(section, {}).get(name)
            if new is None:
                continue
            ratio = new / old if old else float("nan")
            print(f"{section}.{name} {old:.6g} -> {new:.6g} ({ratio:.3f}x)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Seeded PEPO benchmark."
    )
    parser.add_argument("--workload", choices=sorted(workload_classes()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--compare", nargs=2, metavar="RESULT_JSON",
        help="compare two result files instead of running",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    attach_program(repo_root())
    if args.setup_probe:
        return setup_probe(args)
    outcome = run(args)
    print(json.dumps(outcome))
    return 0
