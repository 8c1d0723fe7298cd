"""Command-line experiment runner: ``python -m repro.bench <target>``.

``pepo bench`` is the same command: it builds its subparser with
:func:`add_arguments` and dispatches through :func:`run`.
"""

from __future__ import annotations

import argparse
import importlib
import sys

# The table/figure modules pull in numpy via the datasets package;
# import them per-target inside run() so numpy-free targets (sweep,
# overhead, chaos) work on a bare interpreter.

#: Perf bench target -> the ``run_<target>_bench`` keyword arguments
#: its flags set.  Each ``repro.bench.<target>`` module exposes
#: ``run_<target>_bench``, ``render_<target>_bench`` and
#: ``DEFAULT_OUTPUT``; every result exposes ``to_dict()`` and
#: ``meets_target()`` (see :mod:`repro.bench.harness`).
_PERF_BENCHES = {
    "sweep": lambda args: {"project_dir": args.project, "jobs": args.jobs},
    "overhead": lambda args: {"quick": args.quick},
    "ingest": lambda args: {"records": args.records, "quick": args.quick},
    "semantics": lambda args: {
        "project_dir": args.project,
        "quick": args.quick,
    },
    "chaos": lambda args: {"jobs": args.jobs},
}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The bench flags, shared by ``python -m repro.bench`` and
    ``pepo bench``."""
    parser.add_argument(
        "target",
        choices=["table1", "table2", "table3", "table4", "figures", "sweep",
                 "overhead", "chaos", "ingest", "semantics", "all"],
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale Table IV (10k instances, 10 folds, 10 repeats) "
        "— takes many minutes",
    )
    parser.add_argument("--instances", type=int, default=None)
    parser.add_argument("--folds", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file for table4; a killed run resumes from the "
        "last completed classifier",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="table1: verify every micro-pair and print the table layout "
        "without running the energy harness (CI smoke-check)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="sweep: worker processes for the parallel configuration; "
        "chaos: worker processes for the hostile sweep",
    )
    parser.add_argument(
        "--project",
        default=None,
        help="sweep/semantics: project directory to measure (default: "
        "repro's own source tree)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="sweep/overhead/ingest/semantics/chaos: where to write the "
        "BENCH_*.json result",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="sweep: exit 1 unless parallel/cached output is identical "
        "to the reference commit's AND the cold parallel sweep "
        "beats it by the gated speedup; overhead: exit 1 unless the new "
        "runtime's per-call overhead is within the legacy tracer's (run "
        "from its pinned commit); "
        "ingest: exit 1 unless a fresh store fold's aggregates equal "
        "the pure loop's bit for bit and the fold clears the speedup "
        "target; semantics: exit 1 unless the "
        "flow-fact layer stays within its ms-per-KLoC budget; chaos: "
        "exit 1 unless every fault-tolerance criterion holds (CI smoke "
        "assertions)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sweep: also cProfile one run of each live stage and write "
        "the top-N report to BENCH_sweep_profile.txt (CI artifact)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="overhead/ingest/semantics: small corpus / fewer calls or "
        "repeats (CI smoke run)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=1_000_000,
        help="ingest: synthetic record count (default 1M; --quick uses "
        "150k regardless)",
    )


def run(args: argparse.Namespace) -> int:
    """Run the parsed bench command; 1 when a ``--check`` gate fails."""
    from repro.bench.harness import write_bench_json

    targets = (
        ["table1", "table2", "table3", "table4", "figures"]
        if args.target == "all"
        else [args.target]
    )
    import_module = importlib.import_module
    perf_benches = _PERF_BENCHES
    for target in targets:
        if target == "table1":
            from repro.bench.table1 import render_table1, run_table1

            print(render_table1(run_table1(measure=not args.dry_run)))
        elif target == "table2":
            from repro.bench.table2 import render_table2, run_table2

            print(render_table2(run_table2()))
        elif target == "table3":
            from repro.bench.table3 import render_table3, run_table3

            print(render_table3(run_table3()))
        elif target == "table4":
            from repro.bench.table4 import (
                Table4Config,
                render_table4,
                run_table4,
            )

            if args.full:
                config = Table4Config(
                    n_instances=args.instances or 10_000,
                    folds=args.folds or 10,
                    repeats=args.repeats or 10,
                )
            else:
                config = Table4Config(
                    n_instances=args.instances or 400,
                    folds=args.folds or 5,
                    repeats=args.repeats or 8,
                )
            print(render_table4(run_table4(config, checkpoint=args.checkpoint)))
        elif target == "figures":
            from repro.bench.figures import run_figures

            for name, text in run_figures().items():
                print(f"===== {name} =====")
                print(text)
        else:
            module = import_module(f"repro.bench.{target}")
            result = getattr(module, f"run_{target}_bench")(
                **perf_benches[target](args)
            )
            print(getattr(module, f"render_{target}_bench")(result))
            output = write_bench_json(
                result, args.output or module.DEFAULT_OUTPUT
            )
            if target == "chaos":
                module.write_quarantine_report(result, output)
            print(f"wrote {output}")
            if target == "sweep" and args.profile:
                report = module.profile_sweep_bench(
                    project_dir=args.project, jobs=args.jobs
                )
                print(f"wrote {module.write_sweep_profile(report)}")
            if args.check and not result.meets_target():
                return 1
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
