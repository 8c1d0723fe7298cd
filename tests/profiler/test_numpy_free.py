"""The profiler and the analyzer never import numpy, even where it is
installed.

The profiler, the sweep workers and the subprocess bootstrap run on
bare interpreters, so the measurement path has one pure-Python
implementation.  Each case runs in a fresh interpreter and must finish
without numpy in ``sys.modules``: one traces a threaded callable in
follow mode, aggregates, writes and reads ``result.txt``; the other
analyzes a Table I snippet and runs ``python -m repro compare`` on two
``result.txt`` files.  The Table I dry run is checked on an interpreter
where numpy cannot be imported at all, against its own output where it
can.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    import threading
    from pathlib import Path

    from repro.profiler.records import ProfileResult
    from repro.profiler.tracer import EnergyTracer

    def leaf_traced(n):
        return sum(range(n))

    def work_traced():
        thread = threading.Thread(target=leaf_traced, args=(5000,))
        thread.start()
        thread.join()
        return leaf_traced(5000)

    tracer = EnergyTracer(
        predicate=lambda name: name.endswith("_traced"),
        follow_threads=True,
    )
    with tracer:
        work_traced()
    result = tracer.result
    assert len(result) == 3, list(result)
    assert result.aggregate() and result.aggregate(by_context=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = result.write_result_txt(Path(tmp) / "result.txt")
        assert len(ProfileResult.read_result_txt(path)) == 3
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
    print(loaded[:3])
    sys.exit(1 if "numpy" in sys.modules else 0)
    """
)


ANALYZE_AND_COMPARE = textwrap.dedent(
    """
    import runpy
    import sys
    import tempfile
    from pathlib import Path

    from repro.analyzer import Analyzer
    from repro.profiler.records import MethodRecord, ProfileResult
    from repro.rapl.domains import Domain

    SNIPPET = (
        "def join(n):\\n"
        "    s = ''\\n"
        "    for i in range(n):\\n"
        "        s += str(i)\\n"
        "    return s\\n"
    )
    rule_ids = {f.rule_id for f in Analyzer().analyze_source(SNIPPET)}
    assert "R08_STR_CONCAT" in rule_ids, rule_ids

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, joules in enumerate((2.0, 1.0)):
            result = ProfileResult()
            result.add(
                MethodRecord(
                    method="app.join",
                    filename="app.py",
                    lineno=1,
                    call_index=0,
                    wall_seconds=0.1,
                    cpu_seconds=0.1,
                    joules={Domain.PACKAGE: joules},
                    exclusive_joules={},
                )
            )
            paths.append(str(result.write_result_txt(Path(tmp) / f"{i}.txt")))
        sys.argv = ["pepo", "compare", *paths]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert not exit.code, exit.code
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
    print(loaded[:3])
    sys.exit(1 if "numpy" in sys.modules else 0)
    """
)


TABLE1_DRY_RUN = textwrap.dedent(
    """
    import runpy
    import sys

    if sys.argv[1:] == ["--block-numpy"]:

        class NoNumpy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "numpy":
                    raise ModuleNotFoundError(
                        f"No module named {name!r}", name=name
                    )

        sys.meta_path.insert(0, NoNumpy())
    sys.argv = ["repro.bench", "table1", "--dry-run"]
    try:
        runpy.run_module("repro.bench", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert not exit.code, exit.code
    if sys.argv[1:] == ["--block-numpy"]:
        sys.exit(1 if "numpy" in sys.modules else 0)
    """
)


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_follow_mode_profile_round_trip_imports_no_numpy():
    proc = _run_fresh(SCRIPT)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


def test_analyzer_and_compare_import_no_numpy():
    proc = _run_fresh(ANALYZE_AND_COMPARE)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert "app.join" in proc.stdout


def test_table1_dry_run_needs_no_numpy():
    blocked = _run_fresh(TABLE1_DRY_RUN, "--block-numpy")
    assert blocked.returncode == 0, (blocked.stdout, blocked.stderr)
    assert "Table I" in blocked.stdout
    # The pairs whose forms use numpy are named, not silently passed.
    for rule_id in ("R03_BOXING", "R11_TRAVERSAL"):
        assert f"{rule_id} not verified" in blocked.stderr


def test_table1_dry_run_prints_the_same_table_without_numpy():
    pytest.importorskip("numpy")  # the run it is compared against
    full = _run_fresh(TABLE1_DRY_RUN)
    assert full.returncode == 0, (full.stdout, full.stderr)
    assert "not verified" not in full.stderr
    blocked = _run_fresh(TABLE1_DRY_RUN, "--block-numpy")
    assert blocked.stdout == full.stdout
