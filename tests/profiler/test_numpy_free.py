"""The profiler never imports numpy, even where numpy is installed.

The profiler, the sweep workers and the subprocess bootstrap run on
bare interpreters, so the measurement path has one pure-Python
implementation.  A fresh interpreter traces a threaded callable in
follow mode, aggregates, writes and reads ``result.txt``, and must
finish without numpy in ``sys.modules``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_follow_mode_profile_round_trip_imports_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
