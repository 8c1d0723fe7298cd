"""Child-process profile capture via the ``PEPO_TRACE`` env hook.

The paper's measurement model is single-process, but real targets (and
the sweep engine itself under ``--jobs N``) fan work out to worker
processes whose energy would otherwise vanish.  The capture protocol:

* The parent (:class:`SubprocessCapture`, usually driven by
  ``EnergyTracer(follow_subprocesses=True)``) exports ``PEPO_TRACE=1``
  plus a spool directory before spawning children and collects the
  spool when tracing stops.
* A child calls :func:`maybe_bootstrap` — a no-op unless the env hook
  is armed — which starts a thread/task-following
  :class:`~repro.profiler.tracer.EnergyTracer` and registers an
  ``atexit`` hook that writes the child's profile to
  ``<spool>/pepo-<pid>-<nonce>.result.txt``.  The sweep supervisor's
  worker initializer calls it, so ``pepo suggest --jobs N
  --self-profile`` profiles its own pool; any other spawn mechanism
  (``multiprocessing.Pool(initializer=maybe_bootstrap)``,
  ``ProcessPoolExecutor``) works the same way.
* Fork-context ``multiprocessing`` children need no cooperation at
  all: activating a capture installs a one-time
  ``multiprocessing.util.register_after_fork`` hook that calls
  :func:`maybe_bootstrap` in every forked worker, so a plain
  ``multiprocessing.Pool()`` inside the profiled project is captured
  by ``pepo profile --follow-subprocesses`` as-is.  (That hook — not
  ``os.register_at_fork`` — is the one that runs *after*
  ``Process._bootstrap`` clears ``util._finalizer_registry``; a
  tracer started any earlier would have its spool finalizer wiped.)
  The hook is env-guarded (a no-op once the capture is disarmed) and
  PID-keyed, so it is safe to leave installed for the life of the
  process.  Spawn-context children start a fresh interpreter and
  therefore still need a cooperating initializer.
* The parent parses each spool file back with
  :meth:`ProfileResult.read_result_txt` and merges it into the main
  profile with the child's ``pid`` stamped on every record.

Shipping records through the ``result.txt`` round trip (rather than
pickling raw buffers) keeps the channel format-stable and crash-safe:
a child that dies before ``atexit`` simply contributes nothing.  The
round trip persists method names, times, energies, suspect flags and
thread/task provenance; per-record source locations and exclusive
energy are parent-side conveniences that do not survive it.

Bootstrapping is guarded by PID, so a bootstrapped child that forks
grandchildren re-bootstraps them independently, and the capturing
parent itself never self-bootstraps.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from pathlib import Path
from typing import Sequence

from repro.profiler.records import ProfileResult

#: Arms the hook: children bootstrap only when this is "1".
ENV_FLAG = "PEPO_TRACE"
#: Spool directory the child writes its profile into.
ENV_DIR = "PEPO_TRACE_DIR"
#: ``os.pathsep``-joined filename prefixes the child should trace.
ENV_INCLUDE = "PEPO_TRACE_INCLUDE"
#: PID of the capturing process (which must not bootstrap itself).
ENV_PARENT = "PEPO_TRACE_PARENT"

_ENV_KEYS = (ENV_FLAG, ENV_DIR, ENV_INCLUDE, ENV_PARENT)

#: Bootstraps already performed, keyed by PID — fork copies the dict,
#: but the child's PID differs, so grandchildren bootstrap afresh.
_BOOTSTRAPPED: dict[int, "_ChildTrace"] = {}

class _ForkHookAnchor:
    """Weak-referenceable anchor for the after-fork registration.

    ``multiprocessing.util._afterfork_registry`` holds its targets
    weakly, so the module keeps one strong reference alive below.
    """


#: After-fork hooks cannot be removed, so install at most one per
#: process; the registry is inherited across fork, which is exactly
#: what lets grandchildren bootstrap too.
_FORK_HOOK_INSTALLED = False
_FORK_HOOK_ANCHOR: _ForkHookAnchor | None = None


def _bootstrap_after_fork(_anchor: _ForkHookAnchor) -> None:
    maybe_bootstrap()


def _install_fork_hook() -> None:
    """Bootstrap future fork-context multiprocessing children.

    Registered via ``multiprocessing.util.register_after_fork`` rather
    than ``os.register_at_fork``: after-forkers run in
    ``Process._bootstrap`` *after* it clears ``_finalizer_registry``,
    so the spool finalizer the bootstrap registers survives until the
    worker's exit.  ``maybe_bootstrap`` is env-guarded and idempotent
    per PID, so the hook costs one dict lookup per fork once captures
    are disarmed.
    """
    global _FORK_HOOK_INSTALLED, _FORK_HOOK_ANCHOR
    if _FORK_HOOK_INSTALLED:
        return
    try:
        from multiprocessing.util import register_after_fork
    except Exception:
        return
    _FORK_HOOK_ANCHOR = _ForkHookAnchor()
    register_after_fork(_FORK_HOOK_ANCHOR, _bootstrap_after_fork)
    _FORK_HOOK_INSTALLED = True


class _ChildTrace:
    """A bootstrapped child's tracer plus its spool destination."""

    def __init__(self, tracer, spool: Path) -> None:
        self.tracer = tracer
        self.spool = spool
        self._finalized = False

    def finalize(self) -> None:
        """Stop tracing and spool the profile; never raises.

        Runs at interpreter exit (or explicitly from tests) — a
        failure here must not turn a successful worker into a crash.
        SIGTERM is blocked for the duration and the spool is written
        to a ``.part`` name and renamed into place: ``Pool.terminate``
        can deliver SIGTERM while an exit-path finalize is mid-write,
        and dying then must not leave a truncated spool file for the
        parent to parse (or lose the profile outright).
        """
        if self._finalized:
            return
        blocked = False
        try:
            import signal

            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            blocked = True
        except Exception:
            pass
        try:
            # Claimed only once SIGTERM is blocked.  A rescue handler
            # firing before the block runs this whole method itself; one
            # firing after an earlier claim would find the profile
            # "already spooled" and kill the process before it was.
            if self._finalized:
                return
            self._finalized = True
            self.tracer.stop()
            result = self.tracer.result
            if len(result):
                nonce = os.urandom(4).hex()
                path = self.spool / f"pepo-{os.getpid()}-{nonce}.result.txt"
                part = path.with_name(path.name + ".part")
                result.write_result_txt(part)
                os.replace(part, path)
        except Exception:
            pass
        finally:
            if blocked:
                try:
                    import signal

                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
                except Exception:
                    pass


def maybe_bootstrap() -> "_ChildTrace | None":
    """Start self-profiling if (and only if) the env hook is armed.

    Safe to call unconditionally from any worker initializer: without
    ``PEPO_TRACE=1`` in the environment it returns ``None`` after one
    dict lookup.  Idempotent per process.  Never raises — a worker must
    not die because profiling could not start.
    """
    if os.environ.get(ENV_FLAG) != "1":
        return None
    spool = os.environ.get(ENV_DIR)
    if not spool:
        return None
    pid = os.getpid()
    if os.environ.get(ENV_PARENT) == str(pid):
        return None
    existing = _BOOTSTRAPPED.get(pid)
    if existing is not None:
        return existing
    try:
        from repro.profiler.tracer import EnergyTracer
        from repro.rapl.backends import default_backend

        include = tuple(
            prefix
            for prefix in os.environ.get(ENV_INCLUDE, "").split(os.pathsep)
            if prefix
        )
        tracer = EnergyTracer(
            default_backend(),
            include=include,
            follow_threads=True,
            follow_tasks=True,
            estimate_overhead=False,
        )
    except Exception:
        return None
    trace = _ChildTrace(tracer, Path(spool))
    # Before start(): the rescue's watcher thread must not be born
    # under the tracer's threading.setprofile hook, or it would be
    # profiled.  A rescue outliving a failed start finalizes nothing
    # and dies by SIGTERM, exactly as SIG_DFL would.
    _rescue_sigterm(trace)
    try:
        tracer.start()
    except Exception:
        return None
    _BOOTSTRAPPED[pid] = trace
    # multiprocessing workers skip atexit (they leave via os._exit
    # after running only multiprocessing's own finalizers), so register
    # through both channels; finalize() is idempotent.
    atexit.register(trace.finalize)
    try:
        from multiprocessing.util import Finalize

        Finalize(trace, trace.finalize, exitpriority=100)
    except Exception:
        pass
    _rescue_sigterm(trace)
    return trace


def _rescue_sigterm(trace: "_ChildTrace") -> None:
    """Spool the profile before dying of an unhandled SIGTERM.

    ``Pool.terminate()`` — which ``with Pool(...)`` runs on exit —
    SIGTERMs its workers, and the default handler kills the process
    without running any finalizer, silently losing the whole child
    profile.  Install a handler that finalizes, restores ``SIG_DFL``
    and re-raises the signal so the exit status still reports death by
    SIGTERM.  Only the default disposition is replaced: a child that
    handles SIGTERM itself keeps its handler.
    """
    try:
        import signal
        import threading

        if threading.current_thread() is not threading.main_thread():
            return
        if signal.getsignal(signal.SIGTERM) != signal.SIG_DFL:
            return

        def _finalize_and_die(signum: int, frame: object) -> None:
            trace.finalize()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _finalize_and_die)
        _watch_sigterm(_finalize_and_die)
    except Exception:
        pass


#: ``(read_fd, write_fd)`` of this process's signal wakeup pipe, while
#: :func:`_watch_sigterm` owns the wakeup fd.
_WAKEUP_PIPE: tuple[int, int] | None = None


def _watch_sigterm(handler: object) -> None:
    """Re-send a SIGTERM whose Python-level handler never got to run.

    CPython runs a Python-level handler only when the main thread next
    checks for signals.  A SIGTERM landing after that check but before
    a blocking C call interrupts nothing — and an idle ``Pool`` worker
    entering its task-queue lock, which ``Pool.terminate()`` holds for
    good, is exactly where the signal tends to land.  The handler never
    runs, the worker sleeps forever and ``Pool.terminate()`` hangs
    joining it.  The C-level handler still writes the signal number to
    the wakeup fd, so a daemon thread reading it re-sends SIGTERM to the
    main thread (whose blocking call then fails with ``EINTR`` and runs
    the handler) for as long as *handler* is installed, i.e. until the
    process is gone.  A wakeup fd someone else (an event loop) already
    owns is left alone, and the watcher stays off.
    """
    import signal
    import threading
    import time

    global _WAKEUP_PIPE
    read_fd, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    previous = signal.set_wakeup_fd(write_fd, warn_on_full_buffer=False)
    if previous != -1:
        signal.set_wakeup_fd(previous)
        os.close(read_fd)
        os.close(write_fd)
        return
    _WAKEUP_PIPE = (read_fd, write_fd)
    main = threading.main_thread().ident

    def watch() -> None:
        # Keep process-directed SIGTERMs on the main thread.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        read = os.read
        while True:
            data = read(read_fd, 64)
            if not data:
                return
            if signal.SIGTERM in data:
                break
        while signal.getsignal(signal.SIGTERM) is handler:
            signal.pthread_kill(main, signal.SIGTERM)
            time.sleep(0.05)

    threading.Thread(target=watch, name="pepo-sigterm-watch", daemon=True).start()


def _forget_wakeup_pipe() -> None:
    """Fork child: drop the wakeup pipe inherited from the parent.

    Its watcher thread did not survive the fork, and a SIGTERM written
    into the shared pipe would wake the *parent's* watcher and take the
    parent down instead.
    """
    global _WAKEUP_PIPE
    if _WAKEUP_PIPE is None:
        return
    import signal

    read_fd, write_fd = _WAKEUP_PIPE
    _WAKEUP_PIPE = None
    try:
        previous = signal.set_wakeup_fd(-1)
    except ValueError:
        return
    if previous != write_fd:
        signal.set_wakeup_fd(previous)
    os.close(read_fd)
    os.close(write_fd)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_wakeup_pipe)


class SubprocessCapture:
    """Parent-side half of the protocol: arm the env, collect the spool.

    Environment mutation is process-global, so captures must not nest;
    prior values of the hook variables are saved and restored.
    """

    def __init__(self, include: Sequence[str] = ()) -> None:
        self.include = tuple(include)
        self._spool: Path | None = None
        self._saved: dict[str, str | None] = {}

    @property
    def spool_dir(self) -> Path | None:
        return self._spool

    def activate(self) -> None:
        """Create the spool and arm the env hook for future children."""
        if self._spool is not None:
            raise RuntimeError("subprocess capture is already active")
        _install_fork_hook()
        self._spool = Path(tempfile.mkdtemp(prefix="pepo-subproc-"))
        self._saved = {key: os.environ.get(key) for key in _ENV_KEYS}
        os.environ[ENV_FLAG] = "1"
        os.environ[ENV_DIR] = str(self._spool)
        os.environ[ENV_INCLUDE] = os.pathsep.join(self.include)
        os.environ[ENV_PARENT] = str(os.getpid())

    def _restore_env(self) -> None:
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        self._saved = {}

    def deactivate(self) -> None:
        """Disarm without collecting (capture never got going)."""
        if self._spool is None:
            return
        self._restore_env()
        shutil.rmtree(self._spool, ignore_errors=True)
        self._spool = None

    def collect(self) -> list[tuple[int, ProfileResult]]:
        """Disarm the hook and parse every child profile in the spool.

        Returns ``(pid, ProfileResult)`` pairs in deterministic
        (filename-sorted) order.  Unparseable spool files are skipped:
        a child killed mid-write must not sink the parent's profile.
        """
        if self._spool is None:
            return []
        self._restore_env()
        spool, self._spool = self._spool, None
        results: list[tuple[int, ProfileResult]] = []
        for path in sorted(spool.glob("pepo-*.result.txt")):
            try:
                pid = int(path.name.split("-")[1])
                results.append((pid, ProfileResult.read_result_txt(path)))
            except (ValueError, OSError):
                continue
        shutil.rmtree(spool, ignore_errors=True)
        return results


class capture_subprocesses:
    """Context manager: capture child profiles around a block.

    ::

        with capture_subprocesses(include=(str(project_dir),)) as capture:
            run_pool_workload()
        profile = capture.result   # merged, pid-stamped

    The merged :class:`ProfileResult` is available as ``.result`` after
    the block exits (collection happens even when the block raises).
    """

    def __init__(self, include: Sequence[str] = ()) -> None:
        self._capture = SubprocessCapture(include=include)
        self.result = ProfileResult()

    def __enter__(self) -> "capture_subprocesses":
        self._capture.activate()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for pid, child_result in self._capture.collect():
            self.result.merge(child_result, pid=pid)
