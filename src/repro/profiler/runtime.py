"""Low-overhead profiling runtimes for the energy tracer.

Three cooperating pieces keep the per-event cost of whole-program
profiling as small as the interpreter allows:

* :class:`CodeFilter` — the include/exclude/predicate/comprehension
  decision is computed **once per code object** and memoized, replacing
  the per-event filename-prefix scans of the original tracer.  The
  verdict is interned as an index into a metadata table so the hot path
  handles small ints, not strings.
* :class:`SetprofileRuntime` — an optimized ``sys.setprofile`` hook
  that, per event, does only: a memo lookup, one backend reading, and
  one tuple append.  All record construction is deferred.
* :class:`MonitoringRuntime` — a ``sys.monitoring`` (PEP 669) backend
  for Python ≥ 3.12.  It registers only function-boundary events
  (``PY_START``/``PY_RESUME``/``PY_THROW``/``PY_RETURN``/``PY_YIELD``/
  ``PY_UNWIND``) and returns :data:`sys.monitoring.DISABLE` from the
  first event of every non-traced code object, so the interpreter
  permanently stops delivering events for code outside the profiled
  scope — including the ``c_call``/``c_return`` storm that taxes
  C-call-heavy loops under ``sys.setprofile``.

Both runtimes record **deferred events**: flat tuples of raw counter
reads pushed onto an append-only buffer.  No :class:`MethodRecord`, no
dict of joules, no unit conversion happens inside the measured region;
the buffers are replayed in a single pass at ``stop()`` (see
:class:`repro.profiler.tracer.EnergyTracer`), and the replay builds
its records through one :class:`_RecordBuilder` — as does the eager
call recorder behind AST probes and injected wrappers
(:class:`repro.profiler.probes.ProbeRuntime`).

Event buffer format: ``(op, meta_index, ok, payload, task)`` where
``op`` is :data:`OP_OPEN` or :data:`OP_CLOSE`, ``meta_index`` indexes
the filter's metadata table (-1 for close events, which pair LIFO),
``ok`` is False when the backend read failed, ``payload`` is either a
raw counter tuple (backends with ``snapshot_raw``) or a full
:class:`~repro.rapl.backends.EnergySnapshot`, and ``task`` indexes the
runtime's interned asyncio Task table (-1 outside any task, and on
every close event).

Each runtime has **one** set of event handlers, and they always write
into the calling thread's :class:`_ThreadState` — its buffer, open-call
stack and last good reading.  ``follow_threads`` only decides which
threads get a state.  Guarded mode (the default) gives one to the
owner thread alone and counts every other thread's events as dropped.
Follow mode gives one to each thread on its first event — no locks on
the hot path, because a buffer is only ever appended to by its own
thread and only read after every hook is uninstalled.

Both modes replay through one function, :func:`materialize_concurrent`.
It merges the per-thread buffers into one chronological sequence over
the shared monotonic energy timeline and attributes each inter-reading
slice to the thread that produced the later reading (under the GIL,
energy between two consecutive event readings was overwhelmingly
consumed by the thread that reached the second one).  With one buffer
— guarded mode, or a follow-mode run whose other threads never called
traced code — the foreign-energy correction subtracts running sums
that are float-identical, so it is exactly zero and each record is the
plain start/end delta of its call.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Sequence

from repro.profiler.records import MethodRecord
from repro.rapl.backends import EnergySnapshot

#: Event opcodes: a call/resume entered the measured scope…
OP_OPEN = 0
#: …or a return/yield/unwind left it.
OP_CLOSE = 1

_COMPREHENSION_NAMES = frozenset(
    {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}
)

#: Snapshot used when an event has no usable reading at all (the very
#: first backend read failed).  Zero-valued, so the resulting delta is
#: the end snapshot's cumulative value, and the record is marked
#: suspect via its ``ok`` flag.
_ZERO_SNAPSHOT = EnergySnapshot(joules={}, wall_seconds=0.0, cpu_seconds=0.0)


class CodeFilter:
    """Memoized per-code-object trace decision.

    The decision (and the paper-style ``module.qualname`` label) for a
    code object cannot change within a profiling session, so it is
    computed on first encounter and cached under ``id(code)``.  A strong
    reference to every classified code object is kept for the filter's
    lifetime so the id can never be recycled.

    Comprehension and generator-expression frames are never traced on
    their own: each would surface as one record per element, swamping
    the profile and the run time, and their energy lands in the
    enclosing function's record anyway.  On Python ≥ 3.12 list, dict
    and set comprehensions are inlined (PEP 709) and have no frame of
    their own, so only generator expressions are skipped there.

    The memo maps ``id(code)`` to an index into :attr:`metadata`
    (``(method, filename, lineno)`` tuples) or to -1 for code that must
    not be traced.

    One deliberate approximation: the module name is taken from the
    globals of the *first* frame seen for a code object.  Executing the
    same code object under a second module namespace (``exec`` tricks)
    would reuse the first label — irrelevant in practice and a fair
    trade for removing per-event string work.
    """

    __slots__ = (
        "_include",
        "_exclude",
        "_predicate",
        "memo",
        "metadata",
        "_pinned",
        "_lock",
    )

    def __init__(
        self,
        include: Sequence[str] = (),
        exclude: Sequence[str] = (),
        predicate: Callable[[str], bool] | None = None,
    ) -> None:
        self._include = tuple(include)
        self._exclude = tuple(exclude)
        self._predicate = predicate
        self.memo: dict[int, int] = {}
        self.metadata: list[tuple[str, str, int]] = []
        self._pinned: list[CodeType] = []
        self._lock = threading.Lock()

    def classify(self, code: CodeType, globals_: dict) -> int:
        """Memoize and return the verdict for one code object.

        Serialized: with per-thread hooks two threads can miss the memo
        for the same (or different) code objects concurrently, and the
        metadata append + ``len()`` index computation must not
        interleave.  Only this cold path locks — hooks consult the memo
        directly first, so the steady state stays lock-free.
        """
        with self._lock:
            index = self.memo.get(id(code))
            if index is None:
                index = self._decide(code, globals_)
                self.memo[id(code)] = index
                self._pinned.append(code)
        return index

    def _decide(self, code: CodeType, globals_: dict) -> int:
        if code.co_name in _COMPREHENSION_NAMES:
            return -1
        filename = code.co_filename
        for prefix in self._exclude:
            if filename.startswith(prefix):
                return -1
        if self._include and not any(
            filename.startswith(prefix) for prefix in self._include
        ):
            return -1
        qualname = getattr(code, "co_qualname", code.co_name)
        method = f"{globals_.get('__name__', '?')}.{qualname}"
        if self._predicate is not None and not self._predicate(method):
            return -1
        self.metadata.append((method, filename, code.co_firstlineno))
        return len(self.metadata) - 1


class _ThreadState:
    """One thread's deferred-event buffer and open-call stack.

    Every hook event lands in the calling thread's state; the two modes
    differ only in which threads get one.  Guarded mode
    (``follow_threads=False``) registers the owner alone and counts
    other threads' events as dropped; follow mode registers each thread
    on its first event.  A state is only ever mutated by its own thread
    and only read after every hook is uninstalled, so the hot path stays
    lock-free.  ``opens`` is the open-call pairing stack (frame ids
    under settrace, metadata indices under monitoring) and
    ``last_payload`` the last good reading, which stands in for a failed
    one.

    Keyed by the :class:`threading.Thread` *object* (pinned here), not
    the OS ident: idents are recycled as soon as a thread exits, and a
    pool that churns threads would otherwise conflate distinct threads
    into one state.  ``is_owner`` is decided at registration — the
    owner thread outlives the session, so its ident cannot have been
    recycled onto another live thread.
    """

    __slots__ = (
        "thread",
        "ident",
        "name",
        "is_owner",
        "buffer",
        "opens",
        "last_payload",
        "events",
    )

    def __init__(self, thread: threading.Thread, is_owner: bool) -> None:
        self.thread = thread
        self.ident = thread.ident or 0
        self.name = thread.name
        self.is_owner = is_owner
        self.buffer: list[tuple] = []
        self.opens: list[int] = []
        self.last_payload: object | None = None
        self.events = 0


class _RuntimeBase:
    """State shared by both hook implementations.

    ``snap`` is the backend reading callable (``snapshot_raw`` when the
    backend supports deferred conversion, ``snapshot`` otherwise); it is
    bound once so the hook pays no attribute lookup per event.

    The runtime is built on the owner thread, whose state is registered
    here in both modes (:attr:`owner_state`).  ``follow_threads`` gives
    every other thread a state of its own instead of counting its
    events as dropped; ``current_task`` (when not None, e.g.
    ``asyncio.current_task``) is called at every OPEN to attribute the
    span to the owning asyncio Task.
    """

    name = "?"

    def __init__(
        self,
        code_filter: CodeFilter,
        snap: Callable[[], object],
        owner: int,
        follow_threads: bool = False,
        current_task: Callable[[], object] | None = None,
    ) -> None:
        self._filter = code_filter
        self._snap = snap
        self._owner = owner
        self._follow = follow_threads
        self._current_task = current_task
        # Per-thread buffers, keyed by id(Thread object) — see
        # _ThreadState on why not the (recyclable) OS ident.
        self._threads: dict[int, _ThreadState] = {}
        # Interned asyncio Task table: names + strong refs so ids are
        # stable for the session (same discipline as CodeFilter).
        self.task_names: list[str] = []
        self._task_memo: dict[int, int] = {}
        self._task_pinned: list[object] = []
        self._task_lock = threading.Lock()
        # Cross-thread events discarded in guarded mode — the signal
        # for silently-vanishing concurrent energy, surfaced on the
        # result.
        self.dropped_events = 0
        self.dropped_thread_idents: set[int] = set()
        self.owner_state = self._register_thread(threading.current_thread())

    def install(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def uninstall(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _register_thread(self, thread: threading.Thread) -> _ThreadState:
        state = _ThreadState(thread, is_owner=thread.ident == self._owner)
        self._threads[id(thread)] = state
        return state

    def _task_index(self) -> int:
        """Intern the current asyncio Task; -1 outside any task/loop."""
        try:
            task = self._current_task()
        except RuntimeError:
            return -1
        if task is None:
            return -1
        index = self._task_memo.get(id(task))
        if index is None:
            # Event loops on several threads can intern concurrently;
            # only the first sight of a task pays the lock.
            with self._task_lock:
                index = self._task_memo.get(id(task))
                if index is None:
                    index = len(self.task_names)
                    self.task_names.append(str(task.get_name()))
                    self._task_pinned.append(task)
                    self._task_memo[id(task)] = index
        return index

    def thread_states(self) -> list[_ThreadState]:
        """Registered per-thread buffers, owner first."""
        return list(self._threads.values())

    def event_count(self) -> int:
        """Hook events delivered to every registered thread."""
        return sum(state.events for state in self._threads.values())

    def recorded_count(self) -> int:
        """Buffered (recorded) events across every buffer."""
        return sum(len(state.buffer) for state in self._threads.values())

    def clear_buffers(self) -> None:
        for state in self._threads.values():
            state.buffer.clear()


class SetprofileRuntime(_RuntimeBase):
    """``sys.setprofile`` hook with memoized filtering + deferred records.

    Works on every supported interpreter; the fallback when
    ``sys.monitoring`` is unavailable.  The previously installed profile
    hook (coverage, debugger) is saved on install and restored on
    uninstall — it does not run while tracing, but it survives the
    session.
    """

    name = "settrace"

    @staticmethod
    def available() -> bool:
        return True

    def install(self) -> None:
        self._prior = sys.getprofile()
        # threading.getprofile() (3.10+) lets us restore a hook some
        # other tool arranged for future threads.
        get_threading_profile = getattr(threading, "getprofile", None)
        self._prior_threading = (
            get_threading_profile() if get_threading_profile else None
        )
        # ``sys.setprofile`` is per-thread: the owner gets a hook bound
        # to its state directly, threads started from now on get one
        # through ``threading.setprofile`` — a bootstrap that binds
        # their own hook when following, else a stub counting what the
        # guarded session drops.  Threads already running before
        # install are not reachable from here (documented limit).
        threading.setprofile(
            self._bootstrap if self._follow else self._count_dropped
        )
        sys.setprofile(self._hook(self.owner_state))

    def uninstall(self) -> None:
        sys.setprofile(self._prior)
        threading.setprofile(self._prior_threading)
        self._prior = None
        self._prior_threading = None

    def _hook(self, state: _ThreadState) -> Callable:
        """The profile hook for one thread, bound to its state.

        Per event it does only a memo lookup, one backend reading and
        one tuple append, reaching the state's buffer and stack and the
        filter memo through closure cells instead of attribute lookups.
        """
        buffer = state.buffer
        opens = state.opens
        memo = self._filter.memo
        classify = self._filter.classify
        snap = self._snap
        task_index = (
            self._task_index if self._current_task is not None else None
        )

        def profile(frame, event: str, arg) -> None:
            # Branch on the event *first*: ``c_call``/``c_return`` fire
            # for every C builtin the workload touches and must cost
            # nothing beyond the two failed string compares.  ``events``
            # therefore counts Python call events only, matching what
            # the monitoring runtime can see.
            if event == "call":
                state.events += 1
                code = frame.f_code
                index = memo.get(id(code))
                if index is None:
                    index = classify(code, frame.f_globals)
                if index >= 0:
                    task = -1 if task_index is None else task_index()
                    try:
                        payload = snap()
                    except OSError:
                        buffer.append(
                            (OP_OPEN, index, False, state.last_payload, task)
                        )
                    else:
                        state.last_payload = payload
                        buffer.append((OP_OPEN, index, True, payload, task))
                    opens.append(id(frame))
            elif event == "return":
                state.events += 1
                # Only frames we opened are on the id stack, so a plain
                # tail check pairs returns with calls — unmatched
                # returns (frames entered before start) fall through.
                if opens and opens[-1] == id(frame):
                    opens.pop()
                    try:
                        payload = snap()
                    except OSError:
                        buffer.append(
                            (OP_CLOSE, -1, False, state.last_payload, -1)
                        )
                    else:
                        state.last_payload = payload
                        buffer.append((OP_CLOSE, -1, True, payload, -1))

        return profile

    def _bootstrap(self, frame, event: str, arg) -> None:
        """Follow-mode hook for new threads, until their first call.

        Registers the thread and replaces itself with a hook bound to
        the new state, which then handles the call event.
        """
        if event == "call":
            state = self._register_thread(threading.current_thread())
            hook = self._hook(state)
            sys.setprofile(hook)
            hook(frame, event, arg)

    def _count_dropped(self, frame, event: str, arg) -> None:
        """Stub installed in non-owner threads when *not* following.

        Counts what the guarded session is losing so the loss can be
        surfaced instead of vanishing (events stay un-recorded).
        """
        if event == "call" or event == "return":
            self.dropped_events += 1
            self.dropped_thread_idents.add(threading.get_ident())


class MonitoringRuntime(_RuntimeBase):
    """PEP 669 ``sys.monitoring`` backend (Python ≥ 3.12).

    Registers only function-boundary events and permanently mutes
    non-traced code objects by returning ``DISABLE`` from their first
    event, so steady-state cost for code outside the profiled scope —
    and for *all* C calls, which have no registered event — is zero.

    ``sys.monitoring`` is interpreter-global, so the callbacks fire on
    every thread; each finds the calling thread's state through the
    resolver chosen at install — owner-only with drop counting, or the
    per-thread registry when following.

    Tool-id etiquette: tries ``PROFILER_ID`` first, then the unassigned
    ids, so it can coexist with a debugger or coverage tool; all
    callbacks are unregistered, the id freed and ``restart_events()``
    called on uninstall, so muted code objects are observable again by
    later sessions.
    """

    name = "monitoring"

    #: Candidate tool ids, best-practice slot first (3 and 4 carry no
    #: conventional assignment in PEP 669).
    _TOOL_IDS = (2, 3, 4)

    @staticmethod
    def available() -> bool:
        return hasattr(sys, "monitoring")

    def install(self) -> None:
        monitoring = sys.monitoring
        for tool_id in self._TOOL_IDS:
            try:
                monitoring.use_tool_id(tool_id, "pepo-energy-tracer")
            except ValueError:
                continue
            self._tool_id = tool_id
            break
        else:
            raise RuntimeError(
                "no free sys.monitoring tool id (slots "
                f"{self._TOOL_IDS} all in use)"
            )
        self._disable = monitoring.DISABLE
        self._state = self._per_thread if self._follow else self._owner_only
        events = monitoring.events
        self._registered = (
            (events.PY_START, self._on_start),
            (events.PY_RESUME, self._on_start),
            (events.PY_THROW, self._on_throw),
            (events.PY_RETURN, self._on_return),
            (events.PY_YIELD, self._on_return),
            (events.PY_UNWIND, self._on_unwind),
        )
        event_set = 0
        for event, callback in self._registered:
            monitoring.register_callback(self._tool_id, event, callback)
            event_set |= event
        monitoring.set_events(self._tool_id, event_set)

    def uninstall(self) -> None:
        monitoring = sys.monitoring
        monitoring.set_events(self._tool_id, 0)
        for event, _ in self._registered:
            monitoring.register_callback(self._tool_id, event, None)
        monitoring.free_tool_id(self._tool_id)
        # Re-arm every location muted with DISABLE so a later session
        # (or another tool) sees a clean slate.
        monitoring.restart_events()

    # -- state resolvers -----------------------------------------------

    def _owner_only(self) -> _ThreadState | None:
        """Guarded mode: the owner's state; other threads are dropped.

        Foreign events get ``None`` back — never ``DISABLE``, which
        would mute the location for the owner too.
        """
        ident = threading.get_ident()
        if ident != self._owner:
            self.dropped_events += 1
            self.dropped_thread_idents.add(ident)
            return None
        return self.owner_state

    def _per_thread(self) -> _ThreadState:
        """Follow mode: the calling thread's state, registered on demand."""
        thread = threading.current_thread()
        state = self._threads.get(id(thread))
        if state is None:
            state = self._register_thread(thread)
        return state

    # -- callbacks -----------------------------------------------------

    def _classify(self, code: CodeType) -> int:
        index = self._filter.memo.get(id(code))
        if index is None:
            # First sight of this code object: the monitored frame is
            # the caller of this callback.
            index = self._filter.classify(code, sys._getframe(2).f_globals)
        return index

    def _record(
        self, state: _ThreadState, op: int, index: int, task: int
    ) -> None:
        try:
            payload = self._snap()
        except OSError:
            state.buffer.append((op, index, False, state.last_payload, task))
        else:
            state.last_payload = payload
            state.buffer.append((op, index, True, payload, task))

    def _on_start(self, code: CodeType, offset: int):
        """PY_START / PY_RESUME: open a call (or mute the location).

        Task identity is captured here — i.e. at *resume* for
        coroutines — so a span always bills to the Task actually
        driving it, and suspended coroutines bill nothing.
        """
        state = self._state()
        if state is None:
            return None
        state.events += 1
        index = self._filter.memo.get(id(code))
        if index is None:
            index = self._filter.classify(code, sys._getframe(1).f_globals)
        if index < 0:
            return self._disable
        task = self._task_index() if self._current_task is not None else -1
        self._record(state, OP_OPEN, index, task)
        state.opens.append(index)
        return None

    def _on_throw(self, code: CodeType, offset: int, exc):
        """PY_THROW: a generator resumed via ``throw()`` — open a call.

        Not a local event, so never returns ``DISABLE``.
        """
        state = self._state()
        if state is None:
            return None
        state.events += 1
        index = self._classify(code)
        if index >= 0:
            task = (
                self._task_index() if self._current_task is not None else -1
            )
            self._record(state, OP_OPEN, index, task)
            state.opens.append(index)
        return None

    def _on_return(self, code: CodeType, offset: int, retval):
        """PY_RETURN / PY_YIELD: close the matching open call."""
        state = self._state()
        if state is None:
            return None
        state.events += 1
        index = self._classify(code)
        if index < 0:
            return self._disable
        opens = state.opens
        if opens and opens[-1] == index:
            # Calls/returns nest per thread and non-traced code never
            # lands on the open stack, so a tail match is exact; a
            # mismatch means the frame entered before start() and is
            # skipped (never DISABLEd — the location stays live for
            # later legitimate returns).
            opens.pop()
            self._record(state, OP_CLOSE, -1, -1)
        return None

    def _on_unwind(self, code: CodeType, offset: int, exc):
        """PY_UNWIND: frame exited via exception — close the call.

        Not a local event, so never returns ``DISABLE``.
        """
        state = self._state()
        if state is None:
            return None
        state.events += 1
        index = self._classify(code)
        if index >= 0:
            opens = state.opens
            if opens and opens[-1] == index:
                opens.pop()
                self._record(state, OP_CLOSE, -1, -1)
        return None


#: Runtime registry, in the order ``runtime="auto"`` tries them.
RUNTIMES: dict[str, type[_RuntimeBase]] = {
    MonitoringRuntime.name: MonitoringRuntime,
    SetprofileRuntime.name: SetprofileRuntime,
}


def resolve_runtime(name: str) -> list[type[_RuntimeBase]]:
    """Runtime classes to try for a ``runtime=`` knob value.

    ``auto`` returns every available implementation best-first (the
    caller falls through on install failure, e.g. no free tool id);
    an explicit name returns exactly that implementation.
    """
    if name == "auto":
        return [cls for cls in RUNTIMES.values() if cls.available()]
    try:
        cls = RUNTIMES[name]
    except KeyError:
        raise ValueError(
            f"unknown profiling runtime {name!r}; "
            f"expected 'auto', {', '.join(map(repr, RUNTIMES))}"
        ) from None
    if not cls.available():
        raise RuntimeError(
            f"profiling runtime {name!r} requires sys.monitoring "
            f"(Python >= 3.12); this is {sys.version.split()[0]}"
        )
    return [cls]


# -- deferred materialization -----------------------------------------


class _RecordBuilder:
    """The one place a closed call becomes a :class:`MethodRecord`.

    Shared by the replay and by the probe/wrapper recorder: numbers
    each execution per method (``call_index``, continuing ``counts``
    across sessions), derives exclusive energy from the call's
    accumulated children, and rolls its inclusive energy up into the
    parent — the new top of the thread's open-call stack.  Stack
    entries start with
    ``[meta_index, start_snapshot, start_ok, children_joules, task]``.
    """

    __slots__ = ("records", "_metadata", "_counts", "_task_names")

    def __init__(
        self,
        metadata: Sequence[tuple[str, str, int]],
        counts: dict[str, int],
        task_names: Sequence[str] = (),
    ) -> None:
        self.records: list[MethodRecord] = []
        self._metadata = metadata
        self._counts = counts
        self._task_names = task_names

    def close(
        self,
        entry: list,
        delta: EnergySnapshot,
        joules: dict,
        cpu: float,
        end_ok: bool,
        stack: list[list],
        state: _ThreadState | None = None,
    ) -> None:
        """Record ``entry``'s execution; ``joules`` is its inclusive energy.

        ``state`` is the thread the call ran on; ``None`` (or the
        owner's state) leaves the record's thread provenance empty.
        """
        children = entry[3]
        task = entry[4]
        exclusive = {
            dom: joules.get(dom, 0.0) - children.get(dom, 0.0)
            for dom in joules
        }
        method, filename, lineno = self._metadata[entry[0]]
        call_index = self._counts.get(method, 0)
        self._counts[method] = call_index + 1
        foreign = state is not None and not state.is_owner
        self.records.append(
            MethodRecord(
                method=method,
                filename=filename,
                lineno=lineno,
                call_index=call_index,
                wall_seconds=delta.wall_seconds,
                cpu_seconds=cpu,
                joules=joules,
                exclusive_joules=exclusive,
                suspect=not entry[2] or not end_ok or delta.suspect,
                thread_id=state.ident if foreign else 0,
                thread_name=state.name if foreign else "",
                task_name=self._task_names[task] if task >= 0 else "",
            )
        )
        if stack:
            parent_children = stack[-1][3]
            for dom, value in joules.items():
                parent_children[dom] = parent_children.get(dom, 0.0) + value


def _payload_wall(payload: object, fallback: float) -> float:
    """Wall-clock ordering key of a deferred payload.

    Raw payloads are flat tuples starting with the wall reading; full
    payloads are :class:`EnergySnapshot`.  ``None`` (a read failed
    before any succeeded) sorts at the thread's last known position.
    """
    if payload is None:
        return fallback
    if type(payload) is tuple:
        return payload[0]
    return payload.wall_seconds


@dataclass
class ConcurrentReplay:
    """Output of :func:`materialize_concurrent`.

    ``timeline_joules`` is the per-domain energy observed on the shared
    backend timeline between the first and last reading of the session;
    ``unattributed_joules`` is the slice attributed to a thread while it
    had no traced call open.  Conservation invariant (modulo float
    rounding and clamped faults): per-record exclusive energy summed
    over all records, plus unattributed, equals the timeline.
    """

    records: list[MethodRecord]
    timeline_joules: dict
    unattributed_joules: dict
    timeline_cpu_seconds: float


def materialize_concurrent(
    states: Sequence[_ThreadState],
    final_payload: object | None,
    final_ok: bool,
    metadata: Sequence[tuple[str, str, int]],
    to_snapshots: Callable[[list], list[EnergySnapshot]],
    counts: dict[str, int],
    task_names: Sequence[str],
) -> ConcurrentReplay:
    """Merge per-thread buffers into records over one shared timeline.

    The backend exposes a single monotonic cumulative energy counter,
    so concurrent threads' readings interleave on one timeline.  The
    replay:

    1. merges every thread's buffer into global chronological order
       (stable, so a single thread's events keep their exact order);
    2. converts payloads in that order (raw wrap handling is
       order-sensitive);
    3. attributes the energy gap between consecutive readings to the
       thread that produced the *later* reading — under the GIL that
       thread overwhelmingly consumed the slice — accumulating global
       and per-thread running sums;
    4. computes each call's inclusive energy as its cumulative delta
       minus the *foreign* energy other threads consumed inside the
       interval: ``foreign = Δtotal − Δown``.

    Guarded mode passes the owner's buffer alone.  When only one thread
    produced events, ``Δtotal`` and ``Δown`` are built from
    float-identical sequences, the foreign term is exactly ``0.0``, and
    every record is its call's plain start/end delta — bit-exact, not
    approximated.  Calls left open when tracing stopped close against
    the final reading.
    """
    # 1. Global chronological merge (stable: wall, then arrival seq).
    tagged: list[tuple[float, int, _ThreadState, tuple]] = []
    seq = 0
    for state in states:
        last_wall = 0.0
        for event in state.buffer:
            last_wall = _payload_wall(event[3], last_wall)
            tagged.append((last_wall, seq, state, event))
            seq += 1
    tagged.sort(key=lambda item: (item[0], item[1]))

    # 2. Payload conversion in chronological order.
    snapshots = to_snapshots([item[3][3] for item in tagged] + [final_payload])
    final_snapshot = snapshots.pop()

    builder = _RecordBuilder(metadata, counts, task_names)
    # 3. Slice-attribution accumulators.  ``total_*`` and each thread's
    # ``own_*`` see identical float additions when one thread runs, so
    # their differences cancel exactly.  Keyed by id(state): distinct
    # states can share a recycled OS ident.
    total_joules: dict = {}
    total_cpu = 0.0
    own_joules: dict[int, dict] = {id(s): {} for s in states}
    own_cpu: dict[int, float] = {id(s): 0.0 for s in states}
    # Open-call stacks per thread: [meta_index, snapshot, ok, children,
    # task, total_joules/own_joules/total_cpu/own_cpu at open].
    stacks: dict[int, list[list]] = {id(s): [] for s in states}
    unattributed: dict = {}

    def attribute_gap(
        prev: EnergySnapshot, cur: EnergySnapshot, state: _ThreadState
    ) -> None:
        nonlocal total_cpu
        ident = id(state)
        mine = own_joules[ident]
        idle = not stacks[ident]
        for dom, value in cur.joules.items():
            gap = value - prev.joules.get(dom, 0.0)
            if gap < 0.0:  # counter wrap survived conversion: drop it
                gap = 0.0
            total_joules[dom] = total_joules.get(dom, 0.0) + gap
            mine[dom] = mine.get(dom, 0.0) + gap
            if idle:
                unattributed[dom] = unattributed.get(dom, 0.0) + gap
        cpu_gap = cur.cpu_seconds - prev.cpu_seconds
        if cpu_gap < 0.0:
            cpu_gap = 0.0
        total_cpu += cpu_gap
        own_cpu[ident] += cpu_gap

    def close(
        entry: list, end: EnergySnapshot, end_ok: bool, state: _ThreadState
    ) -> None:
        open_total, open_own, open_total_cpu, open_own_cpu = entry[5:]
        ident = id(state)
        delta = end.delta(entry[1])
        mine = own_joules[ident]
        inclusive = {}
        for dom, value in delta.joules.items():
            foreign = (
                total_joules.get(dom, 0.0) - open_total.get(dom, 0.0)
            ) - (mine.get(dom, 0.0) - open_own.get(dom, 0.0))
            if foreign:
                value = value - foreign
                if value < 0.0:
                    value = 0.0
            inclusive[dom] = value
        cpu_foreign = (total_cpu - open_total_cpu) - (
            own_cpu[ident] - open_own_cpu
        )
        cpu = delta.cpu_seconds
        if cpu_foreign:
            cpu = cpu - cpu_foreign
            if cpu < 0.0:
                cpu = 0.0
        builder.close(
            entry, delta, inclusive, cpu, end_ok, stacks[ident], state
        )

    prev_snapshot: EnergySnapshot | None = None
    prev_ok = True
    for position, (_wall, _seq, state, event) in enumerate(tagged):
        snapshot = snapshots[position]
        op, index, ok = event[0], event[1], event[2]
        task = event[4] if len(event) > 4 else -1
        if prev_snapshot is not None and ok and prev_ok:
            attribute_gap(prev_snapshot, snapshot, state)
        if ok:
            prev_snapshot, prev_ok = snapshot, True
        else:
            prev_ok = False
        if op == OP_OPEN:
            stacks[id(state)].append(
                [
                    index,
                    snapshot,
                    ok,
                    {},
                    task,
                    dict(total_joules),
                    dict(own_joules[id(state)]),
                    total_cpu,
                    own_cpu[id(state)],
                ]
            )
        else:
            stack = stacks[id(state)]
            if stack:
                close(stack.pop(), snapshot, ok, state)

    # The tail slice up to the tracer's final reading ran on the owner
    # thread (it called stop()).
    owner_state = next((s for s in states if s.is_owner), None)
    if prev_snapshot is not None and prev_ok and final_ok and owner_state:
        attribute_gap(prev_snapshot, final_snapshot, owner_state)

    # Calls still open when tracing stopped close against the final
    # reading — owner first (registration order), innermost first.
    for state in states:
        stack = stacks[id(state)]
        while stack:
            close(stack.pop(), final_snapshot, final_ok, state)

    return ConcurrentReplay(
        records=builder.records,
        timeline_joules=total_joules,
        unattributed_joules=unattributed,
        timeline_cpu_seconds=total_cpu,
    )


def snapshot_converter(
    backend, raw_mode: bool
) -> Callable[[list], list[EnergySnapshot]]:
    """Build the replay's payload→snapshot conversion.

    Raw mode hands the chronological reading list to the backend's
    ``materialize_raw`` (wrap handling is order-sensitive); full-snapshot
    mode is the identity.  ``None`` payloads (a read failed before any
    succeeded) become a zero snapshot in both modes.
    """

    def convert(payloads: list) -> list[EnergySnapshot]:
        if raw_mode:
            present = [p for p in payloads if p is not None]
            converted = iter(backend.materialize_raw(present))
            return [
                next(converted) if p is not None else _ZERO_SNAPSHOT
                for p in payloads
            ]
        return [p if p is not None else _ZERO_SNAPSHOT for p in payloads]

    return convert


# -- self-overhead accounting -----------------------------------------


@dataclass(frozen=True)
class OverheadEstimate:
    """Estimated cost the profiler itself added to a measured run.

    ``per_event_seconds`` comes from a calibration loop (see
    :meth:`repro.profiler.tracer.EnergyTracer`); ``seconds`` is that
    cost times the number of hook events the run actually delivered,
    and ``joules`` converts it at the run's mean package power.  An
    estimate, not a measurement: it tells you when the observer effect
    is big enough to distrust a comparison.
    """

    runtime: str
    events: int
    per_event_seconds: float
    seconds: float
    joules: float

    def one_line(self) -> str:
        return (
            f"estimated profiling overhead: {self.seconds:.6f} s, "
            f"{self.joules:.6f} J over {self.events} events "
            f"(runtime={self.runtime}, "
            f"{self.per_event_seconds * 1e6:.3f} µs/event)"
        )
