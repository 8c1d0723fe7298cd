"""Per-execution measurement records and the ``result.txt`` round trip.

The paper: *"When the execution end, the energy consumption and
execution time for all the executed methods are stored in a result.txt
file in Java project directory … If one method is executed more than
once, then the measurements are stored for each execution."*
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.rapl.domains import Domain

if TYPE_CHECKING:
    from repro.profiler.fastpath import ProfileColumns
    from repro.profiler.runtime import OverheadEstimate

#: The numeric ``result.txt`` columns, in file order after the method.
_FLOAT_COLUMNS = ("wall_seconds", "cpu_seconds", "package_joules", "core_joules")
_RESULT_HEADER = "\t".join(("# method", *_FLOAT_COLUMNS))


def _clean_token(value: str) -> str:
    """Strip characters that would break the tab-separated line format."""
    return value.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def context_label(
    pid: int, thread_id: int, thread_name: str, task_name: str
) -> str:
    """Compact execution-context tag, "main" for the default context."""
    parts = []
    if pid:
        parts.append(f"pid={pid}")
    if thread_id:
        name = f"({thread_name})" if thread_name else ""
        parts.append(f"thread={thread_id}{name}")
    if task_name:
        parts.append(f"task={task_name}")
    return " ".join(parts) if parts else "main"


class ResultFileError(ValueError):
    """A malformed ``result.txt``: ``<path>:<line>: <reason>``."""


@dataclass(frozen=True)
class MethodRecord:
    """One execution of one method.

    ``joules`` is *inclusive* energy (everything consumed between entry
    and exit, callees included); ``exclusive_joules`` subtracts the
    inclusive energy of direct callees, giving self-energy.

    ``suspect`` marks executions whose measurement was impaired — a
    backend fault mid-call, a clamped negative delta — so downstream
    views and statistics can flag or drop them instead of silently
    averaging corrupt readings in.

    Execution-context provenance (all default to "the profiling
    context" so single-threaded sync profiles are unchanged):

    * ``thread_id`` / ``thread_name`` — 0/"" for the owner thread that
      drove the tracer; the OS thread ident and ``threading`` name for
      records captured on other threads (``follow_threads=True``).
    * ``task_name`` — the asyncio Task that owned the frame when the
      span opened (``follow_tasks=True``); "" outside any task.
    * ``pid`` — 0 for the profiling process; the child's PID for
      records merged from captured subprocesses.
    """

    method: str
    filename: str
    lineno: int
    call_index: int
    wall_seconds: float
    cpu_seconds: float
    joules: Mapping[Domain, float]
    exclusive_joules: Mapping[Domain, float]
    suspect: bool = False
    thread_id: int = 0
    thread_name: str = ""
    task_name: str = ""
    pid: int = 0

    @property
    def package_joules(self) -> float:
        return self.joules.get(Domain.PACKAGE, 0.0)

    @property
    def core_joules(self) -> float:
        return self.joules.get(Domain.PP0, 0.0)

    @property
    def context_label(self) -> str:
        """Compact execution-context tag, "main" for the default context."""
        return context_label(
            self.pid, self.thread_id, self.thread_name, self.task_name
        )


@dataclass(frozen=True)
class MethodAggregate:
    """All executions of one method, aggregated for the Fig. 4 view.

    ``context`` is "" for the whole-profile aggregation and an
    execution-context label (``MethodRecord.context_label``) when the
    aggregation was grouped per context.
    """

    method: str
    calls: int
    wall_seconds: float
    cpu_seconds: float
    package_joules: float
    core_joules: float
    exclusive_package_joules: float
    suspect_calls: int = 0
    context: str = ""

    @property
    def mean_package_joules(self) -> float:
        return self.package_joules / self.calls if self.calls else 0.0


class ProfileResult:
    """An ordered collection of per-execution records.

    Iteration order is execution-completion order, mirroring the
    paper's per-execution storage.
    """

    def __init__(
        self, records: Iterable[MethodRecord] = (), degraded: bool = False
    ) -> None:
        self._records: list[MethodRecord] = list(records)
        #: True when any part of the run was served by a degraded
        #: (fallback) backend — provenance for the whole profile.
        self.degraded = degraded
        #: Estimated self-overhead of the profiling runtime that
        #: produced this result (None when not measured) — see
        #: :class:`repro.profiler.runtime.OverheadEstimate`.
        self.overhead: "OverheadEstimate | None" = None
        #: Events observed on threads the runtime was not following
        #: (and therefore discarded), plus how many distinct threads
        #: produced them.  Non-zero values mean energy attributed to
        #: concurrent code is missing from this profile; with
        #: ``follow_threads=True`` both stay 0 (regression signal).
        self.dropped_events = 0
        self.dropped_threads = 0
        #: Concurrent-replay accounting (``follow_threads=True`` only).
        #: ``timeline_joules`` is the total energy observed on the
        #: shared backend timeline between the first and last reading;
        #: ``unattributed_joules`` is the slice of it consumed while
        #: the consuming thread had no traced call open.  Conservation:
        #: sum of per-record exclusive energy + unattributed ==
        #: timeline (per domain, modulo float rounding).
        self.timeline_joules: dict[Domain, float] = {}
        self.unattributed_joules: dict[Domain, float] = {}
        #: Lazily built struct-of-arrays view over the records (see
        #: :class:`repro.profiler.fastpath.ProfileColumns`).  Mutators
        #: only *drop* it — rebuilding happens on the next aggregation
        #: that needs it, so merging N children costs O(total records),
        #: not O(N · records).
        self._columns: "ProfileColumns | None" = None

    def add(self, record: MethodRecord) -> None:
        self._records.append(record)
        self._columns = None

    def extend(self, records: Iterable[MethodRecord]) -> None:
        """Append many records at once (bulk path for deferred stop())."""
        self._records.extend(records)
        self._columns = None

    def columns(self) -> "ProfileColumns | None":
        """The columnar view of the records, built (and cached) on demand.

        ``None`` when numpy is unavailable or disabled via
        ``PEPO_PURE_PYTHON`` — callers fall back to the pure loops.
        The cache is invalidated by ``add``/``extend``/``merge``, never
        eagerly rebuilt by them.
        """
        if self._columns is None or len(self._columns) != len(self._records):
            from repro.profiler.fastpath import build_columns

            self._columns = build_columns(self._records)
        return self._columns

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MethodRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> MethodRecord:
        return self._records[index]

    def methods(self) -> tuple[str, ...]:
        """Distinct method names in first-completion order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.method, None)
        return tuple(seen)

    def executions_of(self, method: str) -> list[MethodRecord]:
        """Every execution record for one method, in completion order."""
        return [r for r in self._records if r.method == method]

    def suspect_records(self) -> list[MethodRecord]:
        """Records whose measurement was impaired (see ``MethodRecord``)."""
        return [r for r in self._records if r.suspect]

    def suspect_count(self) -> int:
        return sum(1 for r in self._records if r.suspect)

    def contexts(self) -> tuple[str, ...]:
        """Distinct execution-context labels in first-seen order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.context_label, None)
        return tuple(seen)

    def merge(self, other: "ProfileResult", pid: int | None = None) -> None:
        """Fold another profile (e.g. from a child process) into this one.

        Records are appended in the other profile's order; when ``pid``
        is given, records that still carry the default ``pid=0`` are
        stamped with it so their origin survives the merge.  Degraded
        state, drop counters and timeline accounting are combined.

        The columnar aggregate cache is *dropped*, not rebuilt: merging
        N subprocess spools costs O(total records) in list appends, and
        the first aggregation after the last merge pays the single
        column build.
        """
        if pid is None:
            self._records.extend(other._records)
        else:
            self._records.extend(
                dataclasses.replace(r, pid=pid) if r.pid == 0 else r
                for r in other._records
            )
        self._columns = None
        self.degraded = self.degraded or other.degraded
        self.dropped_events += other.dropped_events
        self.dropped_threads += other.dropped_threads
        for source, target in (
            (other.timeline_joules, self.timeline_joules),
            (other.unattributed_joules, self.unattributed_joules),
        ):
            for domain, value in source.items():
                target[domain] = target.get(domain, 0.0) + value

    def aggregate(self, by_context: bool = False) -> list[MethodAggregate]:
        """Per-method totals, sorted by package energy descending.

        This is the data behind the profiler view: the energy-hungry
        methods surface at the top.  Single pass: running sums are
        accumulated per method instead of bucketing the records and
        re-walking every bucket.  With ``by_context=True`` the buckets
        are (method, execution context) pairs instead, so a method that
        runs on several threads/tasks/processes gets one row per
        context (the Fig. 4 view grown for concurrent targets).

        With numpy available the bucket sums run as ``np.bincount``
        reductions over the cached columnar view — same accumulation
        order, bit-identical totals; the pure loop remains the
        numpy-free fallback (see :mod:`repro.profiler.fastpath`).
        """
        cols = self.columns()
        if cols is not None:
            from repro.profiler.fastpath import aggregate_columns

            aggregates = aggregate_columns(cols, by_context)
        else:
            aggregates = aggregate_records_pure(self._records, by_context)
        aggregates.sort(key=lambda a: a.package_joules, reverse=True)
        return aggregates

    def aggregate_pure(self, by_context: bool = False) -> list[MethodAggregate]:
        """Force the numpy-free aggregation path (parity/bench anchor)."""
        aggregates = aggregate_records_pure(self._records, by_context)
        aggregates.sort(key=lambda a: a.package_joules, reverse=True)
        return aggregates

    def total_package_joules(self) -> float:
        """Sum of *exclusive* package energy — double-count-free total."""
        return sum(
            r.exclusive_joules.get(Domain.PACKAGE, 0.0) for r in self._records
        )

    # -- result.txt round trip ----------------------------------------

    def write_result_txt(self, path: str | Path) -> Path:
        """Write the paper's ``result.txt``: one line per execution.

        Degraded runs are flagged with a ``# degraded=true`` header
        comment; suspect executions carry a sixth ``suspect`` field.
        Records from non-default execution contexts append
        ``thread=``/``tname=``/``task=``/``pid=`` tokens after the five
        core columns.  Clean single-threaded runs write the original
        five-column format byte-for-byte unchanged.
        """
        path = Path(path)
        lines = [_RESULT_HEADER]
        if self.degraded:
            lines.append("# degraded=true")
        if self.dropped_events:
            lines.append(
                f"# dropped events={self.dropped_events} "
                f"threads={self.dropped_threads}"
            )
        if self.overhead is not None:
            o = self.overhead
            lines.append(
                "# overhead "
                f"runtime={o.runtime} events={o.events} "
                f"per_event_seconds={o.per_event_seconds!r} "
                f"seconds={o.seconds!r} joules={o.joules!r}"
            )
        for r in self._records:
            line = (
                f"{r.method}\t{r.wall_seconds:.9f}\t{r.cpu_seconds:.9f}"
                f"\t{r.package_joules:.9f}\t{r.core_joules:.9f}"
            )
            if r.suspect:
                line += "\tsuspect"
            if r.thread_id:
                line += f"\tthread={r.thread_id}"
                if r.thread_name:
                    line += f"\ttname={_clean_token(r.thread_name)}"
            if r.task_name:
                line += f"\ttask={_clean_token(r.task_name)}"
            if r.pid:
                line += f"\tpid={r.pid}"
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def read_result_txt(cls, path: str | Path) -> "ProfileResult":
        """Parse a ``result.txt`` back into records.

        Parsed records carry only the persisted fields; location and
        exclusive energy are not stored in the file (matching the
        paper's three-column output) and read back as empty/zero.
        The ``degraded`` header flag, the ``# overhead`` estimate,
        per-line ``suspect`` markers and the execution-context tokens
        (``thread=``/``tname=``/``task=``/``pid=``) are restored; files
        written before those tokens existed (plain 5/6-column lines)
        still parse.

        Malformed files raise a line-numbered :class:`ResultFileError`
        (see :func:`parse_result_txt`).  The numeric columns are
        converted in one numpy batch when numpy is available, per-value
        ``float()`` otherwise; the records are identical either way.
        """
        from repro.profiler.fastpath import numpy_or_none

        parsed = parse_result_txt(path, np=numpy_or_none())
        result = cls(degraded=parsed.degraded)
        result.overhead = parsed.overhead
        result.dropped_events = parsed.dropped_events
        result.dropped_threads = parsed.dropped_threads
        floats = [
            column if isinstance(column, list) else column.tolist()
            for column in (
                parsed.wall, parsed.cpu, parsed.package, parsed.core
            )
        ]
        methods = parsed.methods
        contexts = parsed.contexts
        records = result._records
        package, pp0 = Domain.PACKAGE, Domain.PP0
        for code, context, call_index, suspect, wall, cpu, pkg, core in zip(
            parsed.method_code,
            parsed.context_code,
            parsed.call_index,
            parsed.suspect,
            *floats,
        ):
            pid, thread_id, thread_name, task_name = contexts[context]
            records.append(
                MethodRecord(
                    method=methods[code],
                    filename="",
                    lineno=0,
                    call_index=call_index,
                    wall_seconds=wall,
                    cpu_seconds=cpu,
                    joules={package: pkg, pp0: core},
                    exclusive_joules={},
                    suspect=suspect,
                    thread_id=thread_id,
                    thread_name=thread_name,
                    task_name=task_name,
                    pid=pid,
                )
            )
        return result


def aggregate_records_pure(
    records: Iterable[MethodRecord], by_context: bool = False
) -> list[MethodAggregate]:
    """The original single-pass pure-Python bucket loop (unsorted).

    Kept as the numpy-free fallback for :meth:`ProfileResult.aggregate`
    and as the bit-exactness anchor the vectorized path is parity-tested
    against.  Buckets come back in first-seen order; the caller sorts.
    """
    # calls, wall, cpu, package, core, exclusive package, suspects
    buckets: dict[tuple[str, str], list] = {}
    for r in records:
        key = (r.method, r.context_label if by_context else "")
        acc = buckets.get(key)
        if acc is None:
            acc = buckets[key] = [0, 0.0, 0.0, 0.0, 0.0, 0.0, 0]
        acc[0] += 1
        acc[1] += r.wall_seconds
        acc[2] += r.cpu_seconds
        acc[3] += r.package_joules
        acc[4] += r.core_joules
        acc[5] += r.exclusive_joules.get(Domain.PACKAGE, 0.0)
        if r.suspect:
            acc[6] += 1
    return [
        MethodAggregate(
            method=method,
            calls=acc[0],
            wall_seconds=acc[1],
            cpu_seconds=acc[2],
            package_joules=acc[3],
            core_joules=acc[4],
            exclusive_package_joules=acc[5],
            suspect_calls=acc[6],
            context=context,
        )
        for (method, context), acc in buckets.items()
    ]


@dataclass
class ResultFile:
    """One parsed ``result.txt``: header facts plus per-row columns.

    ``methods`` and ``contexts`` are interned tables in first-seen
    order (contexts as ``(pid, thread_id, thread_name, task_name)``,
    the argument order of :func:`context_label`);
    ``method_code``/``context_code`` index into them row by row.  The
    four float columns are numpy arrays when the parse was given numpy,
    lists of floats otherwise.
    """

    degraded: bool = False
    dropped_events: int = 0
    dropped_threads: int = 0
    overhead: "OverheadEstimate | None" = None
    methods: list[str] = field(default_factory=list)
    contexts: list[tuple[int, int, str, str]] = field(default_factory=list)
    method_code: list[int] = field(default_factory=list)
    context_code: list[int] = field(default_factory=list)
    call_index: list[int] = field(default_factory=list)
    suspect: list[bool] = field(default_factory=list)
    wall: Sequence[float] = ()
    cpu: Sequence[float] = ()
    package: Sequence[float] = ()
    core: Sequence[float] = ()


def parse_result_txt(path: str | Path, np=None) -> ResultFile:
    """Read a ``result.txt`` once into a :class:`ResultFile`.

    The one reader of the format :meth:`ProfileResult.write_result_txt`
    writes.  Comment lines carry the header facts (``# degraded=true``,
    ``# dropped``, ``# overhead``) wherever they appear; each data line
    holds five tab-separated core columns plus optional ``suspect`` and
    ``thread=``/``tname=``/``task=``/``pid=`` tokens.  Files written
    before those tokens existed (plain 5/6-column lines) still parse.
    Methods and contexts are interned and ``call_index`` counted in the
    same loop; the numeric columns are converted in one batch by
    :func:`repro.profiler.fastpath.parse_float_columns` (numpy arrays
    with ``np``, float lists without).

    Every malformation raises a :class:`ResultFileError` naming the
    path and line: too few fields, an unknown token, an unparseable
    number, a NaN/infinite/negative energy value, and a last line with
    no trailing newline — the writer always ends the file with one, so
    its absence means a torn write.
    """
    from repro.profiler.fastpath import parse_float_columns

    text = Path(path).read_text()
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        raise ResultFileError(
            f"{path}:{len(lines)}: truncated line (no trailing newline)"
        )
    parsed = ResultFile()
    method_ids: dict[str, int] = {}
    context_ids: dict[tuple[int, int, str, str], int] = {}
    # Running per-method execution counter, indexed by method code.
    counts: list[int] = []
    linenos: list[int] = []
    raw: dict[str, list[str]] = {name: [] for name in _FLOAT_COLUMNS}
    raw_wall, raw_cpu, raw_pkg, raw_core = raw.values()
    method_code = parsed.method_code
    context_code = parsed.context_code
    call_index = parsed.call_index
    suspects = parsed.suspect
    read_comment = _read_comment
    int_token = _int_token
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            read_comment(line, parsed)
            continue
        parts = line.split("\t")
        if len(parts) < 5:
            raise ResultFileError(
                # pepo: ignore[R04_GLOBAL_IN_LOOP] raised once, on exit
                f"{path}:{lineno}: expected 5 or more tab-separated "
                f"fields, got {len(parts)}"
            )
        method, wall, cpu, pkg, core = parts[:5]
        suspect = False
        context = (0, 0, "", "")
        if len(parts) > 5:
            pid = thread_id = 0
            thread_name = task_name = ""
            for token in parts[5:]:
                if token == "suspect":
                    suspect = True
                elif token.startswith("thread="):
                    thread_id = int_token(token[7:], "thread", path, lineno)
                elif token.startswith("tname="):
                    thread_name = token[6:]
                elif token.startswith("task="):
                    task_name = token[5:]
                elif token.startswith("pid="):
                    pid = int_token(token[4:], "pid", path, lineno)
                else:
                    raise ResultFileError(
                        # pepo: ignore[R04_GLOBAL_IN_LOOP] raised once, on exit
                        f"{path}:{lineno}: unrecognised field {token!r}"
                    )
            context = (pid, thread_id, thread_name, task_name)
        code = method_ids.setdefault(method, len(method_ids))
        if code == len(counts):
            counts.append(0)
        call_index.append(counts[code])
        counts[code] += 1
        method_code.append(code)
        context_code.append(context_ids.setdefault(context, len(context_ids)))
        suspects.append(suspect)
        linenos.append(lineno)
        raw_wall.append(wall)
        raw_cpu.append(cpu)
        raw_pkg.append(pkg)
        raw_core.append(core)
    parsed.methods = list(method_ids)
    parsed.contexts = list(context_ids)
    parsed.wall, parsed.cpu, parsed.package, parsed.core = (
        parse_float_columns(raw, linenos, path, np=np).values()
    )
    return parsed


def _int_token(value: str, name: str, path: str | Path, lineno: int) -> int:
    """An integer ``thread=``/``pid=`` value, or a line-numbered error."""
    try:
        return int(value)
    except ValueError:
        raise ResultFileError(
            f"{path}:{lineno}: could not parse {name} value {value!r}"
        ) from None


def _read_comment(line: str, parsed: ResultFile) -> None:
    """Fold one blank or ``#`` comment line's header fact into ``parsed``."""
    stripped = line.strip().lower()
    if stripped == "# degraded=true":
        parsed.degraded = True
    elif stripped.startswith("# overhead "):
        parsed.overhead = _parse_overhead_comment(line)
    elif stripped.startswith("# dropped "):
        fields = dict(
            part.split("=", 1) for part in line[1:].split()[1:] if "=" in part
        )
        try:
            parsed.dropped_events = int(fields.get("events", 0))
            parsed.dropped_threads = int(fields.get("threads", 0))
        except ValueError:
            pass


def _parse_overhead_comment(line: str) -> "OverheadEstimate | None":
    """Parse a ``# overhead k=v ...`` header back into an estimate."""
    from repro.profiler.runtime import OverheadEstimate

    fields = dict(
        part.split("=", 1) for part in line[1:].split()[1:] if "=" in part
    )
    try:
        return OverheadEstimate(
            runtime=fields["runtime"],
            events=int(fields["events"]),
            per_event_seconds=float(fields["per_event_seconds"]),
            seconds=float(fields["seconds"]),
            joules=float(fields["joules"]),
        )
    except (KeyError, ValueError):
        # A hand-edited or truncated comment must not break parsing.
        return None
