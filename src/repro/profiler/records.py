"""Per-execution measurement records and the ``result.txt`` round trip.

The paper: *"When the execution end, the energy consumption and
execution time for all the executed methods are stored in a result.txt
file in Java project directory … If one method is executed more than
once, then the measurements are stored for each execution."*
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.rapl.domains import Domain

if TYPE_CHECKING:
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

    def add(self, record: MethodRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[MethodRecord]) -> None:
        """Append many records at once (bulk path for deferred stop())."""
        self._records.extend(records)

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
        """
        if pid is None:
            self._records.extend(other._records)
        else:
            self._records.extend(
                dataclasses.replace(r, pid=pid) if r.pid == 0 else r
                for r in other._records
            )
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
        """
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
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        (see :func:`parse_result_txt`).
        """
        parsed = parse_result_txt(path)
        result = cls(degraded=parsed.degraded)
        result.overhead = parsed.overhead
        result.dropped_events = parsed.dropped_events
        result.dropped_threads = parsed.dropped_threads
        methods = parsed.methods
        contexts = parsed.contexts
        records = result._records
        package, pp0 = Domain.PACKAGE, Domain.PP0
        for code, context, call_index, suspect, wall, cpu, pkg, core in zip(
            parsed.method_code,
            parsed.context_code,
            parsed.call_index,
            parsed.suspect,
            parsed.wall,
            parsed.cpu,
            parsed.package,
            parsed.core,
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
    """The single-pass bucket loop behind :meth:`ProfileResult.aggregate`.

    Buckets come back unsorted, in first-seen order; the caller sorts.
    The run store's vectorized aggregate is parity-tested against it.
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
    :func:`parse_float_columns` (numpy arrays with ``np``, float lists
    without).

    The file is UTF-8, as the writer writes it.  Every malformation
    raises a :class:`ResultFileError` naming the path and line: a byte
    that is not UTF-8, too few fields, an unknown token, an unparseable
    number, a NaN/infinite/negative energy value, and a last line with
    no trailing newline — the writer always ends the file with one, so
    its absence means a torn write.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        # The bad byte's line, numbered as ``splitlines`` numbers below.
        before = data[: error.start].decode("utf-8")
        lineno = len((before + "x").splitlines())
        raise ResultFileError(
            f"{path}:{lineno}: not UTF-8 "
            f"(byte 0x{data[error.start]:02x}: {error.reason})"
        ) from None
    lines = text.splitlines()
    # A final bare CR ends the last line too, as in text-mode reads.
    if text and not text.endswith(("\n", "\r")):
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


def parse_float_columns(
    columns: dict[str, list[str]],
    linenos: Sequence[int],
    path: object,
    np=None,
) -> dict:
    """Batch-convert the numeric ``result.txt`` columns, validating energy.

    ``columns`` maps column name → list of raw strings (one per data
    line).  With ``np`` each column comes back as a float64 array (one
    vectorized conversion; the run store passes numpy); without it as
    a list of Python floats (per-value ``float()``).  Both are
    correctly-rounded decimal→binary conversions, so the values are
    identical.

    Unparseable values, and NaN, infinite or negative values in the
    energy columns, raise a line-numbered :class:`ResultFileError`
    whose message is the same byte for byte on either path.
    """
    isfinite = math.isfinite
    out: dict = {}
    for name, raw in columns.items():
        try:
            if np is None:
                values = [float(token) for token in raw]
            else:
                values = np.asarray(raw, dtype=np.float64)
        except ValueError:
            # Pinpoint the offending line the slow way; conversion
            # errors are the cold path.
            for i, token in enumerate(raw):
                try:
                    float(token)
                except ValueError:
                    raise ResultFileError(
                        # pepo: ignore[R04_GLOBAL_IN_LOOP] raised once, on exit
                        f"{path}:{linenos[i]}: could not parse "
                        f"{name} value {token!r}"
                    ) from None
            raise  # pragma: no cover - asarray failed, floats didn't
        if name in ("package_joules", "core_joules"):
            if np is None:
                bad = [
                    i
                    for i, value in enumerate(values)
                    if not (value >= 0.0 and isfinite(value))
                ]
            else:
                mask = ~np.isfinite(values) | (values < 0.0)
                bad = np.flatnonzero(mask).tolist()
            if bad:
                raise ResultFileError(
                    # pepo: ignore[R04_GLOBAL_IN_LOOP] raised once, on exit
                    f"{path}:{linenos[bad[0]]}: {name} must be a finite "
                    f"non-negative number, got {raw[bad[0]]!r}"
                )
        out[name] = values
    return out


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
