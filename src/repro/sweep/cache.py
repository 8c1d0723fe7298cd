"""On-disk result cache for project sweeps.

Entries live under ``<project>/.pepo_cache/<kind>/<k0k1>/<key>.json``
where ``key = sha256(fingerprint || NUL || file content)``.  The
fingerprint half comes from the sweep job (rule-registry fingerprint
plus analyzer/optimizer options), so a cache entry is valid exactly
while *both* the file content and the rule set that produced it are
unchanged.  Nothing is keyed on paths or mtimes: touching a file
without editing it stays a hit, and the same content in two files
shares one entry.

Integrity hardening (format 3):

* writes are atomic (tempfile + ``os.replace``) so readers never see a
  half-written entry;
* every entry embeds a sha256 checksum of its canonical payload JSON;
  a read whose checksum does not match — bit rot, a torn sector, a
  truncated write from a full disk — **evicts the entry and reports a
  miss**, so corruption costs one recompute, never a wrong answer;
* an advisory lockfile (``.lock``, ``flock``-based) lets concurrent
  sweeps of one tree share the cache (shared mode) while ``clear()``
  takes it exclusively, so a clear cannot race a sweep's writes;
* every read failure — missing file, corrupt JSON, permission error —
  degrades to a cache miss, never an exception.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Default cache directory name, created inside the swept project.
CACHE_DIR_NAME = ".pepo_cache"

#: Advisory lock file under the cache root.
LOCK_FILE_NAME = ".lock"

#: Bump to orphan every existing entry when the payload schema changes.
#: 2: finding payloads carry the semantic-model ``confidence`` score.
#: 3: entries embed a sha256 payload checksum (corruption detection);
#:    entries without one are treated as corrupt and evicted on read.
#: 4: findings are stored as compact positional rows (see
#:    ``repro.sweep.jobs.encode_finding_compact``) instead of dicts;
#:    the dict codec is gone, since no older entry is reachable.
CACHE_FORMAT = 4


def content_key(fingerprint: str, content: bytes) -> str:
    """Cache key for one file: job fingerprint + exact file bytes."""
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(content)
    return digest.hexdigest()


def payload_checksum(result: dict) -> str:
    """sha256 of the canonical (sorted, compact) payload JSON."""
    canonical = json.dumps(
        result, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


@dataclass(frozen=True)
class StoreSection:
    """Run-store inventory, reported alongside the sweep cache.

    Populated by peeking at the columnar run store's SQLite catalog
    (``<cache root>/store/``) with the stdlib ``sqlite3`` module, so
    the section renders even on numpy-free interpreters where
    :mod:`repro.store` itself cannot import.
    """

    runs: int
    rows: int
    total_bytes: int
    last_ingest: str | None

    def render(self) -> str:
        last = self.last_ingest or "never"
        return (
            f"store: {self.runs} run(s), {self.rows} row(s), "
            f"{self.total_bytes / 1024:.1f} KiB, last ingest {last}"
        )


@dataclass(frozen=True)
class CacheStats:
    """What ``pepo cache stats`` reports."""

    root: str
    entries: int
    total_bytes: int
    by_kind: dict[str, int]
    quarantined: tuple = field(default_factory=tuple)
    store: StoreSection | None = None

    def render(self) -> str:
        lines = [f"cache root: {self.root}"]
        if not self.entries:
            lines.append("empty (no cached sweep results)")
        else:
            for kind in sorted(self.by_kind):
                lines.append(f"  {kind}: {self.by_kind[kind]} entr"
                             f"{'y' if self.by_kind[kind] == 1 else 'ies'}")
            lines.append(
                f"{self.entries} entr{'y' if self.entries == 1 else 'ies'}, "
                f"{self.total_bytes / 1024:.1f} KiB"
            )
        if self.store is not None:
            lines.append(self.store.render())
        if self.quarantined:
            lines.append(
                f"{len(self.quarantined)} quarantined file(s) from the "
                "last sweep:"
            )
            for entry in self.quarantined:
                lines.append(
                    f"  {entry.path}  [{entry.reason}, "
                    f"{entry.failures} strike"
                    f"{'' if entry.failures == 1 else 's'}]"
                )
        return "\n".join(lines)


class SweepCache:
    """Content-addressed JSON store under one cache root.

    ``evictions`` counts entries discarded because their checksum did
    not match (auto-evict-and-recompute); sweeps surface it through
    :class:`~repro.sweep.engine.SweepStats.cache_evictions`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.evictions = 0

    @classmethod
    def for_project(
        cls, project_dir: str | Path, cache_dir: str | Path | None = None
    ) -> "SweepCache":
        """Cache co-located with the swept project unless overridden."""
        if cache_dir is not None:
            return cls(cache_dir)
        project_dir = Path(project_dir)
        base = project_dir if project_dir.is_dir() else project_dir.parent
        return cls(base / CACHE_DIR_NAME)

    def entry_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def _evict(self, entry: Path) -> None:
        self.evictions += 1
        try:
            entry.unlink()
        except OSError:
            pass

    def get(self, kind: str, key: str) -> dict | None:
        """Stored payload, or None on any miss.

        Corrupt entries — unparseable JSON, wrong shape, or a checksum
        mismatch — are evicted on the spot so the recomputed result
        replaces them instead of failing forever.
        """
        entry = self.entry_path(kind, key)
        try:
            raw = entry.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not an object")
        except (ValueError, UnicodeDecodeError):
            # Bit rot can corrupt the UTF-8 stream itself, not just the
            # JSON inside it; both are the same disease.
            self._evict(entry)
            return None
        if payload.get("format") != CACHE_FORMAT:
            # A different (older/newer) schema is not corruption; those
            # entries are unreachable anyway because CACHE_FORMAT is
            # folded into every job fingerprint.
            return None
        result = payload.get("result")
        if not isinstance(result, dict) or payload.get(
            "sha256"
        ) != payload_checksum(result):
            self._evict(entry)
            return None
        return result

    def put(self, kind: str, key: str, result: dict) -> None:
        """Store a payload atomically; IO errors are swallowed (a cache
        that cannot write behaves like a cache that always misses)."""
        entry = self.entry_path(kind, key)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=entry.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(
                        {
                            "format": CACHE_FORMAT,
                            "sha256": payload_checksum(result),
                            "result": result,
                        },
                        handle,
                    )
                os.replace(tmp, entry)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    # -- cross-process exclusion ------------------------------------------

    @contextmanager
    def lock(self, *, exclusive: bool = False, timeout: float = 10.0):
        """Advisory ``flock`` on the cache root.

        Sweeps hold it shared (concurrent sweeps of one tree are fine —
        entry writes are atomic); ``clear()`` holds it exclusively so it
        cannot tear the tree out from under a running sweep.  Yields
        True when the lock was acquired, False when the platform has no
        ``fcntl`` or the timeout expired (callers proceed either way:
        the lock is belt-and-braces on top of atomic writes).
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            yield False
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.root / LOCK_FILE_NAME, os.O_RDWR | os.O_CREAT, 0o644
            )
        except OSError:  # pragma: no cover - unwritable cache root
            yield False
            return
        flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        acquired = False
        try:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, flags | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(0.02)
            yield acquired
        finally:
            if acquired:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
            os.close(fd)

    # -- maintenance (``pepo cache``) -------------------------------------

    def stats(self) -> CacheStats:
        entries = 0
        total_bytes = 0
        by_kind: dict[str, int] = {}
        if self.root.is_dir():
            for path in self.root.rglob("*.json"):
                relative = path.relative_to(self.root)
                # Entries live at <kind>/<k0k1>/<key>.json; root-level
                # files (journals, the quarantine report) are not
                # cached results.
                if len(relative.parts) != 3:
                    continue
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                entries += 1
                total_bytes += size
                kind = relative.parts[0]
                by_kind[kind] = by_kind.get(kind, 0) + 1
        from repro.sweep.supervisor import QuarantineReport

        quarantine = QuarantineReport.load(self.root / "quarantine.json")
        return CacheStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total_bytes,
            by_kind=by_kind,
            quarantined=tuple(quarantine.entries) if quarantine else (),
            store=_store_section(self.root / "store"),
        )

    def clear(self) -> int:
        """Delete the cache tree; returns the number of entries removed.

        Takes the lock exclusively first so a sweep in progress is not
        torn down mid-write.
        """
        removed = self.stats().entries
        if self.root.is_dir():
            with self.lock(exclusive=True):
                shutil.rmtree(self.root, ignore_errors=True)
        return removed


def _store_section(store_root: Path) -> StoreSection | None:
    """Summarise a co-located run store, or ``None`` when absent.

    Reads the store's SQLite catalog directly (stdlib only) rather
    than importing :mod:`repro.store`, which requires numpy; any
    read failure degrades to "no section", matching the cache's own
    failure philosophy.
    """
    catalog = store_root / "catalog.db"
    if not catalog.is_file():
        return None
    import sqlite3

    try:
        conn = sqlite3.connect(f"file:{catalog}?mode=ro", uri=True)
        try:
            runs, rows, last = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(rows), 0), MAX(ingested_at)"
                " FROM runs"
            ).fetchone()
        finally:
            conn.close()
    except sqlite3.Error:
        return None
    total = 0
    for path in [catalog, *store_root.glob("segments/*.npz")]:
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return StoreSection(
        runs=int(runs), rows=int(rows), total_bytes=total, last_ingest=last
    )
