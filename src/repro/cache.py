"""Persistent, content-addressed artifact cache for toolchain outputs.

Keys are SHA-256 digests over a canonical JSON payload — the source
texts, option fields, and variant that produced an artifact — salted
with a *toolchain version stamp*: the hash of every Python source file
of the ``repro`` package itself.  Editing the compiler, linker,
optimizer, or simulator therefore invalidates every artifact they ever
produced, while re-running an unchanged toolchain over unchanged
sources is a pure cache read.

Values are opaque bytes (``repro.objfile.serialize`` dumps for objects
and archives, ``repro.linker.executable.dump_executable`` images for
executables, JSON for simulator results).  The store is a flat
two-level directory tree, ``<root>/<kind>/<aa>/<digest>``, written
crash-consistently: each entry is framed in a checksummed envelope,
fsynced, and renamed into place (with a parent-directory fsync), so a
writer killed at any instant can never publish a torn artifact — and a
torn entry that somehow appears anyway (pre-fix caches, disk faults)
is quarantined on first read instead of being served forever.
"""

from __future__ import annotations

import concurrent.futures
import errno
import functools
import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path


def compute_toolchain_stamp() -> str:
    """Hash of the ``repro`` package sources (the cache's version salt).

    Uncached: every call re-reads the sources.  Long-lived processes
    (the serve daemon) call this once at startup and thread the value
    explicitly, so an in-place toolchain upgrade is picked up by the
    next daemon start rather than silently keying new artifacts under
    the stamp of the code that *was* on disk at import time.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def toolchain_stamp() -> str:
    """Memoized :func:`compute_toolchain_stamp` for short-lived tools."""
    return compute_toolchain_stamp()


@dataclass
class CacheStats:
    """Hit/miss/error counters, total and per artifact kind.

    Increments take a class-wide lock (not pickled with instances) so
    the serving path may count from many threads without losing
    updates; reads are plain dict lookups.  ``errors`` counts reads
    that failed for a reason *other than* the entry being absent
    (permissions, I/O faults): those are infrastructure problems, not
    cold-cache behavior, and must not be folded into ``misses``.
    """

    _LOCK = threading.Lock()

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    quarantines: dict[str, int] = field(default_factory=dict)

    def hit(self, kind: str) -> None:
        with CacheStats._LOCK:
            self.hits[kind] = self.hits.get(kind, 0) + 1

    def miss(self, kind: str) -> None:
        with CacheStats._LOCK:
            self.misses[kind] = self.misses.get(kind, 0) + 1

    def error(self, kind: str) -> None:
        with CacheStats._LOCK:
            self.errors[kind] = self.errors.get(kind, 0) + 1

    def quarantine(self, kind: str) -> None:
        with CacheStats._LOCK:
            self.quarantines[kind] = self.quarantines.get(kind, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def total_errors(self) -> int:
        return sum(self.errors.values())

    @property
    def total_quarantines(self) -> int:
        return sum(self.quarantines.values())

    def snapshot(self) -> tuple[int, int]:
        return self.total_hits, self.total_misses


#: Entry envelope: magic, payload length, payload SHA-256, payload.
#: The checksum lets ``get`` detect a torn or bit-rotted entry and
#: quarantine it instead of serving garbage as a hit.
_MAGIC = b"RAC1"
_HEADER_LEN = len(_MAGIC) + 8 + 32


def _encode_entry(data: bytes) -> bytes:
    return (
        _MAGIC
        + len(data).to_bytes(8, "big")
        + hashlib.sha256(data).digest()
        + data
    )


def _decode_entry(blob: bytes) -> bytes | None:
    """The payload, or None when the envelope does not check out."""
    if len(blob) < _HEADER_LEN or blob[: len(_MAGIC)] != _MAGIC:
        return None
    length = int.from_bytes(blob[len(_MAGIC) : len(_MAGIC) + 8], "big")
    digest = blob[len(_MAGIC) + 8 : _HEADER_LEN]
    data = blob[_HEADER_LEN:]
    if len(data) != length or hashlib.sha256(data).digest() != digest:
        return None
    return data


def _fsync_file(handle) -> None:
    """Flush and fsync an open file object (fault-injection seam)."""
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    """Fsync a directory so a just-renamed entry survives a crash.

    Best-effort: some platforms refuse to open directories; losing the
    rename to a crash there degrades to a cache miss, never a torn
    entry (the rename itself is still atomic).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class ArtifactCache:
    """A content-addressed store of build artifacts on disk."""

    def __init__(
        self,
        root: str | Path,
        *,
        stamp: str | None = None,
        trace=None,
    ):
        self.root = Path(root)
        self.stamp = stamp if stamp is not None else toolchain_stamp()
        self.stats = CacheStats()
        #: Optional :class:`repro.obs.trace.TraceLog`; read errors and
        #: quarantines emit instant events on it.
        self.trace = trace

    def key(self, payload) -> str:
        """Digest of a JSON-serializable payload under the current stamp."""
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(
            self.stamp.encode() + b"\0" + canonical.encode()
        ).hexdigest()

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / key[2:]

    def _event(self, name: str, **args) -> None:
        if self.trace is not None:
            self.trace.event(name, cat="cache", **args)

    def get(self, kind: str, key: str) -> bytes | None:
        """The stored bytes, or None; records a hit, miss, or error.

        An absent entry (ENOENT) is a miss.  Any other ``OSError`` —
        permissions, I/O faults, a directory where a file should be —
        is counted in ``stats.errors`` and traced, *not* silently
        reported as cold-cache behavior.  An entry whose envelope fails
        verification (torn write from a pre-fix cache, bit rot) is
        deleted and reported as a miss, so one bad entry costs one
        rebuild instead of poisoning every future read.
        """
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            if exc.errno == errno.ENOENT:
                self.stats.miss(kind)
                self._event("cache.miss", kind=kind, key=key)
                return None
            self.stats.error(kind)
            self._event(
                "cache.error",
                kind=kind,
                key=key,
                errno=exc.errno,
                error=str(exc),
            )
            return None
        data = _decode_entry(blob)
        if data is None:
            try:
                os.unlink(path)
            except OSError:
                pass
            self.stats.miss(kind)
            self.stats.quarantine(kind)
            self._event("cache.quarantine", kind=kind, key=key, size=len(blob))
            return None
        self.stats.hit(kind)
        self._event("cache.hit", kind=kind, key=key, size=len(data))
        return data

    def put(self, kind: str, key: str, data: bytes) -> None:
        """Store bytes under (kind, key), atomically and durably.

        The envelope is written to a temp file which is fsynced
        *before* the rename publishes it, and the parent directory is
        fsynced after, so a crash at any point leaves either no entry
        or the complete entry — never a truncated one.
        """
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_encode_entry(data))
                _fsync_file(handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)

    def contains(self, kind: str, key: str) -> bool:
        """Presence check that does not touch the hit/miss counters."""
        return self._path(kind, key).exists()


class SingleFlight:
    """Coalesce concurrent computations of the same content key.

    While a computation for ``key`` is in flight, every further caller
    joins it instead of starting a duplicate: the first caller (the
    *leader*) runs the thunk; the rest (*followers*) wait on a shared
    future and receive the leader's result — or its exception.  This is
    the dedup layer the toolchain daemon puts in front of the disk
    cache: N identical in-flight requests cost one build.

    The flight registry is thread-safe, and the futures are
    ``concurrent.futures.Future`` objects, so followers may wait from
    plain threads (``Future.result``) or from an event loop
    (``asyncio.wrap_future``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, concurrent.futures.Future] = {}
        self.started = 0  # flights opened (leaders)
        self.coalesced = 0  # callers who joined an existing flight

    def begin(self, key: str) -> tuple[bool, concurrent.futures.Future]:
        """Open or join the flight for ``key``: ``(is_leader, future)``.

        A leader must settle the returned future with :meth:`finish` or
        :meth:`fail` (``do`` packages this discipline for synchronous
        callers); followers just wait on it.
        """
        with self._lock:
            future = self._flights.get(key)
            if future is not None:
                self.coalesced += 1
                return False, future
            future = concurrent.futures.Future()
            self._flights[key] = future
            self.started += 1
            return True, future

    def _settle(self, key: str) -> None:
        with self._lock:
            self._flights.pop(key, None)

    def finish(self, key: str, future: concurrent.futures.Future, value) -> None:
        """Publish the leader's result and close the flight."""
        self._settle(key)
        future.set_result(value)

    def fail(self, key: str, future: concurrent.futures.Future, exc: BaseException) -> None:
        """Propagate the leader's failure to every follower."""
        self._settle(key)
        future.set_exception(exc)

    def do(self, key: str, thunk) -> tuple[object, bool]:
        """Run ``thunk`` once per concurrent ``key``: ``(value, led)``.

        ``led`` is True when this caller actually executed the thunk,
        False when the value came from another caller's flight.
        """
        leader, future = self.begin(key)
        if not leader:
            return future.result(), False
        try:
            value = thunk()
        except BaseException as exc:
            self.fail(key, future, exc)
            raise
        self.finish(key, future, value)
        return value, True


#: Process-wide default flight registry behind :func:`single_flight`.
_FLIGHTS = SingleFlight()


def single_flight(key: str, thunk) -> tuple[object, bool]:
    """Coalesce concurrent ``thunk`` runs for ``key`` process-wide.

    Returns ``(value, led)`` — see :meth:`SingleFlight.do`.
    """
    return _FLIGHTS.do(key, thunk)
