"""Disk-persistent count cache keyed on canonical CNF signatures.

:meth:`repro.logic.cnf.CNF.signature` is a canonical, machine-independent
identity of a counting problem (packed variable order, order-insensitive
clause bitmask set, projection), so a count computed once is valid forever,
anywhere.  :class:`CountStore` spills the :class:`CountingEngine`'s count
memo to a small sqlite database under a cache directory: a table re-run in
a fresh process warms itself from disk and performs zero backend counts.

Keys are the SHA-256 hex digest of a canonical JSON rendering of the
signature (:func:`signature_key`); values are the counts rendered as
decimal strings, because projected model counts are arbitrary-precision
integers far beyond sqlite's 64-bit INTEGER range (2^{n²} spaces).

The store is a *cache*, so it degrades rather than fails: a corrupted
database file is rotated aside and recreated, and a corrupted row (text
that does not parse back to an int) reads as a miss and is overwritten by
the recount.  Every such degradation — rotation at open, unreadable row,
failed read, swallowed write — increments the store's ``degradations``
counter, which :class:`~repro.counting.engine.CountingEngine` surfaces as
``EngineStats.store_degradations``: silent self-repair stays silent in the
hot path but visible in telemetry.  The ``store-read-corrupt`` and
``store-disk-full`` points of :mod:`repro.counting.faults` hook the read
and write paths so chaos tests can drive these handlers on demand.

:class:`BlobStore` is the sibling cache for *compilation* memos: grounded
property translations (:class:`repro.spec.translate.RelationalProblem`)
and decision-tree region CNFs are pure functions of their structural keys
too, so the engine pickles them into a second database under the same
cache directory and a fresh process warms its translate/region memos from
disk the way whole counts already do.  Unlike counts, compilations are
backend-independent, so the blob store is active for *any* backend.

:class:`ComponentStore` is the third tier: the disk spill of the exact
counter's :class:`~repro.counting.component_cache.ComponentCache`.  Its
keys are *component* keys — packed clause sets plus a projection mask, or
the ``("elim", …)``-tagged elimination memos — whose values are pure
functions of the key, so a spilled entry read back in a later session is
bit-identical to a cold recount by construction.  Entries arrive on LRU
eviction and at engine close; misses of the in-memory cache consult this
store before declaring a component cold (see
:meth:`ComponentCache.get`).  Because the in-memory miss path is the
counter's hottest loop, the store keeps the set of present key digests in
memory: a miss against an absent key costs one digest + one set probe,
never a query.

All tiers share one implementation, :class:`_SqliteStore`: a subclass is a
file name, a table name, a value codec and a buffering policy — the WAL
discipline, rotation, degradation accounting and buffer semantics are
written once.

Write path.  The database runs in WAL mode (readers of other processes are
not blocked by a writer mid-table, and commits are one sequential append),
and single ``put`` calls are *buffered*: they land in an in-memory pending
map and reach sqlite in one transaction per :data:`AUTOFLUSH_PUTS` puts —
an engine counting through ``count()`` row by row no longer pays one
commit (an fsync!) per count.  Reads observe the buffer, so a put is
always visible to its own process; ``flush()``/``close()`` force the disk
write.  The buffer is the cache trade-off: a process killed before a flush
loses at most the last ``AUTOFLUSH_PUTS`` single puts (``put_many`` — the
batch path — flushes through in its own transaction immediately).  Tiers
whose values are few and large (compilation memos) set their buffer depth
to 1 and write through, one transaction per put.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.counting import faults

#: File name of the sqlite database inside the cache directory.
STORE_FILENAME = "counts.sqlite"

#: File name of the compilation-memo database inside the cache directory.
BLOB_STORE_FILENAME = "memos.sqlite"

#: File name of the component-cache spill database inside the cache directory.
COMPONENT_STORE_FILENAME = "components.sqlite"

#: Single ``put`` calls buffered before one transaction writes them out.
AUTOFLUSH_PUTS = 256


def _open_cache_db(path: Path, schema: str) -> sqlite3.Connection:
    """Open a cache database with the discipline every disk tier shares.

    WAL keeps concurrent readers (other engines sharing the cache_dir)
    unblocked during writes; NORMAL sync is plenty for caches that can
    always be recomputed.  The pragmas are best-effort on a *valid*
    database — some filesystems refuse WAL and the rollback journal is
    fine — but "file is not a database" must escape so the caller can
    rotate the wreck aside.

    ``check_same_thread=False``: a multi-threaded caller may construct
    its engine on one thread and solve on others, and the engine
    serializes every store access under its solve lock — sqlite's
    per-thread affinity check would turn each cross-thread read into a
    spurious degradation.
    """
    connection = sqlite3.connect(path, check_same_thread=False)
    try:
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.DatabaseError:
            pass
        connection.execute(schema)
        connection.commit()
        return connection
    except sqlite3.DatabaseError:
        connection.close()
        raise


def _connect_or_rotate(path: Path, schema: str) -> tuple[sqlite3.Connection, bool]:
    """Open ``path``, rotating a corrupt file aside and starting fresh.

    The degrade-don't-fail half of the shared discipline: a cache is
    disposable, so a truncated write, bit rot or a foreign file must
    never crash the owning engine's construction — the wreck is moved to
    ``<name>.corrupt`` (or deleted when even that fails) and an empty
    database takes its place.  Returns ``(connection, rotated)`` so the
    owning store can count the rotation as a degradation.
    """
    try:
        return _open_cache_db(path, schema), False
    except sqlite3.DatabaseError:
        corrupt = path.with_suffix(path.suffix + ".corrupt")
        try:
            os.replace(path, corrupt)
        except OSError:
            path.unlink(missing_ok=True)
        return _open_cache_db(path, schema), True


def _fault_read() -> None:
    """The ``store-read-corrupt`` injection point (no-op unless armed)."""
    if faults.active("store-read-corrupt"):
        raise sqlite3.DatabaseError("injected: database disk image is malformed")


def _fault_write() -> None:
    """The ``store-disk-full`` injection point (no-op unless armed)."""
    if faults.active("store-disk-full"):
        raise sqlite3.OperationalError("injected: database or disk is full")


def _canonical(obj):
    """Render signature components as JSON-stable nested lists.

    Signatures mix tuples, frozensets of (arbitrary-precision) ints and the
    ``("all", num_vars)`` marker; sets are sorted so the rendering does not
    depend on Python hash order.
    """
    if isinstance(obj, (frozenset, set)):
        return ["set", sorted(_canonical(item) for item in obj)]
    if isinstance(obj, (tuple, list)):
        return [_canonical(item) for item in obj]
    return obj


def signature_key(signature: tuple) -> str:
    """Stable hex key for a :meth:`CNF.signature` value.

    Canonical across processes, platforms and sessions: the signature is
    rendered to sorted JSON and hashed with SHA-256.
    """
    payload = json.dumps(_canonical(signature), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def text_key(*parts: object) -> str:
    """Stable hex key for a tuple of repr-able components.

    Compilation memos (translations, tree regions) are keyed on the
    deterministic ``repr`` of frozen-dataclass structures — property ASTs,
    tree paths — so two structurally equal inputs share a key across
    processes while same-named-but-different ones never collide.
    """
    payload = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def component_key_digest(key) -> str:
    """Stable hex digest of a component-cache key.

    Component keys are ``(frozenset of (pos, neg) mask clauses, proj)``
    pairs, optionally tagged ``("elim", clauses, proj)``.  A frozenset's
    iteration order is an implementation detail, so the clauses are sorted
    before hashing; the masks are arbitrary-precision ints whose ``repr``
    is already canonical.  Plain and tagged keys over the same clauses get
    distinct digests via the tag prefix.
    """
    if len(key) == 2:
        tag, clauses, proj = "", key[0], key[1]
    else:
        tag, clauses, proj = key[0], key[1], key[2]
    payload = f"{tag}\x1f{proj}\x1f{sorted(clauses)!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Absent-value sentinel for the stores' buffer probes.
_MISSING = object()


class _SqliteStore:
    """Shared machinery of the disk tiers: one sqlite cache discipline.

    Every tier is a ``key TEXT -> value`` table under ``cache_dir`` with
    the same contract — WAL + NORMAL sync at open, corrupt-file rotation,
    puts buffered into one transaction per ``AUTOFLUSH`` calls, reads that
    observe the buffer, and degrade-don't-fail semantics with every
    self-repair event counted in ``degradations``.  A subclass declares
    ``FILENAME``/``TABLE``/``VALUE_TYPE``, the value codec
    (:meth:`_encode`/:meth:`_decode`) and its buffer depth (``AUTOFLUSH``;
    1 is write-through, one transaction per put), and may hook
    :meth:`_drop_unencodable`/:meth:`_flush_failed` to keep auxiliary
    indexes consistent with what actually landed on disk.
    """

    FILENAME: str = ""
    TABLE: str = ""
    VALUE_TYPE: str = "TEXT"
    #: Puts buffered before one transaction writes them out (1 = write-through).
    AUTOFLUSH: int = AUTOFLUSH_PUTS

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / self.FILENAME
        self._pending: dict[str, object] = {}
        #: Self-repair events absorbed so far (rotations, corrupt rows,
        #: failed reads, swallowed writes) — mirrored into EngineStats.
        self.degradations = 0
        self._connection = self._connect()

    # -- connection handling ---------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        schema = (
            f"CREATE TABLE IF NOT EXISTS {self.TABLE} "
            f"(key TEXT PRIMARY KEY, value {self.VALUE_TYPE} NOT NULL)"
        )
        connection, rotated = _connect_or_rotate(self.path, schema)
        if rotated:
            self.degradations += 1
        return connection

    def close(self) -> None:
        if self._connection is not None:
            self.flush()
            self._connection.close()
            self._connection = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- value codec -----------------------------------------------------------------

    def _encode(self, value):
        """``value`` as the sqlite cell; raise to drop the row instead."""
        raise NotImplementedError

    def _decode(self, raw):
        """The sqlite cell back as a value; raise to read as a corrupt miss."""
        raise NotImplementedError

    def _drop_unencodable(self, key: str) -> None:
        """Hook: ``key``'s value refused to encode and will never be written."""

    def _flush_failed(self, rows: list[tuple]) -> None:
        """Hook: ``rows`` were attempted but the whole transaction was swallowed."""

    # -- reads -----------------------------------------------------------------------

    def get(self, key: str):
        """The stored value for ``key``, or None (missing or unreadable)."""
        if self._connection is None:
            return None
        pending = self._pending.get(key, _MISSING)
        if pending is not _MISSING:
            return pending  # buffered puts are newer than any row
        try:
            _fault_read()
            row = self._connection.execute(
                f"SELECT value FROM {self.TABLE} WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError:
            self.degradations += 1
            return None
        if row is None:
            return None
        try:
            return self._decode(row[0])
        except Exception:
            self.degradations += 1
            return None  # unreadable row: a miss, the recompute repairs it

    # -- writes ----------------------------------------------------------------------

    def put(self, key: str, value) -> None:
        """Record one entry; buffered — written out every ``AUTOFLUSH`` puts."""
        if self._connection is None:
            return  # closed store: a cache accepts and drops the write
        self._pending[key] = value
        if len(self._pending) >= self.AUTOFLUSH:
            self.flush()

    def flush(self) -> None:
        """Write the buffered puts to sqlite in one transaction."""
        if self._connection is None:
            self._pending.clear()  # nothing can ever drain a closed buffer
            return
        if not self._pending:
            return
        rows = []
        for key, value in self._pending.items():
            try:
                raw = self._encode(value)
            except Exception:
                self._drop_unencodable(key)  # unencodable: simply not persisted
            else:
                rows.append((key, raw))
        if rows:
            try:
                _fault_write()
                self._connection.executemany(
                    f"INSERT OR REPLACE INTO {self.TABLE} (key, value) VALUES (?, ?)",
                    rows,
                )
                self._connection.commit()
            except sqlite3.DatabaseError:
                # A cache write failure must never break counting.
                self.degradations += 1
                self._flush_failed(rows)
        # Dropped even on failure: a cache entry is always recomputable, and
        # keeping a poisoned buffer would re-fail every later flush.
        self._pending.clear()

    # -- maintenance -----------------------------------------------------------------

    def __len__(self) -> int:
        if self._connection is None:
            return 0
        self.flush()
        try:
            (total,) = self._connection.execute(
                f"SELECT COUNT(*) FROM {self.TABLE}"
            ).fetchone()
            return int(total)
        except sqlite3.DatabaseError:
            return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(path={str(self.path)!r}, entries={len(self)})"


class CountStore(_SqliteStore):
    """Persistent ``signature key -> model count`` map under ``cache_dir``.

    Parameters
    ----------
    cache_dir:
        Directory holding the database (created if missing).  Distinct
        engines and sessions pointing at the same directory share counts.
    """

    FILENAME = STORE_FILENAME
    TABLE = "counts"
    VALUE_TYPE = "TEXT"

    def _encode(self, value) -> str:
        return str(value)

    def _decode(self, raw) -> int:
        return int(raw)

    # -- reads -----------------------------------------------------------------------

    def get(self, key: str) -> int | None:
        """The stored count for ``key``, or None (missing or unreadable)."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: Sequence[str]) -> dict[str, int]:
        """Batch lookup; unreadable rows are simply absent from the result."""
        keys = list(keys)
        if not keys or self._connection is None:
            return {}
        found: dict[str, int] = {}
        pending = self._pending
        if pending:
            # Buffered puts are newer than any row, so they win.
            for key in keys:
                value = pending.get(key)
                if value is not None:
                    found[key] = value
            keys = [key for key in keys if key not in found]
            if not keys:
                return found
        try:
            _fault_read()
            placeholders = ",".join("?" for _ in keys)
            rows = self._connection.execute(
                f"SELECT key, value FROM counts WHERE key IN ({placeholders})",
                keys,
            ).fetchall()
        except sqlite3.DatabaseError:
            self.degradations += 1
            return found
        for key, value in rows:
            try:
                found[key] = int(value)
            except (TypeError, ValueError):
                self.degradations += 1
                continue  # corrupted row: treat as a miss, recount repairs it
        return found

    # -- writes ----------------------------------------------------------------------

    def put_many(self, items: Iterable[tuple[str, int]]) -> None:
        """Insert or overwrite counts in one transaction (with the buffer)."""
        if self._connection is None:
            return
        self._pending.update(items)
        self.flush()

    # -- maintenance -----------------------------------------------------------------

    def clear(self) -> None:
        """Delete every stored count (the file itself is kept)."""
        self._pending.clear()
        if self._connection is None:
            return
        try:
            self._connection.execute("DELETE FROM counts")
            self._connection.commit()
        except sqlite3.DatabaseError:
            pass


class BlobStore(_SqliteStore):
    """Persistent ``key -> pickled object`` map under ``cache_dir``.

    The compilation sibling of :class:`CountStore`: same degrade-don't-fail
    contract (corrupted files rotate aside, unreadable or unpicklable rows
    read as misses and are overwritten by the recompute), same sqlite WAL
    write path, but values are pickles of arbitrary Python objects —
    :class:`~repro.spec.translate.RelationalProblem` compilations and
    region :class:`~repro.logic.cnf.CNF`\\ s, all of which pickle cleanly.
    Compilations are few and large, so the store writes through: one
    transaction per put, nothing to lose on a crash.
    """

    FILENAME = BLOB_STORE_FILENAME
    TABLE = "blobs"
    VALUE_TYPE = "BLOB"
    AUTOFLUSH = 1  # write-through: one transaction per put

    def _encode(self, value) -> sqlite3.Binary:
        return sqlite3.Binary(pickle.dumps(value))

    def _decode(self, raw):
        return pickle.loads(raw)


class ComponentStore(_SqliteStore):
    """Persistent ``component key -> cached value`` map under ``cache_dir``.

    The disk-spill tier of :class:`~repro.counting.component_cache.ComponentCache`:
    values are model counts (ints), memoized elimination results (tuples of
    mask clauses) or the ``"unsat"`` marker, stored as pickles.  The
    degrade-don't-fail contract matches :class:`CountStore` — a corrupted
    database file rotates aside at open, an unreadable row reads as a miss
    — and so does the write path (WAL, NORMAL sync, one transaction per
    :data:`AUTOFLUSH_PUTS` buffered puts).

    The set of present key digests is held in memory (loaded once at open,
    maintained by ``put``): the caller probes misses out of the counter's
    hottest loop, so an absent key must never cost a query.
    """

    FILENAME = COMPONENT_STORE_FILENAME
    TABLE = "components"
    VALUE_TYPE = "BLOB"

    def __init__(self, cache_dir: str | Path) -> None:
        super().__init__(cache_dir)
        self._keys: set[str] = self._load_keys()

    def _load_keys(self) -> set[str]:
        try:
            rows = self._connection.execute("SELECT key FROM components")
            return {row[0] for row in rows}
        except sqlite3.DatabaseError:
            return set()

    def _encode(self, value) -> sqlite3.Binary:
        return sqlite3.Binary(pickle.dumps(value))

    def _decode(self, raw):
        return pickle.loads(raw)

    def _drop_unencodable(self, digest: str) -> None:
        self._keys.discard(digest)  # unpicklable: simply not spilled

    def _flush_failed(self, rows: list[tuple]) -> None:
        # The digests of rows that never landed must not stay "known", or
        # put()'s dedup would block every later re-spill attempt.
        for digest, _ in rows:
            self._keys.discard(digest)

    # -- reads -----------------------------------------------------------------------

    def get(self, key):
        """The spilled value for component ``key``, or None.

        Returns None without touching sqlite when the key is known absent
        (the digest-set probe), and on any unreadable/unpicklable row.  A
        missing or corrupt row also drops its digest from the known set —
        ``put`` dedups on that set, so keeping the digest would block the
        recount's re-spill and make the corruption permanent.
        """
        if self._connection is None or not self._keys:
            return None
        digest = component_key_digest(key)
        pending = self._pending.get(digest, _MISSING)
        if pending is not _MISSING:
            return pending
        if digest not in self._keys:
            return None
        try:
            _fault_read()
            row = self._connection.execute(
                "SELECT value FROM components WHERE key = ?", (digest,)
            ).fetchone()
        except sqlite3.DatabaseError:
            self.degradations += 1
            return None  # transient read failure: keep the digest
        if row is None:
            self._keys.discard(digest)  # lost row: let a re-spill repair it
            self.degradations += 1
            return None
        try:
            return pickle.loads(row[0])
        except Exception:
            self._keys.discard(digest)  # corrupt row: let a re-spill repair it
            self.degradations += 1
            return None

    # -- writes ----------------------------------------------------------------------

    def put(self, key, value) -> None:
        """Spill one entry; buffered — written out every AUTOFLUSH_PUTS.

        Values are pure functions of their keys, so a key already present
        (on disk or in the buffer) is never re-stored.
        """
        if self._connection is None:
            return  # closed store: a cache accepts and drops the write
        digest = component_key_digest(key)
        if digest in self._keys:
            return
        self._keys.add(digest)
        self._pending[digest] = value
        if len(self._pending) >= self.AUTOFLUSH:
            self.flush()

    # -- maintenance -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)
