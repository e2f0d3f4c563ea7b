"""Bounded LRU cache of counted components, shared across counting calls.

The exact counter's component cache used to be per-``count()`` state: every
call started cold and re-counted components it had already solved in the
previous call.  MCML's workloads make that expensive — AccMC/DiffMC conjoin
the *same* property CNF with many different tree regions, so the residual
search revisits thousands of identical components across calls (component
caching is the defining optimisation of the sharpSAT lineage, and cross-call
reuse is its natural extension once an engine owns the batch).

:class:`ComponentCache` lifts that cache out of per-call state:

* entries map a component key — ``(frozenset of (pos_mask, neg_mask)
  clauses, projection mask)`` in the component's packed variable space — to
  its projected model count; keys tagged ``("elim", clauses, proj)`` map
  the counter's top-level auxiliary-elimination input to its output
  instead (same-φ conjunctions share that work wholesale, because clauses
  inside the projection can never contain an elimination pivot).  Either
  value is a *pure function* of its key, so sharing entries across calls,
  problems and engines is sound by construction: a warm hit is
  bit-identical to a cold recount;
* the cache is bounded: a byte budget (estimated — see :func:`entry_cost`)
  and/or an entry budget, evicting least-recently-used entries first;
* it can *spill to disk*: with a
  :class:`~repro.counting.store.ComponentStore` attached
  (:meth:`attach_spill`), LRU-evicted entries are persisted instead of
  dropped, in-memory misses consult the store before declaring a component
  cold (promoting hits back to memory), and :meth:`spill_all` persists the
  live entries wholesale — which is how an engine's ``close()`` makes a
  φ's component work survive restarts the way whole counts already do.
  Because every value is a pure function of its key, a promoted entry is
  bit-identical to a cold recount.

Thread-safety: none — the cache is meant to be owned by one counter in
one process; the spill tier is what carries its work across processes.
"""

from __future__ import annotations

from collections import OrderedDict

#: Default byte budget for a cache built without explicit caps.  Sized so a
#: full AccMC training-ratio sweep at scope 4 runs eviction-free (~380 MiB
#: by the estimate below, which is an upper bound on what the entries
#: hold).  Overflow is graceful: LRU churn degrades toward per-call-cache
#: performance, never below it by more than a few percent.
DEFAULT_MAX_BYTES = 512 << 20

#: A cached component: packed clause set + projection mask.
ComponentKey = tuple[frozenset, int]


def entry_cost(key: ComponentKey, value) -> int:
    """Estimated bytes held by one cache entry.

    An estimate, not an audit: per clause we charge the tuple header plus
    two arbitrary-precision ints of roughly the component's width (taken
    from an arbitrary member clause — components are packed dense, so any
    clause's span is a fair proxy), plus frozenset/dict slot overhead.
    Values are model counts (ints) or memoized elimination results (tuples
    of mask clauses — see ``ExactCounter``'s top-level elimination memo).

    It is an upper bound: keys share the clause tuples the counter leaves
    unchanged, and each clause is charged once per key holding it.  At the
    end of one perfbench ``whole_space`` round the estimate read 47.6 MiB
    against 30.5 MiB of distinct objects held, the entry map included
    (46.6 MiB when every key held its own copies).
    """
    clauses, proj = _key_clauses(key)
    width = proj.bit_length()
    for pos, neg in clauses:
        width = max(width, (pos | neg).bit_length())
        break  # one sample clause is enough for an estimate
    per_clause = 120 + (width >> 2)
    cost = 200 + len(clauses) * per_clause
    if isinstance(value, int):
        return cost + (value.bit_length() >> 3)
    return cost + len(value) * per_clause  # an eliminated clause tuple


def _key_clauses(key) -> ComponentKey:
    """The ``(clauses, proj)`` pair of a plain or tagged (``("elim", …)``) key."""
    if len(key) == 2:
        return key
    return key[1], key[2]


class ComponentCache:
    """Bounded LRU ``component key -> projected model count`` map.

    Parameters
    ----------
    max_bytes:
        Approximate byte budget (see :func:`entry_cost`); ``None`` disables
        the byte cap.  Defaults to :data:`DEFAULT_MAX_BYTES`.
    max_entries:
        Entry-count budget; ``None`` (default) disables it.  When both caps
        are set, exceeding either evicts.
    """

    __slots__ = (
        "max_bytes",
        "max_entries",
        "_data",
        "_bytes",
        "_spill",
        "hits",
        "misses",
        "evictions",
        "spill_hits",
        "spills",
    )

    def __init__(
        self,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        max_entries: int | None = None,
    ) -> None:
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._data: OrderedDict[ComponentKey, int] = OrderedDict()
        self._bytes = 0
        self._spill = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spill_hits = 0
        self.spills = 0

    # -- the hot-path pair ------------------------------------------------------------

    def get(self, key: ComponentKey) -> int | None:
        """The cached count for ``key`` (refreshing its recency), or None.

        With a spill store attached, an in-memory miss consults the disk
        tier before declaring the component cold; a disk hit is promoted
        back into memory (as the most-recent entry, possibly evicting —
        and hence re-spilling — colder ones).
        """
        value = self._data.get(key)
        if value is None:
            spill = self._spill
            if spill is not None:
                value = spill.get(key)
                if value is not None:
                    self.spill_hits += 1
                    self.put(key, value)
                    return value
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: ComponentKey, value: int) -> None:
        """Insert ``key -> value``, evicting LRU entries past the caps.

        With a spill store attached, evicted entries are persisted to disk
        instead of dropped (the store dedups re-spills of keys it already
        holds).
        """
        data = self._data
        if key in data:
            data.move_to_end(key)
            return  # counts are pure functions of the key: never re-stored
        data[key] = value
        self._bytes += entry_cost(key, value)
        max_bytes, max_entries = self.max_bytes, self.max_entries
        spill = self._spill
        while (max_bytes is not None and self._bytes > max_bytes and data) or (
            max_entries is not None and len(data) > max_entries
        ):
            old_key, old_value = data.popitem(last=False)
            self._bytes -= entry_cost(old_key, old_value)
            self.evictions += 1
            if spill is not None:
                spill.put(old_key, old_value)
                self.spills += 1

    # -- the disk tier ----------------------------------------------------------------

    def attach_spill(self, store) -> None:
        """Attach a :class:`~repro.counting.store.ComponentStore` spill tier.

        Evictions spill to ``store`` from now on and misses consult it;
        ``None`` detaches (in-memory-only behaviour).
        """
        self._spill = store

    @property
    def spill(self):
        """The attached spill store, or None."""
        return self._spill

    def spill_all(self) -> int:
        """Persist every live in-memory entry to the spill store.

        Called at engine close so a clean shutdown — not just eviction
        pressure — leaves the component work on disk for the next session.
        Returns the number of entries offered to the store (which dedups
        keys it already holds) — 0 when no store is attached.
        """
        spill = self._spill
        if spill is None:
            return 0
        for key, value in self._data.items():
            spill.put(key, value)
        spill.flush()
        return len(self._data)

    # -- maintenance ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop the in-memory entries (an attached spill store is kept)."""
        self._data.clear()
        self._bytes = 0

    def approximate_bytes(self) -> int:
        """The estimated byte footprint the eviction loop works against."""
        return self._bytes

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._data),
            "approx_bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "spill_hits": self.spill_hits,
            "spills": self.spills,
            "spill_degradations": (
                getattr(self._spill, "degradations", 0) if self._spill is not None else 0
            ),
        }

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: ComponentKey) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        cap = "unbounded" if self.max_bytes is None else f"{self.max_bytes >> 20}MiB"
        spill = ", spill" if self._spill is not None else ""
        return (
            f"ComponentCache(entries={len(self._data)}, cap={cap}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}{spill})"
        )
