"""CountingEngine: a shared, memoizing counting front door.

Every MCML metric is a handful of projected model-counting calls, and the
experiment drivers repeat large parts of the work across rows: the same
ground-truth translation at every training ratio, the same symmetry-space
CNF for all sixteen properties of a table, the same tree regions when a
model is evaluated twice.  The engine makes that reuse automatic, within a
process and across sessions:

* ``solve`` / ``solve_many`` are the typed front door: they take CNFs
  and return :class:`~repro.counting.api.CountResult` objects carrying
  the count plus provenance — exactness, backend name, wall time, which
  tier answered (memo, disk store or backend), and the
  :class:`~repro.counting.api.EngineStats` delta the call caused;
* results are memoized keyed on the CNF's canonical packed signature
  (:meth:`repro.logic.cnf.CNF.signature`), so a cache hit is bit-identical
  to the cold call by construction;
* with ``cache_dir`` set the count memo is backed by a
  disk-persistent :class:`repro.counting.store.CountStore` and the
  *compilation* memos (translations, tree regions) by a
  :class:`repro.counting.store.BlobStore`, so a table re-run in a fresh
  process performs zero backend counts and zero recompilations;
* every ``solve_many`` batch runs one chain over its problems, one item
  per problem: memo → count store → backend.
  Duplicates inside the batch collapse onto one count, and each tier
  sees only what the tiers before it left cold;
* a backend declaring ``owns_component_cache`` counts every problem
  through its own bounded LRU
  :class:`repro.counting.component_cache.ComponentCache`
  (``engine.component_cache``), so the *sub-problems* of different
  counting calls share work too; with ``cache_dir`` configured that cache
  additionally *spills to disk*: evictions and ``close()`` persist entries
  into a :class:`repro.counting.store.ComponentStore` and misses consult
  it before recounting, so component work survives engine restarts;
* failures are *typed and contained*: the backend's own limits (its node
  budget and wall-clock deadline, set once by
  :func:`~repro.counting.api.make_counter`) bound every count, and an
  abort becomes a per-problem :class:`~repro.counting.api.CountFailure`
  outcome instead of a batch abort — completed counts always merge into
  the caches, and ``solve_many(..., on_failure="return")`` returns the
  failures in their batch positions (the default re-raises the first
  original exception);
* ``translate`` memoizes grounded-property compilations (property × scope ×
  symmetry × polarity), keyed on the property itself: a
  :class:`~repro.spec.properties.Property` hashes and compares
  structurally, so two distinct properties sharing a name never collide;
* ``ground_truth`` memoizes the :class:`repro.core.accmc.GroundTruth`
  objects built on those translations;
* ``region`` memoizes decision-tree label-region CNFs keyed on the paths.

Routing decisions — disk persistence, the component cache and its spill —
are negotiated purely through the backend's declared
:class:`~repro.counting.api.Capabilities` (``engine.capabilities``); the
engine never sniffs attributes.  The two backends build by name via
:func:`repro.counting.api.make_counter`, and any object with a ``name``,
``capabilities`` and ``count`` serves too; the wrapped backend itself is
``engine.counter`` and its declared name ``engine.backend_name``.  One
engine is meant to be shared across every ``AccMC``, ``DiffMC`` and
pipeline in a process — or owned by one
:class:`repro.core.session.MCMLSession`, the facade over the whole
pipeline; ``clear()`` resets the in-memory memos (the disk stores, if any,
survive — that is their point).
"""

from __future__ import annotations

import threading
import time
import weakref
from pathlib import Path

from repro.counting.api import Capabilities, CountFailure, CountResult, EngineStats
from repro.counting.component_cache import ComponentCache
from repro.counting.store import (
    BlobStore,
    ComponentStore,
    CountStore,
    signature_key,
    text_key,
)
from repro.logic.cnf import CNF


class CountingEngine:
    """Memoizing, optionally disk-backed counting front door.

    Parameters
    ----------
    counter:
        Any object satisfying :class:`repro.counting.api.CounterBackend`
        (default: :class:`repro.counting.exact.ExactCounter`); build one
        of the two backends by name with
        :func:`repro.counting.api.make_counter`.  Engines do not nest:
        passing an engine raises ``TypeError``.
    cache_dir:
        Directory for the disk-persistent caches.  ``None`` (default)
        disables persistence; any path makes counts *and compilations*
        survive (and warm) across processes and sessions.  Counts persist
        only for backends whose capabilities declare ``exact`` (estimates
        are not portable); compilations are backend-independent and
        persist for every backend.  The same directory holds the
        component cache's spill tier
        (:class:`~repro.counting.store.ComponentStore`): LRU evictions and
        ``close()`` persist entries, and a later engine's misses consult
        it before recounting — ``EngineStats.component_spill_hits``
        reports the promotions.
    """

    def __init__(self, counter=None, *, cache_dir: str | Path | None = None) -> None:
        if isinstance(counter, CountingEngine):
            raise TypeError(
                "CountingEngine wraps a backend, not another engine; "
                "share the engine itself instead"
            )
        from repro.counting.exact import ExactCounter

        self.counter = counter if counter is not None else ExactCounter()
        #: The backend's declared contract — the only thing routing reads.
        self.capabilities: Capabilities = self.counter.capabilities
        self.backend_name: str = self.counter.name
        caps = self.capabilities
        # Count persistence is reserved for exact backends: exact counts
        # are interchangeable across backends and sessions, whereas an
        # (ε, δ) estimate persisted to a shared cache_dir would silently
        # poison later exact runs.  Compilation memos carry no counts, so
        # they persist for every backend.
        self.store: CountStore | None = (
            CountStore(cache_dir) if cache_dir is not None and caps.exact else None
        )
        self.memo_store: BlobStore | None = (
            BlobStore(cache_dir) if cache_dir is not None else None
        )
        # The backend's own component cache, which every count of every
        # batch warms.  Like whole counts, its entries spill to disk only
        # for exact backends.
        self.component_cache: ComponentCache | None = (
            self.counter.component_cache
            if caps.exact and caps.owns_component_cache
            else None
        )
        # The spill tier needs a component cache to spill and a cache_dir
        # to spill into.  Attached to the cache, so evictions and
        # close-time spills both reach disk.
        self.component_store: ComponentStore | None = None
        if self.component_cache is not None and cache_dir is not None:
            self.component_store = ComponentStore(cache_dir)
            self.component_cache.attach_spill(self.component_store)
        self.stats = EngineStats()
        self._counts: dict[tuple, int] = {}
        self._translations: dict[tuple, object] = {}
        self._ground_truths: dict[tuple, object] = {}
        self._regions: dict[tuple, CNF] = {}
        #: The concurrency guard.  The engine (and the backend it wraps)
        #: is single-threaded by design — memo dicts, EngineStats and the
        #: backend's search state all assume one caller at a time.
        #: ``solve*`` and the compilation memos serialize on this
        #: reentrant lock so a multi-threaded caller gets bit-identical
        #: counts and consistent stats, never racing threads into one
        #: backend.
        self._lock = threading.RLock()
        self._mirror_tier_counters()

    # -- typed counting API ----------------------------------------------------------

    def solve(self, problem: CNF, *, on_failure: str = "raise") -> CountResult:
        """Solve one counting problem, returning the typed result."""
        return self.solve_many([problem], on_failure=on_failure)[0]

    def solve_many(self, problems, *, on_failure: str = "raise"):
        """Solve a batch of CNFs, reusing every cache layer.

        The whole batch runs one chain: the in-memory memo answers first
        (duplicates inside the batch collapse onto the first occurrence
        and report as memo hits), then the disk count store, then the
        backend, one cold problem after another.  New counts merge back
        into the memo and the disk store.  Each result records its provenance;
        ``stats_delta`` is the whole batch's telemetry movement (shared
        by the batch's results).

        Failure semantics.  A problem can fail without poisoning the
        batch: a node-budget exhaustion
        (:class:`~repro.counting.exact.CounterBudgetExceeded`) or a
        wall-clock deadline overrun
        (:class:`~repro.counting.exact.CounterTimeout`) produces a typed
        :class:`~repro.counting.api.CountFailure` for *that position* —
        every other problem still completes, and completed counts always
        reach the memo and the disk store (a retry resumes, it does not
        recount).  Each failed problem counts once in
        ``EngineStats.timeouts`` when it timed out.  The limits are the
        backend's own knobs, which bound each of its ``count()`` calls;
        a backend without a knob ignores that limit.  ``on_failure``
        selects what happens to the failures: ``"raise"`` (the default)
        re-raises the first failure's original exception after the batch
        completes; ``"return"`` returns the ``CountFailure`` objects in
        their batch positions alongside the successes.

        Thread safety.  ``solve``/``solve_many`` (and the compilation
        memos) serialize on the engine's internal
        reentrant lock: a multi-threaded caller gets bit-identical
        counts and consistent :class:`EngineStats`, never interleaved
        memo state.
        """
        with self._lock:
            return self._solve_many_locked(problems, on_failure)

    def _solve_many_locked(self, problems, on_failure: str):
        if on_failure not in ("raise", "return"):
            raise ValueError(
                f"on_failure must be 'raise' or 'return', got {on_failure!r}"
            )
        before = self.stats.copy()
        outcomes = self._answer(list(problems))
        self._mirror_tier_counters()
        delta = self.stats.delta_since(before)
        results: list[CountResult | CountFailure] = []
        primary: CountFailure | None = None
        for outcome in outcomes:
            if isinstance(outcome, CountFailure):
                if primary is None:
                    primary = outcome
            else:
                outcome = self._result(*outcome, delta)
            results.append(outcome)
        if primary is not None and on_failure == "raise":
            if primary.cause is not None:
                raise primary.cause from primary
            raise primary
        return results

    def _answer(self, cnfs: list[CNF]) -> list:
        """Answer a batch's problems: memo → store → backend.

        Returns one outcome per CNF: a ``(value, source,
        elapsed_seconds)`` record or a
        :class:`~repro.counting.api.CountFailure`.  Each CNF counts once
        in :class:`EngineStats`: as a memo hit (duplicates inside the
        batch included, which share the first occurrence's outcome), a
        store hit, a backend call or a failure.
        """
        from repro.counting.exact import CounterAbort

        stats = self.stats
        counts = self._counts
        outcomes: list = [None] * len(cnfs)
        #: cold key -> the batch positions it answers; the first position
        #: holds the CNF that gets counted
        positions: dict[tuple, list[int]] = {}
        cold: list[tuple] = []
        stats.count_calls += len(cnfs)
        for i, cnf in enumerate(cnfs):
            key = cnf.signature()
            value = counts.get(key)
            if value is not None:
                stats.count_hits += 1
                outcomes[i] = (value, "memo", 0.0)
                continue
            same = positions.get(key)
            if same is not None:
                # Duplicate of a colder batch member: one count will serve
                # both, exactly like a serial memo hit.
                stats.count_hits += 1
                same.append(i)
                continue
            positions[key] = [i]
            cold.append(key)

        missing = cold
        hashed: dict[tuple, str] = {}
        if self.store is not None and cold:
            hashed = {key: signature_key(key) for key in cold}
            found = self.store.get_many(list(hashed.values()))
            missing = []
            for key in cold:
                value = found.get(hashed[key])
                if value is None:
                    missing.append(key)
                    continue
                stats.store_hits += 1
                counts[key] = value
                record = (value, "store", 0.0)
                for i in positions[key]:
                    outcomes[i] = record

        completed: dict[tuple, tuple] = {}
        try:
            for key in missing:
                started = time.perf_counter()
                try:
                    value = self.counter.count(cnfs[positions[key][0]])
                except CounterAbort as exc:
                    # Budget/deadline aborts are per-problem outcomes, not
                    # batch aborts: record and keep counting — the rest of
                    # the batch is still worth paying for.
                    failure = CountFailure.from_exception(
                        exc,
                        backend=self.backend_name,
                        elapsed_seconds=time.perf_counter() - started,
                    )
                    if failure.kind == "timeout":
                        stats.timeouts += 1
                    for i in positions[key]:
                        outcomes[i] = failure
                    continue
                completed[key] = (value, "backend", time.perf_counter() - started)
        finally:
            # Merge whatever completed even when a later problem raised:
            # counts already paid for must reach the memo and the disk
            # store, so a retry resumes instead of re-counting from scratch.
            stats.backend_calls += len(completed)
            for key, record in completed.items():
                # An estimate is never memoized (the store exists only
                # for exact backends).
                if self.capabilities.exact:
                    counts[key] = record[0]
                for i in positions[key]:
                    outcomes[i] = record
            if completed and self.store is not None:
                self.store.put_many(
                    [(hashed[key], record[0]) for key, record in completed.items()]
                )
        return outcomes

    def _result(
        self, value: int, source: str, seconds: float, delta: EngineStats
    ) -> CountResult:
        """The typed result of one outcome record."""
        return CountResult(
            value=value,
            exact=self.capabilities.exact,
            backend=self.backend_name,
            source=source,
            elapsed_seconds=seconds,
            stats_delta=delta,
        )

    def _disk_tiers(self) -> list:
        return [
            store
            for store in (self.store, self.memo_store, self.component_store)
            if store is not None
        ]

    def _mirror_tier_counters(self) -> None:
        """Copy the counters the component cache and disk tiers keep.

        ``component_spill_hits`` and ``store_degradations`` are counted
        where they happen; :meth:`clear` resets them at their source.
        """
        if self.component_store is not None:
            self.stats.component_spill_hits = self.component_cache.spill_hits
        self.stats.store_degradations = sum(
            store.degradations for store in self._disk_tiers()
        )

    # -- compilation memos -----------------------------------------------------------

    def translate(self, prop, scope: int, symmetry=None, negate: bool = False):
        """Memoized grounded-property compilation (see :func:`repro.spec.translate`).

        With ``cache_dir`` configured the compilation is also persisted:
        a fresh process warms its translation memo from disk instead of
        re-grounding and re-Tseitin-ing the property.
        """
        from repro.spec.translate import translate

        kind = symmetry.kind if symmetry is not None else None
        return self._compilation(
            "translate",
            self._translations,
            (prop, scope, kind, negate),
            lambda: translate(prop, scope, symmetry=symmetry, negate=negate),
        )

    def ground_truth(self, prop, scope: int, symmetry=None):
        """Memoized compiled ground truth for AccMC evaluation.

        The ground truth compiles through this engine's ``translate``
        while the engine lives, by a weak reference: the engine holds its
        ground truths, so a bound method would be a reference cycle
        keeping a dropped engine, its counter and their component cache
        alive until the collector's next full pass.  Translations are
        pure, so one that outlives its engine compiles through
        :func:`repro.spec.translate.translate` to the same problem.
        """
        from repro.core.accmc import GroundTruth
        from repro.spec.translate import translate

        key = (prop, scope, symmetry.kind if symmetry is not None else None)
        with self._lock:
            cached = self._ground_truths.get(key)
            if cached is None:
                engine_translate = weakref.WeakMethod(self.translate)

                def translator(*args, **kwargs):
                    return (engine_translate() or translate)(*args, **kwargs)

                cached = GroundTruth(
                    prop, scope, symmetry=symmetry, translator=translator
                )
                self._ground_truths[key] = cached
            return cached

    def region(self, paths, label: int, num_features: int) -> CNF:
        """Memoized decision-tree label-region CNF (see ``label_region_cnf``).

        Region compilations persist to the ``cache_dir`` memo store like
        translations do.
        """
        from repro.core.tree2cnf import label_region_cnf

        return self._compilation(
            "region",
            self._regions,
            (tuple(paths), label, num_features),
            lambda: label_region_cnf(paths, label, num_features),
        )

    def _compilation(self, kind: str, memo: dict, key: tuple, build):
        """One compilation memo: in-process dict → memo store → ``build()``.

        ``kind`` names the :class:`EngineStats` counters it moves
        (``{kind}_calls``, ``{kind}_hits``, ``{kind}_store_hits``) and
        prefixes the memo-store key, which is the
        :func:`~repro.counting.store.text_key` of ``(kind, *key)``.
        """
        with self._lock:
            counters = vars(self.stats)
            counters[f"{kind}_calls"] += 1
            value = memo.get(key)
            if value is not None:
                counters[f"{kind}_hits"] += 1
                return value
            disk_key = None
            if self.memo_store is not None:
                disk_key = text_key(kind, *key)
                value = self.memo_store.get(disk_key)
            if value is not None:
                counters[f"{kind}_store_hits"] += 1
            else:
                value = build()
                if disk_key is not None:
                    self.memo_store.put(disk_key, value)
            memo[key] = value
            return value

    # -- maintenance -----------------------------------------------------------------

    def clear(self) -> None:
        """Drop the in-memory memos and reset the statistics.

        The backend's component cache is a memo too, so it is dropped with
        the rest.  The counters :class:`EngineStats` mirrors (the cache's
        spill promotions, the disk tiers' degradations) restart from zero.
        The disk stores (if configured) are intentionally left intact —
        surviving resets is their purpose; use ``engine.store.clear()`` /
        ``engine.close()`` for those.
        """
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._counts.clear()
        self._translations.clear()
        self._ground_truths.clear()
        self._regions.clear()
        if self.component_cache is not None:
            self.component_cache.clear()
            self.component_cache.spill_hits = 0
        for store in self._disk_tiers():
            store.degradations = 0
        self.stats = EngineStats()

    def close(self) -> None:
        """Flush and release the disk store handles (idempotent).

        Counting again after a close works: the stores stay closed and
        the work falls through to the backend.
        """
        if self.component_store is not None:
            # A clean shutdown persists the live component entries too —
            # eviction pressure alone would leave an under-budget cache
            # entirely in memory and the next session cold.
            self.component_cache.spill_all()
        for store in self._disk_tiers():
            store.close()

    def __enter__(self) -> "CountingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        s = self.stats
        extras = ""
        if self.component_cache is not None:
            spill = "+spill" if self.component_store is not None else ""
            extras += f", components={len(self.component_cache)}{spill}"
        if self.store is not None:
            extras += f", store={str(self.store.path)!r}"
        return (
            f"CountingEngine(backend={self.backend_name!r}, counts={len(self._counts)}, "
            f"hits={s.count_hits}/{s.count_calls}{extras})"
        )

