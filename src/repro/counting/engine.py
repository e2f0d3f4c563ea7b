"""CountingEngine: a shared, memoizing counting front door.

Every MCML metric is a handful of projected model-counting calls, and the
experiment drivers repeat large parts of the work across rows: the same
ground-truth translation at every training ratio, the same symmetry-space
CNF for all sixteen properties of a table, the same tree regions when a
model is evaluated twice.  The engine makes that reuse automatic, within a
process and across sessions:

* ``solve`` / ``solve_many`` are the typed front door: they accept a
  :class:`~repro.counting.api.CountRequest` (or a raw CNF) and return
  :class:`~repro.counting.api.CountResult` objects carrying the count plus
  provenance — exactness, backend name, wall time, whether the answer came
  from the in-memory memo, the disk store or actual backend work, and the
  :class:`~repro.counting.api.EngineStats` delta the call caused;
* results are memoized keyed on the CNF's canonical packed signature
  (:meth:`repro.logic.cnf.CNF.signature`), so a cache hit is bit-identical
  to the cold call by construction;
* with ``EngineConfig(cache_dir=...)`` the count memo is backed by a
  disk-persistent :class:`repro.counting.store.CountStore` and the
  *compilation* memos (translations, tree regions) by a
  :class:`repro.counting.store.BlobStore`, so a table re-run in a fresh
  process performs zero backend counts and zero recompilations;
* a ``solve_many`` batch runs memo → store → serial backend count →
  fallback ladder: memo and store hits are answered first (duplicates
  inside the batch collapse onto one count) and only the cold remainder
  reaches the backend;
* the engine owns a bounded LRU
  :class:`repro.counting.component_cache.ComponentCache` installed on
  backends that declare ``owns_component_cache``, so the *sub-problems* of
  different counting calls share work too (``EngineConfig(component_cache_mb=…)``,
  0 to opt out); with ``cache_dir`` configured the cache additionally
  *spills to disk* (``EngineConfig(component_spill=…)``, on by default):
  evictions and ``close()`` persist entries into a
  :class:`repro.counting.store.ComponentStore` and misses consult it
  before recounting, so component work survives engine restarts;
* requests with ``strategy="per-path"`` decompose a tree-region count into
  one sub-problem per disjoint path cube (``mc(φ∧τ) = Σ_paths mc(φ∧path)``)
  — the cubes are unit clauses that propagate hard, and the sub-problems
  flow through the same memo/store machinery, deduping shared paths
  across trees and sessions;
* when the backend declares ``conditions_cubes`` (the ``compiled``
  backend), cold per-path sub-problems skip independent counting
  entirely: the base formula is compiled *once* into a
  :class:`~repro.counting.circuit.Circuit` and every ``mc(φ∧path)`` is
  answered by unit-cube conditioning — a linear DAG pass — with
  ``source="circuit"`` provenance.  Compiled circuits are memoized
  in-process and persisted in a fourth disk tier
  (:class:`repro.counting.store.CircuitStore`, ``EngineConfig(circuit_store=…)``),
  so a warm restart performs zero compilations
  (``EngineStats.circuit_store_hits``);
* failures are *typed and contained*: budget exhaustions and wall-clock
  deadline overruns (``CountRequest(deadline=...)``) become per-problem
  :class:`~repro.counting.api.CountFailure` outcomes instead of batch
  aborts — completed counts always merge into the caches, and with
  ``EngineConfig(fallback="approxmc")`` the *degradation ladder* re-counts
  failed problems on an explicitly-provenanced fallback backend
  (``solve_many(..., on_failure="return")`` surfaces the remaining
  failures; the default re-raises the first original exception);
* ``translate`` memoizes grounded-property compilations (property × scope ×
  symmetry × polarity), keyed on the property's *structural* identity —
  two distinct properties sharing a name never collide;
* ``ground_truth`` memoizes the :class:`repro.core.accmc.GroundTruth`
  objects built on those translations;
* ``region`` memoizes decision-tree label-region CNFs keyed on the paths.

Routing decisions — disk persistence, component-cache installation,
circuit conditioning, the ``solve_formula`` fast path — are negotiated
purely through the backend's declared
:class:`~repro.counting.api.Capabilities` (``engine.capabilities``); the
engine never sniffs attributes.  Backends are constructible by registered
name via :func:`repro.counting.api.make_backend`; the wrapped backend
itself is ``engine.counter`` and its registered name
``engine.backend_name``.  One engine is meant to be shared across every
``AccMC``, ``DiffMC`` and pipeline in a process — or owned by one
:class:`repro.core.session.MCMLSession`, the facade over the whole
pipeline; ``clear()`` resets the in-memory memos (the disk stores, if any,
survive — that is their point).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from repro.counting.api import (
    Capabilities,
    CountFailure,
    CountRequest,
    CountResult,
    EngineStats,
    capabilities_of,
    make_backend,
)
from repro.counting.component_cache import ComponentCache
from repro.counting.store import (
    BlobStore,
    CircuitStore,
    ComponentStore,
    CountStore,
    signature_key,
    text_key,
)
from repro.logic.cnf import CNF

#: Attribute-absence sentinel for budget overrides (no ``hasattr`` here).
_MISSING = object()


@dataclass(frozen=True)
class EngineConfig:
    """Scaling knobs for a :class:`CountingEngine`.

    Parameters
    ----------
    cache_dir:
        Directory for the disk-persistent caches.  ``None`` disables
        persistence; any path makes counts *and compilations* survive (and
        warm) across processes and sessions.  Counts persist only for
        backends whose capabilities declare ``exact`` (estimates are not
        portable); compilations are backend-independent and persist for
        every backend.
    component_cache_mb:
        Approximate byte budget (in MiB) of the engine-owned
        :class:`~repro.counting.component_cache.ComponentCache` shared
        across every counting call — conjunctions of the same φ with
        different tree regions hit components the previous problems
        already solved.  ``0`` opts out (the backend falls back to
        per-call component caching).  Warm hits are bit-identical to cold
        recounts by construction; only backends declaring
        ``owns_component_cache`` (the exact counter) participate.
    component_spill:
        Spill the component cache to disk
        (:class:`~repro.counting.store.ComponentStore` under
        ``cache_dir``): LRU evictions and ``close()`` persist entries,
        and a later engine's misses consult the store before recounting —
        so a φ's *component* work survives restarts the way whole counts
        already do (``EngineStats.component_spill_hits`` reports the
        promotions).  On by default but only active when ``cache_dir`` is
        configured and the component cache itself is; ``0``/``False``
        opts out.
    circuit_store:
        Persist compiled circuits
        (:class:`~repro.counting.store.CircuitStore` under ``cache_dir``):
        per-path base formulas compiled by a ``conditions_cubes`` backend
        are pickled keyed on their CNF signature, so a warm engine restart
        answers conditioning queries with *zero* recompilations
        (``EngineStats.circuit_store_hits``).  On by default but only
        active when ``cache_dir`` is configured and the backend declares
        ``conditions_cubes``; ``0``/``False`` opts out.

    fallback:
        Registered backend name (see
        :func:`repro.counting.api.make_backend`) the *degradation ladder*
        re-routes failed problems to — a problem that exhausts its node
        budget or exceeds its wall-clock deadline is re-counted once on
        this backend instead of failing the batch.  ``None`` (the default)
        disables the ladder.  The fallback result carries explicit provenance
        (``source="fallback"``, ``fallback_from``, ``exact``/(ε, δ)), and
        an inexact fallback (e.g. ``"approxmc"``) is never used for
        requests demanding exact precision nor for per-path sub-problems
        (summing estimates compounds their error) — those failures stand.
        Inexact fallback counts are never memoized or persisted.
    fallback_opts:
        Keyword options for constructing the fallback backend (e.g.
        ``{"epsilon": 0.8, "rounds": 1}``).
    """

    cache_dir: str | Path | None = None
    component_cache_mb: float = 512.0
    component_spill: bool = True
    circuit_store: bool = True
    fallback: str | None = None
    fallback_opts: dict | None = None


def _prop_key(prop) -> object:
    """Structural memo identity of a property.

    :class:`repro.spec.properties.Property` is a frozen dataclass over a
    frozen-dataclass formula AST, so the object itself hashes and compares
    structurally — two distinct ``Property`` objects sharing a *name* but
    differing in formula get distinct keys (and two structurally equal ones
    correctly share).  Unhashable stand-ins fall back to a name + formula
    repr, which still separates same-named properties.
    """
    try:
        hash(prop)
    except TypeError:
        return (
            type(prop).__name__,
            getattr(prop, "name", None),
            repr(getattr(prop, "formula", prop)),
        )
    return prop


class _Flat(NamedTuple):
    """One already-expanded problem of a ``solve_many`` batch."""

    #: The sub-problem CNF — ``None`` for conditioned sub-problems, which
    #: are identified by ``(base, cube)`` and never materialized unless
    #: the degradation ladder needs a formula to recount
    #: (:meth:`materialize`).
    cnf: CNF | None
    budget: int | None
    deadline: float | None
    exact_only: bool  #: request demanded exact precision
    per_path: bool  #: sub-problem of a per-path decomposition
    #: With a ``conditions_cubes`` backend: the per-path base CNF and this
    #: sub-problem's unit cube, so a cold miss conditions the base's
    #: compiled circuit instead of counting ``cnf`` independently.
    base: CNF | None = None
    cube: tuple[int, ...] | None = None
    #: Memo key override for conditioned sub-problems:
    #: ``("cube", base.signature(), cube)``.  Composing the (memoized)
    #: base signature with the cube skips packing and hashing a fresh
    #: sub-CNF per cube — the difference between microsecond and
    #: millisecond query cost on a warm circuit.
    key: tuple | None = None

    def materialize(self) -> CNF:
        """The sub-problem CNF, built on demand for conditioned subs.

        Bit-identical to :meth:`repro.counting.api.CountRequest.expand`'s
        construction: the base plus one unit clause per cube literal.
        """
        if self.cnf is not None:
            return self.cnf
        sub = self.base.copy()
        for literal in self.cube:
            sub.add_clause((literal,))
        return sub


class CountingEngine:
    """Memoizing, optionally disk-backed counting front door.

    Parameters
    ----------
    counter:
        Any object satisfying :class:`repro.counting.api.CounterBackend`
        (default: :class:`repro.counting.exact.ExactCounter`); build one
        by registered name with
        :func:`repro.counting.api.make_backend`.  Passing an engine
        returns its backend wrapped afresh — engines do not nest.
    config:
        :class:`EngineConfig` with the persistence and fallback knobs.
    """

    def __init__(self, counter=None, config: EngineConfig | None = None) -> None:
        if isinstance(counter, CountingEngine):
            counter = counter.counter
        from repro.counting.exact import ExactCounter

        self.counter = counter if counter is not None else ExactCounter()
        self.config = config if config is not None else EngineConfig()
        #: The backend's declared contract — the only thing routing reads.
        self.capabilities: Capabilities = capabilities_of(self.counter)
        self.backend_name: str = getattr(
            self.counter, "name", type(self.counter).__name__
        )
        caps = self.capabilities
        # Count persistence is reserved for exact backends: exact counts
        # are interchangeable across backends and sessions, whereas an
        # (ε, δ) estimate persisted to a shared cache_dir would silently
        # poison later exact runs.  Compilation memos carry no counts, so
        # they persist for every backend.
        self.store: CountStore | None = (
            CountStore(self.config.cache_dir)
            if self.config.cache_dir is not None and caps.exact
            else None
        )
        self.memo_store: BlobStore | None = (
            BlobStore(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        # The engine owns the component cache and installs it on backends
        # declaring ``owns_component_cache``, so every count of every batch
        # warms one shared cache.  ``component_cache_mb=0`` opts out: the
        # backend reverts to per-call caching.
        self.component_cache: ComponentCache | None = None
        if caps.exact and caps.owns_component_cache:
            mb = self.config.component_cache_mb
            if mb and mb > 0:
                self.component_cache = ComponentCache(max_bytes=int(mb * (1 << 20)))
                self.counter.component_cache = self.component_cache
            else:
                self.counter.component_cache = None
        # The spill tier rides on both knobs: a component cache to spill
        # and a cache_dir to spill into.  Attached to the shared cache, so
        # evictions and close-time spills both reach disk.
        self.component_store: ComponentStore | None = None
        if (
            self.component_cache is not None
            and self.config.cache_dir is not None
            and self.config.component_spill
        ):
            self.component_store = ComponentStore(self.config.cache_dir)
            self.component_cache.attach_spill(self.component_store)
        # The circuit tier rides on the backend's conditions_cubes
        # declaration: only a compiling backend produces circuits worth
        # keeping, and only per-path conditioning consumes them.
        self.circuit_store: CircuitStore | None = None
        if (
            caps.conditions_cubes
            and self.config.cache_dir is not None
            and self.config.circuit_store
        ):
            self.circuit_store = CircuitStore(self.config.cache_dir)
        #: In-process circuit memo: base signature -> compiled Circuit.
        self._circuits: dict[tuple, object] = {}
        self._component_spill_hits_base = 0
        self._store_degradations_base = 0
        # The degradation ladder's fallback backend, built eagerly so a
        # misconfigured name fails at construction, not at the first
        # failure it was supposed to absorb.
        self._fallback_counter = None
        self._fallback_caps: Capabilities | None = None
        if self.config.fallback is not None:
            self._fallback_counter = make_backend(
                self.config.fallback, **(self.config.fallback_opts or {})
            )
            self._fallback_caps = capabilities_of(self._fallback_counter)
        self.stats = EngineStats()
        self._counts: dict[tuple, int] = {}
        self._translations: dict[tuple, object] = {}
        self._ground_truths: dict[tuple, object] = {}
        self._regions: dict[tuple, CNF] = {}
        #: The concurrency guard.  The engine (and the backend it wraps)
        #: is single-threaded by design — memo dicts, EngineStats and the
        #: backend's knob overrides (``_limits``) all assume one caller at
        #: a time.  ``solve*`` and the compilation memos serialize on this
        #: reentrant lock so a multi-threaded *caller* (the counting
        #: service's solver executor is the only sanctioned one) gets
        #: bit-identical counts and consistent stats, never racing threads
        #: into one backend.
        self._lock = threading.RLock()
        self._sync_store_degradations()

    # -- typed counting API ----------------------------------------------------------

    def solve(
        self, problem: CountRequest | CNF, *, on_failure: str = "raise"
    ) -> CountResult:
        """Solve one counting problem, returning the typed result."""
        return self.solve_many([problem], on_failure=on_failure)[0]

    def solve_many(self, problems, *, on_failure: str = "raise"):
        """Solve a batch of problems, reusing every cache layer.

        Accepts :class:`~repro.counting.api.CountRequest` objects or raw
        CNFs (frozen into requests with default precision/budget).  The
        batch is partitioned into in-memory memo hits, disk-store hits and
        cold problems (duplicates inside the batch collapse onto the first
        occurrence and report as memo hits).  Cold problems run on the
        backend one after another, and their results merge back into the
        memo and the disk store.  Each result records its provenance;
        ``stats_delta`` is the whole batch's telemetry movement (shared by
        the batch's results).

        Requests with ``strategy="per-path"`` are *decomposed*: the region
        they describe is a disjoint union of path cubes, so the request
        expands into one sub-problem per cube (the base CNF plus unit
        clauses, which propagate hard) and the result is the sum of the
        sub-counts.  The sub-problems flow through the same memo → store →
        backend chain as everything else, which is what makes shared
        paths dedup across trees, batches and sessions.  On a
        ``conditions_cubes`` backend the sub-problems are keyed on
        ``(base, cube)`` instead — never materialized, never store-backed
        (the persistent artifact is the base's compiled circuit, and
        re-conditioning it is cheaper than a disk read) — and the cold
        remainder is answered by conditioning passes.  Summing estimates
        would compound their error, so per-path requests require an exact
        backend (consumers negotiate via ``capabilities.exact`` and fall
        back to the conjunction route — see :class:`repro.core.accmc.AccMC`).

        Failure semantics.  A problem can fail without poisoning the
        batch: a node-budget exhaustion
        (:class:`~repro.counting.exact.CounterBudgetExceeded`) or a
        wall-clock deadline overrun
        (:class:`~repro.counting.exact.CounterTimeout`) produces a typed
        :class:`~repro.counting.api.CountFailure` for *that position* —
        every other problem still completes, and completed counts always
        reach the memo and the disk store (a retry resumes, it does not
        recount).  Deadlines are cooperative: they are enforced by the
        backend's own ``deadline`` knob, so a backend without one ignores
        them.  With ``config.fallback`` set, failed problems are
        re-counted once on the fallback backend first (results carry
        ``source="fallback"`` provenance).  ``on_failure`` selects what
        happens to failures that remain: ``"raise"`` (the default)
        re-raises the first failure's original exception after the batch
        completes; ``"return"`` returns the ``CountFailure`` objects in
        their batch positions alongside the successes (a failed per-path
        request is represented by its first failed sub-problem).

        Thread safety.  ``solve``/``solve_many``/``solve_formula`` (and
        the compilation memos) serialize on the engine's internal
        reentrant lock: concurrent callers — the counting service's
        solver thread is the only sanctioned one — get bit-identical
        counts and consistent :class:`EngineStats`, never interleaved
        memo/knob state.
        """
        with self._lock:
            return self._solve_many_locked(problems, on_failure)

    def _solve_many_locked(self, problems, on_failure: str):
        if on_failure not in ("raise", "return"):
            raise ValueError(
                f"on_failure must be 'raise' or 'return', got {on_failure!r}"
            )
        before = self.stats.copy()
        caps = self.capabilities
        flat: list[_Flat] = []
        #: per input problem: ("one", flat index), ("sum", flat range),
        #: or ("ready", already-solved result) for the conditioning lane
        shape: list[tuple] = []
        for problem in problems:
            if isinstance(problem, CountRequest):
                if problem.precision == "exact" and not caps.exact:
                    raise ValueError(
                        f"request demands exact precision but backend "
                        f"{self.backend_name!r} is approximate"
                    )
                exact_only = problem.precision == "exact"
                if problem.strategy == "per-path":
                    if not caps.exact:
                        raise ValueError(
                            f"per-path requests sum exact sub-counts but "
                            f"backend {self.backend_name!r} is approximate; "
                            "use strategy='conjunction'"
                        )
                    if caps.conditions_cubes:
                        # Dedicated lane: the request is answered by
                        # conditioning its base's compiled circuit, one
                        # linear pass per cold cube — no sub-CNFs, no
                        # per-cube result objects, no disk round-trips.
                        shape.append(
                            ("ready", self._condition_request(problem, exact_only))
                        )
                        continue
                    start = len(flat)
                    flat.extend(
                        _Flat(sub, problem.budget, problem.deadline, exact_only, True)
                        for sub in problem.expand()
                    )
                    shape.append(("sum", range(start, len(flat))))
                    continue
                flat.append(
                    _Flat(
                        problem.cnf(), problem.budget, problem.deadline,
                        exact_only, False,
                    )
                )
            else:
                flat.append(_Flat(problem, None, None, False, False))
            shape.append(("one", len(flat) - 1))

        partial = self._solve_flat(flat, caps)
        self._sync_component_stats()
        self._sync_store_degradations()
        stats_delta = self.stats.delta_since(before)
        results: list[CountResult | CountFailure] = []
        primary: CountFailure | None = None
        for kind, ref in shape:
            if kind == "ready":
                # A conditioned per-path request, already summed.
                if isinstance(ref, CountFailure):
                    if primary is None:
                        primary = ref
                    results.append(ref)
                    continue
                results.append(replace(ref, stats_delta=stats_delta))
                continue
            if kind == "one":
                r = partial[ref]
                if isinstance(r, CountFailure):
                    if primary is None:
                        primary = r
                    results.append(r)
                    continue
                results.append(
                    CountResult(
                        value=r.value,
                        exact=r.exact,
                        backend=r.backend,
                        source=r.source,
                        elapsed_seconds=r.elapsed_seconds,
                        fallback_from=r.fallback_from,
                        epsilon=r.epsilon,
                        delta=r.delta,
                        stats_delta=stats_delta,
                    )
                )
            else:
                subs = [partial[i] for i in ref]
                failed = next(
                    (s for s in subs if isinstance(s, CountFailure)), None
                )
                if failed is not None:
                    if primary is None:
                        primary = failed
                    results.append(failed)
                    continue
                results.append(self._sum_result(subs, stats_delta))
        if primary is not None and on_failure == "raise":
            if primary.cause is not None:
                raise primary.cause from primary
            raise primary
        return results

    def _solve_flat(self, items: list[_Flat], caps: Capabilities):
        """Solve already-expanded :class:`_Flat` problems (no delta attach).

        Returns one :class:`~repro.counting.api.CountResult` or
        :class:`~repro.counting.api.CountFailure` per item.
        """
        from repro.counting.exact import CounterAbort

        results: list[CountResult | CountFailure | None] = [None] * len(items)
        positions: dict[tuple, list[int]] = {}
        order: list[tuple] = []
        cold: dict[tuple, _Flat] = {}
        for i, item in enumerate(items):
            self.stats.count_calls += 1
            key = item.cnf.signature()
            cached = self._counts.get(key)
            if cached is not None:
                self.stats.count_hits += 1
                results[i] = self._hit(cached, "memo")
                continue
            if key in positions:
                # Duplicate of a colder batch member: one backend count
                # will serve both, exactly like a serial memo hit.
                self.stats.count_hits += 1
                positions[key].append(i)
                continue
            positions[key] = [i]
            cold[key] = item
            order.append(key)

        missing = order
        hashed: dict[tuple, str] = {}
        if self.store is not None and order:
            hashed = {key: signature_key(key) for key in order}
            found = self.store.get_many([hashed[key] for key in order])
            missing = []
            for key in order:
                value = found.get(hashed[key])
                if value is None:
                    missing.append(key)
                    continue
                self.stats.store_hits += 1
                self._counts[key] = value
                hit = self._hit(value, "store")
                for i in positions[key]:
                    results[i] = hit

        failed: dict[tuple, CountFailure] = {}
        completed: dict[tuple, tuple[int, float]] = {}
        try:
            for key in missing:
                item = cold[key]
                started = time.perf_counter()
                try:
                    with self._limits(item.budget, item.deadline):
                        value = self.counter.count(item.cnf)
                except CounterAbort as exc:
                    # Budget/deadline aborts are per-problem outcomes, not
                    # batch aborts: record and keep counting — the rest of
                    # the batch is still worth paying for.
                    failed[key] = CountFailure.from_exception(
                        exc,
                        backend=self.backend_name,
                        elapsed_seconds=time.perf_counter() - started,
                    )
                    continue
                completed[key] = (value, time.perf_counter() - started)
        finally:
            # Merge whatever completed even when a later problem raised:
            # counts already paid for must reach the memo and the disk
            # store, so a retry resumes instead of re-counting from scratch.
            self.stats.backend_calls += len(completed)
            fresh: list[tuple[str, int]] = []
            for key, (value, seconds) in completed.items():
                # Like inexact fallback counts, an estimate is never
                # memoized (the store exists only for exact backends).
                if caps.exact:
                    self._counts[key] = value
                result = CountResult(
                    value=value,
                    exact=caps.exact,
                    backend=self.backend_name,
                    source="backend",
                    elapsed_seconds=seconds,
                )
                for i in positions[key]:
                    results[i] = result
                if self.store is not None:
                    fresh.append((hashed[key], value))
            if fresh:
                self.store.put_many(fresh)

        # The degradation ladder: each failed problem gets one shot on
        # the configured fallback backend; failures the ladder cannot
        # absorb stand as the problem's typed outcome.
        for key, failure in failed.items():
            if failure.kind == "timeout":
                self.stats.timeouts += 1
            outcome = self._try_fallback(failure, cold[key])
            if isinstance(outcome, CountResult):
                if self._fallback_caps is not None and self._fallback_caps.exact:
                    # Exact fallback counts are interchangeable with
                    # the primary backend's; estimates are neither
                    # memoized nor persisted.
                    self._counts[key] = outcome.value
                    if self.store is not None:
                        self.store.put(hashed[key], outcome.value)
            for i in positions[key]:
                results[i] = outcome

        return results

    def _try_fallback(self, failure: CountFailure, item: _Flat):
        """One fallback attempt for a failed problem (or the failure itself).

        The ladder only absorbs *resource* failures (timeout, budget) —
        a genuine backend error would fail on any backend.
        An inexact fallback is refused for exact-precision requests and
        per-path sub-problems.  The fallback does *not* inherit the
        request's budget/deadline limits: the ladder exists to still
        produce an answer after those limits already failed, and a
        fallback algorithm's cost profile is unrelated to the one they
        were calibrated for — bound the fallback through its own
        construction knobs (``fallback_opts``, e.g. ``{"deadline": ...}``)
        when needed.  A fallback's own abort, or its failure to converge,
        leaves the original failure standing.
        """
        from repro.counting.exact import CounterAbort

        fallback = self._fallback_counter
        if fallback is None or failure.kind == "error":
            return failure
        fb_caps = self._fallback_caps
        if not fb_caps.exact and (item.exact_only or item.per_path):
            return failure
        started = time.perf_counter()
        try:
            value = fallback.count(item.materialize())
        except (CounterAbort, RuntimeError):
            return failure
        self.stats.fallbacks += 1
        return CountResult(
            value=value,
            exact=fb_caps.exact,
            backend=getattr(fallback, "name", type(fallback).__name__),
            source="fallback",
            elapsed_seconds=time.perf_counter() - started,
            fallback_from=self.backend_name,
            epsilon=None if fb_caps.exact else getattr(fallback, "epsilon", None),
            delta=None if fb_caps.exact else getattr(fallback, "delta", None),
        )

    def _condition_request(
        self, problem: CountRequest, exact_only: bool
    ) -> CountResult | CountFailure:
        """Answer one per-path request by conditioning its compiled circuit.

        The fast lane for ``conditions_cubes`` backends.  The request's
        base CNF is identified by a cheap canonical key, its compiled
        :class:`~repro.counting.circuit.Circuit` obtained once
        (in-process memo → :class:`~repro.counting.store.CircuitStore` →
        one compilation under the request's budget/deadline), and every
        cold cube answered by one linear conditioning pass.  Sub-counts
        merge into the in-process count memo — duplicate cubes inside
        the request and across batches report as memo hits — but
        deliberately stay out of the whole-count disk store:
        re-conditioning a warm circuit is cheaper than a disk read, so
        the compact persistent artifact is the circuit, not one row per
        cube.  A compile abort sends each cold cube through the
        degradation ladder; a failure the ladder cannot absorb fails the
        whole request (its sum is meaningless with a term missing).
        """
        from repro.counting.exact import CounterAbort

        stats = self.stats
        started = time.perf_counter()
        # Order-insensitive, content-canonical, and far cheaper than a
        # packed signature — the circuit answers the whole request, so
        # per-cube identity is just this prefix plus the cube.
        identity = (
            "cube",
            problem.num_vars,
            problem.projection,
            frozenset(problem.clauses),
        )
        counts = self._counts
        keys: list[tuple] = []
        values: dict[tuple, int] = {}
        sources: set[str] = set()
        cold: list[tuple[tuple, tuple[int, ...]]] = []
        seen_cold: set[tuple] = set()
        hits = 0
        for cube in problem.cubes:
            key = identity + (cube,)
            keys.append(key)
            if key in values or key in seen_cold:
                # Duplicate inside the request: one pass serves both,
                # exactly like a serial memo hit.
                hits += 1
                continue
            cached = counts.get(key)
            if cached is not None:
                hits += 1
                values[key] = cached
                sources.add("memo")
                continue
            seen_cold.add(key)
            cold.append((key, cube))
        stats.count_calls += len(keys)
        stats.count_hits += hits

        if cold:
            try:
                circuit = self._circuit_for(
                    identity, problem.cnf(), problem.budget, problem.deadline
                )
            except CounterAbort as exc:
                # One compilation serves every cold cube, so its abort
                # is each one's failure; the degradation ladder still
                # gets a per-cube shot.
                failure = CountFailure.from_exception(
                    exc,
                    backend=self.backend_name,
                    elapsed_seconds=time.perf_counter() - started,
                )
                for key, cube in cold:
                    if failure.kind == "timeout":
                        stats.timeouts += 1
                    outcome = self._try_fallback(
                        failure,
                        _Flat(
                            None, problem.budget, problem.deadline,
                            exact_only, True, problem.cnf(), cube, key,
                        ),
                    )
                    if isinstance(outcome, CountFailure):
                        return outcome
                    values[key] = outcome.value
                    self._counts[key] = outcome.value
                    sources.add("fallback")
            else:
                for key, cube in cold:
                    values[key] = value = circuit.condition(cube)
                    self._counts[key] = value
                stats.circuit_hits += len(cold)
                sources.add("circuit")

        if "fallback" in sources:
            source = "fallback"
        elif "circuit" in sources:
            source = "circuit"
        else:
            source = "memo"
        return CountResult(
            value=sum(values[key] for key in keys),
            exact=True,
            backend=self.backend_name,
            source=source,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _circuit_for(self, base_identity: tuple, base: CNF, budget, deadline):
        """The compiled circuit for a per-path base (memo → store → compile).

        ``base_identity`` is the composed-key prefix built in
        ``solve_many`` — ``("cube", num_vars, projection,
        frozenset(clauses))`` — canonical across processes and sessions,
        so its :func:`~repro.counting.store.signature_key` is a stable
        :class:`~repro.counting.store.CircuitStore` address.
        """
        circuit = self._circuits.get(base_identity)
        if circuit is not None:
            return circuit
        disk_key = None
        if self.circuit_store is not None:
            disk_key = signature_key(base_identity)
            circuit = self.circuit_store.get(disk_key)
            if circuit is not None:
                self.stats.circuit_store_hits += 1
                self._circuits[base_identity] = circuit
                return circuit
        with self._limits(budget, deadline):
            circuit = self.counter.compile(base)
        self.stats.circuit_compilations += 1
        self._circuits[base_identity] = circuit
        if disk_key is not None:
            self.circuit_store.put(disk_key, circuit)
        return circuit

    def _sum_result(self, subs: list[CountResult], delta) -> CountResult:
        """Fold per-path sub-results into one summed result.

        Provenance reports the *coldest* tier any sub-problem touched
        (fallback over backend over circuit over store over memo); an
        empty cube set (a region with no paths of that label) sums to 0
        without any work.
        """
        sources = {r.source for r in subs}
        if "fallback" in sources:
            source = "fallback"
        elif "backend" in sources:
            source = "backend"
        elif "circuit" in sources:
            source = "circuit"
        elif "store" in sources:
            source = "store"
        else:
            source = "memo"
        return CountResult(
            value=sum(r.value for r in subs),
            exact=self.capabilities.exact,
            backend=self.backend_name,
            source=source,
            elapsed_seconds=sum(r.elapsed_seconds for r in subs),
            stats_delta=delta,
        )

    def _sync_component_stats(self) -> None:
        """Mirror the component cache's spill promotions into EngineStats."""
        cache = self.component_cache
        if cache is not None and self.component_store is not None:
            self.stats.component_spill_hits = (
                cache.spill_hits - self._component_spill_hits_base
            )

    def _store_degradations_total(self) -> int:
        total = 0
        for store in (
            self.store,
            self.memo_store,
            self.component_store,
            self.circuit_store,
        ):
            if store is not None:
                total += store.degradations
        return total

    def _sync_store_degradations(self) -> None:
        """Mirror the disk tiers' self-repair events into EngineStats."""
        self.stats.store_degradations = (
            self._store_degradations_total() - self._store_degradations_base
        )

    def solve_formula(self, formula, num_vars: int) -> CountResult:
        """Typed memoized whole-space formula count (fast-path backends).

        Served only when the backend's capabilities declare
        ``counts_formulas``; keys the count memo on the formula's
        structural hash (``Formula`` nodes hash structurally).  Formula
        counts stay in-memory only — the disk store is keyed on CNF
        signatures.
        """
        if not self.capabilities.counts_formulas:
            raise ValueError(
                f"backend {self.backend_name!r} does not count formulas "
                "(capabilities.counts_formulas is False)"
            )
        with self._lock:
            return self._solve_formula_locked(formula, num_vars)

    def _solve_formula_locked(self, formula, num_vars: int) -> CountResult:
        before = self.stats.copy()
        self.stats.count_calls += 1
        key = ("formula", formula, num_vars)
        cached = self._counts.get(key)
        if cached is not None:
            self.stats.count_hits += 1
            hit = self._hit(cached, "memo")
            return CountResult(
                value=hit.value,
                exact=hit.exact,
                backend=hit.backend,
                source=hit.source,
                stats_delta=self.stats.delta_since(before),
            )
        self.stats.backend_calls += 1
        started = time.perf_counter()
        value = self.counter.count_formula(formula, num_vars)
        seconds = time.perf_counter() - started
        self._counts[key] = value
        return CountResult(
            value=value,
            exact=self.capabilities.exact,
            backend=self.backend_name,
            source="backend",
            elapsed_seconds=seconds,
            stats_delta=self.stats.delta_since(before),
        )

    def _hit(self, value: int, source: str) -> CountResult:
        return CountResult(
            value=value,
            exact=self.capabilities.exact,
            backend=self.backend_name,
            source=source,
        )

    @contextmanager
    def _limits(self, budget: int | None, deadline: float | None = None):
        """Temporarily override the backend's resource knobs, if it has them.

        ``budget`` maps onto a ``max_nodes`` attribute and ``deadline``
        onto a ``deadline`` attribute; a knob the backend lacks makes the
        corresponding request limit moot.  Restores on exit even when the
        count aborts.
        """
        counter = self.counter
        previous_budget = _MISSING
        previous_deadline = _MISSING
        if budget is not None:
            previous_budget = getattr(counter, "max_nodes", _MISSING)
            if previous_budget is not _MISSING:
                counter.max_nodes = budget
        if deadline is not None:
            previous_deadline = getattr(counter, "deadline", _MISSING)
            if previous_deadline is not _MISSING:
                counter.deadline = deadline
        try:
            yield
        finally:
            if previous_budget is not _MISSING:
                counter.max_nodes = previous_budget
            if previous_deadline is not _MISSING:
                counter.deadline = previous_deadline

    # -- compilation memos -----------------------------------------------------------

    def translate(self, prop, scope: int, symmetry=None, negate: bool = False):
        """Memoized grounded-property compilation (see :func:`repro.spec.translate`).

        With ``cache_dir`` configured the compilation is also persisted:
        a fresh process warms its translation memo from disk instead of
        re-grounding and re-Tseitin-ing the property.
        """
        from repro.spec.translate import translate

        kind = symmetry.kind if symmetry is not None else None
        key = (_prop_key(prop), scope, kind, negate)
        with self._lock:
            self.stats.translate_calls += 1
            cached = self._translations.get(key)
            if cached is not None:
                self.stats.translate_hits += 1
                return cached
            problem = None
            disk_key = None
            if self.memo_store is not None:
                disk_key = text_key("translate", prop, scope, kind, negate)
                problem = self.memo_store.get(disk_key)
                if problem is not None:
                    self.stats.translate_store_hits += 1
            if problem is None:
                problem = translate(prop, scope, symmetry=symmetry, negate=negate)
                if disk_key is not None:
                    self.memo_store.put(disk_key, problem)
            self._translations[key] = problem
            return problem

    def ground_truth(self, prop, scope: int, symmetry=None):
        """Memoized compiled ground truth for AccMC evaluation."""
        from repro.core.accmc import GroundTruth

        key = (
            _prop_key(prop),
            scope,
            symmetry.kind if symmetry is not None else None,
        )
        with self._lock:
            cached = self._ground_truths.get(key)
            if cached is None:
                cached = GroundTruth(
                    prop, scope, symmetry=symmetry, translator=self.translate
                )
                self._ground_truths[key] = cached
            return cached

    def region(self, paths, label: int, num_features: int) -> CNF:
        """Memoized decision-tree label-region CNF (see ``label_region_cnf``).

        Region compilations persist to the ``cache_dir`` memo store like
        translations do.
        """
        from repro.core.tree2cnf import label_region_cnf

        key = (tuple(paths), label, num_features)
        with self._lock:
            self.stats.region_calls += 1
            cached = self._regions.get(key)
            if cached is not None:
                self.stats.region_hits += 1
                return cached
            cnf = None
            disk_key = None
            if self.memo_store is not None:
                disk_key = text_key("region", tuple(paths), label, num_features)
                cnf = self.memo_store.get(disk_key)
                if cnf is not None:
                    self.stats.region_store_hits += 1
            if cnf is None:
                cnf = label_region_cnf(paths, label, num_features)
                if disk_key is not None:
                    self.memo_store.put(disk_key, cnf)
            self._regions[key] = cnf
            return cnf

    # -- maintenance -----------------------------------------------------------------

    def clear(self) -> None:
        """Drop the in-memory memos and reset the statistics.

        The shared component cache is a memo too, so it is dropped with the
        rest.  The disk stores (if configured) are intentionally left
        intact — surviving resets is their purpose; use
        ``engine.store.clear()`` / ``engine.close()`` for those.
        """
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._counts.clear()
        self._translations.clear()
        self._ground_truths.clear()
        self._regions.clear()
        self._circuits.clear()
        if self.component_cache is not None:
            self.component_cache.clear()
            # The cache's own counters are cumulative; re-baseline so the
            # fresh EngineStats reports spill promotions from zero.
            self._component_spill_hits_base = self.component_cache.spill_hits
        # Same re-baselining for the cumulative store counters.
        self._store_degradations_base = self._store_degradations_total()
        self.stats = EngineStats()

    def close(self) -> None:
        """Flush and release the disk store handles (idempotent).

        Counting again after a close works: the stores stay closed and
        the work falls through to the backend.
        """
        if self.store is not None:
            self.store.close()
        if self.memo_store is not None:
            self.memo_store.close()
        if self.component_store is not None:
            # A clean shutdown persists the live component entries too —
            # eviction pressure alone would leave an under-budget cache
            # entirely in memory and the next session cold.
            if self.component_cache is not None:
                self.component_cache.spill_all()
            self.component_store.close()
        if self.circuit_store is not None:
            self.circuit_store.close()

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
        if self.capabilities.conditions_cubes:
            spelled = "+store" if self.circuit_store is not None else ""
            extras += f", circuits={len(self._circuits)}{spelled}"
        if self.config.fallback is not None:
            extras += f", fallback={self.config.fallback!r}"
        return (
            f"CountingEngine(backend={self.backend_name!r}, counts={len(self._counts)}, "
            f"hits={s.count_hits}/{s.count_calls}{extras})"
        )


def shared_engine(counter=None, config: EngineConfig | None = None) -> CountingEngine:
    """Wrap ``counter`` in an engine unless it already is one.

    When ``counter`` is already an engine it is returned as-is and
    ``config`` is ignored — the existing engine's configuration (and its
    caches, which are the point of sharing) win.
    """
    if isinstance(counter, CountingEngine):
        return counter
    return CountingEngine(counter, config=config)
