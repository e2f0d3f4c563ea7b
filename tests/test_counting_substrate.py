"""Tests for the persistent counting substrate (PR 3).

Covers:

* :class:`ComponentCache` — LRU eviction under tiny caps, recency refresh,
  byte accounting;
* the shared component cache's differential guarantee — counts through a
  shared (and warm) cache are bit-identical to fresh-counter counts, over
  the 16-property matrix at scopes 2–4 and over randomized CNFs;
* the engine lifecycle — the context manager closes the disk stores,
  closing twice is safe, counting after a close still works, every count
  runs in-process, batches warm the shared component cache, and the
  engine counts on after a budget abort;
* the satellite fixes — ``CountingEngine.__repr__`` reporting the backend
  and the configured tiers, estimates recounted (never memoized), lazy
  ``CNF.signature()`` memoization with invalidation, and ``CountStore``
  write batching + WAL.
"""

import os
import random

import pytest

from repro.counting import (
    Capabilities,
    ComponentCache,
    CountingEngine,
    CountStore,
    ExactCounter,
    LegacyExactCounter,
    closed_form_count,
)
from repro.counting.component_cache import entry_cost
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.properties import PROPERTIES


def _key(*clauses, proj=1):
    return (frozenset(clauses), proj)


class TestComponentCacheLRU:
    def test_round_trip_and_zero_values(self):
        cache = ComponentCache()
        key = _key((1, 2), (4, 0))
        assert cache.get(key) is None
        cache.put(key, 0)  # 0 is a valid model count, not a miss
        assert cache.get(key) == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_entry_cap_evicts_least_recently_used(self):
        cache = ComponentCache(max_bytes=None, max_entries=3)
        keys = [_key((1 << i, 0)) for i in range(4)]
        for i, key in enumerate(keys[:3]):
            cache.put(key, i)
        # Refresh key 0 so key 1 becomes the LRU entry.
        assert cache.get(keys[0]) == 0
        cache.put(keys[3], 3)
        assert len(cache) == 3
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) == 0  # survived thanks to the refresh
        assert cache.get(keys[2]) == 2
        assert cache.evictions == 1

    def test_byte_cap_evicts(self):
        small = _key((1, 2))
        cost = entry_cost(small, 1)
        cache = ComponentCache(max_bytes=int(cost * 2.5))
        cache.put(_key((1, 2)), 1)
        cache.put(_key((2, 1)), 2)
        cache.put(_key((3, 4)), 3)
        assert cache.evictions >= 1
        assert len(cache) < 3
        assert cache.approximate_bytes() <= int(cost * 2.5)

    def test_put_is_idempotent_for_pure_values(self):
        cache = ComponentCache()
        key = _key((1, 0))
        cache.put(key, 7)
        cache.put(key, 7)
        assert len(cache) == 1
        assert cache.get(key) == 7

    def test_clear_resets_bytes(self):
        cache = ComponentCache()
        cache.put(_key((1, 2)), 5)
        assert cache.approximate_bytes() > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.approximate_bytes() == 0


def _random_cnf(rng: random.Random) -> CNF:
    num_vars = rng.randint(3, 14)
    num_clauses = rng.randint(1, 30)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    projection = None
    if rng.random() < 0.6:
        k = rng.randint(1, num_vars)
        projection = rng.sample(range(1, num_vars + 1), k)
    return CNF(clauses, num_vars=num_vars, projection=projection)


class TestSharedCacheDifferential:
    """Shared-cache counts must be bit-identical to fresh-counter counts."""

    def test_matrix_scopes_2_3_shared_vs_fresh(self):
        cases = [
            translate(prop, scope, symmetry=symmetry).cnf
            for prop in PROPERTIES
            for scope in (2, 3)
            for symmetry in (None, SymmetryBreaking())
        ]
        shared = ExactCounter()  # owns one persistent cache across all calls
        for cnf in cases:
            fresh = ExactCounter().count(cnf)
            assert shared.count(cnf) == fresh
            # A second, fully warm call must agree too.
            assert shared.count(cnf) == fresh

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_matrix_scope_4_warm_cache_vs_closed_form(self, prop, shared_scope4_counter):
        # One persistent counter across all 16 properties: later properties
        # count through a cache warmed by earlier ones, and every count
        # must still match the independent analytic oracle.
        cnf = translate(prop, 4).cnf
        assert shared_scope4_counter.count(cnf) == closed_form_count(prop.oracle, 4)

    def test_randomized_differential(self):
        rng = random.Random(20260726)
        shared = ExactCounter()
        tiny = ExactCounter(component_cache=ComponentCache(max_bytes=None, max_entries=64))
        for _ in range(150):
            cnf = _random_cnf(rng)
            fresh = ExactCounter().count(cnf)
            legacy = LegacyExactCounter().count(cnf.copy())
            assert fresh == legacy
            assert shared.count(cnf) == fresh
            # Eviction-heavy cache: correctness must survive mid-search
            # evictions under a cap far below the working set.
            assert tiny.count(cnf) == fresh


@pytest.fixture(scope="class")
def shared_scope4_counter():
    return ExactCounter()


class TestEngineLifecycle:
    def _cold_batch(self, names, scope=2):
        return [translate(get_property(name), scope).cnf for name in names]

    def test_engine_is_a_context_manager(self, tmp_path):
        batch = self._cold_batch(("Reflexive", "Irreflexive"))
        with CountingEngine(cache_dir=tmp_path) as engine:
            counts = [r.value for r in engine.solve_many(batch)]
            stores = [engine.store, engine.memo_store, engine.component_store]
            assert all(store._connection is not None for store in stores)
        assert all(store._connection is None for store in stores)
        engine.close()  # idempotent
        # Counting after a close still answers (memo hits, then the backend).
        assert [r.value for r in engine.solve_many(batch)] == counts
        fresh = self._cold_batch(("Connex",))
        assert engine.solve_many(fresh)[0].source == "backend"

    def test_serial_engine_never_forks(self, monkeypatch):
        pids = []

        class PidRecordingCounter(ExactCounter):
            def count(self, cnf):
                pids.append(os.getpid())
                return super().count(cnf)

        def refuse_fork():
            raise AssertionError("the engine must count in-process")

        monkeypatch.setattr(os, "fork", refuse_fork)
        engine = CountingEngine(PidRecordingCounter())
        batch = self._cold_batch(("Reflexive", "Irreflexive", "Connex"), scope=3)
        values = [r.value for r in engine.solve_many(batch)]
        names = ("reflexive", "irreflexive", "connex")
        assert values == [closed_form_count(name, 3) for name in names]
        assert pids == [os.getpid()] * len(batch)

    def test_batches_warm_the_shared_cache(self):
        engine = CountingEngine()
        assert len(engine.component_cache) == 0
        engine.solve_many(self._cold_batch(("PartialOrder", "Equivalence"), scope=3))
        assert len(engine.component_cache) > 0
        # A later batch over related properties reuses those components.
        hits = engine.component_cache.hits
        batch = self._cold_batch(("PreOrder", "TotalOrder"), scope=3)
        values = [r.value for r in engine.solve_many(batch)]
        assert engine.component_cache.hits > hits
        names = ("preorder", "totalorder")
        assert values == [closed_form_count(name, 3) for name in names]

    def test_engine_counts_on_after_a_budget_abort(self):
        from repro.counting.exact import CounterBudgetExceeded

        # Two distinct infeasible problems, so both reach the backend.
        hard = self._cold_batch(("Transitive", "TotalOrder"), scope=3)
        engine = CountingEngine(ExactCounter(max_nodes=10))
        with pytest.raises(CounterBudgetExceeded):
            engine.solve_many(hard)
        # The next (feasible) batch counts correctly on the same engine.
        batch = self._cold_batch(("Reflexive", "Connex"))
        assert [r.value for r in engine.solve_many(batch)] == [
            r.value for r in CountingEngine().solve_many(batch)
        ]
        assert engine.counter.max_nodes == 10


class TestSatelliteFixes:
    def test_repr_reports_backend_and_tiers(self, tmp_path):
        plain = repr(CountingEngine())
        assert plain.startswith("CountingEngine(backend='exact', counts=0")
        assert "components=0" in plain and "store=" not in plain
        with CountingEngine(cache_dir=tmp_path) as engine:
            engine.solve(translate(get_property("Reflexive"), 2).cnf)
            text = repr(engine)
        assert "counts=1" in text and "hits=0/1" in text
        assert "+spill" in text and "store=" in text

    def test_estimates_are_never_memoized(self):
        """Only an exact backend's count enters the memo, so an estimate is
        recounted on every call instead of replayed as a memo hit."""

        class DriftingEstimator:
            name = "drifting"
            capabilities = Capabilities(exact=False)

            def __init__(self):
                self.calls = 0

            def count(self, cnf):
                self.calls += 1
                return 100 + self.calls

        engine = CountingEngine(DriftingEstimator())
        cnf = translate(get_property("Reflexive"), 2).cnf
        first, second = engine.solve(cnf), engine.solve(cnf)
        assert (first.value, second.value) == (101, 102)
        assert first.source == second.source == "backend"
        assert not second.exact
        assert engine.stats.count_hits == 0
        assert engine.stats.backend_calls == 2

    def test_signature_is_memoized_and_invalidated(self):
        cnf = CNF([[1, 2], [-1, 3]], projection=[1, 2, 3])
        first = cnf.signature()
        assert cnf.signature() is first  # memo hit: identical object
        cnf.add_clause([2, 3])
        second = cnf.signature()
        assert second != first  # mutation invalidated the memo
        assert cnf.signature() is second

    def test_signature_memo_and_new_var(self):
        cnf = CNF([[1]], num_vars=1)  # no projection: counts all vars
        assert cnf.signature() == cnf.signature()
        before = cnf.signature()
        cnf.new_var()
        assert cnf.signature() != before  # ("all", num_vars) marker moved

    def test_copies_do_not_share_the_memo(self):
        cnf = CNF([[1, 2]], projection=[1, 2])
        cnf.signature()
        other = cnf.copy()
        other.add_clause([-1])
        assert other.signature() != cnf.signature()
        assert cnf.signature() == CNF([[1, 2]], projection=[1, 2]).signature()


class TestStoreBatching:
    def test_single_puts_are_buffered_and_flushed(self, tmp_path):
        store = CountStore(tmp_path)
        store.put("a", 2**200)
        store.put("b", 0)
        # Visible to the owning process before any flush …
        assert store.get("a") == 2**200
        assert store.get_many(["a", "b"]) == {"a": 2**200, "b": 0}
        store.flush()
        store.close()
        # … and to a fresh handle after it.
        with CountStore(tmp_path) as reopened:
            assert reopened.get_many(["a", "b"]) == {"a": 2**200, "b": 0}

    def test_close_flushes_the_buffer(self, tmp_path):
        store = CountStore(tmp_path)
        store.put("k", 42)
        store.close()
        with CountStore(tmp_path) as reopened:
            assert reopened.get("k") == 42

    def test_autoflush_threshold(self, tmp_path):
        from repro.counting.store import AUTOFLUSH_PUTS

        store = CountStore(tmp_path)
        for i in range(AUTOFLUSH_PUTS):
            store.put(f"k{i}", i)
        assert not store._pending  # the threshold write drained the buffer
        with CountStore(tmp_path) as other:
            assert other.get("k0") == 0
            assert other.get(f"k{AUTOFLUSH_PUTS - 1}") == AUTOFLUSH_PUTS - 1
        store.close()

    def test_wal_mode_is_active(self, tmp_path):
        store = CountStore(tmp_path)
        (mode,) = store._connection.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"
        store.close()

    def test_pending_values_win_over_stale_rows(self, tmp_path):
        store = CountStore(tmp_path)
        store.put("k", 1)
        store.flush()
        store.put("k", 2)  # buffered overwrite
        assert store.get("k") == 2
        store.close()

    def test_closed_store_drops_writes_instead_of_buffering(self, tmp_path):
        # Counting after engine.close() is supported; the closed store must
        # not accumulate an unbounded (and unreadable) pending buffer.
        store = CountStore(tmp_path)
        store.close()
        store.put("k", 1)
        store.put_many([("a", 2), ("b", 3)])
        store.flush()
        assert store._pending == {}
        assert len(store) == 0
        assert store.get("k") is None
