"""Tests for the component-cache disk spill.

Covers:

* :class:`ComponentStore` — round-trips of every value shape the component
  cache holds (counts, elimination tuples, the ``"unsat"`` marker), digest
  separation of plain vs ``("elim", …)``-tagged keys, write buffering, and
  the degrade-don't-fail contract (bit-flipped/truncated ``components.sqlite``
  rotates aside and reads as misses — engine construction never crashes);
* the :class:`ComponentCache` spill tier — evict→spill→promote round trips,
  ``spill_all`` at engine close, warm-restart promotions surfacing as
  ``EngineStats.component_spill_hits``, no spill without a ``cache_dir``,
  detaching the store, and counting on after the store closed;
* the session's view of the spill store.
"""

import os

from repro.core.pipeline import MCMLPipeline
from repro.core.session import MCMLSession
from repro.core.tree2cnf import label_region_cnf
from repro.counting import (
    ComponentCache,
    ComponentStore,
    CountingEngine,
)
from repro.counting.store import COMPONENT_STORE_FILENAME, component_key_digest
from repro.spec import SymmetryBreaking, get_property, translate


def _key(*clauses, proj=1):
    return (frozenset(clauses), proj)


def _phi(scope=3, name="PartialOrder", negate=False):
    return translate(
        get_property(name), scope, symmetry=SymmetryBreaking(), negate=negate
    ).cnf


# -- ComponentStore -----------------------------------------------------------------


class TestComponentStore:
    def test_round_trip_of_every_value_shape(self, tmp_path):
        store = ComponentStore(tmp_path)
        count_key = _key((1, 2), (4, 0))
        elim_key = ("elim", frozenset({(1, 2), (4, 0)}), 3)
        store.put(count_key, 42)
        store.put(elim_key, ((5, 2), (1, 0)))
        store.put(_key((8, 1)), "unsat")
        store.put(_key((2, 4), proj=6), 0)  # 0 is a count, not a miss
        store.flush()
        store.close()
        fresh = ComponentStore(tmp_path)
        assert fresh.get(count_key) == 42
        assert fresh.get(elim_key) == ((5, 2), (1, 0))
        assert fresh.get(_key((8, 1))) == "unsat"
        assert fresh.get(_key((2, 4), proj=6)) == 0
        assert fresh.get(_key((9, 0))) is None
        assert len(fresh) == 4
        fresh.close()

    def test_tagged_and_plain_keys_do_not_collide(self):
        clauses = frozenset({(1, 2), (4, 0)})
        assert component_key_digest((clauses, 3)) != component_key_digest(
            ("elim", clauses, 3)
        )

    def test_buffered_puts_visible_before_flush(self, tmp_path):
        store = ComponentStore(tmp_path)
        store.put(_key((1, 0)), 7)
        assert store.get(_key((1, 0))) == 7  # served from the buffer
        store.close()

    def test_put_of_known_key_is_dropped(self, tmp_path):
        store = ComponentStore(tmp_path)
        store.put(_key((1, 0)), 7)
        store.put(_key((1, 0)), 7)
        store.flush()
        assert len(store) == 1
        store.close()

    def test_closed_store_accepts_and_drops(self, tmp_path):
        store = ComponentStore(tmp_path)
        store.close()
        store.put(_key((1, 0)), 7)  # must not raise
        assert store.get(_key((1, 0))) is None
        store.close()  # idempotent

    def test_bit_flipped_file_degrades_to_misses(self, tmp_path):
        store = ComponentStore(tmp_path)
        store.put(_key((1, 0)), 7)
        store.flush()
        store.close()
        path = tmp_path / COMPONENT_STORE_FILENAME
        blob = bytearray(path.read_bytes())
        for i in range(0, min(len(blob), 64)):  # wreck the sqlite header
            blob[i] ^= 0xFF
        path.write_bytes(bytes(blob))
        reopened = ComponentStore(tmp_path)  # must not raise
        assert reopened.get(_key((1, 0))) is None
        reopened.put(_key((2, 0)), 9)  # and must be writable again
        reopened.flush()
        assert reopened.get(_key((2, 0))) == 9
        reopened.close()
        assert path.with_suffix(".sqlite.corrupt").exists()

    def test_truncated_file_never_crashes_engine_construction(self, tmp_path):
        (tmp_path / COMPONENT_STORE_FILENAME).write_bytes(b"SQLite format 3\x00tru")
        engine = CountingEngine(cache_dir=tmp_path)
        assert engine.component_store is not None
        assert engine.solve(_phi()).value == 42
        engine.close()


# -- the spill tier on ComponentCache ------------------------------------------------


class TestSpillTier:
    def test_evict_spill_promote_round_trip(self, tmp_path):
        store = ComponentStore(tmp_path)
        cache = ComponentCache(max_bytes=None, max_entries=2)
        cache.attach_spill(store)
        keys = [_key((1 << i, 0)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        # keys[0] was evicted — to disk, not dropped.
        assert keys[0] not in cache
        assert cache.spills == 1 and cache.evictions == 1
        assert store.get(keys[0]) == 0
        # A miss consults the store and promotes the entry back to memory …
        assert cache.get(keys[0]) == 0
        assert cache.spill_hits == 1
        assert keys[0] in cache
        # … which evicted (and spilled) the then-LRU keys[1].
        assert keys[1] not in cache
        assert cache.get(keys[1]) == 1  # promoted back in turn
        store.close()

    def test_spill_all_persists_live_entries(self, tmp_path):
        store = ComponentStore(tmp_path)
        cache = ComponentCache()
        cache.attach_spill(store)
        for i in range(5):
            cache.put(_key((1 << i, 0)), i)
        assert cache.spill_all() == 5
        store.close()
        fresh = ComponentStore(tmp_path)
        assert all(fresh.get(_key((1 << i, 0))) == i for i in range(5))
        fresh.close()

    def test_absent_key_costs_no_query_when_store_empty(self, tmp_path):
        store = ComponentStore(tmp_path)
        cache = ComponentCache()
        cache.attach_spill(store)
        assert cache.get(_key((1, 0))) is None
        assert cache.misses == 1 and cache.spill_hits == 0
        store.close()

    def test_detaching_spill_keeps_entries_in_memory(self, tmp_path):
        store = ComponentStore(tmp_path)
        cache = ComponentCache()
        cache.attach_spill(store)
        cache.put(_key((1, 0)), 3)
        cache.attach_spill(None)
        assert cache.spill is None
        assert cache.get(_key((1, 0))) == 3  # the entries stay in memory
        assert store.get(_key((1, 0))) is None  # and never reached the store
        store.close()

    def test_counter_with_spill_attached_counts_after_close(self, tmp_path):
        engine = CountingEngine(cache_dir=tmp_path)
        engine.solve(_phi())
        engine.close()
        counter = engine.counter
        assert counter.component_cache.spill is engine.component_store
        counter.component_cache.clear()  # force misses into the closed store
        assert counter.count(_phi()) == 42


# -- engine-level spill semantics ----------------------------------------------------


class TestEngineSpill:
    def test_warm_restart_promotes_components(self, tmp_path):
        phi = _phi()
        cold = CountingEngine(cache_dir=tmp_path)
        expected = cold.solve(phi).value
        cold.close()  # spills the live entries
        assert len(ComponentStore(tmp_path)) > 0
        # Remove the whole-count store so the warm engine must genuinely
        # recount — through promoted components, not memoized answers.
        os.remove(tmp_path / "counts.sqlite")
        warm = CountingEngine(cache_dir=tmp_path)
        result = warm.solve(phi)
        assert result.value == expected
        assert result.source == "backend"
        assert warm.stats.component_spill_hits > 0
        assert warm.stats.component_spill_hits == warm.component_cache.spill_hits
        warm.close()

    def test_spill_serves_new_regions_of_a_known_phi(self, tmp_path):
        """The workload the tier exists for: same φ, *different* regions."""
        prop = get_property("PartialOrder")
        sym = SymmetryBreaking()
        pipeline = MCMLPipeline(seed=0)
        dataset = pipeline.make_dataset(prop, 3, symmetry=sym)
        phi = _phi()

        def problems(fraction):
            train, _ = dataset.split(fraction, rng=0)
            tree = pipeline.train("DT", train)
            paths = tree.decision_paths()
            return [
                phi.conjoin(label_region_cnf(paths, label, 9)) for label in (1, 0)
            ]

        first = CountingEngine(cache_dir=tmp_path)
        first.solve_many(problems(0.75))
        first.close()
        warm = CountingEngine(cache_dir=tmp_path)
        batch = problems(0.3)  # a different tree: whole counts are cold
        results = warm.solve_many(batch)
        assert [r.source for r in results] == ["backend", "backend"]
        assert warm.stats.component_spill_hits > 0
        fresh = CountingEngine()
        assert [r.value for r in results] == [
            r.value for r in fresh.solve_many(batch)
        ]
        warm.close()

    def test_no_cache_dir_means_no_spill(self):
        engine = CountingEngine()
        assert engine.component_store is None
        engine.close()

    def test_clear_rebaselines_spill_hits(self, tmp_path):
        phi = _phi()
        engine = CountingEngine(cache_dir=tmp_path)
        engine.solve(phi)
        engine.component_cache.spill_all()
        # Empty the *whole-count* store and memos so the re-solve genuinely
        # recounts (through promoted components) instead of replaying.
        engine.store.clear()
        engine.clear()
        engine.solve(phi)
        assert engine.stats.component_spill_hits > 0
        delta_base = engine.stats.component_spill_hits
        engine.store.clear()
        engine.clear()
        assert engine.stats.component_spill_hits == 0  # re-baselined
        engine.solve(phi)
        assert engine.stats.component_spill_hits > 0
        assert engine.component_cache.spill_hits >= delta_base
        engine.close()

    def test_session_exposes_component_store(self, tmp_path):
        with MCMLSession(cache_dir=tmp_path) as session:
            assert session.component_store is not None

