"""Tests for the counting engine's batch path and its satellite bugfixes.

Covers:

* :class:`CountStore` — round-trips of arbitrary-precision counts, graceful
  handling of corrupted rows and corrupted database files;
* batch solving — empty batches, bit-identity with one-at-a-time solving
  over the property matrix, memo merging, cold problems counted in batch
  order on a limited backend, in-process counting of unpicklable
  backends, and completed counts surviving a mid-batch failure or error;
* the engine's disk persistence — a cold run populates the store, a warm
  run in a fresh engine performs *zero* backend calls (``EngineStats``);
  a seeded approximate backend neither persists nor reorders its draws;
* the ``translate``/``ground_truth`` memo-key regression — two distinct
  properties sharing a name must not collide;
* the ApproxMC ``m = 1`` frontier — no duplicated cell enumeration;
* the closed-form oracle audit — all 16 closed forms pinned to the exact
  counter at scopes 2–4 (the Injective = n^n reading included);
* the engine lock — two threads hammering ``solve_many`` on one session
  get bit-identical counts and a consistent ``EngineStats``, and three
  threads splitting the 16-property matrix get the single-threaded values;
* a shared ``cache_dir`` — how warm counts cross sessions and processes:
  a fresh session reads each matrix count from a directory another
  session filled, sessions on concurrent threads share one directory, and
  concurrent ``mcml`` runs over one ``--cache-dir`` print the same table
  while a third run counts nothing.
"""

import json
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.session import MCMLSession
from repro.counting import (
    ApproxMCCounter,
    Capabilities,
    CountingEngine,
    CountStore,
    ExactCounter,
    closed_form_count,
    signature_key,
)
from repro.counting.api import make_counter
from repro.counting.store import STORE_FILENAME
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.properties import PROPERTIES, Property

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def property_cnf(name: str, scope: int) -> CNF:
    return translate(
        get_property(name), scope, symmetry=SymmetryBreaking()
    ).cnf


#: The differential matrix at the cheap scopes: batching does not change
#: the counter, so this pins plumbing (dedup, memo, shared cache), not search.
MATRIX_CASES = [
    (prop, scope, symmetry)
    for prop in PROPERTIES
    for scope in (2, 3)
    for symmetry in (None, SymmetryBreaking())
]


class TestCountStore:
    def test_round_trip_arbitrary_precision(self, tmp_path):
        store = CountStore(tmp_path)
        huge = 2**400 + 12345
        store.put("k1", huge)
        store.put_many([("k2", 0), ("k3", 7)])
        assert store.get("k1") == huge
        assert store.get_many(["k1", "k2", "k3", "k4"]) == {
            "k1": huge,
            "k2": 0,
            "k3": 7,
        }
        assert store.get("missing") is None
        assert len(store) == 3
        store.close()
        # A fresh handle over the same directory sees the same counts.
        with CountStore(tmp_path) as reopened:
            assert reopened.get("k1") == huge

    def test_signature_key_is_stable_and_projection_sensitive(self):
        narrow = CNF([[1]], num_vars=1, projection=[1])
        wide = CNF([[1]], num_vars=3, projection=[1, 2, 3])
        assert signature_key(narrow.signature()) == signature_key(
            narrow.copy().signature()
        )
        assert signature_key(narrow.signature()) != signature_key(wide.signature())

    def test_corrupted_row_reads_as_miss(self, tmp_path):
        store = CountStore(tmp_path)
        store.put("good", 42)
        store.put("bad", 7)
        store.flush()  # singles are buffered; corrupt the *written* row
        with sqlite3.connect(store.path) as raw:
            raw.execute("UPDATE counts SET value = 'not-a-number' WHERE key = 'bad'")
            raw.commit()
        assert store.get("good") == 42
        assert store.get("bad") is None
        # Recounting repairs the row.
        store.put("bad", 8)
        assert store.get("bad") == 8

    def test_corrupted_database_file_is_rotated(self, tmp_path):
        wreck = tmp_path / STORE_FILENAME
        wreck.write_bytes(b"this is definitely not a sqlite database")
        store = CountStore(tmp_path)
        assert len(store) == 0
        store.put("k", 3)
        assert store.get("k") == 3
        assert wreck.with_suffix(wreck.suffix + ".corrupt").exists()

    def test_clear_keeps_file(self, tmp_path):
        store = CountStore(tmp_path)
        store.put("k", 1)
        store.clear()
        assert len(store) == 0
        assert store.path.exists()


class TestBatchSolve:
    def test_empty_batch(self):
        assert CountingEngine().solve_many([]) == []

    def test_batch_bit_identical_to_one_at_a_time(self):
        batch = [
            translate(prop, scope, symmetry=symmetry).cnf
            for prop, scope, symmetry in MATRIX_CASES
        ]
        batched = [r.value for r in CountingEngine().solve_many(batch)]
        singles = [CountingEngine().solve(cnf).value for cnf in batch]
        assert batched == singles

    def test_batch_results_merge_into_memo(self):
        batch = [
            translate(get_property(name), 3).cnf
            for name in ("Reflexive", "Transitive", "Connex", "Function")
        ]
        engine = CountingEngine()
        first = [r.value for r in engine.solve_many(batch)]
        assert engine.stats.backend_calls == len(batch)
        second = [r.value for r in engine.solve_many(batch)]
        assert second == first
        assert engine.stats.backend_calls == len(batch)  # all memo hits now
        assert engine.stats.count_hits == len(batch)

    def test_cold_problems_reach_the_backend_in_batch_order(self):
        seen = []

        class RecordingCounter(ExactCounter):
            def count(self, cnf):
                seen.append(cnf.signature())
                return super().count(cnf)

        a, b, c, d = (
            translate(get_property(name), 3).cnf
            for name in ("Reflexive", "Transitive", "Connex", "Function")
        )
        engine = CountingEngine(RecordingCounter(max_nodes=10**6, deadline=60.0))
        engine.solve(c)
        seen.clear()
        engine.solve_many(
            [
                a,
                b,
                c,  # memo hit
                a.copy(),  # in-batch duplicate
                d,
            ]
        )
        # On a limited backend too, cold problems run once each, in the
        # order they were submitted; hits and duplicates never reach it.
        assert seen == [a.signature(), b.signature(), d.signature()]

    def test_backend_that_does_not_pickle_counts_in_process(self):
        class Unpicklable:
            name = "closure"
            capabilities = Capabilities(exact=True)

            def __init__(self):
                self.fn = lambda cnf: ExactCounter().count(cnf)  # defeats pickle

            def count(self, cnf):
                return self.fn(cnf)

        engine = CountingEngine(Unpicklable())
        problems = [
            CNF([[1, 2]], projection=[1, 2]),
            CNF([[1], [2, 3]], projection=[1, 2, 3]),
        ]
        assert [r.value for r in engine.solve_many(problems)] == [3, 3]
        assert engine.stats.backend_calls == 2

    def test_backend_errors_propagate_after_completed_counts_merge(self, tmp_path):
        easy = CNF([[1, 2]], projection=[1, 2])
        broken = CNF([[1], [2, 3]], projection=[1, 2, 3])

        class BrokenOnOne(ExactCounter):
            def count(self, cnf):
                if cnf.signature() == broken.signature():
                    raise RuntimeError("not a resource failure")
                return super().count(cnf)

        engine = CountingEngine(BrokenOnOne(), cache_dir=tmp_path)
        # A genuine backend error is no per-problem outcome: it leaves the
        # batch at once, but the count already paid for is kept.
        with pytest.raises(RuntimeError, match="not a resource failure"):
            engine.solve_many([easy, broken])
        assert engine.stats.backend_calls == 1
        assert engine.solve(easy.copy()).source == "memo"
        assert engine.store.get(signature_key(easy.signature())) == 3
        engine.close()

    def test_completed_counts_survive_a_mid_batch_failure(self, tmp_path):
        from repro.counting.exact import CounterBudgetExceeded

        easy = CNF([[1, 2]], projection=[1, 2])  # 3 models, two search nodes
        hard = translate(get_property("Transitive"), 3).cnf  # blows a 10-node budget
        engine = CountingEngine(ExactCounter(max_nodes=10), cache_dir=tmp_path)
        with pytest.raises(CounterBudgetExceeded):
            engine.solve_many([easy, hard])
        # The count paid for before the failure reached memo *and* store.
        assert engine.stats.backend_calls == 1
        assert engine.solve(easy.copy()).value == 3
        assert engine.stats.count_hits == 1
        assert engine.store.get(signature_key(easy.signature())) == 3
        engine.close()


class TestDiskPersistentEngine:
    def _batch(self):
        return [
            translate(get_property(name), 3, symmetry=symmetry).cnf
            for name in ("PartialOrder", "Equivalence", "Function")
            for symmetry in (None, SymmetryBreaking())
        ]

    def test_cold_populates_warm_hits_with_zero_backend_calls(self, tmp_path):
        batch = self._batch()

        cold = CountingEngine(cache_dir=tmp_path)
        first = [r.value for r in cold.solve_many(batch)]
        assert cold.stats.backend_calls == len(batch)
        assert cold.stats.store_hits == 0
        assert len(cold.store) == len(batch)
        cold.close()

        warm = CountingEngine(cache_dir=tmp_path)
        second = [r.value for r in warm.solve_many(batch)]
        assert second == first
        assert warm.stats.backend_calls == 0
        assert warm.stats.store_hits == len(batch)
        warm.close()

    def test_singular_count_uses_store(self, tmp_path):
        cnf = translate(get_property("Transitive"), 3).cnf
        cold = CountingEngine(cache_dir=tmp_path)
        value = cold.solve(cnf).value
        cold.close()
        warm = CountingEngine(cache_dir=tmp_path)
        assert warm.solve(cnf.copy()).value == value
        assert warm.stats.backend_calls == 0
        assert warm.stats.store_hits == 1
        # Second call in the same engine is an in-memory memo hit.
        assert warm.solve(cnf).value == value
        assert warm.stats.count_hits == 1
        warm.close()

    def test_corrupted_entry_triggers_recount_and_repair(self, tmp_path):
        cnf = translate(get_property("Connex"), 3).cnf
        cold = CountingEngine(cache_dir=tmp_path)
        value = cold.solve(cnf).value
        key = signature_key(cnf.signature())
        cold.close()
        with sqlite3.connect(tmp_path / STORE_FILENAME) as raw:
            raw.execute("UPDATE counts SET value = 'garbage' WHERE key = ?", (key,))
            raw.commit()
        warm = CountingEngine(cache_dir=tmp_path)
        assert warm.solve(cnf).value == value  # graceful miss → recount
        assert warm.stats.backend_calls == 1
        assert warm.store.get(key) == value  # …and the row is repaired
        warm.close()

    def test_clear_keeps_disk_store(self, tmp_path):
        engine = CountingEngine(cache_dir=tmp_path)
        cnf = translate(get_property("Reflexive"), 2).cnf
        engine.solve(cnf)
        engine.clear()
        assert engine.solve(cnf).value == 1 << 2  # reflexive scope 2: 2 free bits
        assert engine.stats.store_hits == 1
        assert engine.stats.backend_calls == 0
        engine.close()

    def test_approximate_backend_never_touches_the_store(self, tmp_path):
        # An (ε, δ) estimate persisted under a signature-only key would be
        # served to later *exact* runs sharing the cache_dir — so engines
        # over non-exact backends must neither write nor read the store.
        cnf = CNF(num_vars=12, projection=range(1, 13))
        approx_engine = CountingEngine(ApproxMCCounter(seed=3), cache_dir=tmp_path)
        assert approx_engine.store is None
        approx_engine.solve(cnf)  # would have persisted 4096±ε
        exact_engine = CountingEngine(cache_dir=tmp_path)
        assert exact_engine.solve(cnf).value == 4096
        assert exact_engine.stats.store_hits == 0
        assert exact_engine.stats.backend_calls == 1
        exact_engine.close()

    def test_estimates_are_never_memoized(self):
        # Nor does the in-memory memo replay an estimate as if it were
        # exact: every solve of an approximate engine recounts.
        cnf = translate(get_property("Transitive"), 3).cnf
        engine = CountingEngine(ApproxMCCounter(seed=0))
        first, second = engine.solve(cnf), engine.solve(cnf)
        assert first.source == second.source == "backend"
        assert engine.stats.backend_calls == 2

    def test_seeded_approximate_batch_draws_in_batch_order(self):
        # A seeded approximate backend draws every estimate from one random
        # stream, so a batch must consume it in submission order to match
        # counting the problems one at a time on a backend with the same
        # seed; a deadline the counts fit in changes no draw.  Seed 9
        # estimates Transitive differently when it is drawn first.
        first = translate(get_property("Antisymmetric"), 3).cnf
        second = translate(get_property("Transitive"), 3).cnf
        reference = ApproxMCCounter(seed=9)
        expected = [reference.count(first), reference.count(second)]
        limited = make_counter("approxmc", seed=9, deadline=60.0)
        results = CountingEngine(limited).solve_many([first, second])
        assert [r.value for r in results] == expected
        assert not any(r.exact for r in results)

    def test_engines_share_a_cache_dir(self, tmp_path):
        batch = self._batch()
        producer = CountingEngine(cache_dir=tmp_path)
        counts = [r.value for r in producer.solve_many(batch)]
        producer.close()
        consumer = CountingEngine(cache_dir=tmp_path)
        assert [r.value for r in consumer.solve_many(batch)] == counts
        assert consumer.stats.backend_calls == 0
        consumer.close()


class TestMemoKeyRegression:
    """Two distinct same-named properties must never share a memo entry."""

    def _twins(self):
        reflexive = get_property("Reflexive")
        transitive = get_property("Transitive")
        first = Property("Twin", reflexive.formula, 5, 3, "reflexive")
        second = Property("Twin", transitive.formula, 6, 3, "transitive")
        return first, second

    def test_translate_does_not_collide_on_names(self):
        first, second = self._twins()
        engine = CountingEngine()
        problem_first = engine.translate(first, 3)
        problem_second = engine.translate(second, 3)
        assert problem_first is not problem_second
        assert engine.stats.translate_hits == 0
        # Reflexive at scope 3 leaves the 6 off-diagonal bits free (2^6);
        # Transitive counts 171 — a name-keyed memo returns 64 for both.
        assert engine.solve(problem_first.cnf).value == 64
        assert engine.solve(problem_second.cnf).value == 171

    def test_translate_still_memoizes_structural_equals(self):
        first, _ = self._twins()
        clone = Property("Twin", first.formula, 5, 3, "reflexive")
        engine = CountingEngine()
        assert engine.translate(first, 3) is engine.translate(clone, 3)
        assert engine.stats.translate_hits == 1

    def test_ground_truth_does_not_collide_on_names(self):
        first, second = self._twins()
        engine = CountingEngine()
        gt_first = engine.ground_truth(first, 3)
        gt_second = engine.ground_truth(second, 3)
        assert gt_first is not gt_second
        assert engine.solve(gt_first.positive().cnf).value == 64
        assert engine.solve(gt_second.positive().cnf).value == 171


class TestApproxMCFrontier:
    """The m = 1 frontier must be enumerated exactly once per round."""

    def _spy(self, monkeypatch):
        calls: list[int] = []
        original = ApproxMCCounter._cell_size

        def recording(self, cnf, projection, xors, m):
            calls.append(m)
            return original(self, cnf, projection, xors, m)

        monkeypatch.setattr(ApproxMCCounter, "_cell_size", recording)
        return calls

    def test_no_duplicate_cell_enumeration_in_a_round(self, monkeypatch):
        calls = self._spy(monkeypatch)
        # 2^7 = 128 models > threshold 72; one hash halves the cell below
        # the pivot, so every round's frontier sits at m = 1.
        cnf = CNF(num_vars=7, projection=range(1, 8))
        counter = ApproxMCCounter(seed=5, rounds=1)
        counter.count(cnf)
        assert calls, "hashing rounds never ran"
        # One round: the walk-down may probe several distinct m values but
        # must never enumerate the same cell twice (the seed re-ran m=1).
        assert len(calls) == len(set(calls))

    def test_m1_frontier_estimate_is_sound(self):
        cnf = CNF(num_vars=7, projection=range(1, 8))
        epsilon = 0.8
        estimate = ApproxMCCounter(epsilon=epsilon, delta=0.2, seed=11).count(cnf)
        assert 128 / (1 + epsilon) <= estimate <= 128 * (1 + epsilon)


class TestClosedFormAudit:
    """All 16 closed forms pinned to the exact counter at scopes 2–4."""

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_closed_form_matches_exact_counter(self, prop, scope):
        cnf = translate(prop, scope).cnf
        assert ExactCounter().count(cnf) == closed_form_count(prop.oracle, scope)

    def test_injective_reading_is_the_column_function(self):
        # The audit's conclusion, pinned explicitly: the study's Injective
        # predicate (one pre-image per atom) counts n^n like Function, and
        # both match the exact counter — not the injective-partial-function
        # count, which differs from scope 2 on (7 vs 4).
        assert closed_form_count("injective", 8) == closed_form_count("function", 8)
        injective_partial_functions_n2 = 7  # Σ_k C(2,k)²·k! = 1 + 4 + 2
        assert closed_form_count("injective", 2) == 4
        assert closed_form_count("injective", 2) != injective_partial_functions_n2


class TestEngineLock:
    def test_two_threads_hammering_solve_many_stay_bit_identical(self):
        problems = [property_cnf(name, 3) for name in ("Reflexive", "Transitive", "Antisymmetric")]
        with CountingEngine(ExactCounter()) as reference:
            expected = [r.value for r in reference.solve_many(problems)]
        with MCMLSession(backend="exact") as session:
            results: dict[int, list[int]] = {}
            errors: list[Exception] = []

            def hammer(slot):
                try:
                    mine = []
                    for _ in range(5):
                        mine = [r.value for r in session.solve_many(problems)]
                    results[slot] = mine
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert results[0] == expected
            assert results[1] == expected
            # One consistent EngineStats: every problem hit the backend
            # exactly once; every other call was a memo hit.
            assert session.engine.stats.backend_calls == len(problems)
            assert session.engine.stats.count_calls == len(problems) * 10
            assert session.engine.stats.count_hits == session.engine.stats.count_calls - len(problems)

    def test_three_threads_matrix_bit_identical_to_in_process(self, tmp_path):
        """16 properties x scopes 2-4 split over three threads of one
        session: the values may not move, and each problem is counted once.
        The store is read and written from threads other than the one that
        opened it."""
        batch = [translate(prop, scope).cnf for prop in PROPERTIES for scope in (2, 3, 4)]
        with MCMLSession(backend="exact") as local:
            expected = [r.value for r in local.solve_many(batch)]
        answered: list[int | None] = [None] * len(batch)
        errors: list[Exception] = []
        with MCMLSession(backend="exact", cache_dir=str(tmp_path)) as session:

            def worker(offset: int) -> None:
                try:
                    for index in range(offset, len(batch), 3):
                        answered[index] = session.solve(batch[index]).value
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert session.engine.stats.backend_calls == len(
                {cnf.signature() for cnf in batch}
            )
        assert answered == expected


def _table_and_engine(stdout: str) -> tuple[list[str], dict]:
    """Split ``mcml ... --stats`` output into its table rows, without the
    trailing ``Time[s]`` column, and the engine counters."""
    split = stdout.index("\n{")
    rows = [line.rsplit(maxsplit=1)[0] for line in stdout[:split].splitlines() if line.strip()]
    return rows, json.loads(stdout[split + 1:])["engine"]


class TestSharedCacheDir:
    """Warm counts cross session and process boundaries through one
    ``cache_dir``: every session pointed at it reads what any other wrote."""

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_fresh_session_reads_the_count_another_session_wrote(
        self, tmp_path, prop, scope
    ):
        cnf = translate(prop, scope).cnf
        with MCMLSession(backend="exact", cache_dir=str(tmp_path)) as producer:
            written = producer.solve(cnf)
        assert written.source == "backend"
        with MCMLSession(backend="exact", cache_dir=str(tmp_path)) as consumer:
            read = consumer.solve(cnf)
            assert consumer.engine.stats.backend_calls == 0
        assert read.source == "store"
        assert read.value == written.value == closed_form_count(prop.oracle, scope)

    def test_sessions_on_concurrent_threads_share_one_cache_dir(self, tmp_path):
        names = ("PartialOrder", "Equivalence", "Function", "Transitive")
        batch = [translate(get_property(name), 3).cnf for name in names]
        expected = [ExactCounter().count(cnf) for cnf in batch]
        answers: dict[int, list[int]] = {}
        errors: list[Exception] = []

        def worker(slot: int) -> None:
            try:
                with MCMLSession(backend="exact", cache_dir=str(tmp_path)) as session:
                    answers[slot] = [r.value for r in session.solve_many(batch)]
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert [answers[slot] for slot in range(3)] == [expected] * 3
        with MCMLSession(backend="exact", cache_dir=str(tmp_path)) as reader:
            assert [r.value for r in reader.solve_many(batch)] == expected
            assert reader.engine.stats.backend_calls == 0
            assert reader.engine.stats.store_degradations == 0

    def test_concurrent_cli_runs_share_one_cache_dir(self, tmp_path):
        argv = [
            sys.executable, "-m", "repro.experiments.cli", "table8",
            "--scope", "3", "--properties", "Reflexive", "PartialOrder",
            "--cache-dir", str(tmp_path), "--stats",
        ]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": SRC_DIR + (os.pathsep + path if path else "")}
        runs = [
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
            for _ in range(2)
        ]
        outputs = []
        try:
            for proc in runs:
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                outputs.append(out)
        finally:
            for proc in runs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        third = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert third.returncode == 0, third.stderr
        outputs.append(third.stdout)
        (first, _), (second, _), (warm, engine) = map(_table_and_engine, outputs)
        assert "Table 8" in first[0]
        assert first == second == warm
        # The third run found every count the concurrent pair wrote.
        assert engine["backend_calls"] == 0
        assert engine["store_hits"] == engine["count_calls"] > 0
