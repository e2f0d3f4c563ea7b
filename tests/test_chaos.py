"""Chaos suite: fault-injected tests of the counting stack's robustness layer.

Drives the failure machinery on demand through :mod:`repro.counting.faults`
and asserts the PR's acceptance criteria:

* limits are set once, on the backend (``make_counter``), which refuses a
  malformed one; a limit never changes a count or its store key;
* wall-clock deadlines abort cooperatively (``CounterTimeout``) — never by
  hanging — and ``approxmc``, which has no node budget, ignores one;
* a timeout or budget failure stays a typed, per-problem ``CountFailure``
  (raised or returned) while the rest of its batch completes and caches,
  and a retry resumes from the warm component cache; each abort the
  backend raises keeps its kind and re-raises as itself;
* the disk tiers degrade (rotate, miss, swallow) instead of failing, and
  every such event is visible as ``store_degradations``.

Every test disarms the fault registry on the way out (autouse fixture), and
the tests that could conceivably hang carry a SIGALRM hard timeout so a
regression fails fast instead of wedging the suite.
"""

import signal
import time
from contextlib import contextmanager

import pytest

from repro.counting import (
    ApproxMCCounter,
    CounterAbort,
    CounterBudgetExceeded,
    CounterTimeout,
    CountFailure,
    CountingEngine,
    CountStore,
    ExactCounter,
    faults,
)
from repro.counting.api import (
    Capabilities,
    CountResult,
    available_backends,
    make_counter,
)
from repro.counting.store import STORE_FILENAME
from repro.logic import CNF
from repro.spec import get_property, translate

#: Pinned exact counts (scope 3 is cheap; scope 5 Transitive is the one
#: problem in the repro matrix big enough — ~1.8k search nodes — for the
#: every-128-nodes deadline probe to actually fire).
TRANSITIVE_3 = 171
TRANSITIVE_5 = 154303


@pytest.fixture(autouse=True)
def _clean_faults():
    """No chaos leaks in either direction: disarm before and after."""
    faults.clear()
    yield
    faults.clear()


@contextmanager
def hard_timeout(seconds: int):
    """SIGALRM backstop: a hang becomes a fast, attributable failure."""

    def _alarm(signum, frame):
        raise TimeoutError(f"chaos test exceeded its {seconds}s hard timeout")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def property_cnf(name: str, scope: int) -> CNF:
    return translate(get_property(name), scope).cnf


class AbortingCounter:
    """An exact backend whose every count raises one given abort."""

    name = "aborting"
    capabilities = Capabilities(exact=True)

    def __init__(self, abort: CounterAbort) -> None:
        self.abort = abort
        self.calls = 0

    def count(self, cnf):
        self.calls += 1
        raise self.abort


# -- taxonomy and limit validation ----------------------------------------------------


class TestFailureTaxonomy:
    def test_aborts_share_a_base(self):
        assert issubclass(CounterTimeout, CounterAbort)
        assert issubclass(CounterBudgetExceeded, CounterAbort)
        assert issubclass(CounterAbort, Exception)

    def test_from_exception_classifies(self):
        timeout = CountFailure.from_exception(CounterTimeout("t"), backend="exact")
        budget = CountFailure.from_exception(CounterBudgetExceeded("b"))
        error = CountFailure.from_exception(ValueError("e"))
        assert timeout.kind == "timeout"
        assert timeout.backend == "exact"
        assert isinstance(timeout.cause, CounterTimeout)
        assert budget.kind == "budget"
        assert error.kind == "error"
        assert isinstance(error.cause, ValueError)

    @pytest.mark.parametrize(
        "abort, kind",
        [
            (CounterTimeout("past 2.0s"), "timeout"),
            (CounterBudgetExceeded("past 10 nodes"), "budget"),
            (CounterAbort("stop"), "error"),
        ],
        ids=("timeout", "budget", "abort"),
    )
    def test_engine_types_each_abort_by_kind(self, abort, kind):
        """Each abort the backend raises reaches the caller typed by its
        kind, and re-raises as itself; a failure is never memoized."""
        counter = AbortingCounter(abort)
        engine = CountingEngine(counter)
        cnf = CNF([[1]], num_vars=1)
        failure = engine.solve(cnf, on_failure="return")
        assert isinstance(failure, CountFailure)
        assert failure.kind == kind
        assert failure.backend == "aborting"
        assert failure.cause is abort
        with pytest.raises(CounterAbort) as excinfo:
            engine.solve(cnf)
        assert excinfo.value is abort
        assert counter.calls == 2
        assert engine.stats.backend_calls == 0
        assert engine.stats.timeouts == (2 if kind == "timeout" else 0)

    def test_deadline_must_be_positive(self):
        for name in available_backends():
            for deadline in (0, -1.5, float("inf"), float("nan"), True, "5"):
                with pytest.raises(ValueError, match="deadline"):
                    make_counter(name, deadline=deadline)
        assert make_counter("exact", deadline=2.5).deadline == 2.5

    def test_budget_must_be_a_positive_integer(self):
        # Checked for both backends, also approxmc, which has no budget knob.
        for name in available_backends():
            for budget in (0, -5, 2.5, True, "abc"):
                with pytest.raises(ValueError, match="budget"):
                    make_counter(name, budget=budget)
        assert make_counter("exact", budget=1).max_nodes == 1

    def test_signature_ignores_limits(self, tmp_path):
        """A limit decides only whether a count finishes: an unlimited
        backend reads the count a limited one stored, under the same key."""
        cnf = property_cnf("Transitive", 3)
        limited = make_counter("exact", budget=10**6, deadline=60.0)
        with CountingEngine(limited, cache_dir=tmp_path) as engine:
            assert engine.solve(cnf).value == TRANSITIVE_3
        with CountingEngine(ExactCounter(), cache_dir=tmp_path) as engine:
            stored = engine.solve(cnf)
        assert (stored.source, stored.value) == ("store", TRANSITIVE_3)


class TestFaultHarness:
    def test_arm_and_disarm(self):
        faults.inject("store-read-corrupt")
        faults.inject("store-disk-full", 2)
        assert faults.active("store-disk-full") == 2
        assert faults.active("store-read-corrupt") is True
        assert faults.active("not-armed") is None
        faults.clear("store-disk-full")
        assert faults.active("store-disk-full") is None
        assert faults.active("store-read-corrupt") is True
        faults.clear()
        assert faults.active("store-read-corrupt") is None

    def test_injected_context_manager(self):
        with faults.injected("store-disk-full", 3):
            assert faults.active("store-disk-full") == 3
        assert faults.active("store-disk-full") is None


# -- cooperative deadlines ------------------------------------------------------------


class TestCooperativeDeadline:
    def test_exact_counter_times_out(self):
        cnf = property_cnf("Transitive", 5)
        counter = ExactCounter(deadline=0.01)
        started = time.monotonic()
        with hard_timeout(60):
            with pytest.raises(CounterTimeout):
                counter.count(cnf)
        # The probe fires every 128 nodes, so the abort lands promptly —
        # generous bound, the unlimited count itself takes well under 1s.
        assert time.monotonic() - started < 5.0

    def test_unlimited_count_pins_the_value(self):
        assert ExactCounter().count(property_cnf("Transitive", 5)) == TRANSITIVE_5

    def test_approxmc_times_out(self):
        cnf = property_cnf("Transitive", 5)
        counter = ApproxMCCounter(seed=0, deadline=0.05)
        with hard_timeout(60):
            with pytest.raises(CounterTimeout):
                counter.count(cnf)

    def test_engine_deadline_raises_a_typed_timeout(self):
        engine = CountingEngine(make_counter("exact", deadline=0.01))
        with hard_timeout(60):
            with pytest.raises(CounterTimeout):
                engine.solve(property_cnf("Transitive", 5))
            failure = engine.solve(property_cnf("Transitive", 5), on_failure="return")
        assert failure.kind == "timeout"
        assert engine.counter.deadline == 0.01  # the limit stays on the backend
        assert engine.stats.timeouts == 2

    def test_backend_without_a_budget_knob_ignores_budgets(self):
        """Limits are cooperative: nothing aborts a backend that cannot
        check one, so ``approxmc`` counts past a one-node budget."""
        engine = CountingEngine(make_counter("approxmc", budget=1))
        with hard_timeout(60):
            result = engine.solve(CNF([[1, 2], [3]], projection=[1, 2, 3]))
        # 3 models are below ApproxMC's cell threshold: counted outright.
        assert result.value == 3
        assert engine.stats.timeouts == 0

    def test_timed_out_work_warms_the_resume(self):
        """A retry after a timeout resumes from the warm tiers, not scratch."""
        engine = CountingEngine(make_counter("exact", deadline=0.02))
        cnf = property_cnf("Transitive", 5)
        with hard_timeout(60):
            with pytest.raises(CounterTimeout):
                engine.solve(cnf)
        # The aborted search already paid for components; they stayed.
        assert engine.component_cache is not None
        warmed = len(engine.component_cache)
        assert warmed > 0
        # An unlimited retry counts through the same component cache.
        retry = CountingEngine(ExactCounter(component_cache=engine.component_cache))
        result = retry.solve(cnf)
        assert result.value == TRANSITIVE_5
        assert result.source == "backend"

    def test_budget_aborted_work_shortens_the_resume(self):
        """Node counts are deterministic, so the resume's saving is exact:
        the retry spends fewer nodes than a cold count."""
        cnf = property_cnf("Transitive", 5)
        cold = ExactCounter()
        assert cold.count(cnf) == TRANSITIVE_5
        engine = CountingEngine(make_counter("exact", budget=cold._nodes // 2))
        with pytest.raises(CounterBudgetExceeded):
            engine.solve(cnf)
        retry = ExactCounter(component_cache=engine.component_cache)
        assert retry.count(cnf) == TRANSITIVE_5
        assert retry._nodes < cold._nodes

    def test_mid_batch_failure_leaves_the_rest_typed(self):
        """on_failure="return": one bad problem cannot poison the batch."""
        # 100 nodes count both easy problems, not the hard one (~1.8k).
        engine = CountingEngine(make_counter("exact", budget=100))
        easy = property_cnf("Transitive", 3)
        easy2 = property_cnf("PartialOrder", 3)
        hard = property_cnf("Transitive", 5)
        results = engine.solve_many([easy, hard, easy2], on_failure="return")
        assert isinstance(results[0], CountResult)
        assert results[0].value == TRANSITIVE_3
        assert isinstance(results[1], CountFailure)
        assert results[1].kind == "budget"
        assert isinstance(results[1].cause, CounterBudgetExceeded)
        assert isinstance(results[2], CountResult)
        # Completed counts reached the memo even though a sibling failed.
        assert engine.solve(easy).source == "memo"
        assert engine.solve(easy2).source == "memo"
        assert engine.stats.backend_calls == 2

    def test_raise_mode_reraises_the_original_exception(self):
        """on_failure="raise": the batch still finishes, and its siblings
        reach the memo before the original abort re-raises."""
        engine = CountingEngine(make_counter("exact", budget=100))
        easy = property_cnf("Transitive", 3)
        easy2 = property_cnf("PartialOrder", 3)
        hard = property_cnf("Transitive", 5)
        with pytest.raises(CounterBudgetExceeded):
            engine.solve_many([easy, hard, easy2])
        assert engine.stats.backend_calls == 2
        assert engine.solve(easy).source == "memo"
        assert engine.solve(easy2).source == "memo"


# -- disk-tier degradations -----------------------------------------------------------


class TestStoreDegradations:
    def test_corrupt_database_rotation_is_counted(self, tmp_path):
        (tmp_path / STORE_FILENAME).write_bytes(b"this is not a sqlite file")
        with CountStore(tmp_path) as store:
            assert store.degradations == 1
            assert (tmp_path / (STORE_FILENAME + ".corrupt")).exists()
            store.put("k", 7)
            store.flush()
            assert store.get("k") == 7

    def test_injected_read_corruption_reads_as_miss(self, tmp_path):
        with CountStore(tmp_path) as store:
            store.put("k", 7)
            store.flush()
            with faults.injected("store-read-corrupt"):
                assert store.get("k") is None
            assert store.degradations == 1
            assert store.get("k") == 7  # healthy again once disarmed

    def test_injected_disk_full_is_swallowed(self, tmp_path):
        with CountStore(tmp_path) as store:
            with faults.injected("store-disk-full"):
                store.put_many([("k", 7)])
            assert store.degradations == 1
            # The failed write was dropped (a cache entry is recountable).
            assert store.get("k") is None
            store.put_many([("k", 7)])  # the "recount" repairs it
            assert store.get("k") == 7

    def test_engine_surfaces_store_degradations(self, tmp_path):
        engine = CountingEngine(ExactCounter(), cache_dir=tmp_path)
        with faults.injected("store-disk-full"):
            engine.solve(property_cnf("Transitive", 3))
        assert engine.stats.store_degradations >= 1
        engine.close()

