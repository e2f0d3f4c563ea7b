"""Functional tests of the counting service daemon (PR 8).

Covers, in-process (daemon subprocess scenarios live in
``test_service_chaos.py``):

* wire serialization — ``CountRequest`` / ``CountResult`` /
  ``CountFailure`` / the ``CounterAbort`` family round-trip through JSON
  with provenance intact (``cause`` flattens to a string and rehydrates
  as the right abort type);
* the solve verbs — counts over the wire are bit-identical to the same
  session called directly, failures arrive as the same typed objects with
  the same raise/return contract;
* accmc/diffmc over the wire — trees travel as decision paths and the
  daemon-side metrics match a local evaluation;
* coalescing — identical concurrent requests cost one backend call, every
  waiter gets its own response;
* admission control — a full queue and an exhausted per-client in-flight
  budget answer typed ``overloaded``, never buffer or hang;
* the ``stats`` verb — engine stats + queue depth + per-client and
  served/failure counters, sharing its engine block with ``mcml --stats``;
* the engine lock — two threads hammering ``solve_many`` on one session
  get bit-identical counts and a consistent ``EngineStats``, and three
  concurrent clients of the daemon's one solver thread get the
  in-process values over the 16-property matrix;
* client-side chunking — ``ServiceClient.solve_many`` splits batches
  under the daemon's line ceiling instead of earning a blanket
  ``oversized`` rejection.
"""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.session import MCMLSession
from repro.counting.api import (
    CountFailure,
    CountRequest,
    CountResult,
    EngineStats,
)
from repro.counting.engine import CountingEngine
from repro.counting.exact import (
    CounterAbort,
    CounterBudgetExceeded,
    CounterTimeout,
    ExactCounter,
)
from repro.counting.service import CountingServer, ServiceClient, ServiceError
from repro.counting.service import protocol
from repro.counting.service.client import ServiceOverloaded
from repro.counting.service.server import _Connection
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


def property_cnf(name: str, scope: int) -> CNF:
    return translate(
        get_property(name), scope, symmetry=SymmetryBreaking()
    ).cnf


class DelayCounter:
    """Exact counting behind a fixed sleep — a coalescing window you can see."""

    name = "delay-exact"
    capabilities = ExactCounter.capabilities

    def __init__(self, delay: float = 0.4) -> None:
        self._inner = ExactCounter()
        self.delay = delay

    def count(self, cnf: CNF) -> int:
        time.sleep(self.delay)
        return self._inner.count(cnf)


@contextmanager
def running_server(session, **kwargs):
    """A started server + drain thread; always drained on the way out."""
    server = CountingServer(session, port=0, **kwargs)
    host, port = server.start()
    runner = threading.Thread(target=server.serve_until_drained, daemon=True)
    runner.start()
    try:
        yield server, host, port
    finally:
        server.initiate_drain("test teardown")
        runner.join(timeout=30)
        assert not runner.is_alive(), "drain did not finish"


@pytest.fixture
def exact_service():
    with MCMLSession(backend="exact") as session:
        with running_server(session) as (server, host, port):
            yield session, server, host, port


# -- wire serialization (satellite: failure taxonomy over JSON) ----------------------


class TestWireSerialization:
    def test_count_request_round_trip(self):
        request = CountRequest.from_cnf(
            CNF(num_vars=4, clauses=[(1, -2), (3,), (-4, 2)]),
            deadline=1.5,
            budget=100,
        )
        again = CountRequest.from_dict(request.to_dict())
        assert again == request
        assert again.signature() == request.signature()

    def test_unknown_request_keys_are_rejected(self):
        """A misspelled or retired field must not be counted as the bare CNF."""
        payload = {
            "clauses": [[1, 2]],
            "num_vars": 2,
            "projection": [1, 2],
            "strategy_typo": "per-path",
            "cubez": [[1]],
        }
        with pytest.raises(ValueError, match="cubez, strategy_typo"):
            CountRequest.from_dict(payload)

    def test_count_result_round_trip_preserves_big_counts(self):
        result = CountResult(
            value=2**200 + 1,  # past any IEEE double: must travel as text
            exact=True,
            backend="exact",
            source="backend",
            elapsed_seconds=0.25,
            stats_delta=EngineStats(backend_calls=1),
        )
        again = CountResult.from_dict(result.to_dict())
        assert again.value == result.value
        assert again.exact and again.backend == "exact"
        assert again.stats_delta.backend_calls == 1

    @pytest.mark.parametrize(
        "abort, kind",
        [
            (CounterTimeout("past 2.0s"), "timeout"),
            (CounterBudgetExceeded("past 10 nodes"), "budget"),
            (CounterAbort("stop"), "abort"),
        ],
    )
    def test_abort_family_round_trips_by_kind(self, abort, kind):
        payload = abort.to_dict()
        assert payload["kind"] == kind
        again = CounterAbort.from_dict(payload)
        assert type(again) is type(abort)
        assert str(again) == str(abort)

    def test_unknown_abort_kind_degrades_to_base(self):
        again = CounterAbort.from_dict({"kind": "??", "message": "m"})
        assert type(again) is CounterAbort

    def test_count_failure_round_trip_flattens_cause(self):
        failure = CountFailure(
            "timeout",
            "deadline of 2.0s exceeded",
            backend="exact",
            cause=CounterTimeout("past 2.0s"),
            elapsed_seconds=2.01,
        )
        payload = failure.to_dict()
        assert isinstance(payload["cause"], str)
        again = CountFailure.from_dict(payload)
        assert again.kind == "timeout"
        assert again.backend == "exact"
        assert again.elapsed_seconds == pytest.approx(2.01)
        assert isinstance(again.cause, CounterTimeout)

    def test_count_failure_without_cause_stays_causeless(self):
        failure = CountFailure("timeout", "deadline exceeded", backend="exact")
        again = CountFailure.from_dict(failure.to_dict())
        assert again.kind == "timeout"
        assert again.cause is None


# -- solve verbs over the wire -------------------------------------------------------


class TestSolveVerbs:
    def test_solve_bit_identical_to_local(self, exact_service):
        session, _, host, port = exact_service
        cnf = property_cnf("PartialOrder", 3)
        expected = CountingEngine(ExactCounter()).solve(cnf).value
        with ServiceClient(host, port) as client:
            result = client.solve(cnf)
        assert result.value == expected
        assert result.exact
        assert result.backend == "exact"
        assert session.engine.stats.backend_calls == 1

    def test_solve_many_mixes_results_and_failures(self, exact_service):
        _, _, host, port = exact_service
        easy = CNF(num_vars=2, clauses=[(1,), (2,)])
        hard = CountRequest.from_cnf(property_cnf("Transitive", 4), budget=5)
        with ServiceClient(host, port) as client:
            outcomes = client.solve_many([easy, hard], on_failure="return")
        assert isinstance(outcomes[0], CountResult)
        assert outcomes[0].value == 1
        assert isinstance(outcomes[1], CountFailure)
        assert outcomes[1].kind == "budget"
        assert isinstance(outcomes[1].cause, CounterBudgetExceeded)

    def test_remote_failure_contract_matches_engine(self, exact_service):
        _, _, host, port = exact_service
        hard = CountRequest.from_cnf(property_cnf("Transitive", 4), budget=5)
        with ServiceClient(host, port) as client:
            with pytest.raises(CounterBudgetExceeded):
                client.solve(hard)
            failure = client.solve(hard, on_failure="return")
        assert isinstance(failure, CountFailure)
        assert failure.kind == "budget"
        assert failure.backend == "exact"

    def test_retry_is_a_memo_hit_not_a_recount(self, exact_service):
        session, _, host, port = exact_service
        cnf = property_cnf("Reflexive", 3)
        with ServiceClient(host, port) as client:
            first = client.solve(cnf).value
            again = client.solve(cnf)
        assert again.value == first
        assert again.cached
        assert session.engine.stats.backend_calls == 1

    def test_server_injects_default_limits(self):
        with MCMLSession(backend="exact") as session:
            with running_server(session, default_budget=5) as (_, host, port):
                with ServiceClient(host, port) as client:
                    failure = client.solve(
                        property_cnf("Transitive", 4), on_failure="return"
                    )
        assert isinstance(failure, CountFailure)
        assert failure.kind == "budget"

    def test_server_clamps_oversized_deadlines(self):
        with MCMLSession(backend="exact") as session:
            with running_server(session, max_budget=5) as (_, host, port):
                request = CountRequest.from_cnf(
                    property_cnf("Transitive", 4), budget=10**9
                )
                with ServiceClient(host, port) as client:
                    failure = client.solve(request, on_failure="return")
        assert isinstance(failure, CountFailure)
        assert failure.kind == "budget"

    def test_invalid_verb_and_payload_get_typed_errors(self, exact_service):
        _, _, host, port = exact_service
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._call("frobnicate", {})
            assert excinfo.value.code == "invalid"
            with pytest.raises(ServiceError) as excinfo:
                client._call("solve", {"request": {"clauses": "nope"}})
            assert excinfo.value.code == "invalid"
            # A per-path request from an older client is refused, not
            # answered with its base CNF's count.
            retired = {
                "clauses": [[1, 2]],
                "num_vars": 2,
                "strategy": "per-path",
                "cubes": [[1]],
            }
            with pytest.raises(ServiceError) as excinfo:
                client._call("solve", {"request": retired})
            assert excinfo.value.code == "invalid"
            assert "cubes, strategy" in str(excinfo.value)
            # Out-of-range limits are refused, not handed to the backend.
            for limits in ({"budget": -5}, {"budget": "abc"}, {"deadline": 0}):
                request = {"clauses": [[1]], "num_vars": 1, **limits}
                with pytest.raises(ServiceError) as excinfo:
                    client._call("solve", {"request": request})
                assert excinfo.value.code == "invalid"
                assert next(iter(limits)) in str(excinfo.value)
            # The connection survives typed rejections.
            assert client.count(CNF(num_vars=1, clauses=[(1,)])) == 1

    def test_malformed_line_answered_and_connection_survives(self, exact_service):
        _, _, host, port = exact_service
        sock = socket.create_connection((host, port), timeout=5)
        try:
            sock.sendall(b"this is not json\n")
            reader = protocol.LineReader(sock)
            response = protocol.decode_line(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "invalid"
            sock.sendall(protocol.encode_line({"id": 1, "verb": "ping"}))
            response = protocol.decode_line(reader.readline())
            assert response["ok"] is True
        finally:
            sock.close()


# -- trees over the wire -------------------------------------------------------------


@pytest.fixture(scope="module")
def trees():
    import numpy as np

    from repro.ml.decision_tree import DecisionTreeClassifier

    rng = np.random.default_rng(19)
    X = rng.integers(0, 2, size=(120, 9))
    y1 = ((X[:, 0] & X[:, 1]) | X[:, 2]).astype(int)
    y2 = (X[:, 0] | (X[:, 3] & X[:, 4])).astype(int)
    first = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y1)
    second = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y2)
    return first, second


class TestMetricVerbs:
    def test_tree_round_trips_through_wire_format(self, trees):
        first, _ = trees
        wire = protocol.tree_to_wire(first)
        again = protocol.tree_from_wire(wire)
        assert again.n_features == first.n_features
        assert again.decision_paths() == first.decision_paths()

    def test_accmc_matches_local_evaluation(self, exact_service, trees):
        session, _, host, port = exact_service
        first, _ = trees
        expected = session.accmc(first, "Reflexive", 3)
        with ServiceClient(host, port) as client:
            remote = client.accmc(first, "Reflexive", 3)
        assert remote["counts"]["tp"] == expected.counts.tp
        assert remote["counts"]["fp"] == expected.counts.fp
        assert remote["counts"]["tn"] == expected.counts.tn
        assert remote["counts"]["fn"] == expected.counts.fn
        assert remote["property"] == "Reflexive"
        assert remote["scope"] == 3

    def test_diffmc_matches_local_evaluation(self, exact_service, trees):
        session, _, host, port = exact_service
        first, second = trees
        expected = session.diffmc(first, second)
        with ServiceClient(host, port) as client:
            remote = client.diffmc(first, second)
        assert (remote["tt"], remote["tf"], remote["ft"], remote["ff"]) == (
            expected.tt,
            expected.tf,
            expected.ft,
            expected.ff,
        )
        assert remote["num_inputs"] == expected.num_inputs

    def test_accmc_unknown_property_is_invalid_not_internal(
        self, exact_service, trees
    ):
        _, server, host, port = exact_service
        first, _ = trees
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.accmc(first, "NoSuchProperty", 3)
        assert excinfo.value.code == "invalid"
        assert server._counters["internal_errors"] == 0


# -- coalescing and admission control ------------------------------------------------


class TestCoalescing:
    def test_identical_concurrent_requests_cost_one_computation(self):
        engine = CountingEngine(DelayCounter(0.5))
        cnf = CNF(num_vars=3, clauses=[(1, 2), (-1, 3)])
        with MCMLSession(engine=engine) as session:
            with running_server(session) as (server, host, port):
                values = []
                errors = []

                def hammer():
                    try:
                        with ServiceClient(host, port) as client:
                            values.append(client.count(cnf))
                    except Exception as exc:  # surface, don't swallow
                        errors.append(exc)

                workers = [threading.Thread(target=hammer) for _ in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not errors
                assert values == [4, 4, 4, 4]
                assert session.engine.stats.backend_calls == 1
                assert server._counters["coalesced"] == 3
                assert server._counters["served"] == 4

    def test_queue_full_is_a_typed_overloaded_rejection(self):
        engine = CountingEngine(DelayCounter(0.8))
        with MCMLSession(engine=engine) as session:
            with running_server(session, max_queue=1) as (server, host, port):
                problems = [
                    CNF(num_vars=3, clauses=[(i + 1,)]) for i in range(3)
                ]
                outcomes: dict[int, object] = {}

                def submit(i):
                    time.sleep(0.2 * i)
                    try:
                        with ServiceClient(host, port, retries=0) as client:
                            outcomes[i] = client.count(problems[i])
                    except ServiceOverloaded as exc:
                        outcomes[i] = exc

                workers = [
                    threading.Thread(target=submit, args=(i,)) for i in range(3)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                rejected = [o for o in outcomes.values() if isinstance(o, ServiceOverloaded)]
                served = [o for o in outcomes.values() if isinstance(o, int)]
                assert len(rejected) == 1
                assert len(served) == 2
                assert server._counters["rejected_overloaded"] == 1

    def test_per_client_inflight_budget(self):
        engine = CountingEngine(DelayCounter(0.8))
        with MCMLSession(engine=engine) as session:
            with running_server(session, max_inflight_per_client=1) as (_, host, port):
                sock = socket.create_connection((host, port), timeout=10)
                try:
                    slow = CountRequest.from_cnf(CNF(num_vars=2, clauses=[(1,)]))
                    other = CountRequest.from_cnf(CNF(num_vars=2, clauses=[(2,)]))
                    sock.sendall(
                        protocol.encode_line(
                            {"id": 1, "verb": "solve", "request": slow.to_dict()}
                        )
                        + protocol.encode_line(
                            {"id": 2, "verb": "solve", "request": other.to_dict()}
                        )
                    )
                    reader = protocol.LineReader(sock)
                    first = protocol.decode_line(reader.readline())
                    second = protocol.decode_line(reader.readline())
                    # The budget rejection always lands first (the slow
                    # solve is still counting).
                    assert first["id"] == 2
                    assert first["error"]["code"] == "overloaded"
                    assert first["error"]["retryable"] is True
                    assert second["id"] == 1
                    assert second["ok"] is True
                finally:
                    sock.close()

    @pytest.mark.parametrize(
        "limits",
        ({"max_queue": 0}, {"max_inflight_per_client": 0}),
        ids=("max-queue-0", "max-inflight-0"),
    )
    def test_admission_limits_below_one_are_refused(self, limits):
        # queue.Queue(maxsize=0) is unbounded, so a zero would turn
        # admission control off.
        with MCMLSession(backend="exact") as session:
            with pytest.raises(ValueError, match=next(iter(limits))):
                CountingServer(session, **limits)


# -- stats verb ----------------------------------------------------------------------


class TestStats:
    def test_stats_shares_engine_block_with_cli_rendering(self, exact_service):
        session, _, host, port = exact_service
        with ServiceClient(host, port) as client:
            client.count(CNF(num_vars=2, clauses=[(1, 2)]))
            payload = client.stats()
        local = protocol.engine_stats_payload(session)
        assert payload["backend"] == local["backend"]
        assert payload["capabilities"] == local["capabilities"]
        assert payload["engine"] == local["engine"]
        service = payload["service"]
        assert service["queue_depth"] == 0
        assert service["active_connections"] == 1
        assert service["counters"]["served"] == 1
        (client_stats,) = service["clients"].values()
        assert client_stats["requests"] >= 2  # the solve + the stats call

    def test_served_is_counted_before_the_reply(self, exact_service):
        """Each reply is counted before it is sent, so the client's next
        ``stats`` always sees it."""
        _, _, host, port = exact_service
        cnf = CNF(num_vars=2, clauses=[(1, 2)])
        with ServiceClient(host, port) as client:
            for i in range(1, 51):
                client.count(cnf)
                service = client.stats()["service"]
                assert service["counters"]["served"] == i
                (client_stats,) = service["clients"].values()
                assert client_stats["served"] == i

    def test_a_reply_that_cannot_be_sent_is_not_served(self):
        """A send that fails drops the connection, which merges its
        counters; the served count is taken back from the merged record."""
        with MCMLSession(backend="exact") as session:
            server = CountingServer(session)
            sock, peer = socket.socketpair()
            peer.close()
            sock.close()  # sendall raises OSError, as on a reset peer
            server._reply(_Connection(sock, "gone"), protocol.ok_response(1, {}))
            service = server.stats_payload()["service"]
        assert service["counters"]["served"] == 0
        assert service["clients"]["gone"]["served"] == 0

    def test_service_block_has_the_single_solver_shape(self, exact_service):
        session, server, host, port = exact_service
        with ServiceClient(host, port) as client:
            client.count(property_cnf("Reflexive", 3))
            payload = client.stats()
        assert set(payload["service"]) == {
            "version",
            "uptime_seconds",
            "draining",
            "queue_depth",
            "max_queue",
            "max_inflight_per_client",
            "active_connections",
            "counters",
            "clients",
        }
        assert payload["engine"] == protocol.engine_stats_payload(session)["engine"]

    def test_counters_track_served_and_failures(self, exact_service):
        _, server, host, port = exact_service
        hard = CountRequest.from_cnf(
            translate(get_property("PartialOrder"), 4).cnf, budget=10
        )
        with ServiceClient(host, port) as client:
            client.solve(property_cnf("Reflexive", 3))
            outcome = client.solve(hard, on_failure="return")
            assert isinstance(outcome, CountFailure)
            assert outcome.kind == "budget"
            payload = client.stats()
        counters = payload["service"]["counters"]
        # A typed count failure is a served answer, not an abort or crash.
        assert counters["failures"] == 1
        assert counters["aborts"] == 0
        assert counters["internal_errors"] == 0
        assert counters["served"] == 2
        assert payload["engine"]["backend_calls"] >= 1


# -- the engine lock (satellite: documented concurrency contract) --------------------


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

    def test_three_clients_matrix_bit_identical_to_in_process(self, tmp_path):
        """16 properties x scopes 2-4 split over three concurrent clients of
        the one solver thread: the values may not move."""
        from repro.spec.properties import PROPERTIES

        batch = [
            translate(prop, scope).cnf
            for prop in PROPERTIES
            for scope in (2, 3, 4)
        ]
        with MCMLSession(backend="exact") as local:
            expected = [r.value for r in local.solve_many(batch)]
        served: list[int | None] = [None] * len(batch)
        errors: list[Exception] = []
        with MCMLSession(backend="exact", cache_dir=str(tmp_path)) as session:
            with running_server(session) as (server, host, port):

                def worker(offset: int) -> None:
                    try:
                        with ServiceClient(host, port) as client:
                            for index in range(offset, len(batch), 3):
                                served[index] = client.solve(batch[index]).value
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not errors
                assert server._counters["served"] == len(batch)
            assert session.engine.stats.backend_calls == len(
                {cnf.signature() for cnf in batch}
            )
        assert served == expected


# -- client-side chunking -----------------------------------------------------------


class TestClientChunking:
    def test_chunks_preserve_order_and_budget(self):
        client = ServiceClient("127.0.0.1", 1, max_line_bytes=600)
        payloads = [{"clauses": [[i]] * 8, "num_vars": i} for i in range(40)]
        chunks = client._chunk_requests(payloads)
        assert [p for chunk in chunks for p in chunk] == payloads
        assert len(chunks) > 1
        for chunk in chunks:
            line = json.dumps(chunk, separators=(",", ":"))
            assert len(line) <= client.max_line_bytes

    def test_single_oversized_request_ships_alone(self):
        client = ServiceClient("127.0.0.1", 1, max_line_bytes=600)
        big = {"clauses": [[1, 2]] * 200, "num_vars": 2}
        chunks = client._chunk_requests([{"num_vars": 1}, big, {"num_vars": 2}])
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_large_batch_crosses_a_small_line_ceiling(self, tmp_path):
        """Unchunked, this batch is one oversized line the daemon rejects;
        chunked, it just works."""
        ceiling = 4096
        cnfs = []
        for i in range(120):
            cnf = CNF(num_vars=8)
            cnf.add_clause(tuple(range(1, 8)))
            cnf.add_clause((-(i % 8 + 1),))
            cnf.add_clause((i % 7 + 2,))
            cnfs.append(cnf)
        requests = [CountRequest.from_cnf(c) for c in cnfs]
        whole = json.dumps([r.to_dict() for r in requests], separators=(",", ":"))
        assert len(whole) > ceiling
        truths = [ExactCounter().count(c) for c in cnfs]
        session = MCMLSession(backend="exact", cache_dir=str(tmp_path))
        with running_server(session, max_line_bytes=ceiling) as (_, host, port):
            with ServiceClient(host, port, max_line_bytes=ceiling) as client:
                values = [r.value for r in client.solve_many(requests)]
        assert values == truths
