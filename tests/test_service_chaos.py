"""Chaos suite for the counting service: network faults and drain semantics.

In-process, via :mod:`repro.counting.faults` network injection points:

* ``service-accept-drop`` — the client's capped-backoff retry rides out a
  server that resets fresh connections;
* ``service-reset-mid-response`` — a mid-response RST surfaces as a typed
  :class:`ServiceUnavailable` after the retry budget, and the post-fault
  retry is a memo hit, not a recount (idempotence under retry);
* ``service-slow-loris`` — a client dribbling bytes is dropped by the
  server's read deadline; the daemon stays healthy;
* ``service-oversize-payload`` — an oversized request line gets the typed
  ``oversized`` rejection, never an unbounded buffer;
* an overload storm — more clients than queue slots, every request either
  served or typed-rejected-then-retried, final counts bit-identical to a
  fault-free serial run.

As subprocesses, the drain guarantees of ``mcml serve``:

* SIGTERM mid-batch finishes the in-flight work, answers the client, and
  exits 0 with a clean ``drained`` event;
* the drain leaves ``components.sqlite`` warm — a restarted daemon
  re-counts a spilled workload with ``component_spill_hits > 0``.

Every test disarms the fault registry on the way out, and anything that
could hang carries a SIGALRM hard timeout.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.session import MCMLSession
from repro.counting import faults
from repro.counting.engine import CountingEngine
from repro.counting.exact import ExactCounter
from repro.counting.service import ServiceClient, ServiceError
from repro.counting.service.client import ServiceUnavailable
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate

from test_service import DelayCounter, running_server

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@contextmanager
def hard_timeout(seconds: int):
    def _alarm(signum, frame):
        raise TimeoutError(f"service chaos test exceeded its {seconds}s hard timeout")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _phi(scope=3, name="PartialOrder"):
    return translate(get_property(name), scope, symmetry=SymmetryBreaking()).cnf


# -- network faults, in-process ------------------------------------------------------


class TestNetworkFaults:
    def test_accept_drop_is_ridden_out_by_backoff(self):
        cnf = _phi()
        with hard_timeout(60):
            with MCMLSession(backend="exact") as session:
                expected = CountingEngine(ExactCounter()).solve(cnf).value
                with running_server(session) as (_, host, port):
                    faults.inject("service-accept-drop", 2)
                    client = ServiceClient(
                        host, port, retries=5, backoff_base=0.01, backoff_cap=0.1
                    )
                    assert client.count(cnf) == expected
                    assert client.retry_count >= 1
                    client.close()

    def test_reset_mid_response_retries_are_memo_hits(self):
        cnf = _phi()
        with hard_timeout(60):
            with MCMLSession(backend="exact") as session:
                with running_server(session) as (server, host, port):
                    with faults.injected("service-reset-mid-response"):
                        client = ServiceClient(
                            host, port, retries=2, backoff_base=0.01, backoff_cap=0.1
                        )
                        with pytest.raises(ServiceUnavailable):
                            client.solve(cnf)
                        client.close()
                    # The aborted responses still computed (and memoized)
                    # the answer; a clean retry is a lookup, not a recount.
                    clean = ServiceClient(host, port, retries=2)
                    result = clean.solve(cnf)
                    clean.close()
                    assert result.cached
                    assert session.engine.stats.backend_calls == 1
                    # A reply cut off mid-send is not counted as served.
                    assert server._counters["served"] == 1
                    clients = server.stats_payload()["service"]["clients"]
                    assert sum(c["served"] for c in clients.values()) == 1

    def test_slow_loris_is_dropped_by_the_read_deadline(self):
        tiny = CNF(num_vars=2, clauses=[(1,), (2,)])
        with hard_timeout(60):
            with MCMLSession(backend="exact") as session:
                with running_server(session, read_timeout=0.4) as (server, host, port):
                    with faults.injected("service-slow-loris"):
                        loris = ServiceClient(host, port, retries=0, request_timeout=10)
                        with pytest.raises(ServiceUnavailable):
                            loris.solve(tiny)
                        loris.close()
                    # The daemon shrugged the loris off; honest clients work.
                    clean = ServiceClient(host, port, retries=0)
                    assert clean.count(tiny) == 1
                    clean.close()
                    assert server._counters["internal_errors"] == 0

    def test_oversize_payload_gets_typed_rejection(self):
        tiny = CNF(num_vars=2, clauses=[(1,)])
        with hard_timeout(60):
            with MCMLSession(backend="exact") as session:
                with running_server(session, max_line_bytes=32768) as (server, host, port):
                    with faults.injected("service-oversize-payload"):
                        client = ServiceClient(
                            host, port, retries=0, max_line_bytes=65536
                        )
                        with pytest.raises(ServiceError) as excinfo:
                            client.solve(tiny)
                        client.close()
                    assert excinfo.value.code == "oversized"
                    assert server._counters["oversized"] == 1
                    clean = ServiceClient(host, port, retries=0)
                    assert clean.count(tiny) == 2
                    clean.close()

    def test_overload_storm_stays_typed_and_bit_identical(self):
        problems = [CNF(num_vars=4, clauses=[(i + 1,)]) for i in range(4)]
        with CountingEngine(ExactCounter()) as reference:
            expected = [r.value for r in reference.solve_many(problems)]
        engine = CountingEngine(DelayCounter(0.1))
        with hard_timeout(120):
            with MCMLSession(engine=engine) as session:
                with running_server(
                    session, max_queue=2, max_inflight_per_client=1
                ) as (server, host, port):
                    values: dict[int, int] = {}
                    errors: list[Exception] = []

                    def hammer(i):
                        try:
                            with ServiceClient(
                                host,
                                port,
                                retries=10,
                                backoff_base=0.05,
                                backoff_cap=0.5,
                            ) as client:
                                values[i] = client.count(problems[i % len(problems)])
                        except Exception as exc:  # any escape fails the test
                            errors.append(exc)

                    workers = [
                        threading.Thread(target=hammer, args=(i,)) for i in range(8)
                    ]
                    for w in workers:
                        w.start()
                    for w in workers:
                        w.join(timeout=90)
                    assert not errors
                    assert len(values) == 8
                    for i, value in values.items():
                        assert value == expected[i % len(problems)]
                    assert server._counters["internal_errors"] == 0

    def test_drain_rejects_new_work_with_shutting_down(self):
        with hard_timeout(60):
            with MCMLSession(backend="exact") as session:
                server, host, port = None, None, None
                with running_server(session) as (server, host, port):
                    client = ServiceClient(host, port, retries=0)
                    assert client.count(CNF(num_vars=1, clauses=[(1,)])) == 1
                    server.initiate_drain("test")
                    with pytest.raises((ServiceError, ServiceUnavailable)) as excinfo:
                        client.count(CNF(num_vars=1, clauses=[(-1,)]))
                    client.close()
                    if isinstance(excinfo.value, ServiceError) and not isinstance(
                        excinfo.value, ServiceUnavailable
                    ):
                        assert excinfo.value.code in ("overloaded", "shutting-down")


# -- drain semantics, as subprocesses ------------------------------------------------


def _spawn_daemon(cache_dir, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--cache-dir",
            str(cache_dir),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["event"] == "listening"
    return proc, ready["host"], ready["port"]


def _terminate(proc):
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, f"daemon exited {proc.returncode}:\n{err}"
    events = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert events and events[-1]["event"] == "drained"
    assert events[-1]["clean"] is True
    return err


class TestDrainSemantics:
    def test_sigterm_mid_batch_finishes_in_flight_work(self, tmp_path):
        cnfs = [_phi(3, name) for name in ("PartialOrder", "Reflexive", "Transitive")]
        with hard_timeout(120):
            proc, host, port = _spawn_daemon(tmp_path, "--backend", "exact")
            try:
                outcome = {}

                def batch():
                    with ServiceClient(host, port, request_timeout=60) as client:
                        outcome["values"] = [
                            r.value for r in client.solve_many(cnfs)
                        ]

                worker = threading.Thread(target=batch)
                worker.start()
                time.sleep(0.3)  # let the batch reach the solver
                err = _terminate(proc)
                worker.join(timeout=60)
                assert not worker.is_alive()
                # The drain finished the in-flight batch before exiting.
                reference = CountingEngine(ExactCounter())
                assert outcome["values"] == [
                    reference.solve(cnf).value for cnf in cnfs
                ]
                assert "Traceback" not in err
            finally:
                if proc.poll() is None:
                    proc.kill()

    def test_drain_leaves_component_store_warm(self, tmp_path):
        phi = _phi()
        with hard_timeout(120):
            proc, host, port = _spawn_daemon(tmp_path, "--backend", "exact")
            try:
                with ServiceClient(host, port, request_timeout=60) as client:
                    expected = client.solve(phi).value
                _terminate(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
            assert (tmp_path / "components.sqlite").exists()
            # Remove the whole-count store so the restarted daemon must
            # genuinely recount — through spilled components.
            os.remove(tmp_path / "counts.sqlite")
            proc, host, port = _spawn_daemon(tmp_path, "--backend", "exact")
            try:
                with ServiceClient(host, port, request_timeout=60) as client:
                    result = client.solve(phi)
                    stats = client.stats()
                _terminate(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
            assert result.value == expected
            assert result.source == "backend"
            assert stats["engine"]["component_spill_hits"] > 0
