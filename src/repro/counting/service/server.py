""":class:`CountingServer` — one warm session, many clients, bounded queues.

Threading model (all stdlib)::

    accept thread ──▶ one reader thread per connection
                           │  admission control (queue depth, per-client
                           │  in-flight budget, drain flag) + coalescing
                           ▼
                    bounded queue.Queue ──▶ solver thread ──▶ fan-out
                                                 │              responses
                                                 ▼              (per-conn
                                           MCMLSession           send lock)

Admission control happens on the *reader* thread, before anything is
buffered: a full queue or an exhausted per-client in-flight budget gets an
immediate typed ``overloaded`` response, never an unbounded buffer.

Coalescing: counting verbs are keyed on their request signature (limits
excluded, matching the engine's memo identity).  A request whose key is
already in flight attaches as a *waiter* on the existing job instead of
enqueueing a second computation; when the job completes, every waiter gets
a response with its own envelope id.  Combined with the engine's memo this
makes the daemon idempotent under client retries — resending after a
dropped connection costs a memo hit, not a recount.

Graceful drain (SIGTERM/SIGINT, wired by ``mcml serve``): stop accepting,
reject new work with ``shutting-down``, let the solvers finish the queued
backlog bounded by the largest in-flight deadline plus ``drain_grace``,
answer whatever remains with ``shutting-down``, then close the session —
which spills the component cache and flushes every sqlite tier, so a
restarted daemon starts warm.

Enforcement of limits: requests pick up ``default_deadline`` /
``default_budget`` when they carry none, and ``max_deadline`` /
``max_budget`` clamp what they do carry — one pathological formula aborts
with the PR-6 taxonomy (:class:`~repro.counting.api.CountFailure`) instead
of wedging the service.
"""

from __future__ import annotations

import dataclasses
import logging
import queue
import socket
import struct
import threading
import time

from repro.counting import faults
from repro.counting.api import CountFailure, CountRequest
from repro.counting.exact import CounterAbort
from repro.counting.service import protocol
from repro.counting.store import signature_key

__all__ = ["CountingServer"]

log = logging.getLogger("repro.counting.service")

#: Verbs that run on the solver thread (and are subject to admission
#: control); ``ping`` and ``stats`` answer inline on the reader thread.
_COUNT_VERBS = ("solve", "solve_many", "accmc", "diffmc")


class _Connection:
    """Per-connection state: socket, send lock, counters."""

    __slots__ = ("sock", "name", "send_lock", "inflight", "open", "stats")

    def __init__(self, sock: socket.socket, name: str) -> None:
        self.sock = sock
        self.name = name
        self.send_lock = threading.Lock()
        self.inflight = 0  # guarded by the server's admission lock
        self.open = True
        self.stats = {"requests": 0, "served": 0, "rejected": 0, "coalesced": 0}


class _Job:
    """One enqueued computation plus everyone waiting on it."""

    __slots__ = ("key", "verb", "payload", "waiters", "deadline")

    def __init__(self, key: str, verb: str, payload: dict, deadline: float | None) -> None:
        self.key = key
        self.verb = verb
        self.payload = payload
        self.waiters: list[tuple[_Connection, object]] = []  # guarded by admission lock
        self.deadline = deadline


class CountingServer:
    """Serve one :class:`~repro.core.session.MCMLSession` over TCP.

    Parameters
    ----------
    session:
        The warm session every verb runs through.  The server *owns* it
        from here on: :meth:`close` closes it (spilling the disk tiers).
    host / port:
        Bind address; port ``0`` picks a free port (:meth:`start` returns
        the bound pair).
    max_queue:
        Request-queue depth; a full queue is an ``overloaded`` rejection.
    max_inflight_per_client:
        Per-connection budget of unanswered counting requests; exceeding
        it is an ``overloaded`` rejection (coalesced waiters count too).
    read_timeout:
        Idle-connection deadline in seconds; a client that neither
        completes a line nor closes (slow loris) is dropped when it
        expires without affecting other connections.
    default_deadline / default_budget / max_deadline / max_budget:
        Limit injection and clamping for every counting request.
    drain_grace:
        Extra wall-clock seconds past the largest in-flight deadline the
        drain waits before answering leftovers with ``shutting-down``.
    """

    def __init__(
        self,
        session,
        *,
        host: str = protocol.DEFAULT_HOST,
        port: int = 0,
        max_queue: int = 64,
        max_inflight_per_client: int = 8,
        read_timeout: float = 300.0,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        default_deadline: float | None = None,
        default_budget: int | None = None,
        max_deadline: float | None = None,
        max_budget: int | None = None,
        drain_grace: float = 5.0,
    ) -> None:
        # queue.Queue(maxsize=0) is unbounded: a zero would switch
        # admission control off instead of refusing every request.
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_inflight_per_client < 1:
            raise ValueError(
                f"max_inflight_per_client must be >= 1, got {max_inflight_per_client}"
            )
        self.session = session
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.max_inflight_per_client = max_inflight_per_client
        self.read_timeout = read_timeout
        self.max_line_bytes = max_line_bytes
        self.default_deadline = default_deadline
        self.default_budget = default_budget
        self.max_deadline = max_deadline
        self.max_budget = max_budget
        self.drain_grace = drain_grace

        self._listener: socket.socket | None = None
        self._queue: queue.Queue[_Job] = queue.Queue(maxsize=max_queue)
        self._admission = threading.Lock()  # inflight map + per-conn budgets
        self._inflight: dict[str, _Job] = {}
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._solver_thread: threading.Thread | None = None
        self._readers: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._started_at: float | None = None
        self._accept_drops = 0

        self._counters_lock = threading.Lock()
        self._counters = {
            "accepted": 0,
            "requests": 0,
            "served": 0,
            "coalesced": 0,
            "rejected_overloaded": 0,
            "rejected_shutdown": 0,
            "invalid": 0,
            "oversized": 0,
            "failures": 0,
            "aborts": 0,
            "internal_errors": 0,
        }
        self._client_stats: dict[str, dict[str, int]] = {}

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and spin up the accept + solver threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        listener.settimeout(0.2)  # poll the drain flag between accepts
        self._listener = listener
        self.host, self.port = listener.getsockname()
        self._started_at = time.monotonic()

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="mcml-serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._solver_thread = threading.Thread(
            target=self._solver_loop, name="mcml-serve-solver", daemon=True
        )
        self._solver_thread.start()
        log.info("listening on %s:%d", self.host, self.port)
        return self.host, self.port

    def initiate_drain(self, reason: str = "signal") -> None:
        """Stop accepting; new requests get ``shutting-down`` (idempotent,
        signal-handler safe — sets a flag and closes the listener)."""
        if self._draining.is_set():
            return
        log.info("drain initiated (%s)", reason)
        self._draining.set()

    def drain(self, timeout: float | None = None) -> bool:
        """Finish the backlog, answer leftovers, close everything.

        Returns True when the backlog drained inside the window; False
        when a wedged job forced the drain to abandon it.  Either way the
        session is closed afterwards, spilling the component cache and
        flushing every sqlite tier for the next daemon to inherit.
        """
        self.initiate_drain("drain() called")
        if timeout is None:
            with self._admission:
                pending = [job.deadline for job in self._inflight.values()]
            longest = max((d for d in pending if d is not None), default=0.0)
            timeout = longest + self.drain_grace
        deadline = time.monotonic() + timeout

        if self._accept_thread is not None:
            self._accept_thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)
        clean = True
        if self._solver_thread is not None:
            self._solver_thread.join(timeout=max(0.0, deadline - time.monotonic()))
            clean = not self._solver_thread.is_alive()

        # Whatever is still queued — or owned by a wedged solver — gets a
        # typed goodbye instead of a hang.  No late enqueue can race this
        # sweep: _dispatch re-checks _draining under _admission, so once
        # the flag is set (first thing above) the queue only shrinks.
        leftovers: list[_Job] = []
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except queue.Empty:
                break
        orphans: list[tuple[_Connection, object]] = []
        with self._admission:
            if not clean:
                leftovers.extend(self._inflight.values())
            for job in leftovers:
                self._inflight.pop(job.key, None)
                orphans.extend(job.waiters)
                for conn, _ in job.waiters:
                    conn.inflight -= 1
                job.waiters.clear()
        for conn, msg_id in orphans:
            self._send(
                conn,
                protocol.error_response(
                    msg_id, "shutting-down", "server is draining", retryable=True
                ),
            )
        self.close()
        return clean

    def close(self) -> None:
        """Close every connection and the session (idempotent)."""
        if self._drained.is_set():
            return
        self._drained.set()
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            self._drop(conn)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for thread in self._readers:
            thread.join(timeout=2.0)
        self.session.close()
        log.info("drained; session closed")

    def serve_until_drained(self, poll: float = 0.2) -> bool:
        """Block until :meth:`initiate_drain` fires, then drain and close."""
        while not self._draining.wait(timeout=poll):
            pass
        return self.drain()

    # -- accept / read ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        try:
            while not self._draining.is_set():
                try:
                    sock, addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us — drain is in charge
                drop_budget = faults.active("service-accept-drop")
                if drop_budget is not None and self._accept_drops < int(drop_budget):
                    self._accept_drops += 1
                    sock.close()
                    continue
                if self._draining.is_set():
                    sock.close()
                    break
                self._bump("accepted")
                conn = _Connection(sock, "%s:%d" % addr)
                with self._conn_lock:
                    self._connections.add(conn)
                reader = threading.Thread(
                    target=self._reader_loop,
                    args=(conn,),
                    name=f"mcml-serve-read-{conn.name}",
                    daemon=True,
                )
                reader.start()
                self._readers = [t for t in self._readers if t.is_alive()]
                self._readers.append(reader)
        except Exception:  # the accept loop must outlive any one bad socket
            log.exception("accept loop died")
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            conn.sock.settimeout(self.read_timeout)
            reader = protocol.LineReader(
                conn.sock, self.max_line_bytes, line_timeout=self.read_timeout
            )
            while not self._drained.is_set():
                try:
                    line = reader.readline()
                except protocol.OversizedLine:
                    self._bump("oversized")
                    self._send(
                        conn,
                        protocol.error_response(
                            None,
                            "oversized",
                            f"request line exceeded {self.max_line_bytes} bytes",
                        ),
                    )
                    break  # cannot resync a half-read stream
                except (protocol.ConnectionClosed, TimeoutError, OSError):
                    break
                try:
                    envelope = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    self._bump("invalid")
                    self._send(conn, protocol.error_response(None, "invalid", str(exc)))
                    continue
                self._dispatch(conn, envelope)
        except Exception:  # a reader crash must not take the daemon down
            log.exception("reader for %s died", conn.name)
        finally:
            self._drop(conn)

    # -- dispatch / admission --------------------------------------------------------

    def _dispatch(self, conn: _Connection, envelope: dict) -> None:
        msg_id = envelope.get("id")
        verb = envelope.get("verb")
        conn.stats["requests"] += 1
        self._bump("requests")
        if verb == "ping":
            self._send(conn, protocol.ok_response(msg_id, {"pong": True, "version": protocol.PROTOCOL_VERSION}))
            return
        if verb == "stats":
            self._send(conn, protocol.ok_response(msg_id, self.stats_payload()))
            return
        if verb not in _COUNT_VERBS:
            self._bump("invalid")
            conn.stats["rejected"] += 1
            self._send(
                conn, protocol.error_response(msg_id, "invalid", f"unknown verb {verb!r}")
            )
            return
        if self._draining.is_set():
            self._bump("rejected_shutdown")
            conn.stats["rejected"] += 1
            self._send(
                conn,
                protocol.error_response(
                    msg_id, "shutting-down", "server is draining", retryable=True
                ),
            )
            return
        try:
            key, payload, deadline = self._job_key(verb, envelope)
        except (protocol.ProtocolError, KeyError, TypeError, ValueError) as exc:
            self._bump("invalid")
            conn.stats["rejected"] += 1
            self._send(
                conn, protocol.error_response(msg_id, "invalid", f"bad {verb} payload: {exc}")
            )
            return

        # Decide under the lock, send after releasing it: sendall() can
        # block until a slow peer drains its receive window, and holding
        # _admission through that would stall every other connection's
        # admission, coalescing, and the solvers' fan-out bookkeeping.
        response = None
        rejection = None
        coalesced = False
        with self._admission:
            if self._draining.is_set():
                # Authoritative re-check: initiate_drain() may have fired
                # since the lock-free check above.  Enqueueing here would
                # race drain()'s leftover sweep and leave the waiter
                # unanswered; once this branch is reachable no new job can
                # enter the queue, so the sweep sees everything.
                rejection = "rejected_shutdown"
                response = protocol.error_response(
                    msg_id, "shutting-down", "server is draining", retryable=True
                )
            elif conn.inflight >= self.max_inflight_per_client:
                rejection = "rejected_overloaded"
                response = protocol.error_response(
                    msg_id,
                    "overloaded",
                    f"client in-flight budget ({self.max_inflight_per_client}) exhausted",
                    retryable=True,
                    inflight=conn.inflight,
                )
            else:
                job = self._inflight.get(key)
                if job is not None:
                    job.waiters.append((conn, msg_id))
                    conn.inflight += 1
                    coalesced = True
                else:
                    job = _Job(key, verb, payload, deadline)
                    job.waiters.append((conn, msg_id))
                    try:
                        self._queue.put_nowait(job)
                    except queue.Full:
                        rejection = "rejected_overloaded"
                        response = protocol.error_response(
                            msg_id,
                            "overloaded",
                            f"request queue ({self.max_queue}) is full",
                            retryable=True,
                            queue_depth=self.max_queue,
                        )
                    else:
                        self._inflight[key] = job
                        conn.inflight += 1
        if coalesced:
            conn.stats["coalesced"] += 1
            self._bump("coalesced")
        elif response is not None:
            conn.stats["rejected"] += 1
            self._bump(rejection)
            self._send(conn, response)

    def _job_key(self, verb: str, envelope: dict) -> tuple[str, dict, float | None]:
        """Coalescing key + parsed payload + effective deadline for a verb.

        Counting requests key on their signature (limits excluded), the
        same identity the engine memoizes on — so identical formulas
        coalesce even when their envelopes differ.  The metric verbs key
        on their canonical payloads.
        """
        if verb == "solve":
            request = self._limit(CountRequest.from_dict(envelope["request"]))
            key = signature_key(("solve", request.signature()))
            return key, {"request": request}, request.deadline
        if verb == "solve_many":
            requests = [
                self._limit(CountRequest.from_dict(entry)) for entry in envelope["requests"]
            ]
            if not requests:
                raise ValueError("empty batch")
            key = signature_key(("solve_many", tuple(r.signature() for r in requests)))
            deadline = None
            deadlines = [r.deadline for r in requests if r.deadline is not None]
            if deadlines:
                deadline = sum(deadlines)  # batch runs serially per engine lock
            return key, {"requests": requests}, deadline
        if verb == "accmc":
            tree = protocol.tree_from_wire(envelope["tree"])
            payload = {
                "tree": tree,
                "property": str(envelope["property"]),
                "scope": int(envelope["scope"]),
                "mode": envelope.get("mode"),
                "deadline": self._clamp_deadline(envelope.get("deadline")),
                "budget": self._clamp_budget(envelope.get("budget")),
            }
            key = signature_key(
                (
                    "accmc",
                    envelope["tree"],
                    payload["property"],
                    payload["scope"],
                    payload["mode"],
                )
            )
            return key, payload, payload["deadline"]
        # diffmc
        first = protocol.tree_from_wire(envelope["first"])
        second = protocol.tree_from_wire(envelope["second"])
        payload = {
            "first": first,
            "second": second,
            "deadline": self._clamp_deadline(envelope.get("deadline")),
            "budget": self._clamp_budget(envelope.get("budget")),
        }
        key = signature_key(("diffmc", envelope["first"], envelope["second"]))
        return key, payload, payload["deadline"]

    def _clamp_deadline(self, deadline) -> float | None:
        if deadline is None:
            deadline = self.default_deadline
        else:
            deadline = float(deadline)
        if self.max_deadline is not None:
            deadline = self.max_deadline if deadline is None else min(deadline, self.max_deadline)
        return deadline

    def _clamp_budget(self, budget) -> int | None:
        if budget is None:
            budget = self.default_budget
        else:
            budget = int(budget)
        if self.max_budget is not None:
            budget = self.max_budget if budget is None else min(budget, self.max_budget)
        return budget

    def _limit(self, request: CountRequest) -> CountRequest:
        """Inject server default limits and clamp against the maxima."""
        deadline = self._clamp_deadline(request.deadline)
        budget = self._clamp_budget(request.budget)
        if deadline == request.deadline and budget == request.budget:
            return request
        return dataclasses.replace(request, deadline=deadline, budget=budget)

    # -- solve -----------------------------------------------------------------------

    def _solver_loop(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._draining.is_set():
                    return
                continue
            try:
                responder = self._execute(job)
            except Exception:  # typed escapes only: anything else is "internal"
                log.exception("%s job crashed", job.verb)
                self._bump("internal_errors")

                def responder(msg_id, _verb=job.verb):
                    return protocol.error_response(
                        msg_id, "internal", f"{_verb} handler crashed; see server log"
                    )

            with self._admission:
                self._inflight.pop(job.key, None)
                waiters = list(job.waiters)
                job.waiters.clear()
                for conn, _ in waiters:
                    conn.inflight -= 1
            for conn, msg_id in waiters:
                self._reply(conn, responder(msg_id))

    def _execute(self, job: _Job):
        """Run one job; return ``msg_id -> response envelope``."""
        payload = job.payload
        if job.verb == "solve":
            result = self.session.solve(payload["request"], on_failure="return")
            if isinstance(result, CountFailure):
                self._bump("failures")
                return lambda msg_id: protocol.failure_response(msg_id, result)
            body = result.to_dict()
            return lambda msg_id: protocol.ok_response(msg_id, body)
        if job.verb == "solve_many":
            results = self.session.solve_many(payload["requests"], on_failure="return")
            entries = []
            for outcome in results:
                if isinstance(outcome, CountFailure):
                    self._bump("failures")
                    entries.append({"ok": False, "failure": outcome.to_dict()})
                else:
                    entries.append({"ok": True, "result": outcome.to_dict()})
            return lambda msg_id: protocol.ok_response(msg_id, entries)
        if job.verb == "accmc":
            try:
                result = self.session.accmc(
                    payload["tree"],
                    payload["property"],
                    payload["scope"],
                    mode=payload["mode"],
                    deadline=payload["deadline"],
                    budget=payload["budget"],
                )
            except CountFailure as failure:
                self._bump("failures")
                return lambda msg_id: protocol.failure_response(msg_id, failure)
            except CounterAbort as abort:
                self._bump("aborts")
                return lambda msg_id: protocol.abort_response(msg_id, abort)
            except (KeyError, ValueError) as exc:
                self._bump("invalid")
                message = f"bad accmc payload: {exc}"
                return lambda msg_id: protocol.error_response(msg_id, "invalid", message)
            body = {
                "property": result.property_name,
                "scope": result.scope,
                "mode": result.mode,
                "counter": result.counter,
                "elapsed_seconds": result.elapsed_seconds,
                "counts": {
                    "tp": str(result.counts.tp),
                    "fp": str(result.counts.fp),
                    "tn": str(result.counts.tn),
                    "fn": str(result.counts.fn),
                },
            }
            return lambda msg_id: protocol.ok_response(msg_id, body)
        # diffmc
        try:
            result = self.session.diffmc(
                payload["first"],
                payload["second"],
                deadline=payload["deadline"],
                budget=payload["budget"],
            )
        except CountFailure as failure:
            self._bump("failures")
            return lambda msg_id: protocol.failure_response(msg_id, failure)
        except CounterAbort as abort:
            self._bump("aborts")
            return lambda msg_id: protocol.abort_response(msg_id, abort)
        except (KeyError, ValueError) as exc:
            self._bump("invalid")
            message = f"bad diffmc payload: {exc}"
            return lambda msg_id: protocol.error_response(msg_id, "invalid", message)
        body = {
            "tt": str(result.tt),
            "tf": str(result.tf),
            "ft": str(result.ft),
            "ff": str(result.ff),
            "num_inputs": result.num_inputs,
            "elapsed_seconds": result.elapsed_seconds,
        }
        return lambda msg_id: protocol.ok_response(msg_id, body)

    # -- plumbing --------------------------------------------------------------------

    def _send(self, conn: _Connection, envelope: dict) -> bool:
        """Write one response line; returns False when the client is gone."""
        data = protocol.encode_line(envelope)
        try:
            with conn.send_lock:
                if not conn.open:
                    return False
                if faults.active("service-reset-mid-response"):
                    conn.sock.sendall(data[: max(1, len(data) // 2)])
                    conn.sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    conn.open = False
                    # shutdown() before close(): the connection's reader thread
                    # is blocked in recv() on this same socket, and a bare
                    # close() is deferred until that recv releases the fd — the
                    # linger-0 RST would only reach the client once *its* read
                    # timeout fired.  shutdown() poisons the blocked recv now.
                    try:
                        conn.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    conn.sock.close()
                    return False
                conn.sock.sendall(data)
            return True
        except OSError:
            self._drop(conn)
            return False

    def _reply(self, conn: _Connection, envelope: dict) -> None:
        """Send a job's reply, counted as served before it is sent.

        The client may ask for ``stats`` the moment the reply lands, so
        the count cannot trail the send; a send that fails takes it back.
        """
        with self._counters_lock:
            conn.stats["served"] += 1
            self._counters["served"] += 1
        if self._send(conn, envelope):
            return
        with self._counters_lock:
            self._counters["served"] -= 1
            if conn.stats["served"]:
                conn.stats["served"] -= 1
            else:  # the failed send's _drop already merged it
                self._client_stats[conn.name]["served"] -= 1

    def _drop(self, conn: _Connection) -> None:
        with conn.send_lock:
            was_open = conn.open
            conn.open = False
        if was_open:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        with self._conn_lock:
            self._connections.discard(conn)
        # Merging zeroes the per-connection counters, so a second drop of
        # the same connection (reader exit after a send failure) is a no-op.
        with self._counters_lock:
            merged = self._client_stats.setdefault(
                conn.name, {"requests": 0, "served": 0, "rejected": 0, "coalesced": 0}
            )
            for field, value in conn.stats.items():
                merged[field] += value
            conn.stats = {k: 0 for k in conn.stats}

    def _bump(self, counter: str) -> None:
        with self._counters_lock:
            self._counters[counter] += 1

    def stats_payload(self) -> dict:
        """The ``stats`` verb: engine stats + queue/admission telemetry."""
        with self._counters_lock:
            counters = dict(self._counters)
            clients = {name: dict(stats) for name, stats in self._client_stats.items()}
        with self._conn_lock:
            active = list(self._connections)
        for conn in active:
            merged = clients.setdefault(
                conn.name, {"requests": 0, "served": 0, "rejected": 0, "coalesced": 0}
            )
            for field, value in conn.stats.items():
                merged[field] += value
        payload = protocol.engine_stats_payload(self.session)
        payload["service"] = {
            "version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": (
                time.monotonic() - self._started_at if self._started_at is not None else 0.0
            ),
            "draining": self._draining.is_set(),
            "queue_depth": self._queue.qsize(),
            "max_queue": self.max_queue,
            "max_inflight_per_client": self.max_inflight_per_client,
            "active_connections": len(active),
            "counters": counters,
            "clients": clients,
        }
        return payload
