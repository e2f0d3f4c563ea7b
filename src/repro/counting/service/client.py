""":class:`ServiceClient` — the counting service from the caller's side.

The client mirrors the :class:`~repro.core.session.MCMLSession` surface it
fronts: :meth:`solve` / :meth:`solve_many` take
:class:`~repro.counting.api.CountRequest` objects (or raw CNFs) and return
:class:`~repro.counting.api.CountResult`; failures come back as the *same*
typed objects a local engine produces —
:class:`~repro.counting.api.CountFailure` raised (or returned, with
``on_failure="return"``) with kind/backend/elapsed intact, and
:class:`~repro.counting.exact.CounterAbort` subclasses rehydrated by kind.
Code written against a session works against a client.

Retry discipline: transport faults (refused/reset/closed connections,
timeouts) and the retryable admission errors (``overloaded``,
``shutting-down``) are retried with capped exponential backoff and full
jitter — ``min(cap, base * 2**attempt)`` scaled by a uniform draw in
[0.5, 1.0) — reconnecting on a fresh socket each time.  Typed counting
failures are **not** retried: a deterministic timeout will time out again;
that decision belongs to the caller.  Retrying a counting verb is safe by
construction — the server coalesces identical in-flight requests and the
engine memoizes answered ones, so a retry after a dropped response line
costs a lookup, not a recount.

Batch framing: ``solve_many`` chunks the batch client-side under the
daemon's per-line ceiling (``max_line_bytes``) — a large batch becomes
several sequential ``solve_many`` lines instead of one oversized one the
server would reject wholesale (and close the connection over).  Only a
*single request* too big for a line still earns the typed ``oversized``
error, scoped to its own chunk.
"""

from __future__ import annotations

import json
import random
import socket
import time

from repro.counting import faults
from repro.counting.api import CountFailure, CountingSurface, CountRequest, CountResult
from repro.counting.exact import CounterAbort
from repro.counting.service import protocol

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
]

#: Headroom reserved for the envelope around a chunk's request list
#: (``{"id": …, "verb": "solve_many", "requests": [...]}\n``).
_ENVELOPE_MARGIN = 256


class ServiceError(RuntimeError):
    """A typed error envelope from the service (non-retryable kinds)."""

    def __init__(self, code: str, message: str, *, retryable: bool = False) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retryable = retryable


class ServiceOverloaded(ServiceError):
    """Admission control kept rejecting past the retry budget."""


class ServiceUnavailable(ServiceError):
    """The transport kept failing past the retry budget."""

    def __init__(self, message: str) -> None:
        super().__init__("unavailable", message, retryable=True)


class ServiceClient(CountingSurface):
    """Line-delimited JSON client with timeouts, backoff and rehydration.

    Declares :class:`~repro.counting.api.CountingSurface`: the remote
    spelling of the one client surface, interchangeable with
    :class:`~repro.core.session.MCMLSession` anywhere a surface is
    accepted (drivers, CLI, the conformance suite).

    Parameters
    ----------
    host / port:
        Where the daemon listens (``mcml serve`` prints both on stdout).
    connect_timeout / request_timeout:
        Seconds allowed for TCP connect and for one request/response
        round trip.  Size ``request_timeout`` above the deadline of the
        hardest request you send — the server answers a timed-out count
        with a typed failure *at* its deadline, so the transport timeout
        only fires when the service itself is gone.
    retries:
        Extra attempts after the first, for transport faults and
        retryable admission errors only.
    backoff_base / backoff_cap:
        The capped exponential schedule; attempt *n* sleeps
        ``min(cap, base * 2**n)`` scaled by uniform jitter in [0.5, 1.0).
    rng:
        Jitter source (a ``random.Random``); inject a seeded one in tests.
    """

    def __init__(
        self,
        host: str = protocol.DEFAULT_HOST,
        port: int = protocol.DEFAULT_PORT,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 120.0,
        retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: random.Random | None = None,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_line_bytes = max_line_bytes
        self._rng = rng if rng is not None else random.Random()
        self._sock: socket.socket | None = None
        self._reader: protocol.LineReader | None = None
        self._next_id = 0
        #: Transport/admission retries performed over this client's life.
        self.retry_count = 0

    # -- connection management -------------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout)
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self._reader = protocol.LineReader(sock, self.max_line_bytes)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_cap, self.backoff_base * (2**attempt))
        return delay * (0.5 + self._rng.random() / 2)

    # -- the wire --------------------------------------------------------------------

    def _send_line(self, data: bytes) -> None:
        if faults.active("service-slow-loris"):
            # Dribble the request one byte at a time: the server's read
            # deadline, not this client's goodwill, must bound the damage.
            for i in range(len(data)):
                self._sock.sendall(data[i : i + 1])
                time.sleep(0.01)
            return
        self._sock.sendall(data)

    def _roundtrip(self, envelope: dict) -> dict:
        """One attempt: send one line, read the matching response line."""
        self.connect()
        if faults.active("service-oversize-payload"):
            envelope = dict(envelope)
            envelope["_pad"] = "x" * (self.max_line_bytes + 1)
        self._send_line(protocol.encode_line(envelope))
        while True:
            response = protocol.decode_line(self._reader.readline())
            if response.get("id") == envelope["id"]:
                return response
            if response.get("id") is None and not response.get("ok", True):
                # Connection-scoped error (oversized / undecodable line):
                # the server answers with a null id and may close on us.
                return response
            # A response for a request this client object no longer waits
            # on (a previous attempt whose reply arrived late).  Skip it.

    def _call(self, verb: str, payload: dict):
        """Send one verb with the retry/backoff discipline; return ``result``.

        Raises :class:`CountFailure` / :class:`CounterAbort` rehydrated
        from typed error envelopes, :class:`ServiceOverloaded` /
        :class:`ServiceUnavailable` past the retry budget, and
        :class:`ServiceError` for the non-retryable codes.
        """
        attempt = 0
        last_error: str = "no attempt made"
        while True:
            self._next_id += 1
            envelope = {"id": self._next_id, "verb": verb}
            envelope.update(payload)
            try:
                response = self._roundtrip(envelope)
            except (OSError, protocol.ProtocolError) as exc:
                self.close()
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt >= self.retries:
                    raise ServiceUnavailable(
                        f"{verb} failed after {attempt + 1} attempts ({last_error})"
                    ) from exc
                self.retry_count += 1
                time.sleep(self._backoff(attempt))
                attempt += 1
                continue
            if response.get("ok"):
                return response.get("result")
            error = response.get("error") or {}
            code = error.get("code", "internal")
            message = error.get("message", "")
            if code == "failure":
                raise CountFailure.from_dict(error["failure"])
            if code == "abort":
                raise CounterAbort.from_dict(error["abort"])
            if error.get("retryable"):
                last_error = f"[{code}] {message}"
                if attempt >= self.retries:
                    raise ServiceOverloaded(code, message, retryable=True)
                self.retry_count += 1
                time.sleep(self._backoff(attempt))
                attempt += 1
                continue
            raise ServiceError(code, message)

    # -- verbs -----------------------------------------------------------------------

    def ping(self) -> dict:
        return self._call("ping", {})

    def stats(self) -> dict:
        """The daemon's stats payload: engine stats + service telemetry."""
        return self._call("stats", {})

    def solve(self, problem, *, on_failure: str = "raise") -> CountResult | CountFailure:
        """Count one problem remotely, with the engine's failure contract.

        ``on_failure="raise"`` raises the failure's cause (the typed
        :class:`CounterAbort`) when one exists, the
        :class:`CountFailure` itself otherwise — exactly like
        :meth:`CountingEngine.solve`.  ``"return"`` hands back the
        failure object in place of a result.
        """
        if on_failure not in ("raise", "return"):
            raise ValueError(f"on_failure must be 'raise' or 'return', got {on_failure!r}")
        request = self._as_request(problem)
        try:
            result = self._call("solve", {"request": request.to_dict()})
        except CountFailure as failure:
            if on_failure == "return":
                return failure
            if failure.cause is not None:
                raise failure.cause from failure
            raise
        return CountResult.from_dict(result)

    def _chunk_requests(self, payloads: list[dict]) -> list[list[dict]]:
        """Split encoded requests into per-line-budget chunks (order kept).

        Greedy first-fit in batch order: a chunk closes when the next
        request would push its JSON line past ``max_line_bytes`` minus
        the envelope margin.  A single request bigger than the whole
        budget still ships alone — the server's typed ``oversized``
        answer then names exactly that request's chunk, not the batch.
        """
        budget = max(1, self.max_line_bytes - _ENVELOPE_MARGIN)
        chunks: list[list[dict]] = []
        current: list[dict] = []
        size = 0
        for payload in payloads:
            encoded = len(json.dumps(payload, separators=(",", ":"))) + 1
            if current and size + encoded > budget:
                chunks.append(current)
                current, size = [], 0
            current.append(payload)
            size += encoded
        if current:
            chunks.append(current)
        return chunks

    def solve_many(self, problems, *, on_failure: str = "raise"):
        """Count a batch remotely; one result or failure per problem.

        The batch is chunked under the daemon's line ceiling (see
        :meth:`_chunk_requests`) and shipped as sequential ``solve_many``
        lines; results concatenate back into batch order, so callers see
        one logical batch regardless of how many lines carried it.
        """
        if on_failure not in ("raise", "return"):
            raise ValueError(f"on_failure must be 'raise' or 'return', got {on_failure!r}")
        requests = [self._as_request(problem) for problem in problems]
        entries: list[dict] = []
        for chunk in self._chunk_requests([r.to_dict() for r in requests]):
            entries.extend(self._call("solve_many", {"requests": chunk}))
        outcomes: list[CountResult | CountFailure] = []
        primary: CountFailure | None = None
        for entry in entries:
            if entry.get("ok"):
                outcomes.append(CountResult.from_dict(entry["result"]))
            else:
                failure = CountFailure.from_dict(entry["failure"])
                if primary is None:
                    primary = failure
                outcomes.append(failure)
        if primary is not None and on_failure == "raise":
            if primary.cause is not None:
                raise primary.cause from primary
            raise primary
        return outcomes

    def count(self, problem) -> int:
        """Bare-int convenience over :meth:`solve`."""
        return self.solve(problem).value

    def count_many(self, problems) -> list[int]:
        """Bare-int convenience over :meth:`solve_many`."""
        return [result.value for result in self.solve_many(problems)]

    def accmc(
        self,
        tree,
        prop: str,
        scope: int,
        *,
        mode: str | None = None,
        deadline: float | None = None,
        budget: int | None = None,
    ) -> dict:
        """Whole-space confusion metrics, computed daemon-side.

        ``tree`` is anything with ``n_features`` and ``decision_paths()``
        (a fitted ``DecisionTreeClassifier``, or a
        :class:`~repro.counting.service.protocol.WireTree`).  Returns the
        wire payload: confusion counts as decimal strings under
        ``"counts"`` plus provenance fields — counts are arbitrary
        precision, so they stay strings instead of losing bits in floats.
        """
        payload = {
            "tree": protocol.tree_to_wire(tree),
            "property": prop,
            "scope": scope,
        }
        if mode is not None:
            payload["mode"] = mode
        if deadline is not None:
            payload["deadline"] = deadline
        if budget is not None:
            payload["budget"] = budget
        result = self._call("accmc", payload)
        result["counts"] = {k: int(v) for k, v in result["counts"].items()}
        return result

    def diffmc(
        self,
        first,
        second,
        *,
        deadline: float | None = None,
        budget: int | None = None,
    ) -> dict:
        """Semantic difference of two trees, computed daemon-side."""
        payload = {
            "first": protocol.tree_to_wire(first),
            "second": protocol.tree_to_wire(second),
        }
        if deadline is not None:
            payload["deadline"] = deadline
        if budget is not None:
            payload["budget"] = budget
        result = self._call("diffmc", payload)
        for field in ("tt", "tf", "ft", "ff"):
            result[field] = int(result[field])
        return result

    @staticmethod
    def _as_request(problem) -> CountRequest:
        if isinstance(problem, CountRequest):
            return problem
        return CountRequest.from_cnf(problem)

    def __repr__(self) -> str:
        state = "connected" if self._sock is not None else "disconnected"
        return f"ServiceClient({self.host}:{self.port}, {state})"
