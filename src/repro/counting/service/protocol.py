"""Wire format of the counting service.

One JSON object per line, UTF-8, ``\\n``-terminated, in both directions.
Requests are envelopes ``{"id": <any json>, "verb": <str>, ...payload}``;
responses echo the id::

    {"id": 7, "ok": true, "result": ...}
    {"id": 7, "ok": false, "error": {"code": "...", "message": "...",
                                     "retryable": false, ...}}

Error codes, and what a client should do with them:

``overloaded``
    Admission control said no — the request queue is full or the client
    exceeded its in-flight budget.  Retryable: back off and resend.
``shutting-down``
    The server is draining.  Retryable — against the *next* server.
``invalid``
    Malformed envelope, unknown verb, or a payload the verb rejected.
    Not retryable; fix the request.
``oversized``
    The request line exceeded ``max_line_bytes``.  The server closes the
    connection after replying (the stream cannot be resynced).  Not
    retryable.
``failure``
    A typed :class:`~repro.counting.api.CountFailure`: the problem ran
    but could not be answered (timeout / budget / error).
    The full ``to_dict()`` payload rides in ``error["failure"]`` so the
    client rehydrates the exact failure, provenance intact.
``abort``
    A :class:`~repro.counting.exact.CounterAbort` that escaped outside
    the failure wrapper; ``error["abort"]`` carries its ``to_dict()``.
``internal``
    The server's handler itself blew up.  Not retryable; the message is
    all you get (the traceback stays in the server log).

Line framing is bounded on both sides: :class:`LineReader` accumulates at
most ``max_line_bytes`` before raising :class:`OversizedLine` — the
service never buffers an unbounded request, which is the admission-control
story applied to a single connection.
"""

from __future__ import annotations

import json
import select
import socket
import time

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "LineReader",
    "OversizedLine",
    "ProtocolError",
    "WireTree",
    "abort_response",
    "decode_line",
    "encode_line",
    "engine_stats_payload",
    "error_response",
    "failure_response",
    "ok_response",
    "tree_from_wire",
    "tree_to_wire",
]

PROTOCOL_VERSION = 1

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7697

#: Default per-line ceiling.  Generous for real workloads (a 10^5-clause
#: CNF is ~2 MiB of JSON) while keeping a hostile client from ballooning
#: server memory.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """The peer sent something that is not the wire format."""


class OversizedLine(ProtocolError):
    """A line exceeded the framing ceiling before its newline arrived."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"line exceeded {limit} bytes before newline")
        self.limit = limit


class ConnectionClosed(ProtocolError):
    """The peer closed the connection mid-stream."""


def encode_line(obj: dict) -> bytes:
    """One envelope as a newline-terminated UTF-8 JSON line."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> dict:
    """Parse one line into an envelope dict (and nothing but a dict)."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"envelope must be a JSON object, got {type(obj).__name__}")
    return obj


class LineReader:
    """Bounded line framing over a socket.

    ``readline()`` returns one line (without the newline) or raises:
    :class:`OversizedLine` past ``max_line_bytes``, :class:`ConnectionClosed`
    on EOF, and ``TimeoutError`` / ``OSError`` from the socket.

    ``line_timeout`` bounds one *whole line*, not one ``recv``: without
    it, a slow-loris peer dribbling a byte per poll interval resets the
    per-``recv`` timeout forever and wedges the reader.  With it, the
    deadline starts when ``readline()`` does and each wait gets only the
    remainder (the server passes its ``read_timeout`` here; the client
    keeps the plain socket timeout it set itself).  The wait uses
    ``select`` rather than ``settimeout`` — the socket's timeout is
    shared with concurrent ``sendall`` on other threads, and shrinking it
    per read would let a send inherit a near-expired remainder and drop a
    healthy connection on a spurious send timeout.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_line_bytes: int = MAX_LINE_BYTES,
        line_timeout: float | None = None,
    ) -> None:
        self._sock = sock
        self._max = max_line_bytes
        self._line_timeout = line_timeout
        self._buf = bytearray()

    def readline(self) -> bytes:
        started = time.monotonic()
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
                return line
            if len(self._buf) > self._max:
                raise OversizedLine(self._max)
            if self._line_timeout is not None:
                remaining = self._line_timeout - (time.monotonic() - started)
                if remaining <= 0:
                    raise TimeoutError(
                        f"line incomplete after {self._line_timeout}s"
                    )
                try:
                    ready, _, _ = select.select([self._sock], [], [], remaining)
                except ValueError as exc:  # fd turned -1: closed under us
                    raise ConnectionClosed("socket closed during read wait") from exc
                if not ready:
                    raise TimeoutError(
                        f"line incomplete after {self._line_timeout}s"
                    )
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            self._buf += chunk


# -- response builders ---------------------------------------------------------------


def ok_response(msg_id, result) -> dict:
    return {"id": msg_id, "ok": True, "result": result}


def error_response(msg_id, code: str, message: str, *, retryable: bool = False, **extra) -> dict:
    error = {"code": code, "message": message, "retryable": retryable}
    error.update(extra)
    return {"id": msg_id, "ok": False, "error": error}


def failure_response(msg_id, failure) -> dict:
    """A :class:`~repro.counting.api.CountFailure` as a typed error."""
    return error_response(
        msg_id, "failure", str(failure), retryable=False, failure=failure.to_dict()
    )


def abort_response(msg_id, abort) -> dict:
    """A :class:`~repro.counting.exact.CounterAbort` as a typed error."""
    return error_response(msg_id, "abort", str(abort), retryable=False, abort=abort.to_dict())


# -- trees over the wire -------------------------------------------------------------


class WireTree:
    """The tree surface AccMC/DiffMC consume: ``n_features`` + paths.

    The metric layer never calls ``predict`` — it compiles
    ``decision_paths()`` into counting problems — so a rehydrated tree is
    just those paths behind the same two-member interface.
    """

    __slots__ = ("n_features", "_paths")

    def __init__(self, n_features: int, paths: tuple) -> None:
        self.n_features = n_features
        self._paths = tuple(paths)

    def decision_paths(self):
        return list(self._paths)

    def __repr__(self) -> str:
        return f"WireTree(n_features={self.n_features}, paths={len(self._paths)})"


def tree_to_wire(tree) -> dict:
    """Flatten any fitted tree (or :class:`WireTree`) to its path list."""
    return {
        "n_features": int(tree.n_features),
        "paths": [
            {
                "conditions": [[int(f), bool(v)] for f, v in path.conditions],
                "label": int(path.label),
            }
            for path in tree.decision_paths()
        ],
    }


def tree_from_wire(payload: dict) -> WireTree:
    """Rehydrate a :class:`WireTree` from :func:`tree_to_wire` output."""
    from repro.ml.decision_tree import TreePath

    try:
        n_features = int(payload["n_features"])
        paths = tuple(
            TreePath(
                conditions=tuple((int(f), bool(v)) for f, v in entry["conditions"]),
                label=int(entry["label"]),
            )
            for entry in payload["paths"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed tree payload: {exc}") from exc
    return WireTree(n_features, paths)


# -- shared stats rendering ----------------------------------------------------------


def engine_stats_payload(session) -> dict:
    """The engine-side stats block, shared by ``mcml --stats`` and the
    daemon's ``stats`` verb — one rendering, two transports.

    Delegates to the session's :class:`~repro.counting.api.CountingSurface`
    ``stats()`` verb, so the two spellings can never drift apart.
    """
    return session.stats()
