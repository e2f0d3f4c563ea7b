"""The counting service: :class:`~repro.core.session.MCMLSession` over a wire.

One long-lived daemon process owns a warm session — filled memos,
populated component cache, open sqlite tiers — and serves counting verbs
(``solve``, ``solve_many``, ``accmc``, ``diffmc``, ``stats``, ``ping``) to
concurrent clients over line-delimited JSON on a TCP socket.  Everything
is stdlib: ``socket`` + ``threading`` + ``json``, no framework.

The three modules:

:mod:`~repro.counting.service.protocol`
    The wire format — envelope encode/decode, bounded line framing,
    response builders, tree (de)hydration, the shared stats payload.
:mod:`~repro.counting.service.server`
    :class:`CountingServer` — accept/reader/solver threads, bounded
    request queue with admission control, per-client in-flight budgets,
    signature-keyed coalescing of identical in-flight requests, and
    graceful drain (stop accepting, finish the backlog, spill the disk
    tiers via ``session.close()``).
:mod:`~repro.counting.service.client`
    :class:`ServiceClient` — connect/request timeouts, capped
    exponential backoff with jitter, and rehydration of
    :class:`~repro.counting.api.CountFailure` /
    :class:`~repro.counting.exact.CounterAbort` so remote failures look
    exactly like local ones.  With :class:`~repro.core.session.MCMLSession`
    it is one of the two implementations of
    :class:`~repro.counting.api.CountingSurface`.

``mcml serve`` (:mod:`repro.experiments.cli`) is the daemon entry point;
``docs/api.md`` documents the wire protocol and failure semantics.
"""

from __future__ import annotations

from repro.counting.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.counting.service.protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    engine_stats_payload,
)
from repro.counting.service.server import CountingServer

__all__ = [
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "CountingServer",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "engine_stats_payload",
]
