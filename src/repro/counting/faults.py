"""Fault-injection harness for the counting stack's chaos tests.

The robustness layer — corrupt-store rotation and disk-full degradation —
exists to survive events that are hard to produce on demand.  This module
makes them producible: named *injection points* in the stores consult a
tiny activation registry and misbehave on purpose when their point is
armed, through :func:`inject` / the :func:`injected` context manager.

Injection points currently wired in:

``store-read-corrupt``
    Store reads (:class:`~repro.counting.store.CountStore`,
    :class:`~repro.counting.store.BlobStore`,
    :class:`~repro.counting.store.ComponentStore`) raise
    ``sqlite3.DatabaseError`` — exercising the corrupt-row miss path and
    the ``degradations`` counters.
``store-disk-full``
    Store writes/flushes raise ``sqlite3.OperationalError`` ("disk full"),
    exercising the swallow-and-degrade write path.

The registry check is one dict lookup; with nothing armed (the default,
always, outside chaos tests) the hooks cost nothing measurable.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["active", "clear", "inject", "injected"]

#: Armed injection points: name -> value (True for plain flags).
_ACTIVE: dict[str, object] = {}


def active(point: str):
    """The armed value for ``point`` (True for plain flags), or None."""
    if not _ACTIVE:  # the hot-path guard: one truthiness check when clean
        return None
    return _ACTIVE.get(point)


def inject(point: str, value: object = True) -> None:
    """Arm an injection point."""
    _ACTIVE[point] = value


def clear(point: str | None = None) -> None:
    """Disarm one point, or every point when ``point`` is None."""
    if point is None:
        _ACTIVE.clear()
    else:
        _ACTIVE.pop(point, None)


@contextmanager
def injected(point: str, value: object = True):
    """Arm ``point`` for the duration of a ``with`` block."""
    inject(point, value)
    try:
        yield
    finally:
        clear(point)
