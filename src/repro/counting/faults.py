"""Fault-injection harness for the counting stack's chaos tests.

The robustness layer — corrupt-store rotation and disk-full degradation —
exists to survive events that are hard to produce on demand.  This module
makes them producible: named *injection points* in the stores consult a
tiny activation registry and misbehave on purpose when their point is
armed.

Activation is either programmatic (:func:`inject` / the :func:`injected`
context manager, what the chaos suites use) or environmental: the
``REPRO_FAULTS`` variable holds a comma-separated spec like
``"store-read-corrupt,store-disk-full"`` and is parsed at import.  Armed
points are mirrored back into ``os.environ`` so subprocesses (an ``mcml``
run, say) observe them too.

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

import os
from contextlib import contextmanager

__all__ = ["ENV_VAR", "active", "clear", "inject", "injected"]

#: Environment variable carrying the fault spec across process boundaries.
ENV_VAR = "REPRO_FAULTS"

#: Armed injection points: name -> value (True for plain flags).
_ACTIVE: dict[str, object] = {}


def _parse(spec: str) -> dict[str, object]:
    """Parse ``"point,point:arg,..."`` into the registry mapping."""
    out: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, arg = part.partition(":")
        if not arg:
            out[name] = True
            continue
        try:
            out[name] = int(arg)
        except ValueError:
            out[name] = arg
    return out


def _render() -> str:
    """Inverse of :func:`_parse` for the environment mirror."""
    parts = []
    for name, value in sorted(_ACTIVE.items()):
        parts.append(name if value is True else f"{name}:{value}")
    return ",".join(parts)


def _sync_env() -> None:
    if _ACTIVE:
        os.environ[ENV_VAR] = _render()
    else:
        os.environ.pop(ENV_VAR, None)


def active(point: str):
    """The armed value for ``point`` (True for plain flags), or None."""
    if not _ACTIVE:  # the hot-path guard: one truthiness check when clean
        return None
    return _ACTIVE.get(point)


def inject(point: str, value: object = True) -> None:
    """Arm an injection point (mirrored into the environment)."""
    _ACTIVE[point] = value
    _sync_env()


def clear(point: str | None = None) -> None:
    """Disarm one point, or every point when ``point`` is None."""
    if point is None:
        _ACTIVE.clear()
    else:
        _ACTIVE.pop(point, None)
    _sync_env()


@contextmanager
def injected(point: str, value: object = True):
    """Arm ``point`` for the duration of a ``with`` block."""
    inject(point, value)
    try:
        yield
    finally:
        clear(point)


# Subprocesses arm themselves from the environment their parent mirrored
# the registry into.
_env_spec = os.environ.get(ENV_VAR)
if _env_spec:
    _ACTIVE.update(_parse(_env_spec))
