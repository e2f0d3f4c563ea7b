"""The counting API: typed results, capabilities, the two backends.

MCML's substrate serves many consumers — AccMC confusion counts, DiffMC
model diffs, BNN quantification — and before this module their contract
with the backends was informal: duck-typed ``count`` objects, capability
sniffing via ``hasattr``/class attributes, and hard-coded construction.
This module makes the contract explicit:

* :class:`CountResult` / :class:`CountFailure` — the typed answer to one
  projected counting problem (count, exactness, backend name, wall time,
  cache provenance, engine-stats delta) or why it has none.  The
  :class:`~repro.counting.engine.CountingEngine`'s ``solve``/``solve_many``
  take CNFs and return these.
* :class:`Capabilities` — what a backend can actually do, declared once as
  a dataclass instead of being sniffed per call site: exactness (counts
  portable across backends/sessions) and component-cache ownership (the
  backend counts through a cache the engine reports and spills).  Engine
  routing, store gating and AccMC's construction read these flags only.
* :class:`CounterBackend` — the structural protocol every backend
  satisfies: ``name``, ``capabilities``, ``count(cnf) -> int``.
* the **backends** — the paper counts with the exact projected counter
  ProjMC and the hashing-based ApproxMC; ``exact``
  (:class:`~repro.counting.exact.ExactCounter`) and ``approxmc``
  (:class:`~repro.counting.approxmc.ApproxMCCounter`) stand in for them.
  :func:`available_backends` lists the two names ``mcml --backend NAME``
  accepts, and :func:`make_counter` builds one with a run's seed and its
  two count limits, set once on the backend's own knobs.

The module sits below the engine (it imports only :mod:`repro.logic.cnf`),
so backends and the engine can both import from it without cycles; the
backend classes are imported lazily, on first use.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field, fields
from typing import Protocol, runtime_checkable

from repro.logic.cnf import CNF

__all__ = [
    "Capabilities",
    "CountFailure",
    "CountResult",
    "CounterBackend",
    "EngineStats",
    "available_backends",
    "backend_capabilities",
    "make_counter",
]

# -- capabilities ---------------------------------------------------------------------


@dataclass(frozen=True)
class Capabilities:
    """What a counting backend can do, declared instead of sniffed.

    Parameters
    ----------
    exact:
        Counts are exact, hence portable across backends and sessions: the
        engine may persist them to a shared disk store, and AccMC derives
        three confusion counts from four such counts by subtraction.
        Approximate (ε, δ) estimates are neither persisted nor subtracted:
        AccMC counts the paper's four products on them.
    owns_component_cache:
        The backend counts through the
        :class:`~repro.counting.component_cache.ComponentCache` on its
        ``component_cache`` attribute, which the engine exposes as
        ``engine.component_cache`` and spills to its ``cache_dir``.
    """

    exact: bool
    owns_component_cache: bool = False

    def as_dict(self) -> dict[str, bool]:
        """Flag mapping, e.g. for benchmark/CLI provenance records."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@runtime_checkable
class CounterBackend(Protocol):
    """The structural contract of a counting backend.

    Anything with a ``name``, declared :class:`Capabilities` and a
    ``count(cnf) -> int`` method is a backend that a
    :class:`~repro.counting.engine.CountingEngine` can wrap; the two that
    ``mcml --backend`` chooses between construct via :func:`make_counter`.
    """

    name: str
    capabilities: Capabilities

    def count(self, cnf: CNF) -> int:  # pragma: no cover - protocol stub
        ...


# -- typed result ---------------------------------------------------------------------


@dataclass(frozen=True)
class CountResult:
    """A typed model count with provenance.

    ``value`` is the projected model count; ``exact`` whether the backend
    guarantees it bit-exactly; ``backend`` the producing backend's
    declared name; ``source`` where the answer came from (``"memo"``,
    ``"store"`` or ``"backend"``); ``elapsed_seconds`` the wall time this
    problem cost (≈0 for cache hits); ``stats_delta`` the
    :class:`EngineStats` movement the solving call caused (per batch for
    ``solve_many``).  ``int(result)`` returns the bare count.
    """

    value: int
    exact: bool
    backend: str
    source: str
    elapsed_seconds: float = 0.0
    stats_delta: "EngineStats | None" = field(default=None, compare=False)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    @property
    def cached(self) -> bool:
        """True when no backend work was performed for this problem."""
        return self.source != "backend"


class CountFailure(Exception):
    """A counting problem that could not be answered, as a typed outcome.

    Raised (or returned, with ``solve_many(..., on_failure="return")``)
    by the engine when a problem's count aborts
    (:class:`~repro.counting.exact.CounterAbort`), which is how a backend
    reports an exhausted budget or deadline.  Any other backend exception
    is no per-problem outcome: it leaves the batch at once as itself, and
    the counts completed before it still merge into the memo and the disk
    store.  Carries enough provenance for the caller to decide what to do
    next:

    ``kind``
        ``"timeout"`` (wall-clock deadline), ``"budget"`` (node budget) or
        ``"error"`` (an abort of neither kind, such as a bare
        ``CounterAbort``).
    ``backend``
        The backend that was counting when the problem failed.
    ``cause``
        The original exception (``CounterTimeout``,
        ``CounterBudgetExceeded``, …), or ``None`` for a failure built
        without one.
    ``elapsed_seconds``
        Wall time burned on the problem.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        backend: str = "?",
        cause: BaseException | None = None,
        elapsed_seconds: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.backend = backend
        self.cause = cause
        self.elapsed_seconds = elapsed_seconds

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        backend: str = "?",
        elapsed_seconds: float = 0.0,
    ) -> "CountFailure":
        """Classify a counter abort into its failure kind."""
        from repro.counting.exact import CounterBudgetExceeded, CounterTimeout

        if isinstance(exc, CounterTimeout):
            kind = "timeout"
        elif isinstance(exc, CounterBudgetExceeded):
            kind = "budget"
        else:
            kind = "error"
        return cls(
            kind,
            f"{kind} on backend {backend!r}: {exc}",
            backend=backend,
            cause=exc,
            elapsed_seconds=elapsed_seconds,
        )

    def __repr__(self) -> str:
        return (
            f"CountFailure(kind={self.kind!r}, backend={self.backend!r}, "
            f"{self.args[0]!r})"
        )


@dataclass
class EngineStats:
    """Cache telemetry: calls vs hits per memo table.

    ``count_calls`` counts every problem once and splits exactly into
    ``count_hits`` (in-memory memo, duplicates inside a batch included),
    ``store_hits`` (disk store), ``backend_calls`` (actual counting work)
    and the problems that failed (budget or deadline; those that timed out
    are ``timeouts``) — a warm re-run shows ``backend_calls == 0``.

    ``translate_store_hits``/``region_store_hits`` count compilations
    warmed from the disk-persistent memo store rather than recompiled.
    ``component_spill_hits`` counts *sub-problem* components promoted from
    the disk spill tier (:class:`~repro.counting.store.ComponentStore`)
    back into the shared component cache — a warm-restarted engine doing
    genuinely new counts over a known φ shows ``backend_calls > 0`` but
    large ``component_spill_hits``.

    The failure-path counters observe the robustness layer:
    ``timeouts`` counts problems aborted by a wall-clock deadline
    (cooperative ``CounterTimeout``); ``store_degradations`` disk-tier
    degradation events (corrupt database rotated aside, unreadable row
    read as a miss, swallowed write failure) across all three disk tiers.
    """

    count_calls: int = 0
    count_hits: int = 0
    store_hits: int = 0
    backend_calls: int = 0
    component_spill_hits: int = 0
    translate_calls: int = 0
    translate_hits: int = 0
    translate_store_hits: int = 0
    region_calls: int = 0
    region_hits: int = 0
    region_store_hits: int = 0
    timeouts: int = 0
    store_degradations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "EngineStats":
        return EngineStats(**self.as_dict())

    def delta_since(self, before: "EngineStats") -> "EngineStats":
        """Field-wise ``self - before`` (the movement a call caused)."""
        return EngineStats(
            **{
                name: value - getattr(before, name)
                for name, value in self.as_dict().items()
            }
        )


# -- backends -------------------------------------------------------------------------


#: The counters ``mcml --backend`` chooses between, name -> (module, class):
#: the exact counter stands in for the paper's ProjMC and the hashing-based
#: one for its ApproxMC.  Imported on first use, because the backend
#: modules import :class:`Capabilities` from this one.
_BACKENDS = {
    "approxmc": ("repro.counting.approxmc", "ApproxMCCounter"),
    "exact": ("repro.counting.exact", "ExactCounter"),
}


def available_backends() -> list[str]:
    """The backend names, sorted."""
    return sorted(_BACKENDS)


def _backend_class(name: str) -> type:
    try:
        module, cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(f"unknown counter {name!r} (use one of: {known})") from None
    return getattr(importlib.import_module(module), cls)


def backend_capabilities(name: str) -> Capabilities:
    """The :class:`Capabilities` a backend's class declares."""
    return _backend_class(name).capabilities


def make_counter(
    name: str,
    seed: int = 0,
    *,
    budget: int | None = None,
    deadline: float | None = None,
):
    """The backend ``name``, with a run's seed and count limits.

    The one place a run's seed and limits reach its backend: the
    approximate counter's hashes take ``seed``, the exact counter takes
    none.  ``budget`` (search nodes, an integer >= 1) becomes the exact
    counter's ``max_nodes``; ``approxmc`` has no such knob and ignores it.
    ``deadline`` (wall-clock seconds, a finite number > 0) becomes either
    backend's ``deadline``.  Both bound every ``count()`` call the backend
    makes and never change a count's value.  An unknown name or a
    malformed limit raises ``ValueError``.
    :class:`~repro.core.session.MCMLSession` builds through this.
    """
    # Limits arrive from outside the program (the CLI, library callers),
    # so a malformed one is refused here rather than reaching a knob.
    # ``bool`` is an ``int`` subclass, not a limit.
    if budget is not None and (
        not isinstance(budget, int) or isinstance(budget, bool) or budget < 1
    ):
        raise ValueError(f"budget must be None or an integer >= 1, got {budget!r}")
    if deadline is not None and (
        not isinstance(deadline, (int, float))
        or isinstance(deadline, bool)
        or not 0 < deadline < math.inf
    ):
        raise ValueError(
            f"deadline must be None or a finite number > 0, got {deadline!r}"
        )
    backend = _backend_class(name)
    if name == "approxmc":
        return backend(seed=seed, deadline=deadline)
    if budget is None:
        return backend(deadline=deadline)
    return backend(max_nodes=budget, deadline=deadline)
