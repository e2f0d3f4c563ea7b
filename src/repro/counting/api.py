"""The counting API: typed results, capabilities, registry.

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
  portable across backends/sessions), formula counting (AccMC's
  vectorised fast path), projection support (Tseitin auxiliaries allowed
  in clauses) and component-cache ownership (the backend counts through
  a cache the engine reports and spills).  Engine routing, store gating
  and consumer fast paths all negotiate through these flags only.
* :class:`CounterBackend` — the structural protocol every backend
  satisfies: ``name``, ``capabilities``, ``count(cnf) -> int``.
* the **backend registry** — every backend is constructible by name via
  :func:`make_backend` (``exact``, ``legacy``, ``brute``, ``approxmc``,
  plus aliases) and enumerable via
  :func:`available_backends`, which is what ``mcml --backend NAME`` and
  the conformance suite iterate over.  A new backend is a registry entry
  plus a conformance-suite run.  :func:`make_counter` builds the backend
  a run counts with: its seed and its two count limits, set once on the
  backend's own knobs.

The module sits below the engine (it imports only :mod:`repro.logic.cnf`),
so backends and the engine can both import from it without cycles; the
concrete backend factories are imported lazily inside the registry.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
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
    "make_backend",
    "make_counter",
    "register_backend",
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
    counts_formulas:
        The backend exposes ``count_formula(formula, num_vars)``; AccMC's
        formula-sweep fast path and the engine's memoized
        ``solve_formula`` negotiate on this flag.
    supports_projection:
        Clauses may mention variables outside the projection (Tseitin
        auxiliaries); backends without it (the brute sweep) reject such
        CNFs, so they only serve auxiliary-free problems like tree
        regions.
    owns_component_cache:
        The backend counts through the
        :class:`~repro.counting.component_cache.ComponentCache` on its
        ``component_cache`` attribute, which the engine exposes as
        ``engine.component_cache`` and spills to its ``cache_dir``.
    """

    exact: bool
    counts_formulas: bool = False
    supports_projection: bool = False
    owns_component_cache: bool = False

    def as_dict(self) -> dict[str, bool]:
        """Flag mapping, e.g. for benchmark/CLI provenance records."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@runtime_checkable
class CounterBackend(Protocol):
    """The structural contract of a counting backend.

    Anything with a ``name``, declared :class:`Capabilities` and a
    ``count(cnf) -> int`` method is a backend; registered implementations
    additionally construct via :func:`make_backend`.
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
    registered name; ``source`` where the answer came from (``"memo"``,
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


# -- registry -------------------------------------------------------------------------


@dataclass(frozen=True)
class _BackendEntry:
    factory: Callable[..., object]
    aliases: tuple[str, ...] = ()


#: canonical name -> entry; aliases resolve through :func:`_resolve`.
_REGISTRY: dict[str, _BackendEntry] = {}


def register_backend(
    name: str,
    factory: Callable[..., object],
    *,
    aliases: Iterable[str] = (),
) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory(**opts)`` must return an object satisfying
    :class:`CounterBackend`.  Aliases resolve to the canonical name but do
    not show up in :func:`available_backends`.
    """
    _REGISTRY[name] = _BackendEntry(factory=factory, aliases=tuple(aliases))
    _CAPABILITY_CACHE.pop(name, None)


def _resolve(name: str) -> str:
    if name in _REGISTRY:
        return name
    for canonical, entry in _REGISTRY.items():
        if name in entry.aliases:
            return canonical
    known = ", ".join(sorted(_REGISTRY))
    raise ValueError(f"unknown counter {name!r} (use one of: {known})")


def make_backend(name: str, **opts):
    """Construct a registered backend by (canonical or alias) name."""
    return _REGISTRY[_resolve(name)].factory(**opts)


#: The built-in backends with a search-node budget (``max_nodes``) and
#: those with a wall-clock ``deadline``; any other backend has no such
#: knob and ignores that limit.
_BUDGETED = ("exact", "legacy")
_TIMED = ("exact", "approxmc")


def make_counter(
    name: str,
    seed: int = 0,
    *,
    budget: int | None = None,
    deadline: float | None = None,
):
    """A registered backend by name, with a run's seed and count limits.

    The one place a run's seed and limits reach its backend: the
    approximate counter's hashes take ``seed``, the exact backends take
    none.  ``budget`` (search nodes, an integer >= 1) becomes the
    ``max_nodes`` of ``exact`` and ``legacy``; ``deadline`` (wall-clock
    seconds, a finite number > 0) becomes the ``deadline`` of ``exact``
    and ``approxmc``.  Both bound every ``count()`` call the backend makes
    and never change a count's value.  A backend without the knob (``brute``
    has neither) ignores the limit.  A malformed limit raises
    ``ValueError``.  :class:`~repro.core.session.MCMLSession` and
    ``repro.experiments.make_counter`` both build through this.
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
    canonical = _resolve(name)
    opts = {"seed": seed} if canonical == "approxmc" else {}
    if budget is not None and canonical in _BUDGETED:
        opts["max_nodes"] = budget
    if deadline is not None and canonical in _TIMED:
        opts["deadline"] = deadline
    return make_backend(canonical, **opts)


def available_backends() -> list[str]:
    """Canonical registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_aliases(name: str) -> tuple[str, ...]:
    """The aliases a canonical name is also reachable under."""
    return _REGISTRY[_resolve(name)].aliases


#: canonical name -> resolved Capabilities (declarations are class-level
#: constants, so one default construction per backend suffices forever).
_CAPABILITY_CACHE: dict[str, Capabilities] = {}


def backend_capabilities(name: str) -> Capabilities:
    """Capabilities of a registered backend without keeping an instance.

    Factory callables may carry a ``capabilities`` attribute (classes
    registered directly do); lazy function factories fall back to one
    throwaway default construction, cached per canonical name.
    """
    canonical = _resolve(name)
    cached = _CAPABILITY_CACHE.get(canonical)
    if cached is not None:
        return cached
    entry = _REGISTRY[canonical]
    declared = getattr(entry.factory, "capabilities", None)
    caps = (
        declared
        if isinstance(declared, Capabilities)
        else entry.factory().capabilities
    )
    _CAPABILITY_CACHE[canonical] = caps
    return caps


# The built-in backends.  Factories import lazily so this module stays
# importable from the backend modules themselves (they only need
# :class:`Capabilities`).
def _exact_factory(**opts):
    from repro.counting.exact import ExactCounter

    return ExactCounter(**opts)


def _legacy_factory(**opts):
    from repro.counting.legacy import LegacyExactCounter

    return LegacyExactCounter(**opts)


def _brute_factory(**opts):
    from repro.counting.vector import FormulaBruteCounter

    return FormulaBruteCounter(**opts)


def _approxmc_factory(**opts):
    from repro.counting.approxmc import ApproxMCCounter

    return ApproxMCCounter(**opts)


register_backend("exact", _exact_factory)
register_backend("legacy", _legacy_factory, aliases=("exact-legacy",))
# "brute" is the numpy whole-space sweep over formulas and aux-free CNFs
# (repro.counting.vector); "vector" is its descriptive alias.
register_backend("brute", _brute_factory, aliases=("vector",))
register_backend("approxmc", _approxmc_factory, aliases=("approx",))

