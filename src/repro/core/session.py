"""MCMLSession: one facade over the whole MCML pipeline.

MCML's point is that one projected-#SAT substrate serves many consumers —
AccMC accuracy tables, DiffMC model-pair diffs, BNN quantification, the
paper's table drivers.  Before this facade each consumer wired its own
engine/config/store plumbing by hand; a session owns that plumbing once:

* one :class:`~repro.counting.engine.CountingEngine` over a backend chosen
  by name, ``exact`` or ``approxmc``
  (:func:`repro.counting.api.make_counter`), which carries the run's count
  limits, with the engine's memos, the backend's
  component cache and, given a ``cache_dir``, the disk-persistent stores;
* one :class:`~repro.core.pipeline.MCMLPipeline` for dataset generation
  and model training, sharing the session seed;
* the metric entry points — :meth:`accmc`, :meth:`diffmc`, :meth:`bnnmc`,
  :meth:`count`/:meth:`solve` — and the artifact entry point
  :meth:`table`, which runs any of the paper's tables through this
  session's engine instead of a private one.  :meth:`accmc` evaluates
  through the pipeline's AccMC, whose construction follows the backend's
  ``capabilities.exact``.

Quickstart::

    from repro.core.session import MCMLSession

    with MCMLSession(backend="exact", cache_dir=".mcml-cache") as s:
        data = s.pipeline.make_dataset("PartialOrder", 4)
        train, test = data.split(0.10, rng=1)
        tree = s.pipeline.train("DT", train)
        result = s.accmc(tree, "PartialOrder", 4)   # whole-space metrics
        print(result.accuracy, s.engine.stats.as_dict())

Closing the session (or leaving the ``with`` block) flushes the disk
stores; every consumer built through the session shares its caches, which
is the point.  Dropping the session frees its engine, counter and
component cache by reference counting, without waiting for the cyclic
collector.

Thread-safety: the session is as thread-safe as its engine — ``solve``,
``solve_many``, ``count`` and the metric entry points may be called from
multiple threads concurrently, because
:class:`~repro.counting.engine.CountingEngine` serializes every solve
under one re-entrant lock.  Concurrent callers get bit-identical counts
and a consistent :class:`~repro.counting.api.EngineStats`; they do not
get parallelism.  Processes share warm counts through a common
``cache_dir`` instead.
"""

from __future__ import annotations

from repro.core.accmc import AccMCResult, GroundTruth
from repro.core.diffmc import DiffMC, DiffMCResult
from repro.counting.api import Capabilities, CountResult, make_counter
from repro.counting.engine import CountingEngine
from repro.logic.cnf import CNF
from repro.spec.properties import Property, get_property
from repro.spec.symmetry import SymmetryBreaking


class MCMLSession:
    """Owns one engine + config + stores; fronts every MCML workflow.

    Its counting verbs — :meth:`solve`/:meth:`solve_many` (typed, with the
    engine's ``on_failure`` contract), :meth:`count`/:meth:`count_many`
    (bare ints), :meth:`stats` and an idempotent :meth:`close` — go
    straight to the session's engine.

    Parameters
    ----------
    backend:
        Backend name, ``exact`` (the ProjMC stand-in) or ``approxmc``,
        built by :func:`~repro.counting.api.make_counter` with the session
        ``seed``, ``budget`` and ``deadline``; any other name raises
        ``ValueError``.
    cache_dir:
        Directory of the engine's disk-persistent counts, compilations and
        component-cache spill (so work survives session restarts).
    budget, deadline:
        The count limits (search nodes, an integer >= 1; wall-clock
        seconds, a finite number > 0), set once on the backend's own
        knobs, so they bound every ``count()`` the session makes: metric
        tables, Table 1 and the counting verbs alike (:meth:`bnnmc` counts
        outside the engine and is not bounded).  A count past a
        limit fails with its typed
        :class:`~repro.counting.exact.CounterAbort` (a
        :class:`~repro.counting.api.CountFailure` under
        ``on_failure="return"``); ``approxmc`` has no node budget and
        ignores it.  A malformed limit raises ``ValueError`` here.
    seed:
        Master seed for dataset generation, splitting and training, and
        for the approximate backend's hashes.
    """

    def __init__(
        self,
        backend: str = "exact",
        *,
        cache_dir=None,
        deadline: float | None = None,
        budget: int | None = None,
        seed: int = 0,
    ) -> None:
        self.engine = CountingEngine(
            make_counter(backend, seed=seed, budget=budget, deadline=deadline),
            cache_dir=cache_dir,
        )
        self.seed = seed
        self._diffmc: DiffMC | None = None
        self._pipeline = None

    # -- substrate passthroughs ------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self.engine.backend_name

    @property
    def capabilities(self) -> Capabilities:
        return self.engine.capabilities

    def stats(self) -> dict:
        """JSON-safe telemetry payload, the one ``mcml --stats`` prints.

        The backend name, its capability flags, and the engine counters
        nested under ``"engine"``.  For the live
        :class:`~repro.counting.api.EngineStats` object use
        ``session.engine.stats``.
        """
        return {
            "backend": self.backend_name,
            "capabilities": self.capabilities.as_dict(),
            "engine": self.engine.stats.as_dict(),
        }

    @property
    def store(self):
        """The disk-persistent count store, or None when not configured."""
        return self.engine.store

    @property
    def component_store(self):
        """The component-cache disk spill, or None when not configured."""
        return self.engine.component_store

    def solve(self, problem: CNF, *, on_failure: str = "raise") -> CountResult:
        """Typed count of one problem through the session engine."""
        return self.engine.solve(problem, on_failure=on_failure)

    def solve_many(self, problems, *, on_failure: str = "raise"):
        return self.engine.solve_many(problems, on_failure=on_failure)

    def count(self, problem: CNF) -> int:
        """Bare-int convenience over :meth:`solve`."""
        return self.engine.solve(problem).value

    def count_many(self, problems) -> list[int]:
        """Bare-int convenience over :meth:`solve_many`."""
        return [result.value for result in self.engine.solve_many(problems)]

    # -- consumers -------------------------------------------------------------------

    @property
    def pipeline(self):
        """The session's :class:`MCMLPipeline` (lazily built, engine-shared)."""
        if self._pipeline is None:
            from repro.core.pipeline import MCMLPipeline

            self._pipeline = MCMLPipeline(seed=self.seed, engine=self.engine)
        return self._pipeline

    def run(self, *args, **kwargs):
        """One (property, model, split) experiment — see :meth:`MCMLPipeline.run`."""
        return self.pipeline.run(*args, **kwargs)

    def ground_truth(
        self,
        prop: Property | str,
        scope: int,
        symmetry: SymmetryBreaking | None = None,
    ) -> GroundTruth:
        """A compiled (and memoized) ground truth sharing this engine."""
        prop = get_property(prop) if isinstance(prop, str) else prop
        return self.engine.ground_truth(prop, scope, symmetry=symmetry)

    def accmc(
        self,
        tree,
        prop: Property | str,
        scope: int,
        symmetry: SymmetryBreaking | None = None,
    ) -> AccMCResult:
        """Whole-input-space confusion metrics of ``tree`` against a property.

        The construction follows the backend's ``capabilities.exact`` (see
        :mod:`repro.core.accmc`).
        """
        ground_truth = self.ground_truth(prop, scope, symmetry=symmetry)
        return self.pipeline.accmc.evaluate(tree, ground_truth)

    def diffmc(self, first, second) -> DiffMCResult:
        """Whole-space semantic difference between two decision trees."""
        if self._diffmc is None:
            self._diffmc = DiffMC(engine=self.engine)
        return self._diffmc.evaluate(first, second)

    def bnnmc(
        self,
        bnn,
        prop: Property | str,
        scope: int,
        symmetry: SymmetryBreaking | None = None,
    ) -> AccMCResult:
        """AccMC for a binarized network (QuantifyML-style quantification).

        The one verb that does not count through the session's engine:
        :func:`~repro.core.bnnmc.quantify_bnn` sweeps its formulas with
        :func:`repro.counting.vector.count_formula`, so the session's
        backend and its ``budget``/``deadline`` do not apply, the result's
        ``counter`` is ``"brute"``, naming that sweep, and ``engine.stats``
        does not move.
        """
        from repro.core.bnnmc import quantify_bnn

        return quantify_bnn(bnn, self.ground_truth(prop, scope, symmetry=symmetry))

    # -- artifacts -------------------------------------------------------------------

    def table(self, number: int, config=None, paper_scopes: bool = False) -> str:
        """Render one of the paper's tables through this session's engine.

        ``config`` is an :class:`repro.experiments.config.ExperimentConfig`
        (defaults to a fresh one with this session's seed); the driver
        modules are imported lazily so the core layer stays importable
        without the experiments package.
        """
        from repro.experiments import classification, generalization
        from repro.experiments import table1 as table1_mod
        from repro.experiments import table8 as table8_mod
        from repro.experiments import table9 as table9_mod
        from repro.experiments.config import ExperimentConfig

        if config is None:
            config = ExperimentConfig(seed=self.seed)
        if number == 1:
            return table1_mod.render(
                table1_mod.table1(config, paper_scopes=paper_scopes, session=self)
            )
        if number in (2, 4):
            rows = classification.classification_table(
                config, symmetry_breaking=number == 2, session=self
            )
            return classification.render(rows, symmetry_breaking=number == 2)
        if number in (3, 5, 6, 7):
            return generalization.render(
                generalization.generalization_table(number, config, session=self),
                number,
            )
        if number == 8:
            return table8_mod.render(table8_mod.table8(config, session=self))
        if number == 9:
            return table9_mod.render(table9_mod.table9(config, session=self))
        raise ValueError(f"unknown table {number!r} (1-9)")

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the disk stores."""
        self.engine.close()

    def __enter__(self) -> "MCMLSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MCMLSession(backend={self.backend_name!r}, "
            f"seed={self.seed}, engine={self.engine!r})"
        )
