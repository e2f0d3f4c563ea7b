"""AccMC: whole-input-space performance of a decision tree (Equations 1–4).

Given the ground truth φ (a relational property grounded at scope ``n``,
optionally symmetry-constrained) and a trained tree ``d`` with true-region
``τ`` and false-region ``ψ``::

    tp = mc(φ ∧ τ)      fp = mc(¬φ ∧ τ)
    fn = mc(φ ∧ ψ)      tn = mc(¬φ ∧ ψ)

over all 2^{n²} inputs.  Accuracy/precision/recall/F1 derive from the counts
(:class:`repro.ml.metrics.ConfusionCounts` handles the astronomically large
integers involved).

Two construction modes:

* ``mode="product"`` — the paper's construction: four counting problems,
  with ``¬φ`` obtained by negating the grounded formula before Tseitin.
* ``mode="derived"`` — counts ``φ∧τ``, ``φ`` and ``τ`` only and derives the
  rest from the partition identities ``fn = mc(φ) − tp``,
  ``fp = mc(τ) − tp``, ``tn = 2^{n²} − tp − fp − fn``.  Half the solver
  work; bit-identical results (enforced by tests).

Each region count is one problem: the region CNF (Håstad's
one-clause-per-opposite-path construction, see
:func:`repro.core.tree2cnf.label_region_cnf`) conjoined with φ, ¬φ or the
evaluation space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from collections.abc import Callable

from repro.counting.engine import CountingEngine
from repro.logic.cnf import CNF
from repro.logic.formula import Formula, TRUE
from repro.logic.tseitin import tseitin_cnf
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import ConfusionCounts
from repro.spec.properties import Property
from repro.spec.symmetry import SymmetryBreaking
from repro.spec.translate import RelationalProblem, translate


@dataclass(frozen=True)
class AccMCResult:
    """Whole-space confusion counts plus provenance."""

    property_name: str
    scope: int
    counts: ConfusionCounts
    mode: str
    counter: str
    elapsed_seconds: float

    @property
    def accuracy(self) -> float:
        return self.counts.accuracy

    @property
    def precision(self) -> float:
        return self.counts.precision

    @property
    def recall(self) -> float:
        return self.counts.recall

    @property
    def f1(self) -> float:
        return self.counts.f1

    def as_row(self) -> dict[str, float]:
        """The four φ-columns of Tables 3/5/6/7."""
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "time": self.elapsed_seconds,
        }


@dataclass
class GroundTruth:
    """A compiled ground truth φ (and lazily, ¬φ) at a fixed scope.

    When symmetry breaking is active, *both* φ and ¬φ are conjoined with the
    lex-leader constraints: the paper evaluates inside the symmetry-reduced
    space (Table 3's footnote), so the four confusion counts sum to the size
    of that reduced space, not 2^{n²}.
    """

    prop: Property
    scope: int
    symmetry: SymmetryBreaking | None = None
    #: Compilation function — a :class:`CountingEngine`'s memoized
    #: ``translate`` when the ground truth is built through one, the plain
    #: :func:`repro.spec.translate.translate` otherwise.
    translator: Callable[..., RelationalProblem] | None = field(
        default=None, repr=False
    )
    _positive: RelationalProblem | None = field(default=None, repr=False)
    _negative: RelationalProblem | None = field(default=None, repr=False)
    _space_cnf: CNF | None = field(default=None, repr=False)

    @property
    def num_primary(self) -> int:
        return self.scope * self.scope

    def _translate(self, **kwargs) -> RelationalProblem:
        fn = self.translator if self.translator is not None else translate
        return fn(self.prop, self.scope, symmetry=self.symmetry, **kwargs)

    def positive(self) -> RelationalProblem:
        if self._positive is None:
            self._positive = self._translate()
        return self._positive

    def negative(self) -> RelationalProblem:
        if self._negative is None:
            self._negative = self._translate(negate=True)
        return self._negative

    def space_formula(self) -> Formula:
        """The evaluation space: symmetry constraints, or TRUE (everything)."""
        if self.symmetry is None:
            return TRUE
        return self.symmetry.formula(self.scope)

    def space_cnf(self) -> CNF:
        if self._space_cnf is None:
            m = self.num_primary
            self._space_cnf = tseitin_cnf(self.space_formula(), num_input_vars=m)
        return self._space_cnf


class AccMC:
    """Quantify a decision tree against a ground truth, via model counting.

    ``engine`` is the :class:`~repro.counting.engine.CountingEngine` every
    count goes through (default: a fresh one over the exact counter, the
    ProjMC stand-in); wrap any backend built with
    :func:`repro.counting.api.make_backend` in one.  The backend's declared
    capabilities pick the evaluation route: formula-counting backends take
    the vectorised sweep, the rest the paper's CNF construction.
    """

    def __init__(
        self, mode: str = "product", engine: CountingEngine | None = None
    ) -> None:
        if mode not in ("product", "derived"):
            raise ValueError(f"unknown mode {mode!r}")
        # All counting goes through a shared memoizing engine: repeated
        # regions, translations and counts (across evaluate() calls, rows
        # of a table, or tables sharing a pipeline) are computed once.
        self.engine = engine if engine is not None else CountingEngine()
        self.mode = mode
        # The symmetry-reduced space size is tree- and property-independent;
        # cache it across evaluate() calls (one table = 16 properties at the
        # same scope).
        self._space_count_cache: dict[tuple[int, str], int] = {}

    def ground_truth(
        self,
        prop: Property,
        scope: int,
        symmetry: SymmetryBreaking | None = None,
    ) -> GroundTruth:
        """A compiled (and memoized) ground truth sharing this engine."""
        return self.engine.ground_truth(prop, scope, symmetry=symmetry)

    def evaluate(
        self, tree: DecisionTreeClassifier, ground_truth: GroundTruth
    ) -> AccMCResult:
        """Whole-space confusion metrics of ``tree`` against ``ground_truth``.

        Every count is bounded by the limits of the engine's backend, so
        an intractable region raises
        :class:`~repro.counting.exact.CounterTimeout` /
        :class:`~repro.counting.exact.CounterBudgetExceeded` instead of
        running unbounded.  The formula-sweep backend has no search loop
        to interrupt and no limits.
        """
        started = time.perf_counter()
        m = ground_truth.num_primary
        if tree.n_features != m:
            raise ValueError(
                f"tree has {tree.n_features} features but scope "
                f"{ground_truth.scope} needs {m}"
            )
        paths = tree.decision_paths()
        caps = self.engine.capabilities
        if not caps.counts_formulas and not caps.supports_projection:
            # Fail at the routing layer, not deep inside the backend: the
            # CNF route conjoins Tseitin formulas with auxiliaries, which
            # a projection-incapable backend cannot serve.  No registered
            # backend is one, but ``register_backend`` is public.
            raise ValueError(
                f"backend {self.engine.backend_name!r} can serve neither AccMC "
                "route: it counts no formulas and rejects CNFs with auxiliary "
                "variables (capabilities.counts_formulas and "
                ".supports_projection are both False)"
            )
        true_region = self.engine.region(paths, 1, m)
        false_region = self.engine.region(paths, 0, m)
        if caps.counts_formulas:
            # Vectorised-sweep backend: counts the pre-Tseitin formulas
            # directly, sidestepping CNF structure sensitivity entirely.
            counts = self._evaluate_by_formula(
                ground_truth, true_region, false_region, m
            )
        else:
            counts = self._evaluate_by_cnf(ground_truth, true_region, false_region)
        return AccMCResult(
            property_name=ground_truth.prop.name,
            scope=ground_truth.scope,
            counts=counts,
            mode=self.mode,
            counter=self.engine.backend_name,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _space_count(self, ground_truth: GroundTruth, compute) -> int:
        if ground_truth.symmetry is None:
            return 1 << ground_truth.num_primary
        key = (ground_truth.scope, ground_truth.symmetry.kind)
        if key not in self._space_count_cache:
            self._space_count_cache[key] = compute()
        return self._space_count_cache[key]

    # -- backend-specific constructions --------------------------------------------

    def _evaluate_by_cnf(
        self, ground_truth: GroundTruth, true_region: CNF, false_region: CNF
    ) -> ConfusionCounts:
        """The paper's pipeline: conjoin CNFs, hand them to the counting engine.

        Counting goes through the typed ``solve_many`` path, so every
        confusion count carries backend/cache provenance on the way in.
        """
        phi = ground_truth.positive().cnf
        if self.mode == "product":
            not_phi = ground_truth.negative().cnf
            tp, fp, fn, tn = (
                r.value
                for r in self.engine.solve_many(
                    [
                        phi.conjoin(true_region),
                        not_phi.conjoin(true_region),
                        phi.conjoin(false_region),
                        not_phi.conjoin(false_region),
                    ]
                )
            )
        else:
            space = ground_truth.space_cnf()
            tp, phi_count, tau_count = (
                r.value
                for r in self.engine.solve_many(
                    [phi.conjoin(true_region), phi, space.conjoin(true_region)]
                )
            )
            space_count = self._space_count(
                ground_truth, lambda: self.engine.solve(space).value
            )
            fn = phi_count - tp
            fp = tau_count - tp
            tn = space_count - tp - fp - fn
        return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)

    def _evaluate_by_formula(
        self, ground_truth: GroundTruth, true_region: CNF, false_region: CNF, m: int
    ) -> ConfusionCounts:
        """Formula-sweep route for backends exposing ``count_formula``."""
        from repro.logic.formula import And, Not, Or, Var, all_of

        def region_formula(cnf: CNF):
            return all_of(
                Or(*(Var(l) if l > 0 else Not(Var(-l)) for l in clause))
                for clause in cnf.clauses
            )

        phi_f = ground_truth.positive().formula
        space_f = ground_truth.space_formula()
        tau_f = region_formula(true_region)
        count = lambda f: self.engine.solve_formula(f, m).value  # noqa: E731
        tp = count(And(phi_f, tau_f))
        if self.mode == "product":
            # ¬φ stays inside the evaluation space (symmetry constraints);
            # the negative problem is compiled exactly that way.
            not_phi_f = ground_truth.negative().formula
            psi_f = region_formula(false_region)
            fp = count(And(not_phi_f, tau_f))
            fn = count(And(phi_f, psi_f))
            tn = count(And(not_phi_f, psi_f))
        else:
            phi_count = count(phi_f)
            tau_count = count(And(space_f, tau_f))
            space_count = self._space_count(ground_truth, lambda: count(space_f))
            fn = phi_count - tp
            fp = tau_count - tp
            tn = space_count - tp - fp - fn
        return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
