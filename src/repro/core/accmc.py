"""AccMC: whole-input-space performance of a decision tree (Equations 1–4).

Given the ground truth φ (a relational property grounded at scope ``n``,
optionally symmetry-constrained) and a trained tree ``d`` with true-region
``τ`` and false-region ``ψ``::

    tp = mc(φ ∧ τ)      fp = mc(¬φ ∧ τ)
    fn = mc(φ ∧ ψ)      tn = mc(¬φ ∧ ψ)

over all 2^{n²} inputs.  Accuracy/precision/recall/F1 derive from the counts
(:class:`repro.ml.metrics.ConfusionCounts` handles the astronomically large
integers involved).

The backend's declared exactness (``capabilities.exact``) picks the
construction:

* an exact backend counts ``φ∧τ``, ``φ``, ``space∧τ`` and the evaluation
  space only, and :func:`derived_counts` derives the rest from the
  partition identities ``fn = mc(φ) − tp``, ``fp = mc(space∧τ) − tp``,
  ``tn = mc(space) − tp − fp − fn``.  φ and the space repeat across trees,
  so each further tree costs two counts instead of the paper's four, and
  the counts are the same (enforced by tests);
* an approximate backend counts the paper's four products, with ``¬φ``
  obtained by negating the grounded formula before Tseitin.  Differences
  of independent estimates can go negative, so this is the only
  construction that works there.

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
    #: ``translate``, reached through a weak reference, when the ground
    #: truth is built through one, the plain
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
        """¬φ, which only the product construction compiles."""
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


def derived_counts(tp: int, phi: int, tau: int, space: int) -> ConfusionCounts:
    """Confusion counts from ``mc(φ∧τ)``, ``mc(φ)``, ``mc(space∧τ)`` and
    ``mc(space)`` by the partition identities.

    The subtractions hold for exact counts only: for independent
    estimates they can go negative.
    """
    fn = phi - tp
    fp = tau - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=space - tp - fp - fn, fn=fn)


class AccMC:
    """Quantify a decision tree against a ground truth, via model counting.

    ``engine`` is the :class:`~repro.counting.engine.CountingEngine` every
    count goes through (default: a fresh one over the exact counter, the
    ProjMC stand-in); wrap a backend built with
    :func:`repro.counting.api.make_counter` in one.  The backend's declared
    exactness picks the construction: an exact backend derives from four
    counts, and an approximate one counts the paper's four products.
    """

    def __init__(self, engine: CountingEngine | None = None) -> None:
        # All counting goes through a shared memoizing engine: repeated
        # regions, translations and counts (across evaluate() calls, rows
        # of a table, or tables sharing a pipeline) are computed once.
        self.engine = engine if engine is not None else CountingEngine()

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
        running unbounded.
        """
        started = time.perf_counter()
        m = ground_truth.num_primary
        if tree.n_features != m:
            raise ValueError(
                f"tree has {tree.n_features} features but scope "
                f"{ground_truth.scope} needs {m}"
            )
        paths = tree.decision_paths()
        true_region = self.engine.region(paths, 1, m)
        if self.engine.capabilities.exact:
            counts = self._derive_by_cnf(ground_truth, true_region)
        else:
            counts = self._count_products(
                ground_truth, true_region, self.engine.region(paths, 0, m)
            )
        return AccMCResult(
            property_name=ground_truth.prop.name,
            scope=ground_truth.scope,
            counts=counts,
            counter=self.engine.backend_name,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- backend-specific constructions --------------------------------------------

    def _derive_by_cnf(
        self, ground_truth: GroundTruth, true_region: CNF
    ) -> ConfusionCounts:
        """The four counts :func:`derived_counts` needs, in one batch.

        Counting goes through the typed ``solve_many`` path, so every
        count carries backend/cache provenance on the way in; the engine's
        memo answers φ and the space for every tree after the first.
        """
        phi = ground_truth.positive().cnf
        space = ground_truth.space_cnf()
        problems = [phi.conjoin(true_region), phi, space.conjoin(true_region), space]
        return derived_counts(*(r.value for r in self.engine.solve_many(problems)))

    def _count_products(
        self, ground_truth: GroundTruth, true_region: CNF, false_region: CNF
    ) -> ConfusionCounts:
        """The paper's four products, for backends whose counts are estimates."""
        phi = ground_truth.positive().cnf
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
        return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
