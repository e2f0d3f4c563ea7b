"""Substrate microbenchmarks: SAT solving, counting back-ends, Tree2CNF.

These are the ablation measurements DESIGN.md §6 calls out: the counting
back-ends compared on identical problems, and the Håstad path-negation
translation against the naive distribution alternative it replaces.
"""

import numpy as np
import pytest

from repro.core.tree2cnf import label_region_cnf, tree_paths_formula
from repro.counting import (
    ApproxMCCounter,
    CountingEngine,
    ExactCounter,
    LegacyExactCounter,
)
from repro.logic.tseitin import direct_cnf, tseitin_cnf
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.spec import SymmetryBreaking, get_property, translate


@pytest.fixture(scope="module")
def partial_order_cnf():
    return translate(get_property("PartialOrder"), 4, symmetry=SymmetryBreaking()).cnf


@pytest.fixture(scope="module")
def fitted_tree():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(600, 16)).astype(float)
    y = (X[:, 0].astype(int) & X[:, 5].astype(int)) | (
        X[:, 10].astype(int) ^ X[:, 15].astype(int)
    )
    return DecisionTreeClassifier().fit(X, y)


class TestSolverBench:
    def test_solve_partial_order(self, benchmark, partial_order_cnf):
        from repro.sat import SatResult, solve

        result, _ = benchmark(
            solve, partial_order_cnf.clauses, partial_order_cnf.num_vars
        )
        assert result is SatResult.SAT

    def test_enumerate_equivalence_scope4(self, benchmark):
        from repro.sat import count_models

        problem = translate(get_property("Equivalence"), 4, symmetry=SymmetryBreaking())
        count = benchmark(count_models, problem.cnf)
        assert count == 5


class TestCounterAblation:
    """The same counting problem through every backend (DESIGN.md §6)."""

    def test_exact_counter(self, benchmark, partial_order_cnf):
        count = benchmark(lambda: ExactCounter().count(partial_order_cnf))
        assert count > 0

    def test_legacy_exact_counter(self, benchmark, partial_order_cnf):
        """The seed's tuple-clause algorithm — the packed rewrite's baseline."""
        count = benchmark.pedantic(
            lambda: LegacyExactCounter().count(partial_order_cnf),
            rounds=3,
            iterations=1,
        )
        assert count == ExactCounter().count(partial_order_cnf)

    def test_counting_engine_warm(self, benchmark, partial_order_cnf):
        """A memo hit through the CountingEngine (the AccMC steady state)."""
        engine = CountingEngine()
        cold = engine.solve(partial_order_cnf).value
        warm = benchmark(lambda: engine.solve(partial_order_cnf).value)
        assert warm == cold

    def test_approxmc_counter(self, benchmark, partial_order_cnf):
        exact = ExactCounter().count(partial_order_cnf)
        estimate = benchmark.pedantic(
            lambda: ApproxMCCounter(seed=0).count(partial_order_cnf),
            rounds=1,
            iterations=1,
        )
        assert exact / 1.8 <= estimate <= exact * 1.8


class TestTree2CnfAblation:
    """Håstad path-negation vs alternatives on a real trained tree."""

    def test_hastad_translation(self, benchmark, fitted_tree):
        cnf = benchmark(label_region_cnf, fitted_tree, 1, 16)
        # Linear in the number of opposite-label leaves, no aux variables.
        assert cnf.num_vars == 16

    def test_tseitin_alternative(self, benchmark, fitted_tree):
        """Tseitin of the true-path DNF: linear too, but with aux variables
        (and therefore unusable for direct model counting conjunctions)."""
        dnf = tree_paths_formula(fitted_tree, 1)
        cnf = benchmark(tseitin_cnf, dnf, 16)
        assert cnf.num_vars > 16  # the aux-variable cost Håstad avoids

    def test_distribution_alternative_blows_up(self, fitted_tree):
        """Naive distribution exceeds any reasonable clause budget."""
        dnf = tree_paths_formula(fitted_tree, 1)
        with pytest.raises(ValueError):
            direct_cnf(dnf, max_clauses=20_000)


class TestTrainingBench:
    def test_decision_tree_training(self, benchmark):
        from repro.data import generate_dataset

        dataset = generate_dataset(get_property("PartialOrder"), 4, rng=0)
        X, y = dataset.X.astype(float), dataset.y
        tree = benchmark(lambda: DecisionTreeClassifier().fit(X, y))
        assert tree.score(X, y) >= 0.95
