"""Vectorised whole-space formula counting.

Evaluates a propositional :class:`~repro.logic.formula.Formula` over *every*
assignment of its input variables using numpy blocks — no CNF conversion, no
search.  For the reduced scopes the default experiments run (16–25 primary
variables) this is an exact counting backend that is immune to the
structure-sensitivity of DPLL-style counters, and it doubles as an
independent oracle for differential tests of the exact counter.

The per-block evaluator memoises on structural formula equality, so shared
subformulas (heavily produced by quantifier grounding) are evaluated once.
"""

from __future__ import annotations

import numpy as np

from repro.counting.api import Capabilities
from repro.counting.brute import MAX_BRUTE_VARS, brute_force_count, iter_assignment_blocks
from repro.logic.cnf import CNF
from repro.logic.formula import (
    And,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    _Constant,
)


def evaluate_formula_block(formula: Formula, block: np.ndarray) -> np.ndarray:
    """Evaluate ``formula`` on every row of a (rows, num_vars) bool block."""
    rows = block.shape[0]
    cache: dict[Formula, np.ndarray] = {}

    def go(node: Formula) -> np.ndarray:
        hit = cache.get(node)
        if hit is not None:
            return hit
        if isinstance(node, _Constant):
            result = np.full(rows, node.value, dtype=bool)
        elif isinstance(node, Var):
            result = block[:, node.id - 1]
        elif isinstance(node, Not):
            result = ~go(node.operand)
        elif isinstance(node, And):
            result = np.ones(rows, dtype=bool)
            for child in node.operands:
                result = result & go(child)
        elif isinstance(node, Or):
            result = np.zeros(rows, dtype=bool)
            for child in node.operands:
                result = result | go(child)
        elif isinstance(node, Implies):
            result = ~go(node.antecedent) | go(node.consequent)
        elif isinstance(node, Iff):
            result = go(node.left) == go(node.right)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown formula node {type(node).__name__}")
        cache[node] = result
        return result

    return go(formula)


def count_formula(formula: Formula, num_vars: int) -> int:
    """Exact number of satisfying assignments over variables 1..num_vars."""
    variables = formula.variables()
    if variables and max(variables) > num_vars:
        raise ValueError(
            f"formula mentions variable {max(variables)} > num_vars={num_vars}"
        )
    if num_vars > MAX_BRUTE_VARS:
        raise ValueError(
            f"{num_vars} variables exceeds the vectorised limit {MAX_BRUTE_VARS}"
        )
    total = 0
    for block in iter_assignment_blocks(num_vars):
        total += int(evaluate_formula_block(formula, block).sum())
    return total


class FormulaBruteCounter:
    """Counting backend over formulas (and aux-free CNFs).

    Satisfies the same ``count(cnf)`` protocol as the other backends for
    CNFs whose clauses stay inside the projection, and adds
    ``count_formula`` for direct whole-space formula counting — the fast
    path :class:`repro.core.accmc.AccMC` uses at reduced scopes.
    """

    name = "brute"
    #: Exact full-space sweep; counts pre-Tseitin formulas directly (the
    #: AccMC fast path) but rejects CNFs with auxiliary variables.
    capabilities = Capabilities(
        exact=True,
        counts_formulas=True,
        supports_projection=False,
        owns_component_cache=False,
    )

    def count(self, cnf: CNF) -> int:
        return brute_force_count(cnf)

    def count_formula(self, formula: Formula, num_vars: int) -> int:
        return count_formula(formula, num_vars)
