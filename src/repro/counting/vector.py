"""Vectorised whole-space formula counting.

Evaluates a propositional :class:`~repro.logic.formula.Formula` over *every*
assignment of its input variables using numpy blocks — no CNF conversion, no
search.  It shares no code with Tseitin or the counters, so it is the
independent oracle of differential tests of the exact counter, and BNN
quantification (:mod:`repro.core.bnnmc`) counts its formulas with it.

The per-block evaluator memoises on structural formula equality, so shared
subformulas (heavily produced by quantifier grounding) are evaluated once.
"""

from __future__ import annotations

import numpy as np

from repro.counting.brute import MAX_BRUTE_VARS, iter_assignment_blocks
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

    try:
        return go(formula)
    finally:
        # ``go`` refers to itself through its closure, a reference cycle
        # that holds ``cache``: emptied here, the per-node arrays are freed
        # on return instead of at the cyclic collector's next pass.
        cache.clear()


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

