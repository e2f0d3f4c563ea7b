"""Tree2CNF: decision-tree path logic → CNF (Section 4 of the paper).

A decision tree over binary features partitions the input space into paths;
the inputs predicted ``1`` are described by the DNF ``∨ ψ(pᵢ)`` over the
true-paths' path conditions.  Naively distributing that DNF into CNF blows
up, and Tseitin would add auxiliary variables that change model counts.

The paper instead uses Håstad's observation: because the paths *partition*
the space, the true-region is the complement of the false-region, so::

    CNF(true region)  =  ¬( ∨ over false paths ψ(q) )  =  ∧ ¬ψ(q)

and each ``¬ψ(q)`` — the negation of a conjunction of literals — is already
a clause.  The result is auxiliary-variable-free and linear in the number of
leaves: exactly one clause per opposite-label path, each clause no longer
than the tree depth.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.logic.cnf import CNF
from repro.logic.formula import And, Formula, Not, Or, Var
from repro.ml.decision_tree import DecisionTreeClassifier, TreePath


def _condition_literal(feature: int, value: bool) -> int:
    """DIMACS literal for "feature == value" (feature k ↔ variable k+1)."""
    return (feature + 1) if value else -(feature + 1)


def label_region_cnf(
    tree_or_paths: DecisionTreeClassifier | Sequence[TreePath],
    label: int,
    num_features: int,
) -> CNF:
    """CNF over the primary variables describing ``{x : tree(x) = label}``.

    One clause per path of the *opposite* label: the negation of that path's
    condition conjunction.  No auxiliary variables are introduced, so the
    result can be conjoined freely with other primary-variable CNFs (the
    ground truth, another tree's region) without renaming — the property
    AccMC and DiffMC both build on.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    paths = _paths_of(tree_or_paths)
    cnf = CNF(num_vars=num_features, projection=range(1, num_features + 1))
    for path in paths:
        if path.label == label:
            continue
        for feature, _ in path.conditions:
            if feature >= num_features:
                raise ValueError(
                    f"path mentions feature {feature} but num_features={num_features}"
                )
        cnf.add_clause(
            [-_condition_literal(f, v) for f, v in path.conditions]
        )
    return cnf


def tree_paths_formula(
    tree_or_paths: DecisionTreeClassifier | Sequence[TreePath],
    label: int,
) -> Formula:
    """The DNF ``∨ ψ(pᵢ)`` over paths with the given label, as a formula.

    Used by tests to check :func:`label_region_cnf` semantically and by the
    documentation examples; the CNF route above is what the metrics use.
    """
    paths = _paths_of(tree_or_paths)
    disjuncts = []
    for path in paths:
        if path.label != label:
            continue
        literals = [
            Var(f + 1) if v else Not(Var(f + 1)) for f, v in path.conditions
        ]
        disjuncts.append(And(*literals))
    return Or(*disjuncts)


def path_count(tree: DecisionTreeClassifier, label: int) -> int:
    """Number of leaves predicting ``label`` (the t / f of Section 4)."""
    return sum(1 for p in tree.decision_paths() if p.label == label)


def _paths_of(
    tree_or_paths: DecisionTreeClassifier | Sequence[TreePath],
) -> Sequence[TreePath]:
    if isinstance(tree_or_paths, DecisionTreeClassifier):
        return tree_or_paths.decision_paths()
    return tree_or_paths
