"""Partial symmetry breaking à la Alloy.

Alloy's analyzer adds *symmetry-breaking predicates* during translation:
lex-leader constraints that keep a solution only if its relation bit-vector
is lexicographically minimal among its images under a (small) set of
generator permutations of the atoms.  The generator set is deliberately
partial — breaking all symmetries would need every permutation — which is
why Alloy's solution counts sit between "all isomorphic copies" and "one
canonical representative per orbit".

We reproduce this with the classic construction:

* generator set: adjacent transpositions ``(i, i+1)`` by default (the
  ``adjacent`` kind), or every non-identity permutation (the ``all`` kind,
  full lex-leader canonicalisation, feasible at tiny scopes);
* per generator π, the constraint ``vec(r) ≤_lex vec(r ∘ π)`` where
  ``vec`` is the row-major flattening and ``(r ∘ π)[i][j] = r[π(i)][π(j)]``.

Validation anchor (DESIGN.md §2): under the ``adjacent`` kind the number of
equivalence relations at scope ``n`` is the Fibonacci number F(n+1) — 5 at
scope 4 (the paper's Figure 2) and 10,946 at scope 20 (Table 1).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.logic.formula import And, Formula, Iff, Not, Or, TRUE, Var

Permutation = tuple[int, ...]  # image of each atom index


def adjacent_transpositions(n: int) -> list[Permutation]:
    """The n-1 generators Alloy-style partial breaking uses here."""
    generators = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        generators.append(tuple(perm))
    return generators


def all_permutations(n: int) -> list[Permutation]:
    """Every non-identity permutation (full lex-leader; n! − 1 generators)."""
    identity = tuple(range(n))
    return [p for p in itertools.permutations(range(n)) if p != identity]


def permuted_positions(perm: Permutation) -> list[int]:
    """Row-major position map: position of (π(i), π(j)) for each (i, j)."""
    n = len(perm)
    return [perm[i] * n + perm[j] for i in range(n) for j in range(n)]


def lex_leq(a: Sequence[Formula], b: Sequence[Formula]) -> Formula:
    """Propositional ``a ≤_lex b`` (index 0 most significant, False < True).

    Built back-to-front with the standard recurrence
    ``leq_k = (¬a_k ∧ b_k) ∨ ((a_k ↔ b_k) ∧ leq_{k+1})``; positions where
    ``a_k`` and ``b_k`` are the same variable fold away for free.
    """
    if len(a) != len(b):
        raise ValueError("lex_leq requires equal-length vectors")
    result: Formula = TRUE
    for x, y in zip(reversed(a), reversed(b)):
        result = Or(And(Not(x), y), And(Iff(x, y), result))
    return result


@dataclass(frozen=True)
class SymmetryBreaking:
    """A symmetry-breaking policy.

    ``kind`` is ``"adjacent"`` (Alloy-style partial breaking, default) or
    ``"all"`` (full lex-leader; only sensible for tiny scopes).
    """

    kind: str = "adjacent"

    def __post_init__(self) -> None:
        if self.kind not in ("adjacent", "all"):
            raise ValueError(f"unknown symmetry-breaking kind {self.kind!r}")

    def generators(self, n: int) -> list[Permutation]:
        if self.kind == "adjacent":
            return adjacent_transpositions(n)
        return all_permutations(n)

    def formula(self, n: int, var_of: Sequence[Formula] | None = None) -> Formula:
        """The conjunction of lex-leader constraints as a propositional formula.

        ``var_of`` supplies the formula for each row-major matrix position;
        defaults to ``Var(position + 1)`` matching the translator's variable
        numbering.
        """
        if var_of is None:
            var_of = [Var(k + 1) for k in range(n * n)]
        if len(var_of) != n * n:
            raise ValueError(f"need {n * n} position formulas, got {len(var_of)}")
        constraints = []
        for perm in self.generators(n):
            positions = permuted_positions(perm)
            permuted = [var_of[p] for p in positions]
            constraints.append(lex_leq(list(var_of), permuted))
        return And(*constraints)

    def mask(self, bits: np.ndarray, n: int) -> np.ndarray:
        """Vectorised filter: which rows of a (batch, n²) bit block are
        lex-minimal under every generator?

        Matches :meth:`formula` exactly (differentially tested); the
        positive enumerator applies it to its last survivors.
        """
        if bits.shape[1] != n * n:
            raise ValueError(f"expected {n * n} columns, got {bits.shape[1]}")
        m = n * n
        a = bits.astype(bool)
        keep = np.ones(bits.shape[0], dtype=bool)
        for perm in self.generators(n):
            positions = permuted_positions(perm)
            if self.kind == "adjacent":
                # A transposition swaps positions in pairs, and a pair's
                # later member is reached only with its partner equal, so
                # it never decides: compare each pair once.
                compared = [k for k in range(m) if positions[k] > k]
            else:
                # Not involutions: every moved position can decide (a fixed
                # one compares a_k with itself).
                compared = [k for k in range(m) if positions[k] != k]
            # Column-wise lexicographic a ≤ a∘π (no integer packing, so any n).
            less = np.zeros(a.shape[0], dtype=bool)
            equal_prefix = np.ones(a.shape[0], dtype=bool)
            for k in compared:
                ak, bk = a[:, k], a[:, positions[k]]
                less |= equal_prefix & ~ak & bk
                equal_prefix &= ak == bk
            keep &= less | equal_prefix
        return keep

    def is_minimal(self, matrix: Sequence[Sequence[bool]]) -> bool:
        """Scalar version of :meth:`mask` for a single adjacency matrix."""
        n = len(matrix)
        flat = np.array([[cell for row in matrix for cell in row]], dtype=bool)
        return bool(self.mask(flat, n)[0])


def iter_orbit(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """All relabelings of an adjacency matrix (one per permutation)."""
    n = matrix.shape[0]
    for perm in itertools.permutations(range(n)):
        index = np.array(perm)
        yield matrix[np.ix_(index, index)]
