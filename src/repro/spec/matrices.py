"""Vectorised property evaluation over batches of adjacency matrices.

These are numpy twins of the 16 relational properties: each function takes a
``(batch, n, n)`` boolean array and returns a ``(batch,)`` boolean mask.
They serve three purposes:

* **independent semantics check** — the AST evaluator, the CNF translation
  and these hand-written implementations are tested against each other;
* **bounded-exhaustive generation** — positives grow one atom at a time,
  each scope's candidates screened by a *growth mask* (below), so only
  extensions of the previous scope's survivors are ever evaluated;
* **fast negative sampling** — rejection sampling screens thousands of
  random matrices per call.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

Mask = np.ndarray  # (batch,) bool
Batch = np.ndarray  # (batch, n, n) bool


def _diag(batch: Batch) -> np.ndarray:
    return np.diagonal(batch, axis1=1, axis2=2)


def reflexive(batch: Batch) -> Mask:
    return _diag(batch).all(axis=1)


def irreflexive(batch: Batch) -> Mask:
    return ~_diag(batch).any(axis=1)


def symmetric(batch: Batch) -> Mask:
    return (batch == batch.transpose(0, 2, 1)).all(axis=(1, 2))


def antisymmetric(batch: Batch) -> Mask:
    both = batch & batch.transpose(0, 2, 1)
    n = batch.shape[1]
    off_diagonal = ~np.eye(n, dtype=bool)
    return ~(both & off_diagonal).any(axis=(1, 2))


def connex(batch: Batch) -> Mask:
    either = batch | batch.transpose(0, 2, 1)
    return either.all(axis=(1, 2))


def transitive(batch: Batch) -> Mask:
    # r;r ⊆ r, computed as a boolean matrix product.
    composed = np.matmul(batch.astype(np.uint8), batch.astype(np.uint8)) > 0
    return (~composed | batch).all(axis=(1, 2))


def functional(batch: Batch) -> Mask:
    return (batch.sum(axis=2) <= 1).all(axis=1)


def function(batch: Batch) -> Mask:
    return (batch.sum(axis=2) == 1).all(axis=1)


def injective(batch: Batch) -> Mask:
    # Exactly one pre-image per atom (DESIGN.md §2).
    return (batch.sum(axis=1) == 1).all(axis=1)


def surjective(batch: Batch) -> Mask:
    return function(batch) & (batch.sum(axis=1) >= 1).all(axis=1)


def bijective(batch: Batch) -> Mask:
    return function(batch) & injective(batch)


def equivalence(batch: Batch) -> Mask:
    return reflexive(batch) & symmetric(batch) & transitive(batch)


def partial_order(batch: Batch) -> Mask:
    return antisymmetric(batch) & transitive(batch)


def non_strict_order(batch: Batch) -> Mask:
    return reflexive(batch) & antisymmetric(batch) & transitive(batch)


def strict_order(batch: Batch) -> Mask:
    return irreflexive(batch) & transitive(batch)


def pre_order(batch: Batch) -> Mask:
    return reflexive(batch) & transitive(batch)


def total_order(batch: Batch) -> Mask:
    return non_strict_order(batch) & connex(batch)


PROPERTY_MASKS: dict[str, Callable[[Batch], Mask]] = {
    "antisymmetric": antisymmetric,
    "bijective": bijective,
    "connex": connex,
    "equivalence": equivalence,
    "function": function,
    "functional": functional,
    "injective": injective,
    "irreflexive": irreflexive,
    "nonstrictorder": non_strict_order,
    "partialorder": partial_order,
    "preorder": pre_order,
    "reflexive": reflexive,
    "strictorder": strict_order,
    "surjective": surjective,
    "totalorder": total_order,
    "transitive": transitive,
}


def co_functional(batch: Batch) -> Mask:
    # At most one pre-image per atom.
    return functional(batch.transpose(0, 2, 1))


#: The hereditary superset each non-hereditary property grows under: it
#: contains the property, and deleting the last atom of a relation it
#: accepts leaves one it accepts.  The other twelve grow under their own mask.
GROWTH_MASKS: dict[str, Callable[[Batch], Mask]] = {
    "bijective": lambda batch: functional(batch) & co_functional(batch),
    "function": functional,
    "injective": co_functional,
    "surjective": functional,
}


def property_mask(name: str) -> Callable[[Batch], Mask]:
    """The vectorised evaluator for a property, by (case-insensitive) name."""
    try:
        return PROPERTY_MASKS[name.lower()]
    except KeyError:
        raise KeyError(f"no vectorised evaluator for property {name!r}") from None


def growth_mask(name: str) -> Callable[[Batch], Mask]:
    """The mask a property's positives grow under (``GROWTH_MASKS``)."""
    return GROWTH_MASKS.get(name.lower()) or property_mask(name)


def bits_to_matrices(bits: np.ndarray, n: int) -> Batch:
    """Reshape a (batch, n²) bit block into (batch, n, n) adjacency matrices."""
    if bits.shape[1] != n * n:
        raise ValueError(f"expected {n * n} columns, got {bits.shape[1]}")
    return bits.reshape(-1, n, n).astype(bool)


def matrices_to_bits(matrices: Batch) -> np.ndarray:
    """Flatten (batch, n, n) matrices to (batch, n²) row-major bit rows."""
    batch = matrices.shape[0]
    return matrices.reshape(batch, -1)
