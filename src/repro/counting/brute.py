"""Brute-force counting and enumeration, vectorised with numpy.

These routines exhaustively sweep all ``2^k`` assignments of the projected
variables.  They exist for two reasons:

* **differential testing** — every other counter in this package is checked
  against brute force on small instances;
* **whole-space sweeps** — the formula sweep (:mod:`repro.counting.vector`)
  and :mod:`repro.spec.scopes` sweep the full space at small scopes
  (positive datasets do not: they grow one atom at a time,
  :func:`repro.data.enumerate_positive_bits`).

Assignments are materialised in blocks so memory stays bounded even at the
upper end of the supported range (~2^24 assignments).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.logic.cnf import CNF

#: Refuse plain brute force beyond this many projected variables.
MAX_BRUTE_VARS = 26

_BLOCK_BITS = 18  # evaluate 2^18 assignments per numpy block


def _assignment_block(start: int, stop: int, num_vars: int) -> np.ndarray:
    """Rows ``start..stop`` of the truth table as a (stop-start, num_vars) array.

    Row ``i`` encodes integer ``i`` with variable ``j`` (0-based) holding bit
    ``j`` — i.e. variable 1 is the least significant bit.
    """
    indices = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(num_vars, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(bool)


def iter_assignment_blocks(num_vars: int) -> Iterator[np.ndarray]:
    """Yield the full truth table over ``num_vars`` variables in blocks."""
    total = 1 << num_vars
    block = 1 << _BLOCK_BITS
    for start in range(0, total, block):
        stop = min(start + block, total)
        yield _assignment_block(start, stop, num_vars)


def _clause_mask(block: np.ndarray, clause: Sequence[int], var_index: dict[int, int]) -> np.ndarray:
    """Boolean mask of rows satisfying the clause."""
    mask = np.zeros(block.shape[0], dtype=bool)
    for lit in clause:
        column = block[:, var_index[abs(lit)]]
        mask |= column if lit > 0 else ~column
    return mask


def brute_force_count(cnf: CNF) -> int:
    """Exact projected model count by exhaustive sweep.

    Requires the clause variables to be contained in the projection (i.e. no
    auxiliary variables) — brute force over auxiliaries would conflate
    projected and total counts.
    """
    projection = sorted(cnf.projected_vars())
    clause_vars = cnf.variables()
    if not clause_vars <= set(projection):
        raise ValueError(
            "brute force requires clause variables ⊆ projection; "
            f"found auxiliaries {sorted(clause_vars - set(projection))[:5]}"
        )
    k = len(projection)
    if k > MAX_BRUTE_VARS:
        raise ValueError(f"{k} projected variables exceeds brute-force limit {MAX_BRUTE_VARS}")
    var_index = {v: i for i, v in enumerate(projection)}
    count = 0
    for block in iter_assignment_blocks(k):
        mask = np.ones(block.shape[0], dtype=bool)
        for clause in cnf.clauses:
            mask &= _clause_mask(block, clause, var_index)
            if not mask.any():
                break
        count += int(mask.sum())
    return count


def brute_force_models(cnf: CNF) -> np.ndarray:
    """All projected models as a (num_models, k) boolean array.

    Column order follows the sorted projection variables.
    """
    projection = sorted(cnf.projected_vars())
    clause_vars = cnf.variables()
    if not clause_vars <= set(projection):
        raise ValueError("brute force requires clause variables ⊆ projection")
    k = len(projection)
    if k > MAX_BRUTE_VARS:
        raise ValueError(f"{k} projected variables exceeds brute-force limit {MAX_BRUTE_VARS}")
    var_index = {v: i for i, v in enumerate(projection)}
    chunks: list[np.ndarray] = []
    for block in iter_assignment_blocks(k):
        mask = np.ones(block.shape[0], dtype=bool)
        for clause in cnf.clauses:
            mask &= _clause_mask(block, clause, var_index)
            if not mask.any():
                break
        if mask.any():
            chunks.append(block[mask])
    if not chunks:
        return np.zeros((0, k), dtype=bool)
    return np.concatenate(chunks, axis=0)
