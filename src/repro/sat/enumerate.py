"""Projected AllSAT enumeration.

Alloy's analyzer enumerates *all* solutions of a command by repeatedly
solving and adding a blocking clause for the previous solution.  We do the
same, projected onto a chosen variable set (Alloy blocks on the primary
variables — the relation bits — which is what makes two solutions that differ
only in auxiliary variables count once).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator

from repro.logic.cnf import CNF
from repro.sat.solver import SatResult, Solver


def enumerate_models(
    cnf: CNF,
    projection: Iterable[int] | None = None,
    limit: int | None = None,
) -> Iterator[dict[int, bool]]:
    """Yield every model of ``cnf`` projected onto ``projection``.

    Each yielded dict maps projected variable ids to booleans; each distinct
    projected assignment is produced exactly once.  ``limit`` caps the number
    of models (ApproxMC bounds its cell sizes this way; positive datasets
    grow in numpy instead, :func:`repro.data.enumerate_positive_bits`).
    """
    proj = sorted(cnf.projected_vars() if projection is None else projection)
    yield from _allsat(cnf, proj, limit, ())


def _allsat(
    cnf: CNF, proj: list[int], limit: int | None, blocked: Collection[int]
) -> Iterator[dict[int, bool]]:
    """The AllSAT loop, with the ``blocked`` bitmasks over ``proj`` excluded."""
    solver = Solver(cnf.num_vars)
    for clause in cnf.clauses:
        solver.add_clause(clause)
    for bits in blocked:
        # With an empty projection this is the empty clause: the one
        # projected model is already known, so the search proves UNSAT.
        solver.add_clause([(-v if bits >> i & 1 else v) for i, v in enumerate(proj)])
    produced = 0
    while limit is None or produced < limit:
        result = solver.solve()
        if result is not SatResult.SAT:
            return
        model = solver.model()
        projected = {v: model.get(v, False) for v in proj}
        yield projected
        produced += 1
        # Block this projected assignment.
        blocking = [(-v if projected[v] else v) for v in proj]
        if not blocking:
            return  # empty projection: a single (trivial) projected model
        solver.add_clause(blocking)


def count_models(
    cnf: CNF,
    projection: Iterable[int] | None = None,
    limit: int | None = None,
    known: set[int] | None = None,
) -> int:
    """Number of projected models, by exhaustive enumeration.

    This mirrors how the paper obtains its ``Valid (Alloy)`` column in
    Table 1: brute enumeration with the SAT back-end.  ``limit`` makes the
    call usable as a "are there at least k models?" query: the result is
    ``min(#models, limit)``.

    ``known`` holds projected models the caller guarantees satisfy ``cnf``,
    each an int bitmask over the sorted projection: bit ``i`` is set when
    the ``i``-th smallest projected variable is true.  They count toward
    the result and are blocked before the search starts, so the search
    finds only new models, and each model it finds is added to ``known``
    (the set is mutated).  When ``known`` already reaches ``limit`` no
    solver is built.  Without ``known`` the search is exactly that of
    :func:`enumerate_models`.
    """
    proj = sorted(cnf.projected_vars() if projection is None else projection)
    count = 0 if known is None else len(known)
    if limit is not None and count >= limit:
        return limit
    remaining = None if limit is None else limit - count
    for model in _allsat(cnf, proj, remaining, known or ()):
        count += 1
        if known is not None:
            known.add(sum(1 << i for i, v in enumerate(proj) if model[v]))
    return count
