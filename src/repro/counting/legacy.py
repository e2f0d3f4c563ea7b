"""The tuple-based exact counter the packed rewrite replaced.

This is the original DPLL-style #SAT procedure of
:mod:`repro.counting.exact` — clauses as tuples of DIMACS literals,
component caching on ``frozenset`` keys — kept as a differential baseline:
the packed counter must produce bit-identical counts on every instance
(:mod:`tests.test_counting_packed` enforces this).  Two defects of the
original are fixed here because they were bugs, not behaviour:

* the redundant ``total = multiplier`` double-assignment in ``_sharp``
  (a dead store) is gone;
* unit propagation batches all units found in a pass into a single clause
  rebuild instead of calling ``_assign`` over the full clause list once per
  unit (quadratic in the number of units).

It is no ``mcml --backend`` choice: it exists as a test oracle and for the
counter-ablation benchmark that records how much the packed rewrite buys.
"""

from __future__ import annotations

from collections import Counter as _Counter
from collections.abc import Iterable, Sequence

from repro.counting.api import Capabilities
from repro.logic.cnf import CNF, Clause


class LegacyExactCounter:
    """Exact (projected) model counter over tuple clauses.

    Same contract as :class:`repro.counting.exact.ExactCounter`; kept only
    as the differential/ablation baseline.
    """

    name = "legacy"
    #: Exact like the packed counter, but its component cache is per-call
    #: scratch: the engine has no cache of it to report or spill.
    capabilities = Capabilities(exact=True)

    def __init__(self, max_nodes: int = 5_000_000) -> None:
        self.max_nodes = max_nodes
        self._nodes = 0
        self._cache: dict[frozenset[Clause], int] = {}

    def count(self, cnf: CNF) -> int:
        """Number of models of ``cnf`` projected onto ``cnf.projected_vars()``."""
        self._nodes = 0
        self._cache = {}
        if any(len(clause) == 0 for clause in cnf.clauses):
            return 0
        projection = cnf.projected_vars()
        if cnf.counts_without_projection():
            clause_vars = cnf.variables()
            free = len(projection - clause_vars)
            clauses = [tuple(c) for c in cnf.clauses]
            return (1 << free) * self._sharp(clauses)
        # The unconditionally correct fallback lives with the packed counter.
        from repro.counting.exact import ExactCounter

        return ExactCounter(max_nodes=self.max_nodes).count(cnf)

    def _sharp(self, clauses: list[Clause]) -> int:
        """#models over exactly the variables occurring in ``clauses``."""
        if not clauses:
            return 1
        key = frozenset(clauses)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise _budget_error(self.max_nodes)

        simplified = _propagate_units(clauses)
        if simplified is None:
            self._cache[key] = 0
            return 0
        residual, eliminated = simplified
        # Variables fixed by propagation contribute a single assignment each;
        # variables that *disappeared* without being fixed are free.
        vanished = _vars_of(clauses) - _vars_of(residual) - eliminated
        total = 1 << len(vanished)
        if residual:
            product = 1
            for component in _components(residual):
                product *= self._count_component(component)
                if product == 0:
                    break
            total *= product
        self._cache[key] = total
        return total

    def _count_component(self, clauses: list[Clause]) -> int:
        key = frozenset(clauses)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        var = _most_frequent_var(clauses)
        total = 0
        for polarity in (var, -var):
            branch = _assign(clauses, polarity)
            if branch is None:
                continue
            residual_vars = _vars_of(clauses) - {var}
            branch_vars = _vars_of(branch)
            free = len(residual_vars - branch_vars)
            total += (1 << free) * self._sharp(branch)
        self._cache[key] = total
        return total


def _budget_error(max_nodes: int):
    from repro.counting.exact import CounterBudgetExceeded

    return CounterBudgetExceeded(f"exceeded {max_nodes} nodes")


# -- clause-level helpers --------------------------------------------------------------


def _vars_of(clauses: Iterable[Clause]) -> set[int]:
    return {abs(l) for clause in clauses for l in clause}


def _assign(clauses: Sequence[Clause], literal: int) -> list[Clause] | None:
    """Residual clauses after asserting ``literal``; None on an empty clause."""
    out: list[Clause] = []
    for clause in clauses:
        if literal in clause:
            continue
        if -literal in clause:
            shrunk = tuple(l for l in clause if l != -literal)
            if not shrunk:
                return None
            out.append(shrunk)
        else:
            out.append(clause)
    return out


def _propagate_units(
    clauses: Sequence[Clause],
) -> tuple[list[Clause], set[int]] | None:
    """Exhaustive unit propagation, batching all units per pass.

    Returns (residual clauses, set of variables fixed by propagation), or
    ``None`` on conflict.
    """
    work = list(clauses)
    fixed: set[int] = set()
    while True:
        units: set[int] = set()
        for clause in work:
            if len(clause) == 1:
                lit = clause[0]
                if -lit in units:
                    return None  # both polarities forced in the same pass
                units.add(lit)
        if not units:
            return work, fixed
        fixed.update(abs(lit) for lit in units)
        rebuilt: list[Clause] = []
        for clause in work:
            if any(lit in units for lit in clause):
                continue  # satisfied by some asserted unit
            shrunk = tuple(lit for lit in clause if -lit not in units)
            if not shrunk:
                return None
            rebuilt.append(shrunk)
        work = rebuilt


def _components(clauses: Sequence[Clause]) -> list[list[Clause]]:
    """Partition clauses into connected components by shared variables."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for clause in clauses:
        variables = [abs(l) for l in clause]
        for v in variables:
            parent.setdefault(v, v)
        for v in variables[1:]:
            union(variables[0], v)

    groups: dict[int, list[Clause]] = {}
    for clause in clauses:
        root = find(abs(clause[0]))
        groups.setdefault(root, []).append(clause)
    return list(groups.values())


def _most_frequent_var(clauses: Sequence[Clause]) -> int:
    counts: _Counter[int] = _Counter()
    for clause in clauses:
        for l in clause:
            counts[abs(l)] += 1
    return counts.most_common(1)[0][0]
