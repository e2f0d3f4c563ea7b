"""CNF formulas with DIMACS-style integer literals.

A literal is a non-zero int: ``v`` for the positive literal of variable ``v``
and ``-v`` for the negative one.  A clause is a tuple of literals, a CNF is a
list of clauses plus bookkeeping:

* ``num_vars`` — the highest variable id mentioned (or declared);
* ``projection`` — the *primary* variables.  For formulas produced by the
  relational layer these are the ``n²`` adjacency-matrix bits; auxiliary
  Tseitin variables come after them.  Model counters count distinct
  assignments to the projection set.

The class is intentionally a plain data container — solving and counting live
in :mod:`repro.sat` and :mod:`repro.counting`.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator, Mapping, Sequence

Clause = tuple[int, ...]

#: A clause as a pair of bitmasks over a dense variable index: bit ``i`` of
#: ``pos_mask``/``neg_mask`` is set when the positive/negative literal of the
#: ``i``-th packed variable occurs.  The two masks are disjoint (tautologies
#: are normalised away on construction).
MaskClause = tuple[int, int]


class PackedClauses:
    """Dense bitmask view of a clause list.

    The variables occurring in the clauses are renumbered ``0..k-1`` in
    sorted order and each clause becomes a ``(pos_mask, neg_mask)`` pair of
    Python ints.  Assignment, unit detection, subsumption checks, connected
    component splitting and cache keying then all reduce to O(1)-per-word
    integer ops instead of tuple rebuilding — this is the representation the
    exact counter's hot path runs on.
    """

    __slots__ = ("variables", "index", "clauses", "num_vars")

    def __init__(
        self,
        variables: tuple[int, ...],
        index: dict[int, int],
        clauses: list[MaskClause],
    ) -> None:
        self.variables = variables  #: packed bit i  ↔  DIMACS var variables[i]
        self.index = index  #: DIMACS var → packed bit index
        self.clauses = clauses
        self.num_vars = len(variables)

    def var_mask(self) -> int:
        """Union of all clause variable masks."""
        mask = 0
        for pos, neg in self.clauses:
            mask |= pos | neg
        return mask

    def literal_of(self, bit: int, positive: bool) -> int:
        """DIMACS literal for packed bit ``bit`` (a power of two)."""
        var = self.variables[bit.bit_length() - 1]
        return var if positive else -var

    def signature(self) -> frozenset[int]:
        """Order-independent packed signature of the clause set.

        Each clause is folded into the single integer
        ``(pos_mask << num_vars) | neg_mask``; the frozenset of those is a
        canonical key for component caching and count memoisation.
        """
        shift = self.num_vars
        return frozenset((pos << shift) | neg for pos, neg in self.clauses)


def pack_clauses(clauses: Sequence[Clause]) -> PackedClauses:
    """Pack tuple clauses into dense bitmask form (see :class:`PackedClauses`)."""
    occurring = sorted({abs(lit) for clause in clauses for lit in clause})
    index = {v: i for i, v in enumerate(occurring)}
    packed: list[MaskClause] = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            bit = 1 << index[abs(lit)]
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        packed.append((pos, neg))
    return PackedClauses(tuple(occurring), index, packed)


def _normalize_clause(literals: Iterable[int]) -> Clause | None:
    """Sort, dedupe, and detect tautologies.

    Returns ``None`` for tautological clauses (containing ``v`` and ``-v``).
    Raises on the literal ``0`` which DIMACS reserves as a terminator.
    """
    seen: set[int] = set()
    for lit in literals:
        if lit == 0:
            raise ValueError("0 is not a valid literal")
        if -lit in seen:
            return None
        seen.add(lit)
    return tuple(sorted(seen, key=abs))


class CNF:
    """A propositional formula in conjunctive normal form."""

    __slots__ = ("clauses", "num_vars", "projection", "aux_unique", "_signature")

    def __init__(
        self,
        clauses: Iterable[Iterable[int]] = (),
        num_vars: int = 0,
        projection: Iterable[int] | None = None,
        aux_unique: bool = False,
    ) -> None:
        self.clauses: list[Clause] = []
        self._signature: tuple | None = None
        self.num_vars = num_vars
        self.projection: frozenset[int] | None = (
            frozenset(projection) if projection is not None else None
        )
        # True when every assignment of the projection variables extends to
        # at most one model over the auxiliary variables (e.g. biconditional
        # Tseitin output).  Model counters may then count over all variables.
        self.aux_unique = aux_unique
        for clause in clauses:
            self.add_clause(clause)

    # -- construction ----------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause; tautologies are dropped silently."""
        clause = _normalize_clause(literals)
        if clause is None:
            return
        if clause:
            self.num_vars = max(self.num_vars, max(abs(l) for l in clause))
        self.clauses.append(clause)
        self._signature = None

    def new_var(self) -> int:
        """Allocate a fresh variable id."""
        self.num_vars += 1
        self._signature = None  # the ("all", num_vars) projection marker moved
        return self.num_vars

    def copy(self) -> "CNF":
        other = CNF(
            num_vars=self.num_vars,
            projection=self.projection,
            aux_unique=self.aux_unique,
        )
        other.clauses = list(self.clauses)
        return other

    def conjoin(self, other: "CNF") -> "CNF":
        """A new CNF equal to ``self ∧ other`` (variable ids must agree).

        The projection of the result is the union of projections (treating a
        missing projection as "all variables of that operand").
        """
        result = self.copy()
        result.num_vars = max(self.num_vars, other.num_vars)
        result.clauses.extend(other.clauses)
        result.aux_unique = self.counts_without_projection() and other.counts_without_projection()
        if self.projection is None and other.projection is None:
            result.projection = None
        else:
            mine = self.projection if self.projection is not None else self.variables()
            theirs = other.projection if other.projection is not None else other.variables()
            result.projection = frozenset(mine) | frozenset(theirs)
        return result

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def variables(self) -> frozenset[int]:
        """Variables actually occurring in clauses."""
        return frozenset(abs(l) for clause in self.clauses for l in clause)

    def projected_vars(self) -> frozenset[int]:
        """The counting projection: declared projection, else all of 1..num_vars."""
        if self.projection is not None:
            return self.projection
        return frozenset(range(1, self.num_vars + 1))

    def aux_vars(self) -> frozenset[int]:
        """Variables outside the projection (Tseitin/encoding auxiliaries)."""
        return self.variables() - self.projected_vars()

    def counts_without_projection(self) -> bool:
        """True when ``#models == #projected models`` is guaranteed.

        Holds when there are no auxiliary variables at all, or when the
        auxiliaries are flagged as uniquely extending (``aux_unique``).
        """
        return self.aux_unique or not self.aux_vars()

    def packed_view(self) -> PackedClauses:
        """Dense bitmask view of the clauses (see :class:`PackedClauses`)."""
        return pack_clauses(self.clauses)

    def signature(self) -> tuple:
        """Canonical hashable identity of the counting problem.

        Two CNFs with equal signatures have the same projected model count,
        so this is the memoisation key used by
        :class:`repro.counting.engine.CountingEngine`.  The clause body is a
        packed bitmask signature (order- and duplicate-insensitive); the
        projection is included because free projected variables multiply the
        count.

        Memoized on the instance — the engine consults the signature on
        every ``count``/``count_many`` call, typically for the same CNF
        object — and invalidated by the mutating methods (``add_clause``,
        ``new_var``).  Mutating ``clauses``/``num_vars`` *directly* after a
        signature has been taken is not supported.
        """
        if self._signature is not None:
            return self._signature
        packed = self.packed_view()
        projection: tuple | frozenset
        if self.projection is not None:
            projection = self.projection
        else:
            projection = ("all", self.num_vars)
        self._signature = (packed.variables, packed.signature(), projection)
        return self._signature

    def evaluate(self, assignment: Mapping[int, bool] | Sequence[bool]) -> bool:
        """Evaluate under a total assignment.

        ``assignment`` maps variable ids to booleans; a sequence is treated as
        0-indexed by ``var_id - 1``.
        """
        lookup = _assignment_lookup(assignment)
        return all(any(lookup(lit) for lit in clause) for clause in self.clauses)

    def is_horn(self) -> bool:
        """True when every clause has at most one positive literal."""
        return all(sum(1 for l in clause if l > 0) <= 1 for clause in self.clauses)

    def stats(self) -> dict[str, int]:
        """Size statistics as reported in the paper's metadata tables."""
        proj = self.projection or frozenset()
        return {
            "primary_vars": len(proj),
            "total_vars": self.num_vars,
            "clauses": len(self.clauses),
            "literals": sum(len(c) for c in self.clauses),
        }

    # -- DIMACS ----------------------------------------------------------------

    def to_dimacs(self) -> str:
        """Serialize in DIMACS CNF format.

        The projection set is emitted as ``c ind`` comment lines, the
        convention ApproxMC and ProjMC use for projected counting.
        """
        out = io.StringIO()
        if self.projection is not None:
            ordered = sorted(self.projection)
            for start in range(0, len(ordered), 10):
                chunk = " ".join(map(str, ordered[start : start + 10]))
                out.write(f"c ind {chunk} 0\n")
        out.write(f"p cnf {self.num_vars} {len(self.clauses)}\n")
        for clause in self.clauses:
            out.write(" ".join(map(str, clause)) + " 0\n")
        return out.getvalue()

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse DIMACS CNF, honouring ``c ind`` projection comments."""
        clauses: list[list[int]] = []
        projection: set[int] = set()
        declared_vars = 0
        pending: list[int] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("c"):
                parts = line.split()
                if len(parts) >= 2 and parts[1] == "ind":
                    projection.update(
                        int(tok) for tok in parts[2:] if tok != "0"
                    )
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line: {line!r}")
                declared_vars = int(parts[2])
                continue
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    clauses.append(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            clauses.append(pending)
        cnf = cls(clauses, num_vars=declared_vars, projection=projection or None)
        return cnf

    def __repr__(self) -> str:
        proj = len(self.projection) if self.projection is not None else "all"
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)}, proj={proj})"


def _assignment_lookup(assignment: Mapping[int, bool] | Sequence[bool]):
    """Uniform literal-truth lookup over dict- or sequence-style assignments."""
    if isinstance(assignment, Mapping):

        def lookup(lit: int) -> bool:
            value = assignment[abs(lit)]
            return bool(value) if lit > 0 else not value

    else:

        def lookup(lit: int) -> bool:
            value = assignment[abs(lit) - 1]
            return bool(value) if lit > 0 else not value

    return lookup


def unit_propagate(
    clauses: Sequence[Clause], assignment: dict[int, bool]
) -> tuple[list[Clause], dict[int, bool]] | None:
    """Simple (non-watched) unit propagation used by preprocessing and tests.

    Returns the residual clause list and the extended assignment, or ``None``
    on conflict.  The input ``assignment`` is not mutated.
    """
    assign = dict(assignment)
    work = list(clauses)
    changed = True
    while changed:
        changed = False
        residual: list[Clause] = []
        for clause in work:
            satisfied = False
            unassigned: list[int] = []
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return None
            if len(unassigned) == 1:
                lit = unassigned[0]
                assign[abs(lit)] = lit > 0
                changed = True
            else:
                residual.append(tuple(unassigned))
        work = residual
    return work, assign
