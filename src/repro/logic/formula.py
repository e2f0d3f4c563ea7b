"""Boolean formula AST.

Formulas are immutable trees built from :class:`Var`, :class:`Not`,
:class:`And`, :class:`Or`, :class:`Implies`, :class:`Iff` and the constants
:data:`TRUE` / :data:`FALSE`.  The AST is deliberately small: the relational
layer (:mod:`repro.spec`) grounds quantifiers itself and only ever needs this
propositional core.

Design notes
------------
* Nodes are hash-consed *structurally* via ``__eq__``/``__hash__`` so they can
  be used as dictionary keys by the Tseitin transform's common-subexpression
  cache.
* ``And``/``Or`` are n-ary and flatten nested applications of the same
  connective on construction; obvious constant folding (``x ∧ ⊥ = ⊥`` …) also
  happens on construction, which keeps grounded relational formulas compact.
* Operator overloading (``&``, ``|``, ``~``, ``>>`` for implication) is
  provided because grounded formulas are built in tight loops and the infix
  form keeps that code readable.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping


class Formula:
    """Base class for all propositional formula nodes."""

    __slots__ = ("_hash",)

    # -- construction helpers -------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Formula":
        return Iff(self, other)

    # -- queries ---------------------------------------------------------------

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under a total assignment mapping variable ids to bools."""
        raise NotImplementedError

    def variables(self) -> frozenset[int]:
        """The set of variable ids occurring in the formula."""
        raise NotImplementedError

    def children(self) -> tuple["Formula", ...]:
        return ()

    # -- transformations -------------------------------------------------------

    def to_nnf(self, *, negate: bool = False) -> "Formula":
        """Negation normal form (negations pushed down to variables)."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[int, "Formula"]) -> "Formula":
        """Replace variables by formulas."""
        raise NotImplementedError

    def walk(self) -> Iterator["Formula"]:
        """Pre-order traversal over all sub-formulas (including self)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def size(self) -> int:
        """Number of AST nodes."""
        return sum(1 for _ in self.walk())


class _Constant(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return self.value

    def variables(self) -> frozenset[int]:
        return frozenset()

    def to_nnf(self, *, negate: bool = False) -> Formula:
        return _Constant(self.value ^ negate)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Constant) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __reduce__(self):
        # __slots__ + argument-taking constructors defeat default pickling;
        # nodes reduce to their constructor calls instead (the constructors
        # re-apply the structural simplifications idempotently), which is
        # what lets formulas and RelationalProblems persist to the
        # engine's compilation memo store.
        return (_Constant, (self.value,))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = _Constant(True)
FALSE = _Constant(False)


class Var(Formula):
    """A propositional variable identified by a positive integer id.

    Integer ids double as DIMACS variable numbers, which makes the trip
    from the relational layer through Tseitin to the SAT/counting layer a
    no-op renaming.
    """

    __slots__ = ("id",)

    def __init__(self, var_id: int) -> None:
        if var_id <= 0:
            raise ValueError(f"variable ids must be positive, got {var_id}")
        self.id = var_id

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return bool(assignment[self.id])

    def variables(self) -> frozenset[int]:
        return frozenset((self.id,))

    def to_nnf(self, *, negate: bool = False) -> Formula:
        return Not(self) if negate else self

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return mapping.get(self.id, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.id == other.id

    def __hash__(self) -> int:
        return hash(("var", self.id))

    def __reduce__(self):
        return (Var, (self.id,))

    def __repr__(self) -> str:
        return f"x{self.id}"


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula):
        # Constant folding and double-negation elimination.
        if operand is TRUE or operand == TRUE:
            return FALSE
        if operand is FALSE or operand == FALSE:
            return TRUE
        if isinstance(operand, Not):
            return operand.operand
        self = object.__new__(cls)
        self.operand = operand
        return self

    def __init__(self, operand: Formula) -> None:  # noqa: D107 - set in __new__
        pass

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def variables(self) -> frozenset[int]:
        return self.operand.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def to_nnf(self, *, negate: bool = False) -> Formula:
        return self.operand.to_nnf(negate=not negate)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Not(self.operand.substitute(mapping))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return hash(("not", self.operand))

    def __reduce__(self):
        return (Not, (self.operand,))

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


def _flatten(
    cls: type, operands: Iterable[Formula], absorbing: Formula, identity: Formula
) -> list[Formula] | Formula:
    """Flatten nested n-ary connectives and fold constants.

    Returns the absorbing constant if present, otherwise a de-duplicated
    operand list (order preserved).
    """
    seen: set[Formula] = set()
    flat: list[Formula] = []
    stack = list(reversed(list(operands)))
    while stack:
        op = stack.pop()
        if isinstance(op, cls):
            stack.extend(reversed(op.operands))
            continue
        if op == absorbing:
            return absorbing
        if op == identity:
            continue
        if op not in seen:
            seen.add(op)
            flat.append(op)
    return flat


class And(Formula):
    __slots__ = ("operands",)

    def __new__(cls, *operands: Formula):
        flat = _flatten(cls, operands, absorbing=FALSE, identity=TRUE)
        if isinstance(flat, Formula):
            return flat
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        self = object.__new__(cls)
        self.operands = tuple(flat)
        return self

    def __init__(self, *operands: Formula) -> None:
        pass

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return all(op.evaluate(assignment) for op in self.operands)

    def variables(self) -> frozenset[int]:
        return frozenset(itertools.chain.from_iterable(op.variables() for op in self.operands))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def to_nnf(self, *, negate: bool = False) -> Formula:
        parts = [op.to_nnf(negate=negate) for op in self.operands]
        return Or(*parts) if negate else And(*parts)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return And(*(op.substitute(mapping) for op in self.operands))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("and", self.operands))

    def __reduce__(self):
        return (And, tuple(self.operands))

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.operands)) + ")"


class Or(Formula):
    __slots__ = ("operands",)

    def __new__(cls, *operands: Formula):
        flat = _flatten(cls, operands, absorbing=TRUE, identity=FALSE)
        if isinstance(flat, Formula):
            return flat
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        self = object.__new__(cls)
        self.operands = tuple(flat)
        return self

    def __init__(self, *operands: Formula) -> None:
        pass

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return any(op.evaluate(assignment) for op in self.operands)

    def variables(self) -> frozenset[int]:
        return frozenset(itertools.chain.from_iterable(op.variables() for op in self.operands))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def to_nnf(self, *, negate: bool = False) -> Formula:
        parts = [op.to_nnf(negate=negate) for op in self.operands]
        return And(*parts) if negate else Or(*parts)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Or(*(op.substitute(mapping) for op in self.operands))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("or", self.operands))

    def __reduce__(self):
        return (Or, tuple(self.operands))

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.operands)) + ")"


class Implies(Formula):
    __slots__ = ("antecedent", "consequent")

    def __new__(cls, antecedent: Formula, consequent: Formula):
        if antecedent == TRUE:
            return consequent
        if antecedent == FALSE or consequent == TRUE:
            return TRUE
        if consequent == FALSE:
            return Not(antecedent)
        self = object.__new__(cls)
        self.antecedent = antecedent
        self.consequent = consequent
        return self

    def __init__(self, antecedent: Formula, consequent: Formula) -> None:
        pass

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return (not self.antecedent.evaluate(assignment)) or self.consequent.evaluate(assignment)

    def variables(self) -> frozenset[int]:
        return self.antecedent.variables() | self.consequent.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def to_nnf(self, *, negate: bool = False) -> Formula:
        if negate:
            return And(self.antecedent.to_nnf(), self.consequent.to_nnf(negate=True))
        return Or(self.antecedent.to_nnf(negate=True), self.consequent.to_nnf())

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Implies(self.antecedent.substitute(mapping), self.consequent.substitute(mapping))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Implies)
            and self.antecedent == other.antecedent
            and self.consequent == other.consequent
        )

    def __hash__(self) -> int:
        return hash(("implies", self.antecedent, self.consequent))

    def __reduce__(self):
        return (Implies, (self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"({self.antecedent!r} >> {self.consequent!r})"


class Iff(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        if left == right:
            return TRUE
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        if left == FALSE:
            return Not(right)
        if right == FALSE:
            return Not(left)
        self = object.__new__(cls)
        self.left = left
        self.right = right
        return self

    def __init__(self, left: Formula, right: Formula) -> None:
        pass

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return self.left.evaluate(assignment) == self.right.evaluate(assignment)

    def variables(self) -> frozenset[int]:
        return self.left.variables() | self.right.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def to_nnf(self, *, negate: bool = False) -> Formula:
        l, r = self.left, self.right
        if negate:
            # ¬(l ↔ r) = (l ∧ ¬r) ∨ (¬l ∧ r)
            return Or(
                And(l.to_nnf(), r.to_nnf(negate=True)),
                And(l.to_nnf(negate=True), r.to_nnf()),
            )
        return And(
            Or(l.to_nnf(negate=True), r.to_nnf()),
            Or(l.to_nnf(), r.to_nnf(negate=True)),
        )

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Iff(self.left.substitute(mapping), self.right.substitute(mapping))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Iff) and self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash(("iff", self.left, self.right))

    def __reduce__(self):
        return (Iff, (self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} <-> {self.right!r})"


# ---------------------------------------------------------------------------
# Convenience constructors used heavily by the relational grounder.
# ---------------------------------------------------------------------------


def all_of(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of an iterable (TRUE when empty)."""
    return And(*formulas)


def any_of(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of an iterable (FALSE when empty)."""
    return Or(*formulas)


def at_least_one(formulas: Iterable[Formula]) -> Formula:
    return Or(*formulas)


def at_most_one(formulas: Iterable[Formula]) -> Formula:
    """Pairwise at-most-one constraint (quadratic; fine for row/column widths)."""
    items = list(formulas)
    return And(*(Not(And(a, b)) for a, b in itertools.combinations(items, 2)))


def exactly_one(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    return And(at_least_one(items), at_most_one(items))


def iter_assignments(variables: Iterable[int]) -> Iterator[dict[int, bool]]:
    """All total assignments over ``variables`` (for exhaustive small checks)."""
    ordered = sorted(set(variables))
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def models(formula: Formula, variables: Iterable[int] | None = None) -> list[dict[int, bool]]:
    """Enumerate models by brute force.  Only for tests / tiny formulas."""
    if variables is None:
        variables = formula.variables()
    return [a for a in iter_assignments(variables) if formula.evaluate(a)]


def semantically_equal(
    f: Formula, g: Formula, variables: Iterable[int] | None = None
) -> bool:
    """Truth-table equivalence over the union of both variable sets."""
    if variables is None:
        variables = f.variables() | g.variables()
    return all(f.evaluate(a) == g.evaluate(a) for a in iter_assignments(variables))


def dag_size(formula: Formula) -> int:
    """Number of *distinct* subformulas (DAG nodes under structural sharing).

    ``Formula.size()`` counts the tree expansion, which explodes on shared
    DAGs like the threshold-gate DP of :mod:`repro.ml.bnn`; this walks each
    distinct node once.
    """
    visited: set[Formula] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        stack.extend(node.children())
    return len(visited)


def fold(formula: Formula, fn: Callable[[Formula, tuple], object]) -> object:
    """Bottom-up fold with memoisation over shared subtrees."""
    cache: dict[Formula, object] = {}

    def go(node: Formula) -> object:
        hit = cache.get(node)
        if hit is not None:
            return hit
        result = fn(node, tuple(go(c) for c in node.children()))
        cache[node] = result
        return result

    return go(formula)
