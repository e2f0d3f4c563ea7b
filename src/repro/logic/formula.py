"""Boolean formula AST.

Formulas are immutable DAGs built from :class:`Var`, :class:`Not`,
:class:`And`, :class:`Or`, :class:`Implies`, :class:`Iff` and the constants
:data:`TRUE` / :data:`FALSE`.  The AST is deliberately small: the relational
layer (:mod:`repro.spec`) grounds quantifiers itself and only ever needs this
propositional core.

Design notes
------------
* Nodes compare structurally, so they can be used as dictionary keys by the
  Tseitin transform's common-subexpression cache.  They are not interned:
  equal nodes may be distinct objects.  Each node computes its hash once, at
  construction, from its children's; ``==`` on connectives returns early on
  identity or on a hash mismatch.  The hash is never persisted (pickles
  rebuild nodes through their constructors, and ``str`` hashes are salted
  per process).
* :data:`TRUE` and :data:`FALSE` are the only constants: ``_Constant(v)``,
  pickling, copying and :meth:`Formula.to_nnf` all return them, so
  constructors fold constants by identity.
* Formulas are DAGs: grounding and :mod:`repro.ml.bnn` reuse subformulas.
  :meth:`Formula.variables` and :func:`dag_size` visit each distinct node
  once, and ``==`` stops at children that are the same object.  ``walk``,
  ``size``, ``evaluate``, ``substitute``, ``to_nnf`` and ``repr`` still
  expand shared subtrees; only tests and
  :func:`repro.logic.tseitin.direct_cnf` use them.
* ``And``/``Or`` are n-ary and flatten nested applications of the same
  connective on construction; obvious constant folding (``x ∧ ⊥ = ⊥`` …) also
  happens on construction, which keeps grounded relational formulas compact.
  Grounding folds most cells against a constant, so a two-operand call with
  a constant operand returns before the flattening loop.
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
        found: set[int] = set()
        seen: set[int] = set()
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, Var):
                found.add(node.id)
            else:
                stack.extend(node.children())
        return frozenset(found)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __hash__(self) -> int:
        return self._hash

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

    def __new__(cls, value: bool) -> "_Constant":
        # TRUE and FALSE (made below) are the only instances, so equality is
        # identity.  Pickles and copies rebuild constants through this call.
        return TRUE if value else FALSE

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return self.value

    def to_nnf(self, *, negate: bool = False) -> Formula:
        return _Constant(self.value ^ negate)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return self

    def __reduce__(self):
        # __slots__ + argument-taking constructors defeat default pickling;
        # nodes reduce to their constructor calls instead (the constructors
        # re-apply the structural simplifications idempotently), which is
        # what lets formulas and RelationalProblems persist to the
        # engine's compilation memo store.
        return (_Constant, (self.value,))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


def _make_constant(value: bool) -> _Constant:
    node = object.__new__(_Constant)
    node.value = value
    node._hash = hash(("const", value))
    return node


TRUE = _make_constant(True)
FALSE = _make_constant(False)


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
        self._hash = hash(("var", var_id))

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return bool(assignment[self.id])

    def to_nnf(self, *, negate: bool = False) -> Formula:
        return Not(self) if negate else self

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return mapping.get(self.id, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.id == other.id

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Var, (self.id,))

    def __repr__(self) -> str:
        return f"x{self.id}"


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula):
        # Constant folding and double-negation elimination.
        if operand is TRUE:
            return FALSE
        if operand is FALSE:
            return TRUE
        if isinstance(operand, Not):
            return operand.operand
        self = object.__new__(cls)
        self.operand = operand
        self._hash = hash(("not", operand))
        return self

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def to_nnf(self, *, negate: bool = False) -> Formula:
        return self.operand.to_nnf(negate=not negate)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Not(self.operand.substitute(mapping))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Not)
            and self._hash == other._hash
            and self.operand == other.operand
        )

    __hash__ = Formula.__hash__

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
        if op is absorbing:
            return absorbing
        if op is identity:
            continue
        if op not in seen:
            seen.add(op)
            flat.append(op)
    return flat


class And(Formula):
    __slots__ = ("operands",)

    def __new__(cls, *operands: Formula):
        if len(operands) == 2:
            a, b = operands
            if a is FALSE or b is FALSE:
                return FALSE
            if a is TRUE:
                return b
            if b is TRUE:
                return a
        flat = _flatten(cls, operands, absorbing=FALSE, identity=TRUE)
        if isinstance(flat, Formula):
            return flat
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        self = object.__new__(cls)
        self.operands = tuple(flat)
        self._hash = hash(("and", self.operands))
        return self

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return all(op.evaluate(assignment) for op in self.operands)

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def to_nnf(self, *, negate: bool = False) -> Formula:
        parts = [op.to_nnf(negate=negate) for op in self.operands]
        return Or(*parts) if negate else And(*parts)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return And(*(op.substitute(mapping) for op in self.operands))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, And)
            and self._hash == other._hash
            and self.operands == other.operands
        )

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (And, tuple(self.operands))

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.operands)) + ")"


class Or(Formula):
    __slots__ = ("operands",)

    def __new__(cls, *operands: Formula):
        if len(operands) == 2:
            a, b = operands
            if a is TRUE or b is TRUE:
                return TRUE
            if a is FALSE:
                return b
            if b is FALSE:
                return a
        flat = _flatten(cls, operands, absorbing=TRUE, identity=FALSE)
        if isinstance(flat, Formula):
            return flat
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        self = object.__new__(cls)
        self.operands = tuple(flat)
        self._hash = hash(("or", self.operands))
        return self

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return any(op.evaluate(assignment) for op in self.operands)

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def to_nnf(self, *, negate: bool = False) -> Formula:
        parts = [op.to_nnf(negate=negate) for op in self.operands]
        return And(*parts) if negate else Or(*parts)

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Or(*(op.substitute(mapping) for op in self.operands))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Or)
            and self._hash == other._hash
            and self.operands == other.operands
        )

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Or, tuple(self.operands))

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.operands)) + ")"


class Implies(Formula):
    __slots__ = ("antecedent", "consequent")

    def __new__(cls, antecedent: Formula, consequent: Formula):
        if antecedent is TRUE:
            return consequent
        if antecedent is FALSE or consequent is TRUE:
            return TRUE
        if consequent is FALSE:
            return Not(antecedent)
        self = object.__new__(cls)
        self.antecedent = antecedent
        self.consequent = consequent
        self._hash = hash(("implies", antecedent, consequent))
        return self

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return (not self.antecedent.evaluate(assignment)) or self.consequent.evaluate(assignment)

    def children(self) -> tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def to_nnf(self, *, negate: bool = False) -> Formula:
        if negate:
            return And(self.antecedent.to_nnf(), self.consequent.to_nnf(negate=True))
        return Or(self.antecedent.to_nnf(negate=True), self.consequent.to_nnf())

    def substitute(self, mapping: Mapping[int, Formula]) -> Formula:
        return Implies(self.antecedent.substitute(mapping), self.consequent.substitute(mapping))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Implies)
            and self._hash == other._hash
            and self.antecedent == other.antecedent
            and self.consequent == other.consequent
        )

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Implies, (self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"({self.antecedent!r} >> {self.consequent!r})"


class Iff(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        if left == right:
            return TRUE
        if left is TRUE:
            return right
        if right is TRUE:
            return left
        if left is FALSE:
            return Not(right)
        if right is FALSE:
            return Not(left)
        self = object.__new__(cls)
        self.left = left
        self.right = right
        self._hash = hash(("iff", left, right))
        return self

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return self.left.evaluate(assignment) == self.right.evaluate(assignment)

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
        return self is other or (
            isinstance(other, Iff)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Formula.__hash__

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
