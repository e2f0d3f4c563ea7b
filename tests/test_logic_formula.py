"""Unit tests for the propositional formula AST."""

import copy
import pickle
import sys
from operator import methodcaller

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    And,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    Var,
    all_of,
    any_of,
    at_most_one,
    exactly_one,
)
from repro.logic.formula import (
    Formula,
    _Constant,
    dag_size,
    iter_assignments,
    models,
    semantically_equal,
)
from repro.logic.tseitin import tseitin_cnf


def test_var_requires_positive_id():
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        Var(-3)


def test_constant_folding_not():
    assert Not(TRUE) == FALSE
    assert Not(FALSE) == TRUE
    x = Var(1)
    assert Not(Not(x)) == x


def test_and_flattening_and_identity():
    x, y, z = Var(1), Var(2), Var(3)
    assert And(x, And(y, z)) == And(x, y, z)
    assert And(x, TRUE) == x
    assert And(x, FALSE) == FALSE
    assert And() == TRUE
    assert And(x, x) == x


def test_or_flattening_and_identity():
    x, y, z = Var(1), Var(2), Var(3)
    assert Or(x, Or(y, z)) == Or(x, y, z)
    assert Or(x, FALSE) == x
    assert Or(x, TRUE) == TRUE
    assert Or() == FALSE
    assert Or(x, x) == x


def test_implies_folding():
    x = Var(1)
    assert Implies(TRUE, x) == x
    assert Implies(FALSE, x) == TRUE
    assert Implies(x, TRUE) == TRUE
    assert Implies(x, FALSE) == Not(x)


def test_iff_folding():
    x, y = Var(1), Var(2)
    assert Iff(x, x) == TRUE
    assert Iff(TRUE, x) == x
    assert Iff(x, FALSE) == Not(x)
    assert Iff(x, y) == Iff(x, y)


def test_operator_overloads():
    x, y = Var(1), Var(2)
    assert (x & y) == And(x, y)
    assert (x | y) == Or(x, y)
    assert (~x) == Not(x)
    assert (x >> y) == Implies(x, y)
    assert x.iff(y) == Iff(x, y)


def test_evaluate_basic():
    x, y = Var(1), Var(2)
    f = (x & ~y) | (~x & y)  # xor
    assert f.evaluate({1: True, 2: False})
    assert f.evaluate({1: False, 2: True})
    assert not f.evaluate({1: True, 2: True})
    assert not f.evaluate({1: False, 2: False})


def test_variables():
    x, y, z = Var(1), Var(2), Var(7)
    f = Implies(And(x, y), Or(z, Not(x)))
    assert f.variables() == {1, 2, 7}


def test_substitute():
    x, y, z = Var(1), Var(2), Var(3)
    f = x & y
    g = f.substitute({1: z})
    assert g == (z & y)


def test_models_enumeration():
    x, y = Var(1), Var(2)
    assert len(models(x & y)) == 1
    assert len(models(x | y)) == 3
    assert len(models(Iff(x, y))) == 2


def test_exactly_one():
    vs = [Var(i) for i in range(1, 5)]
    f = exactly_one(vs)
    sols = models(f, range(1, 5))
    assert len(sols) == 4
    for sol in sols:
        assert sum(sol.values()) == 1


def test_at_most_one():
    vs = [Var(i) for i in range(1, 4)]
    f = at_most_one(vs)
    sols = models(f, range(1, 4))
    assert len(sols) == 4  # none, or exactly one of three


def test_all_of_any_of_empty():
    assert all_of([]) == TRUE
    assert any_of([]) == FALSE


# -- property-based tests -----------------------------------------------------

_MAX_VARS = 4


def formula_strategy(max_depth: int = 4) -> st.SearchStrategy[Formula]:
    base = st.one_of(
        st.integers(min_value=1, max_value=_MAX_VARS).map(Var),
        st.just(TRUE),
        st.just(FALSE),
    )

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(formula_strategy())
def test_nnf_preserves_semantics(f: Formula):
    nnf = f.to_nnf()
    for assignment in iter_assignments(range(1, _MAX_VARS + 1)):
        assert f.evaluate(assignment) == nnf.evaluate(assignment)


@given(formula_strategy())
def test_nnf_negate_is_negation(f: Formula):
    neg = f.to_nnf(negate=True)
    for assignment in iter_assignments(range(1, _MAX_VARS + 1)):
        assert f.evaluate(assignment) == (not neg.evaluate(assignment))


@given(formula_strategy())
def test_nnf_has_no_compound_negation(f: Formula):
    for node in f.to_nnf().walk():
        if isinstance(node, Not):
            assert isinstance(node.operand, Var)
        assert not isinstance(node, (Implies, Iff))


@given(formula_strategy(), formula_strategy())
def test_de_morgan(f: Formula, g: Formula):
    assert semantically_equal(Not(And(f, g)), Or(Not(f), Not(g)))
    assert semantically_equal(Not(Or(f, g)), And(Not(f), Not(g)))


# -- DAG operations against recursive tree-walking references -----------------
#
# Nodes carry a hash computed at construction, constants are singletons that
# constructors fold by identity, two-operand And/Or skip the flattening loop
# when an operand is a constant, and variables() visits each distinct node
# once.  The reference functions below recompute hash, equality, variables
# and And/Or construction over the tree expansion without any of that; on
# every formula the two must agree.


class _Hashed:
    """Stands in for a child in a tuple hash with its reference hash value."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _ref_hash(f: Formula) -> int:
    """Structural hash, recomputed over the whole tree expansion."""
    if isinstance(f, _Constant):
        return hash(("const", f.value))
    if isinstance(f, Var):
        return hash(("var", f.id))
    if isinstance(f, Not):
        return hash(("not", _Hashed(_ref_hash(f.operand))))
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return hash((tag, tuple(_Hashed(_ref_hash(op)) for op in f.operands)))
    tag = "implies" if isinstance(f, Implies) else "iff"
    return hash((tag,) + tuple(_Hashed(_ref_hash(c)) for c in f.children()))


def _ref_eq(f: Formula, g: Formula) -> bool:
    """Structural equality over the tree expansion."""
    if type(f) is not type(g):
        return False
    if isinstance(f, _Constant):
        return f.value == g.value
    if isinstance(f, Var):
        return f.id == g.id
    return len(f.children()) == len(g.children()) and all(
        _ref_eq(a, b) for a, b in zip(f.children(), g.children())
    )


def _ref_variables(f: Formula) -> frozenset[int]:
    if isinstance(f, Var):
        return frozenset((f.id,))
    return frozenset().union(*(_ref_variables(c) for c in f.children()))


def _ref_junction(cls: type, operands: tuple, absorbing: Formula, identity: Formula) -> Formula:
    """And/Or construction with every call through the flattening loop."""
    seen: list[Formula] = []
    stack = list(reversed(operands))
    while stack:
        op = stack.pop()
        if isinstance(op, cls):
            stack.extend(reversed(op.operands))
            continue
        if _ref_eq(op, absorbing):
            return absorbing
        if _ref_eq(op, identity):
            continue
        if not any(_ref_eq(op, other) for other in seen):
            seen.append(op)
    if not seen:
        return identity
    if len(seen) == 1:
        return seen[0]
    node = cls(*seen)
    assert type(node) is cls and node.operands == tuple(seen)
    return node


def _ref_and(*operands: Formula) -> Formula:
    return _ref_junction(And, operands, FALSE, TRUE)


def _ref_or(*operands: Formula) -> Formula:
    return _ref_junction(Or, operands, TRUE, FALSE)


_ARITY = {"not": 1, "and": 2, "or": 2, "and3": 3, "or3": 3, "implies": 2, "iff": 2}


@st.composite
def dag_recipe(draw) -> list[tuple]:
    """Steps building a formula DAG: each connective step reuses earlier steps."""
    leaf = st.one_of(
        st.tuples(st.just("var"), st.integers(min_value=1, max_value=_MAX_VARS)),
        st.tuples(st.just("const"), st.booleans()),
    )
    steps = draw(st.lists(leaf, min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(sorted(_ARITY)))
        index = st.integers(min_value=0, max_value=len(steps) - 1)
        steps.append((kind, tuple(draw(index) for _ in range(_ARITY[kind]))))
    return steps


def build(recipe: list[tuple], and_=And, or_=Or) -> list[Formula]:
    """Every step's formula; a step's operands are the earlier steps' objects."""
    connectives = {
        "not": Not, "and": and_, "and3": and_, "or": or_, "or3": or_,
        "implies": Implies, "iff": Iff,
    }
    nodes: list[Formula] = []
    for kind, arg in recipe:
        if kind == "var":
            nodes.append(Var(arg))
        elif kind == "const":
            nodes.append(TRUE if arg else FALSE)
        else:
            nodes.append(connectives[kind](*(nodes[i] for i in arg)))
    return nodes


@given(dag_recipe())
@settings(max_examples=200, deadline=None)
def test_construction_matches_reference(recipe):
    for new, ref in zip(build(recipe), build(recipe, _ref_and, _ref_or)):
        assert repr(new) == repr(ref)
        assert new == ref and _ref_eq(new, ref)
        assert hash(new) == hash(ref) == _ref_hash(new)
        assert new.variables() == _ref_variables(new)


@given(dag_recipe())
@settings(max_examples=100, deadline=None)
def test_equality_matches_reference(recipe):
    nodes = build(recipe)
    for f in nodes:
        for g in nodes:
            assert (f == g) is _ref_eq(f, g)
            assert (f != g) is not _ref_eq(f, g)


@given(dag_recipe())
@settings(max_examples=100, deadline=None)
def test_pickle_and_copy_rebuild_equal_nodes(recipe):
    f = build(recipe)[-1]
    for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert clone == f and hash(clone) == hash(f)
        assert repr(clone) == repr(f)


@pytest.mark.parametrize("const", [TRUE, FALSE], ids=repr)
def test_constants_are_singletons(const):
    other = FALSE if const is TRUE else TRUE
    assert _Constant(const.value) is const
    assert pickle.loads(pickle.dumps(const)) is const
    assert copy.copy(const) is const
    assert copy.deepcopy(const) is const
    assert const.to_nnf() is const
    assert const.to_nnf(negate=True) is other
    assert Not(const) is other


#: ``pickle.dumps((TRUE, FALSE, Or(And(Var(1), Not(Var(2))), Var(3))))`` as
#: written when every ``_Constant(v)`` call made a new object.  Compilation
#: memos in existing cache directories hold formulas in this form.
_OLD_PICKLE = (
    b"\x80\x04\x95|\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.logic.formula\x94"
    b"\x8c\t_Constant\x94\x93\x94\x88\x85\x94R\x94h\x02\x89\x85\x94R\x94h\x00\x8c"
    b"\x02Or\x94\x93\x94h\x00\x8c\x03And\x94\x93\x94h\x00\x8c\x03Var\x94\x93\x94K"
    b"\x01\x85\x94R\x94h\x00\x8c\x03Not\x94\x93\x94h\x0cK\x02\x85\x94R\x94\x85\x94R"
    b"\x94\x86\x94R\x94h\x0cK\x03\x85\x94R\x94\x86\x94R\x94\x87\x94."
)


def test_old_pickles_load_to_the_singletons():
    true, false, f = pickle.loads(_OLD_PICKLE)
    assert true is TRUE and false is FALSE
    assert f == Or(And(Var(1), Not(Var(2))), Var(3))
    assert And(f, true) is f and Or(f, false) is f


def _ladder(depth: int) -> Formula:
    """A DAG whose every level uses the level below twice.

    Its tree expansion has about 2**depth nodes, its DAG about 5 * depth.
    """
    g: Formula = Var(1)
    for k in range(2, depth + 2):
        g = Or(And(g, Var(k)), And(Not(g), Var(k + 1)))
    return g


def _python_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


#: A tree walk of the depth-20 ladder makes over 2**20 calls.  The guards
#: deepen it step by step, so such a walk fails at depth 10 in well under a
#: second instead of running for minutes.
_LADDER_DEPTHS = (5, 10, 15, 20)


def test_building_a_shared_dag_is_linear():
    for depth in _LADDER_DEPTHS:
        calls = _python_calls(lambda: _ladder(depth))
        bound = 40 * dag_size(_ladder(depth))
        assert calls <= bound, depth


@pytest.mark.parametrize(
    "operation",
    [hash, methodcaller("variables"), tseitin_cnf],
    ids=["hash", "variables", "tseitin_cnf"],
)
def test_shared_dag_is_walked_once_per_distinct_node(operation):
    for depth in _LADDER_DEPTHS:
        root = _ladder(depth)
        calls = _python_calls(lambda: operation(root))
        bound = 40 * dag_size(root)
        assert calls <= bound, depth
