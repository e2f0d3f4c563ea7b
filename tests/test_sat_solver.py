"""Unit and property tests for the CDCL solver and AllSAT enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import CNF, Var, tseitin_cnf
from repro.sat import SatResult, Solver, count_models, enumerate_models, solve
from repro.sat.solver import _luby


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestBasicSolving:
    def test_empty_instance_is_sat(self):
        result, model = solve([], num_vars=0)
        assert result is SatResult.SAT

    def test_single_unit(self):
        result, model = solve([[1]])
        assert result is SatResult.SAT
        assert model[1] is True

    def test_contradiction(self):
        result, model = solve([[1], [-1]])
        assert result is SatResult.UNSAT
        assert model is None

    def test_simple_implication_chain(self):
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
        result, model = solve(clauses)
        assert result is SatResult.SAT
        assert all(model[v] for v in (1, 2, 3, 4))

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: var p_{i,h} = 2*i + h + 1.
        clauses = []
        for i in range(3):
            clauses.append([2 * i + 1, 2 * i + 2])
        for h in range(2):
            for i, j in itertools.combinations(range(3), 2):
                clauses.append([-(2 * i + h + 1), -(2 * j + h + 1)])
        result, _ = solve(clauses)
        assert result is SatResult.UNSAT

    def test_php_5_into_4_unsat(self):
        pigeons, holes = 5, 4
        var = lambda i, h: i * holes + h + 1
        clauses = [[var(i, h) for h in range(holes)] for i in range(pigeons)]
        for h in range(holes):
            for i, j in itertools.combinations(range(pigeons), 2):
                clauses.append([-var(i, h), -var(j, h)])
        result, _ = solve(clauses)
        assert result is SatResult.UNSAT

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        result, model = solve(clauses)
        assert result is SatResult.SAT
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver(2)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) is SatResult.SAT
        assert solver.model()[2] is True

    def test_conflicting_assumptions(self):
        solver = Solver(1)
        assert solver.solve(assumptions=[1, -1]) is SatResult.UNSAT

    def test_assumption_unsat_does_not_poison_instance(self):
        solver = Solver(2)
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is SatResult.UNSAT
        assert solver.solve() is SatResult.SAT
        assert solver.solve(assumptions=[2]) is SatResult.SAT

    def test_incremental_clause_addition(self):
        solver = Solver(2)
        solver.add_clause([1, 2])
        assert solver.solve() is SatResult.SAT
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is SatResult.UNSAT


class TestConflictBudget:
    def test_budget_returns_unknown_on_hard_instance(self):
        # A PHP instance big enough to need more than one conflict.
        pigeons, holes = 7, 6
        var = lambda i, h: i * holes + h + 1
        clauses = [[var(i, h) for h in range(holes)] for i in range(pigeons)]
        for h in range(holes):
            for i, j in itertools.combinations(range(pigeons), 2):
                clauses.append([-var(i, h), -var(j, h)])
        solver = Solver()
        for c in clauses:
            solver.add_clause(c)
        result = solver.solve(conflict_budget=1)
        assert result in (SatResult.UNKNOWN, SatResult.UNSAT)


class TestEnumeration:
    def test_enumerate_all_models_of_or(self):
        cnf = CNF([[1, 2]])
        models = list(enumerate_models(cnf))
        assert len(models) == 3
        assert all(m[1] or m[2] for m in models)
        assert len({tuple(sorted(m.items())) for m in models}) == 3

    def test_projected_enumeration(self):
        # x1 free, x2 tied to x1; projecting on x1 gives 2 models not 2x2.
        cnf = CNF([[-1, 2], [1, -2]], projection=[1])
        models = list(enumerate_models(cnf))
        assert len(models) == 2

    def test_count_models_with_limit(self):
        cnf = CNF([], num_vars=4, projection=[1, 2, 3, 4])
        assert count_models(cnf) == 16
        assert count_models(cnf, limit=5) == 5

    def test_unsat_enumerates_nothing(self):
        cnf = CNF([[1], [-1]])
        assert list(enumerate_models(cnf)) == []


# -- randomized differential testing vs brute force ---------------------------


def _brute_force_models(clauses, num_vars):
    sols = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = dict(zip(range(1, num_vars + 1), bits))
        if all(any((l > 0) == assignment[abs(l)] for l in c) for c in clauses):
            sols.append(bits)
    return sols


@st.composite
def random_cnf(draw, max_vars=6, max_clauses=14, max_len=4):
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    n_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses = []
    for _ in range(n_clauses):
        length = draw(st.integers(min_value=1, max_value=max_len))
        clause = draw(
            st.lists(
                st.integers(min_value=1, max_value=num_vars).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=length,
                max_size=length,
            )
        )
        clauses.append(clause)
    return num_vars, clauses


@given(random_cnf())
@settings(max_examples=120, deadline=None)
def test_solver_agrees_with_brute_force(instance):
    num_vars, clauses = instance
    expected = _brute_force_models(clauses, num_vars)
    result, model = solve(clauses, num_vars=num_vars)
    if expected:
        assert result is SatResult.SAT
        assert all(
            any((l > 0) == model[abs(l)] for l in c) for c in clauses
        )
    else:
        assert result is SatResult.UNSAT


@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_enumeration_agrees_with_brute_force(instance):
    num_vars, clauses = instance
    expected = _brute_force_models(clauses, num_vars)
    cnf = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
    got = {
        tuple(m[v] for v in range(1, num_vars + 1))
        for m in enumerate_models(cnf)
    }
    assert got == set(expected)


def _projected_bits(clauses, num_vars, proj):
    """Projected models as bitmasks over sorted ``proj`` (bit i = proj[i])."""
    return {
        sum(1 << i for i, v in enumerate(proj) if bits[v - 1])
        for bits in _brute_force_models(clauses, num_vars)
    }


@st.composite
def counting_with_known(draw):
    """A random CNF, a projection, some of its projected models, a limit."""
    num_vars, clauses = draw(random_cnf())
    proj = sorted(draw(st.sets(st.integers(min_value=1, max_value=num_vars))))
    models = _projected_bits(clauses, num_vars, proj)
    known = draw(st.sets(st.sampled_from(sorted(models)))) if models else set()
    limit = draw(st.none() | st.integers(min_value=0, max_value=len(models) + 2))
    return num_vars, clauses, proj, models, known, limit


class TestCountModelsKnown:
    """``count_models(known=…)``: known models count, and found ones are added."""

    @given(counting_with_known())
    @settings(max_examples=150, deadline=None)
    def test_known_models_count_and_grow(self, instance):
        num_vars, clauses, proj, models, known, limit = instance
        cnf = CNF(clauses, num_vars=num_vars, projection=proj)
        given_known = set(known)
        result = count_models(cnf, limit=limit, known=known)
        assert result == (len(models) if limit is None else min(len(models), limit))
        assert known >= given_known
        assert known <= models

    def test_unlimited_count_finds_every_model(self):
        cnf = CNF([[1, 2]], num_vars=3, projection=[1, 2])
        known = {0b11}  # x1 and x2 true
        assert count_models(cnf, known=known) == 3
        assert known == {0b01, 0b10, 0b11}

    def test_empty_projection(self):
        sat = CNF([[1, 2]], num_vars=2, projection=[])
        known: set[int] = set()
        assert count_models(sat, known=known) == 1
        assert known == {0}
        assert count_models(sat, known=known) == 1
        unsat = CNF([[1], [-1]], num_vars=1, projection=[])
        assert count_models(unsat, known=set()) == 0

    def test_limit_zero(self, monkeypatch):
        cnf = CNF([[1, 2]], num_vars=2, projection=[1, 2])
        self._forbid_solver(monkeypatch)
        known: set[int] = set()
        assert count_models(cnf, limit=0, known=known) == 0
        assert known == set()

    def test_known_at_limit_builds_no_solver(self, monkeypatch):
        cnf = CNF(num_vars=4, projection=[1, 2, 3, 4])
        self._forbid_solver(monkeypatch)
        known = {0b0001, 0b0010, 0b0100}
        assert count_models(cnf, limit=3, known=known) == 3
        assert count_models(cnf, limit=2, known=known) == 2
        assert known == {0b0001, 0b0010, 0b0100}

    def test_without_known_the_solver_calls_are_unchanged(self, monkeypatch):
        cnf = CNF([[1, 2], [-2, 3]], num_vars=3, projection=[1, 2])
        plain = self._record_solver(monkeypatch, lambda: list(enumerate_models(cnf)))
        counted = self._record_solver(monkeypatch, lambda: count_models(cnf))
        assert counted == plain

    @staticmethod
    def _forbid_solver(monkeypatch):
        import repro.sat.enumerate as enumerate_module

        def forbidden(*args, **kwargs):
            raise AssertionError("no solver may be built")

        monkeypatch.setattr(enumerate_module, "Solver", forbidden)

    @staticmethod
    def _record_solver(monkeypatch, run):
        """The (method, argument) calls a solver receives while ``run`` runs."""
        import repro.sat.enumerate as enumerate_module

        calls = []

        class Recording(Solver):
            def add_clause(self, literals):
                literals = list(literals)
                calls.append(("add_clause", literals))
                super().add_clause(literals)

            def solve(self, *args, **kwargs):
                result = super().solve(*args, **kwargs)
                calls.append(("solve", result))
                return result

        with monkeypatch.context() as patch:
            patch.setattr(enumerate_module, "Solver", Recording)
            run()
        return calls


def test_solver_on_tseitin_output():
    # End-to-end: formula -> tseitin -> solver model satisfies the formula.
    x, y, z = Var(1), Var(2), Var(3)
    f = (x | y) & (~x | z) & (y.iff(z))
    cnf = tseitin_cnf(f, num_input_vars=3)
    result, model = solve(cnf.clauses, num_vars=cnf.num_vars)
    assert result is SatResult.SAT
    assert f.evaluate({v: model[v] for v in (1, 2, 3)})


def test_random_3sat_satisfiable_batch():
    rng = random.Random(7)
    for _ in range(10):
        num_vars = 20
        planted = [rng.random() < 0.5 for _ in range(num_vars)]
        clauses = []
        for _ in range(70):
            vs = rng.sample(range(num_vars), 3)
            clause = []
            for v in vs:
                sign = rng.random() < 0.5
                clause.append((v + 1) if sign else -(v + 1))
            # Force the clause to be satisfied by the planted assignment.
            if not any((l > 0) == planted[abs(l) - 1] for l in clause):
                v = vs[0]
                clause[0] = (v + 1) if planted[v] else -(v + 1)
            clauses.append(clause)
        result, model = solve(clauses, num_vars=num_vars)
        assert result is SatResult.SAT
        for clause in clauses:
            assert any((l > 0) == model[abs(l)] for l in clause)
