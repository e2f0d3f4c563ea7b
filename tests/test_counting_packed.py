"""Differential suite for the packed counting engine.

Pins the bitmask-packed :class:`ExactCounter` rewrite to three independent
oracles:

* vectorised brute force over the full ``2^{n²}`` space (the pre-Tseitin
  formula swept with numpy) on every property at scopes 2-4,
  with and without symmetry breaking;
* the original tuple-based algorithm (:class:`LegacyExactCounter`);
* :func:`brute_force_count` on randomized aux-free CNFs.

Plus regression tests that :class:`CountingEngine` cache hits return
bit-identical counts to cold calls, unit tests for the packed clause
representation itself, the search's node counts pinned per problem, the
indexed auxiliary elimination against the list scan it replaced, and the
clause-reusing ``_assign``/``_propagate`` against the copying versions they
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.counting import (
    CountingEngine,
    ExactCounter,
    LegacyExactCounter,
    brute_force_count,
)
from repro.core.pipeline import MCMLPipeline
from repro.core.tree2cnf import label_region_cnf
from repro.counting.exact import _assign, _branch_bit, _eliminate, _propagate
from repro.counting.vector import count_formula
from repro.logic import CNF, Var, tseitin_cnf
from repro.logic.cnf import pack_clauses
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.properties import PROPERTIES

from tests.test_sat_solver import random_cnf

SCOPES = (2, 3, 4)
SYMMETRY = (None, SymmetryBreaking())


def _case_id(case) -> str:
    prop, scope, symmetry = case
    return f"{prop.name}-{scope}-{'symbr' if symmetry else 'plain'}"


ALL_CASES = [
    (prop, scope, symmetry)
    for prop in PROPERTIES
    for scope in SCOPES
    for symmetry in SYMMETRY
]


class TestPackedAgainstBruteForce:
    """Packed counter vs the exhaustive sweep, every property × scope × symmetry."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
    def test_matches_full_space_sweep(self, case):
        prop, scope, symmetry = case
        problem = translate(prop, scope, symmetry=symmetry)
        packed = ExactCounter().count(problem.cnf)
        swept = count_formula(problem.formula, scope * scope)
        assert packed == swept

    @pytest.mark.parametrize("scope", SCOPES)
    def test_negated_problems_partition_the_space(self, scope):
        # φ and ¬φ counts must sum to 2^{n²} — exercises the negated
        # translation (used for the fp/tn counting problems) end to end.
        prop = get_property("Antisymmetric")
        counter = ExactCounter()
        positive = counter.count(translate(prop, scope).cnf)
        negative = counter.count(translate(prop, scope, negate=True).cnf)
        assert positive + negative == 1 << (scope * scope)


class TestPackedAgainstLegacy:
    """Packed counter vs the seed's tuple-based algorithm, bit for bit."""

    @pytest.mark.parametrize(
        "case",
        [c for c in ALL_CASES if c[1] <= 3],
        ids=_case_id,
    )
    def test_matches_legacy_at_small_scopes(self, case):
        prop, scope, symmetry = case
        cnf = translate(prop, scope, symmetry=symmetry).cnf
        assert ExactCounter().count(cnf) == LegacyExactCounter().count(cnf)

    def test_matches_legacy_on_the_ablation_instance(self):
        cnf = translate(
            get_property("PartialOrder"), 4, symmetry=SymmetryBreaking()
        ).cnf
        assert ExactCounter().count(cnf) == LegacyExactCounter().count(cnf)

    @given(random_cnf(max_vars=8, max_clauses=16))
    @settings(max_examples=60, deadline=None)
    def test_matches_legacy_on_random_cnfs(self, instance):
        num_vars, clauses = instance
        cnf = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
        assert ExactCounter().count(cnf) == LegacyExactCounter().count(cnf)

    @given(random_cnf(max_vars=10, max_clauses=24))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_random_cnfs(self, instance):
        num_vars, clauses = instance
        cnf = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
        assert ExactCounter().count(cnf) == brute_force_count(cnf)

    @given(random_cnf(max_vars=6, max_clauses=12))
    @settings(max_examples=40, deadline=None)
    def test_random_projection_subsets(self, instance):
        # Project onto the odd variables only: the packed counter's
        # projected search vs brute-force projection by model enumeration.
        num_vars, clauses = instance
        projection = [v for v in range(1, num_vars + 1) if v % 2 == 1]
        cnf = CNF(clauses, num_vars=num_vars, projection=projection)
        full = CNF(clauses, num_vars=num_vars, projection=range(1, num_vars + 1))
        from repro.counting import brute_force_models

        models = brute_force_models(full)
        columns = [v - 1 for v in projection]
        distinct = (
            len(np.unique(models[:, columns], axis=0)) if len(models) else 0
        )
        assert ExactCounter().count(cnf) == distinct


class TestCountingEngine:
    def test_cache_hit_is_bit_identical(self):
        prop = get_property("PartialOrder")
        cnf = translate(prop, 3, symmetry=SymmetryBreaking()).cnf
        engine = CountingEngine()
        cold = engine.solve(cnf).value
        assert engine.stats.count_hits == 0
        # A structurally equal but distinct CNF object must hit the memo.
        clone = translate(prop, 3, symmetry=SymmetryBreaking()).cnf
        warm = engine.solve(clone).value
        assert engine.stats.count_hits == 1
        assert warm == cold == ExactCounter().count(cnf)

    def test_count_many_deduplicates(self):
        cnf = translate(get_property("Reflexive"), 3).cnf
        engine = CountingEngine()
        first, second = (r.value for r in engine.solve_many([cnf, cnf.copy()]))
        assert first == second
        assert engine.stats.count_calls == 2
        assert engine.stats.count_hits == 1

    def test_signature_distinguishes_projections(self):
        # Same clauses, different projection → different counts, no false hit.
        engine = CountingEngine()
        narrow = CNF([[1]], num_vars=1, projection=[1])
        wide = CNF([[1]], num_vars=3, projection=[1, 2, 3])
        assert engine.solve(narrow).value == 1
        assert engine.solve(wide).value == 4
        assert engine.stats.count_hits == 0

    def test_translate_memo(self):
        engine = CountingEngine()
        prop = get_property("Transitive")
        a = engine.translate(prop, 3, symmetry=SymmetryBreaking())
        b = engine.translate(prop, 3, symmetry=SymmetryBreaking())
        c = engine.translate(prop, 3)
        assert a is b
        assert c is not a
        assert engine.stats.translate_hits == 1

    def test_ground_truth_memo_and_counts(self):
        engine = CountingEngine()
        gt1 = engine.ground_truth(get_property("Reflexive"), 3)
        gt2 = engine.ground_truth(get_property("Reflexive"), 3)
        assert gt1 is gt2
        assert engine.solve(gt1.positive().cnf).value == 1 << 6  # free off-diagonal bits

    def test_backend_delegation(self):
        engine = CountingEngine()
        assert engine.backend_name == "exact"
        # The engine is not a backend: backend attributes live on
        # ``engine.counter`` only.
        with pytest.raises(AttributeError):
            engine.count
        with pytest.raises(AttributeError):
            engine.max_nodes
        assert engine.counter.max_nodes > 0
        # Engines do not nest: share the engine itself instead.
        with pytest.raises(TypeError, match="not another engine"):
            CountingEngine(engine)

    def test_engines_over_one_counter_share_its_component_cache(self):
        counter = ExactCounter()
        first = CountingEngine(counter)
        second = CountingEngine(counter)
        assert first.component_cache is second.component_cache
        assert first.component_cache is counter.component_cache
        # Counting through the first engine warms the cache it reports,
        # even after a second engine was built over the same counter.
        first.solve(translate(get_property("PartialOrder"), 3).cnf)
        assert len(first.component_cache) > 0

    def test_region_memo(self):
        from repro.ml.decision_tree import TreePath

        paths = (
            TreePath(conditions=((0, True),), label=1),
            TreePath(conditions=((0, False),), label=0),
        )
        engine = CountingEngine()
        first = engine.region(paths, 1, 4)
        second = engine.region(paths, 1, 4)
        assert first is second
        assert engine.stats.region_hits == 1
        assert engine.solve(first).value == 8  # x1 true, three free bits


class TestPackedRepresentation:
    def test_pack_clauses_masks(self):
        packed = pack_clauses([(1, -3), (3, 7)])
        assert packed.variables == (1, 3, 7)
        assert packed.num_vars == 3
        assert packed.clauses == [(0b001, 0b010), (0b110, 0)]
        assert packed.var_mask() == 0b111

    def test_literal_of_roundtrip(self):
        packed = pack_clauses([(2, -5)])
        assert packed.literal_of(0b01, True) == 2
        assert packed.literal_of(0b10, False) == -5

    def test_signature_is_order_insensitive(self):
        a = pack_clauses([(1, 2), (-1, 3)]).signature()
        b = pack_clauses([(-1, 3), (1, 2)]).signature()
        assert a == b

    def test_cnf_signature_ignores_clause_order(self):
        first = CNF([[1, 2], [2, 3]], projection=[1, 2, 3])
        second = CNF([[2, 3], [1, 2]], projection=[1, 2, 3])
        assert first.signature() == second.signature()

    def test_projected_count_survives_aux_flag_removal(self):
        # The projection-aware search no longer needs the unique-extension
        # flag: flagged and unflagged CNFs agree bit for bit.
        x1, x2, x3, x4 = (Var(i) for i in range(1, 5))
        cnf = tseitin_cnf((x1 & x2) | (x3 & x4), num_input_vars=4)
        flagged = ExactCounter().count(cnf)
        cnf.aux_unique = False
        assert ExactCounter().count(cnf) == flagged == 7


def _eliminate_by_scan(clauses, proj, max_passes=50):
    """The oracle: elimination re-partitioning the whole clause list for
    every auxiliary, as the counter did before its occurrence index."""
    work = list(dict.fromkeys(clauses))
    for _ in range(max_passes):
        changed = False
        all_vars = 0
        for pos, neg in work:
            all_vars |= pos | neg
        aux = all_vars & ~proj
        while aux:
            bit = aux & -aux
            aux ^= bit
            with_pos, with_neg, rest = [], [], []
            for pos, neg in work:
                if pos & bit:
                    with_pos.append((pos, neg))
                elif neg & bit:
                    with_neg.append((pos, neg))
                else:
                    rest.append((pos, neg))
            if not with_pos and not with_neg:
                continue
            limit = len(with_pos) + len(with_neg)
            clear = ~bit
            resolvents = []
            bounded = True
            for pos_a, neg_a in with_pos:
                pos_a &= clear
                for pos_b, neg_b in with_neg:
                    res_pos = pos_a | pos_b
                    res_neg = neg_a | (neg_b & clear)
                    if res_pos & res_neg:
                        continue
                    if not (res_pos | res_neg):
                        return None
                    resolvents.append((res_pos, res_neg))
                    if len(resolvents) > limit:
                        bounded = False
                        break
                if not bounded:
                    break
            if not bounded:
                continue
            work = rest + list(dict.fromkeys(resolvents))
            changed = True
        if not changed:
            break
    return work


def _top_level_residual(cnf):
    """The clauses and projection mask ``ExactCounter.count`` eliminates on:
    the packed clauses after one propagation pass."""
    packed = cnf.packed_view()
    proj = 0
    for var in cnf.projected_vars():
        if var in packed.index:
            proj |= 1 << packed.index[var]
    simplified = _propagate(packed.clauses)
    return ([] if simplified is None else simplified[0]), proj


def _nodes(cnf) -> int:
    """Search nodes of one count on a fresh counter (an empty cache)."""
    counter = ExactCounter()
    counter.count(cnf)
    return counter._nodes


@pytest.fixture(scope="module")
def tree_conjunctions():
    """φ and ¬φ conjoined with a decision tree's two label regions, for
    every property at scope 3 in the symmetry-broken space (Table 3's
    problems, reduced)."""
    pipeline = MCMLPipeline(seed=0)
    symmetry = SymmetryBreaking()
    cases = []
    for prop in PROPERTIES:
        dataset = pipeline.make_dataset(prop, 3, symmetry=symmetry)
        train, _ = dataset.split(0.75, rng=0)
        paths = pipeline.train("DT", train).decision_paths()
        for negate in (False, True):
            phi = translate(prop, 3, symmetry=symmetry, negate=negate).cnf
            for label in (1, 0):
                cases.append(phi.conjoin(label_region_cnf(paths, label, 9)))
    return cases


class TestIndexedElimination:
    """The occurrence-indexed ``_eliminate`` returns the scan's list, in its order."""

    @pytest.mark.parametrize(
        "case", [c for c in ALL_CASES if c[1] >= 3], ids=_case_id
    )
    def test_property_residuals(self, case):
        prop, scope, symmetry = case
        residual, proj = _top_level_residual(
            translate(prop, scope, symmetry=symmetry).cnf
        )
        assert _eliminate(residual, proj) == _eliminate_by_scan(residual, proj)

    def test_tree_region_conjunctions(self, tree_conjunctions):
        assert len(tree_conjunctions) == 4 * len(PROPERTIES)
        for cnf in tree_conjunctions:
            residual, proj = _top_level_residual(cnf)
            assert _eliminate(residual, proj) == _eliminate_by_scan(residual, proj)

    @given(random_cnf(max_vars=10, max_clauses=24))
    @settings(max_examples=80, deadline=None)
    def test_random_cnfs_with_half_the_variables_projected(self, instance):
        # Unit clauses, resolvents equal to a surviving clause and empty
        # resolvents all occur here; the translated problems rarely reach
        # them.
        num_vars, clauses = instance
        packed = pack_clauses(CNF(clauses, num_vars=num_vars).clauses)
        proj = sum(1 << i for i in range(0, packed.num_vars, 2))
        assert _eliminate(packed.clauses, proj) == _eliminate_by_scan(
            packed.clauses, proj
        )


def _assign_by_copy(clauses, bit, positive):
    """The oracle: ``_assign`` building a new tuple for every clause it
    keeps, as the counter did before untouched clauses kept theirs."""
    out = []
    has_units = False
    residual_vars = 0
    if positive:
        for pos, neg in clauses:
            if pos & bit:
                continue
            if neg & bit:
                neg ^= bit
                mask = pos | neg
                if not mask:
                    return None
                if mask & (mask - 1) == 0:
                    has_units = True
                residual_vars |= mask
            else:
                residual_vars |= pos | neg
            out.append((pos, neg))
    else:
        for pos, neg in clauses:
            if neg & bit:
                continue
            if pos & bit:
                pos ^= bit
                mask = pos | neg
                if not mask:
                    return None
                if mask & (mask - 1) == 0:
                    has_units = True
                residual_vars |= mask
            else:
                residual_vars |= pos | neg
            out.append((pos, neg))
    return out, has_units, residual_vars


def _propagate_by_copy(clauses):
    """The oracle: ``_propagate`` building a new tuple for every clause it
    keeps."""
    true_mask = 0
    false_mask = 0
    work = clauses
    while True:
        residual = []
        assigned = true_mask | false_mask
        residual_vars = 0
        progressed = False
        for pos, neg in work:
            mask = pos | neg
            if not (mask & assigned):
                if mask & (mask - 1):
                    residual_vars |= mask
                    residual.append((pos, neg))
                else:
                    if pos:
                        true_mask |= mask
                    else:
                        false_mask |= mask
                    assigned |= mask
                    progressed = True
                continue
            if pos & true_mask or neg & false_mask:
                continue
            pos &= ~false_mask
            neg &= ~true_mask
            mask = pos | neg
            if not mask:
                return None
            if mask & (mask - 1) == 0:
                if pos:
                    true_mask |= mask
                else:
                    false_mask |= mask
                assigned |= mask
                progressed = True
            else:
                residual_vars |= mask
                residual.append((pos, neg))
        if not progressed:
            return residual, true_mask, false_mask, residual_vars
        work = residual


def _kept_as_is(clauses, assigned, residual) -> bool:
    """Whether every input clause free of the ``assigned`` variables is in
    ``residual`` as the same object."""
    kept = {id(clause) for clause in residual}
    return all(
        id(clause) in kept
        for clause in clauses
        if not (clause[0] | clause[1]) & assigned
    )


def _check_clause_reuse(clauses):
    """``_propagate`` on ``clauses``, then ``_assign`` of every variable
    both ways on its residual, each against its copying oracle."""
    simplified = _propagate(clauses)
    assert simplified == _propagate_by_copy(clauses)
    if simplified is None:
        return
    residual, true_mask, false_mask, residual_vars = simplified
    assert _kept_as_is(clauses, true_mask | false_mask, residual)
    bits = residual_vars
    while bits:
        bit = bits & -bits
        bits ^= bit
        for positive in (True, False):
            branch = _assign(residual, bit, positive)
            assert branch == _assign_by_copy(residual, bit, positive)
            if branch is not None:
                assert _kept_as_is(residual, bit, branch[0])


class TestClauseReuse:
    """``_assign`` and ``_propagate`` return what the copying versions did,
    and keep every clause they leave untouched as the input object, so
    cache keys share clause tuples instead of holding copies."""

    @pytest.mark.parametrize(
        "case", [c for c in ALL_CASES if c[1] >= 3], ids=_case_id
    )
    def test_property_residuals(self, case):
        prop, scope, symmetry = case
        cnf = translate(prop, scope, symmetry=symmetry).cnf
        _check_clause_reuse(cnf.packed_view().clauses)
        _check_clause_reuse(_top_level_residual(cnf)[0])

    @given(random_cnf(max_vars=10, max_clauses=24))
    @settings(max_examples=80, deadline=None)
    def test_random_cnfs(self, instance):
        num_vars, clauses = instance
        packed = pack_clauses(CNF(clauses, num_vars=num_vars).clauses)
        _check_clause_reuse(packed.clauses)


class TestSearchNodes:
    """Node counts of the search, pinned: counts are exact either way, so
    these are what show a change of branching rule."""

    #: Nodes at scopes 3 and 4 in the plain space, where elimination leaves
    #: no auxiliary and the weighted occurrence score picks every branch.
    PLAIN_NODES = {
        "Antisymmetric": (4, 7),
        "Bijective": (11, 49),
        "Connex": (4, 7),
        "Equivalence": (9, 27),
        "Function": (13, 25),
        "Functional": (10, 21),
        "Injective": (13, 25),
        "Irreflexive": (0, 0),
        "NonStrictOrder": (14, 99),
        "PartialOrder": (14, 99),
        "PreOrder": (17, 146),
        "Reflexive": (0, 0),
        "StrictOrder": (14, 99),
        "Surjective": (11, 47),
        "TotalOrder": (9, 29),
        "Transitive": (29, 213),
    }

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_plain_spaces_keep_the_occurrence_order(self, prop):
        nodes = tuple(_nodes(translate(prop, scope).cnf) for scope in (3, 4))
        assert nodes == self.PLAIN_NODES[prop.name]

    def test_lex_leader_space_branches_along_its_chains(self):
        # The scope-4 adjacent lex-leader constraints alone; branching by
        # occurrence score took 2,944 nodes.
        cnf = tseitin_cnf(SymmetryBreaking().formula(4), num_input_vars=16)
        assert _nodes(cnf) <= 1_430

    @pytest.mark.parametrize(
        "name, bound, by_occurrence",
        [("PartialOrder", 325, 478), ("Transitive", 368, 601), ("Antisymmetric", 562, 1_012)],
    )
    def test_symmetry_broken_spaces(self, name, bound, by_occurrence):
        cnf = translate(get_property(name), 4, symmetry=SymmetryBreaking()).cnf
        assert _nodes(cnf) <= bound < by_occurrence


class TestBranchBit:
    # Variables 0-2 are projected.  Variable 1 has the highest weighted
    # occurrence score; variable 2 is the only one beside an auxiliary.
    CLAUSES = [(0b1100, 0), (0b0011, 0), (0b0001, 0b0010), (0b0110, 0)]

    def test_a_component_with_auxiliaries_follows_them(self):
        assert _branch_bit(self.CLAUSES, 0b0111, 0b1000) == 0b0100

    def test_the_lowest_projection_variable_beside_an_auxiliary_wins(self):
        clauses = self.CLAUSES + [(0b1001, 0)]
        assert _branch_bit(clauses, 0b0111, 0b1000) == 0b0001

    def test_an_auxiliary_free_component_takes_the_occurrence_score(self):
        assert _branch_bit(self.CLAUSES, 0b1111, 0) == 0b0010
