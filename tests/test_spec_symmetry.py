"""Symmetry-breaking tests, anchored to the paper's published counts."""

import numpy as np
import pytest

from repro.counting import exact_count
from repro.counting.brute import iter_assignment_blocks
from repro.counting.oracles import fibonacci
from repro.data.generation import enumerate_positive_bits
from repro.logic.formula import TRUE, Var, iter_assignments
from repro.spec import SymmetryBreaking, get_property, lex_leq, translate
from repro.spec.matrices import bits_to_matrices, property_mask
from repro.spec.symmetry import (
    adjacent_transpositions,
    all_permutations,
    iter_orbit,
    permuted_positions,
)


class TestGenerators:
    def test_adjacent_transpositions(self):
        assert adjacent_transpositions(3) == [(1, 0, 2), (0, 2, 1)]
        assert len(adjacent_transpositions(6)) == 5

    def test_all_permutations_excludes_identity(self):
        perms = all_permutations(3)
        assert len(perms) == 5
        assert (0, 1, 2) not in perms

    def test_permuted_positions_is_permutation(self):
        for perm in all_permutations(3):
            positions = permuted_positions(perm)
            assert sorted(positions) == list(range(9))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            SymmetryBreaking("sideways")


class TestLexLeq:
    def test_semantics_exhaustive(self):
        a = [Var(1), Var(2)]
        b = [Var(3), Var(4)]
        formula = lex_leq(a, b)
        for assignment in iter_assignments(range(1, 5)):
            va = (assignment[1], assignment[2])
            vb = (assignment[3], assignment[4])
            assert formula.evaluate(assignment) == (va <= vb)

    def test_same_variable_folds(self):
        a = [Var(1), Var(2)]
        assert lex_leq(a, a) == TRUE

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_leq([Var(1)], [Var(1), Var(2)])


class TestMaskVsFormula:
    """The vectorised filter and the CNF constraint must agree pointwise."""

    @pytest.mark.parametrize("kind", ["adjacent", "all"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_agreement(self, kind, n):
        sb = SymmetryBreaking(kind)
        formula = sb.formula(n)
        m = n * n
        for block in iter_assignment_blocks(m):
            mask = sb.mask(block, n)
            for row, keep in zip(block, mask):
                assignment = {k + 1: bool(row[k]) for k in range(m)}
                assert formula.evaluate(assignment) == bool(keep)


def _mask_by_full_scan(sb, bits, n):
    """The oracle: every moved position of every generator compared, as
    the mask did before it compared a transposition's pairs once."""
    a = bits.astype(bool)
    keep = np.ones(bits.shape[0], dtype=bool)
    for perm in sb.generators(n):
        positions = permuted_positions(perm)
        b = a[:, positions]
        less = np.zeros(a.shape[0], dtype=bool)
        equal_prefix = np.ones(a.shape[0], dtype=bool)
        for k in range(n * n):
            if positions[k] == k:
                continue
            ak, bk = a[:, k], b[:, k]
            less |= equal_prefix & ~ak & bk
            equal_prefix &= ak == bk
        keep &= less | equal_prefix
    return keep


class TestMaskAgainstFullScan:
    """Comparing each transposition's pairs once keeps the same rows."""

    @pytest.mark.parametrize("kind", ["adjacent", "all"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_row(self, kind, n):
        sb = SymmetryBreaking(kind)
        for block in iter_assignment_blocks(n * n):
            assert np.array_equal(sb.mask(block, n), _mask_by_full_scan(sb, block, n))

    def test_partial_order_scope_5_positives(self):
        bits = enumerate_positive_bits(get_property("PartialOrder"), 5)
        assert len(bits) == 135_392
        sb = SymmetryBreaking()
        assert np.array_equal(sb.mask(bits, 5), _mask_by_full_scan(sb, bits, 5))


class TestFibonacciAnchor:
    """DESIGN.md §2: equivalence under adjacent lex-leader counts F(n+1)."""

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 5), (5, 8)])
    def test_equivalence_counts(self, n, expected):
        assert expected == fibonacci(n + 1)
        sb = SymmetryBreaking("adjacent")
        mask_fn = property_mask("equivalence")
        total = 0
        for block in iter_assignment_blocks(n * n):
            keep = mask_fn(bits_to_matrices(block, n))
            keep &= sb.mask(block, n)
            total += int(keep.sum())
        assert total == expected

    def test_figure2_via_cnf(self):
        """Figure 2 of the paper: exactly 5 equivalence relations at scope 4."""
        problem = translate(get_property("Equivalence"), 4, symmetry=SymmetryBreaking())
        assert exact_count(problem.cnf) == 5

    def test_paper_scope_20_would_be_10946(self):
        """The scope-20 Alloy count in Table 1 equals F(21) — the anchor that
        justifies the adjacent-transposition reconstruction."""
        assert fibonacci(21) == 10946


class TestFullSymmetryBreaking:
    def test_full_lex_leader_gives_orbit_representatives(self):
        """With all permutations, equivalence relations at scope 4 reduce to
        the 5 integer partitions of 4 (full isomorph elimination)."""
        sb = SymmetryBreaking("all")
        mask_fn = property_mask("equivalence")
        total = 0
        for block in iter_assignment_blocks(16):
            keep = mask_fn(bits_to_matrices(block, 4))
            keep &= sb.mask(block, 4)
            total += int(keep.sum())
        assert total == 5

    def test_every_orbit_keeps_at_least_one_member(self):
        """Lex-leader never removes an orbit entirely."""
        sb = SymmetryBreaking("adjacent")
        rng = np.random.default_rng(11)
        for _ in range(25):
            matrix = rng.random((4, 4)) < 0.4
            orbit = [m for m in iter_orbit(matrix)]
            flat = np.stack([m.reshape(-1) for m in orbit])
            assert sb.mask(flat, 4).any()

    def test_full_breaking_keeps_exactly_lex_min_of_orbit(self):
        sb = SymmetryBreaking("all")
        rng = np.random.default_rng(13)
        for _ in range(25):
            matrix = rng.random((3, 3)) < 0.5
            orbit = np.stack([m.reshape(-1) for m in iter_orbit(matrix)])
            keep = sb.mask(orbit, 3)
            # Kept rows are exactly those equal to the orbit's lex-min row.
            as_tuples = [tuple(int(x) for x in row) for row in orbit]
            minimum = min(as_tuples)
            for row, kept in zip(as_tuples, keep):
                assert kept == (row == minimum)


class TestSingleMatrixHelpers:
    def test_is_minimal(self):
        sb = SymmetryBreaking("adjacent")
        # The empty and full relations are fixed points — always minimal.
        assert sb.is_minimal([[False] * 3 for _ in range(3)])
        assert sb.is_minimal([[True] * 3 for _ in range(3)])
