"""Dataset generation and split tests."""

import numpy as np
import pytest

from repro.counting import closed_form_count
from repro.counting.brute import iter_assignment_blocks
from repro.data import (
    Dataset,
    enumerate_positive_bits,
    generate_dataset,
    sample_negative_bits,
)
from repro.data.dataset import PAPER_SPLIT_RATIOS
from repro.spec import PROPERTIES, SymmetryBreaking, get_property
from repro.spec.evaluate import evaluate_bits
from repro.spec.matrices import (
    GROWTH_MASKS,
    bits_to_matrices,
    growth_mask,
    property_mask,
)


def _sweep(prop, scope, symmetry):
    """The oracle: every relation at the scope in increasing integer order
    (bit j = row-major position j), filtered by the property's mask and
    then by symmetry breaking."""
    mask_fn = property_mask(prop.oracle)
    chunks = []
    for block in iter_assignment_blocks(scope * scope):
        keep = mask_fn(bits_to_matrices(block, scope))
        if symmetry is not None:
            keep &= symmetry.mask(block, scope)
        chunks.append(block[keep].astype(np.uint8))
    return np.concatenate(chunks)


def _all_relations(scope):
    return np.concatenate(
        [bits_to_matrices(block, scope) for block in iter_assignment_blocks(scope * scope)]
    )


class TestPositiveEnumeration:
    @pytest.mark.parametrize("name", ["Reflexive", "Function", "Equivalence"])
    def test_bounded_exhaustive_count(self, name):
        prop = get_property(name)
        bits = enumerate_positive_bits(prop, 3)
        assert len(bits) == closed_form_count(prop.oracle, 3)
        assert bits.shape[1] == 9

    def test_every_row_satisfies_property(self):
        prop = get_property("PartialOrder")
        bits = enumerate_positive_bits(prop, 3)
        for row in bits[:50]:
            assert evaluate_bits(prop.formula, row.tolist(), 3)

    @pytest.mark.parametrize("symmetric", (False, True), ids=("nosymbr", "symbr"))
    @pytest.mark.parametrize("scope", (1, 2, 3, 4))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_rows_equal_the_sweep(self, prop, scope, symmetric):
        symmetry = SymmetryBreaking() if symmetric else None
        bits = enumerate_positive_bits(prop, scope, symmetry=symmetry)
        expected = _sweep(prop, scope, symmetry)
        assert bits.dtype == np.uint8
        assert bits.shape == expected.shape
        assert np.array_equal(bits, expected)

    @pytest.mark.parametrize("scope", (2, 3, 4))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_growth_mask_is_a_hereditary_superset(self, prop, scope):
        relations = _all_relations(scope)
        grows = growth_mask(prop.oracle)
        accepted = grows(relations)
        own = property_mask(prop.oracle)
        positive = own(relations)
        assert not (positive & ~accepted).any()
        # Deleting the last atom of an accepted relation leaves an
        # accepted relation.
        assert grows(relations[accepted][:, :-1, :-1]).all()
        # The table lists exactly the properties that are not hereditary.
        own_hereditary = own(relations[positive][:, :-1, :-1]).all()
        assert own_hereditary == (prop.oracle not in GROWTH_MASKS)

    @pytest.mark.parametrize("name", ["Equivalence", "TotalOrder"])
    def test_past_the_sweep_ceiling(self, name):
        # Scope 6 has 36 bits, beyond any whole-space sweep.
        prop = get_property(name)
        bits = enumerate_positive_bits(prop, 6)
        assert len(bits) == closed_form_count(prop.oracle, 6)
        assert property_mask(prop.oracle)(bits_to_matrices(bits, 6)).all()
        keys = bits.astype(np.int64) @ (1 << np.arange(36, dtype=np.int64))
        assert (np.diff(keys) > 0).all()

    @pytest.mark.parametrize("scope", (0, -1))
    def test_bad_scope(self, scope):
        with pytest.raises(ValueError, match="scope"):
            enumerate_positive_bits(get_property("Reflexive"), scope)


class TestNegativeSampling:
    def test_negatives_fail_the_property(self):
        prop = get_property("Equivalence")
        negatives = sample_negative_bits(prop, 3, 100, rng=0)
        assert negatives.shape == (100, 9)
        for row in negatives[:30]:
            assert not evaluate_bits(prop.formula, row.tolist(), 3)

    def test_negatives_are_distinct(self):
        negatives = sample_negative_bits(get_property("Reflexive"), 3, 200, rng=1)
        assert len({r.tobytes() for r in negatives}) == 200

    def test_exclusion(self):
        prop = get_property("Irreflexive")
        first = sample_negative_bits(prop, 2, 4, rng=2)
        second = sample_negative_bits(prop, 2, 4, rng=2, exclude=first)
        overlap = {r.tobytes() for r in first} & {r.tobytes() for r in second}
        assert not overlap

    def test_zero_count_is_empty(self):
        negatives = sample_negative_bits(get_property("Reflexive"), 3, 0)
        assert negatives.shape == (0, 9)
        assert negatives.dtype == np.uint8

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            sample_negative_bits(get_property("Reflexive"), 3, -1)

    def test_impossible_request_raises(self):
        # Scope 2 has only 16 matrices; 9 are reflexive-negative... asking
        # for far more distinct negatives than exist must fail cleanly.
        with pytest.raises(RuntimeError):
            sample_negative_bits(get_property("Reflexive"), 2, 50, rng=0, max_batches=20)


def _sample_by_packed_rows(prop, scope, count, rng=0, exclude=None, max_batches=10_000):
    """The oracle: the sampler as it was before integer keys, de-duplicating
    with ``np.unique(axis=0)`` over the packed rows of ``seen`` plus each
    batch."""
    m = scope * scope
    rng = np.random.default_rng(rng)
    mask_fn = property_mask(prop.oracle)
    if exclude is not None:
        seen = np.packbits(np.asarray(exclude, dtype=np.uint8), axis=1)
    else:
        seen = np.zeros((0, (m + 7) // 8), dtype=np.uint8)
    collected = []
    remaining = count
    batch_size = max(256, 2 * count)
    for _ in range(max_batches):
        if remaining <= 0:
            break
        candidates = (rng.random((batch_size, m)) < 0.5).astype(np.uint8)
        negatives = candidates[~mask_fn(bits_to_matrices(candidates, scope))]
        if len(negatives) == 0:
            continue
        packed = np.packbits(negatives, axis=1)
        _, first_index = np.unique(
            np.concatenate([seen, packed], axis=0), axis=0, return_index=True
        )
        new_index = np.sort(first_index[first_index >= len(seen)] - len(seen))
        new_index = new_index[:remaining]
        if len(new_index) == 0:
            continue
        collected.append(negatives[new_index])
        seen = np.concatenate([seen, packed[new_index]], axis=0)
        remaining -= len(new_index)
    assert remaining <= 0, "the oracle ran out of batches"
    return np.concatenate(collected, axis=0)


SAMPLED = ("Antisymmetric", "Bijective", "Equivalence", "Function", "PartialOrder", "Transitive")


class TestNegativeSamplingMatchesPackedRows:
    """The integer-key sampler returns the oracle's rows, in its order."""

    @pytest.mark.parametrize("name", SAMPLED)
    @pytest.mark.parametrize(
        "scope, count",
        # Scope 3 has about 500 negatives, so it takes no larger counts.
        [(3, 10), (3, 200), (4, 10), (4, 300), (4, 2000), (5, 10), (5, 300), (5, 2000)],
    )
    def test_same_rows(self, name, scope, count):
        prop = get_property(name)
        for seed in (0, 1):
            expected = _sample_by_packed_rows(prop, scope, count, rng=seed)
            np.testing.assert_array_equal(
                sample_negative_bits(prop, scope, count, rng=seed), expected
            )

    @pytest.mark.parametrize("name", SAMPLED)
    def test_same_rows_with_exclude(self, name):
        prop = get_property(name)
        exclude = _sample_by_packed_rows(prop, 4, 150, rng=3)
        expected = _sample_by_packed_rows(prop, 4, 300, rng=4, exclude=exclude)
        np.testing.assert_array_equal(
            sample_negative_bits(prop, 4, 300, rng=4, exclude=exclude), expected
        )

    def test_duplicates_across_many_batches(self):
        # 400 of scope 3's 448 non-reflexive relations: later batches are
        # mostly rows already taken.
        prop = get_property("Reflexive")
        expected = _sample_by_packed_rows(prop, 3, 400, rng=5)
        np.testing.assert_array_equal(
            sample_negative_bits(prop, 3, 400, rng=5), expected
        )

    @pytest.mark.parametrize("scope", (8, 9))
    def test_rows_of_one_and_two_words(self, scope):
        # Scope 8 fills one 64-bit key exactly; scope 9's 81 columns take
        # the byte-string keys of two words.
        prop = get_property("PartialOrder")
        exclude = _sample_by_packed_rows(prop, scope, 40, rng=6)
        expected = _sample_by_packed_rows(prop, scope, 200, rng=7, exclude=exclude)
        np.testing.assert_array_equal(
            sample_negative_bits(prop, scope, 200, rng=7, exclude=exclude), expected
        )


class TestGenerateDataset:
    def test_balanced_by_default(self):
        dataset = generate_dataset(get_property("Function"), 3, rng=0)
        assert dataset.num_positive == closed_form_count("function", 3)
        assert dataset.num_negative == dataset.num_positive

    def test_negative_ratio(self):
        dataset = generate_dataset(
            get_property("Function"), 3, negative_ratio=2.0, rng=0
        )
        assert dataset.num_negative == 2 * dataset.num_positive

    def test_max_positives_subsamples(self):
        dataset = generate_dataset(
            get_property("Reflexive"), 3, max_positives=20, rng=0
        )
        assert dataset.num_positive == 20

    def test_labels_are_correct(self):
        prop = get_property("Transitive")
        dataset = generate_dataset(prop, 2, rng=3)
        for row, label in zip(dataset.X, dataset.y):
            assert evaluate_bits(prop.formula, row.tolist(), 2) == bool(label)

    def test_symmetry_recorded(self):
        dataset = generate_dataset(
            get_property("Equivalence"), 3, symmetry=SymmetryBreaking(), rng=0
        )
        assert dataset.symmetry == "adjacent"
        assert dataset.num_positive == 3

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            generate_dataset(get_property("Reflexive"), 3, negative_ratio=0)

    @pytest.mark.parametrize("cap", (0, -5))
    def test_invalid_max_positives(self, cap):
        with pytest.raises(ValueError, match="max_positives"):
            generate_dataset(get_property("Reflexive"), 3, max_positives=cap)


class TestDatasetContainer:
    def _tiny(self):
        X = np.arange(40, dtype=np.uint8).reshape(10, 4) % 2
        y = np.array([0, 1] * 5)
        return Dataset(X=X, y=y, scope=2, property_name="Test")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((4, 5)), y=np.zeros(4), scope=2, property_name="x")
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((4, 4)), y=np.zeros(3), scope=2, property_name="x")

    def test_split_no_overlap_and_sizes(self):
        dataset = self._tiny()
        train, test = dataset.split(0.5, rng=0)
        assert len(train) + len(test) == len(dataset)
        train_rows = {bytes(r) + bytes([l]) for r, l in zip(train.X, train.y)}
        # Rows may repeat in X; verify by index accounting instead.
        assert len(train) == 5 or abs(len(train) - 5) <= 1

    def test_stratified_split_keeps_both_classes(self):
        dataset = self._tiny()
        train, test = dataset.split(0.2, rng=1)
        assert set(np.unique(train.y)) == {0, 1}
        assert set(np.unique(test.y)) == {0, 1}

    @pytest.mark.parametrize("fraction", PAPER_SPLIT_RATIOS)
    def test_paper_ratios_all_valid(self, fraction):
        prop = get_property("Function")
        dataset = generate_dataset(prop, 3, rng=0)
        train, test = dataset.split(fraction, rng=0)
        assert len(train) > 0 and len(test) > 0
        assert set(np.unique(train.y)) == {0, 1}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            self._tiny().split(0.0)
        with pytest.raises(ValueError):
            self._tiny().split(1.0)

    def test_subsample(self):
        dataset = self._tiny()
        small = dataset.subsample(4, rng=0)
        assert len(small) <= 5  # stratified rounding may keep one extra
        assert dataset.subsample(100, rng=0) is dataset

    def test_save_load_roundtrip(self, tmp_path):
        dataset = generate_dataset(
            get_property("Equivalence"), 3, symmetry=SymmetryBreaking(), rng=0
        )
        path = tmp_path / "ds.npz"
        dataset.save(path)
        loaded = Dataset.load(path)
        assert (loaded.X == dataset.X).all()
        assert (loaded.y == dataset.y).all()
        assert loaded.scope == dataset.scope
        assert loaded.property_name == dataset.property_name
        assert loaded.symmetry == "adjacent"
