"""Positive enumeration and negative sampling."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.spec.matrices import bits_to_matrices, growth_mask, property_mask
from repro.spec.properties import Property
from repro.spec.symmetry import SymmetryBreaking

_BLOCK_ROWS = 1 << 18  # candidates screened per numpy block


def enumerate_positive_bits(
    prop: Property, scope: int, symmetry: SymmetryBreaking | None = None
) -> np.ndarray:
    """All positive samples at the scope, as a (count, scope²) uint8 array.

    Positives grow one atom at a time from the empty relation: at scope
    ``n`` each survivor is extended by the ``2^(2n−1)`` choices of its new
    row and column, and the candidates the property's growth mask accepts
    survive (:data:`repro.spec.matrices.GROWTH_MASKS`: Function and
    Surjective grow under Functional, Injective under co-functional,
    Bijective under both, the other twelve under their own mask).  The
    property's mask, then ``symmetry``, filter the survivors at ``scope``,
    so the cost follows the positive set without symmetry breaking.

    Rows come in increasing integer order, bit ``j`` of a row being its
    row-major position ``j``.  This order is a contract: the seeded
    subsample in :func:`generate_dataset` draws row indices from it.
    """
    if scope < 1:
        raise ValueError(f"scope must be >= 1, got {scope}")
    accepts = growth_mask(prop.oracle)
    relations = np.zeros((1, 0, 0), dtype=bool)
    for n in range(1, scope + 1):
        # Candidate i extends survivor i >> (2n−1) by the low 2n−1 bits of
        # i: the first n−1 fill the new column, the other n the new row.
        shifts = np.arange(2 * n - 1)
        total = len(relations) << len(shifts)
        kept = [np.zeros((0, n, n), dtype=bool)]
        for start in range(0, total, _BLOCK_ROWS):
            index = np.arange(start, min(start + _BLOCK_ROWS, total))
            new = (index[:, None] >> shifts & 1).astype(bool)
            block = np.empty((len(index), n, n), dtype=bool)
            block[:, :-1, :-1] = relations[index >> len(shifts)]
            block[:, :-1, -1] = new[:, : n - 1]
            block[:, -1] = new[:, n - 1 :]
            kept.append(block[accepts(block)])
        relations = np.concatenate(kept)
    relations = relations[property_mask(prop.oracle)(relations)]
    bits = relations.reshape(len(relations), scope * scope).astype(np.uint8)
    bits = bits[np.lexsort(bits.T)]  # lexsort's last key, the last column, ranks highest
    return bits if symmetry is None else bits[symmetry.mask(bits, scope)]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per 0/1 row: bit ``j`` of the key is column ``j``.

    Rows of up to 64 columns become ``uint64`` integers.  Wider rows (scope
    ≥ 9) become raw byte strings of whole 64-bit words, which sort and
    compare as well; at scope ≤ 8 they made a sampling call 20–50% slower,
    so the narrow rows keep the integer keys.
    """
    words = max(1, -(-rows.shape[1] // 64))
    packed = np.packbits(rows, axis=1, bitorder="little")
    padded = np.zeros((len(rows), 8 * words), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    dtype = np.dtype("<u8") if words == 1 else np.dtype(f"V{8 * words}")
    return padded.view(dtype).ravel()


def sample_negative_bits(
    prop: Property,
    scope: int,
    count: int,
    rng: np.random.Generator | int | None = 0,
    exclude: np.ndarray | None = None,
    max_batches: int = 10_000,
) -> np.ndarray:
    """Rejection-sample ``count`` distinct negative examples.

    Candidates are uniform random bit matrices; each is screened with the
    vectorised evaluator (the Alloy-Evaluator step — no solving).  Rows in
    ``exclude`` and duplicates are dropped so the dataset never contains a
    mislabelled or repeated sample.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    m = scope * scope
    if count == 0:
        return np.zeros((0, m), dtype=np.uint8)
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    mask_fn = property_mask(prop.oracle)
    # Dedup state is the sorted keys of every row taken so far (seeded with
    # ``exclude``): each batch is de-duplicated within itself, then looked
    # up in ``seen``, so no batch re-sorts the rows before it.
    if exclude is None:
        exclude = np.zeros((0, m), dtype=np.uint8)
    seen = np.unique(_row_keys(np.asarray(exclude, dtype=np.uint8)))
    collected: list[np.ndarray] = []
    remaining = count
    batch_size = max(256, 2 * count)
    for _ in range(max_batches):
        if remaining <= 0:
            break
        candidates = (rng.random((batch_size, m)) < 0.5).astype(np.uint8)
        negatives = candidates[~mask_fn(bits_to_matrices(candidates, scope))]
        if len(negatives) == 0:
            continue
        keys = _row_keys(negatives)
        # First occurrence of each key in the batch; those not in ``seen``
        # are new, and sorting their indices keeps first-seen order.
        unique, first_index = np.unique(keys, return_index=True)
        at = np.searchsorted(seen, unique)
        known = at < len(seen)
        known[known] = seen[at[known]] == unique[known]
        new_index = np.sort(first_index[~known])[:remaining]
        if len(new_index) == 0:
            continue
        collected.append(negatives[new_index])
        seen = np.sort(np.concatenate([seen, keys[new_index]]))
        remaining -= len(new_index)
    if remaining > 0:
        raise RuntimeError(
            f"could not sample {count} distinct negatives at scope {scope} "
            f"(the negative space may be too small)"
        )
    return np.concatenate(collected, axis=0)


def generate_dataset(
    prop: Property,
    scope: int,
    symmetry: SymmetryBreaking | None = None,
    negative_ratio: float = 1.0,
    max_positives: int | None = None,
    rng: np.random.Generator | int | None = 0,
    positives: np.ndarray | None = None,
) -> Dataset:
    """Build a labelled dataset for one property.

    ``negative_ratio`` is #negatives / #positives — 1.0 reproduces the
    paper's balanced sets; Table 9's class-ratio sweep varies it.
    ``max_positives`` caps the bounded-exhaustive set with a seeded uniform
    subsample, drawn by row index from the enumeration order, to keep the
    pure-Python pipeline fast at larger scopes.  ``positives`` supplies an
    already enumerated set, which must be what
    ``enumerate_positive_bits(prop, scope, symmetry)`` returns, in that
    order; without it the set is enumerated here.
    """
    if negative_ratio <= 0:
        raise ValueError("negative_ratio must be positive")
    if max_positives is not None and max_positives < 1:
        raise ValueError(f"max_positives must be >= 1, got {max_positives}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if positives is None:
        positives = enumerate_positive_bits(prop, scope, symmetry=symmetry)
    if len(positives) == 0:
        raise RuntimeError(f"{prop.name} has no solutions at scope {scope}")
    if max_positives is not None and len(positives) > max_positives:
        chosen = rng.choice(len(positives), size=max_positives, replace=False)
        positives = positives[chosen]
    n_negative = max(1, round(negative_ratio * len(positives)))
    # At toy scopes the negative space itself can be tiny (e.g. only 3
    # non-transitive relations exist at scope 2); cap the request at the
    # exact number of negatives in existence.
    from repro.counting.oracles import closed_form_count

    available = (1 << (scope * scope)) - closed_form_count(prop.oracle, scope)
    if available <= 0:
        raise RuntimeError(f"{prop.name} has no negative examples at scope {scope}")
    n_negative = min(n_negative, available)
    negatives = sample_negative_bits(
        prop, scope, n_negative, rng=rng, exclude=None
    )
    X = np.concatenate([positives, negatives], axis=0)
    y = np.concatenate(
        [np.ones(len(positives), dtype=np.int64), np.zeros(len(negatives), dtype=np.int64)]
    )
    order = rng.permutation(len(X))
    return Dataset(
        X=X[order],
        y=y[order],
        scope=scope,
        property_name=prop.name,
        symmetry=symmetry.kind if symmetry is not None else None,
    )
