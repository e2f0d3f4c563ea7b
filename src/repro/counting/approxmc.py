"""Approximate model counting (ApproxMC-style backend).

Implements the hashing-based (ε, δ) counting algorithm of
Chakraborty–Meel–Vardi as engineered in ApproxMC2/4 (the tool the paper
calls):

1. pick ``m`` random XOR constraints over the projection variables — each
   constraint includes every projection variable independently with
   probability ½ plus a random parity bit — partitioning the solution space
   into ~``2^m`` cells;
2. size the cell containing up to ``thresh`` solutions.  Only the size
   ``min(#models in the cell, thresh)`` enters the estimate, and the hash
   draws do not depend on the models, so two routes give the same
   estimates:

   * **From a model set.**  A caller holding the complete projected model
     set passes it as ``count(cnf, models=rows)``: a ``(count, k)`` 0/1
     array whose column ``i`` is the ``i``-th smallest projected variable.
     The rows are packed once into ``uint64`` words, 64 columns to a word,
     and a cell's size is the number of rows whose masked popcount
     (``np.bitwise_count``, numpy ≥ 2.0) has the parity of every hash,
     with no SAT search.
   * **By projected AllSAT** with a cutoff, when ``models`` is not given.
     One ``count`` call keeps the projected models it has found, starting
     with the quick-exit probe's: every one satisfies the CNF, so a cell
     starts from those that satisfy its hashes, blocks them before its
     search, and adds what the search finds.  Each model is found at most
     once per count, and a cell whose known models already reach
     ``thresh`` builds no solver;
3. find the ``m`` at which the cell size falls below ``thresh`` (galloping
   search seeded by the previous round's ``m``);
4. report ``cell_size × 2^m``, taking the median over ``t`` rounds.

The (ε, δ) guarantee is inherited from the published analysis:
``thresh = 1 + 9.84·(1 + ε/(1+ε))·(1 + 1/ε)²`` and a number of rounds that
grows with ``log(1/δ)``.  XOR constraints are CNF-encoded with a chain of
biconditionally defined parity auxiliaries, preserving the unique-extension
invariant, and cells are enumerated projected on the primary variables so the
auxiliaries never influence counts.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from time import monotonic

import numpy as np

from repro.counting.api import Capabilities
from repro.counting.exact import CounterTimeout
from repro.logic.cnf import CNF
from repro.sat.enumerate import count_models


@dataclass(frozen=True)
class XorConstraint:
    """A parity constraint ``xor(variables) = rhs``."""

    variables: tuple[int, ...]
    rhs: bool

    def holds(self, assignment: dict[int, bool]) -> bool:
        parity = False
        for v in self.variables:
            parity ^= assignment[v]
        return parity == self.rhs


def random_xor(projection: Sequence[int], rng: random.Random) -> XorConstraint:
    """Draw one hash constraint: each variable with probability ½, random rhs."""
    chosen = tuple(v for v in projection if rng.random() < 0.5)
    return XorConstraint(chosen, rng.random() < 0.5)


def encode_xor(cnf: CNF, constraint: XorConstraint) -> None:
    """Append the CNF encoding of ``constraint`` to ``cnf`` in place.

    Uses a linear chain: ``c₁ = x₁``, ``cᵢ = cᵢ₋₁ ⊕ xᵢ``, asserting the final
    chain variable equal to the parity bit.  Each ⊕ definition is four
    clauses; auxiliaries are biconditional so unique extension is preserved.
    """
    variables = constraint.variables
    if not variables:
        if constraint.rhs:
            # xor() = 0, so requiring rhs=1 is unsatisfiable.
            fresh = cnf.new_var()
            cnf.add_clause((fresh,))
            cnf.add_clause((-fresh,))
        return
    prev = variables[0]
    for v in variables[1:]:
        parity = cnf.new_var()
        # parity ↔ prev ⊕ v
        cnf.add_clause((-parity, prev, v))
        cnf.add_clause((-parity, -prev, -v))
        cnf.add_clause((parity, prev, -v))
        cnf.add_clause((parity, -prev, v))
        prev = parity
    cnf.add_clause((prev,) if constraint.rhs else (-prev,))


def compute_threshold(epsilon: float) -> int:
    """Cell-size pivot from the ApproxMC analysis."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return int(1 + 9.84 * (1 + epsilon / (1 + epsilon)) * (1 + 1 / epsilon) ** 2)


def compute_rounds(delta: float) -> int:
    """Number of median rounds for confidence 1 − δ (odd, ≥ 1).

    Uses the standard Chernoff-style bound ``t = ⌈17·log₂(3/δ)⌉`` from the
    ApproxMC papers, capped for practicality on a pure-Python stack; callers
    wanting the full published guarantee can pass ``rounds`` explicitly.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    t = math.ceil(17 * math.log2(3 / delta))
    t = min(t, 21)
    return t if t % 2 == 1 else t + 1


class _Cells:
    """One count's projected models, sized cell by cell under hashes.

    A model is an int key over the sorted ``projection``: bit ``i`` is the
    ``i``-th smallest projected variable, as
    :func:`~repro.sat.enumerate.count_models` takes models.
    """

    __slots__ = ("projection", "_bit")

    def __init__(self, projection: list[int]) -> None:
        self.projection = projection
        self._bit = {v: 1 << i for i, v in enumerate(projection)}

    def masks(self, xors: Sequence[XorConstraint]) -> list[tuple[int, bool]]:
        """Each constraint as ``(key bitmask, rhs)``."""
        return [(sum(self._bit[v] for v in xor.variables), xor.rhs) for xor in xors]


class _Found(_Cells):
    """The projected models of one CNF found so far by one ``count`` call.

    ``models`` holds the int keys found by projected AllSAT.  A model of
    one CNF is not a model of the next, so this lives only as long as a
    count.
    """

    __slots__ = ("models",)

    def __init__(self, projection: list[int]) -> None:
        super().__init__(projection)
        self.models: set[int] = set()

    def in_cell(self, xors: Sequence[XorConstraint]) -> set[int]:
        """The models found so far that satisfy every constraint of ``xors``."""
        hashes = self.masks(xors)
        return {
            x
            for x in self.models
            if all(((x & mask).bit_count() & 1) == rhs for mask, rhs in hashes)
        }

    def cell_size(self, cnf: CNF, xors: Sequence[XorConstraint], limit: int) -> int:
        """Models of ``cnf`` under ``xors``, capped at ``limit``, by AllSAT."""
        hashed = cnf.copy()
        for constraint in xors:
            encode_xor(hashed, constraint)
        known = self.in_cell(xors)
        size = count_models(
            hashed, projection=self.projection, limit=limit, known=known
        )
        self.models |= known
        return size


class _ModelSet(_Cells):
    """The complete projected model set of one CNF, as rows of ``uint64`` words.

    Bit ``i`` of a row's word ``w`` is column ``64·w + i``: the words are the
    little-endian bytes of the row's int key, read 8 at a time, and the hash
    masks are split the same way.
    """

    __slots__ = ("words",)

    def __init__(self, projection: list[int], models: np.ndarray) -> None:
        super().__init__(projection)
        models = np.asarray(models)
        k = len(projection)
        if models.ndim != 2 or models.shape[1] != k:
            raise ValueError(
                f"models must have one column per projected variable ({k}), "
                f"got shape {models.shape}"
            )
        packed = np.zeros((len(models), 8 * -(-k // 64)), dtype=np.uint8)
        packed[:, : -(-k // 8)] = np.packbits(models, axis=1, bitorder="little")
        self.words = packed.view("<u8")

    def cell_size(self, cnf: CNF, xors: Sequence[XorConstraint], limit: int) -> int:
        """Rows that satisfy every constraint of ``xors``, capped at ``limit``.

        ``cnf`` is not searched: the rows are all of its projected models.
        """
        cell = self.words
        for mask, rhs in self.masks(xors):
            mask_bytes = mask.to_bytes(8 * cell.shape[1], "little")
            mask_words = np.frombuffer(mask_bytes, dtype="<u8")
            cell = cell[(np.bitwise_count(cell & mask_words).sum(axis=1) & 1) == rhs]
        return min(len(cell), limit)


class ApproxMCCounter:
    """(ε, δ) approximate projected model counter."""

    name = "approxmc"
    capabilities = Capabilities(exact=False)

    def __init__(
        self,
        epsilon: float = 0.8,
        delta: float = 0.2,
        seed: int | None = 0,
        rounds: int | None = None,
        deadline: float | None = None,
    ) -> None:
        self.epsilon = epsilon
        self.delta = delta
        self.threshold = compute_threshold(epsilon)
        self.rounds = rounds if rounds is not None else compute_rounds(delta)
        self.deadline = deadline
        self._deadline_at: float | None = None
        self._rng = random.Random(seed)

    def _check_deadline(self) -> None:
        # Probed between cells (the unit of work here), so the abort
        # granularity is one bounded AllSAT call or filter, not one round.
        if self._deadline_at is not None and monotonic() > self._deadline_at:
            raise CounterTimeout(f"exceeded {self.deadline}s wall-clock deadline")

    def count(self, cnf: CNF, *, models: np.ndarray | None = None) -> int:
        """Approximate number of projected models.

        ``models``, when given, is the complete projected model set of
        ``cnf``: a ``(count, k)`` 0/1 array whose column ``i`` is the
        ``i``-th smallest projected variable.  Cells are then sized from it
        with no SAT search, and the estimate equals the one the AllSAT
        route gives.  ``ValueError`` if ``k`` does not match the projection.
        """
        self._deadline_at = (
            monotonic() + self.deadline if self.deadline is not None else None
        )
        projection = sorted(cnf.projected_vars())
        cells = _Found(projection) if models is None else _ModelSet(projection, models)
        # Quick exit: fewer than `threshold` solutions are counted exactly.
        exact_small = cells.cell_size(cnf, (), self.threshold)
        if exact_small < self.threshold:
            return exact_small

        estimates: list[int] = []
        prev_m = 0
        for _ in range(self.rounds):
            estimate, prev_m = self._one_round(cnf, cells, prev_m)
            if estimate is not None:
                estimates.append(estimate)
        if not estimates:
            raise RuntimeError("all ApproxMC rounds failed to converge")
        estimates.sort()
        return estimates[len(estimates) // 2]

    # -- internals -----------------------------------------------------------------

    def _cell_size(
        self, cnf: CNF, cells: _Cells, xors: Sequence[XorConstraint], m: int
    ) -> int:
        """Solutions in the cell carved by the first ``m`` hashes, capped."""
        self._check_deadline()
        return cells.cell_size(cnf, xors[:m], self.threshold)

    def _one_round(
        self, cnf: CNF, cells: _Cells, prev_m: int
    ) -> tuple[int | None, int]:
        """One ApproxMCCore invocation: returns (estimate or None, final m)."""
        max_m = len(cells.projection)
        xors = [random_xor(cells.projection, self._rng) for _ in range(max_m)]

        def small_enough(m: int) -> tuple[bool, int]:
            size = self._cell_size(cnf, cells, xors, m)
            return size < self.threshold, size

        # Galloping search for the frontier m*: cell(m*) < thresh ≤ cell(m*-1).
        m = min(max(prev_m, 1), max_m)
        ok, size = small_enough(m)
        if ok:
            # Walk down until the cell saturates again.  When the walk
            # reaches m = 1, ``size`` already holds cell(1) — either from
            # the initial probe (m started at 1) or from the last
            # successful ``small_enough(m - 1)`` — so no re-enumeration.
            while m > 1:
                ok_below, size_below = small_enough(m - 1)
                if ok_below:
                    m -= 1
                    size = size_below
                else:
                    break
            return size * (1 << m), m
        # Walk up until the cell becomes small.
        while m < max_m:
            m += 1
            ok, size = small_enough(m)
            if ok:
                return size * (1 << m), m
        return None, prev_m


def approx_count(
    cnf: CNF,
    epsilon: float = 0.8,
    delta: float = 0.2,
    seed: int | None = 0,
) -> int:
    """One-shot approximate projected model count."""
    return ApproxMCCounter(epsilon=epsilon, delta=delta, seed=seed).count(cnf)
