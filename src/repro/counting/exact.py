"""Exact projected model counting (ProjMC-style backend) over packed bitmasks.

The counter is a DPLL-style projected #SAT procedure in the
sharpSAT/ProjMC lineage:

* unit propagation with failure detection as whole-formula mask sweeps:
  each pass applies the accumulated true/false masks to every clause with a
  handful of integer ops and collects the units it exposes, repeating until
  a pass assigns nothing.  (An occurrence-list variant was profiled out:
  rebuilding the per-literal lists at every search node dominated the whole
  counter — see ``benchmarks/run_bench.py --profile``);
* decomposition of the residual formula into connected components (on the
  clause/variable incidence graph), counted independently and multiplied;
* component caching keyed on packed clause signatures.  The counter owns
  one bounded LRU (:class:`repro.counting.component_cache.ComponentCache`)
  that *persists across* ``count()`` calls — every cached count is a pure
  function of its key, so warm hits are bit-identical to cold recounts —
  and :class:`repro.counting.engine.CountingEngine` counts every problem
  of every batch through it;
* branching restricted to *projection* variables (the ``n²`` relation
  bits), chosen by :func:`_branch_bit`: along the lex-leader chains while
  a component still has auxiliaries, by a weighted occurrence score once
  it has none; auxiliary Tseitin variables are never decision variables —
  they are fixed by propagation, and a residual component containing no
  projection variable only needs a satisfiability check (each projected
  model is counted once regardless of how many auxiliary extensions it
  has).

Representation.  The hot path never manipulates literal tuples: ``count``
renumbers the occurring variables into a dense ``0..k-1`` index
(:meth:`repro.logic.cnf.CNF.packed_view`) and every clause becomes a
``(pos_mask, neg_mask)`` pair of Python ints.  Asserting a literal,
detecting units/empty clauses, splitting components and computing free
variables are then single integer ops per clause, and cache keys are
``frozenset``s of those ``(pos_mask, neg_mask)`` tuples.  ``_assign`` and
``_propagate`` pass a clause they leave unchanged through as the same
tuple, so cache keys share clause objects instead of each holding copies
for the cyclic garbage collector to walk.  The original tuple-based
algorithm is preserved in :mod:`repro.counting.legacy` as a differential
baseline.

Projection.  Because the search *is* projected counting, the counter no
longer needs the ``aux_unique`` unique-extension flag to be correct: the
flag (DESIGN.md §5.2) merely records that plain #SAT would agree with the
projected count.  Both flagged and unflagged CNFs take the same code path,
which replaces the seed's slow CDCL-oracle fallback for externally
supplied CNFs.
"""

from __future__ import annotations

from time import monotonic

from repro.counting.api import Capabilities
from repro.counting.component_cache import ComponentCache
from repro.logic.cnf import CNF, MaskClause

#: Search nodes between wall-clock probes when a deadline is armed: the
#: monotonic() call stays off the per-node path, and at Python node rates
#: (~1M nodes/s at best) the cadence bounds overshoot well under a
#: millisecond.
_DEADLINE_CHECK_MASK = 127


class CounterAbort(Exception):
    """A count was abandoned before producing a value (budget or deadline).

    The common base of the two resource-limit aborts, so callers that
    treat "the counter gave up" uniformly — the engine's per-problem
    failures, retry loops — can catch one type.  Partial work (component
    cache entries, elimination memos) survives the abort, which is what
    makes a retried count resume warm instead of starting over.
    """


class CounterBudgetExceeded(CounterAbort):
    """Raised when the counter exceeds its node budget (a portable timeout)."""


class CounterTimeout(CounterAbort):
    """Raised when the counter exceeds its wall-clock deadline.

    The paper's 5000-second timeout, enforced cooperatively: the search
    probes ``time.monotonic()`` every :data:`_DEADLINE_CHECK_MASK` + 1
    nodes, so the abort lands within the deadline plus one probe interval.
    A count that finishes in fewer nodes never reads the clock, so no
    deadline, however small, interrupts it.
    """


class ExactCounter:
    """Exact (projected) model counter.

    Parameters
    ----------
    max_nodes:
        Budget on search nodes; ``CounterBudgetExceeded`` is raised when
        exhausted.  This substitutes for the paper's 5000-second timeout.
        The budget is per ``count()`` call; a warm component cache makes a
        call spend fewer nodes, never more.
    deadline:
        Wall-clock seconds per ``count()`` call; ``CounterTimeout`` is
        raised when exceeded (checked cooperatively at the node-budget
        cadence, so the abort lands within a few milliseconds of the
        deadline).  ``None`` (default) disables the clock.  Unlike the
        node budget, a deadline is machine-dependent — counts themselves
        remain bit-identical; only *whether a count finishes* varies.
    component_cache:
        The component cache counted through, surviving across ``count()``
        calls: a fresh bounded :class:`ComponentCache` by default, or a
        given instance to pool components across counters.  Cached counts
        are pure functions of their keys, so either way produces
        bit-identical counts.
    """

    name = "exact"
    #: Declared contract (see :class:`repro.counting.api.Capabilities`):
    #: every count goes through the ``component_cache`` attribute.
    capabilities = Capabilities(exact=True, owns_component_cache=True)

    def __init__(
        self,
        max_nodes: int = 5_000_000,
        component_cache: ComponentCache | None = None,
        deadline: float | None = None,
    ) -> None:
        self.max_nodes = max_nodes
        self.deadline = deadline
        self._nodes = 0
        self._deadline_at: float | None = None
        self.component_cache = (
            component_cache if component_cache is not None else ComponentCache()
        )

    # -- public API ---------------------------------------------------------------

    def count(self, cnf: CNF) -> int:
        """Number of models of ``cnf`` projected onto ``cnf.projected_vars()``."""
        self._nodes = 0
        self._deadline_at = (
            monotonic() + self.deadline if self.deadline is not None else None
        )
        # Bound per call, so a cache assigned after construction is used.
        cache = self.component_cache
        self._cache_get = cache.get
        self._cache_put = cache.put
        if any(len(clause) == 0 for clause in cnf.clauses):
            return 0  # an empty clause is unsatisfiable
        projection = cnf.projected_vars()
        packed = cnf.packed_view()
        proj_mask = 0
        index = packed.index
        for var in projection:
            bit_index = index.get(var)
            if bit_index is not None:
                proj_mask |= 1 << bit_index
        # Projection variables not occurring in any clause are free.
        multiplier = 1 << (len(projection) - proj_mask.bit_count())

        # Top-level simplification: one propagation pass, then bounded
        # Davis-Putnam elimination of the auxiliary variables.  Resolving a
        # non-projected variable away (∃-elimination) preserves the
        # projected model count exactly, and Tseitin definitions resolve
        # away with *fewer* clauses than they came with, so the search runs
        # on a formula close to the projection instead of the full encoding.
        simplified = _propagate(packed.clauses)
        if simplified is None:
            return 0
        residual, true_mask, false_mask, residual_vars = simplified
        occurring = (1 << packed.num_vars) - 1  # the dense space is exactly
        # the occurring variables
        vanished = occurring & ~residual_vars & ~(true_mask | false_mask)
        multiplier <<= (vanished & proj_mask).bit_count()
        eliminated = self._eliminate_memoized(residual, proj_mask)
        if eliminated is None:
            return 0
        eliminated_vars = 0
        for pos, neg in eliminated:
            eliminated_vars |= pos | neg
        # Projection variables whose every constraint resolved away are free.
        multiplier <<= ((residual_vars & proj_mask) & ~eliminated_vars).bit_count()
        return multiplier * self._sharp(eliminated, proj_mask, eliminated_vars)

    def _eliminate_memoized(
        self, residual: list[MaskClause], proj_mask: int
    ) -> list[MaskClause] | None:
        """Top-level auxiliary elimination, memoized in the persistent cache.

        Davis-Putnam elimination only ever rewrites clauses containing an
        auxiliary pivot; clauses entirely inside the projection are inert —
        they can never hold a pivot, and the NiVER bound only counts pivot
        clauses.  So the input splits into an *active* (aux-touching) part
        and an inert remainder, and only the active part is eliminated —
        keyed in the component cache, because MCML batches conjoin one φ
        with many projection-only tree regions: every problem of such a
        batch shares φ's active part exactly, and elimination (~40% of a
        conjunction's count time, see ``run_bench.py --profile``) is paid
        once per batch instead of once per problem.
        """
        cache = self.component_cache
        active: list[MaskClause] = []
        inert: list[MaskClause] = []
        for clause in residual:
            if (clause[0] | clause[1]) & ~proj_mask:
                active.append(clause)
            else:
                inert.append(clause)
        if not active:
            return residual
        key = ("elim", frozenset(active), proj_mask)
        cached = cache.get(key)
        if cached is not None:
            return None if cached == "unsat" else inert + list(cached)
        eliminated = _eliminate(active, proj_mask)
        cache.put(key, "unsat" if eliminated is None else tuple(eliminated))
        if eliminated is None:
            return None
        return inert + eliminated

    # -- projected #SAT with component caching --------------------------------------

    def _sharp(
        self,
        clauses: list[MaskClause],
        proj: int,
        occurring: int | None = None,
        has_units: bool = True,
    ) -> int:
        """#projected models over the variables occurring in ``clauses``.

        ``proj`` is the packed mask of projection variables *in the dense
        space the clauses currently live in* — component subproblems are
        re-packed into their own narrower space (see :func:`_repack`).
        ``occurring`` (the union of the clauses' variable masks) is passed
        down by callers that already computed it; ``has_units=False`` lets
        :meth:`_count_component` skip propagation for branches ``_assign``
        proved unit-free.

        Every cached value is a pure function of its key — the clause set
        plus the projection restricted to the occurring variables — which is
        what makes the cache shareable across calls and problems.
        """
        if not clauses:
            return 1
        if occurring is None:
            occurring = 0
            for pos, neg in clauses:
                occurring |= pos | neg
        # Restricting ``proj`` to the occurring variables canonicalises the
        # key: the count never depends on projection bits outside them.
        key = (frozenset(clauses), proj & occurring)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise CounterBudgetExceeded(f"exceeded {self.max_nodes} nodes")
        if (
            self._deadline_at is not None
            and self._nodes & _DEADLINE_CHECK_MASK == 0
            and monotonic() > self._deadline_at
        ):
            raise CounterTimeout(f"exceeded {self.deadline}s wall-clock deadline")

        if has_units:
            simplified = _propagate(clauses)
            if simplified is None:
                self._cache_put(key, 0)
                return 0
            residual, true_mask, false_mask, residual_vars = simplified
            # Projection variables fixed by propagation contribute a single
            # assignment each; projection variables that *disappeared*
            # without being fixed are free.  Auxiliaries never multiply.
            vanished = occurring & ~residual_vars & ~(true_mask | false_mask)
            total = 1 << (vanished & proj).bit_count()
        else:
            residual, residual_vars, total = clauses, occurring, 1
        if residual:
            product = 1
            for component_vars, component in _split_components(residual):
                product *= self._count_component(component, component_vars, proj)
                if product == 0:
                    break
            total *= product
        self._cache_put(key, total)
        return total

    def _count_component(
        self, clauses: list[MaskClause], component_vars: int, proj: int
    ) -> int:
        # Re-pack sparse components into their own dense space: masks shrink
        # to popcount-many bits (often a single machine word) and the cache
        # key becomes canonical, so isomorphic components met anywhere in
        # the search — including in *other* problems sharing the cache —
        # share one entry.
        if component_vars.bit_length() - component_vars.bit_count() >= 64:
            clauses, proj = _repack(clauses, component_vars, proj)
            component_vars = (1 << component_vars.bit_count()) - 1
        projected = component_vars & proj
        key = (frozenset(clauses), projected)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        if not projected:
            # Auxiliary-only component: it contributes one choice per
            # projected model if satisfiable, none otherwise.
            total = 1 if self._satisfiable(clauses) else 0
            self._cache_put(key, total)
            return total
        bit = _branch_bit(clauses, projected, component_vars & ~projected)
        residual_projected = projected & ~bit
        total = 0
        for positive in (True, False):
            branch = _assign(clauses, bit, positive)
            if branch is None:
                continue
            residual, has_units, branch_vars = branch
            free = (residual_projected & ~branch_vars).bit_count()
            total += (1 << free) * self._sharp(
                residual, proj, branch_vars, has_units
            )
        self._cache_put(key, total)
        return total

    def _satisfiable(self, clauses: list[MaskClause]) -> bool:
        """DPLL satisfiability of a (typically tiny, auxiliary-only) residual."""
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise CounterBudgetExceeded(f"exceeded {self.max_nodes} nodes")
        if (
            self._deadline_at is not None
            and self._nodes & _DEADLINE_CHECK_MASK == 0
            and monotonic() > self._deadline_at
        ):
            raise CounterTimeout(f"exceeded {self.deadline}s wall-clock deadline")
        simplified = _propagate(clauses)
        if simplified is None:
            return False
        residual = simplified[0]
        if not residual:
            return True
        pos, neg = residual[0]
        mask = pos | neg
        bit = mask & -mask
        for positive in (True, False):
            branch = _assign(residual, bit, positive)
            if branch is not None and self._satisfiable(branch[0]):
                return True
        return False


def exact_count(
    cnf: CNF, max_nodes: int = 5_000_000, deadline: float | None = None
) -> int:
    """One-shot exact projected model count."""
    return ExactCounter(max_nodes=max_nodes, deadline=deadline).count(cnf)


# -- packed clause helpers --------------------------------------------------------------


def _eliminate(
    clauses: list[MaskClause], proj: int, max_passes: int = 50
) -> list[MaskClause] | None:
    """Bounded Davis-Putnam elimination of non-projected variables.

    Each pass visits the auxiliary variables in increasing order and
    resolves one out of the formula whenever the resolvent set is no larger
    than the clauses it replaces (the NiVER bound), which keeps the clause
    count monotonically non-increasing.  Because the variable is
    existentially quantified in projected counting, each elimination
    preserves the projected model count exactly; pure auxiliary literals
    fall out as the special case of an empty resolvent set.  Passes repeat
    until one eliminates nothing.

    An occurrence index finds each auxiliary's clauses without a scan of
    the others.  Every clause has an id, ids only grow, and resolvents take
    fresh ids, so the insertion-ordered dicts list clauses in working-list
    order, which the result keeps: replaced clauses drop out, and the
    resolvents, de-duplicated among themselves, follow the survivors.
    Returns the reduced clause list, or ``None`` when an empty resolvent
    proves the formula unsatisfiable.
    """
    work: dict[int, MaskClause] = dict(enumerate(dict.fromkeys(clauses)))
    occurs: dict[int, dict[int, None]] = {}
    for cid, (pos, neg) in work.items():
        aux = (pos | neg) & ~proj
        while aux:
            bit = aux & -aux
            aux ^= bit
            occurs.setdefault(bit, {})[cid] = None
    next_id = len(work)
    for _ in range(max_passes):
        changed = False
        for bit in sorted(bit for bit, ids in occurs.items() if ids):
            ids = occurs[bit]
            if not ids:
                continue  # every clause of ``bit`` resolved away this pass
            with_pos: list[MaskClause] = []
            with_neg: list[MaskClause] = []
            for cid in ids:
                clause = work[cid]
                if clause[0] & bit:
                    with_pos.append(clause)
                else:
                    with_neg.append(clause)
            limit = len(ids)
            clear = ~bit
            resolvents: list[MaskClause] = []
            bounded = True
            for pos_a, neg_a in with_pos:
                pos_a &= clear
                for pos_b, neg_b in with_neg:
                    res_pos = pos_a | pos_b
                    res_neg = neg_a | (neg_b & clear)
                    if res_pos & res_neg:
                        continue  # tautology
                    if not (res_pos | res_neg):
                        return None  # empty resolvent: unsatisfiable
                    resolvents.append((res_pos, res_neg))
                    if len(resolvents) > limit:
                        bounded = False
                        break
                if not bounded:
                    break
            if not bounded:
                continue
            for cid in list(ids):
                pos, neg = work.pop(cid)
                aux = (pos | neg) & ~proj
                while aux:
                    other = aux & -aux
                    aux ^= other
                    del occurs[other][cid]
            for clause in dict.fromkeys(resolvents):
                work[next_id] = clause
                aux = (clause[0] | clause[1]) & ~proj
                while aux:
                    other = aux & -aux
                    aux ^= other
                    occurs[other][next_id] = None
                next_id += 1
            changed = True
        if not changed:
            break
    return list(work.values())


def _repack(
    clauses: list[MaskClause], component_vars: int, proj: int
) -> tuple[list[MaskClause], int]:
    """Re-pack a component into its own dense bit space.

    The set bits of ``component_vars`` are renumbered ``0..k-1`` in
    ascending order (order-preserving, hence canonical); returns the
    translated clauses and projection mask.
    """
    table: dict[int, int] = {}
    new_bit = 1
    mask = component_vars
    while mask:
        bit = mask & -mask
        mask ^= bit
        table[bit] = new_bit
        new_bit <<= 1
    new_clauses: list[MaskClause] = []
    for pos, neg in clauses:
        new_pos = new_neg = 0
        while pos:
            bit = pos & -pos
            pos ^= bit
            new_pos |= table[bit]
        while neg:
            bit = neg & -neg
            neg ^= bit
            new_neg |= table[bit]
        new_clauses.append((new_pos, new_neg))
    new_proj = 0
    mask = proj & component_vars
    while mask:
        bit = mask & -mask
        mask ^= bit
        new_proj |= table[bit]
    return new_clauses, new_proj


def _assign(
    clauses: list[MaskClause], bit: int, positive: bool
) -> tuple[list[MaskClause], bool, int] | None:
    """Residual clauses after asserting packed var ``bit``; None on conflict.

    Returns ``(residual, has_units, residual_vars)``: whether the
    assignment exposed any unit clause, and the union of the residual's
    variable masks — both computed for free during the sweep so callers
    skip a rescan.  ``has_units`` assumes the *input* is unit-free, which
    holds at every call site (inputs are post-propagation residuals).
    """
    out: list[MaskClause] = []
    append = out.append
    has_units = False
    residual_vars = 0
    if positive:
        for clause in clauses:
            pos, neg = clause
            if pos & bit:
                continue  # satisfied
            if neg & bit:
                neg ^= bit
                mask = pos | neg
                if not mask:
                    return None
                if mask & (mask - 1) == 0:
                    has_units = True
                residual_vars |= mask
                append((pos, neg))
            else:
                residual_vars |= pos | neg
                append(clause)
    else:
        for clause in clauses:
            pos, neg = clause
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
                append((pos, neg))
            else:
                residual_vars |= pos | neg
                append(clause)
    return out, has_units, residual_vars


def _propagate(
    clauses: list[MaskClause],
) -> tuple[list[MaskClause], int, int, int] | None:
    """Exhaustive unit propagation over packed clauses via mask sweeps.

    Returns ``(residual clauses, true_mask, false_mask, residual_vars)`` —
    the masks of variables fixed true/false by propagation and the union of
    the residual's variable masks — or ``None`` on conflict.

    Each pass applies the accumulated assignment masks to every clause
    (satisfied → dropped, falsified literals → stripped, exposed units →
    absorbed into the masks) and repeats until a pass assigns nothing.
    Units are applied *live* within a pass, so forward implication chains
    collapse in one sweep.  This replaced an occurrence-list propagator
    whose per-node list construction dominated the whole counter's profile
    (~40% of total time at scope 5): a pass is a handful of int ops per
    clause, with no per-literal dict traffic at all.
    """
    true_mask = 0
    false_mask = 0
    work = clauses
    while True:
        residual: list[MaskClause] = []
        append = residual.append
        assigned = true_mask | false_mask
        residual_vars = 0
        progressed = False
        for clause in work:
            pos, neg = clause
            mask = pos | neg
            if not (mask & assigned):
                # Untouched by any assignment so far (a unit is impossible
                # here: inputs are unit-free after the first sweep, and the
                # first sweep's masks start empty only until its first unit).
                if mask & (mask - 1):
                    residual_vars |= mask
                    append(clause)
                else:
                    if pos:
                        true_mask |= mask
                    else:
                        false_mask |= mask
                    assigned |= mask
                    progressed = True
                continue
            if pos & true_mask or neg & false_mask:
                continue  # satisfied by an assignment made so far
            pos &= ~false_mask
            neg &= ~true_mask
            mask = pos | neg
            if not mask:
                return None  # every literal falsified: conflict
            if mask & (mask - 1) == 0:
                # A unit: absorb it into the assignment.  A contradicting
                # unit later in the sweep strips to the empty clause above.
                if pos:
                    true_mask |= mask
                else:
                    false_mask |= mask
                assigned |= mask
                progressed = True
            else:
                residual_vars |= mask
                append((pos, neg))
        if not progressed:
            # Nothing assigned this pass, so every surviving clause was
            # checked against the final masks: the residual is exact.
            return residual, true_mask, false_mask, residual_vars
        work = residual


def _split_components(
    clauses: list[MaskClause],
) -> list[tuple[int, list[MaskClause]]]:
    """Partition clauses into connected components by shared variables.

    Components are grown by merging variable masks: a clause joins every
    existing group its mask intersects, fusing them.  Returns
    ``(component_vars, component clauses)`` pairs — the mask comes free
    from the merge, sparing callers a rescan.
    """
    # First merge variable masks only (no clause lists to copy around) …
    masks: list[int] = []
    for pos, neg in clauses:
        mask = pos | neg
        kept: list[int] = []
        for group_mask in masks:
            if group_mask & mask:
                mask |= group_mask
            else:
                kept.append(group_mask)
        kept.append(mask)
        masks = kept
    if len(masks) == 1:
        return [(masks[0], clauses)]
    # … then distribute the clauses over the (disjoint) final masks.
    buckets: list[list[MaskClause]] = [[] for _ in masks]
    for clause in clauses:
        mask = clause[0] | clause[1]
        for gi, group_mask in enumerate(masks):
            if group_mask & mask:
                buckets[gi].append(clause)
                break
    return list(zip(masks, buckets))


def _branch_bit(clauses: list[MaskClause], projected: int, aux: int) -> int:
    """The projection variable (a power of two within ``projected``) that a
    component with auxiliaries ``aux`` branches on.

    While auxiliaries remain — in the symmetry-broken spaces these are the
    lex-leader chains ``leq_k`` of :func:`repro.spec.symmetry.lex_leq` that
    elimination leaves — the choice is the lowest projection variable
    sharing a clause with one of them, the chain's next row-major position.
    ``lex_leq``'s recurrence ``leq_k = (¬a_k ∧ b_k) ∨ ((a_k ↔ b_k) ∧
    leq_{k+1})`` settles ``leq_k`` or hands it on to ``leq_{k+1}`` once the
    positions of link ``k`` are fixed, so branching front to back leaves the
    tail of the same chain in every branch, and those tails repeat across
    branches and hit the component cache.  Branching on a later position
    leaves every link before it open.

    A component with no auxiliary takes the variable with the highest
    occurrence score, occurrences in short clauses weighted up (16× for
    binary, 4× for ternary): assigning such a variable immediately creates
    units, so the branch collapses further under propagation.  Row-major
    order there costs nodes: in one perfbench ``whole_space`` round, Tables
    8 and 9 took 3,487 and 1,450 nodes that way instead of 404 and 415.
    """
    if aux:
        touching = 0
        for pos, neg in clauses:
            mask = pos | neg
            if mask & aux:
                touching |= mask
        touching &= projected
        return touching & -touching
    counts: dict[int, int] = {}
    get = counts.get
    for pos, neg in clauses:
        mask = pos | neg
        size = mask.bit_count()
        weight = 16 if size == 2 else (4 if size == 3 else 1)
        mask &= projected
        while mask:
            bit = mask & -mask
            counts[bit] = get(bit, 0) + weight
            mask ^= bit
    return max(counts, key=counts.get)
