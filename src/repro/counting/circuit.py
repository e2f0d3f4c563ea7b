"""Smooth-circuit knowledge compilation: compile once, query forever.

The paper's related-work section contrasts MCML's direct CNF counting with
*compilation* approaches (ODDs/OBDDs, d-DNNF).  The dominant MCML workload
is *same φ, many regions*: every AccMC/DiffMC ratio sweep counts the same
base formula conjoined with many disjoint path cubes.  Direct counting
pays a (cache-assisted) search per region; a compiled form pays one
compilation and then answers each region query with a linear pass over the
DAG.

This module is the compilation machinery:

* :class:`CircuitBuilder` — the reduced-OBDD construction kernel (unique
  table, memoised apply-AND, linear clause builder) under a node budget
  and an optional wall-clock deadline, honouring the
  :class:`~repro.counting.exact.CounterAbort` taxonomy
  (:class:`CounterBudgetExceeded` / :class:`CounterTimeout`).
* :class:`Circuit` — the frozen, picklable compilation result.  A reduced
  OBDD *is* a d-DNNF circuit (every decision node is a deterministic OR of
  two ANDs; smoothing is implicit in the level-gap powers of two), so the
  two query passes are linear in the DAG: :meth:`Circuit.model_count` and
  :meth:`Circuit.condition`, which answers ``mc(circuit ∧ cube)`` for a
  *unit cube* (a conjunction of literals — exactly the
  ``label_cubes``-shaped per-path queries) without rebuilding anything.
* :func:`compile_cnf` — CNF → :class:`Circuit`, widest clauses first.
* :class:`CompiledCounter` — the ``compiled`` registry backend.  It is the
  only backend declaring ``conditions_cubes=True``: the engine compiles a
  per-path base once (persisting it in the :class:`CircuitStore` tier) and
  serves every ``mc(φ∧path)`` sub-problem by conditioning.

Compilation is restricted to auxiliary-free CNFs (decision-tree
regions): projecting Tseitin auxiliaries out of an OBDD would need
existential quantification, which is exactly the blow-up compilation is
meant to avoid.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from time import monotonic

from repro.counting.api import Capabilities
from repro.counting.exact import CounterBudgetExceeded, CounterTimeout
from repro.logic.cnf import CNF

# Terminal node ids.
ZERO = 0
ONE = 1

#: Node creations between wall-clock probes when a deadline is armed:
#: construction work between probes is microseconds, so the abort lands
#: within the deadline plus one probe interval.
_DEADLINE_CHECK_MASK = 0xFF


class CircuitBuilder:
    """A reduced ordered BDD forest over levels 0..k-1 (order = index).

    The construction kernel of the ``compiled`` backend.  ``max_nodes``
    bounds the *total* node count (terminals included): the node that
    would make the table exceed the budget raises
    :class:`CounterBudgetExceeded` before it is created.  ``deadline``
    arms a cooperative wall clock probed every few hundred node creations
    (:class:`CounterTimeout`).
    """

    def __init__(
        self, num_levels: int, max_nodes: int, deadline: float | None = None
    ) -> None:
        self.num_levels = num_levels
        self.max_nodes = max_nodes
        self._deadline = deadline
        self._deadline_at = monotonic() + deadline if deadline is not None else None
        # node id -> (level, low, high); terminals are implicit.
        self.level: list[int] = [num_levels, num_levels]
        self.low: list[int] = [-1, -1]
        self.high: list[int] = [-1, -1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[int, int], int] = {}

    def node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self.level)
        if node_id >= self.max_nodes:
            raise CounterBudgetExceeded(f"circuit exceeded {self.max_nodes} nodes")
        if (
            self._deadline_at is not None
            and not (node_id & _DEADLINE_CHECK_MASK)
            and monotonic() > self._deadline_at
        ):
            raise CounterTimeout(f"exceeded {self._deadline}s wall-clock deadline")
        self.level.append(level)
        self.low.append(low)
        self.high.append(high)
        self._unique[key] = node_id
        return node_id

    def literal(self, level: int, positive: bool) -> int:
        if positive:
            return self.node(level, ZERO, ONE)
        return self.node(level, ONE, ZERO)

    def conjoin(self, a: int, b: int) -> int:
        """apply(AND, a, b) with memoisation."""
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        if a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        la, lb = self.level[a], self.level[b]
        top = min(la, lb)
        a_low, a_high = (self.low[a], self.high[a]) if la == top else (a, a)
        b_low, b_high = (self.low[b], self.high[b]) if lb == top else (b, b)
        result = self.node(top, self.conjoin(a_low, b_low), self.conjoin(a_high, b_high))
        self._apply_cache[key] = result
        return result

    def disjoin_literals(self, literals: Sequence[tuple[int, bool]]) -> int:
        """BDD for a clause: literals as (level, positive), any order."""
        # Build bottom-up in descending level order for linear size.
        root = ZERO
        for level, positive in sorted(literals, reverse=True):
            if positive:
                root = self.node(level, root, ONE)
            else:
                root = self.node(level, ONE, root)
        return root

    def count(self, root: int) -> int:
        """Number of models over all ``num_levels`` variables."""
        if root == ZERO:
            return 0
        memo: dict[int, int] = {ZERO: 0, ONE: 1}

        def models_below(node: int) -> int:
            """Models over variables at levels ≥ level(node)."""
            cached = memo.get(node)
            if cached is None:
                lvl = self.level[node]
                lo, hi = self.low[node], self.high[node]
                lo_models = models_below(lo) << (self.level[lo] - lvl - 1)
                hi_models = models_below(hi) << (self.level[hi] - lvl - 1)
                cached = lo_models + hi_models
                memo[node] = cached
            return cached

        return models_below(root) << self.level[root]


class Circuit:
    """A compiled smooth decision circuit, frozen and picklable.

    The query-forever half of compile-once-query-forever: plain int lists
    (node id → level/low/high), the root id and the DIMACS variable each
    level decides.  Both query passes are linear in the DAG and never
    touch the originating CNF, builder or backend again — a circuit read
    back from the :class:`~repro.counting.store.CircuitStore` answers
    queries identically to the one just compiled.
    """

    __slots__ = ("variables", "num_levels", "level", "low", "high", "root", "_index")

    def __init__(
        self,
        variables: Sequence[int],
        level: Sequence[int],
        low: Sequence[int],
        high: Sequence[int],
        root: int,
    ) -> None:
        #: DIMACS variable decided at each level, in level order.
        self.variables = tuple(variables)
        self.num_levels = len(self.variables)
        self.level = list(level)
        self.low = list(low)
        self.high = list(high)
        self.root = root
        self._index = {variable: i for i, variable in enumerate(self.variables)}

    @property
    def node_count(self) -> int:
        """Total nodes in the table (terminals and dead nodes included)."""
        return len(self.level)

    def __getstate__(self):
        # _index is derived; rebuilding it on load keeps pickles minimal.
        return (self.variables, self.level, self.low, self.high, self.root)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:
        return (
            f"Circuit(levels={self.num_levels}, nodes={self.node_count}, "
            f"root={self.root})"
        )

    def model_count(self) -> int:
        """Models over all circuit variables (the empty-cube conditioning)."""
        return self.condition(())

    def condition(self, cube: Iterable[int]) -> int:
        """``mc(circuit ∧ cube)`` for a unit cube of DIMACS literals.

        One DP pass over the DAG — linear in circuit size however many
        times it is called.  At a node whose variable the cube fixes, only
        the matching child contributes; the smoothing gap between a node
        and its child multiplies by 2 per *unfixed* skipped level (a fixed
        skipped level has exactly one admissible value).  A cube fixing
        some variable both ways denotes the empty region: 0.  Variables
        outside the circuit raise ``ValueError`` — a cube over foreign
        variables is a caller bug, not an empty region.
        """
        fixed: dict[int, bool] = {}
        for literal in cube:
            level = self._index.get(abs(literal))
            if level is None:
                raise ValueError(
                    f"cube variable {abs(literal)} is not among the circuit's "
                    f"{self.num_levels} variables"
                )
            value = literal > 0
            if fixed.setdefault(level, value) != value:
                return 0  # x ∧ ¬x: the empty region
        if self.root == ZERO:
            return 0
        # free_before[i]: unfixed levels strictly above level i.
        free_before = [0] * (self.num_levels + 1)
        for i in range(self.num_levels):
            free_before[i + 1] = free_before[i] + (i not in fixed)
        level, low, high = self.level, self.low, self.high
        memo: dict[int, int] = {ZERO: 0, ONE: 1}

        def models_below(node: int) -> int:
            """Admissible models over unfixed variables at levels ≥ level(node)."""
            cached = memo.get(node)
            if cached is None:
                lvl = level[node]
                lo, hi = low[node], high[node]
                value = fixed.get(lvl)
                lo_models = (
                    0
                    if value is True
                    else models_below(lo) << (free_before[level[lo]] - free_before[lvl + 1])
                )
                hi_models = (
                    0
                    if value is False
                    else models_below(hi) << (free_before[level[hi]] - free_before[lvl + 1])
                )
                cached = lo_models + hi_models
                memo[node] = cached
            return cached

        return models_below(self.root) << free_before[self.level[self.root]]


def compile_cnf(
    cnf: CNF, max_nodes: int = 2_000_000, deadline: float | None = None
) -> Circuit:
    """Compile an auxiliary-free CNF into a :class:`Circuit`.

    Levels follow sorted projected-variable order; clauses are conjoined
    widest first (keeps intermediate BDDs smaller on the path-condition
    formulas MCML generates).  Raises ``ValueError`` when clause variables
    stick out of the projection — see the module docstring — and the
    :class:`CounterAbort` taxonomy under ``max_nodes``/``deadline``.
    """
    projection = sorted(cnf.projected_vars())
    if not cnf.variables() <= set(projection):
        raise ValueError(
            "circuit compilation requires clause variables ⊆ projection "
            "(auxiliary-free CNF)"
        )
    index = {v: i for i, v in enumerate(projection)}
    builder = CircuitBuilder(
        num_levels=len(projection), max_nodes=max_nodes, deadline=deadline
    )
    root = ONE
    for clause in sorted(cnf.clauses, key=len, reverse=True):
        literals = [(index[abs(l)], l > 0) for l in clause]
        root = builder.conjoin(root, builder.disjoin_literals(literals))
        if root == ZERO:
            break  # unsatisfiable: the ZERO-rooted circuit conditions to 0
    return Circuit(projection, builder.level, builder.low, builder.high, root)


class CompiledCounter:
    """Exact counting by knowledge compilation (the ``compiled`` backend).

    ``count`` compiles and model-counts in one go (so the backend is a
    drop-in exact counter for auxiliary-free CNFs); ``compile`` exposes
    the circuit itself, which is what ``conditions_cubes=True`` promises
    the engine: per-path sub-problems ``mc(φ∧path)`` are answered by
    :meth:`Circuit.condition` on one cached circuit instead of one count
    per path (see :meth:`CountingEngine.solve_many`).

    ``max_nodes``/``deadline`` are the engine's ``_limits`` surface — the
    same budget/deadline attributes every other backend exposes, applied
    to the compilation (queries are linear and never abort).
    """

    name = "compiled"
    exact = True
    #: Exact by compilation, auxiliary-free (no existential projection
    #: over an OBDD), and able to answer unit-cube conditioning queries
    #: from one compiled circuit.
    capabilities = Capabilities(
        exact=True,
        counts_formulas=False,
        supports_projection=False,
        owns_component_cache=False,
        conditions_cubes=True,
    )

    def __init__(
        self, max_nodes: int = 2_000_000, deadline: float | None = None
    ) -> None:
        self.max_nodes = max_nodes
        self.deadline = deadline

    def compile(self, cnf: CNF) -> Circuit:
        """CNF → reusable :class:`Circuit` under the current limits."""
        return compile_cnf(cnf, max_nodes=self.max_nodes, deadline=self.deadline)

    def count(self, cnf: CNF) -> int:
        return self.compile(cnf).model_count()


def compiled_count(cnf: CNF, max_nodes: int = 2_000_000) -> int:
    """One-shot compile-and-count."""
    return CompiledCounter(max_nodes=max_nodes).count(cnf)
