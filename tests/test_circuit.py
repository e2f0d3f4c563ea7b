"""The ``compiled`` backend: circuit kernel, engine conditioning, circuit tier.

Four layers, mirroring the compile-once-query-forever stack:

* the :mod:`repro.counting.circuit` kernel — differential model counting
  and unit-cube conditioning against brute force, the node-budget
  boundary (the historical off-by-one allowed ``max_nodes + 1`` nodes),
  deadline aborts and pickle fidelity;
* the backend matrix — ``compiled`` vs ``exact`` bit-identity over a
  16-property × scope 2–4 grid of auxiliary-free CNFs (one deterministic
  cell per property/scope) plus real decision-tree regions;
* the engine — per-path requests answered by conditioning one cached
  circuit (``source="circuit"``), bit-identical to the conjunction
  expansion, with budget/deadline aborts surfacing as typed failures,
  the degradation ladder still applying, and one accounting rule —
  each sub-problem counted once — shared with the ``exact`` route;
* the :class:`~repro.counting.store.CircuitStore` tier — a warm restart
  answers a known sweep with zero compilations and zero backend calls.
"""

import pickle
import random
import zlib

import pytest

from repro.core.diffmc import DiffMC
from repro.core.tree2cnf import label_cubes, label_region_cnf
from repro.counting import (
    Circuit,
    CircuitBuilder,
    CompiledCounter,
    CounterBudgetExceeded,
    CounterTimeout,
    CountingEngine,
    EngineConfig,
    brute_force_count,
    compile_cnf,
    compiled_count,
    make_backend,
)
from repro.counting.api import CountFailure, CountRequest
from repro.logic.cnf import CNF
from repro.spec.properties import PROPERTIES


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CNF(
        num_vars=num_vars,
        clauses=clauses,
        projection=tuple(range(1, num_vars + 1)),
    )


def _random_cube(rng: random.Random, num_vars: int) -> tuple[int, ...]:
    width = rng.randint(0, num_vars)
    chosen = rng.sample(range(1, num_vars + 1), width)
    return tuple(v if rng.random() < 0.5 else -v for v in chosen)


def _conjoin_cube(cnf: CNF, cube: tuple[int, ...]) -> CNF:
    return CNF(
        num_vars=cnf.num_vars,
        clauses=list(cnf.clauses) + [(lit,) for lit in cube],
        projection=cnf.projection,
    )


class TestCircuitKernel:
    def test_model_count_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            num_vars = rng.randint(1, 8)
            cnf = _random_cnf(rng, num_vars, rng.randint(1, 2 * num_vars))
            assert compile_cnf(cnf).model_count() == brute_force_count(cnf)

    def test_conditioning_matches_brute_forced_conjunction(self):
        rng = random.Random(23)
        for _ in range(40):
            num_vars = rng.randint(2, 8)
            cnf = _random_cnf(rng, num_vars, rng.randint(1, 2 * num_vars))
            circuit = compile_cnf(cnf)
            for _ in range(4):
                cube = _random_cube(rng, num_vars)
                expected = brute_force_count(_conjoin_cube(cnf, cube))
                assert circuit.condition(cube) == expected

    def test_empty_cube_is_the_model_count(self):
        cnf = _random_cnf(random.Random(3), 6, 9)
        circuit = compile_cnf(cnf)
        assert circuit.condition(()) == circuit.model_count()

    def test_contradictory_cube_counts_zero(self):
        circuit = compile_cnf(_random_cnf(random.Random(4), 5, 6))
        assert circuit.condition((2, -2)) == 0

    def test_foreign_cube_variable_raises(self):
        circuit = compile_cnf(_random_cnf(random.Random(5), 4, 5))
        with pytest.raises(ValueError, match="not among the circuit"):
            circuit.condition((99,))

    def test_unsatisfiable_cnf_conditions_to_zero(self):
        cnf = CNF(num_vars=2, clauses=[(1,), (-1,)], projection=(1, 2))
        circuit = compile_cnf(cnf)
        assert circuit.model_count() == 0
        assert circuit.condition((2,)) == 0

    def test_auxiliary_variables_are_rejected(self):
        cnf = CNF(num_vars=3, clauses=[(1, 3)], projection=(1, 2))
        with pytest.raises(ValueError, match="auxiliary-free"):
            compile_cnf(cnf)

    def test_pickle_round_trip_preserves_queries(self):
        rng = random.Random(17)
        cnf = _random_cnf(rng, 7, 12)
        circuit = compile_cnf(cnf)
        clone = pickle.loads(pickle.dumps(circuit))
        assert isinstance(clone, Circuit)
        assert clone.model_count() == circuit.model_count()
        for _ in range(5):
            cube = _random_cube(rng, 7)
            assert clone.condition(cube) == circuit.condition(cube)

    def test_node_budget_is_a_hard_ceiling(self):
        """The boundary fix: the table never holds more than ``max_nodes``
        nodes (the historical ``>`` check admitted ``max_nodes + 1``)."""
        builder = CircuitBuilder(num_levels=8, max_nodes=3)
        assert builder.literal(0, True) == 2  # ids 0/1 are the terminals
        assert len(builder.level) == builder.max_nodes
        with pytest.raises(CounterBudgetExceeded):
            builder.literal(1, True)
        assert len(builder.level) == builder.max_nodes

    def test_budget_abort_through_compile_cnf(self):
        cnf = _random_cnf(random.Random(29), 8, 14)
        baseline = compile_cnf(cnf).node_count
        with pytest.raises(CounterBudgetExceeded):
            compile_cnf(cnf, max_nodes=baseline - 1)
        # At the exact size the compilation goes through.
        assert compile_cnf(cnf, max_nodes=baseline).model_count() == \
            compile_cnf(cnf).model_count()

    def test_deadline_abort_during_construction(self):
        # An already-expired deadline trips at the first wall-clock probe
        # (every 256 node creations), so give the builder enough distinct
        # nodes to reach one.
        builder = CircuitBuilder(num_levels=600, max_nodes=10**6, deadline=1e-9)
        with pytest.raises(CounterTimeout):
            for level in range(600):
                builder.literal(level, True)


#: A 300-variable implication chain: its OBDD has ≥ one node per level, so
#: compilation is guaranteed to cross the 256-node deadline probe.
_CHAIN = CNF(
    num_vars=300,
    clauses=[(i, i + 1) for i in range(1, 300)],
    projection=tuple(range(1, 301)),
)


class TestCompiledBackend:
    def test_registered_and_aliased(self):
        backend = make_backend("compiled")
        assert isinstance(backend, CompiledCounter)
        assert type(make_backend("circuit")) is CompiledCounter
        caps = backend.capabilities
        assert caps.conditions_cubes and caps.exact
        assert not caps.supports_projection

    def test_one_shot_helper(self):
        cnf = _random_cnf(random.Random(31), 6, 10)
        assert compiled_count(cnf) == brute_force_count(cnf)

    def test_backend_deadline_attribute_aborts(self):
        backend = CompiledCounter(deadline=1e-9)
        with pytest.raises(CounterTimeout):
            backend.count(_CHAIN)

    @pytest.mark.parametrize("scope", (2, 3, 4))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_matrix_bit_identity_against_exact(self, prop, scope):
        """16 properties × scopes 2–4: one deterministic auxiliary-free
        CNF per cell (the ``compiled`` column of the conformance matrix —
        the property CNFs themselves carry Tseitin auxiliaries, which
        this backend rejects by contract), counted bit-identically by
        ``compiled``, ``exact`` and conditioning."""
        rng = random.Random(zlib.crc32(f"{prop.name}:{scope}".encode()))
        num_vars = scope * scope
        cnf = _random_cnf(rng, num_vars, 2 * num_vars)
        expected = make_backend("exact").count(cnf)
        circuit = make_backend("compiled").compile(cnf)
        assert make_backend("compiled").count(cnf) == expected
        assert circuit.model_count() == expected
        cube = _random_cube(rng, num_vars)
        assert circuit.condition(cube) == make_backend("exact").count(
            _conjoin_cube(cnf, cube)
        )


@pytest.fixture(scope="module")
def trees():
    """Two small fitted decision trees over the same 8 binary features."""
    import numpy as np

    from repro.ml.decision_tree import DecisionTreeClassifier

    rng = np.random.default_rng(19)
    X = rng.integers(0, 2, size=(150, 8))
    y1 = ((X[:, 0] & X[:, 1]) | X[:, 2]).astype(int)
    y2 = (X[:, 0] | (X[:, 3] & X[:, 4])).astype(int)
    first = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y1)
    second = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y2)
    return first, second


def _per_path_request(base: CNF, cubes, **limits) -> CountRequest:
    return CountRequest.from_cnf(base, strategy="per-path", cubes=cubes, **limits)


class TestEngineConditioning:
    def _region_problem(self, trees):
        first, second = trees
        base = label_region_cnf(first.decision_paths(), 1, 8)
        cubes = label_cubes(second.decision_paths(), 1, 8)
        return base, cubes

    def test_conditioning_is_bit_identical_to_conjunction(self, trees):
        base, cubes = self._region_problem(trees)
        request = _per_path_request(base, cubes)
        with CountingEngine(make_backend("exact")) as ref:
            expected = ref.solve(request).value
        with CountingEngine(make_backend("compiled")) as engine:
            result = engine.solve(request)
            assert result.value == expected
            assert result.exact
            assert result.source == "circuit"
            assert not result.cached  # conditioning is work, not a lookup
            assert engine.stats.circuit_compilations == 1
            assert engine.stats.circuit_hits > 0
            assert engine.stats.backend_calls == 0

    def test_repeated_sweeps_reuse_the_in_process_circuit(self, trees):
        base, cubes = self._region_problem(trees)
        with CountingEngine(make_backend("compiled")) as engine:
            first = engine.solve(_per_path_request(base, cubes)).value
            # Same base, different region: conditioned, not recompiled.
            more = tuple(tuple(-l for l in cube) for cube in cubes[:2])
            engine.solve(_per_path_request(base, more))
            assert engine.solve(_per_path_request(base, cubes)).value == first
            assert engine.stats.circuit_compilations == 1
            assert engine.stats.backend_calls == 0

    def test_budget_abort_surfaces_as_typed_failure(self, trees):
        base, cubes = self._region_problem(trees)
        with CountingEngine(make_backend("compiled")) as engine:
            outcome = engine.solve(
                _per_path_request(base, cubes, budget=3), on_failure="return"
            )
            assert isinstance(outcome, CountFailure)
            assert outcome.kind == "budget"
            with pytest.raises(CounterBudgetExceeded):
                engine.solve(_per_path_request(base, cubes, budget=3))

    def test_deadline_abort_surfaces_as_typed_failure(self):
        cubes = ((1,), (-1, 2))
        with CountingEngine(make_backend("compiled")) as engine:
            outcome = engine.solve(
                _per_path_request(_CHAIN, cubes, deadline=1e-9),
                on_failure="return",
            )
            assert isinstance(outcome, CountFailure)
            assert outcome.kind == "timeout"

    def test_degradation_ladder_reroutes_compile_aborts(self, trees):
        base, cubes = self._region_problem(trees)
        with CountingEngine(make_backend("exact")) as ref:
            expected = ref.solve(_per_path_request(base, cubes)).value
        with CountingEngine(
            make_backend("compiled"),
            EngineConfig(fallback="exact"),
        ) as engine:
            result = engine.solve(_per_path_request(base, cubes, budget=3))
            assert result.value == expected
            assert result.source == "fallback"
            assert engine.stats.fallbacks == len(cubes)

    def test_non_conditioning_exact_backends_still_serve_per_path(self, trees):
        base, cubes = self._region_problem(trees)
        values = set()
        for name in ("exact", "compiled", "legacy"):
            with CountingEngine(make_backend(name)) as engine:
                values.add(engine.solve(_per_path_request(base, cubes)).value)
        assert len(values) == 1


class TestPerPathAccounting:
    """One accounting rule for both per-path routes.

    Every sub-problem counts exactly once: ``count_calls`` splits into
    memo hits (in-batch duplicates included), store hits, circuit hits,
    backend calls and failed sub-problems, and each sub-problem that
    timed out is one ``timeouts`` — whether the backend counts sub-CNFs
    (``exact``) or conditions a circuit whose compilation timed out
    (``compiled``).
    """

    @pytest.mark.parametrize("backend", ("exact", "compiled"))
    def test_each_sub_problem_counts_once(self, trees, backend):
        first, second = trees
        base = label_region_cnf(first.decision_paths(), 1, 8)
        cubes = label_cubes(second.decision_paths(), 1, 8)
        others = label_cubes(second.decision_paths(), 0, 8)
        chain_cubes = ((1,), (-1, 2), (-1, -2, 3))
        # The chain's sub-problems that cannot finish in time, one at a time.
        unanswered = 0
        for cube in chain_cubes:
            with CountingEngine(make_backend(backend)) as alone:
                outcome = alone.solve(
                    _per_path_request(_CHAIN, (cube,), deadline=1e-9),
                    on_failure="return",
                )
                unanswered += isinstance(outcome, CountFailure)
        assert unanswered > 0
        with CountingEngine(make_backend("exact")) as ref:
            expected = [
                ref.solve(_per_path_request(base, region)).value
                for region in (cubes, others + others[:1], others[:1])
            ]
        with CountingEngine(make_backend(backend)) as engine:
            engine.solve(_per_path_request(base, cubes))  # warms the memo
            before = engine.stats.copy()
            results = engine.solve_many(
                [
                    _per_path_request(base, cubes),  # memo hits
                    # Cold cubes, one repeated inside the request and
                    # once more by the next request: in-batch duplicates.
                    _per_path_request(base, others + others[:1]),
                    _per_path_request(base, others[:1]),
                    _per_path_request(_CHAIN, chain_cubes, deadline=1e-9),
                ],
                on_failure="return",
            )
            delta = engine.stats.delta_since(before)
        assert [r.value for r in results[:3]] == expected
        assert isinstance(results[3], CountFailure)
        assert results[3].kind == "timeout"
        assert delta.count_calls == len(cubes) + len(others) + 2 + len(chain_cubes)
        assert delta.count_hits == len(cubes) + 2
        assert delta.count_calls == (
            delta.count_hits
            + delta.store_hits
            + delta.circuit_hits
            + delta.backend_calls
            + unanswered
        )
        assert delta.timeouts == unanswered


class TestCircuitStoreTier:
    def test_warm_restart_conditions_without_recompiling(self, trees, tmp_path):
        base, cubes = self._sweep(trees)
        with CountingEngine(
            make_backend("compiled"), EngineConfig(cache_dir=tmp_path)
        ) as cold:
            expected = cold.solve(_per_path_request(base, cubes)).value
            assert cold.stats.circuit_compilations == 1
        # Conditioned sub-counts are never persisted as whole counts (the
        # circuit is the persistent artifact), so the restart re-answers
        # every cube from the warmed circuit — zero compilations, zero
        # backend counts, zero count-store hits.
        with CountingEngine(
            make_backend("compiled"), EngineConfig(cache_dir=tmp_path)
        ) as warm:
            assert warm.solve(_per_path_request(base, cubes)).value == expected
            assert warm.stats.circuit_store_hits == 1
            assert warm.stats.circuit_compilations == 0
            assert warm.stats.backend_calls == 0
            assert warm.stats.store_hits == 0
            assert warm.stats.circuit_hits == len(set(cubes))

    def test_non_conditioning_backends_get_no_circuit_store(self, tmp_path):
        with CountingEngine(
            make_backend("exact"), EngineConfig(cache_dir=tmp_path)
        ) as engine:
            assert engine.circuit_store is None

    def _sweep(self, trees):
        first, second = trees
        base = label_region_cnf(first.decision_paths(), 1, 8)
        cubes = label_cubes(second.decision_paths(), 0, 8)
        return base, cubes


class TestDiffMCPerPath:
    def test_per_path_is_bit_identical_across_backends(self, trees):
        first, second = trees
        conjunction = DiffMC(counter=make_backend("exact")).evaluate(first, second)
        for name in ("exact", "compiled"):
            per_path = DiffMC(
                counter=make_backend(name), region_strategy="per-path"
            ).evaluate(first, second)
            assert (per_path.tt, per_path.tf, per_path.ft, per_path.ff) == (
                conjunction.tt,
                conjunction.tf,
                conjunction.ft,
                conjunction.ff,
            )

    def test_two_circuits_serve_all_four_counts(self, trees):
        first, second = trees
        with CountingEngine(make_backend("compiled")) as engine:
            DiffMC(engine=engine, region_strategy="per-path").evaluate(first, second)
            assert engine.stats.circuit_compilations == 2
            assert engine.stats.backend_calls == 0

    def test_unknown_region_strategy_rejected(self):
        with pytest.raises(ValueError, match="region strategy"):
            DiffMC(region_strategy="sideways")
