"""Backend conformance suite: every counter honours its contract.

One parametrized module runs the two backends ``mcml --backend`` chooses
between, and the tuple-clause exact counter kept as a test oracle
(:class:`LegacyExactCounter`, constructed directly), over the 16-property
× scope 2–4 matrix of Tseitin CNFs and over the same properties as
auxiliary-free truth-table CNFs at scopes 2–3, asserting bit-identity of
exact counters against the closed-form oracles, the (ε, δ) envelope for
the approximate one, and — flag by flag — that the declared
:class:`Capabilities` match actual behaviour: component-cache ownership
and engine store gating; that every counter's counts reproduce across
fresh instances; and that ``make_counter`` sets each count limit on the
knob a backend has, while a backend without it ignores the limit.  The
two sweeps other suites use as oracles, the numpy sweep of the
pre-Tseitin formula and :func:`brute_force_count`, meet the closed forms
on the same two matrices.

A capability flag that lies fails here before it can mis-route the
engine.  The module also keeps the counting/core packages grep-clean of
``hasattr``-based capability sniffing and ``getattr`` probes of the
counter (the API v2 redesign's invariant).
"""

import re
from pathlib import Path

import pytest

from repro.core.pipeline import MCMLPipeline
from repro.core.tree2cnf import label_region_cnf
from repro.counting import (
    Capabilities,
    CounterBudgetExceeded,
    CounterTimeout,
    CountingEngine,
    ExactCounter,
    LegacyExactCounter,
    brute_force_count,
    closed_form_count,
)
from repro.counting.api import available_backends, backend_capabilities, make_counter
from repro.counting.brute import iter_assignment_blocks
from repro.counting.vector import count_formula
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.matrices import bits_to_matrices, property_mask
from repro.spec.properties import PROPERTIES

BACKENDS = available_backends()

#: Every counter the matrices pin, by name: the two backends, built as
#: ``make_counter`` builds them, and the tuple-clause exact counter.
COUNTERS = {
    "approxmc": lambda: make_counter("approxmc"),
    "exact": lambda: make_counter("exact"),
    "legacy": LegacyExactCounter,
}
EXACT_COUNTERS = [name for name, make in COUNTERS.items() if make().capabilities.exact]

#: Attribute-absence sentinel (this suite never uses hasattr either).
_MISSING = object()


class TestRegistry:
    def test_lists_the_expected_backends(self):
        assert BACKENDS == ["approxmc", "exact"]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_constructs_and_declares(self, name):
        backend = make_counter(name)
        # The declared name is the backend's name: it is what results and
        # ``mcml --stats`` report as the producing backend.
        assert backend.name == name
        assert isinstance(backend.capabilities, Capabilities)
        assert callable(backend.count)
        # The class's declaration is the one the CLI lists.
        assert backend_capabilities(name) == backend.capabilities

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError, match="exact"):
            make_counter("quantum")


class TestMatrixConformance:
    """16 properties × scopes 2–4, each counter on the Tseitin CNF."""

    @pytest.mark.parametrize("name", COUNTERS)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_against_closed_forms(self, name, scope, prop):
        if name == "approxmc" and scope > 3:
            pytest.skip("approximate envelope is pinned at scopes 2-3 (runtime)")
        backend = COUNTERS[name]()
        value = backend.count(translate(prop, scope).cnf)
        truth = closed_form_count(prop.oracle, scope)
        if backend.capabilities.exact:
            assert value == truth
        elif truth == 0:
            assert value == 0
        else:
            # Deterministic under the fixed seed; the published (ε, δ)
            # bound is |est - C| <= ε·C with ε = 0.8.
            assert truth / 1.8 <= value <= truth * 1.8

    @pytest.mark.parametrize("scope", (2, 3, 4))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_formula_sweep_against_closed_forms(self, scope, prop):
        """The numpy sweep of the pre-Tseitin formula over all 2^{n²}
        relations, the oracle the packed counter is checked against."""
        value = count_formula(translate(prop, scope).formula, scope * scope)
        assert value == closed_form_count(prop.oracle, scope)

    @pytest.mark.parametrize("name", EXACT_COUNTERS)
    def test_symmetry_broken_slice_agrees_across_exact_backends(self, name):
        """Exact counters are interchangeable on symmetry-constrained φ too."""
        backend = COUNTERS[name]()
        reference = ExactCounter()
        for prop_name in ("Reflexive", "Antisymmetric", "PartialOrder"):
            problem = translate(get_property(prop_name), 3, symmetry=SymmetryBreaking())
            assert backend.count(problem.cnf) == reference.count(problem.cnf)


def _truth_table_cnf(prop, scope):
    """The auxiliary-free CNF of a property: one blocking clause per invalid
    relation, so its models are exactly the valid relations on ``scope``."""
    num_vars = scope * scope
    cnf = CNF(num_vars=num_vars, projection=range(1, num_vars + 1))
    valid = property_mask(prop.oracle)
    for block in iter_assignment_blocks(num_vars):
        for row in block[~valid(bits_to_matrices(block, scope))]:
            cnf.add_clause(-(i + 1) if bit else i + 1 for i, bit in enumerate(row))
    return cnf


class TestAuxFreeMatrix:
    """16 properties × scopes 2–3 as auxiliary-free CNFs, every counter.

    This matrix gives every counter the problems with no Tseitin
    auxiliaries — the kind AccMC's tree regions are — with the same
    property coverage, counted through the engine's typed ``solve``.
    """

    @pytest.mark.parametrize("name", COUNTERS)
    @pytest.mark.parametrize("scope", (2, 3))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_against_closed_forms(self, name, scope, prop):
        cnf = _truth_table_cnf(prop, scope)
        assert not cnf.aux_vars()
        backend = COUNTERS[name]()
        result = CountingEngine(backend).solve(cnf)
        truth = closed_form_count(prop.oracle, scope)
        assert result.exact == backend.capabilities.exact
        if result.exact:
            assert result.value == truth
        else:
            assert truth / 1.8 <= result.value <= truth * 1.8

    @pytest.mark.parametrize("scope", (2, 3))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_brute_force_against_closed_forms(self, scope, prop):
        """:func:`brute_force_count`, the oracle of the tree-region and
        random-CNF suites, sweeps the same auxiliary-free problems."""
        value = brute_force_count(_truth_table_cnf(prop, scope))
        assert value == closed_form_count(prop.oracle, scope)


@pytest.fixture(scope="module")
def tree_regions():
    """Auxiliary-free CNFs every counter must serve: DT regions."""
    pipeline = MCMLPipeline(seed=0)
    prop = get_property("PartialOrder")
    dataset = pipeline.make_dataset(prop, 3)
    train, _ = dataset.split(0.75, rng=0)
    tree = pipeline.train("DT", train)
    paths = tree.decision_paths()
    return [label_region_cnf(paths, label, 9) for label in (0, 1)]


class TestCapabilityFlagsMatchBehaviour:
    @pytest.mark.parametrize("name", COUNTERS)
    def test_region_cnfs_count_identically(self, name, tree_regions):
        """Auxiliary-free CNFs are common ground: every exact counter agrees."""
        backend = COUNTERS[name]()
        if not backend.capabilities.exact:
            pytest.skip("approximate backends are pinned by the envelope test")
        reference = ExactCounter()
        for region in tree_regions:
            assert backend.count(region) == reference.count(region)

    @pytest.mark.parametrize("name", COUNTERS)
    def test_counts_reproduce_across_instances(self, name, tree_regions):
        """A count does not depend on the instance that produced it: the
        memo, the disk store and the golden artifacts all rely on that
        (approximate backends through their fixed default seed)."""
        first, second = COUNTERS[name](), COUNTERS[name]()
        counts = [first.count(region) for region in tree_regions]
        assert [second.count(region) for region in tree_regions] == counts
        if first.capabilities.exact:
            # Nor on its history: a warm instance recounts identically.
            recount = [first.count(region) for region in reversed(tree_regions)]
            assert recount == counts[::-1]

    @pytest.mark.parametrize("name", COUNTERS)
    def test_owns_component_cache_flag(self, name):
        backend = COUNTERS[name]()
        has_attr = getattr(backend, "component_cache", _MISSING) is not _MISSING
        assert backend.capabilities.owns_component_cache == has_attr


class TestLimitsReachTheKnobs:
    """``make_counter`` sets a limit on the knob a backend has, and a count
    past it aborts; a backend without the knob counts the tree regions as
    an unlimited instance does."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_budget(self, name, tree_regions):
        limited = make_counter(name, budget=1)
        knob = getattr(limited, "max_nodes", _MISSING)
        if knob is _MISSING:
            free = make_counter(name)
            assert [limited.count(r) for r in tree_regions] == [
                free.count(r) for r in tree_regions
            ]
        else:
            assert knob == 1
            with pytest.raises(CounterBudgetExceeded):
                limited.count(translate(get_property("PartialOrder"), 3).cnf)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_deadline(self, name, tree_regions):
        limited = make_counter(name, deadline=1e-9)
        knob = getattr(limited, "deadline", _MISSING)
        if knob is _MISSING:
            free = make_counter(name)
            assert [limited.count(r) for r in tree_regions] == [
                free.count(r) for r in tree_regions
            ]
        else:
            assert knob == 1e-9
            # ~1.8k search nodes: the exact counter reads its clock at
            # the 128th; ApproxMC reads it before its first hashed cell.
            with pytest.raises(CounterTimeout):
                limited.count(translate(get_property("Transitive"), 5).cnf)


class TestEngineNegotiatesThroughCapabilities:
    @pytest.mark.parametrize("name", COUNTERS)
    def test_store_gated_on_exactness_memos_always_on(self, name, tmp_path):
        with CountingEngine(COUNTERS[name](), cache_dir=tmp_path) as engine:
            caps = engine.capabilities
            assert (engine.store is not None) == caps.exact
            # Compilation memos are backend-independent: always persisted.
            assert engine.memo_store is not None
            assert (engine.component_cache is not None) == (
                caps.exact and caps.owns_component_cache
            )


class TestGrepClean:
    @staticmethod
    def _offenders(pattern: str) -> list[str]:
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for package in ("counting", "core"):
            for path in sorted((src / package).rglob("*.py")):
                for lineno, line in enumerate(path.read_text().splitlines(), 1):
                    if re.search(pattern, line):
                        offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        return offenders

    def test_no_hasattr_capability_sniffing_in_counting_or_core(self):
        """Routing reads ``backend.capabilities`` only — enforced textually."""
        offenders = self._offenders(r"hasattr\(")
        assert not offenders, "\n".join(offenders)

    def test_no_getattr_probe_of_the_counter_in_counting_or_core(self):
        """Limits reach a backend's knobs when it is built, never by probing
        the counter for an attribute (CI's gates job greps the same)."""
        offenders = self._offenders(r"getattr\((self\.)?counter")
        assert not offenders, "\n".join(offenders)
