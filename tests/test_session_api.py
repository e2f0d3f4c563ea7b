"""Counting API v2 + MCMLSession tests.

Covers the typed result layer (`CountResult` provenance, the budget as
the backend's own knob), the engine's typed ``solve``/``solve_many`` path,
the disk-persistent compilation memos, the `MCMLSession` facade (its
limits reaching every count -- ``accmc``, ``diffmc``, ``run`` -- and
refused when malformed, its engine and counter freed by reference
counting once it is dropped, and one conformance battery over each deployment
of a budgeted session -- in memory, a fresh ``cache_dir``, a
``cache_dir`` another session filled: counting verbs bit-identical to a
bare `ExactCounter`, the ``on_failure`` contract, ``stats()``, memo-hit
retries and an idempotent ``close()``), and the CLI surface
(``--backend`` with its two names, ``--list-backends``, ``--stats``, and
``--budget``/``--deadline`` reaching Tables 1 and 3).
"""

import gc
import inspect
import json
import math
import weakref

import numpy as np
import pytest

from repro.core import AccMC, DiffMC, MCMLSession
from repro.counting import (
    ApproxMCCounter,
    Capabilities,
    CountFailure,
    CountingEngine,
    CountResult,
    EngineStats,
)
from repro.counting.api import make_counter
from repro.counting.exact import CounterBudgetExceeded, ExactCounter
from repro.experiments.cli import build_parser, config_from_args, list_backends, main
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.spec import SymmetryBreaking, get_property, translate


def _cnf(prop="Transitive", scope=3, **kwargs):
    return translate(get_property(prop), scope, **kwargs).cnf


class TestTypedSolvePath:
    def test_cold_memo_store_provenance(self, tmp_path):
        cnf = _cnf()
        with CountingEngine(cache_dir=tmp_path) as engine:
            cold = engine.solve(cnf)
            assert isinstance(cold, CountResult)
            assert cold.value == 171
            assert cold.source == "backend" and not cold.cached
            assert cold.exact and cold.backend == "exact"
            assert cold.elapsed_seconds > 0
            warm = engine.solve(cnf)
            assert warm.source == "memo" and warm.cached
            assert warm.value == cold.value
            assert int(warm) == 171
        # A fresh engine on the same cache_dir answers from the disk store.
        with CountingEngine(cache_dir=tmp_path) as fresh:
            stored = fresh.solve(cnf)
            assert stored.source == "store"
            assert stored.value == 171
            assert fresh.stats.backend_calls == 0

    def test_stats_delta_records_the_call(self):
        engine = CountingEngine()
        result = engine.solve(_cnf())
        assert isinstance(result.stats_delta, EngineStats)
        assert result.stats_delta.count_calls == 1
        assert result.stats_delta.backend_calls == 1
        again = engine.solve(_cnf())
        assert again.stats_delta.backend_calls == 0
        assert again.stats_delta.count_hits == 1

    def test_solve_many_mixed_provenance(self):
        engine = CountingEngine()
        a, b = _cnf("Reflexive"), _cnf("Irreflexive")
        engine.solve(a)
        results = engine.solve_many([a, b, b.copy()])
        assert [r.value for r in results] == [
            r.value for r in engine.solve_many([a, b, b])
        ]
        assert results[0].source == "memo"
        assert results[1].source == "backend"
        # The in-batch duplicate shares the representative's answer.
        assert results[2].value == results[1].value

    def test_budget_is_the_backends_max_nodes(self):
        cnf = _cnf("PartialOrder", 4, symmetry=None)
        with MCMLSession(budget=3) as session:
            counter = session.engine.counter
            assert counter.max_nodes == 3
            with pytest.raises(CounterBudgetExceeded):
                session.solve(cnf)
            # The knob is the backend's own: raised, the retry finishes
            # and memoizes.
            counter.max_nodes = 5_000_000
            assert session.solve(cnf).value == ExactCounter().count(cnf)
            assert session.solve(cnf).source == "memo"


class TestCompilationMemoPersistence:
    def test_translations_warm_from_disk(self, tmp_path):
        prop = get_property("PartialOrder")
        with CountingEngine(cache_dir=tmp_path) as producer:
            compiled = producer.translate(prop, 3, negate=True)
            assert producer.stats.translate_store_hits == 0
        with CountingEngine(cache_dir=tmp_path) as consumer:
            warmed = consumer.translate(prop, 3, negate=True)
            assert consumer.stats.translate_store_hits == 1
            assert warmed.cnf.signature() == compiled.cnf.signature()
            assert warmed.name == compiled.name
            # The warmed compilation counts identically.
            assert consumer.solve(warmed.cnf).value == producer.solve(compiled.cnf).value

    def test_same_name_different_structure_never_collides(self, tmp_path):
        reflexive = get_property("Reflexive")
        irreflexive = get_property("Irreflexive")
        impostor = type(reflexive)(
            name=reflexive.name,
            formula=irreflexive.formula,
            paper_scope=reflexive.paper_scope,
            repro_scope=reflexive.repro_scope,
            oracle=irreflexive.oracle,
        )
        with CountingEngine(cache_dir=tmp_path) as producer:
            producer.translate(reflexive, 2)
        with CountingEngine(cache_dir=tmp_path) as consumer:
            compiled = consumer.translate(impostor, 2)
            assert consumer.stats.translate_store_hits == 0  # distinct key
            assert consumer.solve(compiled.cnf).value == 4  # irreflexive count

    def test_regions_warm_from_disk(self, tmp_path):
        session = MCMLSession(cache_dir=tmp_path)
        dataset = session.pipeline.make_dataset("PartialOrder", 3)
        train, _ = dataset.split(0.5, rng=0)
        tree = session.pipeline.train("DT", train)
        paths = tree.decision_paths()
        region = session.engine.region(paths, 1, 9)
        session.close()
        with CountingEngine(cache_dir=tmp_path) as consumer:
            warmed = consumer.region(paths, 1, 9)
            assert consumer.stats.region_store_hits == 1
            assert warmed.signature() == region.signature()

    def test_memo_store_active_for_approximate_backends(self, tmp_path):
        prop = get_property("Connex")
        with CountingEngine(ApproxMCCounter(seed=0), cache_dir=tmp_path) as producer:
            assert producer.store is None  # estimates are never persisted
            producer.translate(prop, 2)
        with CountingEngine(ApproxMCCounter(seed=0), cache_dir=tmp_path) as consumer:
            consumer.translate(prop, 2)
            assert consumer.stats.translate_store_hits == 1


class TestMCMLSession:
    def test_accmc_matches_direct_evaluator(self):
        with MCMLSession(seed=0) as session:
            dataset = session.pipeline.make_dataset("PartialOrder", 3)
            train, _ = dataset.split(0.10, rng=1)
            tree = session.pipeline.train("DT", train)
            via_session = session.accmc(tree, "PartialOrder", 3)
            direct = AccMC().evaluate(
                tree, AccMC().ground_truth(get_property("PartialOrder"), 3)
            )
            assert via_session.counts == direct.counts
            assert via_session.counter == "exact"

    def test_a_dropped_session_frees_its_counting_state_without_the_collector(self):
        """Reference counting alone frees a dropped session's engine and
        counter, and with them the component cache: a reference cycle
        would keep them alive until the collector's next full pass."""
        gc.disable()
        try:
            session = MCMLSession(seed=0)
            dataset = session.pipeline.make_dataset("PartialOrder", 3)
            train, _ = dataset.split(0.10, rng=1)
            tree = session.pipeline.train("DT", train)
            session.accmc(tree, "PartialOrder", 3)
            refs = [weakref.ref(session.engine), weakref.ref(session.engine.counter)]
            session.close()
            del session
            assert [ref() for ref in refs] == [None, None]

            engine = CountingEngine()
            ground_truth = engine.ground_truth(get_property("PartialOrder"), 3)
            refs = [weakref.ref(engine), weakref.ref(engine.counter)]
            del engine
            assert [ref() for ref in refs] == [None, None]
            # A ground truth outliving its engine still compiles.
            assert (
                ground_truth.positive().cnf.signature()
                == _cnf("PartialOrder", 3).signature()
            )
        finally:
            gc.enable()

    def test_diffmc_and_bnnmc_share_the_engine(self):
        with MCMLSession(seed=0) as session:
            dataset = session.pipeline.make_dataset("Reflexive", 3)
            train, _ = dataset.split(0.5, rng=0)
            first = session.pipeline.train("DT", train)
            second = session.pipeline.train("DT", train, max_depth=2)
            diff = session.diffmc(first, second)
            assert diff.tt + diff.tf + diff.ft + diff.ff == 1 << 9
            direct = DiffMC(engine=session.engine).evaluate(first, second)
            assert (diff.tt, diff.tf, diff.ft, diff.ff) == (
                direct.tt, direct.tf, direct.ft, direct.ff,
            )

    def test_backend_selection_and_passthroughs(self):
        from repro.logic.cnf import CNF

        with MCMLSession(backend="approxmc") as session:
            assert session.backend_name == "approxmc"
            assert not session.capabilities.exact
            # x1 ∧ x2 over 4 projected vars -> 2 free vars -> 4 models,
            # below ApproxMC's cell threshold, so counted outright.
            cnf = CNF([(1,), (2,)], num_vars=4, projection=range(1, 5))
            assert session.count(cnf) == 4
            # An estimate is never memoized: every call reaches the backend.
            assert session.solve(cnf).source == "backend"

    @pytest.mark.parametrize("seed", (0, 5))
    def test_backend_seed_matches_experiment_config(self, seed):
        """Both ways of building a session seed the approximate backend
        alike: the session ``seed`` reaches its hashes."""
        from repro.experiments.config import ExperimentConfig

        # Seeds 0 and 5 estimate this CNF differently (92 and 96).
        cnf = _cnf("Connex", 4, symmetry=SymmetryBreaking())
        with MCMLSession(backend="approxmc", seed=seed) as session:
            direct = session.count(cnf)
        config = ExperimentConfig(counter="approxmc", seed=seed)
        with config.session() as session:
            assert session.count(cnf) == direct

    def test_table_dispatch(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(properties=("Reflexive",), scope=3)
        with MCMLSession() as session:
            text = session.table(9, config=config)
            assert "Table 9" in text
            with pytest.raises(ValueError, match="unknown table"):
                session.table(12)

    def test_inexact_backend_counts_the_four_products(self):
        """AccMC never subtracts estimates: on an inexact backend each
        confusion count is one of the backend's own estimates, so none goes
        negative (derived from these estimates, tn would be -1)."""

        class PlusOne:
            """Every ``ExactCounter`` count plus one, declared inexact."""

            name = "plus-one"
            capabilities = Capabilities(exact=False)

            def __init__(self):
                self.counter = ExactCounter()
                self.estimates = []

            def count(self, cnf):
                self.estimates.append(self.counter.count(cnf) + 1)
                return self.estimates[-1]

        # One leaf labelling every input 1: τ holds everywhere, ψ nowhere.
        tree = DecisionTreeClassifier().fit(np.zeros((1, 4)), np.ones(1, dtype=int))
        accmc = AccMC(CountingEngine(PlusOne()))
        ground_truth = accmc.ground_truth(get_property("Reflexive"), 2)
        counts = accmc.evaluate(tree, ground_truth).counts
        estimates = accmc.engine.counter.estimates
        # Reflexive holds on 4 of the 16 inputs at scope 2.
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (5, 13, 1, 1)
        assert estimates == [5, 13, 1, 1]

    def test_session_limits_reach_accmc(self):
        """``MCMLSession(budget=...)`` bounds every count behind ``accmc``;
        a limit the counts fit in changes none of them."""
        with MCMLSession(seed=0) as free:
            dataset = free.pipeline.make_dataset("PartialOrder", 4)
            train, _ = dataset.split(0.10, rng=1)
            tree = free.pipeline.train("DT", train)
            expected = free.accmc(tree, "PartialOrder", 4)
        with MCMLSession(seed=0, budget=5) as limited:
            with pytest.raises(CounterBudgetExceeded):
                limited.accmc(tree, "PartialOrder", 4)
        with MCMLSession(seed=0, budget=10**9, deadline=600.0) as roomy:
            assert roomy.accmc(tree, "PartialOrder", 4).counts == expected.counts

    def test_session_limits_reach_diffmc(self):
        with MCMLSession(seed=0) as free:
            dataset = free.pipeline.make_dataset("Reflexive", 3)
            train, _ = dataset.split(0.5, rng=0)
            first = free.pipeline.train("DT", train)
            second = free.pipeline.train("DT", train, max_depth=2)
            expected = free.diffmc(first, second)
        with MCMLSession(seed=0, budget=1) as limited:
            with pytest.raises(CounterBudgetExceeded):
                limited.diffmc(first, second)
        with MCMLSession(seed=0, budget=10**9, deadline=600.0) as roomy:
            diff = roomy.diffmc(first, second)
        assert (diff.tt, diff.tf, diff.ft, diff.ff) == (
            expected.tt, expected.tf, expected.ft, expected.ff,
        )

    def test_session_limits_reach_the_pipeline(self):
        """``MCMLPipeline.run`` -- the path of Tables 3 and 5-7 -- counts
        on the session's backend, so its limits bound it too."""
        with MCMLSession(budget=1) as limited:
            with pytest.raises(CounterBudgetExceeded):
                limited.run("PartialOrder", 3)

    @pytest.mark.parametrize(
        "limits",
        (
            {"budget": 0}, {"budget": -5}, {"budget": 2.5}, {"budget": True},
            {"deadline": 0}, {"deadline": math.inf}, {"deadline": math.nan},
            {"deadline": True},
        ),
        ids=(
            "budget-0", "budget-neg5", "budget-2.5", "budget-True",
            "deadline-0", "deadline-inf", "deadline-nan", "deadline-True",
        ),
    )
    @pytest.mark.parametrize("backend", ("exact", "approxmc"))
    def test_malformed_limits_are_refused_when_the_session_is_built(
        self, backend, limits, tmp_path
    ):
        """Also on a backend without the knob (``approxmc`` has no node
        budget), and before any store opens."""
        name = next(iter(limits))
        with pytest.raises(ValueError, match=name):
            MCMLSession(backend=backend, cache_dir=tmp_path, **limits)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "verb",
        (AccMC.evaluate, DiffMC.evaluate, MCMLSession.accmc, MCMLSession.diffmc),
        ids=("AccMC.evaluate", "DiffMC.evaluate", "session.accmc", "session.diffmc"),
    )
    def test_metric_verbs_take_no_limits(self, verb):
        """Limits live on the backend and AccMC's construction follows it;
        no verb takes either per call."""
        parameters = inspect.signature(verb).parameters
        assert {"budget", "deadline", "mode"}.isdisjoint(parameters)

    def test_unknown_property_names_the_known_ones(self):
        with MCMLSession(seed=0) as session:
            dataset = session.pipeline.make_dataset("Reflexive", 3)
            tree = session.pipeline.train("DT", dataset)
            with pytest.raises(KeyError, match="known: .*Reflexive"):
                session.accmc(tree, "NoSuchProperty", 3)
            # The lookup failed before any counting; the session still counts.
            assert session.accmc(tree, "Reflexive", 3).counter == "exact"

    @pytest.mark.parametrize(
        "surface", ("CountingEngine", "MCMLSession", "ExperimentConfig")
    )
    def test_workers_option_is_rejected(self, surface):
        """The removed ``workers`` option fails loudly, never silently."""
        from repro.experiments.config import ExperimentConfig

        build = {
            "CountingEngine": CountingEngine,
            "MCMLSession": MCMLSession,
            "ExperimentConfig": ExperimentConfig,
        }[surface]
        with pytest.raises(TypeError, match="workers"):
            build(workers=2)

    @pytest.mark.parametrize(
        "keyword",
        (
            "component_spill", "circuit_store", "region_strategy", "fallback",
            "component_cache_mb", "config", "engine", "accmc_mode",
        ),
    )
    @pytest.mark.parametrize(
        "surface", ("CountingEngine", "MCMLSession", "ExperimentConfig")
    )
    def test_tier_switches_are_rejected(self, surface, keyword):
        """The removed per-tier opt-outs, the removed region route, the
        removed fallback backend, the removed component-cache budget, the
        removed engine config, the session's removed engine adoption and
        the removed AccMC construction knob fail loudly, never silently."""
        from repro.experiments.config import ExperimentConfig

        build = {
            "CountingEngine": CountingEngine,
            "MCMLSession": MCMLSession,
            "ExperimentConfig": ExperimentConfig,
        }[surface]
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: False})

    @pytest.mark.parametrize(
        "keyword", ("counter", "config", "component_cache_mb", "mode", "accmc_mode")
    )
    @pytest.mark.parametrize("surface", ("AccMC", "DiffMC", "MCMLPipeline"))
    def test_consumers_take_only_an_engine(self, surface, keyword):
        """The consumers count through the engine they are given (or a
        fresh default one); the removed backend, engine-config and AccMC
        construction keywords fail loudly, never silently."""
        from repro.core.pipeline import MCMLPipeline

        build = {"AccMC": AccMC, "DiffMC": DiffMC, "MCMLPipeline": MCMLPipeline}[
            surface
        ]
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: None})


#: The conformance battery's problems: four scope-3 properties with
#: symmetry breaking, each under 40 search nodes, and one problem of about
#: 1.8k nodes, over the battery's node budget even when a few aborted
#: attempts have warmed the component cache.
CONFORMANCE_NAMES = ("Reflexive", "Transitive", "Antisymmetric", "PartialOrder")
CONFORMANCE_BUDGET = 100


def _conformance_problems():
    return [_cnf(name, symmetry=SymmetryBreaking()) for name in CONFORMANCE_NAMES]


def _over_budget():
    return _cnf("Transitive", 5)


@pytest.fixture(params=("memory", "cache_dir", "warm_cache_dir"))
def deployment(request):
    return request.param


@pytest.fixture
def session(deployment, tmp_path):
    """A ready-to-count exact session of one in-process deployment, with
    the battery's node budget.

    ``memory`` keeps counts in the session, ``cache_dir`` persists them to
    a fresh directory, and ``warm_cache_dir`` opens a directory another
    session already filled with the battery's counts (and failed the
    over-budget problem in) -- the way separate processes share warm
    counts.
    """
    cache_dir = None if deployment == "memory" else str(tmp_path)
    if deployment == "warm_cache_dir":
        with MCMLSession(cache_dir=cache_dir, budget=CONFORMANCE_BUDGET) as producer:
            producer.solve_many(_conformance_problems())
            producer.solve(_over_budget(), on_failure="return")
    opened = MCMLSession(cache_dir=cache_dir, budget=CONFORMANCE_BUDGET)
    yield opened
    opened.close()


class TestSessionConformance:
    """One battery over every deployment of :class:`MCMLSession`."""

    def test_counting_verbs_bit_identical_and_ordered(self, session, deployment):
        # The truths are unlimited counts: the budget changes none of them.
        problems = _conformance_problems()
        truths = [ExactCounter().count(p) for p in problems]
        warm = deployment == "warm_cache_dir"
        result = session.solve(problems[0])
        assert isinstance(result, CountResult)
        assert result.value == truths[0]
        assert result.source == ("store" if warm else "backend")
        many = session.solve_many(problems)
        assert [r.value for r in many] == truths
        assert all(isinstance(r, CountResult) for r in many)
        assert session.count(problems[1]) == truths[1]
        assert session.count_many(problems) == truths
        # Each problem is counted at most once, and not at all when warm.
        assert session.engine.stats.backend_calls == (0 if warm else len(problems))

    def test_on_failure_contract(self, session):
        hard = _over_budget()
        # ``"raise"`` re-raises the failure's original typed abort.  A
        # failure is never stored, so a warm directory fails it again.
        with pytest.raises(CounterBudgetExceeded):
            session.solve(hard)
        returned = session.solve(hard, on_failure="return")
        assert isinstance(returned, CountFailure)
        assert returned.kind == "budget"
        assert returned.backend == "exact"
        assert isinstance(returned.cause, CounterBudgetExceeded)
        # solve_many keeps positions: the failure sits where its problem was.
        easy = _conformance_problems()[0]
        mixed = session.solve_many([easy, hard], on_failure="return")
        assert isinstance(mixed[0], CountResult)
        assert isinstance(mixed[1], CountFailure)

    def test_stats_exposes_the_engine_block(self, session):
        session.count(_conformance_problems()[0])
        payload = session.stats()
        assert payload["backend"] == "exact"
        assert payload["capabilities"] == session.capabilities.as_dict()
        assert payload["engine"] == session.engine.stats.as_dict()
        assert payload["engine"]["count_calls"] == 1
        # JSON-safe: this is the payload ``mcml --stats`` prints.
        assert json.loads(json.dumps(payload)) == payload

    def test_close_is_idempotent(self, session):
        session.count(_conformance_problems()[0])
        session.close()
        session.close()  # a second close must be a no-op, not an error

    def test_retry_is_a_memo_hit_not_a_recount(self, session):
        cnf = _conformance_problems()[0]
        first = session.solve(cnf)
        again = session.solve(cnf)
        assert again.value == first.value
        assert again.cached and again.source == "memo"
        assert session.engine.stats.backend_calls == int(first.source == "backend")

    def test_count_calls_split_into_hits_backend_and_failures(self, session):
        """Every problem lands in exactly one counter: the memo, the store,
        the backend, or the failures."""
        problems = _conformance_problems()
        session.solve_many(problems)
        session.solve(problems[0])
        failure = session.solve(_over_budget(), on_failure="return")
        assert isinstance(failure, CountFailure)
        stats = session.engine.stats
        assert stats.count_calls == len(problems) + 2
        assert stats.count_hits == 1
        assert stats.store_hits + stats.backend_calls == len(problems)
        assert stats.timeouts == 0


class TestCLISurface:
    def test_list_backends_flag(self, capsys):
        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        # A title line, the header, then exactly one row per backend.
        rows = out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["approxmc", "exact"]
        # One column per declared capability flag.
        assert out.splitlines()[1].split() == ["backend", "exact", "components"]

    def test_backend_flag_flows_into_config(self):
        args = build_parser().parse_args(["table9", "--backend", "approxmc"])
        assert config_from_args(args).counter == "approxmc"
        assert config_from_args(build_parser().parse_args(["table9"])).counter == "exact"

    def test_limit_flags_flow_into_config(self):
        args = build_parser().parse_args([
            "table9", "--deadline", "2.5", "--budget", "100",
        ])
        config = config_from_args(args)
        assert (config.deadline, config.budget) == (2.5, 100)
        with config.session() as session:
            assert session.engine.counter.max_nodes == 100
            assert session.engine.counter.deadline == 2.5

    def test_budget_reaches_table3(self):
        """Table 3 counts through ``MCMLPipeline.run``; the run's budget
        bounds those counts, and the first failure leaves ``mcml``."""
        with pytest.raises(CounterBudgetExceeded):
            main(["table3", "--scope", "3", "--properties", "PartialOrder",
                  "--budget", "1"])

    @pytest.mark.parametrize("backend", ("exact", "approxmc"))
    @pytest.mark.parametrize(
        "limit", (["--budget", "1"], ["--deadline", "0.0001"]),
        ids=("budget", "deadline"),
    )
    def test_limits_print_dashes_in_table1(self, limit, backend, capsys):
        """Table 1's exact counts run under the run's limits -- on the
        session's backend, or on the private exact one an ``approxmc`` run
        builds -- and a count that hit one prints "-", the paper's
        time-out mark.  Every other cell is the unlimited run's.  Both
        properties need more than 128 search nodes at scope 4, so the
        deadline's clock is read before they finish."""

        def cells(*flags):
            argv = ["table1", "--scope", "4", "--backend", backend,
                    "--properties", "PartialOrder", "Transitive", *flags]
            assert main(argv) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[1].split()[6:8] == [
                "Valid-SymBr(exact)", "Valid-NoSymBr(exact)",
            ]
            return [line.split() for line in lines[3:]]

        free = cells()
        assert len(free) == 2 and all("-" not in row[6:8] for row in free)
        assert cells(*limit) == [row[:6] + ["-", "-"] + row[8:] for row in free]

    @pytest.mark.parametrize(
        "name", ("nope", "brute", "legacy", "vector", "approx", "exact-legacy")
    )
    def test_a_name_other_than_the_two_backends_is_refused(self, name, capsys):
        """At parse time (exit 2, the error naming both backends), by
        ``make_counter`` and by a session alike.  ``brute`` and ``legacy``
        were backends once, and ``vector``, ``exact-legacy`` and ``approx``
        aliases."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table9", "--backend", name])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --backend: invalid choice: {name!r}" in err
        assert "approxmc" in err and "exact" in err
        with pytest.raises(ValueError, match=r"use one of: approxmc, exact\)"):
            make_counter(name)
        with pytest.raises(ValueError, match=r"use one of: approxmc, exact\)"):
            MCMLSession(backend=name)

    @pytest.mark.parametrize(
        "argv",
        (
            ["cluster"],
            ["serve"],
            ["table9", "--shards", "2"],
            ["table9", "--solver-threads", "2"],
            ["table9", "--fanout-min-vars", "4"],
            ["table9", "--counter", "brute"],
            ["table3", "--workers", "2"],
            ["table3", "--component-spill", "0"],
            ["table3", "--circuit-store", "0"],
            ["table8", "--region-strategy", "per-path"],
            ["table8", "--backend", "compiled"],
            ["table8", "--backend", "circuit"],
            ["table8", "--fallback", "nope"],
            ["table9", "--fallback", "approxmc"],
            ["table9", "--host", "127.0.0.1"],
            ["table9", "--port", "7697"],
            ["table9", "--max-queue", "8"],
            ["table9", "--max-inflight", "8"],
            ["table9", "--read-timeout", "5"],
            ["table9", "--max-deadline", "5"],
            ["table9", "--max-budget", "7"],
            ["table9", "--drain-grace", "5"],
            ["table9", "--component-cache-mb", "0"],
            ["table9", "--accmc-mode", "derived"],
        ),
        ids=(
            "cluster", "serve", "shards", "solver-threads", "fanout-min-vars",
            "counter", "workers", "component-spill", "circuit-store",
            "region-strategy", "backend-compiled", "backend-circuit",
            "fallback-nope", "fallback-approxmc", "host", "port", "max-queue",
            "max-inflight", "read-timeout", "max-deadline", "max-budget",
            "drain-grace", "component-cache-mb", "accmc-mode",
        ),
    )
    def test_parser_rejects_removed_verbs_and_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        (
            (["table3", "--properties", "Reflexive", "--scope", "3",
              "--max-positives", "0"], "--max-positives"),
            (["table3", "--properties", "Reflexive", "--scope", "0"], "--scope"),
            (["table3", "--properties", "Reflexive", "--train-fraction", "1.5"],
             "--train-fraction"),
            (["table9", "--scope", "3", "--budget", "-5"], "--budget"),
            (["table9", "--scope", "3", "--budget", "0"], "--budget"),
            (["table9", "--scope", "3", "--deadline", "0"], "--deadline"),
            (["table9", "--scope", "3", "--deadline", "inf"], "--deadline"),
            (["table9", "--scope", "3", "--seed", "-1"], "--seed"),
        ),
        ids=(
            "max-positives-0", "scope-0", "train-fraction-1.5", "budget-neg5",
            "budget-0", "deadline-0", "deadline-inf", "seed-neg1",
        ),
    )
    def test_parser_rejects_out_of_range_numbers(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"error: argument {flag}:" in capsys.readouterr().err

    def test_parser_rejects_unknown_property_names(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table3", "--properties", "Foo"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'Foo'" in capsys.readouterr().err
        args = build_parser().parse_args(["table3", "--properties", "Function"])
        assert config_from_args(args).properties == ("Function",)

    def test_stats_flag_prints_the_session_payload(self, capsys):
        assert main(["table8", "--scope", "3", "--properties", "Reflexive", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out
        payload = json.loads(out[out.index("\n{") + 1:])
        engine = payload["engine"]
        assert engine["count_calls"] == (
            engine["count_hits"] + engine["store_hits"] + engine["backend_calls"]
        )
        assert engine["backend_calls"] > 0

    def test_listing_renders_every_backend(self):
        # Two capability cells per row: the exact counter declares both,
        # ApproxMC neither.
        rows = [row.split() for row in list_backends().splitlines()[2:]]
        assert rows == [["approxmc", "no", "no"], ["exact", "yes", "yes"]]

    def test_backend_runs_end_to_end(self, capsys):
        # Fast end-to-end runs for the non-default backend: ApproxMC drives
        # DiffMC (Table 8) and AccMC's four products (Table 5).
        for table in ("table8", "table5"):
            argv = [table, "--scope", "3", "--backend", "approxmc",
                    "--properties", "Reflexive"]
            assert main(argv) == 0
            assert f"Table {table[-1]}" in capsys.readouterr().out
