"""CountingSurface conformance: one client surface, two deployments.

:class:`~repro.counting.api.CountingSurface` is the counting API drivers
program against; :class:`MCMLSession` (in-process) and
:class:`ServiceClient` (a daemon) both declare it.  This module runs the
*same* battery over both, so "pick by deployment, not by API" is a tested
sentence, not a docstring:

* each implementation passes ``isinstance(..., CountingSurface)``;
* ``solve`` / ``solve_many`` / ``count`` / ``count_many`` are
  bit-identical to a bare :class:`ExactCounter`, order preserved;
* the ``on_failure`` contract — ``"raise"`` raises the typed
  :class:`CountFailure`, ``"return"`` yields it in place;
* ``stats()`` exposes the engine-counter block under ``"engine"``;
* ``close()`` is idempotent and the context-manager protocol works.

The drivers' side of the same redesign lives in
``test_core_accmc_diffmc.py`` (AccMC/DiffMC accept any surface); the
per-deployment depth lives in ``test_service.py``.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.core.session import MCMLSession
from repro.counting.api import CountFailure, CountingSurface, CountRequest, CountResult
from repro.counting.exact import CounterBudgetExceeded, ExactCounter
from repro.counting.service import CountingServer, ServiceClient
from repro.spec import SymmetryBreaking, get_property, translate

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

SURFACES = ("session", "service")


def property_cnf(name: str, scope: int = 3):
    return translate(get_property(name), scope, symmetry=SymmetryBreaking()).cnf


@contextmanager
def _served(session):
    server = CountingServer(session, port=0)
    host, port = server.start()
    runner = threading.Thread(target=server.serve_until_drained, daemon=True)
    runner.start()
    try:
        yield host, port
    finally:
        server.initiate_drain("test teardown")
        runner.join(timeout=30)
        assert not runner.is_alive(), "drain did not finish"


@contextmanager
def surface_under_test(kind: str, tmp_path):
    """One ready-to-count CountingSurface of the requested deployment."""
    if kind == "session":
        with MCMLSession(backend="exact", cache_dir=str(tmp_path / "s")) as session:
            yield session
    else:
        with MCMLSession(backend="exact", cache_dir=str(tmp_path / "d")) as session:
            with _served(session) as (host, port):
                with ServiceClient(host, port) as client:
                    yield client


@pytest.fixture(params=SURFACES)
def surface(request, tmp_path):
    with surface_under_test(request.param, tmp_path) as impl:
        yield impl


class TestCountingSurfaceConformance:
    def test_declares_the_protocol(self, surface):
        assert isinstance(surface, CountingSurface)

    def test_counting_verbs_bit_identical_and_ordered(self, surface):
        names = ("Reflexive", "Transitive", "Antisymmetric", "PartialOrder")
        problems = [property_cnf(name) for name in names]
        truths = [ExactCounter().count(p) for p in problems]
        result = surface.solve(problems[0])
        assert isinstance(result, CountResult)
        assert result.value == truths[0]
        many = surface.solve_many(problems)
        assert [r.value for r in many] == truths
        assert all(isinstance(r, CountResult) for r in many)
        assert surface.count(problems[1]) == truths[1]
        assert surface.count_many(problems) == truths

    def test_on_failure_contract(self, surface):
        hard = CountRequest.from_cnf(
            translate(get_property("PartialOrder"), 4).cnf, budget=10
        )
        # ``"raise"`` re-raises the failure's original typed abort.
        with pytest.raises(CounterBudgetExceeded):
            surface.solve(hard)
        returned = surface.solve(hard, on_failure="return")
        assert isinstance(returned, CountFailure)
        assert returned.kind == "budget"
        # solve_many keeps positions: the failure sits where its problem was.
        easy = property_cnf("Reflexive")
        mixed = surface.solve_many([easy, hard], on_failure="return")
        assert isinstance(mixed[0], CountResult)
        assert isinstance(mixed[1], CountFailure)

    def test_stats_exposes_the_engine_block(self, surface):
        surface.count(property_cnf("Reflexive"))
        payload = surface.stats()
        assert isinstance(payload, dict)
        engine = payload["engine"]
        assert isinstance(engine["backend_calls"], int)
        assert engine["count_calls"] >= 1

    def test_close_is_idempotent(self, surface):
        surface.count(property_cnf("Reflexive"))
        surface.close()
        surface.close()  # a second close must be a no-op, not an error


def test_drivers_accept_any_surface(tmp_path):
    """AccMC routes its counting verbs through an explicit surface."""
    from repro.core.accmc import AccMC, GroundTruth
    from repro.core.pipeline import MCMLPipeline

    pipeline = MCMLPipeline(seed=0)
    prop = get_property("PartialOrder")
    dataset = pipeline.make_dataset(prop, 3)
    train, _ = dataset.split(0.75, rng=0)
    tree = pipeline.train("DT", train)
    truth = GroundTruth(prop, 3)

    with MCMLSession(backend="exact") as session:
        local = AccMC(engine=session.engine).evaluate(tree, truth)
    with MCMLSession(backend="exact") as session:
        with _served(session) as (host, port):
            with ServiceClient(host, port) as client:
                with MCMLSession(backend="exact") as compile_side:
                    remote = AccMC(
                        engine=compile_side.engine, surface=client
                    ).evaluate(tree, truth)
    assert remote.accuracy == local.accuracy
    assert remote.counts == local.counts
