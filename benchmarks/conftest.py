"""Shared benchmark fixtures.

Benchmarks regenerate every table and figure of the paper at reduced scopes
(``tests/golden/full/`` holds the output of ``mcml all --seed 0`` at the
default scopes).  Table-level benchmarks run one round — they are end-to-end
experiments, not microbenchmarks — while the substrate benchmarks (solver,
counters, translation) use pytest-benchmark's default calibration.
"""

import pytest

from repro.experiments.config import ExperimentConfig

#: Properties used by the wide table benches: a sparse-order property, a
#: function-like property, and the two trivially-learnable diagonal ones.
BENCH_PROPERTIES = ("PartialOrder", "Function", "Reflexive", "Antisymmetric")


@pytest.fixture
def bench_config():
    """Reduced-scope config keeping each table bench in seconds."""
    return ExperimentConfig(
        properties=BENCH_PROPERTIES,
        scope=4,
        counter="brute",
        seed=0,
    )


@pytest.fixture
def exact_config():
    """Exact-counter config (the ProjMC stand-in) on a narrower slice."""
    return ExperimentConfig(
        properties=("PartialOrder", "Reflexive"),
        scope=4,
        counter="exact",
        seed=0,
    )


def once(benchmark, fn, *args, **kwargs):
    """Run an end-to-end experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
