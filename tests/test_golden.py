"""Golden artifacts: the rendered tables and figures at a fixed seed.

Each file under ``tests/golden/`` is the text one artifact of

    mcml all --properties Function PartialOrder --scope 3 \\
        --max-positives 200 --seed 0

prints.  The test regenerates every artifact in-process through one
session (as ``mcml all`` does) and compares it byte for byte, with the
``Time[s]`` column masked because it is the only wall-clock cell.  The
per-path region routes must render the same tables, so the region-count
artifacts are also rendered with ``--region-strategy per-path`` on
``exact`` (sub-CNFs counted one by one) and Table 8 with ``--backend
compiled`` (sub-problems answered by conditioning circuits), each
against the same golden file.  A change that alters a table on purpose
regenerates the files (from the default route) with

    PYTHONPATH=src python tests/test_golden.py

and explains the diff.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.experiments.cli import ARTIFACTS, run_artifact
from repro.experiments.config import ExperimentConfig

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_ARTIFACTS = tuple(a for a in ARTIFACTS if a not in ("all", "serve"))
TIME_HEADER = "Time[s]"
TIME_MASK = "<time>"


#: route id -> (ExperimentConfig overrides, artifacts rendered on it).
ROUTES = {
    "conjunction": ({}, GOLDEN_ARTIFACTS),
    "per-path": (
        {"region_strategy": "per-path"},
        ("table3", "table5", "table6", "table7", "table8", "table9"),
    ),
    "compiled-per-path": (
        {"counter": "compiled", "region_strategy": "per-path"},
        ("table8",),
    ),
}


def golden_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(
        properties=("Function", "PartialOrder"),
        scope=3,
        max_positives=200,
        seed=0,
        **overrides,
    )


def mask_time(text: str) -> str:
    """Cut every table's ``Time[s]`` column (always the last) to a mask."""
    lines = text.split("\n")
    column = None
    for i, line in enumerate(lines):
        if TIME_HEADER in line:
            column = line.index(TIME_HEADER)
        elif not line.strip():
            column = None
        if column is not None:
            lines[i] = line[:column] + TIME_MASK
    return "\n".join(lines)


def render_all(route: str = "conjunction") -> dict[str, str]:
    overrides, artifacts = ROUTES[route]
    config = golden_config(**overrides)
    with config.session() as session:
        return {
            artifact: run_artifact(artifact, config, session=session)
            for artifact in artifacts
        }


@pytest.fixture(scope="module")
def rendered() -> dict[str, dict[str, str]]:
    return {route: render_all(route) for route in ROUTES}


def test_mask_time_cuts_only_the_time_column():
    table = "T\nA  Time[s]\n----------\n1  0.0123 \n\nB\n2"
    assert mask_time(table) == "T\nA  <time>\n---<time>\n1  <time>\n\nB\n2"


@pytest.mark.parametrize(
    ("route", "artifact"),
    [
        pytest.param(
            route,
            artifact,
            id=artifact if route == "conjunction" else f"{route}-{artifact}",
        )
        for route, (_, artifacts) in ROUTES.items()
        for artifact in artifacts
    ],
)
def test_artifact_matches_golden(rendered, route, artifact):
    expected = mask_time((GOLDEN_DIR / f"{artifact}.txt").read_text())
    actual = mask_time(rendered[route][artifact] + "\n")
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{artifact}.txt",
            tofile=f"{artifact} (regenerated)",
        )
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in render_all().items():
        (GOLDEN_DIR / f"{name}.txt").write_text(text + "\n")
