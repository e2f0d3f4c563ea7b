"""Golden artifacts: the rendered tables and figures at a fixed seed.

Each file under ``tests/golden/`` is the text one artifact of

    mcml all --properties Function PartialOrder --scope 3 \\
        --max-positives 200 --seed 0

prints.  The test regenerates every artifact in-process through one
session (as ``mcml all`` does) and compares it byte for byte, with the
``Time[s]`` column masked because it is the only wall-clock cell.  A
change that alters a table on purpose regenerates the files with

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
GOLDEN_ARTIFACTS = tuple(a for a in ARTIFACTS if a != "all")
TIME_HEADER = "Time[s]"
TIME_MASK = "<time>"


def golden_config() -> ExperimentConfig:
    return ExperimentConfig(
        properties=("Function", "PartialOrder"),
        scope=3,
        max_positives=200,
        seed=0,
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


def render_all() -> dict[str, str]:
    config = golden_config()
    with config.session() as session:
        return {
            artifact: run_artifact(artifact, config, session=session)
            for artifact in GOLDEN_ARTIFACTS
        }


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return render_all()


def test_mask_time_cuts_only_the_time_column():
    table = "T\nA  Time[s]\n----------\n1  0.0123 \n\nB\n2"
    assert mask_time(table) == "T\nA  <time>\n---<time>\n1  <time>\n\nB\n2"


@pytest.mark.parametrize("artifact", GOLDEN_ARTIFACTS)
def test_artifact_matches_golden(rendered, artifact):
    expected = mask_time((GOLDEN_DIR / f"{artifact}.txt").read_text())
    actual = mask_time(rendered[artifact] + "\n")
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
