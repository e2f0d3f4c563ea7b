"""Full-scale golden artifacts: ``mcml all --seed 0`` with default options.

The reduced goldens in ``tests/golden/`` run two properties at scope 3 with
200 positives, so they never reach the scope-5 datasets of Tables 2 and 4,
the 7k-row SVM fits, the scope-5 forests or ApproxMC over all 16
properties.  Each file under ``tests/golden/full/`` is the text one
artifact of

    mcml all --seed 0

prints, with the ``Time[s]`` column masked by :func:`mask_time`.  The test
regenerates all eleven artifacts through one session, as ``mcml all``
does, and fails with a unified diff.  It takes about two minutes, so it is
deselected by default and runs only when asked for:

    PYTHONPATH=src python -m pytest -q tests/test_golden_full.py --golden-full

Float sums in the models follow numpy's summation order, so the files are
tied to the numpy version recorded in ``tests/golden/full/NUMPY_VERSION``.
A change that alters a table on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden_full.py

and explains the diff.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.cli import build_parser, config_from_args, run_artifact

from test_golden import GOLDEN_ARTIFACTS, GOLDEN_DIR, mask_time

FULL_DIR = GOLDEN_DIR / "full"
NUMPY_VERSION_FILE = FULL_DIR / "NUMPY_VERSION"

pytestmark = pytest.mark.golden_full


def render_full() -> dict[str, str]:
    """Every artifact of ``mcml all --seed 0``, rendered in one session."""
    config = config_from_args(build_parser().parse_args(["all", "--seed", "0"]))
    with config.session() as session:
        return {
            artifact: mask_time(run_artifact(artifact, config, session=session) + "\n")
            for artifact in GOLDEN_ARTIFACTS
        }


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return render_full()


def test_numpy_version_is_recorded():
    assert NUMPY_VERSION_FILE.read_text().strip(), "record the numpy version"


@pytest.mark.parametrize("artifact", GOLDEN_ARTIFACTS)
def test_full_artifact_matches_golden(rendered, artifact):
    expected = (FULL_DIR / f"{artifact}.txt").read_text()
    actual = rendered[artifact]
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/full/{artifact}.txt",
            tofile=f"{artifact} (regenerated)",
        )
        made_with = NUMPY_VERSION_FILE.read_text().strip()
        pytest.fail(
            f"files made with numpy {made_with}, running {np.__version__}\n"
            + "".join(diff),
            pytrace=False,
        )


if __name__ == "__main__":
    FULL_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in render_full().items():
        (FULL_DIR / f"{name}.txt").write_text(text)
    NUMPY_VERSION_FILE.write_text(np.__version__ + "\n")
