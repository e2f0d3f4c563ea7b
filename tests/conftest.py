"""Test-run options.

Tests marked ``golden_full`` regenerate every artifact of ``mcml all`` at
full scale (about two minutes), so a plain ``pytest`` run deselects them.
``--golden-full`` runs them.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--golden-full",
        action="store_true",
        help="run the full-scale golden artifacts (tests/test_golden_full.py)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "golden_full: full-scale golden artifacts, run with --golden-full"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--golden-full"):
        return
    deselected = [item for item in items if item.get_closest_marker("golden_full")]
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = [item for item in items if not item.get_closest_marker("golden_full")]
