"""The benchmark's workloads: which artifacts a round produces, and checks.

A round is one fresh :class:`~repro.core.session.MCMLSession` producing a
workload's artifacts through the public driver functions, as ``mcml`` does
(driver call, then render).  Every table row and every figure is one
operation; each is checked, and a failed check or an exception counts as a
failed operation.

The artifacts run at reduced sizes so that several rounds fit into one
measured run; ``README.md`` records what each reduction keeps.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

#: Wall-clock fields, masked before rows are compared.
MASKED_FIELDS = frozenset({"time_seconds", "elapsed_seconds"})

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Seed whose rows are compared with ``reference.json``.
REFERENCE_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: ``ExperimentConfig`` fields besides ``seed`` and ``cache_dir``.
    config: dict
    artifacts: tuple[str, ...]
    #: Span whose per-call latency is the workload's operation latency.
    op: str
    #: Rounds run on a ``cache_dir`` that set-up filled with cold rounds.
    warm: bool = False
    #: Rows are compared with this workload's entry in ``reference.json``.
    reference: str = ""

    def experiment_config(self, seed: int, cache_dir=None):
        from repro.experiments.config import ExperimentConfig

        return ExperimentConfig(seed=seed, cache_dir=cache_dir, **self.config)


_WHOLE_SPACE_CONFIG = {
    "properties": ("Function", "PartialOrder", "Transitive"),
    "max_positives": 400,
}
_WHOLE_SPACE_ARTIFACTS = (
    "table3", "table5", "table6", "table7", "table8", "table9", "figure1", "figure2",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1",
            {"properties": ("Bijective", "Equivalence", "Function", "StrictOrder",
                            "Surjective", "TotalOrder")},
            ("table1",),
            op="counting.approxmc.cells",
        ),
        Workload(
            "classify",
            {"scope": 4, "max_positives": 200},
            ("table2", "table4"),
            op="core.pipeline.run",
        ),
        Workload(
            "whole_space",
            _WHOLE_SPACE_CONFIG,
            _WHOLE_SPACE_ARTIFACTS,
            op="core.accmc.evaluate",
        ),
        Workload(
            "whole_space_warm",
            _WHOLE_SPACE_CONFIG,
            _WHOLE_SPACE_ARTIFACTS,
            op="core.accmc.evaluate",
            warm=True,
            reference="whole_space",
        ),
    )
}


# -- artifacts ---------------------------------------------------------------------


def produce(artifact: str, config, session):
    """Run one artifact's driver and renderer; returns its rows."""
    from repro.experiments import classification, figures, generalization
    from repro.experiments import table1, table8, table9

    if artifact == "table1":
        rows = table1.table1(config, session=session)
        table1.render(rows)
        return rows
    if artifact in ("table2", "table4"):
        symmetry_breaking = artifact == "table2"
        rows = classification.classification_table(
            config, symmetry_breaking=symmetry_breaking, session=session
        )
        classification.render(rows, symmetry_breaking=symmetry_breaking)
        return rows
    if artifact in ("table3", "table5", "table6", "table7"):
        number = int(artifact[len("table"):])
        rows = generalization.generalization_table(number, config, session=session)
        generalization.render(rows, number)
        return rows
    if artifact == "table8":
        rows = table8.table8(config, session=session)
        table8.render(rows)
        return rows
    if artifact == "table9":
        rows = table9.table9(config, session=session)
        table9.render(rows)
        return rows
    if artifact == "figure1":
        return [figures.figure1()]
    if artifact == "figure2":
        solutions = figures.figure2()
        figures.render_figure2(solutions)
        return [solutions]
    raise ValueError(f"unknown artifact {artifact!r}")


# -- checks ------------------------------------------------------------------------


def canonical(value):
    """JSON-safe form of a row with the wall-clock fields masked."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: None if f.name in MASKED_FIELDS else canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def row_problems(artifact: str, row: dict) -> list[str]:
    """Invariants a row must satisfy at any seed."""
    problems = []
    if artifact == "table1":
        if row["valid_nosymbr_exact"] != row["closed_form"]:
            problems.append("Valid-NoSymBr(exact) != ClosedForm-NoSymBr")
        if row["valid_symbr_alloy"] != row["valid_symbr_exact"]:
            problems.append("Valid-SymBr(enum) != Valid-SymBr(exact)")
    return problems


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def guard_problems(workload: Workload, delta: dict, fill: bool = False) -> list[str]:
    """Engine-counter deltas that contradict what the round is.

    A warm workload's set-up fills are cold rounds on an empty cache.
    """
    problems = []
    if workload.name == "classify" and delta["count_calls"] != 0:
        problems.append(f"classify made {delta['count_calls']} count calls")
    if (workload.name == "whole_space" or fill) and delta["store_hits"] != 0:
        problems.append(f"cold round had {delta['store_hits']} store hits")
    if workload.warm and not fill:
        if delta["backend_calls"] != 0:
            problems.append(f"warm round made {delta['backend_calls']} backend calls")
        if delta["store_hits"] <= 0:
            problems.append("warm round had no store hits")
    return problems
