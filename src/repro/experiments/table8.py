"""Table 8: quantifying the difference between two decision-tree models.

Per property, two trees are trained on the same data with different
hyper-parameters (the paper's setup); DiffMC reports the whole-space
TT/TF/FT/FF counts and the diff percentage — all close to zero in the paper,
the "rigorous model-replacement check" use case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.diffmc import DiffMCResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import render_table, sci
from repro.spec.symmetry import SymmetryBreaking

#: The two hyper-parameter settings the compared trees use.
FIRST_TREE_PARAMS: dict = {}
SECOND_TREE_PARAMS: dict = {"max_depth": 8, "min_samples_leaf": 3}


@dataclass(frozen=True)
class Table8Row:
    property_name: str
    scope: int
    result: DiffMCResult


def table8(
    config: ExperimentConfig | None = None,
    symmetry_breaking: bool = False,
    session=None,
) -> list[Table8Row]:
    """Compute Table 8 through one session (built from ``config`` if absent).

    DiffMC's four region-overlap CNFs are auxiliary-free; the config
    backend counts them verbatim.
    """
    config = config or ExperimentConfig()
    owned = session is None
    if owned:
        session = config.session()
    try:
        rows: list[Table8Row] = []
        for prop in config.selected_properties():
            scope = config.scope_for(prop)
            dataset = session.pipeline.make_dataset(
                prop,
                scope,
                symmetry=SymmetryBreaking() if symmetry_breaking else None,
                max_positives=config.max_positives,
            )
            train, _ = dataset.split(0.75, rng=config.seed)
            first = session.pipeline.train("DT", train, **FIRST_TREE_PARAMS)
            second = session.pipeline.train("DT", train, **SECOND_TREE_PARAMS)
            rows.append(Table8Row(prop.name, scope, session.diffmc(first, second)))
    finally:
        if owned:
            # Flush the disk stores.
            session.close()
    return rows


def render(rows: list[Table8Row]) -> str:
    body = [
        [
            r.property_name,
            sci(r.result.tt), sci(r.result.tf), sci(r.result.ft), sci(r.result.ff),
            f"{100 * r.result.diff:.2f}",
            round(r.result.elapsed_seconds, 1),
        ]
        for r in rows
    ]
    return render_table(
        ["Subject", "TT", "TF", "FT", "FF", "Diff[%]", "Time[s]"],
        body,
        title="Table 8: evaluating differences between decision tree models",
    )
