"""Tables 3, 5, 6, 7: decision trees on the test set vs the whole space.

The four tables are one experiment with two boolean knobs:

=======  =====================  ==========================
Table    dataset symmetry       ground-truth φ symmetry
=======  =====================  ==========================
3        broken (``True``)      constrained (``True``)
5        intact (``False``)     unconstrained (``False``)
6        broken (``True``)      unconstrained (``False``)
7        intact (``False``)     constrained (``True``)
=======  =====================  ==========================

Each row: a property's decision tree (trained on ``train_fraction`` of the
dataset, 10% in the paper) scored traditionally on the held-out test set and
by AccMC against the entire 2^{n²} input space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import PipelineResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import render_table
from repro.spec.symmetry import SymmetryBreaking

TABLE_SETTINGS = {
    3: (True, True),
    5: (False, False),
    6: (True, False),
    7: (False, True),
}


@dataclass(frozen=True)
class GeneralizationRow:
    property_name: str
    scope: int
    test_accuracy: float
    test_precision: float
    test_recall: float
    test_f1: float
    phi_accuracy: float
    phi_precision: float
    phi_recall: float
    phi_f1: float
    time_seconds: float


def generalization_table(
    table_number: int,
    config: ExperimentConfig | None = None,
    session=None,
) -> list[GeneralizationRow]:
    """Compute one of Tables 3/5/6/7 through one session."""
    if table_number not in TABLE_SETTINGS:
        raise ValueError(f"table_number must be one of {sorted(TABLE_SETTINGS)}")
    data_sb, eval_sb = TABLE_SETTINGS[table_number]
    config = config or ExperimentConfig()
    owned = session is None
    if owned:
        session = config.session()

    rows: list[GeneralizationRow] = []
    try:
        for prop in config.selected_properties():
            scope = config.scope_for(prop)
            result: PipelineResult = session.run(
                prop,
                scope,
                model_name="DT",
                train_fraction=config.train_fraction,
                data_symmetry=SymmetryBreaking() if data_sb else None,
                eval_symmetry=SymmetryBreaking() if eval_sb else None,
                max_positives=config.max_positives,
                whole_space=True,
            )
            assert result.whole_space is not None
            test = result.test_counts
            phi = result.whole_space
            rows.append(
                GeneralizationRow(
                    property_name=prop.name,
                    scope=scope,
                    test_accuracy=test.accuracy,
                    test_precision=test.precision,
                    test_recall=test.recall,
                    test_f1=test.f1,
                    phi_accuracy=phi.accuracy,
                    phi_precision=phi.precision,
                    phi_recall=phi.recall,
                    phi_f1=phi.f1,
                    time_seconds=phi.elapsed_seconds,
                )
            )
    finally:
        if owned:
            # Flush the disk stores.
            session.close()
    return rows


def render(rows: list[GeneralizationRow], table_number: int) -> str:
    data_sb, eval_sb = TABLE_SETTINGS[table_number]
    title = (
        f"Table {table_number}: DT on test set vs entire state space "
        f"(dataset symmetries {'broken' if data_sb else 'intact'}, "
        f"phi {'with' if eval_sb else 'without'} symmetry breaking)"
    )
    body = [
        [
            r.property_name,
            r.test_accuracy, r.test_precision, r.test_recall, r.test_f1,
            r.phi_accuracy, r.phi_precision, r.phi_recall, r.phi_f1,
            round(r.time_seconds, 1),
        ]
        for r in rows
    ]
    return render_table(
        [
            "Property",
            "Acc(Test)", "Prec(Test)", "Rec(Test)", "F1(Test)",
            "Acc(phi)", "Prec(phi)", "Rec(phi)", "F1(phi)", "Time[s]",
        ],
        body,
        title=title,
    )
