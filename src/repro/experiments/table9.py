"""Table 9: traditional vs MCML precision across training class ratios.

For the Antisymmetric property, datasets with valid:invalid ratios from 99:1
to 1:99 are used to train a decision tree; the traditional precision (on a
held-out test set drawn from the *same* skewed distribution) stays high for
every ratio, while the MCML whole-space precision exposes the bias — it only
approaches the traditional number once the training distribution matches the
true one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.experiments.render import render_table
from repro.ml.metrics import confusion_counts
from repro.spec.properties import get_property

#: The valid:invalid training ratios of Table 9.
CLASS_RATIOS: tuple[tuple[int, int], ...] = (
    (99, 1), (90, 10), (75, 25), (50, 50), (25, 75), (10, 90), (1, 99),
)


@dataclass(frozen=True)
class Table9Row:
    ratio: str
    traditional_precision: float
    mcml_precision: float


def table9(
    config: ExperimentConfig | None = None,
    property_name: str = "Antisymmetric",
    train_fraction: float = 0.75,
    session=None,
) -> list[Table9Row]:
    """Compute Table 9 through one session (built from ``config`` if absent).

    Memoized through the session engine: the φ translation (and its
    counts) are shared by all seven class-ratio rows instead of being
    recompiled per row.
    """
    config = config or ExperimentConfig()
    prop = get_property(property_name)
    scope = config.scope_for(prop)
    owned = session is None
    if owned:
        session = config.session()

    rows: list[Table9Row] = []
    try:
        for valid, invalid in CLASS_RATIOS:
            dataset = session.pipeline.make_dataset(
                prop,
                scope,
                negative_ratio=invalid / valid,
                max_positives=config.max_positives,
            )
            train, test = dataset.split(train_fraction, rng=config.seed)
            tree = session.pipeline.train("DT", train)
            traditional = confusion_counts(test.y, tree.predict(test.X.astype(float)))
            whole_space = session.accmc(tree, prop, scope)
            rows.append(
                Table9Row(
                    ratio=f"{valid}:{invalid}",
                    traditional_precision=traditional.precision,
                    mcml_precision=whole_space.precision,
                )
            )
    finally:
        if owned:
            # Flush the disk stores.
            session.close()
    return rows


def render(rows: list[Table9Row]) -> str:
    body = [[r.ratio, r.traditional_precision, r.mcml_precision] for r in rows]
    return render_table(
        ["Valid:Invalid", "Traditional Precision", "MCML Precision"],
        body,
        decimals=2,
        title="Table 9: traditional vs MCML precision across training class ratios "
        "(Antisymmetric)",
    )
