"""Experiment configuration and shared factories.

:class:`ExperimentConfig` holds what a run may set: properties, scope,
backend, seed, training fraction, positive cap, cache directory, count
limits and model parameters.  AccMC's construction is not among them: it
follows the backend (see :mod:`repro.core.accmc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.session import MCMLSession
from repro.spec.properties import PROPERTIES, Property, get_property

#: Fast out-of-the-box-ish model settings for the experiment grids.  The
#: library defaults mirror scikit-learn exactly; these trim iteration counts
#: so a full table finishes in minutes of pure Python.  Tables 2 and 4
#: compare the models under these settings (see "Models" in docs/api.md).
EXPERIMENT_MODEL_PARAMS: dict[str, dict] = {
    "DT": {},
    "RFT": {"n_estimators": 30},
    "GBDT": {"n_estimators": 40},
    "ABT": {"n_estimators": 30, "base_max_depth": 2},
    "SVM": {"max_iter": 300},
    "MLP": {"max_iter": 80},
}

#: The paper's five training fractions.
PAPER_RATIOS = (0.75, 0.50, 0.25, 0.10, 0.01)

#: The three ratios printed in Tables 2 and 4.
PRINTED_RATIOS = (0.75, 0.25, 0.01)


@dataclass
class ExperimentConfig:
    """Knobs shared by all drivers.

    ``scope`` overrides every property's scope when set; otherwise each
    property uses its reduced default (``Property.repro_scope``).
    ``max_positives`` caps bounded-exhaustive sets so dense properties
    (Reflexive has 4096 positives at scope 4) do not dominate runtime.
    ``counter`` names the backend (``mcml --backend``): ``exact``, the
    ProjMC stand-in, or ``approxmc``; ``cache_dir`` persists every count
    *and compilation* to disk so table re-runs across sessions skip
    counting entirely, and also the exact counter's component cache,
    through which overlapping counting problems (same φ, different tree
    regions) reuse each other's sub-counts.
    ``deadline``/``budget`` are wall-clock and search-node limits set
    once on the session's backend (and on Table 1's private exact one),
    so they bound every count of every table; a count past one is a
    typed failure, and Table 1 prints it as "-".
    """

    properties: tuple[str, ...] = tuple(p.name for p in PROPERTIES)
    scope: int | None = None
    counter: str = "exact"
    seed: int = 0
    train_fraction: float = 0.10
    max_positives: int | None = 5000
    cache_dir: str | None = None
    deadline: float | None = None
    budget: int | None = None
    model_params: dict[str, dict] = field(
        default_factory=lambda: {k: dict(v) for k, v in EXPERIMENT_MODEL_PARAMS.items()}
    )

    def scope_for(self, prop: Property) -> int:
        return self.scope if self.scope is not None else prop.repro_scope

    def selected_properties(self) -> list[Property]:
        return [get_property(name) for name in self.properties]

    def session(self) -> MCMLSession:
        """An :class:`MCMLSession` owning this configuration's substrate.

        The one facade every table driver (and the CLI) runs through:
        backend by name, cache directory, count limits and seed all travel
        together, and closing the session flushes the disk stores.
        """
        return MCMLSession(
            backend=self.counter,
            cache_dir=self.cache_dir,
            deadline=self.deadline,
            budget=self.budget,
            seed=self.seed,
        )
