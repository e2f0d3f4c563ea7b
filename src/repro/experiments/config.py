"""Experiment configuration and shared factories."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.session import MCMLSession
from repro.counting import CountingEngine, EngineConfig, make_backend
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


def make_counter(name: str, seed: int = 0):
    """Counting backend by registered name (see :func:`repro.counting.make_backend`).

    Kept as the experiments-layer spelling: it threads the experiment seed
    into backends that take one (the approximate counter) and accepts any
    registry name or alias (``exact``, ``legacy``, ``brute``/``vector``,
    ``compiled``/``circuit``, ``approxmc``/``approx``).
    """
    if name in ("approx", "approxmc"):
        return make_backend(name, seed=seed)
    return make_backend(name)


@dataclass
class ExperimentConfig:
    """Knobs shared by all drivers.

    ``scope`` overrides every property's scope when set; otherwise each
    property uses its reduced default (``Property.repro_scope``).
    ``max_positives`` caps bounded-exhaustive sets so dense properties
    (Reflexive has 4096 positives at scope 4) do not dominate runtime.
    ``counter`` is any registered backend name or alias (``mcml
    --backend``); ``cache_dir`` persists every count *and compilation* to
    disk so table re-runs across sessions skip counting entirely, and
    ``component_cache_mb`` bounds the engine-shared
    component cache that lets overlapping counting problems (same φ,
    different tree regions) reuse each other's sub-counts (see
    :class:`repro.counting.EngineConfig`; 0 opts out).
    ``cache_dir`` also persists that component cache and the compiled
    circuits of a ``conditions_cubes`` backend (``mcml --backend
    compiled``), so warm restarts condition without recompiling, and
    ``region_strategy`` picks the AccMC/DiffMC region route
    (``"conjunction"`` or ``"per-path"``).
    ``fallback`` names a backend the engine's degradation ladder
    re-counts failed problems on (``mcml --fallback approxmc``), and
    ``deadline``/``budget`` apply per-problem wall-clock and node limits
    to every metric count made through drivers that accept them.
    """

    properties: tuple[str, ...] = tuple(p.name for p in PROPERTIES)
    scope: int | None = None
    counter: str = "exact"
    accmc_mode: str = "derived"
    region_strategy: str = "conjunction"
    seed: int = 0
    train_fraction: float = 0.10
    max_positives: int | None = 5000
    cache_dir: str | None = None
    component_cache_mb: float = 512.0
    fallback: str | None = None
    deadline: float | None = None
    budget: int | None = None
    model_params: dict[str, dict] = field(
        default_factory=lambda: {k: dict(v) for k, v in EXPERIMENT_MODEL_PARAMS.items()}
    )

    def scope_for(self, prop: Property) -> int:
        return self.scope if self.scope is not None else prop.repro_scope

    def selected_properties(self) -> list[Property]:
        return [get_property(name) for name in self.properties]

    def build_counter(self):
        return make_counter(self.counter, seed=self.seed)

    def engine_config(self) -> EngineConfig:
        """The counting-engine scaling knobs this experiment asked for."""
        return EngineConfig(
            cache_dir=self.cache_dir,
            component_cache_mb=self.component_cache_mb,
            fallback=self.fallback,
            fallback_opts={"seed": self.seed} if self.fallback in ("approx", "approxmc") else None,
        )

    def build_engine(self) -> CountingEngine:
        """A fresh engine over ``build_counter()`` with the scaling knobs."""
        return CountingEngine(self.build_counter(), config=self.engine_config())

    def session(self) -> MCMLSession:
        """An :class:`MCMLSession` owning this configuration's substrate.

        The one facade every table driver (and the CLI) runs through:
        backend by name, engine knobs, AccMC mode and seed all travel
        together, and closing the session flushes the disk stores.
        """
        return MCMLSession(
            engine=self.build_engine(),
            accmc_mode=self.accmc_mode,
            region_strategy=self.region_strategy,
            deadline=self.deadline,
            budget=self.budget,
            seed=self.seed,
        )
