"""End-to-end MCML workflow.

One call runs the full experiment unit used throughout Section 5: generate a
dataset for a property, split, train a model, score it traditionally on the
test set, and — for decision trees — quantify it against the whole bounded
input space with AccMC.  The symmetry settings for *data generation* and for
*whole-space evaluation* are independent knobs because RQ3/RQ4 (Tables 5–7)
deliberately mismatch them.  How AccMC counts is not a knob: its
construction follows the engine's backend (see :mod:`repro.core.accmc`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.accmc import AccMC, AccMCResult
from repro.counting.engine import CountingEngine
from repro.data.dataset import Dataset
from repro.data.generation import enumerate_positive_bits, generate_dataset
from repro.ml import MODEL_REGISTRY
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import ConfusionCounts, confusion_counts
from repro.spec.properties import Property, get_property
from repro.spec.symmetry import SymmetryBreaking


@dataclass(frozen=True)
class PipelineResult:
    """Everything one experiment row needs."""

    property_name: str
    scope: int
    model_name: str
    train_fraction: float
    train_size: int
    test_size: int
    test_counts: ConfusionCounts
    whole_space: AccMCResult | None

    @property
    def test_metrics(self) -> dict[str, float]:
        return self.test_counts.as_dict()


class MCMLPipeline:
    """Reusable experiment runner.

    Parameters
    ----------
    seed:
        Master seed for data generation, splitting and model training.
    engine:
        An existing :class:`CountingEngine` to share memoized counts,
        translations and tree regions with other pipelines/evaluators
        (default: a fresh one over the exact counter).

    A pipeline enumerates each (property, scope) once and keeps the
    positive sets for its lifetime (see :meth:`positives`), so the tables
    of one session share them across symmetry settings, splits and class
    ratios.
    """

    def __init__(
        self, seed: int = 0, engine: CountingEngine | None = None
    ) -> None:
        self.accmc = AccMC(engine=engine)
        self.engine = self.accmc.engine
        self.seed = seed
        self._positives: dict[tuple, np.ndarray] = {}

    # -- dataset handling -------------------------------------------------------------

    def positives(
        self,
        prop: Property | str,
        scope: int,
        symmetry: SymmetryBreaking | None = None,
    ) -> np.ndarray:
        """The read-only positive set, memoized per (property, scope, symmetry kind).

        The plain set comes from one :func:`enumerate_positive_bits` call; a
        symmetry-broken set is the plain set filtered by
        :meth:`SymmetryBreaking.mask`, the enumerator's own last step, so
        either equals ``enumerate_positive_bits(prop, scope, symmetry)`` row
        for row.  Two threads missing one key at once both enumerate and
        store equal sets, so no lock is taken.
        """
        prop = get_property(prop) if isinstance(prop, str) else prop
        key = (prop, scope, None if symmetry is None else symmetry.kind)
        bits = self._positives.get(key)
        if bits is None:
            if symmetry is None:
                bits = enumerate_positive_bits(prop, scope)
            else:
                plain = self.positives(prop, scope)
                bits = plain[symmetry.mask(plain, scope)]
            bits.flags.writeable = False
            self._positives[key] = bits
        return bits

    def make_dataset(
        self,
        prop: Property | str,
        scope: int,
        symmetry: SymmetryBreaking | None = None,
        negative_ratio: float = 1.0,
        max_positives: int | None = None,
    ) -> Dataset:
        prop = get_property(prop) if isinstance(prop, str) else prop
        return generate_dataset(
            prop,
            scope,
            symmetry=symmetry,
            negative_ratio=negative_ratio,
            max_positives=max_positives,
            rng=np.random.default_rng(self.seed),
            positives=self.positives(prop, scope, symmetry),
        )

    # -- model handling ---------------------------------------------------------------

    def train(self, model_name: str, train: Dataset, **model_params):
        try:
            factory = MODEL_REGISTRY[model_name]
        except KeyError:
            raise KeyError(
                f"unknown model {model_name!r}; known: {', '.join(MODEL_REGISTRY)}"
            ) from None
        params = dict(model_params)
        if "random_state" not in params and "random_state" in factory.__init__.__code__.co_varnames:
            params["random_state"] = self.seed
        model = factory(**params)
        model.fit(train.X.astype(np.float64), train.y)
        return model

    # -- experiment unit -------------------------------------------------------------

    def run(
        self,
        prop: Property | str,
        scope: int,
        model_name: str = "DT",
        train_fraction: float = 0.10,
        data_symmetry: SymmetryBreaking | None = None,
        eval_symmetry: SymmetryBreaking | None = None,
        negative_ratio: float = 1.0,
        max_positives: int | None = None,
        whole_space: bool | None = None,
        dataset: Dataset | None = None,
        **model_params,
    ) -> PipelineResult:
        """Run one (property, model, split) experiment.

        ``whole_space`` defaults to True for decision trees and False for
        the other models (whose logic has no CNF translation here — exactly
        the paper's setup, where only DTs get MCML metrics).  Pass a
        prebuilt ``dataset`` to reuse generation work across models/ratios.
        """
        prop = get_property(prop) if isinstance(prop, str) else prop
        if dataset is None:
            dataset = self.make_dataset(
                prop,
                scope,
                symmetry=data_symmetry,
                negative_ratio=negative_ratio,
                max_positives=max_positives,
            )
        train, test = dataset.split(train_fraction, rng=np.random.default_rng(self.seed + 1))
        model = self.train(model_name, train, **model_params)
        prediction = model.predict(test.X.astype(np.float64))
        test_counts = confusion_counts(test.y, prediction)

        if whole_space is None:
            whole_space = isinstance(model, DecisionTreeClassifier)
        accmc_result: AccMCResult | None = None
        if whole_space:
            if not isinstance(model, DecisionTreeClassifier):
                raise ValueError(
                    "whole-space (AccMC) evaluation requires a decision tree"
                )
            ground_truth = self.accmc.ground_truth(prop, scope, symmetry=eval_symmetry)
            accmc_result = self.accmc.evaluate(model, ground_truth)

        return PipelineResult(
            property_name=prop.name,
            scope=scope,
            model_name=model_name,
            train_fraction=train_fraction,
            train_size=len(train),
            test_size=len(test),
            test_counts=test_counts,
            whole_space=accmc_result,
        )
