"""Experiment drivers: one module per table/figure of the paper.

Every published table and figure has a regenerator here (DESIGN.md §4):

========  =============================================  ====================
Artifact  Paper content                                  Driver
========  =============================================  ====================
Table 1   per-property model counts ± symmetry breaking  ``table1``
Table 2   6 models × split ratios, PartialOrder, symbr   ``classification``
Table 3   DT: test-set vs whole-space (φ ∧ symbr)        ``generalization``
Table 4   as Table 2 without symmetry breaking           ``classification``
Table 5   as Table 3 without symmetry breaking           ``generalization``
Table 6   train symbr / evaluate full space              ``generalization``
Table 7   train full / evaluate symbr space              ``generalization``
Table 8   DiffMC between two trees                       ``table8``
Table 9   class-ratio sweep, traditional vs MCML         ``table9``
Figure 1  Alloy spec for equivalence relations           ``figures``
Figure 2  the 5 equivalence relations at scope 4         ``figures``
========  =============================================  ====================

Scopes default to reduced values that run in seconds on a laptop; the CLI
exposes every knob, and ``tests/golden/full/`` holds what ``mcml all
--seed 0`` prints at those defaults.
"""

from repro.experiments.config import ExperimentConfig, make_counter
from repro.experiments.classification import classification_table
from repro.experiments.generalization import generalization_table
from repro.experiments.figures import figure1, figure2

# NOTE: the table1/table8/table9 driver *functions* are deliberately not
# re-exported here — doing so would shadow the submodules of the same name
# on the package object.  Use e.g. ``repro.experiments.table1.table1(...)``.

__all__ = [
    "ExperimentConfig",
    "classification_table",
    "figure1",
    "figure2",
    "generalization_table",
    "make_counter",
]
