"""MCML — the paper's contribution.

* :mod:`repro.core.tree2cnf` — the Tree2CNF sub-module of Figure 4:
  translates decision-tree path logic to CNF with no auxiliary variables,
  linear in the tree size (Section 4's Håstad-negation construction).
* :mod:`repro.core.accmc` — AccMC: whole-input-space confusion counts of a
  decision tree against a ground-truth relational property, by model
  counting (Equations 1–4).
* :mod:`repro.core.diffmc` — DiffMC: semantic difference between two trees
  over the whole input space, no ground truth needed (Equations 5–11).
* :mod:`repro.core.pipeline` — the end-to-end MCML workflow used by the
  experiments: generate data, train, evaluate traditionally and with MCML.
* :mod:`repro.core.session` — :class:`MCMLSession`, the facade owning one
  engine + config + stores, through which AccMC/DiffMC/BNN metrics, the
  pipeline and every paper table run.
"""

from repro.core.accmc import AccMC, AccMCResult
from repro.core.diffmc import DiffMC, DiffMCResult
from repro.core.tree2cnf import label_region_cnf, tree_paths_formula
from repro.core.pipeline import MCMLPipeline, PipelineResult
from repro.core.session import MCMLSession

__all__ = [
    "AccMC",
    "AccMCResult",
    "DiffMC",
    "DiffMCResult",
    "MCMLPipeline",
    "MCMLSession",
    "PipelineResult",
    "label_region_cnf",
    "tree_paths_formula",
]
