"""Dataset generation for the study.

Reproduces Section 5's "Generation of positive and negative samples":

* **positives** — bounded-exhaustive: *every* solution of the property at
  the chosen scope (optionally up to Alloy-style partial symmetry
  breaking), grown one atom at a time with the vectorised evaluators and
  returned in increasing integer order.
* **negatives** — rejection sampling: uniform random matrices screened by
  the concrete evaluator (no constraint solving), exactly the paper's
  Alloy-Evaluator procedure.
* **balancing** — datasets are balanced 1:1 by default; the class-ratio knob
  of Table 9 is exposed as ``negative_ratio``.

Features are the flattened row-major adjacency matrix, so feature ``k``
corresponds to CNF primary variable ``k+1`` throughout the stack.
"""

from repro.data.dataset import Dataset
from repro.data.generation import (
    enumerate_positive_bits,
    generate_dataset,
    sample_negative_bits,
)

__all__ = [
    "Dataset",
    "enumerate_positive_bits",
    "generate_dataset",
    "sample_negative_bits",
]
