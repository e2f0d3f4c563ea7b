"""Whole-space quantification of binarized neural networks.

The generalisation the paper's §2 sketches: once any classifier admits a
propositional translation, the AccMC/DiffMC metrics apply unchanged.  For a
:class:`~repro.ml.bnn.BinarizedMLP`, :meth:`to_formula` yields the positive
region directly as a formula, so the counting problems are formula
conjunctions; they are solved by the vectorised sweep (exact at reduced
scopes) or via Tseitin + the exact counter.
"""

from __future__ import annotations

import time

from repro.core.accmc import AccMCResult, GroundTruth, derived_counts
from repro.core.diffmc import DiffMCResult
from repro.counting.vector import count_formula
from repro.logic.formula import And, Formula, Not
from repro.ml.bnn import BinarizedMLP


def _region(model_or_formula) -> Formula:
    if isinstance(model_or_formula, BinarizedMLP):
        return model_or_formula.to_formula()
    if isinstance(model_or_formula, Formula):
        return model_or_formula
    raise TypeError(
        "expected a BinarizedMLP or a region formula, got "
        f"{type(model_or_formula).__name__}"
    )


def quantify_bnn(
    bnn: BinarizedMLP | Formula,
    ground_truth: GroundTruth,
) -> AccMCResult:
    """AccMC for a binarized network: whole-space confusion counts."""
    started = time.perf_counter()
    m = ground_truth.num_primary
    region = _region(bnn)
    phi = ground_truth.positive().formula
    space = ground_truth.space_formula()

    counts = derived_counts(
        count_formula(And(phi, region), m),
        count_formula(phi, m),
        count_formula(And(space, region), m),
        count_formula(space, m) if ground_truth.symmetry else (1 << m),
    )
    return AccMCResult(
        property_name=ground_truth.prop.name,
        scope=ground_truth.scope,
        counts=counts,
        counter="brute",
        elapsed_seconds=time.perf_counter() - started,
    )


def diff_bnn(
    first: BinarizedMLP | Formula,
    second: BinarizedMLP | Formula,
    num_inputs: int,
) -> DiffMCResult:
    """DiffMC between two models given by regions over the same inputs.

    Either argument may be a binarized network or any positive-region
    formula (e.g. a decision tree's, via
    :func:`repro.core.tree2cnf.tree_paths_formula`) — so this also compares
    a BNN against a tree, the cross-model-family question the paper's
    "model upgrade" discussion raises.
    """
    started = time.perf_counter()
    r1 = _region(first)
    r2 = _region(second)
    tt = count_formula(And(r1, r2), num_inputs)
    tf = count_formula(And(r1, Not(r2)), num_inputs)
    ft = count_formula(And(Not(r1), r2), num_inputs)
    ff = (1 << num_inputs) - tt - tf - ft
    return DiffMCResult(
        tt=tt,
        tf=tf,
        ft=ft,
        ff=ff,
        num_inputs=num_inputs,
        elapsed_seconds=time.perf_counter() - started,
    )
