"""Scope selection — the paper's §5 methodology.

The study picks, per property, "the smallest scope such that there are
≥ 10,000 positive solutions" (symmetry breaking on) or "≥ 90,000" (off).
This module reproduces that selection so the published scope column of
Table 1 can be *derived* rather than hard-coded:

* without symmetry breaking the solution counts come from the closed forms
  (:mod:`repro.counting.oracles`) — instant at any scope;
* with symmetry breaking the count requires counting lex-minimal solutions,
  which we do exactly at small scopes (the dataset's positive-set
  enumerator) and otherwise via SAT enumeration with a cutoff.
"""

from __future__ import annotations

from repro.counting.oracles import closed_form_count
from repro.spec.properties import Property
from repro.spec.symmetry import SymmetryBreaking

#: Thresholds from Section 5 ("Selection of scope and symmetry breaking").
PAPER_MIN_POSITIVES_SYMBR = 10_000
PAPER_MIN_POSITIVES_NOSYMBR = 90_000


def positive_count(
    prop: Property,
    scope: int,
    symmetry: SymmetryBreaking | None = None,
    limit: int | None = None,
) -> int:
    """Number of positive solutions at ``scope``, capped at ``limit`` if given.

    Without symmetry breaking the closed form answers exactly.  With it,
    scopes up to 5 are counted exactly by
    :func:`~repro.data.generation.enumerate_positive_bits`, whose cost
    follows the positive set before symmetry breaking; larger scopes, where
    that set can outgrow memory (Reflexive has 2^30 positives at scope 6),
    enumerate with the SAT back-end up to ``limit`` (enough for threshold
    queries).
    """
    if symmetry is None:
        total = closed_form_count(prop.oracle, scope)
    elif scope <= 5:
        from repro.data.generation import enumerate_positive_bits

        total = len(enumerate_positive_bits(prop, scope, symmetry=symmetry))
    else:
        from repro.sat.enumerate import count_models
        from repro.spec.translate import translate

        problem = translate(prop, scope, symmetry=symmetry)
        return count_models(problem.cnf, limit=limit)
    return total if limit is None else min(total, limit)


def choose_scope(
    prop: Property,
    min_positives: int,
    symmetry: SymmetryBreaking | None = None,
    max_scope: int = 24,
) -> int:
    """Smallest scope with at least ``min_positives`` positive solutions."""
    if min_positives < 1:
        raise ValueError("min_positives must be >= 1")
    for scope in range(1, max_scope + 1):
        if positive_count(prop, scope, symmetry=symmetry, limit=min_positives) >= min_positives:
            return scope
    raise ValueError(
        f"{prop.name} never reaches {min_positives} positives by scope {max_scope}"
    )


def paper_scope_no_symbr(prop: Property, max_scope: int = 24) -> int:
    """The scope the paper's no-symmetry-breaking setting would choose."""
    return choose_scope(prop, PAPER_MIN_POSITIVES_NOSYMBR, symmetry=None, max_scope=max_scope)
