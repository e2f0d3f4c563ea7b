"""SAT solving substrate.

The paper generates its positive datasets by letting Alloy's enumerating SAT
back-end list every solution of a property within scope (here numpy grows
them, :mod:`repro.data`), and both model counters are SAT-solver driven:

* :mod:`repro.sat.solver` — a CDCL solver (two-watched-literal propagation,
  VSIDS branching, Luby restarts, first-UIP clause learning with recursive
  minimisation, phase saving, incremental solving under assumptions).
* :mod:`repro.sat.enumerate` — projected AllSAT on top of the solver via
  blocking clauses, mirroring Alloy's "enumerate all solutions" mode.
"""

from repro.sat.solver import SatResult, Solver, solve
from repro.sat.enumerate import count_models, enumerate_models
from repro.sat.dpll import dpll_count, dpll_satisfiable

__all__ = [
    "SatResult",
    "Solver",
    "count_models",
    "dpll_count",
    "dpll_satisfiable",
    "enumerate_models",
    "solve",
]
