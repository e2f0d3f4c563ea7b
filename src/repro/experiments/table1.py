"""Table 1: subject properties and model counts.

For each property: the scope, the state-space size, the number of positive
solutions enumerated with symmetry breaking (the "Valid-SymBr (Alloy)"
column), the ApproxMC estimates with and without symmetry breaking, and the
exact counts with and without symmetry breaking ("ProjMC" columns).

At reduced scopes every cell is computed live.  The positive sets are
enumerated once, without symmetry breaking and then filtered by it, and
they double as the ApproxMC columns' model sets: each hash cell's size is
a popcount filter over them (``ApproxMCCounter.count(cnf, models=…)``),
with no SAT search.  The estimates are those of sizing every cell by
projected AllSAT.  When the exact counts finish, each set's size must
equal its exact count (a mismatch raises ``RuntimeError``); when one hits
the run's budget or deadline, both exact cells print "-", as the paper
prints a time-out, and the sets are used unchecked, as the enumerated
column is.

With ``paper_scopes=True`` the no-symmetry-breaking exact column is
checked against the closed forms instead of run (a pure-Python counter
cannot finish scope 20; the closed forms are how DESIGN.md §2 verified the
published numbers), and live counting is skipped — mirroring the "-"
time-outs in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counting import ApproxMCCounter, CountingEngine, closed_form_count
from repro.counting.api import make_counter
from repro.counting.exact import CounterAbort
from repro.data.generation import enumerate_positive_bits
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import render_table
from repro.spec.symmetry import SymmetryBreaking


@dataclass(frozen=True)
class Table1Row:
    property_name: str
    scope: int
    state_space: str  # "2^m"
    valid_symbr_alloy: int  # enumeration, symmetry breaking on
    est_valid_symbr: int | None  # ApproxMC, symmetry breaking on
    est_valid_nosymbr: int | None  # ApproxMC, symmetry breaking off
    valid_symbr_exact: int | None  # exact counter, symmetry breaking on
    valid_nosymbr_exact: int | None  # exact counter, symmetry breaking off
    closed_form: int  # analytic count without symmetry breaking
    primary_vars: int
    total_vars: int
    clauses: int


HEADERS = [
    "Property", "Scope", "StateSpace", "Valid-SymBr(enum)", "Est-SymBr(approx)",
    "Est-NoSymBr(approx)", "Valid-SymBr(exact)", "Valid-NoSymBr(exact)",
    "ClosedForm-NoSymBr", "PrimVars", "TotVars", "Clauses",
]


def table1(
    config: ExperimentConfig | None = None,
    paper_scopes: bool = False,
    session=None,
) -> list[Table1Row]:
    """Compute Table 1 rows (live at reduced scopes, analytic at paper scopes).

    One engine for the whole table: translations and counts are memoized,
    so re-rendering (or computing Table 1 after another experiment sharing
    the session) does no counting work twice, and the config's cache_dir
    knob makes re-runs perform zero backend counts.

    The exact columns are definitionally exact projected counts of
    Tseitin CNFs, so the engine must be exact: a passed-in ``session`` is
    used when its backend is (its owner closes it); one over ``approxmc``
    falls back to a private exact engine over the config's cache_dir and
    limits, exactly the paper's setup.
    """
    config = config or ExperimentConfig()
    if session is not None and session.capabilities.exact:
        return _table1_rows(session.engine, config, paper_scopes)
    counter = make_counter("exact", budget=config.budget, deadline=config.deadline)
    with CountingEngine(counter, cache_dir=config.cache_dir) as engine:
        return _table1_rows(engine, config, paper_scopes)


def _table1_rows(engine, config: ExperimentConfig, paper_scopes: bool) -> list[Table1Row]:
    symmetry = SymmetryBreaking("adjacent")
    rows: list[Table1Row] = []
    for prop in config.selected_properties():
        scope = prop.paper_scope if paper_scopes else config.scope_for(prop)
        m = scope * scope
        closed = closed_form_count(prop.oracle, scope)
        if paper_scopes:
            # Analytic-only mode: the paper's hardware/time budget does not
            # exist here, so live counting is replaced by the closed forms
            # (positives column included when tabulated).
            problem = engine.translate(prop, scope, symmetry=symmetry) if m <= 450 else None
            stats = problem.stats() if problem else {"primary_vars": m, "total_vars": 0, "clauses": 0}
            rows.append(
                Table1Row(
                    prop.name, scope, f"2^{m}", -1, None, None, None, closed,
                    closed, stats["primary_vars"], stats["total_vars"], stats["clauses"],
                )
            )
            continue

        plain = enumerate_positive_bits(prop, scope)
        enumerated = plain[symmetry.mask(plain, scope)]
        problem_symbr = engine.translate(prop, scope, symmetry=symmetry)
        problem_plain = engine.translate(prop, scope)
        approx = ApproxMCCounter(seed=config.seed)
        try:
            exact_symbr, exact_plain = (
                result.value
                for result in engine.solve_many(
                    [problem_symbr.cnf, problem_plain.cnf]
                )
            )
        except CounterAbort:
            exact_symbr = exact_plain = None
        # The positive sets are the CNFs' complete projected model sets
        # (column j is variable j + 1), so ApproxMC sizes its cells from
        # them; the exact counts, when they finished, confirm the sizes.
        sizes = (len(enumerated), len(plain))
        if exact_symbr is not None and sizes != (exact_symbr, exact_plain):
            raise RuntimeError(
                f"{prop.name} at scope {scope}: enumerated {len(enumerated)} "
                f"symmetry-broken and {len(plain)} plain positives, but the "
                f"exact counts are {exact_symbr} and {exact_plain}"
            )
        est_symbr = approx.count(problem_symbr.cnf, models=enumerated)
        est_plain = approx.count(problem_plain.cnf, models=plain)
        stats = problem_symbr.stats()
        rows.append(
            Table1Row(
                property_name=prop.name,
                scope=scope,
                state_space=f"2^{m}",
                valid_symbr_alloy=len(enumerated),
                est_valid_symbr=est_symbr,
                est_valid_nosymbr=est_plain,
                valid_symbr_exact=exact_symbr,
                valid_nosymbr_exact=exact_plain,
                closed_form=closed,
                primary_vars=stats["primary_vars"],
                total_vars=stats["total_vars"],
                clauses=stats["clauses"],
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    body = [
        [
            r.property_name, r.scope, r.state_space,
            r.valid_symbr_alloy if r.valid_symbr_alloy >= 0 else "-",
            r.est_valid_symbr, r.est_valid_nosymbr,
            r.valid_symbr_exact, r.valid_nosymbr_exact, r.closed_form,
            r.primary_vars, r.total_vars, r.clauses,
        ]
        for r in rows
    ]
    return render_table(HEADERS, body, title="Table 1: subject properties and model counts")
