"""A CDCL SAT solver.

This is a conventional conflict-driven clause-learning solver in the MiniSat
lineage, written for clarity first and speed second — but with the standard
algorithmic machinery so that the formulas this project produces (hundreds of
variables, tens of thousands of clauses) solve in milliseconds:

* two-watched-literal unit propagation;
* EVSIDS-style activity branching with phase saving;
* first-UIP conflict analysis with recursive clause minimisation;
* Luby-sequence restarts;
* learned-clause database reduction (activity-based);
* incremental solving under assumptions (used by AllSAT enumeration and the
  ApproxMC cell-search loop).

Literal encoding: externally literals are DIMACS ints.  Internally a literal
``l`` is ``2*v`` (positive) or ``2*v+1`` (negative) for variable index ``v``
(0-based), which makes negation ``l ^ 1`` and array indexing cheap.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence


class SatResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence (MiniSat's)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


_UNASSIGNED = -1


class _Clause:
    """Internal clause representation (literals in internal encoding)."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool = False) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class Solver:
    """CDCL solver over DIMACS-style clauses.

    Typical usage::

        solver = Solver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve() is SatResult.SAT:
            model = solver.model()          # dict var -> bool

    The solver is incremental: more clauses may be added between ``solve``
    calls, and ``solve(assumptions=[...])`` solves under temporary literal
    assumptions without permanently constraining the instance.
    """

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = 0
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        self._watches: list[list[_Clause]] = []
        self._assign: list[int] = []  # per-var: 0/1 or _UNASSIGNED
        self._level: list[int] = []
        self._reason: list[_Clause | None] = []
        self._phase: list[bool] = []
        self._activity: list[float] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._trail: list[int] = []  # internal literals in assignment order
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._conflicts = 0
        self.stats = {"decisions": 0, "propagations": 0, "conflicts": 0, "restarts": 0}
        self._ensure_vars(num_vars)

    # -- variable / clause management -------------------------------------------

    def _ensure_vars(self, num_vars: int) -> None:
        while self.num_vars < num_vars:
            self.num_vars += 1
            self._watches.append([])
            self._watches.append([])
            self._assign.append(_UNASSIGNED)
            self._level.append(-1)
            self._reason.append(None)
            self._phase.append(False)
            self._activity.append(0.0)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause of DIMACS literals.

        May be called between ``solve`` calls; any leftover search state is
        rolled back to decision level 0 first (incremental solving).
        """
        if self._trail_lim:
            self._backtrack(0)
        lits: list[int] = []
        seen: set[int] = set()
        for ext in literals:
            if ext == 0:
                raise ValueError("0 is not a literal")
            self._ensure_vars(abs(ext))
            lit = self._to_internal(ext)
            if lit ^ 1 in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            lits.append(lit)
        if not self._ok:
            return
        # Remove literals already false at level 0; stop if already satisfied.
        filtered: list[int] = []
        for lit in lits:
            value = self._lit_value(lit)
            if value == 1 and self._level[lit >> 1] == 0:
                return
            if value == 0 and self._level[lit >> 1] == 0:
                continue
            filtered.append(lit)
        if not filtered:
            self._ok = False
            return
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], None):
                self._ok = False
            elif self._propagate() is not None:
                self._ok = False
            return
        clause = _Clause(filtered)
        self._clauses.append(clause)
        self._attach(clause)

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0] ^ 1].append(clause)
        self._watches[clause.lits[1] ^ 1].append(clause)

    @staticmethod
    def _to_internal(ext: int) -> int:
        var = abs(ext) - 1
        return 2 * var if ext > 0 else 2 * var + 1

    def _lit_value(self, lit: int) -> int:
        """1 true, 0 false, _UNASSIGNED otherwise."""
        value = self._assign[lit >> 1]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value ^ (lit & 1)

    # -- trail -------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        value = self._lit_value(lit)
        if value == 0:
            return False
        if value == 1:
            return True
        var = lit >> 1
        self._assign[var] = 1 - (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = lit >> 1
            self._phase[var] = (lit & 1) == 0
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            self._level[var] = -1
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # -- propagation ---------------------------------------------------------------

    def _propagate(self) -> _Clause | None:
        """Two-watched-literal BCP; returns the conflicting clause or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            false_lit = lit ^ 1
            watchers = self._watches[lit]
            self._watches[lit] = []
            kept: list[_Clause] = []
            n = len(watchers)
            for idx in range(n):
                clause = watchers[idx]
                lits = clause.lits
                # Ensure the false literal is at position 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) == 1:
                    kept.append(clause)
                    continue
                # Look for a new watch.
                found = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[lits[1] ^ 1].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Unit or conflict.
                kept.append(clause)
                self.stats["propagations"] += 1
                if not self._enqueue(first, clause):
                    kept.extend(watchers[idx + 1 :])
                    self._watches[lit].extend(kept)
                    return clause
            self._watches[lit].extend(kept)
        return None

    # -- conflict analysis ----------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for i in range(self.num_vars):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP learning.  Returns (learned clause lits, backtrack level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        lit = -1
        index = len(self._trail)
        reason: _Clause | None = conflict
        current_level = len(self._trail_lim)

        while True:
            assert reason is not None
            self._bump_clause(reason)
            start = 0 if lit == -1 else 1
            for q in reason.lits[start:] if lit != -1 else reason.lits:
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find next literal to expand on the trail.
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[lit >> 1]:
                    break
            var = lit >> 1
            seen[var] = False
            counter -= 1
            reason = self._reason[var]
            if counter == 0:
                break
        learned[0] = lit ^ 1

        # Recursive minimisation: drop literals implied by the rest.
        cached_seen = {q >> 1 for q in learned}
        minimized = [learned[0]]
        for q in learned[1:]:
            if self._reason[q >> 1] is None or not self._redundant(q, cached_seen):
                minimized.append(q)
        learned = minimized

        if len(learned) == 1:
            return learned, 0
        # Backtrack level = second highest decision level in the clause.
        levels = sorted((self._level[q >> 1] for q in learned[1:]), reverse=True)
        back_level = levels[0]
        # Put a literal from back_level at position 1 (watch invariant).
        for i in range(1, len(learned)):
            if self._level[learned[i] >> 1] == back_level:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, back_level

    def _redundant(self, lit: int, clause_vars: set[int]) -> bool:
        """Is ``lit`` implied by the remaining clause literals? (DFS check)"""
        stack = [lit]
        visited: set[int] = set()
        while stack:
            current = stack.pop()
            reason = self._reason[current >> 1]
            if reason is None:
                return False
            for q in reason.lits:
                var = q >> 1
                if q == current or var in visited:
                    continue
                if self._level[var] == 0:
                    continue
                if var not in clause_vars:
                    return False
                visited.add(var)
                stack.append(q)
        return True

    # -- learned clause DB ------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Throw away the less active half of the learned clauses."""
        self._learned.sort(key=lambda c: c.activity)
        keep_from = len(self._learned) // 2
        locked = {self._reason[lit >> 1] for lit in self._trail}
        removed: set[int] = set()
        survivors: list[_Clause] = []
        for i, clause in enumerate(self._learned):
            if i < keep_from and clause not in locked and len(clause.lits) > 2:
                removed.add(id(clause))
            else:
                survivors.append(clause)
        if not removed:
            return
        self._learned = survivors
        for w in range(2 * self.num_vars):
            self._watches[w] = [c for c in self._watches[w] if id(c) not in removed]

    # -- branching ---------------------------------------------------------------------

    def _decide(self) -> int:
        """Pick an unassigned variable with max activity; -1 when all assigned."""
        best = -1
        best_activity = -1.0
        for var in range(self.num_vars):
            if self._assign[var] == _UNASSIGNED and self._activity[var] > best_activity:
                best = var
                best_activity = self._activity[var]
        if best == -1:
            return -1
        return 2 * best if self._phase[best] else 2 * best + 1

    # -- main search ----------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
    ) -> SatResult:
        """Solve the instance, optionally under assumptions.

        ``conflict_budget`` bounds the number of conflicts; when exhausted the
        result is :data:`SatResult.UNKNOWN` (used by timeout-sensitive
        counting loops).
        """
        if not self._ok:
            return SatResult.UNSAT
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return SatResult.UNSAT

        internal_assumptions = [self._to_internal(a) for a in assumptions]
        budget_start = self.stats["conflicts"]
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count + 1)
        conflicts_since_restart = 0
        max_learned = max(1000, len(self._clauses) // 3)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts_since_restart += 1
                if len(self._trail_lim) == 0:
                    self._ok = False
                    return SatResult.UNSAT
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return SatResult.UNSAT
                else:
                    clause = _Clause(learned, learned=True)
                    self._learned.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learned[0], clause)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if (
                    conflict_budget is not None
                    and self.stats["conflicts"] - budget_start >= conflict_budget
                ):
                    self._backtrack(0)
                    return SatResult.UNKNOWN
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats["restarts"] += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = 100 * _luby(restart_count + 1)
                self._backtrack(0)
                continue

            if len(self._learned) > max_learned + len(self._trail):
                self._reduce_db()
                max_learned = int(max_learned * 1.3)

            # Apply assumptions as pseudo-decisions.
            if len(self._trail_lim) < len(internal_assumptions):
                lit = internal_assumptions[len(self._trail_lim)]
                value = self._lit_value(lit)
                if value == 1:
                    self._new_decision_level()
                    continue
                if value == 0:
                    # Conflicting assumptions: UNSAT under assumptions.
                    self._backtrack(0)
                    return SatResult.UNSAT
                self._new_decision_level()
                self._enqueue(lit, None)
                continue

            lit = self._decide()
            if lit == -1:
                return SatResult.SAT
            self.stats["decisions"] += 1
            self._new_decision_level()
            self._enqueue(lit, None)

    # -- model access -------------------------------------------------------------------------

    def model(self) -> dict[int, bool]:
        """The satisfying assignment found by the last SAT ``solve`` call."""
        return {
            var + 1: self._assign[var] == 1
            for var in range(self.num_vars)
            if self._assign[var] != _UNASSIGNED
        }

    def model_literals(self, variables: Iterable[int] | None = None) -> list[int]:
        """Model as a list of DIMACS literals, optionally restricted."""
        model = self.model()
        if variables is None:
            variables = sorted(model)
        return [v if model.get(v, False) else -v for v in variables]


def solve(
    clauses: Iterable[Iterable[int]],
    num_vars: int = 0,
    assumptions: Sequence[int] = (),
) -> tuple[SatResult, dict[int, bool] | None]:
    """One-shot convenience wrapper: returns (result, model or None)."""
    solver = Solver(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=assumptions)
    if result is SatResult.SAT:
        return result, solver.model()
    return result, None
