"""DiffMC: semantic difference between two trees (Equations 5–11).

For trees ``d₁``, ``d₂`` over the same ``n`` binary inputs::

    tt = mc(τ₁ ∧ τ₂)    tf = mc(τ₁ ∧ ψ₂)
    ft = mc(ψ₁ ∧ τ₂)    ff = mc(ψ₁ ∧ ψ₂)

    diff = (tf + ft) / 2ⁿ        sim = (tt + ff) / 2ⁿ  =  1 − diff

No ground truth and no dataset are required — this is the paper's answer to
"is this model basically the same as this other model?".  All four CNFs are
auxiliary-free (Tree2CNF output), so conjunction is plain clause union and
any counting backend applies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from repro.counting.engine import CountingEngine
from repro.ml.decision_tree import DecisionTreeClassifier


@dataclass(frozen=True)
class DiffMCResult:
    """The TT/TF/FT/FF counts and diff/sim ratios of Table 8."""

    tt: int
    tf: int
    ft: int
    ff: int
    num_inputs: int  # number of input variables n (space size 2^n)
    elapsed_seconds: float

    @property
    def total(self) -> int:
        return 1 << self.num_inputs

    @property
    def diff(self) -> float:
        return float(Fraction(self.tf + self.ft, self.total))

    @property
    def sim(self) -> float:
        return float(Fraction(self.tt + self.ff, self.total))

    @property
    def agree(self) -> int:
        return self.tt + self.ff

    @property
    def disagree(self) -> int:
        return self.tf + self.ft

    def as_row(self) -> dict[str, float]:
        """One row of Table 8 (Diff reported in percent, as in the paper)."""
        return {
            "TT": float(self.tt),
            "TF": float(self.tf),
            "FT": float(self.ft),
            "FF": float(self.ff),
            "diff_percent": 100.0 * self.diff,
            "time": self.elapsed_seconds,
        }


class DiffMC:
    """Quantify the semantic difference between two decision trees."""

    def __init__(self, engine: CountingEngine | None = None) -> None:
        self.engine = engine if engine is not None else CountingEngine()

    def evaluate(
        self, first: DecisionTreeClassifier, second: DecisionTreeClassifier
    ) -> DiffMCResult:
        """The four agreement counts of ``first`` vs ``second``.

        The limits of the engine's backend bound each of the four counts;
        past a limit the count raises its typed abort.
        """
        if first.n_features is None or second.n_features is None:
            raise RuntimeError("both trees must be fitted")
        if first.n_features != second.n_features:
            raise ValueError(
                f"feature mismatch: {first.n_features} vs {second.n_features}"
            )
        started = time.perf_counter()
        m = first.n_features
        paths1 = first.decision_paths()
        paths2 = second.decision_paths()
        true1 = self.engine.region(paths1, 1, m)
        false1 = self.engine.region(paths1, 0, m)
        true2 = self.engine.region(paths2, 1, m)
        false2 = self.engine.region(paths2, 0, m)
        problems = [
            true1.conjoin(true2),
            true1.conjoin(false2),
            false1.conjoin(true2),
            false1.conjoin(false2),
        ]
        tt, tf, ft, ff = (r.value for r in self.engine.solve_many(problems))
        result = DiffMCResult(
            tt=tt,
            tf=tf,
            ft=ft,
            ff=ff,
            num_inputs=m,
            elapsed_seconds=time.perf_counter() - started,
        )
        # The four regions partition the space — a cheap internal sanity
        # check that catches a mis-built region CNF immediately.  Only
        # meaningful for exact backends; approximate counts need not sum.
        if self.engine.capabilities.exact:
            if tt + tf + ft + ff != result.total:
                raise AssertionError(
                    "DiffMC counts do not partition the input space: "
                    f"{tt}+{tf}+{ft}+{ff} != 2^{m}"
                )
        return result
