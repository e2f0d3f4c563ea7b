"""Experiment-driver tests: every table/figure regenerates with the right
structure and reproduces the paper's qualitative claims at reduced scopes."""

import pytest

from repro.counting import CountingEngine, ExactCounter, closed_form_count
from repro.counting.api import make_counter
from repro.data.generation import enumerate_positive_bits
from repro.experiments import table1 as table1_module
from repro.experiments.classification import classification_table
from repro.experiments.classification import render as render_classification
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure1, figure2, render_figure2
from repro.experiments.generalization import generalization_table
from repro.experiments.generalization import render as render_generalization
from repro.experiments.render import fmt, render_matrix, render_table, sci
from repro.experiments.table1 import render as render_table1
from repro.experiments.table1 import table1
from repro.experiments.table8 import render as render_table8
from repro.experiments.table8 import table8
from repro.experiments.table9 import render as render_table9
from repro.experiments.table9 import table9
from repro.sat import Solver


def fast_config(*properties, scope=3, counter="exact", **kwargs):
    return ExperimentConfig(
        properties=tuple(properties),
        scope=scope,
        counter=counter,
        **kwargs,
    )


class TestRender:
    def test_sci(self):
        assert sci(786000) == "7.86E+05"
        assert sci(0) == "0"

    def test_fmt(self):
        assert fmt(0.12345) == "0.1235"
        assert fmt(None) == "-"
        assert fmt(True) == "yes"
        assert fmt(7) == "7"

    def test_render_table_alignment(self):
        out = render_table(["A", "Blong"], [[1, 2.0], [333, 4.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert len(lines) == 5

    def test_render_matrix(self):
        assert render_matrix([1, 0, 0, 1], 2) == "1.\n.1"


class TestConfig:
    def test_counter_factory(self):
        assert make_counter("exact").name == "exact"
        assert make_counter("approxmc").name == "approxmc"
        with pytest.raises(ValueError):
            make_counter("quantum")

    def test_scope_override(self):
        from repro.spec import get_property

        config = ExperimentConfig(scope=7)
        assert config.scope_for(get_property("Reflexive")) == 7
        default = ExperimentConfig()
        assert default.scope_for(get_property("Reflexive")) == 4


class TestTable1:
    def test_columns_are_mutually_consistent(self):
        rows = table1(fast_config("Reflexive", "Function", "Equivalence"))
        for row in rows:
            # Exact count without symmetry breaking == closed form.
            assert row.valid_nosymbr_exact == row.closed_form
            # Enumeration with symmetry breaking == exact count with it.
            assert row.valid_symbr_alloy == row.valid_symbr_exact
            # Symmetry breaking never increases the count.
            assert row.valid_symbr_exact <= row.valid_nosymbr_exact
            # ApproxMC estimates are within its tolerance (eps = 0.8).
            assert row.est_valid_nosymbr <= row.closed_form * 1.8
            assert row.est_valid_nosymbr >= row.closed_form / 1.8

    def test_equivalence_scope3_symbr_is_fibonacci(self):
        rows = table1(fast_config("Equivalence"))
        assert rows[0].valid_symbr_exact == 3  # F(4)

    def test_paper_scope_mode_uses_closed_forms(self):
        rows = table1(fast_config("Transitive"), paper_scopes=True)
        row = rows[0]
        assert row.scope == 6
        assert row.valid_nosymbr_exact == closed_form_count("transitive", 6)
        assert row.valid_nosymbr_exact == 9_415_189  # Table 1, published

    def test_render(self):
        text = render_table1(table1(fast_config("Reflexive")))
        assert "Reflexive" in text and "2^9" in text


def _count_solves(monkeypatch):
    calls = []
    original = Solver.solve

    def counting(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counting)
    return calls


def _estimates(rows):
    return [(r.est_valid_symbr, r.est_valid_nosymbr) for r in rows]


class TestTable1ModelSets:
    """ApproxMC sizes Table 1's cells from the enumerated positive sets."""

    def test_no_sat_search(self, monkeypatch):
        solves = _count_solves(monkeypatch)
        rows = table1(ExperimentConfig(properties=("Function", "StrictOrder")))
        # Both counts run hashing rounds (256 and 219 models > pivot 72);
        # sizing their cells by AllSAT makes 588 solves.
        assert all(r.valid_nosymbr_exact > 72 for r in rows)
        assert solves == []

    def test_a_budget_hit_still_sizes_cells_from_the_sets(self, monkeypatch):
        # 216 positives without symmetry breaking: that count runs hashing
        # rounds.
        config = ExperimentConfig(properties=("Antisymmetric",), scope=3)
        expected = table1(config)
        solves = _count_solves(monkeypatch)
        with CountingEngine(ExactCounter(max_nodes=1)) as engine:
            rows = table1_module._table1_rows(engine, config, paper_scopes=False)
        assert [(r.valid_symbr_exact, r.valid_nosymbr_exact) for r in rows] == [
            (None, None)
        ]
        assert solves == []
        assert _estimates(rows) == _estimates(expected)

    def test_enumeration_disagreeing_with_the_exact_count_raises(self, monkeypatch):
        def one_short(prop, scope, symmetry=None):
            return enumerate_positive_bits(prop, scope, symmetry)[1:]

        monkeypatch.setattr(table1_module, "enumerate_positive_bits", one_short)
        with pytest.raises(RuntimeError, match="Function at scope 3: .* 26 plain"):
            table1(ExperimentConfig(properties=("Function",), scope=3))


class TestClassification:
    def test_grid_shape(self):
        rows = classification_table(
            fast_config("PartialOrder", scope=3),
            ratios=(0.75, 0.25),
            models=("DT", "SVM"),
        )
        assert len(rows) == 4
        assert {r.model for r in rows} == {"DT", "SVM"}
        assert {r.ratio for r in rows} == {"75:25", "25:75"}

    def test_metrics_in_unit_interval(self):
        rows = classification_table(
            fast_config("PartialOrder", scope=3), ratios=(0.5,), models=("DT",)
        )
        for metric in rows[0].metrics:
            assert 0.0 <= metric <= 1.0

    def test_rq1_models_learn_well_at_mid_ratio(self):
        """RQ1's claim at reduced scope: balanced test metrics stay high."""
        rows = classification_table(
            fast_config("PartialOrder", scope=4),
            symmetry_breaking=False,
            ratios=(0.75,),
            models=("DT", "RFT"),
        )
        for row in rows:
            assert row.counts.accuracy >= 0.85

    def test_render(self):
        rows = classification_table(
            fast_config("PartialOrder", scope=3), ratios=(0.5,), models=("DT",)
        )
        assert "Table 2" in render_classification(rows, symmetry_breaking=True)
        assert "Table 4" in render_classification(rows, symmetry_breaking=False)


class TestGeneralization:
    @pytest.mark.parametrize("table_number", [3, 5, 6, 7])
    def test_tables_compute(self, table_number):
        rows = generalization_table(
            table_number, fast_config("Reflexive", "Function", scope=3)
        )
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.phi_precision <= 1.0
            assert 0.0 <= row.test_precision <= 1.0

    def test_invalid_table_number(self):
        with pytest.raises(ValueError):
            generalization_table(42)

    def test_rq2_precision_collapse(self):
        """The headline result: whole-space precision is far below test
        precision for a sparse property (Table 3/5 shape)."""
        rows = generalization_table(
            5, fast_config("Function", scope=4, train_fraction=0.10)
        )
        row = rows[0]
        assert row.test_precision >= 0.5
        assert row.phi_precision < 0.1  # paper reports 0.0001 at scope 8
        assert row.phi_recall >= 0.5  # recall survives, precision dies

    def test_reflexive_stays_perfect_in_table3(self):
        """Reflexive/Irreflexive rows of Table 3: 1.0 across the board when
        trained on enough data (diagonal check is exactly learnable)."""
        rows = generalization_table(
            3,
            fast_config(
                "Reflexive", "Irreflexive", scope=4, train_fraction=0.75
            ),
        )
        for row in rows:
            assert row.phi_precision == 1.0
            assert row.phi_recall == 1.0

    def test_render(self):
        rows = generalization_table(3, fast_config("Reflexive", scope=3))
        text = render_generalization(rows, 3)
        assert "Table 3" in text and "Reflexive" in text


class TestTable8:
    def test_rows_and_partition(self):
        rows = table8(fast_config("Function", "Reflexive", scope=3))
        assert len(rows) == 2
        for row in rows:
            r = row.result
            assert r.tt + r.tf + r.ft + r.ff == 2**9
            assert 0.0 <= r.diff <= 1.0

    def test_rq5_same_data_trees_are_similar(self):
        """Table 8's shape: two trees trained on the same data differ on a
        small fraction of the space."""
        rows = table8(fast_config("Reflexive", scope=4))
        assert rows[0].result.diff <= 0.25  # paper: ~0-2 percent

    def test_render(self):
        text = render_table8(table8(fast_config("Reflexive", scope=3)))
        assert "TT" in text and "Diff[%]" in text


class TestTable9:
    def test_shape_and_monotonic_trend(self):
        rows = table9(fast_config("Antisymmetric", scope=3))
        assert [r.ratio for r in rows] == [
            "99:1", "90:10", "75:25", "50:50", "25:75", "10:90", "1:99",
        ]
        # The paper's claim: MCML precision at the most skewed ratio is far
        # below the traditional estimate, and improves toward balance.
        first, last = rows[0], rows[-1]
        assert first.mcml_precision <= first.traditional_precision
        assert last.mcml_precision >= first.mcml_precision

    def test_render(self):
        text = render_table9(table9(fast_config("Antisymmetric", scope=3)))
        assert "MCML Precision" in text


class TestFigures:
    def test_figure1_parses_and_compiles(self):
        result = figure1()
        assert result.run_scope == 4
        assert result.primary_vars == 16
        assert set(result.predicates) == {
            "Equivalence", "Reflexive", "Symmetric", "Transitive",
        }
        assert result.clauses > 0

    def test_figure2_reproduces_five_solutions(self):
        solutions = figure2(scope=4)
        assert len(solutions) == 5  # the paper's Figure 2, exactly

    def test_figure2_render(self):
        text = render_figure2(figure2(scope=3), scope=3)
        assert "3 non-isomorphic" in text


class TestCli:
    def test_cli_figure2(self, capsys):
        from repro.experiments.cli import main

        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "5 non-isomorphic" in out

    def test_cli_table9_with_options(self, capsys):
        from repro.experiments.cli import main

        code = main(["table9", "--scope", "3", "--backend", "exact"])
        assert code == 0
        assert "MCML Precision" in capsys.readouterr().out

    def test_cli_rejects_unknown_artifact(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table42"])

    def test_cli_all_expands_to_artifacts_only(self, monkeypatch, capsys):
        # "all" expands to every other artifact, in order, and never
        # reaches run_artifact itself.
        from repro.experiments import cli

        seen = []
        monkeypatch.setattr(
            cli,
            "run_artifact",
            lambda artifact, config, paper_scopes=False, session=None: (
                seen.append(artifact) or f"<{artifact}>"
            ),
        )
        assert cli.main(["all"]) == 0
        assert seen == [a for a in cli.ARTIFACTS if a != "all"]
        out = capsys.readouterr().out
        assert "<table1>" in out and "<figure2>" in out
