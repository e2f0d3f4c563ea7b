"""Tests for all six classifiers.

Shared behavioural contract plus model-specific structure tests (paths for
the decision tree, boosting dynamics, SVM margins, MLP convergence).
"""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LinearSVC,
    MLPClassifier,
    MODEL_REGISTRY,
    RandomForestClassifier,
)
from repro.ml.base import NotFittedError, check_X, check_Xy


def _xor_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 2))
    y = (X[:, 0] ^ X[:, 1]).astype(int)
    return X.astype(float), y


def _parity3_dataset(n=400, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 3))
    y = X.sum(axis=1) % 2
    return X.astype(float), y


def _linear_dataset(n=300, seed=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = ((X @ np.array([1.0, -2.0, 0.5, 0.0])) + 0.3 > 0).astype(int)
    return X, y


def _short_best_split_dataset():
    X = np.array([[1, 1]] * 2 + [[0, 1]] * 2 + [[0, 0]] * 4, dtype=float)
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    return X, y


_FAST_PARAMS = {
    "DT": {},
    "RFT": {"n_estimators": 20},
    "GBDT": {"n_estimators": 30},
    "ABT": {"n_estimators": 20},
    "SVM": {"max_iter": 200},
    "MLP": {"max_iter": 60, "hidden_layer_sizes": (32,)},
}


@pytest.mark.parametrize("abbrev", sorted(MODEL_REGISTRY))
class TestSharedContract:
    def _make(self, abbrev):
        return MODEL_REGISTRY[abbrev](**_FAST_PARAMS[abbrev])

    def test_fits_separable_data(self, abbrev):
        X, y = _linear_dataset()
        model = self._make(abbrev).fit(X, y)
        assert model.score(X, y) >= 0.85

    def test_predict_shape_and_labels(self, abbrev):
        X, y = _linear_dataset(n=80)
        model = self._make(abbrev).fit(X, y)
        pred = model.predict(X)
        assert pred.shape == (80,)
        assert set(np.unique(pred)) <= {0, 1}

    def test_rejects_bad_labels(self, abbrev):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 2, 1])
        with pytest.raises(ValueError):
            self._make(abbrev).fit(X, y)

    def test_rejects_wrong_feature_count_at_predict(self, abbrev):
        X, y = _linear_dataset(n=60)
        model = self._make(abbrev).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 7)))

    def test_predict_before_fit_raises(self, abbrev):
        with pytest.raises((NotFittedError, RuntimeError)):
            self._make(abbrev).predict(np.zeros((2, 2)))

    def test_single_class_training(self, abbrev):
        # Degenerate but must not crash: all labels identical.
        X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        y = np.ones(4, dtype=int)
        model = self._make(abbrev).fit(X, y)
        assert set(np.unique(model.predict(X))) <= {0, 1}


class TestCheckXy:
    def test_validations(self):
        with pytest.raises(ValueError):
            check_Xy(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            check_Xy(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            check_Xy(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            check_Xy(np.zeros((0, 2)), np.zeros(0))
        for bad in (np.nan, np.inf, -np.inf):
            X = np.zeros((3, 2))
            X[1, 0] = bad
            with pytest.raises(ValueError, match=f"{bad} at row 1, column 0"):
                check_Xy(X, np.zeros(3))
            with pytest.raises(ValueError, match=f"{bad} at row 1, column 0"):
                check_X(X, 2)

    @pytest.mark.parametrize("abbrev", sorted(MODEL_REGISTRY))
    def test_models_reject_non_finite_features(self, abbrev):
        X, y = _xor_dataset(n=20)
        X[7, 1] = np.nan
        with pytest.raises(ValueError, match="nan at row 7, column 1"):
            MODEL_REGISTRY[abbrev](**_FAST_PARAMS[abbrev]).fit(X, y)
        model = MODEL_REGISTRY[abbrev](**_FAST_PARAMS[abbrev]).fit(*_xor_dataset(n=20))
        with pytest.raises(ValueError, match="nan at row 7, column 1"):
            model.predict(X)


class TestDecisionTree:
    def test_learns_xor_exactly(self):
        X, y = _xor_dataset()
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_max_depth_limits_tree(self):
        X, y = _parity3_dataset()
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert stump.depth() <= 1
        full = DecisionTreeClassifier().fit(X, y)
        assert full.depth() == 3  # parity needs all three features

    def test_paths_partition_binary_space(self):
        X, y = _parity3_dataset()
        tree = DecisionTreeClassifier().fit(X, y)
        paths = tree.decision_paths()
        # Every input must match exactly one path.
        for bits in range(8):
            x = [(bits >> k) & 1 for k in range(3)]
            matching = [
                p
                for p in paths
                if all(bool(x[f]) == v for f, v in p.conditions)
            ]
            assert len(matching) == 1
            # And the path label must equal predict().
            pred = tree.predict(np.array([x], dtype=float))[0]
            assert matching[0].label == pred

    def test_paths_require_binary_features(self):
        X, y = _linear_dataset()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        with pytest.raises(ValueError):
            tree.decision_paths()

    def test_sample_weight_changes_majority(self):
        X = np.array([[0.0], [0.0], [0.0]])
        y = np.array([1, 0, 0])
        # Unweighted: majority is 0.  Weighted towards the positive: 1.
        assert DecisionTreeClassifier().fit(X, y).predict(X)[0] == 0
        weighted = DecisionTreeClassifier().fit(
            X, y, sample_weight=np.array([10.0, 1.0, 1.0])
        )
        assert weighted.predict(X)[0] == 1

    def test_min_samples_leaf_keeps_a_leaf_when_the_best_split_is_short(self):
        # Feature 0 isolates the two positives (gini 0), feature 1 splits
        # 4/4 with a smaller gain.  With min_samples_leaf=3 the best split
        # leaves 2 rows on one side, so the root stays a leaf: the next-best
        # split is not tried (scikit-learn would split on feature 1).
        X, y = _short_best_split_dataset()
        tree = DecisionTreeClassifier(min_samples_leaf=3).fit(X, y)
        assert tree.root.is_leaf
        assert tree.predict(X).tolist() == [0] * 8
        split = DecisionTreeClassifier(min_samples_leaf=2).fit(X, y)
        assert (split.root.feature, split.root.threshold) == (0, 0.5)
        assert split.n_leaves() == 2

    def test_min_samples_split(self):
        X, y = _xor_dataset(n=40)
        tree = DecisionTreeClassifier(min_samples_split=1000).fit(X, y)
        assert tree.n_leaves() == 1

    def test_deterministic_given_seed(self):
        X, y = _parity3_dataset()
        a = DecisionTreeClassifier(max_features=2, random_state=5).fit(X, y)
        b = DecisionTreeClassifier(max_features=2, random_state=5).fit(X, y)
        assert a.predict(X).tolist() == b.predict(X).tolist()

    def test_invalid_max_features(self):
        X, y = _xor_dataset(n=20)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=99).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features="log42").fit(X, y)


class TestRandomForest:
    def test_learns_xor(self):
        X, y = _xor_dataset()
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
        assert forest.score(X, y) >= 0.95

    def test_no_bootstrap_mode(self):
        X, y = _xor_dataset(n=100)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        assert forest.score(X, y) == 1.0

    def test_rejects_zero_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_seeded_reproducibility(self):
        X, y = _parity3_dataset(n=150)
        a = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        assert a.predict(X).tolist() == b.predict(X).tolist()


class TestAdaBoost:
    def test_boosting_beats_single_stump(self):
        X, y = _xor_dataset()
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        boosted = AdaBoostClassifier(n_estimators=30, base_max_depth=2).fit(X, y)
        assert boosted.score(X, y) > stump.score(X, y)

    def test_early_stop_on_perfect_learner(self):
        X, y = _xor_dataset(n=50)
        model = AdaBoostClassifier(n_estimators=50, base_max_depth=3).fit(X, y)
        # A depth-3 tree nails XOR immediately; boosting should stop early.
        assert len(model.estimators_) == 1
        assert model.score(X, y) == 1.0

    def test_decision_function_sign_matches_predict(self):
        X, y = _linear_dataset(n=100)
        model = AdaBoostClassifier(n_estimators=10).fit(X, y)
        scores = model.decision_function(X)
        assert ((scores >= 0).astype(int) == model.predict(X)).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            AdaBoostClassifier(learning_rate=0)


class TestGradientBoosting:
    def test_learns_xor(self):
        X, y = _xor_dataset()
        model = GradientBoostingClassifier(n_estimators=40).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_staged_improvement(self):
        X, y = _parity3_dataset()
        few = GradientBoostingClassifier(n_estimators=2).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=60).fit(X, y)
        assert many.score(X, y) >= few.score(X, y)

    def test_predict_proba_in_unit_interval(self):
        X, y = _linear_dataset(n=100)
        model = GradientBoostingClassifier(n_estimators=15).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (100, 2)
        assert (proba >= 0).all() and (proba <= 1).all()
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_min_samples_leaf_keeps_a_leaf_when_the_best_split_is_short(self):
        # The first stage's residuals are 0.75 on the two positives and
        # -0.25 elsewhere: feature 0 scores 1.5, feature 1 scores 0.5.  The
        # best split leaves 2 rows on one side, so with min_samples_leaf=3
        # the regression tree stays a single leaf.
        X, y = _short_best_split_dataset()
        model = GradientBoostingClassifier(n_estimators=1, min_samples_leaf=3).fit(X, y)
        assert model.stages_[0].root.is_leaf
        model = GradientBoostingClassifier(n_estimators=1, min_samples_leaf=2).fit(X, y)
        root = model.stages_[0].root
        assert (root.feature, root.threshold) == (0, 0.5)
        assert root.right.is_leaf

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=-1)


class TestLinearSVC:
    def test_separable_margin(self):
        X, y = _linear_dataset()
        model = LinearSVC().fit(X, y)
        assert model.score(X, y) >= 0.97

    def test_decision_function_sign(self):
        X, y = _linear_dataset(n=100)
        model = LinearSVC().fit(X, y)
        assert (
            (model.decision_function(X) >= 0).astype(int) == model.predict(X)
        ).all()

    def test_weight_vector_direction(self):
        # Perfectly separable 1-D data: weight must be positive.
        X = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = LinearSVC().fit(X, y)
        assert model.coef_[0] > 0

    def test_c_validation(self):
        with pytest.raises(ValueError):
            LinearSVC(C=0)


class TestMLP:
    def test_learns_xor(self):
        X, y = _xor_dataset()
        model = MLPClassifier(
            hidden_layer_sizes=(16,), max_iter=300, random_state=0
        ).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_loss_decreases(self):
        X, y = _linear_dataset()
        model = MLPClassifier(max_iter=40, random_state=0).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_two_hidden_layers(self):
        X, y = _xor_dataset(n=150)
        model = MLPClassifier(
            hidden_layer_sizes=(16, 8), max_iter=250, random_state=1
        ).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_proba_rows_sum_to_one(self):
        X, y = _linear_dataset(n=60)
        model = MLPClassifier(max_iter=20, random_state=0).fit(X, y)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layer_sizes=())
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layer_sizes=(0,))

    def test_seeded_reproducibility(self):
        X, y = _linear_dataset(n=80)
        a = MLPClassifier(max_iter=15, random_state=9).fit(X, y)
        b = MLPClassifier(max_iter=15, random_state=9).fit(X, y)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))
