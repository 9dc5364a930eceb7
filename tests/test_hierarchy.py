import json

import numpy as np
import pytest

from zfolio.hierarchy import (
    ClassifierModel,
    HierarchicalModel,
    SingleClassData,
    confusion_matrix,
    fit_gating,
    gate,
    hier_from_doc,
    hier_to_doc,
    train_classifier,
    train_hierarchical,
)
from zfolio.learning import (
    BasisSpec,
    DimensionMismatch,
    RidgeModel,
    fit_ridge_model,
    make_basis,
)


def linear_model(weights, intercept, sigma=0.1, target="log_runtime"):
    basis = BasisSpec.identity(list(range(len(weights))))
    return RidgeModel(basis, np.array(weights, float), 1e-3, sigma, target, intercept)


def gating_loss(v, experts, classifier, X, y) -> float:
    """Squared error of the gated mixture with gating weights v."""
    model = HierarchicalModel(list(classifier.classes), experts, classifier, v)
    r = y - model.predict_matrix(X)
    return float(r @ r)


def separable_data(rng, n=200, gap=3.0):
    half = n // 2
    Xa = rng.normal(size=(half, 2)) + [gap, 0.0]
    Xb = rng.normal(size=(n - half, 2)) + [-gap, 0.0]
    X = np.vstack([Xa, Xb])
    labels = ["sat"] * half + ["unsat"] * (n - half)
    return X, labels


class TestClassifier:
    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(0)
        X, labels = separable_data(rng)
        clf = train_classifier(X, labels)
        preds = [clf.classes[k] for k in clf.predict_proba_matrix(X).argmax(axis=1)]
        acc = np.mean([p == t for p, t in zip(preds, labels)])
        assert acc >= 0.99

    def test_no_signal_gives_priors(self):
        X = np.zeros((100, 3))
        labels = ["sat"] * 75 + ["unsat"] * 25
        clf = train_classifier(X, labels)
        probs = clf.predict_proba_matrix(np.zeros(3))[0]
        assert abs(probs[clf.classes.index("sat")] - 0.75) < 1e-3

    def test_large_penalty_shrinks_to_priors(self):
        rng = np.random.default_rng(1)
        X, labels = separable_data(rng, n=100)
        labels = ["sat"] * 60 + ["unsat"] * 40
        clf = train_classifier(X, labels, penalty=1e8)
        assert np.max(np.abs(clf.weights[:, 1:])) < 1e-4
        probs = clf.predict_proba_matrix(X)
        assert np.allclose(probs[:, clf.classes.index("sat")], 0.6, atol=1e-3)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            train_classifier(np.ones((5, 2)), ["sat"] * 5)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        labels = rng.choice(["a", "b", "c"], size=60).tolist()
        clf = train_classifier(X, labels)
        probs = clf.predict_proba_matrix(rng.normal(size=(50, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(3)
        X, labels = separable_data(rng, n=120)
        perm = rng.permutation(120)
        clf1 = train_classifier(X, labels)
        clf2 = train_classifier(X[perm], [labels[i] for i in perm])
        probe = rng.normal(size=(30, 2))
        assert np.allclose(
            clf1.predict_proba_matrix(probe), clf2.predict_proba_matrix(probe), atol=1e-4
        )


class TestGate:
    def test_zero_score_is_half(self):
        v = np.zeros(4)
        out = gate(v, np.array([1.0, 2.0]), np.array([0.3, 0.7]))
        assert out[0] == 0.5
        assert out[1] == 0.5

    def test_large_positive_score(self):
        v = np.array([20.0, 0.0, 0.0])
        out = gate(v, np.array([1.0]), np.array([0.5, 0.5]))
        assert out[0] > 1 - 1e-8

    def test_three_way_symmetry(self):
        v = np.zeros((2, 5))
        out = gate(v, np.array([1.0, -1.0]), np.array([0.2, 0.3, 0.5]))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_simplex_over_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            k = rng.integers(2, 5)
            m = rng.integers(1, 6)
            v = rng.normal(size=(k - 1, m + k)) * 5
            x = rng.normal(size=m) * 10
            s = rng.dirichlet(np.ones(k))
            out = gate(v, x, s)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0) and np.all(out <= 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gate(np.zeros(3), np.array([1.0]), np.array([0.5, 0.5, 0.5]))


def two_cluster_fixture(rng, n=200, noise=0.1):
    X, labels = separable_data(rng, n=n)
    labels = np.array(labels)
    expert_sat = linear_model([0.0, 0.5], 1.0)
    expert_unsat = linear_model([0.0, -0.5], -1.0)
    y = np.where(
        labels == "sat",
        1.0 + 0.5 * X[:, 1],
        -1.0 - 0.5 * X[:, 1],
    ) + noise * rng.normal(size=n)
    return X, y, labels, [expert_sat, expert_unsat]


class TestFitGating:
    def test_identical_experts_degenerate(self):
        rng = np.random.default_rng(5)
        X, labels = separable_data(rng, n=100)
        expert = linear_model([0.3, 0.3], 0.5)
        y = 0.5 + X @ np.array([0.3, 0.3]) + 0.05 * rng.normal(size=100)
        clf = train_classifier(X, labels)
        v = fit_gating([expert, expert], clf, X, y)
        loss = gating_loss(v, [expert, expert], clf, X, y)
        single = float(np.sum((y - expert.predict_matrix(X)) ** 2))
        assert abs(loss - single) < 1e-9

    def test_two_cluster_oracle(self):
        rng = np.random.default_rng(6)
        X, y, labels, experts = two_cluster_fixture(rng)
        clf = train_classifier(X, labels.tolist())
        v = fit_gating(experts, clf, X, y)
        loss = gating_loss(v, experts, clf, X, y)
        preds = np.column_stack([m.predict_matrix(X) for m in experts])
        oracle = float(
            np.sum((y - np.where(labels == "sat", preds[:, 0], preds[:, 1])) ** 2)
        )
        assert loss <= 1.05 * oracle

    def test_never_worse_than_initialization(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X, y, labels, experts = two_cluster_fixture(rng, n=80, noise=0.5)
            clf = train_classifier(X, labels.tolist())
            v = fit_gating(experts, clf, X, y)
            final = gating_loss(v, experts, clf, X, y)
            k, m = 2, clf.num_features
            v0 = np.zeros((k - 1, m + k))
            v0[0, m] = 4.0
            v0[0, m + 1] = -4.0
            initial = gating_loss(v0, experts, clf, X, y)
            assert final <= initial + 1e-12


class TestPredictHier:
    def make_model(self, gating_scale=0.0):
        classifier = ClassifierModel(
            ["sat", "unsat"], np.zeros((1, 3)), 1e-2, np.zeros(2), np.ones(2)
        )
        experts = [linear_model([1.0, 0.0], 0.0), linear_model([0.0, 1.0], 0.0)]
        v = np.full((1, 4), gating_scale)
        return HierarchicalModel(["sat", "unsat"], experts, classifier, v)

    def test_degenerate_gate_selects_one_expert(self):
        rng = np.random.default_rng(7)
        X, labels = separable_data(rng, n=60)
        clf = train_classifier(X, labels)
        experts = [linear_model([0.5, 0.0], 2.0), linear_model([0.0, 0.5], -2.0)]
        # huge weight on s_sat drives the gate to (1, 0) on sat-side points
        m = clf.num_features
        v = np.zeros((1, m + 2))
        v[0, m] = 1e3
        v[0, m + 1] = -1e3
        model = HierarchicalModel(["sat", "unsat"], experts, clf, v)
        x = np.array([4.0, 0.0])  # deep in the sat cluster
        assert abs(model.predict(x) - experts[0].predict(x)) < 1e-6

    def test_midpoint_mixture(self):
        model = self.make_model(0.0)  # zero gate weights: (0.5, 0.5)
        x = np.array([2.0, 4.0])
        expected = 0.5 * 2.0 + 0.5 * 4.0
        assert abs(model.predict(x) - expected) < 1e-12

    def test_convex_combination_property(self):
        rng = np.random.default_rng(8)
        X, labels = separable_data(rng, n=100)
        clf = train_classifier(X, labels)
        experts = [linear_model([0.7, -0.2], 1.0), linear_model([-0.4, 0.9], -1.0)]
        v = rng.normal(size=(1, clf.num_features + 2))
        model = HierarchicalModel(["sat", "unsat"], experts, clf, v)
        for _ in range(1000):
            x = rng.normal(size=2) * 5
            preds = [m.predict(x) for m in experts]
            est = model.predict(x)
            assert min(preds) - 1e-9 <= est <= max(preds) + 1e-9


class TestConfusionMatrix:
    def test_perfect_classifier_identity(self):
        rng = np.random.default_rng(9)
        X, labels = separable_data(rng, n=100, gap=5.0)
        clf = train_classifier(X, labels)
        M = confusion_matrix(clf, X, labels)
        assert np.allclose(M, np.eye(2))

    def test_constant_classifier_priors_row(self):
        clf = ClassifierModel(
            ["sat", "unsat"], np.array([[10.0, 0.0, 0.0]]), 1e-2, np.zeros(2), np.ones(2)
        )
        X = np.zeros((10, 2))
        labels = ["sat"] * 7 + ["unsat"] * 3
        M = confusion_matrix(clf, X, labels)
        assert np.allclose(M[0], [0.7, 0.3])
        assert np.allclose(M[1], [0.0, 0.0])

    def test_rows_sum_to_one_when_nonempty(self):
        rng = np.random.default_rng(10)
        X, labels = separable_data(rng, n=80)
        clf = train_classifier(X, labels)
        M = confusion_matrix(clf, X, labels)
        for row in M:
            assert row.sum() == 0.0 or abs(row.sum() - 1.0) < 1e-12
        assert M[0, 0] >= 0.95 and M[1, 1] >= 0.95


class TestTrainHierarchical:
    def test_end_to_end_beats_flat_model_on_mixture(self):
        rng = np.random.default_rng(11)
        X, y, labels, _ = two_cluster_fixture(rng, n=300)

        def fit_conditional(rows):
            basis = make_basis(X[rows], [0, 1])
            return fit_ridge_model(X[rows], y[rows], basis)

        model = train_hierarchical(X, y, labels.tolist(), fit_conditional,
                                   train_classifier(X, labels), np.arange(len(y)))
        flat = fit_ridge_model(X, y, make_basis(X, [0, 1]))
        rmse_h = np.sqrt(np.mean((model.predict_matrix(X) - y) ** 2))
        rmse_f = np.sqrt(np.mean((flat.predict_matrix(X) - y) ** 2))
        assert rmse_h < rmse_f

    def test_six_class_general_form(self):
        rng = np.random.default_rng(12)
        n = 240
        X = rng.normal(size=(n, 3))
        cats = np.repeat(np.arange(6), n // 6)
        X[:, 0] += cats * 2.0
        y = cats.astype(float) + 0.05 * rng.normal(size=n)
        labels = [f"c{c}:{'sat' if c % 2 else 'unsat'}" for c in cats]

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1, 2]))

        model = train_hierarchical(X, y, labels, fit_conditional,
                                   train_classifier(X, labels), np.arange(n))
        assert len(model.classes) == 6
        preds = model.predict_matrix(X)
        assert np.sqrt(np.mean((preds - y) ** 2)) < 0.6


class TestHierPersistence:
    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(13)
        X, y, labels, _ = two_cluster_fixture(rng, n=120)

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        model = train_hierarchical(X, y, labels.tolist(), fit_conditional,
                                   train_classifier(X, labels), np.arange(len(y)))
        loaded = hier_from_doc(json.loads(json.dumps(hier_to_doc(model))))
        probe = rng.normal(size=(100, 2))
        assert np.array_equal(model.predict_matrix(probe), loaded.predict_matrix(probe))

    def test_doc_round_trip(self):
        rng = np.random.default_rng(14)
        X, y, labels, _ = two_cluster_fixture(rng, n=80)

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        model = train_hierarchical(X, y, labels.tolist(), fit_conditional,
                                   train_classifier(X, labels), np.arange(len(y)))
        again = hier_from_doc(hier_to_doc(model))
        assert again.classes == model.classes
        assert np.array_equal(again.gating_weights, model.gating_weights)

    def test_gating_shape_checked_on_load(self):
        rng = np.random.default_rng(15)
        X, y, labels, _ = two_cluster_fixture(rng, n=80)

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        doc = hier_to_doc(train_hierarchical(X, y, labels.tolist(), fit_conditional,
                                             train_classifier(X, labels), np.arange(len(y))))
        assert np.shape(doc["gating_weights"]) == (1, 4)  # (k-1, m+k)
        for bad in ([row[:-1] for row in doc["gating_weights"]],
                    doc["gating_weights"] * 2, [[0.0] * 5]):
            with pytest.raises(DimensionMismatch):
                hier_from_doc({**doc, "gating_weights": bad})
