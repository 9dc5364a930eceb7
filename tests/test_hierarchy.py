import json

import numpy as np
import pytest

import zfolio.hierarchy as hierarchy_module
from zfolio import learning
from zfolio.hierarchy import (
    GATING_CLASS_PENALTY,
    GATING_PENALTY,
    GATING_TOL,
    ClassifierModel,
    HierarchicalModel,
    ModelStack,
    SingleClassData,
    confusion_matrix,
    fit_gating,
    gate_probs,
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


def class_experts(fit, labels, classifier):
    """One expert per class of the classifier, fitted on that class's rows."""
    labels = np.asarray(labels)
    return [fit(np.flatnonzero(labels == cls)) for cls in classifier.classes]


def one_model(X, y, experts, classifier, rows):
    """The hierarchical model of one gate over `rows`: a train_hierarchical
    batch of one."""
    [model], _ = train_hierarchical(classifier, X, [(experts, rows, np.asarray(y)[rows])])
    return model


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

    def test_large_penalty_shrinks_to_priors(self, monkeypatch):
        rng = np.random.default_rng(1)
        X, labels = separable_data(rng, n=100)
        labels = ["sat"] * 60 + ["unsat"] * 40
        monkeypatch.setattr(hierarchy_module, "CLASSIFIER_PENALTY", 1e8)
        clf = train_classifier(X, labels)
        assert clf.penalty == 1e8
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
    """gate_probs, the gate of every prediction, on one input row
    [x, class probabilities]."""

    def test_zero_score_is_half(self):
        out = gate_probs(np.zeros((1, 4)), np.array([1.0, 2.0, 0.3, 0.7]))
        assert out[0] == 0.5
        assert out[1] == 0.5

    def test_large_positive_score(self):
        out = gate_probs(np.array([[20.0, 0.0, 0.0]]), np.array([1.0, 0.5, 0.5]))
        assert out[0] > 1 - 1e-8

    def test_three_way_symmetry(self):
        out = gate_probs(np.zeros((2, 5)), np.array([1.0, -1.0, 0.2, 0.3, 0.5]))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_simplex_over_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            k = rng.integers(2, 5)
            m = rng.integers(1, 6)
            v = rng.normal(size=(k - 1, m + k)) * 5
            x = rng.normal(size=m) * 10
            s = rng.dirichlet(np.ones(k))
            out = gate_probs(v, np.concatenate([x, s]))
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0) and np.all(out <= 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gate_probs(np.zeros((1, 3)), np.array([1.0, 0.5, 0.5, 0.5]))

    def test_stacked_gates_and_rows_broadcast(self):
        # a (rows, 1, width) block under (gates, K-1, width) weights gives
        # (rows, gates, K), each cell as its row under its gate alone
        rng = np.random.default_rng(5)
        V, A = rng.normal(size=(4, 2, 6)), rng.normal(size=(7, 6))
        block = gate_probs(V, A[:, None, :])
        assert block.shape == (7, 4, 3)
        for i in range(7):
            for g in range(4):
                assert block[i, g].tobytes() == gate_probs(V[g], A[i]).tobytes()


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
        v = one_model(X, y, [expert, expert], clf, np.arange(len(y))).gating_weights
        loss = gating_loss(v, [expert, expert], clf, X, y)
        single = float(np.sum((y - expert.predict_matrix(X)) ** 2))
        assert abs(loss - single) < 1e-9

    def test_two_cluster_oracle(self):
        rng = np.random.default_rng(6)
        X, y, labels, experts = two_cluster_fixture(rng)
        clf = train_classifier(X, labels.tolist())
        v = one_model(X, y, experts, clf, np.arange(len(y))).gating_weights
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
            v = one_model(X, y, experts, clf, np.arange(len(y))).gating_weights
            final = gating_loss(v, experts, clf, X, y)
            k, m = 2, clf.num_features
            v0 = np.zeros((k - 1, m + k))
            v0[0, m] = 4.0
            v0[0, m + 1] = -4.0
            initial = gating_loss(v0, experts, clf, X, y)
            assert final <= initial + 1e-12


def scaled_expert(model, c):
    """`model` with its predictions multiplied by c."""
    return RidgeModel(model.basis, model.weights * c, model.delta, model.sigma, model.target,
                      model.intercept * c)


def penalized_gradient(v, inputs, E, y, m):
    """Gradient of fit_gating's penalized objective for a 2-class gate,
    written out by hand: 0.5 |y - mixture|^2 plus the pull toward the
    initialization."""
    g = 1.0 / (1.0 + np.exp(-(inputs @ v[0])))
    r = y - (g * E[:, 0] + (1 - g) * E[:, 1])
    spread = np.abs(E[:, 0] - E[:, 1])
    lam = np.full(v.shape[1], GATING_PENALTY)
    lam[m:] = GATING_CLASS_PENALTY
    v0 = np.zeros_like(v[0])
    v0[m], v0[m + 1] = 4.0, -4.0
    grad = -(r * g * (1 - g) * (E[:, 0] - E[:, 1])) @ inputs
    return grad + lam * np.mean(spread**2) * (v[0] - v0), float(spread @ spread)


class TestBatchedGating:
    def mixed_batch(self):
        """2-class gates over different rows, one with two identical experts,
        and a 6-class gate."""
        rng = np.random.default_rng(20)
        X, y, labels, experts = two_cluster_fixture(rng, n=160, noise=0.5)
        clf = train_classifier(X, labels.tolist())
        inputs = clf.gate_inputs(X)
        E = np.column_stack([m.predict_matrix(X) for m in experts])
        same = np.column_stack([experts[0].predict_matrix(X)] * 2)
        gates = [(inputs, np.arange(160), E, y),
                 (inputs, np.arange(0, 160, 3), E[::3], y[::3]),
                 (inputs, np.arange(40, 110), same[40:110], y[40:110]),
                 (inputs, np.arange(1, 160, 2), E[1::2], 2.0 * y[1::2])]
        n = 120
        X6 = rng.normal(size=(n, 3))
        cats = np.repeat(np.arange(6), n // 6)
        X6[:, 0] += cats * 2.0
        y6 = cats.astype(float) + 0.3 * rng.normal(size=n)
        clf6 = train_classifier(X6, [f"c{c}" for c in cats])
        E6 = np.column_stack([np.full(n, c) + 0.1 * X6[:, 1] for c in range(6)])
        gates.insert(2, (clf6.gate_inputs(X6), np.arange(n), E6, y6))
        return gates

    def test_gate_in_a_mixed_batch_equals_it_alone(self):
        gates = self.mixed_batch()
        together = fit_gating(gates)
        assert [fit.weights.shape for fit in together] == [(1, 4), (1, 4), (5, 9), (1, 4),
                                                           (1, 4)]
        for gate, fit in zip(gates, together):
            [alone] = fit_gating([gate])
            assert fit.converged and alone.converged
            assert np.max(np.abs(fit.weights - alone.weights)) <= 1e-12
        # identical experts leave nothing to fit: the initialization stays
        assert together[3].iterations == 0
        assert np.array_equal(together[3].weights, [[0.0, 0.0, 4.0, -4.0]])

    def test_chunks_match_one_chunk(self, monkeypatch):
        # at 6000 cells the four 2-class gates run in two chunks, through the
        # one budget learning.FIT_BATCH_CELLS, and give their one-chunk weights
        gates = self.mixed_batch()
        whole = fit_gating(gates)
        chunks = []
        gate_chunk = hierarchy_module._gate_chunk

        def counted(chunk):
            chunks.append(len(chunk))
            return gate_chunk(chunk)
        monkeypatch.setattr(hierarchy_module, "_gate_chunk", counted)
        monkeypatch.setattr(learning, "FIT_BATCH_CELLS", 6000)
        for got, want in zip(fit_gating(gates), whole):
            assert np.max(np.abs(got.weights - want.weights)) <= 1e-12
        assert chunks == [1, 3, 1]

    def test_scaling_targets_and_experts_keeps_the_weights(self):
        rng = np.random.default_rng(21)
        X, y, labels, experts = two_cluster_fixture(rng, n=120, noise=0.5)
        clf = train_classifier(X, labels.tolist())
        rows = np.arange(120)
        v = one_model(X, y, experts, clf, rows).gating_weights
        for c in (1e-3, 0.7, 2000.0):
            scaled = one_model(X, c * y, [scaled_expert(m, c) for m in experts], clf,
                               rows).gating_weights
            assert np.max(np.abs(scaled - v)) <= 1e-9, c

    def test_weights_meet_the_gradient_tolerance(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            X, y, labels, experts = two_cluster_fixture(rng, n=100, noise=0.3 + seed)
            clf = train_classifier(X, labels.tolist())
            v = one_model(X, y, experts, clf, np.arange(len(y))).gating_weights
            E = np.column_stack([m.predict_matrix(X) for m in experts])
            grad, scale = penalized_gradient(v, clf.gate_inputs(X), E, y, clf.num_features)
            assert np.max(np.abs(grad)) <= GATING_TOL * scale

    def test_weights_do_not_hinge_on_where_the_tolerance_is_crossed(self, monkeypatch):
        # the undamped Newton step taken at the tolerance lands each gate at
        # its optimum, so a tenfold looser tolerance gives the same weights
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            X, y, labels, experts = two_cluster_fixture(rng, n=100, noise=0.5 + seed)
            clf = train_classifier(X, labels.tolist())
            v = one_model(X, y, experts, clf, np.arange(len(y))).gating_weights
            monkeypatch.setattr(hierarchy_module, "GATING_TOL", 10 * GATING_TOL)
            loose = one_model(X, y, experts, clf, np.arange(len(y))).gating_weights
            monkeypatch.undo()
            assert np.max(np.abs(loose - v)) <= 1e-9, seed

    def test_rounding_in_the_experts_stays_rounding_in_the_predictions(self):
        # a relative change of 1e-13 in the expert predictions, as from a
        # different summation order upstream, moves the hierarchical
        # predictions by less than 1e-9, with targets in the hundreds, as
        # scores are
        rng = np.random.default_rng(4)
        X, y, labels, experts = two_cluster_fixture(rng, n=150, noise=2.0)
        experts, y = [scaled_expert(m, 100.0) for m in experts], 100.0 * y
        clf = train_classifier(X, labels.tolist())
        rows = np.arange(len(y))
        model = one_model(X, y, experts, clf, rows)
        nudged = one_model(X, y, [scaled_expert(m, 1 + 1e-13) for m in experts],
                           clf, rows)
        probe = np.vstack([X, rng.normal(size=(100, 2)) * 4])
        assert np.max(np.abs(model.predict_matrix(probe) - nudged.predict_matrix(probe))) < 1e-9


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


class TestModelStack:
    """A stack predicts ridge, two-class and six-class hierarchical models
    together, each with the bits of its own predict_matrix, whatever rows or
    models it is stacked with."""

    @staticmethod
    def mixed_models(rng, m=5):
        def ridge(raw, pairs):
            dim = len(raw) + len(pairs)
            basis = BasisSpec(raw, pairs, rng.normal(size=dim), rng.uniform(0.5, 2, size=dim))
            return RidgeModel(basis, rng.normal(size=dim) * 3, 1e-3, 0.1, "score",
                              float(rng.normal()))

        def hierarchical(classifier, experts):
            k = len(classifier.classes)
            v = rng.normal(size=(k - 1, m + k))
            return HierarchicalModel(list(classifier.classes), experts, classifier, v)

        def classifier(classes):
            k = len(classes)
            return ClassifierModel(classes, rng.normal(size=(k - 1, m + 1)), 1e-2,
                                   rng.normal(size=m), rng.uniform(0.5, 2, size=m))

        experts = [ridge([0], []), ridge([1, 3], [(0, 4)]), ridge([], []),
                   ridge([4, 2, 0], [(1, 1), (2, 3)]), ridge([2, 1], [(0, 3)]),
                   ridge([3], [(2, 4)])]
        sat2, six = classifier(["sat", "unsat"]), classifier([f"c{i}" for i in range(6)])
        return [experts[1],
                hierarchical(sat2, experts[:2]),
                hierarchical(six, experts),
                experts[3],
                hierarchical(sat2, [experts[5], experts[2]]),
                hierarchical(six, experts[::-1]),
                hierarchical(copied_classifier(sat2), experts[2:4])]

    def test_stacked_alone_and_in_blocks_bit_identical(self):
        rng = np.random.default_rng(21)
        models = self.mixed_models(rng)
        X = rng.normal(size=(37, 5)) * 3
        stacked = ModelStack(models).predict(X)
        assert stacked.shape == (37, len(models))
        for j, model in enumerate(models):
            block = model.predict_matrix(X)
            assert block.tobytes() == stacked[:, j].tobytes()
            for i in range(len(X)):
                assert model.predict_matrix(X[i:i + 1])[0].tobytes() == block[i].tobytes()
                assert model.predict(X[i]) == block[i]
        order = rng.permutation(len(models))
        shuffled = ModelStack([models[j] for j in order]).predict(X[5:9])
        assert shuffled.tobytes() == np.ascontiguousarray(stacked[5:9, order]).tobytes()
        twice = ModelStack([models[2], models[2]]).predict(X)
        assert np.array_equal(twice, stacked[:, [2, 2]])

    def test_classifier_probabilities_do_not_depend_on_the_block(self):
        rng = np.random.default_rng(22)
        for classes in (["sat", "unsat"], [f"c{i}" for i in range(6)]):
            k = len(classes)
            clf = ClassifierModel(classes, rng.normal(size=(k - 1, 4)), 1e-2,
                                  rng.normal(size=3), rng.uniform(0.5, 2, size=3))
            X = rng.normal(size=(50, 3))
            block = clf.predict_proba_matrix(X)
            for i in range(len(X)):
                assert clf.predict_proba_matrix(X[i]).tobytes() == block[i].tobytes()

    def test_short_rows_rejected(self):
        rng = np.random.default_rng(23)
        with pytest.raises(DimensionMismatch):
            ModelStack(self.mixed_models(rng)).predict(np.ones((2, 4)))


def copied_classifier(classifier):
    """An equal classifier in a separate object."""
    return ClassifierModel(list(classifier.classes), classifier.weights.copy(),
                           classifier.penalty, classifier.means.copy(),
                           classifier.scales.copy())


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
    def batch(self):
        """Four 2-class gates under one classifier, each over its own 80 rows,
        with experts they share, their own, and one expert twice."""
        rng = np.random.default_rng(30)
        X, y, labels, experts = two_cluster_fixture(rng, n=160, noise=0.5)
        clf = train_classifier(X, labels.tolist())

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        fitted = class_experts(fit_conditional, labels, clf)
        perm = rng.permutation(160)[:80]
        gates = [(experts, np.arange(80), y[:80]),
                 (fitted, np.sort(perm), y[np.sort(perm)]),
                 ([scaled_expert(m, 3.0) for m in experts], perm, 3.0 * y[perm]),
                 ([fitted[0], fitted[0]], np.arange(1, 160, 2), y[1::2])]
        return clf, X, gates

    def test_batch_equals_batches_of_one(self, monkeypatch):
        # gates of equal row counts share their zero padding in fit_gating, so
        # each gate's weights are its bits alone; the gate inputs and each
        # distinct expert's predictions are made once, and every gate is
        # fitted in one fit_gating call through the module
        clf, X, gates = self.batch()
        alone = [train_hierarchical(clf, X, [gate]) for gate in gates]
        predicted, calls = [], []
        predict_matrix, fit_gating_ = RidgeModel.predict_matrix, hierarchy_module.fit_gating

        def counted_predict(model, X):
            predicted.append(id(model))
            return predict_matrix(model, X)

        def counted_fit(batch):
            calls.append(len(batch))
            return fit_gating_(batch)
        monkeypatch.setattr(RidgeModel, "predict_matrix", counted_predict)
        monkeypatch.setattr(hierarchy_module, "fit_gating", counted_fit)
        models, fits = train_hierarchical(clf, X, gates)
        assert calls == [4]
        distinct = {id(e) for experts, _, _ in gates for e in experts}
        assert sorted(predicted) == sorted(distinct) and len(distinct) == 6
        for (experts, _, _), model, fit, ([one], [one_fit]) in zip(gates, models, fits, alone):
            assert model.conditional_models == list(experts) and model.classifier is clf
            assert model.gating_weights.tobytes() == one.gating_weights.tobytes()
            assert fit.weights.tobytes() == one_fit.weights.tobytes()
            assert (fit.iterations, fit.converged) == (one_fit.iterations, one_fit.converged)
        assert train_hierarchical(clf, X, []) == ([], [])

    def test_rows_of_the_features_equal_the_features_of_the_rows(self):
        # every prediction reduces over its own row, so a gate over rows of X
        # is the gate over X[rows] with all of its rows, bit for bit
        clf, X, gates = self.batch()
        for experts, rows, targets in gates:
            [model], _ = train_hierarchical(clf, X, [(experts, rows, targets)])
            [sub], _ = train_hierarchical(clf, X[rows], [(experts, np.arange(len(rows)),
                                                          targets)])
            assert model.gating_weights.tobytes() == sub.gating_weights.tobytes()

    def test_end_to_end_beats_flat_model_on_mixture(self):
        rng = np.random.default_rng(11)
        X, y, labels, _ = two_cluster_fixture(rng, n=300)

        def fit_conditional(rows):
            basis = make_basis(X[rows], [0, 1])
            return fit_ridge_model(X[rows], y[rows], basis)

        clf = train_classifier(X, labels)
        model = one_model(X, y, class_experts(fit_conditional, labels, clf), clf,
                          np.arange(len(y)))
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

        clf = train_classifier(X, labels)
        model = one_model(X, y, class_experts(fit_conditional, labels, clf), clf,
                          np.arange(n))
        assert len(model.classes) == 6
        preds = model.predict_matrix(X)
        assert np.sqrt(np.mean((preds - y) ** 2)) < 0.6


class TestHierPersistence:
    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(13)
        X, y, labels, _ = two_cluster_fixture(rng, n=120)

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        clf = train_classifier(X, labels)
        model = one_model(X, y, class_experts(fit_conditional, labels, clf), clf,
                          np.arange(len(y)))
        loaded = hier_from_doc(json.loads(json.dumps(hier_to_doc(model))))
        probe = rng.normal(size=(100, 2))
        assert np.array_equal(model.predict_matrix(probe), loaded.predict_matrix(probe))

    def test_doc_round_trip(self):
        rng = np.random.default_rng(14)
        X, y, labels, _ = two_cluster_fixture(rng, n=80)

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        clf = train_classifier(X, labels)
        model = one_model(X, y, class_experts(fit_conditional, labels, clf), clf,
                          np.arange(len(y)))
        again = hier_from_doc(hier_to_doc(model))
        assert again.classes == model.classes
        assert np.array_equal(again.gating_weights, model.gating_weights)

    def test_gating_shape_checked_on_load(self):
        rng = np.random.default_rng(15)
        X, y, labels, _ = two_cluster_fixture(rng, n=80)

        def fit_conditional(rows):
            return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))

        clf = train_classifier(X, labels)
        doc = hier_to_doc(one_model(X, y, class_experts(fit_conditional, labels, clf),
                                    clf, np.arange(len(y))))
        assert np.shape(doc["gating_weights"]) == (1, 4)  # (k-1, m+k)
        for bad in ([row[:-1] for row in doc["gating_weights"]],
                    doc["gating_weights"] * 2, [[0.0] * 5]):
            with pytest.raises(DimensionMismatch):
                hier_from_doc({**doc, "gating_weights": bad})
