"""Hierarchical hardness models: classify, then mix conditional experts.

Satisfiable and unsatisfiable instances often follow different hardness
laws. A classifier predicts the class probabilities from the features; a
softmax gate (fed the features plus those probabilities) mixes per-class
ridge models into one prediction, and is trained so the mixture's squared
error can only improve on the classifier-initialized weighting.
"""

import numpy as np

from zfolio import (
    confusion_matrix,
    fit_ridge_model,
    train_classifier,
    train_hierarchical,
)
from zfolio.learning import make_basis

rng = np.random.default_rng(21)
n = 400

# two feature dimensions; the first separates the classes
X = rng.normal(size=(n, 2))
labels = np.where(X[:, 0] > 0, "sat", "unsat")
X[:, 0] += np.where(labels == "sat", 2.0, -2.0)

# each class has its own runtime law
y = np.where(labels == "sat", 1.0 + 0.5 * X[:, 1], -1.0 - 0.5 * X[:, 1])
y = y + 0.1 * rng.normal(size=n)

clf = train_classifier(X, labels.tolist())
M = confusion_matrix(clf, X, labels.tolist())
print("classifier confusion matrix (rows = predicted):")
for cls, row in zip(clf.classes, M):
    print(f"  {cls:6s} {np.round(row, 3)}")


def fit_conditional(rows):
    return fit_ridge_model(X[rows], y[rows], make_basis(X[rows], [0, 1]))


# one expert per class, trained on that class's rows; the gate is fit over
# them on all the rows (train_hierarchical takes a batch of such gates)
experts = [fit_conditional(np.flatnonzero(labels == cls)) for cls in clf.classes]
[model], _ = train_hierarchical(clf, X, [(experts, np.arange(n), y)])
flat = fit_ridge_model(X, y, make_basis(X, [0, 1]))

rmse = lambda preds: float(np.sqrt(np.mean((preds - y) ** 2)))
print(f"\nflat model RMSE:         {rmse(flat.predict_matrix(X)):.3f}")
print(f"hierarchical model RMSE: {rmse(model.predict_matrix(X)):.3f}")

x = np.array([2.5, 1.0])  # deep in the sat cluster
print(f"\ngate on a clearly-sat point: {np.round(model.gate_probs(x), 3)}")
print(f"mixture prediction: {model.predict(x):.3f} "
      f"(experts predict {[round(m.predict(x), 3) for m in model.conditional_models]})")
