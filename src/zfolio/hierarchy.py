"""Hierarchical hardness models.

A class probability predictor (L2-penalized multinomial logistic
regression over the standardized raw features) feeds a softmax gate that
mixes per-class conditional ridge models. The experts stay fixed while the
gating weights are fit to minimize squared error of the mixed prediction,
initialized from the classifier output. Works for the 2-class
satisfiable/unsatisfiable split and for the general K-class form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .learning import DimensionMismatch, RidgeModel, model_from_doc, model_to_doc


GATING_TOL = 1e-6
GATING_MAX_ITER = 200


class SingleClassData(ValueError):
    pass


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ClassifierModel:
    """Multinomial logistic regression with an L2 penalty.

    `weights` has one row per non-reference class over [1, standardized x];
    the last class in `classes` is the reference with pinned zero scores.
    """

    classes: list[str]
    weights: np.ndarray
    penalty: float
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        k = len(self.classes)
        m = self.means.shape[0]
        if self.weights.shape != (k - 1, m + 1):
            raise DimensionMismatch("classifier weight shape disagrees with classes/features")

    @property
    def num_features(self) -> int:
        return self.means.shape[0]

    def standardize(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X - self.means) / self.scales

    def gate_inputs(self, X) -> np.ndarray:
        """The gate's input rows [standardized x, class probabilities]."""
        Z = self.standardize(X)
        return np.hstack([Z, self._proba(Z)])

    def predict_proba_matrix(self, X) -> np.ndarray:
        return self._proba(self.standardize(X))

    def _proba(self, Z: np.ndarray) -> np.ndarray:
        ones = np.ones((Z.shape[0], 1))
        scores = np.hstack([ones, Z]) @ self.weights.T
        scores = np.hstack([scores, np.zeros((Z.shape[0], 1))])
        return _softmax_rows(scores)


def train_classifier(features: np.ndarray, class_labels, penalty: float = 1e-2) -> ClassifierModel:
    """Fit the class probability model by penalized maximum likelihood.

    Optimization runs L-BFGS on the penalized log-likelihood until the
    gradient infinity-norm drops below 1e-6 or 500 iterations; intercepts
    are not penalized, so in the large-penalty limit outputs approach the
    class priors.
    """
    X = np.asarray(features, dtype=float)
    labels = list(class_labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SingleClassData("need at least two classes present")
    n, m = X.shape
    k = len(classes)
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[c] for c in labels])
    Y = np.zeros((n, k))
    Y[np.arange(n), y] = 1.0

    means = X.mean(axis=0)
    stds = X.std(axis=0)
    scales = np.where(stds > 0, stds, 1.0)
    Z = np.hstack([np.ones((n, 1)), (X - means) / scales])

    def negloglik(wflat):
        W = wflat.reshape(k - 1, m + 1)
        scores = np.hstack([Z @ W.T, np.zeros((n, 1))])
        shift = scores.max(axis=1, keepdims=True)
        logsumexp = shift[:, 0] + np.log(np.exp(scores - shift).sum(axis=1))
        ll = float((scores[np.arange(n), y] - logsumexp).sum())
        pen = 0.5 * penalty * float((W[:, 1:] ** 2).sum())
        P = _softmax_rows(scores)
        G = (P - Y)[:, : k - 1].T @ Z
        G[:, 1:] += penalty * W[:, 1:]
        return -(ll - pen), G.ravel()

    w0 = np.zeros((k - 1) * (m + 1))
    res = optimize.minimize(
        negloglik, w0, jac=True, method="L-BFGS-B",
        options={"maxiter": 500, "gtol": 1e-6, "ftol": 0.0},
    )
    W = res.x.reshape(k - 1, m + 1)
    return ClassifierModel(classes, W, penalty, means, scales)


def gate(v: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Softmax gate over K classes from the augmented input [x; s].

    For K = 2, v is a single weight row and the first class gets the
    logistic of v . [x; s]; a zero score gives exactly 0.5. For K > 2 the
    last class is pinned to zero scores for identifiability.
    """
    aug = np.concatenate([np.ravel(x), np.ravel(s)]).astype(float)
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if v.shape[1] != aug.shape[0]:
        raise DimensionMismatch(
            f"gating weights expect input of length {v.shape[1]}, got {aug.shape[0]}"
        )
    return _gate_matrix(v, aug[None, :])[0]


def _gate_matrix(v: np.ndarray, aug: np.ndarray) -> np.ndarray:
    scores = aug @ v.T
    scores = np.hstack([scores, np.zeros((aug.shape[0], 1))])
    return _softmax_rows(scores)


def _gating_loss_grad(v, aug, expert_preds, y):
    G = _gate_matrix(v, aug)
    mu = (G * expert_preds).sum(axis=1)
    r = y - mu
    loss = float(r @ r)
    S = (-2.0 * r)[:, None] * G * (expert_preds - mu[:, None])
    grad = S[:, : v.shape[0]].T @ aug
    return loss, grad


def fit_gating(conditional_models, classifier: ClassifierModel,
               features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Fit gating weights with the experts held fixed.

    Minimizes the squared error of the gated mixture by gradient descent
    with backtracking line search, starting from weights that lean on the
    classifier output, for at most GATING_MAX_ITER steps or until a step
    gains less than GATING_TOL. The returned weights never do worse than
    that initialization.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    n = X.shape[0]
    k = len(conditional_models)
    E = np.column_stack([m.predict_matrix(X) for m in conditional_models])
    aug = classifier.gate_inputs(X)
    p = aug.shape[1]

    # initialization: zero on the feature part, a positive pull toward the
    # classifier's own probabilities on the s part
    v = np.zeros((k - 1, p))
    mcols = classifier.num_features
    for row in range(k - 1):
        v[row, mcols + row] = 4.0
        v[row, mcols + k - 1] = -4.0

    loss, grad = _gating_loss_grad(v, aug, E, y)
    best_v, best_loss = v.copy(), loss
    step = 1.0
    for _ in range(GATING_MAX_ITER):
        improved = False
        trial_step = step
        while trial_step > 1e-12:
            cand = v - trial_step * grad
            cand_loss, cand_grad = _gating_loss_grad(cand, aug, E, y)
            if cand_loss < loss:
                improved = True
                break
            trial_step /= 2.0
        if not improved:
            break
        change = loss - cand_loss
        v, loss, grad = cand, cand_loss, cand_grad
        step = trial_step * 2.0
        if loss < best_loss:
            best_v, best_loss = v.copy(), loss
        if change < GATING_TOL:
            break
    return best_v


@dataclass
class HierarchicalModel:
    """Gated mixture of per-class ridge models over shared raw features."""

    classes: list[str]
    conditional_models: list[RidgeModel]
    classifier: ClassifierModel
    gating_weights: np.ndarray

    def __post_init__(self):
        self.gating_weights = np.atleast_2d(np.asarray(self.gating_weights, dtype=float))
        if len(self.conditional_models) != len(self.classes):
            raise DimensionMismatch("one conditional model per class required")
        targets = {m.target for m in self.conditional_models}
        if len(targets) != 1:
            raise ValueError("conditional models must share a target type")
        if self.classes != self.classifier.classes:
            raise ValueError("class order must match the classifier")
        k, width = len(self.classes), self.classifier.num_features + len(self.classes)
        if self.gating_weights.shape != (k - 1, width):
            raise DimensionMismatch(
                f"gating weights of shape {self.gating_weights.shape}, expected "
                f"{(k - 1, width)} for {k} classes"
            )

    @property
    def target(self) -> str:
        return self.conditional_models[0].target

    def gate_probs(self, x) -> np.ndarray:
        return self._gate_probs_matrix(np.asarray(x, dtype=float)[None, :])[0]

    def predict(self, x) -> float:
        """Expected target under the gated mixture; a convex combination of
        the conditional predictions."""
        return float(self.predict_matrix(np.asarray(x, dtype=float)[None, :])[0])

    def _gate_probs_matrix(self, X: np.ndarray) -> np.ndarray:
        return _gate_matrix(self.gating_weights, self.classifier.gate_inputs(X))

    def predict_matrix(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        E = np.column_stack([m.predict_matrix(X) for m in self.conditional_models])
        return (self._gate_probs_matrix(X) * E).sum(axis=1)


def train_hierarchical(features, targets, experts, classifier: ClassifierModel,
                       gate_rows) -> HierarchicalModel:
    """Fit the gate that mixes fitted per-class experts.

    `experts` holds one RidgeModel per class of `classifier`, in its class
    order; the rows each one was trained on are the caller's choice. The
    gate is fit with `classifier` on the rows `gate_rows` indexes, e.g.
    only those whose target was observed.
    """
    v = fit_gating(experts, classifier, np.asarray(features)[gate_rows],
                   np.asarray(targets)[gate_rows])
    return HierarchicalModel(list(classifier.classes), list(experts), classifier, v)


def confusion_matrix(classifier: ClassifierModel, features, labels) -> np.ndarray:
    """Row-normalized confusion matrix: rows are predicted classes,
    columns true classes, entries fractions of each predicted class."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    probs = classifier.predict_proba_matrix(X)
    pred = probs.argmax(axis=1)
    index = {c: i for i, c in enumerate(classifier.classes)}
    k = len(classifier.classes)
    counts = np.zeros((k, k))
    for p, t in zip(pred, labels):
        counts[p, index[t]] += 1
    sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(sums > 0, counts / sums, 0.0)
    return out


def hier_to_doc(model: HierarchicalModel) -> dict:
    return {
        "type": "hierarchical",
        "classes": list(model.classes),
        "conditional_models": [model_to_doc(m) for m in model.conditional_models],
        "classifier": {
            "classes": list(model.classifier.classes),
            "weights": [[float(v) for v in row] for row in model.classifier.weights],
            "penalty": model.classifier.penalty,
            "means": [float(v) for v in model.classifier.means],
            "scales": [float(v) for v in model.classifier.scales],
        },
        "gating_weights": [[float(v) for v in row] for row in model.gating_weights],
    }


def hier_from_doc(doc: dict) -> HierarchicalModel:
    if doc.get("type") != "hierarchical":
        raise ValueError(f"not a hierarchical model document: {doc.get('type')!r}")
    c = doc["classifier"]
    classifier = ClassifierModel(
        list(c["classes"]),
        np.array(c["weights"], dtype=float),
        float(c["penalty"]),
        np.array(c["means"], dtype=float),
        np.array(c["scales"], dtype=float),
    )
    conditionals = [model_from_doc(d) for d in doc["conditional_models"]]
    return HierarchicalModel(
        list(doc["classes"]), conditionals, classifier,
        np.array(doc["gating_weights"], dtype=float),
    )
