"""Hierarchical hardness models.

A class probability predictor (multinomial logistic regression over the
standardized raw features, with L2 penalty CLASSIFIER_PENALTY) feeds a
softmax gate that mixes per-class conditional ridge models. The experts
stay fixed while the gating weights are fit to minimize the squared error
of the mixed prediction plus an L2 pull toward the initialization, which
leans on the classifier output; the pull scales with the spread of the
experts, so the optimum is finite and the weights follow the data
smoothly. train_hierarchical fits the gates of a batch of models, such as
all those of a portfolio build, in one fit_gating call, which solves them
in lockstep by damped Newton steps with the exact Hessian (the second-order
fitting of gating networks of Jordan & Jacobs, 1994), each to a gradient
tolerance, chunk by chunk (learning._run_chunks). Works for the 2-class
satisfiable/unsatisfiable split and the general K-class form.
ModelStack predicts any mix of flat and hierarchical models in one pass,
through learning.contract only, so a row's prediction does not depend on the
rows or models it is predicted with.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .learning import (DimensionMismatch, RidgeModel, _keep, _run_chunks, _standardize_columns,
                       contract, expand_terms, model_from_doc, model_to_doc, stacked_terms)

# scipy.optimize is imported inside train_classifier, its one user: `zfolio
# features` and `zfolio solve` predict with numpy alone and never load it.


CLASSIFIER_PENALTY = 1e-2  # L2 penalty of the class probability model's feature weights
GATING_PENALTY = 1.0  # pull of the gate's feature weights, per mean squared expert range
# Pull of its class-probability weights, likewise. Any positive value makes
# the optimum finite where the classifier's probabilities saturate. Larger
# values bias the gate toward its initialization: the two-cluster oracle test
# in tests/test_hierarchy.py (loss at most 1.05x the oracle's) reads 1.023
# here and fails from about 9.7e-3.
GATING_CLASS_PENALTY = 3e-3
GATING_TOL = 1e-9  # gradient tolerance, relative to the summed squared expert range
GATING_MAX_ITER = 200  # backstop on the Newton iterations of one gate

log = logging.getLogger(__name__)


class SingleClassData(ValueError):
    pass


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
        scores = self.weights[:, 0] + contract(Z[:, None, :], self.weights[:, 1:])
        return _pinned_softmax(scores)


def train_classifier(features: np.ndarray, class_labels) -> ClassifierModel:
    """Fit the class probability model by maximum likelihood, penalized by
    CLASSIFIER_PENALTY.

    Optimization runs L-BFGS on the penalized log-likelihood until the
    gradient infinity-norm drops below 1e-6 or 500 iterations; intercepts
    are not penalized, so in the large-penalty limit outputs approach the
    class priors.
    """
    import scipy.optimize
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

    means, scales = _standardize_columns(X)
    Z = np.hstack([np.ones((n, 1)), (X - means) / scales])

    def negloglik(wflat):
        W = wflat.reshape(k - 1, m + 1)
        scores = np.hstack([Z @ W.T, np.zeros((n, 1))])
        shift = scores.max(axis=1, keepdims=True)
        logsumexp = shift[:, 0] + np.log(np.exp(scores - shift).sum(axis=1))
        ll = float((scores[np.arange(n), y] - logsumexp).sum())
        pen = 0.5 * CLASSIFIER_PENALTY * float((W[:, 1:] ** 2).sum())
        P = _softmax_rows(scores)
        G = (P - Y)[:, : k - 1].T @ Z
        G[:, 1:] += CLASSIFIER_PENALTY * W[:, 1:]
        return -(ll - pen), G.ravel()

    w0 = np.zeros((k - 1) * (m + 1))
    res = scipy.optimize.minimize(
        negloglik, w0, jac=True, method="L-BFGS-B",
        options={"maxiter": 500, "gtol": 1e-6, "ftol": 0.0},
    )
    W = res.x.reshape(k - 1, m + 1)
    return ClassifierModel(classes, W, CLASSIFIER_PENALTY, means, scales)


def gate_probs(weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Softmax gate probabilities over K classes of gate input rows under
    weights of shape (K-1, width); the last class is pinned to a zero score
    for identifiability, so for K = 2 the first class gets the logistic of its
    score and a zero score gives exactly 0.5.

    The scores are learning.contract(inputs[..., None, :], weights), so the
    leading axes of both broadcast: a (rows, 1, width) block of inputs under a
    (gates, K-1, width) stack of weights gives (rows, gates, K).
    """
    if weights.shape[-1] != inputs.shape[-1]:
        raise DimensionMismatch(
            f"gating weights expect input of length {weights.shape[-1]}, "
            f"got {inputs.shape[-1]}"
        )
    return _pinned_softmax(contract(inputs[..., None, :], weights))


def _pinned_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over K-1 class scores and the last class's pinned zero score."""
    return _softmax_rows(np.concatenate([scores, np.zeros(scores.shape[:-1] + (1,))], axis=-1))


def gate(v: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """gate_probs of the one augmented input [x; s] under weights v; acceptance
    criterion 4 checks its anchors and simplex in this single-row form."""
    aug = np.concatenate([np.ravel(x), np.ravel(s)]).astype(float)
    return gate_probs(np.atleast_2d(np.asarray(v, dtype=float)), aug)


@dataclass
class GateFit:
    """A fitted gate: its weights, the Newton iterations it took, and
    whether its gradient met the tolerance before GATING_MAX_ITER."""

    weights: np.ndarray
    iterations: int
    converged: bool


def fit_gating(gates) -> list[GateFit]:
    """Fit gating weights with the experts held fixed, for a batch of gates.

    `gates` is a sequence of (inputs, rows, predictions, targets): gate input
    rows (ClassifierModel.gate_inputs; many gates can share one array), the
    rows of them a gate learns from, its experts' (rows, K) predictions on
    those rows in the classifier's class order, and its targets. One GateFit
    per gate comes back, in input order.

    Each gate minimizes the squared error of its mixture plus an L2 pull of
    its weights toward the initialization, which is zero on the feature part
    and leans on the classifier's probabilities (+4 on a class's own
    probability, -4 on the last class's). The pull is GATING_PENALTY on the
    feature part and GATING_CLASS_PENALTY on the probability part, each
    times the rows' mean squared expert range (the largest minus the
    smallest expert prediction), so it has the targets' units and a scaled
    problem has the same solution. With the pull the optimum is finite and
    the weights are a smooth function of the data.

    The solver takes damped Newton (Levenberg-Marquardt) steps with the
    exact Hessian, the Gauss-Newton term minus the residual curvature term,
    on zero-padded (gates, rows, weights) stacks: gates of the same input
    width and class count run in lockstep, in the input-order chunks
    learning._run_chunks cuts, with one batched solve per iteration. A step
    is kept only if it lowers the objective; the damping falls after a kept
    step and rises after a refused one (Nielsen's rule). A gate leaves its
    chunk once the largest entry of its penalized gradient is at most
    GATING_TOL times the summed squared expert range of its rows, after one
    undamped Newton step from there, so its weights do not hinge on where
    exactly it crossed the tolerance. GATING_MAX_ITER is only a backstop: a
    gate still short of the tolerance there keeps its last accepted weights
    and is logged at DEBUG.
    """
    gates = [(inputs, np.asarray(rows), np.asarray(E, dtype=float),
              np.asarray(y, dtype=float)) for inputs, rows, E, y in gates]

    def cells(group, count, largest):
        # padded cells per gate at the chunk's peak: its input rows, and either their
        # product with each of the K-1 weight rows in gate_probs or their weighted copy
        # in a Hessian product; six (rows, K) arrays of the mixture, and four Hessians
        # (the current and trial ones, the damped copy solved, the selection)
        width, k = group
        return count * (largest[0] * (max(2, k) * width + 6 * k)
                        + 4 * ((k - 1) * width) ** 2)

    return _run_chunks(gates, lambda gate: (gate[0].shape[1], gate[2].shape[1]),
                       lambda gate: (len(gate[1]),), cells, lambda _, chunk: _gate_chunk(chunk))


def _gate_terms(V, A, D, Y, lam, V0):
    """Penalized objective, gradient and Hessian of a stack of gates.

    A holds the gate input rows, D the first K-1 experts' predictions minus
    the last one's and Y the targets minus the last expert's prediction, so
    the mixture is the last expert plus sum_k G_k D_k and two identical
    experts give an exactly zero gradient. lam is the penalty per weight.
    Padded rows are zero in A, D and Y and add exact zeros everywhere.
    """
    q = V.shape[1]
    G = gate_probs(V[:, None], A)[:, :, :q]
    mix = (G * D).sum(axis=2)
    r = Y - mix
    dV = V - V0
    f = 0.5 * np.einsum("bn,bn->b", r, r) + 0.5 * np.einsum("bkj,bkj,bkj->b", lam, dV, dV)
    a = G * (D - mix[:, :, None])  # d mixture / d score_k = G_k (E_k - mixture)
    g = np.swapaxes(a * -r[:, :, None], 1, 2) @ A + lam * dV
    B, _, p = A.shape
    H = np.empty((B, q, p, q, p))
    for k in range(q):
        for l in range(k, q):
            # Gauss-Newton a_k a_l minus r times d2 mixture / d score_k d score_l
            w = a[:, :, k] * a[:, :, l] + r * (G[:, :, l] * a[:, :, k] + G[:, :, k] * a[:, :, l])
            if k == l:
                w -= r * a[:, :, k]
            H[:, k, :, l] = np.swapaxes(A * w[:, :, None], 1, 2) @ A
            H[:, l, :, k] = np.swapaxes(H[:, k, :, l], 1, 2)
    H = H.reshape(B, q * p, q * p)
    H[:, range(q * p), range(q * p)] += lam.reshape(B, q * p)
    return f, g, H


def _gate_chunk(gates) -> list[GateFit]:
    """Damped Newton iterations of one chunk of fit_gating, all gates at once."""
    B, p = len(gates), gates[0][0].shape[1]
    N = max(len(rows) for _, rows, _, _ in gates)
    q = gates[0][2].shape[1] - 1
    m = p - q - 1  # the feature part of the inputs
    A, D, Y = np.zeros((B, N, p)), np.zeros((B, N, q)), np.zeros((B, N))
    lam, tol = np.empty((B, q, p)), np.empty(B)
    for b, (inputs, rows, E, y) in enumerate(gates):
        n = len(rows)
        A[b, :n], D[b, :n], Y[b, :n] = inputs[rows], E[:, :q] - E[:, q:], y - E[:, q]
        spread = E.max(axis=1) - E.min(axis=1)
        scale = float(spread @ spread)
        lam[b, :, :m] = GATING_PENALTY * scale / n
        lam[b, :, m:] = GATING_CLASS_PENALTY * scale / n
        tol[b] = GATING_TOL * scale
    V = np.zeros((B, q, p))
    V[:, range(q), m + np.arange(q)] = 4.0
    V[:, :, m + q] = -4.0
    V0 = V.copy()
    f, g, H = _gate_terms(V, A, D, Y, lam, V0)
    # the damping mu is in units of the largest initial Hessian diagonal entry
    unit = np.abs(np.diagonal(H, axis1=1, axis2=2)).max(axis=1)
    mu, nu = np.full(B, 1e-3), np.full(B, 2.0)

    fits: list[GateFit] = [None] * B
    live = np.arange(B)
    for it in range(GATING_MAX_ITER + 1):
        gmax = np.abs(g).max(axis=(1, 2))
        met = gmax <= tol
        # a gate that meets the tolerance takes one undamped step; a zero
        # gradient (identical experts) takes none
        step = np.zeros_like(V)
        move = gmax > 0
        if move.any():
            M = H[move]
            M[:, range(q * p), range(q * p)] += np.where(met, 0.0, mu * unit)[move, None]
            step[move] = np.linalg.solve(M, -g[move].reshape(-1, q * p, 1)).reshape(-1, q, p)
        flat = step.reshape(-1, q * p)
        pred = -(np.einsum("bi,bi->b", g.reshape(-1, q * p), flat)
                 + 0.5 * np.einsum("bi,bij,bj->b", flat, H, flat))
        trial = V + step
        leave = met | (it == GATING_MAX_ITER)
        for b in np.flatnonzero(leave):
            if not met[b]:
                log.debug("gate stopped at GATING_MAX_ITER=%d without converging: "
                          "gradient %.3g > tol %.3g", GATING_MAX_ITER, gmax[b], tol[b])
            weights = trial[b] if met[b] and pred[b] > 0 else V[b]
            fits[live[b]] = GateFit(weights.copy(), it, bool(met[b]))
        if leave.all():
            break
        live, V, trial, A, D, Y, lam, tol, V0, f, g, H, pred, unit, mu, nu = _keep(
            ~leave, live, V, trial, A, D, Y, lam, tol, V0, f, g, H, pred, unit, mu, nu)
        ft, gt, Ht = _gate_terms(trial, A, D, Y, lam, V0)
        kept = (pred > 0) & (ft < f)
        rho = (f - ft) / np.where(kept, pred, 1.0)
        mu = np.where(kept, mu * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3),
                      np.minimum(mu * nu, 1e16))
        nu = np.where(kept, 2.0, 2.0 * nu)
        V, f = np.where(kept[:, None, None], trial, V), np.where(kept, ft, f)
        g, H = np.where(kept[:, None, None], gt, g), np.where(kept[:, None, None], Ht, H)
    return fits


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

    def gate_probs(self, x) -> np.ndarray:
        X = np.asarray(x, dtype=float)[None, :]
        return gate_probs(self.gating_weights, self.classifier.gate_inputs(X))[0]

    def predict(self, x) -> float:
        """Expected target under the gated mixture; a convex combination of
        the conditional predictions."""
        return float(self.predict_matrix(np.asarray(x, dtype=float)[None, :])[0])

    def predict_matrix(self, X) -> np.ndarray:
        return ModelStack([self]).predict(X)[:, 0]


class ModelStack:
    """A fixed list of models, RidgeModels and HierarchicalModels mixed,
    compiled once to predict all of them in one pass: predict(X) gives
    (rows, models). Compiling copies the weights, so a model changed
    afterwards needs a new stack.

    The distinct experts (the flat models and the hierarchical models'
    conditional models) are ordered by basis dimension; all their basis terms
    come from one expand_terms, and each expert's sum is its own contraction
    over its segment of the terms, the experts of one dimension in one call.
    The gate inputs are computed once per distinct classifier, and all gates
    that share one are evaluated in one contraction. Every step is
    elementwise or a learning.contract, so a prediction has the same bits as
    the model's own predict_matrix (which is a stack of one for a
    hierarchical model), whatever rows or models it is stacked with.
    """

    def __init__(self, models):
        models = list(models)
        experts = {}  # id -> expert, in order of first use
        for model in models:
            hierarchical = isinstance(model, HierarchicalModel)
            for e in model.conditional_models if hierarchical else [model]:
                experts.setdefault(id(e), e)
        order = sorted(experts.values(), key=lambda e: e.basis.dim)
        slot = {id(e): i for i, e in enumerate(order)}
        self._terms = stacked_terms([e.basis for e in order])
        self._intercepts = np.array([e.intercept for e in order])
        self._groups = []  # (first term, last + 1, weights) of the experts of one dimension
        start = 0
        for dim in sorted({e.basis.dim for e in order}):
            group = [e.weights for e in order if e.basis.dim == dim]
            W = np.array(group).reshape(len(group), dim)
            self._groups.append((start, start + W.size, W))
            start += W.size

        by_classifier = {}  # id -> (classifier, positions of its hierarchical models)
        for m, model in enumerate(models):
            if isinstance(model, HierarchicalModel):
                by_classifier.setdefault(id(model.classifier), (model.classifier, []))[1].append(m)
        # predict's columns are the experts, then the mixtures of each classifier's gates
        column = {m: slot[id(model)] for m, model in enumerate(models)
                  if not isinstance(model, HierarchicalModel)}
        mixtures = [m for _, positions in by_classifier.values() for m in positions]
        column.update((m, len(order) + i) for i, m in enumerate(mixtures))
        self._gates = [
            (classifier,
             np.array([models[m].gating_weights for m in positions]),
             np.array([[slot[id(e)] for e in models[m].conditional_models] for m in positions]))
            for classifier, positions in by_classifier.values()
        ]
        self._order = np.array([column[m] for m in range(len(models))], dtype=int)

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        terms = expand_terms(X, *self._terms)
        E = np.concatenate([contract(terms[:, start:stop].reshape(len(X), *W.shape), W)
                            for start, stop, W in self._groups], axis=1) + self._intercepts
        outputs = [E]
        for classifier, V, slots in self._gates:
            G = gate_probs(V, classifier.gate_inputs(X)[:, None, :])
            outputs.append(contract(G, E[:, slots]))
        return np.concatenate(outputs, axis=1).take(self._order, axis=1)


def train_hierarchical(classifier: ClassifierModel, features, gates):
    """Fit the gates that mix fitted per-class experts, for a batch of
    hierarchical models such as all those of a portfolio build.

    `gates` is a sequence of (experts, rows, targets): one fitted RidgeModel
    per class of `classifier`, in its class order; the rows of `features`
    the gate learns from; and their targets. The gate inputs and each
    distinct expert's predictions on `features` are made once, and every
    gate is fitted in one fit_gating batch. Returns the HierarchicalModels
    and their GateFits, in input order.
    """
    X = np.asarray(features, dtype=float)
    gates = list(gates)
    inputs = classifier.gate_inputs(X)
    distinct = {id(e): e for experts, _, _ in gates for e in experts}
    preds = {key: e.predict_matrix(X) for key, e in distinct.items()}
    fits = fit_gating([(inputs, rows, np.column_stack([preds[id(e)][rows] for e in experts]),
                        targets) for experts, rows, targets in gates])
    return [HierarchicalModel(list(classifier.classes), list(experts), classifier, fit.weights)
            for (experts, _, _), fit in zip(gates, fits)], fits


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


def hier_from_doc(doc: dict, classifiers: dict | None = None) -> HierarchicalModel:
    """The model a hier_to_doc document describes. `classifiers`, when given,
    maps each classifier document read so far, as sorted JSON, to its
    ClassifierModel; models read with one such dict share the classifier of
    equal documents, as the models of one build do, so a ModelStack computes
    their gate inputs once."""
    if doc.get("type") != "hierarchical":
        raise ValueError(f"not a hierarchical model document: {doc.get('type')!r}")
    c = doc["classifier"]
    classifiers = {} if classifiers is None else classifiers
    key = json.dumps(c, sort_keys=True)
    if key not in classifiers:
        classifiers[key] = ClassifierModel(
            list(c["classes"]),
            np.array(c["weights"], dtype=float),
            float(c["penalty"]),
            np.array(c["means"], dtype=float),
            np.array(c["scales"], dtype=float),
        )
    conditionals = [model_from_doc(d) for d in doc["conditional_models"]]
    return HierarchicalModel(
        list(doc["classes"]), conditionals, classifiers[key],
        np.array(doc["gating_weights"], dtype=float),
    )
