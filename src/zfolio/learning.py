"""Empirical hardness models.

A model maps the 48 raw features through a selected quadratic basis into a
ridge regression on log runtime or per-instance score. Basis selection is
greedy forward selection on cross-validated RMSE, run once over the raw
features and once more to add pairwise products of the selected features.
Each greedy step scores every remaining candidate at once: the selected
block of every fold's training Gram matrix is solved once (all folds in one
batched solve), and each candidate's fit is read off the bordered system
through its Schur complement instead of being solved afresh.
Censored runtimes (runs cut off at the time limit) are handled with the
Schmee-Hahn iteration: censored targets are repeatedly replaced by the mean
of the predictive normal truncated at the cutoff and the model is refit.
censored_fit takes a whole batch of fits, such as every fit of a portfolio
build. Each fit's basis is expanded and its ridge system factored once, into
the operator that maps targets to weights; the fits still iterating then
run in lockstep, in chunks of bounded size, each iteration imputing every
censored cell of a chunk in one array call and computing every new weight
vector in one batched product.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, special

TARGET_LOG_RUNTIME = "log_runtime"
TARGET_SCORE = "score"

DEFAULT_DELTA = 1e-3
MIN_RUNTIME = 0.005  # zero runtimes are clamped here before the log transform
FIT_BATCH_CELLS = 1 << 18  # padded (fit, row, term) cells of one censored_fit chunk

log = logging.getLogger(__name__)


class DimensionMismatch(ValueError):
    pass


class EmptyCandidates(ValueError):
    pass


class NoUncensoredData(ValueError):
    pass


def log_runtime(runtime_seconds) -> np.ndarray:
    """Log-transform runtimes, clamping zeros to a measurable floor."""
    r = np.maximum(np.asarray(runtime_seconds, dtype=float), MIN_RUNTIME)
    return np.log(r)


@dataclass
class BasisSpec:
    """Selected basis functions plus the column standardization.

    The expanded vector is [x[i] for i in raw_indices] followed by
    [x[j] * x[k] for (j, k) in product_pairs], each standardized as
    (value - mean) / scale. Indices are 0-based into the raw feature vector.
    """

    raw_indices: list[int]
    product_pairs: list[tuple[int, int]]
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        if len(set(self.raw_indices)) != len(self.raw_indices):
            raise ValueError("raw_indices must be distinct")
        pairs = [tuple(p) for p in self.product_pairs]
        if len(set(pairs)) != len(pairs):
            raise ValueError("product_pairs must be distinct")
        if any(j > k for j, k in pairs):
            raise ValueError("product pairs must have j <= k")
        self.product_pairs = pairs
        self.means = np.asarray(self.means, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        if self.means.shape != (self.dim,) or self.scales.shape != (self.dim,):
            raise ValueError("normalization length must equal basis dimension")
        if np.any(self.scales <= 0):
            raise ValueError("scales must be positive")
        # raw features a row must have; pairs have j <= k
        self._width = 1 + max([*self.raw_indices, *(k for _, k in pairs)], default=-1)
        self._columns = np.array([*self.raw_indices, *(j for j, _ in pairs)], dtype=int)
        self._factors = np.array(pairs, dtype=int).reshape(-1, 2)[:, 1]

    @property
    def dim(self) -> int:
        return len(self.raw_indices) + len(self.product_pairs)

    @classmethod
    def identity(cls, raw_indices, product_pairs=()):
        d = len(raw_indices) + len(product_pairs)
        return cls(list(raw_indices), list(product_pairs), np.zeros(d), np.ones(d))

    def expand_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] < self._width:
            raise DimensionMismatch(
                f"raw rows of shape {X.shape[1:]} do not fit a basis over "
                f"{self._width} raw features"
            )
        # raw columns, then the first factor of each product times the second
        phi = X.take(self._columns, axis=1)
        phi[:, len(self.raw_indices):] *= X.take(self._factors, axis=1)
        return (phi - self.means) / self.scales


def _ridge_factor(phi: np.ndarray, delta: float):
    """Cholesky factor of delta*I + Phi^T Phi, or None for an empty basis."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = phi.shape[1]
    if d == 0:
        return None
    return linalg.cho_factor(phi.T @ phi + delta * np.eye(d))


def _ridge_solve(factor, phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    if factor is None:
        return np.zeros(0)
    return linalg.cho_solve(factor, phi.T @ y)


def ridge_fit(phi: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    """Solve w = (delta*I + Phi^T Phi)^-1 Phi^T y via Cholesky."""
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != y.shape[0]:
        raise DimensionMismatch("design matrix and targets disagree")
    return _ridge_solve(_ridge_factor(phi, delta), phi, y)


@dataclass
class RidgeModel:
    """A fitted ridge model over a quadratic basis.

    Predictions are intercept + w . phi(x); with the log_runtime target,
    exp(prediction) is the runtime estimate in seconds. `sigma` is the
    sample standard deviation of the training residuals (uncensored rows
    only when the fit was censored).
    """

    basis: BasisSpec
    weights: np.ndarray
    delta: float
    sigma: float
    target: str
    intercept: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.basis.dim,):
            raise DimensionMismatch("weight length must equal basis dimension")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.target not in (TARGET_LOG_RUNTIME, TARGET_SCORE):
            raise ValueError(f"unknown target {self.target!r}")

    def predict(self, x) -> float:
        return float(self.predict_matrix(np.asarray(x, dtype=float)[None, :])[0])

    def predict_matrix(self, X) -> np.ndarray:
        return self.intercept + self.basis.expand_matrix(X) @ self.weights


@dataclass
class LabeledDataset:
    """Raw features with (possibly censored) regression targets."""

    features: np.ndarray
    targets: np.ndarray
    censored: np.ndarray = None
    cutoff_log: float = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        n = self.features.shape[0]
        if self.targets.shape != (n,):
            raise DimensionMismatch("row counts disagree")
        if self.censored is None:
            self.censored = np.zeros(n, dtype=bool)
        self.censored = np.asarray(self.censored, dtype=bool)
        if self.censored.shape != (n,):
            raise DimensionMismatch("censoring flags disagree with rows")
        if self.censored.any():
            if self.cutoff_log is None:
                raise ValueError("censored rows require cutoff_log")
            if not np.allclose(self.targets[self.censored], self.cutoff_log):
                raise ValueError("censored targets must sit at cutoff_log")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _standardize_columns(M: np.ndarray):
    means = M.mean(axis=0) if M.size else np.zeros(M.shape[1])
    stds = M.std(axis=0) if M.size else np.ones(M.shape[1])
    scales = np.where(stds > 0, stds, 1.0)
    return means, scales


def make_basis(X: np.ndarray, raw_indices, product_pairs=()) -> BasisSpec:
    """Basis over the given terms, standardized on the training matrix X."""
    spec = BasisSpec.identity(raw_indices, product_pairs)
    phi = spec.expand_matrix(X)
    means, scales = _standardize_columns(phi)
    return BasisSpec(list(raw_indices), list(product_pairs), means, scales)


def _content_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Canonical row order independent of storage order."""
    keys = tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)) + (y,)
    return np.lexsort(keys[::-1])


def _fold_indices(X, y, folds):
    order = _content_order(X, y)
    return [order[k::folds] for k in range(folds)]


def _greedy_cv_select(C: np.ndarray, y: np.ndarray, folds: int, max_terms: int,
                      delta: float, base: tuple[int, ...] = ()) -> list[int]:
    """Greedy forward selection over the columns of C by CV RMSE.

    `base` columns are pinned into every fit but not reported. Columns are
    standardized and y centered before use; fold membership depends only on
    row content, so results do not change under row permutation. Candidates
    are scanned in column order and one is taken when it beats the best CV
    RMSE so far by more than 1e-12.
    """
    n, m = C.shape
    if m == 0:
        raise EmptyCandidates("no candidate columns")
    folds = min(folds, n)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    means, scales = _standardize_columns(C)
    Z = (C - means) / scales
    yc = y - y.mean()

    # Per-fold training Gram matrices and test blocks, stacked along axis 0.
    # Test blocks are zero-padded to a common length; a zero row adds an
    # exact 0 to every residual sum.
    fold_rows = _fold_indices(C, y, folds)
    G = np.empty((folds, m, m))
    b = np.empty((folds, m))
    Zte = np.zeros((folds, max(map(len, fold_rows)), m))
    yte = np.zeros(Zte.shape[:2])
    for f, rows in enumerate(fold_rows):
        test = np.zeros(n, dtype=bool)
        test[rows] = True
        Zt, yt = Z[~test], yc[~test]
        G[f], b[f] = Zt.T @ Zt, Zt.T @ yt
        Zte[f, :len(rows)], yte[f, :len(rows)] = Z[test], yc[test]

    def cv_sq(S: list[int], cand: list[int]):
        """Summed squared CV test residuals of the fit on S and on S + [j], j in cand.

        Adding column j borders A = G[S,S] + delta*I with g = G[S,j]; with
        w0 = A^-1 b[S] and u = A^-1 g, the new weight is
        w_j = (b[j] - g.w0) / (G[j,j] + delta - g.u), the selected weights
        become w0 - u*w_j, and the test residual is r0 - w_j*(z_j - Z_S u).
        One solve per fold gives w0 and u for every candidate; an empty S
        gives empty solves and zero corrections.
        """
        GS = G[:, S]
        GSc = GS[:, :, cand]
        A = GS[:, :, S] + delta * np.eye(len(S))
        sol = np.linalg.solve(A, np.concatenate([b[:, S, None], GSc], axis=2))
        w0, U = sol[:, :, 0], sol[:, :, 1:]
        ZS = Zte[:, :, S]
        r0 = yte - np.einsum("fts,fs->ft", ZS, w0)
        D = Zte[:, :, cand] - ZS @ U
        schur = G[:, cand, cand] + delta - np.einsum("fsj,fsj->fj", GSc, U)
        wj = (b[:, cand] - np.einsum("fsj,fs->fj", GSc, w0)) / schur
        R = r0[:, :, None] - D * wj[:, None, :]
        return float(np.sum(r0 * r0)), np.einsum("ftj,ftj->j", R, R)

    selected: list[int] = []
    current = math.sqrt(float(yc @ yc) / n) if not base else None
    available = [j for j in range(m) if j not in base]
    while len(selected) < max_terms and available:
        sq0, sq = cv_sq(list(base) + selected, available)
        if current is None:
            current = math.sqrt(sq0 / n)
        best_j, best_rmse = None, current
        for j, r in zip(available, np.sqrt(sq / n)):
            if r < best_rmse - 1e-12:
                best_j, best_rmse = j, float(r)
        if best_j is None:
            break
        selected.append(best_j)
        available.remove(best_j)
        current = best_rmse
    return selected


def forward_select(features: np.ndarray, targets: np.ndarray,
                   candidate_indices=None, folds: int = 10,
                   max_terms: int = 30, delta: float = DEFAULT_DELTA) -> list[int]:
    """Greedy forward selection of raw feature columns.

    Starts empty and adds the candidate that most reduces cross-validated
    RMSE of a ridge fit, stopping when nothing improves or max_terms is
    reached. Returns raw-feature indices in selection order.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if candidate_indices is None:
        candidate_indices = list(range(X.shape[1]))
    candidate_indices = list(candidate_indices)
    if not candidate_indices:
        raise EmptyCandidates("candidate_indices is empty")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    C = X[:, candidate_indices]
    picked = _greedy_cv_select(C, y, folds, max_terms, delta)
    return [candidate_indices[j] for j in picked]


def select_basis(X: np.ndarray, y: np.ndarray, folds: int = 10,
                 max_raw_terms: int = 30, max_expanded_terms: int = 40,
                 delta: float = DEFAULT_DELTA) -> BasisSpec:
    """Two-pass basis selection: raw features, then pairwise products.

    The second pass keeps the selected raw features in the model and
    greedily adds products of those features while CV RMSE improves, up to
    a total of max_expanded_terms basis functions.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    raw = forward_select(X, y, folds=folds, max_terms=max_raw_terms, delta=delta)
    if not raw:
        # no raw feature lowers CV RMSE; fall back to raw column 0 so the
        # model still has a basis (a fixed choice, not the best-scoring one)
        raw = [0]
    candidates = [(j, k) for idx, j in enumerate(raw) for k in raw[idx:]]
    candidates = [(min(j, k), max(j, k)) for j, k in candidates]
    candidates = sorted(set(candidates))
    room = max_expanded_terms - len(raw)
    pairs: list[tuple[int, int]] = []
    if room > 0 and candidates:
        Craw = X[:, raw]
        Cprod = np.column_stack([X[:, j] * X[:, k] for j, k in candidates])
        C = np.column_stack([Craw, Cprod])
        base = tuple(range(len(raw)))
        picked = _greedy_cv_select(C, y, folds, room, delta, base=base)
        pairs = [candidates[j - len(raw)] for j in picked]
    return make_basis(X, raw, pairs)


def _ridge_model(phi: np.ndarray, y: np.ndarray, basis: BasisSpec, factor,
                 delta: float, target: str, residual_rows=None) -> RidgeModel:
    """RidgeModel on an expanded, factored design: centered target, residual sigma."""
    intercept = float(y.mean())
    w = _ridge_solve(factor, phi, y - intercept)
    resid = y - (intercept + phi @ w)
    if residual_rows is not None:
        resid = resid[residual_rows]
    sigma = float(np.std(resid, ddof=1)) if resid.size > 1 else 0.0
    return RidgeModel(basis, w, delta, sigma, target, intercept)


def fit_ridge_model(X: np.ndarray, y: np.ndarray, basis: BasisSpec,
                    delta: float = DEFAULT_DELTA, target: str = TARGET_LOG_RUNTIME,
                    residual_rows=None) -> RidgeModel:
    """Fit a RidgeModel: standardized basis columns, centered target."""
    phi = basis.expand_matrix(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    return _ridge_model(phi, y, basis, _ridge_factor(phi, delta), delta, target,
                        residual_rows)


def truncated_normal_mean(mu, sigma, lower):
    """E[Y | Y >= lower] for Y ~ Normal(mu, sigma); always >= lower.

    Arguments broadcast as numpy arrays; scalar arguments give a float. Below
    the mean the inverse Mills ratio is pdf/sf (the erfcx form overflows far
    below it); at or above it the scaled complementary error function keeps
    the upper tail accurate far beyond 8 sigma, where pdf/sf would degrade.
    """
    mu, sigma, lower = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                             for v in (mu, sigma, lower)))
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    a = (lower - mu) / sigma
    lam = np.empty_like(a)
    below = a < 0
    ab = a[below]
    lam[below] = np.exp(-ab**2 / 2.0) / math.sqrt(2 * math.pi) / special.ndtr(-ab)
    lam[~below] = math.sqrt(2 / math.pi) / special.erfcx(a[~below] / math.sqrt(2))
    out = np.maximum(mu + sigma * lam, lower)
    return float(out) if out.ndim == 0 else out


def censored_fit(data, delta: float = DEFAULT_DELTA, basis=None, tol: float = 1e-6,
                 max_iter: int = 50, target: str = TARGET_LOG_RUNTIME):
    """Schmee-Hahn censored regression for a batch of fits.

    `data` is a sequence of LabeledDatasets and `basis` one BasisSpec per
    dataset (None, for all or for one, is the identity basis over every raw
    column); the models come back in input order. A single LabeledDataset
    with a single basis is a batch of one and gives its model.

    Each fit starts from the ridge model that takes its censored targets as
    observed at the cutoff, so a fit without censored rows is exactly
    fit_ridge_model's. Each iteration replaces the censored targets with the
    mean of the current predictive normal truncated at the cutoff and refits,
    until the largest weight or intercept change drops below tol or max_iter
    is reached. The fits with censored rows iterate in lockstep, in input
    order and in chunks of at most FIT_BATCH_CELLS padded cells (see
    _lockstep); a fit leaves its chunk at its own convergence, so it stops at
    the iteration it would stop at alone.
    """
    if isinstance(data, LabeledDataset):
        return censored_fit([data], delta, [basis], tol, max_iter, target)[0]
    data = list(data)
    bases = [None] * len(data) if basis is None else list(basis)
    if len(bases) != len(data):
        raise ValueError(f"{len(bases)} bases for {len(data)} datasets")

    models, chunk, shape = [], [], (0, 0, 0)
    for d, b in zip(data, bases):
        if d.censored.all():
            raise NoUncensoredData("need at least one uncensored row")
        if b is None:
            b = make_basis(d.features, list(range(d.features.shape[1])))
        phi = b.expand_matrix(d.features)
        factor = _ridge_factor(phi, delta)
        models.append(_ridge_model(phi, d.targets.astype(float), b, factor, delta,
                                   target, ~d.censored))
        if not d.censored.any():
            continue
        shape = (shape[0] + 1, max(shape[1], d.n), max(shape[2], b.dim))
        if chunk and math.prod(shape) > FIT_BATCH_CELLS:
            _lockstep(chunk, data, models, delta, tol, max_iter, target)
            chunk, shape = [], (1, d.n, b.dim)
        K = linalg.cho_solve(factor, phi.T) if factor is not None else np.zeros((0, d.n))
        chunk.append((len(models) - 1, phi, K))
    if chunk:
        _lockstep(chunk, data, models, delta, tol, max_iter, target)
    return models


def _lockstep(chunk, data, models, delta, tol, max_iter, target) -> None:
    """Schmee-Hahn iterations of the fits in `chunk`, (index, design Phi,
    solve operator K = (Phi^T Phi + delta*I)^-1 Phi^T) each, replacing
    models[index] with each fit's result.

    The designs and operators are stacked zero-padded to (fits, rows,
    terms): a padded row has no flags and a zero column of K, a padded term
    zero columns of Phi and zero rows of K, so each adds exact zeros to every
    product and sum. Each iteration imputes every censored cell in one
    truncated_normal_mean call (a fit with sigma 0 takes max(pred, cutoff))
    and gives every new weight vector in one batched product.
    """
    live = np.array([i for i, _, _ in chunk])
    F = len(chunk)
    N = max(phi.shape[0] for _, phi, _ in chunk)
    D = max(phi.shape[1] for _, phi, _ in chunk)
    Phi, K = np.zeros((F, N, D)), np.zeros((F, D, N))
    Y = np.zeros((F, N))
    cens, unc = np.zeros((F, N), dtype=bool), np.zeros((F, N), dtype=bool)
    W = np.zeros((F, D))
    b, sigma, cutoff = np.empty(F), np.empty(F), np.empty(F)
    for f, (i, phi, op) in enumerate(chunk):
        d, m = data[i], models[i]
        n, dim = phi.shape
        Phi[f, :n, :dim], K[f, :dim, :n] = phi, op
        Y[f, :n], cens[f, :n], unc[f, :n] = d.targets, d.censored, ~d.censored
        W[f, :dim], b[f], sigma[f], cutoff[f] = m.weights, m.intercept, m.sigma, d.cutoff_log
    rows = np.array([data[i].n for i in live], dtype=float)
    kept = unc.sum(axis=1)
    fitted = b[:, None] + (Phi @ W[:, :, None])[:, :, 0]

    for step in range(1, max_iter + 1):
        cell_fit = np.nonzero(cens)[0]
        s, lower, mu = sigma[cell_fit], cutoff[cell_fit], fitted[cens]
        spread = s > 0
        imputed = truncated_normal_mean(mu, np.where(spread, s, 1.0), lower)
        Y[cens] = np.where(spread, imputed, np.maximum(mu, lower))

        new_b = Y.sum(axis=1) / rows
        new_W = (K @ (Y - new_b[:, None])[:, :, None])[:, :, 0]
        fitted = new_b[:, None] + (Phi @ new_W[:, :, None])[:, :, 0]
        # ddof=1 over the uncensored rows; one row has a zero deviation
        resid = np.where(unc, Y - fitted, 0.0)
        dev = np.where(unc, resid - (resid.sum(axis=1) / kept)[:, None], 0.0)
        sigma = np.sqrt((dev * dev).sum(axis=1) / np.maximum(kept - 1, 1))
        change = np.maximum(np.abs(new_W - W).max(axis=1, initial=0.0), np.abs(new_b - b))
        W, b = new_W, new_b

        done = change < tol
        if step == max_iter:
            for f in np.flatnonzero(~done):
                log.debug("Schmee-Hahn stopped at max_iter=%d without converging: "
                          "last change %.3g >= tol %.3g", max_iter, change[f], tol)
            done[:] = True
        for f in np.flatnonzero(done):
            m = models[live[f]]
            models[live[f]] = RidgeModel(m.basis, W[f, :m.basis.dim].copy(), delta,
                                         float(sigma[f]), target, float(b[f]))
        if done.all():
            return
        if done.any():
            go = ~done
            live, Phi, K, Y, cens, unc, W, b, sigma, cutoff, rows, kept, fitted = (
                a[go] for a in (live, Phi, K, Y, cens, unc, W, b, sigma, cutoff, rows,
                                kept, fitted))


def model_to_doc(model: RidgeModel) -> dict:
    return {
        "type": "ridge",
        "target": model.target,
        "delta": model.delta,
        "sigma": model.sigma,
        "intercept": model.intercept,
        "basis": {
            "raw_indices": list(model.basis.raw_indices),
            "product_pairs": [list(p) for p in model.basis.product_pairs],
            "means": [float(v) for v in model.basis.means],
            "scales": [float(v) for v in model.basis.scales],
        },
        "weights": [float(v) for v in model.weights],
    }


def model_from_doc(doc: dict) -> RidgeModel:
    if doc.get("type") != "ridge":
        raise ValueError(f"not a ridge model document: {doc.get('type')!r}")
    b = doc["basis"]
    basis = BasisSpec(
        [int(i) for i in b["raw_indices"]],
        [(int(j), int(k)) for j, k in b["product_pairs"]],
        np.array(b["means"], dtype=float),
        np.array(b["scales"], dtype=float),
    )
    weights = np.array(doc["weights"], dtype=float)
    if weights.shape != (basis.dim,):
        raise DimensionMismatch("weight length disagrees with basis dimension")
    return RidgeModel(basis, weights, float(doc["delta"]), float(doc["sigma"]),
                      doc["target"], float(doc["intercept"]))
