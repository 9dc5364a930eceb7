"""Empirical hardness models.

A model maps the 48 raw features through a selected quadratic basis into a
ridge regression on log runtime or per-instance score. Basis selection is
greedy forward selection on cross-validated RMSE, run once over the raw
features and once more to add pairwise products of the selected features.
select_basis takes a whole batch of problems, such as every problem of a
portfolio build, and runs the greedy steps of all of them in lockstep, in
chunks of bounded size. Each step scores every remaining candidate of every
problem at once, reading each candidate's fit off the bordered ridge system
through its Schur complement. Each fold keeps the Cholesky rows of the
selected block and the test residuals net of it, and selecting a column
adds one row to them (Golub & Van Loan, bordered Cholesky), so nothing is
solved or gathered afresh as the basis grows. CV RMSEs within the relative
margin SELECT_REL_MARGIN of each other are ties, settled by column order,
so the pick among near-duplicate candidates does not hinge on rounding.
Censored runtimes (runs cut off at the time limit) are handled with the
Schmee-Hahn iteration: censored targets are repeatedly replaced by the mean
of the predictive normal truncated at the cutoff and the model is refit,
until no weight or intercept moves by CENSORED_TOL, or for at most
CENSORED_MAX_ITER iterations. This stop rule, the ridge penalty
DEFAULT_DELTA and the tie margin are fixed values of the method.
censored_fit takes a whole batch of fits, such as every fit of a portfolio
build. Each fit's basis is expanded and its ridge system factored once, into
the operator that maps targets to weights; the fits still iterating then
run in lockstep, each iteration imputing every censored cell of a chunk in
one array call and computing every new weight vector in one batched product.
select_basis, censored_fit and hierarchy.fit_gating cut their batches with
_run_chunks, under one budget, FIT_BATCH_CELLS, on each chunk's peak memory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

# scipy.linalg and scipy.special are imported inside the fitting functions that
# use them: `zfolio features` and `zfolio solve` predict with numpy alone and
# never load them.

TARGET_LOG_RUNTIME = "log_runtime"
TARGET_SCORE = "score"

DEFAULT_DELTA = 1e-3
CENSORED_TOL = 1e-6  # Schmee-Hahn stops once no weight or intercept moves this much
CENSORED_MAX_ITER = 50  # Schmee-Hahn iterations at most; a fit that reaches it is logged
MIN_RUNTIME = 0.005  # zero runtimes are clamped here before the log transform
FIT_BATCH_CELLS = 1 << 18  # float64 cells one chunk holds at its peak, temporaries included
SELECT_REL_MARGIN = 1e-9  # CV RMSEs closer than this, relatively, tie in greedy selection

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
        if not np.isfinite(self.means).all():
            raise ValueError("means must be finite")
        if not (np.isfinite(self.scales) & (self.scales > 0)).all():
            raise ValueError("scales must be finite and positive")
        # raw features a row must have; pairs have j <= k
        self._width = 1 + max([*self.raw_indices, *(k for _, k in pairs)], default=-1)
        # the terms are columns; a product term is then multiplied by its second factor
        self._columns = np.array([*self.raw_indices, *(j for j, _ in pairs)], dtype=int)
        self._products = np.arange(len(self.raw_indices), self.dim)
        self._factors = np.array([k for _, k in pairs], dtype=int)

    @property
    def dim(self) -> int:
        return len(self.raw_indices) + len(self.product_pairs)

    @classmethod
    def identity(cls, raw_indices, product_pairs=()):
        d = len(raw_indices) + len(product_pairs)
        return cls(list(raw_indices), list(product_pairs), np.zeros(d), np.ones(d))

    def expand_matrix(self, X: np.ndarray) -> np.ndarray:
        return expand_terms(X, self._width, self._columns, self._products, self._factors,
                            self.means, self.scales)


def stacked_terms(bases) -> tuple:
    """The expand_terms arguments after X for the terms of all `bases` (at
    least one), side by side in their order."""
    offsets = np.cumsum([0, *(b.dim for b in bases)])
    return (max(b._width for b in bases),
            np.concatenate([b._columns for b in bases]),
            np.concatenate([b._products + o for b, o in zip(bases, offsets)]),
            np.concatenate([b._factors for b in bases]),
            np.concatenate([b.means for b in bases]),
            np.concatenate([b.scales for b in bases]))


def expand_terms(X, width, columns, products, factors, means, scales) -> np.ndarray:
    """Standardized basis terms of raw rows X, which must have at least
    `width` features: the columns X[:, columns], those at `products` times
    X[:, factors], then (terms - means) / scales. Every operation is
    elementwise, so a basis's terms have the same bits whether they are
    expanded alone (BasisSpec.expand_matrix) or beside other bases'
    (stacked_terms, hierarchy.ModelStack)."""
    X = _fits(np.atleast_2d(np.asarray(X, dtype=float)), width)
    phi = X.take(columns, axis=1)
    phi[:, products] *= X.take(factors, axis=1)
    return (phi - means) / scales


def contract(A, W) -> np.ndarray:
    """sum_j A[..., j] * W[..., j], with the operands broadcast: an elementwise
    product reduced over the last axis, never a BLAS product. Each output reads
    its own row of A alone, in a fixed order, so a row's result has the same
    bits whether it is computed alone, in a block or beside other models'.
    Every prediction goes through it: RidgeModel, the classifier's
    probabilities, the gate and the mixture (hierarchy.ModelStack)."""
    return (A * W).sum(axis=-1)


def _fits(X: np.ndarray, width: int) -> np.ndarray:
    """X, checked to be raw rows with at least `width` features."""
    if X.ndim != 2 or X.shape[1] < width:
        raise DimensionMismatch(
            f"raw rows of shape {X.shape[1:]} do not fit a basis over {width} raw features"
        )
    return X


def _ridge_factor(phi: np.ndarray, delta: float):
    """Upper Cholesky factor of delta*I + Phi^T Phi, or None for an empty
    basis: LAPACK's dpotrf (and dpotrs in _ridge_solve) with cho_factor's
    (and cho_solve's) flags and finiteness check, without scipy's wrappers."""
    from scipy.linalg.lapack import dpotrf
    if delta <= 0:
        raise ValueError("delta must be positive")
    if phi.shape[1] == 0:
        return None
    A = np.asarray_chkfinite(phi.T @ phi + delta * np.eye(phi.shape[1]))
    factor, info = dpotrf(A, lower=0, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf failed with info {info}")
    return factor


def _ridge_solve(factor, b: np.ndarray) -> np.ndarray:
    """(delta*I + Phi^T Phi)^-1 b for a _ridge_factor."""
    from scipy.linalg.lapack import dpotrs
    if factor is None:
        return np.zeros((0, *b.shape[1:]))
    x, info = dpotrs(factor, np.asarray_chkfinite(b), lower=0, overwrite_b=0)
    if info:
        raise ValueError(f"dpotrs failed with info {info}")
    return x


def ridge_fit(phi: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    """Solve w = (delta*I + Phi^T Phi)^-1 Phi^T y via Cholesky."""
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != y.shape[0]:
        raise DimensionMismatch("design matrix and targets disagree")
    return _ridge_solve(_ridge_factor(phi, delta), phi.T @ y)


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
        return self.intercept + contract(self.basis.expand_matrix(X), self.weights)


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
            # np.allclose's test and tolerances, in one comparison
            t, cut = self.targets[self.censored], float(self.cutoff_log)
            close = math.isfinite(cut) and np.abs(t - cut) <= 1e-8 + 1e-5 * abs(cut)
            if not ((t == cut) | close).all():
                raise ValueError("censored targets must sit at cutoff_log")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _standardize_columns(M: np.ndarray):
    means = M.mean(axis=0) if M.size else np.zeros(M.shape[1])
    stds = M.std(axis=0) if M.size else np.ones(M.shape[1])
    scales = np.where(stds > 0, stds, 1.0)
    return means, scales


def _bases(problems) -> list[BasisSpec]:
    """The BasisSpec of each (X, raw_indices, product_pairs) problem,
    standardized on its raw rows X as make_basis does, in _run_chunks' chunks."""
    def cells(_, count, largest):  # the chunk's stacked terms, one problem's columns
        n, d = largest
        return count * (n + 1) * d + 2 * n * d
    return _run_chunks(problems, lambda _: None, lambda p: (p[0].shape[0], len(p[1]) + len(p[2])),
                       cells, lambda _, chunk: _standardize_chunk(chunk))


def _standardize_chunk(problems) -> list[BasisSpec]:
    """The bases of one chunk of _bases. Columns of two or more terms are
    summed row by row, so the zero padding keeps their bits; numpy sums a
    lone column pairwise, so a one-term basis takes _standardize_columns of
    its own rows."""
    dims = [len(raw) + len(pairs) for _, raw, pairs in problems]
    n = np.array([X.shape[0] for X, _, _ in problems])
    T = np.zeros((len(problems), n.max() + 1, max(dims)))
    for p, (X, raw, pairs) in enumerate(problems):
        _fits(X, 1 + max([*raw, *(i for pair in pairs for i in pair)], default=-1))
        T[p, :n[p], :dims[p]] = X.take([*raw, *(j for j, _ in pairs)], axis=1)
        T[p, :n[p], len(raw):dims[p]] *= X.take([k for _, k in pairs], axis=1)
    lone = {p: _standardize_columns(T[p, :n[p], :1]) for p, d in enumerate(dims) if d == 1}
    rows = np.maximum(n, 1)[:, None]
    means = T.sum(axis=1) / rows
    T -= means[:, None, :]
    T *= (np.arange(T.shape[1]) < n[:, None])[:, :, None]
    T *= T
    stds = np.sqrt(T.sum(axis=1) / rows)
    scales = np.where(stds > 0, stds, 1.0)
    return [BasisSpec(list(raw), list(pairs), *lone.get(p, (means[p, :d], scales[p, :d])))
            for p, ((_, raw, pairs), d) in enumerate(zip(problems, dims))]


def make_basis(X: np.ndarray, raw_indices, product_pairs=()) -> BasisSpec:
    """Basis over the given terms, standardized on the training matrix X: a
    batch of one of select_basis's standardization."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _bases([(X, list(raw_indices), list(product_pairs))])[0]


def _run_chunks(problems, key, size, cells, run) -> list:
    """One result per problem, in input order, from run(k, chunk) on each
    input-order chunk of each group of problems with the same key(problem).
    A chunk of `count` problems, their size(problem) tuples at most `largest`
    elementwise, holds cells(k, count, largest) float64 cells at its peak,
    at most FIT_BATCH_CELLS unless it is one problem."""
    groups: dict = {}
    for i, problem in enumerate(problems):
        groups.setdefault(key(problem), []).append(i)
    results = [None] * len(problems)
    for k, members in groups.items():
        chunks = []
        for i in members:
            shape = size(problems[i])
            grown = tuple(map(max, largest, shape)) if chunks else shape
            if not chunks or cells(k, len(chunks[-1]) + 1, grown) > FIT_BATCH_CELLS:
                chunks.append([])
                grown = shape
            chunks[-1].append(i)
            largest = grown
        for chunk in chunks:
            for i, result in zip(chunk, run(k, [problems[i] for i in chunk])):
                results[i] = result
    return results


def _keep(go, *stacks) -> list:
    """The stacks without their problems (leading rows) where `go` is false;
    kept rows move down in place, so dropping copies one stack at a time."""
    if go.all():
        return list(stacks)
    k = np.count_nonzero(go)
    for a in stacks:
        a[:k] = a[go]
    return [a[:k] for a in stacks]


def _greedy_lockstep(problems, folds: int, max_terms: int) -> list[list[int]]:
    """Greedy forward selection by CV RMSE for a batch of problems.

    Each problem is (X, y, raw): with raw None, the candidates C are the
    columns of X; given r raw features, they are those r columns, pinned
    into every fit but not reported, and the products of their r(r+1)/2
    pairs (j, k), j <= k, in sorted order, built only when the problem's
    chunk runs. Returns, per problem in input order, the indices of the
    columns of C it selects, in selection order, up to max_terms columns
    pinned ones included. Columns are standardized and y centered per
    problem; fold k tests the rows at positions k, k + folds, ... of the
    content order (one row per fold when there are fewer rows than folds),
    so results do not change under row permutation.

    Each step scores every available column by the CV RMSE of the ridge fit
    that adds it. With r_min the lowest score, it takes the lowest-index
    column scoring at most r_min*(1 + SELECT_REL_MARGIN), and only if
    r_min < current*(1 - SELECT_REL_MARGIN): candidates closer than that
    are ties, settled by column order rather than by rounding. Problems with
    the same fold count, column count and pinned count step in lockstep, in
    the chunks _run_chunks cuts (see _select_chunk).
    """
    def key(problem):
        X, _, raw = problem
        pinned = 0 if raw is None else len(raw)
        n, m = X.shape[0], X.shape[1] if raw is None else pinned + pinned * (pinned + 1) // 2
        if m == 0:
            raise EmptyCandidates("no candidate columns")
        if min(folds, n) < 2:
            raise ValueError("need at least 2 folds")
        return min(folds, n), m, pinned

    def cells(group, count, largest):
        # the greater of _chunk_rows' stacks (Z, the raw sets sorted by
        # feature and y) and _select_chunk's: Z, D, buf, M and train; the
        # largest temporary, the size of one of them (Z * Z, the weighted copy
        # of train in a step, or _keep's copy of a stack); five row vectors
        f, m, pinned = group
        n = largest[0] + 1
        stacks = (n * m, f * -(-largest[0] // f) * m, f * min(m, max_terms) * m, f * n)
        return count * max(n * (m + pinned + 1), sum(stacks) + stacks[1] + max(stacks) + 5 * n)

    return _run_chunks(problems, key, lambda problem: (problem[0].shape[0],), cells,
                       lambda group, chunk: _select_chunk(chunk, *group, max_terms))


def _chunk_rows(problems, f: int, m: int, pinned: int) -> tuple:
    """_select_chunk's stacks before standardizing: each problem's candidates
    Z and targets, zero past its rows (row N, past every problem's, is read
    by the padded test slots); the row counts; and each fold's test slots
    and training weights."""
    P, N = len(problems), max(X.shape[0] for X, _, _ in problems)
    Z, yc = np.zeros((P, N + 1, m)), np.zeros((P, N + 1))
    by_feature, n = np.zeros((P, N + 1, pinned)), np.empty(P, dtype=int)
    for p, (X, y, raw) in enumerate(problems):
        k = n[p] = X.shape[0]
        Z[p, :k, :m - pinned * (pinned + 1) // 2] = X if raw is None else X.take(raw, axis=1)
        by_feature[p, :k], yc[p, :k] = X.take(sorted(raw or []), axis=1), y
    # the products of each raw set sorted by feature, of position pairs
    # (a, b), a <= b, in sorted order: one slice of the chunk per a
    for a in range(pinned):
        t = m - (pinned - a) * (pinned - a + 1) // 2
        np.multiply(by_feature[:, :, a, None], by_feature[:, :, a:], out=Z[:, :, t:t + pinned - a])
    real = np.arange(N + 1) < n[:, None]
    # the content order of each problem's rows: by the last candidate, one
    # stable sort for the chunk (NaN pads sort last); a problem with ties
    # there takes the full order, ties broken by the column before it, and
    # so on, then by y
    last = np.where(real[:, :N], Z[:, :N, -1], np.nan)
    order = np.argsort(last, axis=1, kind="stable")
    rising = np.diff(np.take_along_axis(last, order, axis=1), axis=1) > 0
    for p in np.flatnonzero(~(rising | ~real[:, 1:N]).all(axis=1)):
        order[p, :n[p]] = np.lexsort((yc[p, :n[p]], *Z[p, :n[p]].T))
    # fold k tests the rows at positions k, k + f, ... of the order
    who, pos = np.nonzero(real[:, :N])
    test = np.full((P, f, -(-N // f)), N)
    test[who, pos % f, pos // f] = order[who, pos]
    train = np.zeros((P, f, N + 1))
    train[:, :, :N] = real[:, None, :N]
    train[who, pos % f, order[who, pos]] = 0.0
    return Z, yc, n, test, train


def _select_chunk(problems, f: int, m: int, pinned: int, max_terms: int) -> list[list[int]]:
    """The greedy steps of one chunk of _greedy_lockstep, all problems at once.

    State is stacked by (problem, fold), zero-padded in rows and test
    slots; a zero row adds exact zeros to every product and sum. With S the
    selected columns, A = G[S,S] + delta*I for the fold's training Gram
    matrix G = Z_tr^T Z_tr and b = Z_tr^T y_tr, each fold keeps
      M     = L^-1 G[S,:], for the Cholesky factor L of A,
      e     = b - G[:,S] A^-1 b[S],
      schur = diag(G) + delta - |M[:,j]|^2, the Schur complement of adding j,
      D     = Z_te - Z_te[:,S] A^-1 G[S,:], the test columns net of the fit,
      r     = y_te - Z_te[:,S] A^-1 b[S], the test residuals.
    Candidate j's weight is e[j]/schur[j] and its test residuals r - w*D[:,j].
    Selecting j borders L with one row: G[j,:] = Z_tr^T z_j, computed on
    demand, gives M's new row (G[j,:] - M[:,j]^T M) / sqrt(schur[j]), and
    e, schur, D and r take a rank-one update from it. Nothing is gathered
    again as S grows and G itself is never formed; only a finished problem
    leaves the stacks.
    """
    steps = min(m, max_terms)
    P = len(problems)
    Z, yc, n, test, train = _chunk_rows(problems, f, m, pinned)
    # standardize the columns and center y over each problem's own rows, as
    # _standardize_columns does, keeping the padded rows zero
    real = (np.arange(Z.shape[1]) < n[:, None])[:, :, None]
    Z -= Z.sum(axis=1, keepdims=True) / n[:, None, None]
    Z *= real
    std = np.sqrt((Z * Z).sum(axis=1, keepdims=True) / n[:, None, None])
    Z /= np.where(std > 0, std, 1.0)
    yc -= yc.sum(axis=1, keepdims=True) / n[:, None]
    yc *= real[:, :, 0]

    at = np.arange(P)[:, None, None]
    D, r = Z[at, test], yc[at, test]
    e = (train * yc[:, None, :]) @ Z
    schur = train @ (Z * Z) + DEFAULT_DELTA
    M = np.empty((P, f, steps, m))
    live = np.arange(P)
    avail = np.ones((P, m), dtype=bool)
    avail[:, :pinned] = False
    picks: list[list[int]] = [[] for _ in range(P)]
    current = None
    buf = np.empty_like(D)  # the scored residuals, then the update of D, of each step
    for s in range(steps):
        if s < pinned:
            j = np.full(len(live), s)
        else:
            R = np.multiply(D, (e / schur)[:, :, None, :], out=buf)
            R -= r[:, :, :, None]
            rmse = np.sqrt(np.einsum("pftj,pftj->pj", R, R) / n[:, None])
            if current is None:  # CV RMSE of the pinned fit, or of the mean alone
                current = np.sqrt(np.einsum("pft,pft->p", r, r) / n)
            rmse[~avail] = np.inf
            r_min = rmse.min(axis=1)
            j = np.argmax(rmse <= (r_min * (1 + SELECT_REL_MARGIN))[:, None], axis=1)
            go = r_min < current * (1 - SELECT_REL_MARGIN)
            for p, col in zip(live[go], j[go]):
                picks[p].append(int(col))
            current = rmse[np.arange(len(live)), j]
            if not go.any():
                break
            live, j, current, n, avail, Z, train, D, r, e, schur, M = _keep(
                go, live, j, current, n, avail, Z, train, D, r, e, schur, M)
            buf = buf[:len(live)]
        if s + 1 == steps:
            break
        i = np.arange(len(live))
        h = (train * Z[i, :, j][:, None, :]) @ Z
        if s:
            h -= (M[i, :, :s, j][:, :, None, :] @ M[:, :, :s])[:, :, 0]
        sig = schur[i, :, j]
        root = np.sqrt(sig)[:, :, None]
        row = M[:, :, s] = h / root
        dj = D[i, :, :, j]
        r -= (e[i, :, j] / sig)[:, :, None] * dj
        e -= e[i, :, j][:, :, None] / root * row
        D -= np.multiply(dj[:, :, :, None], (row / root)[:, :, None, :], out=buf)
        schur -= row * row
        avail[i, j] = False
    return picks


def forward_select(features: np.ndarray, targets: np.ndarray, folds: int = 10,
                   max_terms: int = 30) -> list[int]:
    """Greedy forward selection of raw feature columns.

    Starts empty and adds the column that most reduces cross-validated
    RMSE of a ridge fit, stopping when nothing improves by more than the
    relative margin SELECT_REL_MARGIN or max_terms is reached; columns
    within that margin of the best go to the lowest index. Returns column
    indices in selection order; raises EmptyCandidates without columns.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    X, y = (np.asarray(a, dtype=float) for a in (features, targets))
    return _greedy_lockstep([(X, y, None)], folds, max_terms)[0]


def select_basis(data, y=None, folds: int = 10, max_raw_terms: int = 30,
                 max_expanded_terms: int = 40):
    """Two-pass basis selection for a batch of problems: raw features, then
    pairwise products.

    `data` is a sequence of LabeledDatasets or (X, y) pairs, and one
    BasisSpec per problem comes back, in input order; select_basis(X, y)
    is a batch of one and gives its BasisSpec. The first pass selects raw
    features as forward_select does. The second keeps them in the model and
    greedily adds products of them while CV RMSE improves, up to a total of
    max_expanded_terms basis functions. Each pass runs the greedy steps of
    every problem in lockstep (see _greedy_lockstep), with per-fold state
    that grows by one entry per selected column.
    """
    if y is not None:
        return select_basis([(data, y)], None, folds, max_raw_terms, max_expanded_terms)[0]
    if max_raw_terms < 1:
        raise ValueError("max_terms must be at least 1")
    problems = [(d.features, d.targets) if isinstance(d, LabeledDataset) else
                tuple(np.asarray(a, dtype=float) for a in d) for d in data]
    # no raw feature lowers CV RMSE: fall back to raw column 0 so the model
    # still has a basis (a fixed choice, not the best-scoring one)
    raws = [raw or [0] for raw in
            _greedy_lockstep([(X, y, None) for X, y in problems], folds, max_raw_terms)]
    picks = _greedy_lockstep([(X, y, raw) for (X, y), raw in zip(problems, raws)],
                             folds, max_expanded_terms)
    # candidate r + t is the product of the sorted raw set's positions
    # triangle[r][t]; the bases are standardized in one batch
    triangle = {r: np.array(np.triu_indices(r)).T.tolist() for r in set(map(len, raws))}
    chosen = []
    for (X, _), raw, picked in zip(problems, raws, picks):
        s, pairs = sorted(raw), triangle[len(raw)]
        chosen.append((X, raw, [(s[a], s[b]) for a, b in (pairs[j - len(raw)] for j in picked)]))
    return _bases(chosen)


def _ridge_model(phi: np.ndarray, y: np.ndarray, basis: BasisSpec, factor,
                 delta: float, target: str, residual_rows=None) -> RidgeModel:
    """RidgeModel on an expanded, factored design: centered target, residual
    sigma. The mean and sigma have the bits of y.mean() and
    np.std(resid, ddof=1): the same pairwise sums over each vector alone."""
    intercept = float(np.add.reduce(y) / y.size)
    w = _ridge_solve(factor, phi.T @ (y - intercept))
    resid = y - (intercept + phi @ w)
    if residual_rows is not None:
        resid = resid[residual_rows]
    sigma = 0.0
    if resid.size > 1:
        dev = resid - np.add.reduce(resid) / resid.size
        sigma = math.sqrt(np.add.reduce(dev * dev) / (resid.size - 1))
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
    import scipy.special
    mu, sigma, lower = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                             for v in (mu, sigma, lower)))
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    a = (lower - mu) / sigma
    lam = np.empty_like(a)
    below = a < 0
    ab = a[below]
    lam[below] = np.exp(-ab**2 / 2.0) / math.sqrt(2 * math.pi) / scipy.special.ndtr(-ab)
    lam[~below] = math.sqrt(2 / math.pi) / scipy.special.erfcx(a[~below] / math.sqrt(2))
    out = np.maximum(mu + sigma * lam, lower)
    return float(out) if out.ndim == 0 else out


def censored_fit(data, basis, target: str = TARGET_LOG_RUNTIME, capped: list | None = None):
    """Schmee-Hahn censored regression for a batch of fits.

    `data` is a sequence of LabeledDatasets and `basis` one BasisSpec per
    dataset; the models come back in input order. A single LabeledDataset
    with a single basis is a batch of one and gives its model.

    A fit without censored rows is fit_ridge_model's. Each other fit starts
    from the ridge model that takes its censored targets as observed at the
    cutoff; each iteration replaces the censored targets with the mean of
    the current predictive normal truncated at the cutoff and refits, until
    the largest weight or intercept change drops below CENSORED_TOL or
    CENSORED_MAX_ITER iterations are reached. These fits iterate in
    lockstep, in the input-order chunks _run_chunks cuts (see _lockstep); a
    fit leaves its chunk at its own convergence, so it stops at the
    iteration it would stop at alone. A list passed as `capped` gets the
    model of each fit that stopped at CENSORED_MAX_ITER.
    """
    if isinstance(data, LabeledDataset):
        return censored_fit([data], [basis], target, capped)[0]
    data, bases = list(data), list(basis)
    if len(bases) != len(data):
        raise ValueError(f"{len(bases)} bases for {len(data)} datasets")
    if any(d.censored.all() for d in data):
        raise NoUncensoredData("need at least one uncensored row")
    fits = list(zip(data, bases))
    models = [None if d.censored.any() else fit_ridge_model(d.features, d.targets, b,
                                                            target=target) for d, b in fits]
    censored = [i for i, model in enumerate(models) if model is None]

    # _lockstep's peak: its stacks Phi and K, _keep's copy of one of them, and 14 (fits,
    # rows) arrays (Y, the fit, residuals, deviations and the imputation's temporaries)
    chunks = _run_chunks([fits[i] for i in censored], lambda _: None,
                         lambda fit: (fit[0].n, fit[1].dim),
                         lambda _, count, shape: count * shape[0] * (3 * shape[1] + 14),
                         lambda _, chunk: _lockstep(chunk, target, capped))
    for i, model in zip(censored, chunks):
        models[i] = model
    return models


def _lockstep(fits, target, capped=None) -> list[RidgeModel]:
    """Schmee-Hahn iterations of one chunk of censored_fit, (dataset, basis)
    pairs, all at once from each fit's ridge model; the models come back in
    chunk order. The designs Phi and operators K = (Phi^T Phi + delta*I)^-1
    Phi^T are stacked zero-padded to (fits, rows, terms): a padded row has
    no flags and a zero column of K, a padded term zero columns of Phi and
    zero rows of K, so each adds exact zeros to every product and sum. Each
    iteration imputes every censored cell in one truncated_normal_mean call
    (a fit with sigma 0 takes max(pred, cutoff)) and gives every new weight
    vector in one batched product.
    """
    F = len(fits)
    N = max(d.n for d, _ in fits)
    D = max(b.dim for _, b in fits)
    Phi, K = np.zeros((F, N, D)), np.zeros((F, D, N))
    Y = np.zeros((F, N))
    cens, unc = np.zeros((F, N), dtype=bool), np.zeros((F, N), dtype=bool)
    W = np.zeros((F, D))
    b, sigma, cutoff, rows = np.empty(F), np.empty(F), np.empty(F), np.empty(F)
    models = []
    for f, (d, basis) in enumerate(fits):
        phi = basis.expand_matrix(d.features)
        factor = _ridge_factor(phi, DEFAULT_DELTA)
        m = _ridge_model(phi, d.targets.astype(float), basis, factor, DEFAULT_DELTA, target,
                         ~d.censored)
        models.append(m)
        n, dim = phi.shape
        Phi[f, :n, :dim] = phi
        K[f, :dim, :n] = _ridge_solve(factor, phi.T)
        Y[f, :n], cens[f, :n], unc[f, :n] = d.targets, d.censored, ~d.censored
        W[f, :dim], b[f], sigma[f], cutoff[f] = m.weights, m.intercept, m.sigma, d.cutoff_log
        rows[f] = n
    kept = unc.sum(axis=1)
    fitted = b[:, None] + (Phi @ W[:, :, None])[:, :, 0]

    live = np.arange(F)
    for step in range(1, CENSORED_MAX_ITER + 1):
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

        converged = change < CENSORED_TOL
        done = converged | (step == CENSORED_MAX_ITER)
        for f in np.flatnonzero(done):
            m = models[live[f]]
            models[live[f]] = m = RidgeModel(m.basis, W[f, :m.basis.dim].copy(), DEFAULT_DELTA,
                                             float(sigma[f]), target, float(b[f]))
            if not converged[f]:
                log.debug("Schmee-Hahn stopped at max_iter=%d without converging: "
                          "last change %.3g >= tol %.3g", CENSORED_MAX_ITER, change[f],
                          CENSORED_TOL)
                if capped is not None:
                    capped.append(m)
        if done.all():
            break
        live, Phi, K, Y, cens, unc, W, b, sigma, cutoff, rows, kept, fitted = _keep(
            ~done, live, Phi, K, Y, cens, unc, W, b, sigma, cutoff, rows, kept, fitted)
    return models


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
    return RidgeModel(basis, np.array(doc["weights"], dtype=float), float(doc["delta"]),
                      float(doc["sigma"]), doc["target"], float(doc["intercept"]))
