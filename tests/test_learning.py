import json
import logging
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from zfolio import hierarchy, learning
from zfolio.learning import (
    BasisSpec,
    DimensionMismatch,
    EmptyCandidates,
    LabeledDataset,
    NoUncensoredData,
    RidgeModel,
    censored_fit,
    fit_ridge_model,
    forward_select,
    log_runtime,
    make_basis,
    model_from_doc,
    model_to_doc,
    ridge_fit,
    select_basis,
    truncated_normal_mean,
)


def brute_force_ridge(phi, y, delta):
    """Independent oracle: least squares on the augmented system."""
    d = phi.shape[1]
    aug = np.vstack([phi, math.sqrt(delta) * np.eye(d)])
    rhs = np.concatenate([y, np.zeros(d)])
    w, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return w


class TestQuadraticExpand:
    def test_direct_products(self):
        basis = BasisSpec.identity([0, 1], [(0, 0), (0, 1), (1, 1)])
        out = basis.expand_matrix(np.array([[2.0, 3.0]]))
        assert np.allclose(out, [[2, 3, 4, 6, 9]])

    def test_no_products(self):
        basis = BasisSpec.identity([1, 0])
        out = basis.expand_matrix(np.array([[2.0, 3.0], [5.0, 7.0]]))
        assert np.allclose(out, [[3, 2], [7, 5]])

    def test_full_expansion_dimension(self):
        m = 7
        pairs = [(j, k) for j in range(m) for k in range(j, m)]
        basis = BasisSpec.identity(list(range(m)), pairs)
        assert basis.dim == m + m * (m + 1) // 2

    def test_dimension_mismatch(self):
        # rows too short for the basis, through a raw term or a product term,
        # as rows and through both predict paths
        for basis, width in ((BasisSpec.identity([0, 3]), 4),
                             (BasisSpec.identity([0], [(0, 3)]), 4)):
            model = RidgeModel(basis, np.ones(basis.dim), 1e-3, 0.1, "log_runtime")
            short = width - 1
            for call in (lambda: basis.expand_matrix(np.ones((1, 2))),
                         lambda: basis.expand_matrix(np.ones((4, short))),
                         lambda: model.predict_matrix(np.ones((4, short))),
                         lambda: model.predict(np.ones(short)),
                         lambda: model.predict(np.ones((1, width)))):
                with pytest.raises(DimensionMismatch):
                    call()
            assert model.predict(np.ones(width)) == 2.0

    def test_standardization_applied(self):
        basis = BasisSpec([0], [], np.array([1.0]), np.array([2.0]))
        assert basis.expand_matrix(np.array([[5.0]]))[0, 0] == 2.0

    def test_matches_column_reference_bit_for_bit(self):
        # a design's memory layout changes the BLAS summation order of every
        # later product in a fit, so the expansion must stay row-major like
        # the column-by-column reference; a prediction is each row's own
        # elementwise sum, never a BLAS product
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 12)) * 10
        raw, pairs = [5, 0, 11, 3], [(0, 5), (3, 3), (2, 11)]
        basis = BasisSpec(raw, pairs, rng.normal(size=7), rng.uniform(1, 3, size=7))
        cols = [X[:, i] for i in raw] + [X[:, j] * X[:, k] for j, k in pairs]
        want = (np.column_stack(cols) - basis.means) / basis.scales
        got = basis.expand_matrix(X)
        assert got.flags["C_CONTIGUOUS"] and np.array_equal(got, want)
        model = RidgeModel(basis, rng.normal(size=7), 1e-3, 0.1, "log_runtime", 0.5)
        assert np.array_equal(model.predict_matrix(X), 0.5 + (want * model.weights).sum(axis=1))
        assert all(model.predict(x) == model.predict_matrix(x[None, :])[0] for x in X)
        assert BasisSpec.identity([]).expand_matrix(X).shape == (40, 0)


class TestRidgeFit:
    def test_interpolation_limit(self):
        phi = np.array([[1.0], [1.0]])
        y = np.array([1.0, 1.0])
        w = ridge_fit(phi, y, 1e-12)
        assert abs(w[0] - 1.0) < 1e-9

    def test_scalar_closed_form(self):
        phi = np.array([[1.0], [1.0]])
        y = np.array([1.0, 1.0])
        w = ridge_fit(phi, y, 1e-3)
        assert abs(w[0] - 2 / 2.001) < 1e-12

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        w = ridge_fit(phi, y, 1e-3)
        assert np.allclose(w, brute_force_ridge(phi, y, 1e-3), atol=1e-9)

    def test_stationarity_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, d = rng.integers(2, 20), rng.integers(1, 8)
            phi = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            w = ridge_fit(phi, y, 1e-3)
            resid = phi.T @ (y - phi @ w) - 1e-3 * w
            assert np.max(np.abs(resid)) / (1 + np.max(np.abs(w))) < 1e-8

    def test_shrinkage_monotone_in_delta(self):
        rng = np.random.default_rng(11)
        phi = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        deltas = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]
        norms = [np.linalg.norm(ridge_fit(phi, y, d)) for d in deltas]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            ridge_fit(np.eye(2), np.ones(2), 0.0)


class TestRidgePredict:
    def test_zero_weights(self):
        basis = BasisSpec.identity([0, 1])
        model = RidgeModel(basis, np.zeros(2), 1e-3, 1.0, "log_runtime")
        assert model.predict(np.array([4.0, 5.0])) == 0.0
        assert model.sigma == 1.0

    def test_recovers_noiseless_linear_target(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = 2.0 * X[:, 0]
        basis = make_basis(X, [0, 1, 2])
        model = fit_ridge_model(X, y, basis, delta=1e-9)
        preds = model.predict_matrix(X)
        assert np.max(np.abs(preds - y)) < 1e-6

    def test_log_target_positive_runtime(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_ridge_model(X, y, make_basis(X, [0, 1]))
        for x in X:
            assert math.exp(model.predict(x)) > 0


def reference_content_order(X, y):
    """Canonical row order independent of storage order: by the last column
    of X, ties broken by the column before it, and so on, then by y."""
    if X.shape[1]:
        # without ties the last column alone decides, and one sort suffices
        order = np.argsort(X[:, -1], kind="stable")
        if np.all(np.diff(X[order, -1]) > 0):
            return order
    return np.lexsort((y, *X.T))


def reference_greedy_cv_select(C, y, folds, max_terms, delta, base=()):
    """The per-candidate loop: one fresh solve per candidate per fold.

    Each step takes the lowest-index candidate within a relative
    SELECT_REL_MARGIN of the step's lowest CV RMSE, if that lowest RMSE
    beats the current one by more than the same relative margin.
    """
    n, m = C.shape
    folds = min(folds, n)
    means, scales = learning._standardize_columns(C)
    Z = (C - means) / scales
    yc = y - y.mean()
    order = reference_content_order(C, y)
    masks = []
    for k in range(folds):
        test = np.zeros(n, dtype=bool)
        test[order[k::folds]] = True
        masks.append(test)
    grams = [(Z[~t].T @ Z[~t], Z[~t].T @ yc[~t]) for t in masks]

    def cv_rmse(cols):
        idx = np.array(cols, dtype=int)
        sq = 0.0
        for (G, b), test in zip(grams, masks):
            A = G[np.ix_(idx, idx)] + delta * np.eye(len(idx))
            w = np.linalg.solve(A, b[idx])
            resid = yc[test] - Z[np.ix_(test, idx)] @ w
            sq += float(resid @ resid)
        return math.sqrt(sq / n)

    selected = []
    current = math.sqrt(float(yc @ yc) / n) if not base else cv_rmse(base)
    available = [j for j in range(m) if j not in base]
    margin = learning.SELECT_REL_MARGIN
    while len(selected) < max_terms and available:
        scores = [cv_rmse(base + tuple(selected) + (j,)) for j in available]
        r_min = min(scores)
        if not r_min < current * (1 - margin):
            break
        best = next(i for i, r in enumerate(scores) if r <= r_min * (1 + margin))
        current = scores[best]
        selected.append(available.pop(best))
    return selected


def reference_product_pass(X, raw):
    """The product pass's candidates: the raw columns, then each distinct
    product of two of them, and those products' sorted pairs."""
    pairs = sorted({(min(j, k), max(j, k)) for i, j in enumerate(raw) for k in raw[i:]})
    return np.column_stack([X[:, raw]] + [X[:, j] * X[:, k] for j, k in pairs]), pairs


def reference_select_basis(X, y, folds, max_raw_terms, max_expanded_terms, delta=1e-3):
    """The two selection passes over reference_greedy_cv_select."""
    raw = [int(j) for j in reference_greedy_cv_select(X, y, folds, max_raw_terms, delta)]
    raw = raw or [0]
    if max_expanded_terms <= len(raw):
        return raw, []
    C, pairs = reference_product_pass(X, raw)
    picked = reference_greedy_cv_select(C, y, folds, max_expanded_terms - len(raw), delta,
                                        base=tuple(range(len(raw))))
    return raw, [pairs[j - len(raw)] for j in picked]


def random_design(rng, case):
    """Random regression design; some cases add a near-collinear or constant column."""
    n, m = int(rng.integers(10, 121)), int(rng.integers(3, 49))
    X = rng.normal(size=(n, m))
    if case == 1:
        X[:, 1] = X[:, 0] + 1e-9 * rng.normal(size=n)
    elif case == 2:
        X[:, 2] = 0.1
    elif case == 3:
        X = np.round(X)  # few distinct values, many tied rows
    w = rng.normal(size=m) * (rng.random(m) < 0.3)
    y = X @ w + rng.choice([0.01, 0.5, 2.0]) * rng.normal(size=n) + 5 * rng.normal()
    return X, y


class TestBatchedSelection:
    """The batched greedy step picks exactly what the per-candidate loop picks."""

    def test_forward_select_and_select_basis_match_reference(self):
        rng = np.random.default_rng(2024)
        for trial in range(48):
            X, y = random_design(rng, trial % 4)
            folds = (2, 5, 10)[trial % 3]
            raw_terms = min(X.shape[1], 8)
            got_fs = forward_select(X, y, folds=folds, max_terms=raw_terms)
            got = select_basis(X, y, folds=folds, max_raw_terms=raw_terms,
                               max_expanded_terms=12)
            want_fs = reference_greedy_cv_select(X, y, folds, raw_terms, 1e-3)
            want = reference_select_basis(X, y, folds, raw_terms, 12)
            assert got_fs == want_fs, trial
            assert got.raw_indices == want[0], trial
            assert got.product_pairs == want[1], trial

    def test_pinned_base_matches_reference(self):
        # the product pass pins the raw features and adds their products
        rng = np.random.default_rng(77)
        for trial in range(24):
            X, y = random_design(rng, trial % 4)
            raw = [int(j) for j in rng.permutation(X.shape[1])[:min(4, X.shape[1] - 1)]]
            C, _ = reference_product_pass(X, raw)
            folds = (2, 5, 10)[trial % 3]
            [got] = learning._greedy_lockstep([(X, y, raw)], folds, len(raw) + 6)
            want = reference_greedy_cv_select(C, y, folds, 6, 1e-3,
                                              base=tuple(range(len(raw))))
            assert got == want, trial

    @staticmethod
    def near_duplicate_design(seed):
        """69 x 8, column 1 = column 0 + 1e-9 noise: the two tie as raw
        features, and so do their products."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(69, 8))
        X[:, 1] = X[:, 0] + 1e-9 * rng.normal(size=69)
        y = X[:, 0] ** 2 + X[:, 0] * X[:, 3] + 0.5 * X[:, 2] + 0.1 * rng.normal(size=69)
        return X, y

    def test_near_duplicate_columns_tie_by_index(self):
        # columns 0 and 1 score within the relative margin of each other,
        # so column 0 is taken, whatever the rounding: alone, inside a
        # batch and from a differently laid-out copy of the same values
        X, y = self.near_duplicate_design(6)
        want = reference_select_basis(X, y, 5, 4, 6)
        assert want == ([2, 0], [(0, 0), (0, 2)])
        wide = np.zeros((69, 16))
        wide[:, ::2] = X
        laid_out = [np.asfortranarray(X), wide[:, ::2], X[::-1].copy()[::-1]]
        others = [self.near_duplicate_design(seed) for seed in (7, 8)]
        alone = select_basis(X, y, folds=5, max_raw_terms=4, max_expanded_terms=6)
        batch = select_basis([others[0], (X, y), *[(Xl, y.copy()) for Xl in laid_out],
                              others[1]], folds=5, max_raw_terms=4, max_expanded_terms=6)
        for basis in [alone, *batch[1:-1]]:
            assert (basis.raw_indices, basis.product_pairs) == want
        assert forward_select(X, y, folds=5, max_terms=4) == want[0]

    def test_gain_within_the_margin_stops_selection(self, monkeypatch):
        # an exact duplicate of the selected column lowers the CV RMSE only
        # by easing the ridge shrinkage: here by 4.5e-10 of it (4.6e-11
        # absolute), within the relative margin, so selection stops there
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        X[:, 1] = X[:, 0]
        y = 0.4847 * X[:, 0] + 0.1 * rng.normal(size=40)
        assert forward_select(X, y, folds=5, max_terms=3) == [0]
        assert reference_greedy_cv_select(X, y, 5, 3, 1e-3) == [0]
        monkeypatch.setattr(learning, "SELECT_REL_MARGIN", 1e-11)
        assert forward_select(X, y, folds=5, max_terms=3) == [0, 1]
        assert reference_greedy_cv_select(X, y, 5, 3, 1e-3) == [0, 1]

    def test_batch_matches_each_problem_alone(self):
        # different row counts, fewer rows than folds, raw passes of
        # different lengths, a constant target (raw column 0) and raw passes
        # that fill max_expanded_terms (no room for products)
        rng = np.random.default_rng(31)
        problems = []
        for n, active in ((60, 1), (23, 2), (4, 1), (3, 0), (45, 4), (80, 6), (12, 3)):
            X = rng.normal(size=(n, 10))
            y = X[:, :active] @ rng.normal(size=active) + X[:, 0] * X[:, 1]
            problems.append((X, y + 0.05 * rng.normal(size=n)))
        problems.append((rng.normal(size=(30, 10)), np.full(30, 2.5)))
        data = [LabeledDataset(X, y) if i % 2 else (X, y) for i, (X, y) in enumerate(problems)]
        batch = select_basis(data, folds=5, max_raw_terms=4, max_expanded_terms=4)
        assert len(batch) == len(problems)
        lengths = set()
        for (X, y), got in zip(problems, batch):
            want = select_basis(X, y, folds=5, max_raw_terms=4, max_expanded_terms=4)
            assert got.raw_indices == want.raw_indices
            assert got.product_pairs == want.product_pairs
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.scales, want.scales)
            assert (got.raw_indices, got.product_pairs) == reference_select_basis(X, y, 5, 4, 4)
            lengths.add(len(got.raw_indices))
        assert batch[-1].raw_indices == [0] and batch[-1].product_pairs == []
        assert {1, 4} <= lengths and any(b.product_pairs for b in batch)
        assert select_basis([]) == []

    def test_chunks_match_one_stack(self, monkeypatch):
        rng = np.random.default_rng(5)
        problems = [random_design(rng, trial % 4) for trial in range(12)]
        problems = [(X[:, :12], y) for X, y in problems if X.shape[1] >= 12]
        whole = select_basis(problems, folds=5, max_raw_terms=5, max_expanded_terms=8)
        chunks = []
        select_chunk = learning._select_chunk

        def counted(chunk, *args):
            chunks.append(len(chunk))
            return select_chunk(chunk, *args)
        monkeypatch.setattr(learning, "_select_chunk", counted)
        one = select_basis(problems, folds=5, max_raw_terms=5, max_expanded_terms=8)
        stacks = len(chunks)
        monkeypatch.setattr(learning, "FIT_BATCH_CELLS", 5000)
        chunked = select_basis(problems, folds=5, max_raw_terms=5, max_expanded_terms=8)
        assert len(chunks) - stacks > stacks and max(chunks[stacks:]) > 1
        for got, want in zip([*one, *chunked], [*whole, *whole]):
            assert got.raw_indices == want.raw_indices
            assert got.product_pairs == want.product_pairs

    def test_constant_target_falls_back_to_column_zero(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 6))
        basis = select_basis(X, np.full(40, 3.0), folds=5, max_raw_terms=4,
                             max_expanded_terms=6)
        assert basis.raw_indices == [0]
        assert basis.product_pairs == []


def reference_chunk_rows(problems, f, m):
    """The per-problem setup loop that learning._chunk_rows batches: each
    problem's candidates (every column, or the raw set and its products)
    and content order, written into zero-padded stacks."""
    P, N = len(problems), max(X.shape[0] for X, _, _ in problems)
    Z, yc = np.zeros((P, N + 1, m)), np.zeros((P, N + 1))
    test, train = np.full((P, f, -(-N // f)), N), np.zeros((P, f, N + 1))
    n = np.empty(P, dtype=int)
    for p, (X, y, raw) in enumerate(problems):
        k = n[p] = X.shape[0]
        Z[p, :k], yc[p, :k] = X if raw is None else reference_product_pass(X, raw)[0], y
        pos, order = np.arange(k), reference_content_order(Z[p, :k], y)
        test[p, pos % f, pos // f] = order
        train[p, :, :k] = 1.0
        train[p, pos % f, order] = 0.0
    return Z, yc, n, test, train


def reference_make_basis(X, raw, pairs):
    """make_basis as one problem: its terms expanded, then standardized."""
    means, scales = learning._standardize_columns(BasisSpec.identity(raw, pairs).expand_matrix(X))
    return BasisSpec(list(raw), list(pairs), means, scales)


def reference_ridge_model(X, y, basis, delta=1e-3, residual_rows=None):
    """fit_ridge_model through scipy.linalg's cho_factor and cho_solve, and
    the operator (Phi^T Phi + delta*I)^-1 Phi^T that _lockstep stacks."""
    import scipy.linalg
    phi = basis.expand_matrix(X)
    factor = scipy.linalg.cho_factor(phi.T @ phi + delta * np.eye(phi.shape[1]))
    intercept = float(y.mean())
    w = scipy.linalg.cho_solve(factor, phi.T @ (y - intercept))
    resid = y - (intercept + phi @ w)
    if residual_rows is not None:
        resid = resid[residual_rows]
    sigma = float(np.std(resid, ddof=1)) if resid.size > 1 else 0.0
    K = scipy.linalg.cho_solve(factor, phi.T)
    return RidgeModel(basis, w, delta, sigma, "log_runtime", intercept), K


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedSetup:
    """The batched setup of select_basis and censored_fit gives the bits of
    the per-problem code it replaces."""

    @staticmethod
    def scaled(rng, n, m):
        return rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3, size=m)

    def test_candidates_and_folds_match_the_per_problem_loop(self):
        rng = np.random.default_rng(340)
        chunks = []
        for f, rows in ((2, (2, 7, 8, 9, 31)), (5, (5, 12, 60)), (3, (40, 3))):
            X = [self.scaled(rng, n, 6) for n in rows]
            chunks.append(([(x, rng.normal(size=len(x)), None) for x in X], f, 6, 0))
            for pinned in (1, 2, 4):
                raws = [[int(j) for j in rng.permutation(6)[:pinned]] for _ in rows]
                chunks.append(([(x, rng.normal(size=len(x)), r) for x, r in zip(X, raws)],
                               f, pinned + pinned * (pinned + 1) // 2, pinned))
        # ties in the last candidate, whose full order differs from one
        # stable sort by it: rows 0 and 1 tie on the last column and are
        # ordered by the column before it
        X = np.array([[0.0, 5.0, 1.0], [0.0, 3.0, 1.0], [0.0, 0.0, 0.0], [1.0, 4.0, 2.0]])
        y = np.arange(4.0)
        assert not np.array_equal(np.argsort(X[:, -1], kind="stable"), np.lexsort((y, *X.T)))
        tied = [(X, y, None), (self.scaled(rng, 9, 3), rng.normal(size=9), None)]
        chunks.append((tied, 2, 3, 0))
        chunks.append(([(x, y, [2, 0]) for x, y, _ in tied], 2, 5, 2))
        for problems, f, m, pinned in chunks:
            got = learning._chunk_rows(problems, f, m, pinned)
            want = reference_chunk_rows(problems, f, m)
            for name, a, b in zip(("Z", "y", "n", "test", "train"), got, want):
                assert same_bits(a, b), (name, f, m, pinned)

    def test_batch_standardization_matches_make_basis_alone(self):
        # single-term bases (whose lone column numpy sums pairwise, unlike a
        # stack's), row counts below and above 8, raw sets of mixed lengths,
        # an all -0.0 column and a basis on no rows
        rng = np.random.default_rng(341)
        problems = []
        for n in (1, 2, 5, 8, 9, 17, 40, 130, 257):
            X = self.scaled(rng, n, 7)
            X[:, 6] = -0.0
            for raw, pairs in (([3], []), ([], [(1, 4)]), ([5, 2], [(2, 5)]), ([6, 0, 1], []),
                               ([4, 1, 0, 6], [(0, 0), (1, 6), (0, 4)])):
                problems.append((X, raw, pairs))
        problems.append((np.zeros((0, 7)), [0, 1], [(0, 1)]))
        problems.append((np.zeros((0, 7)), [2], []))
        got = learning._bases(problems)
        assert learning._bases([]) == []
        for (X, raw, pairs), basis in zip(problems, got):
            want = reference_make_basis(X, raw, pairs)
            alone = make_basis(X, raw, pairs)
            for b in (basis, alone):
                assert (b.raw_indices, b.product_pairs) == (want.raw_indices, want.product_pairs)
                assert same_bits(b.means, want.means), (len(X), raw, pairs)
                assert same_bits(b.scales, want.scales), (len(X), raw, pairs)

    def test_ridge_starts_match_cho_factor_and_cho_solve(self, monkeypatch):
        # the uncensored fits, and _lockstep's starting models (all it
        # returns when no iteration is allowed) and operators
        rng = np.random.default_rng(342)
        data, bases = [], []
        for n in (3, 8, 9, 40, 130):
            X = self.scaled(rng, n, 6)
            y = X[:, :2] @ rng.normal(size=2) + rng.normal(size=n)
            censored = np.arange(n) % 3 == 1
            for raw, pairs in (([1], []), ([0, 3], [(0, 3), (3, 3)]), ([], [])):
                basis = make_basis(X, raw, pairs)
                want, K = reference_ridge_model(X, y, basis)
                got = fit_ridge_model(X, y, basis)
                assert same_bits(got.weights, want.weights), (n, raw, pairs)
                assert (got.intercept, got.sigma) == (want.intercept, want.sigma)
                phi = basis.expand_matrix(X)
                assert same_bits(learning._ridge_solve(learning._ridge_factor(phi, 1e-3), phi.T), K)
                data.append(LabeledDataset(X, np.where(censored, 4.0, y), censored, 4.0))
                bases.append(basis)
        monkeypatch.setattr(learning, "CENSORED_MAX_ITER", 0)
        for d, b, got in zip(data, bases, censored_fit(data, bases)):
            want, _ = reference_ridge_model(d.features, d.targets, b, residual_rows=~d.censored)
            assert same_bits(got.weights, want.weights)
            assert (got.intercept, got.sigma) == (want.intercept, want.sigma)
        with pytest.raises(ValueError, match="infs or NaNs"):
            learning._ridge_factor(np.array([[1.0, np.nan]]), 1e-3)
        with pytest.raises(ValueError, match="infs or NaNs"):
            learning._ridge_solve(learning._ridge_factor(np.eye(2), 1e-3), np.array([np.inf, 0]))

    def test_censored_targets_sit_at_the_cutoff_within_allclose(self):
        cut = math.log(300.0)
        X = np.zeros((4, 1))
        censored = np.array([True, True, False, True])
        for gap in (0.0, 1e-8, 0.99e-5 * cut, -1e-6, 2e-5 * cut, np.nan, np.inf):
            targets = np.array([cut, cut + gap, 1.0, cut])
            ok = np.allclose(targets[censored], cut)
            if ok:
                LabeledDataset(X, targets, censored, cut)
            else:
                with pytest.raises(ValueError, match="cutoff_log"):
                    LabeledDataset(X, targets, censored, cut)
        for cutoff, target, ok in ((np.inf, np.inf, True), (np.inf, 5.0, False),
                                   (np.nan, np.nan, False), (-np.inf, -np.inf, True)):
            assert np.allclose([target], cutoff) == ok
            if ok:
                LabeledDataset(X[:1], [target], [True], cutoff)
            else:
                with pytest.raises(ValueError, match="cutoff_log"):
                    LabeledDataset(X[:1], [target], [True], cutoff)


class TestForwardSelect:
    def test_recovers_known_support(self):
        rng = np.random.default_rng(42)
        n = 200
        X = rng.normal(size=(n, 12))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.01 * rng.normal(size=n)
        picked = forward_select(X, y, folds=5, max_terms=6)
        assert set(picked[:2]) == {0, 1}

    def test_constant_target_stops_immediately(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5))
        y = np.full(40, 3.0)
        picked = forward_select(X, y, folds=5, max_terms=5)
        assert len(picked) <= 1

    def test_max_terms_cap(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 6))
        y = X @ np.array([1.0, -1.0, 0.5, 0.2, -0.3, 0.7])
        picked = forward_select(X, y, folds=5, max_terms=1)
        assert len(picked) == 1

    def test_duplicate_free(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 8))
        y = X @ rng.normal(size=8) + 0.05 * rng.normal(size=80)
        picked = forward_select(X, y, folds=5, max_terms=8)
        assert len(picked) == len(set(picked))

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            forward_select(np.ones((4, 0)), np.ones(4))

    def test_invariant_to_row_order(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 6))
        y = 2 * X[:, 2] + 0.1 * rng.normal(size=60)
        perm = rng.permutation(60)
        a = forward_select(X, y, folds=5, max_terms=4)
        b = forward_select(X[perm], y[perm], folds=5, max_terms=4)
        assert a == b


def integration_oracle(mu, sigma, lower):
    mp.mp.dps = 40
    pdf = lambda t: mp.npdf(t, mu, sigma)
    num = mp.quad(lambda t: t * pdf(t), [lower, mp.inf])
    den = mp.quad(pdf, [lower, mp.inf])
    return float(num / den)


class TestTruncatedNormalMean:
    def test_no_truncation(self):
        assert truncated_normal_mean(0.0, 1.0, -np.inf) == 0.0

    def test_standard_half_normal(self):
        # E[Y | Y >= 0] for standard normal is sqrt(2/pi)
        assert abs(truncated_normal_mean(0.0, 1.0, 0.0) - 0.797885) < 1e-6

    def test_deep_tail_hugs_bound(self):
        v = truncated_normal_mean(5.0, 2.0, 100.0)
        assert 100.0 < v < 100.1

    def test_grid_against_integration_oracle(self):
        for mu in (-2.0, 0.0, 3.0):
            for sigma in (0.5, 1.0, 2.0):
                for a in (-5.0, -1.0, 0.0, 1.0, 4.0, 8.0):
                    lower = mu + a * sigma
                    got = truncated_normal_mean(mu, sigma, lower)
                    want = integration_oracle(mu, sigma, lower)
                    assert abs(got - want) < 1e-6
                    assert got >= lower

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            truncated_normal_mean(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            truncated_normal_mean(np.zeros(3), np.array([1.0, -1.0, 1.0]), 0.0)

    def test_scalar_call_returns_float(self):
        got = truncated_normal_mean(0.0, 1.0, 0.0)
        assert type(got) is float

    def test_array_equals_elementwise_scalar_calls(self):
        grid = [(mu, sigma, mu + a * sigma)
                for mu in (-2.0, 0.0, 3.0)
                for sigma in (0.5, 1.0, 2.0)
                for a in (-5.0, -1.0, 0.0, 1.0, 4.0, 8.0)]
        mus, sigmas, lowers = (np.array(col) for col in zip(*grid))
        got = truncated_normal_mean(mus, sigmas, lowers)
        assert isinstance(got, np.ndarray) and got.shape == (len(grid),)
        for value, args in zip(got, grid):
            assert abs(value - truncated_normal_mean(*args)) < 1e-12
            assert abs(value - reference_truncated_normal_mean(*args)) < 1e-12

    def test_far_below_mean_returns_mu_without_warning(self):
        mus = np.array([1.0, -3.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert truncated_normal_mean(1.0, 1.0, 1.0 - 40.0) == 1.0
            got = truncated_normal_mean(mus, 2.0, np.array([mus[0] - 80.0, 97.0, -np.inf]))
        assert got[0] == mus[0] and got[2] == mus[2]
        assert 97.0 < got[1] < 97.1


def reference_truncated_normal_mean(mu, sigma, lower):
    """The scalar form: scipy.stats pdf/sf below the mean, erfcx above."""
    if lower == -np.inf:
        return float(mu)
    a = (lower - mu) / sigma
    if a < 0:
        lam = stats.norm.pdf(a) / stats.norm.sf(a)
    else:
        lam = math.sqrt(2 / math.pi) / special.erfcx(a / math.sqrt(2))
    return max(float(mu + sigma * lam), float(lower))


def reference_censored_fit(data, delta, basis, tol=1e-6, max_iter=50):
    """Schmee-Hahn with one refit per iteration and one scalar call per censored row."""
    censored = data.censored
    y_work = data.targets.astype(float).copy()
    model = fit_ridge_model(data.features, y_work, basis, delta,
                            residual_rows=~censored)
    phi_c = basis.expand_matrix(data.features[censored])
    for _ in range(max_iter):
        preds = model.intercept + phi_c @ model.weights
        if model.sigma > 0:
            imputed = np.array([
                reference_truncated_normal_mean(p, model.sigma, data.cutoff_log)
                for p in preds
            ])
        else:
            imputed = np.maximum(preds, data.cutoff_log)
        y_work[censored] = imputed
        new_model = fit_ridge_model(data.features, y_work, basis, delta,
                                    residual_rows=~censored)
        change = max(float(np.max(np.abs(new_model.weights - model.weights))),
                     abs(new_model.intercept - model.intercept))
        model = new_model
        if change < tol:
            break
    return model


def synthetic_censored_dataset(rng, n=300, m=5, noise=0.5, censor_q=70):
    X = rng.normal(size=(n, m))
    w_true = rng.normal(size=m)
    b_true = rng.normal()
    y_true = X @ w_true + b_true + noise * rng.normal(size=n)
    cutoff = np.percentile(y_true, censor_q)
    censored = y_true > cutoff
    targets = np.where(censored, cutoff, y_true)
    return X, y_true, targets, censored, cutoff, w_true, b_true


class TestCensoredFit:
    def test_uncensored_matches_plain_fit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + 0.1 * rng.normal(size=40)
        basis = make_basis(X, [0, 1, 2])
        plain = fit_ridge_model(X, y, basis)
        [cens] = censored_fit([LabeledDataset(X, y)], basis=[basis])
        assert np.array_equal(cens.weights, plain.weights)
        assert cens.intercept == plain.intercept

    def test_imputations_respect_cutoff(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        y_true = X @ np.array([0.5, -0.5]) - 5.0  # predictions far below cutoff
        cutoff = 2.0
        censored = np.zeros(60, dtype=bool)
        censored[:10] = True
        targets = np.where(censored, cutoff, y_true)
        data = LabeledDataset(X, targets, censored, cutoff)
        [model] = censored_fit([data], basis=[make_basis(X, [0, 1])])
        # imputed values never drop below the censoring threshold, so the
        # refit model predicts at least as high on censored rows as naive
        phi = model.basis.expand_matrix(X[censored])
        preds = model.intercept + phi @ model.weights
        assert np.isfinite(preds).all()

    def test_requires_uncensored_rows(self):
        X = np.ones((3, 1))
        data = LabeledDataset(X, np.full(3, 1.0), np.ones(3, dtype=bool), 1.0)
        with pytest.raises(NoUncensoredData):
            censored_fit([data], [make_basis(X, [0])])

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(55)
        for censor_q in (30, 50, 70, 90, 97):
            X, _, targets, censored, cutoff, _, _ = synthetic_censored_dataset(
                rng, n=120, m=4, censor_q=censor_q)
            basis = make_basis(X, [0, 1, 3], [(0, 1), (2, 2)])
            data = LabeledDataset(X, targets, censored, cutoff)
            [got] = censored_fit([data], [basis])
            want = reference_censored_fit(data, 1e-3, basis)
            probe = rng.normal(size=(200, 4))
            assert np.max(np.abs(got.predict_matrix(probe)
                                 - want.predict_matrix(probe))) < 1e-9
            assert abs(got.sigma - want.sigma) < 1e-9

    def test_logs_when_max_iter_reached(self, caplog, monkeypatch):
        rng = np.random.default_rng(56)
        X, _, targets, censored, cutoff, _, _ = synthetic_censored_dataset(rng, n=80)
        data = LabeledDataset(X, targets, censored, cutoff)
        basis = make_basis(X, list(range(X.shape[1])))
        caplog.set_level(logging.DEBUG, logger="zfolio.learning")
        monkeypatch.setattr(learning, "CENSORED_MAX_ITER", 2)
        monkeypatch.setattr(learning, "CENSORED_TOL", 1e-15)
        censored_fit([data], [basis])
        assert any("max_iter=2" in r.getMessage() and r.levelno == logging.DEBUG
                   for r in caplog.records)
        caplog.clear()
        monkeypatch.undo()
        censored_fit([data], [basis])
        assert not caplog.records

    def mixed_batch(self):
        """Fits of different row and term counts: no censored rows, one
        uncensored row, sigma 0 (two identical uncensored rows), and
        synthetic fits that need more than 50 iterations or fewer."""
        rng = np.random.default_rng(61)
        data, bases = [], []

        def add(X, targets, censored, cutoff, raw, pairs=()):
            data.append(LabeledDataset(X, targets, censored, cutoff))
            bases.append(make_basis(X, raw, pairs))

        X = rng.normal(size=(30, 3))
        add(X, X @ [1.0, 2.0, -1.0] + 0.1 * rng.normal(size=30), None, None, [0, 1, 2])
        X = rng.normal(size=(12, 2))
        censored = np.arange(12) > 0
        add(X, np.where(censored, 1.0, -0.5), censored, 1.0, [0, 1])
        X = rng.normal(size=(9, 3))
        X[1] = X[0]
        censored = np.arange(9) > 1
        add(X, np.where(censored, 0.5, 0.0), censored, 0.5, [0, 2], [(0, 1), (1, 2)])
        for q, n, m, pairs in ((30, 40, 3, ()), (90, 60, 4, [(0, 3)]), (97, 120, 5, [(1, 2)])):
            X, _, targets, censored, cutoff, _, _ = synthetic_censored_dataset(
                rng, n=n, m=m, censor_q=q)
            add(X, targets, censored, cutoff, list(range(m)), pairs)
        return data, bases

    def test_batch_matches_reference_and_fits_alone(self, caplog):
        data, bases = self.mixed_batch()
        assert len({(d.n, b.dim) for d, b in zip(data, bases)}) == len(data)
        caplog.set_level(logging.DEBUG, logger="zfolio.learning")

        def stopped():
            got = [r.getMessage() for r in caplog.records if "max_iter=50" in r.getMessage()]
            caplog.clear()
            return got
        batch = censored_fit(data, bases)
        in_batch = stopped()
        alone_stopped = []
        probe = np.random.default_rng(62).normal(size=(200, 5))
        for d, b, got in zip(data, bases, batch):
            assert got.basis is b
            alone = censored_fit(d, b)
            alone_stopped += stopped()
            assert np.max(np.abs(got.weights - alone.weights)) < 1e-12
            assert abs(got.intercept - alone.intercept) < 1e-12
            assert abs(got.sigma - alone.sigma) < 1e-12
            want = reference_censored_fit(d, 1e-3, b)
            X = probe[:, :d.features.shape[1]]
            assert np.max(np.abs(got.predict_matrix(X) - want.predict_matrix(X))) < 1e-9
            assert abs(got.sigma - want.sigma) < 1e-9
        # each member stops at its own iteration: the ones that reach
        # max_iter alone are the ones logged in the batch
        assert sorted(in_batch) == sorted(alone_stopped)
        assert 0 < len(in_batch) < len(data) - 1
        assert batch[1].sigma == 0 and batch[2].sigma == 0
        plain = fit_ridge_model(data[0].features, data[0].targets, bases[0])
        assert np.array_equal(batch[0].weights, plain.weights)
        assert (batch[0].intercept, batch[0].sigma) == (plain.intercept, plain.sigma)

    def test_chunks_match_one_batch(self, monkeypatch):
        # at 3500 cells the five censored fits of the mixed batch iterate in
        # three chunks, the last a single fit larger than the limit
        data, bases = self.mixed_batch()
        whole = censored_fit(data, bases)
        chunks = []
        lockstep = learning._lockstep

        def counted(chunk, *args):
            chunks.append(len(chunk))
            return lockstep(chunk, *args)
        monkeypatch.setattr(learning, "_lockstep", counted)
        monkeypatch.setattr(learning, "FIT_BATCH_CELLS", 3500)
        for got, want in zip(censored_fit(data, bases), whole):
            assert np.max(np.abs(got.weights - want.weights)) < 1e-12
            assert abs(got.intercept - want.intercept) < 1e-12
            assert abs(got.sigma - want.sigma) < 1e-12
        assert chunks == [3, 1, 1]

    def test_empty_batch_and_basis_count(self):
        assert censored_fit([], []) == []
        X = np.ones((3, 1))
        basis = make_basis(X, [0])
        with pytest.raises(ValueError, match="2 bases for 1 datasets"):
            censored_fit([LabeledDataset(X, np.arange(3.0))], basis=[basis, basis])

    def test_beats_naive_on_synthetic_lognormal(self):
        # 20 seeded replications; censored handling must win a clear majority
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            X, y_true, targets, censored, cutoff, w_true, b_true = (
                synthetic_censored_dataset(rng)
            )
            Xte = rng.normal(size=(200, X.shape[1]))
            yte = Xte @ w_true + b_true
            basis = make_basis(X, list(range(X.shape[1])))
            naive = fit_ridge_model(X, targets, basis)
            [sh] = censored_fit([LabeledDataset(X, targets, censored, cutoff)], basis=[basis])
            rmse_naive = np.sqrt(np.mean((naive.predict_matrix(Xte) - yte) ** 2))
            rmse_sh = np.sqrt(np.mean((sh.predict_matrix(Xte) - yte) ** 2))
            if rmse_sh < rmse_naive:
                wins += 1
        assert wins >= 16


class TestSelectBasis:
    def test_basis_invariants(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(150, 8))
        y = X[:, 1] * X[:, 2] + 2 * X[:, 0] + 0.05 * rng.normal(size=150)
        basis = select_basis(X, y, folds=5, max_raw_terms=4, max_expanded_terms=8)
        assert len(set(basis.raw_indices)) == len(basis.raw_indices)
        assert all(j <= k for j, k in basis.product_pairs)
        assert basis.dim == len(basis.raw_indices) + len(basis.product_pairs)
        assert basis.dim <= 8

    def test_product_term_found(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(200, 5))
        y = (3.0 * X[:, 0] * X[:, 1] + 4.0 * X[:, 0] + 4.0 * X[:, 1]
             + 0.01 * rng.normal(size=200))
        basis = select_basis(X, y, folds=5, max_raw_terms=3, max_expanded_terms=6)
        assert (0, 1) in basis.product_pairs


class TestPersistence:
    def test_round_trip_bit_identical_predictions(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(120, 6))
        y = X @ rng.normal(size=6) + 0.2 * rng.normal(size=120)
        basis = select_basis(X, y, folds=5, max_raw_terms=4, max_expanded_terms=7)
        model = fit_ridge_model(X, y, basis)
        loaded = model_from_doc(json.loads(json.dumps(model_to_doc(model))))
        probe = rng.normal(size=(100, 6))
        assert np.array_equal(model.predict_matrix(probe), loaded.predict_matrix(probe))

    def test_doc_dimension_validation(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(20, 3))
        model = fit_ridge_model(X, X @ np.ones(3), make_basis(X, [0, 1]))
        doc = model_to_doc(model)
        doc["weights"] = doc["weights"][:-1]
        with pytest.raises(DimensionMismatch):
            model_from_doc(doc)


def test_log_runtime_clamps_zero():
    vals = log_runtime([0.0, 1.0])
    assert vals[0] == math.log(0.005)
    assert vals[1] == 0.0


class TestChunkBudget:
    def test_each_chunk_peaks_within_the_budget(self, monkeypatch):
        # the traced peak of every chunk of more than one problem, from the
        # chunk's first allocation to its last (its candidates, fold order and
        # steps, its bases' standardization, its Schmee-Hahn iterations from
        # their ridge starts, or its gates), stays within FIT_BATCH_CELLS
        # float64 cells (and a quarter for numpy's own buffers), on problems
        # shaped like a portfolio build's: 48 raw features, 10 folds, up to
        # 240 rows, expanded bases of up to 40 terms and gates of 2 classes
        rng = np.random.default_rng(8)
        problems, data, bases, gates = [], [], [], []
        for n in (240, 60, 180, 200, 100, 150, 220, 90):
            X = rng.normal(size=(n, 48))
            y = X[:, :8] @ rng.normal(size=8) + X[:, 0] * X[:, 1] + 0.3 * rng.normal(size=n)
            problems.append((X, y))
            m = int(rng.integers(5, 41))
            X, _, targets, censored, cutoff, _, _ = synthetic_censored_dataset(
                rng, n=n, m=m, censor_q=int(rng.integers(30, 96)))
            data.append(LabeledDataset(X, targets, censored, cutoff))
            bases.append(make_basis(X, list(range(m))))
            sat = rng.random(n)
            E = np.column_stack([rng.normal(size=n), 2.0 + rng.normal(size=n)])
            inputs = np.column_stack([rng.normal(size=(n, 48)), sat, 1.0 - sat])
            gates.append((inputs, np.arange(n), E, np.where(sat > 0.5, E[:, 0], E[:, 1])))
        peaks = {}

        def traced(owner, name):
            kernel = getattr(owner, name)

            def wrapper(chunk, *args):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                result = kernel(chunk, *args)
                peak = tracemalloc.get_traced_memory()[1] - start
                peaks.setdefault(name, []).append((len(chunk), peak))
                return result
            monkeypatch.setattr(owner, name, wrapper)
        for owner, name in ((learning, "_select_chunk"), (learning, "_standardize_chunk"),
                            (learning, "_lockstep"), (hierarchy, "_gate_chunk")):
            traced(owner, name)
        monkeypatch.setattr(learning, "FIT_BATCH_CELLS", 1 << 17)
        tracemalloc.start()
        try:
            select_basis(problems, folds=10, max_raw_terms=12, max_expanded_terms=40)
            censored_fit(data, bases)
            hierarchy.fit_gating(gates)
        finally:
            tracemalloc.stop()
        for name, chunks in peaks.items():
            shared = [peak for size, peak in chunks if size > 1]
            assert shared, name
            assert max(shared) <= 1.25 * 8 * learning.FIT_BATCH_CELLS, name
        assert len(peaks) == 4
