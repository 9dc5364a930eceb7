import json
import logging
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from zfolio import learning
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
        # later product, so the expansion must stay row-major like the
        # column-by-column reference
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 12)) * 10
        raw, pairs = [5, 0, 11, 3], [(0, 5), (3, 3), (2, 11)]
        basis = BasisSpec(raw, pairs, rng.normal(size=7), rng.uniform(1, 3, size=7))
        cols = [X[:, i] for i in raw] + [X[:, j] * X[:, k] for j, k in pairs]
        want = (np.column_stack(cols) - basis.means) / basis.scales
        got = basis.expand_matrix(X)
        assert got.flags["C_CONTIGUOUS"] and np.array_equal(got, want)
        model = RidgeModel(basis, rng.normal(size=7), 1e-3, 0.1, "log_runtime", 0.5)
        assert np.array_equal(model.predict_matrix(X), 0.5 + want @ model.weights)
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


def reference_greedy_cv_select(C, y, folds, max_terms, delta, base=()):
    """The per-candidate loop: one fresh solve per candidate per fold."""
    n, m = C.shape
    folds = min(folds, n)
    means, scales = learning._standardize_columns(C)
    Z = (C - means) / scales
    yc = y - y.mean()
    masks = []
    for rows in learning._fold_indices(C, y, folds):
        test = np.zeros(n, dtype=bool)
        test[rows] = True
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
    while len(selected) < max_terms and available:
        best_j, best_rmse = None, current
        for j in available:
            r = cv_rmse(base + tuple(selected) + (j,))
            if r < best_rmse - 1e-12:
                best_j, best_rmse = j, r
        if best_j is None:
            break
        selected.append(best_j)
        available.remove(best_j)
        current = best_rmse
    return selected


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

    def test_forward_select_and_select_basis_match_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(48):
            X, y = random_design(rng, trial % 4)
            folds = (2, 5, 10)[trial % 3]
            raw_terms = min(X.shape[1], 8)
            got_fs = forward_select(X, y, folds=folds, max_terms=raw_terms)
            got = select_basis(X, y, folds=folds, max_raw_terms=raw_terms,
                               max_expanded_terms=12)
            with monkeypatch.context() as mp_ctx:
                mp_ctx.setattr(learning, "_greedy_cv_select", reference_greedy_cv_select)
                want_fs = forward_select(X, y, folds=folds, max_terms=raw_terms)
                want = select_basis(X, y, folds=folds, max_raw_terms=raw_terms,
                                    max_expanded_terms=12)
            assert got_fs == want_fs, trial
            assert got.raw_indices == want.raw_indices, trial
            assert got.product_pairs == want.product_pairs, trial

    def test_pinned_base_matches_reference(self):
        rng = np.random.default_rng(77)
        for trial in range(24):
            X, y = random_design(rng, trial % 4)
            k = min(4, X.shape[1] - 1)
            base = tuple(range(k))
            folds = (2, 5, 10)[trial % 3]
            got = learning._greedy_cv_select(X, y, folds, 6, 1e-3, base=base)
            want = reference_greedy_cv_select(X, y, folds, 6, 1e-3, base=base)
            assert got == want, trial

    def test_constant_target_falls_back_to_column_zero(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 6))
        basis = select_basis(X, np.full(40, 3.0), folds=5, max_raw_terms=4,
                             max_expanded_terms=6)
        assert basis.raw_indices == [0]
        assert basis.product_pairs == []


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
            forward_select(np.ones((4, 2)), np.ones(4), candidate_indices=[])

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
        cens = censored_fit(LabeledDataset(X, y), basis=basis)
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
        model = censored_fit(data, basis=make_basis(X, [0, 1]))
        # imputed values never drop below the censoring threshold, so the
        # refit model predicts at least as high on censored rows as naive
        phi = model.basis.expand_matrix(X[censored])
        preds = model.intercept + phi @ model.weights
        assert np.isfinite(preds).all()

    def test_requires_uncensored_rows(self):
        X = np.ones((3, 1))
        data = LabeledDataset(X, np.full(3, 1.0), np.ones(3, dtype=bool), 1.0)
        with pytest.raises(NoUncensoredData):
            censored_fit(data)

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(55)
        for censor_q in (30, 50, 70, 90, 97):
            X, _, targets, censored, cutoff, _, _ = synthetic_censored_dataset(
                rng, n=120, m=4, censor_q=censor_q)
            basis = make_basis(X, [0, 1, 3], [(0, 1), (2, 2)])
            data = LabeledDataset(X, targets, censored, cutoff)
            got = censored_fit(data, 1e-3, basis)
            want = reference_censored_fit(data, 1e-3, basis)
            probe = rng.normal(size=(200, 4))
            assert np.max(np.abs(got.predict_matrix(probe)
                                 - want.predict_matrix(probe))) < 1e-9
            assert abs(got.sigma - want.sigma) < 1e-9

    def test_logs_when_max_iter_reached(self, caplog):
        rng = np.random.default_rng(56)
        X, _, targets, censored, cutoff, _, _ = synthetic_censored_dataset(rng, n=80)
        data = LabeledDataset(X, targets, censored, cutoff)
        caplog.set_level(logging.DEBUG, logger="zfolio.learning")
        censored_fit(data, max_iter=2, tol=1e-15)
        assert any("max_iter=2" in r.getMessage() and r.levelno == logging.DEBUG
                   for r in caplog.records)
        caplog.clear()
        censored_fit(data)
        assert not caplog.records

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
            sh = censored_fit(LabeledDataset(X, targets, censored, cutoff), basis=basis)
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
