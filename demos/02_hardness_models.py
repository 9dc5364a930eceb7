"""Fit an empirical hardness model on censored synthetic runtimes.

Runs aborted at the cutoff only tell us the true runtime is larger. The
treat-as-cutoff shortcut biases the model low; imputing censored targets
with truncated-normal conditional means and refitting (repeatedly, until
the weights settle) removes most of that bias.
"""

import numpy as np

from zfolio import (
    LabeledDataset,
    censored_fit,
    fit_ridge_model,
    forward_select,
    select_basis,
    truncated_normal_mean,
)

rng = np.random.default_rng(7)
n, m = 400, 12

# log runtime depends on three of twelve features, the rest is noise
X = rng.normal(size=(n, m))
w_true = np.zeros(m)
w_true[[0, 3, 7]] = [1.2, -0.8, 0.5]
y = X @ w_true + 2.0 + 0.3 * rng.normal(size=n)

picked = forward_select(X, y, folds=5, max_terms=6)
print("forward selection picked features:", picked)

basis = select_basis(X, y, folds=5, max_raw_terms=6, max_expanded_terms=10)
print(f"basis: {len(basis.raw_indices)} raw terms + "
      f"{len(basis.product_pairs)} products")

# censor the slowest 30% at their 70th percentile, like a cutoff would
cutoff = np.percentile(y, 70)
censored = y > cutoff
targets = np.where(censored, cutoff, y)
print(f"\ncensoring {censored.sum()} of {n} runs at log-cutoff {cutoff:.2f}")

naive = fit_ridge_model(X, targets, basis)
[fixed] = censored_fit([LabeledDataset(X, targets, censored, cutoff)], basis=[basis])

X_test = rng.normal(size=(500, m))
y_test = X_test @ w_true + 2.0
rmse = lambda model: float(np.sqrt(np.mean((model.predict_matrix(X_test) - y_test) ** 2)))
print(f"held-out RMSE, treat-as-cutoff: {rmse(naive):.3f}")
print(f"held-out RMSE, censored fit:    {rmse(fixed):.3f}")

# the imputation building block: E[Y | Y >= bound]
print("\ntruncated normal means:")
for bound in (-np.inf, 0.0, 2.0, 8.0):
    print(f"  E[Y | Y >= {bound:>5}] = {truncated_normal_mean(0.0, 1.0, bound):.6f}")
