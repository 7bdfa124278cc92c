"""Iterative random-forest imputation of missing climate values.

The imputer follows the missForest recipe for continuous variables: start
from column means, then repeatedly revisit columns in order of ascending
missingness, fitting a random forest on the observed rows (all other columns
as features) and predicting the missing rows. Iteration stops as soon as the
normalized squared change of the imputed entries increases, returning the
matrix from the previous sweep, or after ``max_iter`` sweeps.

Trees are plain CART regressors: greedy variance-reduction splits with ties
broken by lowest feature index, then lowest threshold. A forest's trees grow
together, one depth level per step, over presorted columns with each
bootstrap held as row counts, and are stored as flat node arrays. All
randomness (bootstrap, feature subsampling) is owned by an explicit seeded
generator, so runs reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core_math import Rng
from .data_model import Dataset
from .errors import ConfigError, ShapeError
from .parallel import pmap

__all__ = [
    "ForestConfig",
    "Forest",
    "ImputationResult",
    "fit_tree",
    "forest_fit",
    "forest_predict",
    "missforest_impute",
    "impute_dataset",
]


MAX_ITER = 10  # the default cap on missForest sweeps


@dataclass(frozen=True)
class ForestConfig:
    """Hyperparameters shared by single trees and forests.

    ``mtry=None`` resolves to ceil(sqrt(n_features)); ``max_depth=None``
    grows until leaves hold fewer than ``2 * min_samples_leaf`` rows.
    """

    n_trees: int = 100
    mtry: int | None = None
    min_samples_leaf: int = 5
    max_depth: int | None = None

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"mtry must be >= 1, got {self.mtry}")
        if self.min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")

    def resolve_mtry(self, n_features: int) -> int:
        if self.mtry is not None:
            return min(self.mtry, n_features)
        return min(n_features, math.ceil(math.sqrt(n_features)))


@dataclass(frozen=True)
class Forest:
    """``n_trees`` CART trees stored as flat node arrays.

    Node ``t`` is the root of tree ``t``, and each level's nodes follow the
    level above. A leaf has ``feature == left == right == -1`` and predicts
    ``value``; an inner node sends a row left when ``row[feature] <= threshold``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_trees: int
    n_features: int


def _checked_inputs(X, y, config: ForestConfig):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"X {X.shape} and y {y.shape} must be (n, p) and (n,)")
    if X.shape[0] < 1:
        raise ValueError("cannot fit a tree on zero rows")
    return X, y


def _fit_levelwise(X, y, weights, cfg: ForestConfig, rng: Rng) -> Forest:
    """Grow one tree per row of the count matrix ``weights`` (trees, rows),
    all trees together, one depth level per step.

    Each in-bag (tree, row) pair is an entry weighted by its count. Every
    feature keeps a list of the entries grouped by open node and sorted by
    that feature inside each node, so one cumulative sum per feature scores
    every threshold of every open node. The sums are of ``w * (y - node
    mean)``: they stay small across node boundaries, and the parent's term
    of the variance reduction is zero. A split needs a gain above zero and
    ``min_samples_leaf`` weight on each side; among equal gains the lowest
    feature, then the lowest threshold, wins. ``rng`` draws each level's
    feature subsets, unless ``mtry`` covers every feature.
    """
    n, p = X.shape
    msl = cfg.min_samples_leaf
    mtry = cfg.resolve_mtry(p)
    tree_of, row_of = np.nonzero(weights)
    w = weights[tree_of, row_of].astype(np.float64)
    ye, xe = y[row_of], X[row_of].T
    rank = np.argsort(np.argsort(X, axis=0, kind="stable"), axis=0)
    lists = [np.argsort(tree_of * n + rank[row_of, f]) for f in range(p)]
    sizes = np.bincount(tree_of, minlength=weights.shape[0])  # entries per open node
    levels = []
    base = 0
    while True:
        k = sizes.size
        starts = np.cumsum(sizes) - sizes
        ends = starts + sizes
        node = np.repeat(np.arange(k), sizes)  # open node at each list position
        y0, w0 = ye[lists[0]], w[lists[0]]
        wn = np.bincount(node, w0, k)
        value = np.bincount(node, w0 * y0, k) / wn
        splittable = (wn >= 2 * msl) & (
            np.minimum.reduceat(y0, starts) < np.maximum.reduceat(y0, starts)
        )
        if cfg.max_depth is not None and len(levels) >= cfg.max_depth:
            splittable[:] = False
        picked = np.repeat(splittable[:, None], p, axis=1)
        if mtry < p and splittable.any():
            draws = rng.uniform(0.0, 1.0, size=(int(splittable.sum()), p))
            picked[splittable] = np.argsort(np.argsort(draws, axis=1), axis=1) < mtry
        same = node[:-1] == node[1:]
        found = []
        for f, order in enumerate(lists):
            xs = xe[f, order]
            wsum = np.concatenate(([0.0], np.cumsum(w[order])))
            csum = np.concatenate(([0.0], np.cumsum(w[order] * (ye[order] - value[node]))))
            j = np.flatnonzero(same & (xs[:-1] < xs[1:]) & picked[node[:-1], f])
            s = node[j]
            wl = wsum[j + 1] - wsum[starts[s]]
            sl = csum[j + 1] - csum[starts[s]]
            sr = csum[ends[s]] - csum[j + 1]
            gain = sl * sl / wl + sr * sr / (wn[s] - wl)
            ok = (wl >= msl) & (wn[s] - wl >= msl) & (gain > 0)
            lo, hi = xs[j[ok]], xs[j[ok] + 1]
            mid = (lo + hi) / 2.0  # rounds up to ``hi`` when the two are adjacent floats
            found.append((s[ok], gain[ok], np.full(lo.size, f), np.where(mid < hi, mid, lo)))
        s, gain, feat, thr = (np.concatenate(col) for col in zip(*found))
        best = np.lexsort((thr, feat, -gain, s))
        best = best[np.unique(s[best], return_index=True)[1]]
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        feature[s[best]], threshold[s[best]] = feat[best], thr[best]
        split = feature >= 0
        slot = np.where(split, 2 * np.cumsum(split) - 2, -1)  # left child's index in the next level
        left = np.where(split, base + k + slot, -1)
        levels.append((feature, threshold, left, np.where(split, left + 1, -1), value))
        if not split.any():
            break
        go = feature[node]
        for f, order in enumerate(lists):
            dest = np.where(go >= 0, slot[node] + (xe[go, order] > threshold[node]), -1)
            lists[f] = order[dest >= 0][np.argsort(dest[dest >= 0], kind="stable")]
        sizes = np.bincount(dest[dest >= 0], minlength=2 * int(split.sum()))
        base += k
    feature, threshold, left, right, value = (np.concatenate(col) for col in zip(*levels))
    return Forest(feature, threshold, left, right, value, weights.shape[0], p)


def fit_tree(X, y, config: ForestConfig, rng: Rng) -> Forest:
    """Fit one CART regression tree: a one-tree forest whose only
    bootstrap is every row once. ``rng`` draws the feature subsets."""
    X, y = _checked_inputs(X, y, config)
    return _fit_levelwise(X, y, np.ones((1, X.shape[0]), dtype=np.intp), config, rng)


def forest_fit(X, y, config: ForestConfig, rng: Rng) -> Forest:
    """Fit a bootstrap ensemble of ``config.n_trees`` trees.

    ``rng.split(n_trees)`` gives one child generator per tree, which draws
    that tree's bootstrap rows, so the bootstraps do not depend on how the
    trees are grown. ``rng`` itself then draws the feature subsets of every
    level of every tree, in one call per level.
    """
    X, y = _checked_inputs(X, y, config)
    n = X.shape[0]
    trees = rng.split(config.n_trees)
    weights = np.stack([np.bincount(t.integers(0, n, size=n), minlength=n) for t in trees])
    return _fit_levelwise(X, y, weights, config, rng)


def forest_predict(forest: Forest, X) -> np.ndarray:
    """Mean of the member trees' predictions; all trees walk together."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ShapeError(
            f"forest fitted on {forest.n_features} features, got input shape {X.shape}"
        )
    rows = np.arange(X.shape[0])
    node = np.repeat(np.arange(forest.n_trees)[:, None], X.shape[0], axis=1)
    feature = forest.feature[node]
    while (inner := feature >= 0).any():
        go_left = X[rows, feature] <= forest.threshold[node]
        node = np.where(inner, np.where(go_left, forest.left[node], forest.right[node]), node)
        feature = forest.feature[node]
    return forest.value[node].sum(axis=0) / forest.n_trees


@dataclass
class ImputationResult:
    """Completed matrix plus the stopping diagnostics.

    ``iterations_run`` counts full column sweeps; ``delta_history`` holds the
    change statistic after each sweep (the last entry triggered the stop when
    it rose above its predecessor).
    """

    completed: np.ndarray
    iterations_run: int
    final_delta: float
    delta_history: list[float] = field(default_factory=list)


def _delta(new, old, mask) -> float:
    num = float(np.sum((new[mask] - old[mask]) ** 2))
    den = float(np.sum(new[mask] ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def missforest_impute(
    X, config: ForestConfig | None = None, rng: Rng | None = None, max_iter: int = MAX_ITER
) -> ImputationResult:
    """Fill NaN entries of a (rows, features) matrix.

    Observed entries are never modified. Every column needs at least one
    observed value, and at least two columns are required so each imputed
    column has predictors.
    """
    config = config or ForestConfig()
    rng = rng or Rng(0)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X = np.array(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError(f"need a 2-D matrix with >= 2 columns, got shape {X.shape}")
    mask = np.isnan(X)
    fully_missing = np.where(mask.all(axis=0))[0]
    if fully_missing.size:
        raise ValueError(f"columns {fully_missing.tolist()} have no observed entries")
    if not mask.any():
        return ImputationResult(completed=X, iterations_run=0, final_delta=0.0)

    # Initial guess: column means over observed entries.
    work = X.copy()
    col_means = np.nanmean(X, axis=0)
    work[mask] = np.take(col_means, np.where(mask)[1])

    missing_counts = mask.sum(axis=0)
    columns = [int(c) for c in np.argsort(missing_counts, kind="stable") if missing_counts[c] > 0]
    others = {c: np.delete(np.arange(X.shape[1]), c) for c in columns}

    history: list[float] = []
    delta_prev = math.inf
    for iteration in range(1, max_iter + 1):
        previous = work.copy()
        for c in columns:
            obs = ~mask[:, c]
            forest = forest_fit(work[np.ix_(obs, others[c])], X[obs, c], config, rng)
            work[mask[:, c], c] = forest_predict(forest, work[np.ix_(mask[:, c], others[c])])
        delta = _delta(work, previous, mask)
        history.append(delta)
        if delta > delta_prev:
            return ImputationResult(
                completed=previous,
                iterations_run=iteration,
                final_delta=delta,
                delta_history=history,
            )
        if delta == 0.0:
            break
        delta_prev = delta
    return ImputationResult(
        completed=work,
        iterations_run=min(iteration, max_iter),
        final_delta=history[-1],
        delta_history=history,
    )


def _province_matrix(dataset: Dataset, province: str) -> np.ndarray:
    """Climate columns plus cyclical month-of-year features (never missing)."""
    angles = [2.0 * math.pi * (month.month - 1) / 12.0 for month in dataset.months()]
    season = [[math.sin(angle), math.cos(angle)] for angle in angles]
    return np.hstack([dataset.climate[dataset.row(province)], season])


def impute_dataset(
    dataset: Dataset,
    config: ForestConfig | None = None,
    rng: Rng | None = None,
    max_iter: int = MAX_ITER,
) -> tuple[Dataset, dict[str, ImputationResult]]:
    """Impute climate fields province by province.

    Each province gets its own matrix of (temp, rainfall, humidity, month
    sin/cos) and its own child generator ``rng.split(P)[p]``, so provinces
    are independent and the whole pass is deterministic. Only provinces with
    a missing cell are imputed, on a process pool (:func:`parallel.pmap`);
    the results hold those provinces. Population and cases are never touched.
    """
    rng = rng or Rng(0)
    rngs = rng.split(len(dataset.provinces))
    todo = np.flatnonzero(np.isnan(dataset.climate).any(axis=(1, 2)))
    imputed = pmap(
        missforest_impute,
        [_province_matrix(dataset, dataset.provinces[p]) for p in todo],
        repeat(config),
        [rngs[p] for p in todo],
        repeat(max_iter),
    )
    climate = dataset.climate.copy()
    for p, result in zip(todo, imputed):
        missing = np.isnan(climate[p])
        climate[p][missing] = result.completed[:, :3][missing]
    return (
        Dataset(dataset.provinces, dataset.start, climate, dataset.population, dataset.cases),
        {dataset.provinces[p]: result for p, result in zip(todo, imputed)},
    )
