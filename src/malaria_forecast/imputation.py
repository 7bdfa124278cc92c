"""Iterative random-forest imputation of missing climate values.

The imputer follows the missForest recipe for continuous variables: start
from column means, then repeatedly revisit columns in order of ascending
missingness, fitting a random forest on the observed rows (all other columns
as features) and predicting the missing rows. Iteration stops as soon as the
normalized squared change of the imputed entries increases, returning the
matrix from the previous sweep, or after ``ForestConfig.max_iter`` sweeps.

Trees are plain CART regressors: greedy variance-reduction splits with ties
broken by lowest feature index, then lowest threshold. A forest's trees grow
together, one depth level per step, each bootstrap held as row counts, and
are stored as flat node arrays. Each level sums in a fixed order, so the
forests are bit-identical to the per-feature reference grower
(``levelwise_reference`` in the forest oracle tests). All randomness is owned
by an explicit seeded generator: one call draws every tree's bootstrap, and
one call per level draws the feature subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
import numpy as np

from .core_math import AT_LEAST_1, NONE_OR_AT_LEAST_1, check_fields, ruled
from .data_model import CLIMATE_FIELDS, Dataset
from .errors import DataError, ShapeError
from .parallel import pmap

@dataclass(frozen=True)
class ForestConfig:
    """Hyperparameters shared by single trees and forests, and the cap on
    missForest sweeps (``max_iter``).

    ``mtry=None`` resolves to ceil(sqrt(n_features)); ``max_depth=None``
    grows until leaves hold fewer than ``2 * min_samples_leaf`` rows.
    """

    n_trees: int = ruled(100, AT_LEAST_1)
    mtry: int | None = ruled(None, NONE_OR_AT_LEAST_1)
    min_samples_leaf: int = ruled(5, AT_LEAST_1)
    max_depth: int | None = ruled(None, (lambda v: v is None or v >= 0, "must be >= 0"))
    max_iter: int = ruled(10, AT_LEAST_1)

    def __post_init__(self):
        check_fields(self)

    def resolve_mtry(self, n_features: int) -> int:
        if self.mtry is not None:
            return min(self.mtry, n_features)
        return min(n_features, math.ceil(math.sqrt(n_features)))


@dataclass(frozen=True)
class Forest:
    """``n_trees`` CART trees stored as flat node arrays.

    Node ``t`` is the root of tree ``t``, and each level's nodes follow the
    level above. A leaf has ``feature == left == -1`` and predicts ``value``;
    an inner node ``j`` sends a row to its left child ``left[j]`` when
    ``row[feature] <= threshold``, and else to its right child ``left[j] + 1``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    n_trees: int
    n_features: int


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds a NaN or infinite value; forests take finite values only")


def _checked_inputs(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[1] < 1:
        raise ValueError(f"X {X.shape} and y {y.shape} must be (n, p >= 1) and (n,)")
    if X.shape[0] < 1:
        raise ValueError("cannot fit a tree on zero rows")
    _require_finite("X", X)
    _require_finite("y", y)
    return X, y


def _pick_features(draws: np.ndarray, mtry: int) -> np.ndarray:
    """Mark the ``mtry`` smallest draws of each row: each draw's rank by a
    stable argsort, so that among equal draws the lower index comes first."""
    return np.argsort(np.argsort(draws, axis=1, kind="stable"), axis=1, kind="stable") < mtry


def _fit_levelwise(X, y, weights, cfg: ForestConfig, rng: np.random.Generator) -> Forest:
    """Grow one tree per row of the count matrix ``weights`` (trees, rows),
    all trees together, one depth level per step.

    Each in-bag (tree, row) pair is an entry weighted by its count, with its
    x, w and y held once, by entry id. Every feature keeps a list of entry
    ids grouped by open node and sorted by that feature inside each node;
    the lists are the rows of one (p, entries) array. One cumulative sum of
    ``w * (y - node mean)`` along each list scores every threshold of every
    open node; centring keeps the sums small and makes the parent's term of
    the variance reduction zero. A split needs a gain above zero and
    ``min_samples_leaf`` weight on each side; among equal gains the lowest
    feature, then the lowest threshold, wins. Each list sums in the order of
    a loop over the features one at a time, which keeps the forests
    bit-identical to ``levelwise_reference``. One stable sort of every list
    by child node (2 * node, plus 1 for the right side) then opens the next
    level, each child's entries in order. ``rng`` draws each level's feature
    subsets, unless ``mtry`` covers every feature.
    """
    n, p = X.shape
    n_trees = weights.shape[0]
    msl = cfg.min_samples_leaf
    mtry = cfg.resolve_mtry(p)
    tree_of, row_of = np.nonzero(weights)
    m = tree_of.size
    xe = X[row_of].T  # (p, m): entry e's x is column e
    we, ye = weights[tree_of, row_of].astype(np.float64), y[row_of]
    # List f: each tree's entries, the tree's rows taken in order of feature
    # f (ties by row). The keys are unique, so any sort gives this order.
    rank = np.argsort(np.argsort(X, axis=0, kind="stable"), axis=0, kind="stable")
    lists = np.argsort(tree_of * n + rank[row_of].T, axis=1)
    sizes = np.bincount(tree_of, minlength=n_trees)  # entries per open node
    levels = []
    while True:
        k, width = sizes.size, lists.shape[1]
        starts = np.cumsum(sizes) - sizes
        node = np.repeat(np.arange(k), sizes)  # open node at each list position
        xs, ws, ys = xe[np.arange(p)[:, None], lists], we[lists], ye[lists]
        wn = np.bincount(node, ws[0], k)
        value = np.bincount(node, ws[0] * ys[0], k) / wn
        splittable = (wn >= 2 * msl) & (
            np.minimum.reduceat(ys[0], starts) < np.maximum.reduceat(ys[0], starts)
        )
        if cfg.max_depth is not None and len(levels) >= cfg.max_depth:
            splittable[:] = False
        picked = np.repeat(splittable[:, None], p, axis=1)
        if mtry < p and splittable.any():
            draws = rng.uniform(0.0, 1.0, size=(int(splittable.sum()), p))
            picked[splittable] = _pick_features(draws, mtry)
        # Prefix sums of w and of w * (y - node mean) along each list, after
        # a leading zero; ``wsum`` and ``csum`` are the two flattened.
        sums = np.empty((2, p, width + 1))
        sums[..., 0] = 0.0
        sums[0, :, 1:] = ws
        np.subtract(ys, value[node], out=sums[1, :, 1:])
        sums[1, :, 1:] *= ws
        np.cumsum(sums[..., 1:], axis=2, out=sums[..., 1:])
        wsum, csum = sums.reshape(2, -1)
        # Candidate thresholds: the positions whose value is below the next
        # one in the same node, as flat (feature, position) indices ``q``, so
        # in (feature, threshold) order.
        cand = np.repeat(picked.T, sizes, axis=1)
        cand[:, starts + sizes - 1] = False
        cand[:, :-1] &= xs[:, :-1] < xs[:, 1:]
        q = np.flatnonzero(cand)
        f = q // width
        s = node[q - f * width]
        at = q + f + 1  # the sums up to and including the candidate's entry
        lo = f * (width + 1) + starts[s]  # the sums before the node's first entry
        hi = lo + sizes[s]
        wl = wsum[at] - wsum[lo]
        wr = wn[s] - wl
        sl = csum[at] - csum[lo]
        sr = csum[hi] - csum[at]
        gain = sl * sl / wl + sr * sr / wr
        gain[(wl < msl) | (wr < msl) | (gain <= 0)] = -np.inf
        top = np.full(k, -np.inf)
        np.maximum.at(top, s, gain)
        split = top > 0
        hits = np.flatnonzero(gain == top[s])
        first = np.full(k, q.size)  # each node's first candidate with the top gain
        np.minimum.at(first, s[hits], hits)
        below, above = xs.ravel()[q[first[split]]], xs.ravel()[q[first[split]] + 1]
        mid = (below + above) / 2.0  # rounds up to ``above`` when the two are adjacent floats
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        feature[split], threshold[split] = f[first[split]], np.where(mid < above, mid, below)
        levels.append((feature, threshold, value))
        if not split.any():
            break
        # Each entry's side is found once, from list 0. The child key is
        # narrow: numpy's stable sort is a radix sort up to 16 bits.
        keep = split[node]
        node = node[keep]
        entries = lists.compress(keep, axis=1)
        right = np.zeros(m, dtype=bool)
        right[entries[0]] = xe[feature[node], entries[0]] > threshold[node]
        child = (2 * node + right[entries]).astype(np.min_scalar_type(2 * k))
        lists = np.take_along_axis(entries, np.argsort(child, axis=1, kind="stable"), axis=1)
        sizes = np.bincount(child[0], minlength=2 * k)[np.repeat(split, 2)]
    feature, threshold, value = (np.concatenate(col) for col in zip(*levels))
    # Levels list the children of their parents' level in order, so the
    # children of the i-th inner node are nodes n_trees + 2i and n_trees + 2i + 1.
    inner = feature >= 0
    left = np.where(inner, n_trees + 2 * np.cumsum(inner) - 2, -1)
    return Forest(feature, threshold, left, value, n_trees, p)


def bootstrap_weights(rng: np.random.Generator, n_trees: int, n: int) -> np.ndarray:
    """Every tree's bootstrap of ``n`` rows as per-row counts (n_trees, n):
    one draw of all the row indices, counted by one offset bincount."""
    draws = rng.integers(0, n, size=(n_trees, n))
    draws += np.arange(0, n_trees * n, n)[:, None]
    return np.bincount(draws.ravel(), minlength=n_trees * n).reshape(n_trees, n)


def forest_fit(X, y, config: ForestConfig, rng: np.random.Generator) -> Forest:
    """Fit a bootstrap ensemble of ``config.n_trees`` trees.

    ``rng`` first draws every tree's bootstrap with
    :func:`bootstrap_weights`, then the feature subsets of every level of
    every tree, in one call per level.
    """
    X, y = _checked_inputs(X, y)
    weights = bootstrap_weights(rng, config.n_trees, X.shape[0])
    return _fit_levelwise(X, y, weights, config, rng)


def forest_predict(forest: Forest, X) -> np.ndarray:
    """Mean of the member trees' predictions; all trees walk together."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ShapeError(
            f"forest fitted on {forest.n_features} features, got input shape {X.shape}"
        )
    _require_finite("X", X)
    rows = np.arange(X.shape[0])
    node = np.repeat(np.arange(forest.n_trees)[:, None], X.shape[0], axis=1)
    feature = forest.feature[node]
    while (inner := feature >= 0).any():
        go_left = X[rows, feature] <= forest.threshold[node]
        node = np.where(inner, forest.left[node] + ~go_left, node)
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
    delta_history: list[float] = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return len(self.delta_history)


def _delta(new, old, mask) -> float:
    num = float(np.sum((new[mask] - old[mask]) ** 2))
    den = float(np.sum(new[mask] ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def missforest_impute(X, config: ForestConfig, rng: np.random.Generator) -> ImputationResult:
    """Fill NaN entries of a (rows, features) matrix.

    Observed entries are never modified. Every column needs at least one
    observed value, and at least two columns are required so each imputed
    column has predictors.
    """
    X = np.array(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError(f"need a 2-D matrix with >= 2 columns, got shape {X.shape}")
    mask = np.isnan(X)
    fully_missing = np.where(mask.all(axis=0))[0]
    if fully_missing.size:
        raise ValueError(f"columns {fully_missing.tolist()} have no observed entries")
    if not mask.any():
        return ImputationResult(completed=X)

    # Initial guess: column means over observed entries.
    work = X.copy()
    col_means = np.nanmean(X, axis=0)
    work[mask] = np.take(col_means, np.where(mask)[1])

    missing_counts = mask.sum(axis=0)
    columns = [int(c) for c in np.argsort(missing_counts, kind="stable") if missing_counts[c] > 0]
    others = {c: np.delete(np.arange(X.shape[1]), c) for c in columns}

    history: list[float] = []
    delta_prev = math.inf
    for _ in range(config.max_iter):
        previous = work.copy()
        for c in columns:
            obs = ~mask[:, c]
            forest = forest_fit(work[np.ix_(obs, others[c])], X[obs, c], config, rng)
            work[mask[:, c], c] = forest_predict(forest, work[np.ix_(mask[:, c], others[c])])
        delta = _delta(work, previous, mask)
        history.append(delta)
        if delta > delta_prev:
            return ImputationResult(completed=previous, delta_history=history)
        if delta == 0.0:
            break
        delta_prev = delta
    return ImputationResult(completed=work, delta_history=history)


def _province_matrix(dataset: Dataset, province: str) -> np.ndarray:
    """Climate columns plus cyclical month-of-year features (never missing)."""
    angles = [2.0 * math.pi * (month.month - 1) / 12.0 for month in dataset.months()]
    season = [[math.sin(angle), math.cos(angle)] for angle in angles]
    return np.hstack([dataset.climate[dataset.row(province)], season])


def require_observed(dataset: Dataset) -> None:
    """Raise DataError for the first province with a climate column that has
    no observed month, as missForest has nothing to fit it on."""
    blank = np.argwhere(np.isnan(dataset.climate).all(axis=1))
    if blank.size:
        province, column = blank[0]
        raise DataError(
            f"{dataset.provinces[province]}: {CLIMATE_FIELDS[column]} has no observed month;"
            " cannot impute"
        )


def impute_dataset(
    dataset: Dataset, config: ForestConfig, rng: np.random.Generator
) -> tuple[Dataset, dict[str, ImputationResult]]:
    """Impute climate fields province by province.

    Each province gets its own matrix of (temp, rainfall, humidity, month
    sin/cos) and its own child generator ``rng.spawn(P)[p]``, so provinces
    are independent and the whole pass is deterministic. Only provinces with
    a missing cell are imputed, on a process pool (:func:`parallel.pmap`);
    the results hold those provinces. Population and cases are never touched.
    Every province is checked with :func:`require_observed` first.
    """
    require_observed(dataset)
    rngs = rng.spawn(len(dataset.provinces))
    todo = np.flatnonzero(np.isnan(dataset.climate).any(axis=(1, 2)))
    imputed = pmap(
        missforest_impute,
        [_province_matrix(dataset, dataset.provinces[p]) for p in todo],
        repeat(config),
        [rngs[p] for p in todo],
    )
    climate = dataset.climate.copy()
    for p, result in zip(todo, imputed):
        missing = np.isnan(climate[p])
        climate[p][missing] = result.completed[:, :3][missing]
    return (
        Dataset(dataset.provinces, dataset.start, climate, dataset.population, dataset.cases),
        {dataset.provinces[p]: result for p, result in zip(todo, imputed)},
    )
