"""Property test: the level-wise forest grower against a recursive CART oracle.

The oracle is the straightforward per-node recursion: sort the node's rows
on each feature, scan every threshold, recurse into both children. It fits
each tree on the bootstrap rows copied out, where the grower under test
keeps them as counts, so the two sum in different orders. They are
compared by partition (in-bag predictions and leaf count), not by node
feature: several features can give the same partition with gains that
differ only in the last digits.

The second reference is the level-wise grower as it was before each level
became one pass over all features: a Python loop over the features, a
``lexsort`` for the best split and a stable ``argsort`` to repartition each
feature's list. It sums in the same order as the grower under test, so the
two must give bit-identical forests and consume the same random draws.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from conftest import fit_tree, walk_tree
from hypothesis import given, settings
from hypothesis import strategies as st

from malaria_forecast.imputation import (
    Forest,
    ForestConfig,
    _province_matrix,
    bootstrap_weights,
    forest_fit,
    forest_predict,
)
from malaria_forecast.synthgen import SynthConfig, generate


@dataclass
class RefNode:
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None


def ref_best_split(X, y, min_leaf):
    """Largest SSE reduction over all features; strict comparisons give the
    tie rule (lowest feature, then lowest threshold)."""
    n = y.shape[0]
    total_sum = y.sum()
    parent_sse = float(np.dot(y, y) - total_sum * total_sum / n)
    best = None  # (reduction, feature, threshold)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        ks = np.arange(min_leaf, n - min_leaf + 1)
        if ks.size == 0:
            continue
        distinct = xs[ks - 1] < xs[ks]
        ks = ks[distinct]
        if ks.size == 0:
            continue
        left_sse = c2[ks - 1] - c1[ks - 1] ** 2 / ks
        right_sum = total_sum - c1[ks - 1]
        right_sse = (c2[-1] - c2[ks - 1]) - right_sum**2 / (n - ks)
        reductions = parent_sse - left_sse - right_sse
        j = int(np.argmax(reductions))
        if reductions[j] > 0 and (best is None or reductions[j] > best[0]):
            k = int(ks[j])
            # The midpoint of two adjacent floats can round up to xs[k]; the
            # lower value then keeps xs[k] on the right.
            mid = (xs[k - 1] + xs[k]) / 2.0
            best = (float(reductions[j]), f, float(mid if mid < xs[k] else xs[k - 1]))
    return best


def ref_grow(X, y, cfg, depth=0):
    node = RefNode(value=float(y.mean()))
    if y.shape[0] < 2 * cfg.min_samples_leaf:
        return node
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return node
    if np.all(y == y[0]):
        return node
    best = ref_best_split(X, y, cfg.min_samples_leaf)
    if best is None:
        return node
    _, node.feature, node.threshold = best
    mask = X[:, node.feature] <= node.threshold
    node.left = ref_grow(X[mask], y[mask], cfg, depth + 1)
    node.right = ref_grow(X[~mask], y[~mask], cfg, depth + 1)
    return node


def ref_predict(root, X):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = root
        while node.left is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def ref_leaves(node):
    return 1 if node.left is None else ref_leaves(node.left) + ref_leaves(node.right)


def tree_leaves(forest, t):
    stack, leaves = [t], 0
    while stack:
        node = stack.pop()
        if forest.feature[node] < 0:
            leaves += 1
        else:
            stack += [forest.left[node], forest.left[node] + 1]
    return leaves


MONTH_GRID = [float(np.sin(2.0 * np.pi * m / 12.0)) for m in range(12)]
COLUMN_VALUES = [
    st.sampled_from(MONTH_GRID),
    st.sampled_from([float(np.cos(2.0 * np.pi * m / 12.0)) for m in range(12)]),
    st.integers(0, 3).map(float),
    st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False),
]


@st.composite
def problems(draw):
    p = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.integers(0, len(COLUMN_VALUES) - 1), min_size=p, max_size=p))
    row = st.tuples(*(COLUMN_VALUES[k] for k in kinds))
    rows = draw(st.lists(row, min_size=2, max_size=20))
    dup = draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
    X = np.array(rows + [rows[i] for i in dup], dtype=np.float64)
    # Continuous targets: exact gain ties between different partitions, which
    # rounding would break differently in the two summation orders, have
    # probability zero.
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(10.0, 3.0, X.shape[0])
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 5)),
        mtry=p,
        min_samples_leaf=draw(st.integers(1, 6)),
        max_depth=draw(st.none() | st.integers(0, 4)),
    )
    return X, y, cfg, draw(st.integers(0, 2**32 - 1))


def assert_same_tree(forest, t, root, X_in):
    np.testing.assert_allclose(walk_tree(forest, t, X_in), ref_predict(root, X_in), rtol=1e-9)
    assert tree_leaves(forest, t) == ref_leaves(root)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_forest_matches_recursive_oracle(problem):
    X, y, cfg, seed = problem
    forest = forest_fit(X, y, cfg, np.random.default_rng(seed))
    rows = np.arange(X.shape[0])
    for t, counts in enumerate(bootstrap_weights(np.random.default_rng(seed), cfg.n_trees, X.shape[0])):
        idx = np.repeat(rows, counts)
        assert_same_tree(forest, t, ref_grow(X[idx], y[idx], cfg), X[idx])
    per_tree = [walk_tree(forest, t, X) for t in range(cfg.n_trees)]
    assert np.array_equal(forest_predict(forest, X), sum(per_tree) / cfg.n_trees)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_tree_matches_recursive_oracle(problem):
    X, y, cfg, seed = problem
    assert_same_tree(fit_tree(X, y, cfg, np.random.default_rng(seed)), 0, ref_grow(X, y, cfg), X)


def levelwise_reference(X, y, weights, cfg, rng):
    """The per-feature level-wise grower: grows one tree per row of the count
    matrix ``weights``, all trees together, one depth level per step."""
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
        levels.append((feature, threshold, left, value))
        if not split.any():
            break
        go = feature[node]
        for f, order in enumerate(lists):
            dest = np.where(go >= 0, slot[node] + (xe[go, order] > threshold[node]), -1)
            lists[f] = order[dest >= 0][np.argsort(dest[dest >= 0], kind="stable")]
        sizes = np.bincount(dest[dest >= 0], minlength=2 * int(split.sum()))
        base += k
    feature, threshold, left, value = (np.concatenate(col) for col in zip(*levels))
    return Forest(feature, threshold, left, value, weights.shape[0], p)


ADJACENT = [1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))]


@st.composite
def exact_problems(draw):
    """Problems with exact gain ties: duplicated rows, a column that repeats
    another, integer targets, and adjacent floats whose midpoint rounds up."""
    p = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.integers(0, len(COLUMN_VALUES)), min_size=p, max_size=p))
    values = COLUMN_VALUES + [st.sampled_from(ADJACENT)]
    rows = draw(st.lists(st.tuples(*(values[k] for k in kinds)), min_size=2, max_size=20))
    dup = draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
    X = np.array(rows + [rows[i] for i in dup], dtype=np.float64)
    if p > 1 and draw(st.booleans()):
        X[:, draw(st.integers(1, p - 1))] = X[:, 0]
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(0, 3), min_size=len(X), max_size=len(X))), dtype=np.float64)
    else:
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(10.0, 3.0, X.shape[0])
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 30)),
        mtry=draw(st.integers(1, p)),
        min_samples_leaf=draw(st.integers(1, 6)),
        max_depth=draw(st.none() | st.integers(0, 4)),
    )
    return X, y, cfg, draw(st.integers(0, 2**32 - 1))


def assert_identical(forest, reference, rng, reference_rng):
    for name in ("feature", "threshold", "left", "value"):
        assert np.array_equal(getattr(forest, name), getattr(reference, name)), name
    assert (forest.n_trees, forest.n_features) == (reference.n_trees, reference.n_features)
    assert rng.uniform(0.0, 1.0) == reference_rng.uniform(0.0, 1.0), "random draws differ"


@settings(max_examples=300, deadline=None)
@given(exact_problems())
def test_forest_is_bit_identical_to_the_levelwise_reference(problem):
    X, y, cfg, seed = problem
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    forest = forest_fit(X, y, cfg, rng)
    weights = bootstrap_weights(reference_rng, cfg.n_trees, X.shape[0])
    assert_identical(forest, levelwise_reference(X, y, weights, cfg, reference_rng), rng, reference_rng)


@settings(max_examples=100, deadline=None)
@given(exact_problems())
def test_tree_is_bit_identical_to_the_levelwise_reference(problem):
    X, y, cfg, seed = problem
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = fit_tree(X, y, cfg, rng)
    weights = np.ones((1, X.shape[0]), dtype=np.intp)
    assert_identical(tree, levelwise_reference(X, y, weights, cfg, reference_rng), rng, reference_rng)


def level_sizes(forest):
    """Nodes per depth level: each level holds two children per inner node
    of the level above."""
    sizes, start = [forest.n_trees], 0
    while inner := int((forest.feature[start : start + sizes[-1]] >= 0).sum()):
        start += sizes[-1]
        sizes.append(2 * inner)
    return sizes


@pytest.mark.parametrize(
    "cfg",
    [ForestConfig(n_trees=20, min_samples_leaf=1), ForestConfig(), ForestConfig(n_trees=25)],
    ids=["leaf1", "default", "trees25"],
)
@pytest.mark.parametrize("column", [0, 1, 2])
def test_forest_with_16_bit_child_keys_is_bit_identical_to_the_levelwise_reference(cfg, column):
    """Each climate column of a real province matrix, fitted on the other
    four as missForest fits it. Grown to single-row leaves, some level holds
    128 or more nodes, so its children need sort keys wider than 8 bits; the
    default and impute-forest settings are the ones the pipeline uses."""
    truth, _ = generate(SynthConfig(seed=5, missing_rate=0.0))
    X = _province_matrix(truth, truth.provinces[0])
    others = np.delete(np.arange(X.shape[1]), column)
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    forest = forest_fit(X[:, others], X[:, column], cfg, rng)
    weights = bootstrap_weights(reference_rng, cfg.n_trees, X.shape[0])
    reference = levelwise_reference(X[:, others], X[:, column], weights, cfg, reference_rng)
    assert_identical(forest, reference, rng, reference_rng)
    if cfg.min_samples_leaf == 1:
        assert max(level_sizes(forest)) >= 128
