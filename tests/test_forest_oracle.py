"""Property test: the level-wise forest grower against a recursive CART oracle.

The oracle is the straightforward per-node recursion: sort the node's rows
on each feature, scan every threshold, recurse into both children. It fits
each tree on the bootstrap rows copied out, where the grower under test
keeps them as counts, so the two sum in different orders. They are
compared by partition (in-bag predictions and leaf count), not by node
feature: several features can give the same partition with gains that
differ only in the last digits.
"""

from dataclasses import dataclass

import numpy as np
from conftest import walk_tree
from hypothesis import given, settings
from hypothesis import strategies as st

from malaria_forecast.core_math import Rng
from malaria_forecast.imputation import ForestConfig, fit_tree, forest_fit, forest_predict


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
            stack += [forest.left[node], forest.right[node]]
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
    forest = forest_fit(X, y, cfg, Rng(seed))
    n = X.shape[0]
    for t, tree_rng in enumerate(Rng(seed).split(cfg.n_trees)):
        idx = tree_rng.integers(0, n, size=n)
        assert_same_tree(forest, t, ref_grow(X[idx], y[idx], cfg), X[idx])
    per_tree = [walk_tree(forest, t, X) for t in range(cfg.n_trees)]
    assert np.array_equal(forest_predict(forest, X), sum(per_tree) / cfg.n_trees)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_tree_matches_recursive_oracle(problem):
    X, y, cfg, seed = problem
    assert_same_tree(fit_tree(X, y, cfg, Rng(seed)), 0, ref_grow(X, y, cfg), X)
