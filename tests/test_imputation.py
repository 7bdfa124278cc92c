import numpy as np
import pytest
from conftest import fit_tree, same_dataset, walk_tree
from hypothesis import given, settings
from hypothesis import strategies as st

from malaria_forecast.errors import DataError, ShapeError
from malaria_forecast.data_model import Dataset
from malaria_forecast.imputation import (
    ForestConfig,
    _delta,
    _pick_features,
    _province_matrix,
    bootstrap_weights,
    forest_fit,
    forest_predict,
    impute_dataset,
    missforest_impute,
)
from malaria_forecast.parallel import pmap
from malaria_forecast.synthgen import SynthConfig, generate


def exhaustive_best_split(X, y, min_leaf):
    """Independent oracle: try every (feature, midpoint) split directly."""
    n = X.shape[0]
    parent = float(np.sum((y - y.mean()) ** 2))
    best = None  # (reduction, feature, threshold)
    for f in range(X.shape[1]):
        values = np.sort(np.unique(X[:, f]))
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            reduction = parent - float(np.sum((left - left.mean()) ** 2)) - float(
                np.sum((right - right.mean()) ** 2)
            )
            if best is None or reduction > best[0] + 1e-12:
                best = (reduction, f, thr)
    return best


class TestFitTree:
    def test_constant_target_single_leaf(self):
        X = np.arange(12.0).reshape(6, 2)
        tree = fit_tree(X, np.full(6, 3.5), ForestConfig(min_samples_leaf=1), np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert np.all(forest_predict(tree, X) == 3.5)
        # 0.1 + 0.1 + 0.1 != 0.3: the rounded node mean must not make a split.
        tree = fit_tree(X[:3], np.full(3, 0.1), ForestConfig(min_samples_leaf=1), np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]

    def test_zero_gain_split_not_taken(self):
        # The only admissible split leaves both sides with the parent's mean.
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([1.0, 2.0, 1.0, 2.0])
        tree = fit_tree(X, y, ForestConfig(min_samples_leaf=1), np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]

    def test_threshold_between_adjacent_floats_keeps_upper_row_right(self):
        # (lo + hi) / 2 rounds up to hi here; the threshold falls back to lo.
        X = np.array([[50.0], [49.99999999999999]])
        assert X[1, 0] == np.nextafter(50.0, 0.0) and (X[0, 0] + X[1, 0]) / 2 == 50.0
        y = np.array([1.0, 0.0])
        tree = fit_tree(X, y, ForestConfig(min_samples_leaf=1), np.random.default_rng(0))
        assert tree.threshold[0] == X[1, 0]
        assert np.array_equal(forest_predict(tree, X), y)

    def test_separable_step_function_matches_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            X = rng.uniform(-1, 1, size=(40, 3))
            y = (X[:, 0] > 0).astype(float)
            cfg = ForestConfig(min_samples_leaf=1, mtry=3)
            tree = fit_tree(X, y, cfg, np.random.default_rng(trial))
            assert np.array_equal(forest_predict(tree, X), y), "training predictions must be exact"
            oracle = exhaustive_best_split(X, y, 1)
            assert tree.feature[0] == oracle[1]
            assert tree.threshold[0] == pytest.approx(oracle[2], abs=1e-12)

    def test_random_data_split_matches_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            X = rng.uniform(0, 10, size=(30, 4))
            y = rng.uniform(-5, 5, size=30)
            cfg = ForestConfig(min_samples_leaf=5, mtry=4, max_depth=1)
            tree = fit_tree(X, y, cfg, np.random.default_rng(trial))
            oracle = exhaustive_best_split(X, y, 5)
            assert tree.feature[0] == oracle[1]
            assert tree.threshold[0] == pytest.approx(oracle[2], abs=1e-9)

    def test_min_samples_leaf_equal_rows_gives_mean_leaf(self):
        X = np.arange(10.0).reshape(5, 2)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        tree = fit_tree(X, y, ForestConfig(min_samples_leaf=5), np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == y.mean()

    def test_feature_tie_prefers_lowest_index(self):
        # Identical columns produce identical reductions; index 0 must win.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y, ForestConfig(min_samples_leaf=1, mtry=2), np.random.default_rng(0))
        assert tree.feature[0] == 0

    def test_threshold_tie_prefers_lowest(self):
        # Splits at 1.5 and 3.5 reduce SSE equally; the lower one must win.
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([2.0, 1.0, 1.0, 2.0])
        tree = fit_tree(X, y, ForestConfig(min_samples_leaf=1), np.random.default_rng(0))
        assert tree.threshold[0] == 1.5

    def test_max_depth_zero_forces_leaf(self):
        X = np.arange(8.0).reshape(4, 2)
        y = np.array([0.0, 1.0, 2.0, 3.0])
        tree = fit_tree(X, y, ForestConfig(min_samples_leaf=1, max_depth=0), np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), ForestConfig(), np.random.default_rng(0))
        for fit in (fit_tree, forest_fit):  # no feature column
            with pytest.raises(ValueError, match=r"^X \(5, 0\) and y \(5,\) must be"):
                fit(np.zeros((5, 0)), np.arange(5.0), ForestConfig(n_trees=2), np.random.default_rng(0))

    def test_predict_width_checked(self):
        tree = fit_tree(np.zeros((3, 2)), np.zeros(3), ForestConfig(), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forest_predict(tree, np.zeros((2, 3)))

    @pytest.mark.parametrize("fit", [fit_tree, forest_fit])
    @pytest.mark.parametrize("name", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fit_input_rejected(self, fit, name, bad):
        X, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
        (X if name == "X" else y).flat[3] = bad
        with pytest.raises(ValueError, match=f"^{name} holds a NaN or infinite value"):
            fit(X, y, ForestConfig(n_trees=2, min_samples_leaf=1), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predict_input_rejected(self, bad):
        X = np.arange(12.0).reshape(6, 2)
        tree = fit_tree(X, np.arange(6.0), ForestConfig(min_samples_leaf=1), np.random.default_rng(0))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="^X holds a NaN or infinite value"):
            forest_predict(tree, X)


class TestForest:
    def test_single_tree_forest_equals_its_tree(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(30, 3))
        y = rng.uniform(0, 1, size=30)
        forest = forest_fit(X, y, ForestConfig(n_trees=1, min_samples_leaf=2), np.random.default_rng(7))
        assert np.array_equal(forest_predict(forest, X), walk_tree(forest, 0, X))

    def test_constant_target(self):
        X = np.arange(20.0).reshape(10, 2)
        forest = forest_fit(X, np.full(10, 2.5), ForestConfig(n_trees=5), np.random.default_rng(0))
        assert np.all(forest_predict(forest, X) == 2.5)

    def test_forest_beats_single_tree_on_training_mse(self):
        # Empirical oracle: 20-seed median of training MSE, noisy linear data.
        diffs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-1, 1, size=(80, 3))
            y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + rng.normal(0.0, 0.5, size=80)
            cfg = ForestConfig(n_trees=30)
            tree = fit_tree(X, y, cfg, np.random.default_rng(seed + 1000))
            forest = forest_fit(X, y, cfg, np.random.default_rng(seed + 2000))
            mse_tree = float(np.mean((forest_predict(tree, X) - y) ** 2))
            mse_forest = float(np.mean((forest_predict(forest, X) - y) ** 2))
            diffs.append(mse_forest - mse_tree)
        assert float(np.median(diffs)) <= 0.0

    def test_deterministic_given_seed(self):
        X = np.random.default_rng(1).uniform(0, 1, size=(40, 3))
        y = np.random.default_rng(2).uniform(0, 1, size=40)
        a = forest_predict(forest_fit(X, y, ForestConfig(n_trees=8), np.random.default_rng(5)), X)
        b = forest_predict(forest_fit(X, y, ForestConfig(n_trees=8), np.random.default_rng(5)), X)
        assert np.array_equal(a, b)

    def test_width_mismatch(self):
        forest = forest_fit(np.zeros((4, 2)), np.zeros(4), ForestConfig(n_trees=1), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forest_predict(forest, np.zeros((2, 5)))


def double_argsort_pick(draws, mtry):
    """The pick by ranks: each row's stable argsort, ranked again."""
    return np.argsort(np.argsort(draws, axis=1, kind="stable"), axis=1) < mtry


@st.composite
def feature_draws(draw):
    p = draw(st.integers(2, 8))
    mtry = draw(st.sampled_from([1, p - 1, draw(st.integers(1, p - 1))]))
    # A few distinct values, so that most rows hold ties.
    value = st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_max=True)
    rows = draw(st.lists(st.lists(value, min_size=p, max_size=p), min_size=1, max_size=6))
    return np.array(rows), mtry


class TestFeatureSubsets:
    @pytest.mark.parametrize(
        "rows, mtry, picked",
        [
            ([[0.5, 0.5, 0.5, 0.5]], 2, [[1, 1, 0, 0]]),
            ([[0.9, 0.2, 0.2, 0.1]], 2, [[0, 1, 0, 1]]),
            ([[0.9, 0.2, 0.2, 0.1]], 3, [[0, 1, 1, 1]]),
            ([[0.3, 0.1, 0.3, 0.3, 0.0]], 3, [[1, 1, 0, 0, 1]]),
            ([[0.3, 0.1, 0.3, 0.3, 0.0]], 4, [[1, 1, 1, 0, 1]]),
            ([[0.7, 0.7, 0.1]], 1, [[0, 0, 1]]),
            ([[0.1, 0.7, 0.7]], 2, [[1, 1, 0]]),
            # One row ties at its mtry-th draw, the other does not.
            ([[0.4, 0.3, 0.2, 0.1], [0.6, 0.2, 0.6, 0.6]], 2, [[0, 0, 1, 1], [1, 1, 0, 0]]),
        ],
    )
    def test_ties_go_to_the_lower_feature(self, rows, mtry, picked):
        draws = np.array(rows)
        assert _pick_features(draws, mtry).astype(int).tolist() == picked
        assert np.array_equal(_pick_features(draws, mtry), double_argsort_pick(draws, mtry))

    @settings(max_examples=300, deadline=None)
    @given(feature_draws())
    def test_equals_the_double_argsort_pick(self, problem):
        draws, mtry = problem
        picked = _pick_features(draws, mtry)
        assert np.array_equal(picked, double_argsort_pick(draws, mtry))
        assert (picked.sum(axis=1) == mtry).all()


class TestBootstrapWeights:
    def test_each_row_counts_its_trees_draw(self):
        weights = bootstrap_weights(np.random.default_rng(11), 6, 9)
        draws = np.random.default_rng(11).integers(0, 9, size=(6, 9))
        assert weights.shape == (6, 9)
        for counts, rows in zip(weights, draws):
            assert np.array_equal(counts, np.bincount(rows, minlength=9))


def masked_climate_matrix(seed, months=60, missing=0.1):
    cfg = SynthConfig(
        seed=seed,
        months=months,
        provinces=("Alpha",),
        missing_rate=missing,
        climate_noise=1.0,
        case_noise=1.0,
    )
    truth, masked = generate(cfg)
    return (
        _province_matrix(truth, "Alpha"),
        _province_matrix(masked, "Alpha"),
    )


def nrmse(truth, imputed, mask):
    err = truth[mask] - imputed[mask]
    return float(np.sqrt(np.mean(err**2) / np.var(truth[mask])))


class TestMissForest:
    def test_zero_missing_returns_unchanged(self):
        X = np.random.default_rng(0).uniform(0, 1, size=(10, 3))
        result = missforest_impute(X, ForestConfig(n_trees=2), np.random.default_rng(1))
        assert result.iterations_run == 0
        assert result.delta_history == []
        assert np.array_equal(result.completed, X)

    def test_constant_column_imputes_constant(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [np.nan, 3.0], [5.0, 4.0]])
        result = missforest_impute(X, ForestConfig(n_trees=5, min_samples_leaf=1), np.random.default_rng(3))
        assert result.completed[2, 0] == 5.0

    def test_observed_entries_bit_identical(self):
        _, Xm = masked_climate_matrix(seed=1)
        mask = np.isnan(Xm)
        result = missforest_impute(Xm, ForestConfig(n_trees=10), np.random.default_rng(2))
        assert np.array_equal(result.completed[~mask], Xm[~mask])

    def test_output_complete_and_finite(self):
        _, Xm = masked_climate_matrix(seed=2)
        result = missforest_impute(Xm, ForestConfig(n_trees=10), np.random.default_rng(2))
        assert np.all(np.isfinite(result.completed))

    def test_deterministic(self):
        _, Xm = masked_climate_matrix(seed=3)
        a = missforest_impute(Xm, ForestConfig(n_trees=8), np.random.default_rng(9))
        b = missforest_impute(Xm, ForestConfig(n_trees=8), np.random.default_rng(9))
        assert np.array_equal(a.completed, b.completed)
        assert a.delta_history == b.delta_history

    def test_delta_is_infinite_when_every_imputed_cell_became_zero(self):
        mask = np.array([[True, False], [False, True], [True, True]])
        old = np.array([[2.0, 5.0], [7.0, -3.0], [0.5, 1e-300]])
        new = np.where(mask, 0.0, old)
        assert _delta(new, old, mask) == np.inf
        assert _delta(new, new, mask) == 0.0

    def test_delta_history_nonnegative(self):
        _, Xm = masked_climate_matrix(seed=4)
        result = missforest_impute(Xm, ForestConfig(n_trees=8), np.random.default_rng(4))
        assert all(d >= 0.0 for d in result.delta_history)
        assert result.iterations_run >= 1

    def test_beats_mean_imputation(self):
        # Ground-truth oracle: synthetic data with retained truth, 8 seeds here
        # (the full 20-trial version runs in the acceptance suite).
        wins = 0
        for seed in range(8):
            Xt, Xm = masked_climate_matrix(seed=100 + seed)
            mask = np.isnan(Xm)
            result = missforest_impute(Xm, ForestConfig(n_trees=25), np.random.default_rng(seed))
            Xmean = Xm.copy()
            mu = np.nanmean(Xm, axis=0)
            Xmean[mask] = np.take(mu, np.where(mask)[1])
            wins += nrmse(Xt, result.completed, mask) < nrmse(Xt, Xmean, mask)
        assert wins >= 7

    def test_fully_missing_column_rejected(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="no observed"):
            missforest_impute(X, ForestConfig(n_trees=1), np.random.default_rng(0))

    def test_max_iter_validated(self):
        with pytest.raises(ValueError, match="max_iter"):
            missforest_impute(np.zeros((3, 2)), ForestConfig(n_trees=1, max_iter=0), np.random.default_rng(0))

    def test_needs_two_columns(self):
        with pytest.raises(ValueError, match="2 columns"):
            missforest_impute(np.zeros((3, 1)), ForestConfig(n_trees=1), np.random.default_rng(0))


class TestImputeDataset:
    def make_masked_dataset(self):
        cfg = SynthConfig(seed=6, months=40, missing_rate=0.15, provinces=("Alpha", "Beta"))
        return generate(cfg)

    def test_fills_everything_and_keeps_observed(self):
        _, masked = self.make_masked_dataset()
        completed, results = impute_dataset(masked, ForestConfig(n_trees=8), np.random.default_rng(0))
        assert not np.isnan(completed.climate).any()
        assert np.array_equal(completed.population, masked.population)
        assert np.array_equal(completed.cases, masked.cases)
        observed = ~np.isnan(masked.climate)
        assert np.array_equal(completed.climate[observed], masked.climate[observed])
        assert set(results) == {"Alpha", "Beta"}

    def test_deterministic(self):
        _, masked = self.make_masked_dataset()
        a, _ = impute_dataset(masked, ForestConfig(n_trees=6), np.random.default_rng(1))
        b, _ = impute_dataset(masked, ForestConfig(n_trees=6), np.random.default_rng(1))
        assert same_dataset(a, b)

    def test_maps_only_provinces_with_a_missing_cell(self, monkeypatch):
        # Alpha and Gamma miss a cell, Beta does not; each imputed province
        # keeps the child generator of its index, so the fills equal those
        # of a full three-province pass.
        from malaria_forecast import imputation

        truth, masked = generate(
            SynthConfig(seed=6, months=40, missing_rate=0.15, provinces=("Alpha", "Beta", "Gamma"))
        )
        rows = [masked.climate[0], truth.climate[1], masked.climate[2]]
        mixed = Dataset(masked.provinces, masked.start, rows, masked.population, masked.cases)
        calls = []

        def recording_pmap(fn, matrices, *rest):
            matrices = list(matrices)
            calls.append([p for p in mixed.provinces
                          if any(np.array_equal(m, _province_matrix(mixed, p), equal_nan=True) for m in matrices)])
            return pmap(fn, matrices, *rest)

        full, _ = impute_dataset(masked, ForestConfig(n_trees=4, max_iter=3), np.random.default_rng(2))
        monkeypatch.setattr(imputation, "pmap", recording_pmap)
        completed, results = impute_dataset(mixed, ForestConfig(n_trees=4, max_iter=3), np.random.default_rng(2))
        assert calls == [["Alpha", "Gamma"]]
        assert set(results) == {"Alpha", "Gamma"}
        assert np.array_equal(completed.climate[[0, 2]], full.climate[[0, 2]])
        assert np.array_equal(completed.climate[1], truth.climate[1])

        impute_dataset(truth, ForestConfig(n_trees=4), np.random.default_rng(2))
        assert calls[1:] == [[]]

    def test_column_with_no_observed_month_is_named(self, monkeypatch):
        from malaria_forecast import imputation

        _, masked = self.make_masked_dataset()
        climate = masked.climate.copy()
        climate[1, :, 2] = np.nan
        climate[1, :, 0] = np.nan
        blank = Dataset(masked.provinces, masked.start, climate, masked.population, masked.cases)
        monkeypatch.setattr(imputation, "pmap", lambda *args: pytest.fail("imputed before the check"))
        with pytest.raises(DataError, match="^Beta: temp_mean has no observed month; cannot impute$"):
            impute_dataset(blank, ForestConfig(n_trees=2), np.random.default_rng(0))
