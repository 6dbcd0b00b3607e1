"""Unit tests for the incremental sufficient-statistics layer."""

import numpy as np
import pytest

from repro.stats.dataset import Dataset
from repro.stats.independence import FisherZTest, _partial_correlation
from repro.stats.sufficient import SufficientStats


@pytest.fixture
def data() -> Dataset:
    rng = np.random.default_rng(3)
    n = 200
    z = rng.normal(size=n)
    x = 1.5 * z + rng.normal(scale=0.4, size=n)
    y = -2.0 * z + rng.normal(scale=0.4, size=n)
    w = rng.normal(size=n)
    return Dataset(["x", "y", "z", "w"], np.column_stack([x, y, z, w]))


def test_moments_match_numpy(data):
    stats = SufficientStats(data)
    np.testing.assert_allclose(stats.means(), data.values.mean(axis=0))
    np.testing.assert_allclose(stats.covariance(),
                               np.cov(data.values, rowvar=False, ddof=0),
                               atol=1e-10)


def test_partial_correlation_matches_regression_residuals(data):
    stats = SufficientStats(data)
    for i, j, cond in [(0, 1, []), (0, 1, [2]), (0, 3, [2]), (1, 3, [0, 2])]:
        expected = _partial_correlation(data.values, i, j, cond)
        assert stats.partial_correlation(i, j, cond) == pytest.approx(
            expected, abs=1e-10)


def test_batch_partial_correlations_match_singles(data):
    stats = SufficientStats(data)
    pairs = [(0, 1, [2]), (0, 3, [2]), (1, 3, [2]), (0, 1, []), (1, 3, [])]
    for size in (0, 1):
        chosen = [t for t in pairs if len(t[2]) == size]
        batch = stats.partial_correlation_array(
            np.array([t[0] for t in chosen]), np.array([t[1] for t in chosen]),
            np.array([t[2] for t in chosen], dtype=np.intp).reshape(
                len(chosen), size))
        for (i, j, cond), r in zip(chosen, batch):
            assert r == stats.partial_correlation(i, j, cond)
            assert r == pytest.approx(
                _partial_correlation(data.values, i, j, cond), abs=1e-10)


def test_incremental_append_matches_fresh_stats(data):
    stats = SufficientStats(data)
    stats.covariance()  # force a sync at the initial epoch
    rng = np.random.default_rng(9)
    rows = [{"x": float(rng.normal()), "y": float(rng.normal()),
             "z": float(rng.normal()), "w": float(rng.normal())}
            for _ in range(25)]
    data.append_rows_inplace(rows)
    fresh = SufficientStats(data)
    np.testing.assert_allclose(stats.covariance(), fresh.covariance(),
                               atol=1e-10)
    assert stats.n_rows == fresh.n_rows == 225


def test_codes_and_cardinality_refresh_on_epoch_bump(data):
    stats = SufficientStats(data)
    before = stats.codes("x", bins=4)
    assert stats.codes("x", bins=4) is before  # cached within the epoch
    card = stats.cardinality("x")
    data.append_rows_inplace([{"x": 99.0, "y": 0.0, "z": 0.0, "w": 0.0}])
    after = stats.codes("x", bins=4)
    assert after is not before
    assert len(after) == len(before) + 1
    assert stats.cardinality("x") == card + 1


def test_constant_column_yields_zero_correlation():
    values = np.column_stack([np.ones(50), np.arange(50.0)])
    stats = SufficientStats(Dataset(["c", "t"], values))
    assert stats.partial_correlation(0, 1) == 0.0


def test_large_magnitude_columns_keep_precision():
    """Shifted accumulation avoids the cross/n - mean^2 cancellation."""
    rng = np.random.default_rng(4)
    n = 400
    base = rng.normal(size=n)
    x = 3e7 + base + rng.normal(scale=0.3, size=n)
    y = 6e10 + 2e3 * base + rng.normal(scale=500.0, size=n)
    data = Dataset(["x", "y"], np.column_stack([x, y]))
    stats = SufficientStats(data)
    expected = float(np.corrcoef(x, y)[0, 1])
    assert stats.correlation(0, 1) == pytest.approx(expected, abs=1e-6)
    assert abs(stats.correlation(0, 1)) > 0.5


def test_fisher_test_tracks_inplace_appends():
    rng = np.random.default_rng(0)
    n = 150
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    data = Dataset(["x", "y"], np.column_stack([x, y]))
    test = FisherZTest(data)
    assert test.test("x", "y").independent
    # Append strongly coupled rows; the same test object must see them.
    t = rng.normal(size=300)
    data.append_rows_inplace([{"x": float(v), "y": float(v)} for v in t])
    assert not test.test("x", "y").independent
