import math

import numpy as np
import pytest

from hardshap.dataset import Dataset
from hardshap.sim import (
    BlobConfig,
    gen_blobs,
    gen_toy_mixture,
    toy_1nn_shapleys,
    toy_expected_shapley,
    toy_interval_table,
)
from hardshap.valuation import exact_data_shapley, knn_shapley, rank_by_hardness

# 8-row reference for the movable point at 0, in table order: one row per
# (interval, y_test), triples are (s_-1, s_movable, s_+1)
TOY_TABLE = [
    (-np.inf, -0.5, 0, (1 / 2, 1 / 2, 0.0)),
    (-np.inf, -0.5, 1, (-1 / 6, -1 / 6, 1 / 3)),
    (-0.5, 0.0, 0, (1 / 2, 1 / 2, 0.0)),
    (-0.5, 0.0, 1, (-1 / 6, -1 / 6, 1 / 3)),
    (0.0, 0.5, 0, (1 / 3, 5 / 6, -1 / 6)),
    (0.0, 0.5, 1, (0.0, -1 / 2, 1 / 2)),
    (0.5, np.inf, 0, (1 / 3, 1 / 3, -2 / 3)),
    (0.5, np.inf, 1, (0.0, 0.0, 1.0)),
]


def closed_form_expected_shapley(x_train):
    """Exact E[s_movable] from coalition enumeration and the normal CDF.

    The movable point's 1NN value is constant on each interval of the
    table, so the expectation is 1/2 * sum of s * (Phi(hi - mu_y) - Phi(lo - mu_y)).
    """
    train = Dataset([[-1.0], [float(x_train)], [1.0]], [0, 0, 1], ("x1",), [0, 1, 2])

    def cdf(z, mean):
        return 0.5 * (1.0 + math.erf((z - mean) / math.sqrt(2.0)))

    total = 0.0
    for lo, hi, y, _ in toy_interval_table(x_train):
        if math.isinf(lo):
            inside = hi - 1.0
        elif math.isinf(hi):
            inside = lo + 1.0
        else:
            inside = (lo + hi) / 2.0
        test = Dataset([[inside]], [y], ("x1",), [0])
        s = exact_data_shapley(train, test, k=1).scores[1]
        mean = 2.0 * y - 1.0
        total += 0.5 * s * (cdf(hi, mean) - cdf(lo, mean))
    return total


class TestToyShapleys:
    def test_paper_rows(self):
        assert toy_1nn_shapleys(0.0, 0.25, 0) == pytest.approx((1 / 3, 5 / 6, -1 / 6), abs=1e-15)
        assert toy_1nn_shapleys(0.0, 3.0, 1) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
        assert toy_1nn_shapleys(0.0, -3.0, 0) == pytest.approx((1 / 2, 1 / 2, 0.0), abs=1e-15)

    def test_full_interval_table(self):
        rows = toy_interval_table(0.0)
        assert len(rows) == 8
        for (lo, hi, y, triple), (exp_lo, exp_hi, exp_y, expected) in zip(rows, TOY_TABLE):
            assert (lo, hi, y) == (exp_lo, exp_hi, exp_y)
            assert np.abs(np.array(triple) - np.array(expected)).max() <= 1e-12

    def test_efficiency_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x_train = float(rng.uniform(-3, 3))
            x_test = float(rng.uniform(-4, 4))
            y = int(rng.integers(0, 2))
            triple = toy_1nn_shapleys(x_train, x_test, y)
            positions = np.array([-1.0, x_train, 1.0])
            labels = np.array([0, 0, 1])
            dist = np.abs(positions - x_test)
            nearest = np.lexsort((np.arange(3), dist))[0]
            assert sum(triple) == pytest.approx(float(labels[nearest] == y), abs=1e-12)


class TestExpectedShapley:
    def test_reference_value_at_zero(self):
        assert toy_expected_shapley(0.0) == pytest.approx(0.209, abs=2e-3)

    def test_quadrature_converges(self):
        base = toy_expected_shapley(0.0)
        refined = toy_expected_shapley(0.0, (-8.0, 8.0, 5e-4))
        assert abs(base - refined) < 1e-4

    def test_duplicate_prototype_scores_higher(self):
        assert toy_expected_shapley(-1.0) > toy_expected_shapley(0.0)

    def test_sweep_values_frozen(self):
        # quadrature oracle output across the sweep; the curve dips at the
        # opposite prototype and then recovers toward its 1/6 asymptote
        expected = {-1.0: 0.22356, 0.0: 0.20902, 1.0: 0.05289, 2.0: 0.09104, 3.0: 0.12731}
        for x, value in expected.items():
            assert toy_expected_shapley(x) == pytest.approx(value, abs=5e-4)

    def test_quadrature_matches_closed_form(self):
        for x in (-1.0, 0.0, 1.0, 2.0, 3.0):
            assert toy_expected_shapley(x) == pytest.approx(
                closed_form_expected_shapley(x), abs=1e-4
            )

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError, match="tail mass"):
            toy_expected_shapley(0.0, (-3.0, 3.0, 1e-3))


class TestBlobs:
    def test_zero_covariance_collapses_to_means(self):
        cfg = BlobConfig(cov_scale=0.0, n_train=40, n_valid=8, n_test=8, seed=1)
        train, _, _ = gen_blobs(cfg)
        allowed = {(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0), (2.0, -2.0)}
        assert {tuple(row) for row in train.features} <= allowed

    def test_label_prevalence_balanced(self):
        cfg = BlobConfig(n_train=4000, n_valid=10, n_test=10, seed=2)
        train, _, _ = gen_blobs(cfg)
        n = train.n
        assert abs(train.labels.mean() - 0.5) <= 3 * np.sqrt(n) / (2 * n)

    def test_default_sizes(self):
        train, valid, test = gen_blobs(BlobConfig(seed=3))
        assert (train.n, valid.n, test.n) == (5000, 2500, 2500)

    def test_seed_determinism(self):
        a, _, _ = gen_blobs(BlobConfig(n_train=50, n_valid=5, n_test=5, seed=9))
        b, _, _ = gen_blobs(BlobConfig(n_train=50, n_valid=5, n_test=5, seed=9))
        assert np.array_equal(a.features, b.features)

    def test_component_label_validation(self):
        with pytest.raises(ValueError, match="two components"):
            BlobConfig(component_labels=(0, 1, 1, 1))

    @pytest.mark.parametrize("scale", [-1.0, np.nan])
    def test_rejects_a_negative_or_nan_covariance_scale(self, scale):
        with pytest.raises(ValueError, match="covariance scale must be nonnegative"):
            BlobConfig(cov_scale=scale)

    def test_hardest_points_hug_the_boundary(self):
        train, _, test = gen_blobs(BlobConfig(seed=0))
        scores = knn_shapley(train, test, 5)
        order = rank_by_hardness(scores)
        hardest = train.take(train.positions_of(order[: train.n // 20]))
        # XOR blobs: the class boundary is the pair of axes
        def axis_distance(ds):
            return np.abs(ds.features).min(axis=1).mean()
        assert axis_distance(hardest) < axis_distance(train)


class TestToyMixture:
    def test_reproducible(self):
        a = gen_toy_mixture(100, seed=4)
        b = gen_toy_mixture(100, seed=4)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means(self):
        ds = gen_toy_mixture(4000, seed=5)
        bound = 4 / np.sqrt(ds.n)
        assert abs(ds.features[ds.labels == 0].mean() + 1.0) < bound * 3
        assert abs(ds.features[ds.labels == 1].mean() - 1.0) < bound * 3

    def test_prevalence(self):
        ds = gen_toy_mixture(4000, seed=6)
        assert abs(ds.labels.mean() - 0.5) <= 3 / (2 * np.sqrt(ds.n))

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 2"):
            gen_toy_mixture(1, seed=0)
