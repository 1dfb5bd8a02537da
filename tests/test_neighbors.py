import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hardshap.neighbors import k_nearest, rank_all, smallest_k, stable_order


def _stable(dist):
    return np.argsort(dist, axis=-1, kind="stable")


@st.composite
def distance_blocks(draw):
    """Small integer grids (heavy ties), some duplicated rows, some inf entries."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 12))
    high = draw(st.integers(0, 4))
    grid = draw(arrays(np.int64, (n_rows, n_cols), elements=st.integers(0, high)))
    dist = grid.astype(np.float64)
    if draw(st.booleans()):
        dist[draw(st.integers(0, n_rows - 1))] = dist[0]
    inf_mask = draw(arrays(np.bool_, (n_rows, n_cols)))
    if draw(st.booleans()):
        dist[inf_mask] = np.inf
    return dist


class TestSmallestK:
    @settings(max_examples=300, deadline=None)
    @given(distance_blocks(), st.data())
    def test_equals_stable_argsort_prefix(self, dist, data):
        n = dist.shape[1]
        k = data.draw(st.sampled_from(sorted({1, max(n - 1, 1), n})) | st.integers(1, n))
        assert np.array_equal(smallest_k(dist, k), _stable(dist)[:, :k])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40))
    def test_continuous_distances(self, seed, k):
        rng = np.random.default_rng(seed)
        dist = rng.random((7, 40))
        dist[:, rng.integers(0, 40, size=5)] = dist[:, :1]  # some exact ties
        assert np.array_equal(smallest_k(dist, k), _stable(dist)[:, :k])

    def test_tie_at_the_cut_keeps_lowest_columns(self):
        dist = np.array([[3.0, 1.0, 2.0, 1.0, 2.0, 2.0, 0.0]])
        assert smallest_k(dist, 4).tolist() == [[6, 1, 3, 2]]


class TestStableOrder:
    @settings(max_examples=300, deadline=None)
    @given(distance_blocks())
    def test_equals_stable_argsort(self, dist):
        assert np.array_equal(stable_order(dist), _stable(dist))

    @settings(max_examples=200, deadline=None)
    @given(distance_blocks())
    def test_single_row(self, dist):
        assert np.array_equal(stable_order(dist[0]), _stable(dist[0]))


class TestKNearest:
    def test_matches_ranking_across_chunks(self):
        rng = np.random.default_rng(3)
        train = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        query = rng.integers(0, 3, size=(600, 2)).astype(np.float64)  # > one chunk
        expected = rank_all(train, query)[:, :7]
        assert np.array_equal(k_nearest(train, query, 7), expected)

    def test_k_range_checked(self):
        train = np.zeros((4, 1))
        for k in (0, 5):
            with pytest.raises(ValueError, match="out of range"):
                k_nearest(train, train, k)
