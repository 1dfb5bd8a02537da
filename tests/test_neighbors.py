import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from hardshap import neighbors
from hardshap.neighbors import k_nearest, rank_all, smallest_k, stable_order
from hardshap.sim import BlobConfig, gen_blobs


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


def _column_bits(n_cols):
    return max(n_cols - 1, 0).bit_length()


def _nudged(base, offsets):
    """base with small integers added to its uint64 view: distances apart only in low bits."""
    return (np.broadcast_to(base, offsets.shape).astype(np.float64).view(np.uint64)
            + offsets.astype(np.uint64)).view(np.float64)


@st.composite
def near_tie_blocks(draw):
    """Distances that differ only in the low ceil(log2 n) bits the sort keys replace.

    Offsets span a little more than those bits, so some pairs also differ
    above them. Exact ties come from repeated offsets; +inf, 0.0, -0.0 and
    negative entries are mixed in on request. The block is returned as a
    C-order array, a Fortran-order copy or a strided view.
    """
    j = draw(st.integers(1, 7))
    n_cols = draw(st.sampled_from([1, 2, 2**j - 1, 2**j, 2**j + 1]))
    n_rows = draw(st.integers(1, 5))
    base = draw(st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))
    span = 2 << _column_bits(n_cols)
    offsets = draw(arrays(np.int64, (n_rows, n_cols), elements=st.integers(0, span)))
    dist = _nudged(base, offsets)
    specials = draw(st.sets(st.sampled_from([np.inf, 0.0, -0.0, "negative"])))
    for special in specials:
        mask = draw(arrays(np.bool_, dist.shape))
        dist[mask] = -dist[mask] if special == "negative" else special
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return np.asfortranarray(dist)
    if layout == "strided":
        padded = np.zeros((n_rows, 2 * n_cols))
        padded[:, ::2] = dist
        return padded[:, ::2]
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
    @settings(max_examples=600, deadline=None)
    @given(distance_blocks() | near_tie_blocks())
    def test_equals_stable_argsort(self, dist):
        assert np.array_equal(stable_order(dist), _stable(dist))
        out = np.full(dist.shape, -1, dtype=np.int64)  # a reused buffer holds stale values
        order = stable_order(dist, out=out)
        assert np.shares_memory(order, out) and np.array_equal(out, _stable(dist))

    @settings(max_examples=400, deadline=None)
    @given(distance_blocks() | near_tie_blocks())
    def test_single_row(self, dist):
        assert np.array_equal(stable_order(dist[0]), _stable(dist[0]))

    def test_only_rows_the_keys_misorder_are_sorted_again(self, monkeypatch):
        def resorted(dist):
            calls = []
            argsort = np.argsort

            def spy(a, *args, **kwargs):
                if kwargs.get("kind") == "stable":
                    calls.append(np.array(a))
                return argsort(a, *args, **kwargs)

            with monkeypatch.context() as patched:
                patched.setattr(np, "argsort", spy)
                order = stable_order(dist)
            assert np.array_equal(order, _stable(dist))
            return calls

        # continuous distances almost never agree above the column bits, and
        # on this draw no row holds a misordered pair
        train, _, test = gen_blobs(BlobConfig(n_train=2000, n_valid=1, n_test=64))
        assert resorted(cdist(test.features, train.features)) == []

        # rows nudged by up to 63 ulps around 1.0, beside rows whose nudges
        # rise with the column and so come out right by column order alone
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, 64, size=(40, 64))
        offsets[::3] = np.sort(offsets[::3], axis=1)
        dist = _nudged(1.0, offsets)
        coarse = dist.view(np.uint64) >> np.uint64(_column_bits(64))
        misordered = (_stable(coarse) != _stable(dist)).any(axis=1)
        assert 0 < misordered.sum() < len(dist)
        calls = resorted(dist)
        assert len(calls) == 1 and np.array_equal(calls[0], dist[misordered])


class TestKNearest:
    def test_matches_ranking_across_chunks(self, monkeypatch):
        monkeypatch.setattr(neighbors, "TOP_K_CELLS", 64 * 60)  # 64 rows a block: 10 blocks
        rng = np.random.default_rng(3)
        train = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        query = rng.integers(0, 3, size=(600, 2)).astype(np.float64)
        expected = rank_all(train, query)[:, :7]
        assert np.array_equal(k_nearest(train, query, 7)[0], expected)

    def test_distances_are_cdist_at_the_returned_columns(self):
        rng = np.random.default_rng(5)
        train, query = rng.random((90, 3)), rng.random((300, 3))
        columns, distances = k_nearest(train, query, 9)
        expected = np.take_along_axis(cdist(query, train), columns, axis=1)
        assert distances.tobytes() == expected.tobytes()

    def test_thread_count_does_not_change_the_result(self, monkeypatch):
        monkeypatch.setattr(neighbors, "TOP_K_CELLS", 16 * 50)  # 16 rows a block: 7 blocks
        rng = np.random.default_rng(6)
        train = rng.integers(0, 4, size=(50, 2)).astype(np.float64)  # heavy ties
        query = rng.integers(0, 4, size=(100, 2)).astype(np.float64)
        one, four = k_nearest(train, query, 12, threads=1), k_nearest(train, query, 12, threads=4)
        for a, b in zip(one, four):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(8)
        train = rng.integers(0, 4, size=(70, 3)).astype(np.float64)  # heavy ties
        query = rng.integers(0, 4, size=(45, 3)).astype(np.float64)
        expected = k_nearest(train, query, 9)
        assert neighbors.top_k_blocks(45, 70) == [(0, 45)]
        # 1, 69 and 75 cells give one row a block, 300 cells four rows
        for cells in (1, 69, 75, 300):
            monkeypatch.setattr(neighbors, "TOP_K_CELLS", cells)
            blocks = neighbors.top_k_blocks(45, 70)
            assert {hi - lo for lo, hi in blocks[:-1]} <= {max(1, cells // 70)}
            for threads in (1, 3):
                for a, b in zip(k_nearest(train, query, 9, threads=threads), expected):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (cells, threads)

    def test_blocks_hold_about_top_k_cells_distances(self):
        assert neighbors.top_k_blocks(1000, 20000) == [
            (lo, min(lo + 6, 1000)) for lo in range(0, 1000, 6)]  # 2**17 // 20000 rows
        assert neighbors.top_k_blocks(10, 1 << 20) == [(i, i + 1) for i in range(10)]
        assert neighbors.top_k_blocks(0, 50) == []

    def test_empty_query(self):
        columns, distances = k_nearest(np.zeros((4, 2)), np.empty((0, 2)), 3, threads=2)
        assert columns.shape == distances.shape == (0, 3)
        assert columns.dtype == np.intp and distances.dtype == np.float64

    def test_k_range_checked(self):
        train = np.zeros((4, 1))
        for k in (0, 5):
            with pytest.raises(ValueError, match="out of range"):
                k_nearest(train, train, k)
