import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hardshap import _io
from hardshap._util import fixed_chunks, hard_count
from hardshap.dataset import Dataset
from hardshap.neighbors import QUERY_CHUNK
from hardshap.valuation import (
    ORDER_ROWS,
    _train_sum,
    _UtilityEvaluator,
    ValuationScores,
    exact_data_shapley,
    hardest_subset,
    knn_shapley,
    knn_shapley_contributions,
    knn_utility,
    load_scores_csv,
    rank_by_hardness,
    save_scores_csv,
    tmc_shapley,
)

from conftest import random_dataset


class TestKnnShapley:
    def test_toy_instance(self, toy_train, toy_test):
        scores = knn_shapley(toy_train, toy_test, 1)
        # row order is (-1, +1, 0); values from the closed-form 3-point case
        assert np.allclose(scores.scores, [1 / 3, -1 / 6, 5 / 6], atol=1e-15)

    def test_single_matching_point(self):
        train = Dataset([[0.0]], [1], ("x",), [0])
        test = Dataset([[1.0]], [1], ("x",), [0])
        assert knn_shapley(train, test, 1).scores[0] == 1.0

    def test_matches_bruteforce_k2(self):
        rng = np.random.default_rng(7)
        train = random_dataset(rng, 8, d=2)
        test = random_dataset(rng, 3, d=2)
        fast = knn_shapley(train, test, 2).scores
        slow = exact_data_shapley(train, test, 2).scores
        assert np.abs(fast - slow).max() <= 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        train = random_dataset(rng, 20, d=3)
        test = random_dataset(rng, 5, d=3)
        reference = dict(zip(knn_shapley(train, test, 3).ids.tolist(),
                             knn_shapley(train, test, 3).scores.tolist()))
        perm = rng.permutation(20)
        shuffled = Dataset(train.features[perm], train.labels[perm],
                           train.feature_names, train.ids[perm])
        got = knn_shapley(shuffled, test, 3)
        for row_id, value in zip(got.ids.tolist(), got.scores.tolist()):
            assert value == reference[row_id]

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(13)
        train = random_dataset(rng, 300, d=4)
        test = random_dataset(rng, 600, d=4)  # forces multiple chunks
        single = knn_shapley(train, test, 5, threads=1).scores
        multi = knn_shapley(train, test, 5, threads=4).scores
        assert np.array_equal(single, multi)

    def test_distance_tie_broken_by_ascending_id(self):
        # two training points equidistant from the test point: the lower id
        # must rank first, so giving it the matching label makes the 1NN
        # utility of the full set 1, and giving it the other label makes it 0
        test = Dataset([[0.0]], [1], ("x",), [0])
        match_first = Dataset([[1.0], [-1.0]], [1, 0], ("x",), [0, 1])
        miss_first = Dataset([[1.0], [-1.0]], [1, 0], ("x",), [1, 0])
        assert knn_utility([0, 1], match_first, test, 1) == 1.0
        assert knn_utility([0, 1], miss_first, test, 1) == 0.0
        # and the recursion stays consistent with enumeration in both layouts
        for ds in (match_first, miss_first):
            fast = knn_shapley(ds, test, 1).scores
            slow = exact_data_shapley(ds, test, 1).scores
            assert np.array_equal(fast, slow)

    def test_per_test_efficiency(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, k = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            train = random_dataset(rng, n, d=2)
            test = random_dataset(rng, 3, d=2)
            contrib = knn_shapley_contributions(train, test, k)
            for j in range(test.n):
                one = Dataset(test.features[j:j + 1], test.labels[j:j + 1],
                              test.feature_names, [0])
                assert abs(contrib[:, j].sum() - knn_utility(train.ids, train, one, k)) < 1e-12

    def test_null_step_exact_zero(self):
        # consecutive ranks with equal labels: recursion step is exactly zero
        train = Dataset([[1.0], [2.0], [3.0]], [1, 1, 0], ("x",), [0, 1, 2])
        test = Dataset([[0.0]], [1], ("x",), [0])
        contrib = knn_shapley_contributions(train, test, 1)[:, 0]
        assert contrib[0] == contrib[1]

    def test_contribution_columns_do_not_depend_on_the_other_test_rows(self):
        # 300 test rows span many ORDER_ROWS chunks and cross QUERY_CHUNK;
        # lattice rows in shuffled id order make most distances tie
        rng = np.random.default_rng(31)
        train = Dataset(rng.integers(0, 4, size=(90, 2)).astype(float), rng.integers(0, 2, 90),
                        ("a", "b"), rng.permutation(400)[:90])
        test = Dataset(rng.integers(0, 4, size=(300, 2)).astype(float), rng.integers(0, 2, 300),
                       ("a", "b"), np.arange(300))
        contrib = knn_shapley_contributions(train, test, 3)
        for j in [0, 7, 8, 100, QUERY_CHUNK - 1, QUERY_CHUNK, QUERY_CHUNK + 1, 299]:
            alone = knn_shapley_contributions(train, test.take([j]), 3)[:, 0]
            assert contrib[:, j].tobytes() == alone.tobytes(), j

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(23)
        train = random_dataset(rng, 40, d=2)
        test = random_dataset(rng, 30, d=2)
        scores = knn_shapley(train, test, 4).scores
        assert scores.min() >= -1.0 and scores.max() <= 1.0

    def test_dimension_mismatch(self, toy_train):
        bad = Dataset([[1.0, 2.0]], [0], ("a", "b"), [0])
        with pytest.raises(ValueError, match="dimension"):
            knn_shapley(toy_train, bad, 1)

    def test_k_must_be_positive(self, toy_train, toy_test):
        with pytest.raises(ValueError, match="positive"):
            knn_shapley(toy_train, toy_test, 0)


def _train_sums(block):
    """Each column's sum over a (rows, n) block, summed along a contiguous copy.

    The oracle for the streamed sums: ``sum(axis=1)`` over the C-order
    transpose is numpy's pairwise order along each column.
    """
    return np.ascontiguousarray(block.T).sum(axis=1)


def _streamed_sums(block, rng):
    """_train_sum over the block's rows, fed as ORDER_ROWS-row groups through one buffer.

    The buffer is refilled with noise before each group is copied in, so a
    sum that read a row twice or a stale row would show.
    """
    count, n = block.shape
    buffer = np.empty((ORDER_ROWS, n))

    def groups():
        for lo, hi in fixed_chunks(count, ORDER_ROWS):
            buffer[...] = rng.standard_normal(buffer.shape)
            buffer[: hi - lo] = block[lo:hi]
            yield buffer[: hi - lo]

    return _train_sum(groups(), count, n)


def _mixed_block(rng, count, n, zero_share):
    """Scales from 1e-300 to 1e300, with +0.0, -0.0 and all-zero columns; never inf."""
    block = rng.uniform(-5.0, 5.0, (count, n)) * 10.0 ** rng.integers(-300, 301, (count, n))
    zeros = rng.random((count, n)) < zero_share
    block[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    block[:, :1] = -0.0
    block[:, 1:2] = 0.0
    return block


class TestStreamedTrainSums:
    """knn_shapley's train sums, taken row by row, against numpy's own column sums.

    A change to numpy's pairwise summation order fails here by name, before
    it moves any score's bits.
    """

    def test_every_row_count_up_to_300(self):
        # < 8 rows is a plain loop, 8..128 the lanes, > 128 a split; odd counts leave leftovers
        rng = np.random.default_rng(0)
        for count in range(1, 301):
            block = _mixed_block(rng, count, 6, 0.2)
            assert _streamed_sums(block, rng).tobytes() == _train_sums(block).tobytes(), count

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_numpy_column_sums(self, count, n, zero_share, seed):
        rng = np.random.default_rng(seed)
        block = _mixed_block(rng, count, n + 2, zero_share)
        assert _streamed_sums(block, rng).tobytes() == _train_sums(block).tobytes()

    def test_scores_match_the_summed_contribution_block(self):
        rng = np.random.default_rng(21)
        train = random_dataset(rng, 120, d=2, ids=rng.permutation(500)[:120])
        test = random_dataset(rng, 2 * QUERY_CHUNK + 9, d=2)
        contrib = knn_shapley_contributions(train, test, 4)
        blocks = [contrib[:, lo:lo + QUERY_CHUNK].T for lo in range(0, test.n, QUERY_CHUNK)]
        expected = sum((_train_sums(b) for b in blocks), np.zeros(train.n)) / test.n
        assert knn_shapley(train, test, 4).scores.tobytes() == expected.tobytes()

    def test_memory_stays_far_below_one_query_block(self):
        # the contribution block alone, (QUERY_CHUNK, n) float64, is 16 MB here
        rng = np.random.default_rng(5)
        train, test = random_dataset(rng, 8000, d=2), random_dataset(rng, QUERY_CHUNK, d=2)
        tracemalloc.start()
        try:
            knn_shapley(train, test, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < QUERY_CHUNK * train.n * 8 / 3, peak

    def test_memory_does_not_grow_with_test_rows(self):
        # each wave's block sums are added as it ends, so 100 blocks peak as 10 do
        rng = np.random.default_rng(6)
        train = random_dataset(rng, 5000, d=2)
        peaks = []
        for blocks in (10, 100):
            test = random_dataset(rng, blocks * QUERY_CHUNK, d=2)
            tracemalloc.start()
            try:
                knn_shapley(train, test, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_thread_holds_a_few_group_blocks(self, threads):
        # per thread: the distance buffer, the sort keys and a temporary, the
        # contributions and the lanes, each one (ORDER_ROWS, n) float64 block
        rng = np.random.default_rng(9)
        train, test = random_dataset(rng, 20000, d=2), random_dataset(rng, 2 * QUERY_CHUNK, d=2)
        group_block = ORDER_ROWS * train.n * 8
        tracemalloc.start()
        try:
            knn_shapley(train, test, 5, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * threads * group_block, peak / group_block

    def test_waves_keep_the_bits(self):
        # five blocks: two full waves of two threads and a last wave of one
        rng = np.random.default_rng(8)
        train, test = random_dataset(rng, 400, d=3), random_dataset(rng, 5 * QUERY_CHUNK, d=3)
        single = knn_shapley(train, test, 5, threads=1).scores
        assert knn_shapley(train, test, 5, threads=2).scores.tobytes() == single.tobytes()


def _loop_contributions(train, test, k):
    """The recursion one test row at a time, in plain numpy: the grouped kernel's reference."""
    order = np.argsort(train.ids, kind="stable")
    X, y, n = train.features[order], train.labels[order], train.n
    ranks = np.arange(1, n, dtype=np.float64)
    weights = np.minimum(k, ranks) / (ranks * k)
    values = np.empty((n, test.n))
    for j in range(test.n):
        idx = np.argsort(cdist(test.features[j:j + 1], X)[0], kind="stable")
        match = (y[idx] == test.labels[j]).astype(np.int8)
        s = np.empty(n)
        s[n - 1] = match[n - 1] * (min(k, n) / (n * k))
        s[:n - 1] = np.cumsum(((match[:-1] - match[1:]) * weights)[::-1])[::-1] + s[n - 1]
        values[order[idx], j] = s
    return values


def _loop_exact_shapley(train, test, k):
    """exact_data_shapley's sums as a loop over points and size-ordered coalitions."""
    n = train.n
    ev = _UtilityEvaluator(train, test, k)
    util = np.array([ev.utility((mask >> np.arange(n)) & 1 == 1, bin(mask).count("1"))
                     for mask in range(1 << n)])
    inv_binom = [1.0 / math.comb(n - 1, s) for s in range(n)]
    masks_by_size = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    phi_sorted = np.empty(n)
    for i in range(n):
        bit = 1 << i
        acc = 0.0
        for mask in masks_by_size:
            if mask & bit:
                continue
            acc += (util[mask | bit] - util[mask]) * inv_binom[bin(mask).count("1")]
        phi_sorted[i] = acc / n
    return ev.to_row_order(phi_sorted)


def _lattice(rng, n, ids):
    """Integer-lattice rows: most distances tie, and some rows repeat."""
    return Dataset(rng.integers(0, 4, size=(n, 2)).astype(float), rng.integers(0, 2, n),
                   ("a", "b"), ids)


class TestGroupAndLaneEdges:
    """Test-row counts at the edges of ORDER_ROWS groups, numpy's 8 lanes and its
    PAIRWISE_BLOCK split, and QUERY_CHUNK blocks, on tie-heavy rows with shuffled ids."""

    @pytest.mark.parametrize("n_test", [*range(1, 18), *range(120, 137), QUERY_CHUNK - 1,
                                        QUERY_CHUNK + 1, 2 * QUERY_CHUNK + 9])
    def test_scores_match_the_summed_contribution_blocks(self, n_test):
        rng = np.random.default_rng(n_test)
        train = _lattice(rng, 90, rng.permutation(400)[:90])
        test = _lattice(rng, n_test, rng.permutation(10 * n_test)[:n_test])
        contrib = knn_shapley_contributions(train, test, 3)
        assert contrib.tobytes() == _loop_contributions(train, test, 3).tobytes()
        blocks = [contrib[:, lo:lo + QUERY_CHUNK].T for lo in range(0, n_test, QUERY_CHUNK)]
        expected = sum((_train_sums(b) for b in blocks), np.zeros(train.n)) / n_test
        for threads in (1, 2, 3):
            got = knn_shapley(train, test, 3, threads=threads).scores
            assert got.tobytes() == expected.tobytes(), threads


class TestKnnUtility:
    def test_empty_coalition(self, toy_train, toy_test):
        assert knn_utility([], toy_train, toy_test, 1) == 0.0

    def test_full_toy_coalition(self, toy_train, toy_test):
        assert knn_utility([0, 1, 2], toy_train, toy_test, 1) == 1.0

    def test_efficiency(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            train = random_dataset(rng, n, d=2)
            test = random_dataset(rng, 4, d=2)
            total = knn_shapley(train, test, k).scores.sum()
            assert abs(total - knn_utility(train.ids, train, test, k)) < 1e-12

    def test_unknown_id(self, toy_train, toy_test):
        with pytest.raises(KeyError):
            knn_utility([99], toy_train, toy_test, 1)


class TestExactDataShapley:
    def test_single_point(self):
        train = Dataset([[0.0]], [1], ("x",), [0])
        hit = Dataset([[1.0]], [1], ("x",), [0])
        miss = Dataset([[1.0]], [0], ("x",), [0])
        assert exact_data_shapley(train, hit, 1).scores[0] == 1.0
        assert exact_data_shapley(train, miss, 1).scores[0] == 0.0

    def test_toy_matches_paper_values(self, toy_train, toy_test):
        scores = exact_data_shapley(toy_train, toy_test, 1).scores
        assert np.abs(scores - np.array([1 / 3, -1 / 6, 5 / 6])).max() <= 1e-12

    def test_duplicate_points_symmetric(self):
        train = Dataset([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1, 1, 0], ("a", "b"), [0, 1, 2])
        rng = np.random.default_rng(31)
        test = random_dataset(rng, 3, d=2)
        scores = exact_data_shapley(train, test, 1).scores
        assert scores[0] == scores[1]

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_matches_the_coalition_loop(self, n):
        # random features at even n, tie-heavy lattice rows with shuffled ids at odd n
        rng = np.random.default_rng(100 + n)
        k = 1 + n % 5
        if n % 2:
            train = _lattice(rng, n, rng.permutation(3 * n)[:n])
            test = _lattice(rng, 5, np.arange(5))
        else:
            train, test = random_dataset(rng, n, d=2), random_dataset(rng, 4, d=2)
        got = exact_data_shapley(train, test, k).scores
        assert got.tobytes() == _loop_exact_shapley(train, test, k).tobytes()

    def test_size_guard(self):
        rng = np.random.default_rng(37)
        train = random_dataset(rng, 17, d=1)
        test = random_dataset(rng, 1, d=1)
        with pytest.raises(ValueError, match="limited"):
            exact_data_shapley(train, test, 1)


class TestTmcShapley:
    def test_converges_to_exact(self):
        rng = np.random.default_rng(41)
        train = random_dataset(rng, 8, d=2)
        test = random_dataset(rng, 3, d=2)
        exact = exact_data_shapley(train, test, 2).scores
        approx = tmc_shapley(train, test, 2, permutations=20000,
                             truncation_tol=0.0, seed=1).scores
        assert np.abs(approx - exact).max() < 0.02

    def test_huge_tolerance_keeps_first_marginals(self):
        # with an unbounded tolerance every permutation truncates right after
        # its first element, so scores are means over first-position marginals
        rng = np.random.default_rng(43)
        train = random_dataset(rng, 6, d=2)
        test = random_dataset(rng, 2, d=2)
        got = tmc_shapley(train, test, 2, permutations=500,
                          truncation_tol=np.inf, seed=9).scores
        replay = np.random.default_rng(np.random.SeedSequence(9))
        sums = np.zeros(6)
        singleton = np.array([knn_utility([i], train, test, 2) for i in range(6)])
        for _ in range(500):
            first = replay.permutation(6)[0]
            sums[first] += singleton[first]
        assert np.allclose(got, sums / 500, atol=1e-12)
        assert np.any(got != 0.0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(47)
        train = random_dataset(rng, 7, d=2)
        test = random_dataset(rng, 2, d=2)
        a = tmc_shapley(train, test, 1, permutations=200, seed=5).scores
        b = tmc_shapley(train, test, 1, permutations=200, seed=5).scores
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tol", [-1e-9, np.nan])
    def test_rejects_a_negative_or_nan_tolerance(self, tol):
        # a NaN tolerance would compare false at every step and never truncate
        rng = np.random.default_rng(59)
        train = random_dataset(rng, 4, d=1)
        test = random_dataset(rng, 1, d=1)
        with pytest.raises(ValueError, match="truncation_tol must be nonnegative"):
            tmc_shapley(train, test, 1, permutations=10, truncation_tol=tol)

    def test_default_permutation_count(self):
        rng = np.random.default_rng(53)
        train = random_dataset(rng, 4, d=1)
        test = random_dataset(rng, 1, d=1)
        scores = tmc_shapley(train, test, 1, seed=0)
        assert scores.params["permutations"] == 400


class TestBruteforceEquivalenceSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
    def test_recursion_equals_enumeration(self, n, k, n_test, seed):
        rng = np.random.default_rng(seed)
        train = random_dataset(rng, n, d=int(rng.integers(1, 4)))
        test = random_dataset(rng, n_test, d=train.d)
        fast = knn_shapley(train, test, k).scores
        slow = exact_data_shapley(train, test, k).scores
        assert np.abs(fast - slow).max() <= 1e-10


class TestRanking:
    def test_tie_rule(self):
        scores = ValuationScores([0.3, -0.1, 0.3], [0, 1, 2], "tmc_shapley", {})
        assert rank_by_hardness(scores).tolist() == [1, 0, 2]

    def test_total_tie_gives_identity(self):
        scores = ValuationScores([0.5, 0.5, 0.5], [0, 1, 2], "tmc_shapley", {})
        assert rank_by_hardness(scores).tolist() == [0, 1, 2]

    def test_toy_hardest_is_plus_one(self, toy_train, toy_test):
        scores = knn_shapley(toy_train, toy_test, 1)
        assert rank_by_hardness(scores)[0] == 1  # the (1, 1) row


class TestHardestSubset:
    def make(self, n, seed=0):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, d=2)
        return ds, ValuationScores(rng.normal(size=n), ds.ids, "tmc_shapley", {})

    def test_tau_one_is_everything(self):
        ds, scores = self.make(20)
        subset = hardest_subset(ds, scores, 1.0)
        assert sorted(subset.ids.tolist()) == ds.ids.tolist()
        assert subset.ids.tolist() == rank_by_hardness(scores).tolist()

    def test_selection_property(self):
        ds, scores = self.make(100)
        subset = hardest_subset(ds, scores, 0.05)
        assert subset.n == 5
        excluded = np.setdiff1d(ds.ids, subset.ids)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert max(by_id[i] for i in subset.ids.tolist()) <= min(by_id[i] for i in excluded.tolist())

    def test_ceiling_rule(self):
        ds, scores = self.make(10)
        assert hardest_subset(ds, scores, 0.25).n == 3

    @pytest.mark.parametrize("n, expected", [(100, 7), (5000, 350)])
    def test_decimal_tau_not_overshot(self, n, expected):
        # 0.07 * 100 is 7.000000000000001 in floats
        ds, scores = self.make(n)
        assert hard_count(0.07, n) == expected
        assert hardest_subset(ds, scores, 0.07).n == expected

    def test_tau_bounds(self):
        ds, scores = self.make(10)
        for tau in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="tau"):
                hardest_subset(ds, scores, tau)


class TestScoresCsv:
    def test_round_trip_with_sidecar(self, tmp_path):
        scores = ValuationScores([0.25, -0.5], [3, 9], "knn_shapley", {"k": 5, "seed": 1})
        path = tmp_path / "scores.csv"
        save_scores_csv(scores, path, header_comment="unit test")
        back = load_scores_csv(path)
        assert np.array_equal(back.scores, scores.scores)
        assert np.array_equal(back.ids, scores.ids)
        assert back.method == "knn_shapley"
        assert back.params == {"k": 5, "seed": 1}

    def test_rank_column_matches_ordering(self, tmp_path):
        scores = ValuationScores([0.3, -0.1, 0.3], [0, 1, 2], "tmc_shapley", {})
        path = tmp_path / "s.csv"
        save_scores_csv(scores, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        ranks = {int(l.split(",")[0]): int(l.split(",")[2]) for l in lines}
        assert ranks == {1: 0, 0: 1, 2: 2}

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,0.2\n", "row 1 has 2 cells, expected 4"),
            ("1,0.2,0,knn_shapley\n2,0.3,1,knn_shapley,extra\n", "row 2 has 5 cells, expected 4"),
            ("1,0.2,0,knn_shapley\n2,0.3\n", "row 2 has 2 cells, expected 4"),
        ],
    )
    def test_ragged_rows_rejected(self, tmp_path, body, message):
        path = tmp_path / "s.csv"
        path.write_text("id,score,rank,method\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_scores_csv(path)

    def test_repeated_ids_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,score,rank,method\n0,0.1,0,tmc_shapley\n0,0.5,2,tmc_shapley\n"
                        "1,0.3,1,tmc_shapley\n", encoding="utf-8")
        with pytest.raises(ValueError, match="ids must be unique"):
            load_scores_csv(path)

    @pytest.mark.parametrize("method", ["random", "dataiq_confidence"])
    def test_methods_no_valuation_produces_rejected(self, tmp_path, method):
        path = tmp_path / "s.csv"
        path.write_text(f"id,score,rank,method\n1,0.2,0,{method}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            load_scores_csv(path)

    @pytest.mark.parametrize("chunk", [1, 2, 2048])
    @pytest.mark.parametrize("quote", ["", '"'])  # a quote sends the file to the strict reader
    def test_mixed_methods_rejected(self, tmp_path, monkeypatch, chunk, quote):
        monkeypatch.setattr(_io, "CSV_ROWS", chunk)
        path = tmp_path / "s.csv"
        path.write_text("# scores\nid,score,rank,method\n0,0.1,0,knn_shapley\n1,0.2,1,knn_shapley\n"
                        f"2,0.3,2,{quote}knn_shapley{quote}\n3,0.4,3,tmc_shapley\n"
                        "4,0.5,4,knn_shapley\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 4 says 'tmc_shapley', the rows above it "
                                             "'knn_shapley'"):
            load_scores_csv(path)

    def test_method_column_costs_no_string_per_row(self, tmp_path):
        # reading the method cells as one string per row doubled the peak
        rng = np.random.default_rng(4)
        n = 20000
        path = tmp_path / "s.csv"
        save_scores_csv(ValuationScores(rng.uniform(-1e-3, 1e-3, n), rng.permutation(10 * n)[:n],
                                        "knn_shapley", {"k": 5}), path)
        peaks = []
        for read in (lambda: load_scores_csv(path),
                     lambda: _io.read_csv(path).columns([1], id_col=0)):
            tracemalloc.start()
            try:
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.2 * peaks[1], peaks


class TestTieHeavyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lattice_instances_with_duplicates(self, seed):
        # integer-lattice features force many exact distance ties and
        # duplicated rows; the recursion and the enumeration must still agree
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        train = Dataset(
            rng.integers(0, 3, size=(n, d)).astype(float),
            np.concatenate([[0, 1], rng.integers(0, 2, n - 2)]) if n >= 2 else [0],
            tuple(f"f{j}" for j in range(d)),
            np.arange(n),
        )
        test = Dataset(
            rng.integers(0, 3, size=(2, d)).astype(float),
            rng.integers(0, 2, 2),
            train.feature_names,
            np.arange(2),
        )
        fast = knn_shapley(train, test, k).scores
        slow = exact_data_shapley(train, test, k).scores
        assert np.abs(fast - slow).max() <= 1e-10
        assert abs(fast.sum() - knn_utility(train.ids, train, test, k)) <= 1e-12
