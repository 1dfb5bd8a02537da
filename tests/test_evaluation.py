import ast
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardshap import evaluation, neighbors
from hardshap._util import share_count
from hardshap.augment import (
    GeneratorSpec,
    append_batch,
    smote_generate,
    synthetic_rows,
    targeted_augment,
)
from hardshap.dataset import Dataset
from hardshap.evaluation import (
    CachedVote,
    MetricReport,
    _normal_ci,
    auc_roc,
    gini,
    knn_predict_proba,
    load_probs_column_csv,
    removal_curve,
    repeated_gini,
    save_metric_report_csv,
)
from hardshap.neighbors import QUERY_CHUNK
from hardshap.valuation import ValuationScores, hardest_subset, knn_shapley, rank_by_hardness

from conftest import random_dataset


class TestKnnPredictProba:
    def test_unanimous_neighborhood(self):
        train = Dataset([[0.0], [0.1], [0.2], [5.0]], [1, 1, 1, 0], ("x",), [0, 1, 2, 3])
        query = Dataset([[0.05]], [1], ("x",), [0])
        assert knn_predict_proba(train, query, 3)[0] == 1.0

    def test_k_equals_n_gives_prevalence(self):
        rng = np.random.default_rng(0)
        train = random_dataset(rng, 20, d=2)
        query = random_dataset(rng, 7, d=2)
        probs = knn_predict_proba(train, query, 20)
        assert np.allclose(probs, train.labels.mean())

    def test_toy_single_neighbor(self, toy_train):
        query = Dataset([[0.25]], [0], ("x1",), [0])
        assert knn_predict_proba(toy_train, query, 1)[0] == 0.0

    def test_k_out_of_range(self, toy_train):
        with pytest.raises(ValueError, match="out of range"):
            knn_predict_proba(toy_train, toy_train, 4)

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(1)
        train = random_dataset(rng, 100, d=3)
        query = random_dataset(rng, 600, d=3)
        a = knn_predict_proba(train, query, 7, threads=1)
        b = knn_predict_proba(train, query, 7, threads=4)
        assert np.array_equal(a, b)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_constant_probs(self):
        assert auc_roc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_four_point_case(self):
        assert auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            auc_roc([0.1, 0.9], [1, 1])

    def test_nan_probability_rejected(self):
        # a NaN has no rank, so it would make the whole AUC nan
        with pytest.raises(ValueError, match="probs must not be NaN"):
            auc_roc([0.1, float("nan"), 0.8, 0.9], [0, 0, 1, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_the_exact_pairwise_count(self, seed):
        # few distinct values, so ties are common; -0.0 ties with 0.0
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        probs = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0, 1e-300], size=n)
        labels = rng.integers(0, 2, n)
        labels[:2] = 0, 1
        pos, neg = probs[labels == 1], probs[labels == 0]
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        assert auc_roc(probs, labels) == float(Fraction(2 * wins + ties, 2 * pos.size * neg.size))

    @settings(max_examples=60)
    @given(st.integers(0, 10_000))
    def test_complement_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        probs = rng.choice([0.1, 0.3, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, n)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        total = auc_roc(probs, labels) + auc_roc(1.0 - probs, labels)
        assert abs(total - 1.0) <= 1e-12

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_rank_statistic_invariance(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=25)
        labels = rng.integers(0, 2, 25)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        base = gini(probs, labels)
        assert gini(np.exp(2.0 * probs), labels) == pytest.approx(base, abs=1e-12)


class TestGini:
    @pytest.mark.parametrize("auc,expected", [(1.0, 1.0), (0.5, 0.0), (0.75, 0.5)])
    def test_linear_map(self, auc, expected):
        # construct prob/label pairs hitting the target AUC exactly
        if auc == 1.0:
            probs, labels = [0.1, 0.9], [0, 1]
        elif auc == 0.5:
            probs, labels = [0.5, 0.5], [0, 1]
        else:
            probs, labels = [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]
        assert gini(probs, labels) == pytest.approx(2 * auc - 1)


class TestNormalCi:
    def test_two_replicates_hand_arithmetic(self):
        mean, lo, hi = _normal_ci(np.array([0.90, 0.92]))
        sd = np.array([0.90, 0.92]).std(ddof=1)
        assert mean == pytest.approx(0.91)
        assert sd == pytest.approx(0.014142135623730951)
        assert hi - mean == pytest.approx(1.96 * sd / math.sqrt(2))

    def test_zero_variance_degenerates_to_point(self):
        mean, lo, hi = _normal_ci(np.array([0.8, 0.8, 0.8]))
        assert mean == lo == hi
        assert mean == pytest.approx(0.8)

    def test_width_shrinks_like_sqrt_r(self):
        rng = np.random.default_rng(2)
        small = rng.normal(0.5, 0.1, size=100)
        wide_half = _normal_ci(small[:25])[2] - _normal_ci(small[:25])[0]
        narrow_half = _normal_ci(small)[2] - _normal_ci(small)[0]
        assert narrow_half < wide_half / 1.5


class Pipeline(NamedTuple):
    """An arm: its vote, the scores, tau and amount that pick its rows, and SMOTE's K."""

    vote: CachedVote
    scores: ValuationScores
    tau: float
    amount: float
    gen_k: int

    def args(self) -> tuple:
        """repeated_gini's arguments before the replicate count: the vote and the arm's draw."""
        source = hardest_subset(self.vote.train, self.scores, self.tau)
        m = synthetic_rows(self.amount, source.n)
        return self.vote, partial(smote_generate, source, m, self.gen_k)


def _recording(draw, seeds):
    """``draw``, appending each seed it is called with to ``seeds``."""

    def record(seed):
        seeds.append(seed)
        return draw(seed)

    return record


@pytest.fixture(scope="module")
def pipeline():
    # overlapping blobs so the hard subset keeps both classes well
    # represented for the SMOTE neighbor requirement
    rng = np.random.default_rng(3)
    centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
    def draw(n):
        labels = rng.integers(0, 2, n)
        return Dataset(centers[labels] + rng.normal(size=(n, 2)), labels,
                       ("x1", "x2"), np.arange(n))
    train, valid, test = draw(300), draw(150), draw(150)
    scores = knn_shapley(train, test, 5)
    return Pipeline(CachedVote(train, valid, 9), scores, 0.3, 1.0, 2)


class TestRepeatedGini:

    def test_deterministic_given_base_seed(self, pipeline):
        a = repeated_gini(*pipeline.args(), replicates=4, base_seed=5)
        b = repeated_gini(*pipeline.args(), replicates=4, base_seed=5)
        assert a == b

    def test_report_shape(self, pipeline):
        report = repeated_gini(*pipeline.args(), replicates=5, base_seed=1)
        assert len(report.replicates) == 5
        assert report.ci_low <= report.point <= report.ci_high
        assert report.metric == "gini"

    def test_needs_two_replicates(self, pipeline):
        with pytest.raises(ValueError, match="2 replicates"):
            repeated_gini(*pipeline.args(), replicates=1, base_seed=0)

    def test_thread_count_invariance(self, pipeline):
        a = repeated_gini(*pipeline.args(), replicates=4, base_seed=2, threads=1)
        b = repeated_gini(*pipeline.args(), replicates=4, base_seed=2, threads=4)
        assert a == b

    def test_replicates_equal_a_refit_on_each_augmented_set(self, pipeline):
        vote = pipeline.vote
        children = np.random.SeedSequence(6).spawn(3)
        expected = []
        for child in children:
            gen = GeneratorSpec("smote", {"k_neighbors": pipeline.gen_k,
                                          "seed": int(child.generate_state(1)[0])})
            augmented = targeted_augment(vote.train, pipeline.scores, pipeline.tau,
                                         pipeline.amount, gen)
            probs = knn_predict_proba(augmented, vote.query, vote.k)
            expected.append(gini(probs, vote.query.labels))
        for threads in (1, 4):
            report = repeated_gini(*pipeline.args(), replicates=3, base_seed=6, threads=threads)
            assert report.replicates == tuple(expected)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_draws_once_per_replicate_with_the_derived_seeds(self, pipeline, threads):
        vote, draw = pipeline.args()
        seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(7).spawn(5)]
        calls = []
        report = repeated_gini(vote, _recording(draw, calls), 5, base_seed=7, threads=threads)
        assert sorted(calls) == sorted(seeds)
        expected = [gini(vote.predict_proba(draw(seed)), vote.query.labels) for seed in seeds]
        assert len(set(expected)) == len(expected)  # distinct, so the order is checked too
        assert report.replicates == tuple(expected)

    def test_vote_shared_between_arms(self, pipeline):
        # one vote serves both arms, in any order, as a fresh vote per arm would
        vote = pipeline.vote
        baseline = pipeline._replace(tau=1.0, amount=0.3)
        for arm in (pipeline, baseline, pipeline):
            fresh = arm._replace(vote=CachedVote(vote.train, vote.query, vote.k))
            assert repeated_gini(*arm.args(), 3, 1) == repeated_gini(*fresh.args(), 3, 1)


def _lattice(rng, n, d, ids=None):
    return Dataset(rng.integers(0, 3, size=(n, d)).astype(float), rng.integers(0, 2, n),
                   tuple(f"f{j}" for j in range(d)), np.arange(n) if ids is None else ids)


def _tied_batch(rng, train, valid, m):
    """Lattice rows, copies of train rows, and reflections of train rows
    through valid rows (exactly as far from that valid row as the train row)."""
    picks = rng.integers(0, train.n, m)
    rows = np.where(rng.integers(0, 3, (m, 1)) == 0,
                    rng.integers(0, 3, size=(m, train.d)).astype(float),
                    train.features[picks])
    reflect = rng.integers(0, 2, m) == 1
    centres = valid.features[rng.integers(0, valid.n, m)]
    rows[reflect] = 2 * centres[reflect] - rows[reflect]
    return Dataset(rows, rng.integers(0, 2, m), train.feature_names, np.arange(m))


class TestCachedVote:
    """CachedVote on a batch against knn_predict_proba refitted on train plus the batch."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, QUERY_CHUNK]))
    def test_matches_refit_on_tie_heavy_lattices(self, seed, chunk):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 3))
        train = _lattice(rng, n, d, rng.permutation(3 * n)[:n])
        valid = _lattice(rng, int(rng.integers(1, 12)), d)
        batch = _tied_batch(rng, train, valid, int(rng.integers(1, 30)))
        augmented = append_batch(train, batch)
        k = int(rng.integers(1, augmented.n + 1))
        # the cache is built in blocks of `chunk` rows by k_nearest, and voted
        # in blocks of `chunk` rows by CachedVote
        with mock.patch.object(evaluation, "QUERY_CHUNK", chunk), \
                mock.patch.object(neighbors, "TOP_K_CELLS", chunk * train.n):
            cached = CachedVote(train, valid, k, threads=2).predict_proba(batch)
            refit = knn_predict_proba(augmented, valid, k)
        assert cached.tobytes() == refit.tobytes()

    @pytest.mark.parametrize("k", [1, 7, 40, 45, 60])
    @pytest.mark.parametrize("m", [3, 20])
    def test_matches_refit_over_several_blocks(self, k, m):
        # K = 40 and 45 keep every train column in the cache; m < K and m > K both occur
        rng = np.random.default_rng(k * m)
        train = _lattice(rng, 40, 2, rng.permutation(200)[:40])
        valid = _lattice(rng, 2 * QUERY_CHUNK + 5, 2)
        vote = CachedVote(train, valid, k, threads=2)
        for _ in range(3):
            batch = _tied_batch(rng, train, valid, m)
            augmented = append_batch(train, batch)
            if k > augmented.n:
                with pytest.raises(ValueError, match=f"K={k} out of range for {augmented.n}"):
                    vote.predict_proba(batch)
                continue
            expected = knn_predict_proba(augmented, valid, k)
            assert vote.predict_proba(batch).tobytes() == expected.tobytes()

    def test_rejects_a_batch_of_another_dimension(self):
        rng = np.random.default_rng(0)
        train = _lattice(rng, 10, 2, np.arange(10, 20))
        vote = CachedVote(train, _lattice(rng, 5, 2), 3)
        for d in (1, 3):
            with pytest.raises(ValueError, match=f"dimension mismatch: {d} vs 2"):
                vote.predict_proba(_lattice(rng, 4, d))


def _hard_rows(tau, n):
    # ceil(tau*n) for tau as written: in floats 0.07 * 100 rounds up to 8
    return math.ceil(Fraction(repr(tau)) * n)


def _nontargeted_amount(tau, n):
    # the amount at which targeted_augment's tau = 1 arm draws the targeted arm's rows
    return round(_hard_rows(tau, n)) / n


class TestMatchedBudgetArms:
    """Targeted (tau, amount=1) and non-targeted (tau=1, matched amount) arms."""

    @pytest.mark.parametrize("n, tau", [(40, 0.1), (97, 0.05), (100, 0.07),
                                        (333, 0.07), (5000, 0.05)])
    def test_same_number_of_synthetic_rows(self, n, tau):
        rng = np.random.default_rng(n)
        # scores rank ids in order and labels alternate, so every hard
        # subset holds both classes for SMOTE
        train = Dataset(rng.normal(size=(n, 2)), np.arange(n) % 2, ("x1", "x2"),
                        np.arange(n))
        scores = ValuationScores(np.arange(n) / n, train.ids, "knn_shapley", {"k": 5})
        gen = GeneratorSpec("smote", {"k_neighbors": 1, "seed": 0})
        targeted = targeted_augment(train, scores, tau, 1.0, gen)
        nontargeted = targeted_augment(train, scores, 1.0, _nontargeted_amount(tau, n), gen)
        assert targeted.n - n == nontargeted.n - n == _hard_rows(tau, n)

    def test_arms_share_generator_seeds(self, pipeline):
        # the baseline draws the targeted arm's m rows from every row, in hardness order
        baseline = pipeline._replace(tau=1.0, amount=pipeline.tau)
        seen = []  # per arm: (m, the seeds its draw was called with)
        for arm in (pipeline, baseline):
            vote, draw = arm.args()
            _, m, _ = draw.args  # partial(smote_generate, source, m, gen_k)
            seen.append((m, []))
            repeated_gini(vote, _recording(draw, seen[-1][1]), replicates=4, base_seed=42)
        assert len(seen[0][1]) == 4
        assert seen[0] == seen[1]


def test_evaluation_imports_nothing_from_augment():
    # the vote layer takes batches from a caller's draw and knows no generator
    tree = ast.parse(Path(evaluation.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "augment" in name.split(".")], imported


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4)
    centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
    def draw(n):
        labels = rng.integers(0, 2, n)
        return Dataset(centers[labels] + rng.normal(size=(n, 2)), labels,
                       ("x1", "x2"), np.arange(n))
    train, valid, test = draw(400), draw(200), draw(200)
    return train, valid, knn_shapley(train, test, 5)


class TestRemovalCurve:

    def test_zero_fraction_identical_across_strategies(self, data):
        train, valid, scores = data
        hard = removal_curve(train, valid, scores, [0.0], ["hardest"], seed=0, k=9)[0]
        rand = removal_curve(train, valid, scores, [0.0], ["random"], seed=0, k=9)[0]
        assert hard == rand

    def test_row_count(self, data):
        train, valid, scores = data
        curve = removal_curve(train, valid, scores, [0.0, 0.1, 0.2], ["hardest"], seed=0, k=9)[0]
        assert [f for f, _ in curve] == [0.0, 0.1, 0.2]

    def test_fraction_validation(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="ascending"):
            removal_curve(train, valid, scores, [0.2, 0.1], ["hardest"], 0)
        with pytest.raises(ValueError, match="ascending"):
            removal_curve(train, valid, scores, [0.5, 1.0], ["hardest"], 0)

    def test_single_class_remainder_rejected(self):
        # the only label-0 row is the hardest, so dropping one point leaves a
        # single-class training set
        train = Dataset([[0.0], [0.1], [5.0]], [1, 1, 0], ("x",), [0, 1, 2])
        valid = Dataset([[0.0], [5.0]], [1, 0], ("x",), [0, 1])
        scores = ValuationScores([0.5, 0.6, -1.0], train.ids, "tmc_shapley", {})
        with pytest.raises(ValueError, match="single-class"):
            removal_curve(train, valid, scores, [0.4], ["hardest"], 0, k=1)

    @pytest.mark.parametrize("strategy", ["hardest", "random"])
    def test_rejects_scores_of_other_ids(self, data, strategy):
        train, valid, scores = data
        shifted = ValuationScores(scores.scores, scores.ids + 1000, scores.method, scores.params)
        with pytest.raises(ValueError, match="scores are not aligned with the dataset ids"):
            removal_curve(train, valid, shifted, [0.0, 0.1], [strategy], 0)

    def test_unknown_strategy(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="strategy"):
            removal_curve(train, valid, scores, [0.1], ["easiest"], 0)

    @pytest.mark.parametrize("strategy", ["hardest", "random"])
    @pytest.mark.parametrize("k", [1, 7, 15])
    def test_matches_refit_on_kept_rows_with_ties(self, strategy, k):
        # Integer lattice rows in shuffled id order: most distances tie, so
        # the id tie-break decides the neighbours at every fraction.
        rng = np.random.default_rng(k)
        X = rng.integers(0, 3, size=(300, 2)).astype(float)
        y = (X.sum(axis=1) + rng.integers(0, 2, 300)) % 2
        train = Dataset(X, y, ("a", "b"), rng.permutation(3000)[:300])
        valid = Dataset(rng.integers(0, 3, size=(80, 2)).astype(float),
                        np.arange(80) % 2, ("a", "b"), np.arange(80))
        scores = ValuationScores(rng.integers(0, 5, 300) / 4.0, train.ids, "tmc_shapley", {})
        fractions = [0.0, 0.1, 0.3, 0.5]
        assert removal_curve(train, valid, scores, fractions, [strategy], 3, k)[0] == (
            _refit_curve(train, valid, scores, fractions, strategy, 3, k)
        )

    def test_matches_refit_when_kept_distances_overflow(self):
        # Most distances between rows at +-1e300 and +-2e300 overflow to inf:
        # the dropped row must still rank after every kept one.
        train = Dataset([[2e300], [-1e300], [-2e300], [-1e300], [0.0], [2e300]],
                        [0, 0, 0, 1, 1, 1], ("x",), np.arange(6))
        valid = Dataset([[2e300], [-2e300], [2e300], [-2e300]], [0, 1, 0, 1], ("x",), np.arange(4))
        scores = ValuationScores([0.0, 0.25, 1.0, 0.75, 0.5, 1.25], train.ids, "tmc_shapley", {})
        curve = removal_curve(train, valid, scores, [0.0, 0.2], ["hardest"], 0, 3)[0]
        assert curve == _refit_curve(train, valid, scores, [0.0, 0.2], "hardest", 0, 3)
        assert curve == [(0.0, -1.0), (0.2, 0.0)]

    @pytest.mark.parametrize("fractions", [[0.0, 0.1, 0.3], [0.1, 0.2], [0.0], [0.001, 0.2]])
    def test_strategies_in_one_call_match_one_call_each(self, data, fractions):
        train, valid, scores = data
        strategies = ["random", "hardest"]
        assert removal_curve(train, valid, scores, fractions, strategies, 5, 7) == [
            removal_curve(train, valid, scores, fractions, [strategy], 5, 7)[0]
            for strategy in strategies]
        assert removal_curve(train, valid, scores, fractions, [], 5, 7) == []

    def test_repeated_fraction_rejected(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="fractions must be strictly ascending"):
            removal_curve(train, valid, scores, [0.0, 0.0, 0.1], ["hardest"], 0)

    def test_repeated_strategy_rejected(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="strategies must not repeat a value"):
            removal_curve(train, valid, scores, [0.0, 0.1], ["hardest", "random", "hardest"], 0)

    def test_strategies_are_checked_as_one_call_each(self, data):
        train, valid, scores = data
        # hardest fails at its second fraction before random, or the later strategy, is checked
        single_class = ValuationScores(np.where(train.labels == 1, -1.0, 1.0), train.ids,
                                       "tmc_shapley", {})
        share = (train.labels == 1).mean()
        with pytest.raises(ValueError, match="single-class"):
            removal_curve(train, valid, single_class, [0.0, share, share + 0.01],
                          ["hardest", "easiest"], 0)
        with pytest.raises(ValueError, match="unknown strategy 'easiest'"):
            removal_curve(train, valid, scores, [0.1, 0.2], ["hardest", "easiest"], 0)
        # within one strategy, the strategy is checked before the fractions
        with pytest.raises(ValueError, match="unknown strategy 'easiest'"):
            removal_curve(train, valid, scores, [0.2, 0.1], ["easiest", "hardest"], 0)
        with pytest.raises(ValueError, match="ascending"):
            removal_curve(train, valid, scores, [0.2, 0.1], ["hardest", "easiest"], 0)

    @pytest.mark.parametrize("cells", [1, 3, 401, 4000])
    def test_block_size_does_not_change_the_curve(self, cells, monkeypatch):
        # lattice ties: the id tie-break decides the neighbours at every fraction
        rng = np.random.default_rng(cells)
        X = rng.integers(0, 3, size=(200, 2)).astype(float)
        train = Dataset(X, (X.sum(axis=1) + rng.integers(0, 2, 200)) % 2, ("a", "b"),
                        rng.permutation(900)[:200])
        valid = Dataset(rng.integers(0, 3, size=(37, 2)).astype(float), np.arange(37) % 2,
                        ("a", "b"), np.arange(37))
        scores = ValuationScores(rng.integers(0, 5, 200) / 4.0, train.ids, "tmc_shapley", {})
        fractions, strategies = [0.0, 0.1, 0.25], ["hardest", "random"]
        expected = removal_curve(train, valid, scores, fractions, strategies, 2, 9)
        monkeypatch.setattr(neighbors, "TOP_K_CELLS", cells)  # 1, 1, 2 or 20 rows a block
        assert removal_curve(train, valid, scores, fractions, strategies, 2, 9) == expected
        assert expected == [_refit_curve(train, valid, scores, fractions, strategy, 2, 9)
                            for strategy in strategies]

    def test_memory_stays_far_below_one_query_block(self):
        # one (QUERY_CHUNK, n) float64 distance block is 16 MB here, and
        # argpartition's index array as much again
        rng = np.random.default_rng(6)
        train, valid = random_dataset(rng, 8000), random_dataset(rng, QUERY_CHUNK)
        scores = ValuationScores(rng.uniform(-1, 1, train.n), train.ids, "tmc_shapley", {})
        tracemalloc.start()
        try:
            removal_curve(train, valid, scores, [0.0, 0.1, 0.2], ["hardest", "random"], 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < QUERY_CHUNK * train.n * 8 / 3, peak

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_fraction_is_read_as_its_decimal(self, data, cast):
        # 0.29 * 50 is 14.499999999999998 in floats; the decimal 14.5 drops 15 rows
        train, valid, _ = data
        train = train.take(np.arange(50))
        scores = knn_shapley(train, valid, 3)
        kept = train.take(np.flatnonzero(~np.isin(train.ids, rank_by_hardness(scores)[:15])))
        assert kept.n == 35
        fraction = cast(0.29)
        assert removal_curve(train, valid, scores, [fraction], ["hardest"], 0, 3)[0] == [
            (fraction, gini(knn_predict_proba(kept, valid, 3), valid.labels))]

    def test_errors_in_fraction_order(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="K=400 out of range for 360 training rows"):
            removal_curve(train, valid, scores, [0.0, 0.1, 0.2], ["hardest"], 0, k=400)
        assert removal_curve(train, valid, scores, [], ["hardest"], 0)[0] == []


def _refit_curve(train, valid, scores, fractions, strategy, seed, k):
    """removal_curve by refitting knn_predict_proba on the rows kept."""
    order = rank_by_hardness(scores)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shuffled = train.ids[rng.permutation(train.n)]
    curve = []
    for fraction in fractions:
        drop = share_count(fraction, train.n)
        doomed = order[:drop] if strategy == "hardest" else shuffled[:drop]
        kept = train.take(np.flatnonzero(~np.isin(train.ids, doomed)))
        curve.append((fraction, gini(knn_predict_proba(kept, valid, k), valid.labels)))
    return curve


class TestMetricReportCsv:
    def test_layout_and_parse(self, tmp_path):
        report = MetricReport("gini", 0.91, 0.89, 0.93, (0.90, 0.92))
        path = tmp_path / "report.csv"
        save_metric_report_csv(report, path, header_comment="run")
        lines = path.read_text().splitlines()
        assert lines[0] == "# run"
        assert lines[1] == "replicate,gini"
        assert lines[2] == "0,0.9" and lines[3] == "1,0.92"
        assert lines[4].startswith("mean,0.91")

    def test_probs_column_reader(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("# cmd\nid,prob\n3,0.25\n1,0.75\n", encoding="utf-8")
        ids, values = load_probs_column_csv(path, "prob")
        assert ids.tolist() == [3, 1]
        assert values.tolist() == [0.25, 0.75]

    def test_probs_column_reader_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("id,prob\n3,0.25\n1,0.75,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2 has 3 cells, expected 2"):
            load_probs_column_csv(path, "prob")

    def test_report_validation(self):
        with pytest.raises(ValueError, match="bracket"):
            MetricReport("gini", 0.5, 0.6, 0.7, (0.5,))
        with pytest.raises(ValueError, match="replicate"):
            MetricReport("gini", 0.5, 0.5, 0.5, ())
