import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardshap import evaluation
from hardshap.augment import GeneratorSpec, targeted_augment
from hardshap.dataset import Dataset
from hardshap.evaluation import (
    AugmentPipelineConfig,
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
from hardshap.valuation import ValuationScores, knn_shapley

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
    gen = GeneratorSpec("smote", {"k_neighbors": 2, "seed": 0})
    return AugmentPipelineConfig(train, valid, scores, 0.3, 1.0, gen, downstream_k=9)


class TestRepeatedGini:

    def test_deterministic_given_base_seed(self, pipeline):
        a = repeated_gini(pipeline, replicates=4, base_seed=5)
        b = repeated_gini(pipeline, replicates=4, base_seed=5)
        assert a == b

    def test_report_shape(self, pipeline):
        report = repeated_gini(pipeline, replicates=5, base_seed=1)
        assert len(report.replicates) == 5
        assert report.ci_low <= report.point <= report.ci_high
        assert report.metric == "gini"

    def test_needs_two_replicates(self, pipeline):
        with pytest.raises(ValueError, match="2 replicates"):
            repeated_gini(pipeline, replicates=1, base_seed=0)

    def test_thread_count_invariance(self, pipeline):
        a = repeated_gini(pipeline, replicates=4, base_seed=2, threads=1)
        b = repeated_gini(pipeline, replicates=4, base_seed=2, threads=4)
        assert a == b


def _hard_rows(tau, n):
    # ceil(tau*n) for tau as written: in floats 0.07 * 100 rounds up to 8
    return math.ceil(Fraction(repr(tau)) * n)


def _nontargeted_amount(tau, n):
    # the matched budget acceptance criterion 08 gives the tau = 1 arm
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

    def test_arms_share_generator_seeds(self, pipeline, monkeypatch):
        seen = {}

        def recording_augment(train, scores, tau, amount, gen):
            seen.setdefault(tau, []).append(gen.params["seed"])
            return targeted_augment(train, scores, tau, amount, gen)

        monkeypatch.setattr(evaluation, "targeted_augment", recording_augment)
        nontargeted = dataclasses.replace(
            pipeline, tau=1.0, amount=_nontargeted_amount(pipeline.tau, pipeline.train.n)
        )
        repeated_gini(pipeline, replicates=4, base_seed=42)
        repeated_gini(nontargeted, replicates=4, base_seed=42)
        assert len(seen[pipeline.tau]) == 4
        assert seen[pipeline.tau] == seen[1.0]


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
        hard = removal_curve(train, valid, scores, [0.0], "hardest", seed=0, k=9)
        rand = removal_curve(train, valid, scores, [0.0], "random", seed=0, k=9)
        assert hard == rand

    def test_row_count(self, data):
        train, valid, scores = data
        curve = removal_curve(train, valid, scores, [0.0, 0.1, 0.2], "hardest", seed=0, k=9)
        assert [f for f, _ in curve] == [0.0, 0.1, 0.2]

    def test_fraction_validation(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="ascending"):
            removal_curve(train, valid, scores, [0.2, 0.1], "hardest", 0)
        with pytest.raises(ValueError, match="ascending"):
            removal_curve(train, valid, scores, [0.5, 1.0], "hardest", 0)

    def test_single_class_remainder_rejected(self):
        # the only label-0 row is the hardest, so dropping one point leaves a
        # single-class training set
        train = Dataset([[0.0], [0.1], [5.0]], [1, 1, 0], ("x",), [0, 1, 2])
        valid = Dataset([[0.0], [5.0]], [1, 0], ("x",), [0, 1])
        scores = ValuationScores([0.5, 0.6, -1.0], train.ids, "random", {})
        with pytest.raises(ValueError, match="single-class"):
            removal_curve(train, valid, scores, [0.4], "hardest", 0, k=1)

    def test_unknown_strategy(self, data):
        train, valid, scores = data
        with pytest.raises(ValueError, match="strategy"):
            removal_curve(train, valid, scores, [0.1], "easiest", 0)


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

    def test_report_validation(self):
        with pytest.raises(ValueError, match="bracket"):
            MetricReport("gini", 0.5, 0.6, 0.7, (0.5,))
        with pytest.raises(ValueError, match="replicate"):
            MetricReport("gini", 0.5, 0.5, 0.5, ())
