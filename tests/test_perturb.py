from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardshap import perturb
from hardshap.dataset import Dataset, standardize
from hardshap.perturb import (
    CHARACTERIZERS,
    PerturbationRecord,
    atypical_scale,
    auprc,
    benchmark,
    mislabel,
    ood_shift,
)

from conftest import random_dataset


def reference_average_precision(scores, flags):
    """Independent AP: step through distinct thresholds, grouping ties."""
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    total_pos = flags.sum()
    ap, prev_recall = 0.0, 0.0
    for threshold in sorted(set(scores.tolist())):
        taken = scores <= threshold
        tp = int((flags & taken).sum())
        recall = tp / total_pos
        precision = tp / int(taken.sum())
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestMislabel:
    def test_counting_contract(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 100)
        out, record = mislabel(ds, 0.1, seed=4)
        assert record.flags.sum() == 10
        assert np.all(out.labels[record.flags] != ds.labels[record.flags])
        assert np.all(out.labels[~record.flags] == ds.labels[~record.flags])

    def test_seed_determinism(self):
        ds = random_dataset(np.random.default_rng(1), 50)
        _, a = mislabel(ds, 0.2, seed=9)
        _, b = mislabel(ds, 0.2, seed=9)
        assert np.array_equal(a.flags, b.flags)

    def test_involution(self):
        ds = random_dataset(np.random.default_rng(2), 40)
        once, record = mislabel(ds, 0.25, seed=3)
        labels = once.labels.copy()
        labels[record.flags] = 1 - labels[record.flags]
        assert np.array_equal(labels, ds.labels)

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_proportion_is_read_as_its_decimal(self, cast):
        # 0.35 * 90 is 31.499999999999996 in floats; the decimal 31.5 rounds half up to 32
        ds = random_dataset(np.random.default_rng(5), 90)
        _, record = mislabel(ds, cast(0.35), seed=1)
        assert record.flags.sum() == 32
        assert PerturbationRecord(np.arange(90) < 32, "mislabeling", 0.35, 1).flags.sum() == 32
        with pytest.raises(ValueError, match="flag count does not match"):
            PerturbationRecord(np.arange(90) < 31, "mislabeling", 0.35, 1)

    def test_a_nan_proportion_is_refused(self):
        with pytest.raises(ValueError, match="share of 10 rows must be finite, got nan"):
            PerturbationRecord(np.zeros(10, bool), "ood", float("nan"), 0)

    def test_degenerate_proportion(self):
        ds = random_dataset(np.random.default_rng(3), 10)
        with pytest.raises(ValueError, match="rounds to"):
            mislabel(ds, 0.01, seed=0)


class TestOodShift:
    def test_zero_magnitude_rejected(self):
        ds = random_dataset(np.random.default_rng(4), 20)
        with pytest.raises(ValueError, match="magnitude"):
            ood_shift(ds, 0.1, magnitude=0.0, seed=0)

    def test_shift_is_scaled_unit_direction(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 50, d=4)
        out, record = ood_shift(ds, 0.2, magnitude=2.5, seed=8)
        sigma = ds.features.std(axis=0)
        delta = out.features[record.flags] - ds.features[record.flags]
        directions = delta / (2.5 * sigma)
        assert np.allclose(np.linalg.norm(directions, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(out.labels, ds.labels)

    def test_large_shift_leaves_bulk(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 400, d=2)
        std_ds, _, _, _ = standardize(ds)
        out, record = ood_shift(std_ds, 0.05, magnitude=5.0, seed=2)
        center = std_ds.features.mean(axis=0)
        clean_r = np.linalg.norm(std_ds.features[~record.flags] - center, axis=1)
        shifted_r = np.linalg.norm(out.features[record.flags] - center, axis=1)
        assert shifted_r.min() > np.quantile(clean_r, 0.99)

    def test_untouched_rows_bit_identical(self):
        ds = random_dataset(np.random.default_rng(7), 60, d=3)
        out, record = ood_shift(ds, 0.1, magnitude=1.0, seed=1)
        assert np.array_equal(out.features[~record.flags], ds.features[~record.flags])


class TestAtypicalScale:
    def symmetric_two_class(self):
        # every row of each class sits at the same within-class radius, so any
        # radius quantile equals the rows' own radius
        c0 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        c1 = c0 + 10.0
        features = np.concatenate([c0, c1])
        labels = np.array([0] * 4 + [1] * 4)
        return Dataset(features, labels, ("a", "b"), np.arange(8))

    def test_fixed_point_when_quantile_matches_radius(self):
        ds = self.symmetric_two_class()
        out, record = atypical_scale(ds, 0.25, quantile=0.97, seed=0)
        assert np.allclose(out.features, ds.features, atol=1e-12)
        assert record.flags.sum() == 2

    def test_moves_rows_to_tail_radius(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 300, d=3)
        out, record = atypical_scale(ds, 0.1, quantile=0.99, seed=5)
        for cls in (0, 1):
            members = ds.labels == cls
            mean = ds.features[members].mean(axis=0)
            var = ds.features[members].var(axis=0)
            clean_radii = np.sqrt((((ds.features[members] - mean) ** 2) / var).sum(axis=1))
            moved = record.flags & members
            moved_radii = np.sqrt((((out.features[moved] - mean) ** 2) / var).sum(axis=1))
            assert np.all(moved_radii >= np.quantile(clean_radii, 0.9) - 1e-9)

    def test_labels_untouched(self):
        ds = random_dataset(np.random.default_rng(9), 80)
        out, record = atypical_scale(ds, 0.2, quantile=0.95, seed=1)
        assert np.array_equal(out.labels, ds.labels)
        assert np.array_equal(out.features[~record.flags], ds.features[~record.flags])

    def test_quantile_domain(self):
        ds = random_dataset(np.random.default_rng(10), 30)
        with pytest.raises(ValueError, match="quantile"):
            atypical_scale(ds, 0.1, quantile=0.5, seed=0)

    def test_rows_at_the_class_mean_match_the_row_loop(self):
        # symmetric integer rows put each class mean exactly on some rows,
        # which then move along a random direction drawn in draw order
        at_mean = 0
        for case in range(40):
            rng = np.random.default_rng(300 + case)
            d = 1 + case % 12
            blocks, labels = [], []
            for cls in (0, 1):
                V = rng.integers(-3, 4, size=(int(rng.integers(2, 12)), d)).astype(float)
                block = np.vstack([V, -V, np.zeros((int(rng.integers(1, 6)), d))]) + 4.0 * cls
                blocks.append(block)
                labels += [cls] * len(block)
            order = rng.permutation(len(labels))
            ds = Dataset(np.vstack(blocks)[order], np.array(labels)[order],
                         tuple(f"f{j}" for j in range(d)), np.arange(len(labels)))
            p, seed = float(rng.uniform(0.2, 0.8)), case
            out, record = atypical_scale(ds, p, quantile=0.95, seed=seed)
            assert out.features.tobytes() == _loop_atypical_features(ds, p, 0.95, seed).tobytes()
            at_mean += int((record.flags & (ds.features == 4.0 * ds.labels[:, None]).all(1)).sum())
        assert at_mean > 40

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 30])
    def test_matches_the_row_loop(self, d):
        rng = np.random.default_rng(d)
        ds = random_dataset(rng, 150, d=d)
        ds = ds.with_features(ds.features * rng.uniform(0.1, 10.0, d))
        out, _ = atypical_scale(ds, 0.3, quantile=0.97, seed=d)
        assert out.features.tobytes() == _loop_atypical_features(ds, 0.3, 0.97, d).tobytes()

    def test_singleton_class_rejected(self):
        ds = Dataset([[0.0], [1.0], [2.0]], [0, 0, 1], ("a",), [0, 1, 2])
        with pytest.raises(ValueError, match="single member"):
            atypical_scale(ds, 0.34, quantile=0.95, seed=0)


def _loop_atypical_features(ds, p, quantile, seed):
    """atypical_scale's moved features, one picked row at a time per class."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = perturb._pick_rows(ds.n, p, rng)
    features = ds.features.copy()
    for cls in np.unique(ds.labels):
        members = np.flatnonzero(ds.labels == cls)
        mean = ds.features[members].mean(axis=0)
        var = ds.features[members].var(axis=0)
        safe_var = np.where(var == 0, 1.0, var)
        radii = np.sqrt((((ds.features[members] - mean) ** 2) / safe_var).sum(axis=1))
        target = float(np.quantile(radii, quantile))
        for row in rows:
            if ds.labels[row] != cls:
                continue
            offset = ds.features[row] - mean
            radius = float(np.sqrt(((offset**2) / safe_var).sum()))
            if radius == 0.0:
                direction = rng.standard_normal(ds.d) * np.sqrt(safe_var)
                radius = float(np.sqrt(((direction**2) / safe_var).sum()))
                offset = direction
            features[row] = mean + offset * (target / radius)
    return features


def _loop_auprc(scores, flags):
    """auprc as a loop over threshold steps, the order its sum must keep."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    positives = int(flags.sum())
    order = np.argsort(scores, kind="stable")
    ranked_scores = scores[order]
    ranked_flags = flags[order]
    ap = 0.0
    tp = fp = 0
    recall_prev = 0.0
    start = 0
    n = scores.shape[0]
    while start < n:
        stop = start
        while stop < n and ranked_scores[stop] == ranked_scores[start]:
            stop += 1
        tp += int(ranked_flags[start:stop].sum())
        fp += stop - start - int(ranked_flags[start:stop].sum())
        recall = tp / positives
        precision = tp / (tp + fp)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
        start = stop
    return ap


class TestAuprc:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ties", "constant", "distinct"]),
           st.integers(2, 2000))
    def test_bit_equal_to_loop_reference(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        if shape == "ties":
            scores = rng.integers(0, int(rng.integers(2, n + 2)), size=n) / 3.0
        elif shape == "constant":
            scores = np.full(n, 0.7)
        else:
            scores = rng.permutation(n) / 7.0
        flags = rng.uniform(size=n) < rng.uniform(0.01, 0.99)
        if not 0 < flags.sum() < n:
            flags[0], flags[1] = True, False
        got = auprc(scores, flags)
        assert type(got) is float
        assert got == _loop_auprc(scores, flags)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auprc([np.nan, 0.1, 0.2], [True, False, True])

    def test_perfect_ranking(self):
        assert auprc([0.0, 0.1, 0.9, 1.0], [True, True, False, False]) == 1.0

    def test_constant_scores_give_prevalence(self):
        assert auprc([0.5] * 10, [True] * 3 + [False] * 7) == pytest.approx(0.3)

    def test_four_point_cases_against_oracle(self):
        scores = [0.1, 0.9, 0.2, 0.8]
        for flags in ([True, False, True, False], [False, True, False, True]):
            assert auprc(scores, flags) == pytest.approx(
                reference_average_precision(scores, flags)
            )
        assert auprc(scores, [True, False, True, False]) == 1.0
        assert auprc(scores, [False, True, False, True]) == pytest.approx(5 / 12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_oracle_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # forces ties
        flags = rng.uniform(size=n) < 0.4
        if not 0 < flags.sum() < n:
            flags[0], flags[1] = True, False
        assert auprc(scores, flags) == pytest.approx(
            reference_average_precision(scores, flags)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=20)
        flags = rng.uniform(size=20) < 0.3
        if not 0 < flags.sum() < 20:
            flags[0], flags[1] = True, False
        base = auprc(scores, flags)
        assert auprc(3.0 * scores + 7.0, flags) == pytest.approx(base)
        assert auprc(np.tanh(scores), flags) == pytest.approx(base)

    def test_degrades_under_nested_swaps(self):
        # walk the perfect ranking toward the worst one by moving one flag at
        # a time from the hard end to the easy end; AP must never increase
        n = 12
        scores = np.arange(n, dtype=float)
        work = np.array([True] * 4 + [False] * 8)
        values = [auprc(scores, work)]
        for step in range(4):
            work[step], work[n - 1 - step] = False, True
            values.append(auprc(scores, work))
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5

    def test_flag_preconditions(self):
        with pytest.raises(ValueError):
            auprc([0.1, 0.2], [True, True])
        with pytest.raises(ValueError):
            auprc([0.1, 0.2], [False, False])


@pytest.fixture(scope="module")
def blob_ds():
    rng = np.random.default_rng(12)
    n = 400
    centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
    labels = rng.integers(0, 2, n)
    features = centers[labels] + rng.normal(size=(n, 2))
    return Dataset(features, labels, ("x1", "x2"), np.arange(n))


class TestBenchmark:

    def test_table_shape(self, blob_ds):
        rows = benchmark(
            blob_ds, kinds=("mislabeling", "ood"), proportions=(0.1, 0.2),
            characterizers=("knn_shapley", "random"), runs=2, seed=0,
        )
        assert len(rows) == 2 * 2 * 2 * 2
        cells = {(r.kind, r.proportion, r.characterizer, r.run) for r in rows}
        assert len(cells) == len(rows)

    def test_random_baseline_near_prevalence(self, blob_ds):
        rows = benchmark(
            blob_ds, kinds=("mislabeling",), proportions=(0.1,),
            characterizers=("random",), runs=5, seed=1,
        )
        values = np.array([r.auprc for r in rows])
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - 0.1) <= 3 * se

    def test_knn_shapley_beats_chance_on_mislabeling(self, blob_ds):
        rows = benchmark(
            blob_ds, kinds=("mislabeling",), proportions=(0.1,),
            characterizers=("knn_shapley",), runs=3, seed=2,
        )
        assert np.mean([r.auprc for r in rows]) > 0.5

    def test_deterministic_and_thread_invariant(self, blob_ds):
        kwargs = dict(
            kinds=("mislabeling", "atypical"), proportions=(0.1,),
            characterizers=("knn_shapley", "random"), runs=2, seed=3,
        )
        a = benchmark(blob_ds, **kwargs)
        b = benchmark(blob_ds, **kwargs)
        c = benchmark(blob_ds, threads=4, **kwargs)
        assert a == b == c

    def test_scores_do_not_depend_on_the_other_characterizers(self, blob_ds):
        kwargs = dict(kinds=("mislabeling",), proportions=(0.1,), runs=1, seed=0,
                      n_checkpoints=4)
        alone = {name: benchmark(blob_ds, characterizers=(name,), **kwargs)[0].auprc
                 for name in CHARACTERIZERS}
        for size in (2, 3):
            for selection in permutations(CHARACTERIZERS, size):
                rows = benchmark(blob_ds, characterizers=selection, **kwargs)
                assert {row.characterizer: row.auprc for row in rows} == {
                    name: alone[name] for name in selection}, selection

    def test_unknown_characterizer(self, blob_ds):
        with pytest.raises(ValueError, match="unknown characterizers"):
            benchmark(blob_ds, characterizers=("vog",))

    @pytest.mark.parametrize("bad, message", [
        ({"kinds": ("mislabeling", "bogus")}, r"unknown kinds: \['bogus'\]"),
        ({"proportions": (0.1, 1.5)}, r"proportions must lie in \(0, 1\)"),
        ({"proportions": (0.1, 0.0)}, r"proportions must lie in \(0, 1\)"),
        ({"proportions": (0.1, float("nan"))}, r"proportions must lie in \(0, 1\)"),
    ], ids=["unknown-kind", "proportion-above-1", "proportion-0", "proportion-nan"])
    def test_bad_kinds_and_proportions_refused_before_any_cell_runs(self, blob_ds, monkeypatch,
                                                                    bad, message):
        def no_cell_may_run(*args, **kwargs):
            raise AssertionError("a cell ran before the arguments were checked")

        monkeypatch.setattr(perturb, "knn_shapley", no_cell_may_run)
        with pytest.raises(ValueError, match=message):
            benchmark(blob_ds, characterizers=("knn_shapley",), runs=1, **bad)

    @pytest.mark.parametrize("repeat", [{"kinds": ("ood", "ood")}, {"proportions": (0.1, 0.1)},
                                        {"characterizers": ("random", "random")}])
    def test_repeated_values_rejected(self, blob_ds, repeat):
        with pytest.raises(ValueError, match=f"{next(iter(repeat))} must not repeat a value"):
            benchmark(blob_ds, runs=1, **repeat)
