import math

import numpy as np
import pytest

from hardshap._util import largest_remainder
from hardshap.augment import append_batch
from hardshap.dataiq import CheckpointProbs
from hardshap.dataset import Dataset, SplitSpec, load_csv, save_csv, standardize, stratified_split
from hardshap.perturb import PerturbationRecord
from hardshap.valuation import ValuationScores


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDatasetType:
    def test_basic_construction(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], ("a", "b"), [10, 20])
        assert ds.n == 2 and ds.d == 2
        assert ds.features.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            Dataset([[float("nan")]], [0], ("a",), [0])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="invalid label"):
            Dataset([[1.0]], [2], ("a",), [0])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset([[1.0], [2.0]], [0, 1], ("a",), [3, 3])

    def test_arrays_frozen(self):
        ds = Dataset([[1.0]], [0], ("a",), [0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    @pytest.mark.parametrize("build, fields", [
        (lambda a: Dataset(a["x"], a["y"], ("a",), a["i"]),
         {"features": np.float64, "labels": np.int64, "ids": np.int64}),
        (lambda a: ValuationScores(a["s"], a["i"], "tmc_shapley", {}),
         {"scores": np.float64, "ids": np.int64}),
        (lambda a: CheckpointProbs(a["p"], a["i"]), {"probs": np.float64, "ids": np.int64}),
        (lambda a: append_batch(Dataset(a["x"], a["y"], ("a",), a["i"]),
                                Dataset(a["x"], a["y"], ("a",), a["i"])),
         {"features": np.float64, "labels": np.int64, "ids": np.int64}),
        (lambda a: PerturbationRecord(a["f"], "ood", 0.5, 0), {"flags": np.bool_}),
    ])
    def test_records_hold_read_only_copies(self, build, fields):
        given = {"x": np.array([[1.0], [2.0]]), "y": np.array([0, 1]), "i": np.array([4, 7]),
                 "s": np.array([0.5, -0.5]), "p": np.array([[0.1, 0.2], [0.3, 0.4]]),
                 "f": np.array([True, False])}
        record = build(given)
        for name, dtype in fields.items():
            arr = getattr(record, name)
            assert arr.dtype == dtype and not arr.flags.writeable
            assert not any(np.shares_memory(arr, source) for source in given.values())

    def test_positions_of_unknown_id(self):
        ds = Dataset([[1.0], [2.0]], [0, 1], ("a",), [5, 9])
        assert ds.positions_of([9, 5]).tolist() == [1, 0]
        with pytest.raises(KeyError):
            ds.positions_of([7])


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(p, "label")
        assert ds.n == 3
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.ids.tolist() == [0, 1, 2]
        assert ds.feature_names == ("a", "b")

    def test_label_outside_domain(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,label\n1,2\n")
        with pytest.raises(ValueError, match="invalid label"):
            load_csv(p, "label")

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(
            rng.normal(size=(1000, 3)) * rng.uniform(1e-8, 1e8),
            rng.integers(0, 2, 1000) | np.array([1] + [0] * 999),
            ("x", "y", "z"),
            rng.permutation(5000)[:1000],
        )
        path = tmp_path / "d.csv"
        save_csv(ds, path, "label")
        back = load_csv(path, "label")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.ids, ds.ids)
        assert back.feature_names == ds.feature_names

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "label")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing label column"):
            load_csv(p, "label")

    def test_duplicate_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,a,label\n1,2,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(p, "label")

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,label\nfoo,0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p, "label")

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p, "label")

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(p, "label")

    def test_comment_lines_skipped(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "# produced by a run\na,label\n1,0\n2,1\n")
        assert load_csv(p, "label").n == 2


class TestStratifiedSplit:
    def make(self, n, positive_rate, seed=0):
        rng = np.random.default_rng(seed)
        n_pos = round(n * positive_rate)
        labels = np.array([1] * n_pos + [0] * (n - n_pos))
        return Dataset(rng.normal(size=(n, 2)), labels, ("a", "b"), np.arange(n))

    def test_exact_prevalence_when_divisible(self):
        ds = self.make(100, 0.2)
        spec = SplitSpec(0.5, 0.25, 0.25, seed=9)
        train, valid, test = stratified_split(ds, spec)
        assert (train.n, valid.n, test.n) == (50, 25, 25)
        assert train.labels.sum() == 10 and valid.labels.sum() == 5 and test.labels.sum() == 5

    def test_determinism(self):
        ds = self.make(100, 0.2)
        spec = SplitSpec(0.5, 0.25, 0.25, seed=3)
        first = stratified_split(ds, spec)
        second = stratified_split(ds, spec)
        for a, b in zip(first, second):
            assert np.array_equal(a.ids, b.ids)

    def test_prevalence_bound_97_rows(self):
        # independent check of the largest-remainder dealing: per-part
        # prevalence stays within 1/|part| of the overall rate
        ds = self.make(97, 0.3, seed=11)
        overall = ds.labels.mean()
        for part in stratified_split(ds, SplitSpec(0.5, 0.25, 0.25, seed=2)):
            assert abs(part.labels.mean() - overall) <= 1.0 / part.n + 1e-12

    def test_partition_exact(self):
        ds = self.make(97, 0.3, seed=1)
        parts = stratified_split(ds, SplitSpec(0.6, 0.2, 0.2, seed=5))
        all_ids = np.concatenate([p.ids for p in parts])
        assert sorted(all_ids.tolist()) == ds.ids.tolist()
        rebuilt = np.concatenate([p.features for p in parts])[np.argsort(all_ids)]
        assert np.array_equal(rebuilt, ds.features)

    def test_class_too_small(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 1)),
                     [1, 1] + [0] * 8, ("a",), np.arange(10))
        with pytest.raises(ValueError, match="too small"):
            stratified_split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
        # the refusal names the class, either one; at 3 rows every part gets both classes
        for small in (0, 1):
            for rows in (2, 3):
                labels = np.full(12, 1 - small)
                labels[:rows] = small
                ds = Dataset(np.arange(12.0)[:, None], labels, ("a",), np.arange(12))
                if rows == 2:
                    with pytest.raises(ValueError, match=f"^class {small} too small to appear "
                                                         "in every split part$"):
                        stratified_split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
                    continue
                for part in stratified_split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0)):
                    assert set(part.labels.tolist()) == {0, 1}

    def test_matches_the_dealing_loop(self):
        rng = np.random.default_rng(47)
        for _ in range(150):
            n = int(rng.integers(6, 400))
            labels = (rng.random(n) < rng.uniform(0.02, 0.98)).astype(int)
            labels[:2] = [0, 1]
            ds = Dataset(rng.normal(size=(n, 2)), labels, ("a", "b"), rng.permutation(3 * n)[:n])
            f = rng.uniform(0.05, 1.0, 3)
            f_train, f_valid = (f[:2] / f.sum()).tolist()
            spec = SplitSpec(f_train, f_valid, 1.0 - f_train - f_valid, int(rng.integers(2**32)))
            try:
                expected = _loop_stratified_split(ds, spec)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    stratified_split(ds, spec)
                continue
            for got, want in zip(stratified_split(ds, spec), expected):
                for field in ("features", "labels", "ids"):
                    assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.3, 0.3)


def _loop_stratified_split(ds, spec):
    """stratified_split dealing each class's shuffled rows into the parts one slice at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    part_positions = [[], [], []]
    for cls in (0, 1):
        members = np.flatnonzero(ds.labels == cls)
        shuffled = members[rng.permutation(len(members))]
        counts = largest_remainder(len(members), [len(members) * f for f in spec.fractions])
        if min(counts) == 0:
            raise ValueError(f"class {cls} too small to appear in every split part")
        offset = 0
        for part, count in enumerate(counts):
            part_positions[part].extend(shuffled[offset:offset + count].tolist())
            offset += count
    return [ds.take(np.sort(np.asarray(p, dtype=np.intp))) for p in part_positions]


class TestStandardize:
    def test_hand_arithmetic(self):
        ds = Dataset([[1.0], [2.0], [3.0]], [0, 1, 0], ("a",), [0, 1, 2])
        out, _, means, stds = standardize(ds)
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
        assert np.allclose(out.features[:, 0], expected, atol=1e-12)
        assert means[0] == 2.0
        assert abs(stds[0] - math.sqrt(2.0 / 3.0)) < 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), ("a", "b", "c"), np.arange(50))
        once, _, _, _ = standardize(ds)
        twice, _, _, _ = standardize(once)
        assert np.allclose(once.features, twice.features, atol=1e-9)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0], ("c", "v"), [0, 1, 2])
        out, _, _, stds = standardize(ds)
        assert np.all(out.features[:, 0] == 0.0)
        assert stds[0] == 0.0

    def test_same_map_applied_to_others(self):
        rng = np.random.default_rng(3)
        train = Dataset(rng.normal(size=(40, 2)), rng.integers(0, 2, 40), ("a", "b"), np.arange(40))
        other = Dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), ("a", "b"), np.arange(10))
        train_s, (other_s,), means, stds = standardize(train, [other])
        assert np.allclose(other_s.features, (other.features - means) / stds, atol=1e-12)
        assert abs(train_s.features.mean(axis=0)).max() < 1e-9
        assert abs(train_s.features.std(axis=0) - 1.0).max() < 1e-9


class TestStratifiedSplitProperty:
    def test_prevalence_bound_universal(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            st.integers(12, 400),
            st.floats(0.05, 0.95),
            st.floats(0.2, 0.6),
            st.floats(0.1, 0.35),
            st.integers(0, 2**32 - 1),
        )
        def run(n, prevalence, f_train, f_valid, seed):
            n_pos = min(max(round(n * prevalence), 3), n - 3)
            labels = np.zeros(n, dtype=int)
            labels[:n_pos] = 1
            rng = np.random.default_rng(seed)
            ds = Dataset(rng.normal(size=(n, 1)), labels, ("a",), np.arange(n))
            f_test = 1.0 - f_train - f_valid
            if f_test <= 0.05:
                return
            try:
                parts = stratified_split(ds, SplitSpec(f_train, f_valid, f_test, seed))
            except ValueError:
                return  # a class quota hit zero in some part; rejected by contract
            overall = ds.labels.mean()
            for part in parts:
                assert abs(part.labels.mean() - overall) <= 1.0 / part.n + 1e-12

        run()
