import json
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hardshap.augment import (
    ExternalGeneratorError,
    GeneratorSpec,
    _class_allocation,
    append_batch,
    external_generate,
    generate,
    smote_generate,
    synthetic_rows,
    targeted_augment,
    weighted_ks,
)
from hardshap._util import parallel_map
from hardshap.dataset import Dataset, load_csv, save_csv
from hardshap.valuation import ValuationScores, hardest_subset

from conftest import random_dataset


def scored(ds, seed=0):
    rng = np.random.default_rng(seed)
    return ValuationScores(rng.normal(size=ds.n), ds.ids, "tmc_shapley", {})


class TestSmote:
    def test_segment_convexity_1d(self):
        source = Dataset([[0.0], [1.0]], [1, 1], ("x",), [0, 1])
        batch = smote_generate(source, 40, k_neighbors=1, seed=0)
        assert batch.features.min() >= 0.0 and batch.features.max() <= 1.0
        assert np.all(batch.labels == 1)

    def test_duplicate_location_neighbors_reproduce_seed_row(self):
        # partner == base, so x + u*(partner - x) == x regardless of u
        source = Dataset([[2.0, 3.0]] * 3, [0, 0, 0], ("a", "b"), [0, 1, 2])
        batch = smote_generate(source, 10, k_neighbors=1, seed=1)
        assert np.all(batch.features == np.array([2.0, 3.0]))

    def test_class_proportions_preserved(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(100, 2))
        labels = np.array([0] * 70 + [1] * 30)
        source = Dataset(features, labels, ("a", "b"), np.arange(100))
        for m in (10, 33, 100):
            batch = smote_generate(source, m, k_neighbors=3, seed=2)
            zeros = int((batch.labels == 0).sum())
            assert abs(zeros - 0.7 * m) < 1.0
        assert batch.n == 100

    def test_rows_within_class_envelope(self):
        rng = np.random.default_rng(4)
        source = random_dataset(rng, 60, d=3)
        batch = smote_generate(source, 200, k_neighbors=4, seed=7)
        for cls in (0, 1):
            members = source.features[source.labels == cls]
            rows = batch.features[batch.labels == cls]
            assert np.all(rows >= members.min(axis=0) - 1e-12)
            assert np.all(rows <= members.max(axis=0) + 1e-12)

    def test_small_class_rejected(self):
        source = Dataset([[0.0], [1.0], [2.0]], [0, 0, 1], ("x",), [0, 1, 2])
        with pytest.raises(ValueError, match="needs at least"):
            smote_generate(source, 10, k_neighbors=2, seed=0)

    def test_zero_rows_rejected(self):
        source = Dataset([[0.0], [1.0]], [1, 1], ("x",), [0, 1])
        with pytest.raises(ValueError, match="positive"):
            smote_generate(source, 0, k_neighbors=1, seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        source = random_dataset(rng, 40)
        a = smote_generate(source, 25, k_neighbors=3, seed=11)
        b = smote_generate(source, 25, k_neighbors=3, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def _smote_on_full_class_graph(source, m, k_neighbors, seed):
    """SMOTE drawing partners from every class row's full stable distance order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = _class_allocation(source.labels, m)
    rows = []
    for cls in sorted(counts):
        if counts[cls] == 0:
            continue
        X = source.features[source.labels == cls]
        neighbor_idx = np.argsort(cdist(X, X), axis=1, kind="stable")[:, 1:k_neighbors + 1]
        picks = rng.integers(0, X.shape[0], size=counts[cls])
        neighbor_pick = rng.integers(0, k_neighbors, size=counts[cls])
        u = rng.uniform(size=counts[cls])[:, None]
        base = X[picks]
        rows.append(base + u * (X[neighbor_idx[picks, neighbor_pick]] - base))
    return np.concatenate(rows)


class TestSmoteAgainstFullGraph:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_full_graph_reference_on_duplicate_lattices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        features = rng.integers(0, 3, size=(n, 2)).astype(float)
        labels = rng.integers(0, 2, size=n)
        labels[:2], labels[2:4] = 0, 1
        source = Dataset(features, labels, ("a", "b"), rng.permutation(n))
        for cls in (0, 1):
            X = features[labels == cls]
            first = np.argsort(cdist(X, X), axis=1, kind="stable")[:, 0]
            # a duplicate row stored earlier ranks ahead of the row itself
            assert (first != np.arange(X.shape[0])).any()
        smallest_class = int(min((labels == 0).sum(), (labels == 1).sum()))
        for k in range(1, smallest_class):
            for m in (1, n // 3 + 1, 3 * n):
                batch = smote_generate(source, m, k_neighbors=k, seed=seed + m)
                assert np.array_equal(
                    batch.features, _smote_on_full_class_graph(source, m, k, seed + m)
                )


class TestSyntheticRows:
    @pytest.mark.parametrize("amount, n, expected", [(0.7, 45, 32), (2.3, 25, 58)])
    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_amount_is_read_as_its_decimal(self, amount, n, expected, cast):
        # 0.7 * 45 is 31.499999999999996 in floats; the decimal 31.5 rounds half up to 32
        assert synthetic_rows(cast(amount), n) == expected

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_a_non_finite_amount_is_refused(self, amount):
        with pytest.raises(ValueError, match=f"share of 10 rows must be finite, got {amount}"):
            synthetic_rows(amount, 10)

    def test_exact_half_sizes_the_appended_batch(self):
        train = random_dataset(np.random.default_rng(11), 450, d=2)
        out = targeted_augment(train, scored(train), 0.1, 0.7,
                               GeneratorSpec("smote", {"k_neighbors": 1, "seed": 0}))
        assert out.n == 450 + 32


class TestTargetedAugment:
    def test_paper_sizing(self):
        rng = np.random.default_rng(6)
        train = random_dataset(rng, 5000, d=2)
        out = targeted_augment(train, scored(train), 0.05, 1.0,
                               GeneratorSpec("smote", {"k_neighbors": 5, "seed": 0}))
        assert out.n == 5250

    def test_non_targeted_baseline_sizing(self):
        rng = np.random.default_rng(7)
        train = random_dataset(rng, 500, d=2)
        out = targeted_augment(train, scored(train), 1.0, 0.1,
                               GeneratorSpec("smote", {"k_neighbors": 3, "seed": 0}))
        assert out.n == 550

    def test_zero_batch_rejected(self):
        rng = np.random.default_rng(8)
        train = random_dataset(rng, 100, d=2)
        with pytest.raises(ValueError, match="rounds to zero"):
            targeted_augment(train, scored(train), 0.1, 1e-9,
                             GeneratorSpec("smote", {"k_neighbors": 2, "seed": 0}))

    def test_originals_untouched_and_ids_fresh(self):
        rng = np.random.default_rng(9)
        train = random_dataset(rng, 200, d=2)
        out = targeted_augment(train, scored(train), 0.2, 0.5,
                               GeneratorSpec("smote", {"k_neighbors": 3, "seed": 4}))
        assert np.array_equal(out.features[:200], train.features)
        assert np.array_equal(out.ids[:200], train.ids)
        assert len(np.unique(out.ids)) == out.n
        assert out.ids[200:].min() > train.ids.max()

    def test_batch_is_the_rows_appended_to_train(self):
        rng = np.random.default_rng(19)
        train = random_dataset(rng, 120, d=2)
        spec = GeneratorSpec("smote", {"k_neighbors": 3, "seed": 5})
        hard = hardest_subset(train, scored(train), 0.25)
        batch = generate(hard, synthetic_rows(0.4, hard.n), spec)
        out = targeted_augment(train, scored(train), 0.25, 0.4, spec)
        assert batch.n == out.n - train.n == 12
        assert np.array_equal(out.features[train.n:], batch.features)
        assert np.array_equal(out.labels[train.n:], batch.labels)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(10)
        train = random_dataset(rng, 150, d=3)
        spec = GeneratorSpec("smote", {"k_neighbors": 4, "seed": 21})
        a = targeted_augment(train, scored(train), 0.1, 2.0, spec)
        b = targeted_augment(train, scored(train), 0.1, 2.0, spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestExternalGenerator:
    def test_file_handshake(self, stub_command, private_tempdir):
        # the stub copies the rows it was given, so the batch shows what {in} held
        rng = np.random.default_rng(11)
        source = random_dataset(rng, 30, d=2)
        batch = external_generate(source, 10, stub_command("copy"))
        assert batch.n == 10
        assert np.array_equal(batch.features, source.features[:10])
        assert np.array_equal(batch.labels, source.labels[:10])
        assert list(private_tempdir.iterdir()) == []

    def test_placeholders_are_filled_in_each_argument(self, tmp_path, monkeypatch, stub_command,
                                                      private_tempdir):
        monkeypatch.chdir(tmp_path)
        source = random_dataset(np.random.default_rng(20), 12, d=3)
        command = [*stub_command("log"), "m={m},seed={seed}", "{other} {m"]
        batch = external_generate(source, 7, command, seed=5)
        mode, src, out, m, seed, both, other = json.loads((tmp_path / "argv.json").read_text())
        assert (mode, m, seed, both, other) == ("log", "7", "5", "m=7,seed=5", "{other} {m")
        assert Path(src).parent == Path(out).parent
        assert Path(src).parent.parent == private_tempdir
        assert (Path(src).name, Path(out).name) == ("in.csv", "out.csv")
        assert np.array_equal(batch.features, source.features[:7] + 5)
        assert list(private_tempdir.iterdir()) == []

    def test_generate_passes_the_seed(self, stub_command):
        source = random_dataset(np.random.default_rng(21), 10, d=2)
        for seed in (3, 4):
            spec = GeneratorSpec("external", {"command": stub_command("copy"), "seed": seed})
            assert np.array_equal(generate(source, 4, spec).features, source.features[:4] + seed)

    def test_missing_output_reported(self, stub_command, private_tempdir):
        source = random_dataset(np.random.default_rng(12), 20, d=2)
        with pytest.raises(ExternalGeneratorError, match=r"wrote no \{out\} file"):
            external_generate(source, 5, stub_command("none"))
        assert list(private_tempdir.iterdir()) == []

    def test_label_domain_validated(self, stub_command, private_tempdir):
        # every source row has label 0, so the foreign stub's label 1 is absent from it
        rng = np.random.default_rng(13)
        source = Dataset(rng.normal(size=(10, 2)), [0] * 10, ("f0", "f1"), np.arange(10))
        with pytest.raises(ExternalGeneratorError, match="labels absent"):
            external_generate(source, 4, stub_command("foreign"))
        assert list(private_tempdir.iterdir()) == []

    @pytest.mark.parametrize("mode, message", [
        ("short", "produced 3 rows, need 4"),
        ("wide", "external rows have 3 features, not 2"),
    ])
    def test_a_bad_run_is_reported(self, stub_command, private_tempdir, mode, message):
        source = random_dataset(np.random.default_rng(14), 10, d=2)
        with pytest.raises(ExternalGeneratorError, match=message):
            external_generate(source, 4, stub_command(mode))
        assert list(private_tempdir.iterdir()) == []

    def test_failure_names_the_program_and_its_stderr(self, stub_command, private_tempdir):
        source = random_dataset(np.random.default_rng(15), 20, d=2)
        command = stub_command("fail")
        with pytest.raises(ExternalGeneratorError) as raised:
            external_generate(source, 5, command)
        assert str(raised.value) == (f"external generator {command[0]} exited with code 3: "
                                     "stub refuses to generate")
        assert list(private_tempdir.iterdir()) == []

    def test_concurrent_calls_share_no_file(self, stub_command, private_tempdir):
        rng = np.random.default_rng(22)
        sources = [random_dataset(rng, n, d=2) for n in (9, 10, 11, 12)]
        batches = parallel_map(lambda source: external_generate(source, source.n,
                                                                stub_command("copy")),
                               sources, threads=4)
        for source, batch in zip(sources, batches):
            assert np.array_equal(batch.features, source.features)
            assert np.array_equal(batch.labels, source.labels)
        assert list(private_tempdir.iterdir()) == []

    def test_generate_dispatch_requires_a_command(self, tmp_path):
        # a bare string would run each of its characters as an argument
        path = str(tmp_path / "rows.csv")
        for params in ({}, {"command": []}, {"command": ""}, {"command": "python gen.py"},
                       {"exec_in": path, "exec_out": path}):
            with pytest.raises(ValueError, match="needs a command"):
                GeneratorSpec("external", params)

    @pytest.mark.parametrize("command", ["true", "", []], ids=["str", "empty-str", "empty-list"])
    def test_a_str_or_empty_command_is_refused_before_it_runs(self, monkeypatch, private_tempdir,
                                                              command):
        # "true" would run each of its characters as an argument, so "t" first
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: pytest.fail("a process ran"))
        source = random_dataset(np.random.default_rng(16), 10, d=2)
        with pytest.raises(ValueError, match="needs a command"):
            external_generate(source, 3, command)
        assert list(private_tempdir.iterdir()) == []


class TestWeightedKs:
    def batch(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        m, d = rows.shape
        return Dataset(rows, np.zeros(m, dtype=int), tuple(f"f{j}" for j in range(d)), np.arange(m))

    def test_identical_samples_score_zero(self):
        rng = np.random.default_rng(15)
        real = random_dataset(rng, 50, d=3)
        assert weighted_ks(real, self.batch(real.features)) == 0.0

    def test_disjoint_supports_score_one(self):
        real = Dataset([[0.0], [1.0]], [0, 1], ("x",), [0, 1])
        assert weighted_ks(real, self.batch([[10.0], [11.0]])) == 1.0

    def test_half_matching_features(self):
        real = Dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                       [0, 1, 0, 1], ("f1", "f2"), [0, 1, 2, 3])
        synth = self.batch([[0.0, 10.0], [1.0, 11.0], [2.0, 10.0], [3.0, 11.0]])
        assert weighted_ks(real, synth, np.array([1.0, 1.0])) == 0.5

    def test_symmetric_in_real_and_synth(self):
        rng = np.random.default_rng(16)
        a = random_dataset(rng, 30, d=2)
        b_rows = rng.normal(size=(20, 2))
        forward = weighted_ks(a, self.batch(b_rows))
        swapped = weighted_ks(
            Dataset(b_rows, np.zeros(20, dtype=int) | np.array([1] + [0] * 19),
                    ("f0", "f1"), np.arange(20)),
            self.batch(a.features),
        )
        assert forward == pytest.approx(swapped)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        real = random_dataset(rng, 25, d=2)
        rows = rng.normal(size=(15, 2))
        base = weighted_ks(real, self.batch(rows))
        transformed_real = real.with_features(np.exp(real.features / 3.0))
        transformed_rows = np.exp(rows / 3.0)
        assert weighted_ks(transformed_real, self.batch(transformed_rows)) == pytest.approx(base)

    def test_weight_validation(self):
        rng = np.random.default_rng(17)
        real = random_dataset(rng, 10, d=2)
        batch = self.batch(rng.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="zero"):
            weighted_ks(real, batch, np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative|length-d"):
            weighted_ks(real, batch, np.array([-1.0, 2.0]))


class TestAppendBatch:
    def test_fresh_ids_disjoint(self):
        rng = np.random.default_rng(18)
        train = Dataset(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0], ("a", "b"),
                        [100, 3, 7, 9, 55])
        batch = Dataset(rng.normal(size=(3, 2)), [0, 1, 0], ("a", "b"), [0, 1, 2])
        out = append_batch(train, batch)
        assert out.ids[:5].tolist() == [100, 3, 7, 9, 55]
        assert out.ids[5:].tolist() == [101, 102, 103]
