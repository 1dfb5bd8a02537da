import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardshap.dataiq import (
    CheckpointProbs,
    aleatoric,
    bagged_checkpoint_probs,
    confidence,
    load_probs_csv,
    save_probs_csv,
    save_tags_csv,
    tag,
)
from hardshap.dataset import Dataset
from hardshap.neighbors import QUERY_CHUNK


def probs(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return CheckpointProbs(rows, np.arange(rows.shape[0]))


class TestConfidence:
    def test_constant_row(self):
        assert confidence(probs([[0.5, 0.5, 0.5]]))[0] == 0.5

    def test_mean_row(self):
        assert abs(confidence(probs([[0.2, 0.4, 0.6]]))[0] - 0.4) < 1e-15

    def test_boundary(self):
        assert confidence(probs([[1.0, 1.0]]))[0] == 1.0


class TestAleatoric:
    def test_maximum_at_half(self):
        assert aleatoric(probs([[0.5, 0.5]]))[0] == 0.25

    def test_deterministic_checkpoints(self):
        assert aleatoric(probs([[0.0, 1.0]]))[0] == 0.0

    def test_mean_of_p_one_minus_p(self):
        got = aleatoric(probs([[0.2, 0.4, 0.6]]))[0]
        assert abs(got - (0.16 + 0.24 + 0.24) / 3) < 1e-15

    @settings(max_examples=60)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_bounds_and_zero_condition(self, row):
        value = aleatoric(probs([row]))[0]
        assert 0.0 <= value <= 0.25
        assert (value == 0.0) == all(p in (0.0, 1.0) for p in row)


class TestTag:
    def test_easy(self):
        assert tag(np.array([0.9]), np.array([0.05])).tag == ("Easy",)

    def test_hard(self):
        assert tag(np.array([0.1]), np.array([0.05])).tag == ("Hard",)

    def test_ambiguous(self):
        assert tag(np.array([0.5]), np.array([0.24])).tag == ("Ambiguous",)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="below"):
            tag(np.array([0.5]), np.array([0.1]), thresholds=(0.8, 0.2, 0.2))

    @settings(max_examples=80)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.25))
    def test_partition_exhaustive_and_exclusive(self, conf, aleo):
        got = tag(np.array([conf]), np.array([aleo])).tag[0]
        easy = conf >= 0.75 and aleo <= 0.2
        hard = conf <= 0.25 and aleo <= 0.2
        assert got in ("Easy", "Hard", "Ambiguous")
        assert got == ("Easy" if easy else "Hard" if hard else "Ambiguous")

    def test_checkpoint_order_irrelevant(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(size=(20, 6))
        cp = probs(matrix)
        shuffled = probs(matrix[:, rng.permutation(6)])
        assert np.allclose(confidence(cp), confidence(shuffled))
        assert np.allclose(aleatoric(cp), aleatoric(shuffled))
        assert tag(confidence(cp), aleatoric(cp)).tag == tag(
            confidence(shuffled), aleatoric(shuffled)
        ).tag


def two_blobs(n_per_class, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    features = np.concatenate(
        [
            rng.normal((-3.0, 0.0), spread, size=(n_per_class, 2)),
            rng.normal((3.0, 0.0), spread, size=(n_per_class, 2)),
        ]
    )
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(features, labels, ("x1", "x2"), np.arange(2 * n_per_class))


class TestBaggedCheckpoints:
    def test_separable_blobs_confident(self):
        cp = bagged_checkpoint_probs(two_blobs(60), n_checkpoints=6, k=5, seed=1)
        assert confidence(cp).mean() > 0.9

    def test_seed_determinism(self):
        ds = two_blobs(30)
        a = bagged_checkpoint_probs(ds, n_checkpoints=2, k=3, seed=7)
        b = bagged_checkpoint_probs(ds, n_checkpoints=2, k=3, seed=7)
        assert np.array_equal(a.probs, b.probs)

    def test_planted_mislabeled_point_tagged_hard(self):
        ds = two_blobs(60, seed=3)
        labels = ds.labels.copy()
        labels[0] = 1  # deep inside the label-0 blob
        planted = ds.with_labels(labels)
        cp = bagged_checkpoint_probs(planted, n_checkpoints=10, k=5, seed=2)
        conf = confidence(cp)
        assert conf[0] < 0.25
        assert tag(conf, aleatoric(cp)).tag[0] == "Hard"

    def test_k_exceeding_pool_rejected(self):
        ds = two_blobs(3)
        with pytest.raises(ValueError, match="pool"):
            bagged_checkpoint_probs(ds, n_checkpoints=2, k=6, seed=0)

    def test_blocked_distances_match_full_matrix(self):
        # three distance blocks, on a lattice so distances tie, with K up to
        # the in-bag pool limit: n less the most copies of one row in a bag
        rng = np.random.default_rng(4)
        n = 2 * QUERY_CHUNK + 88
        ds = Dataset(rng.integers(0, 4, size=(n, 2)).astype(float), np.arange(n) % 2,
                     ("x1", "x2"), np.arange(n))
        bags = [np.random.default_rng(child).integers(0, n, size=n)
                for child in np.random.SeedSequence(7).spawn(3)]
        pool = min(n - int(np.bincount(bag).max()) for bag in bags)
        for k in (5, pool):
            got = bagged_checkpoint_probs(ds, n_checkpoints=3, k=k, seed=7).probs
            for e, bag in enumerate(bags):
                dist = np.linalg.norm(ds.features[:, None, :] - ds.features[bag][None], axis=2)
                dist[np.arange(n)[:, None] == bag[None, :]] = np.inf
                nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
                expected = (ds.labels[bag[nearest]] == ds.labels[:, None]).mean(axis=1)
                assert np.array_equal(got[:, e], expected)
        with pytest.raises(ValueError, match=rf"smallest pool {pool}\)"):
            bagged_checkpoint_probs(ds, n_checkpoints=3, k=pool + 1, seed=7)

    def test_thread_count_invariance(self):
        ds = two_blobs(25)
        a = bagged_checkpoint_probs(ds, n_checkpoints=4, k=3, seed=5, threads=1)
        b = bagged_checkpoint_probs(ds, n_checkpoints=4, k=3, seed=5, threads=4)
        assert np.array_equal(a.probs, b.probs)


class TestCsv:
    def test_probs_round_trip(self, tmp_path):
        cp = probs(np.random.default_rng(1).uniform(size=(5, 3)))
        path = tmp_path / "probs.csv"
        save_probs_csv(cp, path, header_comment="x")
        back = load_probs_csv(path)
        assert np.array_equal(back.probs, cp.probs)
        assert np.array_equal(back.ids, cp.ids)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,0.5\n", "row 1 has 2 cells, expected 3"),
            ("1,0.5,0.25\n2,0.5,0.25,1.0\n", "row 2 has 4 cells, expected 3"),
        ],
    )
    def test_ragged_rows_rejected(self, tmp_path, body, message):
        path = tmp_path / "probs.csv"
        path.write_text("id,p_1,p_2\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_probs_csv(path)

    def test_tags_csv_layout(self, tmp_path):
        tags = tag(np.array([0.9, 0.1]), np.array([0.05, 0.05]))
        path = tmp_path / "tags.csv"
        save_tags_csv(tags, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,confidence,aleatoric,tag"
        assert lines[1].endswith("Easy") and lines[2].endswith("Hard")


class TestCheckpointProbsType:
    def test_needs_two_checkpoints(self):
        with pytest.raises(ValueError, match="2 checkpoints"):
            CheckpointProbs(np.array([[0.5]]), np.array([0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            CheckpointProbs(np.array([[0.5, 1.2]]), np.array([0]))
