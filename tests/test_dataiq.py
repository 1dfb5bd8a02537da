import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hardshap import dataiq
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
from hardshap.neighbors import QUERY_CHUNK, smallest_k
from hardshap.sim import BlobConfig, gen_blobs


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

    def test_subnormal_uncertainty_is_not_zero(self):
        # the mean of [0, 5e-324] rounds to 0 in float64
        assert aleatoric(probs([[0.0, 5e-324]]))[0] > 0.0

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

    @pytest.mark.parametrize("thresholds", [(np.nan, 0.7, 0.2), (0.2, np.nan, 0.2),
                                            (0.2, 0.7, np.nan)])
    def test_nan_threshold_rejected(self, thresholds):
        # a NaN aleatoric threshold used to tag every row Ambiguous
        with pytest.raises(ValueError, match="NaN"):
            tag(np.array([0.9, 0.1]), np.array([0.05, 0.05]), thresholds=thresholds)

    def test_boundaries_are_inclusive(self):
        # confidence exactly at low or high and aleatoric exactly at its
        # threshold still count as Hard or Easy; one step past is Ambiguous
        low, high, low_aleo = 0.25, 0.75, 0.2
        conf = np.array([high, low, high, low, np.nextafter(high, 0), np.nextafter(low, 1)])
        aleo = np.array([low_aleo, low_aleo, np.nextafter(low_aleo, 1),
                         np.nextafter(low_aleo, 1), 0.0, 0.0])
        got = tag(conf, aleo, thresholds=(low, high, low_aleo), ids=np.arange(10, 16))
        assert got.tag == ("Easy", "Hard", "Ambiguous", "Ambiguous", "Ambiguous", "Ambiguous")
        assert all(type(t) is str for t in got.tag)
        assert got.ids.tolist() == list(range(10, 16))

    def test_empty_input(self):
        assert tag(np.array([]), np.array([])).tag == ()

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

    def test_k_above_the_row_count_reports_the_pool(self):
        with pytest.raises(ValueError, match=r"K=7 exceeds .* \(smallest pool \d\)"):
            bagged_checkpoint_probs(two_blobs(3), n_checkpoints=2, k=7, seed=0)

    def test_pool_error_names_the_smallest_pool_over_every_checkpoint(self):
        # the first checkpoint's smallest pool is not the smallest overall
        train = gen_blobs(BlobConfig(n_train=12, n_valid=4, n_test=4, seed=0))[0]
        pools = [train.n - int(np.bincount(bag).max()) for bag in bags_of(12, 0, 3)]
        assert pools == [10, 9, 10]
        with pytest.raises(ValueError, match=r"K=11 exceeds .* \(smallest pool 9\)$"):
            bagged_checkpoint_probs(train, n_checkpoints=3, k=11, seed=0)

    def test_blocked_distances_match_full_matrix(self, monkeypatch):
        # three distance blocks, with K on both sides of the 32-row neighbour
        # list and up to the in-bag pool limit: n less the most copies of one
        # row in a bag. Blobs never tie, so every row takes the list; the
        # lattice ties everywhere, so every row takes its bag positions; the
        # rounded rows mix both within a block.
        n = 2 * QUERY_CHUNK + 88
        bags = bags_of(n, seed=7, n_checkpoints=3)
        pool = min(n - int(np.bincount(bag).max()) for bag in bags)
        ranked = count_ranked_rows(monkeypatch)
        for rows, make in ROWS.items():
            ds = make(n)
            for k in (1, 5, 31, 32, 33, pool):
                ranked.clear()
                got = bagged_checkpoint_probs(ds, n_checkpoints=3, k=k, seed=7).probs
                assert np.array_equal(got, full_sort_probs(ds, bags, k)), (rows, k)
                # one list per block, then the rows voted over their bag positions
                exact_rows = sum(ranked) - n
                if rows == "blobs":
                    assert exact_rows == 0
                elif rows == "lattice":
                    assert exact_rows == 3 * n
                else:
                    assert 0 < exact_rows < 3 * n
            with pytest.raises(ValueError, match=rf"smallest pool {pool}\)"):
                bagged_checkpoint_probs(ds, n_checkpoints=3, k=pool + 1, seed=7)

    def test_overflowed_distances_shrink_the_pool(self):
        # rows near 1e200 lie at an infinite distance from every other point,
        # so only their duplicates are in their pool
        rng = np.random.default_rng(8)
        near = rng.normal(size=(300, 2))
        far = 1e200 * np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])[np.arange(300) % 3]
        ds = Dataset(np.concatenate([near, far]), np.arange(600) % 2, ("x1", "x2"),
                     np.arange(600))
        bags = bags_of(ds.n, seed=3, n_checkpoints=2)
        pools = []
        for bag in bags:
            dist = cdist(ds.features, ds.features[bag])
            dist[np.arange(ds.n)[:, None] == bag[None, :]] = np.inf
            pools.append(int(np.isfinite(dist).sum(axis=1).min()))
        assert max(pools) < ds.n - max(np.bincount(bag).max() for bag in bags)
        got = bagged_checkpoint_probs(ds, n_checkpoints=2, k=5, seed=3).probs
        assert np.array_equal(got, full_sort_probs(ds, bags, 5))
        with pytest.raises(ValueError, match=rf"smallest pool {min(pools)}\)"):
            bagged_checkpoint_probs(ds, n_checkpoints=2, k=min(pools) + 1, seed=3)

    def test_thread_count_invariance(self):
        # three blocks, so two and three threads split them differently
        for rows in ("blobs", "rounded"):
            ds = ROWS[rows](2 * QUERY_CHUNK + 88)
            one = bagged_checkpoint_probs(ds, n_checkpoints=4, k=5, seed=5, threads=1).probs
            for threads in (2, 3):
                got = bagged_checkpoint_probs(ds, n_checkpoints=4, k=5, seed=5, threads=threads)
                assert np.array_equal(got.probs, one)


def lattice_rows(n):
    rng = np.random.default_rng(4)
    return Dataset(rng.integers(0, 4, size=(n, 2)).astype(float), np.arange(n) % 2,
                   ("x1", "x2"), np.arange(n))


def rounded_rows(n):
    features = np.round(np.random.default_rng(5).normal(size=(n, 2)), 1)
    labels = (features.sum(axis=1) > 0) ^ (np.arange(n) % 7 == 0)
    return Dataset(features, labels.astype(int), ("x1", "x2"), np.arange(n))


ROWS = {"blobs": lambda n: two_blobs(n // 2, spread=1.5), "rounded": rounded_rows,
        "lattice": lattice_rows}


def bags_of(n, seed, n_checkpoints):
    """The bootstrap positions bagged_checkpoint_probs draws, one array per checkpoint."""
    return [np.random.default_rng(child).integers(0, n, size=n)
            for child in np.random.SeedSequence(seed).spawn(n_checkpoints)]


def full_sort_probs(ds, bags, k):
    """Per checkpoint: the full distance matrix to the bag, own copies masked, stably sorted."""
    columns = []
    for bag in bags:
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(ds.features[:, None, :] - ds.features[bag][None], axis=2)
        dist[np.arange(ds.n)[:, None] == bag[None, :]] = np.inf
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        columns.append((ds.labels[bag[nearest]] == ds.labels[:, None]).mean(axis=1))
    return np.column_stack(columns)


def count_ranked_rows(monkeypatch):
    """Record the number of rows each smallest_k call inside dataiq ranks."""
    ranked = []

    def counting(dist, k):
        ranked.append(dist.shape[0])
        return smallest_k(dist, k)

    monkeypatch.setattr(dataiq, "smallest_k", counting)
    return ranked


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

    def test_rejects_repeated_ids(self):
        # each row would be tagged, so id 0 would get two tags
        with pytest.raises(ValueError, match="ids must be unique"):
            CheckpointProbs(np.array([[0.5, 0.6], [0.1, 0.2]]), np.array([0, 0]))
