"""Data-IQ baseline characterizer: confidence and aleatoric uncertainty.

Scores derive from an n-by-E matrix of correct-label probabilities across E
model checkpoints. Checkpoints can be supplied externally via CSV or built
in with a bagged KNN ensemble, which stands in for boosted-tree training
dynamics while keeping the package dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from . import _io
from ._util import fixed_chunks, freeze_field, parallel_map
from .dataset import Dataset
from .neighbors import QUERY_CHUNK, smallest_k

DEFAULT_THRESHOLDS = (0.25, 0.75, 0.2)
TAGS = ("Easy", "Hard", "Ambiguous")
# Bagged Data-IQ lists max(LIST_ROWS, 2K) nearest rows per point: enough to
# hold K bag copies for nearly every row of untied data.
LIST_ROWS = 32


@dataclass(frozen=True)
class CheckpointProbs:
    """Correct-label probability per training point (rows) and checkpoint (columns)."""

    probs: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        probs = freeze_field(self, "probs", np.float64)
        ids = freeze_field(self, "ids", np.int64)
        if probs.ndim != 2:
            raise ValueError("probs must be an n-by-E matrix")
        if probs.shape[1] < 2:
            raise ValueError("need at least 2 checkpoints for a variance signal")
        if probs.shape[0] != ids.shape[0]:
            raise ValueError("ids length does not match probability rows")
        if len(np.unique(ids)) != ids.shape[0]:
            raise ValueError("ids must be unique")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")

    @property
    def n_checkpoints(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class DataIQTags:
    """Per-point confidence/aleatoric values and the Easy/Hard/Ambiguous tag."""

    ids: np.ndarray
    confidence: np.ndarray
    aleatoric: np.ndarray
    tag: tuple[str, ...]
    thresholds: tuple[float, float, float]


def confidence(cp: CheckpointProbs) -> np.ndarray:
    """Mean correct-label probability across checkpoints."""
    return cp.probs.mean(axis=1)


def aleatoric(cp: CheckpointProbs) -> np.ndarray:
    """Mean p(1-p) across checkpoints; 0 iff every checkpoint is certain, max 0.25."""
    terms = cp.probs * (1.0 - cp.probs)
    # the mean of subnormal terms can round to 0; such a row keeps the
    # smallest positive float, so 0 still means "every checkpoint certain"
    return np.maximum(terms.mean(axis=1), np.nextafter(0.0, 1.0) * terms.any(axis=1))


def tag(
    conf: np.ndarray,
    aleo: np.ndarray,
    thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS,
    ids: np.ndarray | None = None,
) -> DataIQTags:
    """Partition points into Easy / Hard / Ambiguous.

    Easy: confidence >= high and aleatoric <= low_aleatoric.
    Hard: confidence <= low and aleatoric <= low_aleatoric.
    Everything else is Ambiguous.
    """
    low_conf, high_conf, low_aleo = thresholds
    if np.isnan(thresholds).any():
        raise ValueError(f"thresholds must not be NaN, got {thresholds}")
    if low_conf >= high_conf:
        raise ValueError("low confidence threshold must be below the high one")
    conf = np.asarray(conf, dtype=np.float64)
    aleo = np.asarray(aleo, dtype=np.float64)
    if conf.shape != aleo.shape:
        raise ValueError("confidence and aleatoric lengths differ")
    if ids is None:
        ids = np.arange(conf.shape[0], dtype=np.int64)
    certain = aleo <= low_aleo
    kind = np.select([certain & (conf >= high_conf), certain & (conf <= low_conf)], [0, 1], 2)
    tags = tuple(np.array(TAGS)[kind].tolist())
    return DataIQTags(np.asarray(ids, dtype=np.int64), conf, aleo, tags, thresholds)


def bagged_checkpoint_probs(
    train: Dataset, n_checkpoints: int = 10, k: int = 5, seed: int = 0, threads: int = 1
) -> CheckpointProbs:
    """Checkpoint probabilities from a bagged KNN ensemble.

    Checkpoint e is a KNN vote over a seeded bootstrap resample of the
    training rows; a point's probability is the fraction of its K nearest
    in-bag neighbors (its own copies excluded) that carry its true label,
    nearest by (distance, bag position).

    Every bag copy is a training row, so one distance block serves all
    checkpoints. Each block of QUERY_CHUNK rows lists, once, the nearest
    other training rows of each row; a checkpoint then walks that list
    taking each row's bag copies until it has K. The copies of one row
    carry one label, so which of them are taken does not matter unless
    another row lies at the distance of the row holding the K-th copy: then
    the bag positions decide, and that row, like one whose list holds fewer
    than K copies, is voted over its bag positions as a full sort would.
    """
    if n_checkpoints < 2:
        raise ValueError("need at least 2 checkpoints")
    if k < 1:
        raise ValueError("K must be positive")
    train.require_both_classes("bagged_checkpoint_probs")
    n = train.n
    bags = [np.random.default_rng(child).integers(0, n, size=n)
            for child in np.random.SeedSequence(seed).spawn(n_checkpoints)]
    copies = np.array([np.bincount(bag, minlength=n) for bag in bags])
    width = min(n - 1, max(LIST_ROWS, 2 * k))

    def one_block(bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = bounds
        rows = np.arange(hi - lo)
        dist = cdist(train.features[lo:hi], train.features)
        overflowed = not np.isfinite(dist.max())
        dist[rows, rows + lo] = np.inf
        # in-bag pool per checkpoint and row: the copies at a finite distance
        if overflowed:
            pools = copies @ np.isfinite(dist).T
        else:
            pools = n - copies[:, lo:hi]
        ranked = smallest_k(dist, width + 1)
        ranked_d = np.take_along_axis(dist, ranked, axis=1)
        listed = ranked[:, :width]
        # listed row j ties with row j + 1, the last with the first row past the list
        tie_after = ranked_d[:, 1:] == ranked_d[:, :-1]
        match = train.labels[listed] == train.labels[lo:hi, None]
        probs = np.empty((hi - lo, n_checkpoints))
        for e, bag in enumerate(bags):
            mult = copies[e, listed]
            before = np.cumsum(mult, axis=1) - mult
            take = np.clip(k - before, 0, mult)
            probs[:, e] = (take * match).sum(axis=1) / k
            # the listed row holding the K-th copy, if the list holds K copies
            kth = (before < k).sum(axis=1) - 1
            short = before[:, -1] + mult[:, -1] < k
            tied = tie_after[rows, kth] | ((kth > 0) & tie_after[rows, kth - 1])
            # a row whose pool is short of K fails the call below; skip it here
            exact = np.flatnonzero((short | tied) & (pools[e] >= k))
            if exact.size:
                nearest_labels = train.labels[bag[smallest_k(dist[exact[:, None], bag], k)]]
                probs[exact, e] = (nearest_labels == train.labels[lo + exact, None]).mean(axis=1)
        return probs, pools.min()

    blocks = parallel_map(one_block, list(fixed_chunks(n, QUERY_CHUNK)), threads)
    smallest_pool = min(pool for _, pool in blocks)
    if smallest_pool < k:
        raise ValueError(
            f"K={k} exceeds the in-bag neighbor pool after self-exclusion "
            f"(smallest pool {smallest_pool})"
        )
    return CheckpointProbs(np.concatenate([probs for probs, _ in blocks]), train.ids)


def save_probs_csv(cp: CheckpointProbs, path: str | Path, header_comment: str | None = None) -> None:
    header = ["id", *(f"p_{e + 1}" for e in range(cp.n_checkpoints))]
    rows = ([i, *p] for i, p in _io.array_rows(cp.ids, cp.probs))
    _io.write_csv(path, header, rows, [header_comment])


def load_probs_csv(path: str | Path) -> CheckpointProbs:
    table = _io.read_csv(path)
    if not table.has_rows:
        raise ValueError(f"no probability rows in {path}")
    header = table.header
    if header[0] != "id" or len(header) < 3:
        raise ValueError(f"expected id,p_1,...,p_E header in {path}")
    cols = table.columns(range(1, len(header)), id_col=0)
    return CheckpointProbs(cols.floats, cols.ids)


def save_tags_csv(tags: DataIQTags, path: str | Path, header_comment: str | None = None) -> None:
    rows = _io.array_rows(tags.ids, tags.confidence, tags.aleatoric, tags.tag)
    _io.write_csv(path, ["id", "confidence", "aleatoric", "tag"], rows, [header_comment])
