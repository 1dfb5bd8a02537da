"""Data-IQ baseline characterizer: confidence and aleatoric uncertainty.

Scores derive from an n-by-E matrix of correct-label probabilities across E
model checkpoints. Checkpoints can be supplied externally via CSV or built
in with a bagged KNN ensemble, which stands in for boosted-tree training
dynamics while keeping the package dependency-free.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from ._util import fixed_chunks, parallel_map
from .dataset import Dataset
from .neighbors import QUERY_CHUNK, smallest_k

DEFAULT_THRESHOLDS = (0.25, 0.75, 0.2)
TAGS = ("Easy", "Hard", "Ambiguous")


@dataclass(frozen=True)
class CheckpointProbs:
    """Correct-label probability per training point (rows) and checkpoint (columns)."""

    probs: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        ids = np.array(self.ids, dtype=np.int64)
        probs.setflags(write=False)
        ids.setflags(write=False)
        if probs.ndim != 2:
            raise ValueError("probs must be an n-by-E matrix")
        if probs.shape[1] < 2:
            raise ValueError("need at least 2 checkpoints for a variance signal")
        if probs.shape[0] != ids.shape[0]:
            raise ValueError("ids length does not match probability rows")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "ids", ids)

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
    return (cp.probs * (1.0 - cp.probs)).mean(axis=1)


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
    if low_conf >= high_conf:
        raise ValueError("low confidence threshold must be below the high one")
    conf = np.asarray(conf, dtype=np.float64)
    aleo = np.asarray(aleo, dtype=np.float64)
    if conf.shape != aleo.shape:
        raise ValueError("confidence and aleatoric lengths differ")
    if ids is None:
        ids = np.arange(conf.shape[0], dtype=np.int64)
    tags = []
    for c, a in zip(conf, aleo):
        if c >= high_conf and a <= low_aleo:
            tags.append("Easy")
        elif c <= low_conf and a <= low_aleo:
            tags.append("Hard")
        else:
            tags.append("Ambiguous")
    return DataIQTags(np.asarray(ids, dtype=np.int64), conf, aleo, tuple(tags), thresholds)


def bagged_checkpoint_probs(
    train: Dataset, n_checkpoints: int = 10, k: int = 5, seed: int = 0, threads: int = 1
) -> CheckpointProbs:
    """Checkpoint probabilities from a bagged KNN ensemble.

    Checkpoint e is a KNN vote over a seeded bootstrap resample of the
    training rows; a point's probability is the fraction of its K nearest
    in-bag neighbors (its own copies excluded) that carry its true label.
    """
    if n_checkpoints < 2:
        raise ValueError("need at least 2 checkpoints")
    if k < 1:
        raise ValueError("K must be positive")
    train.require_both_classes("bagged_checkpoint_probs")
    n = train.n
    children = np.random.SeedSequence(seed).spawn(n_checkpoints)

    def one_checkpoint(child: np.random.SeedSequence) -> np.ndarray:
        rng = np.random.default_rng(child)
        bag = rng.integers(0, n, size=n)
        in_bag = train.features[bag]
        order = np.empty((n, k), dtype=np.intp)
        smallest_pool = n
        for lo, hi in fixed_chunks(n, QUERY_CHUNK):
            dist = cdist(train.features[lo:hi], in_bag)
            # mask out the point's own bootstrap copies
            dist[np.arange(lo, hi)[:, None] == bag[None, :]] = np.inf
            smallest_pool = min(smallest_pool, int(np.isfinite(dist).sum(axis=1).min()))
            order[lo:hi] = smallest_k(dist, k)
        if smallest_pool < k:
            raise ValueError(
                f"K={k} exceeds the in-bag neighbor pool after self-exclusion "
                f"(smallest pool {smallest_pool})"
            )
        neighbor_labels = train.labels[bag[order]]
        return (neighbor_labels == train.labels[:, None]).mean(axis=1)

    columns = parallel_map(one_checkpoint, children, threads)
    return CheckpointProbs(np.column_stack(columns), train.ids)


def save_probs_csv(cp: CheckpointProbs, path: str | Path, header_comment: str | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", *(f"p_{e + 1}" for e in range(cp.n_checkpoints))])
        for i in range(cp.probs.shape[0]):
            writer.writerow([int(cp.ids[i]), *(repr(float(v)) for v in cp.probs[i])])


def load_probs_csv(path: str | Path) -> CheckpointProbs:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"no probability rows in {path}")
    header = rows[0]
    if header[0] != "id" or len(header) < 3:
        raise ValueError(f"expected id,p_1,...,p_E header in {path}")
    ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    probs = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return CheckpointProbs(probs, ids)


def save_tags_csv(tags: DataIQTags, path: str | Path, header_comment: str | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "confidence", "aleatoric", "tag"])
        for i in range(len(tags.tag)):
            writer.writerow(
                [
                    int(tags.ids[i]),
                    repr(float(tags.confidence[i])),
                    repr(float(tags.aleatoric[i])),
                    tags.tag[i],
                ]
            )
