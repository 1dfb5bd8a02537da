"""Downstream performance: KNN probabilities, Gini, repeated-seed CIs.

The downstream learner is deliberately a KNN probability vote: it is
deterministic, dependency-free, and refits instantly, which is what the
augmentation and removal comparisons need. Externally produced probability
files can be scored through the same metrics. A replicate's synthetic batch
comes from the caller's ``draw(seed)``; this module knows no generator.

Every vote ranks a query row's training columns by (distance, column) over
the id-sorted training set, so distance ties go to the lower id. Synthetic
batches are voted through ``CachedVote``, which computes the valid->train
neighbourhood once, by ``neighbors.k_nearest``: the K nearest training
columns of each query row, by (distance, column), with their distances.
``append_batch`` gives a batch's rows ids above every training id, in batch
order, so they come after every training column, in batch order. A training
row outside the cached K has K training rows ahead of it, which stay ahead
of it once the batch is added. So the K nearest of [the K cached columns,
then the batch rows] are the K nearest of train plus batch: at equal
distance a cached column precedes every batch row and a lower column a
higher one, as in the full order. The vote is bit-equal to
``knn_predict_proba`` refitted on the augmented set, which is never built: a
replicate computes only its batch's distances and merges them with the
cached K (faster than a second top-K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _io
from ._util import cdist, fixed_chunks, parallel_map, share_count
from .dataset import Dataset
from .neighbors import (
    QUERY_CHUNK, check_k, check_same_dimension, id_sorted_view, k_nearest, smallest_k,
    top_k_blocks,
)
from .valuation import ValuationScores, check_aligned, rank_by_hardness

DOWNSTREAM_K = 15
STRATEGIES = ("hardest", "random")  # removal orders: by ascending score, or seeded uniform


@dataclass(frozen=True)
class MetricReport:
    """Point estimate with a 95% normal-approximation CI over replicates."""

    metric: str
    point: float
    ci_low: float
    ci_high: float
    replicates: tuple[float, ...]

    def __post_init__(self):
        if len(self.replicates) < 1:
            raise ValueError("need at least one replicate")
        if not self.ci_low <= self.point <= self.ci_high:
            raise ValueError("CI must bracket the point estimate")


def knn_predict_proba(
    train: Dataset, query: Dataset, k: int = DOWNSTREAM_K, threads: int = 1
) -> np.ndarray:
    """Fraction of the K nearest training rows (distance ties by id) with label 1."""
    check_same_dimension(train, query)
    X, y, _ = id_sorted_view(train)
    return y[k_nearest(X, query.features, k, threads)[0]].mean(axis=1)


class CachedVote:
    """``knn_predict_proba`` of one query set against one train set plus a synthetic batch.

    Built by one ``k_nearest`` call: the K nearest training columns of every
    query row, with their distances and labels. ``predict_proba`` computes only
    the batch rows' distances (the module docstring shows why the result is exact).
    Memory is query rows x K, plus ``QUERY_CHUNK`` x (K + batch rows) while
    voting.
    """

    def __init__(self, train: Dataset, query: Dataset, k: int = DOWNSTREAM_K, threads: int = 1):
        check_same_dimension(train, query)
        X, y, _ = id_sorted_view(train)
        columns, self.dist = k_nearest(X, query.features, min(k, train.n), threads)
        self.labels = y[columns]
        self.train, self.query, self.k = train, query, k

    def predict_proba(self, batch: Dataset) -> np.ndarray:
        """Equals ``knn_predict_proba(append_batch(train, batch), query, k)``.

        The batch's ids are ignored, as ``append_batch`` ignores them: its
        rows rank after every training row at equal distance, in batch order.
        """
        check_same_dimension(batch, self.query)
        check_k(self.k, self.train.n + batch.n)
        out = np.empty(self.query.n)
        for lo, hi in fixed_chunks(self.query.n, QUERY_CHUNK):
            new_dist = cdist(self.query.features[lo:hi], batch.features)
            dist = np.concatenate([self.dist[lo:hi], new_dist], axis=1)
            labels = np.concatenate(
                [self.labels[lo:hi], np.broadcast_to(batch.labels, new_dist.shape)], axis=1
            )
            out[lo:hi] = np.take_along_axis(labels, smallest_k(dist, self.k), axis=1).mean(axis=1)
        return out


def auc_roc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic.

    Equals P(prob+ > prob-) + 0.5 P(tie) over positive/negative pairs;
    tied probabilities share their average rank, so ties count exactly.
    NaN probabilities are refused: they have no rank.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise ValueError("probs and labels must be 1-D and of equal length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = probs.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both labels must be present")
    if np.isnan(probs).any():
        raise ValueError("probs must not be NaN")
    _, group, counts = np.unique(probs, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2
    return float(u / (n_pos * n_neg))


def gini(probs: np.ndarray, labels: np.ndarray) -> float:
    """Normalized Gini coefficient: 2*AUCROC - 1."""
    return 2.0 * auc_roc(probs, labels) - 1.0


def _normal_ci(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(values.mean())
    if values.shape[0] < 2 or np.ptp(values) == 0:
        return mean, mean, mean
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.shape[0])
    return mean, mean - half, mean + half


def repeated_gini(
    vote: CachedVote, draw: Callable[[int], Dataset], replicates: int,
    base_seed: int = 0, threads: int = 1,
) -> MetricReport:
    """Validation Gini of draw -> fit -> score, repeated over derived seeds.

    Replicate r votes the batch ``draw(seed_r)``, added to the vote's train
    set, against its query set. ``seed_r`` is ``int(c.generate_state(1)[0])``
    for the r-th child c of ``SeedSequence(base_seed).spawn(replicates)``, so
    arms with one base seed share their seeds. The report carries every
    replicate, in order, plus the mean and its 95% CI. Arms over the same
    sets share one vote.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a confidence interval")
    children = np.random.SeedSequence(base_seed).spawn(replicates)

    def one(child: np.random.SeedSequence) -> float:
        batch = draw(int(child.generate_state(1)[0]))
        return gini(vote.predict_proba(batch), vote.query.labels)

    values = np.array(parallel_map(one, children, threads))
    mean, lo, hi = _normal_ci(values)
    return MetricReport("gini", mean, lo, hi, tuple(float(v) for v in values))


def removal_curve(
    train: Dataset,
    valid: Dataset,
    scores: ValuationScores,
    fractions: Sequence[float],
    strategies: Sequence[str],
    seed: int = 0,
    k: int = DOWNSTREAM_K,
) -> list[list[tuple[float, float]]]:
    """Validation Gini after dropping a growing share of training points, per strategy.

    Strategy 'hardest' removes by ascending score; 'random' removes a
    seeded uniform subset of the same size, giving the null arm the curve
    is compared against. Gives one curve per strategy, in order, checked
    and refused as by one call per strategy.

    Each point equals ``knn_predict_proba`` refitted on the rows kept. Each
    ``top_k_blocks`` block of valid-to-train distances is computed once for
    every strategy and fraction. Each fraction sets its dropped columns to
    ``inf``, which is faster than a ``k_nearest`` per fraction over the kept
    rows. Dropped sets nest within a strategy only, so each strategy masks
    its own copy, and the points that drop no row (fraction 0) are voted
    once for all strategies.
    """
    fractions = list(fractions)
    if len(set(strategies)) < len(strategies):
        raise ValueError("strategies must not repeat a value")
    X, y, order = id_sorted_view(train)
    dropped = [_dropped_columns(train, valid, scores, fractions, name, seed, k, order)
               for name in strategies]
    probs = np.empty((len(strategies), len(fractions), valid.n))
    for lo, hi in top_k_blocks(valid.n, train.n):
        dist = cdist(valid.features[lo:hi], X)
        # A kept pair can overflow to inf; capping keeps it ahead of the masked ones.
        np.minimum(dist, np.finfo(np.float64).max, out=dist)
        full = None  # the vote over every row
        for c, curve in enumerate(dropped):
            masked = dist if c == len(dropped) - 1 else dist.copy()
            for f, columns in enumerate(curve):
                if columns.size:
                    masked[:, columns] = np.inf
                    probs[c, f, lo:hi] = y[smallest_k(masked, k)].mean(axis=1)
                    continue
                if full is None:  # nothing is masked yet: drop counts grow with the fraction
                    full = y[smallest_k(masked, k)].mean(axis=1)
                probs[c, f, lo:hi] = full
    return [[(fraction, gini(p, valid.labels)) for fraction, p in zip(fractions, curve)]
            for curve in probs]


def _dropped_columns(
    train: Dataset, valid: Dataset, scores: ValuationScores, fractions: list[float],
    strategy: str, seed: int, k: int, order: np.ndarray,
) -> list[np.ndarray]:
    """Per fraction, the id-sorted columns that ``strategy`` drops, each drop checked."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if any(not 0.0 <= f < 1.0 for f in fractions) or any(
        b <= a for a, b in zip(fractions, fractions[1:])
    ):
        raise ValueError("fractions must be strictly ascending and lie in [0, 1)")
    check_aligned(scores, train)
    check_same_dimension(train, valid)
    if strategy == "hardest":
        ranked = rank_by_hardness(scores)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        ranked = train.ids[rng.permutation(train.n)]
    dropped = []
    for fraction in fractions:
        keep_mask = ~np.isin(train.ids, ranked[:share_count(fraction, train.n)])
        if np.unique(train.labels[keep_mask]).size < 2:
            raise ValueError(f"removing {fraction:.0%} leaves a single-class training set")
        check_k(k, int(keep_mask.sum()))
        dropped.append(np.flatnonzero(~keep_mask[order]))
    return dropped


def save_metric_report_csv(
    report: MetricReport, path: str | Path, header_comment: str | None = None
) -> None:
    """Rows ``replicate,<metric>`` followed by mean / ci_low / ci_high summary rows."""
    summary = [("mean", report.point), ("ci_low", report.ci_low), ("ci_high", report.ci_high)]
    rows = [*enumerate(report.replicates), *summary]
    _io.write_csv(path, ["replicate", report.metric], rows, [header_comment])


def load_probs_column_csv(path: str | Path, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read an ``id,<column>`` CSV into aligned (ids, values) arrays."""
    table, j = _id_table(path, column)
    cols = table.columns([j], id_col=0)
    return cols.ids, cols.floats[:, 0]


def load_labels_column_csv(path: str | Path, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read the ids and 0/1 labels of an ``id,...,<column>`` CSV, checked as ``load_csv`` does."""
    table, j = _id_table(path, column)
    cols = table.columns([], id_col=0, label_col=j)
    return cols.ids, cols.labels


def _id_table(path: str | Path, column: str) -> tuple[_io.Table, int]:
    table = _io.read_csv(path)
    if not table.has_rows:
        raise ValueError(f"no rows in {path}")
    header = table.header
    if header[0] != "id" or column not in header:
        raise ValueError(f"expected id,{column} header in {path}")
    return table, header.index(column)
