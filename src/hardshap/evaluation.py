"""Downstream performance: KNN probabilities, Gini, repeated-seed CIs.

The downstream learner is deliberately a KNN probability vote: it is
deterministic, dependency-free, and refits instantly, which is what the
augmentation and removal comparisons need. Externally produced probability
files can be scored through the same metrics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from ._util import fixed_chunks, parallel_map, round_half_up
from .augment import GeneratorSpec, targeted_augment
from .dataset import Dataset
from .neighbors import QUERY_CHUNK, check_same_dimension, id_sorted_view, smallest_k
from .valuation import ValuationScores, rank_by_hardness

DOWNSTREAM_K = 15


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
    if not 1 <= k <= train.n:
        raise ValueError(f"K={k} out of range for {train.n} training rows")
    X, y, _ = id_sorted_view(train)

    def run(block: tuple[int, int]) -> np.ndarray:
        lo, hi = block
        nearest = smallest_k(cdist(query.features[lo:hi], X), k)
        return y[nearest].mean(axis=1)

    parts = parallel_map(run, list(fixed_chunks(query.n, QUERY_CHUNK)), threads)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def auc_roc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic.

    Equals P(prob+ > prob-) + 0.5 P(tie) over positive/negative pairs;
    average ranks make it exactly tie-aware.
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
    ranks = rankdata(probs, method="average")
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


@dataclass(frozen=True)
class AugmentPipelineConfig:
    """Everything one augment-fit-score replicate needs besides its seed."""

    train: Dataset
    valid: Dataset
    scores: ValuationScores
    tau: float
    amount: float
    generator: GeneratorSpec
    downstream_k: int = DOWNSTREAM_K


def repeated_gini(
    config: AugmentPipelineConfig,
    replicates: int,
    base_seed: int = 0,
    threads: int = 1,
) -> MetricReport:
    """Validation Gini of augment -> fit -> score, repeated over derived seeds.

    Only the generator draw varies between replicates; the report carries
    every replicate plus the mean and its 95% CI.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a confidence interval")
    children = np.random.SeedSequence(base_seed).spawn(replicates)

    def one(child: np.random.SeedSequence) -> float:
        gen = config.generator.with_seed(int(child.generate_state(1)[0]))
        augmented = targeted_augment(config.train, config.scores, config.tau, config.amount, gen)
        probs = knn_predict_proba(augmented, config.valid, config.downstream_k)
        return gini(probs, config.valid.labels)

    values = np.array(parallel_map(one, children, threads))
    mean, lo, hi = _normal_ci(values)
    return MetricReport("gini", mean, lo, hi, tuple(float(v) for v in values))


def removal_curve(
    train: Dataset,
    valid: Dataset,
    scores: ValuationScores,
    fractions: Sequence[float],
    strategy: str = "hardest",
    seed: int = 0,
    k: int = DOWNSTREAM_K,
) -> list[tuple[float, float]]:
    """Validation Gini after dropping a growing share of training points.

    strategy 'hardest' removes by ascending score; 'random' removes a
    seeded uniform subset of the same size, giving the null arm the curve
    is compared against.
    """
    if strategy not in ("hardest", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    fractions = list(fractions)
    if any(not 0.0 <= f < 1.0 for f in fractions) or sorted(fractions) != fractions:
        raise ValueError("fractions must be ascending and lie in [0, 1)")
    hardness_order = rank_by_hardness(scores)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shuffled_ids = train.ids[rng.permutation(train.n)]
    curve = []
    for fraction in fractions:
        drop = round_half_up(fraction * train.n)
        doomed = hardness_order[:drop] if strategy == "hardest" else shuffled_ids[:drop]
        keep_mask = ~np.isin(train.ids, doomed)
        remaining = train.take(np.flatnonzero(keep_mask))
        if len(np.unique(remaining.labels)) < 2:
            raise ValueError(f"removing {fraction:.0%} leaves a single-class training set")
        probs = knn_predict_proba(remaining, valid, k)
        curve.append((fraction, gini(probs, valid.labels)))
    return curve


def save_metric_report_csv(
    report: MetricReport, path: str | Path, header_comment: str | None = None
) -> None:
    """Rows ``replicate,<metric>`` followed by mean / ci_low / ci_high summary rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["replicate", report.metric])
        for i, value in enumerate(report.replicates):
            writer.writerow([i, repr(value)])
        writer.writerow(["mean", repr(report.point)])
        writer.writerow(["ci_low", repr(report.ci_low)])
        writer.writerow(["ci_high", repr(report.ci_high)])


def load_probs_column_csv(path: str | Path, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read an ``id,<column>`` CSV into aligned (ids, values) arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"no rows in {path}")
    header = rows[0]
    if header[0] != "id" or column not in header:
        raise ValueError(f"expected id,{column} header in {path}")
    idx = header.index(column)
    ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    values = np.array([float(r[idx]) for r in rows[1:]])
    return ids, values
