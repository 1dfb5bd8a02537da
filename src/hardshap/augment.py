"""Synthetic row generation and the targeted-augmentation step.

SMOTE is built in: each synthetic row is a uniform point on the segment
between a source row and one of its same-class nearest neighbors. Any
external generator can plug in through a CSV file handshake instead.
Targeted augmentation fits the generator only on the hardest fraction of
the training set and unions the synthetic rows with the original data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ._util import largest_remainder, round_half_up
from .dataset import Dataset, load_csv, save_csv
from .neighbors import check_same_dimension, k_nearest
from .valuation import ValuationScores, hardest_subset

GENERATOR_KINDS = ("smote", "external")
SMOTE_K = 5  # SMOTE's default neighbour count


@dataclass(frozen=True)
class GeneratorSpec:
    """Which generator ``generate``, and so ``targeted_augment``, runs, with its parameters.

    smote params: k_neighbors (default SMOTE_K) and seed (default 0).
    external params, both required: exec_in (CSV we write the source rows to) and
    exec_out (CSV the external tool leaves the synthetic rows in).
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        params = dict(self.params)
        if self.kind == "smote" and int(params.get("k_neighbors", SMOTE_K)) < 1:
            raise ValueError("smote requires k_neighbors >= 1")
        if self.kind == "external" and not (params.get("exec_in") and params.get("exec_out")):
            raise ValueError("external generator requires exec_in and exec_out paths")
        object.__setattr__(self, "params", params)


def _class_allocation(labels: np.ndarray, m: int) -> dict[int, int]:
    """Largest-remainder allocation of m rows proportional to class prevalence."""
    classes = np.unique(labels)
    quotas = [m * int((labels == c).sum()) / labels.shape[0] for c in classes]
    return dict(zip(classes.tolist(), largest_remainder(m, quotas)))


def smote_generate(source: Dataset, m: int, k_neighbors: int = SMOTE_K, seed: int = 0) -> Dataset:
    """Sample m rows along segments between same-class nearest neighbors.

    Classes are represented proportionally to their prevalence in the
    source (largest-remainder rounding); each row copies its seed point's
    label. The rows carry the source's feature names and ids 0..m-1.
    Neighbors are searched inside the source, for the rows drawn as seed
    points only, so the search scales with m, not the source size.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = _class_allocation(source.labels, m)
    rows = np.empty((m, source.d))
    labels = np.empty(m, dtype=np.int64)
    out = 0
    for cls in sorted(counts):
        quota = counts[cls]
        if quota == 0:
            continue
        members = np.flatnonzero(source.labels == cls)
        if members.shape[0] < k_neighbors + 1:
            raise ValueError(
                f"class {cls} has {members.shape[0]} rows; "
                f"needs at least k_neighbors+1 = {k_neighbors + 1} for SMOTE"
            )
        X = source.features[members]
        picks = rng.integers(0, members.shape[0], size=quota)
        neighbor_pick = rng.integers(0, k_neighbors, size=quota)
        u = rng.uniform(size=quota)[:, None]
        drawn, drawn_at = np.unique(picks, return_inverse=True)
        # column 0 is the row itself or an equal row stored before it; drop it
        neighbor_idx = k_nearest(X, X[drawn], k_neighbors + 1)[0][:, 1:]
        base = X[picks]
        partner = X[neighbor_idx[drawn_at, neighbor_pick]]
        rows[out:out + quota] = base + u * (partner - base)
        labels[out:out + quota] = cls
        out += quota
    return Dataset(rows, labels, source.feature_names, np.arange(m))


class ExternalGeneratorError(RuntimeError):
    pass


def external_generate(
    source: Dataset, m: int, exec_in: str | Path, exec_out: str | Path
) -> Dataset:
    """File handshake with an out-of-process generator.

    Writes the source rows to exec_in and ingests exec_out, which the
    external tool must have produced with the same columns and a ``label``
    column. Validates shape, label domain, and finiteness.
    """
    save_csv(source, exec_in, label_column="label")
    out_path = Path(exec_out)
    if not out_path.exists():
        raise ExternalGeneratorError(
            f"external generator output {out_path} not found; "
            f"source rows were written to {exec_in}"
        )
    synth = load_csv(out_path, label_column="label")
    if synth.d != source.d:
        raise ExternalGeneratorError(
            f"external rows have {synth.d} features, source has {source.d}"
        )
    source_label_domain = set(np.unique(source.labels).tolist())
    if not set(np.unique(synth.labels).tolist()) <= source_label_domain:
        raise ExternalGeneratorError("external rows use labels absent from the source subset")
    if synth.n < m:
        raise ExternalGeneratorError(f"external generator produced {synth.n} rows, need {m}")
    return synth.take(np.arange(m))


def generate(source: Dataset, m: int, gen: GeneratorSpec) -> Dataset:
    """Dispatch to the generator named by the spec."""
    if gen.kind == "smote":
        k_neighbors = int(gen.params.get("k_neighbors", SMOTE_K))
        return smote_generate(source, m, k_neighbors, int(gen.params.get("seed", 0)))
    return external_generate(source, m, str(gen.params["exec_in"]), str(gen.params["exec_out"]))


def append_batch(train: Dataset, batch: Dataset) -> Dataset:
    """Union of the training set and a batch, with train's feature names.

    The batch's ids are dropped: its rows get fresh ids above every
    training id, in batch order.
    """
    check_same_dimension(batch, train)
    first_free = int(train.ids.max()) + 1
    new_ids = np.arange(first_free, first_free + batch.n, dtype=np.int64)
    return Dataset(
        np.concatenate([train.features, batch.features]),
        np.concatenate([train.labels, batch.labels]),
        train.feature_names,
        np.concatenate([train.ids, new_ids]),
    )


def synthetic_rows(amount: float, n: int) -> int:
    """round(amount * n): the rows drawn at ``amount`` synthetic rows per source row."""
    if amount <= 0:
        raise ValueError("amount must be positive")
    m = round_half_up(amount * n)
    if m == 0:
        raise ValueError(f"amount {amount} of {n} hard rows rounds to zero synthetic rows")
    return m


def targeted_augment(
    train: Dataset, scores: ValuationScores, tau: float, amount: float, gen: GeneratorSpec
) -> Dataset:
    """Train, then ``synthetic_rows(amount, ceil(tau*n))`` rows fitted on its tau-hardest rows.

    Original rows and ids are untouched; tau=1 is the non-targeted baseline.
    """
    hard = hardest_subset(train, scores, tau)
    return append_batch(train, generate(hard, synthetic_rows(amount, hard.n), gen))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, tie-safe."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.shape[0]
    cdf_b = np.searchsorted(b, grid, side="right") / b.shape[0]
    return float(np.abs(cdf_a - cdf_b).max())


def weighted_ks(real: Dataset, synth: Dataset, weights: np.ndarray | None = None) -> float:
    """Weighted mean of per-feature two-sample KS statistics in [0, 1].

    0 means identical marginals, 1 disjoint supports on every weighted
    feature. Weights default to uniform and are normalized internally.
    """
    check_same_dimension(synth, real)
    if weights is None:
        weights = np.ones(real.d)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (real.d,) or (weights < 0).any():
        raise ValueError("weights must be length-d and nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    stats = np.array(
        [_ks_statistic(real.features[:, f], synth.features[:, f]) for f in range(real.d)]
    )
    return float((weights * stats).sum() / total)
