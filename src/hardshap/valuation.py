"""Game-theoretic data valuation for KNN classifiers.

The fast path scores every training point exactly via the backward
recursion over the distance ranking. Two slow oracles are kept alongside
it: full coalition enumeration and truncated Monte Carlo permutation
sampling, both driven by the same KNN utility, so the recursion can be
cross-validated rather than trusted.

Scores are oriented so that lower means harder: the hardest points are the
ones whose presence hurts nearest-neighbor predictions on the test set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.spatial.distance import cdist

from ._util import fixed_chunks, hard_count, parallel_map
from .dataset import Dataset
from .neighbors import check_same_dimension, id_sorted_view, rank_all, stable_order

METHODS = ("knn_shapley", "exact_shapley", "tmc_shapley", "dataiq_confidence", "random")

EXACT_MAX_POINTS = 16
TEST_CHUNK = 256


@dataclass(frozen=True)
class ValuationScores:
    """Per-training-point scores, aligned with the ids they were computed for."""

    scores: np.ndarray
    ids: np.ndarray
    method: str
    params: Mapping[str, object]

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)
        ids = np.array(self.ids, dtype=np.int64)
        scores.setflags(write=False)
        ids.setflags(write=False)
        if scores.ndim != 1 or scores.shape != ids.shape:
            raise ValueError("scores and ids must be 1-D and of equal length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "knn_shapley" and (
            scores.min() < -1.0 - 1e-12 or scores.max() > 1.0 + 1e-12
        ):
            raise ValueError("knn_shapley scores must lie in [-1, 1]")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "params", dict(self.params))

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def _recursion_weights(n: int, k: int) -> np.ndarray:
    ranks = np.arange(1, n, dtype=np.float64)
    return np.minimum(k, ranks) / (ranks * k)


def _contributions_block(
    X: np.ndarray,
    y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    k: int,
    weights: np.ndarray,
) -> np.ndarray:
    """Per-test contribution columns for one block of test points.

    X/y must be id-sorted so the (distance, column) order breaks ties by
    ascending id. Output rows follow the id-sorted train order.
    """
    n = X.shape[0]
    dist = cdist(test_X, X)
    out = np.empty((n, test_X.shape[0]))
    # Base case min(K,n)/(nK) instead of the usual 1/n keeps the recursion
    # equal to the coalition-enumeration value when n < K; both agree otherwise.
    base = min(k, n) / (n * k)
    for r in range(test_X.shape[0]):
        idx = stable_order(dist[r])
        match = (y[idx] == test_y[r]).astype(np.float64)
        s = np.empty(n)
        s[n - 1] = match[n - 1] * base
        if n > 1:
            delta = (match[:-1] - match[1:]) * weights
            s[: n - 1] = s[n - 1] + np.cumsum(delta[::-1])[::-1]
        out[idx, r] = s
    return out


def knn_shapley_contributions(
    train: Dataset, test: Dataset, k: int, threads: int = 1
) -> np.ndarray:
    """Exact per-test KNN Shapley contributions, shape (n_train, n_test).

    Column j holds every training point's contribution for test point j;
    averaging columns gives the final scores. Rows follow train row order.
    """
    _check_valuation_inputs(train, test, k)
    X, y, orig_pos = id_sorted_view(train)
    weights = _recursion_weights(train.n, k)
    blocks = list(fixed_chunks(test.n, TEST_CHUNK))

    def run(block: tuple[int, int]) -> np.ndarray:
        lo, hi = block
        return _contributions_block(X, y, test.features[lo:hi], test.labels[lo:hi], k, weights)

    parts = parallel_map(run, blocks, threads)
    sorted_contrib = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    contrib = np.empty_like(sorted_contrib)
    contrib[orig_pos] = sorted_contrib
    return contrib


def knn_shapley(train: Dataset, test: Dataset, k: int, threads: int = 1) -> ValuationScores:
    """Exact KNN Shapley score per training point: mean per-test contribution.

    Runs in O(n (d + log n)) per test point and is deterministic for any
    thread count (blocks are reduced in a fixed order).
    """
    _check_valuation_inputs(train, test, k)
    X, y, orig_pos = id_sorted_view(train)
    weights = _recursion_weights(train.n, k)
    blocks = list(fixed_chunks(test.n, TEST_CHUNK))

    def run(block: tuple[int, int]) -> np.ndarray:
        lo, hi = block
        part = _contributions_block(X, y, test.features[lo:hi], test.labels[lo:hi], k, weights)
        return part.sum(axis=1)

    totals = parallel_map(run, blocks, threads)
    sorted_scores = np.zeros(train.n)
    for part in totals:
        sorted_scores += part
    sorted_scores /= test.n
    scores = np.empty_like(sorted_scores)
    scores[orig_pos] = sorted_scores
    return ValuationScores(scores, train.ids, "knn_shapley", {"k": k})


def _check_valuation_inputs(train: Dataset, test: Dataset, k: int) -> None:
    check_same_dimension(train, test)
    if k < 1:
        raise ValueError("K must be positive")


def knn_utility(
    subset_ids: Iterable[int], train: Dataset, test: Dataset, k: int
) -> float:
    """KNN coalition utility: mean matched fraction of the top min(K,|S|) neighbors.

    The empty coalition is worth 0. The divisor is K even when the subset
    has fewer than K members.
    """
    _check_valuation_inputs(train, test, k)
    ids = sorted({int(i) for i in subset_ids})
    if not ids:
        return 0.0
    pos = train.positions_of(ids)
    order = rank_all(train.features[pos], test.features)
    k_eff = min(k, len(ids))
    hits = train.labels[pos][order[:, :k_eff]] == test.labels[:, None]
    return float(hits.sum()) / (k * test.n)


class _UtilityEvaluator:
    """Subset utilities against precomputed per-test rankings of the full train set.

    Works in id-sorted row space so distance ties resolve identically to
    the recursion path.
    """

    def __init__(self, train: Dataset, test: Dataset, k: int):
        _check_valuation_inputs(train, test, k)
        X, y, self.orig_pos = id_sorted_view(train)
        self.orders = rank_all(X, test.features)
        self.matches = y[self.orders] == test.labels[:, None]
        self.k = k
        self.n = train.n
        self.n_test = test.n

    def utility(self, included: np.ndarray, size: int) -> float:
        """included: boolean mask over id-sorted rows; size: its popcount."""
        if size == 0:
            return 0.0
        sel = included[self.orders]
        topk = sel & (np.cumsum(sel, axis=1) <= min(self.k, size))
        return float((self.matches & topk).sum()) / (self.k * self.n_test)

    def full_utility(self) -> float:
        return self.utility(np.ones(self.n, dtype=bool), self.n)

    def to_row_order(self, sorted_values: np.ndarray) -> np.ndarray:
        out = np.empty_like(sorted_values)
        out[self.orig_pos] = sorted_values
        return out


def exact_data_shapley(train: Dataset, test: Dataset, k: int) -> ValuationScores:
    """Brute-force data Shapley over all coalitions under the KNN utility.

    Marginal contributions are weighted by inverse binomial coefficients and
    averaged over the n insertion slots; terms accumulate in ascending
    subset-size order so repeated runs agree bit for bit. Refuses n > 16.
    """
    n = train.n
    if n > EXACT_MAX_POINTS:
        raise ValueError(f"exact enumeration limited to n <= {EXACT_MAX_POINTS}, got {n}")
    ev = _UtilityEvaluator(train, test, k)
    bit_positions = np.arange(n)
    util = np.empty(1 << n)
    popcount = np.empty(1 << n, dtype=np.int64)
    for mask in range(1 << n):
        included = (mask >> bit_positions) & 1 == 1
        size = int(bin(mask).count("1"))
        popcount[mask] = size
        util[mask] = ev.utility(included, size)
    inv_binom = np.array([1.0 / math.comb(n - 1, s) for s in range(n)])
    masks_by_size = sorted(range(1 << n), key=lambda m: (popcount[m], m))
    phi_sorted = np.empty(n)
    for i in range(n):
        bit = 1 << i
        acc = 0.0
        for mask in masks_by_size:
            if mask & bit:
                continue
            acc += (util[mask | bit] - util[mask]) * inv_binom[popcount[mask]]
        phi_sorted[i] = acc / n
    return ValuationScores(ev.to_row_order(phi_sorted), train.ids, "exact_shapley", {"k": k})


def tmc_shapley(
    train: Dataset,
    test: Dataset,
    k: int,
    permutations: int | None = None,
    truncation_tol: float = 1e-4,
    seed: int = 0,
) -> ValuationScores:
    """Truncated Monte Carlo data Shapley via random permutation scans.

    Each permutation contributes one marginal per scanned position; the
    scan stops once the running prefix utility is within truncation_tol of
    the full-set utility, crediting 0 to everything after the stop.
    Defaults to 100*n permutations.
    """
    if permutations is None:
        permutations = 100 * train.n
    if permutations < 1:
        raise ValueError("permutations must be positive")
    if truncation_tol < 0:
        raise ValueError("truncation_tol must be nonnegative")
    ev = _UtilityEvaluator(train, test, k)
    n = train.n
    v_full = ev.full_utility()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sums = np.zeros(n)
    for _ in range(permutations):
        perm = rng.permutation(n)
        included = np.zeros(n, dtype=bool)
        v_prev = 0.0
        for size, row in enumerate(perm, start=1):
            included[row] = True
            v_new = ev.utility(included, size)
            sums[row] += v_new - v_prev
            v_prev = v_new
            if abs(v_prev - v_full) < truncation_tol:
                break
    phi_sorted = sums / permutations
    return ValuationScores(
        ev.to_row_order(phi_sorted),
        train.ids,
        "tmc_shapley",
        {"k": k, "permutations": permutations, "truncation_tol": truncation_tol, "seed": seed},
    )


def rank_by_hardness(scores: ValuationScores) -> np.ndarray:
    """Ids sorted by ascending score (hardest first), ties by ascending id."""
    order = np.lexsort((scores.ids, scores.scores))
    return scores.ids[order]


def hardest_subset(ds: Dataset, scores: ValuationScores, tau: float) -> Dataset:
    """The ceil(tau*n) hardest rows of ds, in hardness order, ids preserved."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if scores.n != ds.n or not np.array_equal(np.sort(scores.ids), np.sort(ds.ids)):
        raise ValueError("scores are not aligned with the dataset ids")
    m = hard_count(tau, ds.n)
    hard_ids = rank_by_hardness(scores)[:m]
    return ds.take(ds.positions_of(hard_ids))


def save_scores_csv(
    scores: ValuationScores, path: str | Path, header_comment: str | None = None
) -> None:
    """Write ``id,score,rank,method`` rows plus a ``<path>.meta`` sidecar.

    Rank 0 is the hardest point. The sidecar holds the params one
    ``key=value`` per line.
    """
    ranking = rank_by_hardness(scores)
    rank_of = {int(i): r for r, i in enumerate(ranking)}
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "score", "rank", "method"])
        for i in range(scores.n):
            row_id = int(scores.ids[i])
            writer.writerow([row_id, repr(float(scores.scores[i])), rank_of[row_id], scores.method])
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        fh.write(f"method={scores.method}\n")
        for key in sorted(scores.params):
            fh.write(f"{key}={scores.params[key]}\n")


def load_scores_csv(path: str | Path) -> ValuationScores:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"no score rows in {path}")
    header = rows[0]
    if header[:2] != ["id", "score"] or "method" not in header:
        raise ValueError(f"unexpected scores header in {path}: {header}")
    method_idx = header.index("method")
    ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    values = np.array([float(r[1]) for r in rows[1:]])
    method = rows[1][method_idx]
    params: dict[str, object] = {}
    meta = Path(f"{path}.meta")
    if meta.exists():
        for line in meta.read_text(encoding="utf-8").splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                if key != "method":
                    params[key] = value
    return ValuationScores(values, ids, method, params)
