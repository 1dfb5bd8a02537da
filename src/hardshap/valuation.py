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

import ast
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _io
from ._util import cdist, fixed_chunks, freeze_field, hard_count, parallel_map
from .dataset import Dataset
from .neighbors import QUERY_CHUNK, check_same_dimension, id_sorted_view
from .neighbors import rank_all, stable_order

METHODS = ("knn_shapley", "exact_shapley", "tmc_shapley")

EXACT_MAX_POINTS = 16
PAIRWISE_BLOCK = 128  # numpy's pairwise sum splits longer runs in two
ORDER_ROWS = 8  # test rows per recursion group: one per lane of numpy's pairwise sum


@dataclass(frozen=True)
class ValuationScores:
    """Per-training-point scores, aligned with the ids they were computed for."""

    scores: np.ndarray
    ids: np.ndarray
    method: str
    params: Mapping[str, object]

    def __post_init__(self):
        scores = freeze_field(self, "scores", np.float64)
        ids = freeze_field(self, "ids", np.int64)
        if scores.ndim != 1 or scores.shape != ids.shape:
            raise ValueError("scores and ids must be 1-D and of equal length")
        if len(np.unique(ids)) != ids.shape[0]:
            raise ValueError("ids must be unique")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "knn_shapley" and (
            scores.min() < -1.0 - 1e-12 or scores.max() > 1.0 + 1e-12
        ):
            raise ValueError("knn_shapley scores must lie in [-1, 1]")
        object.__setattr__(self, "params", dict(self.params))

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def _recursion_weights(n: int, k: int) -> np.ndarray:
    ranks = np.arange(1, n, dtype=np.float64)
    return np.minimum(k, ranks) / (ranks * k)


def _contribution_groups(
    X: np.ndarray,
    y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    k: int,
    weights: np.ndarray,
) -> Iterator[np.ndarray]:
    """Per ORDER_ROWS group of test rows: their contributions, (rows, n), by train column.

    X/y must be id-sorted so the (distance, column) order breaks ties by
    ascending id; the columns index that id-sorted order. Each group comes
    in one buffer, which the next group overwrites. It holds the group's
    distances, then its weighted steps, then its contributions.

    Every numpy call takes a whole group, so there are few calls and each
    is long enough to run without the GIL. Only the cumulative sum goes row
    by row: numpy's 2-D and in-place ``cumsum`` hold the GIL.
    """
    n = X.shape[0]
    # Base case min(K,n)/(nK) instead of the usual 1/n keeps the recursion
    # equal to the coalition-enumeration value when n < K; both agree otherwise.
    base = min(k, n) / (n * k)
    # Labels and matches as int8 keep the per-group working set small; the
    # values are unchanged, since match differences in {-1, 0, 1} scale the
    # weights exactly.
    labels, test_labels = y.astype(np.int8), test_y.astype(np.int8)[:, None]
    starts = np.arange(0, ORDER_ROWS * n, n)[:, None]  # each row's offset in the flat buffer
    buffer = np.empty(ORDER_ROWS * n)
    step = np.empty((ORDER_ROWS, n - 1), dtype=np.int8)
    contributions = np.empty((ORDER_ROWS, n))
    order = np.empty((ORDER_ROWS, n), dtype=np.int64)
    for lo, hi in fixed_chunks(test_X.shape[0], ORDER_ROWS):
        rows = hi - lo
        flat = buffer[: rows * n]
        block = flat.reshape(rows, n)
        idx = stable_order(cdist(test_X[lo:hi], X, out=block), out=order[:rows])
        match = (np.take(labels, idx) == test_labels[lo:hi]).view(np.int8)
        delta = block[:, :-1]  # the distances are spent: idx holds their order
        np.multiply(np.subtract(match[:, :-1], match[:, 1:], out=step[:rows]), weights, out=delta)
        s = contributions[:rows]
        for steps, row in zip(delta, s[:, :-1]):
            np.add.accumulate(steps[::-1], out=row[::-1])  # cumsum, with less call overhead
        np.multiply(match[:, -1:], base, out=s[:, -1:])
        s[:, :-1] += s[:, -1:]
        idx += starts[:rows]
        flat[idx] = s
        yield block


def _train_sum(groups: Iterator[np.ndarray], count: int, n: int) -> np.ndarray:
    """Each train column's sum over the next ``count`` contribution rows, no block built.

    Bit-equal to ``sum(axis=1)`` over each column of the (count, n) block
    copied to a contiguous row: numpy's pairwise sum, mirrored over the
    rows as they come in groups of ORDER_ROWS.
    """
    total = _pairwise_sum(groups, count, np.empty((ORDER_ROWS, n)))
    total += 0.0  # numpy adds the pairwise sum to a 0.0 start: -0.0 becomes 0.0
    return total


def _pairwise_sum(groups: Iterator[np.ndarray], count: int, lanes: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the next ``count`` rows, elementwise.

    The rows come in groups of 8, the first aligned with row 0, and a last
    group of the count % 8 rows left. Fewer than 8 rows are summed in order
    from 0.0. Up to PAIRWISE_BLOCK rows: 8 lanes seeded by the first 8
    rows, each later row added to lane i % 8, then
    ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)) and the count % 8 leftover rows in
    order. So each group is one lane add. Longer runs split at half the
    count, rounded down to a multiple of 8, and add the halves' sums; every
    split falls between groups.
    """
    if count < 8:
        total = np.zeros(lanes.shape[1])
        for row in next(groups):
            total += row
        return total
    if count > PAIRWISE_BLOCK:
        half = count // 2 - count // 2 % 8
        total = _pairwise_sum(groups, half, lanes)
        total += _pairwise_sum(groups, count - half, lanes)
        return total
    lanes[...] = next(groups)
    for _ in range(1, count // 8):
        lanes += next(groups)
    lanes[0::2] += lanes[1::2]  # l0+l1, l2+l3, l4+l5, l6+l7
    lanes[0::4] += lanes[2::4]  # (l0+l1)+(l2+l3), (l4+l5)+(l6+l7)
    total = lanes[0] + lanes[4]
    if count % 8:
        for row in next(groups):
            total += row
    return total


def knn_shapley_contributions(train: Dataset, test: Dataset, k: int) -> np.ndarray:
    """Exact per-test KNN Shapley contributions, shape (n_train, n_test).

    Column j holds every training point's contribution for test point j;
    averaging columns gives the final scores. Rows follow train row order.
    """
    _check_valuation_inputs(train, test, k)
    X, y, orig_pos = id_sorted_view(train)
    weights = _recursion_weights(train.n, k)
    values = np.empty((train.n, test.n))
    groups = _contribution_groups(X, y, test.features, test.labels, k, weights)
    for (lo, hi), group in zip(fixed_chunks(test.n, ORDER_ROWS), groups):
        values[orig_pos, lo:hi] = group.T
    return values


def knn_shapley(train: Dataset, test: Dataset, k: int, threads: int = 1) -> ValuationScores:
    """Exact KNN Shapley score per training point: mean per-test contribution.

    Runs in O(n (d + log n)) per test point and is deterministic for any
    thread count: each block of QUERY_CHUNK test rows gives one train-length
    sum, and the block sums are added to a 0.0 start in block order. Blocks
    run in waves of ``threads``, each wave's sums added as it ends, so
    memory is a few (ORDER_ROWS, n) arrays per thread, never a
    (QUERY_CHUNK, n) block, whatever the number of test rows.
    """
    _check_valuation_inputs(train, test, k)
    X, y, orig_pos = id_sorted_view(train)
    weights = _recursion_weights(train.n, k)

    def block_sum(block: tuple[int, int]) -> np.ndarray:
        lo, hi = block
        groups = _contribution_groups(X, y, test.features[lo:hi], test.labels[lo:hi], k, weights)
        return _train_sum(groups, hi - lo, train.n)

    blocks = list(fixed_chunks(test.n, QUERY_CHUNK))
    total = np.zeros(train.n)
    wave = max(threads, 1)
    for start in range(0, len(blocks), wave):
        for block_total in parallel_map(block_sum, blocks[start:start + wave], threads):
            total += block_total
    scores = np.empty(train.n)
    scores[orig_pos] = total / test.n
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
        self.n_test = test.n

    def utility(self, included: np.ndarray, size: int) -> float:
        """included: boolean mask over id-sorted rows; size: its popcount."""
        if size == 0:
            return 0.0
        sel = included[self.orders]
        topk = sel & (np.cumsum(sel, axis=1) <= min(self.k, size))
        return float((self.matches & topk).sum()) / (self.k * self.n_test)

    def to_row_order(self, sorted_values: np.ndarray) -> np.ndarray:
        out = np.empty_like(sorted_values)
        out[self.orig_pos] = sorted_values
        return out


def exact_data_shapley(train: Dataset, test: Dataset, k: int) -> ValuationScores:
    """Brute-force data Shapley over all coalitions under the KNN utility.

    Each point's marginal on each coalition is weighted by an inverse
    binomial coefficient; a coalition that holds the point adds 0.0. One
    cumulative sum over the coalitions in ascending (size, mask) order adds
    the terms in a fixed order, so repeated runs agree bit for bit, and
    ``+ 0.0`` turns an all-zero sum's -0.0 into 0.0. Refuses n > 16.
    """
    n = train.n
    if n > EXACT_MAX_POINTS:
        raise ValueError(f"exact enumeration limited to n <= {EXACT_MAX_POINTS}, got {n}")
    ev = _UtilityEvaluator(train, test, k)
    coalitions = np.arange(1 << n)
    bits = 1 << np.arange(n)
    masks = coalitions[:, None] & bits != 0
    sizes = masks.sum(axis=1)
    util = np.array([ev.utility(mask, size) for mask, size in zip(masks, sizes)])
    # index n weights the full coalition, whose marginals are all 0.0
    inv_binom = np.array([1.0 / math.comb(n - 1, s) for s in range(n)] + [0.0])
    marginals = (util[coalitions[:, None] | bits] - util[:, None]) * inv_binom[sizes][:, None]
    ordered = marginals[np.lexsort((coalitions, sizes))]
    phi_sorted = (np.cumsum(ordered, axis=0)[-1] + 0.0) / n
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
    if not truncation_tol >= 0:
        raise ValueError("truncation_tol must be nonnegative")
    ev = _UtilityEvaluator(train, test, k)
    n = train.n
    v_full = ev.utility(np.ones(n, dtype=bool), n)
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


def hardness_order(scores: ValuationScores) -> np.ndarray:
    """Positions by ascending score (hardest first), ties by ascending id."""
    return np.lexsort((scores.ids, scores.scores))


def rank_by_hardness(scores: ValuationScores) -> np.ndarray:
    """Ids sorted by ascending score (hardest first), ties by ascending id."""
    return scores.ids[hardness_order(scores)]


def check_aligned(scores: ValuationScores, ds: Dataset) -> None:
    """Raise unless the scores cover exactly the dataset's ids."""
    if scores.n != ds.n or not np.array_equal(np.sort(scores.ids), np.sort(ds.ids)):
        raise ValueError("scores are not aligned with the dataset ids")


def hardest_subset(ds: Dataset, scores: ValuationScores, tau: float) -> Dataset:
    """The ceil(tau*n) hardest rows of ds, in hardness order, ids preserved."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    check_aligned(scores, ds)
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
    ranks = np.empty(scores.n, dtype=np.int64)
    ranks[hardness_order(scores)] = np.arange(scores.n)
    rows = ((*row, scores.method) for row in _io.array_rows(scores.ids, scores.scores, ranks))
    _io.write_csv(path, ["id", "score", "rank", "method"], rows, [header_comment])
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        fh.write(f"method={scores.method}\n")
        for key in sorted(scores.params):
            fh.write(f"{key}={scores.params[key]}\n")


def load_scores_csv(path: str | Path) -> ValuationScores:
    path = Path(path)
    table = _io.read_csv(path)
    if not table.has_rows:
        raise ValueError(f"no score rows in {path}")
    header = table.header
    if header[:2] != ["id", "score"] or "method" not in header:
        raise ValueError(f"unexpected scores header in {path}: {header}")
    cols = table.columns([1], id_col=0, text_col=header.index("method"))
    (_, method), *changes = cols.text
    if changes:
        row, other = changes[0]
        raise ValueError(f"mixed methods in {path}: row {row} says {other!r}, "
                         f"the rows above it {method!r}")
    params: dict[str, object] = {}
    meta = Path(f"{path}.meta")
    if meta.exists():
        for line in meta.read_text(encoding="utf-8").splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                if key != "method":
                    try:  # the value the writer spelled with str(), or else its text
                        params[key] = ast.literal_eval(value)
                    except (ValueError, TypeError, SyntaxError):
                        params[key] = value
    return ValuationScores(cols.floats[:, 0], cols.ids, method, params)
