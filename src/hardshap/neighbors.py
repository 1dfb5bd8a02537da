"""Euclidean neighbor ordering shared by valuation, Data-IQ, SMOTE, and eval.

Every ordering is by distance, then by column: of two training rows at the
same distance, the one stored first ranks first. Callers that pass id-sorted
rows therefore break distance ties by ascending row id, which gives every
consumer the same total order and makes results independent of row storage
order. Both kernels below return exactly what a stable argsort would.

``stable_order`` is the full order, which only the exact Shapley recursion
and the coalition oracles need. It sorts uint64 keys: each distance's bits
with the low ceil(log2 n) bits replaced by its column, so equal distances
come out in column order. A row is sorted again stably where two adjacent
keys agree above those bits but their distances come out reversed, or where
a negative entry or -0.0 sets a key's sign bit. ``smallest_k`` finds the k
nearest without sorting whole rows: ``argpartition`` picks k candidates and
only those are sorted. Where the k-th distance equals the (k+1)-th, the
partition may have kept any of the tied columns, so on those rows alone the
candidates at that distance are replaced by the lowest columns at it,
keeping the cut where a stable sort puts it.

``k_nearest``, the one top-K query, serves SMOTE, the downstream KNN vote
and the ``CachedVote`` build. Data-IQ, the exact recursion and
``removal_curve`` keep their own ``cdist`` blocks: each uses more of a block
than its top K. ``k_nearest`` and ``removal_curve`` size their blocks by
cells, ``top_k_blocks``: about TOP_K_CELLS distances (1 MB) per block, so
the block and ``argpartition``'s index array stay cache-sized as n grows.
Rows are independent, so the block size never changes a result.

Distances must not be NaN; ``inf`` (a masked-out pair) is allowed.
"""

from __future__ import annotations

import numpy as np

from ._util import cdist, fixed_chunks, parallel_map
from .dataset import Dataset

QUERY_CHUNK = 256
TOP_K_CELLS = 1 << 17  # distances per top-K block: 1 MB of float64


def check_same_dimension(a: Dataset, b: Dataset) -> None:
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")


def id_sorted_view(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, original positions) with rows reordered by ascending id.

    In this view the column tie-break of the kernels below is the id
    tie-break. Rows already in id order (every file without an id column)
    come back as the dataset's own read-only arrays, not copied.
    """
    if (ds.ids[1:] > ds.ids[:-1]).all():
        return ds.features, ds.labels, np.arange(ds.n)
    order = np.argsort(ds.ids)
    return ds.features[order], ds.labels[order], order


def stable_order(dist: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.argsort(dist, axis=-1, kind="stable")`` of a row or a block, from packed keys.

    ``out``, a C-contiguous int64 array of dist's shape, receives the order
    if given. The exact recursion passes one per thread, so its sorts
    allocate no keys.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[-1]
    low = np.uint64((1 << max(n - 1, 0).bit_length()) - 1)
    keys = np.bitwise_and(dist.view(np.uint64), ~low,
                          out=None if out is None else out.view(np.uint64))
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=-1)
    rows, row_keys = np.atleast_2d(dist, keys)
    redo = row_keys[:, -1] >= np.uint64(1 << 63)  # a sign bit sorts last
    near = ((row_keys[:, 1:] ^ row_keys[:, :-1]) <= low).any(axis=1) & ~redo
    keys &= low  # the keys become the column order
    order, row_order = keys.view(np.int64), row_keys.view(np.int64)
    if near.any():
        ranked = np.take_along_axis(rows[near], row_order[near], axis=1)
        redo[near] = (ranked[:, 1:] < ranked[:, :-1]).any(axis=1)
    if redo.any():
        row_order[redo] = np.argsort(rows[redo], axis=1, kind="stable")
    return order


def smallest_k(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries of each row of a 2-D dist, by (distance, column).

    Equals ``np.argsort(dist, axis=1, kind="stable")[:, :k]``.
    """
    if k >= dist.shape[1]:
        return stable_order(dist)[:, :k]
    part = np.argpartition(dist, k, axis=1)
    cand = part[:, :k]
    cand_d = np.take_along_axis(dist, cand, axis=1)
    kth = cand_d.max(axis=1)
    next_d = np.take_along_axis(dist, part[:, k:k + 1], axis=1)[:, 0]
    tied = np.flatnonzero(kth == next_d)
    if tied.size:
        # All entries below the k-th distance are candidates already; the
        # slots at it go to the lowest columns at it, in column order.
        boundary = kth[tied, None]
        slots = cand_d[tied] == boundary
        rows, cols = np.nonzero(dist[tied] == boundary)
        rank_in_row = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        slot_rows, slot_cols = np.nonzero(slots)
        cand[tied[slot_rows], slot_cols] = cols[rank_in_row < slots.sum(axis=1)[rows]]
    order = np.lexsort((cand, cand_d), axis=1)
    return np.take_along_axis(cand, order, axis=1)


def rank_all(train_features: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Training-row order by increasing distance to each query row.

    Returns an (n_query, n_train) index matrix; ties keep the input row
    order (pass id-sorted features for id tie-breaking).
    """
    return stable_order(cdist(query, train_features))


def top_k_blocks(n_query: int, n_train: int) -> list[tuple[int, int]]:
    """Query-row blocks of about TOP_K_CELLS distances each, whatever the thread count."""
    return list(fixed_chunks(n_query, max(1, TOP_K_CELLS // n_train)))


def check_k(k: int, n: int) -> None:
    """Refuse a K that is not in 1..n for n training rows."""
    if not 1 <= k <= n:
        raise ValueError(f"K={k} out of range for {n} training rows")


def k_nearest(
    train_features: np.ndarray, query: np.ndarray, k: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(columns, distances) of the k nearest training rows per query row, tie-stable.

    Columns go by (distance, column); distances are their ``cdist`` values.
    Query rows go in ``top_k_blocks``, which do not depend on ``threads``,
    so each block's memory stays near TOP_K_CELLS values as n grows.
    """
    check_k(k, train_features.shape[0])
    columns = np.empty((query.shape[0], k), dtype=np.intp)
    distances = np.empty((query.shape[0], k))

    def run(block: tuple[int, int]) -> None:
        lo, hi = block
        dist = cdist(query[lo:hi], train_features)
        columns[lo:hi] = smallest_k(dist, k)
        distances[lo:hi] = np.take_along_axis(dist, columns[lo:hi], axis=1)

    parallel_map(run, top_k_blocks(query.shape[0], train_features.shape[0]), threads)
    return columns, distances
