"""Small shared helpers: fixed-order threading, share counts, frozen arrays and distances.

Work is split into chunks whose boundaries do not depend on the thread
count, and results come back in submission order, so any reduction over
them is invariant to how many workers ran.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def freeze_field(obj: object, name: str, dtype: type) -> np.ndarray:
    """Set field ``name`` of a frozen dataclass to a read-only ``dtype`` copy and return it."""
    arr = np.array(getattr(obj, name), dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def cdist(XA: np.ndarray, XB: np.ndarray, **kwargs) -> np.ndarray:
    """``scipy.spatial.distance.cdist``, imported on the first call.

    Importing ``scipy.spatial`` takes about 0.4 s and 65 MB, which commands
    that compute no distance need not pay.
    """
    from scipy.spatial.distance import cdist as scipy_cdist

    return scipy_cdist(XA, XB, **kwargs)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Apply fn to every item, preserving item order in the result."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fixed_chunks(total: int, chunk_size: int) -> Iterator[tuple[int, int]]:
    """(start, stop) ranges covering 0..total with a size independent of threads."""
    for start in range(0, total, chunk_size):
        yield start, min(start + chunk_size, total)


def largest_remainder(total: int, quotas: Sequence[float]) -> list[int]:
    """Integer counts summing to total, closest to quotas (which sum to total).

    Remainder units go to the largest fractional parts; ties resolve in
    quota order, so the allocation is deterministic.
    """
    counts = [math.floor(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def share_count(share: float, n: int, up: bool = False) -> int:
    """share*n rows, share read as the decimal it prints as, rounded half up or (``up``) up.

    Float products land beside the decimal: 0.7 * 45 is 31.499999999999996,
    not 31.5, and 0.07 * 100 is 7.000000000000001, not 7.
    """
    share = float(share)
    if not math.isfinite(share):
        raise ValueError(f"share of {n} rows must be finite, got {share!r}")
    exact = Fraction(repr(share)) * n
    return math.ceil(exact) if up else math.floor(exact + Fraction(1, 2))
