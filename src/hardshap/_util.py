"""Small shared helpers: fixed-order threading, count rounding, frozen arrays and distances.

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


def round_half_up(x: float) -> int:
    """round() with half-up ties; keeps tiny perturbation quotas from vanishing."""
    return int(math.floor(x + 0.5))


def hard_count(tau: float, n: int) -> int:
    """ceil(tau*n) with tau read as the decimal it prints as.

    Float products overshoot (0.07 * 100 is 7.000000000000001), which would
    make the ceiling one row too many.
    """
    return math.ceil(Fraction(repr(tau)) * n)
