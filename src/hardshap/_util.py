"""Small shared helpers: fixed-order threading and count rounding.

Work is split into chunks whose boundaries do not depend on the thread
count, and results come back in submission order, so any reduction over
them is invariant to how many workers ran.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


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


def round_half_up(x: float) -> int:
    """round() with half-up ties; keeps tiny perturbation quotas from vanishing."""
    return int(math.floor(x + 0.5))


def hard_count(tau: float, n: int) -> int:
    """ceil(tau*n) with tau read as the decimal it prints as.

    Float products overshoot (0.07 * 100 is 7.000000000000001), which would
    make the ceiling one row too many.
    """
    return math.ceil(Fraction(repr(tau)) * n)
