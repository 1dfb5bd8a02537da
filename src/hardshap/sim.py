"""Simulated data: Gaussian blob classification and the 1-D mixture analytics.

The 1-D setting keeps two class prototypes at -1 and +1 plus one movable
point, which makes single-nearest-neighbor values piecewise constant in the
test location and lets their population expectation be computed by
quadrature against the known mixture density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .valuation import knn_shapley_contributions

TOY_GRID = (-8.0, 8.0, 1e-3)
MAX_EXCLUDED_TAIL = 1e-6


@dataclass(frozen=True)
class BlobConfig:
    """Four Gaussian components in the plane, two per label."""

    means: tuple[tuple[float, float], ...] = ((-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0), (2.0, -2.0))
    component_labels: tuple[int, ...] = (0, 0, 1, 1)
    cov_scale: float = 1.0
    n_train: int = 5000
    n_valid: int = 2500
    n_test: int = 2500
    seed: int = 0

    def __post_init__(self):
        if len(self.means) != 4 or len(self.component_labels) != 4:
            raise ValueError("expected four components")
        if sorted(self.component_labels) != [0, 0, 1, 1]:
            raise ValueError("expected two components per label")
        if min(self.n_train, self.n_valid, self.n_test) < 1:
            raise ValueError("split sizes must be positive")
        if not self.cov_scale >= 0:
            raise ValueError("covariance scale must be nonnegative")


def _draw_blob(cfg: BlobConfig, n: int, seq: np.random.SeedSequence) -> Dataset:
    rng = np.random.default_rng(seq)
    means = np.asarray(cfg.means, dtype=np.float64)
    labels = np.asarray(cfg.component_labels, dtype=np.int64)
    comp = rng.integers(0, 4, size=n)
    features = means[comp] + cfg.cov_scale * rng.standard_normal((n, 2))
    return Dataset(features, labels[comp], ("x1", "x2"), np.arange(n, dtype=np.int64))


def gen_blobs(cfg: BlobConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Component-uniform draws for train, valid, and test, deterministic per seed."""
    seq_train, seq_valid, seq_test = np.random.SeedSequence(cfg.seed).spawn(3)
    return (
        _draw_blob(cfg, cfg.n_train, seq_train),
        _draw_blob(cfg, cfg.n_valid, seq_valid),
        _draw_blob(cfg, cfg.n_test, seq_test),
    )


def gen_toy_mixture(n: int, seed: int = 0) -> Dataset:
    """n draws from the 1-D two-component mixture: y ~ Bern(1/2), x ~ N(2y-1, 1)."""
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = rng.integers(0, 2, size=n)
    features = (2.0 * labels - 1.0)[:, None] + rng.standard_normal((n, 1))
    return Dataset(features, labels, ("x1",), np.arange(n, dtype=np.int64))


def _toy_train(x_train: float) -> Dataset:
    """(-1, label 0), (x_train, label 0), (+1, label 1); ids fix the tie order."""
    return Dataset(
        [[-1.0], [float(x_train)], [1.0]], [0, 0, 1], ("x1",), [0, 1, 2]
    )


def toy_1nn_shapleys(
    x_train: float, x_test: float, y_test: int
) -> tuple[float, float, float]:
    """Exact 1NN values (s_-1, s_movable, s_+1) for a single test point."""
    test = Dataset([[float(x_test)]], [int(y_test)], ("x1",), [0])
    contrib = knn_shapley_contributions(_toy_train(x_train), test, k=1)[:, 0]
    return float(contrib[0]), float(contrib[1]), float(contrib[2])


def _normal_pdf(x: np.ndarray, mean: float) -> np.ndarray:
    return np.exp(-0.5 * (x - mean) ** 2) / math.sqrt(2.0 * math.pi)


def _normal_cdf(x: float, mean: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mean) / math.sqrt(2.0)))


def toy_expected_shapley(
    x_train: float, grid: tuple[float, float, float] = TOY_GRID
) -> float:
    """Expected 1NN value of the movable point under the mixture test law.

    Trapezoidal quadrature of its per-test value against each class
    density, branches averaged with weight one half. Errors out if the grid
    leaves more than 1e-6 of either component's mass outside.
    """
    lower, upper, step = grid
    if step <= 0:
        raise ValueError("grid step must be positive")
    for mean in (-1.0, 1.0):
        excluded = _normal_cdf(lower, mean) + (1.0 - _normal_cdf(upper, mean))
        if excluded > MAX_EXCLUDED_TAIL:
            raise ValueError(
                f"grid [{lower}, {upper}] excludes {excluded:.2e} tail mass of the "
                f"component at {mean}; widen it"
            )
    count = int(round((upper - lower) / step)) + 1
    xs = lower + step * np.arange(count)
    train = _toy_train(x_train)
    total = 0.0
    for y in (0, 1):
        test = Dataset(xs[:, None], np.full(count, y, dtype=np.int64), ("x1",), np.arange(count))
        s_train = knn_shapley_contributions(train, test, k=1)[1]
        integrand = s_train * _normal_pdf(xs, 2.0 * y - 1.0)
        integral = step * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
        total += 0.5 * integral
    return float(total)


def toy_interval_table(
    x_train: float,
) -> list[tuple[float, float, int, tuple[float, float, float]]]:
    """Per-interval 1NN values: rows of (lo, hi, y_test, (s_-1, s_movable, s_+1)).

    Interval boundaries are the pairwise midpoints of the three training
    locations, where the distance ranking changes; one representative test
    point inside each interval determines the whole interval.
    """
    points = [-1.0, float(x_train), 1.0]
    midpoints = sorted({(a + b) / 2.0 for i, a in enumerate(points) for b in points[i + 1:]})
    edges = [-math.inf, *midpoints, math.inf]
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        if math.isinf(lo):
            representative = hi - 1.0
        elif math.isinf(hi):
            representative = lo + 1.0
        else:
            representative = (lo + hi) / 2.0
        for y in (0, 1):
            rows.append((lo, hi, y, toy_1nn_shapleys(x_train, representative, y)))
    return rows
