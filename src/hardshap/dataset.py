"""Tabular binary-classification datasets: ingestion, splitting, standardization.

A :class:`Dataset` is an immutable bundle of a float feature matrix, 0/1
labels, feature names, and stable integer row ids. Ids survive splits,
perturbation, and augmentation, which is what lets downstream benchmarks
match scores back to the rows they were computed for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _io
from ._util import freeze_field, largest_remainder

ID_COLUMN = "id"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and stable row ids."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    ids: np.ndarray

    def __post_init__(self):
        features = freeze_field(self, "features", np.float64)
        labels = freeze_field(self, "labels", np.int64)
        ids = freeze_field(self, "ids", np.int64)
        names = tuple(str(c) for c in self.feature_names)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValueError("dataset needs at least one row and one feature")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain NaN or infinite entries")
        if labels.shape != (n,):
            raise ValueError("labels length does not match feature rows")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("invalid label: labels must be 0 or 1")
        if len(names) != d:
            raise ValueError("feature_names length does not match feature columns")
        if ids.shape != (n,):
            raise ValueError("ids length does not match feature rows")
        if len(np.unique(ids)) != n:
            raise ValueError("ids must be unique")
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, positions: np.ndarray | Sequence[int]) -> "Dataset":
        """Row subset / reorder by positional index, ids preserved."""
        pos = np.asarray(positions, dtype=np.intp)
        return Dataset(self.features[pos], self.labels[pos], self.feature_names, self.ids[pos])

    def with_features(self, features: np.ndarray) -> "Dataset":
        return Dataset(features, self.labels, self.feature_names, self.ids)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.features, labels, self.feature_names, self.ids)

    def positions_of(self, ids: Iterable[int]) -> np.ndarray:
        """Positional indices for the given ids; raises on unknown ids."""
        wanted = np.asarray(list(ids), dtype=np.int64)
        order = np.argsort(self.ids)
        sorted_ids = self.ids[order]
        pos = np.searchsorted(sorted_ids, wanted)
        bad = (pos >= self.n) | (sorted_ids[np.minimum(pos, self.n - 1)] != wanted)
        if bad.any():
            raise KeyError(f"unknown ids: {wanted[bad][:5].tolist()}")
        return order[pos]

    def require_both_classes(self, context: str) -> None:
        if len(np.unique(self.labels)) < 2:
            raise ValueError(f"{context} requires both classes to be present")


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions plus the seed that fixes the shuffle."""

    train_fraction: float
    valid_fraction: float
    test_fraction: float
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.valid_fraction, self.test_fraction)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise ValueError("split fractions must lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.valid_fraction, self.test_fraction)


def stratified_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded three-way split preserving class prevalence in every part.

    Rows of each class are shuffled with the seeded PRNG and dealt to the
    parts by largest-remainder quota, so per-part prevalence is within
    1/|part| of the overall prevalence. Parts are disjoint by id and their
    union is the input.
    """
    ds.require_both_classes("stratified_split")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    part_positions: list[list[int]] = [[], [], []]
    for cls in (0, 1):
        members = np.flatnonzero(ds.labels == cls)
        shuffled = members[rng.permutation(len(members))]
        counts = largest_remainder(len(members), [len(members) * f for f in spec.fractions])
        if min(counts) == 0:
            raise ValueError(f"class {cls} too small to appear in every split part")
        offset = 0
        for part, count in enumerate(counts):
            part_positions[part].extend(shuffled[offset:offset + count].tolist())
            offset += count
    parts = []
    for positions in part_positions:
        if not positions:
            raise ValueError("degenerate fractions: empty split part")
        parts.append(ds.take(np.sort(np.asarray(positions, dtype=np.intp))))
    return parts[0], parts[1], parts[2]


def standardize(
    train: Dataset, others: Sequence[Dataset] = ()
) -> tuple[Dataset, list[Dataset], np.ndarray, np.ndarray]:
    """Center/scale features to train mean 0 and population stddev 1.

    The affine map is fitted on `train` only and applied to every dataset in
    `others`. Columns that are exactly constant on train carry no distance
    information and are mapped to 0 everywhere; their reported stddev is 0.
    """
    X = train.features
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    constant = np.ptp(X, axis=0) == 0
    stds = np.where(constant, 0.0, stds)
    scale = np.where(constant, 1.0, stds)

    def apply(ds: Dataset) -> Dataset:
        Z = ds.features - means
        Z /= scale
        if constant.any():
            Z[:, constant] = 0.0
        return ds.with_features(Z)

    return apply(train), [apply(ds) for ds in others], means, stds


def load_csv(path: str | Path, label_column: str) -> Dataset:
    """Read a header-ed CSV into a Dataset.

    All non-label columns must be numeric; labels must be 0 or 1. A column
    named ``id`` supplies row ids (needed for round-tripping split files);
    otherwise ids are assigned 0..n-1 in file order. Lines starting with
    ``#`` are treated as comments and skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    table = _io.read_csv(path)
    header = table.header
    if header is None:
        raise ValueError(f"empty file: {path}")
    if not table.has_rows:
        raise ValueError(f"no data rows in {path}")
    if header.count(label_column) == 0:
        raise ValueError(f"missing label column {label_column!r} in {path}")
    if header.count(label_column) > 1 or len(set(header)) != len(header):
        raise ValueError(f"duplicate column names in {path}")
    label_idx = header.index(label_column)
    id_idx = header.index(ID_COLUMN) if ID_COLUMN in header else None
    feature_idx = [i for i in range(len(header)) if i != label_idx and i != id_idx]
    cols = table.columns(feature_idx, id_col=id_idx, label_col=label_idx)
    ids = cols.ids if id_idx is not None else np.arange(len(cols.labels), dtype=np.int64)
    return Dataset(cols.floats, cols.labels, tuple(header[i] for i in feature_idx), ids)


def save_csv(
    ds: Dataset,
    path: str | Path,
    label_column: str = "label",
    header_comment: str | None = None,
) -> None:
    """Write a Dataset as ``id,<features...>,<label>`` CSV.

    Floats are written with shortest round-trip repr, so load_csv(save_csv(ds))
    reproduces the dataset bit for bit.
    """
    if label_column in ds.feature_names or label_column == ID_COLUMN:
        raise ValueError(f"label column name {label_column!r} collides with an existing column")
    rows = ([i, *x, y] for i, x, y in _io.array_rows(ds.ids, ds.features, ds.labels))
    _io.write_csv(path, [ID_COLUMN, *ds.feature_names, label_column], rows, [header_comment])
