"""Hardness injectors and the AUPRC benchmark against planted ground truth.

Three perturbation kinds cover the usual taxonomy: label flips
(mislabeling), feature shifts off the data distribution (ood), and
label-consistent rescaling into distribution tails (atypical). A
characterizer is scored by ranking the perturbed training set
hardest-first and measuring average precision against the planted flags.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _io
from ._util import freeze_field, parallel_map, round_half_up
from .dataiq import bagged_checkpoint_probs, confidence
from .dataset import Dataset, SplitSpec, stratified_split
from .valuation import knn_shapley

KINDS = ("mislabeling", "ood", "atypical")
CHARACTERIZERS = ("knn_shapley", "dataiq", "random")
TAKES_K = ("knn_shapley", "dataiq")  # the characterizers that read k
PROBE_FRACTION = 0.2  # share of each run held out as the clean probe set


@dataclass(frozen=True)
class PerturbationRecord:
    """Which rows were perturbed, how, and under which seed."""

    flags: np.ndarray
    kind: str
    proportion: float
    seed: int

    def __post_init__(self):
        flags = freeze_field(self, "flags", bool)
        if self.kind not in KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        expected = round_half_up(self.proportion * flags.shape[0])
        if int(flags.sum()) != expected:
            raise ValueError("flag count does not match round(proportion * n)")


def _pick_rows(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    if not 0.0 < p < 1.0:
        raise ValueError("proportion must lie in (0, 1)")
    count = round_half_up(p * n)
    if count == 0 or count == n:
        raise ValueError(f"proportion {p} rounds to {count} of {n} rows")
    return rng.choice(n, size=count, replace=False)


def mislabel(ds: Dataset, p: float, seed: int = 0) -> tuple[Dataset, PerturbationRecord]:
    """Flip the labels of round(p*n) uniformly chosen rows."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = _pick_rows(ds.n, p, rng)
    labels = ds.labels.copy()
    labels[rows] = 1 - labels[rows]
    flags = np.zeros(ds.n, dtype=bool)
    flags[rows] = True
    return ds.with_labels(labels), PerturbationRecord(flags, "mislabeling", p, seed)


def ood_shift(
    ds: Dataset, p: float, magnitude: float, seed: int = 0
) -> tuple[Dataset, PerturbationRecord]:
    """Shift round(p*n) rows by magnitude * stddev along a random unit direction.

    The per-feature population stddev of ds sets the scale, so the shift is
    comparable across features regardless of units; labels are untouched.
    """
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = _pick_rows(ds.n, p, rng)
    sigma = ds.features.std(axis=0)
    directions = rng.standard_normal((rows.shape[0], ds.d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    directions /= norms
    features = ds.features.copy()
    features[rows] += magnitude * sigma * directions
    flags = np.zeros(ds.n, dtype=bool)
    flags[rows] = True
    return ds.with_features(features), PerturbationRecord(flags, "ood", p, seed)


def atypical_scale(
    ds: Dataset, p: float, quantile: float, seed: int = 0
) -> tuple[Dataset, PerturbationRecord]:
    """Rescale round(p*n) rows about their class mean out to a tail radius.

    Each selected row is moved along its own offset from the class mean so
    its diagonal Mahalanobis radius equals the clean per-class radius at
    `quantile`; a row at the mean moves along a random direction, drawn per
    class in draw order. Labels stay valid; the rows just become rare.
    """
    if not 0.9 < quantile < 1.0:
        raise ValueError("quantile must lie in (0.9, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = _pick_rows(ds.n, p, rng)
    features = ds.features.copy()
    for cls in np.unique(ds.labels):
        members = np.flatnonzero(ds.labels == cls)
        if members.shape[0] < 2:
            raise ValueError(f"class {cls} has a single member; cannot estimate its spread")
        mean = ds.features[members].mean(axis=0)
        var = ds.features[members].var(axis=0)
        safe_var = np.where(var == 0, 1.0, var)
        offsets = ds.features[members] - mean
        radii = np.sqrt(((offsets**2) / safe_var).sum(axis=1))
        target = float(np.quantile(radii, quantile))
        picked = rows[ds.labels[rows] == cls]  # in draw order
        moved = ds.features[picked] - mean
        radius = np.sqrt(((moved**2) / safe_var).sum(axis=1))
        for i in np.flatnonzero(radius == 0.0):  # at the class mean: a random direction
            moved[i] = rng.standard_normal(ds.d) * np.sqrt(safe_var)
            radius[i] = np.sqrt(((moved[i] ** 2) / safe_var).sum())
        features[picked] = mean + moved * (target / radius)[:, None]
    flags = np.zeros(ds.n, dtype=bool)
    flags[rows] = True
    return ds.with_features(features), PerturbationRecord(flags, "atypical", p, seed)


def auprc(scores: np.ndarray, flags: np.ndarray) -> float:
    """Average precision of a lower-is-harder ranking against planted flags.

    Points are ranked ascending by score; ties collapse into one threshold
    step, so constant scores yield exactly the flag prevalence. NaN scores
    have no place in the ranking and are rejected.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise ValueError("scores and flags must be 1-D and of equal length")
    positives = int(flags.sum())
    if positives == 0 or positives == flags.shape[0]:
        raise ValueError("flags must mark at least one and not all rows")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    # one threshold step per run of equal scores, ending at `stops`
    stops = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True)) + 1
    tp = np.cumsum(flags[order])[stops - 1]
    recall = tp / positives
    precision = tp / stops
    # cumsum adds in step order, as a loop would; sum() would add pairwise
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


@dataclass(frozen=True)
class BenchmarkRow:
    kind: str
    proportion: float
    characterizer: str
    run: int
    auprc: float


def _characterizer_scores(
    name: str,
    work: Dataset,
    probe: Dataset,
    rng: np.random.Generator,
    k: int,
    n_checkpoints: int,
) -> np.ndarray:
    """Lower-is-harder score vector for the perturbed working set; ``benchmark`` checks ``name``."""
    if name == "knn_shapley":
        return knn_shapley(work, probe, k).scores
    if name == "dataiq":
        cp = bagged_checkpoint_probs(
            work, n_checkpoints=n_checkpoints, k=k, seed=int(rng.integers(2**32))
        )
        return confidence(cp)
    return rng.uniform(size=work.n)  # random


def _perturb(ds: Dataset, kind: str, p: float, seed: int) -> tuple[Dataset, PerturbationRecord]:
    if kind == "mislabeling":
        return mislabel(ds, p, seed)
    if kind == "ood":
        return ood_shift(ds, p, magnitude=3.0, seed=seed)
    return atypical_scale(ds, p, quantile=0.99, seed=seed)


def benchmark(
    ds: Dataset,
    kinds: Sequence[str] = KINDS,
    proportions: Sequence[float] = (0.05, 0.1, 0.15, 0.2),
    characterizers: Sequence[str] = CHARACTERIZERS,
    runs: int = 3,
    seed: int = 0,
    k: int = 5,
    n_checkpoints: int = 10,
    threads: int = 1,
) -> list[BenchmarkRow]:
    """AUPRC of each characterizer against each planted perturbation.

    Per run, a clean probe split is carved off (characterizers that need a
    reference set score against it), the working split is perturbed, and
    each characterizer's ranking is scored against the planted flags. Cell
    seeds derive from (seed, kind, proportion, run), so the table is
    deterministic regardless of execution order or thread count.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    # checked before any cell runs: a bad value would otherwise fail only when its cell runs
    if unknown := set(characterizers) - set(CHARACTERIZERS):
        raise ValueError(f"unknown characterizers: {sorted(unknown)}")
    if unknown := set(kinds) - set(KINDS):
        raise ValueError(f"unknown kinds: {sorted(unknown)}")
    if not all(0.0 < p < 1.0 for p in proportions):
        raise ValueError("proportions must lie in (0, 1)")
    # the mean table keys its cells by value, so a repeat would merge two cells
    given = {"kinds": kinds, "proportions": proportions, "characterizers": characterizers}
    if repeated := [name for name, values in given.items() if len(set(values)) < len(values)]:
        raise ValueError(f"{', '.join(repeated)} must not repeat a value")
    cells = list(product(range(len(kinds)), range(len(proportions)), range(runs)))

    def run_cell_rows(cell: tuple[int, int, int]) -> list[BenchmarkRow]:
        ki, pi, run = cell
        kind, p = kinds[ki], proportions[pi]
        cell_seq = np.random.SeedSequence([seed, ki, pi, run])
        split_seed, perturb_seed, score_seed = (
            int(s.generate_state(1)[0]) for s in cell_seq.spawn(3)
        )
        work, probe = _probe_split(ds, split_seed)
        perturbed, record = _perturb(work, kind, p, perturb_seed)
        rng = np.random.default_rng(np.random.SeedSequence(score_seed))
        out = []
        for name in characterizers:
            scores = _characterizer_scores(name, perturbed, probe, rng, k, n_checkpoints)
            out.append(BenchmarkRow(kind, p, name, run, auprc(scores, record.flags)))
        return out

    return [row for cell_rows in parallel_map(run_cell_rows, cells, threads) for row in cell_rows]


def _probe_split(ds: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split off a clean probe set; everything else is the working set."""
    # The splitter is three-way by contract, so carve the probe as the third
    # part and keep every other row, in id order, as the working set.
    half = PROBE_FRACTION / 2
    _, _, probe = stratified_split(
        ds, SplitSpec(1.0 - PROBE_FRACTION - half, half, PROBE_FRACTION, seed)
    )
    by_id = np.argsort(ds.ids)
    return ds.take(by_id[~np.isin(ds.ids[by_id], probe.ids)]), probe


def aggregate_benchmark(rows: Sequence[BenchmarkRow]) -> list[tuple[str, float, str, float]]:
    """Mean AUPRC per (kind, proportion, characterizer), in first-seen order."""
    groups: dict[tuple[str, float, str], list[float]] = {}
    for row in rows:
        groups.setdefault((row.kind, row.proportion, row.characterizer), []).append(row.auprc)
    return [(k, p, c, float(np.mean(v))) for (k, p, c), v in groups.items()]


def save_benchmark_csv(
    rows: Sequence[BenchmarkRow], path: str | Path, header_comment: str | None = None
) -> None:
    header = ["kind", "proportion", "characterizer", "run", "auprc"]
    _io.write_csv(path, header, map(astuple, rows), [header_comment])


def save_benchmark_mean_csv(
    rows: Sequence[BenchmarkRow], path: str | Path, header_comment: str | None = None
) -> None:
    header = ["kind", "proportion", "characterizer", "mean_auprc"]
    _io.write_csv(path, header, aggregate_benchmark(rows), [header_comment])
