"""Reference computations and output checks, written apart from hardshap.

Nothing here imports the package under test. Each ``check_*`` function
compares one CLI output with a computation made from numpy, scipy and the
standard library alone, or with a property the method must have, and
returns a list of failure messages (empty when the output is correct).

Row ids break every distance tie, as the program documents: among rows at
equal distance, the lower id is nearer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import cdist

# Cells of the distance blocks, kept small so the checks stay cheap in memory.
BLOCK_CELLS = 2_000_000
# Floating sums over thousands of scores agree to far better than this.
SUM_TOL = 1e-9
# Two float computations of the same rational Gini or AUPRC.
VALUE_TOL = 1e-12


class Table(NamedTuple):
    """Features, 0/1 labels and row ids of one data set."""

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def take(self, positions: np.ndarray) -> "Table":
        return Table(self.X[positions], self.y[positions], self.ids[positions])


def standardize(train: Table, others: Sequence[Table] = ()) -> tuple[Table, list[Table]]:
    """Train-fitted zero mean, unit population stddev; constant columns become 0."""
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    constant = np.ptp(train.X, axis=0) == 0
    scale = np.where(constant, 1.0, std)

    def apply(t: Table) -> Table:
        Z = (t.X - mean) / scale
        Z[:, constant] = 0.0
        return Table(Z, t.y, t.ids)

    return apply(train), [apply(t) for t in others]


def round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


# ---------------------------------------------------------------- neighbours


def distances(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Euclidean distances from scipy; selection and tie-breaking are done here."""
    return cdist(query, ref)


def nearest_mask(query: np.ndarray, ref: Table, k: int) -> tuple[Table, np.ndarray]:
    """Boolean (n_query, n_ref) mask of each query row's k nearest ref rows.

    Brute force over Euclidean distances; ties at the k-th distance go to the
    lowest ids. Returns the ref table reordered by id, whose columns the mask
    indexes.
    """
    ref = ref.take(np.argsort(ref.ids, kind="stable"))
    k = min(k, ref.X.shape[0])
    block = max(1, BLOCK_CELLS // ref.X.shape[0])
    parts = []
    for lo in range(0, query.shape[0], block):
        dist = distances(query[lo:lo + block], ref.X)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        below = dist < kth
        tie = dist == kth
        need = k - below.sum(axis=1, keepdims=True)
        parts.append(below | (tie & (np.cumsum(tie, axis=1) <= need)))
    return ref, np.concatenate(parts)


def knn_votes(train: Table, query: np.ndarray, k: int) -> np.ndarray:
    """Number of label-1 rows among each query row's k nearest training rows."""
    ref, mask = nearest_mask(query, train, k)
    return (mask & (ref.y == 1)).sum(axis=1)


def knn_match_mean(train: Table, test: Table, k: int) -> float:
    """Mean over test rows of the label-match count among the top min(k, n), over k."""
    ref, mask = nearest_mask(test.X, train, k)
    matches = (mask & (ref.y[None, :] == test.y[:, None])).sum()
    return float(Fraction(int(matches), k * test.X.shape[0]))


def gini_from_votes(votes: np.ndarray, labels: np.ndarray) -> float:
    """Gini = 2 AUC - 1 of integer votes, with AUC counted over all pos/neg pairs.

    A tied pair counts one half. The count is exact; only the final division
    rounds.
    """
    votes = np.asarray(votes, dtype=np.int64)
    top = int(votes.max()) + 1
    pos = np.bincount(votes[labels == 1], minlength=top)
    neg = np.bincount(votes[labels == 0], minlength=top)
    neg_below = np.concatenate([[0], np.cumsum(neg)[:-1]])
    wins = int((pos * neg_below).sum())
    ties = int((pos * neg).sum())
    auc = Fraction(2 * wins + ties, 2 * int(pos.sum()) * int(neg.sum()))
    return float(2 * auc - 1)


# ------------------------------------------------------------------ Shapley


def knn_shapley_recursion(train: Table, test: Table, k: int) -> np.ndarray:
    """Exact KNN Shapley values by the backward recursion (Jia et al. 2019).

    Rows follow train row order. The farthest of n rows gets
    1[match]·min(k, n)/(n·k); each nearer row adds
    (1[match_i] - 1[match_i+1])·min(k, i)/(i·k).
    """
    n = train.X.shape[0]
    order_by_id = np.argsort(train.ids, kind="stable")
    X, y = train.X[order_by_id], train.y[order_by_id]
    ranks = np.arange(1, n, dtype=np.float64)
    weights = np.minimum(k, ranks) / (ranks * k)
    total = np.zeros(n)
    for x_test, y_test in zip(test.X, test.y):
        dist = np.sqrt(((X - x_test) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")
        match = (y[order] == y_test).astype(np.float64)
        s = np.empty(n)
        s[-1] = match[-1] * min(k, n) / (n * k)
        for i in range(n - 2, -1, -1):
            s[i] = s[i + 1] + (match[i] - match[i + 1]) * weights[i]
        total[order] += s
    values = np.empty(n)
    values[order_by_id] = total / test.X.shape[0]
    return values


def shapley_by_permutations(n: int, utility) -> list[float]:
    """Exact Shapley values by averaging marginals over all n! orders."""
    sums = [0.0] * n
    orders = list(itertools.permutations(range(n)))
    for order in orders:
        members: list[int] = []
        prev = utility(members)
        for i in order:
            members.append(i)
            value = utility(members)
            sums[i] += value - prev
            prev = value
    return [s / len(orders) for s in sums]


# ---------------------------------------------------------------- 1-D toy


# Analytic 1NN values at x = 0: (lo, hi, y_test, (s_-1, s_movable, s_+1)).
TOY_TABLE_AT_0 = (
    (-math.inf, -0.5, 0, (Fraction(1, 2), Fraction(1, 2), Fraction(0))),
    (-math.inf, -0.5, 1, (Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 3))),
    (-0.5, 0.0, 0, (Fraction(1, 2), Fraction(1, 2), Fraction(0))),
    (-0.5, 0.0, 1, (Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 3))),
    (0.0, 0.5, 0, (Fraction(1, 3), Fraction(5, 6), Fraction(-1, 6))),
    (0.0, 0.5, 1, (Fraction(0), Fraction(-1, 2), Fraction(1, 2))),
    (0.5, math.inf, 0, (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))),
    (0.5, math.inf, 1, (Fraction(0), Fraction(0), Fraction(1))),
)


def toy_table(x: float) -> list[tuple[float, float, int, tuple[float, float, float]]]:
    """1NN Shapley values of the three toy points on each interval of test locations.

    The nearest-point order only changes at pairwise midpoints, so one test
    point inside each interval stands for all of it.
    """
    points = [-1.0, float(x), 1.0]
    labels = [0, 0, 1]
    cuts = sorted({(a + b) / 2.0 for a, b in itertools.combinations(points, 2)})
    edges = [-math.inf, *cuts, math.inf]
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        if lo == -math.inf:
            t = hi - 1.0
        elif hi == math.inf:
            t = lo + 1.0
        else:
            t = (lo + hi) / 2.0
        for y in (0, 1):

            def utility(members: list[int]) -> float:
                if not members:
                    return 0.0
                nearest = min(members, key=lambda i: (abs(t - points[i]), i))
                return float(labels[nearest] == y)

            rows.append((lo, hi, y, tuple(shapley_by_permutations(3, utility))))
    return rows


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def toy_closed_form(x: float) -> float:
    """E[s_movable] = ½·Σ s·(Φ(hi - μ_y) - Φ(lo - μ_y)), μ_y = 2y - 1."""
    total = 0.0
    for lo, hi, y, (_, s_mov, _) in toy_table(x):
        mu = 2 * y - 1
        total += s_mov * (normal_cdf(hi - mu) - normal_cdf(lo - mu))
    return 0.5 * total


# ------------------------------------------------------------- precision


def average_precision(scores: np.ndarray, flags: np.ndarray) -> float:
    """Average precision of an ascending-score ranking; equal scores share one step."""
    order = np.argsort(scores, kind="stable")
    s, f = scores[order], flags[order].astype(np.int64)
    ends = np.append(np.flatnonzero(np.diff(s) != 0), s.shape[0] - 1)
    tp = np.cumsum(f)[ends]
    recall = tp / f.sum()
    precision = tp / (ends + 1)
    return float((np.diff(np.concatenate([[0.0], recall])) * precision).sum())


def expected_random_ap(n: int, positives: int) -> float:
    """Exact mean average precision of a uniformly random ranking.

    E[AP] = (R-1)/(N-1) + H_N·(N-R)/(N·(N-1)); it exceeds the share R/N by
    about H_N/N, which is not negligible against the spread of a few runs.
    """
    harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
    return float(Fraction(positives - 1, n - 1) + harmonic * Fraction(n - positives, n * (n - 1)))


# ------------------------------------------------------------------ checks


def check_scores(ids: np.ndarray, scores: np.ndarray, train: Table, test: Table, k: int) -> list[str]:
    """Scores cover every training id once, lie in [-1, 1] and obey efficiency."""
    errors = []
    if sorted(ids.tolist()) != sorted(train.ids.tolist()):
        errors.append(f"scores cover {len(ids)} ids, the training set has {len(train.ids)}")
        return errors
    if scores.min() < -1.0 or scores.max() > 1.0:
        errors.append(f"scores leave [-1, 1]: min {scores.min()!r}, max {scores.max()!r}")
    expected = knn_match_mean(train, test, k)
    if abs(scores.sum() - expected) > SUM_TOL:
        errors.append(f"efficiency: sum of scores {scores.sum()!r} != utility {expected!r}")
    return errors


def check_rank(rank_rows: list[tuple[int, int, float]], ids: np.ndarray, scores: np.ndarray) -> list[str]:
    """Rows (rank, id, score) list every scored id once, by ascending score then id."""
    by_id = dict(zip(ids.tolist(), scores.tolist()))
    expected = sorted(by_id, key=lambda i: (by_id[i], i))
    got = [row_id for _, row_id, _ in rank_rows]
    errors = []
    if [r for r, _, _ in rank_rows] != list(range(len(rank_rows))):
        errors.append("ranks are not 0, 1, 2, ...")
    if got != expected:
        errors.append(f"rank order differs from (score, id) order ({len(got)} vs {len(expected)} rows)")
    elif any(score != by_id[row_id] for _, row_id, score in rank_rows):
        errors.append("rank file scores differ from the scores file")
    return errors


def hardest_ids(ids: np.ndarray, scores: np.ndarray, count: int) -> np.ndarray:
    """The count lowest-scored ids, ties by ascending id."""
    return ids[np.lexsort((ids, scores))][:count]


def check_gini(label: str, reported: float, train: Table, valid: Table, k: int) -> list[str]:
    expected = gini_from_votes(knn_votes(train, valid.X, k), valid.y)
    if abs(reported - expected) > VALUE_TOL:
        return [f"{label}: reported Gini {reported!r}, recomputed {expected!r}"]
    return []


def smote_segments(source: Table, k: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per class, every (row, one of its k nearest same-class rows) pair as
    arrays of segment starts and directions."""
    segments = {}
    for cls in np.unique(source.y):
        X = source.X[source.y == cls]
        dist = distances(X, X)
        # column k of the sorted row is the k-th neighbour after the row itself
        kth = np.partition(dist, min(k, X.shape[0] - 1), axis=1)[:, min(k, X.shape[0] - 1)]
        base, partner = np.nonzero((dist <= kth[:, None]) & ~np.eye(X.shape[0], dtype=bool))
        segments[int(cls)] = (X[base], X[partner] - X[base])
    return segments


def check_smote_rows(synth: Table, segments: dict, tol: float = 1e-9) -> list[str]:
    """Each synthetic row lies on a segment from a source row towards one of its
    k nearest same-class source rows, and carries that class."""
    errors = []
    for cls in np.unique(synth.y):
        if int(cls) not in segments:
            errors.append(f"class {cls}: absent from the source rows")
            continue
        B, span = segments[int(cls)]
        length2 = (span * span).sum(axis=1)
        safe_length2 = np.where(length2 > 0, length2, 1.0)
        scale = tol * (1.0 + np.abs(B).max(axis=1))
        rows = synth.X[synth.y == cls]
        found = np.zeros(rows.shape[0], dtype=bool)
        for lo in range(0, rows.shape[0], 16):
            offset = rows[lo:lo + 16, None, :] - B
            t = (offset * span).sum(axis=2) / safe_length2
            resid = np.abs(offset - t[:, :, None] * span).max(axis=2)
            found[lo:lo + 16] = ((resid <= scale) & (t >= -tol) & (t <= 1 + tol)).any(axis=1)
        if not found.all():
            errors.append(
                f"class {cls}: {int((~found).sum())} synthetic rows lie on no segment between "
                f"a source row and one of its nearest same-class source rows"
            )
    return errors


def check_report(values: list[float], summary: dict[str, float]) -> list[str]:
    """mean / ci_low / ci_high rows match a 95% normal CI over the replicates."""
    v = np.array(values)
    mean = float(v.mean())
    half = 1.96 * float(v.std(ddof=1)) / math.sqrt(v.shape[0]) if np.ptp(v) > 0 else 0.0
    expected = {"mean": mean, "ci_low": mean - half, "ci_high": mean + half}
    return [
        f"report {key} {summary.get(key)!r} != {value!r}"
        for key, value in expected.items()
        if summary.get(key) is None or abs(summary[key] - value) > VALUE_TOL
    ]
