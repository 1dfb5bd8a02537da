"""Tests of the benchmark itself: its references, and that each check fails
on a corrupted output.

    python3 -m pytest bench -q

Workloads run here at small sizes; every corruption is one changed score,
one dropped row, or one value that is off.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hardshap import cli  # noqa: E402
from reference import Table  # noqa: E402


def random_table(rng, n, d=2, start=0):
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    return Table(rng.standard_normal((n, d)), y, np.arange(start, start + n))


# ------------------------------------------------------------- references


def test_nearest_breaks_ties_by_id():
    ref_rows = Table(np.array([[1.0], [-1.0], [1.0], [2.0]]), np.array([0, 1, 1, 0]),
                     np.array([7, 3, 5, 1]))
    table, mask = ref.nearest_mask(np.array([[0.0]]), ref_rows, 2)
    # ids 3 and 5 are nearest: id 7 ties with 3 and 5 but comes last
    assert table.ids[mask[0]].tolist() == [3, 5]


def test_recursion_matches_coalition_enumeration():
    rng = np.random.default_rng(1)
    for n, k in ((5, 1), (6, 2), (4, 5)):
        train, test = random_table(rng, n), random_table(rng, 3)

        def utility(members):
            if not members:
                return 0.0
            return ref.knn_match_mean(train.take(np.array(sorted(members))), test, k)

        expected = ref.shapley_by_permutations(n, utility)
        assert np.allclose(ref.knn_shapley_recursion(train, test, k), expected, atol=1e-12)


def test_average_precision_and_its_chance_level():
    assert ref.average_precision(np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 0, 1, 0], bool)) \
        == pytest.approx((1 + 2 / 3) / 2)
    # equal scores form one step: constant scores give the prevalence
    assert ref.average_precision(np.zeros(5), np.array([1, 1, 0, 0, 0], bool)) == pytest.approx(0.4)
    n, r = 6, 2
    flags = np.array([True] * r + [False] * (n - r))
    aps = [ref.average_precision(np.array(p, float), flags) for p in itertools.permutations(range(n))]
    assert np.mean(aps) == pytest.approx(ref.expected_random_ap(n, r), abs=1e-12)


def test_gini_counts_ties_as_half():
    assert ref.gini_from_votes(np.array([0, 1, 1, 2]), np.array([0, 0, 1, 1])) == pytest.approx(0.75)


def test_toy_table_reproduces_the_analytic_values():
    for got, (lo, hi, y, values) in zip(ref.toy_table(0.0), ref.TOY_TABLE_AT_0):
        assert got[:3] == (lo, hi, y)
        assert np.allclose(got[3], [float(v) for v in values], atol=1e-15)


# ---------------------------------------------------------------- checks


def test_check_scores_fails_on_a_changed_score_and_a_dropped_row():
    rng = np.random.default_rng(2)
    train, test = random_table(rng, 30), random_table(rng, 10)
    scores = ref.knn_shapley_recursion(train, test, 3)
    assert ref.check_scores(train.ids, scores, train, test, 3) == []
    changed = scores.copy()
    changed[4] += 1e-6
    assert ref.check_scores(train.ids, changed, train, test, 3)
    assert ref.check_scores(train.ids[1:], scores[1:], train, test, 3)


def test_check_rank_fails_on_a_dropped_or_swapped_row():
    ids = np.array([0, 1, 2, 3])
    scores = np.array([0.5, -0.1, 0.5, 0.0])
    rows = [(0, 1, -0.1), (1, 3, 0.0), (2, 0, 0.5), (3, 2, 0.5)]
    assert ref.check_rank(rows, ids, scores) == []
    assert ref.check_rank(rows[:-1], ids, scores)
    assert ref.check_rank([rows[0], rows[1], (2, 2, 0.5), (3, 0, 0.5)], ids, scores)


def test_check_smote_rows_fails_on_a_moved_row():
    rng = np.random.default_rng(3)
    source = random_table(rng, 40)
    segments = ref.smote_segments(source, 3)
    cls = source.y == 0
    X = source.X[cls]
    partner = np.argsort(ref.distances(X, X), axis=1)[:, 2]
    synth = Table(X + 0.3 * (X[partner] - X), np.zeros(X.shape[0], int), np.arange(X.shape[0]))
    assert ref.check_smote_rows(synth, segments) == []
    moved = synth.X.copy()
    moved[0] += 1e-3
    assert ref.check_smote_rows(Table(moved, synth.y, synth.ids), segments)
    # the same row carrying the other label has no segment in that class
    assert ref.check_smote_rows(Table(synth.X, 1 - synth.y, synth.ids), segments)


def test_check_report_fails_on_an_off_mean():
    values = [0.9, 0.92, 0.95]
    mean = float(np.mean(values))
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(3)
    summary = {"mean": mean, "ci_low": mean - half, "ci_high": mean + half}
    assert ref.check_report(values, summary) == []
    assert ref.check_report(values, {**summary, "mean": mean + 1e-9})


# ---------------------------------------------- workloads, end to end


class SmallAugment(workloads.AugmentBlobs):
    n_train, n_valid, n_test = 400, 200, 200


class SmallCharacterize(workloads.CharacterizeBlobs):
    per_class, shapley_runs = 100, 3


class SmallValue(workloads.ValueWide):
    n_train, n_test, n_valid = 300, 25, 60


class SmallToy(workloads.ToyOracles):
    sweep_points, exact_rows, tmc_rows = 1, 10, 6


def one_round(workload_class, tmp_path):
    wl = workload_class(tmp_path)
    wl.setup(5)
    ops = wl.ops()
    rounds = run.run_rounds(cli, ops, 0.0)
    attempted, failed, correct, messages = run.score_rounds(ops, rounds)
    assert (attempted, failed, correct, messages) == (len(ops), 0, True, [])
    return ops, rounds


def rewrite_csv_cell(path: Path, row: int, column: int, change) -> None:
    """Apply `change` to one cell of data row `row` (after the header)."""
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[column] = change(cells[column])
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def drop_csv_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    del lines[data[row]]
    path.write_text("\n".join(lines) + "\n")


def failing(ops, rounds) -> list[int]:
    """Indices of the calls whose check fails; the run's counts must agree."""
    attempted, failed, correct, _ = run.score_rounds(ops, rounds)
    bad = [i for i, op in enumerate(ops) if op.check(rounds[0]["stdout"][i])]
    assert (attempted, failed, correct) == (len(ops) * len(rounds), len(bad), not bad)
    return bad


def nudge(text: str) -> str:
    return repr(float(text) + 1e-6)


def test_value_wide_checks(tmp_path):
    ops, rounds = one_round(SmallValue, tmp_path)
    scores, ranking, curve = (op.outputs[0] for op in ops)
    originals = {p: p.read_bytes() for p in (scores, ranking, curve)}

    rewrite_csv_cell(scores, 7, 1, nudge)
    assert failing(ops, rounds) == [0, 1]
    scores.write_bytes(originals[scores])

    drop_csv_row(ranking, 3)
    assert failing(ops, rounds) == [1]
    ranking.write_bytes(originals[ranking])

    rewrite_csv_cell(curve, 0, 2, nudge)
    assert failing(ops, rounds) == [2]


def test_augment_blobs_checks(tmp_path):
    ops, rounds = one_round(SmallAugment, tmp_path)
    report, baseline = ops[0].outputs
    rewrite_csv_cell(baseline, 1, 1, nudge)
    assert failing(ops, rounds) == [0]


def test_characterize_blobs_checks(tmp_path):
    ops, rounds = one_round(SmallCharacterize, tmp_path)
    shapley, dataiq = ops[0].outputs[0], ops[1].outputs[0]
    # run 0 of the mislabeling knn_shapley cell is the first data row
    rewrite_csv_cell(shapley, 0, 4, nudge)
    assert failing(ops, rounds) == [0]


def test_toy_oracle_checks(tmp_path):
    ops, rounds = one_round(SmallToy, tmp_path)
    first = rounds[0]["stdout"][0]
    rounds[0]["stdout"][0] = first.replace("expected_shapley=0.2090", "expected_shapley=0.2092")
    assert failing(ops, rounds) == [0]
    rounds[0]["stdout"][0] = first
    exact_out, tmc_out = ops[-2].outputs[0], ops[-1].outputs[0]
    rewrite_csv_cell(tmc_out, 2, 1, lambda v: repr(float(v) + 0.03))
    rewrite_csv_cell(exact_out, 0, 1, nudge)
    assert failing(ops, rounds) == [len(ops) - 2, len(ops) - 1]


def test_outputs_that_change_between_rounds_fail(tmp_path):
    ops, rounds = one_round(SmallValue, tmp_path)
    rounds.append({**rounds[0], "digests": ["other", *rounds[0]["digests"][1:]]})
    attempted, failed, correct, _ = run.score_rounds(ops, rounds)
    assert (attempted, failed, correct) == (6, 1, False)


# ------------------------------------------------------------- the spec


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    groups = {g for w in workloads.WORKLOADS.values() for g in w.groups}
    spans = {f"{m}.{f}" for m, f, _ in tracing.TARGETS} | {f"{m}.cdist" for m in tracing.CDIST_MODULES}
    spans |= {tracing.PARALLEL_MAP} | {f"cli.{c}" for c in cli._COMMANDS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert name in groups or name == "trace.overhead_s" or name.rsplit(".", 1)[0] in spans, name
    assert {w["name"] for w in spec["workloads"]} < set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "round_s"]
