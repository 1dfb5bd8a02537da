"""Every CSV writer's exact bytes, pinned against fixtures in tests/data/bytes.

One small fixed object goes through each of the eleven writers: the seven
library ``save_*`` functions and the four CLI subcommands that write their
own files. One ``perturb-bench`` run over all three characterizers on a
tie-heavy lattice also pins the AUPRCs themselves, Data-IQ's included, and
one ``dataiq`` run on the same lattice pins its raw bagged probabilities,
which an AUPRC could hide. One ``value`` run on lattices nudged by a few
ulps pins exact scores whose every distance row needs the stable re-sort of
``neighbors.stable_order``. One ``value --method exact_shapley`` run on a
12-row lattice with distance ties pins the coalition-enumeration oracle. One
``sim-blobs`` run at small sizes and a non-default spread, seed and label
column pins the blob generator's draws. The fixtures pin cell text (shortest-repr floats,
``-0.0``, subnormals, exponents), header quoting, comment lines and line
endings (``\\r\\n`` data rows from the library writers, ``\\n`` from the CLI).

Regenerate the fixtures with::

    PYTHONPATH=src python tests/test_file_bytes.py tests/data/bytes
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from hardshap import dataiq, evaluation, perturb, valuation
from hardshap.cli import main
from hardshap.dataset import Dataset, save_csv

FIXTURES = Path(__file__).parent / "data" / "bytes"
FILES = (
    "dataset.csv",
    "scores.csv",
    "scores.csv.meta",
    "probs.csv",
    "tags.csv",
    "report.csv",
    "bench.csv",
    "bench.mean.csv",
    "train.csv",
    "valid.csv",
    "rank.csv",
    "eval.csv",
    "curve.csv",
    "toy.csv",
    "pbench.csv",
    "pbench.csv.mean.csv",
    "probs_bagged.csv",
    "near_scores.csv",
    "near_scores.csv.meta",
    "exact.csv",
    "exact.csv.meta",
    "blobs_train.csv",
    "blobs_valid.csv",
    "blobs_test.csv",
)


def write_all(out: Path) -> None:
    """Write every fixture file into out, naming inputs relative to out."""
    out.mkdir(parents=True, exist_ok=True)
    ds = Dataset(
        [[0.1 + 0.2, -0.0], [1e-320, 1e16], [-2.5, 3.0]],
        [0, 1, 1],
        ("x1", "odd,name"),
        [7, 2, 40],
    )
    save_csv(ds, out / "dataset.csv", header_comment="fixture dataset")
    scores = valuation.ValuationScores(
        [-0.125, 0.1 + 0.2, 1e-17, -0.125, 2.0 / 3.0, 0.0],
        [3, 1, 2, 0, 5, 4],
        "knn_shapley",
        {"k": 5, "seed": 0},
    )
    valuation.save_scores_csv(scores, out / "scores.csv")
    probs = dataiq.CheckpointProbs([[0.0, 1.0, 0.5], [0.2, 1.0 / 3.0, 0.9]], [5, 6])
    dataiq.save_probs_csv(probs, out / "probs.csv", header_comment="fixture probs")
    tags = dataiq.tag(dataiq.confidence(probs), dataiq.aleatoric(probs), ids=probs.ids)
    dataiq.save_tags_csv(tags, out / "tags.csv", header_comment="fixture tags")
    report = evaluation.MetricReport("gini", 0.5, 0.25, 0.75, (0.1, 0.9, 0.5))
    evaluation.save_metric_report_csv(report, out / "report.csv", header_comment="fixture report")
    rows = [
        perturb.BenchmarkRow("mislabeling", 0.1, "knn_shapley", 0, 0.75),
        perturb.BenchmarkRow("mislabeling", 0.1, "knn_shapley", 1, 1.0 / 3.0),
        perturb.BenchmarkRow("ood", 0.05, "random", 0, 1e-5),
    ]
    perturb.save_benchmark_csv(rows, out / "bench.csv", header_comment="fixture bench")
    perturb.save_benchmark_mean_csv(rows, out / "bench.mean.csv")

    # Inputs of the CLI writers: a 1-D lattice with ties, ids 0..5.
    train = Dataset([[0.0], [1.0], [1.0], [2.0], [3.0], [3.0]], [0, 0, 1, 1, 1, 0],
                    ("x",), [0, 1, 2, 3, 4, 5])
    valid = Dataset([[0.5], [1.5], [2.5], [3.5]], [0, 1, 1, 0], ("x",), [0, 1, 2, 3])
    save_csv(train, out / "train.csv")
    save_csv(valid, out / "valid.csv")
    (out / "probs_in.csv").write_text("id,prob\n0,0.1\n1,0.4\n2,0.35\n3,0.8\n4,0.2\n", encoding="utf-8")
    (out / "labels_in.csv").write_text("id,label\n4,1\n3,1\n2,0\n1,1\n0,0\n", encoding="utf-8")
    # 700 rows on 35 lattice points: Data-IQ's bags hold many copies at
    # distance 0 and its working set spans more than one distance block.
    i = np.arange(700)
    lattice = Dataset(np.column_stack([i % 7, i // 7 % 5]).astype(float),
                      (i % 7 + i // 7 % 5 + (i % 9 == 0)) % 2, ("x1", "x2"), i)
    save_csv(lattice, out / "lattice.csv")
    # Lattice points with each coordinate's uint64 view raised by a few
    # units: every test row holds distances that differ only in the low bits
    # the packed sort keys replace, in an order the column order reverses.
    def nudged(points, steps):
        return (points.view(np.uint64) + steps.astype(np.uint64)).view(np.float64)

    i, t = np.arange(60), np.arange(16)
    near_train = Dataset(
        nudged(np.column_stack([1 + i % 5, 1 + i // 5 % 4]).astype(float),
               np.column_stack([i * 7 % 11, i * 5 % 13])),
        (i % 5 + i // 5 % 4 + (i % 7 == 0)) % 2, ("x1", "x2"), i)
    near_test = Dataset(
        nudged(np.column_stack([1.5 + t % 4, 1 + t // 4 % 4]).astype(float),
               np.column_stack([t * 3 % 7, t * 11 % 5])),
        t % 2, ("x1", "x2"), t)
    save_csv(near_train, out / "near_train.csv")
    save_csv(near_test, out / "near_test.csv")
    # 12 rows on 6 lattice points, so every test row sees tied distances;
    # the test rows sit on and between the points.
    i, t = np.arange(12), np.arange(7)
    save_csv(Dataset(np.column_stack([i % 3, i // 3 % 2]).astype(float), (i * 5 + i // 4) % 2,
                     ("x1", "x2"), i), out / "exact_train.csv")
    save_csv(Dataset(np.column_stack([t % 4 * 0.5, t // 4 * 0.75]), t * 3 % 2,
                     ("x1", "x2"), t), out / "exact_test.csv")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        calls = (
            ["rank", "--scores", "scores.csv", "--out", "rank.csv"],
            ["eval", "--probs", "probs_in.csv", "--labels", "labels_in.csv", "--out", "eval.csv"],
            ["removal-curve", "--train", "train.csv", "--valid", "valid.csv",
             "--scores", "scores.csv", "--fractions", "0,0.2,0.4", "--downstream-k", "3",
             "--no-standardize", "--out", "curve.csv"],
            ["sim-toy", "--x-train", "0.5", "--grid=-8,8,0.01", "--out", "toy.csv"],
            ["perturb-bench", "--train", "lattice.csv", "--proportions", "0.1,0.2",
             "--characterizers", "knn_shapley,dataiq,random", "--runs", "2",
             "--checkpoints", "3", "--seed", "5", "--threads", "2", "--out", "pbench.csv"],
            ["dataiq", "--train", "lattice.csv", "--checkpoints", "4", "--k", "5", "--seed", "5",
             "--probs-out", "probs_bagged.csv", "--out", "tags_bagged.csv"],
            ["value", "--train", "near_train.csv", "--test", "near_test.csv", "--k", "3",
             "--no-standardize", "--out", "near_scores.csv"],
            ["value", "--train", "exact_train.csv", "--test", "exact_test.csv", "--k", "3",
             "--method", "exact_shapley", "--no-standardize", "--out", "exact.csv"],
            ["sim-blobs", "--out-prefix", "blobs", "--n-train", "7", "--n-valid", "5",
             "--n-test", "4", "--cov-scale", "0.75", "--seed", "3", "--label", "y"],
        )
        for argv in calls:
            if main(argv) != 0:
                raise RuntimeError(f"hardshap {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("bytes")
    write_all(out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_writer_bytes_match_fixture(written, name):
    assert (written / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_line_endings_split_between_library_and_cli_writers():
    # Rows from the library writers end in CRLF; comment lines and every
    # line of a CLI-written file end in LF.
    dataset = (FIXTURES / "dataset.csv").read_bytes()
    assert dataset.startswith(b"# fixture dataset\nid,x1,\"odd,name\",label\r\n")
    assert dataset.count(b"\r\n") == 4
    for name in ("rank.csv", "eval.csv", "curve.csv", "toy.csv"):
        assert b"\r" not in (FIXTURES / name).read_bytes()


if __name__ == "__main__":
    write_all(Path(sys.argv[1]))
