"""End-to-end acceptance gate.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``). Stated tolerances and runtime
budgets are asserted as written; stochastic criteria run under pinned
seeds so the whole gate is deterministic.
"""

import math
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import hardshap
from hardshap.augment import smote_generate
from hardshap.dataset import Dataset
from hardshap.evaluation import CachedVote, removal_curve, repeated_gini
from hardshap.perturb import benchmark
from hardshap.sim import BlobConfig, gen_blobs, toy_expected_shapley, toy_interval_table
from hardshap.valuation import (
    exact_data_shapley,
    hardest_subset,
    knn_shapley,
    knn_shapley_contributions,
    knn_utility,
)

from conftest import random_dataset


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# interval table for the movable point at 0; first interval read as
# (-inf, -1/2); triples are (s_-1, s_movable, s_+1)
TOY_TABLE = [
    (-np.inf, -0.5, 0, (1 / 2, 1 / 2, 0.0)),
    (-np.inf, -0.5, 1, (-1 / 6, -1 / 6, 1 / 3)),
    (-0.5, 0.0, 0, (1 / 2, 1 / 2, 0.0)),
    (-0.5, 0.0, 1, (-1 / 6, -1 / 6, 1 / 3)),
    (0.0, 0.5, 0, (1 / 3, 5 / 6, -1 / 6)),
    (0.0, 0.5, 1, (0.0, -1 / 2, 1 / 2)),
    (0.5, np.inf, 0, (1 / 3, 1 / 3, -2 / 3)),
    (0.5, np.inf, 1, (0.0, 0.0, 1.0)),
]
TOY_VALUE_SET = {-2 / 3, -1 / 2, -1 / 6, 0.0, 1 / 3, 1 / 2, 5 / 6, 1.0}


def test_criterion_01_toy_table():
    start = time.perf_counter()
    rows = toy_interval_table(0.0)
    worst = 0.0
    seen = set()
    structure_ok = len(rows) == 8
    for (lo, hi, y, triple), (exp_lo, exp_hi, exp_y, expected) in zip(rows, TOY_TABLE):
        structure_ok &= (lo, hi, y) == (exp_lo, exp_hi, exp_y)
        worst = max(worst, float(np.abs(np.array(triple) - np.array(expected)).max()))
        seen.update(round(v, 12) for v in triple)
    elapsed = time.perf_counter() - start
    ok = structure_ok and worst <= 1e-12 and seen == {round(v, 12) for v in TOY_VALUE_SET}
    ok &= elapsed < 1.0
    report(1, "toy-table", ok, f"max_err={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_02_expected_shapley_integral():
    start = time.perf_counter()
    base = toy_expected_shapley(0.0)
    refined = toy_expected_shapley(0.0, (-8.0, 8.0, 5e-4))
    elapsed = time.perf_counter() - start
    ok = abs(base - 0.209) <= 2e-3 and abs(base - refined) < 1e-4 and elapsed < 10.0
    report(2, "expected-shapley-integral", ok,
           f"value={base:.6f} refinement_delta={abs(base - refined):.2e} elapsed={elapsed:.1f}s")


def test_criterion_03_monotone_hardness():
    # the point gets harder as it moves from its own prototype (-1) onto the
    # opposite one (+1), and stays harder than at 0 once past it; beyond +1
    # the curve climbs back toward 1/6 (the farthest point's base credit),
    # so monotonicity is only asked of [-1, 1]
    start = time.perf_counter()
    approach = (-1.0, -0.5, 0.0, 0.5, 1.0)
    beyond = (2.0, 3.0)
    value = {x: toy_expected_shapley(x) for x in approach + beyond}
    elapsed = time.perf_counter() - start
    decreasing = all(value[a] > value[b] for a, b in zip(approach, approach[1:]))
    stays_harder = all(value[x] < value[0.0] for x in beyond)
    ok = decreasing and stays_harder and elapsed < 60.0
    report(3, "monotone-hardness", ok,
           "values=" + ",".join(f"{x:g}:{v:.5f}" for x, v in value.items())
           + f" elapsed={elapsed:.1f}s")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = worst_eff = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 4))
        n_test = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        train = random_dataset(rng, n, d=d)
        test = random_dataset(rng, n_test, d=d)
        fast = knn_shapley(train, test, k).scores
        slow = exact_data_shapley(train, test, k).scores
        worst_gap = max(worst_gap, float(np.abs(fast - slow).max()))
        contrib = knn_shapley_contributions(train, test, k)
        for j in range(n_test):
            one = Dataset(test.features[j:j + 1], test.labels[j:j + 1],
                          test.feature_names, [0])
            gap = abs(contrib[:, j].sum() - knn_utility(train.ids, train, one, k))
            worst_eff = max(worst_eff, gap)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-10 and worst_eff <= 1e-10 and elapsed < 120.0
    report(4, "oracle-equivalence", ok,
           f"max_gap={worst_gap:.2e} max_efficiency_gap={worst_eff:.2e} elapsed={elapsed:.1f}s")


def test_criterion_05_tmc_convergence():
    from hardshap.valuation import tmc_shapley

    start = time.perf_counter()
    rng = np.random.default_rng(55)
    train = random_dataset(rng, 8, d=2)
    test = random_dataset(rng, 3, d=2)
    exact = exact_data_shapley(train, test, 2).scores
    approx = tmc_shapley(train, test, 2, permutations=20_000,
                         truncation_tol=0.0, seed=55).scores
    gap = float(np.abs(approx - exact).max())
    elapsed = time.perf_counter() - start
    ok = gap <= 0.02 and elapsed < 120.0
    report(5, "tmc-convergence", ok, f"max_gap={gap:.4f} elapsed={elapsed:.1f}s")


def test_criterion_06_benchmark_signal():
    start = time.perf_counter()
    train, _, _ = gen_blobs(BlobConfig(n_train=2000, n_valid=10, n_test=10, seed=6))
    rows = benchmark(
        train, kinds=("mislabeling",), proportions=(0.1,),
        characterizers=("knn_shapley", "random"), runs=3, seed=6,
    )
    shapley = np.array([r.auprc for r in rows if r.characterizer == "knn_shapley"])
    rand = np.array([r.auprc for r in rows if r.characterizer == "random"])
    rand_se = rand.std(ddof=1) / math.sqrt(len(rand))
    elapsed = time.perf_counter() - start
    ok = (
        shapley.mean() > 0.5
        and shapley.mean() - rand.mean() >= 0.2
        and abs(rand.mean() - 0.1) <= 3 * rand_se
        and elapsed < 120.0
    )
    report(6, "benchmark-signal", ok,
           f"shapley={shapley.mean():.3f} random={rand.mean():.3f} "
           f"random_se={rand_se:.4f} elapsed={elapsed:.1f}s")


def test_criterion_07_removal_curve_direction():
    start = time.perf_counter()
    hardest_ginis, random_ginis = [], []
    for seed in range(10):
        train, valid, test = gen_blobs(BlobConfig(seed=seed))
        scores = knn_shapley(train, test, 5)
        hardest_ginis.append(
            removal_curve(train, valid, scores, [0.2], ["hardest"], seed=seed)[0][0][1]
        )
        random_ginis.append(
            removal_curve(train, valid, scores, [0.2], ["random"], seed=seed)[0][0][1]
        )
    elapsed = time.perf_counter() - start
    mean_hard, mean_rand = np.mean(hardest_ginis), np.mean(random_ginis)
    ok = mean_hard < mean_rand and elapsed < 300.0
    report(7, "removal-curve-direction", ok,
           f"hardest={mean_hard:.5f} random={mean_rand:.5f} elapsed={elapsed:.1f}s")


def test_criterion_08_targeted_vs_nontargeted():
    start = time.perf_counter()
    train, valid, test = gen_blobs(BlobConfig(seed=0))
    scores = knn_shapley(train, test, 5)
    vote = CachedVote(train, valid)
    budget = round(1.0 * math.ceil(0.05 * train.n))

    def arm(tau):
        draw = partial(smote_generate, hardest_subset(train, scores, tau), budget, 5)
        return repeated_gini(vote, draw, 30, base_seed=42)

    targeted, nontargeted = arm(0.05), arm(1.0)
    diff = np.array(targeted.replicates) - np.array(nontargeted.replicates)
    half = 1.96 * diff.std(ddof=1) / math.sqrt(len(diff))
    ci_low = diff.mean() - half
    elapsed = time.perf_counter() - start
    ok = targeted.point >= nontargeted.point and ci_low >= -0.002 and elapsed < 900.0
    report(8, "targeted-vs-nontargeted", ok,
           f"targeted={targeted.point:.6f} nontargeted={nontargeted.point:.6f} "
           f"diff={diff.mean():+.6f} diff_ci_low={ci_low:+.6f} elapsed={elapsed:.0f}s")


def test_criterion_09_complexity_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    d, n_test = 10, 500
    test = Dataset(rng.standard_normal((n_test, d)),
                   rng.integers(0, 2, n_test), tuple(f"f{i}" for i in range(d)),
                   np.arange(n_test))
    timings = {}
    for n in (20_000, 40_000):
        train = Dataset(rng.standard_normal((n, d)), rng.integers(0, 2, n),
                        test.feature_names, np.arange(n))
        trials = []
        for _ in range(3):
            t0 = time.perf_counter()
            knn_shapley(train, test, 5)
            trials.append(time.perf_counter() - t0)
        timings[n] = float(np.median(trials))
    ratio = timings[40_000] / timings[20_000]
    elapsed = time.perf_counter() - start
    ok = ratio <= 2.5 and elapsed < 600.0
    report(9, "complexity-contract", ok,
           f"t20k={timings[20_000]:.2f}s t40k={timings[40_000]:.2f}s "
           f"ratio={ratio:.2f} elapsed={elapsed:.0f}s")


def _run_cli(workdir, args):
    # the subprocess runs in workdir, where a relative PYTHONPATH entry no
    # longer resolves; point it at the directory of the package under test
    package_root = str(Path(hardshap.__file__).resolve().parents[1])
    search_path = [package_root, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    proc = subprocess.run(
        [sys.executable, "-m", "hardshap", *args],
        cwd=workdir, env=env, capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    _run_cli(data, ["sim-blobs", "--seed", "5", "--out-prefix", "blob",
                    "--n-train", "160", "--n-valid", "80", "--n-test", "80"])
    _run_cli(data, ["value", "--train", "blob_train.csv", "--test", "blob_test.csv",
                    "--k", "5", "--out", "scores.csv"])
    (data / "probs.csv").write_text(
        "id,prob\n" + "".join(f"{i},{(i % 7) / 7}\n" for i in range(160)), encoding="utf-8"
    )
    commands = {
        "sim-blobs": ["sim-blobs", "--seed", "5", "--out-prefix", "blob",
                      "--n-train", "160", "--n-valid", "80", "--n-test", "80"],
        "value": ["value", "--train", "blob_train.csv", "--test", "blob_test.csv",
                  "--k", "5", "--out", "scores.csv"],
        "rank": ["rank", "--scores", "scores.csv", "--out", "ranking.csv"],
        "augment": ["augment", "--train", "blob_train.csv", "--scores", "scores.csv",
                    "--tau", "0.25", "--amount", "1.0", "--generator", "smote",
                    "--k", "1", "--seed", "3", "--out", "aug.csv"],
        "dataiq": ["dataiq", "--train", "blob_train.csv", "--checkpoints", "4",
                   "--k", "3", "--seed", "2", "--out", "tags.csv",
                   "--probs-out", "cp.csv"],
        "perturb-bench": ["perturb-bench", "--train", "blob_train.csv",
                          "--kinds", "mislabeling", "--proportions", "0.1",
                          "--characterizers", "knn_shapley,random", "--runs", "2",
                          "--seed", "4", "--out", "bench.csv"],
        "removal-curve": ["removal-curve", "--train", "blob_train.csv",
                          "--valid", "blob_valid.csv", "--scores", "scores.csv",
                          "--fractions", "0,0.1", "--strategies", "hardest,random",
                          "--downstream-k", "9", "--seed", "6", "--out", "curve.csv"],
        "eval": ["eval", "--probs", "probs.csv", "--labels", "blob_train.csv",
                 "--out", "metrics.csv"],
        "eval-pipeline": ["eval-pipeline", "--train", "blob_train.csv",
                          "--valid", "blob_valid.csv", "--test", "blob_test.csv",
                          "--tau", "0.25", "--amount", "1.0", "--generator", "smote",
                          "--gen-k", "1", "--replicates", "2", "--seed", "7",
                          "--with-baseline", "--out", "report.csv"],
        "sim-toy": ["sim-toy", "--x-train", "0", "--out", "toy.csv"],
    }
    outputs = {
        "sim-blobs": ["blob_train.csv", "blob_valid.csv", "blob_test.csv"],
        "value": ["scores.csv", "scores.csv.meta"],
        "rank": ["ranking.csv"],
        "augment": ["aug.csv"],
        "dataiq": ["tags.csv", "cp.csv"],
        "perturb-bench": ["bench.csv", "bench.csv.mean.csv"],
        "removal-curve": ["curve.csv"],
        "eval": ["metrics.csv"],
        "eval-pipeline": ["report.csv", "report.csv.baseline.csv"],
        "sim-toy": ["toy.csv"],
    }
    start = time.perf_counter()
    failures = []
    for name, args in commands.items():
        snapshots = []
        for threads in ("1", "1", "8"):
            stdout = _run_cli(data, args + ["--threads", threads])
            files = {f: (data / f).read_bytes() for f in outputs[name]}
            snapshots.append((stdout, files))
        if not (snapshots[0] == snapshots[1] == snapshots[2]):
            failures.append(name)
    elapsed = time.perf_counter() - start
    ok = not failures
    report(10, "cli-determinism", ok,
           f"subcommands={len(commands)} failures={failures or 'none'} elapsed={elapsed:.0f}s")
