"""The benchmark's four workloads: their inputs, CLI calls and checks.

Each workload generates its inputs from the workload seed and writes them as
CSV, then names the CLI calls that make up one round. The program sees only
those files and fixed flags (every CLI ``--seed`` is 1), so two seeds give two
data sets and the same calls. Checks run after the timed rounds; each reads
the outputs of one call and returns failure messages.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from hardshap import augment, dataset, perturb, sim, valuation

import reference as ref
from reference import Table

CLI_SEED = "1"


@dataclass
class Op:
    """One CLI call: the end-to-end group its time counts toward, and its check."""

    group: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[str], list[str]] = field(repr=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def read_rows(path: Path) -> list[list[str]]:
    """CSV rows without the ``#`` comment lines the program writes."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def read_scores(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = read_rows(path)
    if rows[0][:2] != ["id", "score"]:
        raise ValueError(f"unexpected scores header {rows[0]}")
    return (np.array([int(r[0]) for r in rows[1:]], dtype=np.int64),
            np.array([float(r[1]) for r in rows[1:]]))


def to_table(ds: dataset.Dataset) -> Table:
    return Table(np.array(ds.features), np.array(ds.labels), np.array(ds.ids))


def to_dataset(t: Table, names: tuple[str, ...]) -> dataset.Dataset:
    return dataset.Dataset(t.X, t.y, names, t.ids)


class Workload:
    name = ""
    groups: tuple[str, ...] = ()
    threads = 1

    def __init__(self, work: Path):
        self.work = work

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


class AugmentBlobs(Workload):
    """eval-pipeline --with-baseline on the default blobs, at nproc threads."""

    name = "augment-blobs"
    groups = ("pipeline_s",)
    threads = len(os.sched_getaffinity(0))
    n_train, n_valid, n_test = 5000, 2500, 2500
    tau, amount, k, gen_k, downstream_k, replicates = "0.05", "1.0", 5, 5, 15, 2

    def setup(self, seed: int) -> None:
        parts = sim.gen_blobs(sim.BlobConfig(n_train=self.n_train, n_valid=self.n_valid,
                                             n_test=self.n_test, seed=seed))
        for part, ds in zip(("train", "valid", "test"), parts):
            dataset.save_csv(ds, self.path(f"{part}.csv"))
        self.data = parts

    def ops(self) -> list[Op]:
        report = self.path("report.csv")
        argv = [
            "eval-pipeline", "--train", str(self.path("train.csv")),
            "--valid", str(self.path("valid.csv")), "--test", str(self.path("test.csv")),
            "--tau", self.tau, "--amount", self.amount, "--generator", "smote",
            "--replicates", str(self.replicates), "--seed", CLI_SEED, "--with-baseline",
            "--threads", str(self.threads), "--out", str(report),
        ]
        baseline = Path(f"{report}.baseline.csv")
        return [Op("pipeline_s", argv, [report, baseline],
                   lambda stdout: self.check_pipeline(stdout, report, baseline))]

    def check_pipeline(self, stdout: str, report: Path, baseline: Path) -> list[str]:
        train_ds, valid_ds, test_ds = self.data
        train, (valid, test) = ref.standardize(to_table(train_ds), [to_table(valid_ds), to_table(test_ds)])
        # The program's own standardized sets and scores rebuild each replicate's
        # augmented set; everything compared against is computed here.
        p_train, (p_valid, p_test), _, _ = dataset.standardize(train_ds, [valid_ds, test_ds])
        errors = []
        if not (np.array_equal(p_train.features, train.X) and np.array_equal(p_valid.features, valid.X)):
            errors.append("program standardization differs from the reference")
        scores = valuation.knn_shapley(p_train, p_test, self.k, threads=self.threads)
        errors += ref.check_scores(scores.ids, scores.scores, train, test, self.k)

        n = train.X.shape[0]
        hard_count = math.ceil(Fraction(self.tau) * n)
        hard_ids = ref.hardest_ids(scores.ids, scores.scores, hard_count)
        program_hard = valuation.hardest_subset(p_train, scores, float(self.tau)).ids
        if not np.array_equal(np.sort(program_hard), np.sort(hard_ids)):
            errors.append(f"hard subset: {len(program_hard)} rows, expected the "
                          f"{hard_count} lowest-scored")
        by_id = np.argsort(train.ids)
        hard = train.take(by_id[np.searchsorted(train.ids, hard_ids, sorter=by_id)])
        budget = ref.round_half_up(Fraction(self.amount) * hard_count)
        arms = (
            ("targeted", report, float(self.tau), float(self.amount), hard),
            ("baseline", baseline, 1.0, budget / n, train),
        )
        children = np.random.SeedSequence(int(CLI_SEED)).spawn(self.replicates)
        seeds = [int(c.generate_state(1)[0]) for c in children]  # as repeated_gini derives them
        for arm, path, tau, amount, source in arms:
            segments = ref.smote_segments(source, self.gen_k)
            values, summary = read_report(path)
            errors += ref.check_report(values, summary)
            if f"{arm} gini={summary.get('mean')!r}" not in stdout:
                errors.append(f"{arm}: stdout does not print the report mean")
            if len(values) != self.replicates:
                errors.append(f"{arm}: {len(values)} replicates, expected {self.replicates}")
                continue
            for r, seed in enumerate(seeds):
                spec = augment.GeneratorSpec("smote", {"k_neighbors": self.gen_k, "seed": seed})
                augmented = to_table(augment.targeted_augment(p_train, scores, tau, amount, spec))
                synth = augmented.take(np.arange(n, augmented.X.shape[0]))
                if not (np.array_equal(augmented.X[:n], train.X) and np.array_equal(augmented.ids[:n], train.ids)):
                    errors.append(f"{arm} replicate {r}: original rows changed")
                if synth.X.shape[0] != budget or synth.ids.min() <= train.ids.max():
                    errors.append(f"{arm} replicate {r}: {synth.X.shape[0]} synthetic rows, "
                                  f"expected {budget} with fresh ids")
                errors += [f"{arm} replicate {r}: {e}" for e in ref.check_smote_rows(synth, segments)]
                errors += ref.check_gini(f"{arm} replicate {r}", values[r], augmented, valid, self.downstream_k)
        return errors


def read_report(path: Path) -> tuple[list[float], dict[str, float]]:
    rows = read_rows(path)[1:]
    values = [float(v) for key, v in rows if key.isdigit()]
    return values, {key: float(v) for key, v in rows if not key.isdigit()}


class CharacterizeBlobs(Workload):
    """perturb-bench: Shapley plus random, then Data-IQ, on 1500 blobs rows."""

    name = "characterize-blobs"
    groups = ("shapley_bench_s", "dataiq_bench_s")
    per_class, proportion, k, shapley_runs = 750, "0.1", 5, 4
    kinds = perturb.KINDS

    def setup(self, seed: int) -> None:
        # A fixed class balance fixes the working-set size, so the random arm,
        # which depends only on that size and the CLI seed, is the same on every seed.
        blobs, _, _ = sim.gen_blobs(
            sim.BlobConfig(n_train=2 * self.per_class + 500, n_valid=1, n_test=1, seed=seed))
        keep = np.sort(np.concatenate(
            [np.flatnonzero(blobs.labels == c)[:self.per_class] for c in (0, 1)]))
        self.train = blobs.take(keep)
        dataset.save_csv(self.train, self.path("train.csv"))

    def _argv(self, characterizers: str, runs: int, out: Path) -> list[str]:
        return [
            "perturb-bench", "--train", str(self.path("train.csv")),
            "--proportions", self.proportion, "--runs", str(runs),
            "--characterizers", characterizers, "--k", str(self.k),
            "--seed", CLI_SEED, "--threads", "1", "--out", str(out),
        ]

    def ops(self) -> list[Op]:
        shapley, dataiq = self.path("shapley.csv"), self.path("dataiq.csv")
        return [
            Op("shapley_bench_s", self._argv("knn_shapley,random", self.shapley_runs, shapley),
               [shapley, Path(f"{shapley}.mean.csv")],
               lambda _: self.check_bench(shapley, ("knn_shapley", "random"), self.shapley_runs)),
            Op("dataiq_bench_s", self._argv("dataiq", 1, dataiq),
               [dataiq, Path(f"{dataiq}.mean.csv")],
               lambda _: self.check_bench(dataiq, ("dataiq",), 1)),
        ]

    def check_bench(self, path: Path, characterizers: tuple[str, ...], runs: int) -> list[str]:
        rows = [(k, float(p), c, int(r), float(a)) for k, p, c, r, a in read_rows(path)[1:]]
        share = float(self.proportion)
        expected = {(k, share, c, r) for k in self.kinds for c in characterizers for r in range(runs)}
        errors = []
        if sorted(row[:4] for row in rows) != sorted(expected):
            return [f"{path.name}: cells {len(rows)}, expected {len(expected)}"]
        auprc = {row[:4]: row[4] for row in rows}
        if any(not 0.0 <= a <= 1.0 for a in auprc.values()):
            errors.append(f"{path.name}: AUPRC outside [0, 1]")
        for k, p, c, mean in ((k, float(p), c, float(m)) for k, p, c, m in read_rows(Path(f"{path}.mean.csv"))[1:]):
            runs_mean = float(np.mean([auprc[(k, p, c, r)] for r in range(runs)]))
            if abs(mean - runs_mean) > ref.VALUE_TOL:
                errors.append(f"{path.name}: mean AUPRC of {k}/{c} {mean!r} != {runs_mean!r}")
        for c in characterizers:
            if c in ("knn_shapley", "dataiq"):
                low = [r for r in range(runs) if auprc[("mislabeling", share, c, r)] <= share]
                if low:
                    errors.append(f"{c}: mislabeling AUPRC not above the share {share} in runs {low}")
        if "knn_shapley" in characterizers:
            work, flags, shapley_scores = self.rebuild_mislabel_cell()
            recomputed = ref.average_precision(shapley_scores, flags)
            reported = auprc[("mislabeling", share, "knn_shapley", 0)]
            if abs(recomputed - reported) > ref.VALUE_TOL:
                errors.append(f"mislabeling run 0: AUPRC {reported!r}, recomputed {recomputed!r}")
            random = np.array([a for key, a in auprc.items() if key[2] == "random"])
            positives = ref.round_half_up(Fraction(self.proportion) * work.n)
            chance = ref.expected_random_ap(work.n, positives)
            se = random.std(ddof=1) / math.sqrt(random.shape[0])
            if abs(random.mean() - chance) > 3 * se:
                errors.append(f"random AUPRC mean {random.mean():.5f} is more than 3 SE "
                              f"({se:.5f}) from the chance level {chance:.5f}")
        return errors

    def rebuild_mislabel_cell(self):
        """Working set, planted flags and Shapley scores of cell (mislabeling, p, run 0).

        Seeds follow perturb.benchmark: SeedSequence([seed, kind, proportion, run])
        spawns the split, perturbation and scoring seeds; the probe is the third
        part of a stratified split and the working set is the other two.
        """
        split_seed, perturb_seed, _ = (
            int(s.generate_state(1)[0])
            for s in np.random.SeedSequence([int(CLI_SEED), 0, 0, 0]).spawn(3))
        std, _, _, _ = dataset.standardize(self.train)
        probe_fraction = 0.2
        half = probe_fraction / 2
        a, b, probe = dataset.stratified_split(
            std, dataset.SplitSpec(1.0 - probe_fraction - half, half, probe_fraction, split_seed))
        order = np.argsort(np.concatenate([a.ids, b.ids]))
        work = dataset.Dataset(np.concatenate([a.features, b.features])[order],
                               np.concatenate([a.labels, b.labels])[order],
                               a.feature_names, np.concatenate([a.ids, b.ids])[order])
        perturbed, record = perturb.mislabel(work, float(self.proportion), perturb_seed)
        return work, record.flags, valuation.knn_shapley(perturbed, probe, self.k).scores


class ValueWide(Workload):
    """value, rank and removal-curve on 20000 CSV rows with 20 features."""

    name = "value-wide"
    groups = ("value_s", "removal_s")
    n_train, n_test, n_valid, d, noise, k, downstream_k = 20000, 250, 250, 20, 0.1, 5, 15
    fractions = ("0", "0.1")

    def setup(self, seed: int) -> None:
        # A linear boundary in scaled, shifted features, with 10% of labels flipped.
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(self.d)
        scale = np.exp(rng.normal(0.0, 1.0, self.d))
        shift = rng.normal(0.0, 3.0, self.d)
        names = tuple(f"f{j:02d}" for j in range(self.d))
        self.data = {}
        for part, n in (("train", self.n_train), ("test", self.n_test), ("valid", self.n_valid)):
            Z = rng.standard_normal((n, self.d))
            y = (Z @ w > 0).astype(np.int64)
            flip = rng.random(n) < self.noise
            y[flip] = 1 - y[flip]
            table = Table(Z * scale + shift, y, np.arange(n, dtype=np.int64))
            dataset.save_csv(to_dataset(table, names), self.path(f"{part}.csv"))
            self.data[part] = table

    def ops(self) -> list[Op]:
        scores, ranking, curve = self.path("scores.csv"), self.path("rank.csv"), self.path("curve.csv")
        train, test, valid = (str(self.path(f"{p}.csv")) for p in ("train", "test", "valid"))
        common = ["--threads", "1"]
        return [
            Op("value_s", ["value", "--train", train, "--test", test, "--k", str(self.k),
                           "--seed", CLI_SEED, "--out", str(scores), *common],
               [scores, Path(f"{scores}.meta")], lambda _: self.check_value(scores)),
            Op("value_s", ["rank", "--scores", str(scores), "--out", str(ranking), *common],
               [ranking], lambda _: self.check_rank(scores, ranking)),
            Op("removal_s", ["removal-curve", "--train", train, "--valid", valid,
                             "--scores", str(scores), "--fractions", ",".join(self.fractions),
                             "--strategies", "hardest,random", "--seed", CLI_SEED,
                             "--out", str(curve), *common],
               [curve], lambda _: self.check_curve(scores, curve)),
        ]

    def standardized(self) -> tuple[Table, Table, Table]:
        train, (test, valid) = ref.standardize(self.data["train"], [self.data["test"], self.data["valid"]])
        return train, test, valid

    def check_value(self, scores_path: Path) -> list[str]:
        ids, scores = read_scores(scores_path)
        train, test, _ = self.standardized()
        errors = ref.check_scores(ids, scores, train, test, self.k)
        meta = Path(f"{scores_path}.meta").read_text(encoding="utf-8").splitlines()
        if "method=knn_shapley" not in meta or f"k={self.k}" not in meta:
            errors.append(f"scores sidecar lacks method=knn_shapley and k={self.k}")
        return errors

    def check_rank(self, scores_path: Path, rank_path: Path) -> list[str]:
        ids, scores = read_scores(scores_path)
        rows = read_rows(rank_path)
        if rows[0] != ["rank", "id", "score"]:
            return [f"unexpected rank header {rows[0]}"]
        return ref.check_rank([(int(r), int(i), float(s)) for r, i, s in rows[1:]], ids, scores)

    def check_curve(self, scores_path: Path, curve_path: Path) -> list[str]:
        ids, scores = read_scores(scores_path)
        train, _, valid = self.standardized()
        got = {(s, f): float(g) for s, f, g in read_rows(curve_path)[1:]}
        expected_keys = {(s, repr(float(f))) for s in ("hardest", "random") for f in self.fractions}
        if set(got) != expected_keys:
            return [f"curve rows {sorted(got)}, expected {sorted(expected_keys)}"]
        errors = []
        for fraction in self.fractions:
            drop = ref.round_half_up(Fraction(fraction) * train.X.shape[0])
            kept = np.flatnonzero(~np.isin(train.ids, ref.hardest_ids(ids, scores, drop)))
            strategies = ("hardest", "random") if drop == 0 else ("hardest",)
            for strategy in strategies:
                errors += ref.check_gini(f"{strategy} at {fraction}", got[(strategy, repr(float(fraction)))],
                                         train.take(kept), valid, self.downstream_k)
        return errors


class ToyOracles(Workload):
    """sim-toy sweep, exact enumeration on 16 rows, TMC on 8 rows."""

    name = "toy-oracles"
    groups = ("toy_sweep_s", "exact_s", "tmc_s")
    sweep_points, exact_rows, tmc_rows, test_rows, k = 2, 16, 8, 4, 3
    # The stated accuracy of tmc_shapley at 20000 permutations without truncation.
    tmc_permutations, tmc_tol = 20000, 0.02
    closed_form_tol = 1e-4

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.xs = [0.0, *sorted(rng.uniform(-1.0, 3.0, self.sweep_points).tolist())]
        self.sets = {}
        for name, n in (("exact", self.exact_rows), ("tmc", self.tmc_rows)):
            for part, rows in (("train", n), ("test", self.test_rows)):
                y = rng.integers(0, 2, rows)
                y[:2] = (0, 1)
                table = Table(rng.standard_normal((rows, 2)), y, np.arange(rows, dtype=np.int64))
                dataset.save_csv(to_dataset(table, ("x1", "x2")), self.path(f"{name}_{part}.csv"))
                self.sets[name, part] = table

    def ops(self) -> list[Op]:
        ops = [Op("toy_sweep_s", ["sim-toy", "--x-train", repr(x), "--threads", "1"], [],
                  lambda stdout, x=x: self.check_toy(x, stdout)) for x in self.xs]
        for name, extra in (("exact", []),
                            ("tmc", ["--permutations", str(self.tmc_permutations),
                                     "--truncation-tol", "0"])):
            out = self.path(f"{name}.csv")
            ops.append(Op(f"{name}_s", [
                "value", "--method", f"{name}_shapley", "--train", str(self.path(f"{name}_train.csv")),
                "--test", str(self.path(f"{name}_test.csv")), "--k", str(self.k), "--no-standardize",
                "--seed", CLI_SEED, "--threads", "1", "--out", str(out), *extra,
            ], [out], lambda _, name=name, out=out: self.check_oracle(name, out)))
        return ops

    def check_toy(self, x: float, stdout: str) -> list[str]:
        lines = stdout.strip().splitlines()
        if lines[0] != f"x_train={x!r}" or not lines[1].startswith("expected_shapley="):
            return [f"sim-toy {x!r}: unexpected output head {lines[:2]}"]
        expected_value = float(lines[1].split("=", 1)[1])
        table = [[float(v) for v in line.split(",")] for line in lines[3:]]
        errors = []
        closed = ref.toy_closed_form(x)
        if abs(expected_value - closed) > self.closed_form_tol:
            errors.append(f"sim-toy {x!r}: E[s] {expected_value!r}, closed form {closed!r}")
        references = [ref.toy_table(x)]
        if x == 0.0:
            references.append(ref.TOY_TABLE_AT_0)
        for reference_rows in references:
            if len(table) != len(reference_rows) or any(
                got[:3] != [lo, hi, y] or max(abs(a - float(b)) for a, b in zip(got[3:], values)) > 1e-12
                for got, (lo, hi, y, values) in zip(table, reference_rows)
            ):
                errors.append(f"sim-toy {x!r}: interval table differs from the reference")
        return errors

    def check_oracle(self, name: str, out: Path) -> list[str]:
        train, test = self.sets[name, "train"], self.sets[name, "test"]
        ids, scores = read_scores(out)
        if not np.array_equal(ids, train.ids):
            return [f"{name}: scores cover ids {ids.tolist()}"]
        exact = ref.knn_shapley_recursion(train, test, self.k)
        errors = []
        if name == "exact":
            utility = ref.knn_match_mean(train, test, self.k)
            if abs(scores.sum() - utility) > ref.SUM_TOL:
                errors.append(f"exact: efficiency, sum {scores.sum()!r} != utility {utility!r}")
            if np.abs(scores - exact).max() > 1e-10:
                errors.append(f"exact: differs from the recursion by {np.abs(scores - exact).max():.2e}")
        elif np.abs(scores - exact).max() > self.tmc_tol:
            errors.append(f"tmc: {np.abs(scores - exact).max():.4f} from the exact values, "
                          f"stated tolerance {self.tmc_tol}")
        return errors


WORKLOADS = {w.name: w for w in (AugmentBlobs, CharacterizeBlobs, ValueWide, ToyOracles)}
