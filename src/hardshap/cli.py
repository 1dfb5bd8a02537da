"""Command-line entry point.

Every subcommand is pure in (flags, input files, seed): reruns write
byte-identical outputs, and a ``--threads`` flag caps parallelism without
changing results. Output files start with a comment line recording the
full invocation so results stay attributable to their seeds.

Exit codes: 0 success, 1 runtime failures, 2 usage errors. Flags must be
spelled in full, and every usage error prints the parser's usage line.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shlex
import sys
from functools import partial
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from . import _io
from . import augment as augment_mod
from . import dataiq as dataiq_mod
from . import evaluation, perturb, sim, valuation
from ._util import share_count
from .dataset import Dataset, load_csv, save_csv, standardize

T = TypeVar("T")


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v != "")


def _comma_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _checked(convert: Callable[[str], T], ok: Callable[[T], bool], bound: str,
             name: str) -> Callable[[str], T]:
    """argparse ``type=``: a value ``ok`` refuses exits 2 naming the flag and ``bound``."""

    def parse(text: str) -> T:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {bound}, got {text!r}")
        return value

    # argparse names the type in "invalid int value: 'abc'"
    parse.__name__ = convert.__name__.strip("_").replace("_", " ")
    return parse


def _at_least(low: int, name: str) -> Callable[[str], int]:
    bound = {0: "non-negative", 1: "positive"}.get(low, f"at least {low}")
    return _checked(int, lambda value: value >= low, bound, name)


def _non_negative(name: str) -> Callable[[str], float]:
    return _checked(float, lambda value: 0.0 <= value < math.inf, "finite and non-negative", name)


def _subset_of(names: tuple[str, ...], name: str) -> Callable[[str], tuple[str, ...]]:
    return _checked(_comma_names, lambda got: 0 < len(got) == len(set(got) & set(names)),
                    "a non-empty subset of " + ",".join(names) + " without repeats", name)


def _build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    # the token walks in _given only know full flag names
    exact = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = exact(
        prog="hardshap",
        description="KNN Shapley hardness scores and targeted synthetic augmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)
    tau = _checked(float, lambda value: 0.0 < value <= 1.0, "in (0, 1]", "tau")
    amount = _checked(float, lambda value: 0.0 < value < math.inf, "positive and finite", "amount")

    # a flag naming a file is declared by file_flag, inputs before outputs (see _check_flag_rules)
    def file_flag(p: argparse._ActionsContainer, flag: str, sidecar: bool = False, **kwargs) -> None:
        p.add_argument(flag, **kwargs)
        suffixes = ("", valuation.META_SUFFIX) if sidecar else ("",)
        p.set_defaults(files=(*(p.get_default("files") or ()), *((flag, x) for x in suffixes)))

    def common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--threads", type=_at_least(1, "threads"), default=1,
                       help="parallelism cap (default 1)")
        if seeded:
            p.add_argument("--seed", type=_at_least(0, "seed"), default=0,
                           help="PRNG seed (default 0, logged)")

    p = sub.add_parser("value", help="score training points (lower = harder)")
    file_flag(p, "--train", required=True)
    file_flag(p, "--test", required=True)
    p.add_argument("--label", default="label", help="label column name (default label)")
    p.add_argument("--k", type=_at_least(1, "K"), default=5, help="neighborhood size (default 5)")
    p.add_argument("--method", choices=valuation.METHODS, default="knn_shapley")
    p.add_argument("--permutations", type=_at_least(0, "permutations"), default=0,
                   help="tmc only; 0 means 100*n")
    p.add_argument("--truncation-tol", type=_non_negative("truncation-tol"), default=1e-4,
                   help="tmc early-stop tolerance")
    p.add_argument("--no-standardize", action="store_true", help="skip train-fitted scaling")
    file_flag(p, "--out", sidecar=True, required=True)
    common(p)

    p = sub.add_parser("rank", help="order ids by hardness from a scores file")
    file_flag(p, "--scores", sidecar=True, required=True)
    file_flag(p, "--out", required=True)
    common(p, seeded=False)

    p = sub.add_parser("augment", help="add synthetic rows fitted on the hardest points")
    file_flag(p, "--train", required=True)
    file_flag(p, "--scores", sidecar=True, required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--tau", type=tau, required=True, help="hardest fraction in (0, 1]")
    p.add_argument("--amount", type=amount, required=True, help="synthetic rows per hard row")
    p.add_argument("--generator", choices=augment_mod.GENERATOR_KINDS, required=True)
    p.add_argument("--k", type=_at_least(1, "K"), default=augment_mod.SMOTE_K,
                   help=f"SMOTE neighbor count (default {augment_mod.SMOTE_K})")
    p.add_argument("--exec-cmd", type=_checked(shlex.split, bool, "a command", "exec-cmd"),
                   help="external generator: command run once, {in} {out} {m} {seed} filled in")
    file_flag(p, "--out", required=True)
    common(p)

    p = sub.add_parser("eval", help="AUC/Gini of a probability file against labels")
    file_flag(p, "--probs", required=True, help="id,prob CSV")
    file_flag(p, "--labels", required=True, help="CSV containing id and the label column")
    p.add_argument("--label", default="label")
    file_flag(p, "--out", help="optional metric CSV; metrics also print to stdout")
    common(p, seeded=False)

    p = sub.add_parser("eval-pipeline", help="value -> rank -> augment -> repeated Gini")
    file_flag(p, "--train", required=True)
    file_flag(p, "--valid", required=True)
    file_flag(p, "--test", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--k", type=_at_least(1, "K"), default=5, help="valuation neighborhood size")
    p.add_argument("--downstream-k", type=_at_least(1, "downstream K"),
                   default=evaluation.DOWNSTREAM_K)
    p.add_argument("--tau", type=tau, required=True)
    p.add_argument("--amount", type=amount, required=True)
    # smote only: --exec-cmd would need one run per replicate, each with its own seed
    p.add_argument("--generator", choices=("smote",), required=True)
    p.add_argument("--gen-k", type=_at_least(1, "SMOTE K"), default=augment_mod.SMOTE_K,
                   help="SMOTE neighbor count")
    p.add_argument("--replicates", type=_at_least(2, "replicates"), default=30)
    p.add_argument("--with-baseline", action="store_true", help="also run the tau=1 arm")
    p.add_argument("--no-standardize", action="store_true")
    file_flag(p, "--out", required=True)
    file_flag(p, "--baseline-out", help="with --with-baseline; default: <out>.baseline.csv")
    common(p)

    p = sub.add_parser("perturb-bench", help="AUPRC of characterizers vs planted hardness")
    file_flag(p, "--train", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--kinds", type=_subset_of(perturb.KINDS, "kinds"),
                   default=",".join(perturb.KINDS))
    p.add_argument("--proportions", default="0.05,0.1,0.15,0.2", type=_checked(
        _comma_floats, lambda ps: 0 < len(ps) == len(set(ps)) and all(0.0 < p < 1.0 for p in ps),
        "a non-empty list in (0, 1) without repeats", "proportions"))
    p.add_argument("--characterizers", type=_subset_of(perturb.CHARACTERIZERS, "characterizers"),
                   default=",".join(perturb.CHARACTERIZERS))
    p.add_argument("--runs", type=_at_least(1, "runs"), default=3)
    p.add_argument("--k", type=_at_least(1, "K"), default=5)
    p.add_argument("--checkpoints", type=_at_least(2, "checkpoints"), default=10,
                   help="bagging checkpoints of the dataiq characterizer (default 10)")
    p.add_argument("--no-standardize", action="store_true")
    file_flag(p, "--out", required=True)
    file_flag(p, "--mean-out", help="default: <out> with a .mean.csv suffix")
    common(p)

    p = sub.add_parser("dataiq", help="confidence/aleatoric tags over checkpoints")
    source = p.add_mutually_exclusive_group(required=True)
    file_flag(source, "--train", help="bag a KNN ensemble over these rows")
    file_flag(source, "--probs-in", help="use externally produced checkpoint probabilities")
    p.add_argument("--label", default="label")
    p.add_argument("--checkpoints", type=_at_least(2, "checkpoints"), default=10)
    p.add_argument("--k", type=_at_least(1, "K"), default=5)
    p.add_argument("--thresholds", type=_checked(
        _comma_floats, lambda t: len(t) == 3 and not any(map(math.isnan, t)) and t[0] < t[1],
        "three numbers with low_conf < high_conf", "thresholds"),
        default=",".join(map(str, dataiq_mod.DEFAULT_THRESHOLDS)),
        help="low_conf,high_conf,low_aleatoric")
    file_flag(p, "--out", required=True)
    file_flag(p, "--probs-out", help="also write the checkpoint probability matrix")
    p.add_argument("--no-standardize", action="store_true")
    common(p)

    p = sub.add_parser("removal-curve", help="validation Gini after dropping points")
    file_flag(p, "--train", required=True)
    file_flag(p, "--valid", required=True)
    file_flag(p, "--scores", sidecar=True, required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--fractions", default="0,0.05,0.1,0.2", type=_checked(
        _comma_floats, lambda fs: bool(fs) and all(0 <= a < b for a, b in zip(fs, (*fs[1:], 1))),
        "a non-empty strictly ascending list in [0, 1)", "fractions"))
    p.add_argument("--strategies", type=_subset_of(evaluation.STRATEGIES, "strategies"),
                   default=",".join(evaluation.STRATEGIES))
    p.add_argument("--downstream-k", type=_at_least(1, "downstream K"),
                   default=evaluation.DOWNSTREAM_K)
    p.add_argument("--no-standardize", action="store_true")
    file_flag(p, "--out", required=True)
    common(p)

    p = sub.add_parser("sim-toy", help="analytic 1NN values for the 1-D mixture")
    p.add_argument("--x-train", type=_checked(float, math.isfinite, "finite", "x-train"),
                   default=0.0)
    p.add_argument("--grid", help="lower,upper,step", type=_checked(
        _comma_floats, lambda g: len(g) == 3 and all(map(math.isfinite, g)) and g[2] > 0,
        "three finite numbers with a positive step", "grid"),
        default=",".join(map(str, sim.TOY_GRID)))
    file_flag(p, "--out", help="optional CSV for the interval table")
    common(p, seeded=False)

    p = sub.add_parser("sim-blobs", help="write train/valid/test CSVs of 2-D Gaussian blobs")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--n-train", type=_at_least(1, "n-train"), default=5000)
    p.add_argument("--n-valid", type=_at_least(1, "n-valid"), default=2500)
    p.add_argument("--n-test", type=_at_least(1, "n-test"), default=2500)
    p.add_argument("--cov-scale", type=_non_negative("cov-scale"), default=1.0)
    common(p)

    return parser, sub


def _given(argv: list[str], flag: str) -> list[int]:
    """Indices of the tokens giving ``flag``, as ``flag VALUE`` or ``flag=VALUE``.

    With abbreviations off these are the only spellings the parser accepts.
    """
    return [i for i, token in enumerate(argv) if token == flag or token.startswith(flag + "=")]


def _with_config(argv: list[str], sub: argparse._SubParsersAction) -> list[str]:
    """argv with one flag token per line of its ``--config`` file after the subcommand.

    A ``key=value`` line becomes ``--key=value``, and a truthy value of a
    store-true key a bare ``--key``, so the parser checks config values
    exactly as it checks flags. The command line's own flags come later and
    so win. A file that is missing or has a bad line or an unknown key is
    the subcommand parser's error.
    """
    if not argv or argv[0] not in sub.choices:
        return argv  # let the parser report the bad subcommand itself
    command_parser = sub.choices[argv[0]]
    given = _given(argv, "--config")
    if not given or argv[-1] == "--config":
        return argv  # no file, or a missing value the parser reports
    i = given[-1]
    path = Path(argv[i + 1] if argv[i] == "--config" else argv[i].partition("=")[2])
    if not path.is_file():
        command_parser.error(f"config file not found: {path}")
    options = command_parser._option_string_actions
    tokens = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            command_parser.error(f"{path}:{lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)
        if action is None:
            command_parser.error(f"unknown config key {key!r} for {argv[0]}")
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
    return [argv[0], *tokens, *argv[1:]]


def _check_flag_rules(args: argparse.Namespace, argv: list[str],
                      parser: argparse.ArgumentParser) -> None:
    """The rules that join two flags; ``argv`` includes the ``--config`` lines.

    A flag that only configures a mode the command does not run would be
    ignored, yet logged in the output header, so it is refused. So is a
    written file that another file flag names too: it would replace an input
    before it is read, or another output. The file flags are those
    ``file_flag`` recorded on ``parser``, each written one checked against the
    flags declared before it. Default output names and sidecars count too, so
    ``args`` carries the resolved defaults.
    """
    if broken := [token for token in argv if "\n" in token or "\r" in token]:
        parser.error(f"argument {broken[0]!r}: a line break would split the output header")

    def given(*flags: str) -> str:
        return ", ".join(flag for flag in flags if _given(argv, flag))

    if args.command == "augment":
        if args.generator == "external" and not args.exec_cmd:
            parser.error("argument --generator: external needs --exec-cmd")
        if args.generator != "external" and given("--exec-cmd"):
            parser.error(f"argument --generator: {args.generator} does not take --exec-cmd")
        if args.generator == "external" and given("--k"):
            parser.error("argument --generator: external does not take --k, "
                         "which only configures smote")
    if args.command == "value" and args.method != "tmc_shapley" and (
            flags := given("--permutations", "--truncation-tol")):
        parser.error(f"argument --method: {args.method} does not take {flags}")
    if args.command == "eval-pipeline" and not args.with_baseline and given("--baseline-out"):
        parser.error("argument --baseline-out: not allowed without --with-baseline")
    if (args.command == "perturb-bench" and "dataiq" not in args.characterizers
            and given("--checkpoints")):
        parser.error(f"argument --characterizers: {','.join(args.characterizers)} "
                     "does not take --checkpoints, which only configures dataiq")
    if (args.command == "perturb-bench" and not set(perturb.TAKES_K) & set(args.characterizers)
            and given("--k")):
        parser.error(f"argument --characterizers: {','.join(args.characterizers)} "
                     f"does not take --k, which only configures {','.join(perturb.TAKES_K)}")
    if args.command == "dataiq" and args.probs_in and (
            flags := given("--k", "--checkpoints", "--label", "--no-standardize")):
        parser.error(f"argument --probs-in: not allowed with {flags}, "
                     "which only configure --train")
    named = []
    for flag, suffix in [("--config", ""), *(parser.get_default("files") or ())]:
        if path := vars(args)[flag[2:].replace("-", "_")]:
            path += suffix
            label = (f"{flag} (sidecar {path})" if suffix else
                     flag if _given(argv, flag) else f"{flag} (default {path})")
            named.append((flag, label, os.path.realpath(path)))
    for j, (flag, label, path) in enumerate(named):
        same = [earlier for _, earlier, other in named[:j] if other == path]
        if flag.endswith("out") and same:
            parser.error(f"argument {label}: names the same file as {same[0]}")


def _header(argv: list[str], **extras: object) -> str:
    # --threads never changes results, so logging it would break the
    # byte-identity of outputs across thread counts
    dropped = set()
    for i in _given(argv, "--threads"):
        dropped.update((i, i + 1) if argv[i] == "--threads" else (i,))
    # quoted so the logged command reruns as written
    line = shlex.join(["hardshap", *(token for i, token in enumerate(argv) if i not in dropped)])
    if extras:
        line += " | " + " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
    return line


def _load(label: str, no_standardize: bool, *paths: str) -> list[Dataset]:
    """Load CSVs, all standardized by the first one's fit unless told not to."""
    first, *others = (load_csv(path, label) for path in paths)
    if not no_standardize:
        first, others, _, _ = standardize(first, others)
    return [first, *others]


def _cmd_value(args: argparse.Namespace, argv: list[str]) -> int:
    train, test = _load(args.label, args.no_standardize, args.train, args.test)
    if args.method == "knn_shapley":
        scores = valuation.knn_shapley(train, test, args.k, threads=args.threads)
    elif args.method == "exact_shapley":
        scores = valuation.exact_data_shapley(train, test, args.k)
    else:
        perms = args.permutations or None
        scores = valuation.tmc_shapley(
            train, test, args.k, permutations=perms,
            truncation_tol=args.truncation_tol, seed=args.seed,
        )
    scores = dataclasses.replace(scores, params={
        **scores.params, "seed": args.seed, "standardize": not args.no_standardize})
    valuation.save_scores_csv(
        scores, args.out,
        header_comment=_header(argv, seed=args.seed, k=args.k, standardize=not args.no_standardize),
    )
    return 0


def _cmd_rank(args: argparse.Namespace, argv: list[str]) -> int:
    scores = valuation.load_scores_csv(args.scores)
    order = valuation.hardness_order(scores)
    rows = _io.array_rows(np.arange(scores.n), scores.ids[order], scores.scores[order])
    _io.write_csv(args.out, ["rank", "id", "score"], rows, [_header(argv)], newline="\n")
    return 0


def _cmd_augment(args: argparse.Namespace, argv: list[str]) -> int:
    params = {"k_neighbors": args.k} if args.generator == "smote" else {"command": args.exec_cmd}
    gen = augment_mod.GeneratorSpec(args.generator, {**params, "seed": args.seed})
    train = load_csv(args.train, args.label)
    scores = valuation.load_scores_csv(args.scores)
    augmented = augment_mod.targeted_augment(train, scores, args.tau, args.amount, gen)
    save_csv(augmented, args.out, label_column=args.label,
             header_comment=_header(argv, seed=args.seed))
    return 0


def _cmd_eval(args: argparse.Namespace, argv: list[str]) -> int:
    prob_ids, probs = evaluation.load_probs_column_csv(args.probs, "prob")
    label_ids, labels = evaluation.load_labels_column_csv(args.labels, args.label)
    for ids, path in ((prob_ids, args.probs), (label_ids, args.labels)):
        if len(np.unique(ids)) != ids.shape[0]:  # rows would pair by file position
            raise ValueError(f"ids must be unique in {path}")
    order_p, order_l = np.argsort(prob_ids), np.argsort(label_ids)
    if not np.array_equal(prob_ids[order_p], label_ids[order_l]):
        raise ValueError("probs and labels files do not cover the same ids")
    auc = evaluation.auc_roc(probs[order_p], labels[order_l])
    g = 2.0 * auc - 1.0
    print(f"auc_roc={auc!r}")
    print(f"gini={g!r}")
    if args.out:
        _io.write_csv(args.out, ["metric", "value"], [("auc_roc", auc), ("gini", g)],
                      [_header(argv)], newline="\n")
    return 0


def _cmd_eval_pipeline(args: argparse.Namespace, argv: list[str]) -> int:
    train, valid, test = _load(args.label, args.no_standardize, args.train, args.valid, args.test)
    m = augment_mod.synthetic_rows(args.amount, share_count(args.tau, train.n, up=True))
    scores = valuation.knn_shapley(train, test, args.k, threads=args.threads)
    arms = [("targeted", args.tau, args.out)]
    if args.with_baseline:
        # the same m rows from every row, in hardness order: SMOTE picks rows by position
        arms.append(("baseline", 1.0, args.baseline_out))
    # both arms vote against the same valid->train neighbourhood
    vote = evaluation.CachedVote(train, valid, args.downstream_k, threads=args.threads)
    for arm, tau, out in arms:
        draw = partial(augment_mod.smote_generate, valuation.hardest_subset(train, scores, tau),
                       m, args.gen_k)
        report = evaluation.repeated_gini(vote, draw, args.replicates, args.seed,
                                          threads=args.threads)
        evaluation.save_metric_report_csv(
            report, out, header_comment=_header(argv, seed=args.seed, arm=arm)
        )
        print(f"{arm} gini={report.point!r} ci=[{report.ci_low!r},{report.ci_high!r}]")
    return 0


def _cmd_perturb_bench(args: argparse.Namespace, argv: list[str]) -> int:
    (train,) = _load(args.label, args.no_standardize, args.train)
    rows = perturb.benchmark(
        train, args.kinds, args.proportions, args.characterizers,
        runs=args.runs, seed=args.seed, k=args.k,
        n_checkpoints=args.checkpoints, threads=args.threads,
    )
    header = _header(argv, seed=args.seed)
    perturb.save_benchmark_csv(rows, args.out, header_comment=header)
    perturb.save_benchmark_mean_csv(rows, args.mean_out, header_comment=header)
    return 0


def _cmd_dataiq(args: argparse.Namespace, argv: list[str]) -> int:
    header = _header(argv, seed=args.seed)
    if args.probs_in:
        cp = dataiq_mod.load_probs_csv(args.probs_in)
    else:
        (train,) = _load(args.label, args.no_standardize, args.train)
        cp = dataiq_mod.bagged_checkpoint_probs(
            train, n_checkpoints=args.checkpoints, k=args.k,
            seed=args.seed, threads=args.threads,
        )
    if args.probs_out:
        dataiq_mod.save_probs_csv(cp, args.probs_out, header_comment=header)
    tags = dataiq_mod.tag(
        dataiq_mod.confidence(cp), dataiq_mod.aleatoric(cp), args.thresholds, ids=cp.ids
    )
    dataiq_mod.save_tags_csv(tags, args.out, header_comment=header)
    return 0


def _cmd_removal_curve(args: argparse.Namespace, argv: list[str]) -> int:
    train, valid = _load(args.label, args.no_standardize, args.train, args.valid)
    scores = valuation.load_scores_csv(args.scores)
    # every curve is computed before --out is opened, so a failure writes no file
    curves = evaluation.removal_curve(
        train, valid, scores, args.fractions, args.strategies, args.seed, args.downstream_k
    )
    rows = [
        (strategy, fraction, g)
        for strategy, curve in zip(args.strategies, curves)
        for fraction, g in curve
    ]
    _io.write_csv(args.out, ["strategy", "fraction", "gini"], rows,
                  [_header(argv, seed=args.seed)], newline="\n")
    return 0


def _cmd_sim_toy(args: argparse.Namespace, argv: list[str]) -> int:
    expected = sim.toy_expected_shapley(args.x_train, args.grid)
    table = sim.toy_interval_table(args.x_train)
    print(f"x_train={args.x_train!r}")
    print(f"expected_shapley={expected!r}")
    header = ["interval_lo", "interval_hi", "y_test", "s_left", "s_movable", "s_right"]
    rows = [(lo, hi, y, *values) for lo, hi, y, values in table]
    print(",".join(header))
    print("\n".join(",".join(map(str, row)) for row in rows))
    if args.out:
        _io.write_csv(args.out, header, rows,
                      [_header(argv), f"expected_shapley={expected!r}"], newline="\n")
    return 0


def _cmd_sim_blobs(args: argparse.Namespace, argv: list[str]) -> int:
    cfg = sim.BlobConfig(
        cov_scale=args.cov_scale, n_train=args.n_train, n_valid=args.n_valid,
        n_test=args.n_test, seed=args.seed,
    )
    header = _header(argv, seed=args.seed)
    for part, ds in zip(("train", "valid", "test"), sim.gen_blobs(cfg)):
        save_csv(ds, f"{args.out_prefix}_{part}.csv", label_column=args.label,
                 header_comment=header)
    return 0


_COMMANDS = {
    "value": _cmd_value,
    "rank": _cmd_rank,
    "augment": _cmd_augment,
    "eval": _cmd_eval,
    "eval-pipeline": _cmd_eval_pipeline,
    "perturb-bench": _cmd_perturb_bench,
    "dataiq": _cmd_dataiq,
    "removal-curve": _cmd_removal_curve,
    "sim-toy": _cmd_sim_toy,
    "sim-blobs": _cmd_sim_blobs,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = _build_parser()
    try:
        # the top parser takes no flag but --help, so all that precedes the subcommand is stray
        at = next((i for i, token in enumerate(argv) if token in sub.choices), 0)
        if at and not {"-h", "--help"} & set(argv[:at]):
            parser.error(f"unrecognized arguments: {' '.join(argv[:at])}")
        expanded = _with_config(argv, sub)
        args, unknown = parser.parse_known_args(expanded)
        if unknown:  # leftovers after the subcommand are its error, with its usage line
            sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command == "perturb-bench" and not args.mean_out:
            args.mean_out = f"{args.out}.mean.csv"
        if args.command == "eval-pipeline" and args.with_baseline and not args.baseline_out:
            args.baseline_out = f"{args.out}.baseline.csv"
        _check_flag_rules(args, expanded, sub.choices[args.command])
        return _COMMANDS[args.command](args, argv)
    except SystemExit as exc:  # the parser's exit: 2 after one error line, 0 after --help
        return int(exc.code or 0)
    except Exception as exc:  # runtime failures: bad files, invalid data, ...
        print(f"error: {argv[0]}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
