"""Command-line entry point.

Every subcommand is pure in (flags, input files, seed): reruns write
byte-identical outputs, and a ``--threads`` flag caps parallelism without
changing results. Output files start with a comment line recording the
full invocation so results stay attributable to their seeds.

Exit codes: 0 success, 2 flag/validation problems, 1 runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import augment as augment_mod
from . import dataiq as dataiq_mod
from . import evaluation, perturb, sim, valuation
from ._util import hard_count, round_half_up
from .dataset import load_csv, save_csv, standardize


class UsageError(Exception):
    """Bad flags or preconditions; maps to exit code 2 before any heavy work."""


def _comma_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _comma_names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = argparse.ArgumentParser(
        prog="hardshap",
        description="KNN Shapley hardness scores and targeted synthetic augmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--threads", type=int, default=1, help="parallelism cap (default 1)")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0, logged)")

    p = sub.add_parser("value", help="score training points (lower = harder)")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label", default="label", help="label column name (default label)")
    p.add_argument("--k", type=int, default=5, help="neighborhood size (default 5)")
    p.add_argument(
        "--method",
        choices=("knn_shapley", "exact_shapley", "tmc_shapley"),
        default="knn_shapley",
    )
    p.add_argument("--permutations", type=int, default=0, help="tmc only; 0 means 100*n")
    p.add_argument("--truncation-tol", type=float, default=1e-4, help="tmc early-stop tolerance")
    p.add_argument("--no-standardize", action="store_true", help="skip train-fitted scaling")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("rank", help="order ids by hardness from a scores file")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    common(p, seeded=False)

    p = sub.add_parser("augment", help="add synthetic rows fitted on the hardest points")
    p.add_argument("--train", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--tau", type=float, required=True, help="hardest fraction in (0, 1]")
    p.add_argument("--amount", type=float, required=True, help="synthetic rows per hard row")
    p.add_argument("--generator", choices=augment_mod.GENERATOR_KINDS)
    p.add_argument("--k", type=int, default=5, help="SMOTE neighbor count (default 5)")
    p.add_argument("--exec-in", help="external generator: where to write the hard subset")
    p.add_argument("--exec-out", help="external generator: where to read synthetic rows")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("eval", help="AUC/Gini of a probability file against labels")
    p.add_argument("--probs", required=True, help="id,prob CSV")
    p.add_argument("--labels", required=True, help="CSV containing id and the label column")
    p.add_argument("--label", default="label")
    p.add_argument("--out", help="optional metric CSV; metrics also print to stdout")
    common(p, seeded=False)

    p = sub.add_parser("eval-pipeline", help="value -> rank -> augment -> repeated Gini")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--k", type=int, default=5, help="valuation neighborhood size")
    p.add_argument("--downstream-k", type=int, default=evaluation.DOWNSTREAM_K)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--amount", type=float, required=True)
    p.add_argument("--generator", choices=augment_mod.GENERATOR_KINDS)
    p.add_argument("--gen-k", type=int, default=5, help="SMOTE neighbor count")
    p.add_argument("--exec-in")
    p.add_argument("--exec-out")
    p.add_argument("--replicates", type=int, default=30)
    p.add_argument("--with-baseline", action="store_true", help="also run the tau=1 arm")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--baseline-out", help="default: <out> with a .baseline.csv suffix")
    common(p)

    p = sub.add_parser("perturb-bench", help="AUPRC of characterizers vs planted hardness")
    p.add_argument("--train", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--kinds", default=",".join(perturb.KINDS))
    p.add_argument("--proportions", default="0.05,0.1,0.15,0.2")
    p.add_argument("--characterizers", default=",".join(perturb.CHARACTERIZERS))
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--checkpoints", type=int, default=10)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--mean-out", help="default: <out> with a .mean.csv suffix")
    common(p)

    p = sub.add_parser("dataiq", help="confidence/aleatoric tags over checkpoints")
    p.add_argument("--train", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--checkpoints", type=int, default=10)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--thresholds", default="0.25,0.75,0.2", help="low_conf,high_conf,low_aleatoric")
    p.add_argument("--probs-in", help="use externally produced checkpoint probabilities")
    p.add_argument("--probs-out", help="also write the checkpoint probability matrix")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("removal-curve", help="validation Gini after dropping points")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--fractions", default="0,0.05,0.1,0.2")
    p.add_argument("--strategies", default="hardest,random")
    p.add_argument("--downstream-k", type=int, default=evaluation.DOWNSTREAM_K)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("sim-toy", help="analytic 1NN values for the 1-D mixture")
    p.add_argument("--x-train", type=float, default=0.0)
    p.add_argument("--grid", default="-8,8,0.001", help="lower,upper,step")
    p.add_argument("--out", help="optional CSV for the interval table")
    common(p, seeded=False)

    p = sub.add_parser("sim-blobs", help="write train/valid/test CSVs of 2-D Gaussian blobs")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--n-train", type=int, default=5000)
    p.add_argument("--n-valid", type=int, default=2500)
    p.add_argument("--n-test", type=int, default=2500)
    p.add_argument("--cov-scale", type=float, default=1.0)
    common(p)

    return parser, sub


def _prescan_config(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _merge_config_defaults(
    sub: argparse._SubParsersAction, argv: list[str], config_path: str
) -> None:
    """Install config values as subparser defaults before parsing.

    Command-line flags still override because defaults only fill absent
    flags; required flags satisfied by the config stop being required.
    """
    if not argv or argv[0] not in sub.choices:
        return  # let the parser report the bad subcommand itself
    command = argv[0]
    path = Path(config_path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        raw[key.strip().replace("-", "_")] = value.strip()
    command_parser = sub.choices[command]
    known = {a.dest: a for a in command_parser._actions}
    typed: dict[str, object] = {}
    for key, value in raw.items():
        action = known.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r} for {command}")
        if isinstance(action, argparse._StoreTrueAction):
            typed[key] = value.lower() in ("1", "true", "yes")
        elif action.type is not None:
            typed[key] = action.type(value)
        else:
            typed[key] = value
        action.required = False
    command_parser.set_defaults(**typed)


def _header(argv: list[str], **extras: object) -> str:
    # --threads never changes results, so logging it would break the
    # byte-identity of outputs across thread counts
    logged = []
    skip_next = False
    for token in argv:
        if skip_next:
            skip_next = False
            continue
        if token == "--threads":
            skip_next = True
            continue
        if token.startswith("--threads="):
            continue
        logged.append(token)
    parts = ["hardshap", *logged]
    if extras:
        parts.append("|")
        parts.extend(f"{k}={v}" for k, v in sorted(extras.items()))
    return " ".join(str(p) for p in parts)


def _require_positive(value: int | float, name: str) -> None:
    if value <= 0:
        raise UsageError(f"{name} must be positive")


def _load_pair(train_path: str, other_path: str, label: str, no_standardize: bool):
    train = load_csv(train_path, label)
    other = load_csv(other_path, label)
    if no_standardize:
        return train, other
    train, (other,), _, _ = standardize(train, [other])
    return train, other


def _generator_spec(args: argparse.Namespace, k_field: str = "k") -> augment_mod.GeneratorSpec:
    if not args.generator:
        raise UsageError("missing --generator (smote or external)")
    if args.generator == "smote":
        return augment_mod.GeneratorSpec(
            "smote", {"k_neighbors": getattr(args, k_field), "seed": args.seed}
        )
    if not args.exec_in or not args.exec_out:
        raise UsageError("external generator needs --exec-in and --exec-out")
    return augment_mod.GeneratorSpec(
        "external", {"exec_in": args.exec_in, "exec_out": args.exec_out, "seed": args.seed}
    )


def _cmd_value(args: argparse.Namespace, argv: list[str]) -> int:
    _require_positive(args.k, "K")
    if args.permutations < 0:
        raise UsageError("permutations must be nonnegative")
    train, test = _load_pair(args.train, args.test, args.label, args.no_standardize)
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
    scores = valuation.ValuationScores(
        scores.scores,
        scores.ids,
        scores.method,
        {**scores.params, "seed": args.seed, "standardize": not args.no_standardize},
    )
    valuation.save_scores_csv(
        scores, args.out,
        header_comment=_header(argv, seed=args.seed, k=args.k, standardize=not args.no_standardize),
    )
    return 0


def _cmd_rank(args: argparse.Namespace, argv: list[str]) -> int:
    scores = valuation.load_scores_csv(args.scores)
    ordering = valuation.rank_by_hardness(scores)
    by_id = {int(i): float(s) for i, s in zip(scores.ids, scores.scores)}
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {_header(argv)}\n")
        fh.write("rank,id,score\n")
        for rank, row_id in enumerate(ordering):
            fh.write(f"{rank},{int(row_id)},{by_id[int(row_id)]!r}\n")
    return 0


def _cmd_augment(args: argparse.Namespace, argv: list[str]) -> int:
    if not 0.0 < args.tau <= 1.0:
        raise UsageError("tau must lie in (0, 1]")
    _require_positive(args.amount, "amount")
    gen = _generator_spec(args)
    train = load_csv(args.train, args.label)
    scores = valuation.load_scores_csv(args.scores)
    augmented = augment_mod.targeted_augment(train, scores, args.tau, args.amount, gen)
    save_csv(augmented, args.out, label_column=args.label,
             header_comment=_header(argv, seed=args.seed))
    return 0


def _cmd_eval(args: argparse.Namespace, argv: list[str]) -> int:
    prob_ids, probs = evaluation.load_probs_column_csv(args.probs, "prob")
    label_ids, labels = evaluation.load_probs_column_csv(args.labels, args.label)
    order_p, order_l = np.argsort(prob_ids), np.argsort(label_ids)
    if not np.array_equal(prob_ids[order_p], label_ids[order_l]):
        raise ValueError("probs and labels files do not cover the same ids")
    auc = evaluation.auc_roc(probs[order_p], labels[order_l].astype(np.int64))
    g = 2.0 * auc - 1.0
    print(f"auc_roc={auc!r}")
    print(f"gini={g!r}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# {_header(argv)}\n")
            fh.write("metric,value\n")
            fh.write(f"auc_roc,{auc!r}\n")
            fh.write(f"gini,{g!r}\n")
    return 0


def _cmd_eval_pipeline(args: argparse.Namespace, argv: list[str]) -> int:
    _require_positive(args.k, "K")
    _require_positive(args.downstream_k, "downstream K")
    if not 0.0 < args.tau <= 1.0:
        raise UsageError("tau must lie in (0, 1]")
    _require_positive(args.amount, "amount")
    if args.replicates < 2:
        raise UsageError("replicates must be at least 2")
    gen = _generator_spec(args, k_field="gen_k")
    train = load_csv(args.train, args.label)
    valid = load_csv(args.valid, args.label)
    test = load_csv(args.test, args.label)
    if not args.no_standardize:
        train, (valid, test), _, _ = standardize(train, [valid, test])
    scores = valuation.knn_shapley(train, test, args.k, threads=args.threads)
    config = evaluation.AugmentPipelineConfig(
        train, valid, scores, args.tau, args.amount, gen, args.downstream_k
    )
    report = evaluation.repeated_gini(config, args.replicates, args.seed, threads=args.threads)
    evaluation.save_metric_report_csv(
        report, args.out, header_comment=_header(argv, seed=args.seed, arm="targeted")
    )
    print(f"targeted gini={report.point!r} ci=[{report.ci_low!r},{report.ci_high!r}]")
    if args.with_baseline:
        # same synthetic budget spent without targeting
        budget = round_half_up(args.amount * hard_count(args.tau, train.n))
        baseline_config = evaluation.AugmentPipelineConfig(
            train, valid, scores, 1.0, budget / train.n, gen, args.downstream_k
        )
        baseline = evaluation.repeated_gini(
            baseline_config, args.replicates, args.seed, threads=args.threads
        )
        baseline_out = args.baseline_out or f"{args.out}.baseline.csv"
        evaluation.save_metric_report_csv(
            baseline, baseline_out, header_comment=_header(argv, seed=args.seed, arm="baseline")
        )
        print(
            f"baseline gini={baseline.point!r} ci=[{baseline.ci_low!r},{baseline.ci_high!r}]"
        )
    return 0


def _cmd_perturb_bench(args: argparse.Namespace, argv: list[str]) -> int:
    kinds = _comma_names(args.kinds)
    characterizers = _comma_names(args.characterizers)
    proportions = _comma_floats(args.proportions)
    unknown = set(kinds) - set(perturb.KINDS)
    if unknown:
        raise UsageError(f"unknown kinds: {sorted(unknown)}")
    unknown = set(characterizers) - set(perturb.CHARACTERIZERS)
    if unknown:
        raise UsageError(f"unknown characterizers: {sorted(unknown)}")
    if not proportions or any(not 0.0 < p < 1.0 for p in proportions):
        raise UsageError("proportions must lie in (0, 1)")
    _require_positive(args.runs, "runs")
    train = load_csv(args.train, args.label)
    if not args.no_standardize:
        train, _, _, _ = standardize(train)
    rows = perturb.benchmark(
        train, kinds, proportions, characterizers,
        runs=args.runs, seed=args.seed, k=args.k,
        n_checkpoints=args.checkpoints, threads=args.threads,
    )
    header = _header(argv, seed=args.seed)
    perturb.save_benchmark_csv(rows, args.out, header_comment=header)
    mean_out = args.mean_out or f"{args.out}.mean.csv"
    perturb.save_benchmark_mean_csv(rows, mean_out, header_comment=header)
    return 0


def _cmd_dataiq(args: argparse.Namespace, argv: list[str]) -> int:
    thresholds = tuple(_comma_floats(args.thresholds))
    if len(thresholds) != 3:
        raise UsageError("thresholds must be low_conf,high_conf,low_aleatoric")
    _require_positive(args.k, "K")
    if args.checkpoints < 2:
        raise UsageError("need at least 2 checkpoints")
    header = _header(argv, seed=args.seed)
    if args.probs_in:
        cp = dataiq_mod.load_probs_csv(args.probs_in)
    else:
        train = load_csv(args.train, args.label)
        if not args.no_standardize:
            train, _, _, _ = standardize(train)
        cp = dataiq_mod.bagged_checkpoint_probs(
            train, n_checkpoints=args.checkpoints, k=args.k,
            seed=args.seed, threads=args.threads,
        )
    if args.probs_out:
        dataiq_mod.save_probs_csv(cp, args.probs_out, header_comment=header)
    tags = dataiq_mod.tag(
        dataiq_mod.confidence(cp), dataiq_mod.aleatoric(cp), thresholds, ids=cp.ids
    )
    dataiq_mod.save_tags_csv(tags, args.out, header_comment=header)
    return 0


def _cmd_removal_curve(args: argparse.Namespace, argv: list[str]) -> int:
    fractions = _comma_floats(args.fractions)
    strategies = _comma_names(args.strategies)
    unknown = set(strategies) - {"hardest", "random"}
    if unknown:
        raise UsageError(f"unknown strategies: {sorted(unknown)}")
    _require_positive(args.downstream_k, "downstream K")
    train, valid = _load_pair(args.train, args.valid, args.label, args.no_standardize)
    scores = valuation.load_scores_csv(args.scores)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {_header(argv, seed=args.seed)}\n")
        fh.write("strategy,fraction,gini\n")
        for strategy in strategies:
            curve = evaluation.removal_curve(
                train, valid, scores, fractions, strategy, args.seed, args.downstream_k
            )
            for fraction, g in curve:
                fh.write(f"{strategy},{fraction!r},{g!r}\n")
    return 0


def _cmd_sim_toy(args: argparse.Namespace, argv: list[str]) -> int:
    grid = tuple(_comma_floats(args.grid))
    if len(grid) != 3:
        raise UsageError("grid must be lower,upper,step")
    expected = sim.toy_expected_shapley(args.x_train, grid)
    table = sim.toy_interval_table(args.x_train)
    print(f"x_train={args.x_train!r}")
    print(f"expected_shapley={expected!r}")
    print("interval_lo,interval_hi,y_test,s_left,s_movable,s_right")
    lines = []
    for lo, hi, y, (s_left, s_mid, s_right) in table:
        lines.append(f"{lo!r},{hi!r},{y},{s_left!r},{s_mid!r},{s_right!r}")
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# {_header(argv)}\n")
            fh.write(f"# expected_shapley={expected!r}\n")
            fh.write("interval_lo,interval_hi,y_test,s_left,s_movable,s_right\n")
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_sim_blobs(args: argparse.Namespace, argv: list[str]) -> int:
    for name in ("n_train", "n_valid", "n_test"):
        _require_positive(getattr(args, name), name)
    if args.cov_scale < 0:
        raise UsageError("cov-scale must be nonnegative")
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
        config_path = _prescan_config(argv)
        if config_path is not None:
            _merge_config_defaults(sub, argv, config_path)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "threads", 1) < 1:
            raise UsageError("threads must be at least 1")
        return _COMMANDS[args.command](args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: bad files, invalid data, ...
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
