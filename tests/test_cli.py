import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardshap
from hardshap import augment, cli, dataiq, evaluation, neighbors, sim, valuation
from hardshap.cli import main
from hardshap.dataset import Dataset, load_csv, save_csv
from hardshap.neighbors import QUERY_CHUNK
from hardshap.sim import toy_1nn_shapleys
from hardshap.valuation import load_scores_csv


@pytest.fixture(scope="module")
def blob_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    prefix = str(root / "blob")
    assert main([
        "sim-blobs", "--seed", "3", "--out-prefix", prefix,
        "--n-train", "240", "--n-valid", "120", "--n-test", "120",
    ]) == 0
    return {part: f"{prefix}_{part}.csv" for part in ("train", "valid", "test")}


def test_value_reproduces_toy_scores(tmp_path):
    train = Dataset([[-1.0], [0.0], [1.0]], [0, 0, 1], ("x1",), [0, 1, 2])
    test = Dataset([[0.25]], [0], ("x1",), [0])
    save_csv(train, tmp_path / "train.csv", "label")
    save_csv(test, tmp_path / "test.csv", "label")
    out = tmp_path / "scores.csv"
    code = main([
        "value", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
        "--k", "1", "--no-standardize", "--out", str(out),
    ])
    assert code == 0
    scores = load_scores_csv(out)
    expected = toy_1nn_shapleys(0.0, 0.25, 0)
    by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
    assert by_id[0] == pytest.approx(expected[0], abs=1e-12)
    assert by_id[1] == pytest.approx(expected[1], abs=1e-12)
    assert by_id[2] == pytest.approx(expected[2], abs=1e-12)


def test_value_rejects_nonpositive_k(tmp_path, capsys, blob_files):
    out = tmp_path / "scores.csv"
    code = main([
        "value", "--train", blob_files["train"], "--test", blob_files["test"],
        "--k", "0", "--out", str(out),
    ])
    assert code == 2
    assert "K must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_value_rerun_byte_identical(tmp_path, blob_files):
    args = ["value", "--train", blob_files["train"], "--test", blob_files["test"],
            "--k", "5", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(a)]) == 0
    first = a.read_bytes()
    assert main(args + [str(a)]) == 0
    assert a.read_bytes() == first
    # different out path: identical from the csv header on (the invocation
    # comment legitimately embeds the path)
    assert main(args + [str(b)]) == 0
    strip = lambda p: p.read_bytes().split(b"\n", 1)[1]
    assert strip(a) == strip(b)


def test_missing_generator_fails_fast(tmp_path, blob_files, capsys):
    scores_path = tmp_path / "scores.csv"
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--k", "5", "--out", str(scores_path)]) == 0
    out = tmp_path / "aug.csv"
    code = main(["augment", "--train", blob_files["train"], "--scores", str(scores_path),
                 "--tau", "0.1", "--amount", "1.0", "--out", str(out)])
    assert code == 2
    assert "--generator" in capsys.readouterr().err
    assert not out.exists()


def test_generator_from_config_satisfies_the_required_flag(tmp_path, blob_files):
    scores_path = tmp_path / "scores.csv"
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--out", str(scores_path)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("generator=smote\n", encoding="utf-8")
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    common = ["augment", "--train", blob_files["train"], "--scores", str(scores_path),
              "--tau", "0.1", "--amount", "1", "--k", "1"]
    assert main([*common, "--generator", "smote", "--out", str(by_flag)]) == 0
    assert main([*common, "--config", str(cfg), "--out", str(by_config)]) == 0
    body = lambda path: path.read_bytes().split(b"\n", 1)[1]
    assert body(by_flag) == body(by_config)


def test_matched_budget_row_counts(tmp_path, blob_files):
    scores_path = tmp_path / "scores.csv"
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--k", "5", "--out", str(scores_path)]) == 0
    targeted, full = tmp_path / "targeted.csv", tmp_path / "full.csv"
    # k=1: the 12-row hard subset may hold very few minority rows
    base = ["augment", "--train", blob_files["train"], "--scores", str(scores_path),
            "--generator", "smote", "--k", "1", "--seed", "1"]
    assert main(base + ["--tau", "0.05", "--amount", "1.0", "--out", str(targeted)]) == 0
    assert main(base + ["--tau", "1.0", "--amount", "0.05", "--out", str(full)]) == 0
    assert load_csv(targeted, "label").n == load_csv(full, "label").n == 240 + 12


def test_rank_orders_ids(tmp_path, blob_files):
    scores_path = tmp_path / "scores.csv"
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--k", "5", "--out", str(scores_path)]) == 0
    out = tmp_path / "ranking.csv"
    assert main(["rank", "--scores", str(scores_path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    ranks = [int(r[0]) for r in rows]
    values = [float(r[2]) for r in rows]
    assert ranks == list(range(len(rows)))
    assert values == sorted(values)


def test_dataiq_and_eval_roundtrip(tmp_path, blob_files, capsys):
    tags = tmp_path / "tags.csv"
    probs = tmp_path / "probs.csv"
    assert main(["dataiq", "--train", blob_files["train"], "--checkpoints", "4",
                 "--k", "3", "--seed", "5", "--thresholds", "0.25,0.75,0.2",
                 "--out", str(tags), "--probs-out", str(probs)]) == 0
    lines = [l for l in tags.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "id,confidence,aleatoric,tag"
    assert len(lines) == 241
    # feed the confidence column through eval as mock probabilities
    conf = tmp_path / "conf.csv"
    body = ["id,prob"] + [f"{r.split(',')[0]},{r.split(',')[1]}" for r in lines[1:]]
    conf.write_text("\n".join(body) + "\n", encoding="utf-8")
    assert main(["eval", "--probs", str(conf), "--labels", blob_files["train"]]) == 0
    printed = capsys.readouterr().out
    assert "auc_roc=" in printed and "gini=" in printed


def test_eval_rejects_labels_other_than_0_and_1(tmp_path, capsys):
    probs, labels = tmp_path / "probs.csv", tmp_path / "labels.csv"
    probs.write_text("id,prob\n0,0.1\n1,0.9\n2,0.4\n3,0.6\n", encoding="utf-8")
    labels.write_text("id,label\n0,0\n1,2\n2,0.7\n3,1\n", encoding="utf-8")
    assert main(["eval", "--probs", str(probs), "--labels", str(labels)]) == 1
    captured = capsys.readouterr()
    assert "invalid label '2' at row 2" in captured.err
    assert "gini=" not in captured.out


@pytest.mark.parametrize("probs_rows, labels_rows", [
    # each order of the two id-0 probabilities gave its own AUC
    (["0,0.2", "0,0.9", "1,0.5", "2,0.1"], ["0,0", "0,1", "1,1", "2,0"]),
    (["0,0.9", "0,0.2", "1,0.5", "2,0.1"], ["0,0", "0,1", "1,1", "2,0"]),
    (["0,0.2", "1,0.5", "2,0.1"], ["0,0", "1,1", "2,0", "2,1"]),
])
def test_eval_refuses_repeated_ids(tmp_path, capsys, probs_rows, labels_rows):
    probs, labels, out = tmp_path / "probs.csv", tmp_path / "labels.csv", tmp_path / "out.csv"
    probs.write_text("\n".join(["id,prob", *probs_rows, ""]), encoding="utf-8")
    labels.write_text("\n".join(["id,label", *labels_rows, ""]), encoding="utf-8")
    assert main(["eval", "--probs", str(probs), "--labels", str(labels), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: eval: ids must be unique in ")
    assert captured.out == "" and not out.exists()


def test_eval_refuses_a_nan_probability(tmp_path, capsys):
    probs, labels, out = tmp_path / "probs.csv", tmp_path / "labels.csv", tmp_path / "out.csv"
    probs.write_text("id,prob\n0,0.1\n1,nan\n2,0.4\n3,0.6\n", encoding="utf-8")
    labels.write_text("id,label\n0,0\n1,1\n2,0\n3,1\n", encoding="utf-8")
    assert main(["eval", "--probs", str(probs), "--labels", str(labels), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: eval: probs must not be NaN\n"
    assert captured.out == "" and not out.exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles the import time and its memory
    package_root = str(Path(hardshap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    code = "import sys, hardshap.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_commands_without_distances_leave_scipy_spatial_unloaded(tmp_path):
    # scipy.spatial costs about 0.4 s and 65 MB to import; only distances need it.
    # subprocess is only for external generators.
    package_root = str(Path(hardshap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score,rank,method\n0,0.5,1,knn_shapley\n1,-0.5,0,knn_shapley\n",
                      encoding="utf-8")
    code = (
        "import sys, hardshap.cli\n"
        "print('scipy.spatial' in sys.modules, 'subprocess' in sys.modules)\n"
        "assert hardshap.cli.main(['rank', '--scores', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print('scipy.spatial' in sys.modules, 'subprocess' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(scores), str(tmp_path / "rank.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False False\nFalse False\n"), proc.stderr
    assert (tmp_path / "rank.csv").exists()


def test_perturb_bench_grid(tmp_path, blob_files):
    out = tmp_path / "bench.csv"
    assert main(["perturb-bench", "--train", blob_files["train"],
                 "--kinds", "mislabeling", "--proportions", "0.1,0.2",
                 "--characterizers", "knn_shapley,random", "--runs", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "kind,proportion,characterizer,run,auprc"
    assert len(rows) - 1 == 1 * 2 * 2 * 2
    mean_rows = [l for l in (tmp_path / "bench.csv.mean.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
    assert mean_rows[0] == "kind,proportion,characterizer,mean_auprc"
    assert len(mean_rows) - 1 == 1 * 2 * 2


def test_removal_curve_cli(tmp_path, blob_files):
    scores_path = tmp_path / "scores.csv"
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--k", "5", "--out", str(scores_path)]) == 0
    out = tmp_path / "curve.csv"
    assert main(["removal-curve", "--train", blob_files["train"],
                 "--valid", blob_files["valid"], "--scores", str(scores_path),
                 "--fractions", "0,0.1", "--strategies", "hardest,random",
                 "--downstream-k", "9", "--seed", "2", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "strategy,fraction,gini"
    assert len(rows) - 1 == 4


def test_failed_removal_curve_writes_no_file(tmp_path, blob_files, capsys):
    scores_path = tmp_path / "scores.csv"
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--k", "5", "--out", str(scores_path)]) == 0
    out = tmp_path / "curve.csv"
    # 5% of the 240 rows are 12, fewer than the 15 neighbours of the vote
    assert main(["removal-curve", "--train", blob_files["train"],
                 "--valid", blob_files["valid"], "--scores", str(scores_path),
                 "--fractions", "0,0.95", "--strategies", "random,hardest",
                 "--out", str(out)]) == 1
    assert "K=15 out of range for 12 training rows" in capsys.readouterr().err
    assert not out.exists()


def test_eval_pipeline_with_baseline(tmp_path, blob_files):
    out = tmp_path / "report.csv"
    assert main(["eval-pipeline", "--train", blob_files["train"],
                 "--valid", blob_files["valid"], "--test", blob_files["test"],
                 "--tau", "0.2", "--amount", "1.0", "--generator", "smote",
                 "--gen-k", "2", "--replicates", "3", "--seed", "8",
                 "--with-baseline", "--out", str(out)]) == 0
    for path in (out, tmp_path / "report.csv.baseline.csv"):
        rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == "replicate,gini"
        assert len(rows) == 1 + 3 + 3  # replicates + mean/ci_low/ci_high


@pytest.mark.parametrize("replicates", [2, 5])
def test_eval_pipeline_builds_the_valid_train_neighbourhood_once(
    tmp_path, monkeypatch, replicates
):
    # 300 valid rows span two QUERY_CHUNK blocks
    n_train, n_valid = 200, 300
    prefix = str(tmp_path / "blob")
    assert main(["sim-blobs", "--seed", "4", "--out-prefix", prefix, "--n-train", str(n_train),
                 "--n-valid", str(n_valid), "--n-test", "100"]) == 0
    reference_rows, nearest_rows = [], []
    real_cdist, real_k_nearest = evaluation.cdist, evaluation.k_nearest

    def counting_cdist(XA, XB, *args, **kwargs):
        reference_rows.append(len(XB))
        return real_cdist(XA, XB, *args, **kwargs)

    def counting_k_nearest(train_features, *args, **kwargs):
        nearest_rows.append(len(train_features))
        return real_k_nearest(train_features, *args, **kwargs)

    monkeypatch.setattr(evaluation, "cdist", counting_cdist)
    monkeypatch.setattr(evaluation, "k_nearest", counting_k_nearest)
    assert main(["eval-pipeline", "--train", f"{prefix}_train.csv",
                 "--valid", f"{prefix}_valid.csv", "--test", f"{prefix}_test.csv",
                 "--tau", "0.1", "--amount", "1.0", "--generator", "smote", "--gen-k", "2",
                 "--replicates", str(replicates), "--seed", "8", "--with-baseline",
                 "--out", str(tmp_path / "report.csv")]) == 0
    blocks = math.ceil(n_valid / QUERY_CHUNK)
    # One query builds the cache; a refit per replicate would query all n_train + m rows.
    assert nearest_rows == [n_train]
    # Two arms, each replicate computing only its 20 synthetic rows' distances.
    assert sorted(reference_rows) == [20] * (2 * replicates * blocks)


def test_smote_searches_neighbours_only_for_the_rows_it_draws(tmp_path, monkeypatch):
    prefix = str(tmp_path / "blob")
    assert main(["sim-blobs", "--seed", "4", "--out-prefix", prefix, "--n-train", "200",
                 "--n-valid", "50", "--n-test", "50"]) == 0
    calls = []  # per smote_generate call: its arguments and its query blocks
    real_smote, real_cdist = augment.smote_generate, neighbors.cdist

    def recording_smote(source, m, k_neighbors=5, seed=0):
        calls.append(((source, m, k_neighbors, seed), []))
        return real_smote(source, m, k_neighbors, seed)

    def counting_cdist(XA, XB, *args, **kwargs):
        if calls:
            calls[-1][1].append(len(XA))
        return real_cdist(XA, XB, *args, **kwargs)

    monkeypatch.setattr(augment, "smote_generate", recording_smote)
    monkeypatch.setattr(neighbors, "cdist", counting_cdist)
    assert main(["eval-pipeline", "--train", f"{prefix}_train.csv",
                 "--valid", f"{prefix}_valid.csv", "--test", f"{prefix}_test.csv",
                 "--tau", "0.1", "--amount", "1.0", "--generator", "smote", "--gen-k", "2",
                 "--replicates", "3", "--seed", "8", "--with-baseline",
                 "--out", str(tmp_path / "report.csv")]) == 0
    assert len(calls) == 2 * 3
    # both arms spend one budget: ceil(0.1 * 200) rows, once per replicate
    assert [m for (_, m, _, _), _ in calls] == [20] * 6
    sources = set()
    for (source, m, k_neighbors, seed), blocks in calls:
        sources.add(source.n)
        # replay the generator's draws: the distinct rows picked per class
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        distinct = []
        for cls, quota in sorted(augment._class_allocation(source.labels, m).items()):
            if quota:
                picks = rng.integers(0, int((source.labels == cls).sum()), size=quota)
                rng.integers(0, k_neighbors, size=quota)
                rng.uniform(size=quota)
                distinct.append(np.unique(picks).shape[0])
        assert blocks == distinct
    # the hard subset and the whole train set; the full class graph would
    # query every row of each class
    assert sources == {20, 200}


def test_eval_pipeline_refuses_a_zero_count_before_scoring(tmp_path, monkeypatch, capsys):
    prefix = str(tmp_path / "blob")
    assert main(["sim-blobs", "--out-prefix", prefix, "--n-train", "300", "--n-valid", "50",
                 "--n-test", "50"]) == 0
    written = set(tmp_path.iterdir())

    def no_scoring(*args, **kwargs):
        raise AssertionError("knn_shapley ran")

    monkeypatch.setattr(valuation, "knn_shapley", no_scoring)
    assert main(["eval-pipeline", "--train", f"{prefix}_train.csv",
                 "--valid", f"{prefix}_valid.csv", "--test", f"{prefix}_test.csv",
                 "--tau", "0.01", "--amount", "0.1", "--generator", "smote", "--with-baseline",
                 "--out", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: eval-pipeline: amount 0.1 of 3 hard rows rounds to zero synthetic rows\n")
    assert set(tmp_path.iterdir()) == written


def test_eval_pipeline_rejects_the_external_generator(tmp_path, capsys, blob_files, stub_command):
    code = main(["eval-pipeline", "--train", blob_files["train"], "--valid", blob_files["valid"],
                 "--test", blob_files["test"], "--tau", "0.25", "--amount", "1.0",
                 "--generator", "external", "--exec-cmd", shlex.join(stub_command("log")),
                 "--with-baseline", "--threads", "2", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "invalid choice: 'external'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stub_generator.py"]


def test_sim_toy_prints_expected_value(capsys):
    assert main(["sim-toy", "--x-train", "0"]) == 0
    printed = capsys.readouterr().out
    value = float(next(l for l in printed.splitlines()
                       if l.startswith("expected_shapley=")).split("=")[1])
    assert value == pytest.approx(0.209, abs=2e-3)
    assert len([l for l in printed.splitlines() if "," in l]) >= 8


def test_config_file_with_flag_override(tmp_path, blob_files):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"train={blob_files['train']}\ntest={blob_files['test']}\nk=3\n"
        f"out={tmp_path / 'from_config.csv'}\n",
        encoding="utf-8",
    )
    assert main(["value", "--config", str(cfg)]) == 0
    assert load_scores_csv(tmp_path / "from_config.csv").params["k"] == 3
    override = tmp_path / "override.csv"
    assert main(["value", "--config", str(cfg), "--k", "7", "--out", str(override)]) == 0
    assert load_scores_csv(override).params["k"] == 7


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n", encoding="utf-8")
    assert main(["rank", "--scores", "x.csv", "--out", "y.csv", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--thr", "2"], "unrecognized arguments: --thr 2"),
    (["--thr=2"], "unrecognized arguments: --thr=2"),
    (["--conf", "run.cfg"], "unrecognized arguments: --conf run.cfg"),
    (["--config"], "argument --config: expected one argument"),
])
def test_flags_must_be_spelled_in_full(tmp_path, monkeypatch, capsys, flags, message):
    # a prefix passed the parser but not the exact-name walks: --thr was
    # logged in the output header and --conf never read its file. Leftover
    # tokens are the subcommand's error, so its usage line is printed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("k=7\n", encoding="utf-8")
    for command, required in _REQUIRED.items():
        assert main([command, *required, "out.csv", *flags]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"usage: hardshap {command} "), err
        errors = [l for l in err.splitlines() if "error" in l]
        assert errors == [f"hardshap {command}: error: {message}"], err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_unknown_flag_before_the_subcommand_is_the_top_parser_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, stray in [
        (["--bogus", "rank", "--scores", "in.csv", "--out", "out.csv"], "--bogus"),
        # a flag value before the subcommand is not taken for the subcommand
        (["--thr", "2", "value", "--train", "t.csv", "--test", "t.csv", "--out", "out.csv"],
         "--thr 2"),
        # nor is the stray flag lost behind the subcommand's missing arguments
        (["--bogus", "rank"], "--bogus"),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hardshap [-h]")
        assert err.splitlines()[-1] == f"hardshap: error: unrecognized arguments: {stray}", err
        assert list(tmp_path.iterdir()) == []


def test_help_before_the_subcommand_still_prints_the_top_help(capsys):
    assert main(["-h", "rank"]) == 0
    assert capsys.readouterr().out.startswith("usage: hardshap [-h]")


def test_thread_count_spellings_write_the_same_bytes(tmp_path, monkeypatch, blob_files):
    # the header logs the argv, so both runs write the same relative --out
    common = ["value", "--train", blob_files["train"], "--test", blob_files["test"],
              "--out", "scores.csv"]
    for name, threads in (("one", ["--threads", "1"]), ("eight", ["--threads=8"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([*common, *threads]) == 0
    for name in ("scores.csv", "scores.csv.meta"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "eight" / name).read_bytes()


@pytest.mark.parametrize("command, line, bad", [
    ("value", "method=bogus", "'bogus'"),
    ("value", "k=abc", "'abc'"),
    ("augment", "generator=bogus", "'bogus'"),
])
def test_bad_config_value_is_rejected_as_the_flag_would_be(tmp_path, capsys, command, line, bad):
    train = tmp_path / "train.csv"
    save_csv(Dataset([[-1.0], [0.0], [1.0]], [0, 0, 1], ("x1",), [0, 1, 2]), train, "label")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    rest = {
        "value": ["--test", str(train)],
        "augment": ["--scores", str(tmp_path / "scores.csv"), "--tau", "0.5", "--amount", "1"],
    }[command]
    argv = [command, "--train", str(train), *rest, "--out", str(out), "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if "error" in l]
    assert len(errors) == 1 and bad in errors[0], err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_values_write_the_bytes_of_their_flags(tmp_path, blob_files):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_standardize=yes\nseed=4\n", encoding="utf-8")
    common = ["value", "--train", blob_files["train"], "--test", blob_files["test"]]
    by_flags, by_config = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert main([*common, "--no-standardize", "--seed", "4", "--out", str(by_flags)]) == 0
    assert main([*common, "--config", str(cfg), "--out", str(by_config)]) == 0

    def body(path):
        # the first line logs the argv, which differs; keep its logged values
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        return header.rsplit(" | ", 1)[1], rest

    assert body(by_flags) == body(by_config)
    assert body(by_flags)[0] == "k=5 seed=4 standardize=False"
    assert (tmp_path / "flags.csv.meta").read_bytes() == (tmp_path / "config.csv.meta").read_bytes()


_REQUIRED = {
    "value": ["--train", "in.csv", "--test", "in.csv", "--out"],
    "rank": ["--scores", "in.csv", "--out"],
    "eval": ["--probs", "in.csv", "--labels", "in.csv", "--out"],
    "augment": ["--train", "in.csv", "--scores", "in.csv", "--tau", "0.5", "--amount", "1",
                "--generator", "smote", "--out"],
    "eval-pipeline": ["--train", "in.csv", "--valid", "in.csv", "--test", "in.csv",
                      "--tau", "0.5", "--amount", "1", "--generator", "smote", "--out"],
    "perturb-bench": ["--train", "in.csv", "--out"],
    "dataiq": ["--train", "in.csv", "--probs-out", "probs.csv", "--out"],
    "removal-curve": ["--train", "in.csv", "--valid", "in.csv", "--scores", "in.csv", "--out"],
    "sim-toy": ["--out"],
    "sim-blobs": ["--out-prefix"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("value", "--k", "0"),
    ("augment", "--k", "0"),
    ("perturb-bench", "--k", "0"),
    ("dataiq", "--k", "0"),
    ("eval-pipeline", "--k", "0"),
    ("eval-pipeline", "--gen-k", "0"),
    ("eval-pipeline", "--downstream-k", "0"),
    ("removal-curve", "--downstream-k", "0"),
    ("eval-pipeline", "--replicates", "1"),
    ("perturb-bench", "--checkpoints", "1"),
    ("dataiq", "--checkpoints", "1"),
    ("perturb-bench", "--runs", "0"),
    ("value", "--permutations", "-1"),
    ("sim-blobs", "--n-train", "0"),
    ("sim-blobs", "--n-valid", "0"),
    ("sim-blobs", "--n-test", "0"),
    ("sim-blobs", "--seed", "-4"),
    ("value", "--seed", "-4"),
    ("rank", "--threads", "0"),
    ("augment", "--tau", "0"),
    ("eval-pipeline", "--tau", "1.5"),
    ("augment", "--amount", "nan"),
    ("augment", "--amount", "inf"),
    ("eval-pipeline", "--amount", "nan"),
    ("eval-pipeline", "--amount", "inf"),
    ("eval-pipeline", "--amount", "0"),
    ("value", "--truncation-tol", "-1"),
    ("value", "--truncation-tol", "nan"),
    ("sim-blobs", "--cov-scale", "nan"),
    ("sim-blobs", "--cov-scale", "-1"),
    ("sim-toy", "--x-train", "nan"),
    ("sim-toy", "--grid", "0,8,0"),
    ("sim-toy", "--grid", "0,8"),
    ("perturb-bench", "--proportions", "0.1,1"),
    ("perturb-bench", "--proportions", ""),
    ("perturb-bench", "--kinds", ""),
    ("perturb-bench", "--kinds", "mislabeling,bogus"),
    ("perturb-bench", "--characterizers", ""),
    ("dataiq", "--thresholds", "0.8,0.2,0.1"),
    ("dataiq", "--thresholds", "0.2,0.7,nan"),
    ("dataiq", "--thresholds", "0.2,0.7"),
    ("removal-curve", "--fractions", "0,0.5,0.2"),
    ("removal-curve", "--fractions", "0,1"),
    ("removal-curve", "--fractions", ""),
    ("removal-curve", "--strategies", ""),
    ("removal-curve", "--strategies", "easiest"),
    ("perturb-bench", "--kinds", "mislabeling,mislabeling"),
    ("perturb-bench", "--proportions", "0.1,0.2,0.1"),
    ("perturb-bench", "--characterizers", "random,random"),
    ("removal-curve", "--strategies", "hardest,hardest"),
    ("removal-curve", "--fractions", "0,0,0.1"),
])
def test_numeric_flag_out_of_range_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                      command, flag, value):
    monkeypatch.chdir(tmp_path)
    assert main([command, *_REQUIRED[command], "out", flag, value]) == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if "error" in l]
    assert len(errors) == 1 and f"argument {flag}: " in errors[0], err
    assert "must be" in errors[0], err
    assert list(tmp_path.iterdir()) == []


def test_every_flag_value_is_checked_by_the_parser():
    # a bare int/float type or an unchecked comma list would leave a bad
    # value to fail, or pass silently, inside a command
    _, sub = cli._build_parser()
    unchecked = [
        f"{command} {action.option_strings[0]}"
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type in (int, float)
        or (action.type is None and isinstance(action.default, str) and "," in action.default)
    ]
    assert unchecked == []


@pytest.mark.parametrize("argv, dest, constant", [
    (["dataiq", "--train", "train.csv", "--out", "tags.csv"], "thresholds",
     dataiq.DEFAULT_THRESHOLDS),
    (["sim-toy"], "grid", sim.TOY_GRID),
])
def test_comma_list_defaults_parse_back_to_their_constants(argv, dest, constant):
    parser, _ = cli._build_parser()
    assert getattr(parser.parse_args(argv), dest) == constant


def test_every_parser_takes_only_full_flag_names():
    parser, sub = cli._build_parser()
    assert [name for name, p in {"hardshap": parser, **sub.choices}.items() if p.allow_abbrev] == []


@pytest.mark.parametrize("config, message", [
    (None, "config file not found: run.cfg"),
    ("k 7\n", "run.cfg:1: expected key=value"),
    ("frobnicate=1\n", "unknown config key 'frobnicate' for augment"),
    ("generator=external\n", "argument --generator: external needs --exec-cmd"),
    ("generator=smote\nexec_cmd=gen {in} {out}\n",
     "argument --generator: smote does not take --exec-cmd"),
])
def test_usage_errors_print_the_parser_usage(tmp_path, monkeypatch, capsys, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert main(["augment", *_REQUIRED["augment"][:-3], "--out", "out.csv",
                 "--config", "run.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hardshap augment")
    assert err.splitlines()[-1] == f"hardshap augment: error: {message}", err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("exec_flags", [
    ["--exec-cmd", "gen {in} {out}"],
    ["--exec-cmd=gen"],
    ["--exec-cmd", "gen 'a b' {in} {out}", "--exec-cmd", "gen {in} {out}"],
])
def test_augment_exec_paths_need_the_external_generator(tmp_path, monkeypatch, capsys, blob_files,
                                                       exec_flags):
    # smote runs no command, so taking one would hide a mistyped --generator
    monkeypatch.chdir(tmp_path)
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--out", "scores.csv"]) == 0
    before = sorted(tmp_path.iterdir())
    assert main(["augment", "--train", blob_files["train"], "--scores", "scores.csv",
                 "--tau", "0.5", "--amount", "1", "--generator", "smote", "--out", "aug.csv",
                 *exec_flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hardshap augment ")
    assert err.splitlines()[-1] == (
        "hardshap augment: error: argument --generator: smote does not take --exec-cmd"), err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, flags, config, message", [
    ("value", ["--permutations", "20"], None,
     "argument --method: knn_shapley does not take --permutations"),
    ("value", ["--method", "exact_shapley", "--truncation-tol=0"], None,
     "argument --method: exact_shapley does not take --truncation-tol"),
    ("value", ["--truncation-tol", "0"], "permutations=20\n",
     "argument --method: knn_shapley does not take --permutations, --truncation-tol"),
    ("eval-pipeline", ["--baseline-out", "base.csv"], None,
     "argument --baseline-out: not allowed without --with-baseline"),
    ("eval-pipeline", [], "with_baseline=no\nbaseline_out=base.csv\n",
     "argument --baseline-out: not allowed without --with-baseline"),
    ("perturb-bench", ["--characterizers", "knn_shapley,random", "--checkpoints", "4"], None,
     "argument --characterizers: knn_shapley,random does not take --checkpoints, "
     "which only configures dataiq"),
    ("perturb-bench", ["--characterizers=random"], "checkpoints=4\n",
     "argument --characterizers: random does not take --checkpoints, "
     "which only configures dataiq"),
    ("augment", ["--generator", "external", "--exec-cmd", "gen {in} {out}", "--k", "9"], None,
     "argument --generator: external does not take --k, which only configures smote"),
    ("augment", ["--generator=external", "--exec-cmd=gen {in} {out}"], "k=9\n",
     "argument --generator: external does not take --k, which only configures smote"),
    ("perturb-bench", ["--characterizers", "random", "--k", "9"], None,
     "argument --characterizers: random does not take --k, "
     "which only configures knn_shapley,dataiq"),
    ("perturb-bench", ["--characterizers=random"], "k=9\n",
     "argument --characterizers: random does not take --k, "
     "which only configures knn_shapley,dataiq"),
], ids=["value-flag", "value-method", "value-config", "eval-pipeline-flag",
        "eval-pipeline-config", "perturb-bench-flag", "perturb-bench-config",
        "augment-k-flag", "augment-k-config", "perturb-bench-k-flag", "perturb-bench-k-config"])
def test_flags_of_a_mode_that_is_not_selected_are_refused(tmp_path, monkeypatch, capsys,
                                                          command, flags, config, message):
    # they would be ignored, yet logged in the output header
    _assert_flag_rule_refuses(tmp_path, monkeypatch, capsys, command, flags, config, message)


def _assert_flag_rule_refuses(tmp_path, monkeypatch, capsys, command, flags, config, message):
    """``command --out out.csv`` plus ``flags`` and ``config`` lines exits 2, writing nothing."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        flags = [*flags, "--config", "run.cfg"]
    before = sorted(tmp_path.iterdir())
    assert main([command, *_REQUIRED[command], "out.csv", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hardshap {command} ")
    assert err.splitlines()[-1] == f"hardshap {command}: error: {message}", err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, flags, config, message", [
    ("eval-pipeline", ["--with-baseline", "--baseline-out", "./out.csv"], None,
     "argument --baseline-out: names the same file as --out"),
    ("augment", ["--scores", "out.csv"], None,
     "argument --out: names the same file as --scores"),
    ("dataiq", ["--probs-out", "out.csv"], None,
     "argument --probs-out: names the same file as --out"),
    ("perturb-bench", ["--mean-out", "sub/../out.csv"], None,
     "argument --mean-out: names the same file as --out"),
    ("eval-pipeline", [], "with_baseline=yes\nbaseline_out=out.csv\n",
     "argument --baseline-out: names the same file as --out"),
    ("value", ["--test", "out.csv"], None, "argument --out: names the same file as --test"),
    ("rank", ["--scores", "./out.csv"], None, "argument --out: names the same file as --scores"),
    ("eval", ["--labels", "out.csv"], None, "argument --out: names the same file as --labels"),
    ("eval-pipeline", ["--valid", "out.csv"], None,
     "argument --out: names the same file as --valid"),
    ("perturb-bench", ["--train", "out.csv"], None,
     "argument --out: names the same file as --train"),
    ("dataiq", ["--train", "probs.csv"], None,
     "argument --probs-out: names the same file as --train"),
    ("removal-curve", ["--valid", "out.csv"], None,
     "argument --out: names the same file as --valid"),
    ("sim-toy", ["--out", "run.cfg"], "x_train=1\n",
     "argument --out: names the same file as --config"),
    ("perturb-bench", ["--train", "out.csv.mean.csv"], None,
     "argument --mean-out (default out.csv.mean.csv): names the same file as --train"),
    ("eval-pipeline", ["--with-baseline", "--test", "out.csv.baseline.csv"], None,
     "argument --baseline-out (default out.csv.baseline.csv): names the same file as --test"),
    ("eval-pipeline", ["--valid", "out.csv.baseline.csv"], "with_baseline=yes\n",
     "argument --baseline-out (default out.csv.baseline.csv): names the same file as --valid"),
    ("value", ["--train", "out.csv.meta"], None,
     "argument --out (sidecar out.csv.meta): names the same file as --train"),
    ("rank", ["--scores", "s.csv", "--out", "s.csv.meta"], None,
     "argument --out: names the same file as --scores (sidecar s.csv.meta)"),
    ("augment", ["--scores", "s.csv", "--out", "./s.csv.meta"], None,
     "argument --out: names the same file as --scores (sidecar s.csv.meta)"),
    ("removal-curve", ["--scores", "s.csv", "--out", "s.csv.meta"], None,
     "argument --out: names the same file as --scores (sidecar s.csv.meta)"),
], ids=["eval-pipeline", "augment", "dataiq", "perturb-bench", "eval-pipeline-config",
        "value-input", "rank-input", "eval-input", "eval-pipeline-input", "perturb-bench-input",
        "dataiq-input", "removal-curve-input", "sim-toy-config", "perturb-bench-default",
        "eval-pipeline-default", "eval-pipeline-default-config", "value-sidecar",
        "rank-sidecar", "augment-sidecar", "removal-curve-sidecar"])
def test_two_file_flags_naming_one_file_are_refused(tmp_path, monkeypatch, capsys,
                                                    command, flags, config, message):
    # the written file would replace an input before it is read, or another output
    _assert_flag_rule_refuses(tmp_path, monkeypatch, capsys, command, flags, config, message)


def _outside_the_same_file_rule(names_a_file) -> list[tuple[str, str]]:
    # a flag declared without file_flag is missing from its subparser's files
    _, sub = cli._build_parser()
    return [(command, action.option_strings[0])
            for command, p in sub.choices.items() for action in p._actions
            if names_a_file(action.dest)
            and (action.option_strings[0], "") not in (p.get_default("files") or ())]


def test_every_output_flag_is_under_the_same_file_rule():
    assert _outside_the_same_file_rule(lambda dest: dest.endswith("out")) == []


def test_every_input_flag_is_under_the_same_file_rule():
    inputs = {"train", "test", "valid", "scores", "probs", "labels", "probs_in"}
    assert _outside_the_same_file_rule(inputs.__contains__) == []


def _header_argv(path: Path) -> list[str]:
    line = path.read_text(encoding="utf-8").splitlines()[0]
    assert line.startswith("# hardshap ")
    return shlex.split(line[2:].partition(" | ")[0])


def test_header_with_a_spaced_path_splits_back_to_the_argv(tmp_path, monkeypatch, blob_files):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sp ace").mkdir()
    (tmp_path / "sp ace" / "tr.csv").write_bytes(Path(blob_files["train"]).read_bytes())
    argv = ["value", "--train", "sp ace/tr.csv", "--test", blob_files["test"], "--k", "3"]
    assert main([*argv, "--threads", "2", "--out", "it's.csv"]) == 0
    assert _header_argv(tmp_path / "it's.csv") == ["hardshap", *argv, "--out", "it's.csv"]


def test_header_with_an_exec_cmd_splits_back_to_the_argv(tmp_path, monkeypatch, blob_files,
                                                         stub_command):
    monkeypatch.chdir(tmp_path)
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--out", "scores.csv"]) == 0
    argv = ["augment", "--train", blob_files["train"], "--scores", "scores.csv", "--tau", "0.1",
            "--amount", "1", "--generator", "external",
            "--exec-cmd", shlex.join(stub_command("copy", "a b")), "--out", "aug.csv"]
    assert main([*argv, "--threads=2"]) == 0
    assert _header_argv(tmp_path / "aug.csv") == ["hardshap", *argv]


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["newline", "carriage-return"])
def test_a_token_holding_a_line_break_is_refused(tmp_path, monkeypatch, capsys, blob_files, brk):
    # the header logs argv on one comment line; a break would leave half of it uncommented
    monkeypatch.chdir(tmp_path)
    name = f"n{brk}l.csv"
    (tmp_path / name).write_bytes(Path(blob_files["train"]).read_bytes())
    assert main(["value", "--train", name, "--test", blob_files["test"], "--out", "s.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hardshap value ")
    assert err.endswith(f"hardshap value: error: argument {name!r}: "
                        "a line break would split the output header\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_augment_reads_the_amount_as_its_decimal(tmp_path, monkeypatch):
    # 45 hard rows at 0.7 per row: 31.5 as written, 31.499999999999996 as a float product
    monkeypatch.chdir(tmp_path)
    assert main(["sim-blobs", "--seed", "0", "--n-train", "450", "--n-valid", "10",
                 "--n-test", "60", "--out-prefix", "b"]) == 0
    assert main(["value", "--train", "b_train.csv", "--test", "b_test.csv", "--out", "s.csv"]) == 0
    assert main(["augment", "--train", "b_train.csv", "--scores", "s.csv", "--tau", "0.1",
                 "--amount", "0.7", "--generator", "smote", "--k", "1", "--out", "a.csv"]) == 0
    assert load_csv("a.csv", "label").n == 450 + 32


@pytest.mark.parametrize("characterizers, extra", [
    ("knn_shapley,random", []), ("dataiq", ["--checkpoints", "2"])])
def test_perturb_bench_takes_k_when_a_characterizer_reads_it(tmp_path, blob_files,
                                                             characterizers, extra):
    out = tmp_path / "bench.csv"
    assert main(["perturb-bench", "--train", blob_files["train"], "--kinds", "mislabeling",
                 "--proportions", "0.1", "--runs", "1", "--characterizers", characterizers,
                 "--k", "3", *extra, "--out", str(out)]) == 0
    assert " --k 3 " in out.read_text().splitlines()[0]


def test_baseline_out_is_taken_with_the_baseline_arm(tmp_path, blob_files):
    (tmp_path / "run.cfg").write_text("with_baseline=yes\n", encoding="utf-8")
    out, base = tmp_path / "report.csv", tmp_path / "base.csv"
    assert main(["eval-pipeline", "--train", blob_files["train"],
                 "--valid", blob_files["valid"], "--test", blob_files["test"],
                 "--tau", "0.2", "--amount", "1.0", "--generator", "smote",
                 "--replicates", "2", "--config", str(tmp_path / "run.cfg"),
                 "--baseline-out", str(base), "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.csv", "report.csv", "run.cfg"]


@pytest.mark.parametrize("command", ["rank", "augment", "removal-curve"])
def test_scores_file_with_repeated_ids_is_refused(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    save_csv(Dataset([[-1.0], [0.0], [1.0]], [0, 0, 1], ("x1",), [0, 1, 2]), "in.csv", "label")
    (tmp_path / "scores.csv").write_text(
        "id,score,rank,method\n0,0.1,0,tmc_shapley\n0,0.5,2,tmc_shapley\n"
        "1,0.3,1,tmc_shapley\n", encoding="utf-8")
    argv = {
        "rank": ["rank", "--scores", "scores.csv"],
        "augment": ["augment", "--train", "in.csv", "--scores", "scores.csv", "--tau", "0.5",
                    "--amount", "1", "--generator", "smote", "--k", "1"],
        "removal-curve": ["removal-curve", "--train", "in.csv", "--valid", "in.csv",
                          "--scores", "scores.csv"],
    }[command]
    assert main([*argv, "--out", "out.csv"]) == 1
    assert capsys.readouterr().err == f"error: {command}: ids must be unique\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("method, extra", [
    ("knn_shapley", []),
    ("exact_shapley", ["--no-standardize"]),
    ("tmc_shapley", ["--permutations", "20", "--truncation-tol", "0.001"]),
])
def test_value_params_read_back_typed(tmp_path, monkeypatch, method, extra):
    train = tmp_path / "train.csv"
    save_csv(Dataset([[-1.0], [0.0], [1.0], [2.0]], [0, 0, 1, 1], ("x1",), [0, 1, 2, 3]),
             train, "label")
    written = []
    save = valuation.save_scores_csv
    monkeypatch.setattr(valuation, "save_scores_csv",
                        lambda scores, *a, **kw: (written.append(scores), save(scores, *a, **kw)))
    out = tmp_path / "scores.csv"
    assert main(["value", "--train", str(train), "--test", str(train), "--k", "2",
                 "--method", method, "--seed", "3", "--out", str(out), *extra]) == 0
    params = load_scores_csv(out).params
    assert params == written[0].params
    assert {key: type(v) for key, v in params.items()} == {
        key: type(v) for key, v in written[0].params.items()}
    assert params["seed"] == 3


def test_runtime_error_exit_code(tmp_path, capsys):
    assert main(["rank", "--scores", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_help_for_every_subcommand(capsys):
    for command in ("value", "rank", "augment", "eval", "eval-pipeline", "perturb-bench",
                    "dataiq", "removal-curve", "sim-toy", "sim-blobs"):
        assert main([command, "--help"]) == 0
        assert "--" in capsys.readouterr().out


def test_value_method_variants_agree(tmp_path):
    train = Dataset([[-1.0], [0.0], [1.0]], [0, 0, 1], ("x1",), [0, 1, 2])
    test = Dataset([[0.25]], [0], ("x1",), [0])
    save_csv(train, tmp_path / "train.csv", "label")
    save_csv(test, tmp_path / "test.csv", "label")
    base = ["value", "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"), "--k", "1", "--no-standardize"]
    outs = {}
    for method in ("knn_shapley", "exact_shapley", "tmc_shapley"):
        out = tmp_path / f"{method}.csv"
        # truncation would skip the post-saturation negative marginals here
        extra = (["--permutations", "4000", "--seed", "3", "--truncation-tol", "0"]
                 if method == "tmc_shapley" else [])
        assert main(base + ["--method", method, "--out", str(out)] + extra) == 0
        outs[method] = load_scores_csv(out)
    exact = outs["exact_shapley"].scores
    assert outs["knn_shapley"].scores == pytest.approx(exact, abs=1e-12)
    assert outs["tmc_shapley"].scores == pytest.approx(exact, abs=0.05)


def test_dataiq_accepts_external_probability_matrix(tmp_path):
    probs = tmp_path / "external_probs.csv"
    probs.write_text(
        "id,p_1,p_2\n0,0.9,0.95\n1,0.1,0.2\n2,0.5,0.6\n", encoding="utf-8"
    )
    tags = tmp_path / "tags.csv"
    # --seed is logged by every seeded command, so it stays accepted
    assert main(["dataiq", "--probs-in", str(probs), "--seed", "3", "--out", str(tags)]) == 0
    rows = [l for l in tags.read_text().splitlines() if not l.startswith("#")][1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["Easy", "Hard", "Ambiguous"]


def test_dataiq_refuses_repeated_ids_in_a_probability_matrix(tmp_path, capsys):
    probs, tags = tmp_path / "probs.csv", tmp_path / "tags.csv"
    probs.write_text("id,p_1,p_2\n0,0.9,0.95\n0,0.1,0.2\n1,0.5,0.6\n", encoding="utf-8")
    assert main(["dataiq", "--probs-in", str(probs), "--out", str(tags)]) == 1
    assert capsys.readouterr().err == "error: dataiq: ids must be unique\n"
    assert not tags.exists()


@pytest.mark.parametrize("sources, message", [
    (["--train", "train.csv", "--probs-in", "probs.csv"],
     "argument --probs-in: not allowed with argument --train"),
    ([], "one of the arguments --train --probs-in is required"),
    # the --train bagging flags would be ignored next to --probs-in
    (["--probs-in", "probs.csv", "--k", "7"], "argument --probs-in: not allowed with --k,"),
    (["--probs-in", "probs.csv", "--checkpoints=3"], "not allowed with --checkpoints,"),
    (["--probs-in", "probs.csv", "--label", "y"], "not allowed with --label,"),
    (["--probs-in", "probs.csv", "--no-standardize", "--k", "5"],
     "not allowed with --k, --no-standardize,"),
    (["--probs-in", "probs.csv", "--config", "bagging.cfg"],
     "not allowed with --checkpoints, --no-standardize,"),
])
def test_dataiq_takes_exactly_one_probability_source(tmp_path, capsys, sources, message):
    (tmp_path / "train.csv").write_text("id,x,label\n0,0.0,0\n1,1.0,1\n", encoding="utf-8")
    (tmp_path / "probs.csv").write_text("id,p_1,p_2\n0,0.9,0.95\n1,0.1,0.2\n", encoding="utf-8")
    (tmp_path / "bagging.cfg").write_text("checkpoints=4\nno_standardize=yes\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    argv = ["dataiq", *(str(tmp_path / a) if a.endswith((".csv", ".cfg")) else a for a in sources),
            "--probs-out", str(tmp_path / "out_probs.csv"), "--out", str(tmp_path / "tags.csv")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_augment_external_generator_handshake(tmp_path, monkeypatch, blob_files, stub_command,
                                              private_tempdir):
    monkeypatch.chdir(tmp_path)
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--k", "5", "--out", "scores.csv"]) == 0
    train = load_csv(blob_files["train"], "label")
    scores = load_scores_csv(tmp_path / "scores.csv")
    hard = valuation.hardest_subset(train, scores, 0.25)
    for seed in (3, 4):
        assert main(["augment", "--train", blob_files["train"], "--scores", "scores.csv",
                     "--tau", "0.25", "--amount", "0.5", "--generator", "external",
                     "--exec-cmd", shlex.join(stub_command("log")), "--seed", str(seed),
                     "--out", f"aug{seed}.csv"]) == 0
        _, src, out, m, got_seed = json.loads((tmp_path / "argv.json").read_text())
        assert (Path(src).parent.parent, Path(out).parent) == (private_tempdir, Path(src).parent)
        assert (m, got_seed) == ("30", str(seed))
        augmented = load_csv(tmp_path / f"aug{seed}.csv", "label")
        assert augmented.n == 240 + 30
        assert np.array_equal(augmented.features[240:], hard.features[:30] + seed)
        assert np.array_equal(augmented.labels[240:], hard.labels[:30])
    assert list(private_tempdir.iterdir()) == []


def test_augment_exec_cmd_from_a_config_line(tmp_path, monkeypatch, blob_files, stub_command):
    monkeypatch.chdir(tmp_path)
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--out", "scores.csv"]) == 0
    (tmp_path / "run.cfg").write_text(
        f"generator=external\nexec_cmd={shlex.join(stub_command('log'))}\nseed=7\n",
        encoding="utf-8")
    assert main(["augment", "--train", blob_files["train"], "--scores", "scores.csv",
                 "--tau", "0.1", "--amount", "1", "--config", "run.cfg", "--out", "aug.csv"]) == 0
    assert json.loads((tmp_path / "argv.json").read_text())[3:] == ["24", "7"]
    assert load_csv(tmp_path / "aug.csv", "label").n == 240 + 24


def test_augment_exec_cmd_runs_without_a_shell(tmp_path, monkeypatch, blob_files, stub_command):
    # ";" starts no second command, "$(...)" substitutes nothing and "*" globs nothing
    monkeypatch.chdir(tmp_path)
    assert main(["value", "--train", blob_files["train"], "--test", blob_files["test"],
                 "--out", "scores.csv"]) == 0
    extra = [";", "touch", "semicolon", "$(touch substituted)", "*"]
    assert main(["augment", "--train", blob_files["train"], "--scores", "scores.csv",
                 "--tau", "0.1", "--amount", "1", "--generator", "external",
                 "--exec-cmd", shlex.join(stub_command("log", *extra)), "--out", "aug.csv"]) == 0
    assert json.loads((tmp_path / "argv.json").read_text())[5:] == extra
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "argv.json", "aug.csv", "scores.csv", "scores.csv.meta", "stub_generator.py"]


@pytest.mark.parametrize("mode, message", [
    ("fail", "exited with code 3: stub refuses to generate"),
    ("none", "wrote no {out} file"),
    ("short", "external generator produced 9 rows, need 10"),
    ("wide", "external rows have 3 features, not 2"),
    ("foreign", "external rows use labels absent from the source subset"),
])
def test_augment_external_failures_exit_1_and_write_nothing(tmp_path, monkeypatch, capsys,
                                                            stub_command, private_tempdir,
                                                            mode, message):
    # every training row has label 0, so the foreign stub's label 1 is absent from it
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    train = Dataset(rng.normal(size=(40, 2)), np.zeros(40, dtype=int), ("x1", "x2"), np.arange(40))
    save_csv(train, "train.csv", "label")
    valuation.save_scores_csv(
        valuation.ValuationScores(rng.normal(size=40), train.ids, "tmc_shapley", {}), "scores.csv")
    before = sorted(tmp_path.iterdir())
    assert main(["augment", "--train", "train.csv", "--scores", "scores.csv", "--tau", "0.25",
                 "--amount", "1", "--generator", "external",
                 "--exec-cmd", shlex.join(stub_command(mode)), "--out", "aug.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: augment: ") and err.rstrip().endswith(message), err
    assert sorted(tmp_path.iterdir()) == before
    assert list(private_tempdir.iterdir()) == []


def test_augment_empty_exec_cmd_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["augment", *_REQUIRED["augment"][:-3], "--generator", "external",
                 "--exec-cmd", "", "--out", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hardshap augment")
    assert err.splitlines()[-1] == (
        "hardshap augment: error: argument --exec-cmd: exec-cmd must be a command, got ''"), err
    assert list(tmp_path.iterdir()) == []


def test_sim_toy_custom_grid(capsys):
    # the = form keeps argparse from reading the leading -9 as a flag
    assert main(["sim-toy", "--x-train", "0", "--grid=-9,9,0.002"]) == 0
    printed = capsys.readouterr().out
    value = float(next(l for l in printed.splitlines()
                       if l.startswith("expected_shapley=")).split("=")[1])
    assert value == pytest.approx(0.209, abs=2e-3)
