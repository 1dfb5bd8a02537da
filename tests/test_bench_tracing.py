"""The traced benchmark run finds every function it times.

``bench/tracing.py`` wraps hardshap functions by module and name, and the
counts it records read the wrapped functions' arguments by name. A renamed
function or parameter in ``src/`` would break ``bench/run.py --trace 1`` or
silently zero a per-layer metric, so every subcommand runs here once, at toy
sizes, under the tracer, and each traced name must record a span.
``knn_predict_proba``, which no subcommand calls, is called directly.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
from hardshap import evaluation, valuation  # noqa: E402
from hardshap.cli import main  # noqa: E402
from hardshap.dataset import load_csv  # noqa: E402

EXPECTED = {f"{module}.{name}" for module, name, _ in tracing.TARGETS} | {
    f"{module}.cdist" for module in tracing.CDIST_MODULES
}


@pytest.fixture(scope="module")
def traced_spans(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    blobs, tiny = str(root / "blob"), str(root / "tiny")
    train, valid, test = (f"{blobs}_{part}.csv" for part in ("train", "valid", "test"))
    scores = str(root / "scores.csv")
    runs = [
        ["sim-blobs", "--out-prefix", blobs, "--n-train", "60", "--n-valid", "30",
         "--n-test", "30"],
        ["sim-blobs", "--out-prefix", tiny, "--n-train", "8", "--n-valid", "4", "--n-test", "4"],
        ["value", "--train", train, "--test", test, "--out", scores],
        ["value", "--train", f"{tiny}_train.csv", "--test", f"{tiny}_test.csv",
         "--method", "exact_shapley", "--out", str(root / "exact.csv")],
        ["value", "--train", f"{tiny}_train.csv", "--test", f"{tiny}_test.csv",
         "--method", "tmc_shapley", "--permutations", "20", "--out", str(root / "tmc.csv")],
        ["rank", "--scores", scores, "--out", str(root / "rank.csv")],
        ["augment", "--train", train, "--scores", scores, "--tau", "0.2", "--amount", "1",
         "--generator", "smote", "--out", str(root / "augmented.csv")],
        ["eval-pipeline", "--train", train, "--valid", valid, "--test", test, "--tau", "0.2",
         "--amount", "1", "--generator", "smote", "--replicates", "2", "--downstream-k", "3",
         "--out", str(root / "eval.csv")],
        ["perturb-bench", "--train", train, "--runs", "1", "--proportions", "0.1",
         "--checkpoints", "2", "--out", str(root / "bench.csv")],
        ["dataiq", "--train", train, "--checkpoints", "2", "--out", str(root / "tags.csv")],
        ["removal-curve", "--train", train, "--valid", valid, "--scores", scores,
         "--downstream-k", "3", "--out", str(root / "curve.csv")],
        ["sim-toy", "--grid=-8,8,0.01"],
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv in runs:
            assert main(argv) == 0, argv
        rows = load_csv(valid, "label")
        # eval scores any probability per valid row; here, its first feature
        probs = root / "probs.csv"
        probs.write_text("id,prob\n" + "".join(
            f"{i},{x!r}\n" for i, x in zip(rows.ids.tolist(), rows.features[:, 0].tolist())))
        assert main(["eval", "--probs", str(probs), "--labels", valid]) == 0
        evaluation.knn_predict_proba(load_csv(train, "label"), rows, 3)
    return tracer.spans


def test_every_traced_function_records_spans(traced_spans):
    missing = EXPECTED - {span["name"] for span in traced_spans}
    assert not missing, f"no spans for {sorted(missing)}"


def test_tracer_restores_every_binding():
    original = valuation.knn_shapley, valuation.cdist
    with tracing.Tracer().installed():
        assert valuation.knn_shapley is not original[0]
        assert valuation.cdist is not original[1]
    assert (valuation.knn_shapley, valuation.cdist) == original
