"""Benchmark of hardshap's CLI: four workloads, timed end to end and per module.

    python3 bench/run.py                                  # every workload, one process each
    python3 bench/run.py --workload value-wide --seed 3 --seconds 20 --trace 0

Runs from the repository root without installing the package: it imports
``hardshap`` from ``src/`` next to this directory and drives it through
``hardshap.cli.main``, the code behind ``python -m hardshap``.

One workload run generates its inputs from ``--seed`` (set-up), repeats whole
rounds of its CLI calls for about ``--seconds``, then checks the outputs.
Times are medians over rounds. ``--trace 1`` spends half the time untraced and
half with every module's functions wrapped in spans, and reports the
per-module metrics named in BENCHMARK.json. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PASSES = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="a workload name, or all (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        done = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, done.returncode)
    return worst


def digest(op, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in op.outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_rounds(cli, ops, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds of every call until the next one would pass `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        record = {"time": {}, "op_s": [], "codes": [], "digests": [], "stdout": []}
        for op in ops:
            buf = io.StringIO()
            span = tracer.span(f"cli.{op.command}") if tracer else nullcontext()
            t = time.perf_counter()
            with span, redirect_stdout(buf):
                code = cli.main(list(op.argv))
            elapsed = time.perf_counter() - t
            record["time"][op.group] = record["time"].get(op.group, 0.0) + elapsed
            record["op_s"].append(elapsed)
            record["codes"].append(code)
            record["stdout"].append(buf.getvalue())
            record["digests"].append(digest(op, buf.getvalue()))
        record["total"] = sum(record["time"].values())
        rounds.append(record)
        typical = statistics.median(r["total"] for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds


def score_rounds(ops, rounds: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, messages) over every call of every round.

    The first round's outputs are checked against the references; a later
    call passes only if its outputs repeat the first round's byte for byte
    (the program's outputs are pure in flags, files and seed). A call that
    exits non-zero fails without making the run incorrect; wrong output does.
    """
    messages = []
    first = rounds[0]
    check_ok = []
    for i, op in enumerate(ops):
        if first["codes"][i] != 0:
            messages.append(f"{op.command}: exit code {first['codes'][i]}")
            check_ok.append(False)
            continue
        try:
            errors = op.check(first["stdout"][i])
        except Exception:  # a check that cannot read the output fails the call
            errors = [traceback.format_exc(limit=3)]
        messages += [f"{op.command}: {e}" for e in errors]
        check_ok.append(not errors)
    attempted = failed = 0
    correct = True
    for record in rounds:
        for i, op in enumerate(ops):
            attempted += 1
            if record["codes"][i] != 0:
                failed += 1
            elif not check_ok[i] or record["digests"][i] != first["digests"][i]:
                failed += 1
                correct = False
    if any(r["digests"] != first["digests"] for r in rounds):
        messages.append("outputs differ between rounds")
    return attempted, failed, correct, messages


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r["time"].get(key, 0.0) for r in rounds)


def combine(setup: dict, rounds: dict, n_rounds: int) -> dict:
    """One set-up plus one round: set-up spans whole, round spans averaged."""
    out = {}
    for key in set(setup) | set(rounds):
        if key.endswith("matrix_bytes"):
            out[key] = max(setup.get(key, 0), rounds.get(key, 0))
        else:
            out[key] = setup.get(key, 0.0) + rounds.get(key, 0.0) / n_rounds
    return out


def run_workload(args: argparse.Namespace, cli, workloads) -> int:
    import_s = time.perf_counter() - T0
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work)
        tracer = tracing.Tracer() if args.trace else None
        setup_times = []
        for _ in range(1 if tracer else SETUP_PASSES):
            t = time.perf_counter()
            with tracer.installed() if tracer else nullcontext():
                wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t)
        ops = wl.ops()
        metrics = {}
        if tracer:
            setup_spans = len(tracer.spans)
            plain = run_rounds(cli, ops, args.seconds / 2)
            with tracer.installed():
                traced = run_rounds(cli, ops, args.seconds / 2, tracer)
            layers = combine(tracing.aggregate(tracer.spans[:setup_spans]),
                             tracing.aggregate(tracer.spans[setup_spans:]), len(traced))
            layers["trace.overhead_s"] = (statistics.median(r["total"] for r in traced)
                                          - statistics.median(r["total"] for r in plain))
            for group in wl.groups:
                layers[group] = median_of(plain, group)
            for m in SPEC["per_layer"]:
                metrics[m["name"]] = (layers.get(m["name"], 0.0), m["unit"])
            tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            rounds = plain + traced
        else:
            rounds = run_rounds(cli, ops, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": peak_mb,
                "round_s": statistics.median(r["total"] for r in rounds),
            }
            for m in SPEC["end_to_end"]:
                metrics[m["name"]] = (values[m["name"]], m["unit"])
        attempted, failed, correct, messages = score_rounds(ops, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} threads {wl.threads}: {len(rounds)} rounds, "
          f"{attempted} calls attempted, {failed} failed")
    for message in messages:
        print(f"  FAIL {message}")
    print("  rounds_s " + " ".join(f"{r['total']:.3f}" for r in rounds))
    if not args.trace:
        for group in wl.groups:
            print(f"  {group:<16} {median_of(rounds, group):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # One process, at most nproc threads: the program's --threads pool and no BLAS pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "hardshap" / "__init__.py").is_file():
        print(f"error: no hardshap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hardshap.cli as cli
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args, cli, workloads)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
