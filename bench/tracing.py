"""Spans around calls into hardshap's modules, for the benchmark's traced run.

The tracer replaces module attributes with timing wrappers. Modules import
functions by name (``perturb.knn_shapley`` is the object
``valuation.knn_shapley``), so every binding of a wrapped function in every
hardshap module is replaced, and restored afterwards. Each module's ``cdist``
binding is wrapped on its own and named after that module.

Spans stay in memory: name, start, end, parent id and counts. Calls made by
``parallel_map`` worker threads open a ``util.parallel_map.item`` span whose
parent is the ``parallel_map`` span, so work done on other threads is still
attributed to its caller.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

Counter = Callable[[dict, object], int]

# (module, function, counts recorded per call from its bound arguments and result)
TARGETS: tuple[tuple[str, str, dict[str, Counter]], ...] = (
    ("dataset", "load_csv", {"rows": lambda a, r: r.n}),
    ("dataset", "save_csv", {"rows": lambda a, r: a["ds"].n}),
    ("dataset", "standardize", {}),
    ("dataset", "stratified_split", {}),
    ("neighbors", "k_nearest", {}),
    ("neighbors", "rank_all",
     {"pairs": lambda a, r: a["train_features"].shape[0] * a["query"].shape[0]}),
    ("valuation", "knn_shapley", {"pairs": lambda a, r: a["train"].n * a["test"].n}),
    ("valuation", "knn_shapley_contributions", {}),
    ("valuation", "exact_data_shapley", {}),
    ("valuation", "tmc_shapley", {}),
    ("valuation", "hardest_subset", {}),
    ("valuation", "save_scores_csv", {}),
    ("valuation", "load_scores_csv", {}),
    ("augment", "targeted_augment", {}),
    ("augment", "smote_generate",
     {"source_rows": lambda a, r: a["source"].n, "rows_out": lambda a, r: a["m"]}),
    ("augment", "append_batch", {}),
    ("evaluation", "repeated_gini", {}),
    ("evaluation", "knn_predict_proba", {"pairs": lambda a, r: a["train"].n * a["query"].n}),
    ("evaluation", "gini", {}),
    ("evaluation", "removal_curve", {}),
    ("dataiq", "bagged_checkpoint_probs", {"checkpoints": lambda a, r: a["n_checkpoints"]}),
    ("perturb", "benchmark", {}),
    ("perturb", "mislabel", {}),
    ("perturb", "ood_shift", {}),
    ("perturb", "atypical_scale", {}),
    ("perturb", "auprc", {}),
    ("sim", "gen_blobs", {}),
    ("sim", "toy_expected_shapley", {}),
    ("sim", "toy_interval_table", {}),
)
CDIST_MODULES = ("valuation", "evaluation", "dataiq", "neighbors")
PARALLEL_MAP = "util.parallel_map"  # the function lives in hardshap._util
ITEM = PARALLEL_MAP + ".item"
# Scheduling spans: their children count as children of the span above them.
TRANSPARENT = frozenset({PARALLEL_MAP, ITEM})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[dict]:
        """Record one span; the caller may add counts to the yielded record."""
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent if parent is not None else (stack[-1] if stack else None),
            "thread": threading.get_ident(),
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            stack.pop()
            self.spans.append(record)

    def _wrap(self, name: str, fn: Callable, counters: dict[str, Counter]) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counters:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, count in counters.items():
                        record[key] = int(count(bound.arguments, result))
                return result

        return traced

    def _wrap_cdist(self, name: str, fn: Callable) -> Callable:
        def traced(XA, XB, *args, **kwargs):
            with self.span(name) as record:
                record["bytes"] = 8 * len(XA) * len(XB)
                return fn(XA, XB, *args, **kwargs)

        return traced

    def _wrap_parallel_map(self, fn: Callable) -> Callable:
        def traced(work, items, threads=1):
            with self.span(PARALLEL_MAP) as record:
                record["items"] = len(items)
                parent = record["id"]

                def item(x):
                    with self.span(ITEM, parent=parent):
                        return work(x)

                return fn(item, items, threads)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced binding in every loaded hardshap module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hardshap" or n.startswith("hardshap.")]
        package = sys.modules["hardshap"]
        replacements = {}
        for module_name, attr, counters in TARGETS:
            fn = getattr(getattr(package, module_name), attr)
            replacements[id(fn)] = self._wrap(f"{module_name}.{attr}", fn, counters)
        parallel_map = package._util.parallel_map
        replacements[id(parallel_map)] = self._wrap_parallel_map(parallel_map)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and callable(value):
                    patched.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        for module_name in CDIST_MODULES:
            module = getattr(package, module_name)
            patched.append((module, "cdist", module.cdist))
            module.cdist = self._wrap_cdist(f"{module_name}.cdist", module.cdist)
        try:
            yield
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(record) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per span name: ``s``, ``self_s``, ``calls``, ``item_s`` and summed counts.

    ``s`` sums the spans of a name that have no ancestor of the same name, so
    nested calls are not counted twice. ``self_s`` is that time minus the part
    of it covered by child spans, looking through the parallel_map spans.
    Counts sum over every span of the name.
    """
    by_id = {r["id"]: r for r in spans}
    children = defaultdict(list)
    for r in spans:
        children[r["parent"]].append(r)

    def outermost(r: dict) -> bool:
        parent = by_id.get(r["parent"])
        while parent is not None:
            if parent["name"] == r["name"]:
                return False
            parent = by_id.get(parent["parent"])
        return True

    def working_children(r: dict) -> Iterator[dict]:
        for child in children[r["id"]]:
            if child["name"] in TRANSPARENT:
                yield from working_children(child)
            else:
                yield child

    out: dict[str, float] = defaultdict(float)
    for r in spans:
        name = r["name"]
        out[f"{name}.calls"] += 1
        for key, value in r.items():
            if key not in ("id", "name", "parent", "thread", "start", "end"):
                out[f"{name}.{key}"] += value
        if outermost(r):
            duration = r["end"] - r["start"]
            out[f"{name}.s"] += duration
            if name not in TRANSPARENT:
                inner = [(max(c["start"], r["start"]), min(c["end"], r["end"]))
                         for c in working_children(r)]
                out[f"{name}.self_s"] += duration - _covered(inner)
    out[f"{PARALLEL_MAP}.item_s"] = out.pop(f"{ITEM}.s", 0.0)
    out["dataiq.bagged_checkpoint_probs.matrix_bytes"] = max(
        (r["bytes"] for r in spans if r["name"] == "dataiq.cdist"), default=0)
    return dict(out)
