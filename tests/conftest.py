import sys
import tempfile

import numpy as np
import pytest

from hardshap.dataset import Dataset


def random_dataset(rng, n, d=2, n_classes_present=2, ids=None):
    """Random finite features with both labels present (unless n == 1)."""
    labels = rng.integers(0, 2, size=n)
    if n >= 2 and n_classes_present == 2 and len(np.unique(labels)) < 2:
        labels[0], labels[1] = 0, 1
    return Dataset(
        rng.normal(size=(n, d)),
        labels,
        tuple(f"f{j}" for j in range(d)),
        np.arange(n) if ids is None else ids,
    )


@pytest.fixture
def toy_train():
    """(-1, 0), (1, 1), (0, 0) in that row order."""
    return Dataset([[-1.0], [1.0], [0.0]], [0, 1, 0], ("x1",), [0, 1, 2])


@pytest.fixture
def toy_test():
    return Dataset([[0.25]], [0], ("x1",), [0])


STUB_GENERATOR = """\
import csv, json, sys

mode, source, out, m, seed = sys.argv[1:6]
if mode == "log":  # record every argument, in the working directory
    with open("argv.json", "w", encoding="utf-8") as f:
        json.dump(sys.argv[1:], f)
if mode == "fail":
    sys.stderr.write("stub refuses to generate\\n")
    sys.exit(3)
if mode != "none":
    with open(source, newline="", encoding="utf-8") as f:
        header, *rows = [row for row in csv.reader(f) if row and not row[0].startswith("#")]
    rows = [list(rows[i % len(rows)]) for i in range(int(m) - (mode == "short"))]
    for row in rows:  # copies of the source rows, features shifted by the seed
        row[1:-1] = [repr(float(x) + int(seed)) for x in row[1:-1]]
        if mode == "foreign":
            row[-1] = "1"
        if mode == "wide":
            row.insert(1, "0.0")
    if mode == "wide":
        header.insert(1, "extra")
    with open(out, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([header, *rows])
"""


@pytest.fixture
def stub_command(tmp_path):
    """``stub_command(mode, *extra)``: the argv of a stub external generator.

    It copies ``{in}``'s rows cyclically into ``{m}`` rows of ``{out}``, each
    feature plus ``{seed}``. Modes: ``copy``; ``log`` also writes its
    arguments to ``argv.json`` in the working directory; ``fail`` exits 3
    with a line on stderr; ``none`` writes nothing; ``short`` writes one row
    too few; ``wide`` adds a feature column; ``foreign`` labels every row 1.
    """
    script = tmp_path / "stub_generator.py"
    script.write_text(STUB_GENERATOR, encoding="utf-8")
    return lambda mode, *extra: [sys.executable, str(script), mode,
                                 "{in}", "{out}", "{m}", "{seed}", *extra]


@pytest.fixture
def private_tempdir(tmp_path, monkeypatch):
    """An empty directory that ``tempfile`` makes its temporary directories in."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root
