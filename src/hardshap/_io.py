"""The package's one CSV layer: every CSV reader and writer goes through it.

Reading skips empty lines and lines whose first cell starts with ``#``;
the first line left is the header, and every row must be as wide as it.
Labels are checked as text: after ``strip()``, exactly ``0`` or ``1``.
Float columns are parsed by ``np.loadtxt``. Text it might split or parse
unlike ``csv.reader`` and ``float()`` (``_STRICT_ONLY``), and any row the
fast path rejects, go to the strict reader: ``csv.reader`` with
``float``/``int`` cell by cell. That is the reference; only it raises.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# A quote, the line breaks of str.splitlines other than \n and \r, and \x1f,
# which np.loadtxt strips from a number as whitespace where float() fails.
_STRICT_ONLY = '"\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029'


class Columns(NamedTuple):
    """Converted data columns; one not asked for is None."""

    floats: np.ndarray  # (rows, len(float_cols))
    ids: np.ndarray | None
    labels: np.ndarray | None
    text: list[str] | None


class Table:
    """A CSV file's header and data rows, before any cell is converted."""

    def __init__(self, text: str):
        self._text = text
        self._lines = None  # set when the fast path may read the text
        if not any(c in text for c in _STRICT_ONLY):
            lines = [line for line in text.splitlines() if line and line[0] != "#"]
            # csv.reader refuses a field longer than its limit
            if max(map(len, lines), default=0) <= csv.field_size_limit():
                self._lines = lines
        if self._lines is None:
            self._rows = _csv_rows(text)
            self.header = self._rows[0] if self._rows else None
        else:
            self._rows = None
            self.header = self._lines[0].split(",") if self._lines else None
        self.n_rows = max(len(self._lines or self._rows or ()) - 1, 0)

    def columns(self, float_cols, id_col=None, label_col=None, text_col=None) -> Columns:
        """Convert the data rows; each argument is a column index into the header."""
        fast = self._lines is not None and self._fast_columns(float_cols, id_col, label_col)
        if not fast:
            return self.strict_columns(float_cols, id_col, label_col, text_col)
        return Columns(*fast, None if text_col is None else self._cells(text_col))

    def _cells(self, j: int) -> list[str]:
        """Cell j of every data line."""
        if j == len(self.header) - 1:
            return [line.rpartition(",")[2] for line in self._lines[1:]]
        return [line.split(",", j + 1)[j] for line in self._lines[1:]]

    def _fast_columns(self, float_cols, id_col, label_col):
        """(floats, ids, labels), or None where the strict reader must decide."""
        data = self._lines[1:]
        if not data or {line.count(",") for line in data} != {len(self.header) - 1}:
            return None
        try:
            floats = np.empty((len(data), 0))
            if float_cols:
                floats = np.loadtxt(data, delimiter=",", comments=None, usecols=list(float_cols),
                                    ndmin=2)
            ids = None if id_col is None else np.array(
                list(map(int, self._cells(id_col))), dtype=np.int64)
        except (ValueError, OverflowError):
            return None
        labels = None
        if label_col is not None:
            # checked in Python: numpy's str arrays drop trailing "\x00"
            labels = [cell.strip() for cell in self._cells(label_col)]
            if not {"0", "1"}.issuperset(labels):
                return None
            labels = np.array([label == "1" for label in labels], dtype=np.int64)
        # np.loadtxt skips none of the lines it is given; check rather than trust
        return (floats, ids, labels) if floats.shape[0] == len(data) else None

    def strict_columns(self, float_cols, id_col=None, label_col=None, text_col=None) -> Columns:
        """The reference: ``csv.reader`` rows, converted cell by cell.

        Checks each row in turn: its width, then the label, the id and the
        float cells left to right. The first failure raises.
        """
        rows = (self._rows or _csv_rows(self._text))[1:]
        header, n = self.header, len(rows)
        floats = np.empty((n, len(float_cols)))
        ids, labels = np.empty(n, np.int64), np.empty(n, np.int64)
        for r, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(f"row {r + 1} has {len(row)} cells, expected {len(header)}")
            if label_col is not None:
                label = row[label_col].strip()
                if label not in ("0", "1"):
                    raise ValueError(f"invalid label {label!r} at row {r + 1}")
                labels[r] = int(label)
            if id_col is not None:
                try:
                    ids[r] = int(row[id_col])
                except ValueError:
                    raise ValueError(f"non-integer id {row[id_col]!r} at row {r + 1}") from None
            for c, j in enumerate(float_cols):
                try:
                    floats[r, c] = float(row[j])
                except ValueError:
                    raise ValueError(
                        f"non-numeric value {row[j]!r} in column {header[j]!r} at row {r + 1}"
                    ) from None
        return Columns(
            floats,
            None if id_col is None else ids,
            None if label_col is None else labels,
            None if text_col is None else [row[text_col] for row in rows],
        )


def _csv_rows(text: str) -> list[list[str]]:
    return [r for r in csv.reader(io.StringIO(text, newline="")) if r and not r[0].startswith("#")]


def read_csv(path: str | Path) -> Table:
    with open(path, newline="", encoding="utf-8") as fh:
        return Table(fh.read())


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    comments: Sequence[str | None] = (),
    newline: str = "\r\n",
) -> None:
    """Write ``# <comment>`` lines (empty ones left out), the header, then the rows.

    Comment lines end in ``\\n``. The header goes through ``csv.writer``,
    which quotes names that need it. A row is its cells' ``str`` joined by
    commas: pass Python numbers (``ndarray.tolist()``), whose ``str`` is the
    shortest round-trip repr, and text that needs no quoting.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments if comment)
        csv.writer(fh, lineterminator=newline).writerow(header)
        fh.writelines(",".join(map(str, row)) + newline for row in rows)
