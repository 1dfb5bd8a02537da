"""The package's one CSV layer: every CSV reader and writer goes through it.

Reading skips empty lines and lines whose first cell starts with ``#``;
the first line left is the header, and every row must be as wide as it.
Labels are checked as text: after ``strip()``, exactly ``0`` or ``1``.

No pass holds a whole file. ``read_csv`` reads the header and whether a
data row follows it. ``Table.columns`` then reads the file CSV_ROWS lines
at a time: float columns by ``np.loadtxt``, ids by ``int``, and each
chunk's arrays are joined once the file is read. A chunk with text
``np.loadtxt`` might split or parse unlike ``csv.reader`` and ``float()``
(``_STRICT_ONLY``), or with any row the fast path rejects, sends the whole
file to the strict reader: ``csv.reader`` over the file, with
``float``/``int`` cell by cell, row by row. That is the reference; only it
raises. Every pass opens and closes the file.

Writers convert arrays CSV_ROWS rows at a time (``array_rows``), so
no whole-matrix list of Python numbers is built.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

CSV_ROWS = 2048  # lines per read chunk, rows per write chunk

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
    """A CSV file's header; ``columns`` converts its data rows in one pass over the file.

    ``open_text`` opens the file as text with ``newline=""``; each pass
    calls it and closes what it returns.
    """

    def __init__(self, open_text: Callable[[], TextIO]):
        self._open = open_text
        with open_text() as fh:
            rows = _csv_rows(fh)
            self.header = next(rows, None)
            self.has_rows = next(rows, None) is not None

    def columns(self, float_cols, id_col=None, label_col=None, text_col=None) -> Columns:
        """Convert the data rows; each argument is a column index into the header."""
        float_cols = list(float_cols)
        parts = self._fast_parts(float_cols, id_col, label_col, text_col)
        if not parts:
            return self.strict_columns(float_cols, id_col, label_col, text_col)
        return _joined(parts)

    def _fast_parts(self, float_cols, id_col, label_col, text_col) -> list[Columns] | None:
        """Each chunk's columns, or None where the strict reader must decide."""
        parts, skip = [], 1  # the first line kept is the header
        with self._open() as fh:
            for raw in _chunks(fh):
                text = "".join(raw)
                if any(c in text for c in _STRICT_ONLY):
                    return None
                lines = [line for line in text.splitlines() if line and line[0] != "#"]
                data, skip = lines[skip:], max(skip - len(lines), 0)
                if data:
                    part = self._fast_part(data, float_cols, id_col, label_col, text_col)
                    if part is None:
                        return None
                    parts.append(part)
        return parts

    def _fast_part(self, data, float_cols, id_col, label_col, text_col) -> Columns | None:
        width = len(self.header)
        # csv.reader refuses a field longer than its limit
        if max(map(len, data)) > csv.field_size_limit() or (
            {line.count(",") for line in data} != {width - 1}
        ):
            return None
        try:
            floats = np.empty((len(data), 0))
            if float_cols:
                floats = np.loadtxt(data, delimiter=",", comments=None, usecols=float_cols,
                                    ndmin=2)
            ids = None if id_col is None else np.array(
                list(map(int, _cells(data, id_col, width))), dtype=np.int64)
        except (ValueError, OverflowError):
            return None
        labels = None
        if label_col is not None:
            # checked in Python: numpy's str arrays drop trailing "\x00"
            labels = [cell.strip() for cell in _cells(data, label_col, width)]
            if not {"0", "1"}.issuperset(labels):
                return None
            labels = np.array([label == "1" for label in labels], dtype=np.int64)
        # np.loadtxt skips none of the lines it is given; check rather than trust
        if floats.shape[0] != len(data):
            return None
        text = None if text_col is None else _cells(data, text_col, width)
        return Columns(floats, ids, labels, text)

    def strict_columns(self, float_cols, id_col=None, label_col=None, text_col=None) -> Columns:
        """The reference: ``csv.reader`` rows, converted cell by cell.

        Checks each row in turn: its width, then the label, the id and the
        float cells left to right. The first failure raises.
        """
        wanted = (list(float_cols), id_col, label_col, text_col)
        with self._open() as fh:
            rows = _csv_rows(fh)
            next(rows, None)  # the header
            parts = [self._strict_part(chunk, *wanted) for chunk in _chunks(enumerate(rows, 1))]
        return _joined(parts or [self._strict_part([], *wanted)])

    def _strict_part(self, numbered, float_cols, id_col, label_col, text_col) -> Columns:
        """Columns of (row number, row) pairs."""
        header, n = self.header, len(numbered)
        floats = np.empty((n, len(float_cols)))
        ids, labels = np.empty(n, np.int64), np.empty(n, np.int64)
        for r, (number, row) in enumerate(numbered):
            if len(row) != len(header):
                raise ValueError(f"row {number} has {len(row)} cells, expected {len(header)}")
            if label_col is not None:
                label = row[label_col].strip()
                if label not in ("0", "1"):
                    raise ValueError(f"invalid label {label!r} at row {number}")
                labels[r] = int(label)
            if id_col is not None:
                try:
                    ids[r] = int(row[id_col])
                except ValueError:
                    raise ValueError(f"non-integer id {row[id_col]!r} at row {number}") from None
            for c, j in enumerate(float_cols):
                try:
                    floats[r, c] = float(row[j])
                except ValueError:
                    raise ValueError(
                        f"non-numeric value {row[j]!r} in column {header[j]!r} at row {number}"
                    ) from None
        return Columns(
            floats,
            None if id_col is None else ids,
            None if label_col is None else labels,
            None if text_col is None else [row[text_col] for _, row in numbered],
        )


def _chunks(items: Iterable) -> Iterator[list]:
    """Lists of the next CSV_ROWS items, until none are left."""
    items = iter(items)
    while chunk := list(islice(items, CSV_ROWS)):
        yield chunk


def _cells(lines: list[str], j: int, width: int) -> list[str]:
    """Cell j of every line of ``width`` cells."""
    if j == width - 1:
        return [line.rpartition(",")[2] for line in lines]
    return [line.split(",", j + 1)[j] for line in lines]


def _joined(parts: list[Columns]) -> Columns:
    """One Columns from the chunks' Columns, in order."""
    return Columns(*(
        None if field[0] is None
        else np.concatenate(field) if isinstance(field[0], np.ndarray)
        else [cell for cells in field for cell in cells]
        for field in zip(*parts)
    ))


def _csv_rows(lines: Iterable[str]) -> Iterator[list[str]]:
    return (r for r in csv.reader(lines) if r and not r[0].startswith("#"))


def read_csv(path: str | Path) -> Table:
    return Table(lambda: open(path, newline="", encoding="utf-8"))


def array_rows(*columns: np.ndarray | Sequence) -> Iterator[tuple]:
    """The columns' rows side by side, converted CSV_ROWS rows at a time.

    Arrays give Python numbers by ``tolist()``, whose ``str`` is the
    shortest round-trip repr, as ``write_csv`` needs; a 2-D array gives a
    list per row. Only the current chunk is ever converted.
    """
    for lo in range(0, len(columns[0]), CSV_ROWS):
        yield from zip(*(
            c[lo:lo + CSV_ROWS].tolist() if isinstance(c, np.ndarray) else c[lo:lo + CSV_ROWS]
            for c in columns
        ))


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
    commas: pass Python numbers (``array_rows``), whose ``str`` is the
    shortest round-trip repr, and text that needs no quoting.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments if comment)
        csv.writer(fh, lineterminator=newline).writerow(header)
        fh.writelines(",".join(map(str, row)) + newline for row in rows)
