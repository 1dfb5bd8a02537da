"""The CSV layer's fast reader against its strict reference reader.

``Table.columns`` parses float columns with ``np.loadtxt`` and falls back
to ``Table.strict_columns`` (``csv.reader`` and ``float``/``int`` cell by
cell) on any input it cannot vouch for. On every text both must return
bit-equal arrays, or raise the same exception with the same message,
whatever the chunk size ``CSV_ROWS`` that both read the file in.
"""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardshap import _io
from hardshap._io import Table, _csv_rows
from hardshap.dataset import Dataset, load_csv, save_csv

# Chunks of 1, 2 and 3 lines put the generated texts' chunk boundaries
# everywhere: before and after the header, comments and ragged rows.
CHUNK_SIZES = (1, 2, 3, _io.CSV_ROWS)

TRICKY_CELLS = (
    "-0.0", "1e-320", "1e400", "-1e400", "nan", "-nan", "NaN", "inf", "-Infinity",
    "1_0", " 1 ", "1.", ".5", "٣", "0x10", "", " ", "#1", "1#2", "# x", '"1"', '"1,5"',
    '""', 'a"b', "\x1c1", "1\x1f", "1\x0b", "\x0c1", "\xa01", "1\x85", "abc", "1\x00",
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(TRICKY_CELLS),
)
labels = st.one_of(
    st.sampled_from(["0", "1"]),
    st.sampled_from(["01", "+1", " 1 ", "1.0", "2", '"1"', "0\x00", "\x001"]),
)
ids = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.sampled_from(
        ["1.0", "1_000", str(2**63), str(-(2**63) - 1), " 7 ", "+7", "٣", "x", '"7"', "7\x00"]
    ),
)


@st.composite
def csv_texts(draw):
    """A header plus rows whose cells mostly parse, ragged now and then."""
    n_features = draw(st.integers(1, 3))
    header = [f"f{j}" for j in range(n_features)] + ["label"]
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "id")
    column = {"label": labels, "id": ids}
    endings = st.sampled_from(["\n", "\r\n", "\r"]) if draw(st.booleans()) else st.just(
        draw(st.sampled_from(["\n", "\r\n"]))
    )
    quoted = draw(st.lists(st.booleans(), min_size=len(header), max_size=len(header)))
    lines = [",".join(f'"{name}"' if q else name for name, q in zip(header, quoted))]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["ragged", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "\x0b", "\x1e", " "])))
        elif kind == "comment":
            # csv.reader skips the whole line; str.splitlines would break it at a separator
            lines.append(draw(st.sampled_from(
                ["#", "# note", "#1,2,3", " # not a comment", "# a\x0b1,0", "# a\x1c0,1",
                 "# a\x1d1,1", "# a\x1e1,1", "# a\x0c0,0", "# a\x851,0", "# a\u20281,0",
                 "# a\u20290,1"]
            )))
        else:
            row = [draw(column.get(name, floats)) for name in header]
            if kind == "ragged":
                row = row[: draw(st.integers(1, len(row)))] + draw(st.lists(floats, max_size=2))
            lines.append(",".join(row))
    if draw(st.booleans()):
        lines.insert(0, "# comment before the header")
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def text_table(text):
    """A Table over text, as ``read_csv`` gives one over a file."""
    return Table(lambda: io.StringIO(text, newline=""))


def _reference_rows(text):
    return list(_csv_rows(io.StringIO(text, newline="")))


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _outcome(read):
    try:
        return "ok", read()
    except Exception as exc:  # the reference's exception is part of the contract
        return "raised", (type(exc), str(exc))


def _assert_readers_agree(table, **columns):
    fast = _outcome(lambda: table.columns(**columns))
    strict = _outcome(lambda: table.strict_columns(**columns))
    assert fast[0] == strict[0], (fast, strict)
    if fast[0] == "raised":
        assert fast[1] == strict[1]
        return
    for field in ("floats", "ids", "labels", "text"):
        assert _same(getattr(fast[1], field), getattr(strict[1], field)), field


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_fast_reader_matches_strict_reader(text):
    for chunk in CHUNK_SIZES:
        with mock.patch.object(_io, "CSV_ROWS", chunk):
            _check_fast_reader_matches_strict_reader(text)


def _check_fast_reader_matches_strict_reader(text):
    table = text_table(text)
    reference = _reference_rows(text)
    assert table.header == (reference or [None])[0]
    assert table.has_rows == (len(reference) > 1)
    if not table.has_rows:
        return
    labels = table.header.index("label") if "label" in table.header else None
    ids = table.header.index("id") if "id" in table.header else None
    features = [j for j in range(len(table.header)) if j not in (labels, ids)]
    _assert_readers_agree(table, float_cols=features, id_col=ids, label_col=labels)
    # the scores layout: id, one float column, a text column
    _assert_readers_agree(table, float_cols=[0], id_col=len(table.header) - 1, text_col=1)


# Where str.splitlines breaks a line besides \n and \r; csv.reader does not.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_splitlines_only_breaks_are_complete():
    breaks = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks - {"\n", "\r"} == set(SPLITLINES_ONLY)


@pytest.mark.parametrize("sep", list(SPLITLINES_ONLY + "\x1f"))
def test_separators_csv_does_not_break_at(sep, monkeypatch):
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(_io, "CSV_ROWS", chunk)
        for text in (f"f0,label\n# a{sep}1,0\n1,0\n", f"f0,label\n1{sep},0\n",
                     f"f0,label\n{sep}\n1,0\n"):
            table = text_table(text)
            assert table.has_rows == (len(_reference_rows(text)) > 1)
            _assert_readers_agree(table, float_cols=[0], label_col=1)


def test_plain_files_take_the_fast_path(tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "CSV_ROWS", 7)
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(50, 3)) * 1e5, rng.integers(0, 2, 50), ("a", "b", "c"),
                 rng.permutation(1000)[:50])
    path = tmp_path / "d.csv"
    save_csv(ds, path, header_comment="plain")
    table = _io.read_csv(path)
    assert len(table._fast_parts([1, 2, 3], 0, 4, None)) == 8  # 52 lines in chunks of 7
    back = load_csv(path, "label")
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.ids, ds.ids) and np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize(
    "text",
    [
        'id,x,label\n1,"2.5",1\n',  # a quote anywhere
        "id,x,label\n1,1_0,1\n",  # underscores, which loadtxt rejects
        "id,x,label\n1,٣,0\n",  # a non-ASCII digit
    ],
)
def test_strict_reader_accepts_what_float_accepts(text):
    cols = text_table(text).columns([1], id_col=0, label_col=2)
    assert cols.floats[0, 0] == float(text.split(",")[-2].strip('"'))


@pytest.mark.parametrize(
    "body, message",
    [
        ("1,2.5,01\n", "invalid label '01' at row 1"),
        ("1,2.5,+1\n", "invalid label '\\+1' at row 1"),
        ("1,2.5,0\x00\n", "invalid label '0\\\\x00' at row 1"),
        ("1.0,2.5,1\n", "non-integer id '1.0' at row 1"),
        ("1,2.5,1\n2,x,0\n", "non-numeric value 'x' in column 'x' at row 2"),
        ("1,2.5,1\n2,1#3,0\n", "non-numeric value '1#3' in column 'x' at row 2"),
        ("1,2.5,1\n2,1\x1f,0\n", "non-numeric value '1\\\\x1f' in column 'x' at row 2"),
        ("1,2.5,1\n2,3.5\n", "row 2 has 2 cells, expected 3"),
    ],
)
def test_strict_reader_messages(body, message):
    with pytest.raises(ValueError, match=message):
        text_table("id,x,label\n" + body).columns([1], id_col=0, label_col=2)


def test_quoted_cells_are_unquoted():
    table = text_table('id,score,rank,"method"\n1,0.5,0,"knn_shapley"\n')
    assert table.header == ["id", "score", "rank", "method"]
    assert table.columns([1], id_col=0, text_col=3).text == ["knn_shapley"]


def test_label_cells_are_checked_as_text():
    cols = text_table("x,label\n1, 1 \n2,0\n").columns([0], label_col=1)
    assert cols.labels.tolist() == [1, 0]


def test_field_over_the_csv_limit_raises_as_csv_reader_does():
    text = "x,label\n" + "1" * (csv.field_size_limit() + 1) + ",0\n"
    with pytest.raises(csv.Error, match="field larger than field limit"):
        text_table(text).columns([0], label_col=1)


def test_id_beyond_int64_raises_overflow():
    with pytest.raises(OverflowError):
        text_table(f"id,x,label\n{2**63},1,0\n").columns([1], id_col=0, label_col=2)


@pytest.mark.parametrize(
    "last, message",
    [
        ("10,x,0", "non-numeric value 'x' in column 'x' at row 10"),
        ("10,2.5", "row 10 has 2 cells, expected 3"),
        ('10,"2.5",1', None),  # a quote: the strict reader's result
        ("\x0b", "row 10 has 1 cells, expected 3"),
    ],
)
def test_a_late_chunk_sends_the_whole_file_to_the_strict_reader(last, message, monkeypatch):
    # chunks of lines 1-4, 5-8 and 9-11: the first two take the fast path alone
    monkeypatch.setattr(_io, "CSV_ROWS", 4)
    text = "id,x,label\n" + "".join(f"{i},{i}.5,{i % 2}\n" for i in range(1, 10)) + last + "\n"
    table = text_table(text)
    assert table._fast_parts([1], 0, 2, None) is None
    if message is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            table.columns([1], id_col=0, label_col=2)
        return
    _assert_readers_agree(table, float_cols=[1], id_col=0, label_col=2)
    cols = table.columns([1], id_col=0, label_col=2)
    assert cols.floats[:, 0].tolist() == [i + 0.5 for i in range(1, 10)] + [2.5]
    assert cols.ids.tolist() == list(range(1, 11))


def _wide_file(tmp_path, n, d):
    rng = np.random.default_rng(n)
    ds = Dataset(rng.standard_normal((n, d)) * np.exp(rng.normal(size=d)), rng.integers(0, 2, n),
                 tuple(f"f{j:02d}" for j in range(d)), np.arange(n))
    return ds, tmp_path / f"wide_{n}.csv"


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_peaks_near_its_result(tmp_path):
    # the chunks' arrays, then their join and the Dataset's own copy: about twice the result
    ds, path = _wide_file(tmp_path, 20000, 20)
    save_csv(ds, path)
    result = []
    peak = _peak_bytes(lambda: result.append(load_csv(path, "label")))
    back = result[0]
    assert back.features.tobytes() == ds.features.tobytes()
    assert peak <= 2.5 * (back.features.nbytes + back.ids.nbytes + back.labels.nbytes), peak


@pytest.mark.parametrize("n, d", [(20000, 20), (100000, 2)])
def test_save_csv_peak_does_not_grow_with_rows(tmp_path, n, d):
    # one chunk of CSV_ROWS rows of Python numbers at a time
    ds, path = _wide_file(tmp_path, n, d)
    assert _peak_bytes(lambda: save_csv(ds, path)) < 2e6
