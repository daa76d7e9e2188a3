"""The CLI's CSV reader against the one-float()-per-cell oracle.

``cli._read_csv_columns`` parses plain files in one ``np.loadtxt`` call
and reads every other file cell by cell. Whichever path runs, the columns
it returns, or the error it raises, must be those of
``oracles.read_csv_columns_per_cell``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eiftools.cli import UsageError, _read_csv_columns
from oracles import read_csv_columns_per_cell

NAMES = ("a", "y", "w", "x_1", "z")

# Cell text: numbers as they are usually written, plus fragments from
# the characters a hand-edited CSV tends to hold.
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "1", "0.0", "1.0", "-0.0", "1e5", "1E-5", ".5",
                     "5.", "+2", "nan", "-inf", "inf", "NaN", " 1", "2 ",
                     "\t3"]),
)
odd_cells = st.one_of(
    st.sampled_from(['"4"', '"5.5"', '" 6 "', "1_000", "", " ", "1e", "..",
                     "+-1"]),
    st.text("0123456789.eE+-_ \t\"", max_size=6),
)
DAMAGE = ("none", "line_ends", "odd_cell", "ragged", "trailing_comma",
          "blank_line", "duplicate_name", "not_utf8")


@st.composite
def csv_bytes(draw):
    """A numeric CSV file as bytes with at most one kind of damage:
    CRLF, CR or mixed line ends, a quoted or malformed cell, a ragged
    row, a trailing comma, a blank line, a duplicate column name, or a
    byte that is not UTF-8."""
    damage = draw(st.sampled_from(DAMAGE))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=width,
                           max_size=width, unique=True))
    if damage == "duplicate_name":
        header[-1] = header[0]
    rows = [[draw(numbers) for _ in range(width)]
            for _ in range(draw(st.integers(0, 6)))]
    if rows and damage in ("odd_cell", "ragged", "trailing_comma"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if damage == "odd_cell":
            row[draw(st.integers(0, width - 1))] = draw(odd_cells)
        elif damage == "ragged" and draw(st.booleans()):
            row.pop()
        else:
            row.append("" if damage == "trailing_comma" else draw(numbers))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if damage == "blank_line":
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["", " ", "\t"])))
    ends = ["\n"] * len(lines)
    if damage == "line_ends":
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if damage == "not_utf8":
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82"]))
        data = data[:at] + bad + data[at:]
    return data


def _outcome(read, path):
    try:
        return "ok", read(str(path))
    except (UsageError, ValueError) as exc:
        return "error", str(exc)


def _assert_same(path):
    got = _outcome(_read_csv_columns, path)
    want = _outcome(read_csv_columns_per_cell, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert list(got[1]) == list(want[1])
    for name in want[1]:
        assert got[1][name].dtype == np.float64
        assert np.array_equal(got[1][name], want[1][name], equal_nan=True)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=csv_bytes())
def test_reader_matches_per_cell_oracle(csv_path, data):
    csv_path.write_bytes(data)
    _assert_same(csv_path)


@pytest.mark.parametrize("text", [
    "w,a,y\n0.5,0,1\n0.25,1,0\n",              # plain: the bulk path
    "w,a,y\n0.5,0,1\n0.25,1,0",                # no final line end
    "w,a,y\r\n0.5,0,1\r\n0.25,1,0\r\n",        # CRLF
    "w,a,y\r0.5,0,1\r0.25,1,0\r",              # CR
    'w,a,y\n"0.5",0,1\n0.25,"1",0\n',          # quoted numbers
    "w,a,y\n1_000,0,1\n0.25,1,0\n",            # underscores in a number
    "w,a,y\n0.5,0,1\n\n0.25,1,0\n",            # a blank line
    "w,a,y\n0.5,0,1\n   \n0.25,1,0\n",         # a whitespace-only line
    "w,a,y\n0.5,0,1\n0.25,1,0\n\n",            # a blank last line
    "w,a,y\n0.5\x1c,0,1\n",                    # separator loadtxt strips
    "\ufeffw,a,y\n0.5,0,1\n",                # byte-order mark
    "w,a,y\n\u0661,0,1\n",                  # a non-ASCII digit
    "w,a,y\n 0.5 , 0 ,1\n",                    # spaces around cells
    "w,a,y\nnan,0,1\ninf,1,-inf\n",
    "w,a,y\n#1,0,1\n",
    "w\n1\n2\n",                               # one column
    "w,a,y\n",
    "w,a,y\n\n",
    "",
    "\n1,2\n",
    "w,w,y\n1,0,1\n",
])
def test_reader_edge_cases(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same(path)


@pytest.mark.parametrize("raw, message", [
    (b"\xef\xbb\xbfw,a,y\n0.5,0,1\n", None),
    (b"\xef\xbb\xbfw,a,y\r\n\"0.5\",0,1\r\n", None),  # cell by cell
    (b"\xef\xbb\xbfw,a,y\n0.5,\xff,1\n", "invalid start byte at byte 13"),
    (b"w,a,y\n0.5,\xff,1\n", "invalid start byte at byte 10"),
    (b"\xef\xbbw,a,y\n0.5,0,1\n", "at byte 0"),            # a cut-off mark
])
def test_reader_drops_byte_order_mark(tmp_path, raw, message):
    # Spreadsheet exports often start with a UTF-8 byte-order mark; it is
    # not part of the first column name, and error offsets stay those of
    # the file.
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    _assert_same(path)
    if message is None:
        columns = _read_csv_columns(str(path))
        assert list(columns) == ["w", "a", "y"]
        assert columns["w"].tolist() == [0.5]
    else:
        with pytest.raises(UsageError, match=message):
            _read_csv_columns(str(path))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_plain_file_peaks_below_four_times_its_size(tmp_path, bom):
    # The plain path parses the file's bytes; a decoded copy of the text
    # and a StringIO of it once took the peak to 7.7 times the file.
    rng = np.random.default_rng(3)
    values = {"w": rng.normal(size=20000), "a": rng.integers(0, 2, 20000),
              "y": rng.uniform(size=20000)}
    path = tmp_path / "data.csv"
    lines = [",".join(values)] + [",".join(map(repr, map(float, row)))
                                  for row in zip(*values.values())]
    path.write_bytes(bom + "\n".join(lines).encode("ascii") + b"\n")
    tracemalloc.start()
    try:
        columns = _read_csv_columns(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size
    assert list(columns) == list(values)
    for name, column in values.items():
        assert np.array_equal(columns[name], column)
