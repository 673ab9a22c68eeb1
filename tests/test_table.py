import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearsim import table
from rearsim.errors import ParseError

HEADER = ["id", "value", "maybe", "count", "flag"]

# ids with the characters csv.writer quotes, plus a space it leaves alone
ids = st.text(alphabet=st.sampled_from('ab ,"\r\n1'), max_size=6)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 0.1, 1e16, 1e-5]))
rows = st.lists(st.tuples(ids, floats, floats, st.integers(-10**20, 10**20),
                          st.booleans()), max_size=30)
ending = st.sampled_from(["\r\n", "\n", "\r"])


def csv_writer_bytes(data) -> bytes:
    """The file csv.writer writes for the same rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    for sid, value, maybe, count, flag in data:
        writer.writerow([sid, repr(float(value)),
                         "" if np.isnan(maybe) else repr(float(maybe)),
                         count, int(flag)])
    return buf.getvalue().encode()


def write_table(path, data) -> None:
    sid, value, maybe, count, flag = zip(*data) if data else ((),) * 5
    table.write_csv(path, HEADER, [table.texts(sid), table.reprs(value),
                                   table.fmt(maybe), table.ints(count),
                                   table.flags(flag)])


def same_floats(a: np.ndarray, b) -> bool:
    """Bitwise equal, except that any NaN equals any NaN."""
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@settings(max_examples=150, deadline=None)
@given(data=rows)
def test_writer_matches_csv_writer_and_reads_back(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, data)
    assert path.read_bytes() == csv_writer_bytes(data)

    # a row of five empty fields is four commas, never a skipped blank line
    chunk = table.read_csv(path, HEADER)
    assert chunk.n_rows == len(data)
    if not data:
        return
    value = chunk.floats("value")
    maybe = chunk.floats("maybe", where=~chunk.equals("maybe", ""))
    count = [int(s) for s in chunk["count"]]
    flag = chunk.equals("flag", "1")
    sid, want_value, want_maybe, want_count, want_flag = zip(*data)
    assert chunk["id"] == list(sid)
    assert same_floats(value, want_value)
    assert same_floats(maybe, want_maybe)
    assert count == list(want_count)
    assert flag.tolist() == list(want_flag)


def test_reader_accepts_what_csv_reader_accepts(tmp_path):
    # LF and CR line ends, a blank line, a quoted field over two lines and
    # a quoted number
    path = tmp_path / "t.csv"
    path.write_text('a,b\n1,2.5\r\n\n"x\ny",3\r"4",-0.0\n5,1_0\n',
                    newline="")
    chunk = table.read_csv(path, ["a", "b"])
    assert chunk["a"] == ["1", "x\ny", "4", "5"]
    b = chunk.floats("b")
    assert b.tolist() == [2.5, 3.0, -0.0, 10.0]
    assert np.signbit(b[2])


@st.composite
def quoted_files(draw):
    """A CSV file: an optional preamble row, a header and data rows whose
    fields may hold commas, quotes and line ends, with blank lines among
    the rows and each line ended by CR, LF or CRLF. Returns the text, the
    preamble's row count and the header."""
    width = draw(st.integers(2, 4))
    header = draw(st.lists(ids, min_size=width, max_size=width, unique=True))
    data = draw(st.lists(st.lists(ids, min_size=width, max_size=width), max_size=8))
    preamble = draw(st.lists(st.lists(ids, min_size=1, max_size=3), max_size=1))
    lines = [",".join(map(table.quote, row)) for row in [*preamble, header]]
    for row in data:
        lines += [""] * draw(st.integers(0, 2)) + [",".join(map(table.quote, row))]
    ends = draw(st.lists(ending, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return text, len(preamble), header


@settings(max_examples=200, deadline=None)
@given(case=quoted_files())
def test_one_reader_pass_reads_and_counts_lines_as_csv_reader(tmp_path_factory,
                                                              case):
    """read_csv's columns are csv.reader's non-blank rows after the header,
    and chunk.error(k, ...) names the line_num at which csv.reader
    returned data row k."""
    text, preamble, header = case
    path = tmp_path_factory.mktemp("quoted") / "t.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = [next(reader) for _ in range(preamble + 1)]
        want, lines = [], []
        for row in reader:
            if row:
                want.append(row)
                lines.append(reader.line_num)
    chunk = table.read_csv(path, header, preamble=preamble)
    assert head[preamble] == header and chunk.preamble == head[:preamble]
    assert chunk.n_rows == len(want)
    for j, name in enumerate(header):
        assert chunk[name] == [row[j] for row in want]
    for k, line in enumerate(lines):
        assert str(chunk.error(k, "here")) == f"{path}:{line}: here"


def test_repeated_column_converts_like_float(tmp_path):
    path = tmp_path / "t.csv"
    texts = ["0.1", "1e-5", "-0.0", "0.0"] * 600
    path.write_text("a,b\n" + "".join(f"{t},x\n" for t in texts))
    got = table.read_csv(path, ["a", "b"]).floats("a")
    assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()


def oracle_reprs(values) -> list[str]:
    """``repr`` of every value, one by one."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def oracle_fmt(values) -> list[str]:
    return ["" if text == "nan" else text for text in oracle_reprs(values)]


def from_bits(*bits: int) -> list[float]:
    return np.array(bits, dtype=np.uint64).view(float).tolist()


# NaNs of both signs and with payloads, both zeros, both infinities,
# subnormals and the largest magnitudes
SPECIAL = [*from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                      0x7FF0000000000001, 0xFFF4000000000123),
           0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
           1e308, -1e308, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                     min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), max_size=300))
def test_reprs_and_fmt_give_the_text_of_each_value(pool, picks):
    # few distinct values, many repeats: each distinct bit pattern is
    # formatted once and its text shared
    values = np.array([pool[k % len(pool)] for k in picks], dtype=float)
    assert table.reprs(values) == oracle_reprs(values)
    assert table.fmt(values) == oracle_fmt(values)
    assert table.reprs(values.tolist()) == oracle_reprs(values)


def test_signed_zeros_and_nans_keep_their_text():
    values = [0.0, -0.0, math.nan, -math.nan, 0.0, -0.0, None]
    assert table.reprs(values) == ["0.0", "-0.0", "nan", "nan", "0.0", "-0.0", "nan"]
    assert table.fmt(values) == ["0.0", "-0.0", "", "", "0.0", "-0.0", ""]
    assert table.reprs([]) == table.fmt([]) == []


def test_chunk_of_blank_lines_holds_no_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n\r\n3,4\n\n", newline="")
    chunk = table.read_csv(path, ["a", "b"])
    assert (chunk.n_rows, chunk["a"], chunk["b"]) == (2, ["1", "3"], ["2", "4"])
    path.write_text("a,b\n\n\r\n", newline="")
    assert table.read_csv(path, ["a", "b"]).n_rows == 0


# name: (text, error)
MALFORMED_TABLES = {
    "empty": ("", r"t\.csv:1:"),
    "other_header": ("a,c\n1,2\n", r"t\.csv:1:"),
    "short_row": ("a,b\n1,2\n3\n", r"t\.csv:3: expected 2 fields, got 1"),
    "long_row": ("a,b\n1,2,3\n", r"t\.csv:2: expected 2 fields, got 3"),
    "non_numeric": ("a,b\n1,2\n\n3,x\n", r"t\.csv:4: b: not a number: 'x'"),
    "after_quoted_lines": ('a,b\n"1\n2",2\n3,x\n', r"t\.csv:4: b:"),
    "empty_number": ("a,b\n1,\n", r"t\.csv:2: b:"),
    # the file holds as many commas as two good rows: a count over the
    # whole file would pass it
    "long_then_short_row": ("a,b\n1,2,3\n4\n",
                            r"t\.csv:2: expected 2 fields, got 3"),
    "quoted_short_row": ('a,b\n"1",2\n3\n', r"t\.csv:3: expected 2 fields, got 1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
def test_malformed_table_names_path_and_line(name, tmp_path):
    body, message = MALFORMED_TABLES[name]
    path = tmp_path / "t.csv"
    path.write_text(body, newline="")
    with pytest.raises(ParseError, match=message):
        table.read_csv(path, ["a", "b"]).floats("b")


# ------------------------------------------------ read_floats, the C path

SEED_HEADER = ["t", "lead_pos", "lead_speed", "lead_acc",
               "foll_pos", "foll_speed", "foll_acc"]
HEADER_LINE = ",".join(SEED_HEADER)
# texts both readers take as numbers, and texts one or both reject
SPELLINGS = ["nan", "NaN", "-nan", "+nan", "NAN", "inf", "-inf", "+inf", "Inf",
             "Infinity", "-Infinity", "infinity", "iNfInItY", "1e400", "-1e400",
             "5e-324", "-5e-324", "4.9e-324", "2e-324", "2.2250738585072009e-308",
             "-0.0", "-0", "+0", ".5", "5.", "1e5", "1E-5", " 1", "1\t", "\x0b1\x0c"]
ODD = ["0_0.0", "1_000", "0x10", "1d5", "nan(1)", "", " ", "abc", "#", "#1",
       "١٢", "１", "\u00a01", "1\x00", "\x001", "\x1c1", "1\x1f", '"1.5"',
       '"nan"', "1,2", "1\r2"]
number = st.one_of(st.floats().map(repr), st.sampled_from(SPELLINGS))
odd_line = st.sampled_from(["", "", " ", "\t", "#", "# x", "\x00", ",,,,,,"])


@st.composite
def seed_files(draw) -> bytes:
    """A seed trajectory CSV: rows of numbers, written well half of the
    time; otherwise with a few edits that either reader may reject or read
    in its own way."""
    rows = draw(st.lists(st.lists(number, min_size=7, max_size=7), max_size=10))
    lines = [",".join(fields) for fields in rows]
    if not draw(st.booleans()):
        return "".join(text + "\r\n" for text in [HEADER_LINE] + lines).replace(
            "\r\n", draw(st.sampled_from(["\r\n", "\n"]))).encode()
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        kind = draw(st.sampled_from(["odd", "short", "long", "trailing", "line"]))
        if kind == "odd":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD))
        elif kind == "short":
            fields = fields[:draw(st.integers(1, 6))]
        elif kind == "long":
            fields.append(draw(number))
        elif kind == "trailing":
            fields.append("")
        lines[k] = ",".join(fields)
        if kind == "line":
            lines.insert(k, draw(odd_line))
    head = draw(st.sampled_from([HEADER_LINE] * 4 + [
        '"t",' + HEADER_LINE[2:], HEADER_LINE + ",", "\ufeff" + HEADER_LINE]))
    if draw(st.booleans()):
        ends = [draw(ending)] * (len(lines) + 1)  # one line end throughout
    else:
        ends = draw(st.lists(ending, min_size=len(lines) + 1,
                             max_size=len(lines) + 1))
    text = head + "".join(end + text for end, text in zip(ends, lines))
    if draw(st.booleans()):
        text += ends[-1]
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def python_reader(path) -> list[np.ndarray] | str:
    """The oracle: the Python reader's columns, or its error."""
    try:
        chunk = table.read_csv(path, SEED_HEADER)
        return [chunk.floats(name) for name in SEED_HEADER]
    except ParseError as exc:
        return str(exc)


def c_reader(path, data: bytes) -> list[np.ndarray] | str:
    try:
        return table.read_floats(path, SEED_HEADER, data)
    except ParseError as exc:
        return str(exc)


def assert_same_reading(path, data: bytes) -> None:
    path.write_bytes(data)
    want, got = python_reader(path), c_reader(path, data)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want) == len(SEED_HEADER)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # every bit, NaN sign included


def clean_seed(ending: str = "\r\n", rows: int = 3, edit=str, extra: str = "") -> str:
    """A seed file: the header, then `rows` rows of numbers, each line
    ended by `ending`; `edit` changes the text of each row, and `extra`
    follows them."""
    lines = [",".join(repr(0.01 * k + j) for j in range(7)) for k in range(rows)]
    return "".join(text + ending for text in [HEADER_LINE] + list(map(edit, lines))) + extra


def first_field(text: str):
    """An edit: the first field of a row becomes `text`, its number in `{}`."""
    return lambda row: text.format(row.split(",", 1)[0]) + "," + row.split(",", 1)[1]


# name: the file's text; each case is one that the C path must reject or
# read exactly as the Python reader does
READ_FLOATS_CASES = {
    "crlf": clean_seed("\r\n"),
    "lf": clean_seed("\n"),
    "cr_only": clean_seed("\r"),
    "no_final_line_end": clean_seed().rstrip("\r\n"),
    "blank_lines": clean_seed(edit=lambda row: row + "\r\n"),
    "whitespace_only_line": clean_seed(extra=" \r\n1,2,3,4,5,6,7\r\n"),
    "tab_only_line": clean_seed(extra="\t\r\n"),
    "quoted_number": clean_seed(edit=first_field('"{}"')),
    "spellings": clean_seed(rows=0, extra=",".join(
        ["nan", "-nan", "Infinity", "-inf", "iNf", "1e400", "-1e400"]) + "\r\n"),
    "subnormals": clean_seed(rows=0, extra=",".join(
        ["5e-324", "-5e-324", "2e-324", "4.9e-324", "2.2250738585072009e-308",
         "-0.0", "1e-400"]) + "\r\n"),
    "underscore": clean_seed(edit=first_field("0_{}")),
    "padded": clean_seed(edit=lambda row: row.replace(",", " ,\t")),
    "numpy_only_space": clean_seed(edit=first_field("{}\x1c")),
    "numpy_only_space_before": clean_seed(edit=first_field("\x1f{}")),
    "non_ascii_digit": clean_seed(edit=first_field("١")),
    "no_break_space": clean_seed(edit=first_field("\u00a0{}")),
    "nul": clean_seed(edit=first_field("{}\x00")),
    "nul_line": clean_seed(extra="\x00\r\n"),
    "comment_line": clean_seed(extra="# x\r\n"),
    "comment_field": clean_seed(edit=first_field("#{}")),
    "short_row": clean_seed(extra="1,2,3\r\n"),
    "long_row": clean_seed(extra=",".join(["1"] * 8) + "\r\n"),
    "all_rows_short": clean_seed(rows=0, extra="1,2\r\n3,4\r\n"),
    "trailing_comma": clean_seed(edit=lambda row: row + ","),
    "empty_body": clean_seed(rows=0),
    "only_line_ends": clean_seed(rows=0, extra="\r\n\n\r\n"),
    "header_only_no_line_end": HEADER_LINE,
    "empty_file": "",
    "quoted_header": '"t",' + clean_seed()[2:],
    "other_header": clean_seed().replace("foll_acc", "foll_jerk", 1),
}


# NumPy's warnings fail these tests. Hypothesis, writing the patch of a
# failing example from inside pytest's report hook, triggers a deprecation
# warning of mypy_extensions; as an error there it would end the whole run
WARNINGS_ARE_ERRORS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("name", sorted(READ_FLOATS_CASES))
def test_read_floats_equals_the_python_reader_on_each_case(name, tmp_path):
    assert_same_reading(tmp_path / "s.csv", READ_FLOATS_CASES[name].encode())


@WARNINGS_ARE_ERRORS
@settings(max_examples=200, deadline=None)
@given(data=seed_files())
def test_read_floats_equals_the_python_reader(tmp_path_factory, data):
    """Both readers give the same bits, or raise the same ParseError, and
    NumPy warns of nothing."""
    assert_same_reading(tmp_path_factory.mktemp("floats") / "s.csv", data)


@pytest.mark.parametrize("ending", ["\r\n", "\n"])
def test_read_floats_reads_a_clean_file_without_the_python_reader(
        ending, tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    path.write_bytes(clean_seed(ending, rows=5).encode())
    want = python_reader(path)

    def python_path(*args):
        raise AssertionError("fell back to the Python reader")

    monkeypatch.setattr(table, "read_csv", python_path)
    got = table.read_floats(path, SEED_HEADER, path.read_bytes())
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert all(a.flags.c_contiguous for a in got)
