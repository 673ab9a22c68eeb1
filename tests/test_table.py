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


def write_table(path, data, rows_per_chunk: int) -> None:
    def chunks():
        for start in range(0, len(data), rows_per_chunk):
            part = data[start:start + rows_per_chunk]
            sid, value, maybe, count, flag = zip(*part)
            yield (table.texts(sid), table.reprs(value), table.fmt(maybe),
                   table.ints(count), table.flags(flag))
    table.write_csv(path, HEADER, chunks())


def same_floats(a: np.ndarray, b) -> bool:
    """Bitwise equal, except that any NaN equals any NaN."""
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@settings(max_examples=150, deadline=None)
@given(data=rows, rows_per_chunk=st.integers(1, 7), read_rows=st.integers(1, 7))
def test_writer_matches_csv_writer_and_reads_back(tmp_path_factory, data,
                                                  rows_per_chunk, read_rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, data, rows_per_chunk)
    assert path.read_bytes() == csv_writer_bytes(data)

    # a row of five empty fields is four commas, never a skipped blank line
    parts = list(table.read_chunks(path, HEADER, rows=read_rows))
    assert sum(c.n_rows for c in parts) == len(data)
    if not data:
        return
    got_ids = [s for c in parts for s in c["id"]]
    value = np.concatenate([c.floats("value") for c in parts])
    maybe = np.concatenate([c.floats("maybe", where=~c.equals("maybe", ""))
                            for c in parts])
    count = [int(s) for c in parts for s in c["count"]]
    flag = np.concatenate([c.equals("flag", "1") for c in parts])
    sid, want_value, want_maybe, want_count, want_flag = zip(*data)
    assert got_ids == list(sid)
    assert same_floats(value, want_value)
    assert same_floats(maybe, want_maybe)
    assert count == list(want_count)
    assert flag.tolist() == list(want_flag)


def test_reader_accepts_what_csv_reader_accepts(tmp_path):
    # LF and CR line ends, a blank line, a quoted field over two lines and
    # a quoted number, read two lines at a time
    path = tmp_path / "t.csv"
    path.write_text('a,b\n1,2.5\r\n\n"x\ny",3\r"4",-0.0\n5,1_0\n',
                    newline="")
    parts = list(table.read_chunks(path, ["a", "b"], rows=2))
    assert [s for c in parts for s in c["a"]] == ["1", "x\ny", "4", "5"]
    b = np.concatenate([c.floats("b") for c in parts])
    assert b.tolist() == [2.5, 3.0, -0.0, 10.0]
    assert np.signbit(b[2])


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
    parts = list(table.read_chunks(path, ["a", "b"], rows=1))
    assert [c.n_rows for c in parts] == [1, 0, 0, 1, 0]
    assert [(c["a"], c["b"]) for c in parts] == [
        (["1"], ["2"]), ([], []), ([], []), (["3"], ["4"]), ([], [])]


# name: (text, error; optionally the rows per chunk, 1 if not given)
MALFORMED_TABLES = {
    "empty": ("", r"t\.csv:1:"),
    "other_header": ("a,c\n1,2\n", r"t\.csv:1:"),
    "short_row": ("a,b\n1,2\n3\n", r"t\.csv:3: expected 2 fields, got 1"),
    "long_row": ("a,b\n1,2,3\n", r"t\.csv:2: expected 2 fields, got 3"),
    "non_numeric": ("a,b\n1,2\n\n3,x\n", r"t\.csv:4: b: not a number: 'x'"),
    "after_quoted_lines": ('a,b\n"1\n2",2\n3,x\n', r"t\.csv:4: b:"),
    "empty_number": ("a,b\n1,\n", r"t\.csv:2: b:"),
    # the chunk holds as many commas as two good rows: a count over the
    # whole chunk would pass it
    "long_then_short_row": ("a,b\n1,2,3\n4\n",
                            r"t\.csv:2: expected 2 fields, got 3", None),
    "quoted_short_row": ('a,b\n"1",2\n3\n', r"t\.csv:3: expected 2 fields, got 1",
                         None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
def test_malformed_table_names_path_and_line(name, tmp_path):
    body, message, *rows = MALFORMED_TABLES[name]
    path = tmp_path / "t.csv"
    path.write_text(body, newline="")
    with pytest.raises(ParseError, match=message):
        for chunk in table.read_chunks(path, ["a", "b"], rows=rows[0] if rows else 1):
            chunk.floats("b")
