"""Column-at-a-time CSV files: seed trajectories, input tables, histograms
and per-seed reports.

Dialect. A file holds what ``csv.writer`` writes in its default dialect,
and reads back as ``csv.reader`` reads it:

- fields are separated by commas and every row ends in CRLF;
- the first row is the header, and every table has two or more columns;
- a float is ``repr(float(x))``, the shortest text that reads back to the
  same bits, and NaN is written ``nan``;
- a text field that holds a comma, a double quote, CR or LF is enclosed in
  double quotes, with each double quote doubled (``csv.QUOTE_MINIMAL``).

``read_csv`` reads a file whole, in one ``csv.reader`` pass, as a ``Chunk``
of text columns: it accepts every file ``csv.reader`` parses (quoted
fields, any line ending) and skips blank lines. For each data row the pass
records the line on which the row ends, so a missing or different header,
a row with the wrong number of fields, or a field that does not convert
raises ParseError naming ``path:line``. It reads the input tables (glance
and deceleration distributions, occupant records, injury-risk curves) and
histogram files, and it is the Python reader behind ``read_floats``.
weight's per-seed weights.csv is a report that no stage reads back.

``read_floats`` reads a file whose every column is a float, such as a seed
trajectory, from bytes the caller has read: after the header line, NumPy's
C parser reads the rest. The Python reader, ``read_csv`` and
``Chunk.floats``, is its oracle, and it takes over whenever the C parser
rejects the file or might read it differently. So ``read_floats`` gives
the same bits, and raises the same ParseError, as the Python reader.

Cost. Tables repeat values (the accelerations of a seed trajectory, which
hold over many steps), so writing formats each distinct float bit pattern
once and shares its text among the fields that hold it. ``read_floats``
makes no Python object per field. NumPy's parser takes the body of a file
whose first line is the header, ended by CRLF or LF. The Python reader
takes over on any other first line; on a body that is empty or holds only
line ends (NumPy would warn that it holds no data); on a byte from 0x1C to
0x1F, which NumPy skips as whitespace around a number and ``float``
rejects; on a ValueError, a UnicodeDecodeError included (a non-ASCII byte,
a quote, a CR-only line end, ``0_0.0``, a short or long row); and on rows
that are all as wide as each other but not as the header.

Memory. ``read_csv`` holds one Python string per field until its caller
drops the chunk; the files it reads have a row per bin or occupant.
``read_floats`` holds the file's bytes, which its caller read whole, and
its numbers twice while it lays them out column by column.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import ParseError

_NEEDS_QUOTES = (",", '"', "\r", "\n")
# bytes NumPy's float parser skips as whitespace and ``float`` rejects
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


# ----------------------------------------------------------------- writing

def reprs(values) -> list[str]:
    """Each value as ``repr`` of a float, and every NaN as ``nan``. Each
    distinct bit pattern is formatted once: keys are bits, not float
    equality, which would merge -0.0 into 0.0."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = ["nan" if x != x else repr(x) for x in distinct.view(float).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def quote(text: str) -> str:
    """One text field, quoted the way ``csv.writer`` quotes it."""
    if any(c in text for c in _NEEDS_QUOTES):
        return '"' + text.replace('"', '""') + '"'
    return text


def texts(values) -> list[str]:
    """Each text quoted as ``quote`` does."""
    return list(map(quote, values))


def write_csv(path: str | Path, header: Sequence[str],
              columns: Sequence[Sequence[str]]) -> None:
    """Write `header`, then `columns`: equally long columns of formatted
    fields, one column per header name."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} names")
    lines = [",".join(map(quote, header)), *map(",".join, zip(*columns))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# ----------------------------------------------------------------- reading

class Chunk:
    """The data rows of a file, held as text columns."""

    def __init__(self, path: Path, header: Sequence[str], fields: list[str],
                 preamble: Sequence[list[str]], lines: list[int]):
        """`fields` holds the file's data rows one after another, each as
        wide as `header`, and `lines` the line on which each row ends;
        `preamble`, the file's rows before its header."""
        self.path = path
        self.preamble = preamble
        self.n_rows = len(lines)
        self._lines = lines
        width = len(header)
        self._columns = {name: fields[k::width] for k, name in enumerate(header)}

    def __getitem__(self, name: str) -> list[str]:
        return self._columns[name]

    def error(self, row: int, message: str) -> ParseError:
        """A ParseError naming the line on which data row `row` ends."""
        return ParseError(f"{self.path}:{self._lines[row]}: {message}")

    def floats(self, name: str) -> np.ndarray:
        """Column `name` converted with ``float``."""
        column = self._columns[name]
        try:
            return np.fromiter(map(float, column), dtype=float, count=self.n_rows)
        except ValueError:
            bad = next(k for k, text in enumerate(column) if not is_float(text))
            raise self.error(bad, f"{name}: not a number: {column[bad]!r}") from None

    def indices(self, name: str, n: int) -> np.ndarray:
        """Column `name` as integers, each the decimal digits of one of
        0 .. n-1."""
        index = {str(k): k for k in range(n)}
        column = self._columns[name]
        try:
            return np.fromiter(map(index.__getitem__, column), dtype=np.intp,
                               count=self.n_rows)
        except KeyError:
            bad = next(i for i, text in enumerate(column) if text not in index)
            raise self.error(bad, f"{name}: not an index below {n}: "
                                  f"{column[bad]!r}") from None


def is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_csv(path: str | Path, header: Sequence[str],
             preamble: Sequence[str] = ()) -> Chunk:
    """Every data row of a CSV file with `header` after one row for each
    of `preamble`, which says what belongs in it, as one chunk. A file that
    ends before a preamble row raises ParseError naming its line and what
    belongs there."""
    path, width, n_pre = Path(path), len(header), len(preamble)
    fields, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            head = list(itertools.islice(reader, n_pre + 1))
            if len(head) < n_pre:
                raise ParseError(f"{path}:{len(head) + 1}: expected {preamble[len(head)]}")
            if head[n_pre:] != [list(header)]:
                raise ParseError(f"{path}:{n_pre + 1}: expected header "
                                 f"{','.join(header)}")
            for row in filter(None, reader):
                if len(row) != width:
                    raise ParseError(f"{path}:{reader.line_num}: expected "
                                     f"{width} fields, got {len(row)}")
                fields += row
                lines.append(reader.line_num)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: unreadable CSV: {exc}") from exc
    return Chunk(path, header, fields, head[:n_pre], lines)


def read_floats(path: str | Path, header: Sequence[str],
                data: bytes) -> list[np.ndarray]:
    """The columns of a CSV file with `header` whose every column is a
    float, in header order, from `data`, the bytes of `path`: what
    ``read_csv(path, header).floats(name)`` gives for each name, bit for
    bit, and the same ParseError where that raises one. NumPy's C parser
    reads the body; whatever it rejects, or might read differently, the
    Python reader reads from `path` (see the module docstring)."""
    head, _, body = data.partition(b"\n")
    if (head.removesuffix(b"\r") == ",".join(map(quote, header)).encode()
            and body.strip(b"\r\n")
            and not any(c in body for c in _NUMPY_ONLY_SPACE)):
        try:
            rows = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None,
                              dtype=float, ndmin=2, encoding="ascii")
        except ValueError:  # UnicodeDecodeError is one
            pass
        else:
            if rows.shape[1] == len(header):
                # one contiguous array per column, as the Python reader gives
                return list(np.ascontiguousarray(rows.T))
    chunk = read_csv(path, header)
    return [chunk.floats(name) for name in header]
