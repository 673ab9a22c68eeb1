"""Column-at-a-time CSV files: seed trajectories, outcome matrices,
per-seed summaries, weights and histograms.

Dialect. A file holds what ``csv.writer`` writes in its default dialect,
and reads back as ``csv.reader`` reads it:

- fields are separated by commas and every row ends in CRLF;
- the first row is the header, and every table has two or more columns;
- a float is ``repr(float(x))``, the shortest text that reads back to the
  same bits;
- a missing value (None, or NaN in a column that allows missing values)
  is an empty field; elsewhere NaN is written ``nan``;
- a flag is ``0`` or ``1``, an integer its decimal digits;
- a text field that holds a comma, a double quote, CR or LF is enclosed in
  double quotes, with each double quote doubled (``csv.QUOTE_MINIMAL``).

Reading accepts every file ``csv.reader`` parses: quoted fields, any line
ending, and blank lines, which are skipped. ``read_chunks`` works through
bounded chunks of rows, so memory does not grow with the file;
``read_csv`` reads a small file whole. A missing or different header, a
row with the wrong number of fields, or a field that does not convert
raises ParseError naming ``path:line``.

``read_floats`` reads a file whose every column is a float, such as a seed
trajectory, from bytes the caller has read: after the header line, NumPy's
C parser reads the rest. The Python reader, ``read_csv`` and
``Chunk.floats``, is its oracle, and it takes over whenever the C parser
rejects the file or might read it differently. So ``read_floats`` gives
the same bits, and raises the same ParseError, as the Python reader.

Cost. Tables repeat values (a seed's id on every row of its seed, the
empty speeds of each outcome-matrix cell without a crash), so the work
follows what is distinct:

- writing formats each distinct float bit pattern once and shares its
  text among the fields that hold it;
- reading splits a chunk without quotes once, as one text, after checking
  that every line holds one comma fewer than the header has names; a chunk
  with quotes goes through ``csv.reader`` row by row;
- ``read_floats`` makes no Python object per field. NumPy's parser takes
  the body of a file whose first line is the header, ended by CRLF or LF.
  The Python reader takes over on any other first line; on a body that is
  empty or holds only line ends (NumPy would warn that it holds no data);
  on a byte from 0x1C to 0x1F, which NumPy skips as whitespace around a
  number and ``float`` rejects; on a ValueError, a UnicodeDecodeError
  included (a non-ASCII byte, a quote, a CR-only line end, ``0_0.0``, a
  short or long row); and on rows that are all as wide as each other but
  not as the header.

Memory. ``read_chunks`` holds one chunk at a time, ``CHUNK_ROWS`` rows:
its lines, their joined text and one Python string per field. Those are
dropped when the caller moves to the next chunk, so what a reader keeps
per file is only what it builds from each chunk, such as numeric columns.
``write_csv`` holds the formatted fields of one chunk of columns at a
time, so a writer that yields its columns in pieces holds one piece.
``read_floats`` holds the file's bytes, which its caller read whole, and
its numbers twice while it lays them out column by column.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .errors import ParseError

CHUNK_ROWS = 2048
_PROBE_ROWS = 1024
_NEEDS_QUOTES = (",", '"', "\r", "\n")
# bytes NumPy's float parser skips as whitespace and ``float`` rejects
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


# ----------------------------------------------------------------- writing

def reprs(values) -> list[str]:
    """Each value as ``repr`` of a float."""
    return _float_texts(values, "nan")


def fmt(values) -> list[str]:
    """Each value as ``repr`` of a float; None and NaN, a missing value,
    as an empty field."""
    return _float_texts(values, "")


def _float_texts(values, nan: str) -> list[str]:
    """Each value as ``repr`` of a float, and every NaN as `nan`. Each
    distinct bit pattern is formatted once: keys are bits, not float
    equality, which would merge -0.0 into 0.0."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = [nan if x != x else repr(x) for x in distinct.view(float).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def flags(values) -> list[str]:
    """Each truth value as ``0`` or ``1``."""
    return list(map(("0", "1").__getitem__, np.asarray(values, dtype=bool).tolist()))


def ints(values) -> list[str]:
    """Each value as the decimal digits of an integer."""
    return list(map(str, map(int, values)))


def quote(text: str) -> str:
    """One text field, quoted the way ``csv.writer`` quotes it."""
    if any(c in text for c in _NEEDS_QUOTES):
        return '"' + text.replace('"', '""') + '"'
    return text


def texts(values) -> list[str]:
    """Each text quoted as ``quote`` does; each distinct text once."""
    values = list(values)
    quoted = {text: quote(text) for text in dict.fromkeys(values)}
    return list(map(quoted.__getitem__, values))


def write_csv(path: str | Path, header: Sequence[str],
              chunks: Iterable[Sequence[Sequence[str]]]) -> None:
    """Write `header`, then each chunk: a sequence of equally long columns
    of formatted fields, one column per header name."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(quote, header)) + "\r\n")
        for columns in chunks:
            if len(columns) != len(header):
                raise ValueError(f"{len(columns)} columns for {len(header)} names")
            lines = "\r\n".join(map(",".join, zip(*columns)))
            if lines:
                fh.write(lines + "\r\n")


# ----------------------------------------------------------------- reading

class Chunk:
    """Consecutive data rows of a file, held as text columns."""

    def __init__(self, path: Path, header: Sequence[str], first_row: int,
                 fields: list[str], preamble: Sequence[list[str]] = ()):
        """`fields` holds the chunk's rows one after another, each as wide
        as `header`; `preamble`, the file's rows before its header."""
        self.path = path
        # the index of the first row among the rows after the file's first
        self.first_row = first_row
        self.preamble = preamble
        width = len(header)
        self.n_rows = len(fields) // width
        self._columns = {name: fields[k::width] for k, name in enumerate(header)}

    def __getitem__(self, name: str) -> list[str]:
        return self._columns[name]

    def error(self, row: int, message: str) -> ParseError:
        return row_error(self.path, self.first_row + row, message)

    def floats(self, name: str, where: np.ndarray | None = None) -> np.ndarray:
        """Column `name` converted with ``float``; with `where`, only the
        rows it marks are converted and the others read NaN."""
        column = self._columns[name]
        if where is not None:
            out = np.full(self.n_rows, np.nan)
            out[where] = self._floats(name, list(itertools.compress(
                column, where.tolist())), np.flatnonzero(where))
            return out
        return self._floats(name, column)

    def _floats(self, name: str, fields: list[str],
                rows: np.ndarray | None = None) -> np.ndarray:
        """`fields` of column `name`, from the chunk's `rows` (all rows if
        None), converted with ``float``."""
        try:
            # a column that repeats a few values converts each distinct
            # text once
            probe = fields[:_PROBE_ROWS]
            if 2 * len(set(probe)) <= len(probe):
                value = {text: float(text) for text in dict.fromkeys(fields)}
                return np.fromiter(map(value.__getitem__, fields), dtype=float,
                                   count=len(fields))
            return np.fromiter(map(float, fields), dtype=float, count=len(fields))
        except ValueError:
            bad = next(i for i, text in enumerate(fields) if not is_float(text))
            row = bad if rows is None else int(rows[bad])
            raise self.error(row, f"{name}: not a number: {fields[bad]!r}") from None

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

    def flags(self, name: str) -> np.ndarray:
        """Column `name` as truth values, each field exactly 0 or 1."""
        ones = self.equals(name, "1")
        valid = ones | self.equals(name, "0")
        if not valid.all():
            bad = int(np.argmin(valid))
            raise self.error(bad, f"{name}: expected 0 or 1, got "
                                  f"{self._columns[name][bad]!r}")
        return ones

    def codes(self, name: str, index: dict[str, int]) -> np.ndarray:
        """Column `name` as integer codes from `index`, which gains a new
        code for each text it does not hold yet."""
        column = self._columns[name]
        for text in dict.fromkeys(column):
            index.setdefault(text, len(index))
        return np.fromiter(map(index.__getitem__, column), dtype=np.intp,
                           count=self.n_rows)

    def equals(self, name: str, text: str) -> np.ndarray:
        """Whether each field of column `name` is exactly `text`."""
        return np.fromiter(map(text.__eq__, self._columns[name]), dtype=bool,
                           count=self.n_rows)


def is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_chunks(path: str | Path, header: Sequence[str],
                rows: int | None = CHUNK_ROWS, preamble: int = 0) -> Iterator[Chunk]:
    """The data rows of a CSV file with `header` after `preamble` rows, in
    chunks of at most `rows` rows (None: the whole file in one chunk)."""
    path = Path(path)
    with open(path, newline="") as fh:
        try:
            head = list(itertools.islice(csv.reader(fh), preamble + 1))
            if head[preamble:] != [list(header)]:
                raise ParseError(f"{path}:{preamble + 1}: expected header "
                                 f"{','.join(header)}")
            first, width = preamble, len(header)
            while True:
                lines = list(itertools.islice(fh, rows))
                if not lines:
                    return
                if '"' in "".join(lines):
                    # quoted fields may span lines: csv.reader takes one
                    # row per line of the chunk, and more lines as it needs
                    batch = list(filter(None, itertools.islice(
                        csv.reader(itertools.chain(lines, fh)), len(lines))))
                    if set(map(len, batch)) - {width}:
                        raise _width_error(path, first, width, map(len, batch))
                    fields = list(itertools.chain.from_iterable(batch))
                else:
                    # without quotes a line is a row and a comma a separator:
                    # once every line holds width - 1 commas, the chunk
                    # splits as one text
                    lines = list(filter(None, map(str.rstrip, lines,
                                                  itertools.repeat("\r\n"))))
                    if set(map(str.count, lines, itertools.repeat(","))) - {width - 1}:
                        raise _width_error(path, first, width, (
                            line.count(",") + 1 for line in lines))
                    fields = ",".join(lines).split(",") if lines else []
                chunk = Chunk(path, header, first, fields, head[:preamble])
                yield chunk
                first += chunk.n_rows
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: unreadable CSV: {exc}") from exc


def _width_error(path: Path, first_row: int, width: int,
                 sizes: Iterable[int]) -> ParseError:
    """The error for the first row whose field count in `sizes` is not
    `width`; the rows are counted from data row `first_row`."""
    bad, size = next((i, n) for i, n in enumerate(sizes) if n != width)
    return row_error(path, first_row + bad, f"expected {width} fields, got {size}")


def read_csv(path: str | Path, header: Sequence[str], preamble: int = 0) -> Chunk:
    """Every data row of a small CSV file as one chunk; without rows, no preamble."""
    whole = list(read_chunks(path, header, None, preamble))
    return whole[0] if whole else Chunk(Path(path), header, preamble, [])


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


def row_error(path: str | Path, row: int, message: str) -> ParseError:
    """A ParseError naming the line on which data row `row` (0-based, blank
    rows not counted) of `path` ends, as csv.reader counts lines."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for index, _ in enumerate(r for r in reader if r):
            if index == row:
                break
        return ParseError(f"{path}:{reader.line_num}: {message}")
