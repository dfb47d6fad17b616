"""Tables held as columns, and the CSV text they are written to and read from.

`ColumnTable` holds packet and flow rows as columns, addresses coded
against a small address table.  `write_rows` turns columns (a table's, or a
dataset's matrix and labels) into text a block of rows at a time, through
cells built by digit arithmetic or by `format_once`; `read_rows` reads a CSV
file back into columns, with numpy's C tokenizer where it reads as the csv
module would and the csv module elsewhere, and rejects a cell outside its
column's bound by path, line and column.  `open_text` and `parsed` give the
other text files (models, scenario configs) the same rejections, and
`create_text` opens every file the package writes.  Every text file is
UTF-8, whatever the locale.

Both `write_rows` and `read_rows` cut a table into contiguous runs of rows
and handle them side by side, through the `spread` their caller passes
(`parallel.spread_rows`), so that this module forks nothing itself.  A
written run other than the first is formatted into a file that no path
names and appended to the file in run order by the kernel; a read run fills
its rows of columns that the runs share, its texts coded against a table of
its own, merged in run order.  Either way the file, and the columns and
texts read, are those of one run.  The module knows nothing of the
simulation, the meter or the detectors.
"""

from __future__ import annotations

import csv
import math
import mmap
import os
import sys
import warnings
from collections.abc import Sequence
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable

import numpy as np

ROW_BLOCK = 1 << 14  # rows simulated, metered (in whole flows), turned into text or read from it at a time
FLOW_BLOCK = 256  # flows (or dataset rows) formatted at a time
_CELL_BLOCK = 1 << 12  # cells parsed at a time: few, so the csv module's row lists die young
_TEXT_BLOCK = 1 << 18  # bytes of whole lines the tokenizer reads at a time, ROW_BLOCK lines at most
_PAD = 0xFF  # pads a cell's bytes; no UTF-8 text holds it
PORTS = range(1 << 16)
INT64 = range(-(1 << 63), 1 << 63)
LENGTHS = range(INT64.stop)


@dataclass(frozen=True)
class TextRule:
    """A text column's bound: the texts `holds` is true of; `reason` says what another text is not."""

    holds: Callable[[str], bool]
    reason: str


def _dotted_quad(text: str) -> bool:
    octets = text.split(".")
    return len(octets) == 4 and all(o.isascii() and o.isdigit() and len(o) <= 3 and int(o) <= 255 for o in octets)


IPV4 = TextRule(_dotted_quad, "not an IPv4 address")  # four dot-separated decimal octets, each 0..255


def _address_codes(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """The distinct addresses of `columns`, in the order they first show, one
    column after the other, and each column's cells as indices into them."""
    index = {a: i for i, a in enumerate(dict.fromkeys(chain.from_iterable(columns)))}
    return list(index), [np.fromiter(map(index.__getitem__, c), np.int64, len(c)) for c in columns]


def decoded(codes: np.ndarray, texts: Sequence[str]) -> list[str]:
    """The text each code indexes in `texts`."""
    return list(map(texts.__getitem__, codes.tolist()))


class ColumnTable:
    """Rows held as columns, read-only.

    A subclass names its ``COLUMNS``, their ``DTYPES`` and ``SHAPES`` for a
    column holding a row of values per row.  The ``src`` and ``dst`` columns
    index ``addresses``, a small table of address strings, some perhaps
    unused.  A slice, a row mask or an array of row numbers yields a table of
    those rows.  A table keeps the arrays it is given behind read-only views.
    """

    COLUMNS: tuple[str, ...]
    DTYPES: tuple
    SHAPES: dict[str, tuple[int, ...]] = {}
    ADDRESS_COLUMNS = ("src", "dst")

    def __init__(self, addresses: Sequence[str], *columns):
        self.addresses = tuple(addresses)
        for name, dtype, values in zip(self.COLUMNS, self.DTYPES, columns, strict=True):
            shape = (len(columns[0]), *self.SHAPES.get(name, ()))
            values = np.asarray(values, dtype=dtype)
            values = values.view() if values.size else values.reshape(shape)
            if values.shape != shape:
                raise ValueError(f"{type(self).__name__} column {name} has shape {values.shape}, expected {shape}")
            values.flags.writeable = False
            setattr(self, name, values)

    @classmethod
    def empty(cls) -> "ColumnTable":
        return cls((), *[()] * len(cls.COLUMNS))

    @classmethod
    def from_coded(cls, columns: dict[str, np.ndarray], texts: dict[str, list[str]]) -> "ColumnTable":
        """A table from columns as `read_rows` gives them, by name: the
        address columns' codes into their own text tables recoded over the
        one table `_address_codes` merges from those, and any other text
        column decoded."""
        addresses, where = _address_codes(*(texts[name] for name in cls.ADDRESS_COLUMNS))
        columns = {**columns, **{name: w[columns[name]] for name, w in zip(cls.ADDRESS_COLUMNS, where)}}
        for name in texts.keys() - set(cls.ADDRESS_COLUMNS):
            columns[name] = decoded(columns[name], texts[name])
        return cls(addresses, *(columns[name] for name in cls.COLUMNS))

    @classmethod
    def gathered(cls, tables: Sequence["ColumnTable"], rows: Sequence[np.ndarray],
                 order: np.ndarray) -> tuple[list[str], dict[str, np.ndarray]]:
        """The address table and the columns, by name and still writable, of
        a table of the rows `rows[i]` of each of `tables` taken one table
        after another and then put in `order` (row j is row `order[j]` of
        those), over the tables' address tables merged by `_address_codes`.
        Each column is allocated once and filled a table at a time."""
        addresses, where = _address_codes(*(t.addresses for t in tables))
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        places = np.split(place, np.cumsum([len(r) for r in rows[:-1]]))
        columns = {}
        for name, dtype in zip(cls.COLUMNS, cls.DTYPES):
            column = columns[name] = np.empty((len(order), *cls.SHAPES.get(name, ())), dtype=dtype)
            for t, r, w, at in zip(tables, rows, where, places):
                values = getattr(t, name)[r]
                column[at] = w[values] if name in cls.ADDRESS_COLUMNS else values
        return addresses, columns

    def with_columns(self, addresses: Sequence[str] | None = None, **columns) -> "ColumnTable":
        """A table of the same type with the given columns, or address table, replaced."""
        return type(self)(self.addresses if addresses is None else addresses,
                          *(columns.get(name, getattr(self, name)) for name in self.COLUMNS))

    def __len__(self) -> int:
        return len(getattr(self, self.COLUMNS[0]))

    def __getitem__(self, rows: slice | np.ndarray) -> "ColumnTable":
        return self.with_columns(**{name: getattr(self, name)[rows] for name in self.COLUMNS})

    __iter__ = None  # not iterable: Python would otherwise index it by int, which it does not take


def format_once(values, fmt) -> np.ndarray:
    """The cells (see `write_rows`) of ``fmt(v)`` for each value, each
    distinct value formatted once: the texts are the only Python objects made
    per value, and only per distinct value.  Floats are told apart by their
    bits, so -0.0 and every NaN payload keep their own text.  The texts are
    encoded by one join, as UTF-8 with surrogates passed, which decodes back
    to every str."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    texts = list(map(fmt, distinct.view(values.dtype).tolist()))
    joined = "".join(texts)
    data = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
    lengths = map(len, texts) if len(data) == len(joined) else (len(t.encode("utf-8", "surrogatepass")) for t in texts)
    lengths = np.fromiter(lengths, np.int64, len(texts))
    width = int(lengths.max(initial=0))
    table = np.full((len(texts), width), _PAD, np.uint8)
    table[np.arange(width) >= width - lengths[:, None]] = data
    return table[inverse].reshape(*values.shape, width)


def _digits(magnitudes: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each uint64 as ASCII, right-aligned,
    the zeros before its first digit replaced by _PAD (0 keeps its digit)."""
    out = np.empty((len(magnitudes), width), np.uint8)
    for k in range(width - 1, -1, -1):
        quotient = magnitudes // np.uint64(10)
        out[:, k] = magnitudes - quotient * np.uint64(10) + np.uint64(ord("0"))
        if k < width - 1:
            np.copyto(out[:, k], _PAD, where=magnitudes == 0)
        magnitudes = quotient
    return out


def _width(magnitudes: np.ndarray) -> int:
    """The decimal digits of the largest uint64."""
    return len(str(int(magnitudes.max(initial=0))))


def _decimal_cells(values: np.ndarray, sep: str) -> np.ndarray:
    """The cells (see `write_rows`) of ``f"{v}{sep}"`` for each int64, by
    digit arithmetic, with no Python object per value."""
    negative = values < 0
    # -(-2**63) wraps to itself, whose bits read as the uint64 2**63.
    magnitudes = np.where(negative, -values, values).view(np.uint64)
    width = _width(magnitudes)
    cells = np.empty((len(values), 1 + width + len(sep)), np.uint8)
    cells[:, 0] = np.where(negative, ord("-"), _PAD)  # the padding between sign and digits drops out
    cells[:, 1 : width + 1] = _digits(magnitudes, width)
    cells[:, width + 1 :] = np.frombuffer(sep.encode(), np.uint8)
    return cells


def _seconds_cells(ts: np.ndarray) -> np.ndarray:
    """The cells (see `write_rows`) of ``f"{t:.6f},"`` for each float.

    A time t of n = rint(t * 1e6) microseconds with n / 1e6 == t, t >= 0
    without a sign bit and t < 2**33 s is written as ``<n // 10**6>.<n %
    10**6:06d>`` by digit arithmetic: t is then the double nearest n / 10**6,
    within half an ulp (at most 2**-21 s) of it, so rounding t's exact value
    to six decimals gives n, with no tie.  Every other time is formatted once
    per distinct value (`format_once`)."""
    fast = (ts >= 0) & (ts < 2.0**33) & ~np.signbit(ts)  # NaN fails the comparisons
    micros = np.rint(np.where(fast, ts, 0.0) * 1e6)
    fast &= micros / 1e6 == ts
    micros = micros.astype(np.uint64)
    seconds = micros // np.uint64(10**6)
    width = _width(seconds)
    cells = np.empty((len(ts), width + 8), np.uint8)
    cells[:, :width] = _digits(seconds, width)
    cells[:, width] = ord(".")
    cells[:, width + 1 : -1] = _digits(micros % np.uint64(10**6) + np.uint64(10**6), 7)[:, 1:]  # zero-padded
    cells[:, -1] = ord(",")
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = format_once(ts[slow], "{:.6f},".format)
        cells = np.pad(cells, ((0, 0), (max(0, texts.shape[1] - cells.shape[1]), 0)), constant_values=_PAD)
        cells[slow] = _PAD
        cells[slow, cells.shape[1] - texts.shape[1] :] = texts
    return cells


def write_rows(fh, columns: Sequence[tuple], block: int, spread) -> None:
    """Write the rows of `columns`, `block` rows at a time, to the text file
    `fh`.  A column pairs a sequence, one entry (or, in a 2-D array, one row
    of entries) per row, with the function that turns a block of it into
    cells: a uint8 array with one more axis than the block, holding each
    entry's text, its separator included, as UTF-8 bytes among _PAD bytes.
    A block is its cells in row order with the padding dropped, decoded into
    one string and written at once: no Python object is made per cell.

    `spread(rows, cells per row, prepare)` cuts the rows into contiguous
    runs and writes them side by side (`parallel.spread_rows`): run 0 into
    `fh`, each other run into a UTF-8 file of its own that no path names,
    whose bytes are then appended to `fh` in run order by the kernel."""
    rows = len(columns[0][0])
    width = sum(math.prod(np.shape(values[:1])[1:]) for values, _ in columns)
    with ExitStack() as stack:
        sinks = [fh]

        def prepare(runs: list[range]) -> Callable[[int], None]:
            sinks.extend(stack.enter_context(_unnamed_text()) for _ in runs[1:])
            return lambda i: _write_run(sinks[i], [(values[runs[i].start : runs[i].stop], cells_of)
                                                   for values, cells_of in columns], block)

        spread(rows, width, prepare)
        fh.flush()
        for sink in sinks[1:]:
            size, offset = os.fstat(sink.fileno()).st_size, 0
            while offset < size and (sent := os.sendfile(fh.fileno(), sink.fileno(), offset, size - offset)):
                offset += sent


def _write_run(fh, columns: Sequence[tuple], block: int) -> None:
    """The rows of `columns` written to `fh` as `write_rows` writes them, and flushed."""
    for lo in range(0, len(columns[0][0]), block):
        cells = [cells_of(values[lo : lo + block]) for values, cells_of in columns]
        chars = np.concatenate([c.reshape(len(c), -1) for c in cells], axis=1)
        fh.write(str(chars[chars != _PAD], "utf-8", "surrogatepass"))
    fh.flush()


def _unnamed_text():
    """A new UTF-8 text file open for writing that no path names: a memfd,
    or an unlinked temporary file where the platform has no memfd."""
    if hasattr(os, "memfd_create"):
        return open(os.memfd_create("ddsids-run"), "w", encoding="utf-8")
    import tempfile  # only a platform without memfd needs it; importing it costs start-up time

    return tempfile.TemporaryFile("w", encoding="utf-8")


def _line_stats(path) -> tuple[int, bool, np.ndarray]:
    """(bytes in the longest line, whether a carriage return or a NUL
    occurs, the byte offset at which each line starts) of a file, read 1 MiB
    at a time."""
    longest = start = size = 0  # `start`: the offset of the line being read
    odd = False
    starts = [np.zeros(1, np.int64)]
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + (size + 1)
            if len(ends):
                longest = max(longest, int(ends[0]) - start, int(np.diff(ends).max(initial=0)))
                start = int(ends[-1])
                starts.append(ends)
            size += len(chunk)
            odd = odd or b"\r" in chunk or b"\0" in chunk
    if size > start:
        longest = max(longest, size - start)
    else:
        starts[-1] = starts[-1][:-1]  # the end of the file starts no line
    return longest, odd, np.concatenate(starts)


def tokenized_rows(lines: list[str], dtype: np.dtype, quotechar: str | None = None) -> np.ndarray | None:
    """A block of text lines read by numpy's C tokenizer into a structured
    array of `dtype`; None where that read could differ from the csv
    module's.  Its quoting is the csv module's (a quote opens a quoted field
    only as the field's first character), and it raises on a field count off
    the dtype's, a cell that is no number and an integer beyond 64 bits.  It
    skips blank lines and reads a quoted field on over a newline, so the rows
    must number the lines, and the last line must not end inside a quoted
    field, which the next block would go on with."""
    if quotechar:
        try:
            next(csv.reader(lines[-1:], quotechar=quotechar, strict=True), None)
        except csv.Error:
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of input with no rows
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=quotechar, ndmin=1)
    except (ValueError, UserWarning):
        return None
    return rows if len(rows) == len(lines) else None


def _gathered(blocks, dtype: np.dtype, columns: dict[str, np.ndarray]) -> dict[str, list[str]] | None:
    """The structured arrays of `dtype` in `blocks` written block by block
    into `columns`, one array per field as `_empty_columns` makes them, and
    the table of each text field's distinct texts in the order they first
    show, the field's cells coded as int64 indices into it; None at a block
    that is None.  No cell's text outlives its block but as a table entry."""
    tables: dict[str, dict[str, int]] = {name: {} for name in dtype.names if dtype[name] == object}
    lo = 0
    for block in blocks:
        if block is None:
            return None
        for name, column in columns.items():
            cells = block[name]
            if name in tables:
                table = tables[name]
                for text in dict.fromkeys(cells):
                    table.setdefault(text, len(table))
                cells = np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))
            column[lo : lo + len(block)] = cells
        lo += len(block)
    return {name: list(table) for name, table in tables.items()}


def _empty_columns(dtype: np.dtype, rows: int, shared: bool) -> dict[str, np.ndarray]:
    """An empty array of `rows` rows per field of `dtype`, a text field's as
    int64 codes; where `shared`, each in an anonymous mapping of its own,
    which the children this process forks write into as it does, and which
    goes back to the OS with the last array that views it."""
    fields = {name: ((rows, *dtype[name].shape), np.dtype(np.int64 if dtype[name] == object else dtype[name].base))
              for name in dtype.names}
    if not shared:
        return {name: np.empty(shape, kind) for name, (shape, kind) in fields.items()}
    return {name: np.frombuffer(_shared_mapping(max(1, math.prod(shape) * kind.itemsize)), kind,
                                math.prod(shape)).reshape(shape) for name, (shape, kind) in fields.items()}


def _shared_mapping(size: int) -> mmap.mmap:
    """`size` bytes of anonymous memory that forked children share."""
    return mmap.mmap(-1, size)


def _tokenized_runs(path, dtype: np.dtype, quotechar: str | None, block_lines: int, starts: np.ndarray,
                    spread) -> tuple[dict[str, np.ndarray], dict[str, list[str]]] | None:
    """The columns and text tables of `_gathered` of the rows whose lines
    start at the byte offsets `starts` of the CSV file `path`, one row per
    line, or None.  `spread(rows, cells per row, prepare)` cuts the rows into
    contiguous runs and reads them side by side (`parallel.spread_rows`).
    Each run is read from its first line by the tokenizer, `block_lines`
    lines at a time, into its own rows of columns the runs share, its text
    fields coded against tables of its own; the text tables of later runs
    are then merged in run order, which keeps the order in which texts first
    show.  None where a run is not read whole by the tokenizer or holds a
    byte that is not UTF-8: the file is then the serial reader's to read."""
    cut: list[range] = []
    columns: dict[str, np.ndarray] = {}

    def prepare(runs: list[range]) -> Callable[[int], dict[str, list[str]] | None]:
        cut.extend(runs)
        columns.update(_empty_columns(dtype, len(starts), shared=len(runs) > 1))
        return read_run

    def read_run(i: int) -> dict[str, list[str]] | None:
        run = cut[i]
        with open(path, encoding="utf-8") as fh:
            if run:
                # At a line start the UTF-8 decoder holds no state, so the
                # byte offset is the position that `tell` would give there.
                fh.seek(int(starts[run.start]))
            lines = islice(fh, len(run))
            blocks = iter(lambda: list(islice(lines, block_lines)), [])
            try:
                return _gathered((tokenized_rows(block, dtype, quotechar) for block in blocks), dtype,
                                 {name: column[run.start : run.stop] for name, column in columns.items()})
            except UnicodeDecodeError:
                return None

    width = sum(math.prod(dtype[name].shape) for name in dtype.names)
    found = spread(len(starts), width, prepare)
    if any(texts is None for texts in found):
        return None
    texts = {name: {text: code for code, text in enumerate(table)} for name, table in found[0].items()}
    for run, later in zip(cut[1:], found[1:]):
        for name, table in texts.items():
            codes = np.fromiter((table.setdefault(text, len(table)) for text in later[name]), np.int64, len(later[name]))
            column = columns[name][run.start : run.stop]
            column[:] = codes[column]
    return columns, {name: list(table) for name, table in texts.items()}


def create_text(path):
    """`path` open for writing as a new text file.  A file already at `path`
    is unlinked first, not truncated: ext4 (default `auto_da_alloc`) starts
    writing back a truncated file when it is closed, and truncating it again
    waits for that writeback, where a new file waits for nothing.  So a link
    at `path` is replaced, not written through."""
    with suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w", encoding="utf-8")


@contextmanager
def open_text(path, newline: str | None = None):
    """`path` open for reading as text; a byte that does not decode ends the
    read with a ValueError naming the path and the byte's line."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_decoded(path, exc) from None


def _not_decoded(path, exc: UnicodeDecodeError) -> ValueError:
    """The rejection of a file that `exc` stopped decoding: the line, byte
    and column of its first byte that does not decode.  Lines end as the
    text readers end them, at a line feed, a carriage return or both."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        try:
            line.decode(exc.encoding)
        except UnicodeDecodeError as bad:
            return ValueError(f"{path}: line {lineno}: not UTF-8, byte 0x{line[bad.start]:02x} at column {bad.start + 1}")
    return ValueError(f"{path}: {exc}")


def _csv_reader(fh, quotechar: str | None):
    return csv.reader(fh, quotechar=quotechar) if quotechar else csv.reader(fh, quoting=csv.QUOTE_NONE)


def _column_views(rows, dtype: np.dtype) -> list[np.ndarray]:
    """One view per CSV column, in file order, into `rows`: a structured
    array of `dtype` or a mapping from its field names to arrays."""
    return [column for name in dtype.names
            for column in rows[name].reshape(len(rows[name]), math.prod(dtype[name].shape)).T]


def _row_fault(row: list[str], header: list[str], dtype: np.dtype, bounds: dict) -> tuple[int | None, str] | None:
    """(column, reason) of the first cell of a row of text that the readers
    reject, (None, "") for a field count off the header's, or None.  An
    integer column is bounded by its declared range or else by int64; a text
    column by its declared `TextRule`, if any."""
    if len(row) != len(header):
        return None, ""
    for c, (name, column, cell) in enumerate(zip(header, _column_views(np.zeros(0, dtype), dtype), row)):
        kind = column.dtype.kind
        bound = bounds.get(name, INT64 if kind == "i" else None)
        try:
            value = np.array([cell], column.dtype)[0]
        except ValueError:
            return c, "not an integer" if kind == "i" else "not a number"
        except OverflowError:  # an integer beyond 64 bits
            value = int(cell)
        if kind == "f" and not np.isfinite(value):
            return c, "non-finite value"
        if isinstance(bound, TextRule) and not bound.holds(value):
            return c, bound.reason
        if isinstance(bound, range) and not bound.start <= value < bound.stop:
            return c, f"outside {bound.start}..{bound.stop - 1}"


def _first_bad_row(columns: dict[str, np.ndarray], texts: dict[str, list[str]], header: list[str], dtype: np.dtype,
                   bounds: dict) -> int | None:
    """The first row of `_gathered` columns with a non-finite float or a
    value outside its column's bound, or None."""
    fields = [name for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    bad = np.zeros(len(columns[dtype.names[0]]), bool)
    for name, field, column in zip(header, fields, _column_views(columns, dtype)):
        bound = bounds.get(name)
        if column.dtype.kind == "f":
            bad |= ~np.isfinite(column)
        if isinstance(bound, TextRule):
            bad |= np.array([not bound.holds(text) for text in texts[field]], bool)[column]
        elif bound is not None:
            bad |= (column < bound.start) | (column >= bound.stop)
    return int(np.argmax(bad)) if bad.any() else None


def _parsed_rows(reader, header: list[str], dtype: np.dtype, bounds: dict) -> tuple[np.ndarray, int | None]:
    """The rows of the csv reader `reader` in a structured array of `dtype`,
    _CELL_BLOCK cells at a time (numpy parses a number cell as Python's int
    or float does), and None; at a block that does not parse, the rows
    before it and the first of its rows that `_row_fault` rejects."""
    width = len(header)
    blocks = [np.zeros(0, dtype)]
    while cells := list(islice(reader, max(1, _CELL_BLOCK // width))):
        flat = list(chain.from_iterable(cells))
        block = np.zeros(len(cells), dtype)  # zeros, not empty: much faster with object fields
        try:
            if set(map(len, cells)) != {width}:
                raise ValueError("a field count off the header's")
            for c, column in enumerate(_column_views(block, dtype)):
                column[:] = flat[c::width]
        except (ValueError, OverflowError):
            rows = np.concatenate(blocks)
            return rows, len(rows) + next(r for r, row in enumerate(cells) if _row_fault(row, header, dtype, bounds))
        blocks.append(block)
    return np.concatenate(blocks), None


def _row_at(fh, quotechar: str | None, r: int) -> tuple[int, list[str]]:
    """The line on which row r (after the header) of the open CSV file `fh`
    starts, and its cells, as the csv module reads the file from its start:
    a quoted cell may run on over a newline."""
    fh.seek(0)
    reader = _csv_reader(fh, quotechar)
    next(islice(reader, r + 1, r + 1), None)  # the header and the rows before row r
    return reader.line_num + 1, next(reader)


def row_line(path, quotechar: str | None, r: int) -> int:
    """The line on which row r (after the header) of the CSV file `path` starts (`_row_at`)."""
    with open_text(path, newline="") as fh:
        return _row_at(fh, quotechar, r)[0]


def read_rows(path, row_type, quotechar: str | None, bounds: dict[str, range | tuple[str, ...] | TextRule], spread
              ) -> tuple[list[str], dict[str, np.ndarray], dict[str, list[str]]]:
    """The header and the rows of the CSV file `path` (`quotechar` None: no
    quoting), the rows as the columns and text tables of `_gathered`, by the
    fields of the structured dtype (a text, float64 or int64 field per column
    or run of columns) that `row_type(path, header)` gives or raises for the
    header.  numpy's C tokenizer reads the rows a block of lines at a time
    (as many lines as `_TEXT_BLOCK` bytes hold at the longest line's length,
    `ROW_BLOCK` at most), in runs read side by side (`_tokenized_runs`, cut
    by `spread`), where it reads every block as the csv module would, else
    the csv module reads the file.  A rejection names the path and line, and
    the column, reason and text of a cell `_row_fault` rejects under the
    bounds `bounds` declares (a tuple of texts: the texts allowed), or the
    line of the first byte that is not UTF-8."""
    bounds = {name: TextRule(b.__contains__, f"not one of {', '.join(b)}") if isinstance(b, tuple) else b
              for name, b in bounds.items()}
    longest, odd, starts = _line_stats(path)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or sys.maxsize
    # The csv module asks for newline="", but a file with no carriage return
    # (`odd` flags one, or a NUL) reads the same in the default mode, in
    # which numpy's tokenizer is faster.
    with open_text(path, newline="" if odd else None) as fh:
        reader = _csv_reader(fh, quotechar)
        try:
            header = next(reader, [])
            dtype = row_type(path, header)
            read, r = None, None
            # A carriage return ends a line for the tokenizer too, and a NUL
            # is rejected by the csv module before Python 3.11; a line beyond
            # the csv field size or Python's int digit limit is the csv
            # module's to reject.
            if not odd and longest <= min(csv.field_size_limit(), digits):
                block_lines = max(1, min(ROW_BLOCK, _TEXT_BLOCK // longest))
                read = _tokenized_runs(path, dtype, quotechar, block_lines, starts[reader.line_num :], spread)
            if read is None:
                fh.seek(0)
                reader = _csv_reader(fh, quotechar)
                rows, r = _parsed_rows(islice(reader, 1, None), header, dtype, bounds)
                columns = _empty_columns(dtype, len(rows), shared=False)
                read = columns, _gathered([rows], dtype, columns)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        columns, texts = read
        bad = _first_bad_row(columns, texts, header, dtype, bounds)
        r = r if bad is None else bad
        if r is not None:
            # Found only now, as the tokenizer keeps neither lines nor text;
            # on the files it reads, row r sits on line header_lines + 1 + r.
            line, row = _row_at(fh, quotechar, r)
            c, reason = _row_fault(row, header, dtype, bounds)
            if c is None:
                raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {len(header)}")
            raise ValueError(f"{path}: line {line}, column {header[c]!r}: {reason} {row[c]!r}")
    return header, columns, texts


def parsed(text: str, kind=float):
    """`kind(text)` for kind str, int, float or float.fromhex, rejected with
    the reasons the CSV readers give: not an integer, not a number, non-finite."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"not {'an integer' if kind is int else 'a number'} {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value
