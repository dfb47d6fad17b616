"""The packet, flow and dataset readers parse a file with numpy's C tokenizer
and fall back to the csv module where it could read it differently.  Every
text, valid or mutated, must give the same columns bit for bit, labels and
address table either way, or the same error."""

import csv
import re
import tempfile
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ddsids import flowmeter, preprocess, simnet, tables
from ddsids.evalcli import main
from ddsids.flowmeter import FEATURE_NAMES, FlowTable, read_flow_csv, write_flow_csv
from ddsids.preprocess import Dataset, read_dataset_csv, write_dataset_csv
from ddsids.simnet import SCENARIOS, PacketTrace, read_packet_csv, write_packet_csv
from records import FlowRecord, PacketRecord, records_of, table_of

# Cells that one tokenizer or the other reads its own way: underscores, hex
# floats, overflowing floats and integers, NaNs, quoting, padding, an empty
# cell, a NUL, a carriage return, a newline inside quotes and a field beyond
# Python's int digit limit.
ODD_CELLS = ["1_0", "0x1p3", "1e999", "-1e999", "nan", "-nan", "inf", "9223372036854775808", "99999999999999999999",
             '"1.5"', '"7"', " 7 ", "+3", "-0", "", '"a,b"', '"a""b"', 'a"b', '"a"b', '"x\ny"', "\x00", "\r", "#",
             "0" * 5000 + "1"]
# Lines inserted whole; a lone carriage return ends a line for the block
# parsers but not for a byte count of newlines.
INSERTED = {"blank line": "\n", "comment line": "# note\n", "stray carriage return": "\r"}
MUTATIONS = [*INSERTED, "extra field", "missing field", "odd cell"]


@st.composite
def mutations(draw):
    return (draw(st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 40), st.integers(0, 90),
                                    st.sampled_from(ODD_CELLS)), max_size=3)),
            draw(st.booleans()), draw(st.booleans()))


def mutate(text: str, edits, crlf: bool, cut_final_newline: bool) -> str:
    lines = text.splitlines(keepends=True)
    for kind, row, col, cell in edits:
        i = row % (len(lines) + 1)
        if kind in INSERTED:
            lines.insert(i, INSERTED[kind])
            continue
        i = 1 + row % len(lines[1:]) if len(lines) > 1 else 0
        cells = lines[i].rstrip("\n").split(",")
        if kind == "extra field":
            cells.append(cell)
        elif kind == "missing field":
            cells.pop(col % len(cells))
        else:
            cells[col % len(cells)] = cell
        lines[i] = ",".join(cells) + "\n"
    text = "".join(lines)
    if crlf:
        text = text.replace("\n", "\r\n")
    if cut_final_newline:
        text = text.rstrip("\r\n")
    return text


def snapshot(value):
    """Everything a reader returns, arrays as dtype, shape, layout and bytes."""
    def array(a):
        a = np.asarray(a)
        return a.tolist() if a.dtype == object else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
    if isinstance(value, Dataset):
        return array(value.matrix), value.labels, value.feature_names
    return value.addresses, [array(getattr(value, name)) for name in value.COLUMNS]


def outcome(read, path):
    try:
        return "read", snapshot(read(path))
    except Exception as exc:  # the two paths must fail alike, whatever the error
        return type(exc).__name__, str(exc)


@contextmanager
def block_parsers_only():
    """The readers with the tokenizer path switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "tokenized_rows", lambda *args, **kwargs: None)
        yield


@contextmanager
def small_blocks(lines: int = 1):
    """Blocks of one row for the csv module and of `lines` lines for the
    tokenizer, so a few rows span several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_CELL_BLOCK", 1)
        mp.setattr(tables, "ROW_BLOCK", lines)
        yield


# The tokenizer's lines per block in the comparisons: a block boundary after every row, or after every other one.
BLOCK_LINES = (1, 2)


def assert_same(read, text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode())
        with small_blocks(), block_parsers_only():
            blocks = outcome(read, path)
        for lines in BLOCK_LINES:
            with small_blocks(lines):
                fast = outcome(read, path)
            same = fast == blocks  # compared outside the assert: pytest would diff the two at length
            assert same, f"the two paths read {text[:300]!r} differently, {lines} lines per tokenizer block"


# IPv4 addresses first, which the packet and flow readers accept; the rest they reject alike.
ADDRESSES = ["10.0.5.4", "10.0.5.5", "10.0.5.6", "10.0.5.7", "10.0.5.255", " 10.0.5.6", "host b", "10.0.5.中",
             "10.0.5.255555555555555555"]
# Mostly scenario names, which the flow and dataset readers accept; the odd
# texts, a minority, are rejected alike by both paths.
LABELS = [*SCENARIOS] * 12 + ["a,b", 'say "hi"', "", "#x"]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, 5e-324, 17.0, 1 / 3]


def packet_text(rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_packet_csv(table_of(PacketTrace, rows), path)
        return path.read_text()


def flow_text(rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_flow_csv(table_of(FlowTable, rows), path)
        return path.read_text()


def dataset_text(matrix, labels, names) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset_csv(Dataset(matrix, labels, names, np.zeros(len(names)), np.ones(len(names))), path)
        return path.read_text()


packets = st.lists(st.builds(
    PacketRecord, st.sampled_from(FLOATS + [float("nan"), 12.000001]), st.sampled_from(ADDRESSES),
    st.integers(0, 65535), st.sampled_from(ADDRESSES), st.integers(-5, 65535), st.sampled_from([6, 17]),
    st.integers(0, 1500), st.integers(-(2**63), 2**63 - 1), st.integers(0, 255)), max_size=7)

flows = st.lists(st.builds(
    FlowRecord, st.sampled_from(["f0", "a,b", 'q"r', "", "10.0.5.4:1->10.0.5.5:2/17#0"]), st.sampled_from(ADDRESSES),
    st.integers(0, 65535), st.sampled_from(ADDRESSES), st.integers(-1, 65536), st.just(17),
    st.sampled_from(FLOATS), st.tuples(st.sampled_from([6.0, 17.0]), st.lists(
        st.sampled_from(FLOATS), min_size=len(FEATURE_NAMES) - 1, max_size=len(FEATURE_NAMES) - 1)).map(
        lambda p: [p[0], *p[1]]),  # "Protocol" first, an integer; odd cells put others there
    st.sampled_from(LABELS)), max_size=7)

datasets = st.integers(1, 3).flatmap(lambda width: st.tuples(
    st.lists(st.lists(st.sampled_from(FLOATS), min_size=width, max_size=width), max_size=7),
    st.just(["a", "b c", "d,e"][:width])))

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Every mutation alone at a fixed place; every odd cell in columns 1-3, 7 (a
# flow's Protocol) and the last, which hold each type a reader parses.
SINGLE_EDITS = ([([(kind, 2, 0, "")], False, False) for kind in [*INSERTED, "extra field"]]
                + [([("missing field", 1, col, "")], False, False) for col in (0, 8)]
                + [([], True, False), ([], False, True), ([], True, True)]
                + [([("odd cell", 1, col, cell)], False, False) for cell in ODD_CELLS for col in (0, 1, 2, 6, -1)])


class TestReadersAgree:
    @SETTINGS
    @given(packets, mutations())
    def test_packet_csv(self, rows, edits):
        assert_same(read_packet_csv, mutate(packet_text(rows), *edits))

    @SETTINGS
    @given(flows, mutations())
    def test_flow_csv(self, rows, edits):
        assert_same(read_flow_csv, mutate(flow_text(rows), *edits))

    @SETTINGS
    @given(datasets, st.lists(st.sampled_from(LABELS), min_size=7, max_size=7), mutations())
    def test_dataset_csv(self, table, labels, edits):
        rows, names = table
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
        assert_same(read_dataset_csv, mutate(dataset_text(matrix, labels[: len(rows)], names), *edits))


class TestSingleEdits:
    def check(self, read, text):
        failed = []
        for edits in SINGLE_EDITS:
            try:
                assert_same(read, mutate(text, *edits))
            except AssertionError:
                failed.append(repr(edits)[:120])
        assert not failed, failed

    def test_packet_csv(self):
        self.check(read_packet_csv, packet_text([PacketRecord(0.5, ADDRESSES[i % 5], 1000 + i, ADDRESSES[(i + 2) % 5],
                                                              53, 17, 48, 28, 0) for i in range(3)]))

    def test_flow_csv(self):
        self.check(read_flow_csv, flow_text([FlowRecord(f"f{i}", ADDRESSES[i % 5], 1000 + i, ADDRESSES[(i + 2) % 5], 53,
                                                        17, 0.25 * i, [17.0] + FLOATS * 9 + [1.0] * 5, LABELS[i])
                                             for i in range(3)]))

    def test_dataset_csv(self):
        self.check(read_dataset_csv, dataset_text(np.array([[0.5, 1e300, -0.0]] * 3), ["benign", "dos", "a,b"],
                                                  ["a", "b", "c"]))


class TestTokenizerPath:
    """Files as the writers write them take the tokenizer path."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """Whether each read took the tokenizer path."""
        taken = []
        real = tables.tokenized_rows

        def spy(*args, **kwargs):
            rows = real(*args, **kwargs)
            taken.append(rows is not None)
            return rows
        monkeypatch.setattr(tables, "tokenized_rows", spy)
        return taken

    def test_writer_output(self, tmp_path, taken):
        trace = simnet.generate(simnet.ScenarioConfig("dos", duration=10.0, relaunch_count=5, rng_seed=2))
        write_packet_csv(trace, tmp_path / "p.csv")
        assert records_of(read_packet_csv(tmp_path / "p.csv")) == records_of(trace)
        flows = flowmeter.meter(trace)
        write_flow_csv(flows, tmp_path / "f.csv")
        assert records_of(read_flow_csv(tmp_path / "f.csv")) == records_of(flows)
        train, _ = preprocess.build_dataset(flows, split_fraction=0.5, ip_mode="none")
        write_dataset_csv(train, tmp_path / "d.csv")
        assert read_dataset_csv(tmp_path / "d.csv").matrix.tobytes() == train.matrix.tobytes()
        assert taken == [True, True, True]

    def test_a_block_ending_inside_a_quoted_field_is_not_tokenized(self):
        """The next block would go on with the field, so the csv module reads the file."""
        dtype = np.dtype([("values", np.float64, (1,)), ("label", object)])
        assert tables.tokenized_rows(['1.5,"dos"\n'], dtype, '"') is not None
        assert tables.tokenized_rows(['1.5,"dos\n'], dtype, '"') is None


INT64 = "outside -9223372036854775808..9223372036854775807"
READERS = {
    "packet": (read_packet_csv, lambda: packet_text([PacketRecord(0.5 * i, ADDRESSES[i % 2], 1000 + i, ADDRESSES[4], 53,
                                                                  17, 48, 28, 0) for i in range(3)])),
    "flow": (read_flow_csv, lambda: flow_text([FlowRecord(f"f{i}", ADDRESSES[i % 2], 1000 + i, ADDRESSES[4], 53, 17,
                                                          0.25 * i, [17.0] + FLOATS * 9 + [1.0] * 5) for i in range(3)])),
    "dataset": (read_dataset_csv, lambda: dataset_text(np.array([[0.5, 1e300, -0.0]] * 3),
                                                       ["benign", "dos", "clone"], ["a", "b", "c"])),
}


@pytest.mark.parametrize("fmt, column, cell, reason", [
    ("packet", "ts", "zz", "not a number 'zz'"),
    ("packet", "ts", "nan", "non-finite value 'nan'"),
    ("packet", "src_port", "x", "not an integer 'x'"),
    ("packet", "src_port", "70000", "outside 0..65535 '70000'"),
    ("packet", "dst_port", "-5", "outside 0..65535 '-5'"),
    ("packet", "payload_len", "99999999999999999999", "outside 0..9223372036854775807 '99999999999999999999'"),
    ("packet", "payload_len", "-3", "outside 0..9223372036854775807 '-3'"),
    ("packet", "header_len", "-1", "outside 0..9223372036854775807 '-1'"),
    ("packet", "flags", "99999999999999999999", f"{INT64} '99999999999999999999'"),
    ("packet", "flags", None, "has 8 fields, expected 9"),
    ("packet", "src_ip", "host-a", "not an IPv4 address 'host-a'"),
    ("packet", "dst_ip", "10.0.5.256", "not an IPv4 address '10.0.5.256'"),
    ("flow", "Flow Duration", "zz", "not a number 'zz'"),
    ("flow", "Src Port", "x", "not an integer 'x'"),
    ("flow", "Src Port", "70000", "outside 0..65535 '70000'"),
    ("flow", "Dst Port", "99999999999999999999", "outside 0..65535 '99999999999999999999'"),
    ("flow", "Protocol", "1e19", f"{INT64} '1e19'"),
    ("flow", "Label", None, "has 84 fields, expected 85"),
    ("flow", "Label", "foo", "not one of benign, dos, clone, malsub 'foo'"),
    ("flow", "Src IP", "host-a", "not an IPv4 address 'host-a'"),
    ("flow", "Dst IP", "1.5", "not an IPv4 address '1.5'"),
    ("dataset", "b", "zz", "not a number 'zz'"),
    ("dataset", "Label", None, "has 3 fields, expected 4"),
    ("dataset", "Label", "", "not one of benign, dos, clone, malsub ''"),
])
def test_rejection_names_path_line_and_column(tmp_path, fmt, column, cell, reason):
    """Each fault in the second row, on line 3, read by either path; a cell
    None drops the column's cell from the row instead."""
    read, text = READERS[fmt]
    lines = text().splitlines(keepends=True)
    header = next(csv.reader(lines[:1]))
    row = next(csv.reader(lines[2:3]))
    if cell is None:
        del row[header.index(column)]
    else:
        row[header.index(column)] = cell
    lines[2] = ",".join(row) + "\n"
    path = tmp_path / "in.csv"
    path.write_text("".join(lines))
    where = "line 3" if cell is None else f"line 3, column {column!r}:"
    for parsers in (nullcontext, block_parsers_only, *(partial(small_blocks, lines) for lines in BLOCK_LINES)):
        with parsers(), pytest.raises(ValueError, match=re.escape(f"{path}: {where} {reason}")):
            read(path)


@pytest.mark.parametrize("fmt", ["packet", "flow"])
def test_address_table_lists_every_source_first(tmp_path, fmt):
    """An address first seen as a destination in a later block follows every
    source address in the table, as `_address_codes` orders one, whatever
    the blocks."""
    pairs = [(ADDRESSES[0], ADDRESSES[1]), (ADDRESSES[1], ADDRESSES[2]), (ADDRESSES[3], ADDRESSES[0])]
    if fmt == "packet":
        read, text = read_packet_csv, packet_text([PacketRecord(0.5 * i, src, 1000 + i, dst, 53, 17, 48, 28, 0)
                                                   for i, (src, dst) in enumerate(pairs)])
    else:
        read, text = read_flow_csv, flow_text([FlowRecord(f"f{i}", src, 1000 + i, dst, 53, 17, 0.25 * i,
                                                          [17.0] + FLOATS * 9 + [1.0] * 5)
                                               for i, (src, dst) in enumerate(pairs)])
    path = tmp_path / "in.csv"
    path.write_text(text)
    for parsers in (nullcontext, block_parsers_only, *(partial(small_blocks, lines) for lines in BLOCK_LINES)):
        with parsers():
            table = read(path)
        assert table.addresses == tuple(ADDRESSES[k] for k in (0, 1, 3, 2))
        assert [(table.addresses[s], table.addresses[d]) for s, d in zip(table.src, table.dst)] == pairs


@pytest.mark.parametrize("argv, cell, message", [
    (["meter", "--packets"], "x", "line 3, column 'payload_len': not an integer 'x'"),
    (["train", "--train"], "zz", "line 3, column 'b': not a number 'zz'"),
    (["meter", "--packets"], "host-a", "line 3, column 'src_ip': not an IPv4 address 'host-a'"),
    (["meter", "--packets"], "9", "line 4: packets not time-sorted: ts=1.000000 after ts=9.000000"),
])
def test_cli_prints_the_rejection(tmp_path, capsys, argv, cell, message):
    """The cell replaces line 3's cell in the column the message names, or
    else its first, a packet's time."""
    text = (READERS["packet"] if argv[0] == "meter" else READERS["dataset"])[1]()
    lines = text.splitlines(keepends=True)
    cells = lines[2].split(",")
    named = re.search(r"column '(.+?)'", message)
    cells[next(csv.reader(lines[:1])).index(named[1]) if named else 0] = cell
    lines[2] = ",".join(cells)
    path = tmp_path / "in.csv"
    path.write_text("".join(lines))
    assert main([*argv, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"ddsids: error: {path}: {message}\n"


@pytest.mark.parametrize("fmt, argv", [
    ("flow", ["preprocess", "--flows", "dos={}"]),
    ("dataset", ["train", "--train", "{}"]),
])
def test_cli_rejects_a_label_that_is_no_scenario(tmp_path, capsys, fmt, argv):
    """A flow or dataset row labelled "foo" stops the verb with exit 1."""
    lines = READERS[fmt][1]().splitlines(keepends=True)
    row = next(csv.reader(lines[2:3]))
    row[-1] = "foo"
    lines[2] = ",".join(row) + "\n"
    path = tmp_path / "in.csv"
    path.write_text("".join(lines))
    assert main([a.format(path) for a in argv] + ["--out-dir", str(tmp_path / "out")]) == 1
    message = f"{path}: line 3, column 'Label': not one of benign, dos, clone, malsub 'foo'"
    assert capsys.readouterr().err == f"ddsids: error: {message}\n"


@pytest.mark.parametrize("fmt, argv", [
    ("packet", ["meter", "--packets", "{}"]),
    ("flow", ["preprocess", "--flows", "dos={}"]),
    ("dataset", ["train", "--train", "{}"]),
])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_byte_that_is_not_utf8_is_named_by_line(tmp_path, capsys, fmt, argv, newline):
    """Byte 0xff in column 2 of line 3, read by either path and by the verb."""
    read, text = READERS[fmt]
    lines = text().replace("\n", newline).encode().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][2:]
    path = tmp_path / "in.csv"
    path.write_bytes(b"".join(lines))
    message = f"{path}: line 3: not UTF-8, byte 0xff at column 2"
    for parsers in (nullcontext, block_parsers_only):
        with parsers(), pytest.raises(ValueError) as raised:
            read(path)
        assert str(raised.value) == message
    assert main([a.format(path) for a in argv] + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"ddsids: error: {message}\n"
