"""The block-formatting CSV writers against the row-at-a-time writers.

Each writer formats every distinct value of a block once, or builds its text
by digit arithmetic, and joins the block in one go; `oracle_writers` formats
every cell.  Their files must be equal byte for byte, on values whose text is
easy to get wrong when values are told apart by equality instead of by bits
(-0.0 and 0.0, NaNs of any payload), on infinities, subnormals and floats
whose repr needs 17 digits, on blocks where most values repeat, on row counts
around the block size, and at the edges of the packet writer's arithmetic:
times on both sides of 2**33 s, seventh-decimal ties, times that are no whole
count of microseconds, int64 extremes, and addresses holding a NUL byte or a
character beyond ASCII.  Each writer writes the same bytes at 1, 2 and 3
usable CPUs with every table cut into one run of rows per CPU, each run
formatted by a forked worker but the first (`written_in_runs`).
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_writers
from ddsids import parallel
from ddsids.flowmeter import FEATURE_NAMES, FlowTable, write_flow_csv
from ddsids.preprocess import Dataset, write_dataset_csv
from ddsids.simnet import PacketTrace, ScenarioConfig, generate, write_packet_csv
from ddsids.tables import FLOW_BLOCK, ROW_BLOCK
from records import FlowRecord, table_of
from test_reader_equivalence import CPUS, cpus, runs


def _bits(u: int) -> float:
    return float(np.array([u], dtype=np.uint64).view(np.float64)[0])


SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, 0.5, 0.1 + 0.2, 1e16, 1e16 + 2, 2.0**53, 1 / 3, -2.5,
    float("inf"), float("-inf"), float("nan"), _bits(0xFFF8000000000000), _bits(0x7FF8000000000123),
    _bits(0x7FF0000000000001),  # a signalling NaN
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, 1.7976931348623157e308,
]
ROW_COUNTS = [0, 1, 2, 7, FLOW_BLOCK - 1, FLOW_BLOCK, FLOW_BLOCK + 1, 2 * FLOW_BLOCK + 1]


@st.composite
def value_blocks(draw, rows: int, width: int) -> np.ndarray:
    """A (rows, width) float matrix drawn from a small pool (special values
    and drawn floats) so most values repeat, mixed with fresh random floats."""
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = np.array(pool, dtype=np.float64)[rng.integers(len(pool), size=(rows, width))]
    fresh = rng.random((rows, width)) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    values[fresh] = rng.standard_normal(int(fresh.sum())) * 10.0 ** rng.integers(-8, 9, size=int(fresh.sum()))
    return values


def written(writer, data, name: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        writer(data, path)
        return path.read_bytes()


def written_in_runs(writer, data, name: str) -> bytes:
    """The bytes `writer` writes, which must be the same at each of CPUS."""
    files = []
    for count in CPUS:
        with runs(count):
            files.append(written(writer, data, name))
    assert files.count(files[0]) == len(files), f"{name} differs across {CPUS} CPUs"
    return files[0]


@st.composite
def datasets(draw) -> Dataset:
    rows = draw(st.sampled_from(ROW_COUNTS) | st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=1, max_value=9))
    matrix = draw(value_blocks(rows, width))
    labels = draw(st.lists(st.sampled_from(["benign", "dos", "clone", "malsub"]), min_size=rows, max_size=rows))
    names = [f"f{j}" for j in range(width)]
    return Dataset(matrix, labels, names, np.zeros(width), np.ones(width))


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_dataset_csv_matches_row_writer(dataset):
    want = written(oracle_writers.write_dataset_csv, dataset, "d.csv")
    assert written_in_runs(write_dataset_csv, dataset, "d.csv") == want


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_a_table_below_the_cutoff_is_written_here(monkeypatch, above):
    """Two usable CPUs: a dataset of fewer cells than the cut-off is written
    in this process, one of as many rows again in two runs, alike."""
    width = 9  # and the label: ten cells a row
    rows = (parallel.SPREAD_CELLS - 1) // (width + 1) * (2 if above else 1)
    rng = np.random.default_rng(rows)
    dataset = Dataset(rng.standard_normal((rows, width)), (["dos", "benign"] * rows)[:rows],
                      [f"f{j}" for j in range(width)], np.zeros(width), np.ones(width))
    want = written(oracle_writers.write_dataset_csv, dataset, "d.csv")
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cpus(monkeypatch, 2)
    assert written(write_dataset_csv, dataset, "d.csv") == want
    assert len(forks) == above


@pytest.mark.parametrize("writer, oracle, data", [
    (write_packet_csv, oracle_writers.write_packet_csv, PacketTrace.empty()),
    (write_flow_csv, lambda flows, path: oracle_writers.write_flow_csv([], path), FlowTable.empty()),
    (write_dataset_csv, oracle_writers.write_dataset_csv, Dataset(np.zeros((0, 2)), [], ["a", "b"], np.zeros(2),
                                                                  np.ones(2))),
], ids=["packet", "flow", "dataset"])
def test_a_table_of_no_rows(writer, oracle, data):
    assert written_in_runs(writer, data, "t.csv") == written(oracle, data, "t.csv")


@st.composite
def flow_lists(draw) -> list[FlowRecord]:
    rows = draw(st.sampled_from(ROW_COUNTS) | st.integers(min_value=0, max_value=20))
    features = draw(value_blocks(rows, len(FEATURE_NAMES))).tolist()
    starts = draw(value_blocks(rows, 1))[:, 0].tolist()
    ports = draw(st.lists(st.integers(min_value=0, max_value=65535), min_size=2 * rows, max_size=2 * rows))
    labels = draw(st.lists(st.sampled_from(["benign", "dos", "clone", "malsub"]), min_size=rows, max_size=rows))
    return [
        FlowRecord(f"s:10.0.5.{i % 7}:{ports[2 * i]}->10.0.5.4:{ports[2 * i + 1]}/17#{i}", f"10.0.5.{i % 7}",
                   ports[2 * i], "10.0.5.4", ports[2 * i + 1], 17, starts[i], features[i], labels[i])
        for i in range(rows)
    ]


@given(flow_lists())
@settings(max_examples=40, deadline=None)
def test_flow_csv_matches_row_writer(flows):
    want = written(oracle_writers.write_flow_csv, flows, "f.csv")
    assert written_in_runs(write_flow_csv, table_of(FlowTable, flows), "f.csv") == want


@st.composite
def packet_traces(draw) -> PacketTrace:
    rows = draw(st.sampled_from([0, 1, 2, 3, 50]) | st.integers(min_value=0, max_value=30))
    ts = draw(value_blocks(rows, 1))[:, 0]
    # Whole microseconds on both sides of 2**33 s, which the writer turns into
    # text by arithmetic below it, mixed into the block with the drawn times.
    micros = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).integers(0, 2**34 * 10**6, rows)
    whole = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    ts = np.where(whole, micros / 1e6, ts)
    ints = st.sampled_from([0, 1, -1, 17, 28, 65535, 2**53 + 1, 2**63 - 1, -(2**63)]) | st.integers(-(2**63), 2**63 - 1)
    pool = draw(st.lists(ints, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = np.array(pool, dtype=np.int64)[rng.integers(len(pool), size=(6, rows))]
    addresses = draw(st.lists(st.sampled_from(["10.0.5.2", "10.0.5.4", "10.0.5.5", "10.0.5.6", "a", "::1"]),
                              min_size=1, max_size=4, unique=True))
    src, dst = rng.integers(len(addresses), size=(2, rows))
    return PacketTrace(addresses, ts, src, columns[0], dst, *columns[1:])


@given(packet_traces())
@settings(max_examples=60, deadline=None)
def test_packet_csv_matches_row_writer(trace):
    want = written(oracle_writers.write_packet_csv, trace, "p.csv")
    assert written_in_runs(write_packet_csv, trace, "p.csv") == want


@pytest.mark.parametrize("rows", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_packet_csv_across_the_block_boundary(rows):
    trace = generate(ScenarioConfig("benign", duration=1500.0))
    assert len(trace) > ROW_BLOCK + 1
    trace = trace[:rows]
    assert written_in_runs(write_packet_csv, trace, "p.csv") == written(oracle_writers.write_packet_csv, trace, "p.csv")


TIME_EDGES = [
    2.0**33, np.nextafter(2.0**33, 0.0), np.nextafter(2.0**33, np.inf), 2.0**33 - 1e-6, 2.0**33 + 1e-6,
    8589934591.999999, 8589934591.9999995, 2.0**34 + 0.5, 2.0**53, 1e300,
    5e-7, 1.0000005, 2.5e-6, 0.0000015, 1234.5678905, 1e-7, 0.1 + 0.2, 1 / 3, 123.456789, 0.000001, 999999.999999,
    0.0, -0.0, -1.5, -1e-7, -5e-7, -2.0**33, 5e-324, 2.2250738585072014e-308,
    float("nan"), _bits(0xFFF8000000000000), float("inf"), float("-inf"),
]
INT_EDGES = [-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, -1, 0, 1, 9, 10, 99, 100, 65535, 65536,
             10**18 - 1, 10**18, -(10**18), 4 * 10**18]
EDGE_ADDRESSES = ["10.0.5.4", "a\0b", "\0", "10.0.5.\u00e9", ""]


def edge_trace(rows: int) -> PacketTrace:
    """`rows` packets of whole-microsecond times below 2**33 s, with every
    edge time and int64 extreme spread over them, in every integer column."""
    rng = np.random.default_rng(rows)
    ts = rng.integers(0, 2**33 * 10**6, rows) / 1e6
    ts[rng.permutation(rows)[: len(TIME_EDGES)]] = TIME_EDGES[:rows]
    columns = rng.integers(-(2**20), 2**20, (6, rows))
    for column in columns:
        column[rng.permutation(rows)[: len(INT_EDGES)]] = INT_EDGES[:rows]
    src, dst = rng.integers(len(EDGE_ADDRESSES), size=(2, rows))
    return PacketTrace(EDGE_ADDRESSES, ts, src, columns[0], dst, *columns[1:])


@pytest.mark.parametrize("rows", [1, 2, len(TIME_EDGES), 200, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_packet_csv_at_the_edges_of_its_arithmetic(rows):
    trace = edge_trace(rows)
    assert written_in_runs(write_packet_csv, trace, "p.csv") == written(oracle_writers.write_packet_csv, trace, "p.csv")


@pytest.mark.parametrize("ts", TIME_EDGES, ids=repr)
def test_packet_csv_time_alone_in_its_block(ts):
    """Each edge time as the one row of a block: a block whose times are all
    whole microseconds or all formatted by value."""
    trace = PacketTrace(["10.0.5.4"], [ts], [0], [1], [0], [2], [17], [0], [28], [0])
    assert written_in_runs(write_packet_csv, trace, "p.csv") == written(oracle_writers.write_packet_csv, trace, "p.csv")
