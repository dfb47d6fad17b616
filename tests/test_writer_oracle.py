"""The block-formatting CSV writers against the row-at-a-time writers.

Each writer formats every distinct value of a block once and joins the block
in one go; `oracle_writers` formats every cell.  Their files must be equal
byte for byte, on values whose text is easy to get wrong when values are told
apart by equality instead of by bits (-0.0 and 0.0, NaNs of any payload),
on infinities, subnormals and floats whose repr needs 17 digits, on blocks
where most values repeat, and on row counts around the block size.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_writers
from ddsids.flowmeter import FEATURE_NAMES, FLOW_BLOCK, FlowTable, write_flow_csv
from ddsids.preprocess import Dataset, write_dataset_csv
from ddsids.simnet import _ROW_BLOCK, PacketTrace, ScenarioConfig, generate, write_packet_csv
from records import FlowRecord, table_of


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


@st.composite
def datasets(draw) -> Dataset:
    rows = draw(st.sampled_from(ROW_COUNTS) | st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=1, max_value=9))
    matrix = draw(value_blocks(rows, width))
    labels = draw(st.lists(st.sampled_from(["benign", "dos", "clone", "malsub"]), min_size=rows, max_size=rows))
    names = [f"f{j}" for j in range(width)]
    return Dataset(matrix, labels, names, 0, np.zeros(width), np.ones(width))


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_dataset_csv_matches_row_writer(dataset):
    assert written(write_dataset_csv, dataset, "d.csv") == written(oracle_writers.write_dataset_csv, dataset, "d.csv")


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
    assert written(write_flow_csv, table_of(FlowTable, flows), "f.csv") == want


@st.composite
def packet_traces(draw) -> PacketTrace:
    rows = draw(st.sampled_from([0, 1, 2, 3, 50]) | st.integers(min_value=0, max_value=30))
    ts = draw(value_blocks(rows, 1))[:, 0]
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
    assert written(write_packet_csv, trace, "p.csv") == want


@pytest.mark.parametrize("rows", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])
def test_packet_csv_across_the_block_boundary(rows):
    trace = generate(ScenarioConfig("benign", duration=1500.0))
    assert len(trace) > _ROW_BLOCK + 1
    trace = trace[:rows]
    assert written(write_packet_csv, trace, "p.csv") == written(oracle_writers.write_packet_csv, trace, "p.csv")
