"""`PacketTrace`: the columnar trace simnet returns and the meter reads."""

import numpy as np
import pytest

import oracle_meter_rows
from ddsids.flowmeter import FlowTable, meter
from ddsids.simnet import PacketTrace, ScenarioConfig, generate, read_packet_csv, write_packet_csv
from records import records_of, table_of


def small_trace():
    cfg = ScenarioConfig("dos", duration=10.0, relaunch_period=1.0, relaunch_count=5, rng_seed=2)
    return generate(cfg)


class TestPacketTrace:
    def test_csv_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.csv"
        write_packet_csv(trace, path)
        back = read_packet_csv(path)
        assert isinstance(back, PacketTrace)
        assert records_of(back) == records_of(trace)
        again = tmp_path / "again.csv"
        write_packet_csv(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_empty(self, tmp_path):
        empty = PacketTrace.empty()
        assert len(empty) == 0 and records_of(empty) == []
        flows = meter(empty)
        assert isinstance(flows, FlowTable) and len(flows) == 0 and flows.features.shape == (0, 78)
        path = tmp_path / "empty.csv"
        write_packet_csv(empty, path)
        assert records_of(read_packet_csv(path)) == []

    def test_slicing_and_indexing(self):
        trace = small_trace()
        records = records_of(trace)
        part = trace[5:40:3]
        assert isinstance(part, PacketTrace)
        assert records_of(part) == records[5:40:3]
        assert records_of(trace[:0]) == []
        rows = np.array([3, 0, 3])
        assert records_of(trace[rows]) == [records[3], records[0], records[3]]
        mask = trace.payload_len > 100
        assert records_of(trace[mask]) == [r for r in records if r.payload_len > 100]
        with pytest.raises(TypeError, match="not iterable"):
            iter(trace)

    def test_from_records_of_iter_is_identity(self):
        trace = small_trace()
        back = table_of(PacketTrace, iter(records_of(trace)))
        assert records_of(back) == records_of(trace)
        assert records_of(trace[1:]) != records_of(trace)

    def test_columns_are_read_only(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            trace.payload_len[0] = 1

    def test_unsorted_input_message(self):
        trace = small_trace()
        swapped = records_of(trace)
        swapped[10], swapped[20] = swapped[20], swapped[10]
        with pytest.raises(ValueError, match="not time-sorted: index 1[01] has ts=") as columnar:
            meter(table_of(PacketTrace, swapped))
        with pytest.raises(ValueError) as rows:
            oracle_meter_rows.meter(swapped)
        assert str(columnar.value) == str(rows.value)

    def test_malformed_csv_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_packet_csv(small_trace()[:3], path)
        with open(path, "a") as fh:
            fh.write("0.5,10.0.5.4,1,10.0.5.5,2,17,16\n")
        with pytest.raises(ValueError, match="line 5 has 7 fields, expected 9"):
            read_packet_csv(path)
