"""`PacketTrace`: the columnar trace simnet returns and the meter reads."""

import pytest

import oracle_meter_rows
from ddsids.flowmeter import meter
from ddsids.simnet import PacketTrace, ScenarioConfig, generate, read_packet_csv, write_packet_csv


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
        assert back == trace and list(back) == list(trace)
        again = tmp_path / "again.csv"
        write_packet_csv(list(back), again)
        assert again.read_bytes() == path.read_bytes()

    def test_empty(self, tmp_path):
        empty = PacketTrace.from_records([])
        assert empty == [] and len(empty) == 0 and list(empty) == []
        assert meter(empty) == []
        path = tmp_path / "empty.csv"
        write_packet_csv(empty, path)
        assert read_packet_csv(path) == []

    def test_slicing_and_indexing(self):
        trace = small_trace()
        records = list(trace)
        assert trace[3] == records[3] and trace[-1] == records[-1]
        part = trace[5:40:3]
        assert isinstance(part, PacketTrace)
        assert part == records[5:40:3]
        assert trace[:0] == []
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_from_records_of_iter_is_identity(self):
        trace = small_trace()
        assert PacketTrace.from_records(iter(trace)) == trace
        assert trace != list(trace)[:-1]
        assert trace != trace[1:]

    def test_columns_are_read_only(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            trace.payload_len[0] = 1

    def test_unsorted_input_message(self):
        trace = small_trace()
        swapped = list(trace)
        swapped[10], swapped[20] = swapped[20], swapped[10]
        with pytest.raises(ValueError, match="not time-sorted: index 1[01] has ts=") as columnar:
            meter(PacketTrace.from_records(swapped))
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
