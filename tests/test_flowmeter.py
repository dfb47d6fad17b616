import csv

import numpy as np
import pytest

from ddsids.flowmeter import (
    FEATURE_NAMES,
    FEATURE_INDEX,
    LABEL_NAME,
    METADATA_NAMES,
    FlowTable,
    meter,
    read_flow_csv,
    write_feature_names,
    write_flow_csv,
)
from ddsids.simnet import PacketTrace

from oracle_flow import EXACT_FEATURES, oracle_features, oracle_flows, random_flow_packets
from records import PacketRecord, records_of, table_of

A = ("10.0.5.5", 40000)
B = ("10.0.5.4", 50000)


def pkt(ts, src=A, dst=B, payload=100, header=28, flags=0):
    return PacketRecord(ts, src[0], src[1], dst[0], dst[1], 17, payload, header, flags)


def metered(packets):
    """The flows `meter` makes of a list of packet records, as records."""
    return records_of(meter(table_of(PacketTrace, packets)))


def assert_matches_oracle(flow, packets):
    expected = oracle_features(packets, flow.start_time)
    assert set(expected) == set(FEATURE_NAMES)
    for name in FEATURE_NAMES:
        got = flow.feature(name)
        want = expected[name]
        if name in EXACT_FEATURES:
            assert got == want, f"{name}: {got} != {want}"
        elif want == 0.0:
            assert abs(got) < 1e-12, f"{name}: {got} != 0"
        else:
            assert abs(got - want) <= 1e-9 * abs(want), f"{name}: {got} vs {want}"


class TestExamples:
    def test_single_packet_flow(self):
        flows = metered([pkt(5.0, payload=100)])
        assert len(flows) == 1
        f = flows[0]
        assert f.feature("Tot Fwd Pkts") == 1.0
        assert f.feature("Tot Bwd Pkts") == 0.0
        assert f.feature("Flow Duration") == 0.0
        assert f.feature("TotLen Fwd Pkts") == 100.0
        for name in FEATURE_NAMES:
            if "IAT" in name:
                assert f.feature(name) == 0.0

    def test_two_forward_packets(self):
        flows = metered([pkt(0.0, payload=64), pkt(2.0, payload=64)])
        f = flows[0]
        assert f.feature("Flow Duration") == 2e6
        assert f.feature("Flow IAT Mean") == 2e6
        assert f.feature("Flow Byts/s") == pytest.approx(64.0, rel=1e-12)
        assert f.feature("Fwd Pkt Len Std") == 0.0

    def test_five_packet_mixed_flow_matches_oracle(self):
        packets = [
            pkt(0.0, A, B, payload=120),
            pkt(0.25, B, A, payload=16),
            pkt(0.5, A, B, payload=600, flags=8),
            pkt(2.0, B, A, payload=0),
            pkt(8.0, A, B, payload=900),
        ]
        flows = metered(packets)
        assert len(flows) == 1
        assert_matches_oracle(flows[0], packets)


class TestOracleEquivalence:
    def test_seeded_random_flows(self):
        rng = np.random.default_rng(20240811)
        for _ in range(300):
            packets = random_flow_packets(rng)
            flows = metered(packets)
            grouped = oracle_flows(packets)
            assert len(flows) == len(grouped)
            for flow, pkts in zip(flows, grouped):
                assert_matches_oracle(flow, pkts)

    def test_multi_key_trace_grouping(self):
        rng = np.random.default_rng(99)
        trace = []
        for _ in range(25):
            trace.extend(random_flow_packets(rng, max_packets=8))
        trace.sort(key=lambda p: p.ts)
        flows = metered(trace)
        grouped = oracle_flows(trace)
        assert len(flows) == len(grouped)
        for flow, pkts in zip(flows, grouped):
            assert flow.feature("Tot Fwd Pkts") + flow.feature("Tot Bwd Pkts") == len(pkts)
            assert_matches_oracle(flow, pkts)


class TestInvariants:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.cases = []
        for _ in range(60):
            packets = random_flow_packets(rng)
            for flow, pkts in zip(metered(packets), oracle_flows(packets)):
                self.cases.append((flow, pkts))

    def test_direction_split(self):
        for flow, pkts in self.cases:
            assert flow.feature("Tot Fwd Pkts") + flow.feature("Tot Bwd Pkts") == len(pkts)

    def test_payload_conservation(self):
        for flow, pkts in self.cases:
            fwd_src = (pkts[0].src_ip, pkts[0].src_port)
            fwd_sum = sum(p.payload_len for p in pkts if (p.src_ip, p.src_port) == fwd_src)
            bwd_hdr = sum(p.header_len for p in pkts if (p.src_ip, p.src_port) != fwd_src)
            assert flow.feature("TotLen Fwd Pkts") == fwd_sum
            assert flow.feature("Bwd Header Len") == bwd_hdr

    def test_rate_consistency(self):
        for flow, pkts in self.cases:
            dur_s = flow.feature("Flow Duration") / 1e6
            if dur_s > 0:
                got = flow.feature("Flow Pkts/s") * dur_s
                assert abs(got - len(pkts)) <= 1e-9 * len(pkts)

    def test_std_var_coherence(self):
        for flow, _ in self.cases:
            var = flow.feature("Pkt Len Var")
            std = flow.feature("Pkt Len Std")
            assert abs(var - std * std) <= 1e-6 * max(1.0, var)

    def test_min_max_mean_ordering(self):
        for flow, _ in self.cases:
            for prefix in ("Fwd Pkt Len", "Bwd Pkt Len", "Pkt Len", "Flow IAT", "Active", "Idle"):
                mx = flow.feature(f"{prefix} Max")
                mn = flow.feature(f"{prefix} Min")
                mean = flow.feature(f"{prefix} Mean")
                assert mx >= mean - 1e-9 and mean >= mn - 1e-9

    def test_split_stability(self):
        rng = np.random.default_rng(13)
        trace = []
        for _ in range(20):
            trace.extend(random_flow_packets(rng, max_packets=10))
        trace.sort(key=lambda p: p.ts)
        whole = metered(trace)

        by_key = {}
        for p in trace:
            a, b = (p.src_ip, p.src_port), (p.dst_ip, p.dst_port)
            key = (min(a, b), max(a, b), p.proto)
            by_key.setdefault(key, []).append(p)
        partitioned = []
        for pkts in by_key.values():
            partitioned.extend(metered(pkts))
        partitioned.sort(key=lambda f: (f.start_time, f.flow_id))
        whole_sorted = sorted(whole, key=lambda f: (f.start_time, f.flow_id))
        assert len(whole_sorted) == len(partitioned)
        for a, b in zip(whole_sorted, partitioned):
            assert a.features == b.features


class TestErrorsAndConfig:
    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            metered([pkt(2.0), pkt(1.0)])

    @pytest.mark.parametrize("bad, field", [
        (dict(ts=float("nan")), "ts"),
        (dict(ts=float("inf")), "ts"),
        (dict(payload=-5), "payload_len"),
        (dict(header=-1), "header_len"),
    ])
    def test_invalid_packet_rejected(self, bad, field):
        packets = [pkt(0.0), pkt(**{"ts": 1.0, **bad}), pkt(2.0)]
        with pytest.raises(ValueError, match=f"packet 1 has an invalid {field}"):
            metered(packets)

    def test_meter_cli_rejects_nan_and_negative_length(self, tmp_path, capsys):
        from ddsids.evalcli import main

        path = tmp_path / "bad.packets.csv"
        rows = ["1.0,10.0.5.5,40000,10.0.5.4,50000,17,100,28,0",
                "nan,10.0.5.5,40000,10.0.5.4,50000,17,-5,28,0",
                "0.5,10.0.5.5,40000,10.0.5.4,50000,17,100,28,0"]
        path.write_text("ts,src_ip,src_port,dst_ip,dst_port,proto,payload_len,header_len,flags\n"
                        + "\n".join(rows) + "\n")
        assert main(["meter", "--packets", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("ddsids:")
        assert not (tmp_path / "out" / "bad.flows.csv").exists()

    def test_flow_timeout_splits_sessions(self):
        packets = [pkt(0.0), pkt(1.0), pkt(200.0), pkt(201.0)]
        flows = metered(packets)
        assert len(flows) == 2
        assert flows[0].feature("Tot Fwd Pkts") == 2.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        packets = random_flow_packets(rng)
        flows = metered(packets)
        for i, f in enumerate(flows):
            f.label = "dos" if i % 2 else "benign"
        path = tmp_path / "flows.csv"
        write_flow_csv(table_of(FlowTable, flows), path)
        back = records_of(read_flow_csv(path))
        assert len(back) == len(flows)
        for a, b in zip(flows, back):
            assert a.flow_id == b.flow_id
            assert a.label == b.label
            assert a.features == b.features
            assert a.start_time == b.start_time

    @pytest.mark.parametrize("column, cell", [("Start Time", "nan"), ("Idle Std", "inf"), ("Flow Duration", "-inf")])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, column, cell):
        flows = meter(table_of(PacketTrace, random_flow_packets(np.random.default_rng(4))))
        path = tmp_path / "flows.csv"
        write_flow_csv(flows, path)
        lines = path.read_text().splitlines(keepends=True)
        header = next(csv.reader(lines[:1]))
        row = next(csv.reader(lines[1:2]))
        row[header.index(column)] = cell
        lines[1] = ",".join(f'"{c}"' for c in row) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line 2, column '{column}': non-finite value '{cell}'"):
            read_flow_csv(path)

    def test_line_before_a_label_spanning_two_lines(self, tmp_path):
        # The second row's quoted label runs over lines 3 and 4; the bad cell
        # of the first row is still on line 2.
        flows = meter(table_of(PacketTrace, random_flow_packets(np.random.default_rng(4))))
        path = tmp_path / "flows.csv"
        write_flow_csv(flows, path)
        lines = path.read_text().splitlines(keepends=True)
        header = next(csv.reader(lines[:1]))
        first, second = next(csv.reader(lines[1:2])), next(csv.reader(lines[1:2]))
        first[header.index("Idle Std")] = "nan"
        second[-1] = "ben\nign"
        path.write_text(lines[0] + "".join(",".join(f'"{c}"' for c in row) + "\n" for row in (first, second)))
        with pytest.raises(ValueError, match="line 2, column 'Idle Std': non-finite value 'nan'"):
            read_flow_csv(path)

    def test_header_column_count(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flow_csv(FlowTable.empty(), path)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 6 + 78 + 1
        assert len(METADATA_NAMES) == 6
        assert len(FEATURE_NAMES) == 78
        assert LABEL_NAME == "Label"

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = METADATA_NAMES + FEATURE_NAMES + ["Label"]
        header[10] = "Mystery Column"
        path.write_text(",".join(f'"{h}"' for h in header) + "\n")
        with pytest.raises(ValueError, match="Mystery Column"):
            read_flow_csv(path)

    def test_missing_feature_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = METADATA_NAMES + [n for n in FEATURE_NAMES if n != "Idle Max"] + ["Label"]
        path.write_text(",".join(f'"{h}"' for h in header) + "\n")
        with pytest.raises(ValueError, match="Idle Max"):
            read_flow_csv(path)

    def test_feature_name_list(self, tmp_path):
        path = tmp_path / "features.txt"
        write_feature_names(path)
        names = path.read_text().splitlines()
        assert names == FEATURE_NAMES
        assert names[FEATURE_INDEX["Bwd Pkts/b Avg"]] == "Bwd Pkts/b Avg"
