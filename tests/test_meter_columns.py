"""The columnar flow meter against the row-wise meter it replaced.

The meter is checked against the row-wise meter it replaced
(`oracle_meter_rows`), on the `repr` of every field, so any change in
summation order or rounding shows.  The one intended difference: a direction
with fewer than two packets had an integer 0 for ``Fwd/Bwd IAT Tot`` and now
has 0.0.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_meter_rows
from ddsids import flowmeter
from ddsids.flowmeter import FEATURE_NAMES, meter
from ddsids.simnet import PacketTrace, ScenarioConfig, generate
from oracle_flow import random_flow_packets
from records import PacketRecord, records_of, table_of

INT_ZERO_FEATURES = {"Fwd IAT Tot", "Bwd IAT Tot"}

needs_left_to_right_sum = pytest.mark.skipif(
    not oracle_meter_rows.LEFT_TO_RIGHT_SUM,
    reason="the row-wise reference sums with this interpreter's compensated sum()",
)


def flow_fields(flows):
    """Every field of every flow as text, features by their repr."""
    out = []
    for f in flows:
        features = []
        for name, v in zip(FEATURE_NAMES, f.features):
            if type(v) is int:
                assert name in INT_ZERO_FEATURES and v == 0, (name, v)
                v = float(v)
            features.append(repr(v))
        out.append((f.flow_id, f.src_ip, f.src_port, f.dst_ip, f.dst_port, f.protocol, repr(f.start_time),
                    f.label, features))
    return out


def assert_same_as_rows(packets, **timeouts):
    """The flows both meters make of the packet records `packets`, as
    records.  Given `flow_timeout`/`activity_timeout`, the row meter takes
    them and the columnar meter's FLOW_TIMEOUT_S/ACTIVITY_TIMEOUT_S are
    patched to them."""
    patched = {f"{name.upper()}_S": value for name, value in timeouts.items()}
    with mock.patch.multiple(flowmeter, **patched) if patched else nullcontext():
        got = records_of(meter(table_of(PacketTrace, packets)))
    want = oracle_meter_rows.meter(packets, **timeouts)
    assert flow_fields(got) == flow_fields(want)
    return got


ENDPOINTS = [("10.0.5.2", 1024), ("10.0.5.4", 5000), ("10.0.5.4", 65535), ("10.0.5.6", 1024), ("10.0.5.5", 7)]
GAPS_US = [0, 0, 1, 250_000, 999_999, 1_000_000, 1_000_001, 5_000_000, 5_000_001, 120_000_000, 120_000_001,
           300_000_000]
# Gaps at the edges of the bulk and subflow gaps (1 s) and of the cut-overs
# of OTHER_THRESHOLDS (0.5 s and 2 s).
OTHER_THRESHOLDS = {"flow_timeout": 2.0, "activity_timeout": 0.5}
OTHER_GAPS_US = [0, 0, 1, 250_000, 499_999, 500_000, 500_001, 999_999, 1_000_000, 1_000_001, 1_999_999,
                 2_000_000, 2_000_001, 5_000_000]


@st.composite
def interleaved_traces(draw, gaps_us=GAPS_US):
    """Time-sorted packets of a few flows that share endpoints: equal
    timestamps, gaps on both sides of the bulk, subflow, activity and flow
    timeouts (so a 5-tuple comes back after its flow timed out), empty
    payloads inside bulks and one-packet directions."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS), st.sampled_from([6, 17])),
                          min_size=1, max_size=4))
    n = draw(st.integers(min_value=1, max_value=40))
    t_us = draw(st.integers(min_value=0, max_value=10_000_000))
    packets = []
    for _ in range(n):
        a, b, proto = draw(st.sampled_from(pairs))
        src, dst = (a, b) if draw(st.booleans()) else (b, a)
        payload = draw(st.sampled_from([0, 0, 1, 16, 256, 1500]))
        header = draw(st.integers(min_value=8, max_value=60))
        flags = draw(st.sampled_from([0, 0, 8, 32, 255]))
        packets.append(PacketRecord(t_us / 1e6, src[0], src[1], dst[0], dst[1], proto, payload, header, flags))
        t_us += draw(st.sampled_from(gaps_us) | st.integers(min_value=0, max_value=2_000_000))
    return packets


@needs_left_to_right_sum
class TestAgainstRowMeter:
    @given(interleaved_traces())
    @settings(max_examples=200, deadline=None)
    def test_interleaved_flows(self, packets):
        assert_same_as_rows(packets)

    @given(interleaved_traces(OTHER_GAPS_US))
    @settings(max_examples=50, deadline=None)
    def test_other_thresholds(self, packets):
        assert_same_as_rows(packets, **OTHER_THRESHOLDS)

    def test_random_multi_flow_traces(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            trace = []
            for _ in range(int(rng.integers(1, 8))):
                trace.extend(random_flow_packets(rng, max_packets=12))
            trace.sort(key=lambda p: p.ts)
            assert_same_as_rows(trace)

    def test_generated_scenarios(self):
        for scenario in ("benign", "dos", "clone", "malsub"):
            cfg = ScenarioConfig(scenario, duration=60.0, relaunch_period=4.0,
                                 relaunch_count=0 if scenario == "benign" else 10, rng_seed=3)
            trace = generate(cfg)
            assert flow_fields(records_of(meter(trace))) == flow_fields(assert_same_as_rows(records_of(trace)))

    def test_reused_five_tuple_gets_next_serial(self):
        a, b = ENDPOINTS[0], ENDPOINTS[1]
        packets = [PacketRecord(t, a[0], a[1], b[0], b[1], 17, 10, 28, 0) for t in (0.0, 1.0, 200.0, 400.0)]
        flows = assert_same_as_rows(packets)
        assert [f.flow_id.rsplit("#", 1)[1] for f in flows] == ["0", "1", "2"]


def test_every_feature_is_a_float():
    a, b = ENDPOINTS[0], ENDPOINTS[1]
    one_each_way = [
        PacketRecord(0.0, a[0], a[1], b[0], b[1], 17, 10, 28, 0),
        PacketRecord(0.5, b[0], b[1], a[0], a[1], 17, 10, 28, 0),
    ]
    cfg = ScenarioConfig("malsub", duration=60.0, relaunch_period=4.0, relaunch_count=10, rng_seed=3)
    for packets in (table_of(PacketTrace, one_each_way), generate(cfg)):
        for flow in records_of(meter(packets)):
            bad = [name for name, v in zip(FEATURE_NAMES, flow.features) if type(v) is not float]
            assert not bad, f"{flow.flow_id}: {bad}"
