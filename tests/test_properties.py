"""Property tests for the structural invariants."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from ddsids.evalcli import ConfusionCounts, metrics
from ddsids.flowmeter import FlowRecord, FEATURE_NAMES, meter
from ddsids.preprocess import AnonymizeMode, anonymize, encode_ips, observed_addresses
from ddsids.simnet import PacketRecord


octets = st.integers(min_value=2, max_value=254)


def flows_from_octets(pairs):
    flows = [
        FlowRecord(
            flow_id=f"f{i}",
            src_ip=f"10.0.5.{a}",
            src_port=1024 + i,
            dst_ip=f"10.0.5.{b}",
            dst_port=50000,
            protocol=17,
            start_time=float(i),
            features=[float(i)] * len(FEATURE_NAMES),
        )
        for i, (a, b) in enumerate(pairs)
    ]
    return encode_ips(flows)


@st.composite
def address_pairs(draw):
    pairs = draw(st.lists(st.tuples(octets, octets), min_size=1, max_size=12))
    return [(a, b) for a, b in pairs if a != b] or [(2, 6)]


class TestAnonymizeProperties:
    @given(address_pairs())
    @settings(max_examples=60, deadline=None)
    def test_shift_full_cycle_is_identity(self, pairs):
        flows = flows_from_octets(pairs)
        n = len(observed_addresses(flows))
        out = anonymize(flows, AnonymizeMode("shift", shift_by=n))
        assert [(f.src_ip, f.dst_ip) for f in out] == [(f.src_ip, f.dst_ip) for f in flows]

    @given(address_pairs(), st.integers(min_value=1, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_shift_is_a_bijection_on_observed(self, pairs, k):
        flows = flows_from_octets(pairs)
        observed = observed_addresses(flows)
        out = anonymize(flows, AnonymizeMode("shift", shift_by=k))
        mapping = {}
        for before, after in zip(flows, out):
            mapping[int(before.src_ip)] = int(after.src_ip)
            mapping[int(before.dst_ip)] = int(after.dst_ip)
        assert sorted(mapping.values()) == observed

    @given(address_pairs())
    @settings(max_examples=60, deadline=None)
    def test_switch_twice_is_identity(self, pairs):
        flows = flows_from_octets(pairs)
        observed = observed_addresses(flows)
        if len(observed) < 2:
            return
        mode = AnonymizeMode("switch", pair=(observed[0], observed[-1]))
        out = anonymize(anonymize(flows, mode), mode)
        assert [(f.src_ip, f.dst_ip) for f in out] == [(f.src_ip, f.dst_ip) for f in flows]

    @given(address_pairs())
    @settings(max_examples=30, deadline=None)
    def test_anonymize_preserves_features(self, pairs):
        flows = flows_from_octets(pairs)
        for mode in (AnonymizeMode("shift", shift_by=3),):
            out = anonymize(flows, mode)
            assert [f.features for f in out] == [f.features for f in flows]


@st.composite
def packet_bursts(draw):
    """A time-sorted burst of packets on one port pair."""
    n = draw(st.integers(min_value=1, max_value=15))
    fwd_flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    payloads = draw(st.lists(st.integers(min_value=0, max_value=1500), min_size=n, max_size=n))
    gaps_us = draw(st.lists(st.integers(min_value=0, max_value=7_000_000), min_size=n, max_size=n))
    a = ("10.0.5.5", 41000)
    b = ("10.0.5.4", 52000)
    t = 0
    packets = []
    for is_fwd, payload, gap in zip(fwd_flags, payloads, gaps_us):
        t += gap
        src, dst = (a, b) if is_fwd else (b, a)
        packets.append(PacketRecord(t / 1e6, src[0], src[1], dst[0], dst[1], 17, payload, 28, 0))
    return packets


class TestMeterProperties:
    @given(packet_bursts())
    @settings(max_examples=100, deadline=None)
    def test_direction_split_and_conservation(self, packets):
        flows = meter(packets)
        total_pkts = sum(f.feature("Tot Fwd Pkts") + f.feature("Tot Bwd Pkts") for f in flows)
        assert total_pkts == len(packets)
        total_bytes = sum(f.feature("TotLen Fwd Pkts") + f.feature("TotLen Bwd Pkts") for f in flows)
        assert total_bytes == sum(p.payload_len for p in packets)

    @given(packet_bursts())
    @settings(max_examples=100, deadline=None)
    def test_rate_and_variance_coherence(self, packets):
        for f in meter(packets):
            duration_s = f.feature("Flow Duration") / 1e6
            n = f.feature("Tot Fwd Pkts") + f.feature("Tot Bwd Pkts")
            if duration_s > 0:
                assert abs(f.feature("Flow Pkts/s") * duration_s - n) <= 1e-9 * n
            var = f.feature("Pkt Len Var")
            std = f.feature("Pkt Len Std")
            assert abs(var - std * std) <= 1e-6 * max(1.0, var)
            assert f.feature("Pkt Len Max") >= f.feature("Pkt Len Mean") >= f.feature("Pkt Len Min")


def within_rounding(reported: float, exact: Fraction) -> bool:
    """A percentage rounded to 2 decimals is at most 0.005 from the exact
    value.  Compared on the float's shortest decimal (its repr), not on the
    binary float: the float nearest a rounded tie (47.875 -> 47.88) lies a
    few 1e-15 past 0.005, while any value off by more than 0.005 still fails."""
    return abs(Fraction(repr(reported)) - exact) <= Fraction(1, 200)


class TestMetricProperties:
    @given(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=200, deadline=None)
    def test_metric_bounds_and_recomputability(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        counts = ConfusionCounts(tp, fp, tn, fn)
        acc, det = metrics(counts)
        assert 0.0 <= acc <= 100.0
        if counts.attack_total == 0:
            assert det is None
        else:
            assert 0.0 <= det <= 100.0
            assert within_rounding(det, Fraction(100 * tn, tn + fn))
        assert within_rounding(acc, Fraction(100 * (tp + tn), counts.total))
