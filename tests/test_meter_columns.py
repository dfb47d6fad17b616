"""The columnar flow meter against the row-wise meter it replaced.

The meter is checked against the row-wise meter it replaced
(`oracle_meter_rows`), on the `repr` of every field, so any change in
summation order or rounding shows.  The one intended difference: a direction
with fewer than two packets had an integer 0 for ``Fwd/Bwd IAT Tot`` and now
has 0.0.
"""

import operator
import time
from contextlib import nullcontext
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_meter_rows
from ddsids import evalcli, flowmeter
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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _python_squares(values: np.ndarray) -> np.ndarray:
    return np.array([v ** 2 for v in values.tolist()], dtype=np.float64)


def test_squares_match_python_pow_bit_for_bit():
    """`_squared` against Python's ``v ** 2`` on values where `np.power` and
    ``v * v`` round differently: signed zeros, negatives, subnormals,
    magnitudes near 1e-154 and 1e154 (whose squares near-underflow and
    near-overflow) and random bit patterns with squares below the float
    range's top."""
    rng = np.random.default_rng(2106)
    top = np.sqrt(np.finfo(np.float64).max)
    random_bits = rng.integers(0, 2**64, size=400_000, dtype=np.uint64).view(np.float64)
    random_bits = random_bits[np.isfinite(random_bits) & (np.abs(random_bits) < top)]
    values = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, top, -top, np.inf, -np.inf],
        rng.uniform(0.5, 1.5, 20_000) * 1e-154, -rng.uniform(0.5, 1.3, 20_000) * 1e154,
        rng.uniform(-1, 1, 20_000) * 10.0 ** rng.integers(-320, 150, 20_000),
        rng.standard_normal(20_000) * 1e6, random_bits,
    ])
    assert np.array_equal(_bits(flowmeter._squared(values)), _bits(_python_squares(values)))


@pytest.mark.parametrize("seed", [7, 11])
def test_squares_of_the_experiment_traces_match_python_pow(seed):
    """Every array the meter squares for a seed's four scenario traces."""
    squared, square = [], flowmeter._squared

    def recorded(values):
        squared.append(np.array(values))
        return square(values)

    for config in evalcli.scenario_configs(evalcli.ExperimentPlan(seed=seed)).values():
        trace = generate(config)
        with mock.patch.object(flowmeter, "_squared", recorded):
            meter(trace)
    assert squared and sum(map(len, squared)) > len(squared)
    for values in squared:
        assert np.array_equal(_bits(square(values)), _bits(_python_squares(values)))


def _left_to_right_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each run's float sum added left to right from 0.0, as Python's
    ``sum()`` adds a list of floats up to Python 3.11."""
    runs = np.split(values, np.cumsum(sizes)[:-1])
    return np.array([reduce(operator.add, run.tolist(), 0.0) for run in runs], dtype=np.float64)


@pytest.mark.parametrize("mix", ["desk", "long", "one"])
def test_ordered_sums_add_left_to_right_at_any_run_length(mix):
    """`_ordered_sums` against a left-to-right fold, bit for bit, on runs of
    1 to 200,000 values: desk-scale runs of at most 80, where the cutoff is
    the longest run; short runs beside a few long ones, where each long run
    is summed on its own; and one 200,000-value run.  The values span the
    float range, with signed zeros, subnormals and one run of -0.0 only."""
    rng = np.random.default_rng(37)
    sizes = {"desk": rng.integers(0, 81, 500),
             "long": np.concatenate([rng.integers(0, 6, 400), rng.integers(1000, 20_000, 5), [1, 1, 200_000]]),
             "one": np.array([200_000])}[mix]
    sizes = rng.permutation(sizes)
    values = rng.standard_normal(int(sizes.sum())) * 10.0 ** rng.integers(-300, 300, int(sizes.sum()))
    values[rng.random(len(values)) < 0.05] = -0.0
    values[rng.random(len(values)) < 0.02] = rng.choice([5e-324, -5e-324, 1e-310])
    if mix != "one":  # the second-longest run: summed by steps in "desk", on its own in "long"
        run = int(np.argsort(sizes, kind="stable")[-2])
        values[sizes[:run].sum() : sizes[: run + 1].sum()] = -0.0
    assert np.array_equal(_bits(flowmeter._ordered_sums(values, sizes)), _bits(_left_to_right_sums(values, sizes)))


def test_one_long_flow_meters_in_time_linear_in_its_packets():
    """A 160,000-packet flow: the meter's sums take a few steps per long run,
    not one per packet of the longest flow."""
    rng = np.random.default_rng(11)
    n = 160_000
    fwd = rng.random(n) < 0.6
    trace = PacketTrace(["10.0.5.4", "10.0.5.5"], np.arange(n) * 1e-3, np.where(fwd, 0, 1), np.where(fwd, 5000, 6000),
                        np.where(fwd, 1, 0), np.where(fwd, 6000, 5000), np.full(n, 17), rng.integers(0, 256, n),
                        np.full(n, 28), np.zeros(n, np.int64))
    started = time.perf_counter()
    flows = meter(trace)
    assert len(flows) == 1 and flows.features[0, flowmeter.FEATURE_INDEX["Tot Fwd Pkts"]] == fwd.sum()
    assert time.perf_counter() - started < 0.5
