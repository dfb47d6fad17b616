"""Block-drawn streams and the vectorized DoS flood against the per-packet loops.

`generate` is run twice on each config: as it is, and with the reference
loops of `oracle_simnet` set on `_TraceBuilder` in place of `stream` and
`flood`.  Every column of the two traces must match to the bit, which also
holds the rng to the same draws: one jitter too many or too few shifts every
port, topic count and cycle drawn after it.  The traffic model's constants
are patched on `simnet`, which reads them at call time, to reach streams
longer than a block, acks past the trace end and floods cut short.
"""

import hashlib
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracle_simnet
from ddsids import simnet
from ddsids.evalcli import ExperimentPlan, scenario_configs
from ddsids.simnet import PACKET_COLUMNS, SCENARIOS, ScenarioConfig, generate


@contextmanager
def reference_loops(refused_acks: list | None = None):
    """`generate` with the per-packet loops; an ack the reference stream
    could not send because it fell past the trace end is appended to
    `refused_acks`."""

    def stream(self, start_us, end_us, src, sport, dst, dport, *args):
        emit = self.emit

        def counting_emit(t_us, *fields):
            sent = emit(t_us, *fields)
            if not sent and refused_acks is not None and fields == (dst, dport, src, sport, oracle_simnet.ACK_PAYLOAD):
                refused_acks.append(t_us)
            return sent

        self.emit = counting_emit
        try:
            return oracle_simnet.stream(self, start_us, end_us, src, sport, dst, dport, *args)
        finally:
            del self.emit

    with mock.patch.object(simnet._TraceBuilder, "stream", stream), \
         mock.patch.object(simnet._TraceBuilder, "flood", oracle_simnet.flood):
        yield


def assert_same_trace(config: ScenarioConfig, refused_acks: list | None = None) -> simnet.PacketTrace:
    """Asserts that `generate` and the reference loops give the same trace; returns it."""
    got = generate(config)
    with reference_loops(refused_acks):
        want = generate(config)
    assert got.addresses == want.addresses
    for name in PACKET_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (config, name)
    return got


@st.composite
def configs(draw) -> tuple[ScenarioConfig, dict]:
    """A desk config of a drawn scenario, seed and scale, and the values of
    `simnet`'s publish interval, flood window and flood gap to run it with.
    The duration is cut at a drawn microsecond, so streams end mid-block and
    an ack can fall past the trace end; short publish intervals shorten the
    trace to keep its packet count near the desk config's."""
    scenario = draw(st.sampled_from(SCENARIOS))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    scale = draw(st.floats(min_value=0.02, max_value=1.0))
    config = scenario_configs(ExperimentPlan(seed=seed, scale=scale))[scenario]
    interval = draw(st.floats(min_value=0.002, max_value=1.5))
    duration = config.duration * min(1.0, interval / 0.5) * draw(st.floats(min_value=0.05, max_value=1.0))
    duration = max(1.0, round(duration, 6))
    fitting = int((duration - 0.011) // config.relaunch_period) + 1
    active = draw(st.just(simnet.DOS_ACTIVE_S) | st.floats(min_value=0.01, max_value=10.0))
    # At most 400 flood datagrams per launch.
    gap = draw(st.floats(min_value=max(1e-6, active / 400), max_value=0.05))
    config = replace(config, duration=duration, relaunch_count=min(config.relaunch_count, max(0, fitting)))
    return config, {"PUBLISH_INTERVAL_S": interval, "DOS_ACTIVE_S": active, "DOS_GAP_S": gap}


@given(configs())
@settings(max_examples=60, deadline=None)
def test_generate_matches_the_per_packet_loops(drawn):
    config, constants = drawn
    with mock.patch.multiple(simnet, **constants):
        assert_same_trace(config)


@pytest.mark.parametrize("scenario,duration", [(name, 20.2603) for name in SCENARIOS]
                         + [("benign", 21.4111), ("dos", 21.4111), ("clone", 21.4111), ("malsub", 23.8634)])
def test_acks_past_the_trace_end_are_dropped(monkeypatch, scenario, duration):
    """Durations at which the reference refuses an ack past the trace end
    (seed 7, 50 ms publish interval); each case asserts that it does."""
    monkeypatch.setattr(simnet, "PUBLISH_INTERVAL_S", 0.05)
    config = ScenarioConfig(scenario, duration=duration, relaunch_period=5.0,
                            relaunch_count=0 if scenario == "benign" else 2, rng_seed=7)
    refused: list[int] = []
    assert_same_trace(config, refused)
    assert refused and min(refused) >= config.duration * 1e6


def test_floods_that_end_before_their_first_datagram(monkeypatch):
    # A 10 ms flood window closes as the flood would start, 10 ms after the launch.
    monkeypatch.setattr(simnet, "DOS_ACTIVE_S", 0.01)
    config = ScenarioConfig("dos", duration=5.0, relaunch_period=1.0, relaunch_count=4)
    assert_same_trace(config)


def test_streams_longer_than_one_block(monkeypatch):
    # A 1 ms interval over a 40 s publisher cycle: about 40k batches a stream,
    # drawn in several full blocks.
    for name, value in (("PUBLISH_INTERVAL_S", 0.001), ("N_PUBLISHERS", 2), ("BENIGN_RELAUNCH_PERIOD_S", 40.0)):
        monkeypatch.setattr(simnet, name, value)
    config = ScenarioConfig("benign", duration=90.0, rng_seed=3)
    assert_same_trace(config)


# SHA-256 of each desk-scale trace's address table and columns
# (`trace_digest`).  Both sides of `assert_same_trace` run the same scenario
# functions, so only these pins see a change in their draw or emit order.
DESK_TRACE_DIGESTS = {
    (7, "clone"): "ff52fb8442d4192068f5a12ba0be320d33a7151b6e737a9c5a63dcf4f5b613ad",
    (7, "benign"): "c870e8156e94c4b9dba3961dc379302810b28acdbd256714d6cd2b17ad4512f5",
    (7, "dos"): "280b9be34bfbc6102a204eccbce9e7c88acf2e18f316cdb3b9caa667f148ee9e",
    (7, "malsub"): "b9254e9146f38722a11098a93375e49da096ecec69de2318b487c51d5ad5b8fc",
    (11, "clone"): "3babc8e063dde02bbfa64ee311a645fa981d5251e14f79547742b2ba4fc4db3b",
    (11, "benign"): "da16ded054786898d900d9d476be33319b9ea9ce032e72b1a6bd107dbfeb3c60",
    (11, "dos"): "c3a90503474b53fd9f531ddf87eb2f3339611a72a26ac8dde331330dc81ff61a",
    (11, "malsub"): "f62de7ad2eecdcccb88f97866593bacaacf4f0418af3571f4b77a06390f3e04f",
}


def trace_digest(trace: simnet.PacketTrace) -> str:
    digest = hashlib.sha256("\n".join(trace.addresses).encode())
    for name in PACKET_COLUMNS:
        digest.update(getattr(trace, name).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [7, 11])
def test_desk_scale_traces_match(seed):
    for name, config in scenario_configs(ExperimentPlan(seed=seed)).items():
        assert trace_digest(assert_same_trace(config)) == DESK_TRACE_DIGESTS[seed, name], name
