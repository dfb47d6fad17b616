"""Block-drawn streams and the vectorized DoS flood against the per-packet loops.

`generate` is run twice on each config: as it is, and with the reference
loops of `oracle_simnet` set on `_TraceBuilder` in place of `stream` and
`flood`.  Every column of the two traces must match to the bit, which also
holds the rng to the same draws: one jitter too many or too few shifts every
port, topic count and cycle drawn after it.
"""

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


def assert_same_trace(config: ScenarioConfig, refused_acks: list | None = None) -> None:
    got = generate(config)
    with reference_loops(refused_acks):
        want = generate(config)
    assert got.addresses == want.addresses
    for name in PACKET_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (config, name)


@st.composite
def configs(draw) -> ScenarioConfig:
    """A desk config of a drawn scenario, seed and scale with its publish
    interval, attack window and flood gap redrawn.  The duration is cut at a
    drawn microsecond, so streams end mid-block and an ack can fall past the
    trace end; short publish intervals shorten the trace to keep its packet
    count near the desk config's."""
    scenario = draw(st.sampled_from(SCENARIOS))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    scale = draw(st.floats(min_value=0.02, max_value=1.0))
    config = scenario_configs(ExperimentPlan(scenarios=(scenario,), seed=seed, scale=scale))[scenario]
    interval = draw(st.floats(min_value=0.002, max_value=1.5))
    duration = config.duration * min(1.0, interval / 0.5) * draw(st.floats(min_value=0.05, max_value=1.0))
    duration = max(1.0, round(duration, 6))
    fitting = int((duration - 0.011) // config.relaunch_period) + 1
    active = draw(st.none() | st.floats(min_value=0.01, max_value=10.0))
    # At most 400 flood datagrams per launch.
    gap = draw(st.floats(min_value=max(1e-6, (active or 0.08) / 400), max_value=0.05))
    return replace(
        config,
        duration=duration,
        publish_interval=interval,
        relaunch_count=min(config.relaunch_count, max(0, fitting)),
        attack_active=active,
        dos_gap=gap,
    )


@given(configs())
@settings(max_examples=60, deadline=None)
def test_generate_matches_the_per_packet_loops(config):
    assert_same_trace(config)


@pytest.mark.parametrize("scenario,duration", [(name, 20.2603) for name in SCENARIOS]
                         + [("benign", 21.4111), ("dos", 21.4111), ("clone", 21.4111), ("malsub", 23.8634)])
def test_acks_past_the_trace_end_are_dropped(scenario, duration):
    """Durations at which the reference refuses an ack past the trace end
    (seed 7, 50 ms publish interval); each case asserts that it does."""
    config = ScenarioConfig(scenario, duration=duration, publish_interval=0.05, relaunch_period=5.0,
                            relaunch_count=0 if scenario == "benign" else 2, benign_relaunch_period=12.0, rng_seed=7)
    refused: list[int] = []
    assert_same_trace(config, refused)
    assert refused and min(refused) >= config.duration * 1e6


def test_floods_that_end_before_their_first_datagram():
    config = ScenarioConfig("dos", duration=5.0, relaunch_period=1.0, relaunch_count=4, attack_active=0.01)
    assert_same_trace(config)


def test_streams_longer_than_one_block():
    # A 1 ms interval over a 40 s publisher cycle: about 40k batches a stream,
    # drawn in several full blocks.
    config = ScenarioConfig("benign", duration=90.0, publish_interval=0.001, n_publishers=2, rng_seed=3)
    assert_same_trace(config)


@pytest.mark.parametrize("seed", [7, 11])
def test_desk_scale_traces_match(seed):
    for config in scenario_configs(ExperimentPlan(seed=seed)).values():
        assert_same_trace(config)
