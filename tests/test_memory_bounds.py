"""The packet reader and the meter hold a block at a time, not a file's
worth of temporaries: measured by tracemalloc on the desk-scale seed-7 clone
trace (135,788 packets), against the bytes of the trace's columns.  The
blocks are of fixed size, so a much smaller trace would read a larger ratio."""

import tracemalloc

import pytest

from ddsids import flowmeter, simnet
from ddsids.evalcli import ExperimentPlan, scenario_configs


@pytest.fixture(scope="module")
def clone_trace(tmp_path_factory):
    """The trace's packet file and the bytes of its columns."""
    trace = simnet.generate(scenario_configs(ExperimentPlan(seed=7))["clone"])
    path = tmp_path_factory.mktemp("trace") / "clone.csv"
    simnet.write_packet_csv(trace, path)
    return path, sum(getattr(trace, name).nbytes for name in trace.COLUMNS)


def traced_peak(fn, *args):
    """What `fn(*args)` returns, and the peak of the memory it allocated
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_packet_reader_and_meter_peaks(clone_trace):
    path, column_bytes = clone_trace
    trace, read_peak = traced_peak(simnet.read_packet_csv, path)
    assert read_peak <= 2.0 * column_bytes, f"read peak {read_peak / column_bytes:.2f}x the trace"
    _, meter_peak = traced_peak(flowmeter.meter, trace)
    assert meter_peak <= 1.5 * column_bytes, f"meter peak {meter_peak / column_bytes:.2f}x the trace"
