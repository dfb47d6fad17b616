"""The columnar flow-preparation chain against the record-at-a-time chain it
replaced (`oracle_prep`).

Both chains run on the same drawn flows: label each scenario and note its
rule, pool (strip routers, sort, encode timestamps and addresses), split, anonymize the way an
experiment does (shift, switch or randomize) and build the normalized
matrices.  A side of the table chain's split, its row numbers into the pooled
table, is read as the table of those rows (`records.side_table`).  Records
are compared on the `repr` of every field, and matrices and normalization
constants by their bytes; where the reference raises, the table chain must
raise the same message.
"""

import copy
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_prep
from ddsids import evalcli, preprocess
from ddsids.flowmeter import FEATURE_INDEX, FEATURE_NAMES, FlowTable, read_flow_csv, write_flow_csv
from ddsids.preprocess import IP_MODES
from ddsids.simnet import ATTACK_SCENARIOS, SCENARIOS
from ddsids.tables import FLOW_BLOCK
from records import FlowRecord, records_of, side_table, table_of

HOSTS = (2, 3, 4, 5, 6, 7)  # 2 and 3 are the routers
DIRECTIONALITIES = ("bidirectional", "destination_only", "source_only")
STARTS = (0.0, 0.5, 0.5, 1.25, 3.0)  # few distinct values, so starts tie
FRACTIONS = (0.5, 0.25, 0.75, 0.1, 0.3, 0.9)  # quotas that round at .5
ANONYMIZE = (st.sampled_from(["randomize", "none"]) | st.integers(1, 8).map("shift:{}".format)
             | st.tuples(st.sampled_from(HOSTS[2:]), st.sampled_from(HOSTS)).filter(lambda p: p[0] != p[1])
             .map("switch:{0[0]},{0[1]}".format))


def fields(flows):
    """Every field of every flow (records, or a table read as records),
    floats by their repr."""
    if isinstance(flows, FlowTable):
        flows = records_of(flows)
    return [(f.flow_id, f.src_ip, f.src_port, f.dst_ip, f.dst_port, f.protocol, repr(f.start_time), f.label,
             [repr(v) for v in f.features]) for f in flows]


def make_flows(n, seed, starts=STARTS):
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n):
        a, b = rng.choice(HOSTS, size=2).tolist()
        features = rng.uniform(-1e3, 1e3, len(FEATURE_NAMES))
        features[rng.random(len(FEATURE_NAMES)) < 0.1] = -0.0
        protocol = int(rng.choice([6, 17]))
        features[FEATURE_INDEX["Protocol"]] = protocol
        start = float(rng.choice(starts)) if rng.random() < 0.7 else float(rng.uniform(0, 50))
        flows.append(FlowRecord(f"10.0.5.{a}:{1024 + i}->10.0.5.{b}:5000/17#{i % 3}", f"10.0.5.{a}", 1024 + i,
                                f"10.0.5.{b}", 5000 + i % 4, protocol, start, features.tolist(),
                                str(rng.choice(["benign", "benign", "dos"]))))
    return flows


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def same(got, want):
    if isinstance(want, str):
        assert got == want
        return False
    assert fields(got) == fields(want)
    return True


def table_chain(scenarios, fraction, seed, spec, ip_mode):
    tables = [preprocess.label_scenario(name, table_of(FlowTable, flows)) for name, flows in scenarios]
    notes = preprocess.rule_notes(name for name, _ in scenarios)
    pooled, removed = preprocess.pool(tables)
    split = outcome(preprocess.split_flows, pooled, fraction, seed)
    if isinstance(split, str):
        return notes, pooled, removed, split
    # The spec goes to anonymize as it is: a plan rejects a switch address outside the subnet hosts.
    anonymized = outcome(preprocess.anonymize, *split, spec, evalcli.ExperimentPlan(seed=seed).seed_for("randomize"))
    split_tables = [side_table(pooled, side) for side in split]
    if isinstance(anonymized, str):
        return notes, pooled, removed, split_tables, anonymized
    columns = preprocess._column_names(ip_mode)
    raw = [preprocess._matrix(pooled, side, columns) for side in anonymized[:2]]
    train, test = preprocess.build_dataset_from_split(pooled, *anonymized[:2], ip_mode=ip_mode)
    built = train.matrix, test.matrix, train.norm_min, train.norm_max, train.constant_features
    return (notes, pooled, removed, split_tables, [side_table(pooled, side) for side in anonymized[:2]], raw, built,
            [train.labels, test.labels])


def record_chain(scenarios, fraction, seed, spec, ip_mode):
    pooled, notes = [], []
    for name, flows in scenarios:
        labelled, rule_notes = oracle_prep.label_scenario(name, copy.deepcopy(flows))
        pooled.extend(labelled)
        notes.extend(rule_notes)
    pooled, removed = oracle_prep.pool(pooled)
    split = outcome(oracle_prep.split_flows, pooled, fraction, seed)
    if isinstance(split, str):
        return notes, pooled, removed, split
    train, test = split
    kind, args = preprocess.parse_anonymize(spec)
    if kind == "randomize":
        anonymized = train, oracle_prep.randomize_sessions(test, seed * 1000 + 30)
    elif kind == "none":
        anonymized = train, test
    elif kind == "shift":
        merged = outcome(oracle_prep.anonymize, train + test, kind, args)
        anonymized = merged if isinstance(merged, str) else (merged[: len(train)], merged[len(train) :])
    else:
        test = outcome(oracle_prep.anonymize, test, kind, args)
        anonymized = test if isinstance(test, str) else (train, test)
    if isinstance(anonymized, str):
        return notes, pooled, removed, split, anonymized
    columns = preprocess._column_names(ip_mode)
    raw = [oracle_prep._matrix(side, columns) for side in anonymized]
    built = oracle_prep.build_dataset_from_split(*anonymized, columns)
    return notes, pooled, removed, split, anonymized, raw, built, [[f.label for f in side] for side in anonymized]


def assert_same_chain(scenarios, fraction, seed, spec, ip_mode="both"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        notes, *got = table_chain(scenarios, fraction, seed, spec, ip_mode)
        want_notes, *want = record_chain(scenarios, fraction, seed, spec, ip_mode)
    assert notes == want_notes
    assert len(got) == len(want)
    assert fields(got[0]) == fields(want[0]) and got[1] == want[1]
    for got_stage, want_stage in zip(got[2:4], want[2:4]):
        if isinstance(want_stage, str):
            assert got_stage == want_stage
            return
        for got_part, want_part in zip(got_stage, want_stage):
            assert fields(got_part) == fields(want_part)
    *got_arrays, got_constant = got[5]
    *want_arrays, want_constant = want[5]
    # The raw matrices too: normalization zeroes the train-constant columns and clips the test side.
    for got_a, want_a in zip([*got[4], *got_arrays], [*want[4], *want_arrays]):
        assert got_a.shape == want_a.shape and got_a.tobytes() == want_a.tobytes()
    assert got_constant == want_constant and got[6] == want[6]
    return got


@st.composite
def scenario_flows(draw):
    names = draw(st.lists(st.sampled_from(SCENARIOS), unique=True, max_size=len(SCENARIOS)))
    return [(name, make_flows(draw(st.integers(0, 60)), draw(st.integers(0, 2**32 - 1)))) for name in names]


@given(scenario_flows(), st.sampled_from(FRACTIONS) | st.floats(0.01, 0.99), st.integers(0, 10**6),
       ANONYMIZE, st.sampled_from(IP_MODES))
@settings(max_examples=150, deadline=None)
def test_chain_matches_records(scenarios, fraction, seed, spec, ip_mode):
    assert_same_chain(scenarios, fraction, seed, spec, ip_mode)


@pytest.mark.parametrize("spec", ["none", "shift:2", "switch:4,6", "randomize"])
@pytest.mark.parametrize("ip_mode", IP_MODES)
def test_every_regime_and_address_mode(spec, ip_mode):
    scenarios = [(name, make_flows(40, i)) for i, name in enumerate(SCENARIOS)]
    assert_same_chain(scenarios, 0.5, 7, spec, ip_mode)


@pytest.mark.parametrize("spec", ["none", "switch:4,6", "randomize"])
def test_sides_of_several_row_blocks(spec):
    # Each side spans more than one FLOW_BLOCK-row block of the matrix gather.
    scenarios = [(name, make_flows(300, i)) for i, name in enumerate(SCENARIOS)]
    raw = assert_same_chain(scenarios, 0.5, 7, spec)[4]
    assert min(len(m) for m in raw) > FLOW_BLOCK


@pytest.mark.parametrize("spec", ["none", "randomize", "shift:1", "shift:3", "switch:5,6", "switch:5,99"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_empty_and_one_flow_input(n, spec):
    for fraction in (0.5, 0.9):
        assert_same_chain([("dos", make_flows(n, 3))], fraction, 1, spec)
        assert_same_chain([("benign", make_flows(n, 4)), ("malsub", [])], fraction, 2, spec)


def test_pool_keeps_tied_starts_in_order():
    # Hundreds of flows on three start times: any unstable sort reorders them.
    scenarios = [(name, make_flows(300, i, starts=(1.0, 2.0, 3.0))) for i, name in enumerate(SCENARIOS)]
    assert_same_chain(scenarios, 0.5, 7, "shift:2", ip_mode="none")


@given(st.lists(st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)), max_size=30),
       st.sampled_from(ATTACK_SCENARIOS), st.sampled_from(DIRECTIONALITIES), st.sampled_from(HOSTS))
@settings(max_examples=100, deadline=None)
def test_every_label_rule(pairs, attack, directionality, octet):
    flows = [FlowRecord(f"f{i}", f"10.0.5.{a}", i, f"10.0.5.{b}", 1, 17, float(i), [0.0] * len(FEATURE_NAMES))
             for i, (a, b) in enumerate(pairs)]
    # The attacker host is a constant; it is patched to reach every octet.
    with mock.patch.object(preprocess, "ATTACKER_HOST", octet), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = preprocess.label(table_of(FlowTable, flows), attack, directionality)
        want = oracle_prep.label(flows, attack, directionality, octet)
    assert fields(got) == fields(want)


@pytest.mark.parametrize("n", [0, 1, FLOW_BLOCK - 1, FLOW_BLOCK, 2 * FLOW_BLOCK + 1])
def test_flow_csv_reader(tmp_path, n):
    flows = make_flows(n, n)
    for f in flows[n // 2 : n // 2 + 1]:
        f.features[-3:] = [-1.7976931348623157e308, 1.7976931348623157e308, 5e-324]
    path = tmp_path / "flows.csv"
    write_flow_csv(table_of(FlowTable, flows), path)
    got, want = read_flow_csv(path), oracle_prep.read_flow_csv(path)
    assert isinstance(got, FlowTable)
    assert fields(got) == fields(want)
    assert got.flow_id.tolist() == [f.flow_id for f in flows]
