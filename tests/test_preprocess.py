from dataclasses import replace

import numpy as np
import pytest

from ddsids.flowmeter import FEATURE_INDEX, FEATURE_NAMES, FlowTable
from ddsids.preprocess import (
    anonymize,
    build_dataset,
    build_dataset_from_split,
    encode_ips,
    label,
    label_scenario,
    parse_anonymize,
    pool,
    rule_notes,
    split_flows,
    SplitSide,
)
from records import FlowRecord, records_of, side_table, table_of


def make_flow(src="10.0.5.5", dst="10.0.5.4", start=0.0, label_="benign", sport=40000, dport=50000, seed=0):
    rng = np.random.default_rng(seed)
    features = [float(x) for x in rng.uniform(0.0, 100.0, len(FEATURE_NAMES))]
    features[FEATURE_INDEX["Timestamp"]] = start
    return FlowRecord(
        flow_id=f"{src}:{sport}->{dst}:{dport}/17#0",
        src_ip=src,
        src_port=sport,
        dst_ip=dst,
        dst_port=dport,
        protocol=17,
        start_time=start,
        features=features,
        label=label_,
    )


class TestLabel:
    def test_source_only_matches_source(self):
        flows = [make_flow(src="10.0.5.6", dst="10.0.5.4")]
        assert records_of(label(table_of(FlowTable, flows), "dos", "source_only"))[0].label == "dos"

    def test_source_only_excludes_destination(self):
        flows = [make_flow(src="10.0.5.4", dst="10.0.5.6")]
        assert records_of(label(table_of(FlowTable, flows), "dos", "source_only"))[0].label == "benign"

    def test_absent_address_is_benign(self):
        flows = [make_flow(src="10.0.5.5", dst="10.0.5.4")]
        for directionality in ("bidirectional", "source_only", "destination_only"):
            assert records_of(label(table_of(FlowTable, flows), "dos", directionality))[0].label == "benign"

    def test_bidirectional_matches_either_side(self):
        flows = [make_flow(src="10.0.5.6"), make_flow(dst="10.0.5.6"), make_flow()]
        labels = label(table_of(FlowTable, flows), "dos", "bidirectional").label.tolist()
        assert labels == ["dos", "dos", "benign"]

    def test_undocumented_combo_notes(self):
        notes = {name: rule_notes([name]) for name in ("benign", "dos", "clone", "malsub")}
        outside = "labeling combination {} is outside the documented reliable set"
        assert notes == {"benign": [], "dos": [], "clone": [outside.format("clone/source_only")],
                         "malsub": [outside.format("malsub/bidirectional")]}
        assert rule_notes(["malsub", "benign", "clone", "dos"]) == [notes["malsub"][0], notes["clone"][0]]

    def test_purity_under_permutation(self):
        flows = [make_flow(src=f"10.0.5.{o}", seed=o) for o in (2, 4, 5, 6, 6, 3)]
        labeled = label(table_of(FlowTable, flows), "dos", "bidirectional").label.tolist()
        perm = [3, 0, 5, 1, 4, 2]
        relabeled = label(table_of(FlowTable, [flows[i] for i in perm]), "dos", "bidirectional").label.tolist()
        assert relabeled == [labeled[i] for i in perm]

    def test_rule_validation(self):
        # A scenario without a rule is rejected; benign keeps the meter's labels.
        flows = table_of(FlowTable, [make_flow(src="10.0.5.6", label_="benign")])
        with pytest.raises(ValueError, match="^scenario 'worm' is not one of: benign, dos, clone, malsub$"):
            label_scenario("worm", flows)
        assert records_of(label_scenario("benign", flows))[0].label == "benign"
        assert records_of(label_scenario("dos", flows))[0].flow_id.startswith("dos:")


def octets(flows):
    """`flows` with their addresses encoded as `pool` encodes them."""
    return [replace(f, src_ip=f.src_ip.rsplit(".", 1)[1], dst_ip=f.dst_ip.rsplit(".", 1)[1]) for f in flows]


class TestStripRouters:
    def test_removes_router_flows(self):
        flows = [
            make_flow(src="10.0.5.2", dst="10.0.5.3"),
            make_flow(src="10.0.5.3", dst="10.0.5.4"),
            make_flow(),
        ]
        kept, removed = pool([table_of(FlowTable, flows)])
        assert removed == 2
        assert all(f.src_ip not in ("2", "3") for f in records_of(kept))

    def test_identity_without_routers(self):
        flows = [make_flow(), make_flow(src="10.0.5.6")]
        kept, removed = pool([table_of(FlowTable, flows)])
        assert removed == 0 and records_of(kept) == octets(flows)

    def test_all_router_input(self):
        flows = [make_flow(src="10.0.5.2", dst="10.0.5.3") for _ in range(4)]
        kept, removed = pool([table_of(FlowTable, flows)])
        assert len(kept) == 0 and removed == 4


class TestTimestamps:
    def test_delta_encoding(self):
        flows = [make_flow(start=s) for s in (10.0, 10.5, 12.0)]
        out = records_of(pool([table_of(FlowTable, flows)])[0])
        deltas = [f.feature("Timestamp") for f in out]
        assert deltas == [0.0, 0.5, 1.5]

    def test_single_flow(self):
        out = records_of(pool([table_of(FlowTable, [make_flow(start=99.0)])])[0])
        assert out[0].feature("Timestamp") == 0.0

    def test_simultaneous_flows(self):
        out = records_of(pool([table_of(FlowTable, [make_flow(start=5.0), make_flow(start=5.0)])])[0])
        assert [f.feature("Timestamp") for f in out] == [0.0, 0.0]

    def test_unsorted_input_is_sorted(self):
        out = records_of(pool([table_of(FlowTable, [make_flow(start=2.0), make_flow(start=1.0)])])[0])
        assert [f.start_time for f in out] == [1.0, 2.0]
        assert [f.feature("Timestamp") for f in out] == [0.0, 1.0]

    def test_delta_sum_telescopes(self):
        starts = sorted(np.random.default_rng(5).uniform(0, 500, 40).tolist())
        flows = [make_flow(start=s) for s in starts]
        out = records_of(pool([table_of(FlowTable, flows)])[0])
        total = sum(f.feature("Timestamp") for f in out)
        assert abs(total - (starts[-1] - starts[0])) < 1e-9

    def test_features_owned_and_read_only(self):
        source = table_of(FlowTable, [make_flow(start=s) for s in (3.0, 1.0)])
        kept, _ = pool([source])
        assert not kept.features.flags.writeable and not np.shares_memory(kept.features, source.features)
        assert source.features[:, FEATURE_INDEX["Timestamp"]].tolist() == [3.0, 1.0]


class TestEncodeIps:
    def test_example_octets(self):
        out = records_of(encode_ips(table_of(FlowTable, [make_flow(src="10.0.5.5", dst="10.0.5.2")])))
        assert out[0].src_ip == "5" and out[0].dst_ip == "2"

    def test_mixed_subnets_rejected(self):
        flows = [make_flow(src="10.0.5.6", dst="192.168.1.1")]
        with pytest.raises(ValueError, match="subnet"):
            encode_ips(table_of(FlowTable, flows))


def sides(*tables):
    """Every row of each table as one side of a split."""
    return [SplitSide.of(t, np.arange(len(t))) for t in tables]


def shifted(flows, k):
    """`flows` as the training split of a `shift:<k>` regime."""
    return side_table(flows, anonymize(*sides(flows, flows[:0]), f"shift:{k}", 0)[0])


def switched(flows, a, b):
    """`flows` as the test split of a `switch:<a>,<b>` regime."""
    return side_table(flows, anonymize(*sides(flows[:0], flows), f"switch:{a},{b}", 0)[1])


def observed(flows) -> list[int]:
    return sorted({int(ip) for f in records_of(flows) for ip in (f.src_ip, f.dst_ip)})


class TestAnonymize:
    def encoded(self, octets=((5, 4), (6, 4), (2, 3), (4, 6))):
        flows = [make_flow(src=f"10.0.5.{a}", dst=f"10.0.5.{b}", seed=i) for i, (a, b) in enumerate(octets)]
        return encode_ips(table_of(FlowTable, flows))

    def test_shift_example(self):
        flows = encode_ips(table_of(
            FlowTable, [make_flow(src=f"10.0.5.{a}", dst=f"10.0.5.{b}", seed=a) for a, b in ((2, 3), (4, 5), (6, 2))]
        ))
        out = records_of(shifted(flows, 1))
        # observed {2,3,4,5,6}: 2->3, 6->2
        assert out[0].src_ip == "3"
        assert out[2].src_ip == "2"

    def test_shift_full_cycle_is_identity(self):
        flows = self.encoded()
        out = shifted(flows, len(observed(flows)))
        assert [(f.src_ip, f.dst_ip) for f in records_of(out)] == [(f.src_ip, f.dst_ip) for f in records_of(flows)]

    def test_switch_example(self):
        flows = self.encoded()
        out = records_of(switched(flows, 5, 6))
        assert out[0].src_ip == "6"
        assert out[1].src_ip == "5"
        assert out[0].dst_ip == "4"

    def test_switch_twice_is_identity(self):
        flows = self.encoded()
        out = switched(switched(flows, 5, 6), 5, 6)
        assert [(f.src_ip, f.dst_ip) for f in records_of(out)] == [(f.src_ip, f.dst_ip) for f in records_of(flows)]

    def test_switch_unobserved_pair_rejected(self):
        with pytest.raises(ValueError, match="not observed"):
            switched(self.encoded(), 5, 99)

    def test_anonymize_never_touches_features(self):
        flows = self.encoded()
        for out in (shifted(flows, 2), switched(flows, 5, 6)):
            for before, after in zip(records_of(flows), records_of(out)):
                assert before.features == after.features

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="shift_by"):
            parse_anonymize("shift:0")
        with pytest.raises(ValueError, match="pair"):
            parse_anonymize("switch:5,5")
        assert [parse_anonymize(spec) for spec in ("none", "randomize", "shift:3", "switch:5,6")] == [
            ("none", ()), ("randomize", ()), ("shift", (3,)), ("switch", (5, 6))]

    def test_regimes_move_the_split_they_name(self):
        train_flows, test_flows = self.encoded(((5, 4), (2, 3))), self.encoded(((6, 4), (4, 6)))
        train, test = sides(train_flows, test_flows)

        def addresses(flows, side):
            return [(f.src_ip, f.dst_ip) for f in records_of(side_table(flows, side))]

        kept_train, kept_test, note = anonymize(train, test, "none", 0)
        assert kept_train is train and kept_test is test and note is None
        moved_train, moved_test, note = anonymize(train, test, "shift:1", 0)
        # observed across both splits {2,3,4,5,6}: each moves one step, 6 wraps to 2
        assert addresses(train_flows, moved_train) == [("6", "5"), ("3", "4")]
        assert addresses(test_flows, moved_test) == [("2", "5"), ("5", "2")]
        assert note == "addresses shifted by 1 across train and test"
        kept_train, moved_test, note = anonymize(train, test, "switch:4,6", 0)
        assert kept_train is train and note == "addresses 4 and 6 switched in the test split"
        assert addresses(test_flows, moved_test) == [("4", "6"), ("6", "4")]
        with pytest.raises(ValueError, match=r"not observed: \[5\]"):
            anonymize(train, test, "switch:5,6", 0)  # 5 is in the training split only
        kept_train, moved_test, note = anonymize(train, test, "randomize", 9)
        assert kept_train is train and note == "test-split addresses reassigned per session from the subnet range"
        assert all(src != dst for src, dst in addresses(test_flows, moved_test))


def flow_pool(n_benign=30, n_attack=10, seed=0):
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_benign):
        flows.append(make_flow(start=float(i), seed=int(rng.integers(1 << 30))))
    for i in range(n_attack):
        flows.append(
            make_flow(src="10.0.5.6", start=float(n_benign + i), label_="dos", seed=int(rng.integers(1 << 30)))
        )
    return records_of(encode_ips(table_of(FlowTable, flows)))


class TestBuildDataset:
    def test_drop_ports_and_ip_columns(self):
        flows = flow_pool()
        train, test = build_dataset(table_of(FlowTable, flows), split_fraction=0.5, shuffle_seed=1)
        assert "Src Port" not in train.feature_names and "Dst Port" not in train.feature_names
        assert train.feature_names == ["Src IP", "Dst IP", *FEATURE_NAMES]

    def test_ip_modes(self):
        flows = flow_pool()
        for mode, expected in (
            ("both", {"Src IP", "Dst IP"}),
            ("source_only", {"Src IP"}),
            ("destination_only", {"Dst IP"}),
            ("none", set()),
        ):
            train, _ = build_dataset(table_of(FlowTable, flows), split_fraction=0.5, shuffle_seed=1, ip_mode=mode)
            assert {n for n in train.feature_names if "IP" in n} == expected

    def test_normalization_bounds_and_inverse(self):
        flows = flow_pool()
        train, test = build_dataset(table_of(FlowTable, flows), split_fraction=0.6, shuffle_seed=2)
        assert train.matrix.min() >= 0.0 and train.matrix.max() <= 1.0
        assert test.matrix.min() >= 0.0 and test.matrix.max() <= 1.0
        raw = train.denormalize()
        # non-constant columns invert exactly; constant columns return the minimum
        for j, name in enumerate(train.feature_names):
            if name in train.constant_features:
                continue
            col_raw = raw[:, j]
            assert np.all(np.abs(col_raw) <= 1e12)
            span = train.norm_max[j] - train.norm_min[j]
            rel = np.abs(col_raw - (train.matrix[:, j] * span + train.norm_min[j]))
            assert rel.max() <= 1e-9 * max(1.0, np.abs(col_raw).max())

    def test_constant_feature_flagged_and_zeroed(self):
        flows = flow_pool()
        for f in flows:
            f.features[FEATURE_INDEX["Init Fwd Win Byts"]] = 0.0
        train, test = build_dataset(table_of(FlowTable, flows), split_fraction=0.5, shuffle_seed=3)
        assert "Init Fwd Win Byts" in train.constant_features
        j = train.feature_names.index("Init Fwd Win Byts")
        assert not train.matrix[:, j].any()
        assert not test.matrix[:, j].any()

    def test_same_seed_same_split(self):
        flows = flow_pool()
        a_train, a_test = build_dataset(table_of(FlowTable, flows), split_fraction=0.5, shuffle_seed=9)
        b_train, b_test = build_dataset(table_of(FlowTable, flows), split_fraction=0.5, shuffle_seed=9)
        assert np.array_equal(a_train.matrix, b_train.matrix)
        assert a_test.labels == b_test.labels

    def test_stratified_split_counts(self):
        flows = flow_pool(n_benign=40, n_attack=12)
        train, test = build_dataset(table_of(FlowTable, flows), split_fraction=0.75, shuffle_seed=4)
        assert train.class_counts() == {"benign": 30, "dos": 9}
        assert test.class_counts() == {"benign": 10, "dos": 3}

    def test_empty_train_class_rejected(self):
        flows = flow_pool(n_benign=30, n_attack=1)
        with pytest.raises(ValueError, match="no training rows"):
            split_flows(table_of(FlowTable, flows), 0.2, 1)

    @pytest.mark.parametrize("n_benign, n_attack, fraction", [(40, 12, 0.9999999), (1, 1, 0.5), (0, 0, 0.5)])
    def test_empty_test_side_rejected(self, n_benign, n_attack, fraction):
        flows = flow_pool(n_benign=n_benign, n_attack=n_attack)
        with pytest.raises(ValueError, match="^split leaves no test rows$"):
            split_flows(table_of(FlowTable, flows), fraction, 1)

    def test_normalization_from_train_only(self):
        flows = table_of(FlowTable, flow_pool())
        train_side, test_side = split_flows(flows, 0.5, 7)
        train, test = build_dataset_from_split(flows, train_side, test_side)
        j = train.feature_names.index("Flow Duration")
        raw_train = [f.feature("Flow Duration") for f in records_of(side_table(flows, train_side))]
        assert train.norm_min[j] == min(raw_train)
        assert train.norm_max[j] == max(raw_train)
