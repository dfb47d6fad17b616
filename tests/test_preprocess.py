import numpy as np
import pytest

from ddsids.flowmeter import FEATURE_INDEX, FEATURE_NAMES, FlowRecord
from ddsids.preprocess import (
    AnonymizeMode,
    LabelRule,
    anonymize,
    build_dataset,
    build_dataset_from_split,
    encode_ips,
    encode_timestamps,
    label,
    observed_addresses,
    split_flows,
    strip_router_flows,
)


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
        rule = LabelRule("dos", "source_only")
        assert label(flows, rule)[0].label == "dos"

    def test_source_only_excludes_destination(self):
        flows = [make_flow(src="10.0.5.4", dst="10.0.5.6")]
        assert label(flows, LabelRule("dos", "source_only"))[0].label == "benign"

    def test_absent_address_is_benign(self):
        flows = [make_flow(src="10.0.5.5", dst="10.0.5.4")]
        for directionality in ("bidirectional", "source_only", "destination_only"):
            rule = LabelRule("dos", directionality)
            assert label(flows, rule)[0].label == "benign"

    def test_bidirectional_matches_either_side(self):
        flows = [make_flow(src="10.0.5.6"), make_flow(dst="10.0.5.6"), make_flow()]
        labels = [f.label for f in label(flows, LabelRule("dos", "bidirectional"))]
        assert labels == ["dos", "dos", "benign"]

    def test_undocumented_combo_warns(self):
        flows = [make_flow()]
        with pytest.warns(UserWarning, match="outside"):
            label(flows, LabelRule("clone", "bidirectional"))

    def test_undocumented_combo_strict_raises(self):
        with pytest.raises(ValueError, match="outside"):
            label([make_flow()], LabelRule("malsub", "source_only"), strict=True)

    def test_purity_under_permutation(self):
        flows = [make_flow(src=f"10.0.5.{o}", seed=o) for o in (2, 4, 5, 6, 6, 3)]
        rule = LabelRule("dos", "bidirectional")
        labeled = [f.label for f in label(flows, rule)]
        perm = [3, 0, 5, 1, 4, 2]
        relabeled = [f.label for f in label([flows[i] for i in perm], rule)]
        assert relabeled == [labeled[i] for i in perm]

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="malicious_octet"):
            LabelRule("dos", "bidirectional", malicious_octet=1)


class TestStripRouters:
    def test_removes_router_flows(self):
        flows = [
            make_flow(src="10.0.5.2", dst="10.0.5.3"),
            make_flow(src="10.0.5.3", dst="10.0.5.4"),
            make_flow(),
        ]
        kept, removed = strip_router_flows(flows)
        assert removed == 2
        assert all(f.src_ip not in ("10.0.5.2", "10.0.5.3") for f in kept)

    def test_identity_without_routers(self):
        flows = [make_flow(), make_flow(src="10.0.5.6")]
        kept, removed = strip_router_flows(flows)
        assert removed == 0 and kept == flows

    def test_all_router_input(self):
        flows = [make_flow(src="10.0.5.2", dst="10.0.5.3") for _ in range(4)]
        kept, removed = strip_router_flows(flows)
        assert kept == [] and removed == 4


class TestTimestamps:
    def test_delta_encoding(self):
        flows = [make_flow(start=s) for s in (10.0, 10.5, 12.0)]
        out = encode_timestamps(flows)
        deltas = [f.feature("Timestamp") for f in out]
        assert deltas == [0.0, 0.5, 1.5]

    def test_single_flow(self):
        out = encode_timestamps([make_flow(start=99.0)])
        assert out[0].feature("Timestamp") == 0.0

    def test_simultaneous_flows(self):
        out = encode_timestamps([make_flow(start=5.0), make_flow(start=5.0)])
        assert [f.feature("Timestamp") for f in out] == [0.0, 0.0]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            encode_timestamps([make_flow(start=2.0), make_flow(start=1.0)])

    def test_delta_sum_telescopes(self):
        starts = sorted(np.random.default_rng(5).uniform(0, 500, 40).tolist())
        flows = [make_flow(start=s) for s in starts]
        out = encode_timestamps(flows)
        total = sum(f.feature("Timestamp") for f in out)
        assert abs(total - (starts[-1] - starts[0])) < 1e-9


class TestEncodeIps:
    def test_example_octets(self):
        out = encode_ips([make_flow(src="10.0.5.5", dst="10.0.5.2")])
        assert out[0].src_ip == "5" and out[0].dst_ip == "2"

    def test_mixed_subnets_rejected(self):
        flows = [make_flow(src="10.0.5.6", dst="192.168.1.1")]
        with pytest.raises(ValueError, match="subnet"):
            encode_ips(flows)


class TestAnonymize:
    def encoded(self, octets=((5, 4), (6, 4), (2, 3), (4, 6))):
        flows = [make_flow(src=f"10.0.5.{a}", dst=f"10.0.5.{b}", seed=i) for i, (a, b) in enumerate(octets)]
        return encode_ips(flows)

    def test_shift_example(self):
        flows = encode_ips(
            [make_flow(src=f"10.0.5.{a}", dst=f"10.0.5.{b}", seed=a) for a, b in ((2, 3), (4, 5), (6, 2))]
        )
        out = anonymize(flows, AnonymizeMode("shift", shift_by=1))
        # observed {2,3,4,5,6}: 2->3, 6->2
        assert out[0].src_ip == "3"
        assert out[2].src_ip == "2"

    def test_shift_full_cycle_is_identity(self):
        flows = self.encoded()
        n = len(observed_addresses(flows))
        out = anonymize(flows, AnonymizeMode("shift", shift_by=n))
        assert [(f.src_ip, f.dst_ip) for f in out] == [(f.src_ip, f.dst_ip) for f in flows]

    def test_switch_example(self):
        flows = self.encoded()
        out = anonymize(flows, AnonymizeMode("switch", pair=(5, 6)))
        assert out[0].src_ip == "6"
        assert out[1].src_ip == "5"
        assert out[0].dst_ip == "4"

    def test_switch_twice_is_identity(self):
        flows = self.encoded()
        mode = AnonymizeMode("switch", pair=(5, 6))
        out = anonymize(anonymize(flows, mode), mode)
        assert [(f.src_ip, f.dst_ip) for f in out] == [(f.src_ip, f.dst_ip) for f in flows]

    def test_switch_unobserved_pair_rejected(self):
        with pytest.raises(ValueError, match="not observed"):
            anonymize(self.encoded(), AnonymizeMode("switch", pair=(5, 99)))

    def test_anonymize_never_touches_features(self):
        flows = self.encoded()
        for mode in (
            AnonymizeMode("shift", shift_by=2),
            AnonymizeMode("switch", pair=(5, 6)),
        ):
            out = anonymize(flows, mode)
            for before, after in zip(flows, out):
                assert before.features == after.features

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="shift_by"):
            AnonymizeMode("shift", shift_by=0)
        with pytest.raises(ValueError, match="pair"):
            AnonymizeMode("switch", pair=(5, 5))


def pool(n_benign=30, n_attack=10, seed=0):
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_benign):
        flows.append(make_flow(start=float(i), seed=int(rng.integers(1 << 30))))
    for i in range(n_attack):
        flows.append(
            make_flow(src="10.0.5.6", start=float(n_benign + i), label_="dos", seed=int(rng.integers(1 << 30)))
        )
    return encode_ips(flows)


class TestBuildDataset:
    def test_drop_ports_and_ip_columns(self):
        flows = pool()
        train, test = build_dataset(flows, drop_ports=True, split_fraction=0.5, shuffle_seed=1)
        assert "Src Port" not in train.feature_names
        assert train.feature_names[:2] == ["Src IP", "Dst IP"]
        train2, _ = build_dataset(flows, drop_ports=False, split_fraction=0.5, shuffle_seed=1)
        assert "Src Port" in train2.feature_names

    def test_ip_modes(self):
        flows = pool()
        for mode, expected in (
            ("both", {"Src IP", "Dst IP"}),
            ("source_only", {"Src IP"}),
            ("destination_only", {"Dst IP"}),
            ("none", set()),
        ):
            train, _ = build_dataset(flows, split_fraction=0.5, shuffle_seed=1, ip_mode=mode)
            assert {n for n in train.feature_names if "IP" in n} == expected

    def test_timestamp_toggle(self):
        flows = pool()
        train, _ = build_dataset(flows, keep_timestamp=False, split_fraction=0.5, shuffle_seed=1)
        assert "Timestamp" not in train.feature_names
        assert len(train.feature_names) == 2 + 77

    def test_normalization_bounds_and_inverse(self):
        flows = pool()
        train, test = build_dataset(flows, split_fraction=0.6, shuffle_seed=2)
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
        flows = pool()
        for f in flows:
            f.features[FEATURE_INDEX["Init Fwd Win Byts"]] = 0.0
        train, test = build_dataset(flows, split_fraction=0.5, shuffle_seed=3)
        assert "Init Fwd Win Byts" in train.constant_features
        j = train.feature_names.index("Init Fwd Win Byts")
        assert not train.matrix[:, j].any()
        assert not test.matrix[:, j].any()

    def test_same_seed_same_split(self):
        flows = pool()
        a_train, a_test = build_dataset(flows, split_fraction=0.5, shuffle_seed=9)
        b_train, b_test = build_dataset(flows, split_fraction=0.5, shuffle_seed=9)
        assert np.array_equal(a_train.matrix, b_train.matrix)
        assert a_test.labels == b_test.labels

    def test_stratified_split_counts(self):
        flows = pool(n_benign=40, n_attack=12)
        train, test = build_dataset(flows, split_fraction=0.75, shuffle_seed=4)
        assert train.class_counts() == {"benign": 30, "dos": 9}
        assert test.class_counts() == {"benign": 10, "dos": 3}

    def test_empty_train_class_rejected(self):
        flows = pool(n_benign=30, n_attack=1)
        with pytest.raises(ValueError, match="no training rows"):
            split_flows(flows, 0.2, 1)

    def test_normalization_from_train_only(self):
        flows = pool()
        train_flows, test_flows = split_flows(flows, 0.5, 7)
        train, test = build_dataset_from_split(train_flows, test_flows)
        j = train.feature_names.index("Flow Duration")
        raw_train = [f.feature("Flow Duration") for f in train_flows]
        assert train.norm_min[j] == min(raw_train)
        assert train.norm_max[j] == max(raw_train)
