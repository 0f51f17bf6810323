import numpy as np
import pytest

from netwarden import features as ft
from netwarden import pcap
from netwarden.errors import EmptyTrainingSet, ManifestMismatch, \
    NonFiniteFeature
from netwarden.flows import MeterConfig, meter
from test_flows import pkt, rev


def extract_one(packets, mode="uni", tw=None):
    recs = list(meter(packets, MeterConfig(direction_mode=mode,
                                           tw_seconds=tw)))
    assert len(recs) == 1
    return recs[0]


class TestManifests:
    def test_sizes(self):
        assert len(ft.UNI_FLOW_MANIFEST) >= 60
        assert len(ft.PACKET_MANIFEST) == 20
        assert len(ft.BI_FLOW_MANIFEST) > len(ft.UNI_FLOW_MANIFEST)

    @pytest.mark.parametrize("manifest", [ft.UNI_FLOW_MANIFEST,
                                          ft.BI_FLOW_MANIFEST])
    def test_flow_categories_at_least_five(self, manifest):
        counts = manifest.category_counts()
        assert all(counts[c] >= 5 for c in ft.CATEGORIES)

    def test_packet_categories_nonempty(self):
        counts = ft.PACKET_MANIFEST.category_counts()
        assert all(counts[c] >= 1 for c in ft.CATEGORIES)

    def test_unique_names(self):
        for m in ft.DEFAULT_MANIFESTS.values():
            assert len(set(m.names)) == len(m.names)

    def test_hash_changes_with_subset(self):
        m = ft.UNI_FLOW_MANIFEST
        sub = m.subset(m.names[:10])
        assert sub.hash != m.hash
        assert len(sub) == 10

    def test_subset_unknown_name(self):
        with pytest.raises(ManifestMismatch):
            ft.UNI_FLOW_MANIFEST.subset(["no_such_feature"])


FORBIDDEN_TOKENS = ("src_ip", "dst_ip", "src_port", "dst_port", "ts",
                    "window_start", "window_end", "first_ts", "last_ts",
                    "key")


class TestPrivacyAudit:
    """No feature computation may read addresses, ports or raw
    timestamps; the views physically lack them and the access audit
    proves no function reaches beyond the views."""

    def test_views_expose_no_identifiers(self):
        for cls in (ft.FlowView, ft.DirView, ft.PacketView):
            for name in FORBIDDEN_TOKENS:
                assert name not in cls.__slots__

    @pytest.mark.parametrize("manifest", list(ft.DEFAULT_MANIFESTS.values()))
    def test_feature_functions_touch_only_view_fields(self, manifest):
        allowed_roots = set(ft.FlowView.__slots__) \
            | set(ft.PacketView.__slots__)
        allowed_dir = set(ft.DirView.__slots__)
        report = ft.audit_feature_access(manifest)
        assert set(report) == set(manifest.names)
        for name, paths in report.items():
            assert paths, "feature %s reads nothing" % name
            for path in paths:
                parts = path.split(".")
                assert parts[0] in allowed_roots, (name, path)
                if len(parts) > 1:
                    assert parts[0] in ("all", "fwd", "bwd"), (name, path)
                    assert parts[1] in allowed_dir, (name, path)


class TestFlowFeatures:
    def names_values(self, rec, manifest=ft.UNI_FLOW_MANIFEST):
        vec = ft.flow_features(rec, manifest)
        return dict(zip(manifest.names, vec))

    def test_one_packet_udp_flow(self):
        rec = extract_one([pkt(5.0, proto=17, payload=58)])  # 100 bytes
        got = self.names_values(rec)
        assert got["pkt_count"] == 1
        assert got["byte_count"] == 100
        assert got["duration"] == 0.0
        assert got["iat_mean"] == 0.0
        assert got["iat_std"] == 0.0
        assert got["iat_min"] == 0.0
        assert all(got["flag_%s_count" % f] == 0 for f in ft.FLAG_NAMES)
        assert got["proto_udp"] == 1.0 and got["proto_tcp"] == 0.0

    def test_iat_arithmetic(self):
        rec = extract_one([pkt(0.0), pkt(0.2), pkt(0.6)])
        got = self.names_values(rec)
        assert got["iat_mean"] == pytest.approx(0.3)
        assert got["iat_min"] == pytest.approx(0.2)
        assert got["iat_max"] == pytest.approx(0.4)

    def test_flag_counts(self):
        ps = [pkt(0.0, flags=pcap.TCP_SYN), pkt(0.1, flags=pcap.TCP_SYN)]
        ps += [pkt(0.2 + i / 10.0, flags=pcap.TCP_ACK) for i in range(5)]
        ps += [pkt(0.8, flags=pcap.TCP_FIN)]
        rec = extract_one(ps)
        got = self.names_values(rec)
        assert got["flag_syn_count"] == 2
        assert got["flag_ack_count"] == 5
        assert got["flag_fin_count"] == 1

    def test_rate_floor_on_degenerate_flow(self):
        rec = extract_one([pkt(0.0, payload=100)])
        got = self.names_values(rec)
        # duration 0 -> rates use the 1 ms floor
        assert got["byte_rate"] == pytest.approx(154 / 1e-3)

    def test_bidirectional_split(self):
        a = pkt(0.0, payload=10)
        ps = [a, pkt(0.1, payload=10), rev(a, ts=0.2, payload=99)]
        rec = extract_one(ps, mode="bi")
        got = self.names_values(rec, ft.BI_FLOW_MANIFEST)
        assert got["fwd_pkt_count"] == 2
        assert got["bwd_pkt_count"] == 1
        assert got["fwd_bwd_pkt_ratio"] == pytest.approx(2.0)
        assert got["pkt_count"] == 3

    def test_mode_mismatch(self):
        rec = extract_one([pkt(0.0)])
        with pytest.raises(ManifestMismatch):
            ft.flow_features(rec, ft.BI_FLOW_MANIFEST)
        with pytest.raises(ManifestMismatch):
            ft.flow_features(rec, ft.PACKET_MANIFEST)

    def test_deterministic_bit_for_bit(self):
        ps = [pkt(0.0, payload=7), pkt(0.31, payload=300),
              pkt(0.62, payload=14)]
        r1 = extract_one(ps)
        r2 = extract_one(ps)
        v1 = ft.flow_features(r1, ft.UNI_FLOW_MANIFEST)
        v2 = ft.flow_features(r2, ft.UNI_FLOW_MANIFEST)
        assert np.array_equal(v1, v2)


class TestPacketFeatures:
    def test_first_packet_iat_zero(self):
        ctx = ft.PacketContext()
        vec = ft.packet_features(pkt(10.0), ctx)
        got = dict(zip(ft.PACKET_MANIFEST.names, vec))
        assert got["iat_prev"] == 0.0
        assert got["pkt_index"] == 1

    def test_second_packet_iat(self):
        ctx = ft.PacketContext()
        ft.packet_features(pkt(10.0), ctx)
        vec = ft.packet_features(pkt(10.05), ctx)
        got = dict(zip(ft.PACKET_MANIFEST.names, vec))
        assert got["iat_prev"] == pytest.approx(0.05)
        assert got["pkt_index"] == 2

    def test_syn_onehots(self):
        ctx = ft.PacketContext()
        vec = ft.packet_features(pkt(0.0, flags=pcap.TCP_SYN), ctx)
        got = dict(zip(ft.PACKET_MANIFEST.names, vec))
        assert got["proto_tcp"] == 1.0 and got["proto_udp"] == 0.0
        assert got["flag_syn"] == 1.0
        assert sum(got["flag_%s" % f] for f in ft.FLAG_NAMES) == 1.0

    def test_udp_window_zero(self):
        ctx = ft.PacketContext()
        vec = ft.packet_features(pkt(0.0, proto=17), ctx)
        got = dict(zip(ft.PACKET_MANIFEST.names, vec))
        assert got["tcp_window"] == 0.0

    def test_context_is_per_direction(self):
        ctx = ft.PacketContext()
        a = pkt(0.0)
        ft.packet_features(a, ctx)
        vec = ft.packet_features(rev(a, ts=1.0), ctx)
        got = dict(zip(ft.PACKET_MANIFEST.names, vec))
        assert got["iat_prev"] == 0.0  # reverse direction starts fresh


def matrix(vals, names=None, mode="uni_flow"):
    vals = np.asarray(vals, dtype=np.float64)
    names = tuple(names or ["f%d" % i for i in range(vals.shape[1])])
    return ft.FeatureMatrix(values=vals, names=names, mode=mode)


class TestNormalizer:
    def test_constant_column_dropped(self):
        X = matrix([[2.0, 1.0], [2.0, 2.0], [2.0, 3.0]])
        stats = ft.fit_normalizer(X)
        assert stats.dropped == [("f0", 2.0)]
        assert stats.kept_names == ("f1",)

    def test_two_point_column(self):
        X = matrix([[0.0], [2.0]])
        out = ft.apply_normalizer(X, ft.fit_normalizer(X))
        assert np.allclose(out.values[:, 0], [-1.0, 1.0])

    def test_zscore_identity(self):
        rng = np.random.default_rng(0)
        X = matrix(rng.normal(size=(50, 4)) * [1, 5, 0.2, 9] + [0, 3, -2, 7])
        out = ft.apply_normalizer(X, ft.fit_normalizer(X))
        assert np.all(np.abs(out.values.mean(axis=0)) < 1e-9)
        assert np.allclose(out.values.std(axis=0), 1.0)

    def test_refit_idempotent(self):
        rng = np.random.default_rng(1)
        X = matrix(rng.normal(size=(40, 3)))
        out = ft.apply_normalizer(X, ft.fit_normalizer(X))
        stats2 = ft.fit_normalizer(out)
        assert np.all(np.abs(stats2.mean) < 1e-9)
        assert np.allclose(stats2.std, 1.0)

    def test_empty_training(self):
        X = matrix(np.empty((0, 2)))
        with pytest.raises(EmptyTrainingSet):
            ft.fit_normalizer(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        # such a column has a non-finite std and was once dropped as
        # constant without a word
        vals = np.arange(12.0).reshape(4, 3)
        vals[2, 1] = bad
        vals[3, 0] = bad
        with pytest.raises(NonFiniteFeature) as exc:
            ft.fit_normalizer(matrix(vals))
        assert "row 2, column 1 (f1)" in str(exc.value)
        assert exc.value.code == "non_finite_feature"

    def test_hash_mismatch(self):
        X = matrix([[0.0], [1.0]])
        stats = ft.fit_normalizer(X)
        other = matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ManifestMismatch):
            ft.apply_normalizer(other, stats)

    def test_stats_round_trip(self):
        rng = np.random.default_rng(2)
        X = matrix(np.hstack([rng.normal(size=(30, 2)),
                              np.full((30, 1), 4.0)]))
        stats = ft.fit_normalizer(X)
        back = ft.NormalizationStats.from_dict(stats.to_dict())
        a = ft.apply_normalizer(X, stats)
        b = ft.apply_normalizer(X, back)
        assert np.array_equal(a.values, b.values)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        X = matrix(rng.normal(size=(10, 4)))
        path = str(tmp_path / "m.csv")
        ft.write_matrix_csv(X, path)
        back = ft.read_matrix_csv(path)
        assert back.names == X.names
        assert back.mode == X.mode
        assert np.array_equal(back.values, X.values)
        assert back.labels is None

    def test_round_trip_with_labels(self, tmp_path):
        X = matrix([[1.0, 2.0], [3.0, 4.0]])
        X.labels = ["Normal", "Scan"]
        path = str(tmp_path / "m.csv")
        ft.write_matrix_csv(X, path)
        back = ft.read_matrix_csv(path)
        assert back.labels == ["Normal", "Scan"]
        assert np.array_equal(back.values, X.values)

    def test_tampered_header_detected(self, tmp_path):
        X = matrix([[1.0, 2.0]])
        path = tmp_path / "m.csv"
        ft.write_matrix_csv(X, str(path))
        text = path.read_text().replace("f0", "g0")
        path.write_text(text)
        with pytest.raises(ManifestMismatch):
            ft.read_matrix_csv(str(path))
