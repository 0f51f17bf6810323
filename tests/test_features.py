import csv
import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from netwarden import features as ft
from netwarden import pcap
from netwarden.errors import EmptyTraining, ManifestMismatch, \
    NonFiniteFeature
from netwarden.flows import DirStats, FlowRecord, MeterConfig, meter
from netwarden.pipeline import extract_matrix
from test_flows import pkt, random_stream, rev


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
        counts = Counter(e.category for e in manifest.entries)
        assert all(counts[c] >= 5 for c in ft.CATEGORIES)

    def test_packet_categories_nonempty(self):
        counts = Counter(e.category for e in ft.PACKET_MANIFEST.entries)
        assert all(counts[c] >= 1 for c in ft.CATEGORIES)

    def test_unique_names(self):
        for m in ft.DEFAULT_MANIFESTS.values():
            assert len(set(m.names)) == len(m.names)

    def test_hash_changes_with_subset(self):
        m = ft.UNI_FLOW_MANIFEST
        assert m.hash == ft.manifest_hash(m.mode, m.names)
        assert ft.manifest_hash(m.mode, m.names[:10]) != m.hash
        assert ft.manifest_hash(m.mode, m.names[::-1]) != m.hash
        assert ft.manifest_hash(ft.MODE_BI_FLOW, m.names) != m.hash

    def test_rows_come_only_in_the_default_manifest(self):
        rec = extract_one([pkt(0.0), pkt(0.5, payload=40)])
        narrowed = ft.Manifest(ft.MODE_UNI_FLOW,
                               ft.UNI_FLOW_MANIFEST.entries[:10])
        with pytest.raises(ManifestMismatch):
            ft.flow_features(rec, narrowed)
        with pytest.raises(ManifestMismatch):
            ft.packet_features(pkt(0.0), ft.PacketContext(), ft.Manifest(
                ft.MODE_PACKET, ft.PACKET_MANIFEST.entries[::-1]))
        # an equal manifest built anew is the default
        rebuilt = ft.Manifest(ft.MODE_UNI_FLOW, ft.UNI_FLOW_MANIFEST.entries)
        assert np.array_equal(ft.flow_features(rec, rebuilt),
                              ft.flow_features(rec, ft.UNI_FLOW_MANIFEST))


FORBIDDEN_FIELDS = {"key", "src_ip", "dst_ip", "src_port", "dst_port", "ts",
                    "first_ts", "last_ts", "window_start", "window_end"}


def forbidden_reads(paths):
    """Attribute paths that reach a key, an address, a port or an absolute
    timestamp (a FlowRecord's or a DirStats' last_ts included)."""
    return {p for p in paths if FORBIDDEN_FIELDS & set(p.split("."))}


class TestPrivacyAudit:
    """No row builder may read addresses, ports or absolute timestamps.
    The audit runs each builder against recording stand-ins for
    FlowRecord / DirStats and PacketRecord; what each column means is
    pinned by the oracle tests below."""

    @pytest.mark.parametrize("mode", ft.MODES)
    def test_builders_read_no_identifiers(self, mode):
        read = ft.audit_feature_access(mode)
        assert read
        assert not forbidden_reads(read)
        # the stand-ins answer for real fields only
        if mode == ft.MODE_PACKET:
            fields = {f.name for f in dataclasses.fields(pcap.PacketRecord)}
            assert read <= fields
        else:
            top = set(FlowRecord.__slots__)
            for path in read:
                parts = path.split(".")
                assert parts[0] in top, path
                if len(parts) > 1:
                    assert parts[0] in ("fwd", "bwd"), path
                    assert parts[1] in DirStats.__slots__, path

    def test_every_dir_stats_slot_is_read_or_dumped(self):
        """No dead accumulator: a DirStats slot is read by a flow row
        builder or written by the flow dump (last_ts only feeds iat)."""
        read = ft.audit_feature_access(ft.MODE_UNI_FLOW) \
            | ft.audit_feature_access(ft.MODE_BI_FLOW)
        used = {p.split(".")[1] for p in read if "." in p}
        dumped: set = set()
        oracles._dir_csv_values(ft._Recorder(dumped))
        unused = set(DirStats.__slots__) - used - dumped - {"last_ts"}
        assert not unused

    @pytest.mark.parametrize("mode", [ft.MODE_UNI_FLOW, ft.MODE_BI_FLOW])
    def test_column_builders_read_what_the_row_builders_read(self, mode):
        """The batch job's column builder reads accumulator columns only,
        the ones the mode's row builder reads, never a key column."""
        read = ft.audit_feature_access(mode, ft._COLUMN_BUILDERS[mode])
        assert read == ft.audit_feature_access(mode)
        assert not forbidden_reads(read)

    def test_bi_flow_reads_both_sides(self):
        read = ft.audit_feature_access(ft.MODE_BI_FLOW)
        assert {"fwd.pkt_count", "bwd.pkt_count", "bwd.flag_counts"} <= read

    @pytest.mark.parametrize("mode, build, caught", [
        (ft.MODE_UNI_FLOW, lambda rec: [rec.key, rec.duration], {"key"}),
        (ft.MODE_BI_FLOW, lambda rec: [rec.bwd.last_ts], {"bwd.last_ts"}),
        (ft.MODE_BI_FLOW, lambda rec: [rec.first_ts], {"first_ts"}),
        (ft.MODE_PACKET, lambda p, iat, i: [p.ttl, p.src_port],
         {"src_port"}),
        (ft.MODE_PACKET, lambda p, iat, i: [p.ts], {"ts"}),
    ], ids=["flow_key", "dir_last_ts", "first_ts", "port", "packet_ts"])
    def test_audit_catches_identifier_reads(self, mode, build, caught):
        assert forbidden_reads(ft.audit_feature_access(mode, build)) \
            == caught


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


ORACLE_ENTRIES = {
    ft.MODE_UNI_FLOW: oracles.UNI_FLOW_ORACLE,
    ft.MODE_BI_FLOW: oracles.BI_FLOW_ORACLE,
    ft.MODE_PACKET: oracles.PACKET_ORACLE,
}
FLOW_CONFIGS = [(ft.MODE_UNI_FLOW, 1.0), (ft.MODE_UNI_FLOW, None),
                (ft.MODE_BI_FLOW, 1.0), (ft.MODE_BI_FLOW, None)]


def meter_flows(packets, mode, tw):
    return list(meter(packets, MeterConfig(
        direction_mode=ft.MODE_TO_DIRECTION[mode], tw_seconds=tw)))


def oracle_flow_rows(recs, mode) -> np.ndarray:
    entries = ORACLE_ENTRIES[mode]
    return np.array([oracles.flow_row_oracle(r, entries) for r in recs],
                    dtype=np.float64).reshape(len(recs), len(entries))


def oracle_packet_rows(packets) -> np.ndarray:
    ctx = oracles.PacketContextOracle()
    return np.array([oracles.packet_row_oracle(p, ctx, oracles.PACKET_ORACLE)
                     for p in packets], dtype=np.float64)


def assert_same_bits(got, want, names):
    """Bit-for-bit equality of two rows or matrices, compared as uint64."""
    got = np.atleast_2d(np.asarray(got))
    want = np.atleast_2d(np.asarray(want))
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    bad = np.argwhere(got.view(np.uint64) != want.view(np.uint64))
    if bad.size:
        row, col = bad[0]
        pytest.fail("%d differing values; first at row %d, %s: %r != %r"
                    % (len(bad), row, names[col], got[row, col],
                       want[row, col]))


def assert_stream_matches_oracle(packets):
    """Every flow row in each flow mode and time window, and every packet
    row, equals the oracle's bit for bit."""
    for mode, tw in FLOW_CONFIGS:
        manifest = ft.DEFAULT_MANIFESTS[mode]
        for rec in meter_flows(packets, mode, tw):
            assert_same_bits(ft.flow_features(rec, manifest),
                             oracle_flow_rows([rec], mode), manifest.names)
    ctx = ft.PacketContext()
    got = [ft.packet_features(p, ctx) for p in packets]
    assert_same_bits(got, oracle_packet_rows(packets),
                     ft.PACKET_MANIFEST.names)


def _edge_streams():
    syn = pkt(0.0, flags=pcap.TCP_SYN, window=0)
    icmp = dict(sport=0, dport=0)
    return {
        "one_packet_tcp": [pkt(0.0, flags=pcap.TCP_SYN)],
        "one_packet_udp": [pkt(5.0, proto=17, payload=58)],
        "icmp": [pkt(0.0, proto=1, **icmp),
                 pkt(0.4, proto=1, payload=56, **icmp)],
        "icmpv6": [pkt(0.0, proto=58, payload=8, **icmp)],
        "other_proto": [pkt(0.0, proto=47, payload=100, **icmp),
                        pkt(2.0, proto=47, payload=1200, **icmp)],
        "zero_duration": [pkt(1.0), pkt(1.0, payload=1200), pkt(1.0)],
        "empty_backward": [pkt(0.0), pkt(0.3, payload=31),
                           pkt(0.6, flags=pcap.TCP_FIN)],
        "one_each_way": [pkt(0.0, payload=10), rev(pkt(0.0), ts=0.2)],
        "window_zero_fwd": [syn, rev(syn, ts=0.1, window=512,
                                     flags=pcap.TCP_SYN | pcap.TCP_ACK),
                            pkt(0.2, window=0)],
        "window_zero_both": [syn, rev(syn, ts=0.1, window=0)],
        "active_idle_runs": [pkt(0.0), pkt(0.1, payload=1000), pkt(3.0),
                             pkt(3.2), pkt(9.0), pkt(30.0)],
    }


EDGE_STREAMS = _edge_streams()


HOSTS = (("10.0.0.1", 5000), ("10.0.0.2", 80), ("10.0.0.3", 53),
         ("2001:db8::1", 443))
L4_HEADER = {6: 20, 17: 8, 1: 8, 58: 8}


@st.composite
def packet_streams(draw):
    """Short timestamp-ordered packet streams among a few hosts, mixing
    protocols, TCP flags and windows (0 included), payload sizes around
    the small/large cut-offs, and gaps around the active gap, the time
    window and the idle timeout."""
    packets = []
    ts = draw(st.floats(0.0, 1e6))
    for _ in range(draw(st.integers(1, 30))):
        ts += draw(st.one_of(
            st.sampled_from([0.0, 1e-6, 0.001, 0.9999, 1.0, 1.5, 16.0]),
            st.floats(0.0, 20.0)))
        src, dst = draw(st.lists(st.sampled_from(HOSTS), min_size=2,
                                 max_size=2, unique=True))
        proto = draw(st.sampled_from([6, 6, 17, 1, 58, 47]))
        tcp = proto == 6
        ip_header = draw(st.sampled_from([20, 24, 40]))
        l4_header = L4_HEADER.get(proto, 0)
        payload = draw(st.one_of(
            st.sampled_from([0, 31, 32, 999, 1000]),
            st.integers(0, 1460)))
        packets.append(pcap.PacketRecord(
            ts=ts, src_ip=src[0], dst_ip=dst[0], src_port=src[1],
            dst_port=dst[1], protocol=proto, link_header_len=14,
            ip_header_len=ip_header, l4_header_len=l4_header,
            total_len=ip_header + l4_header + payload,
            ttl=draw(st.integers(1, 255)), payload_len=payload,
            tcp_flags=draw(st.integers(0, 255)) if tcp else None,
            tcp_window=draw(st.sampled_from([0, 1, 65535])) if tcp else None))
    return packets


class TestRowOracle:
    """The row builders against the view-plus-lambda oracle
    (tests/oracles.py), bit for bit."""

    def test_names_and_categories_match_the_oracle(self):
        for mode, entries in ORACLE_ENTRIES.items():
            assert [(e.name, e.category) for e in
                    ft.DEFAULT_MANIFESTS[mode].entries] \
                == [(e.name, e.category) for e in entries]

    @pytest.mark.parametrize("mode, tw", FLOW_CONFIGS)
    @pytest.mark.parametrize("capture", ["train.pcap", "test.pcap"])
    def test_synth_flow_matrix(self, corpus_dir, capture, mode, tw):
        path = str(corpus_dir / capture)
        X = extract_matrix(path, mode, tw=tw)
        recs = list(meter(pcap.open_capture(path), MeterConfig(
            direction_mode=ft.MODE_TO_DIRECTION[mode], tw_seconds=tw)))
        assert X.n == len(recs) > 0
        assert_same_bits(X.values, oracle_flow_rows(recs, mode), X.names)

    @pytest.mark.parametrize("capture", ["train.pcap", "test.pcap"])
    def test_synth_packet_matrix(self, corpus_dir, capture):
        path = str(corpus_dir / capture)
        X = extract_matrix(path, ft.MODE_PACKET)
        assert_same_bits(X.values,
                         oracle_packet_rows(list(pcap.open_capture(path))),
                         X.names)

    @pytest.mark.parametrize("name", sorted(EDGE_STREAMS))
    def test_edge_stream(self, name):
        assert_stream_matches_oracle(EDGE_STREAMS[name])

    def test_edge_streams_cover_the_cases(self):
        flows = [rec for packets in EDGE_STREAMS.values()
                 for mode, tw in FLOW_CONFIGS
                 for rec in meter_flows(packets, mode, tw)]
        bi = [r for r in flows if r.bwd is not None]
        packets = [p for ps in EDGE_STREAMS.values() for p in ps]
        assert any(r.pkt_count == 1 for r in flows)
        assert any(r.bwd.pkt_count == 0 and r.pkt_count > 1 for r in bi)
        assert any(r.bwd.pkt_count == 1 and r.fwd.pkt_count == 1
                   for r in bi)  # no gap on either side
        assert any(r.duration == 0.0 and r.pkt_count > 1 for r in flows)
        assert any(r.fwd.init_window == 0 and r.bwd.init_window
                   for r in bi)
        assert any(r.fwd.init_window is None for r in flows)
        assert any(r.idle_count > 0 for r in flows)
        assert {p.protocol for p in packets} >= {6, 17, 1, 58, 47}
        assert any(p.tcp_window == 0 for p in packets)

    @settings(max_examples=60, deadline=None)
    @given(packet_streams())
    def test_generated_streams(self, packets):
        assert_stream_matches_oracle(packets)


def oracle_time_columns(q: dict, bi: bool) -> dict:
    """A flow row's time-based columns by name, from the statistics
    `oracles.meter_times_oracle` gives for the flow."""
    gaps, active, idle = q["gaps"], q["active"], q["idle"]
    cols = {
        "duration": q["duration"],
        "iat_min": gaps["min"], "iat_max": gaps["max"],
        "iat_mean": oracles._mean(gaps["sum"], gaps["count"]),
        "iat_std": oracles._pop_std(gaps["sum"], gaps["sumsq"],
                                    gaps["count"]),
        "iat_range": gaps["max"] - gaps["min"],
        "active_total": active["total"], "active_max": active["max"],
        "active_mean": oracles._mean(active["total"], active["count"]),
        "active_count": active["count"],
        "idle_total": idle["total"], "idle_max": idle["max"],
        "idle_mean": oracles._mean(idle["total"], idle["count"]),
        "idle_count": idle["count"],
        "idle_ratio": idle["total"] / max(q["duration"], oracles.RATE_FLOOR),
    }
    if bi:
        for side, s in zip(("fwd", "bwd"), q["sides"]):
            cols[side + "_iat_mean"] = oracles._mean(s["sum"], s["count"])
            cols[side + "_iat_std"] = oracles._pop_std(s["sum"], s["sumsq"],
                                                       s["count"])
            cols[side + "_iat_max"] = s["max"]
    return cols


TIME_STREAMS = {**{"random_%d" % seed: random_stream(
    np.random.default_rng(seed)) for seed in range(30)}, **EDGE_STREAMS}
GAP_FIELDS = ("min", "max", "sum", "sumsq", "count")


class TestTimeStatsMatchOracle:
    """Each flow's time-based row columns, and each side's gap statistics
    in the flow dump, against `oracles.meter_times_oracle`'s plain-loop
    recomputation from the flow's own packets, bit for bit. The meter
    keeps no gap count, run count or longest idle gap: this is what checks
    the ones the row builders and the dump derive."""

    @pytest.mark.parametrize("mode", [ft.MODE_UNI_FLOW, ft.MODE_BI_FLOW])
    def test_streams(self, mode, tmp_path):
        manifest = ft.DEFAULT_MANIFESTS[mode]
        direction = ft.MODE_TO_DIRECTION[mode]
        sides = ("fwd", "bwd") if mode == ft.MODE_BI_FLOW else ("fwd",)
        time = [i for i, e in enumerate(manifest.entries)
                if e.category == ft.CAT_TIME]
        names = [manifest.names[i] for i in time]
        dump = tmp_path / "flows.csv"
        for stream, packets in TIME_STREAMS.items():
            recs = list(meter(packets, MeterConfig(direction_mode=direction,
                                                   idle_timeout=np.inf)))
            want = {(key, start): q for key, start, q
                    in oracles.meter_times_oracle(packets, direction)}
            assert len(want) == len(recs), stream
            oracles.write_flow_csv_oracle(recs, str(dump), direction)
            with open(dump) as fh:
                rows = list(csv.DictReader(fh))
            for rec, row in zip(recs, rows):
                q = want[tuple(rec.key), rec.window_start]
                cols = oracle_time_columns(q, len(sides) == 2)
                assert sorted(cols) == sorted(names)
                assert_same_bits(ft.flow_features(rec, manifest)[time],
                                 np.array([cols[n] for n in names],
                                          dtype=np.float64), names)
                for side, stats in zip(sides, q["sides"]):
                    fields = [side + "_iat_" + f for f in GAP_FIELDS]
                    assert_same_bits(
                        np.array([float(row[f]) for f in fields]),
                        np.array([stats[f] for f in GAP_FIELDS],
                                 dtype=np.float64), fields)


class TestMatrixPins:
    """SHA-256 of `extract_matrix` values on the shared corpora, taken
    before the flow accumulators lost their duplicate sums and derivable
    counts; independent of the row oracle, which reads the same
    accumulators (`TestTimeStatsMatchOracle` recomputes the time columns
    from the packets)."""

    VALUES_SHA256 = {
        ("train.pcap", ft.MODE_PACKET, None):
            "e1aa9a10a1402ccd4f68d17e20984bb3a4cd3fee8ee85c57a85cc5c1dfb49e3b",
        ("train.pcap", ft.MODE_UNI_FLOW, 1.0):
            "701d72d8c4147a8a73d7494e554e8a42344040c3eeeacec706493454ef098c91",
        ("train.pcap", ft.MODE_UNI_FLOW, None):
            "7a6295d0e0652d053c84c1b9a569a0892d057a2e1bde6fd13e2c07e8122df87c",
        ("train.pcap", ft.MODE_BI_FLOW, 1.0):
            "6601810a7b223e929a0c10aea5a3fac4dd538740c4f92402c909a8768da03b73",
        ("train.pcap", ft.MODE_BI_FLOW, None):
            "792c02135fe9cc91c6e402fff32b9534dea4aa34113cb54549cb1633874a00d7",
        ("test.pcap", ft.MODE_PACKET, None):
            "9c6aedf1b731996635567fee3a6afc9625d26c7e020e5927afc715ee2c9ac0b3",
        ("test.pcap", ft.MODE_UNI_FLOW, 1.0):
            "ccbdb0d6d59950eeae5d7ffed803c948729e6e40f7616325c47e217fd80ca373",
        ("test.pcap", ft.MODE_UNI_FLOW, None):
            "93d15924ee87e044cb54572bf24702d94f35fe1f83db65b7b50c30d456356a1e",
        ("test.pcap", ft.MODE_BI_FLOW, 1.0):
            "d1d6e5dacf1871ed9a2d37c97b21803a50f058231b4170fa8a6dc8a9e799af5b",
        ("test.pcap", ft.MODE_BI_FLOW, None):
            "81adfe25c42d4d0286d22a448a389579940297dced7d0ca8749a1e2ca4f9ce3a",
    }

    @pytest.mark.parametrize("capture, mode, tw", sorted(
        VALUES_SHA256, key=lambda k: (k[0], k[1], k[2] or 0.0)))
    def test_values_are_pinned(self, corpus_dir, capture, mode, tw):
        X = extract_matrix(str(corpus_dir / capture), mode, tw=tw)
        digest = hashlib.sha256(
            np.ascontiguousarray(X.values).tobytes()).hexdigest()
        assert digest == self.VALUES_SHA256[capture, mode, tw]


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

    def test_all_columns_constant(self):
        X = matrix([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
        out = ft.apply_normalizer(X, ft.fit_normalizer(X))
        assert out.values.shape == (3, 0)
        assert out.names == ()

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
        with pytest.raises(EmptyTraining):
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

    @pytest.mark.parametrize("body, error, problem", [
        ("1,2\n3\n", ManifestMismatch, "line 4 has 1 fields, the header 2"),
        ("1,2\n3,4,5\n", ManifestMismatch, "line 4 has 3 fields"),
        ("1\n3\n", ManifestMismatch, "line 3 has 1 fields"),
        ("1,2\n\n3,x\n", NonFiniteFeature, "line 5, column f1: 'x' is not"),
        ("1,2\n,4\n", NonFiniteFeature, "line 4, column f0: '' is not"),
    ], ids=["field-missing", "field-extra", "every-row-short",
            "not-a-number", "empty-cell"])
    def test_bad_row_names_its_line(self, tmp_path, body, error, problem):
        path = tmp_path / "m.csv"
        ft.write_matrix_csv(matrix(np.empty((0, 2))), str(path))
        path.write_text(path.read_text() + body)
        with pytest.raises(error) as exc:
            ft.read_matrix_csv(str(path))
        assert "matrix CSV " + problem in str(exc.value)

    def test_label_column_counts_as_a_field(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,label\n1,2,Scan\n1,2\n")
        with pytest.raises(ManifestMismatch, match="line 3 has 2 fields, "
                                                   "the header 3"):
            ft.read_matrix_csv(str(path))

    def test_tampered_header_detected(self, tmp_path):
        X = matrix([[1.0, 2.0]])
        path = tmp_path / "m.csv"
        ft.write_matrix_csv(X, str(path))
        text = path.read_text().replace("f0", "g0")
        path.write_text(text)
        with pytest.raises(ManifestMismatch):
            ft.read_matrix_csv(str(path))
