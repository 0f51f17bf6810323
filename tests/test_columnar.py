"""The columnar batch jobs against the record-by-record jobs they
replace: `extract_matrix(.., "packet")` against `packet_matrix_oracle`,
and the flow modes against `flow_matrix_oracle` (the same values bit for
bit, labels, unmatched count and CaptureSummary, for the flow modes the
same MeterStats and flow dump too, or the same exception), and the
records the decoded columns stand for against the capture reader's."""

import csv
import dataclasses
import ipaddress
import math
import os
import random
import socket
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwarden import columnar, pcap
from netwarden.errors import LabelVocabularyMismatch, TruncatedHeader
from netwarden.evaluation import (LABEL_VOCABULARY, LabelRow,
                                  read_label_file, write_label_file)
from netwarden.features import FeatureMatrix
from netwarden.flows import MeterConfig, write_flow_csv
from netwarden.pipeline import extract_matrix, extract_with_flows

from conftest import (build_global_header, eth_header, ipv4_header,
                      tcp_header, udp_header)
from oracles import flow_matrix_oracle, packet_matrix_oracle
from test_pcap import GOLDEN_FRAMES

MAGICS = {(endian, ns): magic for endian in "<>" for ns, magic in
          ((False, pcap.MAGIC_US_BE), (True, pcap.MAGIC_NS_BE))}
V4 = (b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02", b"\xc0\x00\x02\x07")
V6 = (b"\x20\x01\x0d\xb8" + bytes(11) + b"\x01",
      b"\x20\x01\x0d\xb8" + bytes(11) + b"\x02")
PORTS = (80, 5000)
BASE_SEC = 100
# (mode, time window) of each flow-mode batch job checked
FLOW_JOBS = [("uni_flow", None), ("uni_flow", 1.0), ("bi_flow", None),
             ("bi_flow", 1.0)]
# the generated captures' steps are at most 3 s: idle timeouts this short
# cut flows by their own gaps and by the meter's sweeps, and put packets
# on window and idle boundaries
GENERATED_TW = (None, 0.5, 1.0, 2.0)
GENERATED_IDLE = (0.5, 1.0, 2.0, 15.0)


def _outcome(run):
    try:
        X = run()
    except Exception as exc:
        return type(exc), str(exc)
    return X


def assert_same_as_oracle(capture: str, labels: str | None = None):
    """Returns the columnar matrix, or the exception both raised."""
    got = _outcome(lambda: extract_matrix(capture, "packet",
                                          labels_path=labels))
    want = _outcome(lambda: packet_matrix_oracle(capture, labels))
    if isinstance(want, tuple):
        assert got == want
        return got
    assert not isinstance(got, tuple), got
    _assert_same_matrix(got, want)
    return got


def _flow_outcome(run):
    """(matrix, bytes of the flow dump) of run(dump path), or the class
    and message of what it raised (and no dump was written)."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "flows.csv")
        try:
            X = run(path)
        except Exception as exc:
            assert not os.path.exists(path)
            return type(exc), str(exc)
        with open(path, "rb") as fh:
            return X, fh.read()


def assert_flows_same_as_oracle(capture: str, mode: str, tw: float | None,
                                labels: str | None = None,
                                idle_timeout=MeterConfig.idle_timeout):
    """Returns the flow-mode matrix, or the exception both raised."""
    def batch(dump):
        X, flows = extract_with_flows(capture, mode, tw, idle_timeout,
                                      labels)
        write_flow_csv(flows, dump)
        return X

    got = _flow_outcome(batch)
    want = _flow_outcome(lambda dump: flow_matrix_oracle(
        capture, mode, tw=tw, idle_timeout=idle_timeout, labels_path=labels,
        flows_out=dump))
    if not isinstance(want[0], FeatureMatrix):
        assert got == want
        return got
    assert isinstance(got[0], FeatureMatrix), got
    _assert_same_matrix(got[0], want[0])
    assert got[0].accounting["meter"] == want[0].accounting["meter"]
    assert got[1] == want[1]
    return got[0]


def _assert_same_matrix(got: FeatureMatrix, want: FeatureMatrix):
    assert got.values.shape == want.values.shape
    assert got.values.flags.c_contiguous
    assert np.array_equal(got.values.view(np.uint64),
                          want.values.view(np.uint64))
    assert got.names == want.names and got.mode == want.mode
    assert got.labels == want.labels
    assert got.unmatched_labels == want.unmatched_labels
    assert dataclasses.asdict(got.accounting["capture"]) \
        == dataclasses.asdict(want.accounting["capture"])


def packet_records(reader: pcap.CaptureReader) -> list[pcap.PacketRecord]:
    """The records the columnar decode's columns stand for (the columns
    both batch jobs work on), in their order: flags and window None
    unless TCP, each address spelled by `_AddressIds.text`."""
    ts, fields, ok, address_id = columnar._decode(reader)
    order = columnar._resequence(ts, ok, reader.summary)
    f = fields[:, order]
    src, dst = address_id.text(f[columnar._SRC:columnar._DST + 1])
    tcp = f[columnar._PROTO] == pcap.PROTO_TCP
    c = f.tolist()
    return list(map(
        pcap.PacketRecord, ts[order].tolist(), src.tolist(), dst.tolist(),
        c[columnar._SPORT], c[columnar._DPORT], c[columnar._PROTO],
        c[columnar._LINK], c[columnar._IP_HLEN], c[columnar._L4_HLEN],
        c[columnar._TOTAL], c[columnar._TTL], c[columnar._PAYLOAD],
        np.where(tcp, f[columnar._FLAGS], None).tolist(),
        np.where(tcp, f[columnar._WINDOW], None).tolist()))


def _typed(record) -> tuple:
    """A record's fields with their types, so 1 and True or 0 and None
    tell apart."""
    return tuple((type(v), v) for v in dataclasses.astuple(record))


def assert_records_same_as_reader(capture: str):
    """`packet_records` over a reader gives the records iterating a
    reader gives, field for field, and the same summary, or the same
    exception. Returns the records, or the exception."""
    def run(records):
        try:
            reader = pcap.CaptureReader(capture)
            out = [_typed(r) for r in records(reader)]
        except Exception as exc:
            return type(exc), str(exc)
        return out, dataclasses.asdict(reader.summary)

    got = run(packet_records)
    assert got == run(iter)
    return got[0]


def write_capture(path, frames, link_type=pcap.LINKTYPE_ETHERNET,
                  endian="<", ns=False, tail=b""):
    """frames: (seconds, microseconds, frame bytes); a nanosecond file
    stores each microsecond count times 1000 plus 999."""
    body = [build_global_header(MAGICS[endian, ns], endian, link_type)]
    for sec, usec, frame in frames:
        sub = usec * 1000 + 999 if ns else usec
        body.append(struct.pack(endian + "IIII", sec, sub, len(frame),
                                len(frame)) + frame)
    with open(path, "wb") as fh:
        fh.write(b"".join(body) + tail)


# --- generated captures -----------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Flow:
    """A 5-tuple packets of a generated capture share; IPv6 packets use
    the IPv6 pair."""
    src: bytes
    dst: bytes
    src6: bytes
    dst6: bytes
    sport: int
    dport: int
    proto: int

    def label_key(self, v6: bool) -> tuple:
        if v6:
            src, dst = (str(ipaddress.IPv6Address(a))
                        for a in (self.src6, self.dst6))
        else:
            src, dst = socket.inet_ntoa(self.src), socket.inet_ntoa(self.dst)
        if self.proto not in (pcap.PROTO_TCP, pcap.PROTO_UDP):
            return src, dst, 0, 0, self.proto
        return src, dst, self.sport, self.dport, self.proto


FLOWS = st.builds(Flow, st.sampled_from(V4), st.sampled_from(V4),
                  st.sampled_from(V6), st.sampled_from(V6),
                  st.sampled_from(PORTS), st.sampled_from(PORTS),
                  st.sampled_from([6, 6, 17, 17, 1, 58, 47]))


@st.composite
def l4_segments(draw, flow):
    payload = bytes(draw(st.sampled_from([0, 0, 7, 100])))
    if flow.proto == pcap.PROTO_TCP:
        return tcp_header(flow.sport, flow.dport,
                          flags=draw(st.integers(0, 255)),
                          window=draw(st.sampled_from([0, 1, 14600, 65535])),
                          offset_words=draw(st.sampled_from([5, 5, 6, 8]))) \
            + payload
    if flow.proto == pcap.PROTO_UDP:
        return udp_header(flow.sport, flow.dport, len(payload)) + payload
    if flow.proto in (pcap.PROTO_ICMP, pcap.PROTO_ICMPV6):
        return struct.pack("!BBHI", 8, 0, 0, 0) + payload
    return payload


@st.composite
def ip_packets(draw, flow):
    """(IP packet bytes, its ethertype): IPv4 with or without options,
    first or continuation fragments, or IPv6 with or without extension
    headers and fragment headers."""
    l4 = draw(l4_segments(flow))
    kind = draw(st.sampled_from(["v4"] * 5 + ["v6", "v6-ext"]))
    if kind == "v4":
        ihl = draw(st.sampled_from([5, 5, 5, 6, 7]))
        frag = draw(st.sampled_from([0, 0, 0, 0x4000, 0x2000, 0x2000 | 3, 1]))
        header = ipv4_header(ihl * 4 + len(l4), flow.proto, flow.src,
                             flow.dst, ttl=draw(st.integers(1, 255)),
                             ihl=ihl, frag_field=frag)
        return header + l4, pcap.ETHERTYPE_IPV4
    next_header, ext = flow.proto, b""
    if kind == "v6-ext":
        offset = draw(st.sampled_from([0, 0, 5]))
        ext = struct.pack("!BB6x", 44, 0) \
            + struct.pack("!BxHI", flow.proto, offset << 3, 7)
        next_header = 0  # hop-by-hop, then the fragment header
    header = struct.pack("!IHBB16s16s", 0x60000000, len(ext) + len(l4),
                         next_header, draw(st.integers(1, 255)), flow.src6,
                         flow.dst6)
    return header + ext + l4, pcap.ETHERTYPE_IPV6


@st.composite
def frames(draw, link_type, flows):
    golden = [raw for _, raw, link in GOLDEN_FRAMES if link == link_type]
    if draw(st.integers(0, 5)) == 0:
        frame = draw(st.sampled_from(golden))
    else:
        packet, ethertype = draw(ip_packets(draw(st.sampled_from(flows))))
        frame = packet
        if link_type == pcap.LINKTYPE_ETHERNET:
            wrap = draw(st.sampled_from(["plain"] * 4
                                        + ["vlan", "vlan-vlan", "arp"]))
            tag = struct.pack("!HH", 0, ethertype)
            frame = {
                "plain": eth_header(ethertype),
                "vlan": eth_header(0x8100) + tag,
                "vlan-vlan": eth_header(0x8100) + struct.pack("!HH", 0,
                                                              0x8100) + tag,
                "arp": eth_header(0x0806),
            }[wrap] + packet
    damage = draw(st.sampled_from(["none"] * 5
                                  + ["mutate", "truncate", "pad"]))
    if damage == "mutate":  # the header mutations of test_pcap
        frame = bytearray(frame)
        for _ in range(draw(st.integers(1, 3))):
            frame[draw(st.integers(0, min(len(frame), 80) - 1))] = \
                draw(st.integers(0, 255))
        frame = bytes(frame)
    elif damage == "truncate":
        frame = frame[:draw(st.integers(0, len(frame)))]
    elif damage == "pad":
        frame += bytes(draw(st.integers(1, 40)))
    return frame


# steps between consecutive timestamps, in microseconds: ties, steps back
# within the 1 s reorder horizon, onto it and beyond it
STEPS = st.one_of(
    st.sampled_from([0, 0, 1, 250_000, 999_999, 1_000_000, 1_000_001,
                     -1, -400_000, -999_999, -1_000_000, -1_000_001,
                     -3_000_000]),
    st.integers(-2_000_000, 3_000_000))

# addresses no generated packet carries, an IPv4-mapped IPv6 one among
# them, and ports and a protocol no generated packet carries
UNSEEN_ADDRESSES = ("10.0.0.9", "2001:db8::99", "::ffff:10.0.0.1")
UNSEEN_NUMBERS = (1, 65535, 255)


def spellings(address: str) -> tuple[str, ...]:
    """An address as the decoder writes it, then the other spellings
    `read_label_file` reads as that address."""
    if ipaddress.ip_address(address).version == 4:
        return (address,)  # ipaddress refuses leading zeros
    return (address, address.upper(), ipaddress.ip_address(address).exploded)


@st.composite
def label_rows(draw, flows):
    """Rows mostly of the capture's flows, in any spelling the reader
    reads, some with an address, a port or a protocol no packet carries,
    windows overlapping, empty or inverted."""
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        key = list(draw(st.sampled_from(flows)).label_key(draw(st.booleans())))
        key[:2] = [draw(st.sampled_from(spellings(a))) for a in key[:2]]
        if draw(st.integers(0, 5)) == 0:
            field = draw(st.integers(0, 4))
            key[field] = draw(st.sampled_from(
                UNSEEN_ADDRESSES if field < 2 else UNSEEN_NUMBERS))
        start = BASE_SEC + draw(st.floats(-1.0, 12.0))
        rows.append(LabelRow(*key, start, start + draw(st.floats(-1.0, 6.0)),
                             draw(st.sampled_from(LABEL_VOCABULARY))))
    return rows


@st.composite
def captures(draw):
    """(frames, link type, endian, nanosecond file, cut last record,
    label rows or None)."""
    link_type = draw(st.sampled_from(pcap.SUPPORTED_LINK_TYPES))
    flows = draw(st.lists(FLOWS, min_size=1, max_size=4))
    us = BASE_SEC * 1_000_000
    records = []
    for _ in range(draw(st.integers(0, 40))):
        us = max(us + draw(STEPS), 0)
        records.append((us // 1_000_000, us % 1_000_000,
                        draw(frames(link_type, flows))))
    tail = draw(st.sampled_from([b""] * 8 + [
        b"\x01\x02\x03", struct.pack("<IIII", BASE_SEC, 0, 60, 60)
        + bytes(20)]))
    labels = draw(st.one_of(st.none(), label_rows(flows)))
    return (records, link_type, draw(st.sampled_from("<>")),
            draw(st.booleans()), tail, labels)


class TestMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(captures())
    def test_generated_captures(self, capture):
        records, link_type, endian, ns, tail, rows = capture
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.pcap")
            write_capture(path, records, link_type, endian, ns, tail)
            labels = None
            if rows is not None:
                labels = os.path.join(d, "c.labels.csv")
                write_label_file(rows, labels)
            assert_same_as_oracle(path, labels)

    @pytest.mark.parametrize("capture", ["train", "test"])
    def test_corpus(self, corpus_dir, capture):
        X = assert_same_as_oracle(str(corpus_dir / (capture + ".pcap")),
                                  str(corpus_dir / (capture
                                                    + ".labels.csv")))
        assert X.n > 1000 and X.unmatched_labels == 0

    def test_every_golden_frame_layout(self, tmp_path):
        for name, raw, link_type in GOLDEN_FRAMES:
            path = str(tmp_path / ("%s.pcap" % name))
            write_capture(path, [(BASE_SEC, i, raw) for i in range(3)],
                          link_type)
            X = assert_same_as_oracle(path)
            assert X.n == 3 and list(X.values[:, 1]) == [1, 2, 3], name

    @pytest.mark.parametrize("endian", "<>")
    @pytest.mark.parametrize("ns", [False, True])
    def test_all_four_magics(self, tmp_path, endian, ns):
        raw = GOLDEN_FRAMES[0][1]
        path = str(tmp_path / "m.pcap")
        write_capture(path, [(7, 123456, raw), (7, 123457, raw)],
                      endian=endian, ns=ns)
        X = assert_same_as_oracle(path)
        assert X.values[1, 5] == (7 + 123457 / 1e6) - (7 + 123456 / 1e6)

    def test_reorder_horizon(self, tmp_path):
        raw = GOLDEN_FRAMES[0][1]
        # 10.0 kept; 9.5 kept (re-sequenced); 9.0 on the horizon, kept;
        # 8.9 beyond it, dropped; 10.0 again ties the first
        stamps = [(10, 0), (9, 500_000), (9, 0), (8, 900_000), (10, 0)]
        path = str(tmp_path / "r.pcap")
        write_capture(path, [(s, u, raw) for s, u in stamps])
        X = assert_same_as_oracle(path)
        assert X.accounting["capture"].dropped_late == 1
        assert list(X.values[:, 5]) == [0.0, 0.5, 0.5, 0.0]

    @pytest.mark.parametrize("tail", [b"\x00" * 15,
                                      struct.pack("<IIII", 1, 0, 99, 99)])
    def test_cut_record_raises_as_the_oracle(self, tmp_path, tail):
        path = str(tmp_path / "t.pcap")
        write_capture(path, [(1, 0, GOLDEN_FRAMES[0][1])], tail=tail)
        assert assert_same_as_oracle(path)[0] is TruncatedHeader

    def test_empty_capture(self, tmp_path):
        path = str(tmp_path / "e.pcap")
        write_capture(path, [])
        X = assert_same_as_oracle(path)
        assert X.values.shape == (0, len(X.names))

    def test_label_rows_of_one_key_in_file_order(self, tmp_path):
        raw = GOLDEN_FRAMES[0][1]  # 10.0.0.1:5000 -> 10.0.0.2:80, TCP
        path = str(tmp_path / "l.pcap")
        write_capture(path, [(BASE_SEC, 0, raw), (BASE_SEC + 3, 0, raw),
                             (BASE_SEC + 9, 0, raw)])
        key = ("10.0.0.1", "10.0.0.2", 5000, 80, 6)
        rows = [LabelRow(*key, BASE_SEC + 2, BASE_SEC + 4, "Scan"),
                LabelRow(*key, BASE_SEC - 1, BASE_SEC + 5, "DDoS"),
                LabelRow(*key, BASE_SEC + 2, BASE_SEC + 4, "C&C"),
                LabelRow("10.0.0.9", *key[1:], BASE_SEC, BASE_SEC + 10,
                         "Attack")]
        labels = str(tmp_path / "l.labels.csv")
        write_label_file(rows, labels)
        X = assert_same_as_oracle(path, labels)
        assert X.labels == ["DDoS", "Scan", "Normal"]
        assert X.unmatched_labels == 1

    def test_other_spellings_join_their_packets(self, tmp_path):
        raw = {name: raw for name, raw, _ in GOLDEN_FRAMES}["ipv6"]
        path = str(tmp_path / "s.pcap")  # 2001:db8:: -> 2001:db8::1, TCP
        write_capture(path, [(BASE_SEC, 0, raw)])
        p = next(iter(pcap.CaptureReader(path)))
        labels = str(tmp_path / "s.labels.csv")
        write_label_file([LabelRow(
            "2001:0db8:0000:0000:0000:0000:0000:0000", "2001:DB8:0:0::1",
            p.src_port, p.dst_port, p.protocol, BASE_SEC, BASE_SEC,
            "Scan")], labels)
        X = assert_same_as_oracle(path, labels)
        assert X.labels == ["Scan"] and X.unmatched_labels == 0

    @pytest.mark.parametrize("field, value", [
        (0, "010.0.0.1"), (1, "10.0.0.300"), (0, "2001:db8::1::2"),
        (2, -1), (3, 70000), (4, 300), (5, math.nan), (6, math.nan),
        (7, "scan")])
    def test_refused_label_rows(self, tmp_path, field, value):
        path = str(tmp_path / "r.pcap")
        write_capture(path, [(BASE_SEC, 0, GOLDEN_FRAMES[0][1])])
        row = ["10.0.0.1", "10.0.0.2", 5000, 80, 6, BASE_SEC, BASE_SEC + 1,
               "Scan"]
        bad = list(row)
        bad[field] = value
        labels = str(tmp_path / "r.labels.csv")
        write_label_file([LabelRow(*row), LabelRow(*bad)], labels)
        error, message = assert_same_as_oracle(path, labels)
        assert error is LabelVocabularyMismatch
        assert message.startswith("label file line 3: ")

    def test_infinite_and_inverted_windows_are_read(self, tmp_path):
        """An infinite bound is read as is; an inverted window is empty."""
        path = str(tmp_path / "w.pcap")
        write_capture(path, [(BASE_SEC, 0, GOLDEN_FRAMES[0][1])])
        key = ("10.0.0.1", "10.0.0.2", 5000, 80, 6)
        labels = str(tmp_path / "w.labels.csv")
        write_label_file([LabelRow(*key, BASE_SEC + 1, BASE_SEC - 1, "Scan"),
                          LabelRow(*key, -math.inf, math.inf, "DDoS")],
                         labels)
        X = assert_same_as_oracle(path, labels)
        assert X.labels == ["DDoS"] and X.unmatched_labels == 0
        rows = read_label_file(labels)
        assert (rows[1].window_start, rows[1].window_end) \
            == (-math.inf, math.inf)


class TestFlowModesMatchOracle:
    """The flow modes of extract_with_flows, which meter the decoded columns,
    against the job that meters the capture reader's records."""

    @settings(max_examples=300, deadline=None)
    @given(captures(), st.sampled_from(["uni_flow", "bi_flow"]),
           st.sampled_from(GENERATED_TW), st.sampled_from(GENERATED_IDLE))
    def test_generated_captures(self, capture, mode, tw, idle_timeout):
        records, link_type, endian, ns, tail, rows = capture
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.pcap")
            write_capture(path, records, link_type, endian, ns, tail)
            labels = None
            if rows is not None:
                labels = os.path.join(d, "c.labels.csv")
                write_label_file(rows, labels)
            assert_flows_same_as_oracle(path, mode, tw, labels, idle_timeout)

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_corpus(self, corpus_dir, mode, tw):
        X = assert_flows_same_as_oracle(
            str(corpus_dir / "test.pcap"), mode, tw,
            str(corpus_dir / "test.labels.csv"))
        assert X.n > 100 and X.unmatched_labels == 0

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_every_golden_frame_layout(self, tmp_path, mode, tw):
        for name, raw, link_type in GOLDEN_FRAMES:
            path = str(tmp_path / ("%s.pcap" % name))
            write_capture(path, [(BASE_SEC, i, raw) for i in range(3)],
                          link_type)
            X = assert_flows_same_as_oracle(path, mode, tw)
            assert X.accounting["meter"].packets_metered == 3, name

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    @pytest.mark.parametrize("endian", "<>")
    @pytest.mark.parametrize("ns", [False, True])
    def test_all_four_magics(self, tmp_path, endian, ns, mode, tw):
        raw = GOLDEN_FRAMES[0][1]
        path = str(tmp_path / "m.pcap")
        write_capture(path, [(7, 123456, raw), (7, 123457, raw)],
                      endian=endian, ns=ns)
        assert assert_flows_same_as_oracle(path, mode, tw).n == 1

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_reorder_horizon(self, tmp_path, mode, tw):
        raw = GOLDEN_FRAMES[0][1]
        stamps = [(10, 0), (9, 500_000), (9, 0), (8, 900_000), (10, 0)]
        path = str(tmp_path / "r.pcap")
        write_capture(path, [(s, u, raw) for s, u in stamps])
        X = assert_flows_same_as_oracle(path, mode, tw)
        assert X.accounting["capture"].dropped_late == 1
        assert X.accounting["meter"].packets_metered == 4

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    @pytest.mark.parametrize("tail", [b"\x00" * 15,
                                      struct.pack("<IIII", 1, 0, 99, 99)])
    def test_cut_record_raises_as_the_oracle(self, tmp_path, tail, mode, tw):
        path = str(tmp_path / "t.pcap")
        write_capture(path, [(1, 0, GOLDEN_FRAMES[0][1])], tail=tail)
        assert assert_flows_same_as_oracle(path, mode, tw)[0] \
            is TruncatedHeader

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_empty_capture(self, tmp_path, mode, tw):
        path = str(tmp_path / "e.pcap")
        write_capture(path, [])
        X = assert_flows_same_as_oracle(path, mode, tw)
        assert X.values.shape == (0, len(X.names))


def _udp(src: bytes, dst: bytes, sport: int = 5000, dport: int = 80):
    return eth_header() + ipv4_header(28, pcap.PROTO_UDP, src, dst) \
        + udp_header(sport, dport)


def _tcp(src: bytes, dst: bytes, flags: int, sport: int = 5000,
         dport: int = 80, window: int = 14600):
    return eth_header() + ipv4_header(40, pcap.PROTO_TCP, src, dst) \
        + tcp_header(sport, dport, flags=flags, window=window)


def _udp6(src: str, dst: str, sport: int = 5000, dport: int = 80):
    l4 = udp_header(sport, dport)
    return eth_header(pcap.ETHERTYPE_IPV6) + struct.pack(
        "!IHBB16s16s", 0x60000000, len(l4), pcap.PROTO_UDP, 64,
        socket.inet_pton(socket.AF_INET6, src),
        socket.inet_pton(socket.AF_INET6, dst)) + l4


def _dump(capture: str, mode: str, tw,
          idle_timeout=MeterConfig.idle_timeout):
    """The flow dump's rows, as dicts."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "flows.csv")
        write_flow_csv(extract_with_flows(capture, mode, tw,
                                          idle_timeout)[1], path)
        with open(path) as fh:
            return list(csv.DictReader(fh))


class TestFlowTraps:
    """Cases the generated captures rarely draw, each against the oracle
    as uint64: where the meter's float tests, its order of emission or
    its arithmetic differ from the obvious column-wise shortcut."""

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_a_sweep_closes_what_the_gap_test_keeps(self, tmp_path, mode,
                                                    tw):
        """The sweep at S closes the flow last seen at L, since
        L < S - idle, although S - L > idle does not hold."""
        idle, last, now = 0.5, 997, 500_997  # microseconds after 0 s
        assert now / 1e6 - idle > last / 1e6
        assert not now / 1e6 - last / 1e6 > idle
        path = str(tmp_path / "a.pcap")
        write_capture(path, [(0, 0, _udp(V4[0], V4[1], 1)),
                             (0, last, _udp(V4[0], V4[1], 2)),
                             (0, now, _udp(V4[0], V4[1], 3)),
                             (0, now, _udp(V4[0], V4[1], 2))])
        X = assert_flows_same_as_oracle(path, mode, tw, idle_timeout=idle)
        assert X.n == 4  # port 2's packets in two flows
        rows = _dump(path, mode, tw, idle)
        assert [r["src_port"] for r in rows][:2] == ["1", "2"]
        assert rows[1]["termination"] == "idle_timeout"

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_b_addresses_order_as_text(self, tmp_path, mode, tw):
        """Keys and `_age` compare addresses as text: 10.0.0.10 before
        10.0.0.2, and IPv4 and IPv6 addresses by their characters."""
        ten, two = socket.inet_aton("10.0.0.10"), socket.inet_aton("10.0.0.2")
        web = socket.inet_aton("203.0.113.5")
        batch = [_udp(two, ten), _udp(ten, two, 80, 5000), _udp(ten, two),
                 _udp(web, two), _udp6("2001:db8::2", "2001:db8::1"),
                 _udp6("2001:db8::1", "2001:db8::2", 80, 5000),
                 _udp(two, web, 7, 7)]
        path = str(tmp_path / "b.pcap")
        # the first batch is swept at BASE_SEC + 2, the second flushed
        write_capture(path, [(BASE_SEC, 0, f) for f in batch]
                      + [(BASE_SEC + 2, 0, f) for f in reversed(batch)])
        X = assert_flows_same_as_oracle(path, mode, tw, idle_timeout=1.0)
        rows = _dump(path, mode, tw, 1.0)
        keys = [(r["src_ip"], r["dst_ip"], int(r["src_port"]),
                 int(r["dst_port"])) for r in rows]
        assert X.n == len(rows) == 2 * len(set(keys))
        # the second batch's first packet cuts its own key's flow, then
        # sweeps the rest of the first batch
        assert keys[0] == ("10.0.0.2", "203.0.113.5", 7, 7)
        swept = keys[1:X.n // 2]
        assert swept == sorted(swept) and swept[0][0] == "10.0.0.10"
        assert any(k[0].startswith("2001:") for k in swept)

    @pytest.mark.parametrize("mode", ["uni_flow", "bi_flow"])
    def test_c_rst_on_a_window_cut_and_fin_across_one(self, tmp_path, mode):
        """At the packet that cuts the window, the old flow is emitted,
        then the new one, closed by that packet's RST; FINs on both sides
        of a window cut do not complete the flow after it."""
        a, b = V4[0], V4[1]
        path = str(tmp_path / "c.pcap")
        write_capture(path, [
            (BASE_SEC, 0, _tcp(a, b, pcap.TCP_ACK)),
            (BASE_SEC + 1, 500_000, _tcp(a, b, pcap.TCP_RST | pcap.TCP_ACK)),
            (BASE_SEC + 3, 0, _tcp(a, b, pcap.TCP_FIN, 6000, 443)),
            (BASE_SEC + 4, 500_000, _tcp(b, a, pcap.TCP_FIN, 443, 6000)),
            (BASE_SEC + 4, 800_000, _tcp(a, b, pcap.TCP_FIN, 6000, 443))])
        assert_flows_same_as_oracle(path, mode, 1.0)
        ends = [r["termination"] for r in _dump(path, mode, 1.0)]
        if mode == "bi_flow":
            assert ends == ["window_close", "tcp_rst", "window_close",
                            "tcp_fin"]

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_d_forward_initial_window_zero(self, tmp_path, mode, tw):
        """A forward initial window of 0 falls through to the backward
        side's (`a.init_window or b.init_window`)."""
        path = str(tmp_path / "d.pcap")
        write_capture(path, [
            (BASE_SEC, 0, _tcp(V4[0], V4[1], pcap.TCP_SYN, window=0)),
            (BASE_SEC, 1, _tcp(V4[1], V4[0], pcap.TCP_SYN | pcap.TCP_ACK,
                               80, 5000))])
        X = assert_flows_same_as_oracle(path, mode, tw)
        column = X.values[:, X.names.index("init_window")]
        assert list(column) == ([14600.0] if mode == "bi_flow"
                                else [0.0, 14600.0])

    @pytest.mark.parametrize("mode, tw", FLOW_JOBS)
    def test_e_pow_and_left_to_right_sums(self, tmp_path, mode, tw):
        """`_pop_std` squares the mean with libm's pow, which differs from
        x * x on this flow's gaps; gap sums are added left to right, which
        `np.add.reduce` does not do on the second flow's."""
        short = [0, 899_201, 1_327_026]  # microseconds after BASE_SEC
        rng = random.Random(0)
        long = [0]
        for _ in range(40):
            long.append(long[-1] + rng.randint(1, 999_999))
        stamps = lambda us: [BASE_SEC + u // 1_000_000 + u % 1_000_000 / 1e6
                             for u in us]

        def left_sums(times):
            total = sumsq = 0.0
            for x, y in zip(times, times[1:]):
                total += y - x
                sumsq += (y - x) * (y - x)
            return total, sumsq

        total, sumsq = left_sums(stamps(short))
        mean = total / (len(short) - 1)
        assert sumsq / 2 - mean ** 2 != sumsq / 2 - mean * mean
        gaps = np.diff(stamps(long))
        assert np.add.reduce(gaps * gaps) != left_sums(stamps(long))[1]
        path = str(tmp_path / "e.pcap")
        write_capture(path, sorted(
            [(u // 1_000_000 + BASE_SEC, u % 1_000_000, _udp(V4[0], V4[1]))
             for u in short]
            + [(u // 1_000_000 + BASE_SEC, u % 1_000_000,
                _udp(V4[0], V4[2], 7, 7)) for u in long],
            key=lambda r: r[:2]))
        assert_flows_same_as_oracle(path, mode, tw)


# the TCP key of the join tests, as its packets' directed 5-tuple, and
# that of the packets the other way
FORWARD = ("10.0.0.1", "10.0.0.2", 5000, 80, 6)
BACKWARD = ("10.0.0.2", "10.0.0.1", 80, 5000, 6)


class TestLabelJoinRounds:
    """The label join walks each key's rows in file order, one row a
    round: a key with about 300 rows of every window shape, and a key
    with none, against the oracles as uint64 in every mode."""

    @pytest.fixture(scope="class")
    def many_rows(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("rounds")
        rng = random.Random(28)
        us = BASE_SEC * 1_000_000
        frames = []
        for i in range(80):
            us += rng.choice([0, 1, 250_000, 700_000, 1_300_000])
            us += 20_000_000 if i == 60 else 0  # past every finite window
            frame = (_udp(V4[0], V4[1]) if i % 7 == 0  # the key without rows
                     else _tcp(V4[0], V4[1], 0x10) if i % 3
                     else _tcp(V4[1], V4[0], 0x10, 80, 5000))
            frames.append((us // 1_000_000, us % 1_000_000, frame))
        path = str(d / "many.pcap")
        write_capture(path, frames)
        stamps = [p.ts for p in pcap.CaptureReader(path)]
        first, last = stamps[0], stamps[-1]
        rows = []
        for i in range(300):
            key = FORWARD if rng.random() < 0.7 else BACKWARD
            t = rng.choice(stamps[:60])
            shape = rng.choice(["point", "point", "duplicate", "inverted",
                                "before", "after", "short", "long"])
            if i > 250 and rng.random() < 0.2:
                shape = "infinite"  # late, so earlier rows still decide
            if shape == "duplicate" and rows:
                window = rows[-1].window_start, rows[-1].window_end
            elif shape == "inverted":
                window = (t + 0.5, t - 0.5)
            elif shape == "before":
                window = (first - 9.0, first - 1.0)
            elif shape == "after":
                window = (last + 1.0, last + 9.0)
            elif shape == "short":
                window = (t - 0.1, t + 0.3)
            elif shape == "long":
                window = (t - 2.0, t + rng.choice([0.0, 1.0, 4.0]))
            elif shape == "infinite":  # the forward key's end before the gap
                window = rng.choice([(-math.inf, t)] if key == FORWARD else
                                    [(t, math.inf), (-math.inf, math.inf)])
            else:  # exactly on a packet's timestamp
                window = (t, t)
            rows.append(LabelRow(*key, *window,
                                 rng.choice(LABEL_VOCABULARY)))
        labels = str(d / "many.labels.csv")
        write_label_file(rows, labels)
        return path, labels

    @pytest.mark.parametrize("mode, tw", [("packet", None)] + FLOW_JOBS)
    def test_many_rows_of_one_key(self, many_rows, mode, tw):
        path, labels = many_rows
        if mode == "packet":
            X = assert_same_as_oracle(path, labels)
        else:
            X = assert_flows_same_as_oracle(path, mode, tw, labels)
        assert 0 < X.unmatched_labels < X.n

    @pytest.mark.parametrize("tw", [None, 1.0])
    @pytest.mark.parametrize("backward, label", [
        ((BASE_SEC + 0.2, BASE_SEC + 9), "Scan"),  # a tie: directed wins
        ((BASE_SEC - 1, BASE_SEC + 3), "DDoS")])  # the reversed key's is larger
    def test_reversed_key_in_bi_flow(self, tmp_path, tw, backward, label):
        """A bi flow looks up its reversed key after its own: the reversed
        key's row wins only by a larger overlap, even when it comes
        first in the file."""
        path = str(tmp_path / "bi.pcap")
        write_capture(path, [
            (BASE_SEC, 0, _tcp(V4[0], V4[1], 0x10)),
            (BASE_SEC, 500_000, _tcp(V4[1], V4[0], 0x10, 80, 5000))])
        labels = str(tmp_path / "bi.labels.csv")
        write_label_file([
            LabelRow(*BACKWARD, *backward, "DDoS"),
            LabelRow(*FORWARD, BASE_SEC + 0.4, BASE_SEC + 2, "Attack"),
            LabelRow(*FORWARD, BASE_SEC + 0.2, BASE_SEC + 2, "Scan")], labels)
        X = assert_flows_same_as_oracle(path, "bi_flow", tw, labels)
        assert X.labels == [label] and X.unmatched_labels == 0

    @pytest.mark.parametrize("mode", ["packet", "uni_flow", "bi_flow"])
    def test_header_only_file_leaves_every_instance_unmatched(
            self, corpus_dir, tmp_path, mode):
        labels = tmp_path / "header.labels.csv"
        write_label_file([], str(labels))
        X = extract_matrix(str(corpus_dir / "test.pcap"), mode,
                           labels_path=str(labels))
        assert X.n > 100 and X.unmatched_labels == X.n
        assert X.labels == ["Normal"] * X.n


class TestPacketRecords:
    """The decoded columns stand for the capture reader's records, and
    the decode counts as the reader does."""

    @settings(max_examples=300, deadline=None)
    @given(captures())
    def test_generated_captures(self, capture):
        records, link_type, endian, ns, tail, _ = capture
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.pcap")
            write_capture(path, records, link_type, endian, ns, tail)
            assert_records_same_as_reader(path)

    def test_every_golden_frame_layout(self, tmp_path):
        for name, raw, link_type in GOLDEN_FRAMES:
            path = str(tmp_path / ("%s.pcap" % name))
            write_capture(path, [(BASE_SEC, i, raw) for i in range(3)],
                          link_type)
            assert len(assert_records_same_as_reader(path)) == 3, name

    def test_link_header_len_and_flags(self, tmp_path):
        """A tagged frame keeps its 18-byte link header; a frame not of
        TCP has no flags or window."""
        golden = {name: raw for name, raw, _ in GOLDEN_FRAMES}
        path = str(tmp_path / "l.pcap")
        write_capture(path, [(BASE_SEC, 0, golden["vlan"]),
                             (BASE_SEC, 1, golden["udp"]),
                             (BASE_SEC, 2, golden["syn"])])
        got = packet_records(pcap.CaptureReader(path))
        assert [p.link_header_len for p in got] == [18, 14, 14]
        assert (got[1].tcp_flags, got[1].tcp_window) == (None, None)
        assert got[2].tcp_flags == pcap.TCP_SYN
        assert_records_same_as_reader(path)

    @pytest.mark.parametrize("endian", "<>")
    @pytest.mark.parametrize("ns", [False, True])
    def test_all_four_magics(self, tmp_path, endian, ns):
        raw = GOLDEN_FRAMES[0][1]
        path = str(tmp_path / "m.pcap")
        write_capture(path, [(7, 123456, raw), (7, 123457, raw)],
                      endian=endian, ns=ns)
        assert len(assert_records_same_as_reader(path)) == 2

    def test_reorder_horizon(self, tmp_path):
        raw = GOLDEN_FRAMES[0][1]
        stamps = [(10, 0), (9, 500_000), (9, 0), (8, 900_000), (10, 0)]
        path = str(tmp_path / "r.pcap")
        write_capture(path, [(s, u, raw) for s, u in stamps])
        got = assert_records_same_as_reader(path)
        assert [r[0][1] for r in got] == [9.0, 9.5, 10.0, 10.0]

    @pytest.mark.parametrize("tail", [b"\x00" * 15,
                                      struct.pack("<IIII", 1, 0, 99, 99)])
    def test_cut_record_raises_as_the_reader(self, tmp_path, tail):
        path = str(tmp_path / "t.pcap")
        write_capture(path, [(1, 0, GOLDEN_FRAMES[0][1])], tail=tail)
        assert assert_records_same_as_reader(path) is TruncatedHeader

    def test_a_second_pass_counts_one_pass(self, tmp_path):
        """Regression: the columnar decode set frames_read but added to
        the skip counters, so a second pass over one reader doubled
        them."""
        golden = {name: raw for name, raw, _ in GOLDEN_FRAMES}
        arp = eth_header(0x0806) + bytes(28)
        fragment = eth_header() + ipv4_header(100, 17, frag_field=5) \
            + bytes(80)
        path = str(tmp_path / "p.pcap")
        write_capture(path, [(BASE_SEC, 0, golden["syn"]),
                             (BASE_SEC, 1, arp), (BASE_SEC, 2, fragment),
                             (BASE_SEC, 3, arp[:10]),
                             (BASE_SEC - 2, 0, golden["udp"])])
        reader = pcap.CaptureReader(path)
        first = packet_records(reader)
        once = dataclasses.asdict(reader.summary)
        assert once == dict(frames_read=5, decoded=1, skipped_non_ip=1,
                            skipped_malformed=1, fragment_frames=1,
                            fragment_bytes=80, dropped_late=1,
                            link_type=pcap.LINKTYPE_ETHERNET)
        for records in (packet_records, iter, packet_records):
            assert list(records(reader)) == first
            assert dataclasses.asdict(reader.summary) == once


# --- privacy ----------------------------------------------------------------

def _remapped_capture(data: bytes, address, port) -> bytes:
    """The capture with every IPv4 address and TCP / UDP port of its
    Ethernet frames mapped through `address` and `port`."""
    out = bytearray(data)
    offset = pcap.GLOBAL_HEADER_LEN
    while offset < len(out):
        caplen = struct.unpack_from("<I", out, offset + 8)[0]
        ip = offset + pcap.RECORD_HEADER_LEN + 14
        for at in (ip + 12, ip + 16):
            out[at:at + 4] = address(bytes(out[at:at + 4]))
        if out[ip + 9] in (pcap.PROTO_TCP, pcap.PROTO_UDP):
            l4 = ip + (out[ip] & 0x0F) * 4
            for at in (l4, l4 + 2):
                value = struct.unpack_from("!H", out, at)[0]
                struct.pack_into("!H", out, at, port(value))
        offset += pcap.RECORD_HEADER_LEN + caplen
    return bytes(out)


def test_bijective_remap_of_addresses_and_ports(corpus_dir, tmp_path):
    """The columnar job reads addresses and ports only to tell flows
    apart: renaming every one by a bijection leaves the matrix and the
    labels bit-identical."""
    address = lambda b: bytes(x ^ 0x5A for x in b)
    port = lambda p: (p * 40503 + 7) & 0xFFFF  # odd factor: a bijection
    dotted = lambda text: ".".join(str(int(x) ^ 0x5A)
                                   for x in text.split("."))
    source = corpus_dir / "test.pcap"
    renamed = tmp_path / "renamed.pcap"
    renamed.write_bytes(_remapped_capture(source.read_bytes(), address,
                                          port))
    assert renamed.read_bytes() != source.read_bytes()
    rows = read_label_file(str(corpus_dir / "test.labels.csv"))
    remap = lambda r: r._replace(
        src_ip=dotted(r.src_ip), dst_ip=dotted(r.dst_ip),
        src_port=port(r.src_port) if r.protocol in (6, 17) else r.src_port,
        dst_port=port(r.dst_port) if r.protocol in (6, 17) else r.dst_port)
    write_label_file([remap(r) for r in rows], str(tmp_path / "r.csv"))
    before = extract_matrix(str(source), "packet",
                            labels_path=str(corpus_dir / "test.labels.csv"))
    after = extract_matrix(str(renamed), "packet",
                           labels_path=str(tmp_path / "r.csv"))
    assert before.values.tobytes() == after.values.tobytes()
    assert before.labels == after.labels and after.unmatched_labels == 0
    assert len(set(before.labels)) > 3
