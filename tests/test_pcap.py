import dataclasses
import struct
import sys

import numpy as np
import pytest

from netwarden import pcap, synth
from netwarden.errors import (
    BadMagic,
    FragmentContinuation,
    MalformedHeader,
    NonIP,
    TruncatedHeader,
    UnsupportedLinkType,
)

from conftest import (
    build_global_header,
    build_record,
    eth_header,
    golden_syn_frame,
    golden_udp_frame,
    ipv4_header,
    small_mixed,
    tcp_header,
    udp_header,
)
from oracles import decode_frame_oracle, encode_frame_oracle


def _ipv6_header(payload_length, next_header, hop_limit=61) -> bytes:
    return struct.pack("!IHBB16s16s", 0x60000000, payload_length,
                       next_header, hop_limit,
                       b"\x20\x01\x0d\xb8" + b"\x00" * 12,
                       b"\x20\x01\x0d\xb8" + b"\x00" * 11 + b"\x01")


class TestDecodeFrame:
    def test_golden_syn(self, syn_frame):
        assert len(syn_frame) == 54  # 14 + 20 + 20
        rec = pcap.decode_frame(syn_frame, pcap.LINKTYPE_ETHERNET, ts=1.0)
        assert rec.protocol == 6
        assert rec.tcp_flags == pcap.TCP_SYN
        assert rec.payload_len == 0
        assert rec.total_len == 54
        assert rec.src_ip == "10.0.0.1" and rec.dst_ip == "10.0.0.2"
        assert rec.src_port == 5000 and rec.dst_port == 80
        assert rec.tcp_window == 14600
        assert rec.ttl == 64

    def test_golden_udp(self, udp_frame):
        assert len(udp_frame) == 42  # 14 + 20 + 8
        rec = pcap.decode_frame(udp_frame, pcap.LINKTYPE_ETHERNET)
        assert rec.protocol == 17
        assert rec.l4_header_len == 8
        assert rec.payload_len == 0
        assert rec.total_len == 42

    def test_short_ipv4_frame_malformed(self):
        # ihl says 20 bytes but only 16 IP bytes are present
        frame = eth_header() + ipv4_header(40, 6)[:16]
        with pytest.raises(MalformedHeader):
            pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)

    def test_synack_flags(self):
        frame = eth_header() + ipv4_header(40, 6) + tcp_header(flags=0x12)
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.tcp_flags == pcap.TCP_SYN | pcap.TCP_ACK

    @pytest.mark.parametrize("flags_byte", range(0, 256, 17))
    def test_flag_popcount_matches_byte13(self, flags_byte):
        frame = eth_header() + ipv4_header(40, 6) \
            + tcp_header(flags=flags_byte)
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert bin(rec.tcp_flags).count("1") == bin(flags_byte).count("1")

    def test_non_ip_ethertype(self):
        frame = eth_header(ethertype=0x0806) + b"\x00" * 28  # ARP
        with pytest.raises(NonIP):
            pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)

    def test_vlan_single_level(self):
        inner = ipv4_header(40, 6) + tcp_header()
        frame = eth_header(ethertype=0x8100) + struct.pack("!HH", 0, 0x0800)\
            + inner
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.protocol == 6
        assert rec.link_header_len == 18

    def test_vlan_nested_skipped(self):
        frame = eth_header(ethertype=0x8100) \
            + struct.pack("!HH", 0, 0x8100) + b"\x00" * 40
        with pytest.raises(NonIP):
            pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)

    def test_fragment_continuation(self):
        frame = eth_header() + ipv4_header(100, 17, frag_field=0x0005) \
            + b"\x00" * 80
        with pytest.raises(FragmentContinuation) as exc:
            pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert exc.value.byte_count == 80

    def test_first_fragment_decodes(self):
        # MF set, offset 0: the L4 header is present
        frame = eth_header() + ipv4_header(28, 17, frag_field=0x2000) \
            + udp_header()
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.protocol == 17

    def test_raw_ip_link(self):
        frame = ipv4_header(28, 17) + udp_header()
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_RAW_IP)
        assert rec.link_header_len == 0
        assert rec.total_len == 28

    def test_ipv4_options(self):
        # ihl=6: 24-byte IP header
        frame = eth_header() + ipv4_header(44, 6, ihl=6) + tcp_header()
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.ip_header_len == 24
        assert rec.payload_len == 0

    def test_tcp_options(self):
        # data offset 8 words: 32-byte TCP header
        frame = eth_header() + ipv4_header(52, 6) \
            + tcp_header(offset_words=8)
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.l4_header_len == 32
        assert rec.payload_len == 0

    def test_unknown_l4_protocol(self):
        frame = eth_header() + ipv4_header(36, 47) + b"\x00" * 16  # GRE
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.protocol == 47
        assert rec.l4_header_len == 0
        assert rec.payload_len == 16
        assert rec.src_port == 0 and rec.dst_port == 0

    def test_ipv6_tcp(self):
        payload = tcp_header()
        rec = pcap.decode_frame(eth_header(0x86DD)
                                + _ipv6_header(len(payload), 6) + payload,
                                pcap.LINKTYPE_ETHERNET)
        assert rec.protocol == 6
        assert rec.ip_header_len == 40
        assert rec.ttl == 61
        assert rec.payload_len == 0

    def test_icmp(self):
        frame = eth_header() + ipv4_header(28, 1) \
            + struct.pack("!BBHI", 8, 0, 0, 0)
        rec = pcap.decode_frame(frame, pcap.LINKTYPE_ETHERNET)
        assert rec.protocol == 1
        assert rec.src_port == 0 and rec.dst_port == 0
        assert rec.tcp_flags is None and rec.tcp_window is None

    def test_never_reads_past_caplen(self, syn_frame):
        # decoding a truncated view must fail, not read stale memory
        with pytest.raises(MalformedHeader):
            pcap.decode_frame(memoryview(syn_frame)[:40],
                              pcap.LINKTYPE_ETHERNET)


def _ipv6_extension_frame() -> bytes:
    """Hop-by-hop, then destination options, then a first fragment, then
    UDP."""
    exts = struct.pack("!BB6x", 60, 0) + struct.pack("!BB6x", 44, 0) \
        + struct.pack("!BxHI", 17, 0x0001, 7)
    return eth_header(0x86DD) + _ipv6_header(len(exts) + 8, 0) + exts \
        + udp_header()


# (name, frame, link type): one frame of each header layout the decoder
# reads
GOLDEN_FRAMES = (
    ("syn", golden_syn_frame(), pcap.LINKTYPE_ETHERNET),
    ("udp", golden_udp_frame(), pcap.LINKTYPE_ETHERNET),
    ("vlan", eth_header(0x8100) + struct.pack("!HH", 0, 0x0800)
     + ipv4_header(40, 6) + tcp_header(), pcap.LINKTYPE_ETHERNET),
    ("ipv4-options", eth_header() + ipv4_header(44, 6, ihl=6)
     + tcp_header(), pcap.LINKTYPE_ETHERNET),
    ("ipv6", eth_header(0x86DD) + _ipv6_header(20, 6) + tcp_header(),
     pcap.LINKTYPE_ETHERNET),
    ("ipv6-extensions", _ipv6_extension_frame(), pcap.LINKTYPE_ETHERNET),
    ("raw-ip", ipv4_header(28, 17) + udp_header(), pcap.LINKTYPE_RAW_IP),
)


def _outcome(decode, raw, link_type):
    """The record decoding gives, or the class, message and byte_count of
    what it raises."""
    try:
        return decode(raw, link_type, ts=7.25)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "byte_count", None)


def _assert_decodes_as_oracle(raw, link_type):
    """Returns the outcome of decoding raw."""
    for frame in (memoryview(raw), raw):  # the reader passes memoryviews
        outcome = _outcome(pcap.decode_frame, frame, link_type)
        assert outcome == _outcome(decode_frame_oracle, frame, link_type), \
            bytes(raw).hex()
    return outcome


class TestDecodeMatchesOracle:
    """decode_frame gives the record the byte-by-byte decoder gives, or
    raises the same exception class with the same message and
    byte_count."""

    def test_every_corpus_frame(self, tmp_path):
        synth.generate_corpus(small_mixed(seed=8), str(tmp_path / "c.pcap"),
                              str(tmp_path / "c.labels.csv"))
        frames = [bytes(raw) for _, raw, _ in
                  pcap.iter_raw_frames(str(tmp_path / "c.pcap"))]
        assert len(frames) > 1000
        for raw in frames:
            _assert_decodes_as_oracle(raw, pcap.LINKTYPE_ETHERNET)
            # the same packet without its Ethernet header
            _assert_decodes_as_oracle(raw[14:], pcap.LINKTYPE_RAW_IP)

    @pytest.mark.parametrize("name, raw, link_type", GOLDEN_FRAMES,
                             ids=[g[0] for g in GOLDEN_FRAMES])
    def test_every_truncation(self, name, raw, link_type):
        assert isinstance(pcap.decode_frame(raw, link_type), pcap.PacketRecord)
        for n in range(len(raw) + 1):
            _assert_decodes_as_oracle(raw[:n], link_type)

    @pytest.mark.parametrize("name, raw, link_type", GOLDEN_FRAMES,
                             ids=[g[0] for g in GOLDEN_FRAMES])
    def test_random_header_mutations(self, name, raw, link_type):
        # 1,500 a frame, 10,500 in all; every golden frame is all header
        rng = np.random.default_rng(sum(raw))
        outcomes = set()
        for _ in range(1500):
            frame = bytearray(raw)
            for pos in rng.integers(0, len(raw), size=rng.integers(1, 4)):
                frame[pos] = int(rng.integers(0, 256))
            if rng.random() < 0.2:
                frame += bytes(int(rng.integers(1, 40)))
            outcome = _assert_decodes_as_oracle(bytes(frame), link_type)
            outcomes.add(outcome[0] if isinstance(outcome, tuple)
                         else pcap.PacketRecord)
        # the mutations reach records and more than one refusal
        assert pcap.PacketRecord in outcomes and len(outcomes) >= 3

    @pytest.mark.parametrize("position", range(8))
    def test_every_address_octet(self, position):
        # each value of each source and destination octet
        base = bytearray(golden_udp_frame())
        for value in range(256):
            base[26 + position] = value
            rec = pcap.decode_frame(bytes(base), pcap.LINKTYPE_ETHERNET)
            assert rec.src_ip == "%d.%d.%d.%d" % tuple(base[26:30])
            assert rec.dst_ip == "%d.%d.%d.%d" % tuple(base[30:34])
            _assert_decodes_as_oracle(bytes(base), pcap.LINKTYPE_ETHERNET)


class TestCaptureReader:
    def write(self, tmp_path, body: bytes, header: bytes | None = None):
        path = tmp_path / "t.pcap"
        path.write_bytes((header if header is not None
                          else build_global_header()) + body)
        return str(path)

    def test_empty_capture(self, tmp_path):
        path = self.write(tmp_path, b"")
        reader = pcap.open_capture(path)
        assert list(reader) == []
        assert reader.summary.frames_read == 0
        assert reader.summary.decoded == 0

    def test_single_syn(self, tmp_path, syn_frame):
        path = self.write(tmp_path, build_record(10, 500000, syn_frame))
        recs = list(pcap.open_capture(path))
        assert len(recs) == 1
        assert recs[0].ts == 10.5
        assert recs[0].tcp_flags == pcap.TCP_SYN

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(BadMagic):
            pcap.open_capture(path)

    def test_unsupported_link_type(self, tmp_path):
        path = self.write(tmp_path, b"",
                          header=build_global_header(link_type=105))
        with pytest.raises(UnsupportedLinkType):
            pcap.open_capture(path)

    def test_truncated_record_yields_then_raises(self, tmp_path, syn_frame,
                                                 udp_frame):
        body = build_record(1, 0, syn_frame) \
            + build_record(2, 0, udp_frame)[:-5]
        path = self.write(tmp_path, body)
        reader = pcap.open_capture(path)
        it = iter(reader)
        first = next(it)
        assert first.protocol == 6
        with pytest.raises(TruncatedHeader):
            list(it)

    def test_closing_early_does_not_raise(self, tmp_path, syn_frame,
                                          udp_frame, monkeypatch):
        """Regression: the reorder buffer was flushed from `finally`, so
        closing the iterator while records were buffered yielded during
        GeneratorExit and raised RuntimeError."""
        body = build_record(1, 0, syn_frame) + build_record(3, 0, udp_frame) \
            + build_record(5, 0, syn_frame)
        path = self.write(tmp_path, body)
        it = iter(pcap.open_capture(path))
        assert next(it).ts == 1.0  # the 3 s record is still buffered
        it.close()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        for _ in pcap.open_capture(path):
            break
        assert unraisable == []

    @pytest.mark.parametrize("endian,magic_ns", [("<", False), (">", False),
                                                 ("<", True), (">", True)])
    def test_all_four_magics(self, tmp_path, syn_frame, endian, magic_ns):
        magic = pcap.MAGIC_NS_BE if magic_ns else pcap.MAGIC_US_BE
        sub = 123456789 if magic_ns else 123456
        body = build_record(7, sub, syn_frame, endian=endian)
        path = self.write(tmp_path, body,
                          header=build_global_header(magic, endian))
        recs = list(pcap.open_capture(path))
        assert len(recs) == 1
        assert recs[0].ts == pytest.approx(7.123456, abs=1e-9)

    def test_reorder_within_horizon(self, tmp_path, syn_frame, udp_frame):
        body = build_record(10, 500000, syn_frame) \
            + build_record(10, 100000, udp_frame) \
            + build_record(11, 0, udp_frame)
        path = self.write(tmp_path, body)
        recs = list(pcap.open_capture(path))
        ts = [r.ts for r in recs]
        assert ts == sorted(ts)
        assert len(recs) == 3

    def test_drop_beyond_horizon(self, tmp_path, syn_frame, udp_frame):
        body = build_record(20, 0, syn_frame) \
            + build_record(10, 0, udp_frame)
        path = self.write(tmp_path, body)
        reader = pcap.open_capture(path)
        recs = list(reader)
        assert len(recs) == 1
        assert reader.summary.dropped_late == 1

    def test_second_pass_yields_the_same_records(self, tmp_path, syn_frame,
                                                 udp_frame):
        body = build_record(10, 0, syn_frame) \
            + build_record(20, 0, udp_frame)
        reader = pcap.open_capture(self.write(tmp_path, body))
        assert list(reader) == list(reader)
        assert reader.summary.dropped_late == 0

    def test_second_pass_counts_one_pass(self, tmp_path, syn_frame,
                                         udp_frame):
        """Regression: each pass restarted the horizon but added to the
        summary, so a second pass doubled every count."""
        arp = eth_header(0x0806) + b"\x00" * 28
        body = build_record(10, 0, syn_frame) + build_record(11, 0, arp) \
            + build_record(12, 0, b"\x00" * 10) \
            + build_record(8, 0, udp_frame)
        reader = pcap.open_capture(self.write(tmp_path, body))
        list(reader)
        once = dataclasses.asdict(reader.summary)
        assert once == dict(frames_read=4, decoded=1, skipped_non_ip=1,
                            skipped_malformed=1, fragment_frames=0,
                            fragment_bytes=0, dropped_late=1,
                            link_type=pcap.LINKTYPE_ETHERNET)
        list(reader)
        assert dataclasses.asdict(reader.summary) == once

    def test_non_ip_counted(self, tmp_path, syn_frame):
        arp = eth_header(0x0806) + b"\x00" * 28
        body = build_record(1, 0, arp) + build_record(2, 0, syn_frame)
        path = self.write(tmp_path, body)
        reader = pcap.open_capture(path)
        recs = list(reader)
        assert len(recs) == 1
        assert reader.summary.skipped_non_ip == 1
        assert reader.summary.frames_read == 2

    def test_fragment_bytes_counted(self, tmp_path):
        frag = eth_header() + ipv4_header(100, 17, frag_field=0x0005) \
            + b"\x00" * 80
        path = self.write(tmp_path, build_record(1, 0, frag))
        reader = pcap.open_capture(path)
        assert list(reader) == []
        assert reader.summary.fragment_frames == 1
        assert reader.summary.fragment_bytes == 80


class TestWriteReadRoundTrip:
    def test_single_record_file_length(self, tmp_path):
        rec = pcap.PacketRecord(
            ts=1.0, src_ip="192.0.2.1", dst_ip="192.0.2.2", src_port=1,
            dst_port=2, protocol=17, link_header_len=14, ip_header_len=20,
            l4_header_len=8, total_len=50, ttl=64, payload_len=8)
        path = tmp_path / "w.pcap"
        pcap.write_pcap([rec], str(path))
        assert path.stat().st_size == 24 + 16 + 50

    def test_empty_write(self, tmp_path):
        path = tmp_path / "e.pcap"
        pcap.write_pcap([], str(path))
        assert path.stat().st_size == 24
        assert list(pcap.open_capture(str(path))) == []

    def test_field_identical_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        records = []
        t = 100.0
        for i in range(300):
            proto = int(rng.choice([6, 17, 1, 47]))
            payload = int(rng.integers(0, 1400))
            flags = int(rng.integers(0, 256)) if proto == 6 else None
            l4 = {6: 20, 17: 8, 1: 8}.get(proto, 0)
            has_ports = proto in (6, 17)
            records.append(pcap.PacketRecord(
                ts=pcap.quantize_us(t),
                src_ip="192.0.2.%d" % rng.integers(1, 250),
                dst_ip="198.51.100.%d" % rng.integers(1, 250),
                src_port=int(rng.integers(0, 65536)) if has_ports else 0,
                dst_port=int(rng.integers(0, 65536)) if has_ports else 0,
                protocol=proto, link_header_len=14, ip_header_len=20,
                l4_header_len=l4, total_len=14 + 20 + l4 + payload,
                ttl=int(rng.integers(1, 255)), payload_len=payload,
                tcp_flags=flags,
                tcp_window=int(rng.integers(0, 65536)) if proto == 6
                else None))
            t += float(rng.uniform(0, 0.05))
        path = tmp_path / "rt.pcap"
        pcap.write_pcap(records, str(path))
        back = list(pcap.open_capture(str(path)))
        assert back == records

    def test_ipv6_round_trip(self, tmp_path):
        rec = pcap.PacketRecord(
            ts=pcap.quantize_us(3.25), src_ip="2001:db8::1",
            dst_ip="2001:db8::2", src_port=1024, dst_port=443, protocol=6,
            link_header_len=14, ip_header_len=40, l4_header_len=20,
            total_len=14 + 40 + 20 + 100, ttl=61, payload_len=100,
            tcp_flags=pcap.TCP_ACK, tcp_window=1000)
        path = tmp_path / "v6.pcap"
        pcap.write_pcap([rec], str(path))
        assert list(pcap.open_capture(str(path))) == [rec]


def _record(ts, src="192.0.2.1", dst="198.51.100.7", protocol=6,
            link=14, ip=20, l4=20, payload=12, flags=0x18, window=512):
    ports = protocol in (6, 17)
    return pcap.PacketRecord(
        ts=ts, src_ip=src, dst_ip=dst, src_port=40000 if ports else 0,
        dst_port=8883 if ports else 0, protocol=protocol,
        link_header_len=link, ip_header_len=ip, l4_header_len=l4,
        total_len=link + ip + l4 + payload, ttl=61, payload_len=payload,
        tcp_flags=flags if protocol == 6 else None,
        tcp_window=window if protocol == 6 else None)


# one record per branch of the writer, with the (sec, usec) it is stored at
BRANCH_RECORDS = (
    (_record(10.25, l4=32), (10, 250000)),                # TCP options
    (_record(11.5, protocol=17, l4=8, payload=30), (11, 500000)),
    (_record(12.0, protocol=1, l4=8, payload=56), (12, 0)),
    (_record(13.000001, protocol=47, l4=0, payload=24), (13, 1)),
    (_record(14.75, ip=24, payload=5), (14, 750000)),     # IPv4 options
    (_record(15.5, src="2001:db8::1", dst="2001:db8::2", protocol=58,
             ip=40, l4=8, payload=40), (15, 500000)),
    (_record(16.5, src="2001:db8::2", dst="2001:db8::1", ip=40,
             payload=100), (16, 500000)),                 # IPv6 TCP
    (_record(18.5, payload=0, flags=0x02), (18, 500000)), # zero payload
    (_record(19.9999996, dst="203.0.113.66"), (20, 0)),   # usec carries
    (_record(21.5, src="198.51.100.7", dst="192.0.2.1", protocol=17,
             l4=8, payload=0), (21, 500000)),
)

# records of a raw-IP file, framed without a link header
RAW_IP_RECORDS = (
    (_record(17.5, link=0, protocol=17, l4=8, payload=9), (17, 500000)),
    (_record(18.25, link=0, src="2001:db8::2", dst="2001:db8::1", ip=40,
             payload=3), (18, 250000)),
)


def _oracle_file(records_and_times, link_type=1) -> bytes:
    out = [build_global_header(link_type=link_type)]
    for rec, (sec, usec) in records_and_times:
        out.append(build_record(sec, usec, encode_frame_oracle(rec)))
    return b"".join(out)


class TestWriteMatchesOracle:
    def test_every_branch_byte_identical(self, tmp_path):
        path = tmp_path / "b.pcap"
        assert pcap.write_pcap([r for r, _ in BRANCH_RECORDS],
                               str(path)) == len(BRANCH_RECORDS)
        assert path.read_bytes() == _oracle_file(BRANCH_RECORDS)

    def test_raw_ip_link_type_in_header(self, tmp_path):
        path = tmp_path / "raw.pcap"
        records = [r for r, _ in RAW_IP_RECORDS]
        pcap.write_pcap(records, str(path), link_type=pcap.LINKTYPE_RAW_IP)
        assert path.read_bytes() == _oracle_file(RAW_IP_RECORDS, 101)
        assert list(pcap.open_capture(str(path))) == records

    def test_many_write_blocks_byte_identical(self, tmp_path):
        # about 2.3 MB: the writer flushes more than one block
        big = [(dataclasses.replace(rec, payload_len=1000 + i % 7,
                                    total_len=rec.total_len + 1000 + i % 7),
                t) for i, (rec, t) in enumerate(BRANCH_RECORDS * 200)]
        path = tmp_path / "big.pcap"
        assert pcap.write_pcap((r for r, _ in big), str(path)) == len(big)
        data = path.read_bytes()
        assert len(data) > 2 << 20
        assert data == _oracle_file(big)

    @pytest.mark.parametrize("field", ["src_ip", "dst_ip"])
    @pytest.mark.parametrize("address", ["192.0.2.300", "01.2.3.4",
                                         "2001:db8::g", ""])
    def test_invalid_address_raises_value_error(self, tmp_path, field,
                                                address):
        rec = dataclasses.replace(BRANCH_RECORDS[0][0], **{field: address})
        with pytest.raises(ValueError):
            pcap.write_pcap([BRANCH_RECORDS[1][0], rec],
                            str(tmp_path / "bad.pcap"))
        # the records before the bad one are still written
        assert (tmp_path / "bad.pcap").read_bytes() == \
            _oracle_file(BRANCH_RECORDS[1:2])


class TestWriteRefusesWhatWouldNotReadBack:
    """A record the reader would read back otherwise raises ValueError;
    the records before it stay written."""

    @pytest.mark.parametrize("link_type, bad", [
        # an IPv6 destination was written as the IPv4 32.1.13.184
        (1, _record(30.0, dst="2001:db8::5")),
        (1, _record(30.0, src="2001:db8::5", dst="192.0.2.1", ip=40)),
        # Ethernet framing in a raw-IP file: the reader skips it as non-IP
        (101, _record(30.0)),
        # no link header in an Ethernet file
        (1, _record(30.0, link=0)),
        # an 802.1Q length: read back as 14, with total_len 4 shorter
        (1, _record(30.0, link=18)),
        # TCP lengths the data offset cannot carry: read back as
        # malformed (12), as 20 (22), or not packed at all (64)
        (1, _record(30.0, l4=12)),
        (1, _record(30.0, l4=22)),
        (1, _record(30.0, l4=64)),
        # a UDP header is always written with 8 bytes: 20 read back as 8
        # with total_len 12 shorter
        (1, _record(30.0, protocol=17, l4=20)),
        (1, _record(30.0, protocol=1, l4=0, payload=56)),
        (1, _record(30.0, src="2001:db8::1", dst="2001:db8::2",
                    protocol=58, ip=40, l4=16)),
        # no L4 header is written for other protocols
        (1, _record(30.0, protocol=47, l4=8)),
        # IPv4 lengths the IHL cannot carry
        (1, _record(30.0, ip=16)),
        (1, _record(30.0, ip=22)),
        (1, _record(30.0, ip=64)),
        # IPv6 padding: 48 read back as 40, with ports 0 and 8 more
        # payload bytes
        (1, _record(30.0, src="2001:db8::1", dst="2001:db8::2",
                    protocol=17, ip=48, l4=8)),
        (101, _record(30.0, link=0, src="2001:db8::1", dst="2001:db8::2",
                      ip=20)),
    ], ids=["ipv4-to-ipv6", "ipv6-to-ipv4", "ethernet-in-raw-ip-file",
            "raw-ip-in-ethernet-file", "link-header-18", "tcp-header-12",
            "tcp-header-22", "tcp-header-64", "udp-header-20",
            "icmp-header-0", "icmpv6-header-16", "gre-header-8",
            "ipv4-header-16", "ipv4-header-22", "ipv4-header-64",
            "ipv6-header-48", "ipv6-header-20"])
    def test_refused_after_the_good_records(self, tmp_path, link_type, bad):
        good = BRANCH_RECORDS[1] if link_type == 1 else RAW_IP_RECORDS[0]
        path = tmp_path / "bad.pcap"
        with pytest.raises(ValueError):
            pcap.write_pcap([good[0], bad], str(path), link_type=link_type)
        assert path.read_bytes() == _oracle_file([good], link_type)

    def test_unsupported_link_type_writes_nothing(self, tmp_path):
        path = tmp_path / "llc.pcap"
        with pytest.raises(ValueError):
            pcap.write_pcap([], str(path), link_type=105)
        assert not path.exists()

    @pytest.mark.parametrize("l4", [20, 24, 40, 60])
    def test_tcp_header_lengths_read_back(self, tmp_path, l4):
        rec = _record(30.0, l4=l4)
        path = tmp_path / "tcp.pcap"
        pcap.write_pcap([rec], str(path))
        assert list(pcap.open_capture(str(path))) == [rec]

    @pytest.mark.parametrize("ip", [20, 24, 40, 60])
    def test_ipv4_header_lengths_read_back(self, tmp_path, ip):
        rec = _record(30.0, protocol=17, ip=ip, l4=8)
        path = tmp_path / "ipv4.pcap"
        pcap.write_pcap([rec], str(path))
        assert list(pcap.open_capture(str(path))) == [rec]


def test_quantize_us_carry():
    assert pcap.quantize_us(1.9999996) == 2.0
    assert pcap.quantize_us(5.0) == 5.0
