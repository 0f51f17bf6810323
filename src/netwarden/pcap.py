"""PCAP reading/writing and L2-L4 header decoding.

Packets are reduced to header-derived records; payload bytes are measured,
never stored. Out-of-order captures are re-sequenced within a bounded
reorder horizon so downstream consumers always see non-decreasing
timestamps.
"""

from __future__ import annotations

import heapq
import ipaddress
import struct
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BadMagic,
    FragmentContinuation,
    MalformedHeader,
    NonIP,
    TruncatedHeader,
    UnsupportedLinkType,
)

# libpcap file format constants
MAGIC_US_BE = 0xA1B2C3D4
MAGIC_US_LE = 0xD4C3B2A1
MAGIC_NS_BE = 0xA1B23C4D
MAGIC_NS_LE = 0x4D3CB2A1
GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101
SUPPORTED_LINK_TYPES = (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMPV6 = 58

# TCP flag bits (byte 13 of the TCP header)
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20
TCP_ECE = 0x40
TCP_CWR = 0x80
TCP_FLAG_NAMES = ("fin", "syn", "rst", "psh", "ack", "urg", "ece", "cwr")

REORDER_HORIZON = 1.0  # seconds; older arrivals are dropped and counted

_IPV6_EXT_HEADERS = (0, 43, 60)  # hop-by-hop, routing, destination options


def _split_us(ts: float) -> tuple[int, int]:
    """Seconds and microseconds of a timestamp on the PCAP microsecond
    grid."""
    sec = int(ts)
    usec = int(round((ts - sec) * 1e6))
    if usec >= 1_000_000:
        return sec + 1, usec - 1_000_000
    return sec, usec


def quantize_us(ts: float) -> float:
    """Round a timestamp to the microsecond grid the PCAP format stores."""
    sec, usec = _split_us(ts)
    return sec + usec / 1e6


@dataclass(slots=True)
class PacketRecord:
    """Decoded header fields of one IP packet. Never holds payload bytes."""

    ts: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    link_header_len: int
    ip_header_len: int
    l4_header_len: int
    total_len: int
    ttl: int
    payload_len: int
    tcp_flags: int | None = None
    tcp_window: int | None = None


@dataclass
class CaptureSummary:
    frames_read: int = 0
    decoded: int = 0
    skipped_non_ip: int = 0
    skipped_malformed: int = 0
    fragment_frames: int = 0
    fragment_bytes: int = 0
    dropped_late: int = 0
    link_type: int | None = None


def _decode_ipv4(buf: memoryview) -> tuple:
    if len(buf) < 20:
        raise MalformedHeader("IPv4 header shorter than 20 bytes")
    ver_ihl = buf[0]
    if ver_ihl >> 4 != 4:
        raise MalformedHeader("IP version field is not 4")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(buf) < ihl:
        raise MalformedHeader("inconsistent IPv4 header length")
    total_length = (buf[2] << 8) | buf[3]
    if total_length < ihl:
        raise MalformedHeader("IPv4 total length smaller than header")
    frag_field = (buf[6] << 8) | buf[7]
    frag_offset = frag_field & 0x1FFF
    if frag_offset > 0:
        raise FragmentContinuation(total_length - ihl)
    ttl = buf[8]
    protocol = buf[9]
    src = "%d.%d.%d.%d" % (buf[12], buf[13], buf[14], buf[15])
    dst = "%d.%d.%d.%d" % (buf[16], buf[17], buf[18], buf[19])
    return (protocol, ihl, total_length, ttl, src, dst, buf[ihl:])


def _decode_ipv6(buf: memoryview) -> tuple:
    if len(buf) < 40:
        raise MalformedHeader("IPv6 header shorter than 40 bytes")
    if buf[0] >> 4 != 6:
        raise MalformedHeader("IP version field is not 6")
    payload_length = (buf[4] << 8) | buf[5]
    next_header = buf[6]
    ttl = buf[7]
    src = str(ipaddress.IPv6Address(bytes(buf[8:24])))
    dst = str(ipaddress.IPv6Address(bytes(buf[24:40])))
    offset = 40
    # walk common extension headers; the L4 protocol is the final next-header
    while next_header in _IPV6_EXT_HEADERS or next_header == 44:
        if len(buf) < offset + 8:
            raise MalformedHeader("truncated IPv6 extension header")
        if next_header == 44:  # fragment header
            frag_off = ((buf[offset + 2] << 8) | buf[offset + 3]) >> 3
            nh = buf[offset]
            if frag_off > 0:
                raise FragmentContinuation(payload_length)
            next_header = nh
            offset += 8
            continue
        ext_len = (buf[offset + 1] + 1) * 8
        next_header = buf[offset]
        offset += ext_len
        if offset > len(buf):
            raise MalformedHeader("IPv6 extension header exceeds frame")
    total_length = 40 + payload_length
    if total_length < offset:
        raise MalformedHeader("IPv6 payload length smaller than extensions")
    return (next_header, offset, total_length, ttl, src, dst, buf[offset:])


def decode_frame(raw: bytes | memoryview, link_type: int,
                 ts: float = 0.0) -> PacketRecord:
    """Decode one captured frame into a PacketRecord.

    Raises NonIP for frames without an IP packet (callers count and skip),
    FragmentContinuation for non-first IP fragments, and MalformedHeader
    when length fields are inconsistent with the bytes present.
    """
    buf = memoryview(raw)
    if link_type == LINKTYPE_ETHERNET:
        if len(buf) < 14:
            raise MalformedHeader("frame shorter than Ethernet header")
        ethertype = (buf[12] << 8) | buf[13]
        link_len = 14
        if ethertype == ETHERTYPE_VLAN:
            # one 802.1Q level; deeper nesting is skipped as non-IP
            if len(buf) < 18:
                raise MalformedHeader("truncated 802.1Q tag")
            ethertype = (buf[16] << 8) | buf[17]
            link_len = 18
            if ethertype == ETHERTYPE_VLAN:
                raise NonIP("nested 802.1Q tags")
        ip_buf = buf[link_len:]
        if ethertype == ETHERTYPE_IPV4:
            fields = _decode_ipv4(ip_buf)
        elif ethertype == ETHERTYPE_IPV6:
            fields = _decode_ipv6(ip_buf)
        else:
            raise NonIP("ethertype 0x%04x" % ethertype)
    elif link_type == LINKTYPE_RAW_IP:
        link_len = 0
        if len(buf) < 1:
            raise MalformedHeader("empty raw-IP frame")
        version = buf[0] >> 4
        if version == 4:
            fields = _decode_ipv4(buf)
        elif version == 6:
            fields = _decode_ipv6(buf)
        else:
            raise NonIP("raw frame with IP version %d" % version)
    else:
        raise UnsupportedLinkType("link type %d" % link_type)

    protocol, ip_hlen, ip_total, ttl, src, dst, l4 = fields
    src_port = dst_port = 0
    tcp_flags = None
    tcp_window = None
    if protocol == PROTO_TCP:
        if len(l4) < 20:
            raise MalformedHeader("truncated TCP header")
        l4_hlen = (l4[12] >> 4) * 4
        if l4_hlen < 20 or len(l4) < l4_hlen:
            raise MalformedHeader("inconsistent TCP data offset")
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
        tcp_flags = l4[13]
        tcp_window = (l4[14] << 8) | l4[15]
    elif protocol == PROTO_UDP:
        if len(l4) < 8:
            raise MalformedHeader("truncated UDP header")
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
        l4_hlen = 8
    elif protocol in (PROTO_ICMP, PROTO_ICMPV6):
        if len(l4) < 8:
            raise MalformedHeader("truncated ICMP header")
        l4_hlen = 8
    else:
        l4_hlen = 0

    payload_len = ip_total - ip_hlen - l4_hlen
    if payload_len < 0:
        raise MalformedHeader("negative payload length")
    return PacketRecord(
        ts=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        link_header_len=link_len,
        ip_header_len=ip_hlen,
        l4_header_len=l4_hlen,
        total_len=link_len + ip_total,
        ttl=ttl,
        payload_len=payload_len,
        tcp_flags=tcp_flags,
        tcp_window=tcp_window,
    )


class CaptureReader:
    """Iterator over decoded PacketRecords of one PCAP file.

    Records are yielded in non-decreasing timestamp order; frames arriving
    more than REORDER_HORIZON behind the newest timestamp are dropped and
    counted. `admit` is the per-frame rule, `__iter__` adds the reorder
    buffer. `summary` is complete once iteration finishes.
    """

    def __init__(self, path: str):
        self.summary = CaptureSummary()
        with open(path, "rb") as fh:
            self._data = fh.read()
        if len(self._data) < GLOBAL_HEADER_LEN:
            if len(self._data) >= 4:
                self._parse_magic()  # raises BadMagic on junk
                raise TruncatedHeader("file shorter than global header")
            raise BadMagic("file too short to be a PCAP")
        self._endian, self._ns = self._parse_magic()
        network = struct.unpack_from(self._endian + "I", self._data, 20)[0]
        if network not in SUPPORTED_LINK_TYPES:
            raise UnsupportedLinkType("link type %d" % network)
        self.link_type = network
        self.summary.link_type = network
        self._newest = float("-inf")  # newest admitted timestamp

    def _parse_magic(self) -> tuple[str, bool]:
        magic_be = struct.unpack_from(">I", self._data, 0)[0]
        if magic_be == MAGIC_US_BE:
            return ">", False
        if magic_be == MAGIC_NS_BE:
            return ">", True
        magic_le = struct.unpack_from("<I", self._data, 0)[0]
        if magic_le == MAGIC_US_BE:
            return "<", False
        if magic_le == MAGIC_NS_BE:
            return "<", True
        raise BadMagic("0x%08x is not a PCAP magic" % magic_be)

    def frames(self) -> Iterator[tuple[float, memoryview]]:
        """(timestamp, frame bytes) of every record in file order, not
        decoded. Raises TruncatedHeader at a record cut short."""
        data = memoryview(self._data)
        offset = GLOBAL_HEADER_LEN
        rec_fmt = self._endian + "IIII"
        while offset < len(data):
            if offset + RECORD_HEADER_LEN > len(data):
                raise TruncatedHeader("record header past end of file")
            ts_sec, ts_sub, caplen, _orig = struct.unpack_from(
                rec_fmt, data, offset)
            offset += RECORD_HEADER_LEN
            if offset + caplen > len(data):
                raise TruncatedHeader("record body past end of file")
            if self._ns:
                ts_sub //= 1000  # truncate to microseconds
            ts = ts_sec + ts_sub / 1e6
            yield ts, data[offset:offset + caplen]
            offset += caplen

    def admit(self, ts: float, frame: bytes | memoryview
              ) -> PacketRecord | None:
        """Decode one captured frame and count it in `summary`. Returns
        None for a frame the reader skips: a fragment continuation, a
        non-IP or malformed frame, or one more than REORDER_HORIZON
        behind the newest admitted timestamp."""
        s = self.summary
        s.frames_read += 1
        try:
            rec = decode_frame(frame, self.link_type, ts=ts)
        except FragmentContinuation as frag:
            s.fragment_frames += 1
            s.fragment_bytes += frag.byte_count
            return None
        except NonIP:
            s.skipped_non_ip += 1
            return None
        except MalformedHeader:
            s.skipped_malformed += 1
            return None
        if ts < self._newest - REORDER_HORIZON:
            s.dropped_late += 1
            return None
        if ts > self._newest:
            self._newest = ts
        return rec

    def __iter__(self) -> Iterator[PacketRecord]:
        heap: list[tuple[float, int, PacketRecord]] = []
        seq = 0
        admit, s = self.admit, self.summary
        self._newest = float("-inf")  # each pass restarts the horizon
        try:
            for ts, frame in self.frames():
                rec = admit(ts, frame)
                if rec is None:
                    continue
                heapq.heappush(heap, (ts, seq, rec))
                seq += 1
                ready = self._newest - REORDER_HORIZON
                while heap and heap[0][0] <= ready:
                    s.decoded += 1
                    yield heapq.heappop(heap)[2]
        except TruncatedHeader:
            # the records before the cut are still delivered
            yield from self._flush(heap)
            raise
        yield from self._flush(heap)

    def _flush(self, heap: list) -> Iterator[PacketRecord]:
        while heap:
            self.summary.decoded += 1
            yield heapq.heappop(heap)[2]


def open_capture(path: str) -> CaptureReader:
    """Open a PCAP file for streaming decode."""
    return CaptureReader(path)


def iter_raw_frames(path: str):
    """Yield (ts, raw_frame, link_type) without decoding; benchmark use."""
    reader = CaptureReader(path)
    for ts, frame in reader.frames():
        yield ts, frame, reader.link_type


def _checksum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def encode_frame(rec: PacketRecord) -> bytes:
    """Rebuild wire bytes for a PacketRecord; payload is zero-filled."""
    src = ipaddress.ip_address(rec.src_ip)
    dst = ipaddress.ip_address(rec.dst_ip)
    if rec.protocol == PROTO_TCP:
        l4 = struct.pack(
            "!HHIIBBHHH",
            rec.src_port, rec.dst_port, 0, 0,
            (rec.l4_header_len // 4) << 4,
            rec.tcp_flags or 0,
            rec.tcp_window or 0,
            0, 0,
        )
        l4 += b"\x00" * (rec.l4_header_len - 20)
    elif rec.protocol == PROTO_UDP:
        l4 = struct.pack("!HHHH", rec.src_port, rec.dst_port,
                         8 + rec.payload_len, 0)
    elif rec.protocol in (PROTO_ICMP, PROTO_ICMPV6):
        l4 = struct.pack("!BBHI", 8, 0, 0, 0)
    else:
        l4 = b""
    body = l4 + b"\x00" * rec.payload_len

    if src.version == 4:
        ip_total = rec.ip_header_len + len(body)
        header = struct.pack(
            "!BBHHHBBH4s4s",
             0x40 | (rec.ip_header_len // 4), 0, ip_total, 0, 0x4000,
            rec.ttl, rec.protocol, 0, src.packed, dst.packed,
        )
        header += b"\x00" * (rec.ip_header_len - 20)
        header = header[:10] + struct.pack("!H", _checksum16(header)) \
            + header[12:]
        ip_pkt = header + body
        ethertype = ETHERTYPE_IPV4
    else:
        payload_length = len(body) + rec.ip_header_len - 40
        header = struct.pack(
            "!IHBB16s16s",
            0x60000000, payload_length, rec.protocol, rec.ttl,
            src.packed, dst.packed,
        )
        ip_pkt = header + b"\x00" * (rec.ip_header_len - 40) + body
        ethertype = ETHERTYPE_IPV6

    if rec.link_header_len == 0:
        return ip_pkt
    eth = (b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01"
           + struct.pack("!H", ethertype))
    return eth + ip_pkt


def write_pcap(records, path: str, link_type: int = LINKTYPE_ETHERNET) -> int:
    """Write PacketRecords as a standard microsecond PCAP. Returns count."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", MAGIC_US_BE, 2, 4, 0, 0,
                             65535, link_type))
        for rec in records:
            frame = encode_frame(rec)
            sec, usec = _split_us(rec.ts)
            fh.write(struct.pack("<IIII", sec, usec, len(frame), len(frame)))
            fh.write(frame)
            count += 1
    return count
