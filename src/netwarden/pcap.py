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
from socket import inet_ntoa
from typing import Iterator

import numpy as np

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
# in bit order; every flag column and the flow dump list flags in this order
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

    def decode(self, raw: bytes | memoryview,
               ts: float = 0.0) -> PacketRecord | None:
        """`decode_frame`'s record of a frame, or None for a frame it
        refuses, counted here as a fragment, non-IP or malformed."""
        try:
            return decode_frame(raw, self.link_type, ts)
        except FragmentContinuation as frag:
            self.fragment_frames += 1
            self.fragment_bytes += frag.byte_count
        except NonIP:
            self.skipped_non_ip += 1
        except MalformedHeader:
            self.skipped_malformed += 1
        return None


# The reader's headers, read in place at an offset into the frame: the
# IPv4 fixed header (version/IHL, total length, flags/fragment offset, TTL,
# protocol, addresses), the TCP header up to the window (ports, data
# offset, flags, window) and the UDP ports.
_IPV4_FIXED = struct.Struct("!BxHxxHBB2x4s4s")
_TCP_FIXED = struct.Struct("!HH8xBBH")
_PORTS = struct.Struct("!HH")


def _decode_ipv6(buf: memoryview) -> tuple:
    """(next header, header length with extensions, total length, hop
    limit, source, destination) of the IPv6 packet at the start of buf."""
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
    return (next_header, offset, total_length, ttl, src, dst)


def decode_frame(raw: bytes | memoryview, link_type: int,
                 ts: float = 0.0) -> PacketRecord:
    """Decode one captured frame into a PacketRecord.

    Raises NonIP for frames without an IP packet (callers count and skip),
    FragmentContinuation for non-first IP fragments, and MalformedHeader
    when length fields are inconsistent with the bytes present. Headers
    are read in place, at offsets into `raw`.
    """
    size = len(raw)
    if link_type == LINKTYPE_ETHERNET:
        if size < 14:
            raise MalformedHeader("frame shorter than Ethernet header")
        ethertype = (raw[12] << 8) | raw[13]
        link_len = 14
        if ethertype == ETHERTYPE_VLAN:
            # one 802.1Q level; deeper nesting is skipped as non-IP
            if size < 18:
                raise MalformedHeader("truncated 802.1Q tag")
            ethertype = (raw[16] << 8) | raw[17]
            link_len = 18
            if ethertype == ETHERTYPE_VLAN:
                raise NonIP("nested 802.1Q tags")
        if ethertype == ETHERTYPE_IPV4:
            ipv4 = True
        elif ethertype == ETHERTYPE_IPV6:
            ipv4 = False
        else:
            raise NonIP("ethertype 0x%04x" % ethertype)
    elif link_type == LINKTYPE_RAW_IP:
        link_len = 0
        if size < 1:
            raise MalformedHeader("empty raw-IP frame")
        version = raw[0] >> 4
        if version == 4:
            ipv4 = True
        elif version == 6:
            ipv4 = False
        else:
            raise NonIP("raw frame with IP version %d" % version)
    else:
        raise UnsupportedLinkType("link type %d" % link_type)

    if ipv4:
        if size - link_len < 20:
            raise MalformedHeader("IPv4 header shorter than 20 bytes")
        ver_ihl, ip_total, frag_field, ttl, protocol, src, dst = \
            _IPV4_FIXED.unpack_from(raw, link_len)
        if ver_ihl >> 4 != 4:
            raise MalformedHeader("IP version field is not 4")
        ip_hlen = (ver_ihl & 0x0F) * 4
        if ip_hlen < 20 or size - link_len < ip_hlen:
            raise MalformedHeader("inconsistent IPv4 header length")
        if ip_total < ip_hlen:
            raise MalformedHeader("IPv4 total length smaller than header")
        if frag_field & 0x1FFF:
            raise FragmentContinuation(ip_total - ip_hlen)
        src = inet_ntoa(src)
        dst = inet_ntoa(dst)
    else:
        protocol, ip_hlen, ip_total, ttl, src, dst = \
            _decode_ipv6(memoryview(raw)[link_len:])

    l4 = link_len + ip_hlen  # the L4 header's offset in the frame
    if protocol == PROTO_TCP:
        if size - l4 < 20:
            raise MalformedHeader("truncated TCP header")
        src_port, dst_port, data_offset, tcp_flags, tcp_window = \
            _TCP_FIXED.unpack_from(raw, l4)
        l4_hlen = (data_offset >> 4) * 4
        if l4_hlen < 20 or size - l4 < l4_hlen:
            raise MalformedHeader("inconsistent TCP data offset")
    else:
        tcp_flags = tcp_window = None
        if protocol == PROTO_UDP:
            if size - l4 < 8:
                raise MalformedHeader("truncated UDP header")
            src_port, dst_port = _PORTS.unpack_from(raw, l4)
            l4_hlen = 8
        else:
            src_port = dst_port = 0
            if protocol == PROTO_ICMP or protocol == PROTO_ICMPV6:
                if size - l4 < 8:
                    raise MalformedHeader("truncated ICMP header")
                l4_hlen = 8
            else:
                l4_hlen = 0

    payload_len = ip_total - ip_hlen - l4_hlen
    if payload_len < 0:
        raise MalformedHeader("negative payload length")
    return PacketRecord(ts, src, dst, src_port, dst_port, protocol, link_len,
                        ip_hlen, l4_hlen, link_len + ip_total, ttl,
                        payload_len, tcp_flags, tcp_window)


class CaptureReader:
    """Iterator over decoded PacketRecords of one PCAP file.

    Records are yielded in non-decreasing timestamp order, each once a
    frame stamped at least REORDER_HORIZON later, or the file's end, is
    read. Skipped frames are counted in `summary`: fragment
    continuations, non-IP and malformed frames, and frames more than
    REORDER_HORIZON behind the newest kept one. Each pass starts a new
    `summary`, complete once iteration ends, so it counts one pass. The
    file is read, and its record headers walked, once, at open; a record
    cut short raises TruncatedHeader only when reading reaches it.
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
        self._table = self._walk()

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

    def _walk(self) -> tuple:
        """(timestamps, frame offsets, frame lengths) of the complete
        records in file order, as arrays, and the TruncatedHeader of a
        record cut short after them, or None. One pass over the record
        headers reads each length; numpy gathers the timestamps."""
        data = self._data
        end = len(data)
        caplen_at = struct.Struct(self._endian + "I").unpack_from
        starts: list[int] = []
        offset = GLOBAL_HEADER_LEN
        try:
            while offset < end:
                starts.append(offset)
                offset += RECORD_HEADER_LEN + caplen_at(data, offset + 8)[0]
        except struct.error:  # the length field itself is past the end
            pass
        cut = None
        if starts and starts[-1] + RECORD_HEADER_LEN > end:
            cut = TruncatedHeader("record header past end of file")
        elif offset > end:
            cut = TruncatedHeader("record body past end of file")
        if cut is not None:
            starts.pop()
        head = np.array(starts, dtype=np.int64)
        words = np.frombuffer(data, dtype=np.uint8)[
            head[:, None] + np.arange(12)].view(self._endian + "u4")
        ts_sub = words[:, 1] // 1000 if self._ns else words[:, 1]
        ts = words[:, 0] + ts_sub / 1e6  # as sec + sub / 1e6 in Python
        return ts, head + RECORD_HEADER_LEN, words[:, 2].astype(np.int64), cut

    def records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(timestamps, frame offsets into `data`, frame lengths) of every
        record in file order. Raises TruncatedHeader at a record cut
        short."""
        ts, start, size, cut = self._table
        if cut is not None:
            raise cut
        return ts, start, size

    @property
    def data(self) -> bytes:
        """The whole file, as read once at open."""
        return self._data

    def frames(self) -> Iterator[tuple[float, memoryview]]:
        """(timestamp, frame bytes) of every record in file order, not
        decoded. Raises TruncatedHeader at a record cut short, after the
        records before it."""
        ts, start, size, cut = self._table
        data = memoryview(self._data)
        for t, a, b in zip(ts.tolist(), start.tolist(),
                           (start + size).tolist()):
            yield t, data[a:b]
        if cut is not None:
            raise cut

    def __iter__(self) -> Iterator[PacketRecord]:
        heap: list[tuple[float, int, PacketRecord]] = []
        link_type = self.link_type
        # each pass restarts the horizon and the counts
        s = self.summary = CaptureSummary(link_type=link_type)
        newest = float("-inf")
        cut = None
        try:
            for ts, frame in self.frames():
                s.frames_read += 1
                rec = s.decode(frame, ts)
                if rec is None:
                    continue
                if ts < newest - REORDER_HORIZON:
                    s.dropped_late += 1
                    continue
                if ts > newest:
                    newest = ts
                # ties leave in arrival order
                heapq.heappush(heap, (ts, s.frames_read, rec))
                ready = newest - REORDER_HORIZON
                while heap and heap[0][0] <= ready:
                    s.decoded += 1
                    yield heapq.heappop(heap)[2]
        except TruncatedHeader as exc:
            cut = exc  # the records before the cut are still delivered
        while heap:
            s.decoded += 1
            yield heapq.heappop(heap)[2]
        if cut is not None:
            raise cut


def open_capture(path: str) -> CaptureReader:
    """Open a PCAP file for streaming decode."""
    return CaptureReader(path)


def iter_raw_frames(path: str):
    """Yield (ts, raw_frame, link_type) without decoding; benchmark use."""
    reader = CaptureReader(path)
    for ts, frame in reader.frames():
        yield ts, frame, reader.link_type


# The writer's headers: the record header in the file's byte order, the
# rest in network order. Each frame gets fixed MACs (dst, then src).
_RECORD = struct.Struct("<IIII")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_IPV6 = struct.Struct("!IHBB16s16s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")
_ICMP = struct.pack("!BBHI", 8, 0, 0, 0)  # echo request, zero fields
_MACS = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01"
_ETHERNET = {4: _MACS + struct.pack("!H", ETHERTYPE_IPV4),
             6: _MACS + struct.pack("!H", ETHERTYPE_IPV6)}
# the lengths a 4-bit count of 32-bit words gives an IPv4 or TCP header
_WORD_HEADER_LENS = range(20, 61, 4)
_WRITE_BLOCK = 1 << 20  # bytes joined before each write


def _resolve(text: str) -> tuple[int, bytes, int]:
    """An address's version and packed bytes, and the sum of the 16-bit
    words of its first four bytes (an IPv4 header's share of them).
    ValueError unless `ipaddress` accepts it."""
    address = ipaddress.ip_address(text)
    packed = address.packed
    return (address.version, packed,
            (packed[0] << 8 | packed[1]) + (packed[2] << 8 | packed[3]))


def write_pcap(records, path: str, link_type: int = LINKTYPE_ETHERNET) -> int:
    """Write PacketRecords as a standard microsecond PCAP. Returns count.

    Each record is rebuilt as wire bytes with zero-filled payload: an
    Ethernet header in an Ethernet file, then an IP header of the
    addresses' version (IPv4 with DF set and a valid header checksum),
    then a TCP, UDP or ICMP header with checksum 0.

    ValueError, with the records before it written, at a record the reader
    would not read back as written: an address `ipaddress` refuses, two IP
    versions, a link_header_len other than the file's (14 for Ethernet, 0
    for raw IP), an IPv4 ip_header_len outside 20, 24, .., 60 or an IPv6
    one other than 40, or an l4_header_len other than the one the reader
    gives the protocol: 20, 24, .., 60 for TCP, 8 for UDP and ICMP, 0 for
    any other protocol.
    """
    if link_type not in SUPPORTED_LINK_TYPES:
        raise ValueError("link type %r is not supported" % (link_type,))
    link_len = 14 if link_type == LINKTYPE_ETHERNET else 0
    addresses: dict = {}  # this call's addresses, each parsed once
    parts: list = []
    pending = count = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", MAGIC_US_BE, 2, 4, 0, 0,
                             65535, link_type))
        try:
            for rec in records:
                src = addresses.get(rec.src_ip)
                if src is None:
                    src = addresses[rec.src_ip] = _resolve(rec.src_ip)
                dst = addresses.get(rec.dst_ip)
                if dst is None:
                    dst = addresses[rec.dst_ip] = _resolve(rec.dst_ip)
                if src[0] != dst[0]:
                    raise ValueError("%s and %s are of two IP versions"
                                     % (rec.src_ip, rec.dst_ip))
                if rec.link_header_len != link_len:
                    raise ValueError("link_header_len %r, not the file's %d"
                                     % (rec.link_header_len, link_len))
                protocol = rec.protocol
                payload = rec.payload_len if rec.payload_len > 0 else 0
                if protocol == PROTO_TCP:
                    if rec.l4_header_len not in _WORD_HEADER_LENS:
                        raise ValueError("TCP l4_header_len %r is not 20, "
                                         "24, .., 60" % (rec.l4_header_len,))
                    l4 = _TCP.pack(rec.src_port, rec.dst_port, 0, 0,
                                   (rec.l4_header_len // 4) << 4,
                                   rec.tcp_flags or 0, rec.tcp_window or 0,
                                   0, 0) + bytes(rec.l4_header_len - 20)
                elif protocol == PROTO_UDP:
                    if rec.l4_header_len != 8:
                        raise ValueError("UDP l4_header_len %r is not 8"
                                         % (rec.l4_header_len,))
                    l4 = _UDP.pack(rec.src_port, rec.dst_port,
                                   8 + rec.payload_len, 0)
                elif protocol == PROTO_ICMP or protocol == PROTO_ICMPV6:
                    if rec.l4_header_len != 8:
                        raise ValueError("ICMP l4_header_len %r is not 8"
                                         % (rec.l4_header_len,))
                    l4 = _ICMP
                else:
                    if rec.l4_header_len != 0:
                        raise ValueError("protocol %r l4_header_len %r is "
                                         "not 0" % (protocol,
                                                    rec.l4_header_len))
                    l4 = b""
                ip_len = rec.ip_header_len
                if src[0] == 4:
                    if ip_len not in _WORD_HEADER_LENS:
                        raise ValueError("IPv4 ip_header_len %r is not 20, "
                                         "24, .., 60" % (ip_len,))
                    ver_ihl = 0x40 | ip_len // 4
                    ip_total = ip_len + len(l4) + payload
                    # one's-complement sum of the header's 16-bit words;
                    # options are zeros and add nothing
                    total = (ver_ihl << 8) + ip_total + 0x4000 \
                        + (rec.ttl << 8 | protocol) + src[2] + dst[2]
                    total = (total & 0xFFFF) + (total >> 16)
                    total = (total & 0xFFFF) + (total >> 16)
                    ip = _IPV4.pack(ver_ihl, 0, ip_total, 0, 0x4000, rec.ttl,
                                    protocol, ~total & 0xFFFF, src[1], dst[1])
                    if ip_len > 20:
                        ip += bytes(ip_len - 20)
                else:
                    if ip_len != 40:
                        raise ValueError("IPv6 ip_header_len %r is not 40"
                                         % (ip_len,))
                    ip = _IPV6.pack(0x60000000, len(l4) + payload, protocol,
                                    rec.ttl, src[1], dst[1])
                eth = _ETHERNET[src[0]] if link_len else b""
                size = len(eth) + len(ip) + len(l4) + payload
                sec, usec = _split_us(rec.ts)
                parts += (_RECORD.pack(sec, usec, size, size), eth, ip, l4,
                          bytes(payload))
                pending += 16 + size
                count += 1
                if pending >= _WRITE_BLOCK:
                    fh.write(b"".join(parts))
                    parts.clear()
                    pending = 0
        finally:  # a bad record still leaves every record before it
            fh.write(b"".join(parts))
    return count
