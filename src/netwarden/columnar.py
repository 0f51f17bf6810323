"""The batch jobs' capture decode, column by column.

`packet_matrix` gives the matrix, labels and capture accounting that
reading the capture record by record gives (the reader's records,
`packet_features` with one PacketContext,
`LabelIndex.label_for_packet`), bit for bit, and `packet_records` gives
the reader's records themselves, for the flow modes' meter. Both read
the headers with numpy:

- one pass over the record headers finds every frame;
- the fixed-offset fields of Ethernet or raw-IP IPv4 frames (any header
  length) carrying TCP, UDP, ICMP or another protocol are gathered as
  columns, and every check `decode_frame` makes of such a frame is made
  on the columns;
- a frame those checks do not pass (802.1Q tags, IPv6, fragments, short
  or inconsistent headers, other ethertypes) goes through
  `CaptureSummary.decode`, which decodes it or counts it as the reader
  does;
- the reorder horizon drops what the reader drops, and a stable sort by
  timestamp gives the reader's (timestamp, arrival) order;
- in packet mode, one stable sort on the 5-tuple gives each packet its
  gap and index in its flow and the label rows of its key;
- for the flow modes, each distinct address is spelled once and the
  records are built from the columns.

Like PacketContext, the sort reads addresses and ports, and only for
equality; timestamps order the packets and give the gaps.
"""

from __future__ import annotations

from socket import inet_aton, inet_ntoa
from typing import Iterator

import numpy as np

from .evaluation import LABEL_NORMAL
from .features import FeatureMatrix, MODE_PACKET, PACKET_MANIFEST, \
    packet_columns
from .pcap import (
    ETHERTYPE_IPV4,
    LINKTYPE_ETHERNET,
    PROTO_ICMP,
    PROTO_ICMPV6,
    PROTO_TCP,
    PROTO_UDP,
    REORDER_HORIZON,
    CaptureReader,
    CaptureSummary,
    PacketRecord,
)

# the int64 columns of decoded packets, in this order
_SRC, _DST, _SPORT, _DPORT, _PROTO, _TOTAL, _PAYLOAD, _IP_HLEN, _L4_HLEN, \
    _FLAGS, _WINDOW, _TTL, _LINK = range(13)
_N_FIELDS = _LINK + 1
_V6_BASE = 1 << 32  # ids of addresses that are not dotted quads start here
_BLOCK = 8192  # records built from one slice of the columns at a time


class _AddressIds:
    """Integer ids equal exactly when the address strings are equal: a
    dotted quad as `inet_ntoa` writes it is its 32-bit value, any other
    string gets the next id from 2**32 up."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._others = 0

    def __call__(self, text: str) -> int:
        known = self._ids.get(text)
        if known is not None:
            return known
        try:
            packed = inet_aton(text)
        except (OSError, ValueError):
            packed = None
        if packed is not None and inet_ntoa(packed) == text:
            known = int.from_bytes(packed, "big")
        else:
            known = _V6_BASE + self._others
            self._others += 1
        self._ids[text] = known
        return known

    def text(self, ids: np.ndarray) -> np.ndarray:
        """The address each id stands for, as an object array of the
        shape of `ids`: a dotted quad spelled by `inet_ntoa` once per
        distinct address, any other the text it was recorded from."""
        distinct, where = np.unique(ids, return_inverse=True)
        others = {v: k for k, v in self._ids.items() if v >= _V6_BASE}
        spelled = [inet_ntoa(i.to_bytes(4, "big")) if i < _V6_BASE
                   else others[i] for i in distinct.tolist()]
        return np.array(spelled, dtype=object)[where.reshape(ids.shape)]


def _gather(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes at each offset in `at`, as int64 columns. An
    offset closer than `width` to the end reads the last `width` bytes:
    the frame there is too short for the field, and callers mask it."""
    at = np.minimum(at, buf.size - width)
    return buf[np.arange(width)[:, None] + at].astype(np.int64)


def _decode_columns(buf: np.ndarray, start: np.ndarray, size: np.ndarray,
                    link_type: int) -> tuple[np.ndarray, np.ndarray]:
    """(fields, ok): the _N_FIELDS columns of every frame, and which
    frames pass every check `decode_frame` makes of an untagged IPv4
    frame. The fields of the other frames are meaningless."""
    link = 14 if link_type == LINKTYPE_ETHERNET else 0
    room = size - link  # bytes from the IP header on
    h = _gather(buf, start + link, 20)  # the fixed IPv4 header
    ihl = (h[0] & 0x0F) * 4
    ip_total = h[2] << 8 | h[3]
    ok = ((room >= 20) & (h[0] >> 4 == 4) & (ihl >= 20) & (room >= ihl)
          & (ip_total >= ihl) & (h[6] & 0x1F == 0) & (h[7] == 0))
    if link:
        eth = _gather(buf, start + 12, 2)
        ok &= (eth[0] << 8 | eth[1]) == ETHERTYPE_IPV4
    proto = h[9]
    l4 = start + link + ihl
    ports = _gather(buf, l4, 4)
    tail = _gather(buf, l4 + 12, 4)  # TCP data offset, flags, window
    rest = room - ihl  # bytes from the L4 header on
    tcp = proto == PROTO_TCP
    udp = proto == PROTO_UDP
    eight = udp | (proto == PROTO_ICMP) | (proto == PROTO_ICMPV6)
    offset = (tail[0] >> 4) * 4
    l4_hlen = np.where(tcp, offset, np.where(eight, 8, 0))
    ok &= np.where(tcp, (rest >= 20) & (offset >= 20) & (rest >= offset),
                   ~eight | (rest >= 8))
    payload = ip_total - ihl - l4_hlen
    ok &= payload >= 0
    has_ports = tcp | udp
    fields = np.empty((_N_FIELDS, start.size), dtype=np.int64)
    fields[_SRC] = h[12] << 24 | h[13] << 16 | h[14] << 8 | h[15]
    fields[_DST] = h[16] << 24 | h[17] << 16 | h[18] << 8 | h[19]
    fields[_SPORT] = np.where(has_ports, ports[0] << 8 | ports[1], 0)
    fields[_DPORT] = np.where(has_ports, ports[2] << 8 | ports[3], 0)
    fields[_PROTO] = proto
    fields[_TOTAL] = link + ip_total
    fields[_PAYLOAD] = payload
    fields[_IP_HLEN] = ihl
    fields[_L4_HLEN] = l4_hlen
    fields[_FLAGS] = np.where(tcp, tail[1], 0)
    fields[_WINDOW] = np.where(tcp, tail[2] << 8 | tail[3], 0)
    fields[_TTL] = h[8]
    fields[_LINK] = link
    return fields, ok


def _label_keys(rows, address_id) -> tuple:
    """The label rows' keys, as `_keys` gives the packets'."""
    f = np.zeros((_N_FIELDS, len(rows)), dtype=np.int64)
    f[_SRC] = [address_id(r.src_ip) for r in rows]
    f[_DST] = [address_id(r.dst_ip) for r in rows]
    f[_SPORT] = [r.src_port for r in rows]
    f[_DPORT] = [r.dst_port for r in rows]
    f[_PROTO] = [r.protocol for r in rows]
    return _keys(f)


def _keys(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two int64s equal exactly when the 5-tuples are: (source, source
    port, protocol) and (destination, destination port)."""
    return (f[_SRC] << 24 | f[_SPORT] << 8 | f[_PROTO],
            f[_DST] << 16 | f[_DPORT])


def _decode(reader: CaptureReader) -> tuple:
    """(timestamps, fields, decoded, address ids) of every frame in file
    order; the frames `decode_frame` refuses are counted in a new reader
    summary, so it counts this pass only. The ids are those the fields
    hold, for the label join and the records' addresses."""
    link_type = reader.link_type
    ts, start, size = reader.records()
    s = reader.summary = CaptureSummary(link_type=link_type)
    s.frames_read = ts.size
    fields, ok = _decode_columns(np.frombuffer(reader.data, dtype=np.uint8),
                                 start, size, link_type)
    address_id = _AddressIds()
    data = memoryview(reader.data)
    for k in np.flatnonzero(~ok).tolist():
        at = int(start[k])
        p = s.decode(data[at:at + int(size[k])])
        if p is None:
            continue
        ok[k] = True
        fields[:, k] = (address_id(p.src_ip), address_id(p.dst_ip),
                        p.src_port, p.dst_port, p.protocol, p.total_len,
                        p.payload_len, p.ip_header_len, p.l4_header_len,
                        p.tcp_flags or 0, p.tcp_window or 0, p.ttl,
                        p.link_header_len)
    return ts, fields, ok, address_id


def _resequence(ts: np.ndarray, ok: np.ndarray, s) -> np.ndarray:
    """The decoded frames the reader releases, in its order: a frame
    older than the newest decoded before it by more than REORDER_HORIZON
    is dropped (so is never the newest), the rest stable-sorted by
    timestamp, which is the reader's (timestamp, arrival) order."""
    decoded = np.flatnonzero(ok)
    t = ts[decoded]
    late = np.zeros(t.size, dtype=bool)
    late[1:] = t[1:] < np.maximum.accumulate(t)[:-1] - REORDER_HORIZON
    s.dropped_late = int(np.count_nonzero(late))
    kept = decoded[~late]
    order = kept[np.argsort(ts[kept], kind="stable")]
    s.decoded = order.size
    return order


def packet_records(reader: CaptureReader) -> Iterator[PacketRecord]:
    """The records iterating `reader` gives, equal field for field and in
    its order, built from the decoded columns as they are asked for;
    `reader.summary` counts the pass as iterating it does. A record cut
    short raises TruncatedHeader before any record is given (the reader
    gives the records before it first)."""
    ts, fields, ok, address_id = _decode(reader)
    order = _resequence(ts, ok, reader.summary)
    t = ts[order]
    src, dst = address_id.text(fields[_SRC:_DST + 1, order])
    # every field but the addresses, spelled above, fits in 32 bits; only
    # these columns are held while the records are asked for
    f = fields[:, order].astype(np.int32)
    del ts, fields, ok, order
    for lo in range(0, t.size, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        c = f[:, b].tolist()
        tcp = f[_PROTO, b] == PROTO_TCP
        yield from map(
            PacketRecord, t[b].tolist(), src[b].tolist(), dst[b].tolist(),
            c[_SPORT], c[_DPORT], c[_PROTO], c[_LINK], c[_IP_HLEN],
            c[_L4_HLEN], c[_TOTAL], c[_TTL], c[_PAYLOAD],
            np.where(tcp, f[_FLAGS, b], None).tolist(),
            np.where(tcp, f[_WINDOW, b], None).tolist())


def packet_matrix(capture_path: str, label_rows=None) -> FeatureMatrix:
    """The packet-mode FeatureMatrix of a capture, with labels joined
    from `label_rows` (as `read_label_file` gives them) when given.
    Raises TruncatedHeader at a record cut short."""
    reader = CaptureReader(capture_path)
    ts, fields, ok, address_id = _decode(reader)
    order = _resequence(ts, ok, reader.summary)
    n = order.size
    f, t = fields[:, order], ts[order]

    # one stable sort by 5-tuple: each key's packets in time order, then
    # its label rows in file order
    k1, k2 = _keys(f)
    if label_rows is not None:
        l1, l2 = _label_keys(label_rows, address_id)
        k1, k2 = np.concatenate((k1, l1)), np.concatenate((k2, l2))
    perm = np.lexsort((k2, k1))
    a, b = k1[perm], k2[perm]
    m = perm.size
    first = np.ones(m, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    group_start = np.maximum.accumulate(np.where(first, np.arange(m), 0))
    j = np.flatnonzero(perm < n)  # the packets' places in perm
    iat_prev = np.zeros(n)
    later = j[~first[j]]  # a packet of its key before it sits at j - 1
    iat_prev[perm[later]] = t[perm[later]] - t[perm[later - 1]]
    pkt_index = np.empty(n, dtype=np.int64)
    pkt_index[perm[j]] = j - group_start[j] + 1

    values = packet_columns(
        f[_TOTAL], pkt_index, f[_PAYLOAD], f[_IP_HLEN], f[_L4_HLEN],
        iat_prev, f[_PROTO], f[_FLAGS], f[_WINDOW], f[_TTL])
    labels, unmatched = None, 0
    if label_rows is not None:
        labels, unmatched = _join_labels(label_rows, perm, n, j, first, t)
    return FeatureMatrix(values=values, names=PACKET_MANIFEST.names,
                         mode=MODE_PACKET, labels=labels,
                         unmatched_labels=unmatched,
                         accounting={"capture": reader.summary})


def _join_labels(rows, perm: np.ndarray, n: int, j: np.ndarray,
                 first: np.ndarray, t: np.ndarray) -> tuple[list[str], int]:
    """Each packet's label: that of the first label row of its key, in
    file order, whose window holds its timestamp, else Normal (counted
    as unmatched). `perm` sorts packets (indices below n) and label rows
    by key, each key's packets first; `j` are the packets' places in it."""
    m = perm.size
    group = np.cumsum(first) - 1
    ends = np.append(np.flatnonzero(first)[1:], m)  # each key's end
    is_row = np.flatnonzero(perm >= n)
    count = np.bincount(group[is_row], minlength=ends.size)
    row_start = ends - count  # the key's first label row in perm
    window_start = np.array([r.window_start for r in rows], dtype=np.float64)
    window_end = np.array([r.window_end for r in rows], dtype=np.float64)
    g = group[j]
    match = np.full(n, -1, dtype=np.intp)
    pending = np.flatnonzero(count[g] > 0)
    rank = 0
    while pending.size:  # the key's rank-th label row, for each packet
        row = perm[row_start[g[pending]] + rank] - n
        pkt = perm[j[pending]]
        hit = (window_start[row] <= t[pkt]) & (t[pkt] <= window_end[row])
        match[pkt[hit]] = row[hit]
        rank += 1
        pending = pending[~hit & (count[g[pending]] > rank)]
    names = np.array([r.label for r in rows] + [LABEL_NORMAL], dtype=object)
    unmatched = int(np.count_nonzero(match < 0))
    match[match < 0] = len(rows)
    return names[match].tolist(), unmatched
