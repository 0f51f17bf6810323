"""The batch jobs, column by column.

`packet_matrix` gives the matrix, labels and capture accounting that
reading the capture record by record gives (the reader's records,
`packet_features` with one PacketContext,
`LabelIndex.label_for_packet`), bit for bit. `flow_matrix` gives what
metering those records with one FlowMeter gives: each emitted flow's
`flow_row` and `LabelIndex.label_for_flow`, in emission order, the
meter's counters and the flows for the dump. Both read the headers
with numpy:

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
  gap and index in its flow;
- in the flow modes, one stable sort on the flow key gives each key's
  packets in time order; the meter's cuts split them into flows (those
  that depend on where a flow began in rounds), each flow's accumulators
  are reduced as columns and its row built by `features.flow_columns`;
- both join labels in `_join_labels`, one rule for both: a packet is the
  instance [ts, ts], a flow [window_start, last_ts], and each takes the
  row of its 5-tuple (a bidirectional flow's, then of the reversed one)
  that overlaps it most, the first in the file on a tie. The rows come
  as `evaluation.read_label_columns` gives them, from a file it found
  valid: each distinct address gets its id once, and the rows' keys,
  windows and label codes are gathered from the columns.

Like PacketContext, the packet sort reads addresses and ports, and only
for equality; timestamps order the packets and give the gaps. Like
FlowMeter, the flow job also orders addresses as text.
"""

from __future__ import annotations

from socket import inet_aton, inet_ntoa
from types import SimpleNamespace

import numpy as np

from .evaluation import LABEL_NORMAL, LABEL_VOCABULARY, LabelColumns
from .features import (DEFAULT_MANIFESTS, FeatureMatrix, MODE_PACKET,
                       MODE_TO_DIRECTION, PACKET_MANIFEST, flow_columns,
                       packet_columns)
from .flows import (ACTIVE_GAP, BIDIRECTIONAL, LARGE_PAYLOAD, SMALL_PAYLOAD,
                    TERM_CAPTURE_END, TERM_FIN, TERM_IDLE, TERM_RST,
                    TERM_WINDOW, MeterConfig, MeterStats)
from .pcap import (
    ETHERTYPE_IPV4,
    LINKTYPE_ETHERNET,
    PROTO_ICMP,
    PROTO_ICMPV6,
    PROTO_TCP,
    PROTO_UDP,
    REORDER_HORIZON,
    TCP_FIN,
    TCP_RST,
    CaptureReader,
    CaptureSummary,
)
from .settings import check_fields

# the int64 columns of decoded packets, in this order
_SRC, _DST, _SPORT, _DPORT, _PROTO, _TOTAL, _PAYLOAD, _IP_HLEN, _L4_HLEN, \
    _FLAGS, _WINDOW, _TTL, _LINK = range(13)
_N_FIELDS = _LINK + 1
_V6_BASE = 1 << 32  # ids of addresses that are not dotted quads start here
_FEW = 8  # runs left when `_left_sums` sums each run's tail on its own


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


def _keys(src, dst, sport, dport, proto) -> tuple[np.ndarray, np.ndarray]:
    """Two int64s equal exactly when the 5-tuples are: (source, source
    port, protocol) and (destination, destination port)."""
    return src << 24 | sport << 8 | proto, dst << 16 | dport


def _group(k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, first): a stable sort by (k1, k2), and whether each place
    in it starts a new key."""
    perm = np.lexsort((k2, k1))
    a, b = k1[perm], k2[perm]
    first = np.ones(perm.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return perm, first


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


def packet_matrix(capture_path: str,
                  labels: LabelColumns | None = None) -> FeatureMatrix:
    """The packet-mode FeatureMatrix of a capture, with labels joined
    from `labels` (as `read_label_columns` gives them) when given.
    Raises TruncatedHeader at a record cut short."""
    reader = CaptureReader(capture_path)
    ts, fields, ok, address_id = _decode(reader)
    order = _resequence(ts, ok, reader.summary)
    n = order.size
    f, t = fields[:, order], ts[order]

    # one stable sort by 5-tuple: each key's packets in time order
    perm, first = _group(*_keys(*f[_SRC:_PROTO + 1]))
    place = np.arange(n)
    group_start = np.maximum.accumulate(np.where(first, place, 0))
    iat_prev = np.zeros(n)
    later = np.flatnonzero(~first)  # the packet before it is of its key
    iat_prev[perm[later]] = t[perm[later]] - t[perm[later - 1]]
    pkt_index = np.empty(n, dtype=np.int64)
    pkt_index[perm] = place - group_start + 1

    values = packet_columns(
        f[_TOTAL], pkt_index, f[_PAYLOAD], f[_IP_HLEN], f[_L4_HLEN],
        iat_prev, f[_PROTO], f[_FLAGS], f[_WINDOW], f[_TTL])
    joined, unmatched = None, 0
    if labels is not None:  # a packet is the instance [ts, ts]
        joined, unmatched = _join_labels(labels, address_id,
                                         f[_SRC:_PROTO + 1], t, t, False)
    return FeatureMatrix(values=values, names=PACKET_MANIFEST.names,
                         mode=MODE_PACKET, labels=joined,
                         unmatched_labels=unmatched,
                         accounting={"capture": reader.summary})


# --- flow modes -------------------------------------------------------------

# how each flow ends, in the order its cause is tested
_BY_RST, _BY_FIN, _BY_SWEEP, _AT_END, _BY_WINDOW, _BY_GAP = range(6)
_TERMINATIONS = np.array([TERM_RST, TERM_FIN, TERM_IDLE, TERM_CAPTURE_END,
                          TERM_WINDOW, TERM_IDLE], dtype=object)


def flow_matrix(capture_path: str, mode: str, tw: float | None = None,
                idle_timeout: float = MeterConfig.idle_timeout,
                labels: LabelColumns | None = None
                ) -> tuple[FeatureMatrix, SimpleNamespace]:
    """The flow-mode FeatureMatrix of a capture and its flows as columns
    (what `flows.write_flow_csv` dumps), with labels joined from
    `labels` (as `read_label_columns` gives them) when given: what
    metering the capture reader's records with one FlowMeter gives,
    passing each flow it emits, in order, to `flow_row` and
    `LabelIndex.label_for_flow`. Raises as FlowMeter's
    config check does, or TruncatedHeader at a record cut short."""
    direction = MODE_TO_DIRECTION[mode]
    cfg = MeterConfig(direction_mode=direction, tw_seconds=tw,
                      idle_timeout=idle_timeout)
    reader = CaptureReader(capture_path)
    check_fields(cfg)
    ts, fields, ok, address_id = _decode(reader)
    order = _resequence(ts, ok, reader.summary)
    t, f = ts[order], fields[:, order]
    del ts, fields, ok, order
    n = t.size

    # each packet's key: a bidirectional one puts the endpoint whose
    # (address text, port) is lower first; `low` says whether it sent
    ids, at = np.unique(f[_SRC:_DST + 1], return_inverse=True)
    text = address_id.text(ids)
    rank = np.empty(ids.size, dtype=np.int64)
    rank[np.argsort(text)] = np.arange(ids.size)  # distinct texts
    rank = rank[at.reshape(2, n)]
    sport, dport = f[_SPORT], f[_DPORT]
    if direction == BIDIRECTIONAL:
        low = (rank[0] < rank[1]) | ((rank[0] == rank[1]) & (sport <= dport))
    else:
        low = np.ones(n, dtype=bool)
    # (address ids, address text ranks, ports) of the key's two endpoints
    endpoints = (
        np.where(low, f[_SRC], f[_DST]), np.where(low, f[_DST], f[_SRC]),
        np.where(low, rank[0], rank[1]), np.where(low, rank[1], rank[0]),
        np.where(low, sport, dport), np.where(low, dport, sport))
    a, b, _, _, a_port, b_port = endpoints
    k1, k2 = _keys(a, b, a_port, b_port, f[_PROTO])

    # packets by key, each key's in time order ("positions")
    perm, first = _group(k1, k2)
    group = np.cumsum(first) - 1
    group_end = np.append(np.flatnonzero(first)[1:], n)[group]
    tp = t[perm]
    gap = np.zeros(n)
    gap[1:] = tp[1:] - tp[:-1]
    nxt = np.append(perm[1:], n)  # the key's next packet, as stream index
    nxt[group_end - 1] = n
    swept = _sweeps(t, perm, nxt, tp, idle_timeout)
    flags = f[_FLAGS, perm]  # 0 unless TCP
    rst = (flags & TCP_RST) != 0
    lowp = low[perm]
    fin_from = _fin_completion(flags, lowp, direction)

    # cuts that do not depend on where the flow began: a new key, an idle
    # gap, a sweep, and the packet after an RST
    hard = first.copy()
    hard[1:] |= (gap[1:] > idle_timeout) | (swept[:-1] >= 0) | rst[:-1]
    start, end = _cut(hard, group, perm, t, tp, tw, fin_from)

    # how and when each flow ends: emitted by its key's next packet (a
    # window or idle cut), by its own last packet (RST or FIN), at a sweep
    # or at capture end; a sweep and `finish` emit in `_age` order
    last = end - 1
    at_end = end == group_end[start]
    if tw is None:
        window = np.zeros(start.size, dtype=bool)
    else:  # the key's next packet is at or past the window's end
        window = ~at_end & (tp[np.minimum(end, n - 1)] >= tp[start] + tw)
    how = np.select(
        [rst[last], fin_from[start] == last, swept[last] >= 0, at_end,
         window], [_BY_RST, _BY_FIN, _BY_SWEEP, _AT_END, _BY_WINDOW], _BY_GAP)
    emit_at = np.select([how <= _BY_FIN, how == _BY_SWEEP, how == _AT_END],
                        [perm[last], swept[last], n], nxt[last])
    phase = np.select([how <= _BY_FIN, how >= _BY_WINDOW], [1, 0], 2)
    window_start = tp[start]
    key = [c[perm[start]] for c in endpoints] + [f[_PROTO, perm[start]]]
    emitted = np.lexsort((key[6], key[5], key[4], key[3], key[2],
                          window_start, phase, emit_at))

    # from here on the flows are in emission order, and so are their
    # packets, each flow's in time order
    by = np.argsort(np.repeat(np.argsort(emitted), end - start),
                    kind="stable")
    how, window_start = how[emitted], window_start[emitted]
    last_ts = tp[last[emitted]]
    key = [c[emitted] for c in key]
    count = (end - start)[emitted]
    start = np.cumsum(count) - count
    flows = _accumulate(f[:, perm[by]], tp[by], gap[by], lowp[by], start,
                        start + count, direction)
    flows.mode = direction
    flows.protocol = key[6]
    flows.src_ip, flows.dst_ip = text[np.searchsorted(ids, key[:2])]
    flows.src_port, flows.dst_port = key[4], key[5]
    flows.window_start = window_start
    flows.window_end = last_ts if tw is None else np.where(
        how == _BY_WINDOW, window_start + tw, last_ts)
    flows.termination = _TERMINATIONS[how]
    joined, unmatched = None, 0
    if labels is not None:
        joined, unmatched = _join_labels(
            labels, address_id, key[:2] + key[4:], window_start, last_ts,
            direction == BIDIRECTIONAL)
    values = flow_columns(flows, mode)
    stats = MeterStats(packets_metered=n, flows_emitted=len(start))
    return FeatureMatrix(values=values, names=DEFAULT_MANIFESTS[mode].names,
                         mode=mode, labels=joined, unmatched_labels=unmatched,
                         accounting={"capture": reader.summary,
                                     "meter": stats}), flows


def _sweeps(t: np.ndarray, perm: np.ndarray, nxt: np.ndarray,
            tp: np.ndarray, idle_timeout: float) -> np.ndarray:
    """For each position, the stream index of the sweep that closes the
    flow its packet leaves live, or -1. The meter sweeps at the first
    packet at or after the last sweep's (at first the first packet's)
    time plus `idle_timeout`, and closes each flow last seen before that
    packet's time minus `idle_timeout` that its key's next packet has not
    reached."""
    at = []
    due, i = t[0] + idle_timeout if t.size else np.inf, 1
    while (i := max(int(np.searchsorted(t, due)), i)) < t.size:
        at.append(i)
        due, i = t[i] + idle_timeout, i + 1
    at = np.array(at, dtype=np.int64)
    horizon = t[at] - idle_timeout
    k = np.maximum(np.searchsorted(at, perm, "right"),
                   np.searchsorted(horizon, tp, "right"))
    sweep = np.append(at, t.size)[k]
    return np.where(sweep < nxt, sweep, -1)


def _fin_completion(flags: np.ndarray, lowp: np.ndarray,
                    direction: str) -> np.ndarray:
    """For each position, where a flow starting there has seen a FIN from
    each side (a unidirectional one: any FIN); n if nowhere. The place
    may lie past the flow's key."""
    n = flags.size
    fin = (flags & TCP_FIN) != 0
    sides = (lowp, ~lowp) if direction == BIDIRECTIONAL else (lowp,)
    upto = np.arange(n)
    nexts = [np.minimum.accumulate(np.where(fin & side, upto, n)[::-1])[::-1]
             for side in sides]
    return np.maximum.reduce(nexts)


def _cut(hard: np.ndarray, group: np.ndarray, perm: np.ndarray,
         t: np.ndarray, tp: np.ndarray, tw: float | None,
         fin_from: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) positions of every flow, in position order. Between
    hard cuts, a flow ends before the first packet at or past its window
    (`tw` after its first packet) or after its FIN completion, and the
    next starts there: solved for every open flow in rounds."""
    n = hard.size
    s = np.flatnonzero(hard)
    stop = np.append(s[1:], n)  # the next hard cut
    # a key's packets by stream index, one key after another
    place = group * (n + 1) + perm
    starts, ends = [], []
    while True:
        e = np.minimum(stop, fin_from[s] + 1)
        if tw is not None:
            # the first packet at or past the window, then that of the key
            edge = np.searchsorted(t, tp[s] + tw)
            e = np.minimum(e, np.maximum(
                np.searchsorted(place, group[s] * (n + 1) + edge), s + 1))
        starts.append(s)
        ends.append(e)
        more = e < stop
        if not more.any():
            break
        s, stop = e[more], stop[more]
    start, end = np.concatenate(starts), np.concatenate(ends)
    by = np.argsort(start)
    return start[by], end[by]


def _left_sums(values: np.ndarray, start: np.ndarray,
               count: np.ndarray) -> np.ndarray:
    """The sums of each run of `count` columns of `values` from `start`,
    each row added left to right from 0.0, as a Python loop adds: a
    (rows, runs) array. The runs advance one position at a time, the
    longest first, so no (runs x longest) array is built; once _FEW runs
    are left, each finishes in one sequential `np.add.accumulate`."""
    by = np.argsort(-count, kind="stable")
    head, count = start[by], count[by]
    live = np.searchsorted(-count, -np.arange(count.max(initial=0)))
    sums = np.zeros((values.shape[0], count.size))
    for j, m in enumerate(live.tolist()):
        if m <= _FEW:
            for i in range(m):
                sums[:, i] = np.add.accumulate(np.column_stack(
                    (sums[:, i], values[:, head[i] + j:head[i] + count[i]])),
                    axis=1)[:, -1]
            break
        sums[:, :m] += values[:, head[:m] + j]
    out = np.empty_like(sums)
    out[:, by] = sums
    return out


def _side(c: np.ndarray, tp: np.ndarray, first: np.ndarray, at: np.ndarray,
          count: np.ndarray) -> SimpleNamespace:
    """One side's DirStats of every flow as columns, from its packets'
    fields `c` and times `tp`, each side's packets a run: `first` marks
    a run's first packet, `at` are the starts of the runs with packets
    and `count` is every run's packet count (0 for a side without)."""
    m = count.size
    full = count > 0

    def per_run(ufunc, values):
        out = np.zeros(values.shape[:-1] + (m,), dtype=values.dtype)
        out[..., full] = _per_run(ufunc, values, at)
        return out

    total, payload, ttl = c[_TOTAL], c[_PAYLOAD], c[_TTL]
    gap = np.where(first, 0.0, np.diff(tp, prepend=0.0))
    gaps = count > 1
    s = SimpleNamespace(
        pkt_count=count,
        byte_count=per_run(np.add, total),
        payload_byte_count=per_run(np.add, payload),
        pkt_len_min=per_run(np.minimum, total),
        pkt_len_max=per_run(np.maximum, total),
        pkt_len_sumsq=per_run(np.add, total * total),
        payload_len_min=per_run(np.minimum, payload),
        payload_len_max=per_run(np.maximum, payload),
        payload_len_sumsq=per_run(np.add, payload * payload),
        ip_hdr_max=per_run(np.maximum, c[_IP_HLEN]),
        ip_hdr_sum=per_run(np.add, c[_IP_HLEN]),
        l4_hdr_max=per_run(np.maximum, c[_L4_HLEN]),
        l4_hdr_sum=per_run(np.add, c[_L4_HLEN]),
        iat_min=np.where(gaps, per_run(np.minimum, np.where(
            first, np.inf, gap)), 0.0),
        iat_max=np.where(gaps, per_run(np.maximum, gap), 0.0),
        ttl_min=per_run(np.minimum, ttl),
        ttl_max=per_run(np.maximum, ttl),
        ttl_sum=per_run(np.add, ttl),
        init_window=np.zeros(m, dtype=np.int64),
        small_pkt_count=per_run(np.add, (payload < SMALL_PAYLOAD)
                                .astype(np.int64)),
        large_pkt_count=per_run(np.add, (payload >= LARGE_PAYLOAD)
                                .astype(np.int64)),
        flag_counts=per_run(np.add, c[_FLAGS] >> np.arange(8)[:, None] & 1),
    )
    s.init_window[full] = c[_WINDOW, at]
    s.iat_sum, s.iat_sumsq = _left_sums(np.stack((gap, gap * gap)),
                                        np.cumsum(count) - count, count)
    return s


def _accumulate(c: np.ndarray, tp: np.ndarray, gap: np.ndarray,
                lowp: np.ndarray, start: np.ndarray, end: np.ndarray,
                direction: str) -> SimpleNamespace:
    """Each flow's FlowRecord accumulators as columns, and its sides'
    DirStats as `fwd` and `bwd` (None for unidirectional flows), from
    the fields `c` and times `tp` of the packets in position order."""
    count = end - start
    first = np.zeros(tp.size, dtype=bool)
    first[start] = True
    gap = np.where(first, 0.0, gap)
    # activity runs end before a gap above ACTIVE_GAP and at the flow's end
    idle = ~first & (gap > ACTIVE_GAP)
    began = np.maximum.accumulate(np.where(first | idle,
                                           np.arange(tp.size), 0))
    runs = np.where(np.append(first[1:] | idle[1:], True),
                    tp - tp[began], 0.0)
    rec = SimpleNamespace(
        duration=tp[end - 1] - tp[start],
        active_max=_per_run(np.maximum, runs, start),
        idle_count=_per_run(np.add, idle.astype(np.int64), start))
    if direction == BIDIRECTIONAL:
        # each flow's packets forward side first: a side is a run
        flow = np.repeat(np.arange(start.size), count)
        unit = 2 * flow + (lowp != lowp[start][flow])
        by = np.argsort(unit, kind="stable")
        per_unit = np.bincount(unit, minlength=2 * start.size)
        at = (np.cumsum(per_unit) - per_unit)[per_unit > 0]
        side_first = np.zeros(tp.size, dtype=bool)
        side_first[at] = True
        both = _side(c[:, by], tp[by], side_first, at, per_unit)
        rec.fwd = _take(both, slice(0, None, 2))
        rec.bwd = _take(both, slice(1, None, 2))
        rec.iat_min = np.where(count > 1, _per_run(
            np.minimum, np.where(first, np.inf, gap), start), 0.0)
        rec.iat_max = _per_run(np.maximum, gap, start)
        rec.iat_sum, rec.iat_sumsq, rec.active_total, rec.idle_total = \
            _left_sums(np.stack((gap, gap * gap, runs, np.where(
                idle, gap, 0.0))), start, count)
    else:
        # one side: its gap statistics are the flow's
        rec.fwd, rec.bwd = _side(c, tp, first, start, count), None
        for name in ("iat_min", "iat_max", "iat_sum", "iat_sumsq"):
            setattr(rec, name, getattr(rec.fwd, name))
        rec.active_total, rec.idle_total = _left_sums(
            np.stack((runs, np.where(idle, gap, 0.0))), start, count)
    return rec


def _per_run(ufunc, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """`ufunc` reduced over each run of `values` (along the last axis)
    from `at` to the next."""
    return ufunc.reduceat(values, at, axis=-1) if at.size \
        else values[..., :0]


def _take(side: SimpleNamespace, which) -> SimpleNamespace:
    """A side's columns at `which`, along each array's last axis."""
    return SimpleNamespace(**{name: value[..., which]
                              for name, value in vars(side).items()})


def _join_labels(labels: LabelColumns, address_id, tuples, lo: np.ndarray,
                 hi: np.ndarray, both_ways: bool) -> tuple[list[str], int]:
    """Each instance's label, as `LabelIndex` gives it: that of the label
    row of its 5-tuple (`tuples`: source and destination address ids,
    ports, protocol), and with `both_ways` then of the reversed 5-tuple,
    in file order, whose window overlaps the instance's [lo, hi] most,
    the first on a tie; else Normal (counted as unmatched). A packet is
    the instance [ts, ts]: a window holding ts overlaps it by exactly 0,
    one not holding it (inverted, or with an infinite bound, included)
    by less, so the first window holding ts wins, as in
    `label_for_packet`."""
    src, dst, sport, dport, proto = tuples
    lookups = [_keys(src, dst, sport, dport, proto)]
    if both_ways:
        lookups.append(_keys(dst, src, dport, sport, proto))
    ids = np.fromiter(map(address_id, labels.addresses), np.int64,
                      len(labels.addresses))
    r1, r2 = _keys(ids[labels.src], ids[labels.dst], labels.src_port,
                   labels.dst_port, labels.protocol)
    k1 = np.concatenate([r1] + [k for k, _ in lookups])
    k2 = np.concatenate([r2] + [k for _, k in lookups])
    perm, new = _group(k1, k2)
    same = np.empty(perm.size, dtype=np.int64)  # one id per distinct key
    same[perm] = np.cumsum(new)
    m, n = labels.label.size, lo.size
    by_key = np.argsort(same[:m], kind="stable")  # file order within a key
    rows_of = np.bincount(same[:m], minlength=perm.size + 1)  # of each id
    row_at = np.cumsum(rows_of) - rows_of  # a key id's first row in by_key
    row_start, row_end = labels.window_start, labels.window_end
    best = np.full(n, -1, dtype=np.intp)
    best_overlap = np.full(n, -np.inf)
    for j in range(len(lookups)):
        wanted = same[m + j * n:m + (j + 1) * n]
        first, count = row_at[wanted], rows_of[wanted]
        pending = np.flatnonzero(count)
        rank = 0
        while pending.size:  # each instance's rank-th row of the key
            row = by_key[first[pending] + rank]
            overlap = (np.minimum(row_end[row], hi[pending])
                       - np.maximum(row_start[row], lo[pending]))
            better = (overlap >= 0) & (overlap > best_overlap[pending])
            best[pending[better]] = row[better]
            best_overlap[pending[better]] = overlap[better]
            rank += 1
            pending = pending[count[pending] > rank]
    code = np.append(labels.label, LABEL_VOCABULARY.index(LABEL_NORMAL))
    return (np.array(LABEL_VOCABULARY, dtype=object)[code[best]].tolist(),
            int(np.count_nonzero(best < 0)))
