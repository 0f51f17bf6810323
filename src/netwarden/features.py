"""Named numeric features over flows and packets, plus z-score normalization.

Features come in four categories (packet-based, byte-based, time-based,
protocol-based). Each traffic mode has one row builder that reads a
finished flow's accumulators, or one packet's header lengths, TTL,
protocol, flags and window plus its per-flow gap and index, and returns
the row in manifest order. No builder reads an IP address, a port
number, an absolute timestamp or payload content; `audit_feature_access`
records what each builder reads, so privacy is assertable. The batch
jobs build the same rows column-wise (`packet_columns`, `flow_columns`),
from the same fields only.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import add
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .errors import EmptyTraining, ManifestMismatch, NonFiniteFeature
from .flows import BIDIRECTIONAL, DirStats, FlowRecord, UNIDIRECTIONAL
from .pcap import (PROTO_ICMP, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP,
                   TCP_FLAG_NAMES as FLAG_NAMES, PacketRecord)

MODE_UNI_FLOW = "uni_flow"
MODE_BI_FLOW = "bi_flow"
MODE_PACKET = "packet"
MODES = (MODE_UNI_FLOW, MODE_BI_FLOW, MODE_PACKET)

CAT_PACKET = "packet_based"
CAT_BYTE = "byte_based"
CAT_TIME = "time_based"
CAT_PROTO = "protocol_based"
CATEGORIES = (CAT_PACKET, CAT_BYTE, CAT_TIME, CAT_PROTO)

RATE_FLOOR = 1e-3  # duration floor for rate features, seconds

MODE_TO_DIRECTION = {MODE_UNI_FLOW: UNIDIRECTIONAL, MODE_BI_FLOW: BIDIRECTIONAL}

_ICMP = (PROTO_ICMP, PROTO_ICMPV6)
_NAMED_PROTOS = (PROTO_TCP, PROTO_UDP, PROTO_ICMP, PROTO_ICMPV6)


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    category: str


@dataclass(frozen=True)
class Manifest:
    mode: str
    entries: tuple[FeatureSpec, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @property
    def hash(self) -> str:
        return manifest_hash(self.mode, self.names)

    def __len__(self) -> int:
        return len(self.entries)


def manifest_hash(mode: str, names: Iterable[str]) -> str:
    text = mode + ";" + ",".join(names)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _flow_entries(bi: bool) -> tuple[FeatureSpec, ...]:
    """Column names and categories, in the order `_flow_row` (and, for
    bi_flow, `_side_row` twice and the three ratios) emits them."""
    E = FeatureSpec
    entries = [
        E("pkt_count", CAT_PACKET), E("pkt_rate", CAT_PACKET),
        E("pkt_len_min", CAT_PACKET), E("pkt_len_max", CAT_PACKET),
        E("pkt_len_mean", CAT_PACKET), E("pkt_len_std", CAT_PACKET),
        E("pkt_len_range", CAT_PACKET), E("small_pkt_ratio", CAT_PACKET),
        E("large_pkt_ratio", CAT_PACKET),
        E("byte_count", CAT_BYTE), E("byte_rate", CAT_BYTE),
        E("header_bytes", CAT_BYTE), E("payload_bytes", CAT_BYTE),
        E("payload_ratio", CAT_BYTE), E("payload_len_min", CAT_BYTE),
        E("payload_len_max", CAT_BYTE), E("payload_len_mean", CAT_BYTE),
        E("payload_len_std", CAT_BYTE), E("header_len_mean", CAT_BYTE),
        E("duration", CAT_TIME), E("iat_min", CAT_TIME),
        E("iat_max", CAT_TIME), E("iat_mean", CAT_TIME),
        E("iat_std", CAT_TIME), E("iat_range", CAT_TIME),
        E("active_total", CAT_TIME), E("active_max", CAT_TIME),
        E("active_mean", CAT_TIME), E("active_count", CAT_TIME),
        E("idle_total", CAT_TIME), E("idle_max", CAT_TIME),
        E("idle_mean", CAT_TIME), E("idle_count", CAT_TIME),
        E("idle_ratio", CAT_TIME),
        E("proto_tcp", CAT_PROTO), E("proto_udp", CAT_PROTO),
        E("proto_icmp", CAT_PROTO), E("proto_other", CAT_PROTO),
    ]
    entries += [E("flag_%s_count" % f, CAT_PROTO) for f in FLAG_NAMES]
    entries += [E("flag_%s_rate" % f, CAT_PROTO) for f in FLAG_NAMES]
    entries += [
        E("flag_total", CAT_PROTO), E("ttl_min", CAT_PROTO),
        E("ttl_max", CAT_PROTO), E("ttl_mean", CAT_PROTO),
        E("ttl_range", CAT_PROTO), E("init_window", CAT_PROTO),
        E("ip_hdr_len_mean", CAT_PROTO), E("ip_hdr_len_max", CAT_PROTO),
        E("l4_hdr_len_mean", CAT_PROTO), E("l4_hdr_len_max", CAT_PROTO),
    ]
    if bi:
        side = (("pkt_count", CAT_PACKET), ("pkt_len_mean", CAT_PACKET),
                ("pkt_len_std", CAT_PACKET), ("pkt_len_max", CAT_PACKET),
                ("byte_count", CAT_BYTE), ("payload_bytes", CAT_BYTE),
                ("payload_len_mean", CAT_BYTE), ("payload_len_std", CAT_BYTE),
                ("iat_mean", CAT_TIME), ("iat_std", CAT_TIME),
                ("iat_max", CAT_TIME), ("ttl_mean", CAT_PROTO),
                ("init_window", CAT_PROTO))
        for d in ("fwd", "bwd"):
            entries += [E("%s_%s" % (d, name), cat) for name, cat in side]
            entries += [E("%s_flag_%s_count" % (d, f), CAT_PROTO)
                        for f in FLAG_NAMES]
        entries += [E("fwd_bwd_pkt_ratio", CAT_PACKET),
                    E("fwd_bwd_byte_ratio", CAT_BYTE),
                    E("fwd_bwd_payload_ratio", CAT_BYTE)]
    return tuple(entries)


def _packet_entries() -> tuple[FeatureSpec, ...]:
    """Column names and categories, in the order `_packet_row` emits them."""
    E = FeatureSpec
    entries = [
        E("total_len", CAT_PACKET), E("pkt_index", CAT_PACKET),
        E("payload_len", CAT_BYTE), E("ip_header_len", CAT_BYTE),
        E("l4_header_len", CAT_BYTE), E("iat_prev", CAT_TIME),
        E("proto_tcp", CAT_PROTO), E("proto_udp", CAT_PROTO),
        E("proto_icmp", CAT_PROTO), E("proto_other", CAT_PROTO),
    ]
    entries += [E("flag_%s" % f, CAT_PROTO) for f in FLAG_NAMES]
    entries += [E("tcp_window", CAT_PROTO), E("ttl", CAT_PROTO)]
    return tuple(entries)


UNI_FLOW_MANIFEST = Manifest(MODE_UNI_FLOW, _flow_entries(bi=False))
BI_FLOW_MANIFEST = Manifest(MODE_BI_FLOW, _flow_entries(bi=True))
PACKET_MANIFEST = Manifest(MODE_PACKET, _packet_entries())

DEFAULT_MANIFESTS = {
    MODE_UNI_FLOW: UNI_FLOW_MANIFEST,
    MODE_BI_FLOW: BI_FLOW_MANIFEST,
    MODE_PACKET: PACKET_MANIFEST,
}

# Row builders. Each returns its mode's full row as a list of Python
# numbers (ints and bools included); np.array(..., dtype=np.float64) turns
# them into the same doubles float() would.


def _pop_std(total: float, sumsq: float, n: int) -> float:
    if n == 0:
        return 0.0
    var = sumsq / n - (total / n) ** 2
    return math.sqrt(var) if var > 0 else 0.0


_NO_PACKETS = DirStats()  # the absent backward side of a uni flow; read only


def _flow_row(rec: FlowRecord, a: DirStats, b: DirStats) -> list:
    """The columns both flow modes share, over directions `a` and `b`
    together. `a` is the forward side and never empty: it holds the
    flow's first packet."""
    # max() and min() written out: a builtin call per column costs more
    # than the column's arithmetic
    span = RATE_FLOOR if rec.duration < RATE_FLOOR else rec.duration
    n = a.pkt_count + b.pkt_count
    if b.pkt_count:
        x, y = a.pkt_len_min, b.pkt_len_min
        len_min = y if y < x else x
        x, y = a.pkt_len_max, b.pkt_len_max
        len_max = y if y > x else x
        x, y = a.payload_len_min, b.payload_len_min
        pay_min = y if y < x else x
        x, y = a.payload_len_max, b.payload_len_max
        pay_max = y if y > x else x
        x, y = a.ttl_min, b.ttl_min
        ttl_min = y if y < x else x
        x, y = a.ttl_max, b.ttl_max
        ttl_max = y if y > x else x
        x, y = a.ip_hdr_max, b.ip_hdr_max
        ip_max = y if y > x else x
        x, y = a.l4_hdr_max, b.l4_hdr_max
        l4_max = y if y > x else x
    else:
        len_min, len_max = a.pkt_len_min, a.pkt_len_max
        pay_min, pay_max = a.payload_len_min, a.payload_len_max
        ttl_min, ttl_max = a.ttl_min, a.ttl_max
        ip_max, l4_max = a.ip_hdr_max, a.l4_hdr_max
    byte_count = a.byte_count + b.byte_count  # the sum of packet lengths
    payload_bytes = a.payload_byte_count + b.payload_byte_count
    header_bytes = byte_count - payload_bytes
    k = n - 1  # the gaps
    iat_min = rec.iat_min if k else 0.0
    iat_max = rec.iat_max if k else 0.0
    idles = rec.idle_count
    f0, f1, f2, f3, f4, f5, f6, f7 = map(add, a.flag_counts, b.flag_counts)
    proto = rec.protocol
    return [
        # packet-based: counts and volume shape
        n, n / span, len_min, len_max, byte_count / n,
        _pop_std(byte_count, a.pkt_len_sumsq + b.pkt_len_sumsq, n),
        len_max - len_min,
        (a.small_pkt_count + b.small_pkt_count) / n,
        (a.large_pkt_count + b.large_pkt_count) / n,
        # byte-based: load and split between headers and payload
        byte_count, byte_count / span, header_bytes, payload_bytes,
        payload_bytes / (byte_count or 1.0),
        pay_min, pay_max, payload_bytes / n,
        _pop_std(payload_bytes, a.payload_len_sumsq + b.payload_len_sumsq,
                 n),
        header_bytes / n,
        # time-based: duration, gaps, activity runs
        rec.duration, iat_min, iat_max,
        rec.iat_sum / k if k else 0.0,
        _pop_std(rec.iat_sum, rec.iat_sumsq, k),
        iat_max - iat_min,
        rec.active_total, rec.active_max,
        rec.active_total / (idles + 1), idles + 1,
        rec.idle_total, iat_max if idles else 0.0,
        rec.idle_total / idles if idles else 0.0, idles,
        rec.idle_total / span,
        # protocol-based: header semantics
        proto == PROTO_TCP, proto == PROTO_UDP, proto in _ICMP,
        proto not in _NAMED_PROTOS,
        f0, f1, f2, f3, f4, f5, f6, f7,
        f0 / span, f1 / span, f2 / span, f3 / span,
        f4 / span, f5 / span, f6 / span, f7 / span,
        f0 + f1 + f2 + f3 + f4 + f5 + f6 + f7,
        ttl_min, ttl_max, (a.ttl_sum + b.ttl_sum) / n, ttl_max - ttl_min,
        a.init_window or b.init_window or 0,
        (a.ip_hdr_sum + b.ip_hdr_sum) / n, ip_max,
        (a.l4_hdr_sum + b.l4_hdr_sum) / n, l4_max,
    ]


def _side_row(s: DirStats) -> list:
    """One direction's own columns in a bi_flow row."""
    n = s.pkt_count
    k = n - 1 if n else 0  # the gaps
    return [
        n,
        s.byte_count / n if n else 0.0,
        _pop_std(s.byte_count, s.pkt_len_sumsq, n),
        s.pkt_len_max, s.byte_count, s.payload_byte_count,
        s.payload_byte_count / n if n else 0.0,
        _pop_std(s.payload_byte_count, s.payload_len_sumsq, n),
        s.iat_sum / k if k else 0.0,
        _pop_std(s.iat_sum, s.iat_sumsq, k),
        s.iat_max if k else 0.0,
        s.ttl_sum / n if n else 0.0,
        s.init_window or 0,
        *s.flag_counts,
    ]


def _uni_flow_row(rec: FlowRecord) -> list:
    return _flow_row(rec, rec.fwd, _NO_PACKETS)


def _bi_flow_row(rec: FlowRecord) -> list:
    a, b = rec.fwd, rec.bwd
    row = _flow_row(rec, a, b)
    row += _side_row(a)
    row += _side_row(b)
    row += [a.pkt_count / (b.pkt_count or 1.0),
            a.byte_count / (b.byte_count or 1.0),
            a.payload_byte_count / (b.payload_byte_count or 1.0)]
    return row


# Column builders: the rows the flow builders above give, for columns of
# flows at once (`columnar.flow_matrix`). `rec` holds one array per
# FlowRecord accumulator and `rec.fwd`, `rec.bwd` one per DirStats slot,
# with 0 for an absent initial window; each column is computed with its
# row builder's operations, so the values are the same doubles.


def _pop_std_columns(total, sumsq, n):
    """`_pop_std` of columns: its `** 2` is libm's pow, which
    `np.float_power` calls (x * x can differ in the last bit)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # n == 0: NaN
        var = sumsq / n - np.float_power(total / n, 2.0)
    return np.where(var > 0, np.sqrt(np.where(var > 0, var, 0.0)), 0.0)


def _or_one(x):
    """`x or 1.0` of a column."""
    return np.where(x != 0, x, 1.0)


def _per(x, n):
    """`x / n if n else 0.0` of columns."""
    return np.where(n != 0, x / _or_one(n), 0.0)


def _flow_columns(rec, a, b) -> list:
    """`_flow_row`'s columns."""
    span = np.where(rec.duration < RATE_FLOOR, RATE_FLOOR, rec.duration)
    n = a.pkt_count + b.pkt_count
    both = b.pkt_count != 0

    def joint(f, name):  # of both sides where the backward one has packets
        return np.where(both, f(getattr(a, name), getattr(b, name)),
                        getattr(a, name))

    len_min = joint(np.minimum, "pkt_len_min")
    len_max = joint(np.maximum, "pkt_len_max")
    pay_min = joint(np.minimum, "payload_len_min")
    pay_max = joint(np.maximum, "payload_len_max")
    ttl_min = joint(np.minimum, "ttl_min")
    ttl_max = joint(np.maximum, "ttl_max")
    ip_max = joint(np.maximum, "ip_hdr_max")
    l4_max = joint(np.maximum, "l4_hdr_max")
    byte_count = a.byte_count + b.byte_count
    payload_bytes = a.payload_byte_count + b.payload_byte_count
    header_bytes = byte_count - payload_bytes
    k = n - 1
    iat_min = np.where(k != 0, rec.iat_min, 0.0)
    iat_max = np.where(k != 0, rec.iat_max, 0.0)
    idles = rec.idle_count
    flags = list(map(add, a.flag_counts, b.flag_counts))
    proto = rec.protocol
    return [
        n, n / span, len_min, len_max, byte_count / n,
        _pop_std_columns(byte_count, a.pkt_len_sumsq + b.pkt_len_sumsq, n),
        len_max - len_min,
        (a.small_pkt_count + b.small_pkt_count) / n,
        (a.large_pkt_count + b.large_pkt_count) / n,
        byte_count, byte_count / span, header_bytes, payload_bytes,
        payload_bytes / _or_one(byte_count),
        pay_min, pay_max, payload_bytes / n,
        _pop_std_columns(payload_bytes,
                         a.payload_len_sumsq + b.payload_len_sumsq, n),
        header_bytes / n,
        rec.duration, iat_min, iat_max, _per(rec.iat_sum, k),
        _pop_std_columns(rec.iat_sum, rec.iat_sumsq, k),
        iat_max - iat_min,
        rec.active_total, rec.active_max,
        rec.active_total / (idles + 1), idles + 1,
        rec.idle_total, np.where(idles != 0, iat_max, 0.0),
        _per(rec.idle_total, idles), idles,
        rec.idle_total / span,
        proto == PROTO_TCP, proto == PROTO_UDP, np.isin(proto, _ICMP),
        ~np.isin(proto, _NAMED_PROTOS),
        *flags, *(f / span for f in flags), sum(flags),
        ttl_min, ttl_max, (a.ttl_sum + b.ttl_sum) / n, ttl_max - ttl_min,
        np.where(a.init_window != 0, a.init_window, b.init_window),
        (a.ip_hdr_sum + b.ip_hdr_sum) / n, ip_max,
        (a.l4_hdr_sum + b.l4_hdr_sum) / n, l4_max,
    ]


def _side_columns(s) -> list:
    """`_side_row`'s columns."""
    n = s.pkt_count
    k = np.maximum(n - 1, 0)
    return [
        n, _per(s.byte_count, n),
        _pop_std_columns(s.byte_count, s.pkt_len_sumsq, n),
        s.pkt_len_max, s.byte_count, s.payload_byte_count,
        _per(s.payload_byte_count, n),
        _pop_std_columns(s.payload_byte_count, s.payload_len_sumsq, n),
        _per(s.iat_sum, k), _pop_std_columns(s.iat_sum, s.iat_sumsq, k),
        np.where(k != 0, s.iat_max, 0.0), _per(s.ttl_sum, n),
        s.init_window, *s.flag_counts,
    ]


# the absent backward side of uni flows: every column 0
_NO_PACKET_COLUMNS = SimpleNamespace(**dict.fromkeys(DirStats.__slots__, 0))
_NO_PACKET_COLUMNS.flag_counts = (0,) * 8


def _uni_flow_columns(rec) -> list:
    return _flow_columns(rec, rec.fwd, _NO_PACKET_COLUMNS)


def _bi_flow_columns(rec) -> list:
    a, b = rec.fwd, rec.bwd
    return _flow_columns(rec, a, b) + _side_columns(a) + _side_columns(b) + [
        a.pkt_count / _or_one(b.pkt_count),
        a.byte_count / _or_one(b.byte_count),
        a.payload_byte_count / _or_one(b.payload_byte_count)]


_COLUMN_BUILDERS = {MODE_UNI_FLOW: _uni_flow_columns,
                    MODE_BI_FLOW: _bi_flow_columns}


def flow_columns(rec, mode: str) -> np.ndarray:
    """The flow rows of `mode`'s default manifest for flows given as
    columns, one row each: what `flow_row` gives for each FlowRecord."""
    return np.column_stack(_COLUMN_BUILDERS[mode](rec))


def _packet_row(p: PacketRecord, iat_prev: float, pkt_index: int) -> list:
    proto = p.protocol
    f = p.tcp_flags or 0
    return [
        p.total_len, pkt_index, p.payload_len, p.ip_header_len,
        p.l4_header_len, iat_prev,
        proto == PROTO_TCP, proto == PROTO_UDP, proto in _ICMP,
        proto not in _NAMED_PROTOS,
        f & 1, f >> 1 & 1, f >> 2 & 1, f >> 3 & 1,
        f >> 4 & 1, f >> 5 & 1, f >> 6 & 1, f >> 7 & 1,
        p.tcp_window or 0, p.ttl,
    ]


def packet_columns(total_len, pkt_index, payload_len, ip_header_len,
                   l4_header_len, iat_prev, protocol, tcp_flags, tcp_window,
                   ttl) -> np.ndarray:
    """The rows `_packet_row` gives, for arrays of packets at once (flags
    and window 0 where the packet has none)."""
    out = np.empty((len(PACKET_MANIFEST), len(total_len)))
    out[0] = total_len
    out[1] = pkt_index
    out[2] = payload_len
    out[3] = ip_header_len
    out[4] = l4_header_len
    out[5] = iat_prev
    out[6] = protocol == PROTO_TCP
    out[7] = protocol == PROTO_UDP
    out[8] = np.isin(protocol, _ICMP)
    out[9] = ~np.isin(protocol, _NAMED_PROTOS)
    out[10:18] = tcp_flags >> np.arange(8)[:, None] & 1
    out[18] = tcp_window
    out[19] = ttl
    return np.ascontiguousarray(out.T)


_ROW_BUILDERS = {
    MODE_UNI_FLOW: _uni_flow_row,
    MODE_BI_FLOW: _bi_flow_row,
    MODE_PACKET: _packet_row,
}


def _require_default(manifest: Manifest) -> None:
    """Rows come only in a mode's default manifest; columns are narrowed
    by name afterwards (`select`, `train_model(selected_names=)`)."""
    default = DEFAULT_MANIFESTS.get(manifest.mode)
    if manifest is not default and manifest != default:
        raise ManifestMismatch("manifest %s is not the default %r manifest"
                               % (manifest.hash, manifest.mode))


def flow_row(rec: FlowRecord, manifest: Manifest) -> list:
    """One FlowRecord's row, as a list in `manifest` order."""
    expected = MODE_TO_DIRECTION.get(manifest.mode)
    if expected is None or rec.mode != expected:
        raise ManifestMismatch(
            "flow mode %r does not fit manifest mode %r"
            % (rec.mode, manifest.mode))
    _require_default(manifest)
    return _ROW_BUILDERS[manifest.mode](rec)


def flow_features(rec: FlowRecord, manifest: Manifest) -> np.ndarray:
    """Evaluate one FlowRecord against a flow-mode manifest."""
    return np.array(flow_row(rec, manifest), dtype=np.float64)


class PacketContext:
    """Per-flow running state for packet-mode features.

    Tracks, per unidirectional 5-tuple, the previous packet timestamp and
    the packet index within the flow. It and the 5-tuple sort of the
    columnar batch job (`columnar.packet_matrix`) are the only
    packet-mode code that reads addresses, ports or timestamps.
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state: dict = {}

    def advance(self, p: PacketRecord) -> tuple[float, int]:
        """Account `p`; return its gap to the previous packet of its
        5-tuple (0.0 for the first) and its 1-based index there."""
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
        prev = self._state.get(key)
        if prev is None:
            iat_prev, pkt_index = 0.0, 1
        else:
            iat_prev, pkt_index = p.ts - prev[0], prev[1] + 1
        self._state[key] = (p.ts, pkt_index)
        return iat_prev, pkt_index


def packet_features(p: PacketRecord, ctx: PacketContext,
                    manifest: Manifest = PACKET_MANIFEST) -> np.ndarray:
    """Evaluate one packet (with flow context) against a packet manifest."""
    if manifest.mode != MODE_PACKET:
        raise ManifestMismatch("manifest mode %r is not packet"
                               % manifest.mode)
    _require_default(manifest)
    return np.array(_packet_row(p, *ctx.advance(p)), dtype=np.float64)


class _Recorder:
    """Stands in for a FlowRecord, its DirStats or a PacketRecord during the
    privacy audit; records every attribute path a row builder reads."""

    def __init__(self, read: set, prefix: str = ""):
        self._read = read
        self._prefix = prefix

    def __getattr__(self, name):
        path = self._prefix + name
        self._read.add(path)
        if name in ("fwd", "bwd"):
            return _Recorder(self._read, path + ".")
        if name == "flag_counts":
            return [1] * 8
        return 2


def audit_feature_access(mode: str, build=None) -> set[str]:
    """Run the row builder of `mode` against recording stand-ins and
    return the attribute paths it read (`fwd.pkt_count`, `ttl`, ...).

    `build`, if given, is audited in place of the mode's builder and is
    called the same way (a flow mode's column builder is)."""
    read: set = set()
    build = build or _ROW_BUILDERS[mode]
    if mode == MODE_PACKET:
        build(_Recorder(read), 0.5, 2)
    else:
        build(_Recorder(read))
    return read


@dataclass
class FeatureMatrix:
    values: np.ndarray
    names: tuple[str, ...]
    mode: str
    labels: list[str] | None = None
    unmatched_labels: int = 0  # labelled rows no label row matched
    # what extract_matrix read and metered: "capture" (CaptureSummary) and,
    # in flow modes, "meter" (MeterStats)
    accounting: dict | None = None

    @property
    def manifest_hash(self) -> str:
        return manifest_hash(self.mode, self.names)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class NormalizationStats:
    """Per-feature z-score parameters fitted on benign training data."""

    mean: np.ndarray
    std: np.ndarray
    kept_names: tuple[str, ...]
    dropped: list  # (name, constant value) pairs
    mode: str
    input_hash: str

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "kept_names": list(self.kept_names),
            "dropped": [[n, v] for n, v in self.dropped],
            "mode": self.mode,
            "input_hash": self.input_hash,
        }

    def projection(self, raw_names: tuple[str, ...],
                   names: tuple[str, ...]) -> tuple:
        """(indices in `raw_names`, mean, std) of the kept features `names`:
        their z-scores are (values[:, cols] - mean) / std."""
        at = [self.kept_names.index(n) for n in names]
        cols = [raw_names.index(n) for n in names]
        return (np.array(cols, dtype=np.intp),
                self.mean[at], self.std[at])

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationStats":
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
            kept_names=tuple(d["kept_names"]),
            dropped=[(n, v) for n, v in d["dropped"]],
            mode=d["mode"],
            input_hash=d["input_hash"],
        )


def fit_normalizer(X: FeatureMatrix) -> NormalizationStats:
    """Fit per-feature mean/std (population) and record constant columns.

    A NaN or infinite value is rejected: its column's std is not finite,
    and the column would otherwise be dropped as constant.
    """
    if X.n == 0:
        raise EmptyTraining("cannot fit a normalizer on zero rows")
    with np.errstate(invalid="ignore"):  # inf - inf; checked below
        mean = X.values.mean(axis=0)
        std = X.values.std(axis=0)
    if not np.isfinite(std).all():  # a NaN or inf, or a std that overflowed
        bad = np.argwhere(~np.isfinite(X.values))
        if bad.size:
            row, col = (int(i) for i in bad[0])
            raise NonFiniteFeature(
                "value %r at row %d, column %d (%s) is not finite"
                % (float(X.values[row, col]), row, col, X.names[col]))
    keep = std > 0
    dropped = [(X.names[i], float(mean[i]))
               for i in range(len(X.names)) if not keep[i]]
    return NormalizationStats(
        mean=mean[keep],
        std=std[keep],
        kept_names=tuple(n for n, k in zip(X.names, keep) if k),
        dropped=dropped,
        mode=X.mode,
        input_hash=X.manifest_hash,
    )


def apply_normalizer(X: FeatureMatrix,
                     stats: NormalizationStats) -> FeatureMatrix:
    """Z-score the retained columns; constant columns are removed."""
    if X.manifest_hash != stats.input_hash:
        raise ManifestMismatch(
            "matrix manifest %s does not match normalizer input %s"
            % (X.manifest_hash, stats.input_hash))
    cols, mean, std = stats.projection(X.names, stats.kept_names)
    vals = (X.values[:, cols] - mean) / std
    return FeatureMatrix(values=vals, names=stats.kept_names, mode=X.mode,
                         labels=X.labels)


def write_matrix_csv(X: FeatureMatrix, path: str) -> None:
    """CSV interchange format: manifest comment, header row, repr floats,
    optional trailing label column."""
    with open(path, "w") as fh:
        fh.write("# netwarden manifest=%s mode=%s\n"
                 % (X.manifest_hash, X.mode))
        header = list(X.names)
        if X.labels is not None:
            header.append("label")
        fh.write(",".join(header) + "\n")
        for i in range(X.n):
            row = [repr(float(x)) for x in X.values[i]]
            if X.labels is not None:
                row.append(X.labels[i])
            fh.write(",".join(row) + "\n")


def read_matrix_csv(path: str) -> FeatureMatrix:
    """Read the CSV interchange format written by write_matrix_csv. A row
    with another number of fields than the header raises ManifestMismatch,
    and a feature that is not a number NonFiniteFeature, each naming the
    1-based line."""
    with open(path) as fh:
        first = fh.readline()
        mode = None
        declared_hash = None
        if first.startswith("#"):
            for tok in first[1:].split():
                if tok.startswith("manifest="):
                    declared_hash = tok.split("=", 1)[1]
                elif tok.startswith("mode="):
                    mode = tok.split("=", 1)[1]
            header, header_line = fh.readline(), 2
        else:
            header, header_line = first, 1
        names = [h.strip() for h in header.strip().split(",")]
        width = len(names)
        has_labels = names[-1] == "label"
        if has_labels:
            names = names[:-1]
        rows = []
        labels: list[str] | None = [] if has_labels else None
        for number, line in enumerate(fh, start=header_line + 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ManifestMismatch(
                    "matrix CSV line %d has %d fields, the header %d"
                    % (number, len(parts), width))
            if has_labels:
                labels.append(parts.pop())
            try:
                rows.append([float(x) for x in parts])
            except ValueError:
                for name, x in zip(names, parts):
                    try:
                        float(x)
                    except ValueError:
                        raise NonFiniteFeature(
                            "matrix CSV line %d, column %s: %r is not a "
                            "number" % (number, name, x)) from None
    values = np.asarray(rows, dtype=np.float64)
    if values.size == 0:
        values = values.reshape(0, len(names))
    X = FeatureMatrix(values=values, names=tuple(names),
                      mode=mode or "unknown", labels=labels)
    if declared_hash is not None and mode is not None \
            and X.manifest_hash != declared_hash:
        raise ManifestMismatch(
            "file declares manifest %s but columns hash to %s"
            % (declared_hash, X.manifest_hash))
    return X
