"""Named numeric features over flows and packets, plus z-score normalization.

Features come in four categories (packet-based, byte-based, time-based,
protocol-based). Each traffic mode has one row builder that reads a
finished flow's accumulators, or one packet's header lengths, TTL,
protocol, flags and window plus its per-flow gap and index, and returns
the row in manifest order. No builder reads an IP address, a port
number, an absolute timestamp or payload content; `audit_feature_access`
records what each builder reads, so privacy is assertable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import add
from typing import Iterable

import numpy as np

from .errors import EmptyTrainingSet, ManifestMismatch, NonFiniteFeature
from .flows import BIDIRECTIONAL, DirStats, FlowRecord, UNIDIRECTIONAL
from .pcap import PROTO_ICMP, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP, PacketRecord

MODE_UNI_FLOW = "uni_flow"
MODE_BI_FLOW = "bi_flow"
MODE_PACKET = "packet"
MODES = (MODE_UNI_FLOW, MODE_BI_FLOW, MODE_PACKET)

CAT_PACKET = "packet_based"
CAT_BYTE = "byte_based"
CAT_TIME = "time_based"
CAT_PROTO = "protocol_based"
CATEGORIES = (CAT_PACKET, CAT_BYTE, CAT_TIME, CAT_PROTO)

FLAG_NAMES = ("fin", "syn", "rst", "psh", "ack", "urg", "ece", "cwr")

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
    k = rec.iat_count
    iat_min = rec.iat_min if k else 0.0
    iat_max = rec.iat_max if k else 0.0
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
        rec.active_total / rec.active_count if rec.active_count else 0.0,
        rec.active_count,
        rec.idle_total, rec.idle_max,
        rec.idle_total / rec.idle_count if rec.idle_count else 0.0,
        rec.idle_count,
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
    k = s.iat_count
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
    the packet index within the flow. It is the only packet-mode code that
    reads addresses, ports or timestamps.
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


def packet_row(p: PacketRecord, ctx: PacketContext,
               manifest: Manifest = PACKET_MANIFEST) -> list:
    """One packet's row (with flow context), as a list in `manifest`
    order."""
    if manifest.mode != MODE_PACKET:
        raise ManifestMismatch("manifest mode %r is not packet"
                               % manifest.mode)
    _require_default(manifest)
    return _packet_row(p, *ctx.advance(p))


def packet_features(p: PacketRecord, ctx: PacketContext,
                    manifest: Manifest = PACKET_MANIFEST) -> np.ndarray:
    """Evaluate one packet (with flow context) against a packet manifest."""
    return np.array(packet_row(p, ctx, manifest), dtype=np.float64)


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
    called the same way."""
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
        raise EmptyTrainingSet("cannot fit a normalizer on zero rows")
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
    """Read the CSV interchange format written by write_matrix_csv."""
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
            header = fh.readline()
        else:
            header = first
        names = [h.strip() for h in header.strip().split(",")]
        has_labels = names and names[-1] == "label"
        if has_labels:
            names = names[:-1]
        rows = []
        labels: list[str] | None = [] if has_labels else None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if has_labels:
                labels.append(parts[-1])
                parts = parts[:-1]
            rows.append([float(x) for x in parts])
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
