"""Named numeric features over flows and packets, plus z-score normalization.

Features come in four categories (packet-based, byte-based, time-based,
protocol-based) and are computed from restricted views that physically
contain no IP addresses, no port numbers, no absolute timestamps and no
payload content, so privacy holds by construction and is assertable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import EmptyTrainingSet, ManifestMismatch, NonFiniteFeature
from .flows import BIDIRECTIONAL, FlowRecord, UNIDIRECTIONAL
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


def _mean(total: float, n: int) -> float:
    return total / n if n else 0.0


def _pop_std(total: float, sumsq: float, n: int) -> float:
    if n == 0:
        return 0.0
    var = sumsq / n - (total / n) ** 2
    return math.sqrt(var) if var > 0 else 0.0


class DirView:
    """Per-direction statistics visible to feature functions."""

    __slots__ = (
        "pkt_count", "byte_count", "header_bytes", "payload_bytes",
        "pkt_len_min", "pkt_len_max", "pkt_len_mean", "pkt_len_std",
        "payload_len_min", "payload_len_max", "payload_len_mean",
        "payload_len_std",
        "ip_hdr_min", "ip_hdr_max", "ip_hdr_mean",
        "l4_hdr_min", "l4_hdr_max", "l4_hdr_mean",
        "iat_min", "iat_max", "iat_mean", "iat_std",
        "flag_counts", "ttl_min", "ttl_max", "ttl_mean", "init_window",
        "small_pkt_ratio", "large_pkt_ratio",
    )

    @classmethod
    def empty(cls) -> "DirView":
        v = cls()
        for name in cls.__slots__:
            setattr(v, name, 0.0)
        v.flag_counts = (0,) * 8
        return v


def _dir_view(s) -> DirView:
    v = DirView()
    n = s.pkt_count
    v.pkt_count = float(n)
    v.byte_count = float(s.byte_count)
    v.header_bytes = float(s.header_byte_count)
    v.payload_bytes = float(s.payload_byte_count)
    v.pkt_len_min = float(s.pkt_len_min)
    v.pkt_len_max = float(s.pkt_len_max)
    v.pkt_len_mean = _mean(s.pkt_len_sum, n)
    v.pkt_len_std = _pop_std(s.pkt_len_sum, s.pkt_len_sumsq, n)
    v.payload_len_min = float(s.payload_len_min)
    v.payload_len_max = float(s.payload_len_max)
    v.payload_len_mean = _mean(s.payload_len_sum, n)
    v.payload_len_std = _pop_std(s.payload_len_sum, s.payload_len_sumsq, n)
    v.ip_hdr_min = float(s.ip_hdr_min)
    v.ip_hdr_max = float(s.ip_hdr_max)
    v.ip_hdr_mean = _mean(s.ip_hdr_sum, n)
    v.l4_hdr_min = float(s.l4_hdr_min)
    v.l4_hdr_max = float(s.l4_hdr_max)
    v.l4_hdr_mean = _mean(s.l4_hdr_sum, n)
    v.iat_min = s.iat_min if s.iat_count else 0.0
    v.iat_max = s.iat_max if s.iat_count else 0.0
    v.iat_mean = _mean(s.iat_sum, s.iat_count)
    v.iat_std = _pop_std(s.iat_sum, s.iat_sumsq, s.iat_count)
    v.flag_counts = tuple(s.flag_counts)
    v.ttl_min = float(s.ttl_min)
    v.ttl_max = float(s.ttl_max)
    v.ttl_mean = _mean(s.ttl_sum, n)
    v.init_window = float(s.init_window or 0)
    v.small_pkt_ratio = s.small_pkt_count / n if n else 0.0
    v.large_pkt_ratio = s.large_pkt_count / n if n else 0.0
    return v


def _merged_dir_view(a, b) -> DirView:
    """Combined view over both directions of a bidirectional flow."""
    v = DirView()
    n = a.pkt_count + b.pkt_count
    v.pkt_count = float(n)
    v.byte_count = float(a.byte_count + b.byte_count)
    v.header_bytes = float(a.header_byte_count + b.header_byte_count)
    v.payload_bytes = float(a.payload_byte_count + b.payload_byte_count)
    have_a, have_b = a.pkt_count > 0, b.pkt_count > 0

    def mn(x, y, xa=have_a, ya=have_b):
        if xa and ya:
            return float(min(x, y))
        return float(x if xa else y)

    def mx(x, y, xa=have_a, ya=have_b):
        if xa and ya:
            return float(max(x, y))
        return float(x if xa else y)

    v.pkt_len_min = mn(a.pkt_len_min, b.pkt_len_min)
    v.pkt_len_max = mx(a.pkt_len_max, b.pkt_len_max)
    v.pkt_len_mean = _mean(a.pkt_len_sum + b.pkt_len_sum, n)
    v.pkt_len_std = _pop_std(a.pkt_len_sum + b.pkt_len_sum,
                             a.pkt_len_sumsq + b.pkt_len_sumsq, n)
    v.payload_len_min = mn(a.payload_len_min, b.payload_len_min)
    v.payload_len_max = mx(a.payload_len_max, b.payload_len_max)
    v.payload_len_mean = _mean(a.payload_len_sum + b.payload_len_sum, n)
    v.payload_len_std = _pop_std(a.payload_len_sum + b.payload_len_sum,
                                 a.payload_len_sumsq + b.payload_len_sumsq, n)
    v.ip_hdr_min = mn(a.ip_hdr_min, b.ip_hdr_min)
    v.ip_hdr_max = mx(a.ip_hdr_max, b.ip_hdr_max)
    v.ip_hdr_mean = _mean(a.ip_hdr_sum + b.ip_hdr_sum, n)
    v.l4_hdr_min = mn(a.l4_hdr_min, b.l4_hdr_min)
    v.l4_hdr_max = mx(a.l4_hdr_max, b.l4_hdr_max)
    v.l4_hdr_mean = _mean(a.l4_hdr_sum + b.l4_hdr_sum, n)
    iat_n = a.iat_count + b.iat_count
    ia, ib = a.iat_count > 0, b.iat_count > 0
    v.iat_min = mn(a.iat_min, b.iat_min, ia, ib) if iat_n else 0.0
    v.iat_max = mx(a.iat_max, b.iat_max, ia, ib) if iat_n else 0.0
    v.iat_mean = _mean(a.iat_sum + b.iat_sum, iat_n)
    v.iat_std = _pop_std(a.iat_sum + b.iat_sum,
                         a.iat_sumsq + b.iat_sumsq, iat_n)
    v.flag_counts = tuple(x + y for x, y in zip(a.flag_counts, b.flag_counts))
    v.ttl_min = mn(a.ttl_min, b.ttl_min, have_a, have_b)
    v.ttl_max = mx(a.ttl_max, b.ttl_max)
    v.ttl_mean = _mean(a.ttl_sum + b.ttl_sum, n)
    v.init_window = float(a.init_window or b.init_window or 0)
    v.small_pkt_ratio = (a.small_pkt_count + b.small_pkt_count) / n \
        if n else 0.0
    v.large_pkt_ratio = (a.large_pkt_count + b.large_pkt_count) / n \
        if n else 0.0
    return v


class FlowView:
    """Flow-level values feature functions may read. No key material."""

    __slots__ = (
        "duration", "protocol", "all", "fwd", "bwd",
        "iat_min", "iat_max", "iat_mean", "iat_std",
        "active_total", "active_max", "active_mean", "active_count",
        "idle_total", "idle_max", "idle_mean", "idle_count",
    )


def flow_view(rec: FlowRecord) -> FlowView:
    v = FlowView()
    v.duration = rec.duration
    v.protocol = rec.protocol
    if rec.bwd is None:
        v.all = _dir_view(rec.fwd)
        v.fwd = v.all
        v.bwd = DirView.empty()
    else:
        v.fwd = _dir_view(rec.fwd)
        v.bwd = _dir_view(rec.bwd)
        v.all = _merged_dir_view(rec.fwd, rec.bwd)
    v.iat_min = rec.iat_min if rec.iat_count else 0.0
    v.iat_max = rec.iat_max if rec.iat_count else 0.0
    v.iat_mean = _mean(rec.iat_sum, rec.iat_count)
    v.iat_std = _pop_std(rec.iat_sum, rec.iat_sumsq, rec.iat_count)
    v.active_total = rec.active_total
    v.active_max = rec.active_max
    v.active_mean = _mean(rec.active_total, rec.active_count)
    v.active_count = float(rec.active_count)
    v.idle_total = rec.idle_total
    v.idle_max = rec.idle_max
    v.idle_mean = _mean(rec.idle_total, rec.idle_count)
    v.idle_count = float(rec.idle_count)
    return v


class PacketView:
    """Per-packet values feature functions may read."""

    __slots__ = ("total_len", "ip_header_len", "l4_header_len", "payload_len",
                 "ttl", "protocol", "tcp_flags", "tcp_window", "iat_prev",
                 "pkt_index")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    category: str
    fn: Callable


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

    def subset(self, names: Iterable[str]) -> "Manifest":
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise ManifestMismatch("unknown features: %s" % sorted(unknown))
        return Manifest(self.mode,
                        tuple(e for e in self.entries if e.name in wanted))

    def category_counts(self) -> dict[str, int]:
        counts = {c: 0 for c in CATEGORIES}
        for e in self.entries:
            counts[e.category] += 1
        return counts


def manifest_hash(mode: str, names: Iterable[str]) -> str:
    text = mode + ";" + ",".join(names)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _rate(count_attr: str):
    def fn(v):
        return getattr(v.all, count_attr) / max(v.duration, RATE_FLOOR)
    return fn


def _dir_attr(side: str, attr: str):
    def fn(v):
        return getattr(getattr(v, side), attr)
    return fn


def _flag_count(side: str, i: int):
    def fn(v):
        return float(getattr(v, side).flag_counts[i])
    return fn


def _flag_rate(i: int):
    def fn(v):
        return v.all.flag_counts[i] / max(v.duration, RATE_FLOOR)
    return fn


def _proto_onehot(proto_ids):
    def fn(v):
        return 1.0 if v.protocol in proto_ids else 0.0
    return fn


def _proto_other(v):
    return 1.0 if v.protocol not in (PROTO_TCP, PROTO_UDP, PROTO_ICMP,
                                     PROTO_ICMPV6) else 0.0


def _flow_entries(bi: bool) -> tuple[FeatureSpec, ...]:
    E = FeatureSpec
    entries = [
        # packet-based: counts and volume shape
        E("pkt_count", CAT_PACKET, _dir_attr("all", "pkt_count")),
        E("pkt_rate", CAT_PACKET, _rate("pkt_count")),
        E("pkt_len_min", CAT_PACKET, _dir_attr("all", "pkt_len_min")),
        E("pkt_len_max", CAT_PACKET, _dir_attr("all", "pkt_len_max")),
        E("pkt_len_mean", CAT_PACKET, _dir_attr("all", "pkt_len_mean")),
        E("pkt_len_std", CAT_PACKET, _dir_attr("all", "pkt_len_std")),
        E("pkt_len_range", CAT_PACKET,
          lambda v: v.all.pkt_len_max - v.all.pkt_len_min),
        E("small_pkt_ratio", CAT_PACKET, _dir_attr("all", "small_pkt_ratio")),
        E("large_pkt_ratio", CAT_PACKET, _dir_attr("all", "large_pkt_ratio")),
        # byte-based: load and split between headers and payload
        E("byte_count", CAT_BYTE, _dir_attr("all", "byte_count")),
        E("byte_rate", CAT_BYTE, _rate("byte_count")),
        E("header_bytes", CAT_BYTE, _dir_attr("all", "header_bytes")),
        E("payload_bytes", CAT_BYTE, _dir_attr("all", "payload_bytes")),
        E("payload_ratio", CAT_BYTE,
          lambda v: v.all.payload_bytes / max(v.all.byte_count, 1.0)),
        E("payload_len_min", CAT_BYTE, _dir_attr("all", "payload_len_min")),
        E("payload_len_max", CAT_BYTE, _dir_attr("all", "payload_len_max")),
        E("payload_len_mean", CAT_BYTE, _dir_attr("all", "payload_len_mean")),
        E("payload_len_std", CAT_BYTE, _dir_attr("all", "payload_len_std")),
        E("header_len_mean", CAT_BYTE,
          lambda v: v.all.header_bytes / max(v.all.pkt_count, 1.0)),
        # time-based: duration, gaps, activity runs
        E("duration", CAT_TIME, lambda v: v.duration),
        E("iat_min", CAT_TIME, lambda v: v.iat_min),
        E("iat_max", CAT_TIME, lambda v: v.iat_max),
        E("iat_mean", CAT_TIME, lambda v: v.iat_mean),
        E("iat_std", CAT_TIME, lambda v: v.iat_std),
        E("iat_range", CAT_TIME, lambda v: v.iat_max - v.iat_min),
        E("active_total", CAT_TIME, lambda v: v.active_total),
        E("active_max", CAT_TIME, lambda v: v.active_max),
        E("active_mean", CAT_TIME, lambda v: v.active_mean),
        E("active_count", CAT_TIME, lambda v: v.active_count),
        E("idle_total", CAT_TIME, lambda v: v.idle_total),
        E("idle_max", CAT_TIME, lambda v: v.idle_max),
        E("idle_mean", CAT_TIME, lambda v: v.idle_mean),
        E("idle_count", CAT_TIME, lambda v: v.idle_count),
        E("idle_ratio", CAT_TIME,
          lambda v: v.idle_total / max(v.duration, RATE_FLOOR)),
        # protocol-based: header semantics
        E("proto_tcp", CAT_PROTO, _proto_onehot((PROTO_TCP,))),
        E("proto_udp", CAT_PROTO, _proto_onehot((PROTO_UDP,))),
        E("proto_icmp", CAT_PROTO, _proto_onehot((PROTO_ICMP,
                                                  PROTO_ICMPV6))),
        E("proto_other", CAT_PROTO, _proto_other),
    ]
    for i, flag in enumerate(FLAG_NAMES):
        entries.append(E("flag_%s_count" % flag, CAT_PROTO,
                         _flag_count("all", i)))
    for i, flag in enumerate(FLAG_NAMES):
        entries.append(E("flag_%s_rate" % flag, CAT_PROTO, _flag_rate(i)))
    entries += [
        E("flag_total", CAT_PROTO,
          lambda v: float(sum(v.all.flag_counts))),
        E("ttl_min", CAT_PROTO, _dir_attr("all", "ttl_min")),
        E("ttl_max", CAT_PROTO, _dir_attr("all", "ttl_max")),
        E("ttl_mean", CAT_PROTO, _dir_attr("all", "ttl_mean")),
        E("ttl_range", CAT_PROTO,
          lambda v: v.all.ttl_max - v.all.ttl_min),
        E("init_window", CAT_PROTO, _dir_attr("all", "init_window")),
        E("ip_hdr_len_mean", CAT_PROTO, _dir_attr("all", "ip_hdr_mean")),
        E("ip_hdr_len_max", CAT_PROTO, _dir_attr("all", "ip_hdr_max")),
        E("l4_hdr_len_mean", CAT_PROTO, _dir_attr("all", "l4_hdr_mean")),
        E("l4_hdr_len_max", CAT_PROTO, _dir_attr("all", "l4_hdr_max")),
    ]
    if bi:
        cat_by_attr = {
            "pkt_count": CAT_PACKET, "pkt_len_mean": CAT_PACKET,
            "pkt_len_std": CAT_PACKET, "pkt_len_max": CAT_PACKET,
            "byte_count": CAT_BYTE, "payload_bytes": CAT_BYTE,
            "payload_len_mean": CAT_BYTE, "payload_len_std": CAT_BYTE,
            "iat_mean": CAT_TIME, "iat_std": CAT_TIME, "iat_max": CAT_TIME,
            "ttl_mean": CAT_PROTO, "init_window": CAT_PROTO,
        }
        for side in ("fwd", "bwd"):
            for attr, cat in cat_by_attr.items():
                entries.append(E("%s_%s" % (side, attr), cat,
                                 _dir_attr(side, attr)))
            for i, flag in enumerate(FLAG_NAMES):
                entries.append(E("%s_flag_%s_count" % (side, flag),
                                 CAT_PROTO, _flag_count(side, i)))
        entries += [
            E("fwd_bwd_pkt_ratio", CAT_PACKET,
              lambda v: v.fwd.pkt_count / max(v.bwd.pkt_count, 1.0)),
            E("fwd_bwd_byte_ratio", CAT_BYTE,
              lambda v: v.fwd.byte_count / max(v.bwd.byte_count, 1.0)),
            E("fwd_bwd_payload_ratio", CAT_BYTE,
              lambda v: v.fwd.payload_bytes / max(v.bwd.payload_bytes, 1.0)),
        ]
    return tuple(entries)


def _packet_entries() -> tuple[FeatureSpec, ...]:
    E = FeatureSpec
    entries = [
        E("total_len", CAT_PACKET, lambda v: float(v.total_len)),
        E("pkt_index", CAT_PACKET, lambda v: float(v.pkt_index)),
        E("payload_len", CAT_BYTE, lambda v: float(v.payload_len)),
        E("ip_header_len", CAT_BYTE, lambda v: float(v.ip_header_len)),
        E("l4_header_len", CAT_BYTE, lambda v: float(v.l4_header_len)),
        E("iat_prev", CAT_TIME, lambda v: v.iat_prev),
        E("proto_tcp", CAT_PROTO,
          lambda v: 1.0 if v.protocol == PROTO_TCP else 0.0),
        E("proto_udp", CAT_PROTO,
          lambda v: 1.0 if v.protocol == PROTO_UDP else 0.0),
        E("proto_icmp", CAT_PROTO,
          lambda v: 1.0 if v.protocol in (PROTO_ICMP, PROTO_ICMPV6) else 0.0),
        E("proto_other", CAT_PROTO, _proto_other),
    ]
    for i, flag in enumerate(FLAG_NAMES):
        entries.append(E("flag_%s" % flag, CAT_PROTO,
                         (lambda bit: lambda v: 1.0 if v.tcp_flags
                          & bit else 0.0)(1 << i)))
    entries += [
        E("tcp_window", CAT_PROTO, lambda v: float(v.tcp_window)),
        E("ttl", CAT_PROTO, lambda v: float(v.ttl)),
    ]
    return tuple(entries)


UNI_FLOW_MANIFEST = Manifest(MODE_UNI_FLOW, _flow_entries(bi=False))
BI_FLOW_MANIFEST = Manifest(MODE_BI_FLOW, _flow_entries(bi=True))
PACKET_MANIFEST = Manifest(MODE_PACKET, _packet_entries())

DEFAULT_MANIFESTS = {
    MODE_UNI_FLOW: UNI_FLOW_MANIFEST,
    MODE_BI_FLOW: BI_FLOW_MANIFEST,
    MODE_PACKET: PACKET_MANIFEST,
}


def flow_features(rec: FlowRecord, manifest: Manifest) -> np.ndarray:
    """Evaluate one FlowRecord against a flow-mode manifest."""
    expected = MODE_TO_DIRECTION.get(manifest.mode)
    if expected is None or rec.mode != expected:
        raise ManifestMismatch(
            "flow mode %r does not fit manifest mode %r"
            % (rec.mode, manifest.mode))
    v = flow_view(rec)
    return np.array([e.fn(v) for e in manifest.entries], dtype=np.float64)


class PacketContext:
    """Per-flow running state for packet-mode features.

    Tracks, per unidirectional 5-tuple, the previous packet timestamp and
    the packet index within the flow.
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state: dict = {}

    def view(self, p: PacketRecord) -> PacketView:
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
        prev = self._state.get(key)
        v = PacketView()
        v.total_len = p.total_len
        v.ip_header_len = p.ip_header_len
        v.l4_header_len = p.l4_header_len
        v.payload_len = p.payload_len
        v.ttl = p.ttl
        v.protocol = p.protocol
        v.tcp_flags = p.tcp_flags if p.tcp_flags is not None else 0
        v.tcp_window = p.tcp_window if p.tcp_window is not None else 0
        if prev is None:
            v.iat_prev = 0.0
            v.pkt_index = 1
        else:
            v.iat_prev = p.ts - prev[0]
            v.pkt_index = prev[1] + 1
        self._state[key] = (p.ts, v.pkt_index)
        return v


def packet_features(p: PacketRecord, ctx: PacketContext,
                    manifest: Manifest = PACKET_MANIFEST) -> np.ndarray:
    """Evaluate one packet (with flow context) against a packet manifest."""
    if manifest.mode != MODE_PACKET:
        raise ManifestMismatch("manifest mode %r is not packet"
                               % manifest.mode)
    v = ctx.view(p)
    return np.array([e.fn(v) for e in manifest.entries], dtype=np.float64)


class _RecordingProxy:
    """Stands in for a view during the manifest privacy audit; records
    every attribute path a feature function touches."""

    def __init__(self, accessed: set, prefix: str = ""):
        object.__setattr__(self, "_accessed", accessed)
        object.__setattr__(self, "_prefix", prefix)

    def __getattr__(self, name):
        path = (self._prefix + "." + name) if self._prefix else name
        self._accessed.add(path)
        if name in ("all", "fwd", "bwd"):
            return _RecordingProxy(self._accessed, path)
        if name == "flag_counts":
            return (1,) * 8
        if name in ("protocol", "tcp_flags"):
            return 6
        return 2.0


def audit_feature_access(manifest: Manifest) -> dict[str, set]:
    """Run every feature function against a recording proxy and return the
    attribute paths each one reads."""
    report = {}
    for e in manifest.entries:
        accessed: set = set()
        e.fn(_RecordingProxy(accessed))
        report[e.name] = accessed
    return report


@dataclass
class FeatureMatrix:
    values: np.ndarray
    names: tuple[str, ...]
    mode: str
    labels: list[str] | None = None
    unmatched_labels: int = 0  # labelled rows no label row matched

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
    name_to_col = {n: i for i, n in enumerate(X.names)}
    cols = [name_to_col[n] for n in stats.kept_names]
    vals = (X.values[:, cols] - stats.mean) / stats.std
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
