"""5-tuple flow metering with time windows and idle/termination cuts.

Packets are aggregated into unidirectional or bidirectional flows. A flow
is cut when its tumbling window (anchored at the flow's first packet)
elapses, when it goes idle, on TCP FIN/RST completion, or at capture end.
IP addresses and ports live only in the flow key; feature extraction never
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .pcap import (
    PROTO_TCP,
    PacketRecord,
    TCP_FLAG_NAMES,
    TCP_RST,
)
from .settings import Setting, check_fields

UNIDIRECTIONAL = "uni"
BIDIRECTIONAL = "bi"

TERM_FIN = "tcp_fin"
TERM_RST = "tcp_rst"
TERM_IDLE = "idle_timeout"
TERM_WINDOW = "window_close"
TERM_CAPTURE_END = "capture_end"

ACTIVE_GAP = 1.0  # a longer gap between packets ends an activity run

SMALL_PAYLOAD = 32
LARGE_PAYLOAD = 1000


class FlowKey(NamedTuple):
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int


# the indices of the set bits of each flag byte, lowest first
_FLAG_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1)
                   for byte in range(256))


class DirStats:
    """Per-direction accumulators; all derivable without IPs, ports or
    absolute timestamps. Each quantity is kept once: the sum of packet
    lengths is `byte_count`, that of payload lengths `payload_byte_count`,
    the header bytes are their difference, and the gap count is
    `pkt_count - 1` (0 with no packets)."""

    __slots__ = (
        "pkt_count", "byte_count", "payload_byte_count",
        "pkt_len_min", "pkt_len_max", "pkt_len_sumsq",
        "payload_len_min", "payload_len_max", "payload_len_sumsq",
        "ip_hdr_max", "ip_hdr_sum", "l4_hdr_max", "l4_hdr_sum",
        "iat_min", "iat_max", "iat_sum", "iat_sumsq", "last_ts",
        "flag_counts", "ttl_min", "ttl_max", "ttl_sum",
        "init_window", "small_pkt_count", "large_pkt_count",
    )

    def __init__(self) -> None:
        self.pkt_count = 0
        self.byte_count = 0
        self.payload_byte_count = 0
        self.pkt_len_min = 0
        self.pkt_len_max = 0
        self.pkt_len_sumsq = 0
        self.payload_len_min = 0
        self.payload_len_max = 0
        self.payload_len_sumsq = 0
        self.ip_hdr_max = 0
        self.ip_hdr_sum = 0
        self.l4_hdr_max = 0
        self.l4_hdr_sum = 0
        self.iat_min = 0.0
        self.iat_max = 0.0
        self.iat_sum = 0.0
        self.iat_sumsq = 0.0
        self.last_ts = None
        self.flag_counts = [0] * 8
        self.ttl_min = 0
        self.ttl_max = 0
        self.ttl_sum = 0
        self.init_window = None
        self.small_pkt_count = 0
        self.large_pkt_count = 0

    def add(self, p: PacketRecord) -> None:
        n = self.pkt_count
        total = p.total_len
        payload = p.payload_len
        ip_hlen = p.ip_header_len
        l4_hlen = p.l4_header_len
        ttl = p.ttl
        self.pkt_count = n + 1
        self.byte_count += total
        self.payload_byte_count += payload
        if n == 0:
            self.pkt_len_min = self.pkt_len_max = total
            self.payload_len_min = self.payload_len_max = payload
            self.ip_hdr_max = ip_hlen
            self.l4_hdr_max = l4_hlen
            self.ttl_min = self.ttl_max = ttl
        else:
            if total < self.pkt_len_min:
                self.pkt_len_min = total
            elif total > self.pkt_len_max:
                self.pkt_len_max = total
            if payload < self.payload_len_min:
                self.payload_len_min = payload
            elif payload > self.payload_len_max:
                self.payload_len_max = payload
            if ip_hlen > self.ip_hdr_max:
                self.ip_hdr_max = ip_hlen
            if l4_hlen > self.l4_hdr_max:
                self.l4_hdr_max = l4_hlen
            if ttl < self.ttl_min:
                self.ttl_min = ttl
            elif ttl > self.ttl_max:
                self.ttl_max = ttl
        self.pkt_len_sumsq += total * total
        self.payload_len_sumsq += payload * payload
        self.ip_hdr_sum += ip_hlen
        self.l4_hdr_sum += l4_hlen
        self.ttl_sum += ttl
        if payload < SMALL_PAYLOAD:
            self.small_pkt_count += 1
        if payload >= LARGE_PAYLOAD:
            self.large_pkt_count += 1
        ts = p.ts
        if n:
            iat = ts - self.last_ts
            if n == 1:
                self.iat_min = self.iat_max = iat
            elif iat < self.iat_min:
                self.iat_min = iat
            elif iat > self.iat_max:
                self.iat_max = iat
            self.iat_sum += iat
            self.iat_sumsq += iat * iat
        self.last_ts = ts
        flags = p.tcp_flags
        if flags is not None:
            counts = self.flag_counts
            for bit in _FLAG_BITS[flags & 0xFF]:
                counts[bit] += 1
            if self.init_window is None:
                self.init_window = p.tcp_window


class FlowRecord:
    """One flow. The meter builds it on the flow's first packet, updates it
    in place and emits it once `close` has set `duration`, `termination`
    and `window_end`. The meter passes each packet's `low`: whether the
    key's lower endpoint sent it. A flow has `pkt_count - 1` gaps (with
    none, `iat_min` is +inf and `iat_max` -inf) and, once closed,
    `idle_count + 1` activity runs; its longest idle gap, if any, is
    `iat_max`."""

    __slots__ = (
        "key", "mode", "fwd_is_low", "window_start", "window_end",
        "last_ts", "duration", "protocol", "fwd", "bwd",
        # combined-arrival gap statistics across both directions
        "iat_min", "iat_max", "iat_sum", "iat_sumsq",
        "active_start", "active_total", "active_max",
        "idle_total", "idle_count", "termination",
    )

    def __init__(self, key: FlowKey, p: PacketRecord, mode: str,
                 low: bool) -> None:
        self.key = key
        self.mode = mode
        # whether the forward side is the key's lower endpoint
        self.fwd_is_low = low
        self.window_start = p.ts
        self.last_ts = p.ts
        self.protocol = key.protocol
        self.fwd = DirStats()
        self.bwd = DirStats() if mode == BIDIRECTIONAL else None
        self.iat_min = float("inf")
        self.iat_max = float("-inf")
        self.iat_sum = 0.0
        self.iat_sumsq = 0.0
        self.active_start = p.ts
        self.active_total = 0.0
        self.active_max = 0.0
        self.idle_total = 0.0
        self.idle_count = 0
        self.fwd.add(p)

    @property
    def pkt_count(self) -> int:
        return self.fwd.pkt_count + (self.bwd.pkt_count if self.bwd else 0)

    def update(self, p: PacketRecord, low: bool) -> None:
        gap = p.ts - self.last_ts
        if gap < self.iat_min:
            self.iat_min = gap
        if gap > self.iat_max:
            self.iat_max = gap
        self.iat_sum += gap
        self.iat_sumsq += gap * gap
        if gap > ACTIVE_GAP:
            run = self.last_ts - self.active_start
            self.active_total += run
            if run > self.active_max:
                self.active_max = run
            self.idle_total += gap
            self.idle_count += 1
            self.active_start = p.ts
        (self.fwd if low == self.fwd_is_low else self.bwd).add(p)
        self.last_ts = p.ts

    def fin_complete(self) -> bool:
        """Whether each side (uni: its one side) has sent a FIN (bit 0)."""
        if self.mode == BIDIRECTIONAL:
            return bool(self.fwd.flag_counts[0] and self.bwd.flag_counts[0])
        return bool(self.fwd.flag_counts[0])

    def close(self, termination: str, window_end: float) -> FlowRecord:
        """Close the last activity run and mark the flow finished."""
        run = self.last_ts - self.active_start
        self.active_total += run
        self.active_max = max(self.active_max, run)
        self.duration = self.last_ts - self.window_start
        self.termination = termination
        self.window_end = window_end
        return self


@dataclass
class MeterConfig:
    direction_mode: str = Setting(
        None, UNIDIRECTIONAL, choices=(UNIDIRECTIONAL, BIDIRECTIONAL)).field()
    tw_seconds: float | None = Setting(  # None = the exporter-default mode
        float, None, "(0, inf)", unit="time window seconds").field()
    idle_timeout: float = Setting(
        float, 15.0, "(0, inf]", unit="idle timeout seconds").field()


@dataclass
class MeterStats:
    packets_metered: int = 0
    clock_skew_dropped: int = 0
    flows_emitted: int = 0


class FlowMeter:
    """Streaming flow table. Memory is proportional to live flows only."""

    def __init__(self, cfg: MeterConfig):
        check_fields(cfg)
        self.cfg = cfg
        self.stats = MeterStats()
        self._table: dict[FlowKey, FlowRecord] = {}
        self._max_ts = float("-inf")
        self._next_sweep = None

    def feed(self, p: PacketRecord) -> list[FlowRecord]:
        """Account one packet; returns any FlowRecords cut by its arrival."""
        ts = p.ts
        if ts < self._max_ts - 1e-9:
            self.stats.clock_skew_dropped += 1
            return []
        if ts > self._max_ts:
            self._max_ts = ts
        cfg = self.cfg
        out: list[FlowRecord] = []
        # the 5-tuple; a bidirectional key puts the lower (address, port)
        # endpoint first, and low says whether that endpoint sent p (a
        # unidirectional key's first endpoint always did)
        src, dst, sport, dport = p.src_ip, p.dst_ip, p.src_port, p.dst_port
        low = (cfg.direction_mode == UNIDIRECTIONAL or src < dst
               or (src == dst and sport <= dport))
        if low:
            key = (src, dst, sport, dport, p.protocol)
        else:
            key = (dst, src, dport, sport, p.protocol)
        table = self._table
        rec = table.get(key)
        if rec is not None:
            tw = cfg.tw_seconds
            if tw is not None and ts >= rec.window_start + tw:
                out.append(rec.close(TERM_WINDOW, rec.window_start + tw))
                rec = None
            elif ts - rec.last_ts > cfg.idle_timeout:
                out.append(rec.close(TERM_IDLE, rec.last_ts))
                rec = None
        if rec is None:
            rec = FlowRecord(FlowKey._make(key), p, cfg.direction_mode, low)
            table[rec.key] = rec
        else:
            rec.update(p, low)
        self.stats.packets_metered += 1

        flags = p.tcp_flags
        if flags is not None and p.protocol == PROTO_TCP:
            if flags & TCP_RST:
                out.append(rec.close(TERM_RST, ts))
                del table[key]
            elif rec.fin_complete():
                out.append(rec.close(TERM_FIN, ts))
                del table[key]

        if self._next_sweep is None:
            self._next_sweep = ts + cfg.idle_timeout
        elif ts >= self._next_sweep:
            out.extend(self._sweep(ts))
            self._next_sweep = ts + cfg.idle_timeout
        self.stats.flows_emitted += len(out)
        return out

    def _sweep(self, now: float) -> list[FlowRecord]:
        horizon = now - self.cfg.idle_timeout
        stale = sorted((rec for rec in self._table.values()
                        if rec.last_ts < horizon), key=_age)
        for rec in stale:
            del self._table[rec.key]
        return [rec.close(TERM_IDLE, rec.last_ts) for rec in stale]

    def finish(self) -> list[FlowRecord]:
        """Flush all live flows at end of stream, oldest first."""
        remaining = sorted(self._table.values(), key=_age)
        out = [rec.close(TERM_CAPTURE_END, rec.last_ts) for rec in remaining]
        self._table.clear()
        self.stats.flows_emitted += len(out)
        return out


def _age(rec: FlowRecord) -> tuple:
    return rec.window_start, rec.key


def meter(packets: Iterable[PacketRecord],
          cfg: MeterConfig | None = None) -> Iterator[FlowRecord]:
    """Aggregate a timestamp-ordered packet stream into FlowRecords."""
    m = FlowMeter(cfg or MeterConfig())
    for p in packets:
        yield from m.feed(p)
    yield from m.finish()


_DIR_CSV_FIELDS = (
    "pkt_count", "byte_count", "header_byte_count", "payload_byte_count",
    "pkt_len_min", "pkt_len_max", "pkt_len_sum", "pkt_len_sumsq",
    "iat_min", "iat_max", "iat_sum", "iat_sumsq", "iat_count",
    "ttl_min", "ttl_max", "ttl_sum", "init_window",
)


def flow_csv_header(mode: str) -> list[str]:
    """Documented column order of the raw FlowRecord dump."""
    cols = ["src_ip", "src_port", "dst_ip", "dst_port", "protocol",
            "window_start", "window_end", "duration", "termination"]
    sides = ("fwd", "bwd") if mode == BIDIRECTIONAL else ("fwd",)
    for side in sides:
        cols += ["%s_%s" % (side, f) for f in _DIR_CSV_FIELDS]
        cols += ["%s_flag_%s" % (side, name) for name in TCP_FLAG_NAMES]
    return cols


def _csv_text(column) -> list[str]:
    """A dump column as text: a float by `repr`, anything else by `str`."""
    return list(map(repr if column.dtype.kind == "f" else str,
                    column.tolist()))


_DUMP_BLOCK = 4096  # flows formatted as text at a time


def write_flow_csv(flows, path: str) -> int:
    """Dump emitted flows, given as columns in emission order (as
    `columnar.flow_matrix` gives them), one row each, in
    `flow_csv_header` order; returns the row count. A side's absent
    initial window is 0. Rows are formatted in blocks, so the text held
    at once does not grow with the flow count."""
    cols = [flows.src_ip, flows.src_port, flows.dst_ip, flows.dst_port,
            flows.protocol, flows.window_start, flows.window_end,
            flows.duration, flows.termination]
    for s in (flows.fwd, flows.bwd) if flows.mode == BIDIRECTIONAL \
            else (flows.fwd,):
        derived = {"pkt_len_sum": s.byte_count,
                   "header_byte_count": s.byte_count - s.payload_byte_count,
                   "iat_count": np.maximum(s.pkt_count - 1, 0)}
        cols += [derived[f] if f in derived else getattr(s, f)
                 for f in _DIR_CSV_FIELDS]
        cols += list(s.flag_counts)
    cols = [np.asarray(c) for c in cols]
    n = len(cols[0])
    with open(path, "w") as fh:
        fh.write(",".join(flow_csv_header(flows.mode)) + "\n")
        for lo in range(0, n, _DUMP_BLOCK):
            text = [_csv_text(c[lo:lo + _DUMP_BLOCK]) for c in cols]
            fh.writelines(",".join(row) + "\n" for row in zip(*text))
    return n
