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

from .pcap import (
    PROTO_TCP,
    PacketRecord,
    TCP_FIN,
    TCP_RST,
)

UNIDIRECTIONAL = "uni"
BIDIRECTIONAL = "bi"

TERM_FIN = "tcp_fin"
TERM_RST = "tcp_rst"
TERM_IDLE = "idle_timeout"
TERM_WINDOW = "window_close"
TERM_CAPTURE_END = "capture_end"

DEFAULT_IDLE_TIMEOUT = 15.0
ACTIVE_GAP = 1.0  # a longer gap between packets ends an activity run

SMALL_PAYLOAD = 32
LARGE_PAYLOAD = 1000


class FlowKey(NamedTuple):
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int


def flow_key_of(p: PacketRecord, mode: str) -> FlowKey:
    """Pure 5-tuple key; bidirectional keys order endpoints lexicographically."""
    if mode == UNIDIRECTIONAL:
        return FlowKey(p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
    a = (p.src_ip, p.src_port)
    b = (p.dst_ip, p.dst_port)
    if a <= b:
        return FlowKey(a[0], b[0], a[1], b[1], p.protocol)
    return FlowKey(b[0], a[0], b[1], a[1], p.protocol)


class DirStats:
    """Per-direction accumulators; all derivable without IPs, ports or
    absolute timestamps. Each quantity is kept once: the sum of packet
    lengths is `byte_count`, that of payload lengths `payload_byte_count`,
    and the header bytes are their difference."""

    __slots__ = (
        "pkt_count", "byte_count", "payload_byte_count",
        "pkt_len_min", "pkt_len_max", "pkt_len_sumsq",
        "payload_len_min", "payload_len_max", "payload_len_sumsq",
        "ip_hdr_max", "ip_hdr_sum", "l4_hdr_max", "l4_hdr_sum",
        "iat_min", "iat_max", "iat_sum", "iat_sumsq", "iat_count", "last_ts",
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
        self.iat_count = 0
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
        self.pkt_count = n + 1
        self.byte_count += total
        self.payload_byte_count += payload
        if n == 0:
            self.pkt_len_min = self.pkt_len_max = total
            self.payload_len_min = self.payload_len_max = payload
            self.ip_hdr_max = p.ip_header_len
            self.l4_hdr_max = p.l4_header_len
            self.ttl_min = self.ttl_max = p.ttl
        else:
            if total < self.pkt_len_min:
                self.pkt_len_min = total
            elif total > self.pkt_len_max:
                self.pkt_len_max = total
            if payload < self.payload_len_min:
                self.payload_len_min = payload
            elif payload > self.payload_len_max:
                self.payload_len_max = payload
            if p.ip_header_len > self.ip_hdr_max:
                self.ip_hdr_max = p.ip_header_len
            if p.l4_header_len > self.l4_hdr_max:
                self.l4_hdr_max = p.l4_header_len
            if p.ttl < self.ttl_min:
                self.ttl_min = p.ttl
            elif p.ttl > self.ttl_max:
                self.ttl_max = p.ttl
        self.pkt_len_sumsq += total * total
        self.payload_len_sumsq += payload * payload
        self.ip_hdr_sum += p.ip_header_len
        self.l4_hdr_sum += p.l4_header_len
        self.ttl_sum += p.ttl
        if payload < SMALL_PAYLOAD:
            self.small_pkt_count += 1
        if payload >= LARGE_PAYLOAD:
            self.large_pkt_count += 1
        if self.last_ts is not None:
            iat = p.ts - self.last_ts
            if self.iat_count == 0:
                self.iat_min = self.iat_max = iat
            else:
                if iat < self.iat_min:
                    self.iat_min = iat
                elif iat > self.iat_max:
                    self.iat_max = iat
            self.iat_sum += iat
            self.iat_sumsq += iat * iat
            self.iat_count += 1
        self.last_ts = p.ts
        if p.tcp_flags is not None:
            flags = p.tcp_flags
            counts = self.flag_counts
            for bit in range(8):
                if flags & (1 << bit):
                    counts[bit] += 1
            if self.init_window is None:
                self.init_window = p.tcp_window


class FlowRecord:
    """One flow. The meter builds it on the flow's first packet, updates it
    in place and emits it once `close` has set `duration`, `termination`
    and `window_end`."""

    __slots__ = (
        "key", "mode", "fwd_is_low", "window_start", "window_end",
        "first_ts", "last_ts", "duration", "protocol", "fwd", "bwd",
        # combined-arrival gap statistics across both directions
        "iat_min", "iat_max", "iat_sum", "iat_sumsq", "iat_count",
        "active_start", "active_total", "active_max", "active_count",
        "idle_total", "idle_max", "idle_count",
        "fin_fwd", "fin_bwd", "termination",
    )

    def __init__(self, key: FlowKey, p: PacketRecord, mode: str) -> None:
        self.key = key
        self.mode = mode
        # whether the forward side is the key's lower endpoint
        self.fwd_is_low = (p.src_ip == key.src_ip
                           and p.src_port == key.src_port)
        self.window_start = p.ts
        self.first_ts = p.ts
        self.last_ts = p.ts
        self.protocol = key.protocol
        self.fwd = DirStats()
        self.bwd = DirStats() if mode == BIDIRECTIONAL else None
        self.iat_min = 0.0
        self.iat_max = 0.0
        self.iat_sum = 0.0
        self.iat_sumsq = 0.0
        self.iat_count = 0
        self.active_start = p.ts
        self.active_total = 0.0
        self.active_max = 0.0
        self.active_count = 0
        self.idle_total = 0.0
        self.idle_max = 0.0
        self.idle_count = 0
        self.fin_fwd = False
        self.fin_bwd = False
        self._add(p)

    @property
    def pkt_count(self) -> int:
        return self.fwd.pkt_count + (self.bwd.pkt_count if self.bwd else 0)

    def update(self, p: PacketRecord) -> None:
        gap = p.ts - self.last_ts
        if self.iat_count == 0:
            self.iat_min = self.iat_max = gap
        else:
            if gap < self.iat_min:
                self.iat_min = gap
            elif gap > self.iat_max:
                self.iat_max = gap
        self.iat_sum += gap
        self.iat_sumsq += gap * gap
        self.iat_count += 1
        if gap > ACTIVE_GAP:
            run = self.last_ts - self.active_start
            self.active_total += run
            if run > self.active_max:
                self.active_max = run
            self.active_count += 1
            self.idle_total += gap
            if gap > self.idle_max:
                self.idle_max = gap
            self.idle_count += 1
            self.active_start = p.ts
        self._add(p)

    def _add(self, p: PacketRecord) -> None:
        key = self.key
        is_fwd = (self.bwd is None
                  or (p.src_ip == key.src_ip and p.src_port == key.src_port)
                  == self.fwd_is_low)
        (self.fwd if is_fwd else self.bwd).add(p)
        self.last_ts = p.ts
        if p.tcp_flags is not None and p.tcp_flags & TCP_FIN:
            if is_fwd:
                self.fin_fwd = True
            else:
                self.fin_bwd = True

    def fin_complete(self) -> bool:
        if self.mode == BIDIRECTIONAL:
            return self.fin_fwd and self.fin_bwd
        return self.fin_fwd

    def close(self, termination: str, window_end: float) -> FlowRecord:
        """Close the last activity run and mark the flow finished."""
        run = self.last_ts - self.active_start
        self.active_total += run
        self.active_max = max(self.active_max, run)
        self.active_count += 1
        self.duration = self.last_ts - self.first_ts
        self.termination = termination
        self.window_end = window_end
        return self


@dataclass
class MeterConfig:
    direction_mode: str = UNIDIRECTIONAL
    tw_seconds: float | None = None  # None = the exporter-default mode
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT


@dataclass
class MeterStats:
    packets_metered: int = 0
    clock_skew_dropped: int = 0
    flows_emitted: int = 0


class FlowMeter:
    """Streaming flow table. Memory is proportional to live flows only."""

    def __init__(self, cfg: MeterConfig):
        if cfg.direction_mode not in (UNIDIRECTIONAL, BIDIRECTIONAL):
            raise ValueError("unknown direction mode %r" % cfg.direction_mode)
        if cfg.tw_seconds is not None and cfg.tw_seconds <= 0:
            raise ValueError("time window must be positive")
        self.cfg = cfg
        self.stats = MeterStats()
        self._table: dict[FlowKey, FlowRecord] = {}
        self._max_ts = float("-inf")
        self._next_sweep = None

    def feed(self, p: PacketRecord) -> list[FlowRecord]:
        """Account one packet; returns any FlowRecords cut by its arrival."""
        if p.ts < self._max_ts - 1e-9:
            self.stats.clock_skew_dropped += 1
            return []
        self._max_ts = max(self._max_ts, p.ts)
        cfg = self.cfg
        out: list[FlowRecord] = []
        key = flow_key_of(p, cfg.direction_mode)
        rec = self._table.get(key)
        if rec is not None:
            if (cfg.tw_seconds is not None
                    and p.ts >= rec.window_start + cfg.tw_seconds):
                out.append(rec.close(TERM_WINDOW,
                                     rec.window_start + cfg.tw_seconds))
                rec = None
            elif p.ts - rec.last_ts > cfg.idle_timeout:
                out.append(rec.close(TERM_IDLE, rec.last_ts))
                rec = None
        if rec is None:
            rec = FlowRecord(key, p, cfg.direction_mode)
            self._table[key] = rec
        else:
            rec.update(p)
        self.stats.packets_metered += 1

        if p.protocol == PROTO_TCP and p.tcp_flags is not None:
            if p.tcp_flags & TCP_RST:
                out.append(rec.close(TERM_RST, p.ts))
                del self._table[key]
            elif rec.fin_complete():
                out.append(rec.close(TERM_FIN, p.ts))
                del self._table[key]

        if self._next_sweep is None:
            self._next_sweep = p.ts + cfg.idle_timeout
        elif p.ts >= self._next_sweep:
            out.extend(self._sweep(p.ts))
            self._next_sweep = p.ts + cfg.idle_timeout
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
    return rec.first_ts, rec.key


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
        cols += ["%s_flag_%s" % (side, name)
                 for name in ("fin", "syn", "rst", "psh", "ack", "urg",
                              "ece", "cwr")]
    return cols


def _dir_csv_values(s: DirStats) -> list[str]:
    derived = {"pkt_len_sum": s.byte_count,
               "header_byte_count": s.byte_count - s.payload_byte_count}
    vals = []
    for f in _DIR_CSV_FIELDS:
        v = derived[f] if f in derived else getattr(s, f)
        if v is None:
            v = 0
        vals.append(repr(float(v)) if isinstance(v, float) else str(v))
    vals += [str(c) for c in s.flag_counts]
    return vals


def write_flow_csv(records: Iterable[FlowRecord], path: str,
                   mode: str) -> int:
    """Dump FlowRecords one row each; returns the row count."""
    count = 0
    with open(path, "w") as fh:
        fh.write(",".join(flow_csv_header(mode)) + "\n")
        for rec in records:
            row = [rec.key.src_ip, str(rec.key.src_port), rec.key.dst_ip,
                   str(rec.key.dst_port), str(rec.key.protocol),
                   repr(rec.window_start), repr(rec.window_end),
                   repr(rec.duration), rec.termination]
            row += _dir_csv_values(rec.fwd)
            if mode == BIDIRECTIONAL:
                row += _dir_csv_values(rec.bwd)
            fh.write(",".join(row) + "\n")
            count += 1
    return count
