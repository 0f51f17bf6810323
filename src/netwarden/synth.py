"""Labeled synthetic IoT traffic: benign device chatter plus the staged
botnet lifecycle (scan, infection download, C2 beaconing, heartbeat,
DDoS flood).

Every generated packet is covered by exactly one row of the sidecar label
file (directed 5-tuple + time window). Addresses come from documentation
ranges only, so a replayed capture can never collide with real hosts.
Protocol realism stops at headers, sizes and timing; payloads are zeros.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpec
from .evaluation import (LABEL_NORMAL, LABEL_VOCABULARY, LabelRow,
                         write_label_file)
from .pcap import (
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    quantize_us,
    write_pcap,
)
from .settings import SEED, Setting, check_fields

BASE_TIME = 1_700_000_000.0

DEVICE_NET = "192.0.2."          # devices .10 and up
HUB_IP = "198.51.100.1"          # telemetry collector
MEDIA_IP = "198.51.100.2"        # media sink
C2_IP = "203.0.113.66"
HEARTBEAT_IP = "203.0.113.67"
DOWNLOAD_IP = "203.0.113.80"
DDOS_VICTIM_IP = "203.0.113.9"
SCAN_NET = "203.0.113."

TTL_DEVICE = 64
TTL_HUB = 62
TTL_MEDIA = 60
TTL_C2 = 44
TTL_HEARTBEAT = 45
TTL_DOWNLOAD = 47

WIN_DEVICE = 65535
WIN_HUB = 29200
WIN_C2 = 16384
WIN_DOWNLOAD = 28960
WIN_SCAN_PROBE = 14600

# the attack stages' labels, in vocabulary order ("Attack" is unused)
_, LBL_DDOS, LBL_SCAN, _, LBL_C2, LBL_DOWNLOAD, LBL_HEARTBEAT = \
    LABEL_VOCABULARY


_SWITCH = Setting(None, False, choices=(True, False))
_BOTS = Setting(int, 1, "[1, inf)")  # and at most `devices`


@dataclass
class BenignSpec:
    """A benign traffic source: on unless disabled."""
    enabled: bool = replace(_SWITCH, default=True).field()


@dataclass
class StageSpec:
    """A botnet stage: off unless enabled, from `start` seconds on."""
    enabled: bool = _SWITCH.field()
    start: float = Setting(float, 0.0, "[0, inf)", unit="seconds").field()


@dataclass
class ScanSpec(StageSpec):
    targets: int = Setting(int, 100, "[1, 480]").field()


@dataclass
class C2Spec(StageSpec):
    bots: int = _BOTS.field()


@dataclass
class DdosSpec(StageSpec):
    duration: float = Setting(float, 2.0, "(0, inf)", unit="seconds").field()
    rate: float = Setting(float, 5000.0, "(0, inf)",
                          unit="packets/s").field()
    bots: int = _BOTS.field()


@dataclass
class ScenarioSpec:
    duration: float = Setting(float, 60.0, "(0, inf)", unit="seconds").field()
    devices: int = Setting(int, 5, "[1, 200]").field()
    seed: int = SEED.field()
    telemetry: BenignSpec = field(default_factory=BenignSpec)
    media: BenignSpec = field(default_factory=BenignSpec)
    scan: ScanSpec = field(default_factory=ScanSpec)
    download: StageSpec = field(default_factory=StageSpec)
    c2: C2Spec = field(default_factory=C2Spec)
    heartbeat: StageSpec = field(default_factory=StageSpec)
    ddos: DdosSpec = field(default_factory=DdosSpec)

    def validate(self) -> None:
        """Raise InvalidSpec naming the first setting out of its range."""
        check_fields(self, InvalidSpec)
        for name, stage in (("c2", self.c2), ("ddos", self.ddos)):
            if stage.bots > self.devices:
                raise InvalidSpec("%s.bots must be at most devices (%d), got "
                                  "%r" % (name, self.devices, stage.bots))
        packets = sum(bound(self) for name, bound in _MAX_PACKETS.items()
                      if getattr(self, name).enabled)
        if packets > MAX_PACKETS:
            raise InvalidSpec("packets must be at most %d, got %r"
                              % (MAX_PACKETS, packets))


def device_ip(i: int) -> str:
    return DEVICE_NET + str(10 + i)


def _tcp(ts, src, dst, sport, dport, flags, payload, ttl, window):
    return PacketRecord(
        ts=quantize_us(ts), src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, protocol=PROTO_TCP, link_header_len=14,
        ip_header_len=20, l4_header_len=20, total_len=54 + payload, ttl=ttl,
        payload_len=payload, tcp_flags=flags, tcp_window=window)


def _udp(ts, src, dst, sport, dport, payload, ttl):
    return PacketRecord(
        ts=quantize_us(ts), src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, protocol=PROTO_UDP, link_header_len=14,
        ip_header_len=20, l4_header_len=8, total_len=42 + payload, ttl=ttl,
        payload_len=payload)


def _telemetry(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    out = []
    for i in range(spec.devices):
        dev = device_ip(i)
        t = float(rng.uniform(0.0, 5.0))
        use_tcp = i % 2 == 1
        tcp_sport = 33000 + i
        while t < spec.duration:
            ts = BASE_TIME + t
            if use_tcp:
                size = int(rng.integers(36, 44))
                out.append(_tcp(ts, dev, HUB_IP, tcp_sport, 8883,
                                TCP_PSH | TCP_ACK, size, TTL_DEVICE,
                                WIN_DEVICE))
                out.append(_tcp(ts + float(rng.uniform(0.002, 0.008)),
                                HUB_IP, dev, 8883, tcp_sport, TCP_ACK, 0,
                                TTL_HUB, WIN_HUB))
            else:
                sport = int(rng.integers(40000, 60000))
                size = int(rng.integers(24, 64))
                out.append(_udp(ts, dev, HUB_IP, sport, 5683, size,
                                TTL_DEVICE))
                out.append(_udp(ts + float(rng.uniform(0.002, 0.010)),
                                HUB_IP, dev, 5683, sport, 16, TTL_HUB))
            t += 5.0 * (1.0 + 0.1 * float(rng.uniform(-1.0, 1.0)))
    return out


def _media(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    out = []
    for i in range(0, spec.devices, 3):  # every third device streams media
        dev = device_ip(i)
        t = float(rng.uniform(0.0, 20.0))
        while t < spec.duration:
            sport = int(rng.integers(50000, 60000))
            n = int(rng.integers(20, 60))
            ts = BASE_TIME + t
            for k in range(n):
                size = int(rng.integers(1150, 1250))
                out.append(_udp(ts, dev, MEDIA_IP, sport, 5004, size,
                                TTL_DEVICE))
                ts += 0.002 * (1.0 + 0.2 * float(rng.uniform(-1.0, 1.0)))
            t += 20.0 * (1.0 + 0.25 * float(rng.uniform(-1.0, 1.0)))
    return out


_SCAN_RESERVED = {9, 66, 67, 80}


def _scan_targets(n: int):
    targets = []
    port_cycle = (23, 2323)
    host = 1
    for i in range(n):
        while host in _SCAN_RESERVED or host > 254:
            if host > 254:
                host = 1
                port_cycle = (port_cycle[1], port_cycle[0])
            else:
                host += 1
        targets.append((SCAN_NET + str(host), port_cycle[i % 2]))
        if i % 2 == 1:
            host += 1
    return targets


def _scan(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    cfg = spec.scan
    bot = device_ip(0)
    out = []
    t = cfg.start
    for idx, (ip, port) in enumerate(_scan_targets(cfg.targets)):
        ts = BASE_TIME + t
        sport = 50000 + (idx % 8000)
        out.append(_tcp(ts, bot, ip, sport, port, TCP_SYN, 0, TTL_DEVICE,
                        WIN_SCAN_PROBE))
        if float(rng.random()) < 0.3:
            out.append(_tcp(ts + 1.0, bot, ip, sport, port, TCP_SYN, 0,
                            TTL_DEVICE, WIN_SCAN_PROBE))
        t += (1.0 / 50.0) * (1.0 + 0.1 * float(rng.uniform(-1.0, 1.0)))
    return out


def _download(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    bot = device_ip(0)
    sport = 44001
    t = BASE_TIME + spec.download.start
    out = [
        _tcp(t, bot, DOWNLOAD_IP, sport, 80, TCP_SYN, 0, TTL_DEVICE,
             WIN_DEVICE),
        _tcp(t + 0.035, DOWNLOAD_IP, bot, 80, sport, TCP_SYN | TCP_ACK, 0,
             TTL_DOWNLOAD, WIN_DOWNLOAD),
        _tcp(t + 0.070, bot, DOWNLOAD_IP, sport, 80, TCP_ACK, 0, TTL_DEVICE,
             WIN_DEVICE),
    ]
    ts = t + 0.080
    for k in range(150):
        flags = TCP_PSH | TCP_ACK if k % 8 == 0 else TCP_ACK
        out.append(_tcp(ts, DOWNLOAD_IP, bot, 80, sport, flags, 1460,
                        TTL_DOWNLOAD, WIN_DOWNLOAD))
        if k % 2 == 1:
            out.append(_tcp(ts + 0.0004, bot, DOWNLOAD_IP, sport, 80,
                            TCP_ACK, 0, TTL_DEVICE, WIN_DEVICE))
        ts += 0.002 * (1.0 + 0.3 * float(rng.uniform(-1.0, 1.0)))
    out.append(_tcp(ts + 0.010, DOWNLOAD_IP, bot, 80, sport,
                    TCP_FIN | TCP_ACK, 0, TTL_DOWNLOAD, WIN_DOWNLOAD))
    out.append(_tcp(ts + 0.020, bot, DOWNLOAD_IP, sport, 80,
                    TCP_FIN | TCP_ACK, 0, TTL_DEVICE, WIN_DEVICE))
    return out


def _c2(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    cfg = spec.c2
    out = []
    for b in range(cfg.bots):
        dev = device_ip(min(1 + b, spec.devices - 1))
        sport = 45000 + b
        t = cfg.start + float(rng.uniform(0.0, 30.0))
        while t < spec.duration:
            ts = BASE_TIME + t
            req = int(rng.integers(24, 40))
            rep = int(rng.integers(40, 56))
            out.append(_tcp(ts, dev, C2_IP, sport, 48101, TCP_PSH | TCP_ACK,
                            req, TTL_DEVICE, WIN_DEVICE))
            out.append(_tcp(ts + 0.045, C2_IP, dev, 48101, sport,
                            TCP_PSH | TCP_ACK, rep, TTL_C2, WIN_C2))
            out.append(_tcp(ts + 0.050, dev, C2_IP, sport, 48101, TCP_ACK,
                            0, TTL_DEVICE, WIN_DEVICE))
            t += 30.0 * (1.0 + 0.1 * float(rng.uniform(-1.0, 1.0)))
    return out


def _heartbeat(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    dev = device_ip(min(2, spec.devices - 1))
    out = []
    t = spec.heartbeat.start + float(rng.uniform(0.0, 60.0))
    while t < spec.duration:
        ts = BASE_TIME + t
        out.append(_tcp(ts, dev, HEARTBEAT_IP, 45100, 48102,
                        TCP_PSH | TCP_ACK, 4, TTL_DEVICE, WIN_DEVICE))
        out.append(_tcp(ts + 0.030, HEARTBEAT_IP, dev, 48102, 45100,
                        TCP_PSH | TCP_ACK, 4, TTL_HEARTBEAT, WIN_C2))
        t += 60.0 * (1.0 + 0.05 * float(rng.uniform(-1.0, 1.0)))
    return out


def _ddos(spec: ScenarioSpec, rng) -> list[PacketRecord]:
    cfg = spec.ddos
    out = []
    total = int(cfg.rate * cfg.duration)
    step = 1.0 / cfg.rate
    t = cfg.start
    for k in range(total):
        bot_idx = k % cfg.bots
        dev = device_ip(bot_idx)
        out.append(_udp(BASE_TIME + t, dev, DDOS_VICTIM_IP,
                        55000 + bot_idx, 80, 512, TTL_DEVICE))
        t += step * (1.0 + 0.05 * float(rng.uniform(-1.0, 1.0)))
    return out


# Most packets each stage can generate, from its shortest gap between
# bursts and its largest burst (a stage's first burst comes at t >= 0).
_MAX_PACKETS = {
    "telemetry": lambda s: s.devices * 2 * (s.duration / 4.5 + 1),
    "media": lambda s: -(-s.devices // 3) * 59 * (s.duration / 15.0 + 1),
    "scan": lambda s: 2 * s.scan.targets,
    "download": lambda s: 230,
    "c2": lambda s: s.c2.bots * 3 * (s.duration / 27.0 + 1),
    "heartbeat": lambda s: 2 * (s.duration / 57.0 + 1),
    "ddos": lambda s: s.ddos.rate * s.ddos.duration,
}
MAX_PACKETS = 2_000_000  # about 1 GB of PacketRecords, at 0.5 kB each

_STAGES = (
    ("telemetry", _telemetry, LABEL_NORMAL),
    ("media", _media, LABEL_NORMAL),
    ("scan", _scan, LBL_SCAN),
    ("download", _download, LBL_DOWNLOAD),
    ("c2", _c2, LBL_C2),
    ("heartbeat", _heartbeat, LBL_HEARTBEAT),
    ("ddos", _ddos, LBL_DDOS),
)


def generate(spec: ScenarioSpec):
    """Produce (packets sorted by time, label rows).

    Each stage talks to stage-specific remote endpoints, so every directed
    5-tuple belongs to exactly one stage and gets exactly one label row
    spanning its first..last packet.
    """
    spec.validate()
    packets: list[tuple[float, int, PacketRecord]] = []
    spans: dict = {}
    seq = 0
    for stage_idx, (name, fn, label) in enumerate(_STAGES):
        if not getattr(spec, name).enabled:
            continue
        rng = np.random.default_rng([spec.seed, stage_idx])
        for p in fn(spec, rng):
            packets.append((p.ts, seq, p))
            seq += 1
            key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
            span = spans.get(key)
            if span is None:
                spans[key] = [p.ts, p.ts, label]
            else:
                if span[2] != label:
                    raise InvalidSpec(
                        "5-tuple %r generated by two stages" % (key,))
                span[0] = min(span[0], p.ts)
                span[1] = max(span[1], p.ts)
    packets.sort(key=lambda item: item[:2])
    label_rows = [
        LabelRow(src_ip=k[0], dst_ip=k[1], src_port=k[2], dst_port=k[3],
                 protocol=k[4], window_start=v[0] - 1e-6,
                 window_end=v[1] + 1e-6, label=v[2])
        for k, v in sorted(spans.items(), key=lambda kv: (kv[1][0], kv[0]))
    ]
    return [p for _, _, p in packets], label_rows


def generate_corpus(spec: ScenarioSpec, pcap_path: str,
                    labels_path: str) -> dict:
    """Write the PCAP and sidecar label file; returns a small summary."""
    packets, label_rows = generate(spec)
    write_pcap(packets, pcap_path)
    write_label_file(label_rows, labels_path)
    by_key = {(r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol):
              r.label for r in label_rows}
    counts = Counter(by_key[p.src_ip, p.dst_ip, p.src_port, p.dst_port,
                            p.protocol] for p in packets)
    return {"packets": len(packets), "label_rows": len(label_rows),
            "packets_by_label": dict(sorted(counts.items()))}
