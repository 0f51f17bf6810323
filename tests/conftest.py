import os
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from netwarden import synth
from netwarden.synth import ScenarioSpec

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a
# property-test failure in CI reproduces locally with the same setting
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def build_global_header(magic=0xA1B2C3D4, endian="<", link_type=1) -> bytes:
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535,
                       link_type)


def build_record(ts_sec, ts_usec, frame, endian="<") -> bytes:
    return struct.pack(endian + "IIII", ts_sec, ts_usec, len(frame),
                       len(frame)) + frame


def eth_header(ethertype=0x0800) -> bytes:
    return b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", ethertype)


def ipv4_header(total_length, protocol, src=b"\x0a\x00\x00\x01",
                dst=b"\x0a\x00\x00\x02", ttl=64, ihl=5,
                frag_field=0) -> bytes:
    hdr = struct.pack("!BBHHHBBH4s4s", 0x40 | ihl, 0, total_length, 1,
                      frag_field, ttl, protocol, 0, src, dst)
    return hdr + b"\x00" * (ihl * 4 - 20)


def tcp_header(sport=5000, dport=80, flags=0x02, window=14600,
               offset_words=5) -> bytes:
    hdr = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, offset_words << 4,
                      flags, window, 0, 0)
    return hdr + b"\x00" * (offset_words * 4 - 20)


def udp_header(sport=4000, dport=53, payload_len=0) -> bytes:
    return struct.pack("!HHHH", sport, dport, 8 + payload_len, 0)


def golden_syn_frame() -> bytes:
    """Hand-built 54-byte Ethernet/IPv4/TCP SYN (14 + 20 + 20)."""
    return eth_header() + ipv4_header(40, 6) + tcp_header()


def golden_udp_frame() -> bytes:
    """Hand-built 42-byte Ethernet/IPv4/UDP datagram (14 + 20 + 8)."""
    return eth_header() + ipv4_header(28, 17) + udp_header()


@pytest.fixture
def syn_frame():
    return golden_syn_frame()


@pytest.fixture
def udp_frame():
    return golden_udp_frame()


def benign_scenario(duration=600.0, devices=6, seed=101) -> ScenarioSpec:
    return ScenarioSpec(duration=duration, devices=devices, seed=seed)


def mixed_scenario(duration=300.0, devices=6, seed=202) -> ScenarioSpec:
    spec = ScenarioSpec(duration=duration, devices=devices, seed=seed)
    spec.scan.enabled = True
    spec.scan.start = 40.0
    spec.scan.targets = 200
    spec.download.enabled = True
    spec.download.start = 90.0
    spec.c2.enabled = True
    spec.c2.start = 10.0
    spec.c2.bots = 2
    spec.heartbeat.enabled = True
    spec.heartbeat.start = 20.0
    spec.ddos.enabled = True
    spec.ddos.start = 200.0
    spec.ddos.duration = 2.0
    spec.ddos.rate = 800.0
    spec.ddos.bots = 2
    return spec


def small_mixed(seed=0) -> ScenarioSpec:
    """A one-minute, four-device capture with every attack stage on."""
    spec = ScenarioSpec(duration=60.0, devices=4, seed=seed)
    spec.scan.enabled = True
    spec.scan.start = 5.0
    spec.scan.targets = 100
    spec.download.enabled = True
    spec.download.start = 20.0
    spec.c2.enabled = True
    spec.heartbeat.enabled = True
    spec.ddos.enabled = True
    spec.ddos.start = 40.0
    spec.ddos.duration = 1.0
    spec.ddos.rate = 500.0
    return spec


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Shared train (benign-only) and test (mixed) corpora."""
    d = tmp_path_factory.mktemp("corpora")
    synth.generate_corpus(benign_scenario(), str(d / "train.pcap"),
                          str(d / "train.labels.csv"))
    synth.generate_corpus(mixed_scenario(), str(d / "test.pcap"),
                          str(d / "test.labels.csv"))
    return d
