import dataclasses
from collections import Counter

import numpy as np
import pytest

from netwarden import flows, pcap
from netwarden.flows import (
    BIDIRECTIONAL,
    FlowMeter,
    MeterConfig,
    UNIDIRECTIONAL,
    meter,
)
from netwarden.pipeline import extract_matrix

from conftest import build_global_header, build_record, golden_syn_frame
from oracles import flow_key_of_oracle, meter_sides_oracle


def pkt(ts, src="10.0.0.1", dst="10.0.0.2", sport=5000, dport=80, proto=6,
        payload=0, flags=pcap.TCP_ACK, window=1000, ttl=64):
    l4 = 20 if proto == 6 else (8 if proto in (17, 1) else 0)
    return pcap.PacketRecord(
        ts=ts, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=proto, link_header_len=14, ip_header_len=20,
        l4_header_len=l4, total_len=14 + 20 + l4 + payload, ttl=ttl,
        payload_len=payload,
        tcp_flags=flags if proto == 6 else None,
        tcp_window=window if proto == 6 else None)


def rev(p, **kw):
    return pkt(kw.pop("ts"), src=p.dst_ip, dst=p.src_ip, sport=p.dst_port,
               dport=p.src_port, proto=p.protocol, **kw)


class TestMeterSettings:
    """A NaN, infinite or non-positive window or idle timeout would meter
    silently with no window or no idle cut; the meter refuses them."""

    @pytest.fixture
    def capture(self, tmp_path):
        path = tmp_path / "one.pcap"
        path.write_bytes(build_global_header()
                         + build_record(10, 0, golden_syn_frame()))
        return str(path)

    @pytest.mark.parametrize("tw", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_time_window_refused(self, capture, tw):
        for mode in ("uni_flow", "bi_flow"):
            with pytest.raises(ValueError, match="time window"):
                extract_matrix(capture, mode, tw=tw)

    @pytest.mark.parametrize("idle", [0.0, -5.0, np.nan])
    def test_bad_idle_timeout_refused(self, capture, idle):
        for tw in (None, 1.0):
            with pytest.raises(ValueError, match="idle timeout"):
                extract_matrix(capture, "bi_flow", tw=tw, idle_timeout=idle)

    def test_good_settings_meter(self, capture):
        X = extract_matrix(capture, "uni_flow", tw=1.0, idle_timeout=np.inf)
        assert X.n == 1


def metered_key(p, mode):
    """The key of the one flow that metering p alone gives."""
    rec, = meter([p], MeterConfig(direction_mode=mode))
    return rec.key


class TestFlowKey:
    def test_bidirectional_direction_insensitive(self):
        a = pkt(0.0)
        b = rev(a, ts=0.1)
        assert metered_key(a, BIDIRECTIONAL) == metered_key(b, BIDIRECTIONAL)

    def test_unidirectional_distinct(self):
        a = pkt(0.0)
        b = rev(a, ts=0.1)
        assert metered_key(a, UNIDIRECTIONAL) != metered_key(b,
                                                             UNIDIRECTIONAL)

    def test_icmp_ports_zero(self):
        p = pkt(0.0, proto=1, sport=0, dport=0)
        key = metered_key(p, UNIDIRECTIONAL)
        assert key.src_port == 0 and key.dst_port == 0
        assert key.protocol == 1

    def test_pure_function(self):
        p = pkt(0.0)
        assert metered_key(p, BIDIRECTIONAL) == metered_key(p, BIDIRECTIONAL)

    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    @pytest.mark.parametrize("tw", [None, 1.0])
    def test_every_key_is_its_first_packets(self, mode, tw):
        """Each emitted record's key is the oracle's key of the packet that
        opened it, on the fuzzed streams; in half of them every third
        packet goes from a host to itself (the bidirectional tie, broken
        on ports)."""
        for seed in range(30):
            ps = random_stream(np.random.default_rng(seed))
            if seed % 2:
                ps = [dataclasses.replace(p, dst_ip=p.src_ip) if i % 3 == 0
                      else p for i, p in enumerate(ps)]
            first = {p.ts: p for p in ps}
            assert len(first) == len(ps)  # a record's window_start names it
            recs = list(meter(ps, MeterConfig(direction_mode=mode,
                                              tw_seconds=tw,
                                              idle_timeout=5.0)))
            assert recs
            for rec in recs:
                assert type(rec.key) is flows.FlowKey
                assert rec.key == flow_key_of_oracle(first[rec.window_start],
                                                     mode)


class TestMeterBasics:
    def test_uni_three_fwd_two_bwd(self):
        ps = [pkt(0.0), pkt(0.1), pkt(0.2),
              rev(pkt(0.0), ts=0.3), rev(pkt(0.0), ts=0.4)]
        recs = list(meter(ps, MeterConfig(direction_mode=UNIDIRECTIONAL)))
        counts = sorted(r.pkt_count for r in recs)
        assert counts == [2, 3]

    def test_bi_same_input_single_flow(self):
        ps = [pkt(0.0), pkt(0.1), pkt(0.2),
              rev(pkt(0.0), ts=0.3), rev(pkt(0.0), ts=0.4)]
        recs = list(meter(ps, MeterConfig(direction_mode=BIDIRECTIONAL)))
        assert len(recs) == 1
        assert recs[0].fwd.pkt_count == 3
        assert recs[0].bwd.pkt_count == 2

    @pytest.mark.parametrize("first_from_low", [True, False])
    def test_bi_forward_is_the_first_senders_side(self, first_from_low):
        low = pkt(0.0)  # 10.0.0.1:5000 sorts below 10.0.0.2:80
        if first_from_low:
            ps = [low, pkt(0.1), rev(low, ts=0.2)]
        else:
            ps = [rev(low, ts=0.0), rev(low, ts=0.1), pkt(0.2)]
        rec, = meter(ps, MeterConfig(direction_mode=BIDIRECTIONAL))
        assert rec.fwd_is_low is first_from_low
        assert (rec.fwd.pkt_count, rec.bwd.pkt_count) == (2, 1)

    def test_tumbling_window_cut(self):
        # tw=1: packets at 0.0, 0.5 and 1.2 -> [0,1) with 2, then [1.2,..)
        ps = [pkt(0.0), pkt(0.5), pkt(1.2)]
        recs = list(meter(ps, MeterConfig(direction_mode=UNIDIRECTIONAL,
                                          tw_seconds=1.0)))
        assert len(recs) == 2
        first, second = sorted(recs, key=lambda r: r.window_start)
        assert first.pkt_count == 2
        assert first.window_start == 0.0
        assert first.window_end == 1.0
        assert first.termination == flows.TERM_WINDOW
        assert second.pkt_count == 1
        assert second.window_start == 1.2

    def test_idle_timeout_cut(self):
        ps = [pkt(0.0), pkt(0.1), pkt(30.0)]
        recs = list(meter(ps, MeterConfig(direction_mode=UNIDIRECTIONAL,
                                          idle_timeout=15.0)))
        assert len(recs) == 2
        assert recs[0].termination == flows.TERM_IDLE
        assert recs[0].pkt_count == 2

    def test_rst_cuts_immediately(self):
        ps = [pkt(0.0), pkt(0.1, flags=pcap.TCP_RST), pkt(0.2)]
        recs = list(meter(ps, MeterConfig(direction_mode=UNIDIRECTIONAL)))
        assert len(recs) == 2
        assert recs[0].termination == flows.TERM_RST
        assert recs[0].pkt_count == 2

    def test_fin_unidirectional_single_fin(self):
        ps = [pkt(0.0), pkt(0.1, flags=pcap.TCP_FIN | pcap.TCP_ACK)]
        recs = list(meter(ps, MeterConfig(direction_mode=UNIDIRECTIONAL)))
        assert recs[0].termination == flows.TERM_FIN

    def test_fin_bidirectional_needs_both(self):
        a = pkt(0.0, flags=pcap.TCP_FIN | pcap.TCP_ACK)
        cfg = MeterConfig(direction_mode=BIDIRECTIONAL)
        recs = list(meter([a, rev(a, ts=0.1, flags=pcap.TCP_ACK)], cfg))
        assert recs[0].termination == flows.TERM_CAPTURE_END
        recs = list(meter(
            [a, rev(a, ts=0.1, flags=pcap.TCP_FIN | pcap.TCP_ACK)], cfg))
        assert recs[0].termination == flows.TERM_FIN

    def test_capture_end_flush(self):
        recs = list(meter([pkt(0.0)], MeterConfig()))
        assert len(recs) == 1
        assert recs[0].termination == flows.TERM_CAPTURE_END

    def test_duration_bounded_by_window(self):
        ps = [pkt(t / 10.0) for t in range(25)]
        recs = list(meter(ps, MeterConfig(tw_seconds=1.0)))
        assert all(r.duration <= 1.0 for r in recs)
        assert all(r.window_end >= r.window_start for r in recs)

    def test_windows_never_overlap(self):
        rng = np.random.default_rng(3)
        t = 0.0
        ps = []
        for _ in range(200):
            t += float(rng.uniform(0, 0.4))
            ps.append(pkt(t))
        recs = list(meter(ps, MeterConfig(tw_seconds=1.0)))
        spans = sorted((r.window_start, r.window_end) for r in recs)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-12

    def test_clock_skew_dropped(self):
        m = FlowMeter(MeterConfig())
        m.feed(pkt(10.0))
        m.feed(pkt(3.0))  # far in the past
        assert m.stats.clock_skew_dropped == 1
        assert m.stats.packets_metered == 1


def random_stream(rng, n=120):
    ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
    ports = [80, 443, 5000]
    t = 0.0
    out = []
    for _ in range(n):
        t += float(rng.uniform(0, 0.8))
        proto = int(rng.choice([6, 17]))
        src, dst = rng.choice(ips, size=2, replace=False)
        out.append(pkt(t, src=str(src), dst=str(dst),
                       sport=int(rng.choice(ports)),
                       dport=int(rng.choice(ports)), proto=proto,
                       payload=int(rng.integers(0, 300)),
                       flags=int(rng.integers(0, 64)) if proto == 6 else 0))
    return out


def metered_sides(ps, mode):
    """The multiset of (key, forward count, backward count, termination)
    that metering ps gives with no time window and no idle cut."""
    recs = meter(ps, MeterConfig(direction_mode=mode, idle_timeout=np.inf))
    return Counter((tuple(r.key), r.fwd.pkt_count,
                    r.bwd.pkt_count if r.bwd else 0, r.termination)
                   for r in recs)


class TestMeterMatchesOracle:
    """The meter's sides and TCP cuts against plain per-key bookkeeping."""

    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    def test_fuzzed_streams(self, mode):
        for seed in range(30):
            ps = random_stream(np.random.default_rng(seed))
            assert metered_sides(ps, mode) \
                == Counter(meter_sides_oracle(ps, mode)), seed

    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    def test_one_side_sending_fin_twice(self, mode):
        fin = pcap.TCP_FIN | pcap.TCP_ACK
        a = pkt(0.0, flags=fin)
        ps = [a, pkt(0.1, flags=fin), rev(a, ts=0.2, flags=pcap.TCP_ACK)]
        got = metered_sides(ps, mode)
        assert got == Counter(meter_sides_oracle(ps, mode))
        if mode == BIDIRECTIONAL:  # the other side sent no FIN: still open
            key = flow_key_of_oracle(a, "bi")
            assert got == Counter([(key, 2, 1, flows.TERM_CAPTURE_END)])


def _leaves(value):
    """Every plain value reachable from a record slot."""
    if isinstance(value, flows.DirStats):
        for name in value.__slots__:
            yield from _leaves(getattr(value, name))
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


class TestRecordPrivacy:
    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    def test_addresses_live_only_in_the_key(self, mode):
        ps = random_stream(np.random.default_rng(7))
        addresses = {p.src_ip for p in ps} | {p.dst_ip for p in ps}
        recs = list(meter(ps, MeterConfig(direction_mode=mode,
                                          tw_seconds=1.0)))
        assert recs
        for rec in recs:
            assert set(rec.key[:2]) <= addresses
            for name in flows.FlowRecord.__slots__:
                if name != "key":
                    assert not addresses & set(_leaves(getattr(rec, name))), \
                        name


class TestConservation:
    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    @pytest.mark.parametrize("tw", [None, 1.0, 5.0])
    def test_packet_conservation_fuzzed(self, mode, tw):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            ps = random_stream(rng)
            recs = list(meter(ps, MeterConfig(direction_mode=mode,
                                              tw_seconds=tw,
                                              idle_timeout=5.0)))
            total = sum(r.pkt_count for r in recs)
            assert total == len(ps)

    def test_bi_equals_sum_of_uni(self):
        # with no windowing and a large idle timeout, per-key totals match
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            ps = random_stream(rng)
            cfg_u = MeterConfig(direction_mode=UNIDIRECTIONAL,
                                idle_timeout=1e9)
            cfg_b = MeterConfig(direction_mode=BIDIRECTIONAL,
                                idle_timeout=1e9)
            uni: dict = {}
            for r in meter(ps, cfg_u):
                k = flows.FlowKey(*_canon(r.key))
                uni[k] = uni.get(k, 0) + r.pkt_count
            bi: dict = {}
            for r in meter(ps, cfg_b):
                bi[r.key] = bi.get(r.key, 0) \
                    + r.fwd.pkt_count + r.bwd.pkt_count
            assert uni == bi


def _canon(key):
    a = (key.src_ip, key.src_port)
    b = (key.dst_ip, key.dst_port)
    if a <= b:
        return (a[0], b[0], a[1], b[1], key.protocol)
    return (b[0], a[0], b[1], a[1], key.protocol)


class TestAccumulators:
    def test_iat_stats(self):
        ps = [pkt(0.0), pkt(0.2), pkt(0.6)]
        rec = list(meter(ps, MeterConfig()))[0]
        assert rec.fwd.pkt_count == 3  # so two gaps
        assert rec.fwd.iat_min == pytest.approx(0.2)
        assert rec.fwd.iat_max == pytest.approx(0.4)
        assert rec.fwd.iat_sum == pytest.approx(0.6)

    def test_flag_counters(self):
        ps = [pkt(0.0, flags=pcap.TCP_SYN), pkt(0.1, flags=pcap.TCP_SYN),
              pkt(0.2, flags=pcap.TCP_ACK), pkt(0.3, flags=pcap.TCP_ACK),
              pkt(0.4, flags=pcap.TCP_ACK), pkt(0.5, flags=pcap.TCP_ACK),
              pkt(0.6, flags=pcap.TCP_ACK),
              pkt(0.7, flags=pcap.TCP_FIN)]
        rec = list(meter(ps, MeterConfig()))[0]
        counts = rec.fwd.flag_counts
        assert counts[1] == 2  # syn
        assert counts[4] == 5  # ack
        assert counts[0] == 1  # fin

    def test_flag_counts_of_every_flag_byte(self):
        for flags in range(256):
            rec, = meter([pkt(0.0, flags=flags)], MeterConfig())
            assert rec.fwd.flag_counts == [flags >> bit & 1
                                           for bit in range(8)], flags

    def test_init_window_first_seen(self):
        ps = [pkt(0.0, window=100), pkt(0.1, window=999)]
        rec = list(meter(ps, MeterConfig()))[0]
        assert rec.fwd.init_window == 100

    def test_ttl_and_bytes(self):
        ps = [pkt(0.0, payload=10, ttl=60), pkt(0.1, payload=30, ttl=64)]
        rec = list(meter(ps, MeterConfig()))[0]
        assert rec.fwd.ttl_min == 60 and rec.fwd.ttl_max == 64
        assert rec.fwd.byte_count == (54 + 10) + (54 + 30)
        assert rec.fwd.payload_byte_count == 40
        assert rec.fwd.byte_count - rec.fwd.payload_byte_count == 108
