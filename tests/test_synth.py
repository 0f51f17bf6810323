import dataclasses
import hashlib
import math

import numpy as np
import pytest

from netwarden import pcap, synth
from netwarden.errors import InvalidSpec
from netwarden.evaluation import LabelIndex, read_label_file
from netwarden.flows import MeterConfig, meter
from netwarden.synth import ScenarioSpec

from conftest import small_mixed


class TestGenerate:
    def test_benign_only_labels(self):
        spec = ScenarioSpec(duration=30.0, devices=3, seed=1)
        _, rows = synth.generate(spec)
        assert {r.label for r in rows} == {"Normal"}

    def test_deterministic_under_seed(self):
        a_pkts, a_rows = synth.generate(small_mixed(seed=5))
        b_pkts, b_rows = synth.generate(small_mixed(seed=5))
        assert a_pkts == b_pkts
        assert a_rows == b_rows

    def test_distinct_seeds_distinct_captures(self):
        a_pkts, _ = synth.generate(small_mixed(seed=1))
        b_pkts, _ = synth.generate(small_mixed(seed=2))
        assert a_pkts != b_pkts

    def test_every_packet_covered_by_exactly_one_row(self):
        pkts, rows = synth.generate(small_mixed())
        index: dict = {}
        for r in rows:
            key = (r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol)
            index.setdefault(key, []).append(r)
        for p in pkts:
            key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
            hits = [r for r in index.get(key, ())
                    if r.window_start <= p.ts <= r.window_end]
            assert len(hits) == 1, (key, p.ts)

    def test_timestamps_sorted(self):
        pkts, _ = synth.generate(small_mixed())
        ts = [p.ts for p in pkts]
        assert ts == sorted(ts)

    def test_heartbeat_payload_tiny(self):
        spec = ScenarioSpec(duration=180.0, devices=3, seed=3)
        spec.telemetry.enabled = False
        spec.media.enabled = False
        spec.heartbeat.enabled = True
        pkts, rows = synth.generate(spec)
        assert pkts, "heartbeat stage produced no packets"
        assert all(r.label == "HeartBeat" for r in rows)
        assert all(p.payload_len <= 8 for p in pkts)

    def test_scan_produces_distinct_small_flows(self):
        spec = ScenarioSpec(duration=30.0, devices=3, seed=4)
        spec.telemetry.enabled = False
        spec.media.enabled = False
        spec.scan.enabled = True
        spec.scan.targets = 100
        pkts, _ = synth.generate(spec)
        recs = list(meter(iter(pkts), MeterConfig(direction_mode="uni")))
        assert len({r.key for r in recs}) >= 100
        assert all(r.pkt_count <= 2 for r in recs)
        assert all(p.tcp_flags == pcap.TCP_SYN for p in pkts)

    def test_ddos_rate_dominates_beacon_rate(self):
        # defaults: ddos >= 100x the c2 beacon packet rate
        spec = ScenarioSpec(duration=120.0, devices=3, seed=5)
        spec.telemetry.enabled = False
        spec.media.enabled = False
        spec.c2.enabled = True
        spec.ddos.enabled = True
        spec.ddos.duration = 1.0  # default rate, short burst
        pkts, _ = synth.generate(spec)
        ddos = [p for p in pkts if p.dst_ip == synth.DDOS_VICTIM_IP]
        c2 = [p for p in pkts
              if synth.C2_IP in (p.src_ip, p.dst_ip)]
        ddos_rate = len(ddos) / spec.ddos.duration
        c2_rate = len(c2) / spec.duration
        assert ddos_rate >= 100.0 * c2_rate

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            synth.generate(ScenarioSpec(duration=-1.0))
        with pytest.raises(InvalidSpec):
            synth.generate(ScenarioSpec(devices=0))
        bad = ScenarioSpec()
        bad.scan.enabled = True
        bad.scan.targets = 10_000
        with pytest.raises(InvalidSpec):
            synth.generate(bad)


def settings(spec):
    """(dotted name, owner, field name) of every scenario setting."""
    out = []
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if dataclasses.is_dataclass(value):
            out += [(f.name + "." + g.name, value, g.name)
                    for g in dataclasses.fields(value)]
        else:
            out.append((f.name, spec, f.name))
    return out


def with_setting(name, value, **top):
    spec = ScenarioSpec(**top)
    for dotted, owner, attr in settings(spec):
        if dotted == name:
            setattr(owner, attr, value)
            return spec
    raise KeyError(name)


class TestSpecChecks:
    def test_twenty_settings(self):
        assert len(settings(ScenarioSpec())) == 20

    @pytest.mark.parametrize("name", [n for n, _, _ in
                                      settings(ScenarioSpec())])
    def test_every_setting_is_checked(self, name):
        with pytest.raises(InvalidSpec, match="^%s must" % name):
            with_setting(name, float("nan")).validate()

    @pytest.mark.parametrize("name, value", [
        ("duration", math.inf), ("duration", 0.0), ("duration", "60"),
        ("devices", 2.5), ("devices", 0), ("devices", 201),
        ("devices", True), ("seed", -1), ("seed", 1.5),
        ("c2.enabled", "no"), ("scan.enabled", 1), ("media.enabled", None),
        ("ddos.start", -1.0), ("scan.start", math.inf),
        ("scan.targets", 0), ("scan.targets", 481), ("c2.bots", 0),
        ("c2.bots", 6), ("c2.bots", 2.0), ("ddos.bots", 6),
        ("ddos.rate", 0.0), ("ddos.rate", math.inf),
        ("ddos.duration", -2.0),
    ])
    def test_bad_value_raises(self, name, value):
        # the default spec has 5 devices; an infinite duration is only
        # validated, never generated
        with pytest.raises(InvalidSpec, match="^%s must" % name):
            with_setting(name, value).validate()

    def test_bounds_are_accepted(self):
        spec = with_setting("scan.targets", 480, devices=200, seed=0)
        spec.c2.bots = spec.ddos.bots = 200
        spec.ddos.start = 0
        spec.validate()
        with_setting("c2.bots", np.int64(1), devices=np.int64(1)).validate()

    def test_ddos_bots_beyond_devices_refused(self):
        # the generator used to clamp them to the device count
        spec = with_setting("ddos.bots", 3, devices=2)
        spec.ddos.enabled = True
        with pytest.raises(InvalidSpec):
            synth.generate(spec)

    @pytest.mark.parametrize("stage, settings", [
        ("ddos", {"rate": 1e9, "duration": 1e3}),
        ("ddos", {"rate": 1e200, "duration": 1e200}),
        ("telemetry", {}),
        ("c2", {"bots": 5}),
    ])
    def test_packet_count_is_capped_before_generating(self, stage, settings):
        # validated only: these would need gigabytes or more
        spec = ScenarioSpec(duration=1e3 if stage == "ddos" else 1e7)
        spec.telemetry.enabled = stage == "telemetry"
        spec.media.enabled = False
        getattr(spec, stage).enabled = True
        for key, value in settings.items():
            setattr(getattr(spec, stage), key, value)
        with pytest.raises(InvalidSpec, match="^packets must be at most"):
            spec.validate()

    @pytest.mark.parametrize("stage", [name for name, _, _ in synth._STAGES])
    def test_packet_bound_holds(self, stage):
        spec = ScenarioSpec(duration=120.0, devices=7, seed=3)
        for name, _, _ in synth._STAGES:
            getattr(spec, name).enabled = name == stage
        spec.c2.bots = spec.ddos.bots = 3
        spec.ddos.duration = 0.5
        packets, _ = synth.generate(spec)
        assert 0 < len(packets) <= synth._MAX_PACKETS[stage](spec)


class TestCorpusFiles:
    def test_round_trip_through_pcap(self, tmp_path):
        spec = small_mixed(seed=7)
        pkts, _ = synth.generate(spec)
        path = str(tmp_path / "c.pcap")
        pcap.write_pcap(pkts, path)
        back = list(pcap.open_capture(path))
        assert back == pkts

    def test_generate_corpus_files(self, tmp_path):
        spec = small_mixed(seed=8)
        summary = synth.generate_corpus(spec, str(tmp_path / "x.pcap"),
                                        str(tmp_path / "x.labels.csv"))
        rows = read_label_file(str(tmp_path / "x.labels.csv"))
        assert summary["label_rows"] == len(rows)
        assert summary["packets"] == sum(
            summary["packets_by_label"].values())
        labels = set(summary["packets_by_label"])
        assert labels == {"Normal", "Scan", "Download", "C&C", "HeartBeat",
                          "DDoS"}

    def test_corpus_bytes_pinned(self, tmp_path):
        # the capture and label bytes are a contract (README, "What a synth
        # capture holds"); a change to either shows here first
        synth.generate_corpus(small_mixed(seed=8), str(tmp_path / "x.pcap"),
                              str(tmp_path / "x.labels.csv"))
        digest = {ext: hashlib.sha256(
            (tmp_path / ("x." + ext)).read_bytes()).hexdigest()
            for ext in ("pcap", "labels.csv")}
        assert digest == {
            "pcap": "cbc73493180bebd8bb9b2897a254967401e0a66255d066ca8c4b52"
                    "cbde3ccff5",
            "labels.csv": "90c265dd6fdbdb6f872037b546f1ead70a02ef8a58f1c9532a"
                          "25e385233f258f"}

    def test_label_join_round_trip(self, tmp_path):
        spec = small_mixed(seed=9)
        synth.generate_corpus(spec, str(tmp_path / "y.pcap"),
                              str(tmp_path / "y.labels.csv"))
        idx = LabelIndex(read_label_file(str(tmp_path / "y.labels.csv")))
        pkts = list(pcap.open_capture(str(tmp_path / "y.pcap")))
        for p in pkts:
            idx.label_for_packet(p)
        assert idx.unmatched == 0
