"""The benchmark's workloads: corpora, set-up, passes and output checks.

Every corpus is generated in-process from the workload seed. A run repeats
the user's job in two steps:

- fit: train the workload's detectors on the benign matrix (model_fit
  also ranks the benign features);
- serve: the batch job (mixed capture -> labelled matrix -> scores ->
  report) and the latency loop, a closed loop with one client that sends
  the next captured frame only after the previous one got its verdict
  (decode -> featurize -> normalize -> score).

`fit` and `serve` drive the library through its top-level calls, untraced.
`traced_*` call the same public functions one layer at a time inside
spans; `check_*` hold the outputs of both to account for every input.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from netwarden import synth
from netwarden.errors import NetwardenError
from netwarden.evaluation import LabelIndex, evaluate_scores, read_label_file
from netwarden.features import (
    DEFAULT_MANIFESTS,
    FeatureMatrix,
    MODE_BI_FLOW,
    MODE_PACKET,
    MODE_TO_DIRECTION,
    PacketContext,
    apply_normalizer,
    fit_normalizer,
    flow_features,
    packet_features,
)
from netwarden.flows import FlowMeter, MeterConfig
from netwarden.pcap import decode_frame, iter_raw_frames, open_capture
from netwarden.pipeline import extract_matrix, score_matrix, train_model
from netwarden.selection import rank_features
from speed import Speed

TARGET_FPR = 0.02
FPR_LIMIT = 0.03  # benign FPR gate of acceptance criterion C6
IDLE_TIMEOUT = 15.0  # extract_matrix's default
# One-row and batch scores of OSVM and AE differ in the last bits because
# BLAS blocks the products differently. LOF's can differ more: its
# neighbour set takes every point within the k-distance, and distances
# that tie in exact arithmetic can split by one ulp either way.
SCORE_RTOL = 1e-9
# A train or score call shorter than this is repeated until the calls add
# up to it: one 20 ms call is too noisy to compare.
SAMPLE_S = 0.5
LATENCY_CHUNK_S = 0.25  # latency-loop time between reference probes


@dataclass(frozen=True)
class Size:
    benign: tuple[float, int]  # (duration s, devices) of the training capture
    mixed: tuple[float, int]   # (duration s, devices) of the mixed capture
    scan_targets: int
    ddos_seconds: float        # at 5 kpps from 3 bots
    train_rows: int | None     # seeded subsample of the benign matrix
    latency_packets: int       # frames per serve step through the closed loop


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    tw: float | None
    kinds: tuple[str, ...]
    media: bool   # every third device streams media bursts
    select: bool  # the fit step ranks the benign features
    # Retrain before every serve step. model_fit trains once per run:
    # its training outlasts the run, and the serve steps after it spread
    # the latency samples over the run as the other workloads do.
    fit_each_serve: bool
    full: Size
    smoke: Size


WORKLOADS = {w.name: w for w in (
    # Gateway capture, half of it a 5 kpps flood: decode and packet
    # features dominate, EE scoring is cheap.
    Workload("packet_stream", MODE_PACKET, None, ("ee",), media=True,
             select=False, fit_each_serve=True,
             full=Size((600.0, 60), (600.0, 60), 400, 10.0, None, 5000),
             smoke=Size((120.0, 8), (120.0, 8), 40, 0.2, None, 2000)),
    # Telemetry-only sensors: many short bi-flows, so metering and flow
    # features dominate and decode matters little.
    Workload("sensor_flows", MODE_BI_FLOW, 1.0, ("ee",), media=False,
             select=False, fit_each_serve=True,
             full=Size((600.0, 200), (600.0, 200), 480, 1.0, None, 20000),
             smoke=Size((120.0, 30), (120.0, 30), 40, 0.2, None, 2000)),
    # Five detectors on a 20k-row benign packet matrix and a ~10k-packet
    # held-out capture: detector fit and score dominate. The held-out
    # capture spans the same 600 s as the training one; a shorter one
    # holds more first-of-flow packets and its benign FPR doubles.
    Workload("model_fit", MODE_PACKET, None, ("if", "ee", "lof", "osvm", "ae"),
             media=True, select=True, fit_each_serve=False,
             full=Size((600.0, 60), (600.0, 12), 400, 0.4, 20000, 4000),
             smoke=Size((300.0, 10), (300.0, 10), 40, 0.1, None, 2000)),
)}


def corpus_seeds(seed: int) -> dict:
    return {"benign": 10 * seed + 1, "mixed": 10 * seed + 2}


def _fleet(seed: int, duration: float, devices: int,
           media: bool) -> synth.ScenarioSpec:
    spec = synth.ScenarioSpec(duration=duration, devices=devices, seed=seed)
    spec.media.enabled = media
    return spec


def _with_attacks(spec: synth.ScenarioSpec, size: Size) -> synth.ScenarioSpec:
    d = spec.duration
    spec.scan.enabled, spec.scan.start = True, 0.05 * d
    spec.scan.targets = size.scan_targets
    spec.download.enabled, spec.download.start = True, 0.2 * d
    spec.c2.enabled, spec.c2.start, spec.c2.bots = True, 0.02 * d, 3
    spec.heartbeat.enabled, spec.heartbeat.start = True, 0.03 * d
    spec.ddos.enabled, spec.ddos.start = True, 0.5 * d
    spec.ddos.duration, spec.ddos.rate = size.ddos_seconds, 5000.0
    spec.ddos.bots = 3
    return spec


@dataclass
class Inputs:
    seed: int
    benign: FeatureMatrix       # training matrix, label-free
    benign_raw_rows: int        # rows before the subsample
    mixed_pcap: str
    mixed_labels: str
    frames: int                 # frames in the mixed capture
    packets_by_label: dict      # generator's count per label, mixed capture
    latency_frames: list        # (ts, frame bytes, link type)
    generated_packets: int      # both captures
    generate_s: float
    setup_s: float


def set_up(w: Workload, seed: int, smoke: bool, directory: str) -> Inputs:
    """Generate both corpora, extract the benign matrix and read the
    frames of the latency loop."""
    size = w.smoke if smoke else w.full
    perf = time.perf_counter
    t0 = perf()
    seeds = corpus_seeds(seed)
    path = lambda name: os.path.join(directory, name)
    benign_info = synth.generate_corpus(
        _fleet(seeds["benign"], *size.benign, media=w.media),
        path("benign.pcap"), path("benign.labels.csv"))
    mixed_info = synth.generate_corpus(
        _with_attacks(_fleet(seeds["mixed"], *size.mixed, media=w.media),
                      size),
        path("mixed.pcap"), path("mixed.labels.csv"))
    generate_s = perf() - t0
    X = extract_matrix(path("benign.pcap"), w.mode, tw=w.tw,
                       idle_timeout=IDLE_TIMEOUT)
    raw_rows = X.n
    if size.train_rows is not None and X.n > size.train_rows:
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(X.n, size=size.train_rows, replace=False))
        X = FeatureMatrix(values=X.values[rows], names=X.names, mode=X.mode)
    frames = []
    for ts, raw, link in iter_raw_frames(path("mixed.pcap")):
        if len(frames) == size.latency_packets:
            break
        frames.append((ts, bytes(raw), link))
    return Inputs(
        seed=seed, benign=X, benign_raw_rows=raw_rows,
        mixed_pcap=path("mixed.pcap"), mixed_labels=path("mixed.labels.csv"),
        frames=mixed_info["packets"],
        packets_by_label=mixed_info["packets_by_label"],
        latency_frames=frames,
        generated_packets=benign_info["packets"] + mixed_info["packets"],
        generate_s=generate_s, setup_s=perf() - t0)


def corpus_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
    return h.hexdigest()


def _meter(w: Workload) -> FlowMeter:
    return FlowMeter(MeterConfig(direction_mode=MODE_TO_DIRECTION[w.mode],
                                 tw_seconds=w.tw, idle_timeout=IDLE_TIMEOUT))


# --- untraced steps ---------------------------------------------------------
#
# Every time is kept as (start, seconds), so that the run can correct it
# for the machine's speed around it (speed.py).

@dataclass
class Fit:
    wall_s: float            # without the reference probes
    train_times: dict        # kind -> timings of train_model calls
    select: tuple | None     # timing of rank_features
    models: dict


@dataclass
class Serve:
    wall_s: float            # without the reference probes
    batch: tuple             # timing of the batch job
    score_times: dict        # kind -> timings of score_matrix calls
    matrix: FeatureMatrix
    scores: dict             # kind -> batch scores
    thresholds: dict         # kind -> the model's threshold
    reports: dict            # kind -> EvalReport
    latency_chunks: list     # (timing, per-frame times) per LATENCY_CHUNK_S
    latency_scores: dict     # kind -> scores of the latency loop, in order
    latency_skipped: int

    def release(self) -> None:
        """Drop what only the checks need. Kept Python objects (the
        report's ROC points) would slow every later garbage collection."""
        self.matrix = self.scores = self.reports = None
        self.latency_scores = None


def _repeat(speed: Speed, call, first: tuple) -> list[tuple]:
    """The timing of a first call already made, then those of more calls
    of `call` while the calls add up to less than SAMPLE_S; one probe
    follows them."""
    times = [first]
    while sum(t for _, t in times) < SAMPLE_S:
        t = time.perf_counter()
        call()
        times.append((t, time.perf_counter() - t))
    if len(times) > 1:
        speed.probe()
    return times


def fit(w: Workload, inp: Inputs, speed: Speed) -> Fit:
    """Train every detector of the workload on the benign matrix, then
    rank the benign features if the workload does."""
    t0, probed = time.perf_counter(), speed.spent
    models, train_times = {}, {}
    for kind in w.kinds:
        train = lambda: train_model(inp.benign, kind, target_fpr=TARGET_FPR,
                                    seed=inp.seed)
        models[kind], first = speed.timed(train)
        train_times[kind] = _repeat(speed, train, first)
    select = None
    if w.select:
        Xn = apply_normalizer(inp.benign, fit_normalizer(inp.benign))
        _, select = speed.timed(lambda: rank_features(Xn.values, Xn.names))
    return Fit(wall_s=time.perf_counter() - t0 - (speed.spent - probed),
               train_times=train_times, select=select, models=models)


def serve(w: Workload, inp: Inputs, models: dict, speed: Speed) -> Serve:
    """The batch job, with the latency loop's frames sent in two halves
    before and after it, so that its samples span the step."""
    perf = time.perf_counter
    t0, probed = perf(), speed.spent
    loop = LatencyLoop(w, models, speed)
    half = len(inp.latency_frames) // 2
    loop.send(inp.latency_frames[:half])

    t = perf()
    X = extract_matrix(inp.mixed_pcap, w.mode, tw=w.tw,
                       idle_timeout=IDLE_TIMEOUT,
                       labels_path=inp.mixed_labels)
    scores, reports, first_score = {}, {}, {}
    for kind, model in models.items():
        ts = perf()
        s, flags = score_matrix(model, X)
        first_score[kind] = (ts, perf() - ts)
        scores[kind] = s
        reports[kind] = evaluate_scores(s, flags, X.labels)
    batch = (t, perf() - t)
    speed.probe()
    score_times = {k: _repeat(speed, lambda: score_matrix(m, X),
                              first_score[k])
                   for k, m in models.items()}

    loop.send(inp.latency_frames[half:])
    return Serve(wall_s=perf() - t0 - (speed.spent - probed),
                 batch=batch, score_times=score_times,
                 matrix=X, scores=scores,
                 thresholds={k: m.threshold for k, m in models.items()},
                 reports=reports,
                 latency_chunks=loop.chunks, latency_scores=loop.scores,
                 latency_skipped=loop.skipped)


class LatencyLoop:
    """The closed loop: each frame is decoded, featurized, normalized and
    scored by every model before the next one is sent. Frames can be sent
    in several calls; the packet context or flow table carries over.
    The run probes the machine's speed after every LATENCY_CHUNK_S."""

    def __init__(self, w: Workload, models: dict, speed: Speed):
        self.manifest = DEFAULT_MANIFESTS[w.mode]
        self.mode = w.mode
        self.models = models
        self.speed = speed
        self.ctx = PacketContext() if w.mode == MODE_PACKET else None
        self.meter = None if self.ctx else _meter(w)
        self.chunks: list[tuple[tuple, list[float]]] = []
        self.scores = {kind: [] for kind in models}
        self.skipped = 0

    def send(self, frames) -> None:
        i = 0
        while i < len(frames):
            (samples, i), timing = self.speed.timed(
                lambda: self._send(frames, i))
            self.chunks.append((timing, samples))

    def _send(self, frames, i: int) -> tuple[list[float], int]:
        """Send frames from the i-th on for LATENCY_CHUNK_S or until they
        run out; returns the per-frame times and the next frame's index."""
        manifest, names, mode = self.manifest, self.manifest.names, self.mode
        perf = time.perf_counter
        samples = []
        end = perf() + LATENCY_CHUNK_S
        while i < len(frames) and perf() < end:
            ts, raw, link = frames[i]
            i += 1
            t0 = perf()
            try:
                rec = decode_frame(raw, link, ts=ts)
            except NetwardenError:
                self.skipped += 1
                continue
            if self.ctx is not None:
                rows = [packet_features(rec, self.ctx, manifest)]
            else:
                rows = [flow_features(f, manifest)
                        for f in self.meter.feed(rec)]
            verdicts = [[score_matrix(m, FeatureMatrix(row[None, :], names,
                                                       mode))[0][0]
                         for m in self.models.values()] for row in rows]
            samples.append(perf() - t0)
            for v in verdicts:
                for kind, score in zip(self.models, v):
                    self.scores[kind].append(score)
        return samples, i


# --- traced, layer-by-layer pass ----------------------------------------

@dataclass
class BatchTrace:
    matrix: FeatureMatrix    # labelled
    summary: object          # pcap.CaptureSummary
    meter_stats: object      # flows.MeterStats, flow modes only
    flow_packets: int        # sum of pkt_count over emitted flows
    flows: int
    unmatched: int


@dataclass
class LatencyTrace:
    frames: int
    skipped: int
    packets_metered: int
    flows: int
    rows: int


def traced_train(w: Workload, inp: Inputs, tracer) -> tuple[dict, int]:
    """Train (and rank) as `fit` does; returns the models and the
    number of ranked columns."""
    models = {}
    for kind in w.kinds:
        with tracer.span("detectors.train", kind=kind):
            models[kind] = train_model(inp.benign, kind,
                                       target_fpr=TARGET_FPR, seed=inp.seed)
    columns = 0
    if w.select:
        with tracer.span("features.normalize"):
            Xn = apply_normalizer(inp.benign, fit_normalizer(inp.benign))
        with tracer.span("selection.rank"):
            rank_features(Xn.values, Xn.names)
        columns = len(Xn.names)
    return models, columns


def _project(model, raw: FeatureMatrix) -> np.ndarray:
    """Normalize and pick the model's columns, as score_matrix does."""
    stats = model.norm_stats
    cols = [stats.kept_names.index(n) for n in model.manifest_names]
    return apply_normalizer(raw, stats).values[:, cols]


def traced_extract(w: Workload, inp: Inputs, tracer) -> BatchTrace:
    """The batch job's capture -> labelled matrix, one layer at a time."""
    span = tracer.span
    manifest = DEFAULT_MANIFESTS[w.mode]
    with span("pcap.decode"):
        reader = open_capture(inp.mixed_pcap)
        packets = list(reader)
    meter = None
    if w.mode == MODE_PACKET:
        units = packets
        with span("features.packet"):
            ctx = PacketContext()
            rows = [packet_features(p, ctx, manifest) for p in packets]
            values = np.vstack(rows)
    else:
        with span("flows.meter"):
            meter = _meter(w)
            units = []
            for p in packets:
                units.extend(meter.feed(p))
            units.extend(meter.finish())
        with span("features.flow"):
            rows = [flow_features(f, manifest) for f in units]
            values = np.vstack(rows)
    with span("evaluation.label_join"):
        index = LabelIndex(read_label_file(inp.mixed_labels))
        join = (index.label_for_packet if w.mode == MODE_PACKET
                else index.label_for_flow)
        labels = [join(u) for u in units]
    return BatchTrace(
        matrix=FeatureMatrix(values=values, names=manifest.names,
                             mode=w.mode, labels=labels),
        summary=reader.summary,
        meter_stats=meter.stats if meter else None,
        flow_packets=sum(f.pkt_count for f in units) if meter else 0,
        flows=len(units) if meter else 0, unmatched=index.unmatched)


def traced_score(X: FeatureMatrix, models: dict, tracer) -> tuple[dict, dict]:
    """The batch job's scores and reports, one layer at a time."""
    span = tracer.span
    raw = FeatureMatrix(values=X.values, names=X.names, mode=X.mode)
    scores, reports = {}, {}
    for kind, model in models.items():
        with span("features.normalize", kind=kind):
            Z = _project(model, raw)
        with span("pipeline.score", kind=kind):
            scores[kind] = model.score(Z)
        with span("evaluation.report", kind=kind):
            reports[kind] = evaluate_scores(
                scores[kind], scores[kind] > model.threshold, X.labels)
    return scores, reports


def traced_latency(w: Workload, inp: Inputs, models: dict,
                   tracer) -> LatencyTrace:
    """The latency loop with every layer of a frame in spans that share
    the frame's index."""
    span = tracer.span
    manifest = DEFAULT_MANIFESTS[w.mode]
    ctx = PacketContext() if w.mode == MODE_PACKET else None
    meter = None if ctx else _meter(w)
    skipped = flows = rows_done = 0
    for i, (ts, raw, link) in enumerate(inp.latency_frames):
        with span("bench.packet", pkt=i):
            try:
                with span("pcap.decode", pkt=i):
                    rec = decode_frame(raw, link, ts=ts)
            except NetwardenError:
                skipped += 1
                continue
            if ctx is not None:
                with span("features.packet", pkt=i):
                    rows = [packet_features(rec, ctx, manifest)]
            else:
                with span("flows.meter", pkt=i):
                    emitted = meter.feed(rec)
                flows += len(emitted)
                with span("features.flow", pkt=i):
                    rows = [flow_features(f, manifest) for f in emitted]
            rows_done += len(rows)
            for row in rows:
                one = FeatureMatrix(row[None, :], manifest.names, w.mode)
                for kind, model in models.items():
                    with span("features.normalize", pkt=i, kind=kind):
                        Z = _project(model, one)
                    with span("pipeline.score", pkt=i, kind=kind):
                        model.score(Z)
    return LatencyTrace(
        frames=len(inp.latency_frames), skipped=skipped,
        packets_metered=meter.stats.packets_metered if meter else 0,
        flows=flows, rows=rows_done)


# --- output checks ----------------------------------------------------------

def check_serve(p: Serve, ops_per_kind: int):
    """Checks on one untraced serve step. Returns failure messages, failed
    operations, and per detector how many one-row scores differ from the
    batch score by more than SCORE_RTOL and how many of those flip the
    verdict. A detector whose benign FPR is over the limit fails all of
    its operations; a non-finite score fails its operation."""
    failures, failed, off = [], 0, {}
    for kind, s in p.scores.items():
        fpr = p.reports[kind].fpr
        if fpr is None or fpr > FPR_LIMIT:
            failures.append("%s: benign FPR %s exceeds %.2f"
                            % (kind, fpr, FPR_LIMIT))
            failed += ops_per_kind
            continue
        one = np.asarray(p.latency_scores[kind])
        batch = s[:len(one)]
        bad = int(np.count_nonzero(~np.isfinite(s))
                  + np.count_nonzero(~np.isfinite(one)))
        if bad:
            failures.append("%s: %d non-finite scores" % (kind, bad))
        threshold = p.thresholds[kind]
        differ = ~np.isclose(one, batch, rtol=SCORE_RTOL, atol=0)
        flipped = differ & ((one > threshold) != (batch > threshold))
        off[kind] = [int(differ.sum()), int(flipped.sum())]
        failed += bad + p.latency_skipped
    if p.latency_skipped:
        failures.append("%d frames skipped in the latency loop"
                        % p.latency_skipped)
    return failures, failed, off


def skipped_frames(w: Workload, bt: BatchTrace) -> int:
    """Captured frames that never reached the feature layer."""
    reached = (bt.summary.decoded if w.mode == MODE_PACKET
               else bt.meter_stats.packets_metered)
    return bt.summary.frames_read - reached


def check_batch(w: Workload, inp: Inputs, bt: BatchTrace) -> list[str]:
    """Conservation checks on the layer-by-layer batch job."""
    failures = []
    s = bt.summary
    accounted = (s.decoded + s.skipped_non_ip + s.skipped_malformed
                 + s.fragment_frames + s.dropped_late)
    if s.frames_read != accounted:
        failures.append("capture: %d frames read, %d accounted for"
                        % (s.frames_read, accounted))
    if s.frames_read != inp.frames:
        failures.append("capture: %d frames read of %d written"
                        % (s.frames_read, inp.frames))
    if bt.meter_stats is not None:
        m = bt.meter_stats
        if m.packets_metered != bt.flow_packets:
            failures.append("meter: %d packets metered, flows hold %d"
                            % (m.packets_metered, bt.flow_packets))
        if m.packets_metered + m.clock_skew_dropped != s.decoded:
            failures.append("meter: %d metered + %d dropped != %d decoded"
                            % (m.packets_metered, m.clock_skew_dropped,
                               s.decoded))
    labels = bt.matrix.labels
    if len(labels) != bt.matrix.n:
        failures.append("labels: %d labels for %d rows"
                        % (len(labels), bt.matrix.n))
    # the generator writes one label row per directed 5-tuple and span,
    # so every packet and every flow of its captures has a label
    if bt.unmatched:
        failures.append("labels: %d unmatched rows" % bt.unmatched)
    if w.mode == MODE_PACKET and Counter(labels) != inp.packets_by_label:
        failures.append("labels: per-label packet counts differ from the "
                        "generator's")
    return failures


def check_equivalence(traced: FeatureMatrix, matrix: FeatureMatrix,
                      traced_scores: dict, scores: dict) -> list[str]:
    """The layer-by-layer path must reproduce extract_matrix's matrix and
    score_matrix's scores bit for bit."""
    failures = []
    if (traced.names != matrix.names
            or not np.array_equal(traced.values, matrix.values)):
        failures.append("equivalence: traced matrix differs from "
                        "extract_matrix")
    if traced.labels != matrix.labels:
        failures.append("equivalence: traced labels differ from "
                        "extract_matrix")
    for kind, s in scores.items():
        if not np.array_equal(traced_scores[kind], s):
            failures.append("equivalence: traced %s scores differ from "
                            "score_matrix" % kind)
    return failures
