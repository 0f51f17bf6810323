"""netwarden benchmark: one run of one workload.

    python3 perfbench/run.py --workload sensor_flows --seed 1 \
        --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src. A run
sets up its corpora three times (setup_s is the median), trains its
detectors and for --seconds repeats untraced serve steps (batch job and
latency loop; the stream workloads retrain before each), then runs one
traced, layer-by-layer pass that checks every output. Every untraced
timing is corrected for the machine's speed around it (speed.py). It
prints metric tables (the timings corrected and as measured), a metadata
line and, last, one JSON result line: the corrected end-to-end metrics
with --trace 0, the per-layer metrics of the traced pass with --trace 1.
perfbench/README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_pps": "pkt/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "train_s": "s",
    "score_rows_per_s": "rows/s",
    "auc": "ratio",
    "fpr": "ratio",
    "peak_rss_mb": "MB",
}

KINDS = ("if", "ee", "lof", "osvm", "ae")
# A layer that does no work in a workload reports 0.
PER_LAYER = {
    "pcap.decode.busy_s": "s",
    "pcap.decode.frames": "count",
    "pcap.decode.skipped": "count",
    "flows.meter.busy_s": "s",
    "flows.meter.packets": "count",
    "flows.meter.flows": "count",
    "features.packet.busy_s": "s",
    "features.packet.rows": "count",
    "features.flow.busy_s": "s",
    "features.flow.rows": "count",
    "features.normalize.busy_s": "s",
    "evaluation.label_join.busy_s": "s",
    "evaluation.label_join.rows": "count",
    "evaluation.label_join.unmatched": "count",
    "evaluation.report.busy_s": "s",
    "pipeline.score.busy_s": "s",
    "selection.rank.busy_s": "s",
    "selection.rank.columns": "count",
    **{"detectors.%s.%s" % (k, m): u for k in KINDS
       for m, u in (("train_s", "s"), ("score_s", "s"),
                    ("rows_per_s", "rows/s"), ("auc", "ratio"))},
    "detectors.ocsvm.n_iter": "count",
    "synth.generate.busy_s": "s",
    "synth.generate.packets": "count",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.traced_wall_s": "s",
}


def _pin_blas_threads() -> int:
    """Pin BLAS to one thread before numpy loads; returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_info() -> dict:
    """BLAS name and the thread count the loaded library reports."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _seconds(timing, speed):
    """A (start, seconds) timing, speed-corrected, or as measured when
    `speed` is None."""
    return timing[1] if speed is None else speed.correct(timing)


def _per_call(steps, attr, kind, speed):
    """The median time of one call over the run."""
    return median([_seconds(t, speed) for step in steps
                   for t in getattr(step, attr)[kind]])


def _timings(w, inp, setup_times, fits, serves, speed):
    """The timing metrics, speed-corrected with `speed` (speed.py) or as
    measured when it is None. setup_s is the median of the set-ups,
    latency the median and 99th percentile of every frame of the loop,
    throughput the frames over the summed batch-job time, and train and
    score times the median time of a call."""
    import numpy as np

    frames = np.concatenate([
        np.asarray(samples) * (1.0 if speed is None
                               else speed.factor(*timing))
        for v in serves for timing, samples in v.latency_chunks])
    last = serves[-1]
    return {
        "setup_s": median([_seconds(t, speed) for t in setup_times]),
        "throughput_pps": (inp.frames * len(serves)
                           / sum(_seconds(v.batch, speed) for v in serves)),
        "latency_p50_ms": float(np.median(frames)) * 1e3,
        "latency_p99_ms": float(np.percentile(frames, 99)) * 1e3,
        "train_s": sum(_per_call(fits, "train_times", k, speed)
                       for k in w.kinds),
        "score_rows_per_s": last.matrix.n * len(w.kinds) / sum(
            _per_call(serves, "score_times", k, speed) for k in w.kinds),
    }


def _end_to_end(w, inp, setup_times, fits, serves, rss_mb, speed):
    last = serves[-1]
    values = _timings(w, inp, setup_times, fits, serves, speed)
    values.update({
        "auc": min(r.auc for r in last.reports.values()),
        "fpr": max(r.fpr for r in last.reports.values()),
        "peak_rss_mb": rss_mb,
    })
    frames = sum(len(c) for v in serves for _, c in v.latency_chunks)
    samples = {
        "setup_s": len(setup_times),
        "latency_p50_ms": frames,
        "latency_p99_ms": frames,
        "train_s": sum(len(f.train_times[k]) for f in fits for k in w.kinds),
        "score_rows_per_s": sum(len(v.score_times[k]) for v in serves
                                for k in w.kinds),
        "auc": len(w.kinds), "fpr": len(w.kinds), "peak_rss_mb": 1,
    }
    return values, {k: samples.get(k, len(serves)) for k in values}


def _per_layer(w, setups, tracer, bt, reports, lt, models, columns,
               traced_wall, untraced_wall):
    t = tracer
    s = bt.summary
    skipped = (s.skipped_non_ip + s.skipped_malformed + s.fragment_frames
               + s.dropped_late)
    packet = w.mode == "packet"
    v = {
        "pcap.decode.busy_s": t.busy("pcap.decode"),
        "pcap.decode.frames": s.frames_read + lt.frames,
        "pcap.decode.skipped": skipped + lt.skipped,
        "flows.meter.busy_s": t.busy("flows.meter"),
        "flows.meter.packets": (0 if packet else
                                bt.meter_stats.packets_metered
                                + lt.packets_metered),
        "flows.meter.flows": bt.flows + lt.flows,
        "features.packet.busy_s": t.busy("features.packet"),
        "features.packet.rows": bt.matrix.n + lt.rows if packet else 0,
        "features.flow.busy_s": t.busy("features.flow"),
        "features.flow.rows": 0 if packet else bt.matrix.n + lt.rows,
        "features.normalize.busy_s": t.busy("features.normalize"),
        "evaluation.label_join.busy_s": t.busy("evaluation.label_join"),
        "evaluation.label_join.rows": len(bt.matrix.labels),
        "evaluation.label_join.unmatched": bt.unmatched,
        "evaluation.report.busy_s": t.busy("evaluation.report"),
        "pipeline.score.busy_s": t.busy("pipeline.score"),
        "selection.rank.busy_s": t.busy("selection.rank"),
        "selection.rank.columns": columns,
        "synth.generate.busy_s": median([i.generate_s for i in setups]),
        "synth.generate.packets": setups[0].generated_packets,
        "bench.unattributed_s": (t.busy("bench.pass")
                                 + t.busy("bench.packet")),
        "bench.trace_overhead_s": traced_wall - untraced_wall,
        "bench.traced_wall_s": traced_wall,
    }
    for k in KINDS:
        score_s = t.total("pipeline.score", kind=k, packets=False)
        v["detectors.%s.train_s" % k] = t.total("detectors.train", kind=k)
        v["detectors.%s.score_s" % k] = score_s
        v["detectors.%s.rows_per_s" % k] = (bt.matrix.n / score_s
                                            if score_s else 0.0)
        v["detectors.%s.auc" % k] = reports[k].auc if k in models else 0.0
    osvm = models.get("osvm")
    v["detectors.ocsvm.n_iter"] = osvm.detector.n_iter_ if osvm else 0
    return v


def _print_table(title, values, units, samples=None):
    print("== %s" % title)
    for name, value in values.items():
        n = "" if samples is None else "  (n=%d)" % samples[name]
        print("%-34s %16.6g %-7s%s" % (name, value, units[name], n))


def run(args) -> int:
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import workloads as wl
        from netwarden.pipeline import score_matrix
        from spans import Tracer
        from speed import REFERENCE_S, Speed
    except ImportError as exc:
        print("perfbench: cannot import netwarden from %s: %s"
              % (ROOT / "src", exc), file=sys.stderr)
        return 2

    w = wl.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / ("work-%d" % os.getpid())
    failures = []
    speed = Speed()
    try:
        setups, setup_times, digests = [], [], []

        def set_up_once():
            d = work / ("setup%d" % len(setups))
            d.mkdir(parents=True)
            i, timing = speed.timed(
                lambda: wl.set_up(w, args.seed, args.smoke, str(d)))
            setups.append(i)
            setup_times.append(timing)
            digests.append(wl.corpus_digest(str(d)))
            if len(setups) > 1:
                if digests[-1] != digests[0]:
                    failures.append("set-up %d wrote a different corpus "
                                    "from the same seed" % len(setups))
                shutil.rmtree(d)

        for _ in range(SETUP_REPS):
            set_up_once()
        inp = setups[0]
        fits, serves, failed, serve_failures = [], [], 0, []
        mismatches = {}
        if not w.fit_each_serve:
            fits.append(wl.fit(w, inp, speed))
        deadline = time.perf_counter() + args.seconds
        while True:
            if w.fit_each_serve:
                if fits:
                    fits[-1].models = None
                fits.append(wl.fit(w, inp, speed))
            if serves:
                serves[-1].release()
            serves.append(wl.serve(w, inp, fits[-1].models, speed))
            msgs, ops, off = wl.check_serve(
                serves[-1], inp.frames + len(inp.latency_frames))
            serve_failures += msgs
            failed += ops
            for kind, (n, flips) in off.items():
                total = mismatches.setdefault(kind, [0, 0])
                total[0] += n
                total[1] += flips
            if time.perf_counter() >= deadline:
                break
        last, models = serves[-1], fits[-1].models

        # With --trace 0 the traced pass only extracts, to check the
        # capture, the meter and the labels; with --trace 1 it is a whole
        # fit and serve step whose scores must match score_matrix's.
        tracer = Tracer()
        t0 = time.perf_counter()
        traced_scores, reference = {}, {}
        with tracer.span("bench.pass"):
            if args.trace:
                traced_models, columns = wl.traced_train(w, inp, tracer)
            bt = wl.traced_extract(w, inp, tracer)
            if args.trace:
                traced_scores, reports = wl.traced_score(
                    bt.matrix, traced_models, tracer)
                lt = wl.traced_latency(w, inp, traced_models, tracer)
        traced_wall = time.perf_counter() - t0
        if args.trace:
            reference = {k: score_matrix(m, last.matrix)[0]
                         for k, m in traced_models.items()}
        failures += wl.check_batch(w, inp, bt)
        failures += wl.check_equivalence(bt.matrix, last.matrix,
                                         traced_scores, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # an operation is one captured frame per detector, in the batch job
    # and in the latency loop
    per_serve = (inp.frames + len(inp.latency_frames)) * len(w.kinds)
    attempted = per_serve * len(serves)
    skipped = wl.skipped_frames(w, bt)
    if skipped:
        serve_failures.append("capture: %d frames never reached the feature "
                              "layer" % skipped)
        failed += skipped * len(w.kinds) * len(serves)
    # a failed check on the whole run discredits every operation
    failed = attempted if failures else min(failed, attempted)
    failures += serve_failures
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e, samples = _end_to_end(w, inp, setup_times, fits, serves, rss_mb,
                               speed)
    _print_table("%s seed=%d end-to-end (untraced, speed-corrected)"
                 % (w.name, args.seed), e2e, END_TO_END, samples)
    _print_table("%s seed=%d the same timings as measured"
                 % (w.name, args.seed),
                 _timings(w, inp, setup_times, fits, serves, None),
                 END_TO_END)
    extra = {"failed_ratio": failed / attempted}
    units = {"failed_ratio": "ratio"}
    if w.select:
        extra["select_s"] = median([speed.correct(f.select) for f in fits])
        units["select_s"] = "s"
    _print_table("%s seed=%d also measured" % (w.name, args.seed),
                 extra, units)
    if args.trace:
        # the untraced steps' wall time without the repeated calls, which
        # the traced pass does not make
        untraced_wall = (
            median([f.wall_s - sum(s for t in f.train_times.values()
                                    for _, s in t[1:]) for f in fits])
            + median([v.wall_s - sum(s for t in v.score_times.values()
                                      for _, s in t[1:]) for v in serves]))
        layers = _per_layer(w, setups, tracer, bt, reports, lt,
                            traced_models, columns, traced_wall,
                            untraced_wall)
        _print_table("%s seed=%d per layer (traced pass)"
                     % (w.name, args.seed), layers, PER_LAYER)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(str(traces / ("%s-seed%d.json" % (w.name, args.seed))))

    benign = inp.benign
    refs = speed.reference_times()
    meta = {
        "workload": w.name, "seed": args.seed,
        "corpus_seeds": wl.corpus_seeds(args.seed),
        "smoke": args.smoke, "seconds": args.seconds,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas_info(),
        "loadavg": list(os.getloadavg()),
        "fits": len(fits), "serves": len(serves), "setups": len(setups),
        # the reference job's times (speed.py); corrected figures are
        # scaled to a reference time of REFERENCE_S
        "speed": {"reference_s": REFERENCE_S,
                  "probes": len(refs), "median_s": median(refs),
                  "min_s": min(refs), "max_s": max(refs)},
        "corpus": {
            "packets_generated": inp.generated_packets,
            "mixed_frames": inp.frames,
            "mixed_rows": last.matrix.n,
            "mixed_flows": bt.flows,
            "columns": len(last.matrix.names),
            "benign_rows": benign.n,
            "benign_rows_before_subsample": inp.benign_raw_rows,
            "model_columns": {k: len(m.manifest_names)
                              for k, m in models.items()},
            "latency_frames": len(inp.latency_frames),
        },
    }
    # [scores off by more than 1e-9 relative, of which verdicts flipped]
    meta["one_row_vs_batch"] = mismatches
    print(json.dumps({"meta": meta}))
    for msg in failures:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)

    reported, table = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": table[k]}
                    for k, v in reported.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("packet_stream", "sensor_flows", "model_fit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora, for the benchmark's own tests")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
