"""Metrics, labeled evaluation, time-window sweeps and latency benchmarks.

Binary metrics treat every non-Normal label as the positive (anomalous)
class. Identities are computed exactly from the confusion counts and 0/0
cases are reported as None (undefined), never as 0.
"""

from __future__ import annotations

import ipaddress
import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .detectors import TARGET_FPR
from .errors import LabelVocabularyMismatch, SingleClass
from .flows import BIDIRECTIONAL, MeterConfig

LABEL_NORMAL = "Normal"
LABEL_VOCABULARY = (LABEL_NORMAL, "DDoS", "Scan", "Attack", "C&C",
                    "Download", "HeartBeat")


def binary_metrics(tp: int, fp: int, tn: int, fn: int) -> dict:
    """The six-metric family from confusion counts; 0/0 -> None."""
    total = tp + fp + tn + fn
    div = lambda a, b: (a / b) if b > 0 else None
    return {
        "precision": div(tp, tp + fp),
        "accuracy": div(tp + tn, total),
        "recall": div(tp, tp + fn),
        "fpr": div(fp, fp + tn),
        "f1": div(2 * tp, 2 * tp + fp + fn),
    }


def _roc_counts(scores: np.ndarray, labels: np.ndarray) -> tuple:
    """(fp, tp, n_pos, n_neg): cumulative negative and positive counts
    above each distinct score threshold, highest score first.

    One stable sort by descending score; a group of tied scores ends
    where the next sorted score differs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC and ROC need both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tp = np.cumsum(labels[order])[ends]
    return ends + 1 - tp, tp, n_pos, n_neg


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve, ties counted 1/2.

    The trapezoid over every distinct score threshold, summed in integers:
    twice the Mann-Whitney U, so it equals the rank statistic exactly.
    """
    return _auc(*_roc_counts(scores, labels))


def roc_points(scores: np.ndarray, labels: np.ndarray) -> list:
    """(fpr, tpr) at every distinct score threshold, plus the corners."""
    return _roc_points(*_roc_counts(scores, labels))


def _auc(fp, tp, n_pos, n_neg) -> float:
    tp_prev = np.concatenate(([0], tp[:-1]))
    u2 = int((np.diff(fp, prepend=0) * (tp_prev + tp)).sum())
    return u2 / (2 * n_pos * n_neg)


def _roc_points(fp, tp, n_pos, n_neg) -> list:
    return [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(),
                                   (tp / n_pos).tolist()))


@dataclass
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    accuracy: float | None
    recall: float | None
    fpr: float | None
    f1: float | None
    auc: float | None
    per_class_recall: dict
    roc: list = field(default_factory=list)
    unmatched_labels: int = 0

    METRIC_NAMES = ("precision", "accuracy", "recall", "fpr", "f1", "auc")

    def metrics_row(self) -> list:
        fmt = lambda v: "NA" if v is None else "%.4f" % (100.0 * v)
        return [fmt(getattr(self, m)) for m in self.METRIC_NAMES]

    def to_dict(self) -> dict:
        return {
            "counts": {"tp": self.tp, "fp": self.fp, "tn": self.tn,
                       "fn": self.fn},
            "metrics": {m: getattr(self, m) for m in self.METRIC_NAMES},
            "per_class_recall": dict(sorted(self.per_class_recall.items())),
            "unmatched_labels": self.unmatched_labels,
        }


def evaluate_scores(scores: np.ndarray, flags: np.ndarray,
                    labels: list[str], roc: bool = True,
                    unmatched: int = 0) -> EvalReport:
    """Build an EvalReport from raw scores, flag decisions and labels."""
    bad = sorted(set(labels) - set(LABEL_VOCABULARY))
    if bad:
        raise LabelVocabularyMismatch("unknown labels: %s" % bad)
    labels_arr = np.asarray(labels)
    positive = labels_arr != LABEL_NORMAL
    flags = np.asarray(flags).astype(bool)
    tp = int(np.sum(flags & positive))
    fp = int(np.sum(flags & ~positive))
    tn = int(np.sum(~flags & ~positive))
    fn = int(np.sum(~flags & positive))
    m = binary_metrics(tp, fp, tn, fn)
    per_class = {}
    for cls in sorted(set(labels_arr[positive])):
        mask = labels_arr == cls
        per_class[cls] = float(flags[mask].mean())
    # one sort of the scores gives both the AUC and the ROC
    counts = (_roc_counts(scores, positive)
              if positive.any() and (~positive).any() else None)
    return EvalReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        auc=_auc(*counts) if counts else None,
        per_class_recall=per_class,
        roc=_roc_points(*counts) if (roc and counts) else [],
        unmatched_labels=unmatched,
        **m,
    )


def evaluate(model, matrix, roc: bool = True) -> EvalReport:
    """Score a labeled FeatureMatrix with a TrainedModel and report."""
    from .pipeline import score_matrix  # deferred, avoids a cycle

    if matrix.labels is None:
        raise LabelVocabularyMismatch("matrix has no label column")
    scores, flags = score_matrix(model, matrix)
    return evaluate_scores(scores, flags, matrix.labels, roc=roc,
                           unmatched=matrix.unmatched_labels)


def format_metric_table(rows: list[tuple], first_column: str) -> str:
    """Aligned plain-text table: one row per entry, six metric columns."""
    header = [first_column, "Precision(%)", "Accuracy(%)", "Recall(%)",
              "FPR(%)", "F1-Score(%)", "AUC(%)"]
    table = [header] + [[str(name)] + report.metrics_row()
                        for name, report in rows]
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = []
    for r in table:
        lines.append("  ".join(val.rjust(w) for val, w in zip(r, widths)))
    return "\n".join(lines)


# --- label sidecar files -------------------------------------------------

LABEL_FILE_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                      "window_start", "window_end", "label")


class LabelRow(NamedTuple):
    """One row of a label sidecar file; its first five fields are a
    FlowKey's."""
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    window_start: float
    window_end: float
    label: str


def write_label_file(rows: list[LabelRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(LABEL_FILE_COLUMNS) + "\n")
        for r in rows:
            fh.write("%s,%s,%d,%d,%d,%s,%s,%s\n" % (
                r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol,
                repr(r.window_start), repr(r.window_end), r.label))


@dataclass(frozen=True)
class LabelColumns:
    """A label sidecar file's rows as columns, in file order. `src` and
    `dst` index `addresses`, the distinct addresses in the decoder's
    spelling; `label` indexes LABEL_VOCABULARY."""
    addresses: list[str]
    src: np.ndarray
    dst: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    window_start: np.ndarray
    window_end: np.ndarray
    label: np.ndarray


_LABEL_CODES = {name: code for code, name in enumerate(LABEL_VOCABULARY)}
# rows hold the vocabulary's own strings, not a copy of the text per row
_VOCABULARY = dict(zip(LABEL_VOCABULARY, LABEL_VOCABULARY))


def read_label_file(path: str) -> list[LabelRow]:
    """The rows of a label sidecar file, in file order, read line by
    line: each field a Python `str`, `int` or `float`, each address
    spelled as the decoder spells it (`2001:DB8:0::1` as `2001:db8::1`).
    Blank lines are skipped; a file with a header and no rows has none.
    A header other than LABEL_FILE_COLUMNS raises
    LabelVocabularyMismatch, and so does a line without eight fields,
    with a window bound that is not a number or is NaN, a label not in
    LABEL_VOCABULARY, an address `ipaddress` refuses, or a port or
    protocol that is not an integer in its header field's range. The
    error names the first such line (1-based, blank lines counted) and,
    of its faults, the first in that order. Infinite bounds are read as
    they are, and a window ending before it starts holds no timestamp.

    This is the one reader that words a fault: `read_label_columns`
    raises a refused file's error by calling it."""
    spelled: dict[str, str] = {}  # a file names few addresses in many rows
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != LABEL_FILE_COLUMNS:
            raise LabelVocabularyMismatch(
                "label file columns %r do not match %r"
                % (header, list(LABEL_FILE_COLUMNS)))
        for number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            p = line.split(",")
            if len(p) != len(LABEL_FILE_COLUMNS):
                raise LabelVocabularyMismatch(
                    "label file line %d has %d fields, not %d"
                    % (number, len(p), len(LABEL_FILE_COLUMNS)))
            try:
                start, end = float(p[5]), float(p[6])
                if start != start or end != end:
                    raise ValueError("window %s,%s has a NaN bound"
                                     % (p[5], p[6]))
                label = _VOCABULARY.get(p[7])
                if label is None:
                    raise ValueError("unknown label %r, not one of %s"
                                     % (p[7], ", ".join(LABEL_VOCABULARY)))
                for text in p[:2]:
                    if text not in spelled:
                        spelled[text] = str(ipaddress.ip_address(text))
                numbers = []
                for i, top in ((2, 0xFFFF), (3, 0xFFFF), (4, 0xFF)):
                    value = int(p[i])
                    if not 0 <= value <= top:
                        raise ValueError("%s %d is outside 0-%d"
                                         % (LABEL_FILE_COLUMNS[i], value,
                                            top))
                    numbers.append(value)
            except ValueError as exc:
                raise LabelVocabularyMismatch(
                    "label file line %d: %s" % (number, exc)) from None
            rows.append(LabelRow(spelled[p[0]], spelled[p[1]], *numbers,
                                 start, end, label))
    return rows


def read_label_columns(path: str) -> LabelColumns:
    """The rows of a label sidecar file as columns: the values
    `read_label_file` reads, or its error.

    The file is read and split at once, and each column converted with
    one `map` of `float` or `int`, so a field reads as those read it
    (`+15`, ` 15`, `1_0`, `1e400`); each distinct address is spelled
    once. The columns only detect a fault: a wrong header, a line
    without eight fields, a field `float`, `int` or `ipaddress` refuses,
    a NaN bound, an unknown label, a port or protocol out of range. On
    one, `read_label_file` reads the file again and raises the error
    that names the line."""
    with open(path) as fh:  # text mode: "\r\n" and "\r" end lines too
        lines = fh.read().split("\n")
    if tuple(lines[0].strip().split(",")) != LABEL_FILE_COLUMNS:
        raise _refused(path)
    lines = list(map(str.strip, lines[1:]))
    rows = list(compress(lines, lines))  # the lines that are not blank
    del lines
    n, width = len(rows), len(LABEL_FILE_COLUMNS)
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.int64, n)
    if (commas != width - 1).any():
        raise _refused(path)
    fields = ",".join(rows).split(",") if n else []  # "" splits to [""]
    del rows
    src, dst, sport, dport, proto, start, end, label = (
        fields[i::width] for i in range(width))
    del fields
    spelled: dict[str, int] = {}
    index: dict[str, int] = {}
    distinct = dict.fromkeys(src)
    distinct.update(dict.fromkeys(dst))
    try:
        window_start, window_end = (np.fromiter(map(float, texts),
                                                np.float64, n)
                                    for texts in (start, end))
        ports = [np.fromiter(map(int, texts), np.int64, n)
                 for texts in (sport, dport, proto)]
        for text in distinct:
            index[text] = spelled.setdefault(
                str(ipaddress.ip_address(text)), len(spelled))
    except (ValueError, OverflowError):  # OverflowError: past int64
        raise _refused(path)
    code = np.fromiter(map(_LABEL_CODES.get, label, repeat(-1)), np.int64,
                       n)
    if (np.isnan(window_start).any() or np.isnan(window_end).any()
            or (code < 0).any()
            or any(((v < 0) | (v > top)).any()
                   for v, top in zip(ports, (0xFFFF, 0xFFFF, 0xFF)))):
        raise _refused(path)
    src_id, dst_id = (np.fromiter(map(index.__getitem__, texts), np.int64,
                                  n) for texts in (src, dst))
    return LabelColumns(list(spelled), src_id, dst_id, *ports, window_start,
                        window_end, code)


def _refused(path: str) -> RuntimeError:
    """For a file the columns refused: `read_label_file` raises its
    error, or else the columns are at fault and this error is raised."""
    read_label_file(path)
    return RuntimeError("label file %s: read_label_columns refused a file "
                        "read_label_file reads" % path)


class LabelIndex:
    """Joins flows/packets to label rows by directed 5-tuple plus window
    overlap; unmatched instances default to Normal and are counted."""

    def __init__(self, rows: list[LabelRow]):
        self._by_key: dict = {}
        for r in rows:
            key = (r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol)
            self._by_key.setdefault(key, []).append(r)
        self.unmatched = 0

    def label_for_packet(self, p) -> str:
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
        for r in self._by_key.get(key, ()):
            if r.window_start <= p.ts <= r.window_end:
                return r.label
        self.unmatched += 1
        return LABEL_NORMAL

    def label_for_flow(self, rec) -> str:
        k = rec.key  # a FlowKey is the label file's directed 5-tuple
        keys = [k]
        if rec.mode == BIDIRECTIONAL:
            keys.append((k.dst_ip, k.src_ip, k.dst_port, k.src_port,
                         k.protocol))
        best = None
        best_overlap = 0.0
        for key in keys:
            for r in self._by_key.get(key, ()):
                overlap = (min(r.window_end, rec.last_ts)
                           - max(r.window_start, rec.window_start))
                if overlap >= 0 and (best is None or overlap > best_overlap):
                    best = r
                    best_overlap = overlap
        if best is None:
            self.unmatched += 1
            return LABEL_NORMAL
        return best.label


# --- time-window sweep ---------------------------------------------------

TW_SWEEP_DEFAULT = ("default", 300.0, 100.0, 10.0, 1.0)
TW_SWEEP_TRAIN_FRACTION = 0.7  # of each window's benign rows


def tw_sweep(capture_path: str, labels_path: str, kind: str,
             tw_list=TW_SWEEP_DEFAULT, mode: str = "uni_flow",
             idle_timeout: float = MeterConfig.idle_timeout,
             target_fpr: float = TARGET_FPR.default, seed: int = 0,
             params: dict | None = None) -> list[tuple]:
    """Re-meter, re-extract, re-train and re-evaluate per time window.

    Within each window setting, benign rows are split (seeded) into a
    training part and an evaluation part; anomalies are evaluation-only.
    Returns (tw, EvalReport) pairs in the order given.
    """
    from .pipeline import extract_matrix, train_model
    from .features import FeatureMatrix

    results = []
    for pos, tw in enumerate(tw_list):
        tw_val = None if (tw == "default" or tw is None) else float(tw)
        X = extract_matrix(capture_path, mode=mode, tw=tw_val,
                           idle_timeout=idle_timeout,
                           labels_path=labels_path)
        labels = np.asarray(X.labels)
        benign_idx = np.flatnonzero(labels == LABEL_NORMAL)
        anom_idx = np.flatnonzero(labels != LABEL_NORMAL)
        rng = np.random.default_rng([seed, pos])
        perm = rng.permutation(len(benign_idx))
        cut = int(len(benign_idx) * TW_SWEEP_TRAIN_FRACTION)
        train_rows = benign_idx[perm[:cut]]
        eval_rows = np.concatenate([benign_idx[perm[cut:]], anom_idx])
        train = FeatureMatrix(values=X.values[train_rows], names=X.names,
                              mode=X.mode)
        model = train_model(train, kind=kind, params=params,
                            target_fpr=target_fpr, seed=seed)
        testm = FeatureMatrix(values=X.values[eval_rows], names=X.names,
                              mode=X.mode,
                              labels=[X.labels[i] for i in eval_rows])
        results.append((tw, evaluate(model, testm, roc=False)))
    return results


# --- detection-delay benchmark -------------------------------------------

@dataclass
class LatencyReport:
    mode: str
    n: int  # frames scored
    p50_ms: float | None
    p95_ms: float | None
    p99_ms: float | None
    throughput_pps: float | None = None
    skipped: int = 0  # frames the capture reader would skip, not scored


def _percentiles_ms(samples_s: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(samples_s) * 1e3
    p50, p95, p99 = np.percentile(arr, [50, 95, 99])
    return float(p50), float(p95), float(p99)


def delay_benchmark_packets(capture_path: str, model) -> LatencyReport:
    """Per-packet latency on the batch job's own record stream, and the
    throughput of the batch job (`extract_matrix` then `score_matrix`).

    A sample times one record of the capture reader's iterator, from
    asking for it to its verdict: reading and decoding the frames the
    reader needs before it releases the record, `packet_features` and a
    one-row `score_matrix`. Frames the reader skips are counted in
    `skipped` and not scored."""
    from .features import (FeatureMatrix, MODE_PACKET, PACKET_MANIFEST,
                           PacketContext, packet_features)
    from .pcap import CaptureReader
    from .pipeline import extract_matrix, score_matrix

    reader = CaptureReader(capture_path)
    records, ctx, names = iter(reader), PacketContext(), PACKET_MANIFEST.names
    samples = []
    perf = time.perf_counter
    while True:
        t0 = perf()
        rec = next(records, None)
        if rec is None:
            break
        score_matrix(model, FeatureMatrix(packet_features(rec, ctx)[None, :],
                                          names, MODE_PACKET))
        samples.append(perf() - t0)

    t0 = perf()
    scored = score_matrix(model, extract_matrix(capture_path, MODE_PACKET))
    elapsed = perf() - t0
    n = len(samples)
    # no frame scored: the percentiles are undefined, not zero
    p50, p95, p99 = _percentiles_ms(samples) if n else (None, None, None)
    return LatencyReport(mode="packet", n=n, p50_ms=p50, p95_ms=p95,
                         p99_ms=p99, throughput_pps=(
                             len(scored[0]) / elapsed if elapsed else None),
                         skipped=reader.summary.frames_read - n)
