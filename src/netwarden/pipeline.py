"""End-to-end wiring: capture -> features -> model -> scores.

All randomness flows from one top-level seed, split per stage, so a full
run is reproducible artifact-for-artifact.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .columnar import flow_matrix, packet_matrix
from .detectors import (TARGET_FPR, TrainedModel, calibrate_threshold,
                        make_detector)
from .errors import ManifestMismatch, NonFiniteFeature
from .features import DEFAULT_MANIFESTS, FeatureMatrix, MODE_PACKET, \
    fit_normalizer
from .flows import MeterConfig

# heavier kinds fit on a seeded subsample; thresholds still use all rows
MAX_TRAIN_DEFAULT = {"osvm": 4096, "lof": 4096}


def derive_seed(master: int, stage: str) -> int:
    """Stable per-stage seed split from the top-level seed."""
    digest = hashlib.sha256(("%d/%s" % (master, stage)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def extract_matrix(capture_path: str, mode: str, tw: float | None = None,
                   idle_timeout: float = MeterConfig.idle_timeout,
                   labels_path: str | None = None) -> FeatureMatrix:
    """PCAP -> FeatureMatrix in the requested traffic mode, with labels
    joined from a sidecar file when given: the matrix of
    `extract_with_flows`, without the flows."""
    return extract_with_flows(capture_path, mode, tw, idle_timeout,
                              labels_path)[0]


def extract_with_flows(capture_path: str, mode: str, tw: float | None = None,
                       idle_timeout: float = MeterConfig.idle_timeout,
                       labels_path: str | None = None):
    """(matrix, flows): the FeatureMatrix of a capture in the requested
    traffic mode, with labels joined from a sidecar file when given, and
    in a flow mode the emitted flows as the columns `flows.write_flow_csv`
    dumps (None in packet mode). Every mode works on the headers decoded
    column by column: packet mode in `columnar.packet_matrix`, the flow
    modes in `columnar.flow_matrix`, which meters, builds the rows and
    joins the labels on the columns. The sidecar is read as columns too,
    by `evaluation.read_label_columns`, before the capture, so a refused
    label file raises before any frame is read, with the error
    `evaluation.read_label_file` gives, naming the line. An unknown
    `mode` raises ManifestMismatch."""
    from .evaluation import read_label_columns

    if mode not in DEFAULT_MANIFESTS:
        raise ManifestMismatch("no traffic mode %r: extract in one of %s"
                               % (mode, ", ".join(DEFAULT_MANIFESTS)))
    labels = read_label_columns(labels_path) if labels_path else None
    if mode == MODE_PACKET:
        return packet_matrix(capture_path, labels), None
    return flow_matrix(capture_path, mode, tw, idle_timeout, labels)


def train_model(matrix: FeatureMatrix, kind: str, params: dict | None = None,
                target_fpr: float = TARGET_FPR.default, seed: int = 0,
                selected_names: tuple[str, ...] | None = None
                ) -> TrainedModel:
    """Fit a one-class detector on a benign feature matrix.

    The training path never reads a label column: any labels on the input
    matrix are dropped before anything else happens. The threshold is the
    (1 - target_fpr) quantile of the scores of every training row. LOF
    takes each row's leave-one-out LOF (Breunig et al., SIGMOD 2000):
    for a row it was fitted on, the LOF its fit computes with the row
    left out of its own neighbours; for a row outside its fit
    subsample, the row's score.
    """
    X = FeatureMatrix(values=matrix.values, names=matrix.names,
                      mode=matrix.mode)  # label-free view
    stats = fit_normalizer(X)
    if selected_names is not None:
        unknown = set(selected_names) - set(X.names)
        if unknown:
            raise ManifestMismatch(
                "selected features not in the training matrix: %s"
                % sorted(unknown))
        chosen = set(selected_names)
        # matrix order is kept, minus columns the normalizer dropped
        names = tuple(n for n in stats.kept_names if n in chosen)
        if not names:
            raise ManifestMismatch(
                "every selected feature was constant on the training data")
    else:
        names = stats.kept_names
    cols, mean, std = stats.projection(X.names, names)
    vals = (X.values[:, cols] - mean) / std
    n = vals.shape[0]

    params = dict(params or {})
    if kind in ("if", "ae"):
        params.setdefault("seed", derive_seed(seed, "fit-" + kind))

    cap = MAX_TRAIN_DEFAULT.get(kind)
    fit_rows = None
    if cap is not None and n > cap:
        rng = np.random.default_rng(derive_seed(seed, "subsample"))
        fit_rows = np.sort(rng.choice(n, size=cap, replace=False))
        fit_vals = vals[fit_rows]
    else:
        fit_vals = vals

    det = make_detector(kind, params)
    det.fit(fit_vals)
    if kind == "lof":
        # scored as a query, a fit row would find itself at distance 0
        scores = det.loo_scores
        if fit_rows is not None:
            scores = np.concatenate(
                [scores, det.score(np.delete(vals, fit_rows, axis=0))])
    else:
        scores = det.score(vals)
    theta = calibrate_threshold(scores, target_fpr)
    return TrainedModel(
        kind=kind,
        detector=det,
        threshold=theta,
        target_fpr=target_fpr,
        manifest_mode=matrix.mode,
        manifest_names=names,
        norm_stats=stats,
        seed=seed,
    )


def project_for_model(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """The detector input: the model's columns of a raw matrix in its
    extraction manifest, z-scored with its training stats. A NaN or
    infinite input raises NonFiniteFeature naming its row and column."""
    cols, mean, std = model.input_projection(matrix.names, matrix.mode)
    X = (matrix.values[:, cols] - mean) / std
    if not np.isfinite(X).all():
        row, j = (int(i) for i in np.argwhere(~np.isfinite(X))[0])
        col = int(cols[j])
        raise NonFiniteFeature(
            "value %r at row %d, column %d (%s) gives a non-finite "
            "detector input" % (float(matrix.values[row, col]), row, col,
                                matrix.names[col]))
    return X


def score_matrix(model: TrainedModel, matrix: FeatureMatrix):
    """Raw anomaly scores and threshold flags for a feature matrix."""
    X = project_for_model(model, matrix)
    scores = model.score(X)
    return scores, scores > model.threshold
