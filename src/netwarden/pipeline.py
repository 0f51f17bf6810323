"""End-to-end wiring: capture -> features -> model -> scores.

All randomness flows from one top-level seed, split per stage, so a full
run is reproducible artifact-for-artifact.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .detectors import (
    TrainedModel,
    calibrate_threshold,
    default_search_space,
    make_detector,
    random_search,
)
from .errors import ManifestMismatch, NonFiniteFeature
from .features import (
    DEFAULT_MANIFESTS,
    FeatureMatrix,
    MODE_PACKET,
    MODE_TO_DIRECTION,
    PacketContext,
    apply_normalizer,
    fit_normalizer,
    flow_features,
    manifest_hash,
    packet_features,
)
from .flows import FlowMeter, MeterConfig
from .pcap import open_capture

PIPELINE_DEFAULTS = {
    "if": {"n_trees": 100, "subsample_size": 256},
    "ee": {"ridge": 1e-6},
    "lof": {"k": 20},
    "osvm": {"nu": 0.05, "gamma": "scale"},
    "ae": {},
}

# heavier kinds fit on a seeded subsample; thresholds still use all rows
MAX_TRAIN_DEFAULT = {"osvm": 4096, "lof": 4096}


def derive_seed(master: int, stage: str) -> int:
    """Stable per-stage seed split from the top-level seed."""
    digest = hashlib.sha256(("%d/%s" % (master, stage)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def extract_matrix(capture_path: str, mode: str, tw: float | None = None,
                   idle_timeout: float = 15.0,
                   labels_path: str | None = None,
                   flow_sink=None) -> FeatureMatrix:
    """PCAP -> FeatureMatrix in the requested traffic mode, with labels
    joined from a sidecar file when given.

    `flow_sink`, if set, additionally receives every raw FlowRecord (used
    for the CLI flow dump)."""
    from .evaluation import LabelIndex, read_label_file

    manifest = DEFAULT_MANIFESTS[mode]
    index = LabelIndex(read_label_file(labels_path)) if labels_path else None
    rows = []
    labels: list[str] | None = [] if index is not None else None
    reader = open_capture(capture_path)
    if mode == MODE_PACKET:
        ctx = PacketContext()
        for p in reader:
            rows.append(packet_features(p, ctx, manifest))
            if index is not None:
                labels.append(index.label_for_packet(p))
    else:
        meter = FlowMeter(MeterConfig(
            direction_mode=MODE_TO_DIRECTION[mode], tw_seconds=tw,
            idle_timeout=idle_timeout))

        def handle(rec):
            rows.append(flow_features(rec, manifest))
            if index is not None:
                labels.append(index.label_for_flow(rec))
            if flow_sink is not None:
                flow_sink(rec)

        for p in reader:
            for rec in meter.feed(p):
                handle(rec)
        for rec in meter.finish():
            handle(rec)
    values = np.vstack(rows) if rows else np.empty((0, len(manifest)))
    return FeatureMatrix(values=values, names=manifest.names, mode=mode,
                         labels=labels, unmatched_labels=(
                             index.unmatched if index is not None else 0))


def train_model(matrix: FeatureMatrix, kind: str, params: dict | None = None,
                target_fpr: float = 0.02, seed: int = 0, budget: int = 0,
                selected_names: tuple[str, ...] | None = None,
                max_train: int | None = None) -> TrainedModel:
    """Fit a one-class detector on a benign feature matrix.

    The training path never reads a label column: any labels on the input
    matrix are dropped before anything else happens. The threshold is the
    (1 - target_fpr) quantile of the scores of every training row.
    """
    X = FeatureMatrix(values=matrix.values, names=matrix.names,
                      mode=matrix.mode)  # label-free view
    stats = fit_normalizer(X)
    Xn = apply_normalizer(X, stats)
    if selected_names is not None:
        unknown = set(selected_names) - set(X.names)
        if unknown:
            raise ManifestMismatch(
                "selected features not in the training matrix: %s"
                % sorted(unknown))
        chosen = set(selected_names)
        # matrix order is kept, minus columns the normalizer dropped
        names = tuple(n for n in Xn.names if n in chosen)
        if not names:
            raise ManifestMismatch(
                "every selected feature was constant on the training data")
    else:
        names = Xn.names
    cols = [Xn.names.index(n) for n in names]
    vals = Xn.values[:, cols]
    n = vals.shape[0]

    merged = dict(PIPELINE_DEFAULTS.get(kind, {}))
    merged.update(params or {})
    if kind in ("if", "ae") and "seed" not in merged:
        merged["seed"] = derive_seed(seed, "fit-" + kind)

    cap = max_train if max_train is not None \
        else MAX_TRAIN_DEFAULT.get(kind)
    if cap is not None and n > cap:
        rng = np.random.default_rng(derive_seed(seed, "subsample"))
        fit_rows = np.sort(rng.choice(n, size=cap, replace=False))
        fit_vals = vals[fit_rows]
    else:
        fit_vals = vals

    if budget > 0:
        space = default_search_space(kind, vals.shape[1])
        result = random_search(kind, space, fit_vals, budget=budget,
                               seed=derive_seed(seed, "search"),
                               target_fpr=target_fpr)
        merged.update(result.best_params)

    det = make_detector(kind, merged)
    det.fit(fit_vals)
    scores = det.score(vals)
    theta = calibrate_threshold(scores, target_fpr)
    return TrainedModel(
        kind=kind,
        detector=det,
        threshold=theta,
        target_fpr=target_fpr,
        manifest_mode=matrix.mode,
        manifest_names=names,
        manifest_hash=manifest_hash(matrix.mode, names),
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
