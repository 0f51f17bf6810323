"""Five one-class detectors behind a single orientation contract:
higher score = more anomalous, with a quantile-calibrated threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import MalformedModel, ManifestMismatch, TooFewScores
from ..features import NormalizationStats, manifest_hash
from ..settings import SEED, Setting
from .autoencoder import Autoencoder
from .elliptic import EllipticEnvelope
from .iforest import (
    IsolationForest,
    anomaly_score_from_mean_path,
    average_path_normalizer,
    harmonic,
)
from .lof import LocalOutlierFactor
from .ocsvm import OneClassSVM

KINDS = ("if", "ee", "lof", "osvm", "ae")

DETECTOR_CLASSES = {
    "if": IsolationForest,
    "ee": EllipticEnvelope,
    "lof": LocalOutlierFactor,
    "osvm": OneClassSVM,
    "ae": Autoencoder,
}

MODEL_FORMAT_VERSION = 1

KIND = Setting(None, "osvm", choices=KINDS)  # the CLI's default is osvm
# benign rows flagged at the calibrated threshold
TARGET_FPR = Setting(float, 0.02, "[0, 1)")

# the input columns a fitted detector's state holds (a forest: its highest
# split column, plus one)
_STATE_WIDTH = {"if": lambda m: m._width, "ee": lambda m: m.mu.size,
                "lof": lambda m: m._XT.shape[0],
                "osvm": lambda m: m._svT.shape[0],
                "ae": lambda m: m.weights[0].shape[0]}

__all__ = [
    "KINDS", "KIND", "DETECTOR_CLASSES", "TARGET_FPR", "IsolationForest",
    "EllipticEnvelope", "LocalOutlierFactor", "OneClassSVM", "Autoencoder",
    "anomaly_score_from_mean_path", "average_path_normalizer", "harmonic",
    "calibrate_threshold", "make_detector", "TrainedModel",
]


def make_detector(kind: str, params: dict | None = None):
    return DETECTOR_CLASSES[KIND.check("kind", kind)](
        **({} if params is None else params))


def calibrate_threshold(scores: np.ndarray, target_fpr: float) -> float:
    """Empirical (1 - target_fpr) quantile of benign validation scores.

    flag(x) := score(x) > threshold, so re-flagging the calibration set
    exceeds the target rate by at most 1/n.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 50:
        raise TooFewScores("need at least 50 calibration scores, got %d"
                           % scores.size)
    target_fpr = TARGET_FPR.check("target_fpr", target_fpr)
    return float(np.quantile(scores, 1.0 - target_fpr))


@dataclass
class TrainedModel:
    """A fitted detector plus everything needed to score new data:
    decision threshold, feature manifest, and normalization stats."""

    kind: str
    detector: object
    threshold: float
    target_fpr: float
    manifest_mode: str
    manifest_names: tuple[str, ...]
    norm_stats: NormalizationStats
    seed: int = 0
    # the last input columns seen, as (mode, names), and their projection
    _projection: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def manifest_hash(self) -> str:
        return manifest_hash(self.manifest_mode, self.manifest_names)

    def input_projection(self, names: tuple[str, ...], mode: str) -> tuple:
        """(raw column indices, mean, std) of the model's features in a
        matrix with these raw columns. Compiled, and the manifest hash
        checked, only when the columns differ from the last call's."""
        key = (mode, names)
        if self._projection is None or self._projection[0] != key:
            stats = self.norm_stats
            if manifest_hash(mode, names) != stats.input_hash:
                raise ManifestMismatch(
                    "matrix columns (hash %s) do not match the model's "
                    "normalizer input" % manifest_hash(mode, names))
            self._projection = (key, stats.projection(names,
                                                      self.manifest_names))
        return self._projection[1]

    def score(self, X: np.ndarray) -> np.ndarray:
        return self.detector.score(X)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "hyperparams": self.detector.get_params(),
            "state": self.detector.state_dict(),
            "threshold": self.threshold,
            "target_fpr": self.target_fpr,
            "manifest": {
                "mode": self.manifest_mode,
                "names": list(self.manifest_names),
                "hash": self.manifest_hash,
            },
            "normalization": self.norm_stats.to_dict(),
            "seed": self.seed,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModel":
        """The model a file holds. An unknown kind, a missing key, a
        non-finite threshold, a manifest hash that is not its mode's and
        names', hyperparameters or state that the detector refuses, a
        state whose input width differs from the manifest's, a manifest
        name the normalization does not keep, or a normalization mean or
        std without one value per kept name raise MalformedModel."""
        # unknown top-level fields are tolerated for forward compatibility
        try:
            kind = KIND.check("kind", d["kind"])
            det = DETECTOR_CLASSES[kind].from_state(d["hyperparams"],
                                                    d["state"])
            threshold = float(d["threshold"])
            if not math.isfinite(threshold):  # would flag no row
                raise MalformedModel("threshold %r is not finite" % threshold)
            names = tuple(d["manifest"]["names"])
            width = _STATE_WIDTH[kind](det)
            if width > len(names) or (kind != "if" and width < len(names)):
                raise MalformedModel(
                    "%s state reads %d input columns, the manifest names %d"
                    % (kind, width, len(names)))
            norm = NormalizationStats.from_dict(d["normalization"])
            for name in names:
                if name not in norm.kept_names:
                    raise MalformedModel(
                        "the manifest names %r, which normalization "
                        "kept_names lacks" % (name,))
            for stat in ("mean", "std"):
                shape = getattr(norm, stat).shape
                if shape != (len(norm.kept_names),):
                    raise MalformedModel(
                        "normalization %s has shape %s, not one value for "
                        "each of %d kept names"
                        % (stat, shape, len(norm.kept_names)))
            model = cls(
                kind=kind,
                detector=det,
                threshold=threshold,
                target_fpr=TARGET_FPR.check("target_fpr", d["target_fpr"]),
                manifest_mode=d["manifest"]["mode"],
                manifest_names=names,
                norm_stats=norm,
                seed=SEED.check("seed", d["seed"]),
            )
            if d["manifest"]["hash"] != model.manifest_hash:
                raise MalformedModel("manifest hash %r is not its mode's "
                                     "and names'" % (d["manifest"]["hash"],))
            return model
        except KeyError as exc:
            raise MalformedModel("model file lacks the key %s" % exc) from None
        except (ValueError, TypeError) as exc:  # LinAlgError is a ValueError
            raise MalformedModel("model file: %s" % exc) from None

    @classmethod
    def load(cls, path: str) -> "TrainedModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
