"""Five one-class detectors behind a single orientation contract:
higher score = more anomalous, with a quantile-calibrated threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptySpace, ManifestMismatch, TooFewScores
from ..features import NormalizationStats, manifest_hash
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

SEARCH_FOLDS = 5  # cross-validation folds of random_search

__all__ = [
    "KINDS", "DETECTOR_CLASSES", "IsolationForest", "EllipticEnvelope",
    "LocalOutlierFactor", "OneClassSVM", "Autoencoder",
    "anomaly_score_from_mean_path", "average_path_normalizer", "harmonic",
    "calibrate_threshold", "make_detector", "default_search_space",
    "random_search", "SearchResult", "TrainedModel",
]


def make_detector(kind: str, params: dict | None = None):
    if kind not in DETECTOR_CLASSES:
        raise ValueError("unknown detector kind %r" % kind)
    return DETECTOR_CLASSES[kind](**(params or {}))


def calibrate_threshold(scores: np.ndarray, target_fpr: float) -> float:
    """Empirical (1 - target_fpr) quantile of benign validation scores.

    flag(x) := score(x) > threshold, so re-flagging the calibration set
    exceeds the target rate by at most 1/n.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 50:
        raise TooFewScores("need at least 50 calibration scores, got %d"
                           % scores.size)
    if not 0 <= target_fpr < 1:
        raise ValueError("target_fpr must be in [0, 1)")
    return float(np.quantile(scores, 1.0 - target_fpr))


def default_search_space(kind: str, d: int) -> dict:
    """Per-kind hyperparameter ranges for random search."""
    if kind == "if":
        return {"n_trees": ("choice", [50, 100, 200]),
                "subsample_size": ("choice", [128, 256, 512])}
    if kind == "ee":
        return {"ridge": ("loguniform", 1e-8, 1e-2)}
    if kind == "lof":
        return {"k": ("randint", 5, 51)}
    if kind == "osvm":
        return {"nu": ("uniform", 0.02, 0.3),
                "gamma": ("loguniform", 0.1 / max(d, 1), 10.0 / max(d, 1))}
    if kind == "ae":
        return {"learning_rate": ("loguniform", 8e-4, 8e-2),
                "epochs": ("choice", [50, 100]),
                "batch_size": ("choice", [256, 512])}
    raise ValueError("unknown detector kind %r" % kind)


def _sample_params(space: dict, rng: np.random.Generator) -> dict:
    params = {}
    for name, spec in space.items():
        tag = spec[0]
        if tag == "uniform":
            params[name] = float(rng.uniform(spec[1], spec[2]))
        elif tag == "loguniform":
            params[name] = float(np.exp(rng.uniform(np.log(spec[1]),
                                                    np.log(spec[2]))))
        elif tag == "randint":
            params[name] = int(rng.integers(spec[1], spec[2]))
        elif tag == "choice":
            params[name] = spec[1][int(rng.integers(len(spec[1])))]
        elif tag == "fixed":
            params[name] = spec[1]
        else:
            raise ValueError("unknown space entry %r" % (spec,))
    return params


def _kfold_indices(n: int, seed: int):
    order = np.random.default_rng(seed).permutation(n)
    sizes = np.full(SEARCH_FOLDS, n // SEARCH_FOLDS)
    sizes[: n % SEARCH_FOLDS] += 1
    start = 0
    for size in sizes:
        val = order[start:start + size]
        train = np.concatenate([order[:start], order[start + size:]])
        yield train, val
        start += size


@dataclass
class SearchTrial:
    params: dict
    fold_fpr: list[float]
    score_variance: float

    @property
    def mean_fpr(self) -> float:
        return float(np.mean(self.fold_fpr))


@dataclass
class SearchResult:
    kind: str
    best_params: dict
    trials: list[SearchTrial]


def random_search(kind: str, space: dict, X: np.ndarray, budget: int = 20,
                  seed: int = 0, target_fpr: float = 0.02) -> SearchResult:
    """Sample `budget` configurations and cross-validate each on benign
    data over `SEARCH_FOLDS` folds.

    Selection minimizes the mean held-out false-positive rate at the
    quantile-calibrated threshold, tie-broken by lower pooled score
    variance. No labelled anomaly is read: training is benign-only.
    """
    if not space:
        raise EmptySpace("empty hyperparameter space")
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    trials: list[SearchTrial] = []
    for _ in range(budget):
        params = _sample_params(space, rng)
        fold_fpr: list[float] = []
        pooled: list[np.ndarray] = []
        for train_idx, val_idx in _kfold_indices(n, seed):
            det = make_detector(kind, params)
            det.fit(X[train_idx])
            train_scores = det.score(X[train_idx])
            theta = float(np.quantile(train_scores, 1.0 - target_fpr))
            val_scores = det.score(X[val_idx])
            fold_fpr.append(float((val_scores > theta).mean()))
            pooled.append(val_scores)
        trials.append(SearchTrial(
            params=params,
            fold_fpr=fold_fpr,
            score_variance=float(np.var(np.concatenate(pooled))),
        ))
    best = min(range(len(trials)),
               key=lambda t: (trials[t].mean_fpr, trials[t].score_variance))
    return SearchResult(kind=kind, best_params=trials[best].params,
                        trials=trials)


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
    manifest_hash: str
    norm_stats: NormalizationStats | None = None
    seed: int = 0
    # the last input columns seen, as (mode, names), and their projection
    _projection: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def input_projection(self, names: tuple[str, ...], mode: str) -> tuple:
        """(raw column indices, mean, std) of the model's features in a
        matrix with these raw columns. Compiled, and the manifest hash
        checked, only when the columns differ from the last call's."""
        key = (mode, names)
        if self._projection is None or self._projection[0] != key:
            stats, own = self.norm_stats, self.manifest_names
            if stats is None and names == own:  # nothing to z-score
                compiled = (np.arange(len(own)), 0.0, 1.0)
            elif (stats is not None
                  and manifest_hash(mode, names) == stats.input_hash):
                compiled = stats.projection(names, own)
            else:
                raise ManifestMismatch(
                    "matrix columns (hash %s) do not match the model's "
                    "normalizer input" % manifest_hash(mode, names))
            self._projection = (key, compiled)
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
            "normalization": (self.norm_stats.to_dict()
                              if self.norm_stats else None),
            "seed": self.seed,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModel":
        # unknown top-level fields are tolerated for forward compatibility
        kind = d["kind"]
        det = DETECTOR_CLASSES[kind].from_state(d["hyperparams"], d["state"])
        stats = d.get("normalization")
        return cls(
            kind=kind,
            detector=det,
            threshold=float(d["threshold"]),
            target_fpr=float(d.get("target_fpr", 0.0)),
            manifest_mode=d["manifest"]["mode"],
            manifest_names=tuple(d["manifest"]["names"]),
            manifest_hash=d["manifest"]["hash"],
            norm_stats=NormalizationStats.from_dict(stats) if stats else None,
            seed=int(d.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: str) -> "TrainedModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
