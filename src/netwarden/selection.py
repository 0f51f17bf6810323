"""Single-class filter feature ranking on benign data.

Five criteria score each feature independently: spectral smoothness on an
RBF similarity graph, similarity entropy, summed absolute Pearson
correlation, intra-class distance to the centroid, and interquartile
range. For every criterion a LOWER score ranks better: all five then
consistently reward features that are stable and compact on benign
traffic. Per-criterion rankings are combined by mean, majority (median)
or Borda aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors.distance import rbf
from .errors import (
    DegenerateGraph,
    NonPositiveSigma,
    RankListMismatch,
    TooFewSamples,
    ZeroVariance,
)

CRITERIA = ("spectral", "information", "redundancy", "intra_class", "iqr")
AGGREGATIONS = ("mean", "majority", "borda")

SUBSAMPLE_CAP = 2000  # the O(n^2) similarity criteria cap their row count


@dataclass
class SelectionConfig:
    sigma: float = 1.0
    aggregation: str = "mean"
    keep: int | float = 0.65  # int = feature count, float = fraction
    seed: int = 0

    def resolve_keep(self, m: int) -> int:
        if isinstance(self.keep, float) and 0 < self.keep <= 1:
            k = int(round(self.keep * m))
        else:
            k = int(self.keep)
        if not 1 <= k <= m:
            raise ValueError("keep=%r out of range for %d features"
                             % (self.keep, m))
        return k


def rbf_similarity(X: np.ndarray, sigma: float) -> np.ndarray:
    """Pairwise RBF similarity exp(-||xi - xj||^2 / (2 sigma^2)).

    Built on the detectors' fixed-order distance kernel, so S is exactly
    symmetric with a unit diagonal.
    """
    if sigma <= 0:
        raise NonPositiveSigma("sigma must be positive, got %r" % sigma)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return rbf(X, X.T, 1.0 / (2.0 * sigma * sigma))


def _normalized_graph(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt of the degrees, D^-1/2 S D^-1/2) of a similarity graph."""
    deg = S.sum(axis=1)
    if np.any(deg <= 0):
        raise DegenerateGraph("zero-degree node in similarity graph")
    root = np.sqrt(deg)
    return root, (S / root[:, None]) / root[None, :]


def spectral_score(f: np.ndarray, S: np.ndarray) -> float:
    """Normalized-Laplacian smoothness of a feature on the similarity graph.

    The feature column is degree-weighted and unit-normalized; the score is
    its Rayleigh quotient with the normalized Laplacian. Constant features
    lie in the null space and score 0.
    """
    return _spectral(np.asarray(f, dtype=np.float64), *_normalized_graph(S))


def _spectral(f: np.ndarray, root: np.ndarray, w: np.ndarray) -> float:
    """spectral_score on a graph given by _normalized_graph."""
    fh = root * f
    norm = np.linalg.norm(fh)
    if norm == 0:
        return 0.0
    fh /= norm
    score = float(fh @ fh - fh @ (w @ fh))
    return max(score, 0.0)


def information_score(f: np.ndarray, sigma: float) -> float:
    """Total binary entropy of the feature's own similarity matrix.

    E = -sum_ij [S log2 S + (1-S) log2 (1-S)] with 0*log2(0) := 0.
    Lower entropy means the feature induces crisp structure.
    """
    S = rbf_similarity(f, sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(S > 0.0, S * np.log2(S, out=np.zeros_like(S),
                                           where=S > 0.0), 0.0)
        one_m = 1.0 - S
        t2 = np.where(one_m > 0.0,
                      one_m * np.log2(one_m, out=np.zeros_like(one_m),
                                      where=one_m > 0.0), 0.0)
    return float(-(t1 + t2).sum())


def pearson_redundancy(i: int, X: np.ndarray,
                       corr: np.ndarray | None = None) -> float:
    """Sum of |pearson| between feature i and every other feature."""
    if corr is None:
        corr = _abs_corr(np.asarray(X, dtype=np.float64))
    return float(corr[i].sum() - corr[i, i])


def _abs_corr(X: np.ndarray) -> np.ndarray:
    std = X.std(axis=0)
    if np.any(std == 0):
        raise ZeroVariance("constant column reached the redundancy "
                           "criterion; normalize first")
    c = np.corrcoef(X, rowvar=False)
    return np.abs(np.atleast_2d(c))


def intra_class_distance(f: np.ndarray) -> float:
    """Mean Euclidean distance of the single-feature values to their
    centroid."""
    f = np.asarray(f, dtype=np.float64)
    return float(np.abs(f - f.mean()).mean())


def iqr_score(f: np.ndarray) -> float:
    """Interquartile range with linear-interpolation quantiles."""
    f = np.asarray(f, dtype=np.float64)
    if f.size < 4:
        raise TooFewSamples("IQR needs at least 4 samples, got %d" % f.size)
    q1, q3 = np.percentile(f, [25.0, 75.0])
    return float(q3 - q1)


def _ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    """Rank 1..m, lower score = better rank; ties broken by column order."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


@dataclass
class RankedFeatureList:
    names: tuple[str, ...]
    scores: dict[str, np.ndarray]       # criterion -> per-feature score
    ranks: dict[str, np.ndarray]        # criterion -> per-feature rank 1..m
    aggregation: str
    aggregate_values: np.ndarray        # per-feature aggregate statistic
    order: np.ndarray                   # feature indices, best first
    selected: tuple[str, ...]

    def csv_rows(self):
        header = ["feature"]
        header += ["%s_score" % c for c in CRITERIA]
        header += ["%s_rank" % c for c in CRITERIA]
        header += ["aggregate", "selected"]
        yield header
        chosen = set(self.selected)
        for i, name in enumerate(self.names):
            row = [name]
            row += [repr(float(self.scores[c][i])) for c in CRITERIA]
            row += [str(int(self.ranks[c][i])) for c in CRITERIA]
            row += [repr(float(self.aggregate_values[i])),
                    "1" if name in chosen else "0"]
            yield row


def aggregate_ranks(rank_lists: dict[str, np.ndarray], method: str,
                    names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-criterion rank lists into one ordering.

    mean: ascending average rank. majority: ascending median rank.
    borda: descending total points (m - rank per list). Ties keep
    manifest order.
    """
    m = len(names)
    lists = list(rank_lists.values())
    if not lists:
        raise RankListMismatch("no rank lists given")
    for r in lists:
        if len(r) != m:
            raise RankListMismatch(
                "rank list length %d does not cover %d features"
                % (len(r), m))
        if sorted(r) != list(range(1, m + 1)):
            raise RankListMismatch("ranks are not a permutation of 1..m")
    R = np.vstack(lists).astype(np.float64)
    if method == "mean":
        agg = R.mean(axis=0)
        order = np.argsort(agg, kind="stable")
    elif method == "majority":
        agg = np.median(R, axis=0)
        order = np.argsort(agg, kind="stable")
    elif method == "borda":
        agg = (m - R).sum(axis=0)
        order = np.argsort(-agg, kind="stable")
    else:
        raise ValueError("unknown aggregation %r" % method)
    return agg, order


def rank_features(X: np.ndarray, names: tuple[str, ...],
                  cfg: SelectionConfig | None = None) -> RankedFeatureList:
    """Score, rank, and aggregate all columns of a normalized matrix."""
    cfg = cfg or SelectionConfig()
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if len(names) != m:
        raise RankListMismatch("%d names for %d columns" % (len(names), m))
    Xs = X
    if n > SUBSAMPLE_CAP:
        rng = np.random.default_rng(cfg.seed)
        idx = np.sort(rng.choice(n, size=SUBSAMPLE_CAP, replace=False))
        Xs = X[idx]
    root, w = _normalized_graph(rbf_similarity(Xs, cfg.sigma))
    corr = _abs_corr(X)
    scores = {
        "spectral": np.array([_spectral(Xs[:, j], root, w)
                              for j in range(m)]),
        "information": np.array([information_score(Xs[:, j], cfg.sigma)
                                 for j in range(m)]),
        "redundancy": np.array([pearson_redundancy(j, X, corr)
                                for j in range(m)]),
        "intra_class": np.array([intra_class_distance(X[:, j])
                                 for j in range(m)]),
        "iqr": np.array([iqr_score(X[:, j]) for j in range(m)]),
    }
    ranks = {c: _ranks_from_scores(scores[c]) for c in CRITERIA}
    agg, order = aggregate_ranks(ranks, cfg.aggregation, names)
    k = cfg.resolve_keep(m)
    selected = tuple(names[i] for i in order[:k])
    return RankedFeatureList(
        names=tuple(names),
        scores=scores,
        ranks=ranks,
        aggregation=cfg.aggregation,
        aggregate_values=agg,
        order=order,
        selected=selected,
    )
