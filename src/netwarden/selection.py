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

from .detectors.distance import BLOCK_BYTES, rbf
from .errors import (
    DegenerateGraph,
    NonPositiveSigma,
    RankListMismatch,
    TooFewSamples,
    ZeroVariance,
)
from .settings import Setting, settings_of

CRITERIA = ("spectral", "information", "redundancy", "intra_class", "iqr")
AGGREGATIONS = ("mean", "majority", "borda")

SUBSAMPLE_CAP = 2000  # the O(n^2) similarity criteria cap their row count
SPECTRAL_DECIMALS = 13  # spectral scores are kept to 1e-13


@dataclass
class SelectionConfig:
    sigma: float = Setting(float, 1.0, "(0, inf)").field()  # RBF bandwidth
    aggregation: str = Setting(None, "mean", choices=AGGREGATIONS).field()
    # a float fraction of the features, or an int count of them
    keep: int | float = Setting(float, 0.65, "(0, 1]").field()
    seed: int = 0

    def resolve_keep(self, m: int) -> int:
        """The count of the m features kept: keep, or keep's fraction of
        them rounded; ValueError unless it is in 1..m."""
        k = self.keep
        if isinstance(k, float):
            k = int(round(settings_of(SelectionConfig)["keep"].check(
                "keep", k) * m))
        if not 1 <= k <= m:
            raise ValueError("keep=%r out of range for %d features"
                             % (self.keep, m))
        return k


def _gamma(sigma: float) -> float:
    """The RBF exponent 1 / (2 sigma^2) of a bandwidth sigma."""
    sigma = settings_of(SelectionConfig)["sigma"].check("sigma", sigma,
                                                        NonPositiveSigma)
    return 1.0 / (2.0 * sigma * sigma)


def _row_blocks(n: int):
    """Row slices of an n-column float64 matrix, BLOCK_BYTES each."""
    rows = max(1, BLOCK_BYTES // (8 * max(n, 1)))
    return (slice(s, min(s + rows, n)) for s in range(0, n, rows))


def spectral_scores(F: np.ndarray, X: np.ndarray, sigma: float) -> np.ndarray:
    """Laplacian Score of each column f of F on the RBF graph S of X's rows:
    1/2 sum_ij S_ij (f_i - f_j)^2 / sum_i d_i f_i^2, d the degrees of S.

    It equals the Rayleigh quotient of the degree-weighted f with the
    normalized Laplacian, but sums differences, so it does not cancel. S is
    built in row blocks. Scores are rounded to SPECTRAL_DECIMALS: features
    that cut the graph along the same edges (proto_tcp, proto_udp, counts
    nonzero only on TCP) then tie, in column order, instead of ranking by
    the few ulps in which their z-scores differ.
    """
    n, gamma = X.shape[0], _gamma(sigma)
    deg, num = np.empty(n), np.zeros(F.shape[1])
    XT = np.ascontiguousarray(X.T)
    for b in _row_blocks(n):
        S = rbf(X[b], XT, gamma)
        deg[b] = S.sum(axis=1)
        diff = np.empty_like(S)
        for j in range(F.shape[1]):
            np.subtract(F[b, j, None], F[None, :, j], out=diff)
            num[j] += np.vdot(S, np.multiply(diff, diff, out=diff))
    if not np.all(deg > 0):  # NaN too: it would give every column 0
        raise DegenerateGraph("zero or NaN degree in similarity graph")
    den = deg @ (F * F)
    score = np.divide(0.5 * num, den, out=np.zeros_like(num), where=den > 0)
    return np.round(score, SPECTRAL_DECIMALS)


def information_score(f: np.ndarray, sigma: float) -> float:
    """Total binary entropy of the feature's own similarity matrix.

    E = -sum_ij [S log2 S + (1-S) log2 (1-S)] with 0*log2(0) := 0.
    Lower entropy means the feature induces crisp structure. S_ij depends
    only on the two values, so E = -c^T H(S(v, v)) c over the distinct
    values v with counts c, summed in row blocks of the upper triangle.
    """
    v, c = np.unique(f, return_counts=True)
    total, gamma = 0.0, _gamma(sigma)
    for b in _row_blocks(v.size):
        S = rbf(v[b, None], v[None, b.start:], gamma)
        one_m = 1.0 - S
        H = S * np.log2(S, out=np.zeros_like(S), where=S > 0.0)
        H += one_m * np.log2(one_m, out=np.zeros_like(S), where=one_m > 0.0)
        # pairs inside the block appear twice in H, pairs beyond it once
        total += c[b] @ (H @ np.concatenate([c[b], 2.0 * c[b.stop:]]))
    return float(-total)


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
    settings_of(SelectionConfig)["aggregation"].check("aggregation", method)
    R = np.vstack(lists).astype(np.float64)
    if method == "mean":
        agg = R.mean(axis=0)
        order = np.argsort(agg, kind="stable")
    elif method == "majority":
        agg = np.median(R, axis=0)
        order = np.argsort(agg, kind="stable")
    else:  # borda
        agg = (m - R).sum(axis=0)
        order = np.argsort(-agg, kind="stable")
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
    corr = _abs_corr(X)
    scores = {
        "spectral": spectral_scores(Xs, Xs, cfg.sigma),
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
