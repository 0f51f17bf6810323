"""Isolation forest: anomalies are points with short average isolation
paths across an ensemble of random trees.

The anomaly score is 2^(-E(h(x))/c(n)) where E(h(x)) averages the path
length over trees and c(n) is the expected path length of an unsuccessful
BST search, computed with exact harmonic numbers so small-n values are
exact (c(2) = 1).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import EmptyTraining

_HARMONIC_CACHE = [0.0]  # H(0) = 0
WALK_PAIRS = 16_384  # (row, tree) pairs walked together in mean_path_length


def harmonic(k: int) -> float:
    """Exact partial sum H(k) = 1 + 1/2 + ... + 1/k."""
    cache = _HARMONIC_CACHE
    while len(cache) <= k:
        cache.append(cache[-1] + 1.0 / len(cache))
    return cache[k]


def average_path_normalizer(n: int) -> float:
    """c(n): expected unsuccessful-search path length in a BST of n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * harmonic(n - 1) - 2.0 * (n - 1) / n


def anomaly_score_from_mean_path(mean_path: float, n: int) -> float:
    """Anomaly score 2^(-mean_path / c(n))."""
    c = average_path_normalizer(n)
    if c <= 0:
        return 1.0
    return 2.0 ** (-mean_path / c)


class _TreeBuilder:
    __slots__ = ("feature", "threshold", "left", "right", "leaf_path",
                 "height_limit", "rng")

    def __init__(self, height_limit: int, rng: np.random.Generator):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_path: list[float] = []
        self.height_limit = height_limit
        self.rng = rng

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_path.append(0.0)
        return len(self.feature) - 1

    def build(self, X: np.ndarray, depth: int) -> int:
        node = self._new_node()
        n = X.shape[0]
        if n <= 1 or depth >= self.height_limit:
            self.leaf_path[node] = depth + average_path_normalizer(n)
            return node
        spread = X.max(axis=0) - X.min(axis=0)
        candidates = np.flatnonzero(spread > 0)
        if candidates.size == 0:  # all points identical
            self.leaf_path[node] = depth + average_path_normalizer(n)
            return node
        q = int(candidates[self.rng.integers(candidates.size)])
        lo = X[:, q].min()
        hi = X[:, q].max()
        p = self.rng.uniform(lo, hi)
        mask = X[:, q] < p
        self.feature[node] = q
        self.threshold[node] = p
        self.left[node] = self.build(X[mask], depth + 1)
        self.right[node] = self.build(X[~mask], depth + 1)
        return node


class IsolationForest:
    """Ensemble of isolation trees built on seeded subsamples."""

    kind = "if"

    def __init__(self, n_trees: int = 100, subsample_size: int = 256,
                 seed: int = 0):
        self.n_trees = int(n_trees)
        self.subsample_size = int(subsample_size)
        self.seed = int(seed)
        self._feat = None
        self._effective_subsample = None

    def fit(self, X: np.ndarray) -> "IsolationForest":
        X = np.asarray(X, dtype=np.float64)
        if X.size == 0:
            raise EmptyTraining("isolation forest needs training rows")
        n = X.shape[0]
        psi = min(self.subsample_size, n)
        self._effective_subsample = psi
        height_limit = max(1, math.ceil(math.log2(max(psi, 2))))
        rng = np.random.default_rng(self.seed)
        trees = []
        for _ in range(self.n_trees):
            idx = rng.choice(n, size=psi, replace=False)
            builder = _TreeBuilder(height_limit, rng)
            builder.build(X[idx], 0)
            trees.append({"feature": builder.feature,
                          "threshold": builder.threshold,
                          "left": builder.left, "right": builder.right,
                          "leaf_path": builder.leaf_path})
        self._stack_trees(trees)
        return self

    def _stack_trees(self, trees: list[dict]) -> None:
        """Concatenate trees in the saved per-tree format into flat node
        arrays, each tree's child indices shifted by its offset. Leaves
        are told by feature -1."""
        def flat(key, dtype):
            return np.concatenate([tree[key] for tree in trees], dtype=dtype)
        sizes = np.array([len(tree["feature"]) for tree in trees])
        self._roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        offset = np.repeat(self._roots, sizes)
        self._feat = flat("feature", np.int64)
        self._thresh = flat("threshold", np.float64)
        self._left = flat("left", np.int64) + offset
        self._right = flat("right", np.int64) + offset
        self._path = flat("leaf_path", np.float64)

    def mean_path_length(self, X: np.ndarray) -> np.ndarray:
        """E(h(x)) per row, averaged over the ensemble.

        Walks (row, tree) pairs level by level in blocks of about
        WALK_PAIRS pairs, dropping the pairs that reached a leaf.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n = X.shape[0]
        t = self._roots.size
        out = np.empty(n, dtype=np.float64)
        chunk = max(1, WALK_PAIRS // t)
        for start in range(0, n, chunk):
            rows = X[start:start + chunk]
            b = rows.shape[0]
            leaf = np.empty(b * t, dtype=np.int64)
            pair = np.arange(b * t)
            row = pair // t
            node = np.tile(self._roots, b)
            while pair.size:
                feat = self._feat[node]
                done = feat < 0
                leaf[pair[done]] = node[done]
                walking = ~done
                pair, row, node, feat = (
                    pair[walking], row[walking], node[walking], feat[walking])
                go_left = rows[row, feat] < self._thresh[node]
                node = np.where(go_left, self._left[node], self._right[node])
            out[start:start + b] = self._path[leaf].reshape(b, t).mean(axis=1)
        return out

    def score(self, X: np.ndarray) -> np.ndarray:
        """Normalized anomaly score in (0, 1]; higher = more anomalous."""
        if self._feat is None:
            raise EmptyTraining("model is not fitted")
        mean_paths = self.mean_path_length(X)
        c = average_path_normalizer(self._effective_subsample)
        return np.power(2.0, -mean_paths / c)

    def get_params(self) -> dict:
        return {"n_trees": self.n_trees,
                "subsample_size": self.subsample_size, "seed": self.seed}

    def state_dict(self) -> dict:
        def per_tree(a):
            return np.split(a, self._roots[1:])
        trees = [
            {"feature": f.tolist(), "threshold": th.tolist(),
             "left": (le - lo).tolist(), "right": (ri - lo).tolist(),
             "leaf_path": pa.tolist()}
            for lo, f, th, le, ri, pa in zip(
                self._roots, *map(per_tree, (self._feat, self._thresh,
                                             self._left, self._right,
                                             self._path)))
        ]
        return {"effective_subsample": self._effective_subsample,
                "trees": trees}

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "IsolationForest":
        model = cls(**params)
        model._effective_subsample = int(state["effective_subsample"])
        model._stack_trees(state["trees"])
        return model
