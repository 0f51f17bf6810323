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

from ..errors import EmptyTraining, MalformedModel
from ..settings import SEED, Declared, Setting
from .distance import distinct_rows

_HARMONIC_CACHE = [0.0]  # H(0) = 0
BLOCK_PAIRS = 16_384  # (row, tree) pairs walked together in mean_path_length
_KEYS = ("feature", "threshold", "left", "right", "leaf_path")  # saved lists


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


def height_limit(psi: int) -> int:
    """Depth at which a tree grown on psi rows stops splitting."""
    return max(1, math.ceil(math.log2(max(psi, 2))))


def _grow(X: np.ndarray, depth: int, limit: int, rng: np.random.Generator,
          nodes: list) -> int:
    """Grow an isolation tree on the rows X, appending its nodes to `nodes`
    in preorder as lists in _KEYS order; return the index of its root."""
    node = len(nodes)
    n = X.shape[0]
    nodes.append([-1, 0.0, -1, -1, depth + average_path_normalizer(n)])
    if n <= 1 or depth >= limit:
        return node
    lo, hi = X.min(axis=0), X.max(axis=0)
    candidates = np.flatnonzero(hi > lo)
    if candidates.size == 0:  # all points identical
        return node
    q = int(candidates[rng.integers(candidates.size)])
    p = rng.uniform(lo[q], hi[q])
    mask = X[:, q] < p
    left = _grow(X[mask], depth + 1, limit, rng, nodes)
    right = _grow(X[~mask], depth + 1, limit, rng, nodes)
    nodes[node] = [q, p, left, right, 0.0]
    return node


class IsolationForest(Declared):
    """Ensemble of isolation trees built on seeded subsamples."""

    kind = "if"
    PARAMS = {"n_trees": Setting(int, 100, "[1, inf)"),
              "subsample_size": Setting(int, 256, "[1, inf)"),
              "seed": SEED}
    _feat = _effective_subsample = None  # fitted state, set by fit

    def fit(self, X: np.ndarray) -> "IsolationForest":
        X = np.asarray(X, dtype=np.float64)
        if X.size == 0:
            raise EmptyTraining("isolation forest needs training rows")
        n = X.shape[0]
        self._effective_subsample = psi = min(self.subsample_size, n)
        limit = height_limit(psi)
        rng = np.random.default_rng(self.seed)
        trees = []
        for _ in range(self.n_trees):
            nodes = []
            _grow(X[rng.choice(n, size=psi, replace=False)], 0, limit, rng,
                  nodes)
            trees.append(dict(zip(_KEYS, map(list, zip(*nodes)))))
        self._stack_trees(trees)
        return self

    def _stack_trees(self, trees: list[dict]) -> None:
        """Lay out the saved trees as complete binary trees of depth
        h = height_limit(psi), node i's children at 2i+1 and 2i+2. A leaf
        above depth h becomes a pass-through subtree whose leaves all carry
        its path length. MalformedModel names the tree if a child is out of
        range, a node is reached twice or a node at depth h splits."""
        if not trees:
            raise MalformedModel("isolation forest has no trees")
        self._trees = [{k: list(tree[k]) for k in _KEYS} for tree in trees]
        sizes = np.array([len(tree["feature"]) for tree in self._trees])
        for i, tree in enumerate(self._trees):
            if not sizes[i] or {len(v) for v in tree.values()} != {sizes[i]}:
                raise MalformedModel("tree %d: node lists empty or uneven" % i)
        roots = np.cumsum(sizes) - sizes
        dtypes = (np.intp, np.float64, np.intp, np.intp, np.float64)
        feat, thresh, left, right, path = (np.concatenate(
            [tree[k] for tree in self._trees], dtype=dt)
            for k, dt in zip(_KEYS, dtypes))

        def fail(node, what):
            tree = int(np.searchsorted(roots, node, side="right")) - 1
            raise MalformedModel("tree %d: node %d %s"
                                 % (tree, node - roots[tree], what))
        kids = np.stack([left, right])
        bad = ((kids < 0) | (kids >= np.repeat(sizes, sizes))).any(axis=0)
        if (bad & (feat >= 0)).any():
            fail(np.argmax(bad & (feat >= 0)), "has a child out of range")
        kids += np.repeat(roots, sizes)
        h = height_limit(self._effective_subsample)
        visits = np.bincount(roots, minlength=feat.size)
        node = roots[:, None]  # the saved node behind each layout position
        levels = []
        for depth in range(h + 1):
            split = feat[node] >= 0
            levels.append((np.where(split, feat[node], 0),
                           np.where(split, thresh[node], 0.0), path[node]))
            if depth == h:
                break
            visits += np.bincount(kids[:, node[split]].ravel(),
                                  minlength=feat.size)
            if visits.max() > 1:
                fail(np.argmax(visits > 1), "is reached twice")
            node = np.where(split, kids[:, node], node)
            node = np.moveaxis(node, 0, -1).reshape(len(roots), -1)
        if split.any():
            fail(node[split][0], "splits at depth %d, where trees of psi = "
                 "%d rows end in leaves" % (h, self._effective_subsample))
        self._depth = h
        self._feat, self._thresh, self._path = (
            np.concatenate(level, axis=1).ravel() for level in zip(*levels))
        self._base = np.arange(len(roots)) * ((2 << h) - 1)  # tree offsets
        self._width = int(self._feat.max()) + 1  # columns a row must have

    def mean_path_length(self, X: np.ndarray) -> np.ndarray:
        """E(h(x)) per row, averaged over the ensemble. Each (row, tree)
        pair of a block of about BLOCK_PAIRS pairs takes exactly h steps
        down its complete tree, left if x[feat] < thr and otherwise right
        (NaN too), so a row's mean does not depend on its block or batch."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        n, d = X.shape
        if d < self._width:
            raise ValueError("rows of %d columns are too narrow" % d)
        values, base, out = X.ravel(), self._base, np.empty(n)
        chunk = max(1, BLOCK_PAIRS // base.size)
        for start in range(0, n, chunk):
            b = min(chunk, n - start)
            row_base = np.arange(start, start + b)[:, None] * d
            node = np.zeros((b, base.size), dtype=np.intp)
            for _ in range(self._depth):
                at = node + base
                x = values.take(self._feat.take(at) + row_base)
                node = 2 * node + 1 + ~(x < self._thresh.take(at))
            out[start:start + b] = self._path.take(node + base).mean(axis=1)
        return out

    def score(self, X: np.ndarray) -> np.ndarray:
        """Normalized anomaly score in (0, 1]; higher = more anomalous.
        Each distinct row is walked once."""
        if self._feat is None:
            raise EmptyTraining("model is not fitted")
        rows, inverse = distinct_rows(
            np.atleast_2d(np.asarray(X, dtype=np.float64)))
        mean_paths = self.mean_path_length(rows)
        c = average_path_normalizer(self._effective_subsample)
        if c <= 0:  # fit on one row: as anomaly_score_from_mean_path
            return np.ones_like(mean_paths)[inverse]
        return np.power(2.0, -mean_paths / c)[inverse]

    def state_dict(self) -> dict:
        return {"effective_subsample": self._effective_subsample,
                "trees": [{k: list(v) for k, v in tree.items()}
                          for tree in self._trees]}

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "IsolationForest":
        model = cls(**params)
        model._effective_subsample = int(state["effective_subsample"])
        model._stack_trees(state["trees"])
        return model
