"""Local outlier factor with novelty-query semantics.

LOF_k(x) = mean_{y in N_k(x)} lrd_k(y) / lrd_k(x), where N_k includes
every training point within the k-distance (ties count), reachability
distance is max(k-distance(y), d(x, y)), and local reachability density
is the inverse mean reachability with a small additive floor so that
duplicate-heavy data keeps finite densities.

Fit and score walk the query rows in blocks of QUERY_BLOCK against all
training points, so no n x n matrix is held; score computes each
distinct query row once.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyTraining, KTooLarge
from .distance import sq_dists

LRD_FLOOR = 1e-10
QUERY_BLOCK = 64  # query rows per block of squared distances
# sqrt rounds squared distances up to 2 ulps (2 eps) above kd^2 onto kd
# itself; a candidate bound 8 eps above kd^2 misses none of them
WIDEN = 1.0 + 8 * np.finfo(np.float64).eps


def _distance_blocks(Q: np.ndarray, XT: np.ndarray, own: bool):
    """(start, squared distances to the training points XT) of each block
    of query rows; with `own` the queries are the training points, and no
    point is its own neighbour."""
    for s in range(0, Q.shape[0], QUERY_BLOCK):
        D2 = sq_dists(Q[s:s + QUERY_BLOCK], XT)
        if own:
            r = np.arange(D2.shape[0])
            D2[r, s + r] = np.inf
        yield s, D2


def _kth(D2: np.ndarray, k: int) -> np.ndarray:
    """k-th smallest entry of each row: the squared k-distance, whose sqrt
    is the k-th smallest distance."""
    return np.partition(D2, k - 1, axis=1)[:, k - 1]


def _neighbourhood(row: np.ndarray, kd2: float, kd: float,
                   kdist: np.ndarray) -> tuple:
    """(neighbour indices, lrd) of a point whose squared distances to the
    training points are `row` and whose k-distance is kd = sqrt(kd2);
    `kdist` holds the training points' k-distances."""
    nbr = np.flatnonzero(row <= kd2 * WIDEN)
    d = np.sqrt(row[nbr])
    tied = d <= kd
    if not tied.all():
        nbr, d = nbr[tied], d[tied]
    reach = np.maximum(kdist[nbr], d)
    # the arithmetic of reach.mean() without its Python overhead
    return nbr, 1.0 / (np.add.reduce(reach) / reach.size + LRD_FLOOR)


class LocalOutlierFactor:
    kind = "lof"

    def __init__(self, k: int = 20):
        self.k = int(k)
        self._XT = None  # training rows, transposed (d, n)
        self._kdist = None
        self._lrd = None

    def fit(self, X: np.ndarray) -> "LocalOutlierFactor":
        X = np.asarray(X, dtype=np.float64)
        if X.size == 0:
            raise EmptyTraining("LOF needs training rows")
        n = X.shape[0]
        if self.k >= n:
            raise KTooLarge("k=%d with only %d training points"
                            % (self.k, n))
        XT = np.ascontiguousarray(X.T)
        # every lrd needs every k-distance: one pass for those, one for lrd
        kd2 = np.empty(n, dtype=np.float64)
        for s, D2 in _distance_blocks(X, XT, own=True):
            kd2[s:s + D2.shape[0]] = _kth(D2, self.k)
        kdist = np.sqrt(kd2)
        lrd = np.empty(n, dtype=np.float64)
        for s, D2 in _distance_blocks(X, XT, own=True):
            for i in range(D2.shape[0]):
                _, lrd[s + i] = _neighbourhood(D2[i], kd2[s + i],
                                               kdist[s + i], kdist)
        self._XT = XT
        self._kdist = kdist
        self._lrd = lrd
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """LOF of each query against the training set."""
        if self._XT is None:
            raise EmptyTraining("model is not fitted")
        Q = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if Q.shape[0] == 1:
            return self._score_rows(Q)
        # a score depends only on the row's bytes: score each once
        Q = np.ascontiguousarray(Q)
        rows = Q.view(np.dtype((np.void, Q.itemsize * Q.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True,
                                      return_inverse=True)
        return self._score_rows(Q[first])[inverse]

    def _score_rows(self, Q: np.ndarray) -> np.ndarray:
        out = np.empty(Q.shape[0], dtype=np.float64)
        kdist, lrd = self._kdist, self._lrd
        for s, D2 in _distance_blocks(Q, self._XT, own=False):
            kd2 = _kth(D2, self.k)
            kd = np.sqrt(kd2)
            for i in range(D2.shape[0]):
                nbr, lrd_q = _neighbourhood(D2[i], kd2[i], kd[i], kdist)
                near = lrd[nbr]
                out[s + i] = np.add.reduce(near) / near.size / lrd_q
        return out

    def get_params(self) -> dict:
        return {"k": self.k}

    def state_dict(self) -> dict:
        return {"train": self._XT.T.tolist(), "kdist": self._kdist.tolist(),
                "lrd": self._lrd.tolist()}

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "LocalOutlierFactor":
        model = cls(**params)
        model._XT = np.ascontiguousarray(
            np.asarray(state["train"], dtype=np.float64).T)
        model._kdist = np.asarray(state["kdist"], dtype=np.float64)
        model._lrd = np.asarray(state["lrd"], dtype=np.float64)
        return model
