"""Local outlier factor with novelty-query semantics.

LOF_k(x) = mean_{y in N_k(x)} lrd_k(y) / lrd_k(x), where N_k includes
every training point within the k-distance (ties count), reachability
distance is max(k-distance(y), d(x, y)), and local reachability density
is the inverse mean reachability with a small additive floor so that
duplicate-heavy data keeps finite densities.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyTraining, KTooLarge
from .distance import sq_dists

LRD_FLOOR = 1e-10
QUERY_BLOCK = 1024  # query rows per distance block in score()


def _neighbourhood(d: np.ndarray, kd: float, kdist: np.ndarray) -> tuple:
    """(neighbour indices, lrd) of a point whose distances to the training
    points are `d` and whose k-distance is `kd`; `kdist` holds the
    training points' k-distances."""
    nbr = np.flatnonzero(d <= kd)
    reach = np.maximum(kdist[nbr], d[nbr])
    return nbr, 1.0 / (reach.mean() + LRD_FLOOR)


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
        D = sq_dists(X, XT)
        np.sqrt(D, out=D)
        np.fill_diagonal(D, np.inf)  # a training point is not its own neighbor
        # k-distance: k-th smallest distance to another training point
        kdist = np.partition(D, self.k - 1, axis=1)[:, self.k - 1]
        lrd = np.empty(n, dtype=np.float64)
        for i in range(n):
            _, lrd[i] = _neighbourhood(D[i], kdist[i], kdist)
        self._XT = XT
        self._kdist = kdist
        self._lrd = lrd
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """LOF of each query against the training set."""
        if self._XT is None:
            raise EmptyTraining("model is not fitted")
        Q = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(Q.shape[0], dtype=np.float64)
        for s in range(0, Q.shape[0], QUERY_BLOCK):
            D = sq_dists(Q[s:s + QUERY_BLOCK], self._XT)
            np.sqrt(D, out=D)
            kdist_q = np.partition(D, self.k - 1, axis=1)[:, self.k - 1]
            for i in range(D.shape[0]):
                nbr, lrd_q = _neighbourhood(D[i], kdist_q[i], self._kdist)
                out[s + i] = self._lrd[nbr].mean() / lrd_q
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
