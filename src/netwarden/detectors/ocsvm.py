"""One-class SVM trained by sequential minimal optimization.

Solves the RBF-kernel dual
    min 1/2 a^T K a   s.t.  0 <= a_i <= 1/(nu*n),  sum a_i = 1
by repeatedly updating the maximal KKT-violating pair. The decision value
is g(x) = sum_i a_i k(x_i, x) - rho; g < 0 marks a point anomalous, so the
unified anomaly score is -g(x).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import EmptyTraining, NonConvergence
from .distance import rbf


class _KernelRows:
    """Row cache for the training gram matrix under a byte budget.

    When the full matrix fits it is materialized once; otherwise rows are
    computed on demand and kept LRU.
    """

    def __init__(self, X: np.ndarray, gamma: float, cache_bytes: int):
        self.XT = np.ascontiguousarray(X.T)
        self.gamma = gamma
        n = X.shape[0]
        if n * n * 8 <= cache_bytes:
            self.full = rbf(X, self.XT, gamma)
            self.cache = None
        else:
            self.full = None
            self.cache: OrderedDict[int, np.ndarray] = OrderedDict()
            self.max_rows = max(2, cache_bytes // (n * 8))

    def row(self, i: int) -> np.ndarray:
        if self.full is not None:
            return self.full[i]
        cached = self.cache.get(i)
        if cached is not None:
            self.cache.move_to_end(i)
            return cached
        r = rbf(self.XT[:, i:i + 1].T, self.XT, self.gamma)[0]
        self.cache[i] = r
        if len(self.cache) > self.max_rows:
            self.cache.popitem(last=False)
        return r


class OneClassSVM:
    kind = "osvm"

    def __init__(self, nu: float = 0.1, gamma: float | str = "scale",
                 tol: float = 1e-4, max_iter: int = 1_000_000,
                 cache_mb: int = 256):
        if not 0 < nu <= 1:
            raise ValueError("nu must be in (0, 1], got %r" % nu)
        self.nu = float(nu)
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.cache_mb = int(cache_mb)
        self.rho = None
        self._svT = None  # support vectors, transposed (d, n_sv)
        self._sv_alpha = None
        self._gamma_value = None
        self.n_iter_ = None
        self.alpha_ = None

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def fit(self, X: np.ndarray) -> "OneClassSVM":
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        if n < 2:
            raise EmptyTraining("one-class SVM needs at least 2 rows")
        gamma = self._resolve_gamma(X)
        C = 1.0 / (self.nu * n)
        K = _KernelRows(X, gamma, self.cache_mb * 1024 * 1024)

        alpha = np.zeros(n, dtype=np.float64)
        n_full = int(self.nu * n)
        alpha[:n_full] = C
        if n_full < n:
            alpha[n_full] = min(max(1.0 - n_full * C, 0.0), C)
        G = np.zeros(n, dtype=np.float64)
        for i in np.flatnonzero(alpha > 0):
            G += alpha[i] * K.row(i)

        violation = np.inf
        it = 0
        while it < self.max_iter:
            Gi = np.where(alpha < C, G, np.inf)
            Gj = np.where(alpha > 0, G, -np.inf)
            i = int(np.argmin(Gi))
            j = int(np.argmax(Gj))
            violation = Gj[j] - Gi[i]
            if violation <= self.tol:
                break
            ki = K.row(i)
            kj = K.row(j)
            eta = ki[i] + kj[j] - 2.0 * ki[j]
            delta = violation / max(eta, 1e-12)
            room_i = C - alpha[i]
            if delta >= room_i and room_i <= alpha[j]:
                delta = room_i
                alpha[i] = C
                alpha[j] -= delta
            elif delta >= alpha[j]:
                delta = alpha[j]
                alpha[j] = 0.0
                alpha[i] += delta
            else:
                alpha[i] += delta
                alpha[j] -= delta
            G += delta * (ki - kj)
            it += 1
        else:
            raise NonConvergence(
                "SMO did not reach tolerance %g in %d iterations "
                "(violation %g)" % (self.tol, self.max_iter, violation),
                kkt_violation=float(violation))
        self.n_iter_ = it

        free = (alpha > 0) & (alpha < C)
        if free.any():
            rho = float(G[free].mean())
        else:
            upper = G[alpha >= C]
            lower = G[alpha <= 0]
            hi = upper.max() if upper.size else -np.inf
            lo = lower.min() if lower.size else np.inf
            if np.isfinite(hi) and np.isfinite(lo):
                rho = float((hi + lo) / 2.0)
            else:
                rho = float(hi if np.isfinite(hi) else lo)
        self.rho = rho
        self.alpha_ = alpha
        self._gamma_value = gamma
        sv = alpha > 0
        self._svT = np.ascontiguousarray(X[sv].T)
        self._sv_alpha = alpha[sv]
        return self

    def decision_value(self, X: np.ndarray) -> np.ndarray:
        """g(x); negative values are anomalous."""
        if self._svT is None:
            raise EmptyTraining("model is not fitted")
        Q = np.atleast_2d(np.asarray(X, dtype=np.float64))
        k = rbf(Q, self._svT, self._gamma_value)
        return k @ self._sv_alpha - self.rho

    def score(self, X: np.ndarray) -> np.ndarray:
        return -self.decision_value(X)

    def get_params(self) -> dict:
        return {"nu": self.nu, "gamma": self.gamma, "tol": self.tol,
                "max_iter": self.max_iter, "cache_mb": self.cache_mb}

    def state_dict(self) -> dict:
        return {
            "sv": self._svT.T.tolist(),
            "sv_alpha": self._sv_alpha.tolist(),
            "rho": self.rho,
            "gamma_value": self._gamma_value,
        }

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "OneClassSVM":
        model = cls(**params)
        model._svT = np.ascontiguousarray(
            np.asarray(state["sv"], dtype=np.float64).T)
        model._sv_alpha = np.asarray(state["sv_alpha"], dtype=np.float64)
        model.rho = float(state["rho"])
        model._gamma_value = float(state["gamma_value"])
        return model
