"""One-class SVM trained by sequential minimal optimization.

Solves the RBF-kernel dual
    min 1/2 a^T K a   s.t.  0 <= a_i <= 1/(nu*n),  sum a_i = 1
by repeatedly updating the maximal KKT-violating pair. Each step reads
the two Gram rows of its pair, and a row is computed only when first read
(Platt, 1998; LIBSVM caches rows the same way), so the n x n matrix is
never built. The decision value is g(x) = sum_i a_i k(x_i, x) - rho;
g < 0 marks a point anomalous, so the unified anomaly score is -g(x).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import EmptyTraining, MalformedModel, NonConvergence
from ..settings import Declared, Setting
from .distance import distinct_rows, rbf


def _gram_rows(X: np.ndarray, gamma: float, cache_bytes: int):
    """row(i): row i of the training Gram matrix rbf(X, X^T), computed
    when first asked for and kept, read-only, in an LRU of as many rows as
    fit in cache_bytes, and at least the two rows of one SMO step. Each
    entry is the float the whole matrix holds, so the cache size cannot
    change a fit."""
    XT = np.ascontiguousarray(X.T)
    n = X.shape[0]

    @functools.lru_cache(maxsize=max(2, cache_bytes // (n * 8)))
    def row(i: int) -> np.ndarray:
        r = rbf(XT[:, i:i + 1].T, XT, gamma)[0]
        r.flags.writeable = False
        return r
    return row


class OneClassSVM(Declared):
    kind = "osvm"
    PARAMS = {"nu": Setting(float, 0.05, "(0, 1]"),
              "gamma": Setting(float, "scale", "(0, inf)", ("scale",)),
              "tol": Setting(float, 1e-4, "(0, inf)"),
              "max_iter": Setting(int, 1_000_000, "[1, inf)"),
              "cache_mb": Setting(int, 256, "[0, inf)")}
    # fitted state, set by fit; _svT holds the support vectors transposed
    rho = _svT = _sv_alpha = _gamma_value = n_iter_ = alpha_ = None

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
        row = _gram_rows(X, gamma, self.cache_mb * 1024 * 1024)

        alpha = np.zeros(n, dtype=np.float64)
        n_full = int(self.nu * n)
        alpha[:n_full] = C
        if n_full < n:
            alpha[n_full] = min(max(1.0 - n_full * C, 0.0), C)
        G = np.zeros(n, dtype=np.float64)
        for i in np.flatnonzero(alpha > 0):
            G += alpha[i] * row(int(i))

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
            ki = row(i)
            kj = row(j)
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
        """g(x); negative values are anomalous. Each row's sum runs over
        its own kernel row in a fixed order, so a row's value does not
        depend on the rows scored with it, and each distinct row is
        computed once."""
        if self._svT is None:
            raise EmptyTraining("model is not fitted")
        rows, inverse = distinct_rows(
            np.atleast_2d(np.asarray(X, dtype=np.float64)))
        k = rbf(rows, self._svT, self._gamma_value)
        k *= self._sv_alpha
        return (np.add.reduce(k, axis=1) - self.rho)[inverse]

    def score(self, X: np.ndarray) -> np.ndarray:
        return -self.decision_value(X)

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
        sv = np.asarray(state["sv"], dtype=np.float64)
        sv_alpha = np.asarray(state["sv_alpha"], dtype=np.float64)
        rho = float(state["rho"])
        gamma = float(state["gamma_value"])
        if (sv.ndim != 2 or sv.size == 0 or sv_alpha.shape != sv.shape[:1]
                or not (np.isfinite(sv).all() and np.isfinite(sv_alpha).all()
                        and math.isfinite(rho))):
            raise MalformedModel("OSVM needs finite support vectors, one "
                                 "sv_alpha for each, and a finite rho")
        cls.PARAMS["gamma"].check("gamma_value", gamma)
        model._svT = np.ascontiguousarray(sv.T)
        model._sv_alpha = sv_alpha
        model.rho = rho
        model._gamma_value = gamma
        return model
