"""Elliptic envelope: Mahalanobis distance to a Gaussian fit of the
training cloud.

Scores are D_M(x) = sqrt((x - mu)^T S^-1 (x - mu)) with S the empirical
covariance plus an optional ridge. Higher distance = more anomalous.

With S = L L^T its Cholesky factorisation, D_M(x) is the norm of the
whitened row L^-1 (x - mu). The model keeps L^-T, derived from S at fit
and again at load and never saved; a score is the row times L^-T, then
the sum of the squares of that product, both taken by one einsum each in
a fixed column order. So a row scores to the same bits alone as in any
batch, and a sum of squares is never negative. This is also more
accurate than the quadratic form through the explicit inverse S^-1
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 10
and 14).
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyTraining, MalformedModel, SingularCovariance
from ..settings import Declared, Setting


def _whitener(cov: np.ndarray) -> np.ndarray:
    """L^-T, C-ordered, for cov = L L^T: a row times it is the row
    whitened. LinAlgError unless cov is positive definite."""
    inv_l = np.linalg.inv(np.linalg.cholesky(cov))
    return np.ascontiguousarray(np.tril(inv_l).T)


class EllipticEnvelope(Declared):
    kind = "ee"
    PARAMS = {"ridge": Setting(float, 1e-6, "[0, inf)")}
    mu = cov = _whiten = None  # fitted state, set by fit

    def fit(self, X: np.ndarray) -> "EllipticEnvelope":
        X = np.asarray(X, dtype=np.float64)
        if X.size == 0:
            raise EmptyTraining("elliptic envelope needs training rows")
        self.mu = X.mean(axis=0)
        centered = X - self.mu
        cov = centered.T @ centered / X.shape[0]
        if self.ridge > 0:
            cov = cov + self.ridge * np.eye(cov.shape[0])
        try:
            self._whiten = _whitener(cov)
        except np.linalg.LinAlgError:
            raise SingularCovariance(
                "covariance is singular; use ridge > 0") from None
        self.cov = cov
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """Mahalanobis distance of each row to the fitted mean."""
        if self.mu is None:
            raise EmptyTraining("model is not fitted")
        Z = np.atleast_2d(np.asarray(X, dtype=np.float64)) - self.mu
        W = np.einsum("ij,jk->ik", Z, self._whiten)
        return np.sqrt(np.einsum("ij,ij->i", W, W))

    def state_dict(self) -> dict:
        return {"mu": self.mu.tolist(), "cov": self.cov.tolist()}

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "EllipticEnvelope":
        model = cls(**params)
        mu = np.asarray(state["mu"], dtype=np.float64)
        cov = np.asarray(state["cov"], dtype=np.float64)
        if (mu.ndim != 1 or cov.shape != mu.shape * 2
                or not (np.isfinite(mu).all() and np.isfinite(cov).all())):
            raise MalformedModel("elliptic envelope needs a finite mean vector "
                                 "and a square covariance of its length")
        # the factor reads only the lower triangle, so an upper one that
        # differs would be ignored; fit's covariance is exactly symmetric
        if not np.array_equal(cov, cov.T):
            raise MalformedModel("elliptic envelope covariance is not "
                                 "symmetric")
        model._whiten = _whitener(cov)  # LinAlgError unless positive definite
        model.mu, model.cov = mu, cov
        return model
