"""Elliptic envelope: Mahalanobis distance to a Gaussian fit of the
training cloud.

Scores are D_M(x) = sqrt((x - mu)^T S^-1 (x - mu)) with S the empirical
covariance plus an optional ridge. Higher distance = more anomalous.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyTraining, MalformedModel, SingularCovariance
from ..settings import Declared, Setting


class EllipticEnvelope(Declared):
    kind = "ee"
    PARAMS = {"ridge": Setting(float, 1e-6, "[0, inf)")}
    mu = cov = _precision = None  # fitted state, set by fit

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
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularCovariance(
                "covariance is singular; use ridge > 0") from None
        self.cov = cov
        self._precision = np.linalg.inv(cov)
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """Mahalanobis distance of each row to the fitted mean."""
        if self.mu is None:
            raise EmptyTraining("model is not fitted")
        Z = np.atleast_2d(np.asarray(X, dtype=np.float64)) - self.mu
        q = np.einsum("ij,jk,ik->i", Z, self._precision, Z)
        return np.sqrt(np.maximum(q, 0.0))

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
        np.linalg.cholesky(cov)  # LinAlgError unless positive definite
        model.mu, model.cov = mu, cov
        model._precision = np.linalg.inv(cov)
        return model
