"""Symmetric MLP autoencoder scored by squared reconstruction error.

tanh hidden layers, linear output, trained on mean squared reconstruction
with seeded mini-batch Adam (Kingma & Ba, "Adam: A Method for Stochastic
Optimization", ICLR 2015): 30 epochs of it reach a lower loss than 100 of
plain gradient descent did. Anomaly score is E(x) = ||x - x_hat||^2.
Backpropagation is implemented directly so the analytic gradients can be
checked against central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DivergedLoss, EmptyTraining, MalformedModel
from ..settings import SEED, Declared, Setting

_WIDTH = Setting(int, 1, "[1, inf)")  # one layer's width
# Adam's moment decay rates and denominator floor, as in Kingma & Ba
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def default_layer_sizes(d: int) -> list[int]:
    mid = max(1, math.ceil(d / 4))
    half = max(1, math.ceil(d / 2))
    return [d, half, mid, half, d]


def _checked_layers(sizes) -> list[int] | None:
    """The layer widths, as integers, or None (the default sizes); a
    ValueError unless they are symmetric around a narrower bottleneck."""
    if not sizes:
        return None
    sizes = [_WIDTH.check("layer_sizes", w) for w in sizes]
    if len(sizes) < 3 or sizes != sizes[::-1] or (
            sizes[0] > 1 and min(sizes) >= sizes[0]):
        raise ValueError("layer sizes must be symmetric around a bottleneck "
                         "narrower than the input, got %r" % sizes)
    return sizes


class Autoencoder(Declared):
    kind = "ae"
    PARAMS = {"epochs": Setting(int, 30, "[0, inf)"),
              "learning_rate": Setting(float, 1.5e-3, "(0, inf)"),
              "batch_size": Setting(int, 256, "[1, inf)"),
              "seed": SEED}

    def __init__(self, layer_sizes: list[int] | None = None, **params):
        super().__init__(**params)
        self.layer_sizes = _checked_layers(layer_sizes)
        # every weight and bias lives in `params`; the lists are views
        self.params: np.ndarray | None = None
        self.weights: list[np.ndarray] | None = None
        self.biases: list[np.ndarray] | None = None
        self.loss_history: list[float] = []

    def _allocate(self, shapes: list[tuple[int, int]]) -> None:
        self.params = np.zeros(sum((fan_in + 1) * fan_out
                                   for fan_in, fan_out in shapes))
        self.weights, self.biases = _layer_views(self.params, shapes)

    def _init_params(self, sizes: list[int],
                     rng: np.random.Generator) -> None:
        self._allocate(list(zip(sizes[:-1], sizes[1:])))
        for W in self.weights:
            limit = math.sqrt(6.0 / (W.shape[0] + W.shape[1]))
            W[...] = rng.uniform(-limit, limit, size=W.shape)

    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        acts = [X]
        last = len(self.weights) - 1
        h = X
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            h = z if li == last else np.tanh(z)
            acts.append(h)
        return acts

    def _backprop(self, X: np.ndarray, grads_w: list[np.ndarray],
                  grads_b: list[np.ndarray]) -> float:
        """Half mean squared reconstruction error of X. Its gradients are
        written into `grads_w` and `grads_b`, views laid out like the
        parameters' own, unless the loss is not finite.

        Overflow is silenced: a non-finite loss is the divergence signal
        and callers abort on it.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            acts = self._forward(X)
            diff = acts[-1] - X
            batch = X.shape[0]
            loss = 0.5 * float((diff * diff).sum()) / batch
            if not math.isfinite(loss):
                return loss
            delta = diff / batch
            for li in range(len(self.weights) - 1, -1, -1):
                np.matmul(acts[li].T, delta, out=grads_w[li])
                delta.sum(axis=0, out=grads_b[li])
                if li > 0:
                    delta = (delta @ self.weights[li].T) \
                        * (1.0 - acts[li] ** 2)
        return loss

    def _gradient_views(self, G: np.ndarray):
        return _layer_views(G, [W.shape for W in self.weights])

    def fit(self, X: np.ndarray) -> "Autoencoder":
        X = np.asarray(X, dtype=np.float64)
        if X.size == 0:
            raise EmptyTraining("autoencoder needs training rows")
        d = X.shape[1]
        sizes = self.layer_sizes or default_layer_sizes(d)
        if sizes[0] != d:
            raise ValueError("layer sizes start at %d but data has %d "
                             "columns" % (sizes[0], d))
        rng = np.random.default_rng(self.seed)
        self._init_params(sizes, rng)
        P = self.params
        G = np.empty_like(P)
        m, v = np.zeros_like(P), np.zeros_like(P)  # Adam's moments
        grads_w, grads_b = self._gradient_views(G)
        n = X.shape[0]
        bs = min(self.batch_size, n)
        lr = self.learning_rate
        self.loss_history = []
        t = 0
        for epoch in range(self.epochs):
            shuffled = X[rng.permutation(n)]
            epoch_loss = 0.0
            for s in range(0, n, bs):
                batch = shuffled[s:s + bs]
                loss = self._backprop(batch, grads_w, grads_b)
                if not math.isfinite(loss):
                    raise DivergedLoss(
                        "non-finite loss %r at epoch %d (lr=%g); reduce the "
                        "learning rate" % (loss, epoch, lr))
                t += 1
                m *= BETA1
                m += (1.0 - BETA1) * G
                v *= BETA2
                v += (1.0 - BETA2) * (G * G)
                P -= lr * (m / (1.0 - BETA1 ** t)) / (
                    np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
                epoch_loss += loss * batch.shape[0]
            self.loss_history.append(epoch_loss / n)
        return self

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise EmptyTraining("model is not fitted")
        return self._forward(np.atleast_2d(np.asarray(X,
                                                      dtype=np.float64)))[-1]

    def score(self, X: np.ndarray) -> np.ndarray:
        """Squared reconstruction error per row. A row scores the same
        whatever its memory layout: BLAS may round a strided row
        differently, so the input is copied to C order first."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        diff = self.reconstruct(X) - X
        return np.einsum("ij,ij->i", diff, diff)

    def loss(self, X: np.ndarray) -> float:
        G = np.empty_like(self.params)
        return self._backprop(np.asarray(X, dtype=np.float64),
                              *self._gradient_views(G))

    def flat_gradients(self, X: np.ndarray) -> np.ndarray:
        """Gradient of `loss` in the layout of `params`; NaN
        when the loss is not finite."""
        G = np.full_like(self.params, np.nan)
        self._backprop(np.asarray(X, dtype=np.float64),
                       *self._gradient_views(G))
        return G

    def get_params(self) -> dict:
        return {"layer_sizes": self.layer_sizes, **super().get_params()}

    def state_dict(self) -> dict:
        return {"weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "Autoencoder":
        model = cls(**params)
        weights = [np.asarray(w, dtype=np.float64) for w in state["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in state["biases"]]
        shapes = [W.shape for W in weights]
        if (not weights or any(len(s) != 2 for s in shapes)
                or any(a[1] != b[0] for a, b in zip(shapes, shapes[1:]))
                or shapes[-1][1] != shapes[0][0]
                or [b.shape for b in biases] != [s[1:] for s in shapes]
                or not all(np.isfinite(v).all() for v in weights + biases)):
            raise MalformedModel("autoencoder weights and biases must be "
                                 "finite and form a chain of layers that "
                                 "ends at its input width")
        model._allocate(shapes)
        model.params[:] = np.concatenate(
            [W.ravel() for W in weights] + biases)
        return model


def _layer_views(flat: np.ndarray, shapes: list[tuple[int, int]]):
    """Per-layer weight and bias views of a flat vector that holds every
    weight matrix (row-major), then every bias vector."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in shapes:
        weights.append(flat[pos:pos + fan_in * fan_out]
                       .reshape(fan_in, fan_out))
        pos += fan_in * fan_out
    for _, fan_out in shapes:
        biases.append(flat[pos:pos + fan_out])
        pos += fan_out
    return weights, biases
