"""Independent oracles the library is checked against.

Everything here is deliberately naive (plain loops, brute force,
projected-gradient optimization, central differences) and shares no code
with the implementations under test.
"""

from __future__ import annotations

import math

import numpy as np

LRD_FLOOR = 1e-10


def lof_oracle(train, queries, k):
    """Brute-force O(n^2) local outlier factor with novelty queries."""
    train = [list(map(float, row)) for row in train]
    queries = [list(map(float, row)) for row in queries]
    n = len(train)

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    D = [[dist(train[i], train[j]) for j in range(n)] for i in range(n)]
    kdist = []
    neighbors = []
    for i in range(n):
        others = sorted(D[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        kdist.append(kd)
        neighbors.append([j for j in range(n) if j != i and D[i][j] <= kd])
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], D[i][j]) for j in neighbors[i]]
        lrd.append(1.0 / (sum(reach) / len(reach) + LRD_FLOOR))
    out = []
    for q in queries:
        dq = [dist(q, t) for t in train]
        kd = sorted(dq)[k - 1]
        nbr = [j for j in range(n) if dq[j] <= kd]
        reach = [max(kdist[j], dq[j]) for j in nbr]
        lrd_q = 1.0 / (sum(reach) / len(reach) + LRD_FLOOR)
        out.append((sum(lrd[j] for j in nbr) / len(nbr)) / lrd_q)
    return out


def sq_dist_oracle(A, B) -> np.ndarray:
    """Squared Euclidean distances by a scalar double loop, the column
    terms added left to right."""
    out = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            total = 0.0
            for x, y in zip(a, b):
                diff = float(x) - float(y)
                total += diff * diff
            out[i, j] = total
    return out


def iforest_mean_path_oracle(state: dict, X) -> np.ndarray:
    """Mean path length of each row over a saved isolation forest, walking
    one row down one tree at a time."""
    out = []
    for x in X:
        paths = []
        for tree in state["trees"]:
            node = 0
            while tree["feature"][node] >= 0:
                go_left = x[tree["feature"][node]] < tree["threshold"][node]
                node = tree["left" if go_left else "right"][node]
            paths.append(tree["leaf_path"][node])
        out.append(np.mean(paths))
    return np.array(out)


def capped_simplex_projection(v: np.ndarray, cap: float) -> np.ndarray:
    """Project v onto {0 <= a <= cap, sum a = 1} by bisection on the shift."""
    lo = float(v.min()) - cap - 1.0
    hi = float(v.max()) + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        s = np.clip(v - mid, 0.0, cap).sum()
        if s > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - (lo + hi) / 2.0, 0.0, cap)


def osvm_dual_oracle(K: np.ndarray, nu: float,
                     accel_iters: int = 3000,
                     polish_iters: int = 30000) -> tuple[np.ndarray, float]:
    """Projected-gradient (with acceleration, then plain polish) solver for
    min 1/2 a^T K a over the capped simplex."""
    n = K.shape[0]
    cap = 1.0 / (nu * n)
    lip = max(float(np.linalg.eigvalsh(K).max()), 1e-9)
    step = 1.0 / lip
    alpha = capped_simplex_projection(np.full(n, 1.0 / n), cap)
    y = alpha.copy()
    t = 1.0
    for _ in range(accel_iters):
        new = capped_simplex_projection(y - step * (K @ y), cap)
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = new + ((t - 1.0) / t_new) * (new - alpha)
        moved = np.max(np.abs(new - alpha))
        alpha = new
        t = t_new
        if moved < 1e-14:
            break
    for _ in range(polish_iters):  # plain projected gradient to fixed point
        new = capped_simplex_projection(alpha - step * (K @ alpha), cap)
        moved = np.max(np.abs(new - alpha))
        alpha = new
        if moved < 1e-14:
            break
    return alpha, float(0.5 * alpha @ K @ alpha)


def auc_pair_oracle(scores, labels) -> float:
    """Pairwise Mann-Whitney counting; ties are worth one half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def central_difference_gradient(fn, x0: np.ndarray,
                                h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        minus = x0.copy()
        plus[i] += h
        minus[i] -= h
        g[i] = (fn(plus) - fn(minus)) / (2.0 * h)
    return g


def mahalanobis_oracle(x, mu, cov) -> float:
    """Direct solve-based Mahalanobis distance."""
    diff = np.asarray(x, dtype=float) - np.asarray(mu, dtype=float)
    return float(math.sqrt(diff @ np.linalg.solve(np.asarray(cov, float),
                                                  diff)))
