"""Independent oracles the library is checked against.

Everything here is deliberately naive (plain loops, brute force,
projected-gradient optimization, central differences) and shares no code
with the implementations under test.
"""

from __future__ import annotations

import ipaddress
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from netwarden.errors import (
    FragmentContinuation,
    MalformedHeader,
    NonIP,
    UnsupportedLinkType,
)
from netwarden.evaluation import LabelIndex, read_label_file
from netwarden.features import (DEFAULT_MANIFESTS, FeatureMatrix,
                                MODE_PACKET, MODE_TO_DIRECTION,
                                PACKET_MANIFEST, PacketContext, flow_row,
                                packet_features)
from netwarden.flows import (_DIR_CSV_FIELDS, FlowMeter, MeterConfig,
                             flow_csv_header)
from netwarden.pcap import CaptureReader, PacketRecord

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


# --- LOF from a full distance matrix ----------------------------------------
# LOF as it was first fitted and scored: the whole n x n distance matrix,
# its k-distances by partition over distances, and each neighbour set read
# off a row of distances. LocalOutlierFactor, which walks blocks of squared
# distances, must give the same k-distances, lrd and scores bit for bit.

def _column_sq_dists(A, B) -> np.ndarray:
    """Squared distances with the column terms added left to right, one
    whole column at a time."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    total = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        diff = A[:, j, None] - B[None, :, j]
        total += diff * diff
    return total


def _lof_neighbourhood(d, kd, kdist):
    nbr = np.flatnonzero(d <= kd)
    reach = np.maximum(kdist[nbr], d[nbr])
    return nbr, 1.0 / (reach.mean() + LRD_FLOOR)


def lof_full_matrix_oracle(train, queries, k):
    """(kdist, lrd, scores, loo) of LOF fitted on `train` and scored on
    `queries`; `loo` is each training row's leave-one-out LOF, the mean
    lrd of its neighbours (itself not among them) over its own lrd."""
    X = np.asarray(train, dtype=np.float64)
    n = X.shape[0]
    D = _column_sq_dists(X, X)
    np.sqrt(D, out=D)
    np.fill_diagonal(D, np.inf)  # a training point is not its own neighbor
    kdist = np.partition(D, k - 1, axis=1)[:, k - 1]
    lrd = np.empty(n, dtype=np.float64)
    nbrs = []
    for i in range(n):
        nbr, lrd[i] = _lof_neighbourhood(D[i], kdist[i], kdist)
        nbrs.append(nbr)
    loo = np.array([lrd[nbr].mean() / lrd[i] for i, nbr in enumerate(nbrs)])
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    D = _column_sq_dists(Q, X)
    np.sqrt(D, out=D)
    kdist_q = np.partition(D, k - 1, axis=1)[:, k - 1]
    scores = np.empty(Q.shape[0], dtype=np.float64)
    for i in range(Q.shape[0]):
        nbr, lrd_q = _lof_neighbourhood(D[i], kdist_q[i], kdist)
        scores[i] = lrd[nbr].mean() / lrd_q
    return kdist, lrd, scores, loo


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


def auc_rank_loop_oracle(scores, labels) -> float:
    """The rank-sum AUC with a Python walk over tied scores, each tie
    group given its average rank."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(labels.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def roc_loop_oracle(scores, labels) -> list:
    """(fpr, tpr) after each group of tied scores, walked one row at a
    time from the highest score down, after the (0, 0) corner."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    pts = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < labels.size:
        j = i
        while (j + 1 < labels.size
               and scores[order[j + 1]] == scores[order[i]]):
            j += 1
        for idx in order[i:j + 1]:
            if labels[idx]:
                tp += 1
            else:
                fp += 1
        pts.append((fp / n_neg, tp / n_pos))
        i = j + 1
    return pts


def rbf_similarity_gemm_oracle(X, sigma: float) -> np.ndarray:
    """RBF similarity from the expanded distance |a|^2 + |b|^2 - 2ab,
    patched for its cancellation: clamped at 0, symmetrized, unit
    diagonal."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    S = np.exp(-d2 / (2.0 * sigma * sigma))
    S = (S + S.T) / 2.0
    np.fill_diagonal(S, 1.0)
    return S


# --- Feature selection on a whole similarity matrix --------------------------
# The two graph criteria from an n x n similarity, as they were first
# computed; selection computes both in row blocks. The spectral score has
# two dense forms. The Rayleigh quotient 1 - fh^T W fh on the normalized
# graph is the old one, and it cancels to rounding noise for features
# the graph finds smooth. The pairwise form equals it in exact arithmetic
# and does not cancel.

def spectral_rayleigh_oracle(f, S) -> float:
    """1 - fh^T W fh, W = D^-1/2 S D^-1/2, fh = D^1/2 f / |D^1/2 f|."""
    S = np.asarray(S, dtype=np.float64)
    root = np.sqrt(S.sum(axis=1))
    w = (S / root[:, None]) / root[None, :]
    fh = root * np.asarray(f, dtype=np.float64)
    norm = np.linalg.norm(fh)
    if norm == 0:
        return 0.0
    fh /= norm
    return max(float(fh @ fh - fh @ (w @ fh)), 0.0)


def spectral_score_oracle(f, S) -> float:
    """1/2 sum_ij S_ij (f_i - f_j)^2 / sum_i d_i f_i^2, 0 for f = 0."""
    S = np.asarray(S, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    den = float(S.sum(axis=1) @ (f * f))
    if den == 0:
        return 0.0
    return 0.5 * float((S * (f[:, None] - f[None, :]) ** 2).sum()) / den


def information_score_oracle(S) -> float:
    """-sum_ij [S log2 S + (1-S) log2 (1-S)], with 0 log2 0 := 0."""
    S = np.asarray(S, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(S > 0.0, S * np.log2(S), 0.0)
        t2 = np.where(S < 1.0, (1.0 - S) * np.log2(1.0 - S), 0.0)
    return float(-(t1 + t2).sum())


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


def mahalanobis_exact(x, mu, cov) -> float:
    """Mahalanobis distance of the floats x, mu and cov, with the squared
    distance (x - mu)^T cov^-1 (x - mu) solved in exact rational
    arithmetic by Gaussian elimination; only the final square root is
    rounded."""
    diff = [Fraction(a) - Fraction(b) for a, b in zip(x, mu)]
    d = len(diff)
    aug = [[Fraction(v) for v in row] + [diff[i]]
           for i, row in enumerate(cov)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, d):
            f = aug[r][col] / aug[col][col]
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    y = [Fraction(0)] * d
    for r in reversed(range(d)):
        y[r] = (aug[r][d] - sum(aug[r][c] * y[c]
                                for c in range(r + 1, d))) / aug[r][r]
    return math.sqrt(sum(a * b for a, b in zip(diff, y)))


# --- autoencoder training ---------------------------------------------------
# The autoencoder's training written out plainly: separate weight and bias
# arrays, each batch gathered from the shuffled order on its own, and one
# bias-corrected Adam update per array with that array's own moments.
# Autoencoder.fit must give the same weights, biases and loss history bit
# for bit at the same hyperparameters.

def _ae_loss_and_grads(weights, biases, X):
    with np.errstate(over="ignore", invalid="ignore"):
        acts = [X]
        h = X
        for li, (W, b) in enumerate(zip(weights, biases)):
            z = h @ W + b
            h = z if li == len(weights) - 1 else np.tanh(z)
            acts.append(h)
        diff = acts[-1] - X
        batch = X.shape[0]
        loss = 0.5 * float((diff * diff).sum()) / batch
        grads_w = [None] * len(weights)
        grads_b = [None] * len(biases)
        delta = diff / batch
        for li in range(len(weights) - 1, -1, -1):
            grads_w[li] = acts[li].T @ delta
            grads_b[li] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ weights[li].T) * (1.0 - acts[li] ** 2)
    return loss, grads_w, grads_b


def autoencoder_fit_oracle(X, sizes, epochs, learning_rate, batch_size,
                           seed):
    """(weights, biases, loss_history) of per-batch, per-array Adam
    (beta1 0.9, beta2 0.999, eps 1e-8; Kingma & Ba, Algorithm 1)."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    arrays = weights + biases
    first = [np.zeros_like(a) for a in arrays]
    second = [np.zeros_like(a) for a in arrays]
    n = X.shape[0]
    bs = min(batch_size, n)
    history = []
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        seen = 0
        for s in range(0, n, bs):
            batch = X[order[s:s + bs]]
            loss, gw, gb = _ae_loss_and_grads(weights, biases, batch)
            t += 1
            for a, g, m, v in zip(arrays, gw + gb, first, second):
                m[...] = 0.9 * m + (1.0 - 0.9) * g
                v[...] = 0.999 * v + (1.0 - 0.999) * (g * g)
                m_hat = m / (1.0 - 0.9 ** t)
                v_hat = v / (1.0 - 0.999 ** t)
                a -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            epoch_loss += loss * batch.shape[0]
            seen += batch.shape[0]
        history.append(epoch_loss / seen)
    return weights, biases, history


# --- feature rows -----------------------------------------------------------
# The view-plus-lambda definitions the flow and packet features were first
# written as: per-flow DirView/FlowView copies and one function per named
# feature. The row builders in netwarden.features must reproduce them bit
# for bit, column by column.

RATE_FLOOR = 1e-3
FLAG_NAMES = ("fin", "syn", "rst", "psh", "ack", "urg", "ece", "cwr")
PROTO_ICMP, PROTO_TCP, PROTO_UDP, PROTO_ICMPV6 = 1, 6, 17, 58
CAT_PACKET = "packet_based"
CAT_BYTE = "byte_based"
CAT_TIME = "time_based"
CAT_PROTO = "protocol_based"


def _mean(total: float, n: int) -> float:
    return total / n if n else 0.0


def _pop_std(total: float, sumsq: float, n: int) -> float:
    if n == 0:
        return 0.0
    var = sumsq / n - (total / n) ** 2
    return math.sqrt(var) if var > 0 else 0.0


class DirView:
    """Per-direction statistics visible to feature functions."""

    __slots__ = (
        "pkt_count", "byte_count", "header_bytes", "payload_bytes",
        "pkt_len_min", "pkt_len_max", "pkt_len_mean", "pkt_len_std",
        "payload_len_min", "payload_len_max", "payload_len_mean",
        "payload_len_std",
        "ip_hdr_max", "ip_hdr_mean", "l4_hdr_max", "l4_hdr_mean",
        "iat_min", "iat_max", "iat_mean", "iat_std",
        "flag_counts", "ttl_min", "ttl_max", "ttl_mean", "init_window",
        "small_pkt_ratio", "large_pkt_ratio",
    )

    @classmethod
    def empty(cls) -> "DirView":
        v = cls()
        for name in cls.__slots__:
            setattr(v, name, 0.0)
        v.flag_counts = (0,) * 8
        return v


def _dir_view(s) -> DirView:
    v = DirView()
    n = s.pkt_count
    v.pkt_count = float(n)
    v.byte_count = float(s.byte_count)
    v.header_bytes = float(s.byte_count - s.payload_byte_count)
    v.payload_bytes = float(s.payload_byte_count)
    v.pkt_len_min = float(s.pkt_len_min)
    v.pkt_len_max = float(s.pkt_len_max)
    v.pkt_len_mean = _mean(s.byte_count, n)
    v.pkt_len_std = _pop_std(s.byte_count, s.pkt_len_sumsq, n)
    v.payload_len_min = float(s.payload_len_min)
    v.payload_len_max = float(s.payload_len_max)
    v.payload_len_mean = _mean(s.payload_byte_count, n)
    v.payload_len_std = _pop_std(s.payload_byte_count, s.payload_len_sumsq,
                                 n)
    v.ip_hdr_max = float(s.ip_hdr_max)
    v.ip_hdr_mean = _mean(s.ip_hdr_sum, n)
    v.l4_hdr_max = float(s.l4_hdr_max)
    v.l4_hdr_mean = _mean(s.l4_hdr_sum, n)
    gaps = max(n - 1, 0)
    v.iat_min = s.iat_min if gaps else 0.0
    v.iat_max = s.iat_max if gaps else 0.0
    v.iat_mean = _mean(s.iat_sum, gaps)
    v.iat_std = _pop_std(s.iat_sum, s.iat_sumsq, gaps)
    v.flag_counts = tuple(s.flag_counts)
    v.ttl_min = float(s.ttl_min)
    v.ttl_max = float(s.ttl_max)
    v.ttl_mean = _mean(s.ttl_sum, n)
    v.init_window = float(s.init_window or 0)
    v.small_pkt_ratio = s.small_pkt_count / n if n else 0.0
    v.large_pkt_ratio = s.large_pkt_count / n if n else 0.0
    return v


def _merged_dir_view(a, b) -> DirView:
    """Combined view over both directions of a bidirectional flow."""
    v = DirView()
    n = a.pkt_count + b.pkt_count
    v.pkt_count = float(n)
    v.byte_count = float(a.byte_count + b.byte_count)
    v.header_bytes = float(a.byte_count + b.byte_count
                           - a.payload_byte_count - b.payload_byte_count)
    v.payload_bytes = float(a.payload_byte_count + b.payload_byte_count)
    have_a, have_b = a.pkt_count > 0, b.pkt_count > 0

    def mn(x, y, xa=have_a, ya=have_b):
        if xa and ya:
            return float(min(x, y))
        return float(x if xa else y)

    def mx(x, y, xa=have_a, ya=have_b):
        if xa and ya:
            return float(max(x, y))
        return float(x if xa else y)

    v.pkt_len_min = mn(a.pkt_len_min, b.pkt_len_min)
    v.pkt_len_max = mx(a.pkt_len_max, b.pkt_len_max)
    v.pkt_len_mean = _mean(a.byte_count + b.byte_count, n)
    v.pkt_len_std = _pop_std(a.byte_count + b.byte_count,
                             a.pkt_len_sumsq + b.pkt_len_sumsq, n)
    v.payload_len_min = mn(a.payload_len_min, b.payload_len_min)
    v.payload_len_max = mx(a.payload_len_max, b.payload_len_max)
    v.payload_len_mean = _mean(a.payload_byte_count + b.payload_byte_count,
                               n)
    v.payload_len_std = _pop_std(a.payload_byte_count + b.payload_byte_count,
                                 a.payload_len_sumsq + b.payload_len_sumsq, n)
    v.ip_hdr_max = mx(a.ip_hdr_max, b.ip_hdr_max)
    v.ip_hdr_mean = _mean(a.ip_hdr_sum + b.ip_hdr_sum, n)
    v.l4_hdr_max = mx(a.l4_hdr_max, b.l4_hdr_max)
    v.l4_hdr_mean = _mean(a.l4_hdr_sum + b.l4_hdr_sum, n)
    ia, ib = a.pkt_count > 1, b.pkt_count > 1
    iat_n = max(a.pkt_count - 1, 0) + max(b.pkt_count - 1, 0)
    v.iat_min = mn(a.iat_min, b.iat_min, ia, ib) if iat_n else 0.0
    v.iat_max = mx(a.iat_max, b.iat_max, ia, ib) if iat_n else 0.0
    v.iat_mean = _mean(a.iat_sum + b.iat_sum, iat_n)
    v.iat_std = _pop_std(a.iat_sum + b.iat_sum,
                         a.iat_sumsq + b.iat_sumsq, iat_n)
    v.flag_counts = tuple(x + y for x, y in zip(a.flag_counts, b.flag_counts))
    v.ttl_min = mn(a.ttl_min, b.ttl_min, have_a, have_b)
    v.ttl_max = mx(a.ttl_max, b.ttl_max)
    v.ttl_mean = _mean(a.ttl_sum + b.ttl_sum, n)
    v.init_window = float(a.init_window or b.init_window or 0)
    v.small_pkt_ratio = (a.small_pkt_count + b.small_pkt_count) / n \
        if n else 0.0
    v.large_pkt_ratio = (a.large_pkt_count + b.large_pkt_count) / n \
        if n else 0.0
    return v


class FlowView:
    """Flow-level values feature functions may read. No key material."""

    __slots__ = (
        "duration", "protocol", "all", "fwd", "bwd",
        "iat_min", "iat_max", "iat_mean", "iat_std",
        "active_total", "active_max", "active_mean", "active_count",
        "idle_total", "idle_max", "idle_mean", "idle_count",
    )


def flow_view(rec) -> FlowView:
    v = FlowView()
    v.duration = rec.duration
    v.protocol = rec.protocol
    if rec.bwd is None:
        v.all = _dir_view(rec.fwd)
        v.fwd = v.all
        v.bwd = DirView.empty()
    else:
        v.fwd = _dir_view(rec.fwd)
        v.bwd = _dir_view(rec.bwd)
        v.all = _merged_dir_view(rec.fwd, rec.bwd)
    # a closed record keeps no gap or run count and no longest idle gap:
    # it has pkt_count - 1 gaps and idle_count + 1 runs, and an idle gap
    # is above ACTIVE_GAP, so the longest gap is the longest idle one
    # (meter_times_oracle checks these from the packets)
    gaps = rec.pkt_count - 1
    active_count = rec.idle_count + 1
    v.iat_min = rec.iat_min if gaps else 0.0
    v.iat_max = rec.iat_max if gaps else 0.0
    v.iat_mean = _mean(rec.iat_sum, gaps)
    v.iat_std = _pop_std(rec.iat_sum, rec.iat_sumsq, gaps)
    v.active_total = rec.active_total
    v.active_max = rec.active_max
    v.active_mean = _mean(rec.active_total, active_count)
    v.active_count = float(active_count)
    v.idle_total = rec.idle_total
    v.idle_max = v.iat_max if rec.idle_count else 0.0
    v.idle_mean = _mean(rec.idle_total, rec.idle_count)
    v.idle_count = float(rec.idle_count)
    return v


class PacketView:
    """Per-packet values feature functions may read."""

    __slots__ = ("total_len", "ip_header_len", "l4_header_len", "payload_len",
                 "ttl", "protocol", "tcp_flags", "tcp_window", "iat_prev",
                 "pkt_index")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    category: str
    fn: Callable


def _rate(count_attr: str):
    def fn(v):
        return getattr(v.all, count_attr) / max(v.duration, RATE_FLOOR)
    return fn


def _dir_attr(side: str, attr: str):
    def fn(v):
        return getattr(getattr(v, side), attr)
    return fn


def _flag_count(side: str, i: int):
    def fn(v):
        return float(getattr(v, side).flag_counts[i])
    return fn


def _flag_rate(i: int):
    def fn(v):
        return v.all.flag_counts[i] / max(v.duration, RATE_FLOOR)
    return fn


def _proto_onehot(proto_ids):
    def fn(v):
        return 1.0 if v.protocol in proto_ids else 0.0
    return fn


def _proto_other(v):
    return 1.0 if v.protocol not in (PROTO_TCP, PROTO_UDP, PROTO_ICMP,
                                     PROTO_ICMPV6) else 0.0


def _flow_entries(bi: bool) -> tuple[FeatureSpec, ...]:
    E = FeatureSpec
    entries = [
        # packet-based: counts and volume shape
        E("pkt_count", CAT_PACKET, _dir_attr("all", "pkt_count")),
        E("pkt_rate", CAT_PACKET, _rate("pkt_count")),
        E("pkt_len_min", CAT_PACKET, _dir_attr("all", "pkt_len_min")),
        E("pkt_len_max", CAT_PACKET, _dir_attr("all", "pkt_len_max")),
        E("pkt_len_mean", CAT_PACKET, _dir_attr("all", "pkt_len_mean")),
        E("pkt_len_std", CAT_PACKET, _dir_attr("all", "pkt_len_std")),
        E("pkt_len_range", CAT_PACKET,
          lambda v: v.all.pkt_len_max - v.all.pkt_len_min),
        E("small_pkt_ratio", CAT_PACKET, _dir_attr("all", "small_pkt_ratio")),
        E("large_pkt_ratio", CAT_PACKET, _dir_attr("all", "large_pkt_ratio")),
        # byte-based: load and split between headers and payload
        E("byte_count", CAT_BYTE, _dir_attr("all", "byte_count")),
        E("byte_rate", CAT_BYTE, _rate("byte_count")),
        E("header_bytes", CAT_BYTE, _dir_attr("all", "header_bytes")),
        E("payload_bytes", CAT_BYTE, _dir_attr("all", "payload_bytes")),
        E("payload_ratio", CAT_BYTE,
          lambda v: v.all.payload_bytes / max(v.all.byte_count, 1.0)),
        E("payload_len_min", CAT_BYTE, _dir_attr("all", "payload_len_min")),
        E("payload_len_max", CAT_BYTE, _dir_attr("all", "payload_len_max")),
        E("payload_len_mean", CAT_BYTE, _dir_attr("all", "payload_len_mean")),
        E("payload_len_std", CAT_BYTE, _dir_attr("all", "payload_len_std")),
        E("header_len_mean", CAT_BYTE,
          lambda v: v.all.header_bytes / max(v.all.pkt_count, 1.0)),
        # time-based: duration, gaps, activity runs
        E("duration", CAT_TIME, lambda v: v.duration),
        E("iat_min", CAT_TIME, lambda v: v.iat_min),
        E("iat_max", CAT_TIME, lambda v: v.iat_max),
        E("iat_mean", CAT_TIME, lambda v: v.iat_mean),
        E("iat_std", CAT_TIME, lambda v: v.iat_std),
        E("iat_range", CAT_TIME, lambda v: v.iat_max - v.iat_min),
        E("active_total", CAT_TIME, lambda v: v.active_total),
        E("active_max", CAT_TIME, lambda v: v.active_max),
        E("active_mean", CAT_TIME, lambda v: v.active_mean),
        E("active_count", CAT_TIME, lambda v: v.active_count),
        E("idle_total", CAT_TIME, lambda v: v.idle_total),
        E("idle_max", CAT_TIME, lambda v: v.idle_max),
        E("idle_mean", CAT_TIME, lambda v: v.idle_mean),
        E("idle_count", CAT_TIME, lambda v: v.idle_count),
        E("idle_ratio", CAT_TIME,
          lambda v: v.idle_total / max(v.duration, RATE_FLOOR)),
        # protocol-based: header semantics
        E("proto_tcp", CAT_PROTO, _proto_onehot((PROTO_TCP,))),
        E("proto_udp", CAT_PROTO, _proto_onehot((PROTO_UDP,))),
        E("proto_icmp", CAT_PROTO, _proto_onehot((PROTO_ICMP,
                                                  PROTO_ICMPV6))),
        E("proto_other", CAT_PROTO, _proto_other),
    ]
    for i, flag in enumerate(FLAG_NAMES):
        entries.append(E("flag_%s_count" % flag, CAT_PROTO,
                         _flag_count("all", i)))
    for i, flag in enumerate(FLAG_NAMES):
        entries.append(E("flag_%s_rate" % flag, CAT_PROTO, _flag_rate(i)))
    entries += [
        E("flag_total", CAT_PROTO,
          lambda v: float(sum(v.all.flag_counts))),
        E("ttl_min", CAT_PROTO, _dir_attr("all", "ttl_min")),
        E("ttl_max", CAT_PROTO, _dir_attr("all", "ttl_max")),
        E("ttl_mean", CAT_PROTO, _dir_attr("all", "ttl_mean")),
        E("ttl_range", CAT_PROTO,
          lambda v: v.all.ttl_max - v.all.ttl_min),
        E("init_window", CAT_PROTO, _dir_attr("all", "init_window")),
        E("ip_hdr_len_mean", CAT_PROTO, _dir_attr("all", "ip_hdr_mean")),
        E("ip_hdr_len_max", CAT_PROTO, _dir_attr("all", "ip_hdr_max")),
        E("l4_hdr_len_mean", CAT_PROTO, _dir_attr("all", "l4_hdr_mean")),
        E("l4_hdr_len_max", CAT_PROTO, _dir_attr("all", "l4_hdr_max")),
    ]
    if bi:
        cat_by_attr = {
            "pkt_count": CAT_PACKET, "pkt_len_mean": CAT_PACKET,
            "pkt_len_std": CAT_PACKET, "pkt_len_max": CAT_PACKET,
            "byte_count": CAT_BYTE, "payload_bytes": CAT_BYTE,
            "payload_len_mean": CAT_BYTE, "payload_len_std": CAT_BYTE,
            "iat_mean": CAT_TIME, "iat_std": CAT_TIME, "iat_max": CAT_TIME,
            "ttl_mean": CAT_PROTO, "init_window": CAT_PROTO,
        }
        for side in ("fwd", "bwd"):
            for attr, cat in cat_by_attr.items():
                entries.append(E("%s_%s" % (side, attr), cat,
                                 _dir_attr(side, attr)))
            for i, flag in enumerate(FLAG_NAMES):
                entries.append(E("%s_flag_%s_count" % (side, flag),
                                 CAT_PROTO, _flag_count(side, i)))
        entries += [
            E("fwd_bwd_pkt_ratio", CAT_PACKET,
              lambda v: v.fwd.pkt_count / max(v.bwd.pkt_count, 1.0)),
            E("fwd_bwd_byte_ratio", CAT_BYTE,
              lambda v: v.fwd.byte_count / max(v.bwd.byte_count, 1.0)),
            E("fwd_bwd_payload_ratio", CAT_BYTE,
              lambda v: v.fwd.payload_bytes / max(v.bwd.payload_bytes, 1.0)),
        ]
    return tuple(entries)


def _packet_entries() -> tuple[FeatureSpec, ...]:
    E = FeatureSpec
    entries = [
        E("total_len", CAT_PACKET, lambda v: float(v.total_len)),
        E("pkt_index", CAT_PACKET, lambda v: float(v.pkt_index)),
        E("payload_len", CAT_BYTE, lambda v: float(v.payload_len)),
        E("ip_header_len", CAT_BYTE, lambda v: float(v.ip_header_len)),
        E("l4_header_len", CAT_BYTE, lambda v: float(v.l4_header_len)),
        E("iat_prev", CAT_TIME, lambda v: v.iat_prev),
        E("proto_tcp", CAT_PROTO,
          lambda v: 1.0 if v.protocol == PROTO_TCP else 0.0),
        E("proto_udp", CAT_PROTO,
          lambda v: 1.0 if v.protocol == PROTO_UDP else 0.0),
        E("proto_icmp", CAT_PROTO,
          lambda v: 1.0 if v.protocol in (PROTO_ICMP, PROTO_ICMPV6) else 0.0),
        E("proto_other", CAT_PROTO, _proto_other),
    ]
    for i, flag in enumerate(FLAG_NAMES):
        entries.append(E("flag_%s" % flag, CAT_PROTO,
                         (lambda bit: lambda v: 1.0 if v.tcp_flags
                          & bit else 0.0)(1 << i)))
    entries += [
        E("tcp_window", CAT_PROTO, lambda v: float(v.tcp_window)),
        E("ttl", CAT_PROTO, lambda v: float(v.ttl)),
    ]
    return tuple(entries)


class PacketContextOracle:
    """Per-flow running state for packet-mode features.

    Tracks, per unidirectional 5-tuple, the previous packet timestamp and
    the packet index within the flow.
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state: dict = {}

    def view(self, p) -> PacketView:
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
        prev = self._state.get(key)
        v = PacketView()
        v.total_len = p.total_len
        v.ip_header_len = p.ip_header_len
        v.l4_header_len = p.l4_header_len
        v.payload_len = p.payload_len
        v.ttl = p.ttl
        v.protocol = p.protocol
        v.tcp_flags = p.tcp_flags if p.tcp_flags is not None else 0
        v.tcp_window = p.tcp_window if p.tcp_window is not None else 0
        if prev is None:
            v.iat_prev = 0.0
            v.pkt_index = 1
        else:
            v.iat_prev = p.ts - prev[0]
            v.pkt_index = prev[1] + 1
        self._state[key] = (p.ts, v.pkt_index)
        return v


UNI_FLOW_ORACLE = _flow_entries(bi=False)
BI_FLOW_ORACLE = _flow_entries(bi=True)
PACKET_ORACLE = _packet_entries()


def flow_row_oracle(rec, entries) -> np.ndarray:
    """One flow's row, one feature function at a time over its view."""
    v = flow_view(rec)
    return np.array([e.fn(v) for e in entries], dtype=np.float64)


def packet_row_oracle(p, ctx: PacketContextOracle, entries) -> np.ndarray:
    """One packet's row, one feature function at a time over its view."""
    v = ctx.view(p)
    return np.array([e.fn(v) for e in entries], dtype=np.float64)


# --- capture frames --------------------------------------------------------
#
# One record's wire bytes, built field by field and concatenated, the IPv4
# header checksum summed over the whole packed header. pcap.write_pcap must
# write these bytes for every record.

def _checksum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def encode_frame_oracle(rec) -> bytes:
    """Wire bytes of a PacketRecord; payload is zero-filled."""
    src = ipaddress.ip_address(rec.src_ip)
    dst = ipaddress.ip_address(rec.dst_ip)
    if rec.protocol == PROTO_TCP:
        l4 = struct.pack(
            "!HHIIBBHHH",
            rec.src_port, rec.dst_port, 0, 0,
            (rec.l4_header_len // 4) << 4,
            rec.tcp_flags or 0,
            rec.tcp_window or 0,
            0, 0,
        )
        l4 += b"\x00" * (rec.l4_header_len - 20)
    elif rec.protocol == PROTO_UDP:
        l4 = struct.pack("!HHHH", rec.src_port, rec.dst_port,
                         8 + rec.payload_len, 0)
    elif rec.protocol in (PROTO_ICMP, PROTO_ICMPV6):
        l4 = struct.pack("!BBHI", 8, 0, 0, 0)
    else:
        l4 = b""
    body = l4 + b"\x00" * rec.payload_len

    if src.version == 4:
        ip_total = rec.ip_header_len + len(body)
        header = struct.pack(
            "!BBHHHBBH4s4s",
            0x40 | (rec.ip_header_len // 4), 0, ip_total, 0, 0x4000,
            rec.ttl, rec.protocol, 0, src.packed, dst.packed,
        )
        header += b"\x00" * (rec.ip_header_len - 20)
        header = header[:10] + struct.pack("!H", _checksum16(header)) \
            + header[12:]
        ip_pkt = header + body
        ethertype = 0x0800
    else:
        payload_length = len(body) + rec.ip_header_len - 40
        header = struct.pack(
            "!IHBB16s16s",
            0x60000000, payload_length, rec.protocol, rec.ttl,
            src.packed, dst.packed,
        )
        ip_pkt = header + b"\x00" * (rec.ip_header_len - 40) + body
        ethertype = 0x86DD

    if rec.link_header_len == 0:
        return ip_pkt
    eth = (b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01"
           + struct.pack("!H", ethertype))
    return eth + ip_pkt


# --- frame decoding --------------------------------------------------------
#
# The decoder as first written: byte-by-byte reads through memoryview
# slices, dotted-quad formatting and a keyword-built record.
# pcap.decode_frame must give an equal record, or raise the same exception
# class with the same message (and byte_count), for every input.

def _decode_ipv4_oracle(buf: memoryview) -> tuple:
    if len(buf) < 20:
        raise MalformedHeader("IPv4 header shorter than 20 bytes")
    ver_ihl = buf[0]
    if ver_ihl >> 4 != 4:
        raise MalformedHeader("IP version field is not 4")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(buf) < ihl:
        raise MalformedHeader("inconsistent IPv4 header length")
    total_length = (buf[2] << 8) | buf[3]
    if total_length < ihl:
        raise MalformedHeader("IPv4 total length smaller than header")
    frag_field = (buf[6] << 8) | buf[7]
    frag_offset = frag_field & 0x1FFF
    if frag_offset > 0:
        raise FragmentContinuation(total_length - ihl)
    ttl = buf[8]
    protocol = buf[9]
    src = "%d.%d.%d.%d" % (buf[12], buf[13], buf[14], buf[15])
    dst = "%d.%d.%d.%d" % (buf[16], buf[17], buf[18], buf[19])
    return (protocol, ihl, total_length, ttl, src, dst, buf[ihl:])


def _decode_ipv6_oracle(buf: memoryview) -> tuple:
    if len(buf) < 40:
        raise MalformedHeader("IPv6 header shorter than 40 bytes")
    if buf[0] >> 4 != 6:
        raise MalformedHeader("IP version field is not 6")
    payload_length = (buf[4] << 8) | buf[5]
    next_header = buf[6]
    ttl = buf[7]
    src = str(ipaddress.IPv6Address(bytes(buf[8:24])))
    dst = str(ipaddress.IPv6Address(bytes(buf[24:40])))
    offset = 40
    while next_header in (0, 43, 60) or next_header == 44:
        if len(buf) < offset + 8:
            raise MalformedHeader("truncated IPv6 extension header")
        if next_header == 44:  # fragment header
            frag_off = ((buf[offset + 2] << 8) | buf[offset + 3]) >> 3
            nh = buf[offset]
            if frag_off > 0:
                raise FragmentContinuation(payload_length)
            next_header = nh
            offset += 8
            continue
        ext_len = (buf[offset + 1] + 1) * 8
        next_header = buf[offset]
        offset += ext_len
        if offset > len(buf):
            raise MalformedHeader("IPv6 extension header exceeds frame")
    total_length = 40 + payload_length
    if total_length < offset:
        raise MalformedHeader("IPv6 payload length smaller than extensions")
    return (next_header, offset, total_length, ttl, src, dst, buf[offset:])


def decode_frame_oracle(raw, link_type: int, ts: float = 0.0):
    buf = memoryview(raw)
    if link_type == 1:  # Ethernet
        if len(buf) < 14:
            raise MalformedHeader("frame shorter than Ethernet header")
        ethertype = (buf[12] << 8) | buf[13]
        link_len = 14
        if ethertype == 0x8100:
            if len(buf) < 18:
                raise MalformedHeader("truncated 802.1Q tag")
            ethertype = (buf[16] << 8) | buf[17]
            link_len = 18
            if ethertype == 0x8100:
                raise NonIP("nested 802.1Q tags")
        ip_buf = buf[link_len:]
        if ethertype == 0x0800:
            fields = _decode_ipv4_oracle(ip_buf)
        elif ethertype == 0x86DD:
            fields = _decode_ipv6_oracle(ip_buf)
        else:
            raise NonIP("ethertype 0x%04x" % ethertype)
    elif link_type == 101:  # raw IP
        link_len = 0
        if len(buf) < 1:
            raise MalformedHeader("empty raw-IP frame")
        version = buf[0] >> 4
        if version == 4:
            fields = _decode_ipv4_oracle(buf)
        elif version == 6:
            fields = _decode_ipv6_oracle(buf)
        else:
            raise NonIP("raw frame with IP version %d" % version)
    else:
        raise UnsupportedLinkType("link type %d" % link_type)

    protocol, ip_hlen, ip_total, ttl, src, dst, l4 = fields
    src_port = dst_port = 0
    tcp_flags = None
    tcp_window = None
    if protocol == PROTO_TCP:
        if len(l4) < 20:
            raise MalformedHeader("truncated TCP header")
        l4_hlen = (l4[12] >> 4) * 4
        if l4_hlen < 20 or len(l4) < l4_hlen:
            raise MalformedHeader("inconsistent TCP data offset")
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
        tcp_flags = l4[13]
        tcp_window = (l4[14] << 8) | l4[15]
    elif protocol == PROTO_UDP:
        if len(l4) < 8:
            raise MalformedHeader("truncated UDP header")
        src_port = (l4[0] << 8) | l4[1]
        dst_port = (l4[2] << 8) | l4[3]
        l4_hlen = 8
    elif protocol in (PROTO_ICMP, PROTO_ICMPV6):
        if len(l4) < 8:
            raise MalformedHeader("truncated ICMP header")
        l4_hlen = 8
    else:
        l4_hlen = 0

    payload_len = ip_total - ip_hlen - l4_hlen
    if payload_len < 0:
        raise MalformedHeader("negative payload length")
    return PacketRecord(
        ts=ts, src_ip=src, dst_ip=dst, src_port=src_port, dst_port=dst_port,
        protocol=protocol, link_header_len=link_len, ip_header_len=ip_hlen,
        l4_header_len=l4_hlen, total_len=link_len + ip_total, ttl=ttl,
        payload_len=payload_len, tcp_flags=tcp_flags, tcp_window=tcp_window)


# --- flow keys -------------------------------------------------------------

def flow_key_of_oracle(p, mode: str) -> tuple:
    """A packet's 5-tuple flow key; a bidirectional key orders its two
    (address, port) endpoints as tuples, the lower first."""
    if mode == "uni":
        return (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
    a = (p.src_ip, p.src_port)
    b = (p.dst_ip, p.dst_port)
    if a <= b:
        return (a[0], b[0], a[1], b[1], p.protocol)
    return (b[0], a[0], b[1], a[1], p.protocol)


# --- flow sides, TCP cuts and time statistics -----------------------------

def _oracle_flows(packets, mode: str) -> list:
    """(key, packets, sides, termination) of each flow a meter with no time
    window and no idle cut gives, `sides` holding 0 for each packet of the
    forward side and 1 for each of the backward side. A flow's first
    sender is its forward side and every other sender its backward side.
    A TCP packet with RST closes its flow; so does a TCP packet after
    which each side (a unidirectional flow: its one side) has sent a FIN.
    What is left is flushed at capture end."""
    live: dict = {}
    out = []
    for p in packets:
        key = flow_key_of_oracle(p, mode)
        sender = (p.src_ip, p.src_port)
        if key not in live:
            live[key] = {"first": sender, "packets": [], "sides": [],
                         "fins": [0, 0]}
        flow = live[key]
        side = 0 if sender == flow["first"] else 1
        flow["packets"].append(p)
        flow["sides"].append(side)
        if p.protocol != 6 or p.tcp_flags is None:
            continue
        if p.tcp_flags & 0x01:
            flow["fins"][side] += 1
        if p.tcp_flags & 0x04:
            ended = "tcp_rst"
        elif flow["fins"][0] and (mode == "uni" or flow["fins"][1]):
            ended = "tcp_fin"
        else:
            continue
        out.append((key, flow["packets"], flow["sides"], ended))
        del live[key]
    out += [(key, flow["packets"], flow["sides"], "capture_end")
            for key, flow in live.items()]
    return out


def meter_sides_oracle(packets, mode: str) -> list:
    """(key, forward count, backward count, termination) of each flow
    `_oracle_flows` gives."""
    return [(key, sides.count(0), sides.count(1), ended)
            for key, _, sides, ended in _oracle_flows(packets, mode)]


def _left_sums(values) -> tuple[float, float]:
    """The sum and the sum of squares of `values`, added left to right."""
    total = sumsq = 0.0
    for v in values:
        total += v
        sumsq += v * v
    return total, sumsq


def _gap_stats(times) -> dict:
    """min, max, sum, sumsq and count of the gaps between `times`; 0.0
    for the min and max of no gap."""
    gaps = [b - a for a, b in zip(times, times[1:])]
    total, sumsq = _left_sums(gaps)
    return {"min": min(gaps, default=0.0), "max": max(gaps, default=0.0),
            "sum": total, "sumsq": sumsq, "count": len(gaps)}


def meter_times_oracle(packets, mode: str) -> list:
    """(key, first timestamp, time statistics) of each flow `_oracle_flows`
    gives, from the timestamps of its own packets: its duration; the gap
    statistics of all its packets ("gaps") and of each side's ("sides",
    forward then backward); and its activity runs ("active") and idle gaps
    ("idle"), each with its total, longest and count. A gap above 1.0 s is
    idle and ends the run before it; the last packet ends the last run."""
    out = []
    for key, flow, sides, _ in _oracle_flows(packets, mode):
        times = [p.ts for p in flow]
        runs, idles = [], []
        start = times[0]
        for a, b in zip(times, times[1:]):
            if b - a > 1.0:
                runs.append(a - start)
                idles.append(b - a)
                start = b
        runs.append(times[-1] - start)
        out.append((key, times[0], {
            "duration": times[-1] - times[0],
            "gaps": _gap_stats(times),
            "sides": tuple(_gap_stats([t for t, s in zip(times, sides)
                                       if s == side]) for side in (0, 1)),
            "active": {"total": _left_sums(runs)[0], "max": max(runs),
                       "count": len(runs)},
            "idle": {"total": _left_sums(idles)[0],
                     "max": max(idles, default=0.0), "count": len(idles)},
        }))
    return out


# --- packet-mode batch job -------------------------------------------------
#
# The packet-mode batch job as first written: the capture reader's records
# one at a time, each through packet_features with one PacketContext and,
# with labels read by read_label_file, LabelIndex.label_for_packet.
# It shares the one-packet path with the library, which the oracles above
# check; the columnar extract_matrix(.., "packet") must give the same
# values bit for bit, the same labels and unmatched count and the same
# CaptureSummary, or raise the same exception.

def packet_matrix_oracle(capture_path: str, labels_path: str | None = None):
    index = (LabelIndex(read_label_file(labels_path))
             if labels_path else None)
    rows = []
    labels = [] if index is not None else None
    reader = CaptureReader(capture_path)
    ctx = PacketContext()
    for p in reader:
        rows.append(packet_features(p, ctx, PACKET_MANIFEST))
        if index is not None:
            labels.append(index.label_for_packet(p))
    values = (np.array(rows, dtype=np.float64) if rows
              else np.empty((0, len(PACKET_MANIFEST))))
    return FeatureMatrix(values=values, names=PACKET_MANIFEST.names,
                         mode=MODE_PACKET, labels=labels,
                         unmatched_labels=(index.unmatched
                                           if index is not None else 0),
                         accounting={"capture": reader.summary})


# --- flow-mode batch job ---------------------------------------------------
#
# The flow-mode batch job as first written: the capture reader's records
# one at a time through one FlowMeter, each flow it emits through
# flow_row and, with labels read by read_label_file,
# LabelIndex.label_for_flow, and the flows dumped one record at a time.
# The meter, the row builder and the label join are the library's; only
# where the records and the label rows come from differs.
# extract_matrix(.., "uni_flow" | "bi_flow") must give the same values
# bit for bit, the same labels, unmatched count, CaptureSummary and
# MeterStats, and write the same bytes to `flows_out`, or raise the same
# exception.

def _dir_csv_values(s) -> list[str]:
    derived = {"pkt_len_sum": s.byte_count,
               "header_byte_count": s.byte_count - s.payload_byte_count,
               "iat_count": max(s.pkt_count - 1, 0)}
    vals = []
    for f in _DIR_CSV_FIELDS:
        v = derived[f] if f in derived else getattr(s, f)
        if v is None:
            v = 0
        vals.append(repr(float(v)) if isinstance(v, float) else str(v))
    vals += [str(c) for c in s.flag_counts]
    return vals


def write_flow_csv_oracle(records, path: str, mode: str) -> int:
    """The record-by-record twin of `flows.write_flow_csv`: FlowRecords
    dumped one row each; returns the row count."""
    count = 0
    with open(path, "w") as fh:
        fh.write(",".join(flow_csv_header(mode)) + "\n")
        for rec in records:
            row = [rec.key.src_ip, str(rec.key.src_port), rec.key.dst_ip,
                   str(rec.key.dst_port), str(rec.key.protocol),
                   repr(rec.window_start), repr(rec.window_end),
                   repr(rec.duration), rec.termination]
            row += _dir_csv_values(rec.fwd)
            if mode == "bi":
                row += _dir_csv_values(rec.bwd)
            fh.write(",".join(row) + "\n")
            count += 1
    return count


def flow_matrix_oracle(capture_path: str, mode: str, tw: float | None = None,
                       idle_timeout: float = MeterConfig.idle_timeout,
                       labels_path: str | None = None,
                       flows_out: str | None = None):
    manifest = DEFAULT_MANIFESTS[mode]
    index = (LabelIndex(read_label_file(labels_path))
             if labels_path else None)
    rows = []
    labels = [] if index is not None else None
    emitted = []
    reader = CaptureReader(capture_path)
    meter = FlowMeter(MeterConfig(
        direction_mode=MODE_TO_DIRECTION[mode], tw_seconds=tw,
        idle_timeout=idle_timeout))

    def handle(rec):
        rows.append(flow_row(rec, manifest))
        if index is not None:
            labels.append(index.label_for_flow(rec))
        emitted.append(rec)

    for p in reader:
        for rec in meter.feed(p):
            handle(rec)
    for rec in meter.finish():
        handle(rec)
    values = (np.array(rows, dtype=np.float64) if rows
              else np.empty((0, len(manifest))))
    if flows_out is not None:
        write_flow_csv_oracle(emitted, flows_out, MODE_TO_DIRECTION[mode])
    return FeatureMatrix(values=values, names=manifest.names, mode=mode,
                         labels=labels, unmatched_labels=(
                             index.unmatched if index is not None else 0),
                         accounting={"capture": reader.summary,
                                     "meter": meter.stats})
