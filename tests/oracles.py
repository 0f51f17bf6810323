"""Independent oracles the library is checked against.

Everything here is deliberately naive (plain loops, brute force,
projected-gradient optimization, central differences) and shares no code
with the implementations under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """(kdist, lrd, scores) of LOF fitted on `train` and scored on
    `queries`."""
    X = np.asarray(train, dtype=np.float64)
    n = X.shape[0]
    D = _column_sq_dists(X, X)
    np.sqrt(D, out=D)
    np.fill_diagonal(D, np.inf)  # a training point is not its own neighbor
    kdist = np.partition(D, k - 1, axis=1)[:, k - 1]
    lrd = np.empty(n, dtype=np.float64)
    for i in range(n):
        _, lrd[i] = _lof_neighbourhood(D[i], kdist[i], kdist)
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    D = _column_sq_dists(Q, X)
    np.sqrt(D, out=D)
    kdist_q = np.partition(D, k - 1, axis=1)[:, k - 1]
    scores = np.empty(Q.shape[0], dtype=np.float64)
    for i in range(Q.shape[0]):
        nbr, lrd_q = _lof_neighbourhood(D[i], kdist_q[i], kdist)
        scores[i] = lrd[nbr].mean() / lrd_q
    return kdist, lrd, scores


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


# --- autoencoder training ---------------------------------------------------
# The loop the autoencoder was first trained with: separate weight and bias
# arrays, each batch gathered from the shuffled order on its own, and one
# update per array. Autoencoder.fit must give the same weights, biases and
# loss history bit for bit at the same hyperparameters.

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
    """(weights, biases, loss_history) of per-batch mini-batch descent."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    n = X.shape[0]
    bs = min(batch_size, n)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        seen = 0
        for s in range(0, n, bs):
            batch = X[order[s:s + bs]]
            loss, gw, gb = _ae_loss_and_grads(weights, biases, batch)
            for li in range(len(weights)):
                weights[li] -= learning_rate * gw[li]
                biases[li] -= learning_rate * gb[li]
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
    v.iat_min = s.iat_min if s.iat_count else 0.0
    v.iat_max = s.iat_max if s.iat_count else 0.0
    v.iat_mean = _mean(s.iat_sum, s.iat_count)
    v.iat_std = _pop_std(s.iat_sum, s.iat_sumsq, s.iat_count)
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
    iat_n = a.iat_count + b.iat_count
    ia, ib = a.iat_count > 0, b.iat_count > 0
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
    v.iat_min = rec.iat_min if rec.iat_count else 0.0
    v.iat_max = rec.iat_max if rec.iat_count else 0.0
    v.iat_mean = _mean(rec.iat_sum, rec.iat_count)
    v.iat_std = _pop_std(rec.iat_sum, rec.iat_sumsq, rec.iat_count)
    v.active_total = rec.active_total
    v.active_max = rec.active_max
    v.active_mean = _mean(rec.active_total, rec.active_count)
    v.active_count = float(rec.active_count)
    v.idle_total = rec.idle_total
    v.idle_max = rec.idle_max
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
