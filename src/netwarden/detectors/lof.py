"""Local outlier factor with novelty-query semantics.

LOF_k(x) = mean_{y in N_k(x)} lrd_k(y) / lrd_k(x), where N_k includes
every training point within the k-distance (ties count), reachability
distance is max(k-distance(y), d(x, y)), and local reachability density
is the inverse mean reachability with a small additive floor so that
duplicate-heavy data keeps finite densities.

Fit and score find neighbours in blocks of QUERY_BLOCK query rows, so no
n x n matrix is held, in three steps:

1. Prune. Median cuts on the widest coordinate split the training rows
   into leaves of at most LEAF rows. Each leaf keeps a representative
   row r and a radius R. A block keeps only the leaves that may hold a
   neighbour of one of its rows (bound below). Fit visits the training
   rows leaf by leaf and score orders its rows by their nearest
   representative, so that a block's rows keep few leaves.
2. Screen. One matrix product of the rows [-2q, |q|^2, 1] with the
   columns [x; 1; |x|^2] of the kept rows, in training-index order, gives
   approximate squared distances A. With U at least the k-th smallest A
   of a query row (_kth_bound), every kept point with
   A <= (U + E) WIDEN + E is a candidate.
3. Refine. Each candidate's squared distance D is measured again in the
   fixed column order of distance.py. The k-distance, the neighbours,
   lrd and the score come from those values alone.

E bounds |A - D| for finite inputs. With u = eps / 2 and
N = |q|^2 + |x|^2: D is within (d + 2) u |q - x|^2 <= 2 (d + 2) u N of
the exact |q - x|^2; the computed norms are within d u N, and the
product's d + 2 terms, whose magnitudes add up to at most 2N, within
2 (d + 2) u N in any summation order. So |A - D| <= (5d + 8) u N to first
order. E = (5d + 8) eps (|q|^2 + max |x|^2 + tiny) doubles that, which
covers the higher-order terms and the rounding of E and of the bound, and
its tiny term (the smallest normal) is 5d + 8 subnormal steps, more than
underflow can cost. A query row whose norms could overflow the product
keeps every training point.

At least k points have A <= U, and so D <= U + E: the squared k-distance
kd^2 <= U + E. A neighbour has D <= kd^2 WIDEN, hence
A <= (U + E) WIDEN + E: the screen passes the k nearest points and every
neighbour, and no value comes from it.

The prune's bound. The analysis above puts A and D each within E / 2 of
the exact |q - x|^2. So, with A from the representatives' columns, the
exact distance from q to a representative r lies between
sqrt(A - E) and hi = sqrt(A + E), and R, the largest sqrt(D + E) of the
leaf's rows as queries against r, is at least the exact distance from r
to each of them. Some k training points other than q lie within exact
distance F of q:
- fit: F is the smallest far bound hi + R at which the leaves within it
  hold k + 1 rows, q perhaps among them;
- score: F is the smallest hi + sqrt(kdist(r)^2 + E_r), where E_r is the
  E of r as a query: r's k neighbours have D <= kdist(r)^2, so each is
  within sqrt(kdist(r)^2 + E_r) of r.
Their D <= F^2 + E, so kd^2 <= F^2 + E, and a neighbour, with
D <= kd^2 WIDEN, lies within M = sqrt((F^2 + E) WIDEN + E) of q. Every
row of a leaf lies at least sqrt(A - E) - R from q, so a leaf with
A - E > (R + M)^2 holds no neighbour. Computed from nonnegative terms,
A - E is within a factor 1 + u of its exact value and
(R WIDEN + M WIDEN)^2 within (1 - u)^19, so a leaf is dropped only when
A - E > (R WIDEN + M WIDEN)^2, whose WIDEN^2 (32 u) covers both;
underflow costs less than E's tiny term. A wide row has E = inf and keeps
every leaf, as does a NaN. The kept leaves hold every neighbour and the
k nearest points of each row, which is all the screen needs.

Fit and score are therefore bit for bit those of the full fixed-order
distance matrix, whatever the product's rounding (gemv or gemm, memory
layout, thread count), the leaves or the order of the queries. Score
computes each distinct query row once (distance.distinct_rows), and one
row alone skips the prune, which costs it more than it saves.

Fit finds each training row's neighbours once and keeps the lists (about
k a row) until every k-distance is known; lrd and each training row's
leave-one-out LOF, which calibrates the threshold, come from the same
lists.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyTraining, KTooLarge, MalformedModel, NonFiniteFeature
from ..settings import Declared, Setting
from .distance import distinct_rows, sq_dists_pairs

LRD_FLOOR = 1e-10
QUERY_BLOCK = 64  # query rows per screened block
LEAF = 32  # training rows per leaf of the prune, at most
GROUP = 16  # approximate distances per minimum in the k-th smallest bound
EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny
# sqrt rounds squared distances up to 2 ulps (2 eps) above kd^2 onto kd
# itself; a candidate bound 8 eps above kd^2 misses none of them
WIDEN = 1.0 + 8 * EPS
NORM_LIMIT = 1e300  # above |q|^2 + max |x|^2 the product may overflow


def _error_bound(sq_norms: np.ndarray, d: int,
                 max_sq_norm: float) -> np.ndarray:
    """E of query rows with these squared norms."""
    c = (5 * d + 8) * EPS
    return sq_norms * c + c * (max_sq_norm + TINY)  # cannot overflow


def approx_sq_dists(Q: np.ndarray, screen: np.ndarray,
                    max_sq_norm: float) -> tuple:
    """(A, E): approximate squared distances of the query rows Q (b, d) to
    the training points, from the screen matrix [X^T; 1; |x|^2], and the
    bound E of each row on |A - D|. A row whose norms may overflow the
    product gets A = 0 and E = inf."""
    b, d = Q.shape
    Qa = np.empty((b, d + 2))
    np.multiply(Q, -2.0, out=Qa[:, :d])
    np.einsum("ij,ij->i", Q, Q, out=Qa[:, d])
    Qa[:, d + 1] = 1.0
    E = _error_bound(Qa[:, d], d, max_sq_norm)
    limit = (5 * d + 8) * EPS * NORM_LIMIT
    if E.max() <= limit:
        return Qa @ screen, E
    wide = ~(E <= limit)
    E[wide] = np.inf
    if not max_sq_norm <= NORM_LIMIT:  # every row is wide
        return np.zeros((b, screen.shape[1])), E
    Qa[wide] = 0.0
    return Qa @ screen, E


def _leaves(X: np.ndarray) -> tuple:
    """(order, starts): the training row indices leaf by leaf, and where
    each leaf starts in them. Each cut sorts a part of more than LEAF rows
    on its widest coordinate and cuts it at its middle, or at the change
    of that coordinate nearest the middle if one lies within a quarter of
    the part from it, so that runs of equal rows tend to share a leaf."""
    n = X.shape[0]
    order, starts = np.arange(n), np.zeros(1, dtype=np.intp)
    while True:
        sizes = np.diff(starts, append=n)
        if sizes.max() <= LEAF:
            return order, starts
        P = X[order]
        width = (np.maximum.reduceat(P, starts)
                 - np.minimum.reduceat(P, starts))
        part = np.repeat(np.arange(starts.size), sizes)
        key = P[np.arange(n), width.argmax(axis=1)[part]]
        by_key = np.lexsort((key, part))
        order, key = order[by_key], key[by_key]
        change = np.flatnonzero(key[1:] != key[:-1]) + 1
        size = sizes[sizes > LEAF]
        mid = starts[sizes > LEAF] + size // 2
        i = np.searchsorted(change, mid)
        after, before = np.append(change, 2 * n)[i], np.append(-n, change)[i]
        near = np.where(mid - before < after - mid, before, after)
        cut = np.where(np.abs(near - mid) <= size // 4, near, mid)
        starts = np.sort(np.append(starts, cut))


def _kth_bound(A: np.ndarray, k: int) -> np.ndarray:
    """U >= the k-th smallest entry of each row of A: the k-th smallest of
    the minima of disjoint groups of GROUP columns. k groups hold an entry
    at most U, so k entries are at most U. Group i holds the columns i,
    i + g, i + 2g, ..., so that runs of like training rows fall in
    different groups; a row of fewer than GROUP * k columns is not
    grouped, and U is its k-th smallest entry."""
    b, n = A.shape
    g = n // GROUP if n >= GROUP * k else n
    full = n - n % g
    mins = A[:, :full].reshape(b, full // g, g).min(axis=1)
    if full < n:
        mins = np.concatenate([mins, A[:, full:]], axis=1)
    mins.partition(k - 1, axis=1)
    return mins[:, k - 1]


def _kth_smallest(rows: np.ndarray, values: np.ndarray, n_rows: int,
                  k: int) -> np.ndarray:
    """k-th smallest of each row's values; `rows` (sorted) gives the row
    of each value."""
    counts = np.bincount(rows, minlength=n_rows)
    padded = np.full((n_rows, counts.max()), np.inf)
    padded[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] \
        = values
    padded.partition(k - 1, axis=1)
    return padded[:, k - 1]


def _row_means(rows: np.ndarray, n_rows: int, *values) -> list:
    """Per query row, the mean of each array in `values` over that row's
    entries, which `rows` (sorted) lists. Rows are grouped by entry count,
    so each sum is the 1-D np.add.reduce of the row in order."""
    counts = np.bincount(rows, minlength=n_rows)
    start = np.cumsum(counts) - counts
    means = [np.empty(n_rows) for _ in values]
    for c in np.unique(counts):
        r = np.flatnonzero(counts == c)
        at = start[r, None] + np.arange(c)
        for mean, v in zip(means, values):
            mean[r] = np.add.reduce(v[at], axis=1) / c
    return means


def _require_finite(Q: np.ndarray, what: str) -> None:
    """The screen's error bound holds for finite values only."""
    if not np.isfinite(Q).all():
        row = np.flatnonzero(~np.isfinite(Q).all(axis=-1))[0]
        raise NonFiniteFeature("LOF %s row %d is not finite" % (what, row))


class LocalOutlierFactor(Declared):
    kind = "lof"
    PARAMS = {"k": Setting(int, 20, "[1, inf)")}
    # fitted state, set by fit: the screen [X^T; 1; |x|^2], whose norms are
    # never saved, and its top, the training rows transposed (d, n)
    _screen = _XT = _max_sq_norm = _kdist = _lrd = None
    # the prune's leaves, set with the training rows and never saved: the
    # rows leaf by leaf, each row's leaf, each leaf's size, representative
    # (its screen columns and its E as a query) and radius
    _order = _leaf_of = _sizes = _reps = _rep_screen = _rep_err = None
    _radius = None
    loo_scores = None  # set by fit and never saved

    def _set_training(self, X: np.ndarray) -> None:
        """Keep the training rows X (n, d) in the screen matrix, under a
        row of ones and their squared norms, and build the prune's
        leaves."""
        n, d = X.shape
        self._screen = np.empty((d + 2, n))
        self._XT = self._screen[:d]
        self._XT[:] = X.T
        self._screen[d] = 1.0
        np.einsum("ij,ij->j", self._XT, self._XT, out=self._screen[d + 1])
        self._max_sq_norm = float(self._screen[d + 1].max())
        order, starts = _leaves(X)
        self._order = order
        self._sizes = np.diff(starts, append=n)
        leaf = np.repeat(np.arange(starts.size), self._sizes)
        self._leaf_of = np.empty(n, dtype=np.intp)
        self._leaf_of[order] = leaf
        # the representative is the row nearest its leaf's box centre
        P = X[order]
        centre = (np.minimum.reduceat(P, starts) / 2
                  + np.maximum.reduceat(P, starts) / 2)
        off = np.add.reduce((P - centre[leaf]) ** 2, axis=1)
        self._reps = order[np.lexsort((off, leaf))[starts]]
        self._rep_screen = np.ascontiguousarray(self._screen[:, self._reps])
        err = _error_bound(self._screen[d + 1], d, self._max_sq_norm)
        self._rep_err = err[self._reps]
        D = sq_dists_pairs(P, self._rep_screen[:d], np.arange(n), leaf)
        self._radius = np.maximum.reduceat(np.sqrt(D + err[order]), starts)

    def _kept_columns(self, block: np.ndarray, own: bool) -> np.ndarray:
        """The training indices, in order, of the leaves that may hold a
        neighbour of a row of `block` (the module docstring's bound). With
        `own` the rows are training points."""
        A, E = approx_sq_dists(block, self._rep_screen, self._max_sq_norm)
        hi = np.sqrt(A + E[:, None])
        if own:
            # the far bound at which the nearest leaves hold k + 1 rows
            far = np.add(hi, self._radius, out=hi)
            by_far = far.argsort(axis=1)
            held = np.cumsum(self._sizes[by_far], axis=1) > self.k
            F = np.take_along_axis(far, by_far, axis=1)[
                np.arange(far.shape[0]), held.argmax(axis=1)]
        else:
            hi += np.sqrt(self._kdist[self._reps] ** 2 + self._rep_err)
            F = hi.min(axis=1)
        M = np.sqrt((F * F + E) * WIDEN + E)
        reach = np.add(self._radius * WIDEN, (M * WIDEN)[:, None])
        np.square(reach, out=reach)
        dropped = (A - E[:, None] > reach).all(axis=0)  # a NaN drops nothing
        return np.flatnonzero(~dropped[self._leaf_of])

    def _by_nearest_rep(self, Q: np.ndarray) -> np.ndarray:
        """The rows of Q ordered by their nearest representative."""
        near = np.empty(Q.shape[0], dtype=np.intp)
        for s in range(0, Q.shape[0], QUERY_BLOCK):
            A, _ = approx_sq_dists(Q[s:s + QUERY_BLOCK], self._rep_screen,
                                   self._max_sq_norm)
            near[s:s + QUERY_BLOCK] = A.argmin(axis=1)
        return np.argsort(near, kind="stable")

    def _candidates(self, block: np.ndarray, cols, own) -> tuple:
        """(row, training index) of every candidate neighbour of the query
        rows `block` among the training indices `cols` (sorted; None for
        all), in row then index order. `own` gives each row's training
        index when the queries are the training points, which are not
        their own neighbours, and is None otherwise."""
        screen = self._screen if cols is None else self._screen[:, cols]
        A, E = approx_sq_dists(block, screen, self._max_sq_norm)
        if own is not None:  # the prune keeps each row's own leaf
            own = (np.arange(own.size), np.searchsorted(cols, own))
            A[own] = np.inf
        U = _kth_bound(A, self.k)
        keep = A <= ((U + E) * WIDEN + E)[:, None]
        if own is not None:
            keep[own] = False
        rows, pos = np.unravel_index(np.flatnonzero(keep), keep.shape)
        return rows, pos if cols is None else cols[pos]

    def _neighbour_blocks(self, Q: np.ndarray, own: bool):
        """Per block of query rows: their indices in Q, the k-distance of
        each, and their neighbours as block row, training index and
        distance, in row then index order. With `own` the queries are the
        training points, taken leaf by leaf; other queries go in order
        of their nearest representative."""
        order = self._order if own else self._by_nearest_rep(Q)
        for s in range(0, Q.shape[0], QUERY_BLOCK):
            at = order[s:s + QUERY_BLOCK]
            block = Q[at]
            kept = self._kept_columns(block, own)
            rows, cols = self._candidates(block, kept, at if own else None)
            D = sq_dists_pairs(block, self._XT, rows, cols)
            # the screen passes the k nearest: their kth D is kd^2
            kd = np.sqrt(_kth_smallest(rows, D, at.size, self.k))
            dist = np.sqrt(D)
            near = dist <= kd[rows]
            yield at, kd, rows[near], cols[near], dist[near]

    def fit(self, X: np.ndarray) -> "LocalOutlierFactor":
        """Fit on the training rows X (n, d). Besides kdist and lrd, keeps
        in `loo_scores` each training row's leave-one-out LOF: the mean
        lrd of its neighbours, itself excluded, over its own lrd. They are
        not saved with the model."""
        X = np.asarray(X, dtype=np.float64)
        if X.size == 0:
            raise EmptyTraining("LOF needs training rows")
        n = X.shape[0]
        if self.k >= n:
            raise KTooLarge("k=%d with only %d training points"
                            % (self.k, n))
        _require_finite(X, "training")
        self._set_training(X)
        # every lrd needs every k-distance: keep each block's neighbours
        # until all are known
        kdist = np.empty(n)
        blocks = []
        for at, kd, rows, cols, dist in self._neighbour_blocks(X, own=True):
            kdist[at] = kd
            blocks.append((at, rows, cols, dist))
        lrd = np.empty(n)
        for at, rows, cols, dist in blocks:
            (mean,) = _row_means(rows, at.size, np.maximum(kdist[cols], dist))
            lrd[at] = 1.0 / (mean + LRD_FLOOR)
        loo = np.empty(n)
        for at, rows, cols, _ in blocks:
            (mean_lrd,) = _row_means(rows, at.size, lrd[cols])
            loo[at] = mean_lrd / lrd[at]
        self._kdist = kdist
        self._lrd = lrd
        self.loo_scores = loo
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """LOF of each query against the training set."""
        if self._XT is None:
            raise EmptyTraining("model is not fitted")
        Q = np.atleast_2d(np.asarray(X, dtype=np.float64))
        _require_finite(Q, "query")
        if Q.shape[0] == 1:
            return self._score_one(Q)
        rows, inverse = distinct_rows(Q)
        return self._score_rows(rows)[inverse]

    def _score_one(self, q: np.ndarray) -> np.ndarray:
        """The score of one query row q (1, d): the screen over every
        training point, pair kernel and arithmetic of the blocks on 1-D
        arrays, without their padding and grouping."""
        rows, cols = self._candidates(q, None, None)
        D = sq_dists_pairs(q, self._XT, rows, cols)
        kd = np.sqrt(np.partition(D, self.k - 1)[self.k - 1])
        dist = np.sqrt(D)
        near = dist <= kd
        cols, dist = cols[near], dist[near]
        reach = np.maximum(self._kdist[cols], dist)
        lrd_q = 1.0 / (np.add.reduce(reach) / reach.size + LRD_FLOOR)
        near_lrd = self._lrd[cols]
        return np.array([np.add.reduce(near_lrd) / near_lrd.size / lrd_q])

    def _score_rows(self, Q: np.ndarray) -> np.ndarray:
        out = np.empty(Q.shape[0])
        for at, kd, rows, cols, dist in self._neighbour_blocks(Q, own=False):
            reach = np.maximum(self._kdist[cols], dist)
            mean_reach, mean_lrd = _row_means(rows, at.size, reach,
                                              self._lrd[cols])
            lrd_q = 1.0 / (mean_reach + LRD_FLOOR)
            out[at] = mean_lrd / lrd_q
        return out

    def state_dict(self) -> dict:
        return {"train": self._XT.T.tolist(), "kdist": self._kdist.tolist(),
                "lrd": self._lrd.tolist()}

    @classmethod
    def from_state(cls, params: dict, state: dict) -> "LocalOutlierFactor":
        try:
            model = cls(**params)
            X, kdist, lrd = (np.asarray(state[key], dtype=np.float64)
                             for key in ("train", "kdist", "lrd"))
        except (ValueError, TypeError) as exc:
            raise MalformedModel("LOF parameters or state: %s"
                                 % exc) from None
        if X.ndim != 2 or X.size == 0:
            raise MalformedModel("LOF training rows are not a non-empty "
                                 "matrix")
        n = X.shape[0]
        if kdist.shape != (n,) or lrd.shape != (n,):
            raise MalformedModel("LOF kdist and lrd need one value for each "
                                 "of the %d training rows" % n)
        if not (np.isfinite(X).all() and np.isfinite(kdist).all()
                and np.isfinite(lrd).all()):
            raise MalformedModel("LOF state holds a non-finite value")
        if model.k >= n:
            raise MalformedModel("LOF k=%d is outside [1, %d)" % (model.k, n))
        model._set_training(X)
        model._kdist = kdist
        model._lrd = lrd
        return model
