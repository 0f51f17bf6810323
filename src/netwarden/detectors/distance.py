"""Squared Euclidean distances summed in a fixed column order.

Each distance is (a_0 - b_0)^2 + (a_1 - b_1)^2 + ... added left to right,
so it is the same float whatever block or batch it is computed in:
LOF neighbour sets, which count every point tied at the k-distance,
cannot change with the shape of a query batch. sq_dists gives every pair
of two sets; sq_dists_pairs gives listed pairs, with the same bits.

The expanded form |a|^2 + |b|^2 - 2ab is faster but cancels, and splits
exact ties. LOF uses it only as a screen: it keeps every training point
that the form's error bound cannot rule out and measures each of them
again with sq_dists_pairs, so no value it returns comes from the screen.

distinct_rows finds the distinct rows of a query batch. Packet traffic
repeats header rows, and the IF, LOF and OSVM score of a row depends
only on its bytes, so each of them scores each distinct row once and
gives every copy that row's score.
"""

from __future__ import annotations

import numpy as np

BLOCK_BYTES = 1 << 20  # one (d, rows, m) block of differences, reused


def sq_dists(A: np.ndarray, BT: np.ndarray) -> np.ndarray:
    """||a - b||^2 for every row a of A (n, d) and column b of BT (d, m).

    BT is the second operand transposed; callers that reuse it keep it
    C-contiguous.
    """
    BT = np.ascontiguousarray(BT)
    d, m = BT.shape
    if m == 1:
        # numpy sums a reduction to a single element pairwise, not in order
        return sq_dists(A, np.repeat(BT, 2, axis=1))[:, :1]
    AT = np.ascontiguousarray(A.T)
    n = AT.shape[1]
    out = np.empty((n, m), dtype=np.float64)
    rows = max(1, min(n, BLOCK_BYTES // (8 * max(d * m, 1))))
    block = np.empty((d, rows, m), dtype=np.float64)
    for s in range(0, n, rows):
        diff = block[:, :min(rows, n - s)]
        np.subtract(AT[:, s:s + rows, None], BT[:, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        # over the outer axis numpy adds the d planes one after another
        np.add.reduce(diff, axis=0, out=out[s:s + rows])
    return out


def sq_dists_pairs(A: np.ndarray, BT: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """||A[rows[i]] - BT[:, cols[i]]||^2 for each listed pair i: the float
    sq_dists gives for that pair. A one-row A needs no gather."""
    if cols.size == 1:
        # numpy sums a reduction to a single element pairwise, not in order
        rows, cols = np.repeat(rows, 2), np.repeat(cols, 2)
        return sq_dists_pairs(A, BT, rows, cols)[:1]
    diff = BT.take(cols, axis=1)
    # b - a rounds to exactly -(a - b), so the squares are the same
    np.subtract(diff, A.T if A.shape[0] == 1 else A[rows].T, out=diff)
    np.multiply(diff, diff, out=diff)
    # over the outer axis numpy adds the d planes one after another
    return np.add.reduce(diff, axis=0)


def rbf(A: np.ndarray, BT: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for rows a of A and columns b of BT.

    Every entry is exp of one sq_dists float, so the kernel of a set with
    itself is exactly symmetric with a unit diagonal.
    """
    K = sq_dists(A, BT)
    K *= -gamma
    return np.exp(K, out=K)


def distinct_rows(X: np.ndarray) -> tuple:
    """(rows, inverse): the distinct rows of the 2-D array X, compared as
    bytes (so -0.0 and 0.0 differ, and equal NaNs match), and the index in
    `rows` of each row of X: rows[inverse] is X bit for bit. A batch of one
    row skips the sort."""
    n, d = X.shape
    if n < 2 or d == 0:
        return X, np.arange(n)
    Q = np.ascontiguousarray(X)
    void = Q.view(np.dtype((np.void, Q.itemsize * d))).ravel()
    rows, inverse = np.unique(void, return_inverse=True)
    return rows.view(Q.dtype).reshape(-1, d), inverse
