"""Squared Euclidean distances summed in a fixed column order.

Each distance is (a_0 - b_0)^2 + (a_1 - b_1)^2 + ... added left to right,
so it is the same float whatever block or batch it is computed in:
LOF neighbour sets, which count every point tied at the k-distance,
cannot change with the shape of a query batch. The expanded form
|a|^2 + |b|^2 - 2ab is faster but cancels, and splits exact ties.
"""

from __future__ import annotations

import numpy as np

BLOCK_BYTES = 1 << 21  # one (d, rows, m) block of differences


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
    rows = max(1, BLOCK_BYTES // (8 * max(d * m, 1)))
    for s in range(0, n, rows):
        diff = AT[:, s:s + rows, None] - BT[:, None, :]
        np.multiply(diff, diff, out=diff)
        # over the outer axis numpy adds the d planes one after another
        np.add.reduce(diff, axis=0, out=out[s:s + rows])
    return out
