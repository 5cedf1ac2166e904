"""Pairwise service preferences for an active user.

A preference value for services (i, j) is the signed degree to which i beats
j. It is explicit (confidence 1) when the active user observed both services,
implicit when inferred from neighbors who observed both (confidence is the
similarity-weighted mean of those neighbors' similarities), and unknown
(value 0, confidence 0) when nobody covers the pair. Weights are always
renormalized over the pair-specific neighbor subset. `preference_block`
builds a batch's tables from the neighbours' rows alone, in place in one
[confidences, values] block, with one stacked product per array for each
run of users with one neighbour count; the explicit pairs go in through one
bool mask. Which pairs are explicit, implicit or unknown is not stored: the
confidences and the user's own observations tell them apart.
"""

from __future__ import annotations

import numpy as np

from .matrix import QoSMatrix


def preference_block(matrix: QoSMatrix, users, neighbors, cands) -> np.ndarray:
    """Each user's table over the same n candidate ids `cands`, ascending
    and distinct, as one writable (2, len(users), n, n) block
    [confidences, values]. Values are antisymmetric, confidences symmetric;
    diagonals are 0. users are valid ids and `neighbors` is their
    (ids, sims, counts) as `top_neighbors` returns them.

    Only the union of the batch's neighbour rows is read, gathered once.
    Each run of users with one neighbour count shares one stacked product
    per array, written in place; each slice is the same gemm call as the
    user's own 2-d product, so slice b equals the table of users[b] built on
    its own, bit for bit, in any user order. Agrees with the per-pair
    reference in tests/oracles.py up to summation order. Each user holds
    three (n, n) float64 arrays, the block's two and the denominators, and
    one (n, n) bool mask of its explicit pairs, whatever it observed.
    """
    users = np.asarray(users, dtype=np.intp)
    ids, sims, counts = neighbors
    # (B, K) in C order, so a run's operands lay out as one user's own
    ids, sims = np.ascontiguousarray(ids.T), np.ascontiguousarray(sims.T)
    listed = np.arange(ids.shape[1]) < counts[:, None]  # each user's neighbours
    rows = np.flatnonzero(np.bincount(ids[listed], minlength=matrix.num_users))
    cols, n = np.asarray(cands, dtype=np.intp), len(cands)
    mask = matrix.observed_mask.take(rows, axis=0).take(cols, axis=1)
    vals = np.where(mask, matrix.values.take(rows, axis=0).take(cols, axis=1), 0.0)
    covered = mask.astype(float)

    # For each pair (i, j): value = sum_v s_v (q_vi - q_vj) / sum_v s_v and
    # confidence = sum_v s_v^2 / sum_v s_v, restricted to neighbors covering
    # both services. All three reduce to (S x K) @ (K x S) products.
    denom, block = np.empty((len(users), n, n)), np.empty((2, len(users), n, n))
    confidences, values = block
    bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(users)]
    for lo, hi in zip(bounds, bounds[1:]):
        run = rows.searchsorted(ids[lo:hi, : counts[lo]])
        s, cov, c = sims[lo:hi, : counts[lo], None], covered[run], confidences[lo:hi]
        np.matmul((s * cov).transpose(0, 2, 1), cov, out=denom[lo:hi])
        np.matmul((s * vals[run]).transpose(0, 2, 1), cov, out=c)  # c: cross sums, then confidences
        np.subtract(c, c.transpose(0, 2, 1), out=values[lo:hi])
        np.matmul((s**2 * cov).transpose(0, 2, 1), cov, out=c)

    # Divide by the denominator, or by 1 where no neighbour covers the pair
    # (denominator 0). There every product term is +-0.0 and the sums start
    # from +0.0, so both sums are exactly +0.0 and stay so without a mask; a
    # covered pair's denominator gains exactly 0.0.
    denom += denom == 0
    block /= denom

    # The explicit pairs are each user's own observed x observed positions.
    seen, own = matrix.observed_mask[users][:, cols], matrix.values[users][:, cols]
    explicit = seen[:, :, None] & seen[:, None, :]
    np.subtract(own[:, :, None], own[:, None, :], out=values, where=explicit)
    confidences[explicit] = 1.0
    block.reshape(-1, n * n)[:, :: n + 1] = 0  # the diagonals
    return block
