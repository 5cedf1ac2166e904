"""Pairwise service preferences for an active user.

A preference value for services (i, j) is the signed degree to which i beats
j. It is explicit (confidence 1) when the active user observed both services,
implicit when inferred from neighbors who observed both (confidence is the
similarity-weighted mean of those neighbors' similarities), and unknown
(value 0, confidence 0) when nobody covers the pair. Weights are always
renormalized over the pair-specific neighbor subset. `preference_block`
builds a batch's tables in place in one [confidences, values] block: each
run of users with one neighbour count gathers only its neighbours' cells
at the candidates and shares one stacked product per array; the explicit
pairs go in through one bool mask. Which pairs are explicit, implicit or unknown is not
stored: the confidences and the user's own observations tell them apart.
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

    Each run of R users with one neighbour count K gathers only its (R, K, n)
    neighbour cells at the candidates, never a whole row, and shares one
    stacked product per array, written in place; each slice is the same gemm
    call as the user's own 2-d product, so slice b equals the table of
    users[b] built on its own, bit for bit, in any user order. Agrees with
    the per-pair reference in tests/oracles.py up to summation order. Each
    user holds three (n, n) float64 arrays, the block's two and the
    denominators, and one (n, n) bool mask of its explicit pairs.
    """
    users = np.asarray(users, dtype=np.intp)
    ids, sims, counts = neighbors[0].T, neighbors[1].T, neighbors[2]  # ids, sims: (B, K) views
    cols, n = np.asarray(cands, dtype=np.intp), len(cands)

    # For each pair (i, j): value = sum_v s_v (q_vi - q_vj) / sum_v s_v and
    # confidence = sum_v s_v^2 / sum_v s_v, restricted to neighbors covering
    # both services. All three reduce to (S x K) @ (K x S) products.
    denom, block = np.empty((len(users), n, n)), np.empty((2, len(users), n, n))
    confidences, values = block
    bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(users)]
    for lo, hi in zip(bounds, bounds[1:]):
        run, s, c = ids[lo:hi, : counts[lo]], sims[lo:hi, : counts[lo], None], confidences[lo:hi]
        vals = matrix.values[run[..., None], cols]  # (R, K, n), NaN unobserved
        mask = ~np.isnan(vals)
        cov, vals = mask.astype(float), np.where(mask, vals, 0.0)
        np.matmul((s * cov).transpose(0, 2, 1), cov, out=denom[lo:hi])
        np.matmul((s * vals).transpose(0, 2, 1), cov, out=c)  # c: cross sums, then confidences
        np.subtract(c, c.transpose(0, 2, 1), out=values[lo:hi])
        np.matmul((s**2 * cov).transpose(0, 2, 1), cov, out=c)

    # Divide by the denominator, or by 1 where no neighbour covers the pair
    # (denominator 0). There every product term is +-0.0 and the sums start
    # from +0.0, so both sums are exactly +0.0 and stay so without a mask; a
    # covered pair's denominator gains exactly 0.0.
    denom += denom == 0
    block /= denom

    # The explicit pairs are each user's own observed x observed positions.
    own = matrix.values[users[:, None], cols]  # (B, n)
    seen = ~np.isnan(own)
    explicit = seen[:, :, None] & seen[:, None, :]
    np.subtract(own[:, :, None], own[:, None, :], out=values, where=explicit)
    confidences[explicit] = 1.0
    block.reshape(-1, n * n)[:, :: n + 1] = 0  # the diagonals
    return block
