"""Rank-correlation similarity between users and Top-K neighbor selection.

Similarity is the Kendall rank correlation over the services both users
observed: (concordant - discordant) / (N(N-1)/2), with ties counting toward
neither side while the denominator stays N(N-1)/2. Pairs sharing fewer than
two services are uninformative and score 0.

A service pair can only count toward the similarity of u and v if the active
user u observed both services, so `similarity_block` enumerates just each
active user's own pairs: its cost is O(U * sum of n_u^2) in the active users'
observed counts n_u rather than O(U * S^2) per user in the number of
services. Reading only the columns some active user observed, it indexes
the active users' n_u(n_u-1)/2 pairs out of one triangle of the largest n_u
and builds every user's signs on them in cache-sized chunks of CHUNK_ELEMS
elements, never a (U, S, S) tensor; one product with a (pairs x active)
matrix of the active users' own signs then sums each active user's segment
into a (U, active) block. `top_neighbors` picks every active user's
neighbours from it with one lexsort.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix, as_int

# User x pair elements `similarity_block` builds at once: 256 KB of float64.
CHUNK_ELEMS = 1 << 15


def similarity_block(matrix: QoSMatrix, users) -> np.ndarray:
    """(num_users, len(users)) similarities: column b holds users[b]'s
    similarity to every user, itself included.

    Column b is bit-identical to computing users[b]'s column on its own:
    every sum below adds exact integers, so the batch changes no bit of the
    result.
    """
    batch = np.array([as_int(u, "user") for u in users], dtype=np.intp)
    for u in batch.tolist():
        matrix._check_user(u)
    union = np.flatnonzero(matrix.observed_mask[batch].any(axis=0))  # the services a pair can use
    mask, values = matrix.observed_mask[:, union], matrix.values[:, union]
    # The active users' own service pairs, one segment each: a user with c
    # observed services owns the pairs (before[q], after[q]) of its observed
    # list for q < c(c-1)/2, as the row-major lower triangle lists the pairs
    # of 0..c-1 first; one triangle of the largest c serves every user.
    owner_rows, cols = np.nonzero(mask[batch])
    counts = np.bincount(owner_rows, minlength=batch.size)
    sizes = counts * (counts - 1) // 2
    after, before = np.tril_indices(int(counts.max(initial=0)), k=-1)
    owner = np.repeat(np.arange(batch.size), sizes)
    q = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    base = (np.cumsum(counts) - counts)[owner]
    first, second = cols[base + before[q]], cols[base + after[q]]
    active = batch[owner]
    sign_own = np.sign(values[active, first] - values[active, second])
    # Concordant - discordant is a dot product of +-1/0 signs. A chunk holds
    # at most CHUNK_ELEMS < 2^24 pairs, so each of its products is an exact
    # integer even in float32, and so is the float64 total: the result is
    # bit-identical to counting the pairs one by one.
    cd = np.zeros((matrix.num_users, batch.size))
    step = max(1, CHUNK_ELEMS // max(matrix.num_users, batch.size))
    for lo in range(0, first.size, step):
        hi = min(lo + step, first.size)
        diff = values[:, first[lo:hi]]
        diff -= values[:, second[lo:hi]]
        # NaN compares false both ways, so pairs v did not observe sign to 0
        signs = np.subtract(diff > 0, diff < 0, dtype=np.float32)
        weights = np.zeros((hi - lo, batch.size), dtype=np.float32)
        weights[np.arange(hi - lo), owner[lo:hi]] = sign_own[lo:hi]
        cd += signs @ weights
    maskf = mask.astype(float)  # overlaps can pass 2^24 under MAX_CELLS: not float32
    common = maskf @ maskf[batch].T
    pairs = common * (common - 1) / 2.0
    return np.divide(cd, pairs, out=np.zeros_like(cd), where=pairs > 0)


def top_neighbors(
    ids: np.ndarray, sims: np.ndarray, active, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each column b of the (len(ids), B) block `sims`: the ids and
    similarities of the at-most-k entries with the largest strictly positive
    similarity, active[b] excluded, sorted descending; equal similarities
    break toward the smaller id. One lexsort orders the whole block."""
    k = as_int(k, "neighborhood size")
    if k < 0:
        raise DomainError(f"neighborhood size must be >= 0, got {k}")
    sims = np.where(ids[:, None] == np.asarray(active)[None, :], 0.0, sims)
    order = np.lexsort((np.broadcast_to(ids[:, None], sims.shape), -sims), axis=0)[:k]
    top = np.take_along_axis(sims, order, axis=0)
    counts = (top > 0.0).sum(axis=0).tolist()
    return [(ids[order[:c, b]], top[:c, b]) for b, c in enumerate(counts)]
