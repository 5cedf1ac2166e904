"""Rank-correlation similarity between users and Top-K neighbor selection.

Similarity is the Kendall rank correlation over the services both users
observed: (concordant - discordant) / (N(N-1)/2), with ties counting toward
neither side while the denominator stays N(N-1)/2. Pairs sharing fewer than
two services are uninformative and score 0.

`similarity_block` sorts each active user b's observed services by b's value
and lays every user v's values on them, in that order, NaN where either did
not observe: one row per (v, b), b's own row all NaN. `concordance` packs
each row down to its values, a (c, U * B) array with c the largest overlap
of b with another user. A pair of slots i > j then has b's value rising or
tied, so the count gives concordant - discordant for every (v, b) at once.
The pairs inside one of b's tie groups were counted there too: each group
is counted again as rows of its own and subtracted, at a cost set by the
groups' own sizes; untied data has none.
The cost is O(c^2 * U * B) comparisons, never a (U, S, S) tensor.
`metrics.tau_scores` counts a ranking's agreement with withheld truth with
the same `concordance`. `top_neighbors` picks every active user's neighbours
from the block with one stable sort; b's own entry is 0, and only strictly
positive entries are picked, so no user is its own neighbour.
"""

from __future__ import annotations

import numpy as np

from .matrix import QoSMatrix

# Comparisons `concordance` makes at once: 32 KB of bools.
CHUNK_ELEMS = 1 << 15


def concordance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the (width, m) array `rows`, NaN where it has no
    value: the sum over its value pairs i > j, in row order, of
    sign(value i - value j), as float64, and its count of values.

    Each row's values are packed to the front of a column of a (c, width)
    array, c the largest count, NaN past the count; NaN compares false both
    ways, so a pair with a NaN counts 0. One comparison of a chunk of slot
    rows against all c slots, a (rows, c, width) bool array, is summed in a
    float32 product with sign(i - j). A chunk holds at most CHUNK_ELEMS
    elements (one slot row if that is larger), so each of its sums is an
    integer of magnitude at most max(CHUNK_ELEMS, c): exact in float32 for
    any c below 2^24, and so is the float64 total, which is bit-identical to
    counting the pairs one by one.
    """
    seen = rows == rows
    counts = np.count_nonzero(seen, axis=1)
    c, width = int(counts.max(initial=0)), len(rows)
    packed = np.full((c, width), np.nan)
    packed.T[np.arange(c) < counts[:, None]] = rows[seen]
    # anti[i, j] = sign(i - j): row i is ramp[c - 1 - i :][:c], an O(c) view
    ramp = np.sign(np.arange(c - 1, -c, -1, dtype=np.float32))
    item = ramp.itemsize
    anti = np.ndarray((c, c), ramp.dtype, ramp, max(c - 1, 0) * item, (-item, item))
    total = np.zeros(width)
    step = max(1, CHUNK_ELEMS // max(1, c * width))
    for lo in range(0, c, step):
        above = packed[lo : lo + step, None] > packed
        total += anti[lo : lo + step].reshape(-1) @ above.reshape(-1, width)
    return total, counts


def similarity_block(matrix: QoSMatrix, users) -> np.ndarray:
    """(num_users, len(users)) similarities: column b holds users[b]'s
    similarity to every other user, and its own entry is 0. `users` are
    valid user ids, as `ranker.rank_orders` checks them.

    Column b is bit-identical to computing users[b]'s column on its own:
    every sum below adds exact integers, so the batch changes no bit of the
    result.
    """
    batch = np.asarray(users, dtype=np.intp)
    shape = (matrix.num_users, batch.size)
    own = matrix.values[batch]
    order = np.argsort(own, axis=1, kind="stable")  # ascending, NaN (unobserved) last
    own = np.sort(own, axis=1)
    n = int(np.count_nonzero(own == own, axis=1).max(initial=0))
    own = own[:, :n]
    # every user's values in each b's order, NaN where either did not observe;
    # b's own row all NaN, which keeps c the largest overlap with another
    # user and b's own entry 0. take, unlike [:, order], returns them
    # C-contiguous as (U, B, n), the rows `concordance` reads
    values = matrix.values.take(order[:, :n], axis=1)
    values[:, own != own] = np.nan
    values[batch, np.arange(batch.size)] = np.nan
    cd, common = (a.reshape(shape) for a in concordance(values.reshape(shape[0] * shape[1], n)))
    # b's tied pairs count 0: each tie group of b's, as one row per user,
    # is counted alone and taken off b's column; groups gathered by size in
    # (m / 2, m] pad to at most twice their size
    new = np.ones(own.shape, dtype=bool)
    new[:, 1:] = own[:, 1:] != own[:, :-1]
    starts = np.flatnonzero(new)  # b's groups in order, b's first at b * n
    sizes = np.diff(starts, append=new.size)
    m = 2
    while m // 2 < sizes.max(initial=0):
        pick = (sizes > m // 2) & (sizes <= m)
        slots = np.minimum(starts[pick, None] + np.arange(m), new.size - 1)
        group = values.reshape(shape[0], -1)[:, slots]  # (U, groups, m)
        group[:, np.arange(m) >= sizes[pick, None]] = np.nan
        tied, _ = concordance(group.reshape(-1, m))
        np.subtract.at(cd.T, starts[pick] // n, tied.reshape(shape[0], -1).T)
        m *= 2
    pairs = common * (common - 1) / 2
    return np.divide(cd, pairs, out=np.zeros_like(cd), where=pairs > 0)


def top_neighbors(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (min(k, num_users), B) user ids (row indices) and similarities
    of each column b of the (num_users, B) block `sims`, sorted descending,
    and the (B,) counts of their strictly positive entries: column b's
    neighbours are its first counts[b] ids and similarities. Equal
    similarities break toward the smaller id, as the sort is stable. A block
    from `similarity_block` holds 0 at each active user's own entry, so no
    user is its own neighbour. One sort orders the whole block; k is an
    int >= 0."""
    ids = np.argsort(-sims, axis=0, kind="stable")[:k]
    top = np.take_along_axis(sims, ids, axis=0)
    return ids, top, np.count_nonzero(top > 0.0, axis=0)
