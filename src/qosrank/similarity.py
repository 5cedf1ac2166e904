"""Rank-correlation similarity between users and Top-K neighbor selection.

Similarity is the Kendall rank correlation over the services both users
observed: (concordant - discordant) / (N(N-1)/2), with ties counting toward
neither side while the denominator stays N(N-1)/2. Pairs sharing fewer than
two services are uninformative and score 0.

A service pair can only count toward the similarity of u and v if the active
user u observed both services, so `similarity_rows` enumerates just each
active user's own pairs: its cost is O(U * sum of n_u^2) in the active users'
observed counts n_u rather than O(U * S^2) per user in the number of
services. It concatenates the active users' n_u(n_u-1)/2 pair indices and
builds every user's signs on them at most CHUNK_ELEMS elements at a time,
never a (U, S, S) tensor; one product with a (pairs x active) matrix of the
active users' own signs then sums each active user's segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix

# Upper bound on the user x pair elements `similarity_rows` builds at once.
CHUNK_ELEMS = 1 << 20


@dataclass(frozen=True)
class SimilarityRow:
    """Similarities of one active user to every other user."""

    active: int
    users: np.ndarray  # candidate user ids, ascending, active excluded
    sims: np.ndarray  # aligned with users


@dataclass(frozen=True)
class Neighborhood:
    """Top-K users with strictly positive similarity, best first."""

    active: int
    members: tuple[tuple[int, float], ...]

    def user_ids(self) -> list[int]:
        return [u for u, _ in self.members]

    def similarities(self) -> list[float]:
        return [s for _, s in self.members]

    def __len__(self) -> int:
        return len(self.members)


def similarity_rows(matrix: QoSMatrix, users) -> list[SimilarityRow]:
    """Similarity of each u in `users` to every user v != u.

    Row b is bit-identical to computing users[b]'s row on its own: every sum
    below adds exact integers, so the batch changes no bit of the result.
    """
    users = [int(u) for u in users]
    if not users:
        return []
    for u in users:
        matrix._check_user(u)
    mask = matrix.observed_mask
    values = matrix.values
    # The active users' own upper-triangle service pairs, one segment each.
    first, second, owner = [], [], []
    for b, u in enumerate(users):
        own = np.flatnonzero(mask[u])
        i, j = np.triu_indices(own.size, k=1)
        first.append(own[i])
        second.append(own[j])
        owner.append(np.full(i.size, b))
    first, second, owner = (np.concatenate(a) for a in (first, second, owner))
    batch = np.array(users, dtype=int)
    active = batch[owner]
    sign_own = np.sign(values[active, first] - values[active, second])
    # Concordant - discordant is a dot product of +-1/0 signs. A chunk holds
    # at most CHUNK_ELEMS < 2^24 pairs, so each of its products is an exact
    # integer even in float32, and so is the float64 total: the result is
    # bit-identical to counting the pairs one by one.
    cd = np.zeros((matrix.num_users, len(users)))
    step = max(1, CHUNK_ELEMS // max(matrix.num_users, len(users)))
    for lo in range(0, first.size, step):
        hi = min(lo + step, first.size)
        diff = values[:, first[lo:hi]]
        diff -= values[:, second[lo:hi]]
        # NaN compares false both ways, so pairs v did not observe sign to 0
        signs = np.subtract(diff > 0, diff < 0, dtype=np.float32)
        weights = np.zeros((hi - lo, len(users)), dtype=np.float32)
        weights[np.arange(hi - lo), owner[lo:hi]] = sign_own[lo:hi]
        cd += signs @ weights
    maskf = mask.astype(float)
    common = maskf @ maskf[batch].T
    pairs = common * (common - 1) / 2.0
    sims = np.divide(cd, pairs, out=np.zeros_like(cd), where=pairs > 0)
    others = np.arange(matrix.num_users)
    return [
        SimilarityRow(active=u, users=np.delete(others, u), sims=np.delete(sims[:, b], u))
        for b, u in enumerate(users)
    ]


def similarity_row(matrix: QoSMatrix, u: int) -> SimilarityRow:
    """Similarity of u to every user v != u; `similarity_rows` for one user."""
    return similarity_rows(matrix, (u,))[0]


def select_neighbors(row: SimilarityRow, k: int) -> Neighborhood:
    """The at-most-k users with the largest strictly positive similarity,
    sorted descending; equal similarities break toward the smaller user id."""
    if k < 0:
        raise DomainError(f"neighborhood size must be >= 0, got {k}")
    order = np.lexsort((row.users, -row.sims))
    members = []
    for idx in order:
        if len(members) >= k:
            break
        sim = float(row.sims[idx])
        if sim <= 0.0:
            break  # sorted descending, nothing positive remains
        members.append((int(row.users[idx]), sim))
    return Neighborhood(active=row.active, members=tuple(members))
