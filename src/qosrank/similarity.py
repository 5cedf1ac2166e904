"""Rank-correlation similarity between users and Top-K neighbor selection.

Similarity is the Kendall rank correlation over the services both users
observed: (concordant - discordant) / (N(N-1)/2), with ties counting toward
neither side while the denominator stays N(N-1)/2. Pairs sharing fewer than
two services are uninformative and score 0.

A service pair can only count toward the similarity of u and v if the active
user u observed both services, so `similarity_row` enumerates just u's own
pairs: its cost is O(U * n_u^2) in u's observed count n_u rather than
O(U * S^2) in the number of services. It holds u's n_u(n_u-1)/2 pair indices
and builds the other users' pair signs at most CHUNK_ELEMS elements at a time,
never a (U, S, S) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix

# Upper bound on the other-user x pair elements `similarity_row` builds at once.
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


def similarity_row(matrix: QoSMatrix, u: int) -> SimilarityRow:
    """Similarity of u to every user v != u, vectorized over v."""
    matrix._check_user(u)
    others = np.delete(np.arange(matrix.num_users), u)
    mask = matrix.observed_mask
    own = np.flatnonzero(mask[u])
    first, second = np.triu_indices(own.size, k=1)
    values = matrix.values
    sign_u = np.sign(values[u, own[first]] - values[u, own[second]])
    theirs = values[np.ix_(others, own)]
    # Concordant - discordant is a dot product of +-1/0 signs: an exact
    # integer in float64, which keeps the result bit-identical to counting
    # the pairs one by one.
    cd = np.zeros(others.size)
    step = max(1, CHUNK_ELEMS // max(1, others.size))
    for lo in range(0, first.size, step):
        hi = lo + step
        diff = theirs[:, first[lo:hi]] - theirs[:, second[lo:hi]]
        # NaN compares false both ways, so pairs v did not observe sign to 0
        cd += np.subtract(diff > 0, diff < 0, dtype=float) @ sign_u[lo:hi]
    common = mask[others].astype(float) @ mask[u].astype(float)
    pairs = common * (common - 1) / 2.0
    sims = np.divide(cd, pairs, out=np.zeros_like(cd), where=pairs > 0)
    return SimilarityRow(active=u, users=others, sims=sims)


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
