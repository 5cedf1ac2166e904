"""Greedy ranking of candidate services for an active user.

Both CloudRank variants repeatedly pick the candidate whose preference sum
over the still-unranked candidates is largest, then remove it and update the
sums incrementally; CloudRank2 weights each preference by its confidence. A
correction pass afterwards restores the user's own observed ordering within
the positions those services occupy. `rank_users` is the one place that
chains the stages, for a batch of users; `rank` and `rank_kinds` are batches
of one and `run_experiment` passes each split's active users as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix
from .preference import PreferenceTable, candidate_ids, preference_stack
from .seeding import derive_rng
from .similarity import select_neighbors, similarity_rows


class RankerKind(Enum):
    CLOUDRANK1 = "cloudrank1"
    CLOUDRANK2 = "cloudrank2"
    RANDOM_BASELINE = "random-baseline"

    @classmethod
    def parse(cls, text: str) -> "RankerKind":
        aliases = {"random": cls.RANDOM_BASELINE}
        for member in cls:
            if member.value == text:
                return member
        if text in aliases:
            return aliases[text]
        raise DomainError(f"unknown ranker kind {text!r}")


@dataclass(frozen=True)
class Ranking:
    """Strict total order over a candidate set, best first."""

    active: int
    order: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise DomainError("ranking contains duplicate services")


# Preference sums within this tolerance of the round's maximum count as tied.
# Incremental updates leave ~1e-16 cancellation residue on sums that are
# structurally equal (for example two all-unknown candidates), so exact float
# comparison would make the tie-break differ from sums recomputed each round.
TIE_TOLERANCE = 1e-9

# Upper bound on the rows x candidates^2 elements of the stacked preference
# arrays one batch of active users holds (2 MB per float64 array); a batch
# takes at least one user, so a wide candidate set ranks one user at a time.
BATCH_ELEMS = 1 << 18


def greedy_orders(effective: np.ndarray) -> np.ndarray:
    """Greedy order of each (n, n) preference table in `effective`, as an
    (R, n) array of candidate positions, best first.

    Each row picks the candidate whose preference sum over the remaining set
    is largest; the sums are maintained by subtracting the picked candidate's
    column after each pick, which equals recomputing them over the remaining
    set by linearity. Ties (within TIE_TOLERANCE) go to the smaller position.
    A single table runs a 1-d loop, which is cheaper than the stacked one.
    """
    rows, n = effective.shape[:2]
    totals = effective.sum(axis=2)
    # ranked candidates sit at -inf, so one max over all totals sees only the rest
    if rows == 1:
        table, totals, picks = effective[0], totals[0], []
        for _ in range(n):
            best_total = totals.max()
            tol = TIE_TOLERANCE * max(1.0, abs(best_total))
            pick = int((totals >= best_total - tol).argmax())
            picks.append(pick)
            totals -= table[:, pick]
            totals[pick] = -np.inf
        return np.array([picks], dtype=np.intp)
    # picked columns are gathered as contiguous rows of a transposed copy
    columns = effective.transpose(0, 2, 1).reshape(rows * n, n)
    flat_totals, first = totals.ravel(), np.arange(rows) * n
    order = np.empty((n, rows), dtype=np.intp)
    for step in range(n):
        best = totals.max(axis=1)
        tol = TIE_TOLERANCE * np.maximum(1.0, np.abs(best))
        pick = (totals >= (best - tol)[:, None]).argmax(axis=1)
        order[step] = pick
        flat = first + pick
        totals -= columns.take(flat, axis=0)
        flat_totals.put(flat, -np.inf)
    return order.T


def greedy_rank(table: PreferenceTable, weighted: bool = False) -> Ranking:
    """Rank by iterated argmax of preference sums over the remaining set; see
    `greedy_orders`. Ties go to the smaller service id."""
    effective = table.values if not weighted else table.confidences * table.values
    positions = greedy_orders(effective[None])[0]
    order = np.array(table.candidates)[positions]
    return Ranking(active=table.active, order=tuple(order.tolist()))


def correct_observed_order(ranking: Ranking, matrix: QoSMatrix, u: int) -> Ranking:
    """Re-sort the user's observed services within their current positions.

    Unobserved services keep their slots, so the prediction is perturbed
    minimally while any two services the user actually observed end up in
    their observed-QoS order.
    """
    observed = matrix.observed_set(u)
    positions = [p for p, s in enumerate(ranking.order) if s in observed]
    if not positions:
        return ranking
    resorted = sorted(
        (ranking.order[p] for p in positions),
        key=lambda s: (-matrix.values[u, s], s),
    )
    order = list(ranking.order)
    for p, s in zip(positions, resorted):
        order[p] = s
    return Ranking(active=ranking.active, order=tuple(order))


def rank_users(
    kinds: Iterable[RankerKind],
    matrix: QoSMatrix,
    users: Iterable[int],
    k: int,
    candidates,
    seed: int = 0,
    correct: bool = True,
) -> list[dict[RankerKind, Ranking]]:
    """Rank the candidates for each user with each of the given kinds; item b
    maps every kind to the ranking of users[b].

    The CloudRank kinds run a batch of users at a time: similarities for the
    whole batch -> each user's neighborhood -> stacked preference tables ->
    one greedy loop over every (user, kind) table, then, unless disabled, the
    observed-order correction per ranking. A batch holds at most BATCH_ELEMS
    table elements per stacked array, and at least one user. Every ranking
    equals the one the user gets alone. The random baseline is a uniform
    shuffle of the candidates seeded by (seed, u).
    """
    kinds = tuple(kinds)
    users = [int(u) for u in users]
    for u in users:
        matrix._check_user(u)
    cands = candidate_ids(matrix, candidates)
    n, ids = len(cands), np.array(cands)
    greedy_kinds = [kind for kind in kinds if kind is not RankerKind.RANDOM_BASELINE]
    per_batch = max(1, BATCH_ELEMS // (max(1, len(greedy_kinds)) * n * n))
    rankings = []
    for lo in range(0, len(users), per_batch):
        batch = users[lo : lo + per_batch]
        if greedy_kinds:
            orders = _greedy_batch(greedy_kinds, matrix, batch, k, cands)
        for b, u in enumerate(batch):
            by_kind = {}
            for kind in kinds:
                if kind is RankerKind.RANDOM_BASELINE:
                    order = ids[derive_rng(seed, u).permutation(n)]
                    by_kind[kind] = Ranking(active=u, order=tuple(order.tolist()))
                    continue
                ranking = Ranking(active=u, order=tuple(orders[b][greedy_kinds.index(kind)]))
                if correct:
                    ranking = correct_observed_order(ranking, matrix, u)
                by_kind[kind] = ranking
            rankings.append(by_kind)
    return rankings


def _greedy_batch(kinds, matrix, batch, k, cands) -> list[list[list[int]]]:
    """Uncorrected greedy order of each batch user (outer) for each CloudRank
    kind (inner), as candidate ids. The batch's arrays are freed on return,
    before the next batch is built."""
    n = len(cands)
    nbrs = [select_neighbors(row, k) for row in similarity_rows(matrix, batch)]
    values, confidences, _ = preference_stack(matrix, batch, nbrs, cands)
    # one (n, n) table per (user, kind) row, filled in place
    effective = np.empty((len(batch), len(kinds), n, n))
    for g, kind in enumerate(kinds):
        if kind is RankerKind.CLOUDRANK2:
            np.multiply(confidences, values, out=effective[:, g])
        else:
            effective[:, g] = values
    del values, confidences  # freed before the greedy loop copies the stack
    positions = greedy_orders(effective.reshape(-1, n, n))
    return np.array(cands)[positions].reshape(len(batch), len(kinds), n).tolist()


def rank_kinds(
    kinds: Iterable[RankerKind],
    matrix: QoSMatrix,
    u: int,
    k: int,
    candidates,
    seed: int = 0,
    correct: bool = True,
) -> dict[RankerKind, Ranking]:
    """Rank the candidates for user u with each of the given kinds; a batch of
    one in `rank_users`. The CloudRank kinds share one similarity row and
    preference table."""
    return rank_users(kinds, matrix, (u,), k, candidates, seed=seed, correct=correct)[0]


def rank(
    kind: RankerKind,
    matrix: QoSMatrix,
    u: int,
    k: int,
    candidates,
    seed: int = 0,
    correct: bool = True,
) -> Ranking:
    """Rank the candidates for user u with one kind; see `rank_users`."""
    return rank_kinds((kind,), matrix, u, k, candidates, seed=seed, correct=correct)[kind]
