"""Greedy ranking of candidate services for an active user.

Both CloudRank variants repeatedly pick the candidate whose preference sum
over the still-unranked candidates is largest, then remove it and update the
sums incrementally; CloudRank2 weights each preference by its confidence. A
correction pass afterwards restores the user's own observed ordering within
the positions those services occupy. `rank_kinds` is the one place that
chains the stages; `rank` and `run_experiment` both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix
from .preference import PreferenceTable, build_preference_table
from .seeding import derive_rng
from .similarity import select_neighbors, similarity_row


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


def greedy_rank(
    table: PreferenceTable,
    weighted: bool = False,
    tie_break_seed: int | None = None,
) -> Ranking:
    """Rank by iterated argmax of preference sums over the remaining set.

    The sums are maintained by subtracting the picked candidate's column after
    each pick, which equals recomputing them over the remaining set by
    linearity. Ties (within TIE_TOLERANCE) go to the smaller service id, or
    to a seeded random priority when tie_break_seed is given.
    """
    effective = table.values if not weighted else table.confidences * table.values
    n = len(table.candidates)
    totals = effective.sum(axis=1)
    priority = None
    if tie_break_seed is not None:
        priority = derive_rng(tie_break_seed).permutation(n)

    # ranked candidates sit at -inf, so one max over all totals sees only the rest
    order: list[int] = []
    for _ in range(n):
        best_total = totals.max()
        tol = TIE_TOLERANCE * max(1.0, abs(best_total))
        tied = totals >= best_total - tol
        if priority is None:
            pick = int(tied.argmax())  # candidates ascend by id, so first = smallest
        else:
            pick = int(np.where(tied, priority, -1).argmax())
        order.append(table.candidates[pick])
        totals -= effective[:, pick]
        totals[pick] = -np.inf
    return Ranking(active=table.active, order=tuple(order))


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


def rank_kinds(
    kinds: Iterable[RankerKind],
    matrix: QoSMatrix,
    u: int,
    k: int,
    candidates,
    seed: int = 0,
    correct: bool = True,
) -> dict[RankerKind, Ranking]:
    """Rank the candidates for user u with each of the given kinds.

    The CloudRank kinds share one pipeline run up to the preference table:
    similarities -> neighborhood -> preferences, then greedy aggregation per
    kind and, unless disabled, the observed-order correction. The random
    baseline is a uniform shuffle of the candidates seeded by (seed, u).
    """
    matrix._check_user(u)
    cands = tuple(sorted(set(int(c) for c in candidates)))
    if not cands:
        raise DomainError("candidate set must be non-empty")
    rankings: dict[RankerKind, Ranking] = {}
    table = None
    for kind in kinds:
        if kind is RankerKind.RANDOM_BASELINE:
            order = np.array(cands)[derive_rng(seed, u).permutation(len(cands))]
            rankings[kind] = Ranking(active=u, order=tuple(order.tolist()))
            continue
        if table is None:
            nbrs = select_neighbors(similarity_row(matrix, u), k)
            table = build_preference_table(matrix, u, nbrs, cands)
        ranking = greedy_rank(table, weighted=kind is RankerKind.CLOUDRANK2)
        if correct:
            ranking = correct_observed_order(ranking, matrix, u)
        rankings[kind] = ranking
    return rankings


def rank(
    kind: RankerKind,
    matrix: QoSMatrix,
    u: int,
    k: int,
    candidates,
    seed: int = 0,
    correct: bool = True,
) -> Ranking:
    """Rank the candidates for user u with one kind; see `rank_kinds`."""
    return rank_kinds((kind,), matrix, u, k, candidates, seed=seed, correct=correct)[kind]
