"""Greedy ranking of candidate services for an active user.

Both CloudRank variants repeatedly pick the candidate whose preference sum
over the still-unranked candidates is largest, then remove it and update the
sums incrementally; CloudRank2 weights each preference by its confidence. A
correction pass afterwards restores the user's own observed ordering within
the positions those services occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
# comparison would make the tie-break depend on the update strategy.
TIE_TOLERANCE = 1e-9


def greedy_rank(
    table: PreferenceTable,
    weighted: bool = False,
    tie_break_seed: int | None = None,
    update: str = "incremental",
) -> Ranking:
    """Rank by iterated argmax of preference sums over the remaining set.

    With update="incremental" the sums are maintained by subtracting the
    removed pair's contribution after each pick; update="recompute" rebuilds
    them from the remaining set every round. The two are equivalent by
    linearity. Ties (within TIE_TOLERANCE) go to the smaller service id, or
    to a seeded random priority when tie_break_seed is given.
    """
    if update not in ("incremental", "recompute"):
        raise DomainError(f"unknown update strategy {update!r}")
    effective = table.values if not weighted else table.confidences * table.values
    n = len(table.candidates)
    totals = effective.sum(axis=1)
    priority = None
    if tie_break_seed is not None:
        priority = derive_rng(tie_break_seed).permutation(n)

    # ranked candidates sit at -inf, so one max over all totals sees only the rest
    remaining = np.ones(n, dtype=bool)
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
        remaining[pick] = False
        if update == "incremental":
            totals -= effective[:, pick]
            totals[pick] = -np.inf
        else:
            totals = effective[:, remaining].sum(axis=1)
            totals[~remaining] = -np.inf
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


def rank(
    kind: RankerKind,
    matrix: QoSMatrix,
    u: int,
    k: int,
    candidates,
    seed: int = 0,
    correct: bool = True,
    tie_break_seed: int | None = None,
) -> Ranking:
    """Full pipeline: similarities -> neighborhood -> preferences -> greedy.

    The random baseline is a seeded uniform shuffle of the candidates. The
    correction pass applies to both CloudRank variants unless disabled.
    """
    matrix._check_user(u)
    cands = tuple(sorted(set(int(c) for c in candidates)))
    if not cands:
        raise DomainError("candidate set must be non-empty")
    if kind is RankerKind.RANDOM_BASELINE:
        rng = derive_rng(seed, u)
        order = tuple(np.array(cands)[rng.permutation(len(cands))].tolist())
        return Ranking(active=u, order=order)

    row = similarity_row(matrix, u)
    nbrs = select_neighbors(row, k)
    table = build_preference_table(matrix, u, nbrs, cands)
    ranking = greedy_rank(
        table, weighted=kind is RankerKind.CLOUDRANK2, tie_break_seed=tie_break_seed
    )
    if correct:
        ranking = correct_observed_order(ranking, matrix, u)
    return ranking
