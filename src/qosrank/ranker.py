"""Greedy ranking of candidate services for an active user.

Both CloudRank variants repeatedly pick the candidate whose preference sum
over the still-unranked candidates is largest, then remove it and update the
sums incrementally; CloudRank2 weights each preference by its confidence. A
correction pass afterwards restores the user's own observed ordering within
the positions those services occupy. `rank_orders` is the one place that
chains the stages, each once over a batch of users, and returns a
(users, kinds, n) array of candidate ids; `run_experiment` scores that array
directly, and `rank` wraps one user's row in a `Ranking`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix, as_int
from .preference import preference_block
from .seeding import derive_rng
from .similarity import similarity_block, top_neighbors


class RankerKind(Enum):
    CLOUDRANK1 = "cloudrank1"
    CLOUDRANK2 = "cloudrank2"
    RANDOM_BASELINE = "random-baseline"

    @classmethod
    def parse(cls, text: str) -> "RankerKind":
        try:
            return cls("random-baseline" if text == "random" else text)
        except ValueError:
            raise DomainError(f"unknown ranker kind {text!r}") from None


@dataclass(frozen=True)
class Ranking:
    """User `active`'s ranking of a candidate set, best first, as `rank`
    returns it."""

    active: int
    order: tuple[int, ...]


# Preference sums within this tolerance of the round's maximum count as tied.
# Incremental updates leave ~1e-16 cancellation residue on sums that are
# structurally equal (for example two all-unknown candidates), so exact float
# comparison would make the tie-break differ from sums recomputed each round.
TIE_TOLERANCE = 1e-9

# Upper bound on the (user, CloudRank kind) rows x candidates^2 a batch ranks;
# each user holds three (n, n) float64 arrays and one (n, n) bool mask, however
# much it observed. A batch takes at least one user, so a wide candidate set
# ranks one user at a time.
BATCH_ELEMS = 1 << 18

# Stacks of at most this many tables run greedy's 1-d loop once per table. A
# 1-d round costs about 6 us per table and a stacked round 15-25 us for the
# whole stack, so the two cross at three tables for every n measured (2
# vCPUs, numpy 2.4.6; ms per call, stacked against per table: 2 x 400^2 7.6
# against 5.2, 3 x 400^2 8.5 against 8.1, 3 x 30^2 0.51 against 0.51,
# 4 x 400^2 6.9 against 7.7, 40 x 30^2 0.80 against 6.5).
SHORT_STACK = 3


def greedy_orders(effective: np.ndarray) -> np.ndarray:
    """Greedy order of each (n, n) preference table in `effective`, as an
    (R, n) array of candidate positions, best first.

    Each row picks the candidate whose preference sum over the remaining set
    is largest. After each pick the sums gain the picked candidate's row: the
    tables are exactly antisymmetric, so that subtracts its column exactly,
    which equals recomputing the sums over the remaining set by linearity.
    Ties (within TIE_TOLERANCE) go to the smaller position. A stack of at
    most SHORT_STACK tables runs a 1-d loop per table; a taller one runs one
    loop over the whole stack, whose numpy calls cost more per round but are
    shared by every table. Both make the same additions in the same order.
    """
    rows, n = effective.shape[:2]
    totals = effective.sum(axis=2)
    # ranked candidates sit at -inf, so a max over all totals sees only the rest
    if rows <= SHORT_STACK:
        order = np.empty((rows, n), dtype=np.intp)
        for table, table_totals, picks in zip(effective, totals, order):
            _greedy_table(table, table_totals, picks)
        return order
    tables = effective.reshape(rows * n, n)  # row r * n + i: row i of table r
    flat_totals, first = totals.ravel(), np.arange(rows) * n
    order = np.empty((n, rows), dtype=np.intp)
    for step in range(n):
        best = totals.max(axis=1)
        tol = TIE_TOLERANCE * np.maximum(1.0, np.abs(best))
        pick = (totals >= (best - tol)[:, None]).argmax(axis=1)
        order[step] = pick
        flat = first + pick
        totals += tables.take(flat, axis=0)
        flat_totals.put(flat, -np.inf)
    return order.T


def _greedy_table(table: np.ndarray, totals: np.ndarray, picks: np.ndarray) -> None:
    """Greedy order of one (n, n) table into `picks`, from its row sums
    `totals`, which it consumes. Each round is one argmax, a Python-float tie
    threshold, one compare only when the argmax is not position 0 (the tie
    rule can only move a pick to a smaller position), one row add and one
    -inf store."""
    table_rows = list(table)
    for step in range(len(table_rows)):
        pick = totals.argmax()
        if pick:
            best = totals.item(pick)
            pick = (totals >= best - TIE_TOLERANCE * max(1.0, abs(best))).argmax()
        picks[step] = pick
        totals += table_rows[pick]
        totals[pick] = -np.inf


def correct_orders(orders: np.ndarray, matrix: QoSMatrix, users: np.ndarray) -> np.ndarray:
    """`orders` (users, rows, n) with each row's observed slots refilled by
    its user's observed services there, sorted by (-value, id)."""
    rows = users[:, None, None]
    observed = matrix.observed_mask[rows, orders]
    # one sort per row: observed services first, best value first, then id
    by_qos = np.lexsort((orders, -matrix.values[rows, orders], ~observed), axis=-1)
    resorted = np.take_along_axis(orders, by_qos, axis=-1)
    fixed = orders.copy()
    fixed[observed] = resorted[np.arange(orders.shape[-1]) < observed.sum(-1, keepdims=True)]
    return fixed


def candidate_ids(matrix: QoSMatrix, candidates) -> tuple[int, ...]:
    """The distinct candidate service ids, ascending.

    Raises DomainError for an empty set or an id not an integer in [0, num_services).
    """
    cands = tuple(sorted({as_int(c, "candidate service") for c in candidates}))
    if not cands:
        raise DomainError("candidate set must be non-empty")
    if cands[0] < 0 or cands[-1] >= matrix.num_services:
        bad = cands[0] if cands[0] < 0 else cands[-1]
        raise DomainError(f"candidate service {bad} outside [0, {matrix.num_services})")
    return cands


def rank_orders(
    kinds: tuple[RankerKind, ...],
    matrix: QoSMatrix,
    users,
    k: int,
    candidates,
    seed: int = 0,
) -> np.ndarray:
    """The ranking of each user with each kind, best first, as a
    (users, kinds, n) array of candidate ids.

    The CloudRank kinds run a batch of users at a time: similarity block ->
    one neighbour sort -> stacked preference tables -> one greedy loop over
    every (user, kind) table, read in place -> one observed-order correction.
    A batch holds at most BATCH_ELEMS greedy table elements, and at least one
    user. Every ranking equals the one the user gets alone. The random
    baseline shuffles the candidates seeded by (seed, u). Raises DomainError
    for a kind not a RankerKind or its name, a neighbourhood size k not an
    integer >= 0 whatever the kinds, and a row not a permutation of the ids.
    """
    kinds = tuple(RankerKind.parse(kind) for kind in kinds)
    k = as_int(k, "neighborhood size")
    if k < 0:
        raise DomainError(f"neighborhood size must be >= 0, got {k}")
    users = np.array([as_int(u, "user") for u in users], dtype=np.intp)
    for u in users.tolist():
        matrix._check_user(u)
    ids = np.array(candidate_ids(matrix, candidates), dtype=np.intp)
    n = ids.size
    orders = np.empty((users.size, len(kinds), n), dtype=ids.dtype)
    shuffled = [g for g, kind in enumerate(kinds) if kind is RankerKind.RANDOM_BASELINE]
    greedy = [g for g in range(len(kinds)) if g not in shuffled]
    for b, u in enumerate(users.tolist() if shuffled else ()):
        orders[b, shuffled] = ids[derive_rng(seed, u).permutation(n)]
    per_batch = max(1, BATCH_ELEMS // (max(1, len(greedy)) * n * n))
    for lo in range(0, users.size if greedy else 0, per_batch):
        batch = users[lo : lo + per_batch]
        block = _greedy_batch([kinds[g] for g in greedy], matrix, batch, k, ids)
        orders[lo : lo + per_batch, greedy] = correct_orders(block, matrix, batch)
    if not (np.sort(orders, axis=-1) == ids).all():
        raise DomainError("ranking contains duplicate services")
    return orders


def _greedy_batch(kinds, matrix, batch, k, ids) -> np.ndarray:
    """Uncorrected greedy order of each batch user for each CloudRank kind
    over the candidate id array `ids`, as a (users, kinds, n) array of ids,
    read off the kind-major [cloudrank2, cloudrank1] block of tables. The
    tables are built in neighbour-count order (one stable sort), so each run
    of one count shares one stacked product, written in place; the rows
    return in batch order. The batch's arrays are freed before the next."""
    n = ids.size
    nbrs = top_neighbors(similarity_block(matrix, batch), k)
    by_count = np.argsort(nbrs[2], kind="stable")
    block = preference_block(matrix, batch[by_count], [a[..., by_count] for a in nbrs], ids)
    slots = np.array([int(kind is RankerKind.CLOUDRANK1) for kind in kinds])
    if not slots.all():
        block[0] *= block[1]  # cloudrank2's table: confidences * values
    lo, hi = slots.min(), slots.max() + 1
    positions = greedy_orders(block[lo:hi].reshape(-1, n, n)).reshape(hi - lo, len(batch), n)
    return ids[positions[slots - lo].transpose(1, 0, 2)[np.argsort(by_count)]]


def rank(
    kind: RankerKind,
    matrix: QoSMatrix,
    u: int,
    k: int,
    candidates,
    seed: int = 0,
) -> Ranking:
    """Rank the candidates for user u with one kind; `rank_orders` for one
    user and one kind."""
    u = as_int(u, "user")
    [[order]] = rank_orders((kind,), matrix, (u,), k, candidates, seed=seed)
    return Ranking(active=u, order=tuple(order.tolist()))
