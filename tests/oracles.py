"""Per-pair reference implementations of the preference stage.

`build_preference_table` computes every pair at once with matrix products.
The functions here compute one pair at a time straight from the definitions,
and `checked_preference` asserts that the two agree on the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from qosrank.errors import DomainError
from qosrank.matrix import QoSMatrix
from qosrank.preference import PreferenceTable, Provenance, build_preference_table
from qosrank.similarity import Neighborhood

_CODE_PROV = {0: Provenance.UNKNOWN, 1: Provenance.IMPLICIT, 2: Provenance.EXPLICIT}


@dataclass(frozen=True)
class PreferenceValue:
    value: float
    confidence: float
    provenance: Provenance


@dataclass(frozen=True)
class PairNeighborhood:
    """Neighbors of the active user who observed both services of a pair."""

    pair: tuple[int, int]
    members: tuple[tuple[int, float], ...]


def pair_neighborhood(
    matrix: QoSMatrix, nbrs: Neighborhood, i: int, j: int
) -> PairNeighborhood:
    """Restrict a neighborhood to members observing both i and j."""
    mask = matrix.observed_mask
    members = tuple((v, s) for v, s in nbrs.members if mask[v, i] and mask[v, j])
    return PairNeighborhood(pair=(i, j), members=members)


def pair_weights(pair_nbrs: PairNeighborhood) -> list[tuple[int, float]]:
    """Similarity-proportional weights over the pair's members; sums to 1."""
    if not pair_nbrs.members:
        raise DomainError(f"empty pair neighborhood for {pair_nbrs.pair}")
    total = sum(s for _, s in pair_nbrs.members)
    return [(v, s / total) for v, s in pair_nbrs.members]


def pair_confidence(pair_nbrs: PairNeighborhood) -> float:
    """Weighted mean of member similarities: sum_v w_v * sim_v."""
    weights = pair_weights(pair_nbrs)
    sims = dict(pair_nbrs.members)
    return sum(w * sims[v] for v, w in weights)


def preference_value(
    matrix: QoSMatrix, u: int, nbrs: Neighborhood, i: int, j: int
) -> PreferenceValue:
    """Preference of service i over j for user u.

    Explicit when u observed both; otherwise inferred from the neighbors
    observing both, with weights renormalized over that subset; unknown when
    no neighbor covers the pair.
    """
    if i == j:
        raise DomainError("preference requires two distinct services")
    matrix._check_user(u)
    mask = matrix.observed_mask
    values = matrix.values
    if mask[u, i] and mask[u, j]:
        return PreferenceValue(
            value=float(values[u, i] - values[u, j]),
            confidence=1.0,
            provenance=Provenance.EXPLICIT,
        )
    pn = pair_neighborhood(matrix, nbrs, i, j)
    if not pn.members:
        return PreferenceValue(0.0, 0.0, Provenance.UNKNOWN)
    weights = pair_weights(pn)
    value = sum(w * (values[v, i] - values[v, j]) for v, w in weights)
    return PreferenceValue(
        value=float(value),
        confidence=pair_confidence(pn),
        provenance=Provenance.IMPLICIT,
    )


def index_of(table: PreferenceTable, service: int) -> int:
    try:
        return table.candidates.index(service)
    except ValueError:
        raise DomainError(f"service {service} not in candidate set") from None


def table_value(table: PreferenceTable, i: int, j: int) -> PreferenceValue:
    """Decode one entry of a built table."""
    if i == j:
        raise DomainError("preference requires two distinct services")
    a, b = index_of(table, i), index_of(table, j)
    return PreferenceValue(
        value=float(table.values[a, b]),
        confidence=float(table.confidences[a, b]),
        provenance=_CODE_PROV[int(table.provenance_codes[a, b])],
    )


def preference_sum(
    table: PreferenceTable, i: int, remaining, weighted: bool = False
) -> float:
    """Sum of preferences of service i over the remaining candidates.

    With `weighted` on, each term is scaled by its confidence (the
    aggregation the confidence-weighted ranker maximizes). Unknown pairs
    contribute 0 either way.
    """
    remaining = sorted(set(int(s) for s in remaining))
    if i not in remaining:
        raise DomainError(f"service {i} not in remaining set")
    a = index_of(table, i)
    total = 0.0
    for j in remaining:
        if j == i:
            continue
        b = index_of(table, j)
        term = table.values[a, b]
        if weighted:
            term = table.confidences[a, b] * term
        total += term
    return float(total)


def checked_preference(
    matrix: QoSMatrix, u: int, nbrs: Neighborhood, i: int, j: int
) -> PreferenceValue:
    """The reference preference of i over j, after asserting that
    `build_preference_table` over all services gives the same value,
    confidence and provenance."""
    ref = preference_value(matrix, u, nbrs, i, j)
    table = build_preference_table(matrix, u, nbrs, range(matrix.num_services))
    got = table_value(table, i, j)
    assert got.value == pytest.approx(ref.value, abs=1e-12)
    assert got.confidence == pytest.approx(ref.confidence, abs=1e-12)
    assert got.provenance is ref.provenance
    return ref


def pair_matrix(pair_nbrs: PairNeighborhood) -> tuple[QoSMatrix, Neighborhood]:
    """A matrix and neighborhood realizing `pair_nbrs` for active user 0.

    User 0 observes nothing and every member observes both services of the
    pair with a distinct gap, so the pair is implicit and inferred from
    exactly those members. Member ids must be > 0.
    """
    i, j = pair_nbrs.pair
    users = 1 + max(v for v, _ in pair_nbrs.members)
    values = np.full((users, max(i, j) + 1), np.nan)
    for idx, (v, _) in enumerate(pair_nbrs.members):
        values[v, i] = 1.0 + 0.1 * idx
        values[v, j] = 0.5 - 0.07 * idx
    return QoSMatrix(values), Neighborhood(active=0, members=pair_nbrs.members)
