"""Pairwise service preferences for an active user.

A preference value for services (i, j) is the signed degree to which i beats
j. It is explicit (confidence 1) when the active user observed both services,
implicit when inferred from neighbors who observed both (confidence is the
similarity-weighted mean of those neighbors' similarities), and unknown
(value 0, confidence 0) when nobody covers the pair. Weights are always
renormalized over the pair-specific neighbor subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .matrix import QoSMatrix
from .similarity import Neighborhood


class Provenance(Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    UNKNOWN = "unknown"


_PROV_CODES = {Provenance.UNKNOWN: 0, Provenance.IMPLICIT: 1, Provenance.EXPLICIT: 2}


@dataclass(frozen=True)
class PreferenceTable:
    """All pairwise preferences of one active user over a candidate set.

    `values` is antisymmetric, `confidences` symmetric; `provenance_codes`
    holds 0 (unknown), 1 (implicit) or 2 (explicit). Diagonal entries are
    placeholders and never read.
    """

    active: int
    candidates: tuple[int, ...]
    values: np.ndarray
    confidences: np.ndarray
    provenance_codes: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.confidences, self.provenance_codes):
            arr.setflags(write=False)


def candidate_ids(matrix: QoSMatrix, candidates) -> tuple[int, ...]:
    """The distinct candidate service ids, ascending.

    Raises DomainError for an empty set or an id outside [0, num_services).
    """
    cands = tuple(sorted(set(int(c) for c in candidates)))
    if not cands:
        raise DomainError("candidate set must be non-empty")
    if cands[0] < 0 or cands[-1] >= matrix.num_services:
        bad = cands[0] if cands[0] < 0 else cands[-1]
        raise DomainError(f"candidate service {bad} outside [0, {matrix.num_services})")
    return cands


def preference_stack(
    matrix: QoSMatrix, users, neighbors, cands: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (len(users), n, n) values, confidences and provenance codes of
    each user's table over the same n candidates `cands`, as `candidate_ids`
    returns them; read-only. neighbors[b] is users[b]'s (ids, similarities)
    pair of arrays, as `top_neighbors` returns them.

    Slice b equals the table of users[b] built on its own, bit for bit: each
    user keeps its own neighbour products, and only the elementwise steps run
    once over the stack. Agrees with the per-pair reference in
    tests/oracles.py up to floating-point summation order.
    """
    users = [int(u) for u in users]
    for u in users:
        matrix._check_user(u)
    cols = np.array(cands, dtype=int)
    mask = matrix.observed_mask[:, cols]
    vals = np.where(mask, matrix.values[:, cols], 0.0)

    # For each pair (i, j): value = sum_v s_v (q_vi - q_vj) / sum_v s_v and
    # confidence = sum_v s_v^2 / sum_v s_v, restricted to neighbors covering
    # both services. All three reduce to (S x K) @ (K x S) products.
    shape = (len(users), cols.size, cols.size)
    denom, cross, confidences = np.empty(shape), np.empty(shape), np.empty(shape)
    for b, (ids, sims) in enumerate(neighbors):
        covered = mask[ids].astype(float)
        np.matmul((sims[:, None] * covered).T, covered, out=denom[b])
        np.matmul((sims[:, None] * vals[ids]).T, covered, out=cross[b])
        np.matmul(((sims**2)[:, None] * covered).T, covered, out=confidences[b])

    implicit = denom > 0
    numerator = cross - cross.transpose(0, 2, 1)
    del cross
    values = np.divide(numerator, denom, out=np.zeros(shape), where=implicit)
    del numerator
    confidences = np.divide(confidences, denom, out=np.zeros(shape), where=implicit)
    del denom
    provenance = np.where(implicit, _PROV_CODES[Provenance.IMPLICIT], 0).astype(np.int8)

    # The explicit pairs are the users' own observed x observed blocks.
    rows = np.array(users, dtype=int)[:, None]
    own = matrix.observed_mask[rows, cols]
    b, i, j = np.nonzero(own[:, :, None] & own[:, None, :])
    own_vals = matrix.values[rows, cols]
    values[b, i, j] = own_vals[b, i] - own_vals[b, j]
    confidences[b, i, j] = 1.0
    provenance[b, i, j] = _PROV_CODES[Provenance.EXPLICIT]

    diagonal = np.arange(cols.size)
    for arr in (values, confidences, provenance):
        arr[:, diagonal, diagonal] = 0
        arr.setflags(write=False)
    return values, confidences, provenance


def build_preference_table(
    matrix: QoSMatrix, u: int, nbrs: Neighborhood, candidates
) -> PreferenceTable:
    """The full pairwise table of one user; `preference_stack` for one user."""
    cands = candidate_ids(matrix, candidates)
    ids, sims = np.array(nbrs.user_ids(), dtype=int), np.array(nbrs.similarities(), dtype=float)
    values, confidences, provenance = preference_stack(matrix, (u,), [(ids, sims)], cands)
    return PreferenceTable(
        active=u,
        candidates=cands,
        values=values[0],
        confidences=confidences[0],
        provenance_codes=provenance[0],
    )
