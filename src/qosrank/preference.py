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


def build_preference_table(
    matrix: QoSMatrix, u: int, nbrs: Neighborhood, candidates
) -> PreferenceTable:
    """Vectorized construction of the full pairwise table.

    Agrees with the per-pair reference in tests/oracles.py up to
    floating-point summation order.
    """
    matrix._check_user(u)
    cands = tuple(sorted(set(int(c) for c in candidates)))
    if not cands:
        raise DomainError("candidate set must be non-empty")
    cols = np.array(cands, dtype=int)
    mask = matrix.observed_mask[:, cols]
    vals = np.where(mask, matrix.values[:, cols], 0.0)

    ids = np.array(nbrs.user_ids(), dtype=int)
    sims = np.array(nbrs.similarities(), dtype=float)
    covered = mask[ids].astype(float) if ids.size else np.zeros((0, len(cands)))
    nvals = vals[ids] if ids.size else np.zeros((0, len(cands)))

    # For each pair (i, j): value = sum_v s_v (q_vi - q_vj) / sum_v s_v and
    # confidence = sum_v s_v^2 / sum_v s_v, restricted to neighbors covering
    # both services. All three reduce to (S x K) @ (K x S) products.
    weighted_cover = sims[:, None] * covered
    weighted_vals = sims[:, None] * nvals
    denom = weighted_cover.T @ covered
    cross = weighted_vals.T @ covered
    sq = (sims**2)[:, None] * covered
    conf_num = sq.T @ covered

    implicit = denom > 0
    values = np.divide(cross - cross.T, denom, out=np.zeros_like(denom), where=implicit)
    confidences = np.divide(conf_num, denom, out=np.zeros_like(denom), where=implicit)
    provenance = np.where(implicit, _PROV_CODES[Provenance.IMPLICIT], 0).astype(np.int8)

    own = matrix.observed_mask[u, cols]
    explicit = own[:, None] & own[None, :]
    own_vals = np.where(own, matrix.values[u, cols], 0.0)
    gaps = own_vals[:, None] - own_vals[None, :]
    values = np.where(explicit, gaps, values)
    confidences = np.where(explicit, 1.0, confidences)
    provenance = np.where(explicit, _PROV_CODES[Provenance.EXPLICIT], provenance).astype(np.int8)

    np.fill_diagonal(values, 0.0)
    np.fill_diagonal(confidences, 0.0)
    np.fill_diagonal(provenance, 0)
    return PreferenceTable(
        active=u,
        candidates=cands,
        values=values,
        confidences=confidences,
        provenance_codes=provenance,
    )
