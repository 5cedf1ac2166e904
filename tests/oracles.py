"""Reference implementations that check the shipped vectorised paths.

`preference_block` computes every pair of a batch's tables at once with
matrix products. `preference_stack` here adds the provenance codes that the
shipped block does not store, and the functions below compute one pair at a
time straight from the definitions; `checked_preference` asserts that the
two agree on the same inputs. `oracle_preference_table` builds one user's
table with the same products on 2-d arrays, so a stacked table can be
checked against it bit for bit. A user's neighbours are an `(ids, sims)`
pair of arrays, one column of what `top_neighbors` returns, and a table is
the `(values, confidences, codes)` triple of one slice of
`preference_stack`'s output.

`load_matrix` parses a CSV a column at a time in blocks; `oracle_load_matrix`
parses it line by line and fills the grid one entry at a time.

`similarity_block` packs each user pair's common services in the active
user's order and counts concordant minus discordant pairs with one
comparison per chunk of slots; `oracle_similarity_block` is the method it
replaced: it enumerates each active user's own service pairs and signs every
user's values on them.

Neighbour selection, the observed-order correction and tau scoring run over
a whole similarity block or (users, kinds, n) stack of rankings; the
`oracle_select_neighbors`, `oracle_correct_observed_order` and
`oracle_kendall_tau` references handle one row or one ranking at a time.

`ExperimentReport` keeps an experiment's scores as (density, trial, user,
kind) arrays and summarises them one (density, kind) cell at a time;
`ScoreRow` and `aggregate` are the method it replaced: one frozen row per
scored entry, sorted by density, kind and user, then grouped into cells.

`greedy_orders` runs a stack of a few tables through a 1-d loop per table
that skips the tie compare when the argmax is position 0;
`oracle_greedy_orders` is the loop it replaced: one 1-d loop that takes a
`max` and a compare every round for a single table, and one stacked loop
for any other stack.

`allocate` keeps each host's free capacity as a triple of Python floats;
`oracle_allocate` keeps it as a numpy float64 vector and probes a host with
one vector comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from qosrank.allocsim import AllocationPlan, AllocPolicy
from qosrank.errors import (
    AllocationError,
    BadValueError,
    DataError,
    DomainError,
    DuplicateKeyError,
    ParseError,
)
from qosrank.matrix import CSV_HEADER, MAX_CELLS, MAX_QOS, MetricOrientation, QoSMatrix, as_int
from qosrank.metrics import SummaryRow
from qosrank.preference import preference_block
from qosrank.ranker import TIE_TOLERANCE, candidate_ids
from qosrank.similarity import similarity_block, top_neighbors

# provenance codes of a preference table
UNKNOWN, IMPLICIT, EXPLICIT = 0, 1, 2


@dataclass(frozen=True)
class PreferenceValue:
    value: float
    confidence: float
    provenance: int


@dataclass(frozen=True)
class PairNeighborhood:
    """Neighbors of the active user who observed both services of a pair."""

    pair: tuple[int, int]
    members: tuple[tuple[int, float], ...]


def neighbors_of(members) -> tuple[np.ndarray, np.ndarray]:
    """The (ids, sims) arrays of (user, similarity) members."""
    ids = np.array([v for v, _ in members], dtype=int)
    return ids, np.array([s for _, s in members], dtype=float)


def members_of(nbrs) -> tuple[tuple[int, float], ...]:
    """The (user, similarity) members of (ids, sims) arrays."""
    ids, sims = nbrs
    return tuple(zip(ids.tolist(), sims.tolist()))


def column_of(nbrs, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Column b's (ids, sims) neighbours of the (ids, sims, counts) arrays
    `top_neighbors` returns."""
    ids, sims, counts = nbrs
    return ids[: counts[b], b], sims[: counts[b], b]


def stacked_neighbors(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-user (ids, sims) pairs as `top_neighbors`'s (K, B) ids and sims,
    K the largest count, and (B,) counts. Entries past a column's count are
    id -1 and similarity NaN, so a table that read them would show it."""
    counts = np.array([len(ids) for ids, _ in pairs], dtype=np.intp)
    shape = (int(counts.max(initial=0)), len(pairs))
    ids, sims = np.full(shape, -1, dtype=np.intp), np.full(shape, np.nan)
    for b, (v, s) in enumerate(pairs):
        ids[: len(v), b], sims[: len(v), b] = v, s
    return ids, sims, counts


def pair_neighborhood(matrix: QoSMatrix, nbrs, i: int, j: int) -> PairNeighborhood:
    """Restrict neighbours (ids, sims) to those observing both i and j."""
    mask = matrix.observed_mask
    members = tuple((v, s) for v, s in members_of(nbrs) if mask[v, i] and mask[v, j])
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


def preference_value(matrix: QoSMatrix, u: int, nbrs, i: int, j: int) -> PreferenceValue:
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
            provenance=EXPLICIT,
        )
    pn = pair_neighborhood(matrix, nbrs, i, j)
    if not pn.members:
        return PreferenceValue(0.0, 0.0, UNKNOWN)
    weights = pair_weights(pn)
    value = sum(w * (values[v, i] - values[v, j]) for v, w in weights)
    return PreferenceValue(
        value=float(value),
        confidence=pair_confidence(pn),
        provenance=IMPLICIT,
    )


def top_k(matrix: QoSMatrix, u: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """u's Top-k neighbours (ids, sims): `top_neighbors` over u's column of
    `similarity_block`, a batch of one."""
    return column_of(top_neighbors(similarity_block(matrix, (u,)), k), 0)


def preference_stack(
    matrix: QoSMatrix, users, neighbors, cands: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (len(users), n, n) values, confidences and provenance codes
    of each user's table over the n candidates `cands`, as `candidate_ids`
    returns them, from the users' (ids, sims, counts) `neighbors` as
    `top_neighbors` returns them; read-only. The values and confidences are
    `preference_block`'s, the codes are UNKNOWN, IMPLICIT or EXPLICIT, and
    diagonals are 0."""
    users, n = np.asarray(users, dtype=np.intp), len(cands)
    confidences, values = preference_block(matrix, users, neighbors, cands)
    # explicit where the user observed both services, else implicit where the
    # confidence is positive: some neighbour covers the pair, as similarities are > 0
    own = matrix.observed_mask[np.ix_(users, cands)]
    provenance = np.add(confidences > 0, own[:, :, None] & own[:, None, :], dtype=np.int8)
    provenance.reshape(-1, n * n)[:, :: n + 1] = UNKNOWN  # the diagonals
    for arr in (values, confidences, provenance):
        arr.setflags(write=False)
    return values, confidences, provenance


def one_table(matrix: QoSMatrix, u: int, nbrs, candidates):
    """u's (values, confidences, codes) over `candidate_ids(candidates)`:
    `preference_stack` for a batch of one."""
    cands = candidate_ids(matrix, candidates)
    stack = preference_stack(matrix, (u,), stacked_neighbors([nbrs]), cands)
    return tuple(arr[0] for arr in stack)


def index_of(cands, service: int) -> int:
    try:
        return tuple(cands).index(service)
    except ValueError:
        raise DomainError(f"service {service} not in candidate set") from None


def table_value(table, cands, i: int, j: int) -> PreferenceValue:
    """Decode one entry of a built table over candidates `cands`."""
    if i == j:
        raise DomainError("preference requires two distinct services")
    a, b = index_of(cands, i), index_of(cands, j)
    values, confidences, codes = table
    return PreferenceValue(
        value=float(values[a, b]),
        confidence=float(confidences[a, b]),
        provenance=int(codes[a, b]),
    )


def preference_sum(table, cands, i: int, remaining, weighted: bool = False) -> float:
    """Sum of preferences of service i over the remaining candidates.

    With `weighted` on, each term is scaled by its confidence (the
    aggregation the confidence-weighted ranker maximizes). Unknown pairs
    contribute 0 either way.
    """
    remaining = sorted(set(int(s) for s in remaining))
    if i not in remaining:
        raise DomainError(f"service {i} not in remaining set")
    values, confidences, _ = table
    a = index_of(cands, i)
    total = 0.0
    for j in remaining:
        if j == i:
            continue
        b = index_of(cands, j)
        term = values[a, b]
        if weighted:
            term = confidences[a, b] * term
        total += term
    return float(total)


def checked_preference(matrix: QoSMatrix, u: int, nbrs, i: int, j: int) -> PreferenceValue:
    """The reference preference of i over j, after asserting that
    `preference_stack` over all services gives the same value, confidence
    and provenance."""
    ref = preference_value(matrix, u, nbrs, i, j)
    services = range(matrix.num_services)
    got = table_value(one_table(matrix, u, nbrs, services), services, i, j)
    assert got.value == pytest.approx(ref.value, abs=1e-12)
    assert got.confidence == pytest.approx(ref.confidence, abs=1e-12)
    assert got.provenance == ref.provenance
    return ref


def oracle_preference_table(
    matrix: QoSMatrix, u: int, nbrs, candidates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, confidences, provenance codes) of u's table, built alone on
    2-d arrays with the same float operations as `preference_stack`."""
    cols = np.array(sorted(set(int(c) for c in candidates)), dtype=int)
    mask = matrix.observed_mask[:, cols]
    vals = np.where(mask, matrix.values[:, cols], 0.0)
    ids, sims = nbrs
    covered = mask[ids].astype(float)
    denom = (sims[:, None] * covered).T @ covered
    cross = (sims[:, None] * vals[ids]).T @ covered
    conf_num = ((sims**2)[:, None] * covered).T @ covered
    implicit = denom > 0
    values = np.divide(cross - cross.T, denom, out=np.zeros_like(denom), where=implicit)
    confidences = np.divide(conf_num, denom, out=np.zeros_like(denom), where=implicit)
    provenance = np.where(implicit, 1, 0).astype(np.int8)
    own = matrix.observed_mask[u, cols]
    explicit = own[:, None] & own[None, :]
    own_vals = np.where(own, matrix.values[u, cols], 0.0)
    values = np.where(explicit, own_vals[:, None] - own_vals[None, :], values)
    confidences = np.where(explicit, 1.0, confidences)
    provenance = np.where(explicit, 2, provenance).astype(np.int8)
    for arr in (values, confidences, provenance):
        np.fill_diagonal(arr, 0)
    return values, confidences, provenance


def oracle_similarity_block(matrix: QoSMatrix, users) -> np.ndarray:
    """`similarity_block` by enumerating each active user's own service pairs:
    a user with c observed services owns the pairs (before[q], after[q]) of
    its observed list for q < c(c-1)/2, as the row-major lower triangle lists
    the pairs of 0..c-1 first. Every user's signs on those pairs, times the
    owner's, sum to concordant - discordant in chunks of 2^15 user x pair
    elements; each chunk's float32 product is an exact integer."""
    batch = np.array([as_int(u, "user") for u in users], dtype=np.intp)
    for u in batch.tolist():
        matrix._check_user(u)
    union = np.flatnonzero(matrix.observed_mask[batch].any(axis=0))
    mask, values = matrix.observed_mask[:, union], matrix.values[:, union]
    owner_rows, cols = np.nonzero(mask[batch])
    counts = np.bincount(owner_rows, minlength=batch.size)
    sizes = counts * (counts - 1) // 2
    after, before = np.tril_indices(int(counts.max(initial=0)), k=-1)
    owner = np.repeat(np.arange(batch.size), sizes)
    q = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    base = (np.cumsum(counts) - counts)[owner]
    first, second = cols[base + before[q]], cols[base + after[q]]
    active = batch[owner]
    sign_own = np.sign(values[active, first] - values[active, second])
    cd = np.zeros((matrix.num_users, batch.size))
    step = max(1, (1 << 15) // max(matrix.num_users, batch.size))
    for lo in range(0, first.size, step):
        hi = min(lo + step, first.size)
        diff = values[:, first[lo:hi]] - values[:, second[lo:hi]]
        signs = np.subtract(diff > 0, diff < 0, dtype=np.float32)  # NaN: 0
        weights = np.zeros((hi - lo, batch.size), dtype=np.float32)
        weights[np.arange(hi - lo), owner[lo:hi]] = sign_own[lo:hi]
        cd += signs @ weights
    maskf = mask.astype(float)
    common = maskf @ maskf[batch].T
    pairs = common * (common - 1) / 2.0
    return np.divide(cd, pairs, out=np.zeros_like(cd), where=pairs > 0)


def oracle_select_neighbors(users, sims, k: int) -> tuple[tuple[int, float], ...]:
    """The at-most-k (user, similarity) members with the largest strictly
    positive similarity, best first, ties to the smaller id; one candidate
    at a time."""
    members = []
    for idx in np.lexsort((users, -sims)):
        if len(members) >= k:
            break
        sim = float(sims[idx])
        if sim <= 0.0:
            break  # sorted descending, nothing positive remains
        members.append((int(users[idx]), sim))
    return tuple(members)


def oracle_correct_observed_order(order, matrix: QoSMatrix, u: int) -> tuple[int, ...]:
    """`order` with u's observed services re-sorted by (-value, id) within
    the positions they hold; one service at a time."""
    observed = set(np.flatnonzero(matrix.observed_mask[u]).tolist())
    positions = [p for p, s in enumerate(order) if s in observed]
    resorted = sorted((order[p] for p in positions), key=lambda s: (-matrix.values[u, s], s))
    fixed = list(order)
    for p, s in zip(positions, resorted):
        fixed[p] = s
    return tuple(fixed)


def oracle_kendall_tau(order, truth_row) -> tuple[float, int] | None:
    """(tau, evaluated pairs) of one predicted order against its truth
    values from a (p, p) sign table; None below two evaluable services."""
    evaluable = [s for s in order if s in truth_row]
    p = len(evaluable)
    if p < 2:
        return None
    vals = np.array([truth_row[s] for s in evaluable], dtype=float)
    signs = np.sign(vals[:, None] - vals[None, :])
    # +1 per concordant and -1 per discordant pair (i ranked above j, i < j)
    concordant_minus_discordant = int(signs[~np.tri(p, dtype=bool)].sum())
    pairs = p * (p - 1) // 2
    return concordant_minus_discordant / pairs, pairs


@dataclass(frozen=True)
class ScoreRow:
    """One scored (user, density, kind) cell of an experiment."""

    density: float
    kind: str
    user: int
    tau: float
    accuracy: float
    evaluated_pairs: int


@dataclass(frozen=True)
class ReferenceReport:
    rows: tuple[ScoreRow, ...]
    summaries: tuple[SummaryRow, ...]


def aggregate(rows: Sequence[ScoreRow]) -> ReferenceReport:
    """Group scored rows into per-(density, kind) means and deviations.

    Standard deviation is the population deviation over the rows of a cell;
    `trials` in each summary row is the number of scored rows it averages.
    """
    if not rows:
        raise DomainError("cannot aggregate an empty row set")
    ordered = sorted(rows, key=lambda r: (r.density, r.kind, r.user))
    cells: dict[tuple[float, str], list[ScoreRow]] = {}
    for row in ordered:
        cells.setdefault((row.density, row.kind), []).append(row)
    summaries = []
    for (density, kind), cell in sorted(cells.items()):
        taus = np.array([r.tau for r in cell])
        accs = np.array([r.accuracy for r in cell])
        summaries.append(
            SummaryRow(
                density=density,
                kind=kind,
                mean_tau=float(taus.mean()),
                std_tau=float(taus.std()),
                mean_accuracy=float(accs.mean()),
                trials=len(cell),
            )
        )
    return ReferenceReport(rows=tuple(ordered), summaries=tuple(summaries))


def oracle_greedy_orders(effective: np.ndarray) -> np.ndarray:
    """`greedy_orders` with a `max` reduction and a tie compare every round:
    a 1-d loop for a single table, one stacked loop for any other stack."""
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
            totals += table[pick]
            totals[pick] = -np.inf
        return np.array([picks], dtype=np.intp)
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


def pair_matrix(pair_nbrs: PairNeighborhood) -> tuple[QoSMatrix, tuple[np.ndarray, np.ndarray]]:
    """A matrix and (ids, sims) neighbours realizing `pair_nbrs` for active
    user 0.

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
    return QoSMatrix(values), neighbors_of(pair_nbrs.members)


def oracle_from_entries(
    num_users: int, num_services: int, entries
) -> QoSMatrix:
    """The matrix of (user, service, value) triples, one entry at a time."""
    values = np.full((num_users, num_services), np.nan)
    for user, service, value in entries:
        if not (0 <= user < num_users and 0 <= service < num_services):
            raise DomainError(f"entry ({user}, {service}) outside matrix bounds")
        if not math.isfinite(value):
            raise BadValueError(f"non-finite QoS value for ({user}, {service})")
        if not math.isnan(values[user, service]):
            raise DuplicateKeyError(f"duplicate entry for ({user}, {service})")
        values[user, service] = value
    return QoSMatrix(values)


def oracle_load_matrix(path: str | Path, orientation: MetricOrientation) -> QoSMatrix:
    """`load_matrix`, one line at a time.

    The first line that breaks a line rule raises; the grid size and
    duplicate checks follow the whole file, in that order.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc

    entries: list[tuple[int, int, float]] = []
    # (largest id, its first line) per axis, to name the id that oversizes the grid
    max_user = max_service = (-1, 0)
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")]
        if not header_seen:
            if tuple(fields) != CSV_HEADER:
                raise ParseError(
                    f"line {lineno}: expected header {','.join(CSV_HEADER)!r}, "
                    f"got {stripped!r}"
                )
            header_seen = True
            continue
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            user = int(fields[0])
            service = int(fields[1])
            value = float(fields[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if user < 0 or service < 0:
            raise ParseError(f"line {lineno}: negative id")
        if not math.isfinite(value):
            raise BadValueError(f"line {lineno}: non-finite QoS value {fields[2]!r}")
        if abs(value) > MAX_QOS:
            raise BadValueError(
                f"line {lineno}: QoS value {fields[2]!r} is over {MAX_QOS:.4g} in magnitude"
            )
        if orientation is MetricOrientation.SMALLER_IS_BETTER:
            value = -value
        entries.append((user, service, value))
        if user > max_user[0]:
            max_user = (user, lineno)
        if service > max_service[0]:
            max_service = (service, lineno)

    if not header_seen:
        raise ParseError("empty dataset: no header line found")
    num_users = max_user[0] + 1
    num_services = max_service[0] + 1
    if num_users * num_services > MAX_CELLS:
        axis, (big, lineno) = (
            ("user", max_user) if max_user[0] > max_service[0] else ("service", max_service)
        )
        raise DataError(
            f"line {lineno}: {axis} id {big} implies a {num_users} x {num_services} "
            f"matrix, over the {MAX_CELLS}-cell limit"
        )
    return oracle_from_entries(num_users, num_services, entries)


def oracle_allocate(hosts, vms, policy: AllocPolicy) -> AllocationPlan:
    """`allocate` with each host's free (mips, ram, bw) as a float64 vector."""
    if not hosts or not vms:
        raise DomainError("allocate requires at least one host and one VM")
    free = [np.array(h, dtype=float) for h in hosts]

    def fits(h: int, k: int) -> bool:
        return bool((free[h] >= vms[k]).all())

    def place(h: int, k: int) -> None:
        free[h] -= vms[k]
        vm_to_host[k] = h

    vm_to_host: dict[int, int] = {}
    unplaced: list[int] = []
    if policy is AllocPolicy.ROUND_ROBIN:
        for k in range(len(vms)):
            for step in range(len(hosts)):
                h = (k + step) % len(hosts)
                if fits(h, k):
                    place(h, k)
                    break
            else:
                unplaced.append(k)
    else:
        for k in sorted(range(len(vms)), key=lambda k: (-vms[k][0], k)):
            best, best_left = None, None
            for h in range(len(hosts)):
                if not fits(h, k):
                    continue
                left = float(free[h][0] - vms[k][0])
                if best_left is None or left < best_left:
                    best, best_left = h, left
            if best is None:
                unplaced.append(k)
            else:
                place(best, k)
    if not vm_to_host:
        raise AllocationError(sorted(unplaced))
    return AllocationPlan(vm_to_host=vm_to_host, unplaced=tuple(sorted(unplaced)))
