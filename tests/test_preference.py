import tracemalloc

import numpy as np
import pytest

from qosrank.errors import DomainError
from qosrank.matrix import QoSMatrix
from qosrank.preference import preference_block
from qosrank.ranker import candidate_ids
from qosrank.similarity import similarity_block, top_neighbors

from conftest import random_sparse_matrix
from oracles import (
    EXPLICIT,
    IMPLICIT,
    UNKNOWN,
    PairNeighborhood,
    checked_preference,
    column_of,
    neighbors_of,
    one_table,
    oracle_preference_table,
    pair_confidence,
    pair_matrix,
    pair_neighborhood,
    pair_weights,
    preference_stack,
    preference_sum,
    preference_value,
    stacked_neighbors,
    table_value,
    top_k,
)


def nb(*members):
    return neighbors_of(members)


def assert_table_uses(pn):
    """The table's entry for the pair is the pair_weights-weighted mean gap
    of the members, with confidence pair_confidence(pn)."""
    m, nbrs = pair_matrix(pn)
    i, j = pn.pair
    pv = checked_preference(m, 0, nbrs, i, j)
    gaps = {v: m.values[v, i] - m.values[v, j] for v, _ in pn.members}
    assert pv.value == pytest.approx(sum(w * gaps[v] for v, w in pair_weights(pn)), abs=1e-12)
    assert pv.confidence == pytest.approx(pair_confidence(pn), abs=1e-12)


def test_pair_weights_normalizes():
    pn = PairNeighborhood(pair=(0, 1), members=((1, 0.7), (2, 0.8), (3, 0.9)))
    weights = dict(pair_weights(pn))
    assert weights == pytest.approx({1: 0.7 / 2.4, 2: 0.8 / 2.4, 3: 0.9 / 2.4})
    assert abs(sum(weights.values()) - 1.0) < 1e-12
    assert_table_uses(pn)


def test_pair_weights_single_member():
    pn = PairNeighborhood(pair=(0, 1), members=((4, 0.5),))
    assert pair_weights(pn) == [(4, 1.0)]
    assert_table_uses(pn)


def test_pair_weights_equal_sims():
    pn = PairNeighborhood(pair=(0, 1), members=((1, 0.4), (2, 0.4)))
    assert dict(pair_weights(pn)) == {1: 0.5, 2: 0.5}
    assert_table_uses(pn)


def test_pair_weights_empty_rejected():
    with pytest.raises(DomainError):
        pair_weights(PairNeighborhood(pair=(0, 1), members=()))
    # the table marks a pair no neighbor covers as unknown instead
    m = QoSMatrix(np.full((2, 2), np.nan))
    assert checked_preference(m, 0, nb(), 0, 1).provenance == UNKNOWN


def test_confidence_high_sims():
    pn = PairNeighborhood(pair=(1, 2), members=((1, 0.7), (2, 0.8), (3, 0.9)))
    assert pair_confidence(pn) == pytest.approx(0.8083333333333333, abs=1e-9)
    assert_table_uses(pn)


def test_confidence_low_sims():
    pn = PairNeighborhood(pair=(0, 2), members=((1, 0.1), (2, 0.2), (3, 0.3)))
    assert pair_confidence(pn) == pytest.approx(0.23333333333333334, abs=1e-9)
    assert_table_uses(pn)


def test_confidence_ordering_explicit_beats_implicit():
    # active user saw services a=0 and b=1; c=2 is known only via neighbors
    values = np.full((7, 3), np.nan)
    values[0] = [0.9, 0.4, np.nan]
    for idx, v in enumerate((1, 2, 3)):  # observed a and c
        values[v] = [0.5 + 0.1 * idx, np.nan, 0.3 + 0.1 * idx]
    for idx, v in enumerate((4, 5, 6)):  # observed b and c
        values[v] = [np.nan, 0.6 + 0.1 * idx, 0.2 + 0.1 * idx]
    m = QoSMatrix(values)
    nbrs = nb((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.7), (5, 0.8), (6, 0.9))
    c_ab = checked_preference(m, 0, nbrs, 0, 1)
    c_ac = checked_preference(m, 0, nbrs, 0, 2)
    c_bc = checked_preference(m, 0, nbrs, 1, 2)
    assert c_ab.confidence == 1.0 and c_ab.provenance == EXPLICIT
    assert c_ab.confidence > c_bc.confidence > c_ac.confidence
    assert c_bc.confidence == pytest.approx(0.8083333333333333, abs=1e-9)
    assert c_ac.confidence == pytest.approx(0.23333333333333334, abs=1e-9)


def test_explicit_preference():
    m = QoSMatrix(np.array([[0.9, 0.4]]))
    pv = checked_preference(m, 0, nb(), 0, 1)
    assert pv.value == pytest.approx(0.5)
    assert pv.confidence == 1.0
    assert pv.provenance == EXPLICIT


def test_implicit_preference_weighted_gaps():
    values = np.full((3, 2), np.nan)
    values[1] = [1.0, 0.7]  # gap 0.3
    values[2] = [0.5, 0.6]  # gap -0.1
    m = QoSMatrix(values)
    pv = checked_preference(m, 0, nb((1, 0.6), (2, 0.4)), 0, 1)
    assert pv.value == pytest.approx(0.6 * 0.3 + 0.4 * (-0.1))
    assert pv.provenance == IMPLICIT


def test_unknown_pair():
    m = QoSMatrix(np.full((2, 2), np.nan))
    pv = checked_preference(m, 0, nb(), 0, 1)
    assert pv.value == 0.0 and pv.confidence == 0.0
    assert pv.provenance == UNKNOWN


def test_hybrid_pair_is_implicit():
    # user observed exactly one of the two services: inferred from neighbors
    values = np.array([[0.9, np.nan], [0.4, 0.6]])
    m = QoSMatrix(values)
    pv = checked_preference(m, 0, nb((1, 0.5)), 0, 1)
    assert pv.provenance == IMPLICIT
    assert pv.value == pytest.approx(0.4 - 0.6)


def test_same_service_rejected():
    m = QoSMatrix(np.array([[0.5]]))
    with pytest.raises(DomainError):
        preference_value(m, 0, nb(), 0, 0)
    table = one_table(m, 0, nb(), [0])
    assert table[0][0, 0] == 0.0 and table[2][0, 0] == 0
    with pytest.raises(DomainError):
        table_value(table, [0], 0, 0)


def test_pair_neighborhood_restricts_to_pair_observers():
    values = np.full((4, 2), np.nan)
    values[1] = [0.1, 0.2]
    values[2, 0] = 0.5
    values[3] = [0.3, 0.9]
    m = QoSMatrix(values)
    nbrs = nb((1, 0.9), (2, 0.8), (3, 0.7))
    pn = pair_neighborhood(m, nbrs, 0, 1)
    assert [v for v, _ in pn.members] == [1, 3]
    pv = checked_preference(m, 0, nbrs, 0, 1)
    assert pv.value == pytest.approx((0.9 * (0.1 - 0.2) + 0.7 * (0.3 - 0.9)) / 1.6, abs=1e-12)


def test_preference_sum_single_remaining():
    m = QoSMatrix(np.array([[0.9, 0.4, 0.6]]))
    table = one_table(m, 0, nb(), [0, 1, 2])
    assert preference_sum(table, [0, 1, 2], 0, {0}) == 0.0
    assert table[0][0, 0] == 0.0


def test_preference_sum_unweighted():
    m = QoSMatrix(np.array([[0.8, 0.3, 1.0]]))
    table = one_table(m, 0, nb(), [0, 1, 2])
    # psi(0,1)=0.5, psi(0,2)=-0.2
    assert preference_sum(table, [0, 1, 2], 0, {0, 1, 2}) == pytest.approx(0.3)
    assert table[0][0].sum() == pytest.approx(0.3)


def test_preference_sum_weighted():
    # hand-built table: confidences 1.0 and 0.5 on the two pairs
    values = np.full((5, 3), np.nan)
    values[0] = [np.nan, 0.2, np.nan]
    values[1] = [0.9, 0.4, np.nan]  # covers (0,1)
    values[2] = [0.7, np.nan, 0.9]  # covers (0,2)
    m = QoSMatrix(values)
    nbrs = nb((1, 1.0), (2, 0.5))
    table = one_table(m, 0, nbrs, [0, 1, 2])
    psi_01 = checked_preference(m, 0, nbrs, 0, 1)
    psi_02 = checked_preference(m, 0, nbrs, 0, 2)
    assert psi_01.value == pytest.approx(0.5) and psi_01.confidence == pytest.approx(1.0)
    assert psi_02.value == pytest.approx(-0.2) and psi_02.confidence == pytest.approx(0.5)
    # 0.5 * 1.0 + (-0.2) * 0.5
    assert preference_sum(table, [0, 1, 2], 0, {0, 1, 2}, weighted=True) == pytest.approx(0.4)
    assert (table[1] * table[0])[0].sum() == pytest.approx(0.4)


def test_preference_sum_requires_membership():
    m = QoSMatrix(np.array([[0.8, 0.3]]))
    table = one_table(m, 0, nb(), [0, 1])
    with pytest.raises(DomainError):
        preference_sum(table, [0, 1], 0, {1})


def test_table_matches_scalar_path(rng):
    for _ in range(20):
        m = random_sparse_matrix(rng, 7, 6, 0.6)
        u = int(rng.integers(7))
        nbrs = top_k(m, u, 4)
        table = one_table(m, u, nbrs, range(6))
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                ref = preference_value(m, u, nbrs, i, j)
                got = table_value(table, range(6), i, j)
                assert got.value == pytest.approx(ref.value, abs=1e-12)
                assert got.confidence == pytest.approx(ref.confidence, abs=1e-12)
                assert got.provenance == ref.provenance


def test_antisymmetry_and_confidence_symmetry(rng):
    for _ in range(50):
        m = random_sparse_matrix(rng, 6, 5, 0.5)
        u = int(rng.integers(6))
        values, confidences, _ = one_table(m, u, top_k(m, u, 3), range(5))
        # exact, not within a tolerance: greedy adds a picked row in place of
        # subtracting its column
        assert np.array_equal(values, -values.T)
        assert np.array_equal(confidences, confidences.T)
        weighted = confidences * values
        assert np.array_equal(weighted, -weighted.T)


def test_confidence_bounds(rng):
    for _ in range(30):
        m = random_sparse_matrix(rng, 8, 6, 0.5)
        u = int(rng.integers(8))
        nbrs = top_k(m, u, 5)
        _, confidences, codes = one_table(m, u, nbrs, range(6))
        max_sim = max(nbrs[1].tolist(), default=0.0)
        n = len(codes)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                conf = confidences[i, j]
                prov = int(codes[i, j])
                assert 0.0 <= conf <= 1.0 + 1e-12
                if prov == 2:  # explicit
                    assert conf == 1.0
                elif prov == 1:  # implicit
                    assert conf <= max_sim + 1e-12


def test_fully_observed_user_everything_explicit(rng):
    m = QoSMatrix(rng.uniform(0, 1, (3, 5)))
    table = one_table(m, 0, nb(), range(5))
    off_diag = ~np.eye(5, dtype=bool)
    assert (table[2][off_diag] == 2).all()
    # preference-sum ordering equals raw value ordering
    sums = [preference_sum(table, range(5), i, range(5)) for i in range(5)]
    assert np.argsort(sums)[::-1].tolist() == np.argsort(m.values[0])[::-1].tolist()
    assert table[0].sum(axis=1) == pytest.approx(sums, abs=1e-12)


def test_confidence_scales_with_similarity():
    # scaling every member similarity up scales confidence up
    members = ((1, 0.2), (2, 0.35), (3, 0.5))
    base = pair_confidence(PairNeighborhood((0, 1), members))
    assert_table_uses(PairNeighborhood((0, 1), members))
    for c in (1.2, 1.5, 2.0):
        scaled = PairNeighborhood((0, 1), tuple((v, min(1.0, c * s)) for v, s in members))
        assert pair_confidence(scaled) >= base
        assert_table_uses(scaled)


def test_stacked_tables_match_one_user_tables_bit_for_bit(rng):
    # every slice of a batch's stack is the table its user gets alone, from
    # the same neighbours the user gets alone
    for trial in range(40):
        users, services = int(rng.integers(2, 10)), int(rng.integers(1, 12))
        m = random_sparse_matrix(rng, users, services, float(rng.uniform(0.2, 0.9)))
        batch = rng.choice(users, size=int(rng.integers(1, users + 1)), replace=False).tolist()
        cands = rng.choice(services, size=int(rng.integers(1, services + 1)), replace=False)
        k = trial % 5
        nbrs = top_neighbors(similarity_block(m, batch), k)
        stack = preference_stack(m, batch, nbrs, candidate_ids(m, cands))
        assert all(arr.shape == (len(batch),) + (len(set(cands.tolist())),) * 2 for arr in stack)
        assert not any(arr.flags.writeable for arr in stack)
        for b, u in enumerate(batch):
            nb = column_of(nbrs, b)
            assert [a.tobytes() for a in nb] == [a.tobytes() for a in top_k(m, u, k)]
            alone = one_table(m, u, nb, cands)
            for got, one, ref in zip(stack, alone, oracle_preference_table(m, u, nb, cands)):
                assert got[b].dtype == ref.dtype
                assert got[b].tobytes() == one.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [-1, 3])
def test_table_rejects_candidate_outside_matrix(bad):
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8]]))
    with pytest.raises(DomainError, match="outside"):
        one_table(m, 0, nb(), [0, bad])


def assert_slices_match_oracle(m, batch, nbrs, cands):
    """Each slice of the batch's stack from the (ids, sims, counts) arrays
    `nbrs` is byte-equal to the user's table from `oracle_preference_table`,
    which divides with masks."""
    stack = preference_stack(m, batch, nbrs, candidate_ids(m, cands))
    for b, u in enumerate(batch):
        for got, ref in zip(stack, oracle_preference_table(m, u, column_of(nbrs, b), cands)):
            assert got[b].dtype == ref.dtype
            assert got[b].tobytes() == ref.tobytes()
    return stack


def test_uncovered_pairs_are_positive_zero_on_negative_values(rng):
    # smaller-is-better data is negated at ingestion, so every value is
    # negative; a product term of an uncovered pair is then -0.0, and the
    # unmasked divide must still leave exactly +0.0 there
    for trial in range(30):
        users, services = int(rng.integers(3, 12)), int(rng.integers(2, 15))
        m = QoSMatrix(-random_sparse_matrix(rng, users, services, 0.35).values - 0.01)
        batch = rng.choice(users, size=int(rng.integers(1, users + 1)), replace=False).tolist()
        cands = rng.choice(services, size=int(rng.integers(1, services + 1)), replace=False)
        nbrs = top_neighbors(similarity_block(m, batch), trial % 6)
        values, confidences, provenance = assert_slices_match_oracle(m, batch, nbrs, cands)
        unknown = provenance == 0
        assert not np.signbit(values[unknown]).any()
        assert not np.signbit(confidences[unknown]).any()
        assert (values[unknown] == 0).all() and (confidences[unknown] == 0).all()


def test_mixed_neighbour_counts_shared_neighbours_and_candidate_subset(rng):
    # one batch whose users have 0..k neighbours, interleaved (b % (k + 1)),
    # so that each run of one count is its own stacked product; draw them
    # from a small shared pool that includes the batch's own users, and rank
    # a subset of the services
    k = 4
    for _ in range(30):
        users, services = int(rng.integers(k + 2, 12)), int(rng.integers(2, 15))
        m = random_sparse_matrix(rng, users, services, float(rng.uniform(0.2, 0.8)))
        m = QoSMatrix(m.values * rng.choice([-1.0, 1.0]))
        batch = rng.permutation(users)[: 2 * (k + 1)].tolist()
        pool = batch[: k + 1] + [int(rng.integers(users))]
        members = []
        for b, u in enumerate(batch):
            others = [v for v in dict.fromkeys(pool) if v != u]
            ids = rng.permutation(others)[: b % (k + 1)].tolist()
            members.append(tuple((v, float(rng.uniform(0.05, 1.0))) for v in ids))
        assert len({len(mem) for mem in members}) > 1
        size = int(rng.integers(1, services + 1))
        cands = rng.choice(services, size=size, replace=False)
        nbrs = stacked_neighbors([neighbors_of(mem) for mem in members])
        assert_slices_match_oracle(m, batch, nbrs, cands)
    # 999 candidates and 8..16 neighbours: one stacked product over every
    # user, padded to the batch's largest count with zero weights, changes
    # the last bits of such tables (with OpenBLAS 0.3.31 it did at n = 999
    # in 5 of 10 random batches, and at n = 1000 in none of 30)
    m = random_sparse_matrix(rng, 20, 999, 0.3)
    batch = [3, 11, 17, 6]
    members = []
    for u, count in zip(batch, (8, 13, 16, 10)):
        ids = rng.permutation([v for v in range(20) if v != u])[:count].tolist()
        members.append(tuple((v, float(rng.uniform(0.05, 1.0))) for v in ids))
    nbrs = stacked_neighbors([neighbors_of(mem) for mem in members])
    assert_slices_match_oracle(m, batch, nbrs, range(999))


def test_one_user_stack_memory_bounded():
    # one user of a 300 x 400 matrix over all 400 candidates: the
    # [confidences, values] block takes 2.6 MB and the denominators 1.3 MB;
    # the stage reads only the neighbours' rows. Peak measured at 6.16 MB
    # before the neighbour-row gather and unmasked divide, 5.9 MB with a
    # separate array per product, 4.6 MB with the products written into one
    # block, 4.47 MB for `preference_block` itself, which ranking runs
    rng = np.random.default_rng(20260810)
    values = -rng.uniform(0.0, 1.0, (300, 400))
    values[rng.uniform(size=values.shape) > 0.3] = np.nan
    m = QoSMatrix(values)
    nbrs = top_neighbors(similarity_block(m, [0]), 10)
    cands = candidate_ids(m, range(400))
    tracemalloc.start()
    try:
        block = preference_block(m, [0], nbrs, cands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nbrs[2].tolist() == [10] and block.shape == (2, 1, 400, 400)
    assert peak <= 5 * 2**20
