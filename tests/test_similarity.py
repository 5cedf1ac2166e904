import itertools
import tracemalloc

import numpy as np
import pytest

from qosrank import similarity
from qosrank.errors import DomainError
from qosrank.matrix import QoSMatrix
from qosrank.similarity import (
    SimilarityRow,
    select_neighbors,
    similarity_block,
    similarity_row,
    top_neighbors,
)

from conftest import random_sparse_matrix
from oracles import oracle_select_neighbors


def brute_force_krcc(matrix, u, v):
    """Independent oracle: enumerate every unordered common-service pair."""
    common = sorted(matrix.observed_set(u) & matrix.observed_set(v))
    n = len(common)
    if n < 2:
        return 0.0
    concordant = discordant = 0
    for i, j in itertools.combinations(common, 2):
        du = matrix.value(u, i) - matrix.value(u, j)
        dv = matrix.value(v, i) - matrix.value(v, j)
        if du * dv > 0:
            concordant += 1
        elif du * dv < 0:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def matrix_of(*rows):
    return QoSMatrix(np.array(rows, dtype=float))


def sim(matrix, u, v):
    """Similarity of u and v as read from u's similarity_row."""
    row = similarity_row(matrix, u)
    return float(row.sims[np.searchsorted(row.users, v)])


def test_identical_ordering_gives_one():
    m = matrix_of([0.1, 0.5, 0.9], [0.2, 0.4, 0.7])
    assert sim(m, 0, 1) == 1.0


def test_full_reversal_gives_minus_one():
    m = matrix_of([0.1, 0.5, 0.9], [0.9, 0.5, 0.1])
    assert sim(m, 0, 1) == -1.0


def test_four_service_example():
    m = matrix_of([0.2, 0.5, 0.9, 0.4], [0.3, 0.4, 0.8, 0.6])
    # oracle over all 6 pairs: 5 concordant, 1 discordant
    assert brute_force_krcc(m, 0, 1) == (5 - 1) / 6
    assert sim(m, 0, 1) == (5 - 1) / 6


def test_single_common_service_is_zero():
    m = QoSMatrix(np.array([[0.5, np.nan], [0.7, 0.2]]))
    assert sim(m, 0, 1) == 0.0


def test_no_common_services_is_zero():
    m = QoSMatrix(np.array([[0.5, np.nan], [np.nan, 0.2]]))
    assert sim(m, 0, 1) == 0.0


def test_symmetry_exact(rng):
    for _ in range(50):
        m = random_sparse_matrix(rng, 6, 7, 0.6)
        rows = [similarity_row(m, u).sims for u in range(6)]
        for u in range(6):
            for v in range(u + 1, 6):
                # u's row skips u, so v sits at v - 1; v's row holds u at u
                assert rows[u][v - 1] == rows[v][u]


def test_range(rng):
    for _ in range(50):
        m = random_sparse_matrix(rng, 5, 6, 0.8)
        for u in range(5):
            sims = similarity_row(m, u).sims
            assert ((-1.0 <= sims) & (sims <= 1.0)).all()


def test_monotone_transform_invariance(rng):
    m = random_sparse_matrix(rng, 4, 8, 0.9)
    values = np.array(m.values)
    values[0] = np.exp(3.0 * values[0]) + 1.0  # strictly increasing transform
    transformed = QoSMatrix(values)
    assert (similarity_row(m, 0).sims == similarity_row(transformed, 0).sims).all()


def test_oracle_equivalence_small_random(rng):
    for _ in range(100):
        users = int(rng.integers(2, 10))
        services = int(rng.integers(2, 10))
        density = float(rng.uniform(0.5, 1.0))
        m = random_sparse_matrix(rng, users, services, density)
        u, v = rng.choice(users, size=2, replace=False)
        assert sim(m, int(u), int(v)) == brute_force_krcc(m, int(u), int(v))


def test_row_matches_pairwise_calls(rng):
    m = random_sparse_matrix(rng, 8, 9, 0.6)
    for u in range(8):
        row = similarity_row(m, u)
        assert list(row.users) == [v for v in range(8) if v != u]
        for v, s in zip(row.users, row.sims):
            assert s == brute_force_krcc(m, u, int(v))


@pytest.mark.parametrize("chunk_elems", [1, 14, 40])
def test_row_matches_krcc_bit_for_bit_across_chunks(rng, monkeypatch, chunk_elems):
    # 7 other users: chunks of 1, 2 and 5 pairs, the last chunk often ragged
    monkeypatch.setattr(similarity, "CHUNK_ELEMS", chunk_elems)
    for _ in range(20):
        values = rng.integers(0, 3, (8, 10)).astype(float)  # 3 levels: many ties
        values[rng.uniform(size=values.shape) < 0.3] = np.nan
        values[1] = np.nan
        values[1, 4] = 1.0  # a single observation
        values[2, :5] = np.nan  # users 2 and 3 share no service
        values[3, 5:] = np.nan
        m = QoSMatrix(values)
        for u in range(8):
            row = similarity_row(m, u)
            for v, s in zip(row.users, row.sims):
                assert s == brute_force_krcc(m, u, int(v))
        assert (similarity_row(m, 1).sims == 0.0).all()
        assert sim(m, 2, 3) == 0.0


@pytest.mark.parametrize("chunk_elems", [1, 14, 40])
def test_block_matches_krcc_bit_for_bit_for_each_user(rng, monkeypatch, chunk_elems):
    # 9 rows: chunks of 1, 1 and 4 pairs, which cut across the users' segments
    monkeypatch.setattr(similarity, "CHUNK_ELEMS", chunk_elems)
    for _ in range(15):
        values = rng.integers(0, 3, (8, 10)).astype(float)  # 3 levels: many ties
        values[rng.uniform(size=values.shape) < 0.3] = np.nan
        values[1] = np.nan
        values[1, 4] = 1.0  # a single observation: no own pairs
        values[2, :5] = np.nan  # users 2 and 3 share no service
        values[3, 5:] = np.nan
        m = QoSMatrix(values)
        batch = rng.permutation(8).tolist() + [5]  # a repeated user too
        block = similarity_block(m, batch)
        assert block.shape == (8, len(batch))
        for u, column in zip(batch, block.T):
            for v in range(8):
                if v != u:
                    assert column[v] == brute_force_krcc(m, u, v)
            alone = similarity_row(m, u)
            assert list(alone.users) == [v for v in range(8) if v != u]
            assert np.delete(column, u).tobytes() == alone.sims.tobytes()
    assert similarity_block(m, []).shape == (8, 0)


def test_row_memory_bounded_for_fully_observed_user(rng):
    values = rng.uniform(0.0, 1.0, (40, 1000))
    values[1:][rng.uniform(size=(39, 1000)) < 0.7] = np.nan
    m = QoSMatrix(values)
    tracemalloc.start()
    try:
        similarity_row(m, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_row_three_users():
    m = matrix_of([0.1, 0.2], [0.3, 0.4], [0.5, 0.1])
    row = similarity_row(m, 1)
    assert len(row.users) == 2
    assert 1 not in row.users


def test_row_isolated_user_all_zero():
    values = np.full((3, 4), np.nan)
    values[0, 0] = 1.0
    values[1, 1] = 2.0
    values[2, 2] = 3.0
    row = similarity_row(QoSMatrix(values), 0)
    assert (row.sims == 0.0).all()


def test_select_neighbors_example():
    row = SimilarityRow(
        active=0,
        users=np.array([1, 2, 3, 4]),
        sims=np.array([0.9, 0.5, -0.2, 0.7]),
    )
    nbrs = select_neighbors(row, 2)
    assert nbrs.members == ((1, 0.9), (4, 0.7))


def test_select_neighbors_filters_nonpositive():
    row = SimilarityRow(
        active=0, users=np.array([1, 2, 3]), sims=np.array([-0.5, 0.0, -1.0])
    )
    assert select_neighbors(row, 5).members == ()


def test_select_neighbors_k_zero():
    row = SimilarityRow(active=0, users=np.array([1]), sims=np.array([0.9]))
    assert select_neighbors(row, 0).members == ()


def test_select_neighbors_tie_breaks_to_smaller_id():
    row = SimilarityRow(
        active=0, users=np.array([5, 2, 9]), sims=np.array([0.5, 0.5, 0.5])
    )
    nbrs = select_neighbors(row, 2)
    assert nbrs.user_ids() == [2, 5]


def test_neighborhood_is_prefix_of_sorted_positive_list(rng):
    m = random_sparse_matrix(rng, 10, 8, 0.7)
    row = similarity_row(m, 0)
    full = select_neighbors(row, 9)
    for k in range(len(full.members) + 1):
        assert select_neighbors(row, k).members == full.members[:k]
    assert all(s > 0 for _, s in full.members)
    sims = full.similarities()
    assert sims == sorted(sims, reverse=True)


def test_top_neighbors_match_oracle(rng):
    # each block column against the one-row reference; 3 value levels over 4
    # services give many equal similarities, and k runs from 0 to past the
    # positive neighbours
    for _ in range(30):
        users = int(rng.integers(2, 12))
        values = rng.integers(0, 3, (users, 4)).astype(float)
        values[rng.uniform(size=values.shape) < 0.2] = np.nan
        m = QoSMatrix(values)
        batch = rng.choice(users, size=int(rng.integers(1, users + 1)), replace=False).tolist()
        block = similarity_block(m, batch)
        for k in (0, 1, 3, users + 2):
            got = top_neighbors(np.arange(users), block, batch, k)
            for (ids, sims), u in zip(got, batch):
                row = similarity_row(m, u)
                want = oracle_select_neighbors(row.users, row.sims, k)
                assert tuple(zip(ids.tolist(), sims.tolist())) == want
                assert select_neighbors(row, k).members == want


def test_top_neighbors_excludes_active_and_breaks_ties_by_id():
    sims = np.array([[1.0, 0.5], [0.5, 1.0], [0.5, 0.5], [-0.2, 0.0]])
    got = top_neighbors(np.arange(4), sims, [0, 1], 9)
    assert [(ids.tolist(), s.tolist()) for ids, s in got] == [
        ([1, 2], [0.5, 0.5]),
        ([0, 2], [0.5, 0.5]),
    ]
    with pytest.raises(DomainError, match=">= 0"):
        top_neighbors(np.arange(4), sims, [0, 1], -1)
