import itertools
import tracemalloc

import numpy as np
import pytest

from qosrank import similarity
from qosrank.matrix import QoSMatrix
from qosrank.similarity import similarity_block, top_neighbors

from conftest import random_sparse_matrix
from oracles import column_of, members_of, oracle_select_neighbors, oracle_similarity_block


def brute_force_krcc(matrix, u, v):
    """Independent oracle: enumerate every unordered common-service pair."""
    common = np.flatnonzero(matrix.observed_mask[u] & matrix.observed_mask[v]).tolist()
    n = len(common)
    if n < 2:
        return 0.0
    values = matrix.values
    concordant = discordant = 0
    for i, j in itertools.combinations(common, 2):
        du = values[u, i] - values[u, j]
        dv = values[v, i] - values[v, j]
        if du * dv > 0:
            concordant += 1
        elif du * dv < 0:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def matrix_of(*rows):
    return QoSMatrix(np.array(rows, dtype=float))


def sims_of(matrix, u):
    """u's similarity to every user v != u, ascending v: its column of
    `similarity_block` for a batch of one, without u itself."""
    return np.delete(similarity_block(matrix, (u,))[:, 0], u)


def sim(matrix, u, v):
    """Similarity of u and v as read from u's column of the block."""
    return float(similarity_block(matrix, (u,))[v, 0])


def select(sims, active, k):
    """The Top-k members ((user, similarity), ...) of one column of
    similarities, indexed by user id, with the active user's entry zeroed
    as `similarity_block` leaves it."""
    column = np.array(sims, dtype=float)
    column[active] = 0.0
    return members_of(column_of(top_neighbors(column[:, None], k), 0))


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
        rows = [sims_of(m, u) for u in range(6)]
        for u in range(6):
            for v in range(u + 1, 6):
                # u's row skips u, so v sits at v - 1; v's row holds u at u
                assert rows[u][v - 1] == rows[v][u]


def test_range(rng):
    for _ in range(50):
        m = random_sparse_matrix(rng, 5, 6, 0.8)
        for u in range(5):
            sims = sims_of(m, u)
            assert ((-1.0 <= sims) & (sims <= 1.0)).all()


def test_monotone_transform_invariance(rng):
    m = random_sparse_matrix(rng, 4, 8, 0.9)
    values = np.array(m.values)
    values[0] = np.exp(3.0 * values[0]) + 1.0  # strictly increasing transform
    transformed = QoSMatrix(values)
    assert (sims_of(m, 0) == sims_of(transformed, 0)).all()


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
        column = similarity_block(m, (u,))[:, 0]
        assert column.shape == (8,)
        for v, s in enumerate(column.tolist()):
            if v != u:
                assert s == brute_force_krcc(m, u, v)


@pytest.mark.parametrize("chunk_elems", [1, 14, 40])
def test_row_matches_krcc_bit_for_bit_across_chunks(rng, monkeypatch, chunk_elems):
    # every size is below one slot row's comparisons: one row per chunk
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
            for v, s in enumerate(similarity_block(m, (u,))[:, 0].tolist()):
                if v != u:
                    assert s == brute_force_krcc(m, u, v)
        assert (sims_of(m, 1) == 0.0).all()
        assert sim(m, 2, 3) == 0.0


@pytest.mark.parametrize("chunk_elems", [1, 14, 40])
def test_block_matches_krcc_bit_for_bit_for_each_user(rng, monkeypatch, chunk_elems):
    # a batch of 9 with a repeated user, one slot row per chunk
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
            alone = similarity_block(m, (u,))[:, 0]
            assert column.tobytes() == alone.tobytes()
    assert similarity_block(m, []).shape == (8, 0)


@pytest.mark.parametrize("chunk_elems", [1, 14, 40])
def test_block_over_union_columns_matches_krcc(rng, monkeypatch, chunk_elems):
    # batch users with disjoint services, services no batch user observed,
    # users with one observation and with none
    monkeypatch.setattr(similarity, "CHUNK_ELEMS", chunk_elems)
    for _ in range(15):
        values = rng.integers(0, 3, (8, 12)).astype(float)  # 3 levels: many ties
        values[rng.uniform(size=values.shape) < 0.3] = np.nan
        values[:4, 9:] = np.nan  # services 9-11: observed by users 4-7 only
        values[0, 4:] = np.nan  # users 0 and 1 observe disjoint services
        values[1, :4] = np.nan
        values[2] = np.nan
        values[2, 8] = 1.0  # a single observation
        values[3] = np.nan  # no observation
        m = QoSMatrix(values)
        for batch in ([0, 1], [0, 1, 2, 3], [2, 3], [3], rng.permutation(8).tolist()):
            block = similarity_block(m, batch)
            assert block.shape == (8, len(batch))
            for u, column in zip(batch, block.T):
                for v in range(8):
                    if v != u:
                        assert column[v] == brute_force_krcc(m, u, v)
                alone = similarity_block(m, (u,))[:, 0]
                assert column.tobytes() == alone.tobytes()
        assert (similarity_block(m, [2, 3]) == 0.0).all()


@pytest.mark.parametrize("chunk_elems", [1, 14, similarity.CHUNK_ELEMS])
def test_block_matches_pair_oracle_bit_for_bit(rng, monkeypatch, chunk_elems):
    # 1 to 4 integer levels: ties within both users of a pair
    monkeypatch.setattr(similarity, "CHUNK_ELEMS", chunk_elems)
    for _ in range(20):
        users, services = int(rng.integers(6, 12)), int(rng.integers(4, 16))
        values = rng.integers(0, rng.integers(1, 5), (users, services)).astype(float)
        values[rng.uniform(size=values.shape) < rng.uniform(0.2, 0.8)] = np.nan
        values[0] = rng.integers(0, 3, services)  # fully observed: widens every overlap
        values[1] = np.nan  # no observation
        values[2] = np.nan
        values[2, rng.integers(services)] = 1.0  # a single observation
        values[3] = np.where(rng.uniform(size=services) < 0.7, 2.0, np.nan)  # tied on every value
        m = QoSMatrix(values)
        mixed = rng.integers(0, users, 6).tolist()
        batches = ([], [1], [2], [3, 0, 3], [5, 5], mixed, range(users))
        for batch in batches:
            got = similarity_block(m, batch)
            assert got.shape == (users, len(batch))
            want = oracle_similarity_block(m, batch)
            own = np.asarray(batch, dtype=np.intp)
            want[own, np.arange(own.size)] = 0.0  # the block's own entries are 0
            assert got.tobytes() == want.tobytes()


def test_row_memory_bounded_for_fully_observed_user(rng):
    # the gathered (40, 1, 1000) values and the packed overlaps dominate:
    # peak 0.7 MB, where enumerating the 499500 own pairs peaked at 38.5 MB
    values = rng.uniform(0.0, 1.0, (40, 1000))
    values[1:][rng.uniform(size=(39, 1000)) < 0.7] = np.nan
    m = QoSMatrix(values)
    tracemalloc.start()
    try:
        similarity_block(m, (0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_memory_bounded_for_skewed_ties():
    # user 0 observes all 3000 services of a 339 x 3000 matrix at 50%, with
    # one 1000-service tie group and 500 tied pairs. Peak 28.4 MB when the
    # tie correction gathered (users, pairs) values once per tie distance up
    # to 999; 20.8 MB with each tie group counted as rows of its own
    rng = np.random.default_rng(7)
    values = rng.uniform(0.0, 1.0, (339, 3000))
    values[rng.uniform(size=values.shape) > 0.5] = np.nan
    values[0] = rng.permutation(3000)
    values[0, :1000] = -1.0
    values[0, 1000:2000] = 10000.0 + np.repeat(np.arange(500), 2)
    m = QoSMatrix(values)
    tracemalloc.start()
    try:
        column = similarity_block(m, (0,))[:, 0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
    assert column[0] == 0.0
    # user 1 against a pair-by-pair count over the ~1500 services it shares
    # with user 0, ~134000 pairs of the 1000-service tie group among them
    common = np.flatnonzero(m.observed_mask[0] & m.observed_mask[1])
    signs = [np.sign(np.subtract.outer(row, row)).astype(np.int64) for row in values[:2, common]]
    n = common.size
    assert column[1] == int((signs[0] * signs[1]).sum()) // 2 / (n * (n - 1) // 2)


def test_row_three_users():
    m = matrix_of([0.1, 0.2], [0.3, 0.4], [0.5, 0.1])
    column = similarity_block(m, (1,))[:, 0]
    assert len(column) == 3
    assert 1 not in [v for v, _ in select(column, 1, 3)]


def test_row_isolated_user_all_zero():
    values = np.full((3, 4), np.nan)
    values[0, 0] = 1.0
    values[1, 1] = 2.0
    values[2, 2] = 3.0
    assert (similarity_block(QoSMatrix(values), (0,)) == 0.0).all()


def test_select_neighbors_example():
    # the active user's own entry (1.0) is never a neighbour
    assert select([1.0, 0.9, 0.5, -0.2, 0.7], 0, 2) == ((1, 0.9), (4, 0.7))


def test_select_neighbors_filters_nonpositive():
    assert select([1.0, -0.5, 0.0, -1.0], 0, 5) == ()


def test_select_neighbors_k_zero():
    assert select([1.0, 0.9], 0, 0) == ()


def test_select_neighbors_tie_breaks_to_smaller_id():
    # users 2, 5 and 9 tie behind user 7: the cut falls inside the tie, and
    # a sort that reverses equal entries would keep 9
    sims = np.zeros(10)
    sims[[9, 5, 2]], sims[7] = 0.5, 0.9
    assert [v for v, _ in select(sims, 0, 3)] == [7, 2, 5]
    # a tie group long enough for an unstable sort to reorder it
    assert [v for v, _ in select(np.full(300, 0.5), 0, 299)] == list(range(1, 300))


def test_neighborhood_is_prefix_of_sorted_positive_list(rng):
    m = random_sparse_matrix(rng, 10, 8, 0.7)
    column = similarity_block(m, (0,))[:, 0]
    full = select(column, 0, 9)
    for k in range(len(full) + 1):
        assert select(column, 0, k) == full[:k]
    assert all(s > 0 for _, s in full)
    sims = [s for _, s in full]
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
            got = top_neighbors(block, k)
            ids, sims, counts = got
            assert ids.shape == sims.shape == (min(k, users), len(batch))
            assert counts.shape == (len(batch),)
            for b, u in enumerate(batch):
                column = similarity_block(m, (u,))[:, 0]
                assert column.tobytes() == block[:, b].tobytes()
                others = np.delete(np.arange(users), u)
                want = oracle_select_neighbors(others, np.delete(column, u), k)
                assert members_of(column_of(got, b)) == want
                assert select(column, u, k) == want
                # past the count: the rest of the column's sort, none positive
                assert (sims[counts[b] :, b] <= 0).all()
                assert sims[:, b].tobytes() == block[ids[:, b], b].tobytes()


def test_top_neighbors_excludes_active_and_breaks_ties_by_id():
    # each active user's own entry is 0, as `similarity_block` leaves it
    sims = np.array([[0.0, 0.5], [0.5, 0.0], [0.5, 0.5], [-0.2, 0.0]])
    got = top_neighbors(sims, 9)
    assert [members_of(column_of(got, b)) for b in range(2)] == [
        ((1, 0.5), (2, 0.5)),
        ((0, 0.5), (2, 0.5)),
    ]
    ids, top, counts = got
    assert ids.T.tolist() == [[1, 2, 0, 3], [0, 2, 1, 3]]
    assert top.T.tolist() == [[0.5, 0.5, 0.0, -0.2], [0.5, 0.5, 0.0, 0.0]]
    assert counts.tolist() == [2, 2]
