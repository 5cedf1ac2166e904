import itertools
import re
import tracemalloc

import numpy as np
import pytest

from qosrank import ranker
from qosrank.errors import DomainError
from qosrank.matrix import QoSMatrix, SplitSpec, split_train_test
from qosrank.preference import build_preference_table
from qosrank.ranker import (
    RankerKind,
    Ranking,
    correct_observed_order,
    greedy_orders,
    greedy_rank,
    rank,
    rank_kinds,
    rank_users,
)
from qosrank.similarity import Neighborhood, select_neighbors, similarity_row

from conftest import random_sparse_matrix
from oracles import oracle_correct_observed_order

EMPTY_NBRS = Neighborhood(active=0, members=())


def explicit_table(values, candidates=None):
    m = QoSMatrix(np.array([values], dtype=float))
    return build_preference_table(m, 0, EMPTY_NBRS, candidates or range(len(values)))


def agreement_score(order, table, weighted=False):
    """Sum of pairwise preferences realized by ranking `order`."""
    effective = table.values if not weighted else table.confidences * table.values
    idx = {s: table.candidates.index(s) for s in order}
    total = 0.0
    for a, b in itertools.combinations(order, 2):
        total += effective[idx[a], idx[b]]
    return total


def pipeline_table(rng, num_services=4):
    m = random_sparse_matrix(rng, 6, num_services, float(rng.uniform(0.5, 0.9)))
    u = int(rng.integers(6))
    nbrs = select_neighbors(similarity_row(m, u), 4)
    return build_preference_table(m, u, nbrs, range(num_services))


def recompute_positions(effective):
    """Oracle: recompute every preference sum from scratch each round,
    applying the documented tie rule (within tolerance -> smaller position)."""
    remaining = list(range(len(effective)))
    order = []
    while remaining:
        sums = {i: sum(effective[i, j] for j in remaining if j != i) for i in remaining}
        top = max(sums.values())
        tol = 1e-9 * max(1.0, abs(top))
        tied = [i for i in remaining if sums[i] >= top - tol]
        order.append(min(tied))
        remaining.remove(min(tied))
    return order


def recompute_greedy(table, weighted=False):
    """The oracle's order of a table's candidates."""
    effective = table.values if not weighted else table.confidences * table.values
    return tuple(table.candidates[i] for i in recompute_positions(effective))


def test_single_candidate():
    table = explicit_table([0.7], candidates=[0])
    assert greedy_rank(table).order == (0,)


def test_explicit_ordering_matches_values():
    table = explicit_table([0.9, 0.5, 0.7])
    assert greedy_rank(table).order == (0, 2, 1)


def test_all_unknown_falls_back_to_ascending_ids():
    m = QoSMatrix(np.full((1, 4), np.nan))
    table = build_preference_table(m, 0, EMPTY_NBRS, range(4))
    assert greedy_rank(table).order == (0, 1, 2, 3)


def test_greedy_is_globally_optimal_on_explicit_tables(rng):
    # with every pair explicit the sums are additive in the raw values, so
    # greedy is exactly the brute-force optimum and no transposition helps
    for _ in range(100):
        table = explicit_table(rng.uniform(0, 1, 4).tolist())
        order = list(greedy_rank(table).order)
        score = agreement_score(order, table)
        best = max(
            agreement_score(perm, table) for perm in itertools.permutations(range(4))
        )
        assert score == pytest.approx(best, abs=1e-12)
        for p in range(len(order) - 1):
            neighbor = order.copy()
            neighbor[p], neighbor[p + 1] = neighbor[p + 1], neighbor[p]
            assert score >= agreement_score(neighbor, table) - 1e-12


def test_greedy_final_pair_is_locally_optimal(rng):
    # mixed explicit/implicit tables are not additive and greedy may lose to
    # an adjacent swap higher up, but the last two picks never benefit from
    # swapping: the later one had the smaller pairwise preference
    for _ in range(100):
        table = pipeline_table(rng, 4)
        for weighted in (False, True):
            order = greedy_rank(table, weighted=weighted).order
            a, b = order[-2], order[-1]
            effective = table.values if not weighted else table.confidences * table.values
            assert effective[table.candidates.index(a), table.candidates.index(b)] >= -1e-9


def test_incremental_equals_recompute(rng):
    for _ in range(300):
        n = int(rng.integers(2, 9))
        table = pipeline_table(rng, n)
        for weighted in (False, True):
            incremental = greedy_rank(table, weighted=weighted)
            assert incremental.order == recompute_greedy(table, weighted)


def test_greedy_orders_rows_match_recompute_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        stack = []
        for table in (pipeline_table(rng, n) for _ in range(int(rng.integers(1, 5)))):
            stack += [table.values, table.confidences * table.values]
        levels = rng.integers(-2, 3, (n, n)).astype(float)  # exact ties in the sums
        stack += [levels - levels.T, np.zeros((n, n))]  # the last one all unknown
        effective = np.stack(stack)
        expected = [recompute_positions(table) for table in effective]
        assert greedy_orders(effective).tolist() == expected
        for table, order in zip(effective, expected):
            assert greedy_orders(table[None]).tolist() == [order]  # the 1-row loop


def test_greedy_orders_tie_within_tolerance_goes_to_smaller_position():
    # sums 1 - 5e-13, 1 + 5e-13 and -2: the first two tie within TIE_TOLERANCE
    tied = np.array([[0.0, -5e-13, 1.0], [5e-13, 0.0, 1.0], [-1.0, -1.0, 0.0]])
    assert recompute_positions(tied) == [0, 1, 2]
    assert recompute_positions(-tied) == [2, 0, 1]
    effective = np.stack([tied, -tied, np.zeros((3, 3))])
    assert greedy_orders(effective).tolist() == [[0, 1, 2], [2, 0, 1], [0, 1, 2]]
    assert greedy_orders(tied[None]).tolist() == [[0, 1, 2]]


def test_greedy_permutation_safety(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        table = pipeline_table(rng, n)
        order = greedy_rank(table).order
        assert sorted(order) == list(range(n))


def test_correct_observed_order_two_element():
    m = QoSMatrix(np.array([[0.2, 0.9, np.nan]]))
    predicted = Ranking(active=0, order=(0, 2, 1))  # a, x, b
    fixed = correct_observed_order(predicted, m, 0)
    assert fixed.order == (1, 2, 0)  # b, x, a


def test_correct_no_observations_is_identity():
    m = QoSMatrix(np.full((1, 3), np.nan))
    predicted = Ranking(active=0, order=(2, 0, 1))
    assert correct_observed_order(predicted, m, 0).order == (2, 0, 1)


def test_correct_all_observed_sorts_by_qos(rng):
    values = rng.uniform(0, 1, (1, 6))
    m = QoSMatrix(values)
    predicted = Ranking(active=0, order=tuple(rng.permutation(6).tolist()))
    fixed = correct_observed_order(predicted, m, 0)
    assert list(fixed.order) == sorted(range(6), key=lambda s: -values[0, s])


def test_correct_explicit_consistency(rng):
    for _ in range(30):
        m = random_sparse_matrix(rng, 5, 8, 0.5)
        u = int(rng.integers(5))
        r = rank(RankerKind.CLOUDRANK1, m, u, 3, range(8))
        position = {s: p for p, s in enumerate(r.order)}
        observed = sorted(m.observed_set(u))
        for i, j in itertools.combinations(observed, 2):
            if m.value(u, i) > m.value(u, j):
                assert position[i] < position[j]
            elif m.value(u, i) < m.value(u, j):
                assert position[j] < position[i]


def test_fully_observed_user_ranks_by_qos(rng):
    values = rng.uniform(0, 1, (4, 7))
    m = QoSMatrix(values)
    expected = tuple(sorted(range(7), key=lambda s: -values[0, s]))
    for kind in (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2):
        assert rank(kind, m, 0, 10, range(7)).order == expected


def test_degenerate_user_gets_ascending_ids():
    values = np.full((2, 4), np.nan)
    values[1] = [0.1, 0.2, 0.3, 0.4]
    m = QoSMatrix(values)
    r = rank(RankerKind.CLOUDRANK1, m, 0, 0, range(4))
    assert r.order == (0, 1, 2, 3)


def test_random_baseline_deterministic(rng):
    m = random_sparse_matrix(rng, 3, 6, 0.8)
    a = rank(RankerKind.RANDOM_BASELINE, m, 1, 5, range(6), seed=77)
    b = rank(RankerKind.RANDOM_BASELINE, m, 1, 5, range(6), seed=77)
    assert a.order == b.order
    c = rank(RankerKind.RANDOM_BASELINE, m, 1, 5, range(6), seed=78)
    assert sorted(c.order) == list(range(6))


def test_affine_transform_leaves_cloudrank1_unchanged(rng):
    for _ in range(20):
        m = random_sparse_matrix(rng, 6, 6, 0.7)
        u = int(rng.integers(6))
        scaled = QoSMatrix(m.values * 3.5 + 2.0)
        before = rank(RankerKind.CLOUDRANK1, m, u, 4, range(6))
        after = rank(RankerKind.CLOUDRANK1, scaled, u, 4, range(6))
        assert before.order == after.order


def test_empty_candidates_rejected(rng):
    m = random_sparse_matrix(rng, 2, 3, 1.0)
    with pytest.raises(DomainError):
        rank(RankerKind.CLOUDRANK1, m, 0, 2, [])


def test_rank_kinds_matches_rank_per_kind(rng):
    # one shared similarity row and table must give what separate runs give
    for _ in range(30):
        users, services = int(rng.integers(2, 9)), int(rng.integers(1, 10))
        m = random_sparse_matrix(rng, users, services, float(rng.uniform(0.2, 0.9)))
        u = int(rng.integers(users))
        cands = rng.choice(services, size=int(rng.integers(1, services + 1)), replace=False)
        for correct in (True, False):
            got = rank_kinds(tuple(RankerKind), m, u, 3, cands, seed=9, correct=correct)
            assert set(got) == set(RankerKind)
            for kind in RankerKind:
                assert got[kind] == rank(kind, m, u, 3, cands, seed=9, correct=correct)


def test_rank_determinism(rng):
    m = random_sparse_matrix(rng, 6, 8, 0.5)
    for kind in RankerKind:
        a = rank(kind, m, 2, 3, range(8), seed=5)
        b = rank(kind, m, 2, 3, range(8), seed=5)
        assert a == b


def test_ranking_rejects_duplicates():
    with pytest.raises(DomainError):
        Ranking(active=0, order=(1, 1, 2))


@pytest.mark.parametrize("batch_elems", [1, 1 << 40])
def test_rank_users_matches_rank_per_user(rng, monkeypatch, batch_elems):
    # one-user batches, then every user in one batch: both equal `rank` alone
    monkeypatch.setattr(ranker, "BATCH_ELEMS", batch_elems)
    kind_sets = [
        tuple(RankerKind),
        (RankerKind.CLOUDRANK2,),
        (RankerKind.CLOUDRANK1, RankerKind.RANDOM_BASELINE),
    ]
    for trial in range(36):
        users, services = int(rng.integers(2, 10)), int(rng.integers(1, 10))
        density = float(rng.uniform(0.2, 0.9))
        values = np.array(random_sparse_matrix(rng, users, services, density).values)
        values[0] = np.nan
        values[0, rng.integers(services)] = 0.5  # fewer than 2 observations
        m = QoSMatrix(values)
        active = rng.choice(users, size=int(rng.integers(1, users + 1)), replace=False).tolist()
        if trial % 2 and 0 not in active:
            active.append(0)
        size = 1 if trial % 6 == 0 else int(rng.integers(1, services + 1))
        cands = rng.choice(services, size=size, replace=False)
        k = trial % 4
        kinds = kind_sets[trial % 3]
        for correct in (True, False):
            got = rank_users(kinds, m, active, k, cands, seed=9, correct=correct)
            assert len(got) == len(active)
            for u, by_kind in zip(active, got):
                assert tuple(by_kind) == kinds
                for kind in kinds:
                    assert by_kind[kind] == rank(kind, m, u, k, cands, seed=9, correct=correct)


def test_rank_users_rejects_bad_arguments(rng):
    m = random_sparse_matrix(rng, 3, 4, 0.8)
    with pytest.raises(DomainError):
        rank_users(tuple(RankerKind), m, [0, 3], 2, range(4))
    with pytest.raises(DomainError):
        rank_users(tuple(RankerKind), m, [0], 2, [])
    assert rank_users(tuple(RankerKind), m, [], 2, range(4)) == []


@pytest.mark.parametrize("kind", list(RankerKind))
@pytest.mark.parametrize("bad", [-1, 3, 10**6])
def test_candidate_outside_matrix_rejected(kind, bad):
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8]]))
    with pytest.raises(DomainError, match=f"candidate service {bad} outside"):
        rank(kind, m, 0, 2, [bad, 0, 1])



@pytest.mark.parametrize(
    "call, named",
    [
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0, 2, [0, 1.5, 2]), "candidate service 1.5"),
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0, 2, ["a", 1]), "candidate service 'a'"),
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0.7, 2, range(3)), "user 0.7"),
        (lambda m: rank_users(tuple(RankerKind), m, [1, np.float64(0.0)], 2, range(3)),
         f"user {np.float64(0.0)!r}"),
        (lambda m: ranker.rank_orders((RankerKind.CLOUDRANK1,), m, [0.5], 2, range(3)), "user 0.5"),
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0, 2.9, range(3)), "neighborhood size 2.9"),
        (lambda m: similarity_row(m, 0.7), "user 0.7"),
        (lambda m: build_preference_table(m, 0.7, EMPTY_NBRS, range(3)), "user 0.7"),
    ],
)
def test_non_integral_ids_and_k_rejected(call, named):
    # before: 1.5 ranked service 1, u=0.7 ranked user 0, "a" and k=2.9 raised
    # a bare ValueError / TypeError
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8], [0.3, np.nan, 0.1]]))
    with pytest.raises(DomainError, match=f"{re.escape(named)} is not an integer"):
        call(m)


def test_numpy_integer_ids_and_k_accepted():
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8], [0.3, np.nan, 0.1]]))
    got = rank(RankerKind.CLOUDRANK2, m, np.int64(2), np.int32(2), np.arange(3))
    assert got == rank(RankerKind.CLOUDRANK2, m, 2, 2, [0, 1, 2])

def test_split_batch_memory_bounded(rng):
    # 8 active users over 400 candidates: BATCH_ELEMS keeps one user per
    # batch (peak ~6 MB); the 8 users in one batch peak at ~40 MB
    values = rng.uniform(0.1, 2.0, (300, 400))
    values[rng.uniform(size=values.shape) > 0.3] = np.nan
    active = tuple(range(8))
    spec = SplitSpec(density=0.3, seed=1, active_users=active)
    train, _ = split_train_test(QoSMatrix(values), spec)
    kinds = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2)
    tracemalloc.start()
    try:
        ranked = len(rank_users(kinds, train, active, 10, range(400)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranked == 8
    assert peak < 12 * 2**20


def test_correction_matches_oracle_bit_for_bit(rng):
    # a (users, rows, n) stack against the one-ranking reference: 3 signed
    # value levels tie often (0.0 and -0.0 among them), user 0 observes no
    # candidate, user 1 every service, and non-candidate services exist
    for _ in range(30):
        users, services = int(rng.integers(2, 7)), int(rng.integers(2, 12))
        values = rng.integers(0, 3, (users, services)) * rng.choice([-1.0, 1.0], (users, services))
        values[rng.uniform(size=values.shape) < 0.5] = np.nan
        values[1] = rng.integers(0, 3, services)
        size = int(rng.integers(1, services + 1))
        cands = np.sort(rng.choice(services, size=size, replace=False))
        values[0, cands] = np.nan
        m = QoSMatrix(values)
        batch = rng.permutation(users)
        orders = np.array([[rng.permutation(cands) for _ in range(3)] for _ in batch])
        fixed = ranker.correct_orders(orders, m, batch)
        for b, u in enumerate(batch.tolist()):
            for order, got in zip(orders[b].tolist(), fixed[b].tolist()):
                want = oracle_correct_observed_order(order, m, u)
                assert tuple(got) == want
                assert correct_observed_order(Ranking(u, tuple(order)), m, u).order == want


def test_correct_rejects_service_outside_matrix():
    m = QoSMatrix(np.array([[0.2, 0.9]]))
    with pytest.raises(DomainError, match="outside"):
        correct_observed_order(Ranking(active=0, order=(1, -1)), m, 0)
    assert correct_observed_order(Ranking(active=0, order=()), m, 0).order == ()


def test_rank_orders_stack_matches_rank_users(rng):
    m = random_sparse_matrix(rng, 8, 6, 0.6)
    kinds = (RankerKind.RANDOM_BASELINE, RankerKind.CLOUDRANK2, RankerKind.CLOUDRANK1)
    orders = ranker.rank_orders(kinds, m, [3, 0, 5], 4, range(6), seed=9)
    assert orders.shape == (3, 3, 6)
    for by_kind, row in zip(rank_users(kinds, m, [3, 0, 5], 4, range(6), seed=9), orders):
        assert [by_kind[kind].order for kind in kinds] == [tuple(r) for r in row.tolist()]


def test_rank_orders_rejects_duplicates(monkeypatch, rng):
    m = random_sparse_matrix(rng, 6, 5, 0.7)
    real = ranker.greedy_orders

    def duplicated(effective):
        positions = real(effective)
        positions[:, -1] = positions[:, 0]
        return positions

    monkeypatch.setattr(ranker, "greedy_orders", duplicated)
    with pytest.raises(DomainError, match="ranking contains duplicate services"):
        ranker.rank_orders((RankerKind.CLOUDRANK1,), m, [0, 1], 3, range(5))
