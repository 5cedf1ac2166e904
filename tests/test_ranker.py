import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from qosrank import ranker
from qosrank.errors import DomainError
from qosrank.matrix import QoSMatrix, split_train_test
from qosrank.ranker import RankerKind, Ranking, correct_orders, greedy_orders, rank, rank_orders
from qosrank.similarity import similarity_block, top_neighbors

from conftest import random_sparse_matrix
from oracles import (
    neighbors_of,
    one_table,
    oracle_correct_observed_order,
    oracle_greedy_orders,
    top_k,
)


def explicit_table(values, candidates=None):
    """The all-explicit table of a one-user matrix over `candidates`, which
    are ascending; its candidate ids."""
    m = QoSMatrix(np.array([values], dtype=float))
    cands = tuple(candidates or range(len(values)))
    return one_table(m, 0, neighbors_of(()), cands), cands


def effective_of(table, weighted=False):
    values, confidences, _ = table
    return confidences * values if weighted else values


def greedy(table, cands, weighted=False):
    """The greedy order of the candidate ids: `greedy_orders` for one table."""
    positions = greedy_orders(effective_of(table, weighted)[None])[0]
    return tuple(np.array(cands)[positions].tolist())


def correct(order, m, u):
    """`order` after the observed-order correction: `correct_orders` for one
    ranking."""
    fixed = correct_orders(np.array(order, dtype=np.intp)[None, None], m, np.array([u]))
    return tuple(fixed[0, 0].tolist())


def agreement_score(order, table, cands, weighted=False):
    """Sum of pairwise preferences realized by ranking `order`."""
    effective = effective_of(table, weighted)
    idx = {s: cands.index(s) for s in order}
    total = 0.0
    for a, b in itertools.combinations(order, 2):
        total += effective[idx[a], idx[b]]
    return total


def pipeline_table(rng, num_services=4):
    """A table of the pipeline's stages for a random user: its top-4
    neighbours' preferences over every service; the candidate ids."""
    m = random_sparse_matrix(rng, 6, num_services, float(rng.uniform(0.5, 0.9)))
    u = int(rng.integers(6))
    cands = tuple(range(num_services))
    return one_table(m, u, top_k(m, u, 4), cands), cands


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


def recompute_greedy(table, cands, weighted=False):
    """The oracle's order of a table's candidates."""
    return tuple(cands[i] for i in recompute_positions(effective_of(table, weighted)))


def test_single_candidate():
    table, cands = explicit_table([0.7], candidates=[0])
    assert greedy(table, cands) == (0,)


def test_explicit_ordering_matches_values():
    table, cands = explicit_table([0.9, 0.5, 0.7])
    assert greedy(table, cands) == (0, 2, 1)


def test_all_unknown_falls_back_to_ascending_ids():
    m = QoSMatrix(np.full((1, 4), np.nan))
    table = one_table(m, 0, neighbors_of(()), range(4))
    assert greedy(table, range(4)) == (0, 1, 2, 3)


def test_greedy_is_globally_optimal_on_explicit_tables(rng):
    # with every pair explicit the sums are additive in the raw values, so
    # greedy is exactly the brute-force optimum and no transposition helps
    for _ in range(100):
        table, cands = explicit_table(rng.uniform(0, 1, 4).tolist())
        order = list(greedy(table, cands))
        score = agreement_score(order, table, cands)
        best = max(
            agreement_score(perm, table, cands) for perm in itertools.permutations(range(4))
        )
        assert score == pytest.approx(best, abs=1e-12)
        for p in range(len(order) - 1):
            neighbor = order.copy()
            neighbor[p], neighbor[p + 1] = neighbor[p + 1], neighbor[p]
            assert score >= agreement_score(neighbor, table, cands) - 1e-12


def test_greedy_final_pair_is_locally_optimal(rng):
    # mixed explicit/implicit tables are not additive and greedy may lose to
    # an adjacent swap higher up, but the last two picks never benefit from
    # swapping: the later one had the smaller pairwise preference
    for _ in range(100):
        table, cands = pipeline_table(rng, 4)
        for weighted in (False, True):
            order = greedy(table, cands, weighted=weighted)
            a, b = order[-2], order[-1]
            effective = effective_of(table, weighted)
            assert effective[cands.index(a), cands.index(b)] >= -1e-9


def test_incremental_equals_recompute(rng):
    for _ in range(300):
        n = int(rng.integers(2, 9))
        table, cands = pipeline_table(rng, n)
        for weighted in (False, True):
            incremental = greedy(table, cands, weighted=weighted)
            assert incremental == recompute_greedy(table, cands, weighted)


def test_greedy_orders_rows_match_recompute_oracle(rng):
    # stacks of 1 to 6 tables fall on both sides of SHORT_STACK
    for _ in range(60):
        n = int(rng.integers(1, 9))
        pool = []
        for table, _ in (pipeline_table(rng, n) for _ in range(3)):
            pool += [effective_of(table), effective_of(table, weighted=True)]
        levels = rng.integers(-2, 3, (n, n)).astype(float)  # exact ties in the sums
        pool += [levels - levels.T, np.zeros((n, n))]  # the last one all unknown
        for height in range(1, 7):
            effective = np.stack([pool[i] for i in rng.choice(len(pool), height, replace=False)])
            expected = [recompute_positions(table) for table in effective]
            assert greedy_orders(effective).tolist() == expected
            assert oracle_greedy_orders(effective).tolist() == expected


def test_greedy_orders_tie_within_tolerance_goes_to_smaller_position():
    # sums 1 - 5e-13, 1 + 5e-13 and -2: the first two tie within TIE_TOLERANCE,
    # so the argmax at position 1 gives way to position 0. `swapped` swaps
    # positions 0 and 1: its argmax is position 0 with a tie behind it, the
    # round that skips the tie compare.
    tied = np.array([[0.0, -5e-13, 1.0], [5e-13, 0.0, 1.0], [-1.0, -1.0, 0.0]])
    swapped = tied[[1, 0, 2]][:, [1, 0, 2]]
    tables = [tied, -tied, swapped, -swapped, np.zeros((3, 3))]
    expected = [[0, 1, 2], [2, 0, 1], [0, 1, 2], [2, 0, 1], [0, 1, 2]]
    assert [recompute_positions(table) for table in tables] == expected
    for height in range(1, 7):
        for start in range(len(tables)):
            chosen = [(start + k) % len(tables) for k in range(height)]
            effective = np.stack([tables[c] for c in chosen])
            want = [expected[c] for c in chosen]
            assert greedy_orders(effective).tolist() == want
            assert oracle_greedy_orders(effective).tolist() == want


def test_greedy_permutation_safety(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        table, cands = pipeline_table(rng, n)
        order = greedy(table, cands)
        assert sorted(order) == list(range(n))


def test_correct_observed_order_two_element():
    m = QoSMatrix(np.array([[0.2, 0.9, np.nan]]))
    assert correct((0, 2, 1), m, 0) == (1, 2, 0)  # a, x, b -> b, x, a


def test_correct_no_observations_is_identity():
    m = QoSMatrix(np.full((1, 3), np.nan))
    assert correct((2, 0, 1), m, 0) == (2, 0, 1)


def test_correct_all_observed_sorts_by_qos(rng):
    values = rng.uniform(0, 1, (1, 6))
    m = QoSMatrix(values)
    fixed = correct(rng.permutation(6), m, 0)
    assert list(fixed) == sorted(range(6), key=lambda s: -values[0, s])


def test_correct_explicit_consistency(rng):
    for _ in range(30):
        m = random_sparse_matrix(rng, 5, 8, 0.5)
        u = int(rng.integers(5))
        r = rank(RankerKind.CLOUDRANK1, m, u, 3, range(8))
        position = {s: p for p, s in enumerate(r.order)}
        observed = np.flatnonzero(m.observed_mask[u]).tolist()
        for i, j in itertools.combinations(observed, 2):
            if m.values[u, i] > m.values[u, j]:
                assert position[i] < position[j]
            elif m.values[u, i] < m.values[u, j]:
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
    # one shared similarity column and table must give what separate runs give
    for _ in range(30):
        users, services = int(rng.integers(2, 9)), int(rng.integers(1, 10))
        m = random_sparse_matrix(rng, users, services, float(rng.uniform(0.2, 0.9)))
        u = int(rng.integers(users))
        cands = rng.choice(services, size=int(rng.integers(1, services + 1)), replace=False)
        [got] = rank_orders(tuple(RankerKind), m, [u], 3, cands, seed=9).tolist()
        assert len(got) == len(RankerKind)
        for kind, order in zip(RankerKind, got):
            assert Ranking(u, tuple(order)) == rank(kind, m, u, 3, cands, seed=9)


def test_rank_orders_every_kind_order_matches_rank(rng):
    # the CloudRank tables sit kind-major in one block; every ordered subset
    # of the kinds maps each row back to its own kind
    kind_orders = [
        order
        for size in range(1, len(RankerKind) + 1)
        for order in itertools.permutations(RankerKind, size)
    ]
    for trial in range(12):
        users, services = int(rng.integers(2, 9)), int(rng.integers(1, 10))
        m = random_sparse_matrix(rng, users, services, float(rng.uniform(0.2, 0.9)))
        active = rng.choice(users, size=int(rng.integers(1, users + 1)), replace=False).tolist()
        cands = rng.choice(services, size=int(rng.integers(1, services + 1)), replace=False)
        alone = {
            (u, kind): rank(kind, m, u, 3, cands, seed=9).order for u in active for kind in RankerKind
        }
        for kinds in kind_orders:
            got = rank_orders(kinds, m, active, 3, cands, seed=9)
            assert got.shape == (len(active), len(kinds), len(set(cands.tolist())))
            for u, by_kind in zip(active, got.tolist()):
                assert [tuple(order) for order in by_kind] == [alone[u, kind] for kind in kinds]


# SHA-256 of the int64 (users, kinds, n) orders of every user of
# one_request_matrix with (cloudrank1, cloudrank2), k = 10; pinned while
# greedy ran the loops of `oracle_greedy_orders`.
ONE_REQUEST_ORDERS_SHA256 = "9a7eb4906a97ca911245b194d03aa3081430dba7f65ef38795597ab373fc1db4"


def one_request_matrix():
    """A seeded 40 x 400 matrix at 30% density whose values take 8 levels, so
    that similarities and preference sums tie; every fourth service is a
    candidate."""
    rng = np.random.default_rng(14)
    values = rng.integers(0, 8, (40, 400)) / 4.0
    values[rng.random((40, 400)) >= 0.3] = np.nan
    return QoSMatrix(values), range(0, 400, 4)


def test_one_request_and_batched_orders_are_pinned(monkeypatch):
    # rank() greedy-orders stacks of one table, a batch of one user stacks of
    # two, and the default batch (13 users of 100 candidates) stacks of 26
    m, cands = one_request_matrix()
    kinds = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2)
    users = range(m.num_users)
    alone = np.array([[rank(kind, m, u, 10, cands).order for kind in kinds] for u in users])
    long_stacks = rank_orders(kinds, m, users, 10, cands)
    monkeypatch.setattr(ranker, "BATCH_ELEMS", 1)
    pairs = rank_orders(kinds, m, users, 10, cands)
    for orders in (alone, pairs, long_stacks):
        digest = hashlib.sha256(orders.astype(np.int64).tobytes()).hexdigest()
        assert digest == ONE_REQUEST_ORDERS_SHA256


def test_rank_determinism(rng):
    m = random_sparse_matrix(rng, 6, 8, 0.5)
    for kind in RankerKind:
        a = rank(kind, m, 2, 3, range(8), seed=5)
        b = rank(kind, m, 2, 3, range(8), seed=5)
        assert a == b


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
        got = rank_orders(kinds, m, active, k, cands, seed=9)
        assert got.shape == (len(active), len(kinds), size)
        for u, by_kind in zip(active, got.tolist()):
            for kind, order in zip(kinds, by_kind):
                assert Ranking(u, tuple(order)) == rank(kind, m, u, k, cands, seed=9)


def test_rank_users_rejects_bad_arguments(rng):
    m = random_sparse_matrix(rng, 3, 4, 0.8)
    with pytest.raises(DomainError):
        rank_orders(tuple(RankerKind), m, [0, 3], 2, range(4))
    with pytest.raises(DomainError):
        rank_orders(tuple(RankerKind), m, [0], 2, [])
    assert rank_orders(tuple(RankerKind), m, [], 2, range(4)).shape == (0, 3, 4)


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
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0, 2, [1, True]), "candidate service True"),
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0.7, 2, range(3)), "user 0.7"),
        (lambda m: rank_orders(tuple(RankerKind), m, [1, np.float64(0.0)], 2, range(3)),
         f"user {np.float64(0.0)!r}"),
        (lambda m: rank_orders((RankerKind.CLOUDRANK1,), m, [0.5], 2, range(3)), "user 0.5"),
        (lambda m: rank(RankerKind.CLOUDRANK2, m, 0, 2.9, range(3)), "neighborhood size 2.9"),
        # similarity_block trusts its ids: the batch that feeds it is checked first
        (lambda m: rank_orders((RankerKind.CLOUDRANK2,), m, [1, 0.7], 2, range(3)), "user 0.7"),
        (lambda m: rank_orders((RankerKind.RANDOM_BASELINE,), m, [0.7], 2, range(3)), "user 0.7"),
    ],
)
def test_non_integral_ids_and_k_rejected(call, named):
    # before: 1.5 ranked service 1, u=0.7 ranked user 0, "a" and k=2.9 raised
    # a bare ValueError / TypeError
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8], [0.3, np.nan, 0.1]]))
    with pytest.raises(DomainError, match=f"{re.escape(named)} is not an integer"):
        call(m)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: rank_orders((RankerKind.RANDOM_BASELINE,), m, [0], 2.9, range(3)),
         "neighborhood size 2.9 is not an integer"),
        (lambda m: rank_orders((RankerKind.RANDOM_BASELINE,), m, [0], -5, range(3)),
         "neighborhood size must be >= 0, got -5"),
        (lambda m: rank(RankerKind.RANDOM_BASELINE, m, 0, -5, range(3)),
         "neighborhood size must be >= 0, got -5"),
        (lambda m: rank_orders(tuple(RankerKind), m, [0, 1], -1, range(3)),
         "neighborhood size must be >= 0, got -1"),
    ],
)
def test_k_checked_for_every_kind(call, message):
    # before: the random baseline, which reads no neighbours, ranked with
    # any k; only the CloudRank kinds checked it, once per batch
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8], [0.3, np.nan, 0.1]]))
    with pytest.raises(DomainError, match=re.escape(message)):
        call(m)


def test_kind_names_rank_as_members(rng):
    # before: a kind that was not a RankerKind member ranked as cloudrank2,
    # so "cloudrank1" gave cloudrank2's rows and "random-baseline" a greedy
    # order
    m = random_sparse_matrix(rng, 8, 12, 0.5)
    members = tuple(RankerKind)
    want = rank_orders(members, m, range(8), 3, range(12), seed=5)
    names = tuple(kind.value for kind in members)
    assert rank_orders(names, m, range(8), 3, range(12), seed=5).tobytes() == want.tobytes()
    assert rank_orders(("random",), m, range(8), 3, range(12), seed=5).tobytes() == (
        want[:, 2:].tobytes()
    )
    for b, kind in enumerate(members):
        assert rank(kind.value, m, 1, 3, range(12), seed=5).order == tuple(want[1, b].tolist())


@pytest.mark.parametrize("bad", [7, None, ["x"], "CLOUDRANK1"])
def test_unknown_kind_rejected(bad):
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8]]))
    with pytest.raises(DomainError, match=re.escape(f"unknown ranker kind {bad!r}")):
        rank_orders((RankerKind.CLOUDRANK2, bad), m, [0], 1, range(3))
    with pytest.raises(DomainError, match="unknown ranker kind"):
        rank(bad, m, 0, 1, range(3))


def test_numpy_integer_ids_and_k_accepted():
    m = QoSMatrix(np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8], [0.3, np.nan, 0.1]]))
    got = rank(RankerKind.CLOUDRANK2, m, np.int64(2), np.int32(2), np.arange(3))
    assert got == rank(RankerKind.CLOUDRANK2, m, 2, 2, [0, 1, 2])

def test_split_batch_memory_bounded(rng):
    # 8 active users over 400 candidates: BATCH_ELEMS keeps one user per
    # batch (peak 5.5 MB with an effective copy of the tables, 4.2 MB with
    # cloudrank2's table formed in place); the 8 users in one batch peak at
    # ~40 MB
    values = rng.uniform(0.1, 2.0, (300, 400))
    values[rng.uniform(size=values.shape) > 0.3] = np.nan
    active = tuple(range(8))
    train, _ = split_train_test(QoSMatrix(values), 0.3, 1, active)
    kinds = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2)
    tracemalloc.start()
    try:
        ranked = len(rank_orders(kinds, train, active, 10, range(400)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranked == 8
    assert peak < 5 * 2**20


def test_dense_user_memory_bounded():
    # one user of a 60 x 1000 matrix at 30% who observes every service, both
    # kinds over all 1000 candidates: the three (n, n) float64 arrays take
    # 22.9 MB. Peaks measured at 54.67 MB when the explicit pairs were
    # written through int64 index arrays with one entry per pair, and
    # 24.24 MB with one (n, n) bool mask of the observed x observed pairs
    rng = np.random.default_rng(20261021)
    values = rng.uniform(0.1, 2.0, (60, 1000))
    values[rng.uniform(size=values.shape) > 0.3] = np.nan
    values[0] = rng.uniform(0.1, 2.0, 1000)
    m = QoSMatrix(values)
    kinds = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2)
    tracemalloc.start()
    try:
        ranked = rank_orders(kinds, m, [0], 10, range(1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranked.shape == (1, 2, 1000)
    assert peak < 30 * 2**20


def mixed_count_matrix():
    """16 users over 200 services whose Top-10 neighbour counts differ: users
    2..15 rise with the service id (30% observed past service 3, so each has
    10 or more positively similar users) but fall on services 0..3, except that user
    2 rises on 0, 1 and users 2, 3, 4 rise on 2, 3. User 0 observes only
    services 0 and 1, rising (1 neighbour), and user 1 only 2 and 3 (3)."""
    rng = np.random.default_rng(27)
    values = np.arange(200.0) + rng.normal(0.0, 20.0, (16, 200))
    values[2:, 0:4] = [4.0, 3.0, 2.0, 1.0]
    values[2, 0:2] = [3.0, 4.0]
    values[2:5, 2:4] = [1.0, 2.0]
    values[:, 4:][rng.uniform(size=(16, 196)) > 0.3] = np.nan
    values[0:2] = np.nan
    values[0, 0:2] = values[1, 2:4] = [1.0, 2.0]
    return QoSMatrix(values)


def test_mixed_count_batch_memory_bounded():
    # one CloudRank2 batch of 4 users over 200 candidates (BATCH_ELEMS keeps
    # them in one batch) with neighbour counts [1, 10, 10, 10]: the three
    # (n, n) float64 arrays per user take 3.66 MB. Peaks measured at 7.44 MB
    # when each count group's products went to three fresh (g, n, n) arrays
    # and were scattered back, and 4.41 MB with every run of one count
    # written in place
    m, batch = mixed_count_matrix(), [0, 2, 3, 4]
    assert top_neighbors(similarity_block(m, batch), 10)[2].tolist() == [1, 10, 10, 10]
    tracemalloc.start()
    try:
        ranked = rank_orders((RankerKind.CLOUDRANK2,), m, batch, 10, range(200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranked.shape == (4, 1, 200)
    assert peak < 6 * 2**20


def test_interleaved_neighbour_counts_rank_as_alone(monkeypatch):
    # one batch, users not in id order, whose neighbour counts interleave:
    # the tables are built in count order and the rows come back in the
    # batch's order, each byte-equal to its user ranked alone
    m, batch = mixed_count_matrix(), [3, 0, 5, 1]
    assert top_neighbors(similarity_block(m, batch), 10)[2].tolist() == [10, 1, 10, 3]
    monkeypatch.setattr(ranker, "BATCH_ELEMS", 1 << 40)  # one batch
    kinds = tuple(RankerKind)
    got = rank_orders(kinds, m, batch, 10, range(200), seed=3)
    for row, u in zip(got, batch):
        assert row.tobytes() == rank_orders(kinds, m, [u], 10, range(200), seed=3)[0].tobytes()


def test_one_query_memory_bounded():
    # one user of a 300 x 400 matrix at 30%, both kinds over all 400
    # candidates: the tables take three 1.3 MB arrays. Peaks measured at
    # 20.5 MB for the query and for its similarity column when a chunk of
    # 2^20 elements of the whole matrix was gathered; 4.6 and 1.4 MB now
    rng = np.random.default_rng(20260810)
    values = -rng.uniform(0.0, 1.0, (300, 400))
    values[rng.uniform(size=values.shape) > 0.3] = np.nan
    m = QoSMatrix(values)
    kinds = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2)
    for call, bound in (
        (lambda: rank_orders(kinds, m, [0], 10, range(400)), 6),
        (lambda: similarity_block(m, [0]), 2),
    ):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20


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
        fixed = correct_orders(orders, m, batch)
        # only observed slots move: the withheld services scoring reads stay put
        unobserved = ~m.observed_mask[batch[:, None, None], orders]
        assert np.array_equal(fixed[unobserved], orders[unobserved])
        for b, u in enumerate(batch.tolist()):
            for order, got in zip(orders[b].tolist(), fixed[b].tolist()):
                want = oracle_correct_observed_order(order, m, u)
                assert tuple(got) == want
                assert correct(order, m, u) == want


def test_rank_orders_stack_matches_rank_users(rng):
    # the random baseline first, then the CloudRank kinds in reverse order
    m = random_sparse_matrix(rng, 8, 6, 0.6)
    kinds = (RankerKind.RANDOM_BASELINE, RankerKind.CLOUDRANK2, RankerKind.CLOUDRANK1)
    orders = rank_orders(kinds, m, [3, 0, 5], 4, range(6), seed=9)
    assert orders.shape == (3, 3, 6)
    for u, row in zip([3, 0, 5], orders.tolist()):
        assert [rank(kind, m, u, 4, range(6), seed=9).order for kind in kinds] == [
            tuple(r) for r in row
        ]


def test_rank_orders_rejects_duplicates(monkeypatch, rng):
    m = random_sparse_matrix(rng, 6, 5, 0.7)
    real = ranker.greedy_orders

    def duplicated(effective):
        positions = real(effective)
        positions[:, -1] = positions[:, 0]
        return positions

    monkeypatch.setattr(ranker, "greedy_orders", duplicated)
    with pytest.raises(DomainError, match="ranking contains duplicate services"):
        rank_orders((RankerKind.CLOUDRANK1,), m, [0, 1], 3, range(5))


DELETED_NAMES = (
    "similarity_row", "select_neighbors", "SimilarityRow", "Neighborhood",
    "build_preference_table", "PreferenceTable", "Provenance", "greedy_rank",
    "correct_observed_order", "kendall_tau_score", "RankScore", "rank_users",
    "rank_kinds", "default_scenario", "scenario_to_dict", "Cloudlet", "simulate_qos",
    "effective_mips", "as_bool", "LOAD_BLOCK",
)


def test_package_exports_rank_orders_and_no_one_user_wrappers():
    # the pipeline runs each stage once per batch; one-user copies of the
    # stages and their result types must not come back
    import qosrank
    from qosrank import allocsim, matrix, metrics, preference, similarity

    assert qosrank.rank_orders is rank_orders
    for module in (qosrank, allocsim, matrix, metrics, preference, ranker, similarity):
        assert [name for name in DELETED_NAMES if hasattr(module, name)] == []
    gone = ("observed_set", "value", "from_entries")
    assert [name for name in gone if hasattr(QoSMatrix, name)] == []
