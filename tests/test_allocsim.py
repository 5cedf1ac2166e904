import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from qosrank.allocsim import (
    AllocationPlan,
    AllocPolicy,
    Scenario,
    allocate,
    load_scenario,
    scenario_from_dict,
    synth_matrix,
    write_plan_csv,
)
from qosrank.errors import AllocationError, ConfigError, DomainError
from qosrank.matrix import QoSMatrix
from qosrank.seeding import derive_rng
from qosrank.similarity import similarity_block

from conftest import CONFIG_DIR, committed_scenario
from oracles import oracle_allocate


def host(mips, ram=10000.0, bw=10000.0):
    return (mips, ram, bw)


def vm(mips, ram=1.0, bw=1.0):
    return (mips, ram, bw)


def small_scenario(vm_mips, lengths, host_count=1, host_mips=10000.0):
    """Round-robin scenario of 10000 MB / 10000 Mbps hosts and 1 MB / 1 Mbps VMs."""
    return Scenario(
        host_count=host_count,
        host_mips=host_mips,
        host_ram=10000.0,
        host_bw=10000.0,
        vm_specs=tuple((m, 1.0, 1.0) for m in vm_mips),
        cloudlet_lengths=tuple(lengths),
        policy=AllocPolicy.ROUND_ROBIN,
        num_users=2,
        seed=0,
        noise_amplitude=0.02,
        user_factor_range=(0.8, 1.2),
    )


def random_fixture(seed, load=0.7):
    """Seeded scenario whose VMs all fit under either policy: total demand at
    `load` of capacity with every VM at most a quarter of one host."""
    rng = derive_rng(4000, seed)
    host_count = int(rng.integers(3, 6))
    budget = load * 2000.0 * host_count
    sizes = []
    while budget > 500.0:
        sizes.append(float(rng.integers(100, 501)))
        budget -= sizes[-1]
    lengths = [float(rng.integers(500, 2000)) for _ in sizes]
    return small_scenario(sizes, lengths, host_count=host_count, host_mips=2000.0)


def test_best_fit_single_host_overflow():
    plan = allocate([host(1000.0)], [vm(600.0), vm(500.0)], AllocPolicy.BEST_FIT_DECREASING)
    assert plan.vm_to_host == {0: 0}
    assert plan.unplaced == (1,)


def test_best_fit_second_host_takes_overflow():
    plan = allocate(
        [host(1000.0), host(1000.0)],
        [vm(600.0), vm(500.0)],
        AllocPolicy.BEST_FIT_DECREASING,
    )
    assert plan.vm_to_host == {0: 0, 1: 1}
    assert plan.unplaced == ()


def test_best_fit_decreasing_hand_simulation():
    plan = allocate(
        [host(1000.0), host(1000.0)],
        [vm(700.0), vm(300.0), vm(300.0)],
        AllocPolicy.BEST_FIT_DECREASING,
    )
    # 700 -> host0, then 300 -> host0 (remaining 0 is minimal), 300 -> host1
    assert plan.vm_to_host == {0: 0, 1: 0, 2: 1}


def test_round_robin_cycles_hosts():
    hosts = [host(1000.0)] * 3
    vms = [vm(100.0)] * 7
    plan = allocate(hosts, vms, AllocPolicy.ROUND_ROBIN)
    assert plan.vm_to_host == {k: k % 3 for k in range(7)}


def test_round_robin_skips_full_hosts():
    hosts = [host(100.0), host(1000.0)]
    vms = [vm(90.0), vm(500.0), vm(90.0)]
    plan = allocate(hosts, vms, AllocPolicy.ROUND_ROBIN)
    # vm2 starts at host 0 (2 mod 2) which has 10 mips left, walks to host 1
    assert plan.vm_to_host[2] == 1


def test_capacity_never_exceeded_any_dimension():
    rng = derive_rng(12)
    for trial in range(30):
        hosts = [
            (float(rng.integers(500, 2000)), float(rng.integers(1000, 4000)),
             float(rng.integers(100, 500)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        vms = [
            (float(rng.integers(50, 900)), float(rng.integers(100, 2000)),
             float(rng.integers(10, 300)))
            for _ in range(int(rng.integers(3, 12)))
        ]
        for policy in AllocPolicy:
            try:
                plan = allocate(hosts, vms, policy)
            except AllocationError:
                continue
            for h, capacity in enumerate(hosts):
                resident = [vms[k] for k, hid in plan.vm_to_host.items() if hid == h]
                for dim in range(3):
                    assert sum(v[dim] for v in resident) <= capacity[dim]


def test_allocation_error_when_nothing_fits():
    with pytest.raises(AllocationError) as err:
        allocate([host(100.0)], [vm(500.0), vm(900.0)], AllocPolicy.ROUND_ROBIN)
    assert err.value.offenders == [0, 1]


def test_allocate_requires_inputs():
    with pytest.raises(DomainError):
        allocate([], [vm(10.0)], AllocPolicy.ROUND_ROBIN)
    with pytest.raises(DomainError):
        allocate([host(10.0)], [], AllocPolicy.ROUND_ROBIN)
    with pytest.raises(ConfigError, match="unknown allocation policy 'round-robin'"):
        allocate([host(10.0)], [vm(1.0)], "round-robin")


def oracle_fixture(seed):
    """Seeded hosts and VMs sized in whole steps of 0.1, 0.25 or 1, the last
    as Python ints: a host's room left often equals a later request exactly
    or misses it by a rounding error, and hosts of one size tie in best fit."""
    rng = derive_rng(5000, seed)
    step = (0.1, 0.25, 1)[seed % 3]
    size = int if step == 1 else (lambda k: int(k) * step)
    first = rng.integers(4, 13, 3)
    hosts = [
        tuple(size(k) for k in (rng.integers(4, 13, 3) if rng.random() < 0.3 else first))
        for _ in range(int(rng.integers(1, 5)))
    ]
    vms = [tuple(size(u) for u in rng.integers(1, 5, 3)) for _ in range(int(rng.integers(1, 16)))]
    return hosts, vms


# Hand fixtures: an exact fit after two non-integral subtractions (1.5 - 0.75
# - 0.5 leaves 0.25), a fit that rounding denies (0.3 - 0.1 < 0.2), equal
# leftovers on identical hosts, int-typed capacities and requests, and an int
# request that fits only as float64: 2**53 + 1 rounds to the host's 2**53.
HAND_FIXTURES = [
    ([(1.5, 1.5, 1.5)], [(m, m, m) for m in (0.75, 0.5, 0.25)]),
    ([(0.3, 1.0, 1.0)], [(0.1, 0.1, 0.1), (0.2, 0.1, 0.1)]),
    ([host(1.0)] * 3, [vm(0.5)] * 5),
    ([(1000, 2048, 1000)] * 2, [(250, 512, 100 * k + 1) for k in range(9)]),
    ([(2**53, 1, 1)], [(2**53 + 1, 1, 1), (1, 1, 1)]),
]


@pytest.mark.parametrize("policy", list(AllocPolicy), ids=lambda p: p.value)
def test_allocate_matches_vector_oracle(policy):
    fixtures = HAND_FIXTURES + [oracle_fixture(seed) for seed in range(300)]
    for hosts, vms in fixtures:
        want = oracle_allocate(hosts, vms, policy)
        plan = allocate(hosts, vms, policy)
        assert plan.vm_to_host == want.vm_to_host
        assert plan.unplaced == want.unplaced
    assert allocate(*HAND_FIXTURES[0], policy).vm_to_host == {0: 0, 1: 0, 2: 0}
    assert len(allocate(*HAND_FIXTURES[1], policy).unplaced) == 1


def test_response_time_is_length_over_mips():
    _, plan = synth_matrix(small_scenario([250.0], [500.0]))
    assert plan.response_time[0] == 2.0
    assert plan.throughput[0] == 0.5


def test_throughput_is_exact_reciprocal():
    for seed in range(10):
        _, plan = synth_matrix(random_fixture(seed), AllocPolicy.BEST_FIT_DECREASING)
        for service, rt in plan.response_time.items():
            assert plan.throughput[service] == 1.0 / rt


def test_policy_comparison_on_seeded_fixtures():
    """Best fit never does worse than round robin on the fixture suite:
    placed-VM counts and mean response time."""
    for seed in range(20):
        fixture = random_fixture(seed)
        means = {}
        placed = {}
        for policy in AllocPolicy:
            _, plan = synth_matrix(fixture, policy)
            means[policy] = sum(plan.response_time.values()) / len(plan.response_time)
            placed[policy] = len(plan.vm_to_host)
        assert placed[AllocPolicy.BEST_FIT_DECREASING] >= placed[AllocPolicy.ROUND_ROBIN]
        assert means[AllocPolicy.BEST_FIT_DECREASING] <= means[AllocPolicy.ROUND_ROBIN]


def test_default_scenario_policy_effect():
    scenario = committed_scenario()
    bf_matrix, bf_plan = synth_matrix(scenario, AllocPolicy.BEST_FIT_DECREASING)
    rr_matrix, rr_plan = synth_matrix(scenario, AllocPolicy.ROUND_ROBIN)
    assert bf_plan.unplaced == ()
    assert len(rr_plan.unplaced) == 1
    assert bf_matrix != rr_matrix
    bf_mean = sum(bf_plan.response_time.values()) / len(bf_plan.response_time)
    rr_mean = sum(rr_plan.response_time.values()) / len(rr_plan.response_time)
    assert bf_mean <= rr_mean
    # the identity holds exactly on the committed scenario values
    for plan in (bf_plan, rr_plan):
        for service, rt in plan.response_time.items():
            assert rt * plan.throughput[service] == 1.0


# sha256 of values.tobytes(), unplaced VMs and repr of the summed response
# times of the committed scenario under each policy
PINNED_BUILDS = {
    AllocPolicy.ROUND_ROBIN: (
        "fbd4980ffca000113a313f134d9a05c5aae15db1554ff15ff750f92194cbac0f",
        (29,),
        "81.79729124771214",
    ),
    AllocPolicy.BEST_FIT_DECREASING: (
        "dd0ac28e16611f7e4c53184a3bda048df0f94693b56ef748ee5a12a15deffa3d",
        (),
        "82.90840235882325",
    ),
}


@pytest.mark.parametrize("policy", list(PINNED_BUILDS), ids=lambda p: p.value)
def test_committed_scenario_build_is_pinned(policy):
    matrix, plan = synth_matrix(committed_scenario(), policy)
    digest, unplaced, rt_sum = PINNED_BUILDS[policy]
    assert hashlib.sha256(matrix.values.tobytes()).hexdigest() == digest
    assert plan.unplaced == unplaced
    assert repr(sum(plan.response_time.values())) == rt_sum


def synth_default(**overrides):
    return synth_matrix(
        replace(committed_scenario(), **overrides), AllocPolicy.BEST_FIT_DECREASING
    )


def test_synth_zero_noise_unit_factors_reproduce_base():
    matrix, plan = synth_default(noise_amplitude=0.0, user_factor_range=(1.0, 1.0))
    base = np.array([plan.throughput[s] for s in range(matrix.num_services)])
    for u in range(matrix.num_users):
        assert np.allclose(matrix.values[u], base, rtol=0, atol=0, equal_nan=True)


def test_synth_deterministic():
    a, _ = synth_default()
    b, _ = synth_default()
    assert a == b


def test_synth_user_rankings_track_base_ranking():
    # per-user tau against the base ordering stays high at 5% noise
    matrix, plan = synth_default(noise_amplitude=0.05)
    base_row = np.array([plan.throughput[s] for s in range(matrix.num_services)])
    stacked = QoSMatrix(np.vstack([base_row, matrix.values]))
    taus = similarity_block(stacked, (0,))[1:, 0]  # users 1.. of the stack, in order
    assert len(taus) == matrix.num_users
    assert min(taus) >= 0.8


def test_synth_skips_unplaced_services():
    scenario = committed_scenario()
    matrix, plan = synth_matrix(scenario, AllocPolicy.ROUND_ROBIN)
    missing = set(range(scenario.num_services)) - set(plan.vm_to_host)
    assert missing == {29}
    for u in range(matrix.num_users):
        assert not matrix.observed_mask[u, 29]


def test_scenario_rejects_bad_policy(tmp_path):
    raw = json.loads((CONFIG_DIR / "default_scenario.json").read_text())
    raw["policy"] = "optimal"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_write_plan_csv(tmp_path):
    plan = allocate([host(1000.0)], [vm(100.0), vm(200.0)], AllocPolicy.ROUND_ROBIN)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    assert path.read_text() == "vm_id,host_id\n0,0\n1,0\n"


def test_capacity_validation():
    for policy in AllocPolicy:
        with pytest.raises(ConfigError, match=r"^host 1: capacities must be > 0$"):
            allocate([host(10.0), host(0.0)], [vm(1.0)], policy)
        with pytest.raises(ConfigError, match=r"^vm 2: requests must be > 0$"):
            allocate([host(10.0)], [vm(1.0), vm(1.0), vm(-5.0)], policy)
        with pytest.raises(ConfigError, match=r"^vm 0: requests must be > 0$"):
            allocate([host(10.0)], [vm(1.0, float("nan"))], policy)
        # an int past float range used to end in a bare OverflowError
        with pytest.raises(ConfigError, match=r"^vm 0: requests must be three numbers"):
            allocate([host(10.0)], [vm(10**400)], policy)
        with pytest.raises(ConfigError, match=r"^host 0: capacities must be three numbers"):
            allocate([host(10.0, bw=10**400)], [vm(1.0)], policy)
        for bad in [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), ("1", 1.0, 1.0), None]:
            with pytest.raises(ConfigError, match=r"^vm 1: requests must be three numbers"):
                allocate([host(10.0)], [vm(1.0), bad], policy)
            with pytest.raises(ConfigError, match=r"^host 0: capacities must be three numbers"):
                allocate([bad], [vm(1.0)], policy)
    lengths = committed_scenario().cloudlet_lengths
    with pytest.raises(ConfigError):
        replace(committed_scenario(), cloudlet_lengths=(0.0,) + lengths[1:])


@pytest.mark.parametrize(
    "override, message",
    [
        ({"host_count": 0}, "host count and user count must be > 0"),
        ({"num_users": 0}, "host count and user count must be > 0"),
        ({"vm_specs": (), "cloudlet_lengths": ()}, "a scenario needs at least one VM"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"num_users": 10**7}, "10000000 users x 30 services is over the 50000000-cell"),
        ({"cloudlet_lengths": (1000.0,)}, "need one cloudlet length per VM"),
        ({"cloudlet_lengths": (1000.0,) * 29 + (-1.0,)}, "cloudlet lengths must be > 0"),
        ({"noise_amplitude": -0.1}, "noise amplitude must be >= 0"),
        ({"user_factor_range": (1.2, 0.8)}, "user_factor_range must be two finite numbers"),
        ({"host_mips": 0.0}, "host capacities must be > 0"),
        ({"vm_specs": ((150.0, 0.0, 100.0),) + ((150.0, 512.0, 100.0),) * 29},
         "vm 0: requests must be > 0"),
        # types, named by the scenario JSON key: a bare TypeError, a scenario
        # that failed only in synth_matrix and a bool read as 1 before
        ({"host_mips": "1"}, "hosts.mips '1' is not a finite number"),
        ({"num_users": 2.5}, "num_users 2.5 is not an integer"),
        ({"seed": 1.5}, "seed 1.5 is not an integer"),
        ({"host_count": True}, "hosts.count True is not an integer"),
        ({"vm_specs": ((150.0, 512.0, True),) * 30}, "vms.bw True is not a finite number"),
        ({"cloudlet_lengths": (1000.0,) * 29 + (float("inf"),)},
         "cloudlet length inf is not a finite number"),
        ({"user_factor_range": 1.0}, "user_factor_range must be a list, got 1.0"),
        ({"policy": "round-robin"}, "unknown allocation policy 'round-robin'"),
        # 5e-324 / mips underflows to a response time of 0.0
        ({"cloudlet_lengths": (1000.0,) * 3 + (5e-324,) * 27},
         r"vm 3: response time 0\.0 must be > 0 with a finite throughput"),
    ],
)
def test_scenario_built_in_python_is_checked(override, message):
    # the checks run on construction, so a Scenario made in Python is checked
    # as one loaded from JSON is, before synth_matrix sees it
    with pytest.raises(ConfigError, match=message):
        replace(committed_scenario(), **override)


def test_contention_key_is_ignored():
    raw = json.loads((CONFIG_DIR / "default_scenario.json").read_text())
    for value in (True, False, "false"):
        assert scenario_from_dict({**raw, "contention": value}) == committed_scenario()


def test_plan_and_scenario_carry_no_contention_layer():
    assert [f.name for f in fields(AllocationPlan)] == [
        "vm_to_host", "unplaced", "response_time", "throughput"
    ]
    assert "contention" not in [f.name for f in fields(Scenario)]
    assert not hasattr(Scenario, "build") and not hasattr(Scenario, "hosts")
