import numpy as np
import pytest

from qosrank.allocsim import (
    AllocationPlan,
    AllocPolicy,
    Cloudlet,
    Host,
    VirtualMachine,
    allocate,
    effective_mips,
    load_scenario,
    simulate_qos,
    synth_matrix,
    write_plan_csv,
)
from qosrank.errors import AllocationError, ConfigError, DomainError
from qosrank.matrix import QoSMatrix
from qosrank.seeding import derive_rng
from qosrank.similarity import similarity_block

from conftest import CONFIG_DIR, committed_scenario


def host(i, mips, ram=10000.0, bw=10000.0):
    return Host(id=i, mips_capacity=mips, ram=ram, bw=bw)


def vm(i, mips, ram=1.0, bw=1.0):
    return VirtualMachine(id=i, requested_mips=mips, requested_ram=ram, requested_bw=bw)


def random_fixture(seed, load=0.7):
    """Seeded fixture whose VMs all fit under either policy: total demand at
    `load` of capacity with every VM at most a quarter of one host."""
    rng = derive_rng(4000, seed)
    hosts = [host(i, 2000.0) for i in range(int(rng.integers(3, 6)))]
    budget = load * 2000.0 * len(hosts)
    vms = []
    while budget > 500.0:
        size = float(rng.integers(100, 501))
        vms.append(vm(len(vms), size))
        budget -= size
    cloudlets = [
        Cloudlet(id=k, service=k, length=float(rng.integers(500, 2000)), assigned_vm=k)
        for k in range(len(vms))
    ]
    return hosts, vms, cloudlets


def test_best_fit_single_host_overflow():
    plan = allocate([host(0, 1000.0)], [vm(0, 600.0), vm(1, 500.0)], AllocPolicy.BEST_FIT_DECREASING)
    assert plan.vm_to_host == {0: 0}
    assert plan.unplaced == (1,)


def test_best_fit_second_host_takes_overflow():
    plan = allocate(
        [host(0, 1000.0), host(1, 1000.0)],
        [vm(0, 600.0), vm(1, 500.0)],
        AllocPolicy.BEST_FIT_DECREASING,
    )
    assert plan.vm_to_host == {0: 0, 1: 1}
    assert plan.unplaced == ()


def test_best_fit_decreasing_hand_simulation():
    plan = allocate(
        [host(0, 1000.0), host(1, 1000.0)],
        [vm(0, 700.0), vm(1, 300.0), vm(2, 300.0)],
        AllocPolicy.BEST_FIT_DECREASING,
    )
    # 700 -> host0, then 300 -> host0 (remaining 0 is minimal), 300 -> host1
    assert plan.vm_to_host == {0: 0, 1: 0, 2: 1}


def test_round_robin_cycles_hosts():
    hosts = [host(i, 1000.0) for i in range(3)]
    vms = [vm(k, 100.0) for k in range(7)]
    plan = allocate(hosts, vms, AllocPolicy.ROUND_ROBIN)
    assert plan.vm_to_host == {k: k % 3 for k in range(7)}


def test_round_robin_skips_full_hosts():
    hosts = [host(0, 100.0), host(1, 1000.0)]
    vms = [vm(0, 90.0), vm(1, 500.0), vm(2, 90.0)]
    plan = allocate(hosts, vms, AllocPolicy.ROUND_ROBIN)
    # vm2 starts at host 0 (2 mod 2) which has 10 mips left, walks to host 1
    assert plan.vm_to_host[2] == 1


def test_capacity_never_exceeded_any_dimension():
    rng = derive_rng(12)
    for trial in range(30):
        hosts = [
            Host(
                id=i,
                mips_capacity=float(rng.integers(500, 2000)),
                ram=float(rng.integers(1000, 4000)),
                bw=float(rng.integers(100, 500)),
            )
            for i in range(int(rng.integers(2, 5)))
        ]
        vms = [
            VirtualMachine(
                id=k,
                requested_mips=float(rng.integers(50, 900)),
                requested_ram=float(rng.integers(100, 2000)),
                requested_bw=float(rng.integers(10, 300)),
            )
            for k in range(int(rng.integers(3, 12)))
        ]
        for policy in AllocPolicy:
            try:
                plan = allocate(hosts, vms, policy)
            except AllocationError:
                continue
            by_vm = {v.id: v for v in vms}
            for h in hosts:
                resident = [by_vm[v] for v, hid in plan.vm_to_host.items() if hid == h.id]
                assert sum(v.requested_mips for v in resident) <= h.mips_capacity
                assert sum(v.requested_ram for v in resident) <= h.ram
                assert sum(v.requested_bw for v in resident) <= h.bw


def test_allocation_error_when_nothing_fits():
    with pytest.raises(AllocationError) as err:
        allocate([host(0, 100.0)], [vm(0, 500.0), vm(1, 900.0)], AllocPolicy.ROUND_ROBIN)
    assert err.value.offenders == [0, 1]


def test_allocate_requires_inputs():
    with pytest.raises(DomainError):
        allocate([], [vm(0, 10.0)], AllocPolicy.ROUND_ROBIN)
    with pytest.raises(DomainError):
        allocate([host(0, 10.0)], [], AllocPolicy.ROUND_ROBIN)


def simulate_single(vm_mips, length, contention=False, cap=10000.0):
    plan = allocate([host(0, cap)], [vm(0, vm_mips)], AllocPolicy.ROUND_ROBIN)
    plan = simulate_qos(plan, [Cloudlet(0, service=0, length=length, assigned_vm=0)], contention)
    return plan


def test_response_time_is_length_over_mips():
    plan = simulate_single(250.0, 500.0)
    assert plan.response_time[0] == 2.0
    assert plan.throughput[0] == 0.5


def test_contention_shares_capacity_proportionally():
    # hand-built oversubscribed plan: two VMs requesting 800 on a 1000 host
    hosts = (host(0, 1000.0),)
    vms = (vm(0, 800.0), vm(1, 800.0))
    plan = AllocationPlan(hosts=hosts, vms=vms, vm_to_host={0: 0, 1: 0}, unplaced=())
    speed = effective_mips(plan, contention=True)
    assert speed == {0: 500.0, 1: 500.0}
    relaxed = effective_mips(plan, contention=False)
    assert relaxed == {0: 800.0, 1: 800.0}


def test_contention_noop_when_fit():
    hosts = (host(0, 1000.0),)
    vms = (vm(0, 400.0), vm(1, 500.0))
    plan = AllocationPlan(hosts=hosts, vms=vms, vm_to_host={0: 0, 1: 0}, unplaced=())
    assert effective_mips(plan, contention=True) == {0: 400.0, 1: 500.0}


def test_unassigned_cloudlet_rejected():
    plan = allocate([host(0, 1000.0)], [vm(0, 100.0)], AllocPolicy.ROUND_ROBIN)
    with pytest.raises(DomainError):
        simulate_qos(plan, [Cloudlet(0, service=0, length=100.0)])
    with pytest.raises(DomainError):
        simulate_qos(plan, [Cloudlet(0, service=0, length=100.0, assigned_vm=5)])


def test_throughput_is_exact_reciprocal():
    rng = derive_rng(55)
    for seed in range(10):
        hosts, vms, cloudlets = random_fixture(seed)
        plan = allocate(hosts, vms, AllocPolicy.BEST_FIT_DECREASING)
        plan = simulate_qos(plan, cloudlets, contention=True)
        for service, rt in plan.response_time.items():
            assert plan.throughput[service] == 1.0 / rt


def test_policy_comparison_on_seeded_fixtures():
    """Best fit never does worse than round robin on the fixture suite:
    placed-VM counts and mean response time."""
    for seed in range(20):
        hosts, vms, cloudlets = random_fixture(seed)
        means = {}
        placed = {}
        for policy in AllocPolicy:
            plan = allocate(hosts, vms, policy)
            runnable = [c for c in cloudlets if c.assigned_vm in plan.vm_to_host]
            plan = simulate_qos(plan, runnable, contention=True)
            means[policy] = sum(plan.response_time.values()) / len(plan.response_time)
            placed[policy] = len(plan.vm_to_host)
        assert placed[AllocPolicy.BEST_FIT_DECREASING] >= placed[AllocPolicy.ROUND_ROBIN]
        assert means[AllocPolicy.BEST_FIT_DECREASING] <= means[AllocPolicy.ROUND_ROBIN]


def test_default_scenario_policy_effect():
    scenario = committed_scenario()
    bf_matrix, bf_plan = scenario.build(policy=AllocPolicy.BEST_FIT_DECREASING)
    rr_matrix, rr_plan = scenario.build(policy=AllocPolicy.ROUND_ROBIN)
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


def synth_default(**overrides):
    scenario = committed_scenario()
    kwargs = dict(
        vm_specs=scenario.vm_specs,
        cloudlet_lengths=scenario.cloudlet_lengths,
        noise_amplitude=scenario.noise_amplitude,
        user_factor_range=scenario.user_factor_range,
    )
    kwargs.update(overrides)
    return synth_matrix(
        scenario.num_users,
        scenario.num_services,
        scenario.hosts(),
        AllocPolicy.BEST_FIT_DECREASING,
        scenario.seed,
        **kwargs,
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
    matrix, plan = scenario.build(policy=AllocPolicy.ROUND_ROBIN)
    missing = set(range(scenario.num_services)) - set(plan.vm_to_host)
    assert missing == {29}
    for u in range(matrix.num_users):
        assert not matrix.observed_mask[u, 29]


def test_scenario_rejects_bad_policy(tmp_path):
    import json

    raw = json.loads((CONFIG_DIR / "default_scenario.json").read_text())
    raw["policy"] = "optimal"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_write_plan_csv(tmp_path):
    plan = allocate([host(0, 1000.0)], [vm(0, 100.0), vm(1, 200.0)], AllocPolicy.ROUND_ROBIN)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    assert path.read_text() == "vm_id,host_id\n0,0\n1,0\n"


def test_capacity_validation():
    with pytest.raises(ConfigError):
        Host(id=0, mips_capacity=0.0, ram=1.0, bw=1.0)
    with pytest.raises(ConfigError):
        VirtualMachine(id=0, requested_mips=-5.0, requested_ram=1.0, requested_bw=1.0)
    with pytest.raises(ConfigError):
        Cloudlet(id=0, service=0, length=0.0)
