"""Minimal datacenter simulator: VM placement and synthetic QoS matrices.

Hosts expose mips/ram/bw capacities; every service is backed by one VM
running one cloudlet. Two placement policies are provided: a round-robin
baseline (cyclic first fit) and best-fit-decreasing, the standard strong
bin-packing heuristic standing in for "optimal" allocation. QoS follows a
linear execution model: response_time = cloudlet length / effective MIPS,
throughput = 1 / response_time. With contention enabled, an oversubscribed
host shares its MIPS capacity among co-resident VMs proportionally to their
requests (plans produced by `allocate` never oversubscribe, but hand-built
plans may).

`synth_matrix` expands the per-service base QoS into a user x service matrix:
each user sees base * user_factor + noise, modelling heterogeneous network
conditions between users and the same services.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AllocationError, ConfigError, DomainError
from .matrix import MAX_CELLS, QoSMatrix, as_bool, as_float, as_int
from .seeding import derive_rng


@dataclass(frozen=True)
class Host:
    id: int
    mips_capacity: float
    ram: float  # MB
    bw: float  # Mbps

    def __post_init__(self):
        if min(self.mips_capacity, self.ram, self.bw) <= 0:
            raise ConfigError(f"host {self.id}: capacities must be > 0")


@dataclass(frozen=True)
class VirtualMachine:
    id: int
    requested_mips: float
    requested_ram: float
    requested_bw: float

    def __post_init__(self):
        if min(self.requested_mips, self.requested_ram, self.requested_bw) <= 0:
            raise ConfigError(f"vm {self.id}: requests must be > 0")


@dataclass(frozen=True)
class Cloudlet:
    id: int
    service: int
    length: float  # million instructions
    assigned_vm: int | None = None

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigError(f"cloudlet {self.id}: length must be > 0")


class AllocPolicy(Enum):
    ROUND_ROBIN = "round-robin"
    BEST_FIT_DECREASING = "best-fit-decreasing"

    @classmethod
    def parse(cls, text: str) -> "AllocPolicy":
        for member in cls:
            if member.value == text:
                return member
        raise ConfigError(f"unknown allocation policy {text!r}")


@dataclass(frozen=True)
class AllocationPlan:
    """Placement of VMs on hosts plus, once simulated, per-service QoS."""

    hosts: tuple[Host, ...]
    vms: tuple[VirtualMachine, ...]
    vm_to_host: dict[int, int]
    unplaced: tuple[int, ...]
    cloudlet_to_vm: dict[int, int] = field(default_factory=dict)
    response_time: dict[int, float] = field(default_factory=dict)
    throughput: dict[int, float] = field(default_factory=dict)


def allocate(
    hosts: Sequence[Host], vms: Sequence[VirtualMachine], policy: AllocPolicy
) -> AllocationPlan:
    """Place VMs on hosts under the given policy.

    round-robin: VM k starts probing at host k mod H and walks forward
    cyclically to the first host with room. best-fit-decreasing: VMs sorted
    by requested mips descending, each placed on the feasible host leaving
    the least remaining mips (ties to the smaller host id). A VM fits only
    if all three capacity dimensions hold, so no host is ever oversubscribed.
    VMs that fit nowhere are reported in `unplaced`; if nothing at all could
    be placed, AllocationError lists every offender.
    """
    if not hosts or not vms:
        raise DomainError("allocate requires at least one host and one VM")
    hosts = tuple(hosts)
    vms = tuple(vms)
    if len({h.id for h in hosts}) != len(hosts):
        raise DomainError("duplicate host ids")
    if len({v.id for v in vms}) != len(vms):
        raise DomainError("duplicate VM ids")
    free = {
        h.id: np.array([h.mips_capacity, h.ram, h.bw], dtype=float) for h in hosts
    }
    host_order = [h.id for h in hosts]

    def fits(host_id: int, vm: VirtualMachine) -> bool:
        need = (vm.requested_mips, vm.requested_ram, vm.requested_bw)
        return bool((free[host_id] >= need).all())

    def place(host_id: int, vm: VirtualMachine) -> None:
        free[host_id] -= (vm.requested_mips, vm.requested_ram, vm.requested_bw)
        vm_to_host[vm.id] = host_id

    vm_to_host: dict[int, int] = {}
    unplaced: list[int] = []

    if policy is AllocPolicy.ROUND_ROBIN:
        for k, vm in enumerate(vms):
            for step in range(len(host_order)):
                host_id = host_order[(k + step) % len(host_order)]
                if fits(host_id, vm):
                    place(host_id, vm)
                    break
            else:
                unplaced.append(vm.id)
    elif policy is AllocPolicy.BEST_FIT_DECREASING:
        for vm in sorted(vms, key=lambda v: (-v.requested_mips, v.id)):
            best_id, best_left = None, None
            for host_id in host_order:
                if not fits(host_id, vm):
                    continue
                left = float(free[host_id][0] - vm.requested_mips)
                if best_left is None or left < best_left:
                    best_id, best_left = host_id, left
            if best_id is None:
                unplaced.append(vm.id)
            else:
                place(best_id, vm)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled policy {policy}")

    if not vm_to_host:
        raise AllocationError(sorted(unplaced))
    return AllocationPlan(
        hosts=hosts, vms=vms, vm_to_host=vm_to_host, unplaced=tuple(sorted(unplaced))
    )


def effective_mips(plan: AllocationPlan, contention: bool) -> dict[int, float]:
    """Per-VM execution speed under the plan.

    Without contention every placed VM runs at its requested mips. With
    contention, a host whose resident requests exceed its capacity shares the
    capacity proportionally to the requests.
    """
    by_vm = {vm.id: vm for vm in plan.vms}
    result: dict[int, float] = {}
    residents: dict[int, list[int]] = {}
    for vm_id, host_id in plan.vm_to_host.items():
        residents.setdefault(host_id, []).append(vm_id)
    capacity = {h.id: h.mips_capacity for h in plan.hosts}
    for host_id, vm_ids in residents.items():
        requested = sum(by_vm[v].requested_mips for v in vm_ids)
        oversubscribed = contention and requested > capacity[host_id]
        for v in vm_ids:
            if oversubscribed:
                result[v] = capacity[host_id] * by_vm[v].requested_mips / requested
            else:
                result[v] = by_vm[v].requested_mips
    return result


def simulate_qos(
    plan: AllocationPlan, cloudlets: Sequence[Cloudlet], contention: bool = True
) -> AllocationPlan:
    """Run every cloudlet on its VM and record per-service QoS in the plan.

    Throughput is constructed as the exact reciprocal of response time.
    Raises DomainError if a cloudlet's VM is missing from the placement or a
    service carries more than one cloudlet.
    """
    speed = effective_mips(plan, contention)
    cloudlet_to_vm: dict[int, int] = {}
    response_time: dict[int, float] = {}
    throughput: dict[int, float] = {}
    for c in cloudlets:
        if c.assigned_vm is None or c.assigned_vm not in plan.vm_to_host:
            raise DomainError(f"cloudlet {c.id}: VM {c.assigned_vm} is not placed")
        if c.service in response_time:
            raise DomainError(f"service {c.service} has more than one cloudlet")
        cloudlet_to_vm[c.id] = c.assigned_vm
        rt = c.length / speed[c.assigned_vm]
        response_time[c.service] = rt
        throughput[c.service] = 1.0 / rt
    return replace(
        plan,
        cloudlet_to_vm=cloudlet_to_vm,
        response_time=response_time,
        throughput=throughput,
    )


def synth_matrix(
    num_users: int,
    num_services: int,
    hosts: Sequence[Host],
    policy: AllocPolicy,
    noise_seed: int,
    *,
    vm_specs: Sequence[tuple[float, float, float]],
    cloudlet_lengths: Sequence[float],
    noise_amplitude: float = 0.02,
    user_factor_range: tuple[float, float] = (0.8, 1.2),
    contention: bool = True,
) -> tuple[QoSMatrix, AllocationPlan]:
    """Generate a synthetic throughput matrix from an allocation run.

    Service k is backed by VM k (requests vm_specs[k]) running one cloudlet
    of cloudlet_lengths[k] million instructions. Per-user rows are
    base_throughput * user_factor + gaussian noise whose deviation is
    noise_amplitude times the base spread. Services whose VM could not be
    placed have no observations. Deterministic for a fixed seed.
    """
    if num_users <= 0 or num_services <= 0:
        raise ConfigError("matrix sizes must be > 0")
    if len(vm_specs) != num_services or len(cloudlet_lengths) != num_services:
        raise ConfigError("need one VM spec and one cloudlet length per service")

    vms = [
        VirtualMachine(id=k, requested_mips=m, requested_ram=r, requested_bw=b)
        for k, (m, r, b) in enumerate(vm_specs)
    ]
    cloudlets = [
        Cloudlet(id=k, service=k, length=cloudlet_lengths[k], assigned_vm=k)
        for k in range(num_services)
    ]
    plan = allocate(hosts, vms, policy)
    runnable = [c for c in cloudlets if c.assigned_vm in plan.vm_to_host]
    plan = simulate_qos(plan, runnable, contention)

    base = np.full(num_services, np.nan)
    for service, tp in plan.throughput.items():
        base[service] = tp
    covered = ~np.isnan(base)
    spread = float(base[covered].max() - base[covered].min()) if covered.any() else 0.0

    rng = derive_rng(noise_seed)
    lo, hi = user_factor_range
    factors = rng.uniform(lo, hi, size=num_users)
    noise = rng.normal(0.0, noise_amplitude * spread, size=(num_users, num_services))

    values = np.where(covered, base * factors[:, None] + noise, np.nan)
    return QoSMatrix._own(values), plan


def write_plan_csv(plan: AllocationPlan, path: str | Path) -> None:
    """Write the vm -> host assignment as `vm_id,host_id` rows."""
    lines = ["vm_id,host_id"]
    for vm_id in sorted(plan.vm_to_host):
        lines.append(f"{vm_id},{plan.vm_to_host[vm_id]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to synthesize one QoS matrix."""

    host_count: int
    host_mips: float
    host_ram: float
    host_bw: float
    vm_specs: tuple[tuple[float, float, float], ...]
    cloudlet_lengths: tuple[float, ...]
    policy: AllocPolicy
    num_users: int
    seed: int
    noise_amplitude: float
    user_factor_range: tuple[float, float]
    contention: bool = True

    @property
    def num_services(self) -> int:
        return len(self.vm_specs)

    def hosts(self) -> list[Host]:
        return [
            Host(id=i, mips_capacity=self.host_mips, ram=self.host_ram, bw=self.host_bw)
            for i in range(self.host_count)
        ]

    def build(
        self, policy: AllocPolicy | None = None
    ) -> tuple[QoSMatrix, AllocationPlan]:
        return synth_matrix(
            self.num_users,
            self.num_services,
            self.hosts(),
            policy or self.policy,
            self.seed,
            vm_specs=self.vm_specs,
            cloudlet_lengths=self.cloudlet_lengths,
            noise_amplitude=self.noise_amplitude,
            user_factor_range=self.user_factor_range,
            contention=self.contention,
        )


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file; see README for the schema."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    try:
        hosts = raw["hosts"]
        vms = raw["vms"]
        lengths = raw["cloudlets"]
        scenario = Scenario(
            host_count=as_int(hosts["count"], "hosts.count", ConfigError),
            host_mips=as_float(hosts["mips"], "hosts.mips"),
            host_ram=as_float(hosts["ram"], "hosts.ram"),
            host_bw=as_float(hosts["bw"], "hosts.bw"),
            vm_specs=tuple(
                (as_float(v["mips"], "vms.mips"), as_float(v["ram"], "vms.ram"),
                 as_float(v["bw"], "vms.bw"))
                for v in vms
            ),
            cloudlet_lengths=tuple(as_float(x, "cloudlet length") for x in lengths),
            policy=AllocPolicy.parse(raw["policy"]),
            num_users=as_int(raw["num_users"], "num_users", ConfigError),
            seed=as_int(raw["seed"], "seed", ConfigError),
            noise_amplitude=as_float(raw.get("noise_amplitude", 0.02), "noise_amplitude"),
            user_factor_range=tuple(
                as_float(x, "user_factor_range") for x in raw.get("user_factor_range", (0.8, 1.2))
            ),
            contention=as_bool(raw.get("contention", True), "contention"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
    if scenario.host_count <= 0 or scenario.num_users <= 0:
        raise ConfigError("host count and user count must be > 0")
    if scenario.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {scenario.seed}")
    if scenario.num_users * scenario.num_services > MAX_CELLS:
        raise ConfigError(
            f"{scenario.num_users} users x {scenario.num_services} services is over the "
            f"{MAX_CELLS}-cell matrix limit"
        )
    if len(scenario.cloudlet_lengths) != scenario.num_services:
        raise ConfigError("need one cloudlet length per VM")
    if not 0.0 <= scenario.noise_amplitude:
        raise ConfigError("noise amplitude must be >= 0")
    factors = scenario.user_factor_range
    if not (len(factors) == 2 and factors[0] <= factors[1]):
        raise ConfigError(
            f"user_factor_range must be two finite numbers [lo, hi] with lo <= hi, "
            f"got {list(factors)}"
        )
    return scenario
