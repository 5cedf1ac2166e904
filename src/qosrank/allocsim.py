"""Minimal datacenter simulator: VM placement and synthetic QoS matrices.

Hosts expose mips/ram/bw capacities; every service is backed by one VM
running one cloudlet. Two placement policies are provided: a round-robin
baseline (cyclic first fit) and best-fit-decreasing, the standard strong
bin-packing heuristic standing in for "optimal" allocation. A VM is placed
only where it fits in all three dimensions, so no host is oversubscribed and
every placed VM runs at its requested MIPS: QoS follows a linear execution
model, response_time = cloudlet length / requested mips, throughput =
1 / response_time. `allocate` keeps each host's free (mips, ram, bw) as a
triple of Python floats, which are float64 values, and converts each request
to float64 before comparing or subtracting it.

`synth_matrix` expands the per-service base QoS into a user x service matrix:
each user sees base * user_factor + noise, modelling heterogeneous network
conditions between users and the same services.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AllocationError, ConfigError, DomainError
from .matrix import MAX_CELLS, QoSMatrix, as_float, as_int, read_json
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


class AllocPolicy(Enum):
    ROUND_ROBIN = "round-robin"
    BEST_FIT_DECREASING = "best-fit-decreasing"

    @classmethod
    def parse(cls, text: str) -> "AllocPolicy":
        try:
            return cls(text)
        except ValueError:
            raise ConfigError(f"unknown allocation policy {text!r}") from None


@dataclass(frozen=True)
class AllocationPlan:
    """Placement of VMs on hosts plus, once synthesized, per-service QoS."""

    vm_to_host: dict[int, int]
    unplaced: tuple[int, ...]
    response_time: dict[int, float] = field(default_factory=dict)
    throughput: dict[int, float] = field(default_factory=dict)


def _need(vm: VirtualMachine) -> tuple[float, float, float]:
    """`vm`'s (mips, ram, bw) request as float64 values, as the capacities are kept."""
    return float(vm.requested_mips), float(vm.requested_ram), float(vm.requested_bw)


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
    if len({h.id for h in hosts}) != len(hosts):
        raise DomainError("duplicate host ids")
    if len({v.id for v in vms}) != len(vms):
        raise DomainError("duplicate VM ids")
    free = {h.id: (float(h.mips_capacity), float(h.ram), float(h.bw)) for h in hosts}
    host_order = [h.id for h in hosts]

    def fits(host_id: int, need: tuple[float, float, float]) -> bool:
        mips, ram, bw = free[host_id]
        return mips >= need[0] and ram >= need[1] and bw >= need[2]

    def place(host_id: int, vm: VirtualMachine, need: tuple[float, float, float]) -> None:
        mips, ram, bw = free[host_id]
        free[host_id] = (mips - need[0], ram - need[1], bw - need[2])
        vm_to_host[vm.id] = host_id

    vm_to_host: dict[int, int] = {}
    unplaced: list[int] = []

    if policy is AllocPolicy.ROUND_ROBIN:
        for k, vm in enumerate(vms):
            need = _need(vm)
            for step in range(len(host_order)):
                host_id = host_order[(k + step) % len(host_order)]
                if fits(host_id, need):
                    place(host_id, vm, need)
                    break
            else:
                unplaced.append(vm.id)
    elif policy is AllocPolicy.BEST_FIT_DECREASING:
        for vm in sorted(vms, key=lambda v: (-v.requested_mips, v.id)):
            need, best_id, best_left = _need(vm), None, None
            for host_id in host_order:
                if not fits(host_id, need):
                    continue
                left = free[host_id][0] - need[0]
                if best_left is None or left < best_left:
                    best_id, best_left = host_id, left
            if best_id is None:
                unplaced.append(vm.id)
            else:
                place(best_id, vm, need)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled policy {policy}")

    if not vm_to_host:
        raise AllocationError(sorted(unplaced))
    return AllocationPlan(vm_to_host=vm_to_host, unplaced=tuple(sorted(unplaced)))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to synthesize one QoS matrix; checked on construction."""

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

    def __post_init__(self):
        if self.host_count <= 0 or self.num_users <= 0:
            raise ConfigError("host count and user count must be > 0")
        if not self.vm_specs:
            raise ConfigError("a scenario needs at least one VM")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_users * self.num_services > MAX_CELLS:
            raise ConfigError(
                f"{self.num_users} users x {self.num_services} services is over the "
                f"{MAX_CELLS}-cell matrix limit"
            )
        if len(self.cloudlet_lengths) != self.num_services:
            raise ConfigError("need one cloudlet length per VM")
        if min(self.cloudlet_lengths) <= 0:
            raise ConfigError("cloudlet lengths must be > 0")
        if not 0.0 <= self.noise_amplitude:
            raise ConfigError("noise amplitude must be >= 0")
        factors = self.user_factor_range
        if not (len(factors) == 2 and factors[0] <= factors[1]):
            raise ConfigError(
                f"user_factor_range must be two finite numbers [lo, hi] with lo <= hi, "
                f"got {list(factors)}"
            )

    @property
    def num_services(self) -> int:
        return len(self.vm_specs)


def synth_matrix(
    scenario: Scenario, policy: AllocPolicy | None = None
) -> tuple[QoSMatrix, AllocationPlan]:
    """Place the scenario's VMs and generate a synthetic throughput matrix.

    `policy` overrides the scenario's. Service k is backed by VM k (requests
    vm_specs[k]) running one cloudlet of cloudlet_lengths[k] million
    instructions. Per-user rows are base_throughput * user_factor + gaussian
    noise whose deviation is noise_amplitude times the base spread. Services
    whose VM could not be placed have no observations. Deterministic for a
    fixed seed.
    """
    hosts = [
        Host(id=i, mips_capacity=scenario.host_mips, ram=scenario.host_ram, bw=scenario.host_bw)
        for i in range(scenario.host_count)
    ]
    vms = [VirtualMachine(k, *spec) for k, spec in enumerate(scenario.vm_specs)]
    plan = allocate(hosts, vms, policy or scenario.policy)
    response_time = {
        k: scenario.cloudlet_lengths[k] / vms[k].requested_mips for k in sorted(plan.vm_to_host)
    }
    throughput = {k: 1.0 / rt for k, rt in response_time.items()}
    plan = replace(plan, response_time=response_time, throughput=throughput)

    base = np.full(scenario.num_services, np.nan)
    base[list(throughput)] = list(throughput.values())
    spread = float(max(throughput.values()) - min(throughput.values()))

    rng = derive_rng(scenario.seed)
    lo, hi = scenario.user_factor_range
    factors = rng.uniform(lo, hi, size=scenario.num_users)
    noise = rng.normal(
        0.0, scenario.noise_amplitude * spread, size=(scenario.num_users, scenario.num_services)
    )
    values = np.where(np.isnan(base), np.nan, base * factors[:, None] + noise)
    return QoSMatrix._own(values), plan


def write_plan_csv(plan: AllocationPlan, path: str | Path) -> None:
    """Write the vm -> host assignment as `vm_id,host_id` rows."""
    lines = ["vm_id,host_id"]
    for vm_id in sorted(plan.vm_to_host):
        lines.append(f"{vm_id},{plan.vm_to_host[vm_id]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file; see README for the schema."""
    return scenario_from_dict(read_json(Path(path), "scenario"))


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse a decoded scenario; other keys, such as `contention`, are ignored."""
    try:
        hosts = raw["hosts"]
        vms = raw["vms"]
        lengths = raw["cloudlets"]
        return Scenario(
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
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
