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

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AllocationError, ConfigError, DomainError
from .matrix import MAX_CELLS, MAX_QOS, QoSMatrix, as_float, as_int, as_list, check_keys, read_json
from .seeding import derive_rng


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


def _triples(rows: Sequence, what: str, noun: str) -> list[tuple[float, float, float]]:
    """Each row's (mips, ram, bw) as float64 values; ConfigError naming the
    position of a row that is not three numbers or has one <= 0 or NaN."""
    triples = []
    for i, row in enumerate(rows):
        try:
            mips, ram, bw = row
            positive = mips > 0 and ram > 0 and bw > 0  # TypeError for a string
            triples.append((float(mips), float(ram), float(bw)))
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
            raise ConfigError(f"{what} {i}: {noun} must be three numbers, got {row!r}") from None
        if not positive:
            raise ConfigError(f"{what} {i}: {noun} must be > 0")
    return triples


def allocate(
    hosts: Sequence[Sequence[float]], vms: Sequence[Sequence[float]], policy: AllocPolicy
) -> AllocationPlan:
    """Place VMs on hosts under the given policy.

    hosts[h] is host h's (mips, ram, bw) capacity and vms[k] is VM k's
    (mips, ram, bw) request; ids are positions. round-robin: VM k starts
    probing at host k mod H and walks forward cyclically to the first host
    with room. best-fit-decreasing: VMs sorted by requested mips descending
    (ties to the smaller id), each placed on the feasible host leaving the
    least remaining mips (ties to the smaller host id). A VM fits only if all
    three capacity dimensions hold, so no host is ever oversubscribed. VMs
    that fit nowhere are reported in `unplaced`; if nothing at all could be
    placed, AllocationError lists every offender.
    """
    if not isinstance(policy, AllocPolicy):
        raise ConfigError(f"unknown allocation policy {policy!r}")
    if not len(hosts) or not len(vms):
        raise DomainError("allocate requires at least one host and one VM")
    free = _triples(hosts, "host", "capacities")
    needs = _triples(vms, "vm", "requests")
    first_fit = policy is AllocPolicy.ROUND_ROBIN
    order = range(len(vms))
    if not first_fit:  # on the mips as given: two ints past 2**53 may tie as float64
        order = sorted(order, key=lambda k: (-vms[k][0], k))
    vm_to_host: dict[int, int] = {}
    unplaced: list[int] = []
    for k in order:
        mips, ram, bw = needs[k]
        best = best_left = None
        for step in range(len(free)):
            h = (k + step) % len(free) if first_fit else step
            room = free[h]
            if room[0] >= mips and room[1] >= ram and room[2] >= bw:
                left = room[0] - mips
                if best is None or left < best_left:
                    best, best_left = h, left
                if first_fit:
                    break
        if best is None:
            unplaced.append(k)
        else:
            room = free[best]
            free[best] = (best_left, room[1] - ram, room[2] - bw)
            vm_to_host[k] = best

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
        # every value is type-checked and stored as a float here, named by its
        # scenario JSON key, so one built in Python is checked as one read from JSON
        def store(name, value):
            object.__setattr__(self, name, value)

        as_int(self.host_count, "hosts.count", ConfigError)
        for dim in RESOURCES:
            store(f"host_{dim}", as_float(getattr(self, f"host_{dim}"), f"hosts.{dim}"))
        if not as_list(self.vm_specs, "vms"):
            raise ConfigError("a scenario needs at least one VM")
        _triples(self.vm_specs, "vm", "requests")  # raises as `allocate` would
        store("vm_specs", tuple(
            (as_float(mips, "vms.mips"), as_float(ram, "vms.ram"), as_float(bw, "vms.bw"))
            for mips, ram, bw in self.vm_specs
        ))
        lengths = as_list(self.cloudlet_lengths, "cloudlets")
        store("cloudlet_lengths", tuple(as_float(x, "cloudlet length") for x in lengths))
        if not isinstance(self.policy, AllocPolicy):
            raise ConfigError(f"unknown allocation policy {self.policy!r}")
        as_int(self.num_users, "num_users", ConfigError)
        as_int(self.seed, "seed", ConfigError)
        store("noise_amplitude", as_float(self.noise_amplitude, "noise_amplitude"))
        factors = as_list(self.user_factor_range, "user_factor_range")
        store("user_factor_range", tuple(as_float(x, "user_factor_range") for x in factors))
        if self.host_count <= 0 or self.num_users <= 0:
            raise ConfigError("host count and user count must be > 0")
        if not (self.host_mips > 0 and self.host_ram > 0 and self.host_bw > 0):
            raise ConfigError("host capacities must be > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_users * self.num_services > MAX_CELLS:
            raise ConfigError(
                f"{self.num_users} users x {self.num_services} services is over the "
                f"{MAX_CELLS}-cell matrix limit"
            )
        if self.host_count * self.num_services > MAX_CELLS:  # `allocate` probes them all
            raise ConfigError(
                f"{self.host_count} hosts x {self.num_services} VMs is over the "
                f"{MAX_CELLS}-probe allocation limit"
            )
        if len(self.cloudlet_lengths) != self.num_services:
            raise ConfigError("need one cloudlet length per VM")
        if min(self.cloudlet_lengths) <= 0:
            raise ConfigError("cloudlet lengths must be > 0")
        for k, length in enumerate(self.cloudlet_lengths):
            rt = length / self.vm_specs[k][0]  # as `synth_matrix` computes it
            if not (rt > 0 and math.isfinite(1.0 / rt)):
                raise ConfigError(
                    f"vm {k}: response time {rt!r} must be > 0 with a finite throughput"
                )
            if rt == math.inf:
                raise ConfigError(f"vm {k}: response time overflows to inf")
        if not 0.0 <= self.noise_amplitude:
            raise ConfigError("noise amplitude must be >= 0")
        factors = self.user_factor_range
        if not (len(factors) == 2 and 0 < factors[0] <= factors[1]):  # factors scale throughput
            raise ConfigError(
                f"user_factor_range must be two finite numbers [lo, hi] with 0 < lo <= hi, "
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
    hosts = [(scenario.host_mips, scenario.host_ram, scenario.host_bw)] * scenario.host_count
    plan = allocate(hosts, scenario.vm_specs, policy or scenario.policy)
    response_time = {
        k: scenario.cloudlet_lengths[k] / scenario.vm_specs[k][0] for k in sorted(plan.vm_to_host)
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
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.where(np.isnan(base), np.nan, base * factors[:, None] + noise)
    if not (np.abs(values[:, ~np.isnan(base)]) <= MAX_QOS).all():
        raise ConfigError(
            f"noise_amplitude {scenario.noise_amplitude!r} and user_factor_range "
            f"{list(scenario.user_factor_range)} make a QoS value over {MAX_QOS:.4g}"
        )
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


# the keys read; `contention`, retired, is ignored, as bench grid-default still gives it
SCENARIO_KEYS = ("cloudlets", "contention", "hosts", "noise_amplitude", "num_users", "policy",
                 "seed", "user_factor_range", "vms")
RESOURCES = ("mips", "ram", "bw")  # a host's capacities and a VM's requests, in triple order


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse a decoded scenario; a key it does not read is a ConfigError."""
    try:
        check_keys(raw, SCENARIO_KEYS, "scenario")
        hosts = check_keys(raw["hosts"], ("count", *RESOURCES), "scenario", "hosts")
        vms = as_list(raw["vms"], "vms")
        for i, vm in enumerate(vms):
            check_keys(vm, RESOURCES, "scenario", f"vms[{i}]")
        return Scenario(
            host_count=hosts["count"],
            **{f"host_{dim}": hosts[dim] for dim in RESOURCES},
            vm_specs=tuple(map(itemgetter(*RESOURCES), vms)),  # a KeyError names a missing key
            cloudlet_lengths=raw["cloudlets"],
            policy=AllocPolicy.parse(raw["policy"]),
            num_users=raw["num_users"],
            seed=raw["seed"],
            noise_amplitude=raw.get("noise_amplitude", 0.02),
            user_factor_range=raw.get("user_factor_range", [0.8, 1.2]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
