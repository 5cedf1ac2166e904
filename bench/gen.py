"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed and the generation
parameters in `manifest.json`. Only numpy and the standard library are used
here: the package under test sees nothing but the files these functions
write.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Streams keep the per-workload generators disjoint for one seed.
_GRID_STREAM = 1
_WIDE_STREAM = 2
_ONLINE_STREAM = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def grid_default(out_dir: Path, seed: int, params: dict) -> Path:
    """Write the allocsim scenario and experiment config of grid-default.

    The grid has the shape of configs/default_experiment.json; only the
    scenario seed and the experiment seed come from `seed`.
    """
    rng = _rng(seed, _GRID_STREAM)
    scenario = dict(params["scenario"])
    scenario["vms"] = [
        {"mips": float(m), "ram": 512.0, "bw": 100.0} for m in params["vm_mips"]
    ]
    scenario["cloudlets"] = [1000.0] * len(params["vm_mips"])
    scenario["seed"] = int(rng.integers(2**31))
    config = dict(params["experiment"])
    config["scenario"] = "scenario.json"
    config["seed"] = int(rng.integers(2**31))
    (out_dir / "scenario.json").write_text(json.dumps(scenario, indent=1), encoding="utf-8")
    path = out_dir / "experiment.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def latency_matrix(rng: np.random.Generator, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Response times and an observation mask.

    rt = base[s] * factor[u] + latency[region(u), region(s)] + noise, floored
    at `min_rt`. Each cell is observed with probability `density`; every user
    then gets at least `min_per_user` observations and every service at least
    one, so ids are dense and every active user stays scoreable after a split.
    """
    users, services = params["users"], params["services"]
    base = rng.uniform(*params["base_range"], size=services)
    factor = rng.uniform(*params["user_factor_range"], size=users)
    user_region = rng.integers(params["user_regions"], size=users)
    service_region = rng.integers(params["service_regions"], size=services)
    latency = rng.uniform(*params["region_latency_range"], size=(params["user_regions"], params["service_regions"]))
    noise = rng.normal(0.0, params["noise_sd"], size=(users, services))
    rt = base[None, :] * factor[:, None] + latency[user_region][:, service_region] + noise
    rt = np.maximum(rt, params["min_rt"])

    mask = rng.random((users, services)) < params["density"]
    for u in range(users):
        short = params["min_per_user"] - int(mask[u].sum())
        if short > 0:
            mask[u, rng.choice(np.flatnonzero(~mask[u]), size=short, replace=False)] = True
    for s in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(users), s] = True
    return rt, mask


def write_dataset(path: Path, rt: np.ndarray, mask: np.ndarray) -> None:
    """Observed cells in the package's CSV format, values round-trip exact."""
    users, services = np.nonzero(mask)
    lines = ["user_id,service_id,qos_value"]
    lines += [f"{u},{s},{v!r}" for u, s, v in zip(users.tolist(), services.tolist(), rt[mask].tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def wide_sparse(out_dir: Path, seed: int, params: dict) -> tuple[Path, np.ndarray, np.ndarray]:
    """Write the wide-sparse dataset and its experiment config."""
    rng = _rng(seed, _WIDE_STREAM)
    rt, mask = latency_matrix(rng, params["matrix"])
    write_dataset(out_dir / "dataset.csv", rt, mask)
    config = dict(params["experiment"])
    config["dataset"] = "dataset.csv"
    config["orientation"] = "smaller-is-better"
    config["seed"] = int(rng.integers(2**31))
    path = out_dir / "experiment.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path, rt, mask


def rank_online(out_dir: Path, seed: int, params: dict) -> tuple[Path, np.ndarray, np.ndarray, np.ndarray]:
    """Write the rank-online dataset; return it with the true response
    times, the mask and the seeded user order of the queries."""
    rng = _rng(seed, _ONLINE_STREAM)
    rt, mask = latency_matrix(rng, params["matrix"])
    path = out_dir / "dataset.csv"
    write_dataset(path, rt, mask)
    users = params["matrix"]["users"]
    order = np.concatenate([rng.permutation(users) for _ in range(params["order_cycles"])])
    return path, rt, mask, order
