"""Experiment driver: split, rank, score across users, densities and kinds.

Each (density, trial) split ranks all active users with one `rank_orders`
call, which runs them through the pipeline as batches (one similarity block,
one neighbour sort, stacked preference tables, one greedy loop, one
correction) and returns a (users, kinds, n) array of candidate ids, each row
equal to ranking that user alone. The split is scored from that array
without building a `Ranking`: one gather of the withheld values in
predicted order, one `tau_scores` call over every row, and column 0 for the
top-1 QoS, each stored as the split's slice of the `ExperimentReport`'s
(density, trial, user, kind) arrays, unscoreable entries included. The
report reduces them to its summaries and top-1 QoS rows, and
`metrics.write_report` writes it.

All randomness is derived from the config seed plus trial/user indices, so
reports are reproducible byte for byte; evaluating users in parallel would
produce identical output since every cell owns its seed stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocsim import AllocPolicy, Scenario, load_scenario, scenario_from_dict, synth_matrix
from .errors import ConfigError
from .matrix import (
    MAX_CELLS, MetricOrientation, QoSMatrix, as_float, as_int, as_list, load_matrix, read_json,
    split_train_test,
)
from .metrics import ExperimentReport, tau_scores
from .ranker import RankerKind, rank_orders
from .seeding import derive_rng

_RANDOM_STREAM = 1  # stream tags keep per-purpose RNGs disjoint
_SPLIT_STREAM = 2
# every key `config_from_dict` reads; any other key, misspelt or retired,
# would be ignored silently and is rejected
CONFIG_KEYS = (
    "active_users", "dataset", "densities", "k_neighbors", "kinds", "orientation", "policy",
    "scenario", "seed", "trial_seeds", "trials",
)


def _density_key(density: float) -> int:
    """Seed key of a density: the density in thousandths, rounded."""
    return int(round(density * 1000))


@dataclass(frozen=True)
class ExperimentConfig:
    densities: tuple[float, ...]
    kinds: tuple[RankerKind, ...]
    k_neighbors: int = 10
    active_users: int = 20
    trial_seeds: tuple[int, ...] = tuple(range(100))
    seed: int = 0
    dataset: Path | None = None
    orientation: MetricOrientation | None = None  # dataset only; None is larger-is-better
    scenario: Scenario | None = None
    policy: AllocPolicy | None = None  # scenario only; overrides the scenario's policy

    def __post_init__(self):
        # every field is converted and checked here, named by its config JSON
        # key, so a config built in Python is checked as one read from JSON
        def store(name, value):
            object.__setattr__(self, name, value)

        densities = as_list(self.densities, "densities")
        try:
            store("densities", tuple(as_float(d, "density") for d in densities))
        except ConfigError:
            raise ConfigError(f"densities must be numbers, got {list(densities)}") from None
        store("kinds", tuple(RankerKind.parse(k) for k in as_list(self.kinds, "kinds")))
        for name in ("k_neighbors", "active_users", "seed"):
            store(name, as_int(getattr(self, name), name, ConfigError))
        if not isinstance(self.trial_seeds, range):  # `trials` passes a range
            seeds = as_list(self.trial_seeds, "trial_seeds")
            store("trial_seeds", tuple(as_int(s, "trial seed", ConfigError) for s in seeds))
        if self.orientation is not None:
            store("orientation", MetricOrientation.parse(self.orientation))
        if self.policy is not None:
            store("policy", AllocPolicy.parse(self.policy))
        if not self.densities:
            raise ConfigError("at least one density is required")
        for d in self.densities:
            if not 0.0 < d <= 1.0:
                raise ConfigError(f"density {d} outside (0, 1]")
        keys = [_density_key(d) for d in self.densities]
        if len(set(keys)) != len(keys):
            raise ConfigError(
                f"densities {list(self.densities)} include two that round to the "
                "same thousandth, which seeds their splits alike"
            )
        if not self.kinds:
            raise ConfigError("at least one ranker kind is required")
        repeated = [k.value for i, k in enumerate(self.kinds) if k in self.kinds[:i]]
        if repeated:
            # a repeated kind would be scored twice, doubling its trial counts
            raise ConfigError(
                f"ranker kind {repeated[0]!r} is listed more than once "
                "(\"random\" is an alias of \"random-baseline\")"
            )
        if self.k_neighbors < 0:
            raise ConfigError("k_neighbors must be >= 0")
        if self.active_users <= 0:
            raise ConfigError("active_users must be > 0")
        seeds = self.trial_seeds
        if not seeds:
            raise ConfigError("at least one trial is required")
        trials = len(seeds) if not isinstance(seeds, range) else (
            -((seeds.start - seeds.stop) // seeds.step)  # len() overflows past sys.maxsize
        )
        shape = (len(self.densities), trials, self.active_users, len(self.kinds))
        if math.prod(shape) > MAX_CELLS:  # the cells of run_experiment's arrays
            raise ConfigError(
                "{} densities x {} trials x {} active users x {} kinds is over the "
                "{}-cell limit".format(*shape, MAX_CELLS)
            )
        store("trial_seeds", tuple(self.trial_seeds))
        if min(self.seed, *self.trial_seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seed, *self.trial_seeds)}")
        if len(set(self.trial_seeds)) < len(self.trial_seeds):
            # a repeated trial seed would score the same splits twice
            seed = next(s for s in self.trial_seeds if self.trial_seeds.count(s) > 1)
            raise ConfigError(f"trial seed {seed} is listed more than once")
        if (self.dataset is None) == (self.scenario is None):
            raise ConfigError("config needs exactly one of dataset or scenario")
        # a key that cannot take effect is rejected, not silently ignored
        if self.dataset is not None and self.policy is not None:
            raise ConfigError("policy applies only to a scenario, not to a dataset")
        if self.scenario is not None and self.orientation is not None:
            raise ConfigError(
                "orientation applies only to a dataset; a scenario always yields "
                "larger-is-better throughput"
            )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an experiment config JSON; paths resolve relative to the file."""
    path = Path(path)
    return config_from_dict(read_json(path, "config"), base_dir=path.parent)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    base_dir = base_dir or Path.cwd()
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(raw).__name__}")
    unknown = [key for key in raw if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(
            f"unknown config key {unknown[0]!r}: a config reads only {', '.join(CONFIG_KEYS)}"
        )
    try:
        scenario = None
        if "scenario" in raw:
            ref = raw["scenario"]
            scenario = (
                scenario_from_dict(ref)
                if isinstance(ref, dict)
                else load_scenario(base_dir / ref)
            )
        dataset = Path(base_dir / raw["dataset"]) if "dataset" in raw else None
        seed = raw.get("seed", 0)
        if "trial_seeds" in raw:
            trial_seeds = raw["trial_seeds"]
        else:
            trials = as_int(raw.get("trials", 100), "trials", ConfigError)
            seed = as_int(seed, "seed", ConfigError)
            trial_seeds = range(seed, seed + trials)  # sized before any tuple is built
        return ExperimentConfig(
            densities=raw["densities"],
            kinds=raw["kinds"],
            k_neighbors=raw.get("k_neighbors", 10),
            active_users=raw.get("active_users", 20),
            trial_seeds=trial_seeds,
            seed=seed,
            dataset=dataset,
            orientation=raw.get("orientation"),
            scenario=scenario,
            policy=raw.get("policy"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def build_matrix(config: ExperimentConfig) -> QoSMatrix:
    if config.dataset is not None:
        return load_matrix(
            config.dataset, config.orientation or MetricOrientation.LARGER_IS_BETTER
        )
    return synth_matrix(config.scenario, config.policy)[0]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Score every (density, trial, user, kind) entry of the config."""
    matrix = build_matrix(config)
    candidates = matrix.observed_services()
    active = tuple(range(min(config.active_users, matrix.num_users)))

    shape = (len(config.densities), len(config.trial_seeds), len(active), len(config.kinds))
    taus, pairs, top1 = np.empty(shape), np.empty(shape, dtype=np.int64), np.empty(shape)
    # -1.0 turns a smaller-is-better dataset's negated values back into its units
    sign = -1.0 if config.orientation is MetricOrientation.SMALLER_IS_BETTER else 1.0

    for d, density in enumerate(config.densities):
        dkey = _density_key(density)
        for t, trial_seed in enumerate(config.trial_seeds):
            split_seed = int(
                derive_rng(config.seed, _SPLIT_STREAM, trial_seed, dkey).integers(2**63)
            )
            random_seed = int(
                derive_rng(config.seed, _RANDOM_STREAM, trial_seed, dkey).integers(2**63)
            )
            train, truth = split_train_test(matrix, density, split_seed, active)
            orders = rank_orders(
                config.kinds, train, active, config.k_neighbors, candidates, seed=random_seed
            )
            # withheld values in predicted order, NaN where a service has none
            withheld = truth.values[np.array(active)[:, None, None], orders]
            scores = tau_scores(withheld.reshape(-1, orders.shape[-1]))
            taus[d, t], pairs[d, t] = (a.reshape(orders.shape[:2]) for a in scores)
            top1[d, t] = sign * withheld[:, :, 0]

    kinds = tuple(k.value for k in config.kinds)
    return ExperimentReport(config.densities, config.trial_seeds, active, kinds, taus, pairs, top1)
