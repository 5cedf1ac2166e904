import itertools
import logging
import re

import numpy as np
import pytest

from qosrank import experiment, ranker
from qosrank.allocsim import AllocPolicy
from qosrank.errors import ConfigError, DomainError
from qosrank.experiment import (
    ExperimentConfig,
    build_matrix,
    config_from_dict,
    load_config,
    run_experiment,
)
from qosrank.matrix import MetricOrientation, split_train_test
from qosrank.metrics import write_report
from qosrank.ranker import RankerKind, rank
from qosrank.seeding import derive_rng

from conftest import CONFIG_DIR, committed_scenario
from oracles import ScoreRow, aggregate, oracle_kendall_tau

ALL_KINDS = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2, RankerKind.RANDOM_BASELINE)


def small_config(**overrides):
    base = dict(
        densities=(0.1, 0.3),
        kinds=ALL_KINDS,
        k_neighbors=10,
        active_users=10,
        trial_seeds=tuple(range(5)),
        seed=11,
        scenario=committed_scenario(),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_summary_covers_every_cell():
    report = run_experiment(small_config())
    cells = {(s.density, s.kind) for s in report.summaries}
    assert cells == {
        (d, k.value) for d in (0.1, 0.3) for k in ALL_KINDS
    }
    assert {(q.density, q.kind) for q in report.qos_performance} == cells


def test_density_with_nothing_scored_is_logged(caplog):
    # at density 1.0 no active user withholds anything; the summary leaves
    # the density out, so a warning names each of its cells
    kinds = (RankerKind.CLOUDRANK2, RankerKind.RANDOM_BASELINE)
    config = small_config(densities=(1.0, 0.5), kinds=kinds, active_users=6, trial_seeds=(7, 8, 9))
    with caplog.at_level(logging.WARNING, logger="qosrank.metrics"):
        report = run_experiment(config)
    assert [r.getMessage() for r in caplog.records if r.name == "qosrank.metrics"] == [
        f"density 1.0 kind {kind}: nothing to score in any trial"
        for kind in ("cloudrank2", "random-baseline")
    ]
    assert {s.density for s in report.summaries} == {0.5}
    assert [q.samples for q in report.qos_performance if q.density == 1.0] == [0, 0]


def test_random_kind_calibrates_to_half():
    config = small_config(kinds=(RankerKind.RANDOM_BASELINE,), trial_seeds=tuple(range(10)))
    report = run_experiment(config)
    for s in report.summaries:
        assert s.trials >= 100
        assert s.mean_accuracy == pytest.approx(0.5, abs=0.05)


def test_cloudrank_beats_random():
    report = run_experiment(small_config())
    by_cell = {(s.density, s.kind): s for s in report.summaries}
    for d in (0.1, 0.3):
        random_acc = by_cell[(d, "random-baseline")].mean_accuracy
        for kind in ("cloudrank1", "cloudrank2"):
            assert by_cell[(d, kind)].mean_accuracy >= random_acc + 0.1


def test_summary_recomputable_from_rows():
    report = run_experiment(small_config(trial_seeds=(0, 1)))
    assert report.taus.shape == (2, 2, 10, 3)  # densities, trials, users, kinds
    for s in report.summaries:
        d, k = report.densities.index(s.density), report.kinds.index(s.kind)
        scored = report.pairs[d, :, :, k] > 0
        cell = report.taus[d, :, :, k][scored]
        assert np.isnan(report.taus[d, :, :, k][~scored]).all()
        assert s.mean_tau == pytest.approx(np.mean(cell), abs=1e-9)
        assert s.mean_accuracy == pytest.approx(np.mean((cell + 1) / 2), abs=1e-9)
        assert s.trials == len(cell)


def test_run_deterministic():
    a_report = run_experiment(small_config(trial_seeds=(3, 4)))
    b_report = run_experiment(small_config(trial_seeds=(3, 4)))
    for name in ("taus", "pairs", "top1"):
        a, b = getattr(a_report, name), getattr(b_report, name)
        assert a.tobytes() == b.tobytes()
    assert a_report.summaries == b_report.summaries
    assert a_report.qos_performance == b_report.qos_performance


def test_config_from_json_files():
    config = load_config(CONFIG_DIR / "default_experiment.json")
    assert config.scenario == committed_scenario()
    assert config.densities == (0.1, 0.2, 0.3)
    assert len(config.trial_seeds) == 100
    assert config.policy is None

    rr = load_config(CONFIG_DIR / "default_experiment_roundrobin.json")
    assert rr.policy is AllocPolicy.ROUND_ROBIN


def test_policy_override_changes_matrix():
    bf = build_matrix(small_config())
    rr = build_matrix(small_config(policy=AllocPolicy.ROUND_ROBIN))
    assert bf != rr
    assert len(rr.observed_services()) < len(bf.observed_services())


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(densities=())
    with pytest.raises(ConfigError):
        small_config(densities=(0.0,))
    with pytest.raises(ConfigError):
        small_config(kinds=())
    with pytest.raises(ConfigError):
        small_config(k_neighbors=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(densities=(0.1,), kinds=ALL_KINDS)  # neither source
    with pytest.raises(ConfigError):
        config_from_dict({"densities": [0.1], "kinds": ["nope"], "scenario": {}})


@pytest.mark.parametrize(
    "override, outcome",
    [
        # converted as config_from_dict converts them: a kind given as a
        # string used to raise AttributeError when the config ran
        ({"kinds": ("cloudrank2", "random")},
         {"kinds": (RankerKind.CLOUDRANK2, RankerKind.RANDOM_BASELINE)}),
        ({"policy": "round-robin", "densities": [0.1]},
         {"policy": AllocPolicy.ROUND_ROBIN, "densities": (0.1,)}),
        # each used to raise a bare TypeError
        ({"k_neighbors": "3"}, "k_neighbors '3' is not an integer"),
        ({"densities": ("0.1",)}, "densities must be numbers, got ['0.1']"),
        ({"active_users": 2.5}, "active_users 2.5 is not an integer"),
        ({"trial_seeds": (0.5,)}, "trial seed 0.5 is not an integer"),
        # each used to be accepted
        ({"seed": True}, "seed True is not an integer"),
        ({"kinds": "cloudrank2"}, "kinds must be a list, got 'cloudrank2'"),
        ({"policy": "first-fit"}, "unknown allocation policy 'first-fit'"),
    ],
)
def test_config_built_in_python_checks_its_fields(override, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ConfigError, match=re.escape(outcome)):
            small_config(**override)
    else:
        config = small_config(**override)
        assert {name: getattr(config, name) for name in outcome} == outcome


@pytest.mark.parametrize("densities", [(0.1, 0.1004), (0.3, 0.3), (0.2, 0.1, 0.2)])
def test_densities_sharing_a_split_seed_rejected(densities):
    # splits are seeded by round(density * 1000), so these would share splits
    with pytest.raises(ConfigError):
        small_config(densities=densities)


def test_densities_with_distinct_seed_keys_accepted():
    assert small_config(densities=(0.1, 0.1006)).densities == (0.1, 0.1006)


@pytest.mark.parametrize(
    "kinds, repeated",
    [
        (["cloudrank1", "cloudrank1"], "cloudrank1"),
        (["random", "cloudrank2", "random-baseline"], "random-baseline"),
    ],
)
def test_repeated_ranker_kind_rejected(kinds, repeated):
    # run_experiment would score the kind twice and double its trial counts
    raw = {"scenario": "default_scenario.json", "densities": [0.5], "kinds": kinds}
    with pytest.raises(ConfigError, match=f"ranker kind '{repeated}' is listed more than once"):
        config_from_dict(raw, base_dir=CONFIG_DIR)


def test_trials_with_trial_seeds_rejected():
    # trial_seeds used to override trials silently
    raw = {
        "scenario": "default_scenario.json",
        "densities": [0.5],
        "kinds": ["cloudrank1"],
        "trial_seeds": [7, 9],
        "trials": 50,
    }
    with pytest.raises(ConfigError, match="^config takes trials or trial_seeds, not both$"):
        config_from_dict(raw, base_dir=CONFIG_DIR)
    del raw["trials"]
    assert config_from_dict(raw, base_dir=CONFIG_DIR).trial_seeds == (7, 9)


def test_dataset_config(tmp_path):
    lines = ["user_id,service_id,qos_value"]
    rng = np.random.default_rng(1)
    for u in range(6):
        for s in range(5):
            lines.append(f"{u},{s},{float(rng.uniform(0, 1))!r}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    raw = {
        "dataset": "data.csv",
        "densities": [0.5],
        "kinds": ["cloudrank1"],
        "active_users": 3,
        "trials": 2,
    }
    config = config_from_dict(raw, base_dir=tmp_path)
    report = run_experiment(config)
    assert report.summaries


def per_ranking_reference(config):
    """run_experiment's report and top-1 QoS rows rebuilt one ranking at a
    time: each user's `rank` for each kind scored against the user's truth
    dict by the per-ranking reference; top-1 QoS in the dataset's units."""
    matrix = build_matrix(config)
    candidates = matrix.observed_services()
    active = tuple(range(min(config.active_users, matrix.num_users)))
    rows, top1 = [], {(d, k.value): [] for d in config.densities for k in config.kinds}
    sign = -1.0 if config.orientation is MetricOrientation.SMALLER_IS_BETTER else 1.0
    for density in config.densities:
        dkey = experiment._density_key(density)
        for trial in config.trial_seeds:
            split = derive_rng(config.seed, experiment._SPLIT_STREAM, trial, dkey)
            shuffle = derive_rng(config.seed, experiment._RANDOM_STREAM, trial, dkey)
            train, truth = split_train_test(matrix, density, int(split.integers(2**63)), active)
            seed = int(shuffle.integers(2**63))
            for user in active:
                observed = np.flatnonzero(truth.observed_mask[user]).tolist()
                truth_row = {s: float(truth.values[user, s]) for s in observed}
                for kind in config.kinds:
                    order = rank(
                        kind, train, user, config.k_neighbors, candidates, seed=seed
                    ).order
                    scored = oracle_kendall_tau(order, truth_row)
                    if scored is not None:
                        tau, pairs = scored
                        rows.append(ScoreRow(density, kind.value, user, tau, (tau + 1) / 2, pairs))
                    if order[0] in truth_row:  # in the dataset's units
                        top1[(density, kind.value)].append(sign * truth_row[order[0]])
    report = aggregate(rows)
    means = ((d, k, float(np.mean(v)) if v else None, len(v)) for (d, k), v in top1.items())
    return report, sorted(means)


def test_split_scoring_matches_per_ranking_reference(tmp_path):
    # users withhold 0, 1 and up to 7 services: unscoreable rows next to
    # rows of different evaluable counts in one stack; 3 value levels tie
    rng = np.random.default_rng(4)
    lines = ["user_id,service_id,qos_value"]
    for u, size in enumerate([1, 2, 8, 3, 5, 8, 4, 6, 2]):
        services = rng.choice(8, size=size, replace=False).tolist()
        lines += [f"{u},{s},{float(rng.integers(0, 3))!r}" for s in services]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    axes = [
        {"densities": [0.2, 0.5], "kinds": ["cloudrank2", "random-baseline", "cloudrank1"],
         "trials": 4},
        # config order differs from output order on every axis
        {"densities": [0.3, 0.05, 0.2], "kinds": ["random", "cloudrank2", "cloudrank1"],
         "trial_seeds": [9, 2, 5]},
    ]
    # a smaller-is-better dataset ranks the negated values, and reports
    # top-1 QoS in its own units: positive, as the file's values are
    for orientation, axis in itertools.product(MetricOrientation, axes):
        config = config_from_dict(
            {
                "dataset": "data.csv",
                "orientation": orientation.value,
                "k_neighbors": 3,
                "active_users": 7,
                **axis,
            },
            base_dir=tmp_path,
        )
        report = run_experiment(config)
        qos_rows = report.qos_performance
        want_report, want_top1 = per_ranking_reference(config)
        assert report.summaries == want_report.summaries
        write_report(report, tmp_path)
        assert (tmp_path / "report.csv").read_text().splitlines()[1:] == [
            f"{r.density!r},{r.kind},{r.user},{r.tau!r},{r.accuracy!r},{r.evaluated_pairs}"
            for r in want_report.rows
        ]
        assert not report.pairs[:, :, :2].any()  # users 0 and 1 are unscoreable
        assert len(np.unique(report.pairs[report.pairs > 0])) >= 3
        got_top1 = [(q.density, q.kind, q.mean_top1_qos, q.samples) for q in qos_rows if q.samples]
        assert sorted(got_top1) == [row for row in want_top1 if row[3]]
        assert any(q.mean_top1_qos > 0 for q in qos_rows)


def test_duplicate_ranking_rejected_before_scoring(monkeypatch):
    real = ranker.greedy_orders

    def duplicated(effective):
        positions = real(effective)
        positions[:, 1] = positions[:, 0]
        return positions

    monkeypatch.setattr(ranker, "greedy_orders", duplicated)
    with pytest.raises(DomainError, match="ranking contains duplicate services"):
        run_experiment(small_config(trial_seeds=(0,)))
