import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from qosrank.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_summary.csv"


@pytest.fixture
def workspace(tmp_path):
    """Config directory with the committed scenario and a small experiment."""
    shutil.copy(CONFIG_DIR / "default_scenario.json", tmp_path / "scenario.json")
    config = {
        "scenario": "scenario.json",
        "densities": [0.1, 0.3],
        "kinds": ["cloudrank1", "cloudrank2", "random-baseline"],
        "k_neighbors": 10,
        "active_users": 10,
        "trial_seeds": list(range(5)),
        "seed": 11,
    }
    (tmp_path / "experiment.json").write_text(json.dumps(config))
    return tmp_path


def run(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_fully_observed_sorts_by_qos(tmp_path, capsys):
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, (3, 6))
    lines = ["user_id,service_id,qos_value"] + [
        f"{u},{s},{float(values[u, s])!r}" for u in range(3) for s in range(6)
    ]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "cfg.json").write_text(
        json.dumps({"dataset": "data.csv", "densities": [0.5], "kinds": ["cloudrank1"]})
    )
    code, out, _ = run(["rank", "--config", tmp_path / "cfg.json", "--user", 0], capsys)
    assert code == 0
    expected = " ".join(str(s) for s in np.argsort(-values[0]))
    assert out.strip() == expected


def test_rank_smaller_is_better_orientation(tmp_path, capsys):
    # response-time style metric: lower raw value must rank first
    lines = ["user_id,service_id,qos_value", "0,0,3.0", "0,1,1.0", "0,2,2.0"]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "cfg.json").write_text(
        json.dumps(
            {
                "dataset": "data.csv",
                "orientation": "smaller-is-better",
                "densities": [0.5],
                "kinds": ["cloudrank1"],
            }
        )
    )
    code, out, _ = run(["rank", "--config", tmp_path / "cfg.json", "--user", 0], capsys)
    assert code == 0
    assert out.strip() == "1 2 0"


def test_module_entry_point(workspace):
    import os
    import subprocess
    import sys

    import qosrank

    # the child imports the package under test, installed or not
    src = str(Path(qosrank.__file__).resolve().parents[1])
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    result = subprocess.run(
        [sys.executable, "-m", "qosrank", "rank", "--config",
         str(workspace / "experiment.json"), "--user", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip()


def test_rank_repeated_invocation_identical(workspace, capsys):
    args = ["rank", "--config", workspace / "experiment.json", "--user", 3]
    code_a, out_a, _ = run(args, capsys)
    code_b, out_b, _ = run(args, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_rank_unknown_user_exits_one(workspace, capsys):
    code, _, err = run(
        ["rank", "--config", workspace / "experiment.json", "--user", 9999], capsys
    )
    assert code == 1
    assert "user" in err


def test_rank_degenerate_user_ascending(tmp_path, capsys):
    # user 0 has no observations and K=0: pure tie-break ranking
    lines = ["user_id,service_id,qos_value", "1,0,0.4", "1,1,0.9", "1,2,0.1"]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "cfg.json").write_text(
        json.dumps(
            {
                "dataset": "data.csv",
                "densities": [0.5],
                "kinds": ["cloudrank1"],
                "k_neighbors": 0,
            }
        )
    )
    code, out, _ = run(
        ["rank", "--config", tmp_path / "cfg.json", "--user", 0, "--kind", "cloudrank1"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "0 1 2"


def test_evaluate_writes_reports(workspace, capsys):
    out_dir = workspace / "out"
    code, out, _ = run(
        ["evaluate", "--config", workspace / "experiment.json", "--out", out_dir], capsys
    )
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "density,kind,mean_tau,std_tau,mean_accuracy,trials"
    assert len(summary) == 1 + 6  # 2 densities x 3 kinds
    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "density,kind,user_id,tau,accuracy,evaluated_pairs"
    qos = (out_dir / "qos_performance.csv").read_text().splitlines()
    assert qos[0] == "density,kind,mean_top1_qos,samples"
    assert len(qos) == 1 + 6


def test_evaluate_summary_matches_detail_rows(workspace, capsys):
    out_dir = workspace / "out"
    code, _, _ = run(
        ["evaluate", "--config", workspace / "experiment.json", "--out", out_dir], capsys
    )
    assert code == 0
    detail = {}
    for line in (out_dir / "report.csv").read_text().splitlines()[1:]:
        density, kind, _, tau, _, _ = line.split(",")
        detail.setdefault((density, kind), []).append(float(tau))
    for line in (out_dir / "summary.csv").read_text().splitlines()[1:]:
        density, kind, mean_tau, _, _, trials = line.split(",")
        cell = detail[(density, kind)]
        assert float(mean_tau) == pytest.approx(np.mean(cell), abs=1e-9)
        assert int(trials) == len(cell)


def test_evaluate_runs_are_byte_identical(workspace, capsys):
    code, _, _ = run(
        ["evaluate", "--config", workspace / "experiment.json", "--out", workspace / "a"],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["evaluate", "--config", workspace / "experiment.json", "--out", workspace / "b"],
        capsys,
    )
    assert code == 0
    for name in ("report.csv", "summary.csv", "qos_performance.csv"):
        assert (workspace / "a" / name).read_bytes() == (workspace / "b" / name).read_bytes()


def test_evaluate_golden_summary(workspace, capsys):
    """Seeded end-to-end run committed as a golden file."""
    out_dir = workspace / "golden_check"
    code, _, _ = run(
        ["evaluate", "--config", workspace / "experiment.json", "--out", out_dir], capsys
    )
    assert code == 0
    assert (out_dir / "summary.csv").read_bytes() == GOLDEN.read_bytes()
    # the per-entry rows and top-1 QoS, pinned by digest
    digests = {
        "report.csv": "8f8926c7c422a79ecc2d2e6513641f4dc5f8971e3fa71c048992d4e5cf420ce5",
        "qos_performance.csv": "dd27a582d933f90fa87ab8e9b6101fddb7c6374ded3c81b8737080da9b30e9aa",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name
    # the golden run itself shows cloudrank beating random by >= 0.1
    rows = [line.split(",") for line in GOLDEN.read_text().splitlines()[1:]]
    acc = {(r[0], r[1]): float(r[4]) for r in rows}
    for density in ("0.1", "0.3"):
        assert acc[(density, "cloudrank2")] >= acc[(density, "random-baseline")] + 0.1


def test_evaluate_nothing_scoreable_exits_one(workspace, capsys):
    # at density 1.0 every active user keeps all its services in training
    config = json.loads((workspace / "experiment.json").read_text())
    config["densities"] = [1.0]
    (workspace / "experiment.json").write_text(json.dumps(config))
    out = workspace / "out"
    code, _, err = run(["evaluate", "--config", workspace / "experiment.json", "--out", out], capsys)
    assert code == 1
    assert err == "qosrank: nothing to score: no active user withheld two or more services\n"
    assert not out.exists()


def test_evaluate_missing_dataset_exits_two(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(
        json.dumps({"dataset": "missing.csv", "densities": [0.5], "kinds": ["cloudrank1"]})
    )
    code, _, err = run(
        ["evaluate", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"], capsys
    )
    assert code == 2
    assert "data error" in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2", "line 4: expected 3 fields, got 2"),
        ("1,-2,0.5", "line 4: negative id"),
        ("1,2,nan", "line 4: non-finite QoS value 'nan'"),
        (f"{10**30},2,0.5", f"line 4: user id {10**30}"),
        ("0,0,0.7", "line 4: duplicate entry for (0, 0)"),
        # finite, but a sum of a few such values overflows: a RuntimeWarning
        # and "ranking contains duplicate services" used to follow
        pytest.param(
            "1,2,-1e308",
            "line 4: QoS value '-1e308' is over 1.798e+300 in magnitude",
            id="1,2,-1e308-QoS value of magnitude 1e+308 in matrix, over 1.798e+300",
        ),
    ],
)
def test_evaluate_malformed_dataset_exits_two(tmp_path, capsys, row, message):
    lines = ["user_id,service_id,qos_value", "0,0,0.5", "0,1,0.6", row, "1,1,0.8"]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "cfg.json").write_text(
        json.dumps({"dataset": "data.csv", "densities": [0.5], "kinds": ["cloudrank1"]})
    )
    code, out, err = run(
        ["evaluate", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"], capsys
    )
    assert code == 2
    assert f"data error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_evaluate_repeated_kind_exits_one(workspace, capsys):
    config = json.loads((workspace / "experiment.json").read_text())
    config["kinds"] = ["cloudrank2", "random", "random-baseline"]
    (workspace / "experiment.json").write_text(json.dumps(config))
    code, _, err = run(
        ["evaluate", "--config", workspace / "experiment.json", "--out", workspace / "out"],
        capsys,
    )
    assert code == 1
    assert "'random-baseline' is listed more than once" in err
    assert not (workspace / "out").exists()


def test_bad_config_exits_one(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text("{not json")
    code, _, err = run(
        ["evaluate", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"], capsys
    )
    assert code == 1


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_non_utf8_config_exits_one(tmp_path, capsys, command):
    # used to end in a UnicodeDecodeError traceback
    (tmp_path / "cfg.json").write_bytes(b"\xff\xfe{}")
    flag = "--config" if command == "evaluate" else "--scenario"
    code, _, err = run([command, flag, tmp_path / "cfg.json", "--out", tmp_path / "out"], capsys)
    assert code == 1
    assert "is not valid JSON: 'utf-8' codec can't decode" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# correct_observed's message when it was the one key rejected by name: its
# two cases keep the test ids that message gave them
OLD_CORRECT_OBSERVED_ID = (
    "correct_observed must be trimmed from the config: the observed-order correction is "
    "always applied"
)
CORRECT_OBSERVED_REJECTED = "unknown config key 'correct_observed': a config reads only"


@pytest.mark.parametrize(
    "override, message",
    [
        ({"seed": -3}, "seeds must be >= 0, got -3"),
        ({"trial_seeds": [-1, 2]}, "seeds must be >= 0, got -1"),
        ({"trial_seeds": [], "seed": 0}, "at least one trial is required"),
        ({"trial_seeds": None, "trials": 0}, "at least one trial is required"),
        ({"trial_seeds": None, "trials": 2.5}, "trials 2.5 is not an integer"),
        ({"trial_seeds": [0, 1.5]}, "trial seed 1.5 is not an integer"),
        ({"seed": 1.5}, "seed 1.5 is not an integer"),
        ({"k_neighbors": 2.5}, "k_neighbors 2.5 is not an integer"),
        ({"active_users": "10"}, "active_users '10' is not an integer"),
        # the correction moves only observed services, so no score depends on
        # it: the key is rejected whatever its value
        pytest.param(
            {"correct_observed": True}, CORRECT_OBSERVED_REJECTED,
            id=f"override9-{OLD_CORRECT_OBSERVED_ID}",
        ),
        pytest.param(
            {"correct_observed": False}, CORRECT_OBSERVED_REJECTED,
            id=f"override10-{OLD_CORRECT_OBSERVED_ID}",
        ),
        ({"trial_seeds": None, "trials": True}, "trials True is not an integer"),
        ({"k_neighbors": True}, "k_neighbors True is not an integer"),
        ({"densities": [0.1, True]}, "densities must be numbers, got [0.1, True]"),
        ({"densities": ["0.5"]}, "densities must be numbers, got ['0.5']"),
        ({"densities": [0.1, math.inf]}, "densities must be numbers, got [0.1, inf]"),
        # a dict "scenario" holds fields to change in the committed scenario
        ({"scenario": {"hosts": {"count": 4, "mips": "3600", "ram": 16384.0, "bw": 4000.0}}},
         "hosts.mips '3600' is not a finite number"),
        ({"scenario": {"hosts": {"count": 4, "mips": math.inf, "ram": 16384.0, "bw": 4000.0}}},
         "hosts.mips inf is not a finite number"),
        ({"scenario": {"vms": [{"mips": 150.0, "ram": True, "bw": 100.0}] * 30}},
         "vms.ram True is not a finite number"),
        ({"scenario": {"cloudlets": ["4000"] * 30}}, "cloudlet length '4000' is not a finite number"),
        ({"scenario": {"noise_amplitude": "1e-3"}}, "noise_amplitude '1e-3' is not a finite number"),
        ({"scenario": {"noise_amplitude": math.inf}}, "noise_amplitude inf is not a finite number"),
        ({"scenario": {"user_factor_range": [0.8, math.nan]}},
         "user_factor_range nan is not a finite number"),
        # keys that cannot take effect: both used to be ignored silently
        ({"scenario": None, "dataset": "data.csv", "policy": "round-robin"},
         "policy applies only to a scenario, not to a dataset"),
        ({"orientation": "smaller-is-better"}, "orientation applies only to a dataset"),
        # a repeated trial seed used to score its splits twice
        ({"trial_seeds": [0, 0, 1]}, "trial seed 0 is listed more than once"),
        # a list key given a scalar: "cloudrank2" was read as kinds 'c', 'l',
        # ..., "12" as cloudlet lengths '1' and '2', and 5 not at all
        ({"densities": "0.1"}, "densities must be a list, got '0.1'"),
        ({"kinds": "cloudrank2"}, "kinds must be a list, got 'cloudrank2'"),
        ({"trial_seeds": 5}, "trial_seeds must be a list, got 5"),
        ({"scenario": {"vms": {"mips": 150.0, "ram": 512.0, "bw": 100.0}}},
         "vms must be a list, got {'mips': 150.0, 'ram': 512.0, 'bw': 100.0}"),
        ({"scenario": {"cloudlets": "12"}}, "cloudlets must be a list, got '12'"),
        ({"scenario": {"user_factor_range": "0.8, 1.2"}},
         "user_factor_range must be a list, got '0.8, 1.2'"),
        # a misspelt key used to be ignored: these ran with k = 10 and 100
        # trials and exited 0
        ({"k_neighbours": 3}, "unknown config key 'k_neighbours': a config reads only active_users"),
        ({"trails": 5}, "unknown config key 'trails': a config reads only active_users"),
        # so were a misspelt or unknown key of an inline scenario, at each
        # level, and trials next to trial_seeds, which overrode it
        ({"scenario": {"noise_amplitute": 0.5}},
         "unknown scenario key 'noise_amplitute': a scenario reads only cloudlets, contention"),
        ({"scenario": {"hosts": {"count": 4, "mips": 3600.0, "ram": 16384.0, "bw": 4000.0,
                                 "cores": 8}}},
         "unknown scenario key 'hosts.cores': hosts reads only bw, count, mips, ram"),
        ({"scenario": {"vms": [{"mips": 150.0, "ram": 512.0, "bw": 100.0, "disk": 1}] * 30}},
         "unknown scenario key 'vms[0].disk': vms[0] reads only bw, mips, ram"),
        ({"trials": 5}, "config takes trials or trial_seeds, not both"),
    ],
)
def test_bad_config_values_exit_one_without_output(workspace, capsys, override, message):
    # each of these used to end in a numpy traceback, an empty-aggregate
    # error or a silent misreading (k_neighbors 2.5 ran with k = 2, "false"
    # ran with the correction, true was read as 1 or 1.0, "3600" as 3600.0,
    # and an infinite host mips built a matrix)
    config = json.loads((workspace / "experiment.json").read_text())
    if isinstance(override.get("scenario"), dict):
        scenario = json.loads((workspace / "scenario.json").read_text())
        override = {**override, "scenario": {**scenario, **override["scenario"]}}
    config.update(override)
    config = {key: value for key, value in config.items() if value is not None}
    (workspace / "experiment.json").write_text(json.dumps(config))
    out = workspace / "out"
    code, _, err = run(["evaluate", "--config", workspace / "experiment.json", "--out", out], capsys)
    assert code == 1
    assert message in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert not out.exists()

def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--user", "1"])  # missing --config
    assert exc.value.code == 1


def test_simulate_writes_matrix_and_plan(workspace, capsys):
    out_dir = workspace / "sim"
    code, out, _ = run(
        ["simulate", "--scenario", workspace / "scenario.json", "--out", out_dir], capsys
    )
    assert code == 0
    assert (out_dir / "qos_best-fit-decreasing.csv").exists()
    plan = (out_dir / "plan_best-fit-decreasing.csv").read_text().splitlines()
    assert plan[0] == "vm_id,host_id"
    assert len(plan) == 1 + 30


def test_simulate_policies_differ(workspace, capsys):
    out_dir = workspace / "sim"
    run(["simulate", "--scenario", workspace / "scenario.json", "--out", out_dir], capsys)
    code, out, err = run(
        [
            "simulate",
            "--scenario",
            workspace / "scenario.json",
            "--out",
            out_dir,
            "--policy",
            "round-robin",
        ],
        capsys,
    )
    assert code == 0
    assert "unplaced VMs [29]" in err
    bf = (out_dir / "qos_best-fit-decreasing.csv").read_text()
    rr = (out_dir / "qos_round-robin.csv").read_text()
    assert bf != rr


def test_simulate_deterministic(workspace, capsys):
    for name in ("x", "y"):
        run(
            ["simulate", "--scenario", workspace / "scenario.json", "--out", workspace / name],
            capsys,
        )
    a = (workspace / "x" / "qos_best-fit-decreasing.csv").read_bytes()
    b = (workspace / "y" / "qos_best-fit-decreasing.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "factor_range",
    [
        [0.8, 1.0, 1.2], [1.2, 0.8], ["a", "b"], [0.8, "Infinity"], 1.0,
        # factors scale throughput: these used to exit 0 with negative or
        # zero throughputs, or with values whose sums overflow
        [-5, -1], [0.0, 1.2], [0.8, 1e308],
    ],
)
def test_simulate_bad_user_factor_range_exits_one(workspace, capsys, factor_range):
    scenario = json.loads((workspace / "scenario.json").read_text())
    scenario["user_factor_range"] = factor_range
    (workspace / "bad.json").write_text(json.dumps(scenario))
    code, _, err = run(
        ["simulate", "--scenario", workspace / "bad.json", "--out", workspace / "sim"], capsys
    )
    assert code == 1
    assert "user_factor_range" in err or "bad scenario config" in err
    assert "Traceback" not in err
    assert not (workspace / "sim").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"hosts": {"count": 2.5, "mips": 3600.0, "ram": 16384.0, "bw": 4000.0}},
         "hosts.count 2.5 is not an integer"),
        ({"num_users": "3"}, "num_users '3' is not an integer"),
        ({"num_users": True}, "num_users True is not an integer"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed 1.5 is not an integer"),
        ({"num_users": 10**9}, "1000000000 users x 30 services is over the 50000000-cell"),
        # used to end in an OverflowError traceback from the host list
        ({"hosts": {"count": 2**63, "mips": 3600.0, "ram": 16384.0, "bw": 4000.0}},
         f"{2**63} hosts x 30 VMs is over the 50000000-probe allocation limit"),
        # used to exit 0 printing mean_response_time=inf
        ({"vms": [{"mips": 1e-10, "ram": 512.0, "bw": 100.0}] * 30, "cloudlets": [1e308] * 30},
         "vm 0: response time overflows to inf"),
        # used to exit 2 as a data error: infinite QoS value in matrix
        ({"noise_amplitude": 1e308},
         "noise_amplitude 1e+308 and user_factor_range [0.8, 1.2] make a QoS value over"),
        # used to be ignored: a misspelt noise_amplitude built the default matrix
        ({"noise_amplitute": 0.5}, "unknown scenario key 'noise_amplitute'"),
        ({"hosts": {"count": 4, "cores": 8, "mips": 3600.0, "ram": 16384.0, "bw": 4000.0}},
         "unknown scenario key 'hosts.cores': hosts reads only bw, count, mips, ram"),
        ({"vms": [{"mips": 150.0, "ram": 512.0, "bw": 100.0, "disk": 1}] * 30},
         "unknown scenario key 'vms[0].disk': vms[0] reads only bw, mips, ram"),
    ],
)
def test_simulate_bad_scenario_values_exit_one(workspace, capsys, override, message):
    # these used to be truncated (2.5 hosts ran as 2) or end in a
    # SeedSequence or ArrayMemoryError traceback
    scenario = json.loads((workspace / "scenario.json").read_text())
    scenario.update(override)
    (workspace / "bad.json").write_text(json.dumps(scenario))
    code, _, err = run(
        ["simulate", "--scenario", workspace / "bad.json", "--out", workspace / "sim"], capsys
    )
    assert code == 1
    assert err.startswith("qosrank: ") and message in err
    assert "Traceback" not in err
    assert not (workspace / "sim").exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_underflowing_response_time_exits_one(workspace, capsys, command):
    # every length / mips is 0.0, which used to end in a ZeroDivisionError
    # traceback from the throughput 1 / response time
    scenario = json.loads((workspace / "scenario.json").read_text())
    scenario["cloudlets"] = [5e-324] * len(scenario["vms"])
    (workspace / "scenario.json").write_text(json.dumps(scenario))
    flag, path = {
        "simulate": ("--scenario", "scenario.json"), "evaluate": ("--config", "experiment.json")
    }[command]
    code, _, err = run([command, flag, workspace / path, "--out", workspace / "out"], capsys)
    assert code == 1
    assert err == "qosrank: vm 0: response time 0.0 must be > 0 with a finite throughput\n"
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "path under a file"])
@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_unwritable_out_exits_one(workspace, capsys, command, under_file):
    # an --out that is a file or lies under one used to end in a
    # FileExistsError or NotADirectoryError traceback, for evaluate only
    # after the whole experiment had run
    taken = workspace / "taken"
    taken.write_text("x")
    out = taken / "out" if under_file else taken
    flag, path = {
        "simulate": ("--scenario", "scenario.json"), "evaluate": ("--config", "experiment.json")
    }[command]
    code, _, err = run([command, flag, workspace / path, "--out", out], capsys)
    assert code == 1
    assert err.startswith(f"qosrank: cannot write output directory {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text() == "x"


def test_simulate_mean_response_time_of_huge_times_is_finite(workspace, capsys):
    # every response time is 1e307, but their sum overflows: the mean used
    # to print as inf
    scenario = json.loads((workspace / "scenario.json").read_text())
    scenario["cloudlets"] = [1e307] * len(scenario["vms"])
    for vm in scenario["vms"]:
        vm["mips"] = 1.0
    (workspace / "huge.json").write_text(json.dumps(scenario))
    code, out, _ = run(
        ["simulate", "--scenario", workspace / "huge.json", "--out", workspace / "sim"], capsys
    )
    assert code == 0
    assert float(out.rsplit("mean_response_time=", 1)[1]) == pytest.approx(1e307)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"trials": 10**8}, "2 densities x 100000000 trials x 10 active users x 3 kinds is over "
         "the 50000000-cell limit"),
        # 0 active users make the product 0, so they are rejected before it
        ({"trials": 10**8, "active_users": 0}, "active_users must be > 0"),
        # len() of this many trials overflows
        ({"trials": 2**63}, f"2 densities x {2**63} trials x 10 active users x 3 kinds is over "
         "the 50000000-cell limit"),
    ],
)
def test_cells_over_the_limit_exit_one_before_allocating(workspace, override, message):
    # 10**8 trials used to build a 10**8-entry seed tuple, then three
    # (2, 10**8, 10, 3) arrays; the child's address space is capped so that
    # such a build ends in a MemoryError, not in exhausting the host
    import os
    import resource
    import subprocess
    import sys

    import qosrank

    config = json.loads((workspace / "experiment.json").read_text())
    del config["trial_seeds"]
    config.update(override)
    (workspace / "experiment.json").write_text(json.dumps(config))
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(qosrank.__file__).resolve().parents[1])
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)),
        "OPENBLAS_NUM_THREADS": "1",
    }
    result = subprocess.run(
        [sys.executable, "-m", "qosrank", "evaluate", "--config",
         str(workspace / "experiment.json"), "--out", str(workspace / "out")],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr == f"qosrank: {message}\n"
    assert not (workspace / "out").exists()


def test_simulate_allocation_failure_exits_three(tmp_path, capsys):
    scenario = {
        "hosts": {"count": 1, "mips": 100.0, "ram": 1024.0, "bw": 100.0},
        "vms": [{"mips": 500.0, "ram": 64.0, "bw": 10.0}],
        "cloudlets": [1000.0],
        "policy": "best-fit-decreasing",
        "num_users": 3,
        "seed": 1,
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    code, _, err = run(
        ["simulate", "--scenario", tmp_path / "scenario.json", "--out", tmp_path / "out"],
        capsys,
    )
    assert code == 3
    assert "allocation failure" in err
