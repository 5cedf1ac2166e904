"""Seeded fuzz test: mutated configs, scenarios and datasets through the CLI.

Each case is a mutated copy of one input: the committed experiment config
(cut to one density, one trial and three active users), the committed
scenario, or a small dataset or its config. A mutation swaps a value's
type, replaces it with an edge value, deletes it, or truncates or doubles
the file's bytes. All cases run through `cli.main` in one child process
whose address space is capped at 2 GB, so that an input that asks for a
huge allocation ends in a MemoryError instead of exhausting the machine.
Every case must exit 0, 1, 2 or 3, and a case that exits non-zero must
print exactly one `qosrank:` line on stderr.

Run as a script, this module is that child: it reads a JSON list of argv
lists on stdin and prints each case's exit code and stderr as JSON.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SEED = 20261020
# what each field of a JSON input is set to in turn: edge values (10**400 is
# a JSON integer that no float holds), a list around the old value, its
# string, and deletion
JSON_OPS = (0, -1, 5e-324, 1e308, 2**63, 10**400, None, "x", "<list>", "<str>", "<delete>")
# what each field of a dataset row is set to in turn
CSV_FIELDS = ("0", "-1", "5e-324", "1e308", str(2**63), "", "nan", "inf", "x", "1.5", "1,2")
ADDRESS_SPACE = 2 * 2**30


def field_paths(doc, prefix=()):
    """The key path of every field of the decoded JSON `doc`, root first, a
    list's items collapsed into one "*" path."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, prefix + (key,))
    elif isinstance(doc, list) and doc:
        yield from field_paths(doc[0], prefix + ("*",))


def mutate_json(doc, path: tuple, op, rng) -> bytes:
    """`doc` with the field at `path` (a random item for "*") set by `op`."""
    doc = parent = copy.deepcopy(doc)
    key = None
    for step in path:
        parent = doc if key is None else parent[key]
        key = int(rng.integers(len(parent))) if step == "*" else step
    value = doc if key is None else parent[key]
    new = [value] if op == "<list>" else str(value) if op == "<str>" else op
    if key is None:
        doc = {} if op == "<delete>" else new
    elif op == "<delete>":
        del parent[key]
    else:
        parent[key] = new
    return json.dumps(doc).encode()


def byte_cases(data: bytes, rng) -> list[tuple[str, bytes]]:
    """`data` truncated at four random bytes, and doubled."""
    cuts = sorted(rng.integers(len(data), size=4).tolist())
    return [(f"truncated at byte {cut}", data[:cut]) for cut in cuts] + [("doubled", data + data)]


def json_cases(doc, rng) -> list[tuple[str, bytes]]:
    """Every op of JSON_OPS on every field of `doc`, then the byte cases."""
    return [
        (f"{'/'.join(map(str, path)) or '<root>'} <- {op!r}", mutate_json(doc, path, op, rng))
        for path in field_paths(doc)
        for op in JSON_OPS
    ] + byte_cases(json.dumps(doc).encode(), rng)


def csv_cases(text: str, rng) -> list[tuple[str, bytes]]:
    """Each header field misnamed; each field of the first data row and of a
    random one set to each of CSV_FIELDS; a row repeated, shortened and
    lengthened; then the byte cases."""
    lines = text.splitlines()

    def edit(i: int, fields: list[str]) -> bytes:
        return ("\n".join(lines[:i] + [",".join(fields)] + lines[i + 1 :]) + "\n").encode()

    def set_field(line: str, j: int, token: str) -> str:
        return ",".join(token if k == j else f for k, f in enumerate(line.split(",")))

    cases = []
    for j in range(3):
        cases.append((f"header field {j} misnamed", edit(0, [set_field(lines[0], j, "x")])))
        for token in CSV_FIELDS:
            # the first data row is user 0's, the user `rank` ranks
            for i in (1, int(rng.integers(2, len(lines)))):
                cases.append((f"line {i + 1} field {j} <- {token!r}",
                              edit(i, [set_field(lines[i], j, token)])))
    i = int(rng.integers(1, len(lines)))
    cases += [
        (f"line {i + 1} repeated", edit(i, [lines[i] + "\n" + lines[i]])),
        (f"line {i + 1} shortened", edit(i, lines[i].split(",")[:2])),
        (f"line {i + 1} lengthened", edit(i, lines[i].split(",") + ["1"])),
    ]
    return cases + byte_cases(text.encode(), rng)


def base_inputs() -> dict[str, bytes]:
    """The committed config cut to one density, one trial and three active
    users, the committed scenario, an 8 x 6 dataset with 30 observations and
    its config, by file name."""
    config = json.loads((CONFIG_DIR / "default_experiment.json").read_text())
    # the two configs give one trial by each of the two trial keys, which
    # exclude each other; deleting it runs 100 trials, still under a second
    config.update(scenario="scenario.json", densities=[0.2], trials=1, active_users=3)
    rng = np.random.default_rng(SEED)
    cells = sorted(rng.choice(48, size=30, replace=False).tolist())
    rows = [f"{c // 6},{c % 6},{rng.uniform(0.1, 2.0):.3f}" for c in cells]
    data_config = {
        "dataset": "data.csv", "orientation": "smaller-is-better", "densities": [0.5],
        "kinds": ["cloudrank1", "cloudrank2", "random"], "active_users": 3, "trial_seeds": [0],
    }
    return {
        "experiment.json": json.dumps(config).encode(),
        "scenario.json": (CONFIG_DIR / "default_scenario.json").read_bytes(),
        "data.json": json.dumps(data_config).encode(),
        "data.csv": ("user_id,service_id,qos_value\n" + "\n".join(rows) + "\n").encode(),
    }


def make_cases(root: Path) -> list[tuple[str, list[str]]]:
    """Each case's description and argv. The base inputs are written into
    `root`, and each case writes its mutated file there under a name of its
    own; a mutated scenario or dataset gets a copy of its config that reads
    it. A case runs `evaluate` or `rank`, or for a scenario `simulate`."""
    base = base_inputs()
    for name, content in base.items():
        (root / name).write_bytes(content)
    readers = {
        "scenario.json": ("experiment.json", "scenario"), "data.csv": ("data.json", "dataset")
    }
    rng = np.random.default_rng(SEED)
    cases = []
    for name, content in base.items():
        mutated = (csv_cases(content.decode(), rng) if name.endswith(".csv")
                   else json_cases(json.loads(content), rng))
        for i, (what, data) in enumerate(mutated):
            path, out = root / f"{i}_{name}", str(root / f"{i}_{name}_out")
            path.write_bytes(data)
            config = path
            if name in readers:
                config_name, key = readers[name]
                config = root / f"{i}_{name}.json"
                config.write_text(json.dumps({**json.loads(base[config_name]), key: path.name}))
            commands = [
                ["evaluate", "--config", str(config), "--out", out],
                ["rank", "--config", str(config), "--user", "0"],
            ]
            if name == "scenario.json":
                commands.append(["simulate", "--scenario", str(path), "--out", out])
            argv = commands[int(rng.integers(len(commands)))]
            cases.append((f"{name} case {i} ({argv[0]}): {what}", argv))
    return cases


def test_mutated_inputs_exit_cleanly(tmp_path):
    import resource
    import subprocess

    import qosrank

    cases = make_cases(tmp_path)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    src = str(Path(qosrank.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])),
        "OPENBLAS_NUM_THREADS": "1",
    }
    child = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps([argv for _, argv in cases]),
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert len(results) == len(cases)
    failures = []
    for (what, _), (code, err) in zip(cases, results):
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            failures.append(f"{what}: exit {code}\n{err}")
        elif code and not re.fullmatch(r"qosrank: [^\n]*\n", err):
            failures.append(f"{what}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)
    assert {code for code, _ in results} >= {0, 1, 2}


def run_cases(argvs: list[list[str]]) -> list[tuple[int | None, str]]:
    """Each argv's exit code from `cli.main` and its stderr; an exception
    that escapes `main` gives code None and its traceback."""
    from qosrank.cli import main

    warnings.simplefilter("always")  # a warning shows on every case that raises it
    results = []
    for argv in argvs:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit):  # a MemoryError or an argparse exit is a finding too
            code = None
            err.write(traceback.format_exc())
        results.append((code, err.getvalue()))
    return results


if __name__ == "__main__":
    print(json.dumps(run_cases(json.loads(sys.stdin.read()))))
