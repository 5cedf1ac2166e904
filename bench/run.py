"""qosrank benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload grid-default --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src and the
inputs are generated from --seed with the parameters in bench/manifest.json,
which also defines every metric. One workload runs in one process, acting
as a single closed-loop client; `--workload all` runs every workload, each
in its own child process. With `--trace 0` the timed operations run with no
wrapper installed and the end-to-end metrics of BENCHMARK.json are reported;
one more untimed operation then runs under the span recorder so that its
probes check every ranking. With `--trace 1` the run first repeats the
operations untraced, then installs the span recorder of tracing.py and runs
the same operations again; it reports the per-layer metrics and writes the
spans to bench/out/. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every operation passed its correctness checks.

    python3 bench/smoke.py     # tiny inputs: names, units and exit codes
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-default", "wide-sparse", "rank-online")

# Set-up is repeated on every cpu in turn until each cpu has SETUP_MIN_ROUNDS
# samples and SETUP_BUDGET_S has passed (at most SETUP_MAX_ROUNDS per cpu).
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 50
SETUP_BUDGET_S = 2.0


def load_params(workload: str, scale: str) -> dict:
    manifest = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
    params = manifest["generation"][workload]
    if scale == "tiny":
        params = _merge(params, manifest["tiny"][workload])
    return params


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        out[key] = _merge(base[key], value) if isinstance(value, dict) else value
    return out


def machine() -> dict:
    """nproc, Python, numpy and BLAS with its thread count."""
    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            return info
    return info


def quantile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_setups(workload) -> tuple[float, int, object]:
    """Set up repeatedly, alternating cpus as Client does.

    Returns the mean over cpus of each cpu's median set-up time, the number
    of set-ups and the last matrix.
    """
    cpus = sorted(os.sched_getaffinity(0))
    durations: dict[int, list[float]] = {cpu: [] for cpu in cpus}
    spent, rounds = 0.0, 0
    while rounds < SETUP_MIN_ROUNDS or (spent < SETUP_BUDGET_S and rounds < SETUP_MAX_ROUNDS):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            matrix = workload.setup()
            durations[cpu].append(time.perf_counter() - start)
            spent += durations[cpu][-1]
        rounds += 1
    os.sched_setaffinity(0, set(cpus))
    per_cpu = [statistics.median(d) for d in durations.values()]
    return statistics.fmean(per_cpu), rounds * len(cpus), matrix


class Client:
    """One closed-loop client: each operation starts when the previous ends.

    Operation i runs on cpu i mod nproc. Cpus of a shared host slow down and
    recover independently of each other for tens of seconds at a time, so a
    run that stays on one cpu inherits that cpu's state for most of the run;
    spreading operations over every cpu keeps runs comparable.
    """

    def __init__(self, workload):
        self.workload = workload
        self.cpus = sorted(os.sched_getaffinity(0))
        self.walls: list[float] = []
        self.cells: list[int] = []
        self.on_cpu: list[int] = []
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, more_problems=None) -> None:
        self.attempted += 1
        cpu = self.cpus[i % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        try:
            wall, cells, problems = self.workload.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"operation {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return
        problems += more_problems() if more_problems else []
        if problems:
            self.failed += 1
            for p in problems:
                print(f"operation {i}: {p}", file=sys.stderr)
        self.walls.append(wall)
        self.cells.append(cells)
        self.on_cpu.append(cpu)

    def loop(self, first: int, seconds: float, min_ops: int) -> int:
        """Run operations first, first+1, ... for `seconds`, at least `min_ops`."""
        start, i = time.perf_counter(), first
        while i - first < min_ops or time.perf_counter() - start < seconds:
            self.run(i)
            i += 1
        return i - first


def checked_op(client: Client, i: int) -> None:
    """Run operation i once more with the span recorder installed, untimed,
    so that its probes check every ranking the operation makes."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin(f"check{i}")
    try:
        client.run(i, tracer.take_problems)
    finally:
        tracer.uninstall()


def end_to_end(workload, seconds: float, min_ops: int) -> tuple[dict, Client, list[str]]:
    setup_s, setups, matrix = timed_setups(workload)
    workload.prepare(matrix)
    client = Client(workload)
    client.run(0)  # warm-up, and the reference output for the byte-identity check
    warm = len(client.walls)
    client.loop(1, seconds, min_ops)
    walls, cells = client.walls[warm:], client.cells[warm:]
    by_cpu: dict[int, list[float]] = {}
    for cpu, wall in zip(client.on_cpu[warm:], walls):
        by_cpu.setdefault(cpu, []).append(wall)
    if not walls:
        raise RuntimeError("no operation completed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked_op(client, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (sum(cells) / sum(walls), "1/s"),
        "queries_per_s": (len(walls) / sum(walls), "1/s"),
        # Per cpu, then averaged: two cpus in different states make a two-humped
        # mix of times whose pooled median jumps between the humps.
        "query_p50_ms": (statistics.fmean(statistics.median(w) for w in by_cpu.values()) * 1e3, "ms"),
        "query_p90_ms": (quantile90(walls) * 1e3, "ms"),
        "accuracy_cloudrank2": (workload.accuracy, "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    beyond = "" if len(walls) >= 100 else "; under 100 samples, fewer than ten lie beyond p90"
    notes = {
        "setup_s": f"mean over cpus of the median of {setups} set-ups alternating cpus",
        "cells_per_s": f"{sum(cells)} rankings / summed wall of {len(walls)} operations",
        "queries_per_s": f"{len(walls)} operations / their summed wall time",
        "query_p50_ms": f"mean over cpus of each cpu's median, n={len(walls)}",
        "query_p90_ms": f"n={len(walls)}{beyond}",
        "peak_rss_mb": "ru_maxrss of this process, MB = 2**20 bytes",
    }
    return metrics, client, [f"{k} {notes[k]}" for k in notes]


def traced(workload, seconds: float, min_ops: int, trace_path: Path, meta: dict):
    import tracing

    _, _, matrix = timed_setups(workload)
    workload.prepare(matrix)
    client = Client(workload)
    client.run(0)
    first = len(client.walls)
    n = client.loop(1, seconds / 2, min_ops)
    untraced = client.walls[first:]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        timed_setups(workload)
        for i in range(1, n + 1):
            tracer.begin(f"op{i}")
            client.run(i, tracer.take_problems)
    finally:
        tracer.uninstall()
    traced_walls = client.walls[first + len(untraced):]
    metrics = tracer.metrics(n)
    overhead = statistics.fmean(traced_walls) - statistics.fmean(untraced)
    metrics["trace_overhead_s"] = (overhead, "s")
    tracer.write(trace_path, dict(meta, ops=n, trace_overhead_s=overhead))
    lines = [f"traced {n} operations after the same {n} untraced; spans in {trace_path}"]
    lines += [f"layer {name} missing: not found in the package" for name in tracer.missing]
    lines += tracer.notes
    return metrics, client, lines


def run_one(args) -> int:
    import workloads  # imports the package from SRC

    if Path(workloads.qosrank.__file__).resolve().parent != SRC / "qosrank":
        print(f"error: qosrank imported from {workloads.qosrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    params = load_params(args.workload, args.scale)
    info = machine()
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
        f"scale {args.scale} | nproc {info['nproc']} python {info['python']} "
        f"numpy {info['numpy']} blas {info['blas']} threads {info['blas_threads']}"
    )
    if info["blas_threads"] is not None and info["blas_threads"] > info["nproc"]:
        print(f"warning: BLAS uses {info['blas_threads']} threads on {info['nproc']} cpus",
              file=sys.stderr)
    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.build(args.workload, work, args.seed, params)
        if args.trace:
            trace_path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            meta = {"workload": args.workload, "seed": args.seed, "machine": info}
            metrics, client, lines = traced(workload, args.seconds, params["min_ops"], trace_path, meta)
        else:
            metrics, client, lines = end_to_end(workload, args.seconds, params["min_ops"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {client.failed / client.attempted:.4g} "
          f"({client.failed} failed of {client.attempted} operations)")
    correct = client.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; non-zero if any fails."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if results[name] is None:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "qosrank" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'qosrank'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
