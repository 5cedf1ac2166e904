"""The benchmark workloads, driven from outside the package.

A workload makes its inputs from the seed, then offers `setup()` (timed as
setup_s), `prepare(matrix)` (untimed) and `op(i)`, one operation of the
closed-loop client. `op` returns the operation's wall time, the number of
user rankings it produced and the correctness problems found in its output.
Package functions are looked up through their modules at call time, so the
span recorder in tracing.py sees every call once it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from pathlib import Path

import numpy as np

import gen
import qosrank
import qosrank.cli
import qosrank.experiment


class Evaluate:
    """`qosrank evaluate` on a generated config, called in-process.

    Checks per call: exit code 0; report.csv has one row per (density, kind,
    active user, trial); each row's evaluated_pairs equals C(t, 2) for the t
    services withheld from that user, which holds only when the ranking
    covers every candidate; summary.csv is byte-identical to the first call's.
    With `margin` set, cloudrank2 must beat random-baseline by that much in
    accuracy at every density.
    """

    def __init__(self, config_path: Path, margin: float | None = None):
        self.config_path = config_path
        self.out = config_path.parent / "out"
        self.margin = margin
        self.reference: bytes | None = None
        self.accuracy = float("nan")

    def setup(self):
        config = qosrank.load_config(self.config_path)
        return qosrank.experiment.build_matrix(config)

    def prepare(self, matrix) -> None:
        config = qosrank.load_config(self.config_path)
        observed = matrix.observed_mask.sum(axis=1)
        active = range(min(config.active_users, matrix.num_users))
        self.expected_pairs = {}
        for d in config.densities:
            for u in active:
                withheld = int(observed[u]) - math.ceil(d * int(observed[u]))
                self.expected_pairs[(repr(d), u)] = withheld * (withheld - 1) // 2
        self.expected_rows = (
            len(config.densities) * len(config.kinds) * len(active) * len(config.trial_seeds)
        )

    def op(self, i: int) -> tuple[float, int, list[str]]:
        argv = ["evaluate", "--config", str(self.config_path), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = qosrank.cli.main(argv)
            wall = time.perf_counter() - start
        if code != 0:
            return wall, 0, [f"evaluate exited with code {code}"]
        with (self.out / "report.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != self.expected_rows:
            problems.append(f"report.csv has {len(rows)} scored rows, expected {self.expected_rows}")
        short = sum(
            int(r["evaluated_pairs"]) != self.expected_pairs.get((r["density"], int(r["user_id"])))
            for r in rows
        )
        if short:
            problems.append(f"{short} report rows do not cover every withheld service")
        summary = (self.out / "summary.csv").read_bytes()
        if self.reference is None:
            self.reference = summary
            problems += self._check_summary(summary)
        elif summary != self.reference:
            problems.append("summary.csv differs from the first run on this seed")
        return wall, len(rows), problems

    def _check_summary(self, summary: bytes) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(summary.decode("utf-8"))))
        acc = {(r["density"], r["kind"]): float(r["mean_accuracy"]) for r in rows}
        densities = sorted({d for d, _ in acc}, key=float)
        cr2 = [acc[(d, "cloudrank2")] for d in densities if (d, "cloudrank2") in acc]
        if len(cr2) != len(densities):
            return ["summary.csv lacks a cloudrank2 row for some density"]
        self.accuracy = sum(cr2) / len(cr2)
        if self.margin is None:
            return []
        return [
            f"density {d}: cloudrank2 accuracy {acc[(d, 'cloudrank2')]:.4f} is not "
            f"{self.margin} above random-baseline {acc[(d, 'random-baseline')]:.4f}"
            for d in densities
            if acc[(d, "cloudrank2")] < acc[(d, "random-baseline")] + self.margin
        ]


class RankOnline:
    """Single-user `qosrank.rank` queries, users drawn in seeded order.

    Checks per query: the ranking is a permutation of the candidate set.
    Accuracy is scored by the benchmark itself against the generator's hidden
    response times, over the first `scored` queries, so it does not depend on
    how many queries a run completes.
    """

    def __init__(self, path: Path, rt: np.ndarray, mask: np.ndarray, order: np.ndarray,
                 k: int, scored: int):
        self.path, self.rt, self.mask, self.order = path, rt, mask, order
        self.k, self.scored = k, scored
        self.accuracies: dict[int, float] = {}

    @property
    def accuracy(self) -> float:
        return float(np.mean(list(self.accuracies.values()))) if self.accuracies else float("nan")

    def setup(self):
        return qosrank.load_matrix(self.path, qosrank.MetricOrientation.SMALLER_IS_BETTER)

    def prepare(self, matrix) -> None:
        self.matrix = matrix
        self.candidates = sorted(matrix.observed_services())

    def op(self, i: int) -> tuple[float, int, list[str]]:
        m, u = self.matrix, int(self.order[i % len(self.order)])
        start = time.perf_counter()
        ranking = qosrank.rank(qosrank.RankerKind.CLOUDRANK2, m, u, k=self.k,
                               candidates=m.observed_services())
        wall = time.perf_counter() - start
        if sorted(ranking.order) != self.candidates:
            return wall, 1, [f"query {i}: ranking of user {u} is not a permutation of the candidates"]
        if i < self.scored:
            self.accuracies[i] = self._accuracy(u, ranking.order)
        return wall, 1, []

    def _accuracy(self, u: int, order) -> float:
        hidden = [s for s in order if not self.mask[u, s]]
        truth = -self.rt[u, hidden]  # smaller response time is better
        signs = np.sign(truth[:, None] - truth[None, :])
        p = len(hidden)
        tau = signs[np.triu_indices(p, k=1)].sum() / (p * (p - 1) / 2)
        return (tau + 1) / 2


def build(name: str, work: Path, seed: int, params: dict):
    """Generate the inputs of workload `name` under `work` and wrap them."""
    if name == "grid-default":
        return Evaluate(gen.grid_default(work, seed, params), margin=params["accuracy_margin"])
    if name == "wide-sparse":
        config, _, _ = gen.wide_sparse(work, seed, params)
        return Evaluate(config)
    if name == "rank-online":
        path, rt, mask, order = gen.rank_online(work, seed, params)
        return RankOnline(path, rt, mask, order, params["k"], params["min_ops"])
    raise ValueError(f"unknown workload {name!r}")
