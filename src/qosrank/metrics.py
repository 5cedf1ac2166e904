"""Scoring predicted rankings against withheld ground truth.

A prediction is scored only over the services that have a withheld truth
value: concordant and discordant pairs between the predicted order and the
truth-value order give tau in [-1, 1], and accuracy = (tau + 1) / 2 is the
headline number in [0, 1]. Rankings with fewer than two evaluable services
are unscoreable and excluded from aggregates. `tau_scores` scores a whole
stack of rankings at once with `similarity.concordance`, the kernel that
also counts user similarity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError
from .similarity import concordance


@dataclass(frozen=True)
class ScoreRow:
    """One scored (user, density, kind) cell of an experiment."""

    density: float
    kind: str
    user: int
    tau: float
    accuracy: float
    evaluated_pairs: int


@dataclass(frozen=True)
class SummaryRow:
    density: float
    kind: str
    mean_tau: float
    std_tau: float
    mean_accuracy: float
    trials: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ScoreRow, ...]
    summaries: tuple[SummaryRow, ...]


def tau_scores(truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kendall tau and evaluated pairs of each row of `truth`, the withheld
    values of a ranking's services in predicted order, NaN where a service
    has none; tau is NaN in rows with fewer than two evaluable services.

    Rows are compacted to their evaluable values and NaN-padded, which
    compares false both ways. cd is an exact integer count, so tau =
    cd / pairs is bit-identical to counting the pairs one by one.
    """
    evaluable = ~np.isnan(truth)
    p = evaluable.sum(axis=1)
    width = int(p.max(initial=0))
    keep = np.argsort(~evaluable, axis=1, kind="stable")[:, :width]  # evaluable first
    vals = np.take_along_axis(truth, keep, axis=1)
    # best first, so a pair i < j is concordant when truth falls from i to j;
    # 0.0 - keeps a zero count +0.0, so a tau of 0 is written as 0.0
    cd = 0.0 - concordance(np.ascontiguousarray(vals.T))
    pairs = p * (p - 1) // 2
    tau = np.divide(cd, pairs, out=np.full(len(vals), np.nan), where=pairs > 0)
    return tau, pairs


def aggregate(rows: Sequence[ScoreRow]) -> ExperimentReport:
    """Group scored rows into per-(density, kind) means and deviations.

    Standard deviation is the population deviation over the rows of a cell;
    `trials` in each summary row is the number of scored rows it averages.
    """
    if not rows:
        raise DomainError("cannot aggregate an empty row set")
    ordered = sorted(rows, key=lambda r: (r.density, r.kind, r.user))
    cells: dict[tuple[float, str], list[ScoreRow]] = {}
    for row in ordered:
        cells.setdefault((row.density, row.kind), []).append(row)
    summaries = []
    for (density, kind), cell in sorted(cells.items()):
        taus = np.array([r.tau for r in cell])
        accs = np.array([r.accuracy for r in cell])
        summaries.append(
            SummaryRow(
                density=density,
                kind=kind,
                mean_tau=float(taus.mean()),
                std_tau=float(taus.std()),
                mean_accuracy=float(accs.mean()),
                trials=len(cell),
            )
        )
    return ExperimentReport(rows=tuple(ordered), summaries=tuple(summaries))


def write_rows_csv(report: ExperimentReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["density", "kind", "user_id", "tau", "accuracy", "evaluated_pairs"])
        for r in report.rows:
            writer.writerow(
                [repr(r.density), r.kind, r.user, repr(r.tau), repr(r.accuracy), r.evaluated_pairs]
            )


def write_summary_csv(report: ExperimentReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["density", "kind", "mean_tau", "std_tau", "mean_accuracy", "trials"])
        for s in report.summaries:
            writer.writerow(
                [
                    repr(s.density),
                    s.kind,
                    repr(s.mean_tau),
                    repr(s.std_tau),
                    repr(s.mean_accuracy),
                    s.trials,
                ]
            )
