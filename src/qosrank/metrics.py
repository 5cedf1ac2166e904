"""Scoring predicted rankings against withheld ground truth.

A prediction is scored only over the services that have a withheld truth
value: concordant and discordant pairs between the predicted order and the
truth-value order give tau in [-1, 1], and accuracy = (tau + 1) / 2 is the
headline number in [0, 1]. Rankings with fewer than two evaluable services
are unscoreable and excluded from aggregates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .ranker import Ranking


@dataclass(frozen=True)
class RankScore:
    tau: float
    accuracy: float
    evaluated_pairs: int


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
    trials: int
    seeds: tuple[int, ...]


def kendall_tau_score(
    predicted: Ranking, truth_row: Mapping[int, float]
) -> RankScore | None:
    """Score a predicted order against a user's withheld truth values.

    Returns None (undefined-score marker) when fewer than two ranked services
    have truth values. Ties in truth count toward neither side.
    """
    evaluable = [s for s in predicted.order if s in truth_row]
    p = len(evaluable)
    if p < 2:
        return None
    vals = np.array([truth_row[s] for s in evaluable], dtype=float)
    signs = np.sign(vals[:, None] - vals[None, :])
    # +1 per concordant and -1 per discordant pair (i ranked above j, i < j)
    concordant_minus_discordant = int(signs[~np.tri(p, dtype=bool)].sum())
    pairs = p * (p - 1) // 2
    tau = concordant_minus_discordant / pairs
    return RankScore(tau=tau, accuracy=(tau + 1) / 2, evaluated_pairs=pairs)


def aggregate(
    rows: Sequence[ScoreRow], trials: int = 1, seeds: Sequence[int] = ()
) -> ExperimentReport:
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
    return ExperimentReport(
        rows=tuple(ordered),
        summaries=tuple(summaries),
        trials=trials,
        seeds=tuple(seeds),
    )


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
