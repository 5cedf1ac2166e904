"""Scoring predicted rankings against withheld ground truth.

A prediction is scored only over the services that have a withheld truth
value: concordant and discordant pairs between the predicted order and the
truth-value order give tau in [-1, 1], and accuracy = (tau + 1) / 2 is the
headline number in [0, 1]. Rankings with fewer than two evaluable services
are unscoreable: tau NaN and 0 pairs. `tau_scores` scores a whole stack of
rankings at once with `similarity.concordance`, the kernel that also counts
user similarity.

An `ExperimentReport` keeps an experiment's scores as (density, trial, user,
kind) arrays; its `cells` order sets the order of every output row, and
`write_report` writes all of `evaluate`'s files from it.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .similarity import concordance

log = logging.getLogger(__name__)


class SummaryRow(NamedTuple):
    density: float
    kind: str
    mean_tau: float
    std_tau: float
    mean_accuracy: float
    trials: int


class QoSPerformanceRow(NamedTuple):
    """Mean withheld QoS of each user's top-ranked service, in the dataset's
    own units: a smaller-is-better dataset's mean is negated back from the
    matrix's larger-is-better values. A scenario's is its matrix's mean."""

    density: float
    kind: str
    mean_top1_qos: float
    samples: int


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """An experiment's scores, each array shaped (densities, trials, users,
    kinds) along the axes in config order. `taus` is NaN and `pairs` 0 where
    the user withheld fewer than two services (unscoreable); `top1` is the
    withheld value of each ranking's first service in the dataset's own
    units (a smaller-is-better dataset's negated values negated back), NaN
    where it has none.
    `summaries` hold each (density, kind) cell's mean tau, population
    deviation and mean accuracy over its scored entries, in `cells` order,
    with `trials` the number of entries; a cell with none has no summary
    and is logged as a warning. `qos_performance` holds every cell's mean
    `top1` over the entries that have one.
    """

    densities: tuple[float, ...]
    trial_seeds: tuple[int, ...]
    users: tuple[int, ...]
    kinds: tuple[str, ...]
    taus: np.ndarray
    pairs: np.ndarray
    top1: np.ndarray
    summaries: tuple[SummaryRow, ...] = field(init=False)
    qos_performance: tuple[QoSPerformanceRow, ...] = field(init=False)

    def __post_init__(self):
        summaries, qos_rows, unscored = [], [], []
        for density, kind, index in self.cells():
            _, taus, accuracy, _ = self.scored(index)
            if taus.size:
                tau_stats = float(taus.mean()), float(taus.std()), float(accuracy.mean())
                summaries.append(SummaryRow(density, kind, *tau_stats, taus.size))
            else:
                unscored.append((density, kind))
            top = self.top1[index]  # by trial, then user
            top = top[~np.isnan(top)]
            mean = float(top.mean()) if top.size else float("nan")
            qos_rows.append(QoSPerformanceRow(density, kind, mean, top.size))
        if not summaries:
            raise DomainError("nothing to score: no active user withheld two or more services")
        for density, kind in unscored:
            log.warning("density %r kind %s: nothing to score in any trial", density, kind)
        object.__setattr__(self, "summaries", tuple(summaries))
        object.__setattr__(self, "qos_performance", tuple(qos_rows))

    def cells(self) -> list[tuple[float, str, tuple]]:
        """Each (density, kind) cell in output order, density ascending then
        kind name, with the index of its (trials, users) slice of an array."""
        return sorted(
            ((density, kind, np.s_[d, :, :, k])
             for d, density in enumerate(self.densities)
             for k, kind in enumerate(self.kinds)),
            key=lambda cell: cell[:2],
        )

    def scored(self, index: tuple) -> tuple[np.ndarray, ...]:
        """User ids, taus, accuracies and pairs of a cell's scored entries,
        ordered by user and then by trial in config order."""
        pairs = self.pairs[index].T
        keep = pairs > 0
        users = np.broadcast_to(np.array(self.users)[:, None], keep.shape)
        taus = self.taus[index].T[keep]
        return users[keep], taus, (taus + 1) / 2, pairs[keep]


def tau_scores(truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kendall tau and evaluated pairs of each row of `truth`, the withheld
    values of a ranking's services in predicted order, NaN where a service
    has none; tau is NaN in rows with fewer than two evaluable services.

    cd is an exact integer count, so tau = cd / pairs is bit-identical to
    counting the pairs one by one.
    """
    cd, p = concordance(truth)
    pairs = p * (p - 1) // 2
    # best first, so a pair i < j is concordant when truth falls from i to j;
    # 0.0 - keeps a zero count +0.0, so a tau of 0 is written as 0.0
    tau = np.divide(0.0 - cd, pairs, out=np.full(len(truth), np.nan), where=pairs > 0)
    return tau, pairs


def write_report(report: ExperimentReport, out: str | Path) -> None:
    """Write `report.csv` (one row per scored entry), `summary.csv` and
    `qos_performance.csv` (one row per cell) into the directory `out`. csv
    writes a float as `str`, which is its round-trip repr."""
    entries = (
        zip(repeat(density), repeat(kind), *(a.tolist() for a in report.scored(index)))
        for density, kind, index in report.cells()
    )
    for name, header, rows in (
        ("report", "user_id,tau,accuracy,evaluated_pairs", chain.from_iterable(entries)),
        ("summary", "mean_tau,std_tau,mean_accuracy,trials", report.summaries),
        ("qos_performance", "mean_top1_qos,samples", report.qos_performance),
    ):
        with (Path(out) / f"{name}.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["density", "kind", *header.split(",")])
            writer.writerows(rows)
