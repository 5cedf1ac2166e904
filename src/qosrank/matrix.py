"""Sparse user x service QoS observation matrix.

All stored values use the canonical larger-is-better orientation: metrics
that improve as they decrease (response time, failure probability) are
negated once at ingestion, so every downstream computation can assume
larger = better. Matrices are immutable after construction and safe to
share across parallel workers.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadValueError,
    ConfigError,
    DataError,
    DomainError,
    DuplicateKeyError,
    ParseError,
)
from .seeding import derive_rng

log = logging.getLogger(__name__)

CSV_HEADER = ("user_id", "service_id", "qos_value")

# Largest users x services grid `load_matrix` will allocate densely (400 MB of
# float64); the ids size the matrix, so one stray huge id must not reach it.
# WS-DREAM's 339 x 5825 response-time matrix is about 2M cells.
MAX_CELLS = 50_000_000


class MetricOrientation(Enum):
    """Whether larger raw metric values are better (throughput) or worse
    (response time). Declared once per dataset, out of band."""

    LARGER_IS_BETTER = "larger-is-better"
    SMALLER_IS_BETTER = "smaller-is-better"

    @classmethod
    def parse(cls, text: str) -> "MetricOrientation":
        for member in cls:
            if member.value == text:
                return member
        raise ConfigError(f"unknown orientation {text!r}")


class QoSMatrix:
    """Immutable sparse matrix of QoS observations.

    Internally a dense float array with NaN marking unobserved cells; at the
    scales this library targets (hundreds of users and services) that is both
    faster and simpler than nested dicts.
    """

    def __init__(self, values: np.ndarray):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("QoSMatrix expects a 2-d array")
        if np.isinf(values).any():
            raise BadValueError("infinite QoS value in matrix")
        values.setflags(write=False)
        self._values = values
        mask = ~np.isnan(values)
        mask.setflags(write=False)
        self._mask = mask

    @classmethod
    def from_entries(
        cls,
        num_users: int,
        num_services: int,
        entries: Iterable[tuple[int, int, float]],
    ) -> "QoSMatrix":
        """Build a matrix from (user, service, value) triples.

        Raises DuplicateKeyError if a (user, service) cell appears twice and
        BadValueError for NaN or infinite values.
        """
        values = np.full((num_users, num_services), np.nan)
        for user, service, value in entries:
            if not (0 <= user < num_users and 0 <= service < num_services):
                raise DomainError(f"entry ({user}, {service}) outside matrix bounds")
            if not math.isfinite(value):
                raise BadValueError(f"non-finite QoS value for ({user}, {service})")
            if not math.isnan(values[user, service]):
                raise DuplicateKeyError(f"duplicate entry for ({user}, {service})")
            values[user, service] = value
        return cls(values)

    @property
    def values(self) -> np.ndarray:
        """Read-only (num_users, num_services) array, NaN = unobserved."""
        return self._values

    @property
    def num_users(self) -> int:
        return self._values.shape[0]

    @property
    def num_services(self) -> int:
        return self._values.shape[1]

    @property
    def observed_mask(self) -> np.ndarray:
        """Read-only boolean array, True where a value is observed."""
        return self._mask

    @property
    def num_entries(self) -> int:
        return int(self.observed_mask.sum())

    def density(self) -> float:
        return self.num_entries / (self.num_users * self.num_services)

    def observed_set(self, user: int) -> set[int]:
        """Services with an observation for `user`."""
        self._check_user(user)
        return set(np.flatnonzero(self.observed_mask[user]).tolist())

    def value(self, user: int, service: int) -> float | None:
        self._check_user(user)
        v = self._values[user, service]
        return None if math.isnan(v) else float(v)

    def row(self, user: int) -> dict[int, float]:
        """Observed services of `user` mapped to their values."""
        self._check_user(user)
        return {
            int(s): float(self._values[user, s])
            for s in np.flatnonzero(self.observed_mask[user])
        }

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """All observations in (user, service) order."""
        users, services = np.nonzero(self.observed_mask)
        for u, s in zip(users.tolist(), services.tolist()):
            yield u, s, float(self._values[u, s])

    def observed_services(self) -> list[int]:
        """Services observed by at least one user, ascending."""
        return np.flatnonzero(self.observed_mask.any(axis=0)).tolist()

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise DomainError(f"unknown user {user}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QoSMatrix):
            return NotImplemented
        return self._values.shape == other._values.shape and np.array_equal(
            self._values, other._values, equal_nan=True
        )

    def __repr__(self) -> str:
        return (
            f"QoSMatrix({self.num_users} users x {self.num_services} services, "
            f"{self.num_entries} observations)"
        )


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of a seeded train/truth split.

    density: fraction of each active user's observations kept for training,
    in (0, 1]. Every active user keeps ceil(density * row_size) entries, so
    nobody is left with an empty training row at density > 0.
    """

    density: float
    seed: int
    active_users: tuple[int, ...]

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise ConfigError(f"density {self.density} outside (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        object.__setattr__(self, "active_users", tuple(sorted(set(self.active_users))))


def load_matrix(path: str | Path, orientation: MetricOrientation) -> QoSMatrix:
    """Load a QoS matrix from CSV.

    Expected format: header `user_id,service_id,qos_value`, integer ids,
    decimal values, `#` starting comment lines. Smaller-is-better values are
    negated here so the returned matrix is canonical.

    Raises ParseError (naming the line), DuplicateKeyError or BadValueError
    on malformed input, DataError if the file is unreadable or its largest ids
    imply a grid of more than MAX_CELLS cells.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc

    entries: list[tuple[int, int, float]] = []
    # (largest id, its first line) per axis, to name the id that oversizes the grid
    max_user = max_service = (-1, 0)
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")]
        if not header_seen:
            if tuple(fields) != CSV_HEADER:
                raise ParseError(
                    f"line {lineno}: expected header {','.join(CSV_HEADER)!r}, "
                    f"got {stripped!r}"
                )
            header_seen = True
            continue
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            user = int(fields[0])
            service = int(fields[1])
            value = float(fields[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if user < 0 or service < 0:
            raise ParseError(f"line {lineno}: negative id")
        if not math.isfinite(value):
            raise BadValueError(f"line {lineno}: non-finite QoS value {fields[2]!r}")
        if orientation is MetricOrientation.SMALLER_IS_BETTER:
            value = -value
        entries.append((user, service, value))
        if user > max_user[0]:
            max_user = (user, lineno)
        if service > max_service[0]:
            max_service = (service, lineno)

    if not header_seen:
        raise ParseError("empty dataset: no header line found")
    num_users = max_user[0] + 1
    num_services = max_service[0] + 1
    if num_users * num_services > MAX_CELLS:
        axis, (big, lineno) = (
            ("user", max_user) if max_user[0] > max_service[0] else ("service", max_service)
        )
        raise DataError(
            f"line {lineno}: {axis} id {big} implies a {num_users} x {num_services} "
            f"matrix, over the {MAX_CELLS}-cell limit"
        )
    return QoSMatrix.from_entries(num_users, num_services, entries)


def save_matrix(matrix: QoSMatrix, path: str | Path) -> None:
    """Write a matrix in the canonical CSV format (larger-is-better values)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for user, service, value in matrix.entries():
            writer.writerow([user, service, repr(value)])


def split_train_test(matrix: QoSMatrix, spec: SplitSpec) -> tuple[QoSMatrix, QoSMatrix]:
    """Partition active users' observations into train and withheld truth.

    Each active user keeps ceil(density * |row|) seeded-random observations in
    the training matrix; the removed ones land in the truth matrix. Rows of
    non-active users are copied to train unchanged. Active users with no
    observations are skipped with a logged warning. Deterministic for a fixed
    (matrix, spec) pair.
    """
    train = np.array(matrix.values)
    truth = np.full_like(train, np.nan)
    for user in spec.active_users:
        matrix._check_user(user)
        observed = np.flatnonzero(matrix.observed_mask[user])
        if observed.size == 0:
            log.warning("split: active user %d has no observations, skipped", user)
            continue
        keep = math.ceil(spec.density * observed.size)
        rng = derive_rng(spec.seed, user)
        perm = rng.permutation(observed.size)
        removed = observed[perm[keep:]]
        truth[user, removed] = train[user, removed]
        train[user, removed] = np.nan
    return QoSMatrix(train), QoSMatrix(truth)
