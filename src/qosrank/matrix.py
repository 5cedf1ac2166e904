"""Sparse user x service QoS observation matrix.

All stored values use the canonical larger-is-better orientation: metrics
that improve as they decrease (response time, failure probability) are
negated once at ingestion, so every downstream computation can assume
larger = better. Matrices are immutable after construction and safe to
share across parallel workers.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import operator
import sys
import warnings
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    BadValueError,
    ConfigError,
    DataError,
    DomainError,
    DuplicateKeyError,
    ParseError,
    QosRankError,
)
from .seeding import derive_rng

log = logging.getLogger(__name__)

CSV_HEADER = ("user_id", "service_id", "qos_value")

# Largest users x services grid `load_matrix` will allocate densely (400 MB of
# float64); the ids size the matrix, so one stray huge id must not reach it.
# WS-DREAM's 339 x 5825 response-time matrix is about 2M cells.
MAX_CELLS = 50_000_000

# Largest QoS magnitude a matrix holds. No sum the pipeline forms has more
# than 2 * MAX_CELLS terms of at most this size, so none overflows.
MAX_QOS = sys.float_info.max / (2 * MAX_CELLS)

# Characters `load_matrix` reads from the file at a time; one read's lines
# are parsed together, so this bounds the parse's temporaries however long
# the file is.
READ_CHARS = 1 << 16

_INT64_MAX = np.iinfo(np.int64).max
_ROW = np.dtype([("user", np.int64), ("service", np.int64), ("value", np.float64)])


def as_int(value, what: str, error: type[QosRankError] = DomainError) -> int:
    """`value` as an int; `error` naming it unless it is integral and not a bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{what} {value!r} is not an integer")


def as_float(value, what: str) -> float:
    """`value` as a float; ConfigError naming it unless it is a finite int or float, not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # False for NaN, infinities and huge ints
            return float(value)
    raise ConfigError(f"{what} {value!r} is not a finite number")


def as_list(value, what: str) -> list | tuple:
    """`value` if it is a list or tuple; ConfigError naming it otherwise."""
    if isinstance(value, (list, tuple)):
        return value
    raise ConfigError(f"{what} must be a list, got {value!r}")


def check_keys(obj, known, what: str, where: str = ""):
    """`obj`; ConfigError naming its first key not in `known` if it is a JSON
    object. `where` names a nested object of a `what`, such as "hosts"."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in known:
            name = f"{where}.{key}" if where else key
            known = ", ".join(sorted(known))
            raise ConfigError(f"unknown {what} key {name!r}: {where or 'a ' + what} reads only {known}")
    return obj


def read_json(path: Path, what: str):
    """The decoded JSON file at `path`; ConfigError naming it as `what` if unreadable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


class MetricOrientation(Enum):
    """Whether larger raw metric values are better (throughput) or worse
    (response time). Declared once per dataset, out of band."""

    LARGER_IS_BETTER = "larger-is-better"
    SMALLER_IS_BETTER = "smaller-is-better"

    @classmethod
    def parse(cls, text: str) -> "MetricOrientation":
        try:
            return cls(text)
        except ValueError:
            raise ConfigError(f"unknown orientation {text!r}") from None


class QoSMatrix:
    """Immutable sparse matrix of QoS observations.

    Internally a dense float array with NaN marking unobserved cells; at the
    scales this library targets (hundreds of users and services) that is both
    faster and simpler than nested dicts.
    """

    def __init__(self, values: np.ndarray):
        """A matrix over a copy of `values`, so the caller's array stays its
        own; BadValueError for a value of magnitude over MAX_QOS."""
        values = np.array(values, dtype=float)
        top = -float(np.fmin.reduce(values, None, initial=0.0))  # fmin and fmax skip NaN
        top = max(top, float(np.fmax.reduce(values, None, initial=0.0)))
        if top > MAX_QOS:
            raise BadValueError(f"QoS value of magnitude {top!r} in matrix, over {MAX_QOS:.4g}")
        self._adopt(values)

    @classmethod
    def _own(cls, values: np.ndarray) -> "QoSMatrix":
        """A matrix over a float64 array the package has just built from
        values checked where they entered (a dataset row, a synthesized
        value) and hands over, neither copied nor checked again; the array
        becomes read-only."""
        matrix = cls.__new__(cls)
        matrix._adopt(values)
        return matrix

    def _adopt(self, values: np.ndarray) -> None:
        if values.ndim != 2:
            raise ValueError("QoSMatrix expects a 2-d array")
        values.setflags(write=False)
        self._values = values
        mask = ~np.isnan(values)
        mask.setflags(write=False)
        self._mask = mask

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


def _fill_grid(
    num_users: int,
    num_services: int,
    users: np.ndarray,
    services: np.ndarray,
    values: np.ndarray,
    where: Callable[[int], str] = lambda i: "",
) -> np.ndarray:
    """Dense (num_users, num_services) grid holding values[i] at
    (users[i], services[i]) and NaN elsewhere.

    The int64 cells lie inside the grid and the values are finite, as
    `load_matrix` reads them. Raises DuplicateKeyError for the earliest
    triple whose cell an earlier one holds; `where(i)` prefixes the message,
    e.g. with the file line of triple i.
    """
    cells = users * num_services + services
    grid = np.full(num_users * num_services, np.nan)
    grid[cells] = values
    if np.count_nonzero(~np.isnan(grid)) < len(values):
        # the earliest repeat of a cell: in a stable sort, the first entry
        # that equals its predecessor's cell
        order = np.argsort(cells, kind="stable")
        i = int(order[1:][cells[order[1:]] == cells[order[:-1]]].min())
        raise DuplicateKeyError(f"{where(i)}duplicate entry for ({users[i]}, {services[i]})")
    return grid.reshape(num_users, num_services)


# Characters that make a read not plain. A plain read is ASCII without them
# and without blank lines, so `str.split("\n")` splits it into its lines and
# each line is its own `_content`: nothing to strip, nothing to skip.
_NOT_PLAIN = "# \t\r\v\f\x1c\x1d\x1e\x1f"


def _blocks(fh) -> Iterator[tuple[list[str], list[str]]]:
    """The lines of a text file opened with newline="", split where
    `str.splitlines` splits, one block per read of READ_CHARS characters,
    each with its data rows: `_content` of its lines.

    A plain read's lines, ends dropped, are its rows as they are, with no
    Python per line. Other reads keep their line ends, and a "\\r\\n" cut by a
    read boundary stays one line end."""
    carry = ""
    while chunk := fh.read(READ_CHARS):
        text = carry + chunk
        if text.isascii() and not any(c in text for c in _NOT_PLAIN):
            lines = text.split("\n")
            carry = lines.pop()  # continues in the next read
            if all(lines):  # no blank line
                yield lines, lines
                continue
        lines = text.splitlines(keepends=True)
        carry = lines.pop()  # may continue in the next read
        yield lines, _content(lines)
    if carry:
        yield [carry], _content([carry])


def _content(lines: list[str]) -> list[str]:
    """The stripped lines that are neither blank nor `#` comments."""
    return [s for s in map(str.strip, lines) if s and s[0] != "#"]


def _parse_block(rows: list[str], line_of: Callable[[int], int]) -> np.ndarray:
    """(user, service, value) records of stripped data rows, parsed by
    numpy's C reader.

    The reader accepts a subset of the number forms Python's int and float
    accept (not `1_0`, for one) and gives the same values for them. A block
    it rejects, or holding a row that one array check flags (a negative id,
    a value that is not finite or over MAX_QOS), is parsed by `_parse_rows`,
    which raises for the first row that breaks a rule.
    """
    if not rows:
        return np.empty(0, _ROW)
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads an int64 field such as "1.0" via float and only warns
            warnings.simplefilter("error", DeprecationWarning)
            records = np.loadtxt(rows, _ROW, comments=None, delimiter=",", ndmin=1)
    except (ValueError, DeprecationWarning):
        return _parse_rows(rows, line_of)
    in_range = np.abs(records["value"]) <= MAX_QOS  # False for NaN and infinities
    if not (in_range.all() and records["user"].min() >= 0 and records["service"].min() >= 0):
        return _parse_rows(rows, line_of)
    return records


def _parse_rows(rows: list[str], line_of: Callable[[int], int]) -> np.ndarray:
    """`_parse_block` one row at a time with Python's int and float, which
    define the number forms the format accepts.

    The one home of the row rules. Raises for the first row that breaks one,
    naming its file line `line_of(k)`: ParseError for a row without exactly
    three fields, an id that is not a non-negative integer or a value that is
    not a number, BadValueError for a value that is not finite or is over
    MAX_QOS in magnitude, DataError for an id beyond int64.
    """
    records = []
    for k, row in enumerate(rows):
        fields = [f.strip() for f in row.split(",")]
        if len(fields) != 3:
            raise ParseError(f"line {line_of(k)}: expected 3 fields, got {len(fields)}")
        try:
            user, service, value = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ParseError(f"line {line_of(k)}: {exc}") from None
        if min(user, service) < 0:
            raise ParseError(f"line {line_of(k)}: negative id")
        if not math.isfinite(value):
            raise BadValueError(f"line {line_of(k)}: non-finite QoS value {fields[2]!r}")
        if abs(value) > MAX_QOS:
            raise BadValueError(
                f"line {line_of(k)}: QoS value {fields[2]!r} is over {MAX_QOS:.4g} in magnitude"
            )
        if max(user, service) > _INT64_MAX:
            axis, big = ("user", user) if user > service else ("service", service)
            raise DataError(
                f"line {line_of(k)}: {axis} id {big} implies a matrix over the "
                f"{MAX_CELLS}-cell limit"
            )
        records.append((user, service, value))
    return np.array(records, _ROW)


def load_matrix(path: str | Path, orientation: MetricOrientation) -> QoSMatrix:
    """Load a QoS matrix from CSV.

    Expected format: header `user_id,service_id,qos_value`, integer ids,
    decimal values of magnitude at most MAX_QOS, `#` starting comment lines;
    blank lines and whitespace around fields are ignored. Smaller-is-better
    values are negated here so the returned matrix is canonical.

    The file is read READ_CHARS characters at a time, never whole, and each
    read's complete lines are parsed as one block by numpy's C reader into
    (int64, int64, float64) records; the grid is filled in one scatter. A
    plain read (ASCII, no `#`, blank line, space, tab or line break other
    than "\\n") reaches the reader with no Python per line; any other read's
    lines are stripped and filtered one by one first. The checks are array
    operations. Python's int and float still define the accepted number
    forms: a block the reader rejects or the checks flag is parsed row by
    row with them, which names the first bad row. Memory is 24 bytes per
    row (48 while the blocks are joined) plus one read's text and lines:
    a 36k-row plain file loads in 20 ms with a 3.1 MB
    tracemalloc peak (2-vCPU host, Python 3.11, numpy 2.4; 23 ms with
    every read on the per-line path, about 84 ms with Python's int and float
    on every field).

    Raises ParseError, BadValueError or DuplicateKeyError naming the line on
    malformed input, DataError if the file is unreadable or an id implies a
    grid of more than MAX_CELLS cells. The read only counts content rows;
    an error names its line by re-reading the file up to its row.
    """
    path = Path(path)

    def line_of(i: int) -> int:
        """File line (1-based) of content row i, the header being row 0."""
        with path.open(encoding="utf-8", newline="") as fh:
            lines = (line for block, _ in _blocks(fh) for line in block)
            content = (n for n, line in enumerate(lines, 1) if _content([line]))
            return next(itertools.islice(content, i, None))

    try:
        with path.open(encoding="utf-8", newline="") as fh:
            parts, count = [], 0  # count: content rows so far, the header's included
            for _, rows in _blocks(fh):
                start, count = count, count + len(rows)
                if start == 0 and rows:  # the header's block
                    if tuple(f.strip() for f in rows[0].split(",")) != CSV_HEADER:
                        raise ParseError(
                            f"line {line_of(0)}: expected header {','.join(CSV_HEADER)!r}, "
                            f"got {rows[0]!r}"
                        )
                    rows, start = rows[1:], 1
                parts.append(_parse_block(rows, lambda k: line_of(start + k)))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not count:
        raise ParseError("empty dataset: no header line found")
    records = np.concatenate(parts)
    users, services, values = records["user"], records["service"], records["value"]

    num_users = int(users.max()) + 1 if users.size else 0
    num_services = int(services.max()) + 1 if users.size else 0
    if num_users * num_services > MAX_CELLS:
        axis, ids = ("user", users) if num_users > num_services else ("service", services)
        i = int(ids.argmax())
        raise DataError(
            f"line {line_of(i + 1)}: {axis} id {ids[i]} implies a {num_users} x {num_services} "
            f"matrix, over the {MAX_CELLS}-cell limit"
        )
    if orientation is MetricOrientation.SMALLER_IS_BETTER:
        np.negative(values, out=values)
    grid = _fill_grid(
        num_users, num_services, users, services, values, lambda i: f"line {line_of(i + 1)}: "
    )
    return QoSMatrix._own(grid)


def save_matrix(matrix: QoSMatrix, path: str | Path) -> None:
    """Write a matrix in the canonical CSV format (larger-is-better values),
    with "\n" line ends, so that `load_matrix` reads it as plain."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for user, service, value in matrix.entries():
            writer.writerow([user, service, repr(value)])


def split_train_test(
    matrix: QoSMatrix, density: float, seed: int, active_users: Iterable[int]
) -> tuple[QoSMatrix, QoSMatrix]:
    """Partition active users' observations into train and withheld truth.

    Each active user keeps ceil(density * |row|) seeded-random observations
    in the training matrix, so nobody is left with an empty training row at a
    density in (0, 1]; the removed ones land in the truth matrix. Rows of
    non-active users are copied to train unchanged. Active users with no
    observations are skipped with a logged warning. Deterministic for fixed
    arguments; the order and repeats of `active_users` do not matter.
    ConfigError for a bad density or seed, DomainError for a bad user id.
    """
    if isinstance(density, bool) or not isinstance(density, (int, float)):
        raise ConfigError(f"density {density!r} is not a number")
    if not 0.0 < density <= 1.0:
        raise ConfigError(f"density {density} outside (0, 1]")
    if as_int(seed, "seed", ConfigError) < 0:
        raise ConfigError("seed must be non-negative")
    train = np.array(matrix.values)
    truth = np.full_like(train, np.nan)
    # each user once: a repeat would overwrite its truth with the NaN left in train
    for user in sorted({as_int(u, "user") for u in active_users}):
        matrix._check_user(user)
        observed = np.flatnonzero(matrix.observed_mask[user])
        if observed.size == 0:
            log.warning("split: active user %d has no observations, skipped", user)
            continue
        keep = math.ceil(density * observed.size)
        rng = derive_rng(seed, user)
        perm = rng.permutation(observed.size)
        removed = observed[perm[keep:]]
        truth[user, removed] = train[user, removed]
        train[user, removed] = np.nan
    return QoSMatrix._own(train), QoSMatrix._own(truth)
