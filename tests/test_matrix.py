import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qosrank.errors import (
    BadValueError,
    ConfigError,
    DataError,
    DomainError,
    DuplicateKeyError,
    ParseError,
)
from qosrank import matrix as matrix_module
from qosrank.matrix import (
    MetricOrientation,
    QoSMatrix,
    load_matrix,
    save_matrix,
    split_train_test,
)

from conftest import random_sparse_matrix
from oracles import oracle_from_entries, oracle_load_matrix


def write_csv(tmp_path, rows, header="user_id,service_id,qos_value"):
    path = tmp_path / "data.csv"
    lines = [header] if header else []
    lines += rows
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_identity_ingestion(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5", "0,1,0.2"])
    m = load_matrix(path, MetricOrientation.LARGER_IS_BETTER)
    assert m.values[0, 0] == 0.5
    assert m.values[0, 1] == 0.2
    assert m.num_users == 1 and m.num_services == 2


def test_load_negates_smaller_is_better(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5"])
    m = load_matrix(path, MetricOrientation.SMALLER_IS_BETTER)
    assert m.values[0, 0] == -0.5


def test_canonicalization_involution(tmp_path, rng):
    raw = rng.uniform(0.1, 5.0, 20)
    rows = [f"{i % 4},{i // 4},{float(raw[i])!r}" for i in range(20)]
    path = write_csv(tmp_path, rows)
    m = load_matrix(path, MetricOrientation.SMALLER_IS_BETTER)
    for i in range(20):
        assert -m.values[i % 4, i // 4] == raw[i]


def test_load_duplicate_key(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5", "0,0,0.6"])
    with pytest.raises(DuplicateKeyError):
        load_matrix(path, MetricOrientation.LARGER_IS_BETTER)


def test_load_malformed_row_names_line(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5", "0,x,1.0"])
    with pytest.raises(ParseError, match="line 3"):
        load_matrix(path, MetricOrientation.LARGER_IS_BETTER)


def test_load_non_finite_value(tmp_path):
    path = write_csv(tmp_path, ["0,0,nan"])
    with pytest.raises(BadValueError):
        load_matrix(path, MetricOrientation.LARGER_IS_BETTER)


def test_load_bad_header(tmp_path):
    path = write_csv(tmp_path, ["0,0,1.0"], header="user,service,value")
    with pytest.raises(ParseError, match="line 1"):
        load_matrix(path, MetricOrientation.LARGER_IS_BETTER)


def test_load_huge_id_names_id_and_line(tmp_path):
    # dense, this id would need a 2 x 10**12 grid: about 16 TB of float64
    path = write_csv(tmp_path, ["0,0,0.5", f"1,{10**12},0.7"])
    with pytest.raises(DataError, match=f"line 3: service id {10**12}"):
        load_matrix(path, MetricOrientation.LARGER_IS_BETTER)


def test_load_skips_comments_and_blanks(tmp_path):
    path = write_csv(tmp_path, ["# a comment", "", "0,0,1.5"])
    m = load_matrix(path, MetricOrientation.LARGER_IS_BETTER)
    assert m.values[0, 0] == 1.5


def test_save_load_roundtrip(tmp_path, rng, monkeypatch):
    # "\n" line ends, so every read of a saved matrix is plain, also when
    # short reads cut it into many
    m = random_sparse_matrix(rng, 6, 8, 0.5)
    path = tmp_path / "out.csv"
    save_matrix(m, path)
    for block in (None, 3, 1):
        if block is not None:
            monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
        plain_reads, other_reads = read_kinds(path)
        assert plain_reads > 0 and other_reads == 0
        again = load_matrix(path, MetricOrientation.LARGER_IS_BETTER)
        assert again == m


def test_values_are_read_only():
    m = QoSMatrix(np.array([[1.0]]))
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def test_matrix_copies_caller_array():
    values = np.array([[0.1, np.nan], [0.3, 0.4]])
    m = QoSMatrix(values)
    values[0, 0] = 9.0
    values[0, 1] = 1.0
    assert values.flags.writeable
    assert m.values[0, 0] == 0.1 and np.isnan(m.values[0, 1])
    assert m.observed_mask.tolist() == [[True, False], [True, True]]


def test_built_matrices_are_read_only(tmp_path, rng):
    # the grids load_matrix and split_train_test build are adopted without
    # a copy, and still cannot be written through the matrix
    path = tmp_path / "m.csv"
    save_matrix(random_sparse_matrix(rng, 4, 5, 0.6), path)
    built = [load_matrix(path, MetricOrientation.LARGER_IS_BETTER)]
    built += split_train_test(built[0], 0.5, 3, (0, 1))
    for m in built:
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


def test_observed_mask_is_cached_and_read_only(rng):
    m = random_sparse_matrix(rng, 5, 6, 0.5)
    assert np.array_equal(m.observed_mask, ~np.isnan(m.values))
    assert m.observed_mask is m.observed_mask
    with pytest.raises(ValueError):
        m.observed_mask[0, 0] = not m.observed_mask[0, 0]


def observed(m, u):
    """The services u observed."""
    return set(np.flatnonzero(m.observed_mask[u]).tolist())


def test_observed_set():
    m = oracle_from_entries(2, 4, [(0, 0, 1.0), (0, 2, 2.0)])
    assert observed(m, 0) == {0, 2}
    assert observed(m, 1) == set()


def test_observed_set_fully_observed():
    entries = [(0, s, float(s)) for s in range(5)]
    m = oracle_from_entries(1, 5, entries)
    assert observed(m, 0) == {0, 1, 2, 3, 4}


def test_observed_set_unknown_user():
    # the split reads each active user's observed set; a user outside the
    # matrix is a DomainError, not an IndexError
    m = QoSMatrix(np.array([[1.0]]))
    with pytest.raises(DomainError, match="unknown user 3"):
        split_train_test(m, 0.5, 0, (0, 3))


def test_split_density_one_is_identity(rng):
    m = random_sparse_matrix(rng, 5, 6, 0.6)
    train, truth = split_train_test(m, 1.0, 3, (0, 1, 2, 3, 4))
    assert train == m
    assert truth.num_entries == 0


def test_split_retained_count_is_ceil():
    entries = [(0, s, float(s + 1)) for s in range(10)]
    m = oracle_from_entries(2, 10, entries + [(1, 0, 1.0)])
    train, truth = split_train_test(m, 0.3, 1, (0,))
    assert len(observed(train, 0)) == 3
    assert len(observed(truth, 0)) == 7


def test_split_partition_property(rng):
    m = random_sparse_matrix(rng, 8, 10, 0.7)
    active = (0, 2, 5)
    train, truth = split_train_test(m, 0.4, 9, active)
    for u in range(m.num_users):
        original = observed(m, u)
        kept = observed(train, u)
        removed = observed(truth, u)
        if u in active:
            assert kept | removed == original
            assert kept & removed == set()
            for s in kept:
                assert train.values[u, s] == m.values[u, s]
            for s in removed:
                assert truth.values[u, s] == m.values[u, s]
        else:
            assert kept == original
            assert removed == set()


def test_split_deterministic(rng):
    m = random_sparse_matrix(rng, 7, 9, 0.5)
    a_train, a_truth = split_train_test(m, 0.5, 42, range(7))
    b_train, b_truth = split_train_test(m, 0.5, 42, range(7))
    assert a_train == b_train
    assert a_truth == b_truth


def test_split_different_seed_differs(rng):
    m = random_sparse_matrix(rng, 7, 9, 0.9)
    a, _ = split_train_test(m, 0.5, 1, range(7))
    b, _ = split_train_test(m, 0.5, 2, range(7))
    assert a != b


def test_split_skips_empty_active_user(caplog):
    m = oracle_from_entries(2, 3, [(0, 0, 1.0)])
    with caplog.at_level(logging.WARNING):
        train, truth = split_train_test(m, 0.5, 0, (0, 1))
    assert "no observations" in caplog.text
    assert observed(train, 1) == set()


def test_split_spec_rejects_bad_density():
    m = QoSMatrix(np.array([[1.0, 2.0]]))
    for density in (0.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match=r"outside \(0, 1\]"):
            split_train_test(m, density, 1, (0,))
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        split_train_test(m, 0.5, -1, (0,))


@pytest.mark.parametrize(
    "density, seed, user, error, message",
    [
        (0.5, 1, True, DomainError, "user True is not an integer"),
        (0.5, 1, 1.5, DomainError, "user 1.5 is not an integer"),
        (0.5, 1, "1", DomainError, "user '1' is not an integer"),
        (0.5, 1.5, 0, ConfigError, "seed 1.5 is not an integer"),
        (0.5, "1", 0, ConfigError, "seed '1' is not an integer"),
        ("0.5", 1, 0, ConfigError, "density '0.5' is not a number"),
        (True, 1, 0, ConfigError, "density True is not a number"),
        (None, 1, 0, ConfigError, "density None is not a number"),
    ],
)
def test_split_rejects_bad_argument_types(density, seed, user, error, message):
    # before: an IndexError for users True and 1.5, numpy's TypeError for
    # seed 1.5, a TypeError from a comparison for the strings and None, and
    # density True split as 1.0
    m = QoSMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.nan]]))
    with pytest.raises(error, match=re.escape(message)):
        split_train_test(m, density, seed, (user,))


def test_split_accepts_numpy_scalars():
    m = QoSMatrix(np.array([[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]]))
    got = split_train_test(m, np.float64(0.5), np.int64(3), (np.int64(1), 0))
    assert got == split_train_test(m, 0.5, 3, (0, 1))


def test_split_ignores_order_and_repeats_of_active_users(rng):
    # a repeated user split twice would lose its truth to the NaN its first
    # pass left in train
    m = random_sparse_matrix(rng, 8, 10, 0.7)
    train, truth = split_train_test(m, 0.4, 9, (0, 2, 5))
    for active in [(5, 0, 2), (2, 5, 5, 0, 2), [5, 2, 0, 0]]:
        assert split_train_test(m, 0.4, 9, active) == (train, truth)


def test_matrix_rejects_infinite_values():
    with pytest.raises(BadValueError):
        QoSMatrix(np.array([[1.0, math.inf]]))


def test_matrix_rejects_caller_values_over_max_qos():
    with pytest.raises(BadValueError, match=r"magnitude 1e\+308 in matrix, over 1.798e\+300"):
        QoSMatrix(np.array([[1.0, np.nan], [-1e308, 2.0]]))
    QoSMatrix(np.array([[matrix_module.MAX_QOS, -matrix_module.MAX_QOS]]))



# --- block-wise loader: error paths and parity with the line-by-line oracle ---

# About the characters of a short test row with its line end: a READ_CHARS of
# ROW_CHARS * block cuts such a file into blocks of about `block` lines.
ROW_CHARS = 12

HEADER = "user_id,service_id,qos_value"
LARGER = MetricOrientation.LARGER_IS_BETTER


def line_number(message: str) -> int | None:
    found = re.match(r"line (\d+):", message)
    return int(found.group(1)) if found else None


def assert_same_matrix(got, want):
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()  # NaN-aware, bit for bit


@pytest.mark.parametrize("row, count", [("1,2", 2), ("1,2,0.5,3", 4), ("7", 1)])
def test_load_wrong_field_count_names_line(tmp_path, row, count):
    path = write_csv(tmp_path, ["0,0,0.5", "0,1,0.6", row])
    with pytest.raises(ParseError, match=f"line 4: expected 3 fields, got {count}"):
        load_matrix(path, LARGER)


@pytest.mark.parametrize("block", [2, None])
def test_load_field_counts_that_balance_out(tmp_path, monkeypatch, block):
    # 2 + 4 fields make 6, as two good rows do; each row is counted alone
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    path = write_csv(tmp_path, ["0,0,0.5", "1,2", "1,2,0.5,0.7", "1,1,0.5"])
    with pytest.raises(ParseError, match="line 3: expected 3 fields, got 2"):
        load_matrix(path, LARGER)


@pytest.mark.parametrize("row", ["-1,0,0.5", "0,-3,0.5", f"{-10**30},0,0.5"])
def test_load_negative_id_names_line(tmp_path, row):
    path = write_csv(tmp_path, ["0,0,0.5", row])
    with pytest.raises(ParseError, match="line 3: negative id"):
        load_matrix(path, LARGER)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_load_non_finite_value_names_line(tmp_path, value):
    path = write_csv(tmp_path, ["0,0,0.5", "0,1,0.6", f"1,0, {value} "])
    with pytest.raises(BadValueError, match=f"line 4: non-finite QoS value '{value}'"):
        load_matrix(path, LARGER)


@pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\n\n"])
def test_load_empty_or_comment_only_file(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="no header line found"):
        load_matrix(path, LARGER)


def test_load_id_beyond_int64_names_id_and_line(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5", f"{10**30},1,0.7", "1,1,0.2"])
    with pytest.raises(DataError, match=f"line 3: user id {10**30} implies"):
        load_matrix(path, LARGER)


def test_load_duplicate_names_second_line_and_cell(tmp_path):
    path = write_csv(tmp_path, ["# c", "0,0,0.5", "1,2,0.6", "", "0,1,0.4", "1,2,0.9", "1,2,1.0"])
    with pytest.raises(DuplicateKeyError, match=r"^line 7: duplicate entry for \(1, 2\)$"):
        load_matrix(path, LARGER)


@pytest.mark.parametrize("seed", range(5))
def test_load_duplicate_names_earliest_repeat(tmp_path, seed):
    # cells drawn with replacement from a small grid repeat many times; the
    # error names the first row whose cell an earlier row already holds
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 12, (300, 2)).tolist()
    seen = set()
    for n, cell in enumerate(cells):
        if tuple(cell) in seen:
            break
        seen.add(tuple(cell))
    path = write_csv(tmp_path, [f"{u},{s},0.5" for u, s in cells])
    with pytest.raises(DuplicateKeyError) as got:
        load_matrix(path, LARGER)
    assert str(got.value) == f"line {n + 2}: duplicate entry for ({cells[n][0]}, {cells[n][1]})"


def test_load_undecodable_file_is_data_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(HEADER.encode() + b"\n0,0,\xff\n")
    with pytest.raises(DataError, match="cannot read dataset"):
        load_matrix(path, LARGER)


def test_load_peak_memory_bounded(tmp_path):
    # 300 x 400 at 30% density: 36k rows, 0.9 MB. Read READ_CHARS at a time
    # and each read's lines parsed by numpy's C reader as one block, the load
    # peaks at 3.1 MB, as it did with Python's int and float on every field
    # (holding the file's text and lines: 5.1 MB; the line-by-line loader:
    # 7.5 MB); reading and parsing the whole file as one block takes 7.8 MB
    # (15 MB with int and float).
    rng = np.random.default_rng(5)
    mask = rng.random((300, 400)) < 0.3
    users, services = np.nonzero(mask)
    values = rng.uniform(0.1, 5.0, users.size)
    rows = [f"{u},{s},{v!r}" for u, s, v in zip(users.tolist(), services.tolist(), values.tolist())]
    path = write_csv(tmp_path, rows)
    tracemalloc.start()
    try:
        m = load_matrix(path, MetricOrientation.SMALLER_IS_BETTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.num_entries == users.size
    assert peak < 4.5 * 2**20, f"peak {peak / 2**20:.1f} MB"


def id_text(rng, i):
    return str(rng.choice([f"{i}", f" {i} ", f"+{i}", f"0{i}", f"\t{i}"]))


def value_text(rng, v):
    return str(rng.choice([repr(v), f"{v:.3e}", f"{v:E}", f"  {v!r}", f"{-v}", f"{v:.0f}."]))


def random_csv(rng, num_users, num_services, density):
    """CSV text of a random matrix, rows shuffled, with comments, blank and
    whitespace-only lines, padded fields, `+`/zero-padded ids, exponent
    values and mixed line endings."""
    mask = rng.random((num_users, num_services)) < density
    cells = np.argwhere(mask)
    rng.shuffle(cells)
    lines = ["# qos", " user_id , service_id,qos_value "]
    for u, s in cells.tolist():
        v = float(rng.uniform(-5.0, 5.0))
        lines.append(f"{id_text(rng, u)},{id_text(rng, s)},{value_text(rng, v)}")
        extra = rng.random()
        if extra < 0.05:
            lines.append("")
        elif extra < 0.1:
            lines.append("   \t")
        elif extra < 0.15:
            lines.append("  # note, with, commas")
    ending = "\r\n" if rng.random() < 0.3 else "\n"
    return ending.join(lines) + ending


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("seed", range(6))
def test_load_matches_oracle_on_random_csvs(tmp_path, monkeypatch, block, seed):
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    rng = np.random.default_rng(seed)
    path = tmp_path / "data.csv"
    for _ in range(4):
        shape = rng.integers(1, 12, 2)
        path.write_text(random_csv(rng, *shape, density=rng.uniform(0.0, 1.0)))
        for orientation in MetricOrientation:
            assert_same_matrix(load_matrix(path, orientation), oracle_load_matrix(path, orientation))


def test_load_matches_oracle_across_default_blocks(tmp_path):
    # ~2700 rows in 67k characters: two reads of the shipped READ_CHARS
    rng = np.random.default_rng(11)
    path = tmp_path / "data.csv"
    path.write_text(random_csv(rng, 60, 50, density=0.9))
    for orientation in MetricOrientation:
        assert_same_matrix(load_matrix(path, orientation), oracle_load_matrix(path, orientation))


# One bad row of each kind; the duplicate repeats the first data row's cell.
BAD_ROWS = {
    "two fields": ("1,2", ParseError),
    "four fields": ("1,2,0.5,9", ParseError),
    "bad user id": ("x,2,0.5", ParseError),
    "bad service id": ("1,2.5,0.5", ParseError),
    "bad value": ("1,2,fast", ParseError),
    "empty value": ("1,2,", ParseError),
    "negative id": ("1,-2,0.5", ParseError),
    "negative id beyond int64": (f"{-10**30},2,0.5", ParseError),
    "nan": ("1,2,nan", BadValueError),
    "infinite": ("1,2,-inf", BadValueError),
    "over MAX_QOS": ("1,2,-1e308", BadValueError),
    "over MAX_QOS, Python-parsed": ("1,2,1e30_1", BadValueError),
    "duplicate": ("0,0,0.25", DuplicateKeyError),
    "grid over MAX_CELLS": (f"1,{10**12},0.5", DataError),
    "id beyond int64": (f"{10**30},2,0.5", DataError),
    "float-looking id": ("1.0,2,0.5", ParseError),
    "value with trailing comment": ("1,2,0.5 # x", ParseError),
}


@pytest.mark.parametrize("where", ["first block", "later block"])
@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("kind", list(BAD_ROWS))
def test_load_error_matches_oracle(tmp_path, monkeypatch, kind, block, where):
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    # a full 40 x 30 grid: 1200 rows, one read at the shipped size; comment
    # and blank lines before and inside the data shift the line numbers
    rows = [f"{u},{s},{0.01 * (u + s)!r}" for u in range(40) for s in range(30)]
    rows[5:5] = ["", "# mid-file comment"]
    bad, error = BAD_ROWS[kind]
    at = 1 if where == "first block" else len(rows)
    rows.insert(at, bad)
    lines = ["# dataset", "", HEADER] + rows
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    bad_line = 3 + at + 1

    with pytest.raises(error) as want:
        oracle_load_matrix(path, LARGER)
    with pytest.raises(error) as got:
        load_matrix(path, LARGER)
    assert type(got.value) is type(want.value)
    if kind == "duplicate":  # the oracle's duplicate error names no line
        assert str(got.value) == f"line {bad_line}: {want.value}"
    elif kind == "id beyond int64":  # met before the grid size is known
        assert line_number(str(want.value)) == bad_line
        assert str(got.value).startswith(f"line {bad_line}: user id {10**30} implies a matrix")
    else:
        assert line_number(str(want.value)) == bad_line
        assert str(got.value) == str(want.value)


LINE_FAULTS = ["1,2", "1,2,3,4", "z,1,0.5", "1,1,x", "-1,1,0.5", "1,1,nan", "1,1,inf"]


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("seed", range(8))
def test_first_bad_line_wins_like_oracle(tmp_path, monkeypatch, block, seed):
    # several line faults in one file: the earliest line is reported, as
    # the line-by-line oracle does, whatever block and column they fall in
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    rng = np.random.default_rng(seed)
    rows = [f"{u},{s},{float(rng.uniform(1, 2))!r}" for u in range(4) for s in range(5)]
    for fault in rng.choice(LINE_FAULTS, size=3):
        rows.insert(int(rng.integers(len(rows) + 1)), str(fault))
    path = write_csv(tmp_path, rows)
    with pytest.raises(DataError) as want:
        oracle_load_matrix(path, LARGER)
    with pytest.raises(DataError) as got:
        load_matrix(path, LARGER)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# Number forms Python's int and float accept and numpy's C reader does not
# (underscores, non-ASCII digits), some with no-break-space padding: a block
# holding one is parsed row by row and must load as the oracle loads it.
ODD_ROWS = ["1_0,2,0.5", "\u0663,4,0.25", "\xa05\xa0,6,1_000.5", "7,\xa08,1_0e-1"]


@pytest.mark.parametrize("bad_row", ["1,x,0.5", "-1,2,0.5", "2,2,inf", "3,3"])
@pytest.mark.parametrize("block", [3, None])
def test_load_odd_number_forms_match_oracle(tmp_path, monkeypatch, block, bad_row):
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    # 1200 rows: the odd rows land in a later block of the short reads
    rows = [f"{u},{s},{0.5 + u - s!r}" for u in range(20, 60) for s in range(30)]
    at = len(rows) - 10
    rows[at:at] = ODD_ROWS
    path = tmp_path / "data.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    for orientation in MetricOrientation:
        assert_same_matrix(load_matrix(path, orientation), oracle_load_matrix(path, orientation))
    # a bad row after the odd ones is named at its line, as the oracle names it
    rows.insert(at + len(ODD_ROWS), bad_row)
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as want:
        oracle_load_matrix(path, LARGER)
    with pytest.raises(DataError) as got:
        load_matrix(path, LARGER)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert line_number(str(got.value)) == at + len(ODD_ROWS) + 2


def test_reader_deprecation_warning_counts_as_rejection(tmp_path, monkeypatch):
    # numpy 1.23-1.26 reads an int64 field such as "1.0" via float and only
    # warns; a reader that warns stands in for it here, returning junk
    def warning_loadtxt(rows, dtype, **kwargs):
        warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
        return np.zeros(len(rows), dtype)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = write_csv(tmp_path, ["0,0,0.5", "1_0,2,0.25", "3,1,1.5"])
    assert_same_matrix(load_matrix(path, LARGER), oracle_load_matrix(path, LARGER))
    path = write_csv(tmp_path, ["0,0,0.5", "1.0,2,0.25", "3,1,1.5"])
    with pytest.raises(ParseError, match="^line 3: invalid literal for int"):
        load_matrix(path, LARGER)


# Every line break `str.splitlines` knows, which `load_matrix` keeps.
SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("bad_row", ["1,x,0.5", "0,0,0.9", "1,1,-1e308"])
@pytest.mark.parametrize("read_chars", [1, 2, 5, None])
@pytest.mark.parametrize("sep", SEPARATORS)
def test_load_line_breaks_match_oracle(tmp_path, monkeypatch, sep, read_chars, bad_row):
    # reads of 1, 2 and 5 characters cut "\r\n" between two reads and leave
    # the bad row (a parse error, or a duplicate, which is named after the
    # whole file is read) beyond the first block; the shipped size reads the
    # file in one block
    if read_chars is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", read_chars)
    lines = ["# c", HEADER, "0,0,0.5", "", "1,2,0.25", "  # note", "2,1,1.5"]
    path = tmp_path / "data.csv"
    path.write_bytes((sep.join(lines) + sep).encode("utf-8"))
    assert_same_matrix(load_matrix(path, LARGER), oracle_load_matrix(path, LARGER))
    path.write_bytes(sep.join(lines + ["3,3,0.1", bad_row, "4,4,0.2"]).encode("utf-8"))
    with pytest.raises(DataError) as got:
        load_matrix(path, LARGER)
    assert str(got.value).startswith("line 9: ")
    with pytest.raises(type(got.value)) as want:
        oracle_load_matrix(path, LARGER)
    if bad_row == "0,0,0.9":  # the oracle's duplicate error names no line
        assert str(got.value) == f"line 9: {want.value}"
    else:
        assert str(got.value) == str(want.value)


def read_kinds(path):
    """(plain, other) counts of `_blocks`' reads of `path`; a plain read's
    rows are its lines."""
    with path.open(encoding="utf-8", newline="") as fh:
        plain = [rows is lines for lines, rows in matrix_module._blocks(fh)]
    return plain.count(True), plain.count(False)


def plain_rows(rng, num_users, num_services, density):
    """Shuffled data rows of a random matrix with no space, `#` or tab:
    `+`/zero-padded ids, some such as `0_7` that only Python's int reads,
    and exponent values, as a plain read holds them."""
    cells = np.argwhere(rng.random((num_users, num_services)) < density)
    rng.shuffle(cells)
    rows = []
    for u, s in cells.tolist():
        value = value_text(rng, float(rng.uniform(-5, 5))).strip()
        rows.append(f"{rng.choice(['', '+', '0', '0_'])}{u},{s},{value}")
    return rows


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("seed", range(6))
def test_plain_and_other_reads_match_oracle(tmp_path, monkeypatch, block, seed):
    # the same rows as a plain file, and with a comment, blank or whitespace
    # line or trailing spaces every few rows, so that short reads alternate
    # kinds; a read holding a `0_7` id is parsed row by row
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    rng = np.random.default_rng(seed)
    rows = plain_rows(rng, 30, 20, density=0.5)
    extras = ["#c\n{}", "\n{}", " \n{}", "\t\n{}", "{}  "]
    mixed = [extras[k % 5].format(r) if k % 7 == 6 else r for k, r in enumerate(rows)]
    path = tmp_path / "data.csv"
    for lines, plain in ((rows, True), (mixed, False)):
        path.write_text("\n".join([HEADER] + lines) + "\n")
        plain_reads, other_reads = read_kinds(path)
        if plain:
            assert other_reads == 0
        else:  # one read of the shipped size holds the whole file
            assert other_reads > 0 and (plain_reads > 0) == (block is not None)
        for orientation in MetricOrientation:
            assert_same_matrix(load_matrix(path, orientation), oracle_load_matrix(path, orientation))


# Bad rows of each kind a plain read can hold; the duplicate repeats "0,0".
PLAIN_BAD_ROWS = [
    "1,2", "1,2,0.5,9", "x,2,0.5", "1,2,fast", "1,-2,0.5",
    "-1,2,0.5", "1,2,nan", "1,2,-inf", "0,0,0.25", "1,2,-1e308", "1,2,1e30_1",
]


@pytest.mark.parametrize("where", ["first block", "later block"])
@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("bad", PLAIN_BAD_ROWS)
def test_plain_file_errors_match_oracle(tmp_path, monkeypatch, bad, block, where):
    # a parse, negative-id, non-finite, over-MAX_QOS or duplicate row in a
    # file whose every read is plain is named at the oracle's line
    if block is not None:
        monkeypatch.setattr(matrix_module, "READ_CHARS", ROW_CHARS * block)
    rows = [f"{u},{s},{0.01 * (u + s)!r}" for u in range(40) for s in range(30)]
    at = 1 if where == "first block" else len(rows)
    rows.insert(at, bad)
    path = write_csv(tmp_path, rows)
    assert read_kinds(path)[1] == 0
    with pytest.raises(DataError) as want:
        oracle_load_matrix(path, LARGER)
    with pytest.raises(DataError) as got:
        load_matrix(path, LARGER)
    assert type(got.value) is type(want.value)
    named = f"line {at + 2}: "
    if bad == "0,0,0.25":  # the oracle's duplicate error names no line
        assert str(got.value) == named + str(want.value)
    else:
        assert str(got.value) == str(want.value)
        assert line_number(str(want.value)) == at + 2


def grid_from_entries(num_users, num_services, entries):
    """The matrix `_fill_grid` builds from (user, service, value) triples."""
    columns = list(zip(*entries)) or [(), (), ()]
    users, services = (np.array(ids, dtype=np.int64) for ids in columns[:2])
    values = np.array(columns[2], dtype=float)
    return QoSMatrix(matrix_module._fill_grid(num_users, num_services, users, services, values))


# `_fill_grid` fills the loader's grid from triples that its parse and grid
# sizing have checked: in bounds, with finite values. It finds the repeats.
@pytest.mark.parametrize("seed", range(20))
def test_from_entries_matches_oracle(seed):
    # `seed` entries, none at seed 0, drawn with replacement from a small grid
    rng = np.random.default_rng(seed)
    num_users, num_services = (int(n) for n in rng.integers(1, 6, 2))
    entries = [
        (int(rng.integers(num_users)), int(rng.integers(num_services)), float(rng.uniform(-1, 1)))
        for _ in range(seed)
    ]
    try:
        want = oracle_from_entries(num_users, num_services, entries)
    except DuplicateKeyError as exc:
        with pytest.raises(DuplicateKeyError) as got:
            grid_from_entries(num_users, num_services, entries)
        assert str(got.value) == str(exc)
    else:
        assert_same_matrix(grid_from_entries(num_users, num_services, entries), want)
