import logging
import math

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
from qosrank.matrix import (
    MetricOrientation,
    QoSMatrix,
    SplitSpec,
    load_matrix,
    save_matrix,
    split_train_test,
)

from conftest import random_sparse_matrix


def write_csv(tmp_path, rows, header="user_id,service_id,qos_value"):
    path = tmp_path / "data.csv"
    lines = [header] if header else []
    lines += rows
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_identity_ingestion(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5", "0,1,0.2"])
    m = load_matrix(path, MetricOrientation.LARGER_IS_BETTER)
    assert m.value(0, 0) == 0.5
    assert m.value(0, 1) == 0.2
    assert m.num_users == 1 and m.num_services == 2


def test_load_negates_smaller_is_better(tmp_path):
    path = write_csv(tmp_path, ["0,0,0.5"])
    m = load_matrix(path, MetricOrientation.SMALLER_IS_BETTER)
    assert m.value(0, 0) == -0.5


def test_canonicalization_involution(tmp_path, rng):
    raw = rng.uniform(0.1, 5.0, 20)
    rows = [f"{i % 4},{i // 4},{float(raw[i])!r}" for i in range(20)]
    path = write_csv(tmp_path, rows)
    m = load_matrix(path, MetricOrientation.SMALLER_IS_BETTER)
    for i in range(20):
        assert -m.value(i % 4, i // 4) == raw[i]


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
    assert m.value(0, 0) == 1.5


def test_save_load_roundtrip(tmp_path, rng):
    m = random_sparse_matrix(rng, 6, 8, 0.5)
    path = tmp_path / "out.csv"
    save_matrix(m, path)
    again = load_matrix(path, MetricOrientation.LARGER_IS_BETTER)
    assert again == m


def test_values_are_read_only():
    m = QoSMatrix.from_entries(1, 1, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def test_observed_mask_is_cached_and_read_only(rng):
    m = random_sparse_matrix(rng, 5, 6, 0.5)
    assert np.array_equal(m.observed_mask, ~np.isnan(m.values))
    assert m.observed_mask is m.observed_mask
    with pytest.raises(ValueError):
        m.observed_mask[0, 0] = not m.observed_mask[0, 0]


def test_observed_set():
    m = QoSMatrix.from_entries(2, 4, [(0, 0, 1.0), (0, 2, 2.0)])
    assert m.observed_set(0) == {0, 2}
    assert m.observed_set(1) == set()


def test_observed_set_fully_observed():
    entries = [(0, s, float(s)) for s in range(5)]
    m = QoSMatrix.from_entries(1, 5, entries)
    assert m.observed_set(0) == {0, 1, 2, 3, 4}


def test_observed_set_unknown_user():
    m = QoSMatrix.from_entries(1, 1, [(0, 0, 1.0)])
    with pytest.raises(DomainError):
        m.observed_set(3)


def test_split_density_one_is_identity(rng):
    m = random_sparse_matrix(rng, 5, 6, 0.6)
    spec = SplitSpec(density=1.0, seed=3, active_users=(0, 1, 2, 3, 4))
    train, truth = split_train_test(m, spec)
    assert train == m
    assert truth.num_entries == 0


def test_split_retained_count_is_ceil():
    entries = [(0, s, float(s + 1)) for s in range(10)]
    m = QoSMatrix.from_entries(2, 10, entries + [(1, 0, 1.0)])
    spec = SplitSpec(density=0.3, seed=1, active_users=(0,))
    train, truth = split_train_test(m, spec)
    assert len(train.observed_set(0)) == 3
    assert len(truth.observed_set(0)) == 7


def test_split_partition_property(rng):
    m = random_sparse_matrix(rng, 8, 10, 0.7)
    active = (0, 2, 5)
    spec = SplitSpec(density=0.4, seed=9, active_users=active)
    train, truth = split_train_test(m, spec)
    for u in range(m.num_users):
        original = m.observed_set(u)
        kept = train.observed_set(u)
        removed = truth.observed_set(u)
        if u in active:
            assert kept | removed == original
            assert kept & removed == set()
            for s in kept:
                assert train.value(u, s) == m.value(u, s)
            for s in removed:
                assert truth.value(u, s) == m.value(u, s)
        else:
            assert kept == original
            assert removed == set()


def test_split_deterministic(rng):
    m = random_sparse_matrix(rng, 7, 9, 0.5)
    spec = SplitSpec(density=0.5, seed=42, active_users=tuple(range(7)))
    a_train, a_truth = split_train_test(m, spec)
    b_train, b_truth = split_train_test(m, spec)
    assert a_train == b_train
    assert a_truth == b_truth


def test_split_different_seed_differs(rng):
    m = random_sparse_matrix(rng, 7, 9, 0.9)
    a, _ = split_train_test(m, SplitSpec(0.5, 1, tuple(range(7))))
    b, _ = split_train_test(m, SplitSpec(0.5, 2, tuple(range(7))))
    assert a != b


def test_split_skips_empty_active_user(caplog):
    m = QoSMatrix.from_entries(2, 3, [(0, 0, 1.0)])
    spec = SplitSpec(density=0.5, seed=0, active_users=(0, 1))
    with caplog.at_level(logging.WARNING):
        train, truth = split_train_test(m, spec)
    assert "no observations" in caplog.text
    assert train.observed_set(1) == set()


def test_split_spec_rejects_bad_density():
    with pytest.raises(ConfigError):
        SplitSpec(density=0.0, seed=1, active_users=(0,))
    with pytest.raises(ConfigError):
        SplitSpec(density=1.5, seed=1, active_users=(0,))


def test_matrix_rejects_infinite_values():
    with pytest.raises(BadValueError):
        QoSMatrix(np.array([[1.0, math.inf]]))
