import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from qosrank import similarity
from qosrank.errors import DomainError
from qosrank.metrics import ExperimentReport, tau_scores, write_report
from qosrank.seeding import derive_rng

from oracles import oracle_kendall_tau


def score(order, truth):
    """tau, accuracy and evaluated pairs of one predicted order against its
    truth dict, from `tau_scores` on a stack of one, accuracy as
    `run_experiment` takes it; None when unscoreable."""
    withheld = np.array([[truth.get(s, np.nan) for s in order]], dtype=float)
    (tau,), (pairs,) = (a.tolist() for a in tau_scores(withheld))
    if pairs == 0:
        return None
    return SimpleNamespace(tau=tau, accuracy=(tau + 1) / 2, evaluated_pairs=pairs)


def pair_count_oracle(order, truth):
    """Independent pair enumeration over the evaluable services."""
    evaluable = [s for s in order if s in truth]
    concordant = discordant = 0
    for i, j in itertools.combinations(evaluable, 2):
        # i is predicted better than j
        if truth[i] > truth[j]:
            concordant += 1
        elif truth[i] < truth[j]:
            discordant += 1
    n = len(evaluable)
    return (concordant - discordant) / (n * (n - 1) / 2)


def test_perfect_prediction():
    truth = {s: 10.0 - s for s in range(5)}
    result = score(range(5), truth)
    assert result.tau == 1.0
    assert result.accuracy == 1.0
    assert result.evaluated_pairs == 10


def test_reversed_prediction():
    truth = {s: float(s) for s in range(5)}
    result = score(range(5), truth)
    assert result.tau == -1.0
    assert result.accuracy == 0.0


def test_partial_disorder():
    # predicted a,b,c,d; truth orders a > c > b > d
    truth = {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    result = score([0, 1, 2, 3], truth)
    assert result.tau == pytest.approx((5 - 1) / 6)
    assert pair_count_oracle([0, 1, 2, 3], truth) == result.tau


def test_restricts_to_truth_services():
    truth = {1: 5.0, 3: 1.0}
    result = score([0, 1, 2, 3, 4], truth)
    assert result.evaluated_pairs == 1
    assert result.tau == 1.0


def test_undefined_below_two_evaluable():
    assert score([0, 1, 2], {0: 1.0}) is None
    assert score([0, 1, 2], {}) is None


def test_truth_ties_count_neither():
    truth = {0: 1.0, 1: 1.0, 2: 0.5}
    result = score([0, 1, 2], truth)
    # pair (0,1) tied; (0,2) and (1,2) concordant
    assert result.tau == pytest.approx(2 / 3)


def test_matches_oracle_on_random_orders():
    rng = derive_rng(314)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        order = rng.permutation(n).tolist()
        truth = {s: float(rng.uniform(0, 1)) for s in range(n) if rng.uniform(0, 1) < 0.8}
        result = score(order, truth)
        evaluable = [s for s in order if s in truth]
        if len(evaluable) < 2:
            assert result is None
        else:
            assert result.tau == pair_count_oracle(order, truth)
            assert -1.0 <= result.tau <= 1.0
            assert 0.0 <= result.accuracy <= 1.0
            assert result.accuracy == pytest.approx((result.tau + 1) / 2, abs=1e-12)


def test_random_ranking_calibration():
    rng = derive_rng(271828)
    truth = {s: float(v) for s, v in enumerate(rng.uniform(0, 1, 10))}
    taus = []
    for _ in range(1000):
        order = rng.permutation(10).tolist()
        taus.append(score(order, truth).tau)
    assert -0.05 <= float(np.mean(taus)) <= 0.05


def report_of(densities, kinds, taus, pairs=10):
    """A report from (densities, trials, users, kinds) taus; NaN is unscoreable."""
    taus = np.asarray(taus, dtype=float)
    trials, users = taus.shape[1:3]
    return ExperimentReport(
        tuple(densities), tuple(range(trials)), tuple(range(users)), tuple(kinds),
        taus, np.where(np.isnan(taus), 0, pairs), np.full(taus.shape, np.nan),
    )


def test_aggregate_single_row():
    report = report_of((0.1,), ("cloudrank1",), [[[[0.4]]]])
    assert len(report.summaries) == 1
    s = report.summaries[0]
    assert s.mean_tau == 0.4
    assert s.std_tau == 0.0
    assert s.trials == 1


def test_aggregate_mean():
    report = report_of((0.1,), ("x",), [[[[0.2], [0.6]]]])
    assert report.summaries[0].mean_tau == pytest.approx(0.4)


def test_aggregate_groups_and_orders_cells():
    # kinds (b, a) at densities (0.3, 0.1); (0.3, a) has no scored entry
    report = report_of((0.3, 0.1), ("b", "a"), [[[[0.1, np.nan]]], [[[0.2, 0.3]]]])
    labels = [(s.density, s.kind) for s in report.summaries]
    assert labels == [(0.1, "a"), (0.1, "b"), (0.3, "b")]


def test_aggregate_consistency_with_rows():
    rng = derive_rng(99)
    taus = rng.uniform(-1, 1, (2, 3, 50, 2))
    taus[rng.uniform(size=taus.shape) < 0.2] = np.nan
    report = report_of((0.1, 0.2), ("a", "b"), taus)
    for (density, kind, index), s in zip(report.cells(), report.summaries, strict=True):
        assert (s.density, s.kind) == (density, kind)
        cell = taus[index][~np.isnan(taus[index])]
        assert s.mean_tau == pytest.approx(float(np.mean(cell)), abs=1e-9)
        assert s.std_tau == pytest.approx(float(np.std(cell)), abs=1e-9)
        assert s.trials == cell.size


def test_aggregate_empty_rejected():
    with pytest.raises(DomainError, match="no active user withheld two or more services"):
        report_of((0.1, 0.2), ("a",), np.full((2, 3, 4, 1), np.nan))


def test_csv_round_trip_precision(tmp_path):
    # two trials of three users: rows go by user, then by trial
    taus = 0.1 + 1e-12 * np.arange(6).reshape(1, 2, 3, 1)
    report = report_of((0.1,), ("a",), taus)
    write_report(report, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "density,kind,user_id,tau,accuracy,evaluated_pairs"
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "0", "1", "1", "2", "2"]
    # repr round-trip: parsing the CSV back reproduces the exact floats
    parsed = [float(line.split(",")[3]) for line in lines[1:]]
    assert parsed == taus[0, :, :, 0].T.ravel().tolist()
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "density,kind,mean_tau,std_tau,mean_accuracy,trials"
    # no ranking's first service was withheld: a cell's row has 0 samples
    assert (tmp_path / "qos_performance.csv").read_text().splitlines() == [
        "density,kind,mean_top1_qos,samples", "0.1,a,nan,0"
    ]


@pytest.mark.parametrize("chunk_elems", [1, 40, None])
def test_tau_scores_match_oracle_bit_for_bit(monkeypatch, chunk_elems):
    # rows of one stack with different evaluable counts (so the compacted
    # rows are padded), 4 truth levels (ties), and rows with 0 and 1
    # evaluable services that stay unscoreable; chunk_elems cuts the
    # comparisons into chunks of one slot row and of a few, None keeps
    # similarity.CHUNK_ELEMS
    if chunk_elems is not None:
        monkeypatch.setattr(similarity, "CHUNK_ELEMS", chunk_elems)
    rng = derive_rng(2718)
    for _ in range(40):
        rows, n = int(rng.integers(3, 9)), int(rng.integers(2, 12))
        values = rng.integers(0, 4, (rows, n)).astype(float)
        values[rng.uniform(size=values.shape) < rng.uniform(0.0, 0.8, (rows, 1))] = np.nan
        values[0] = np.nan
        values[1, 1:] = np.nan
        orders = [rng.permutation(n).tolist() for _ in range(rows)]
        truth = np.array([values[r, order] for r, order in enumerate(orders)])
        taus, pairs = tau_scores(truth)
        for r, order in enumerate(orders):
            truth_row = {s: values[r, s] for s in range(n) if not np.isnan(values[r, s])}
            want = oracle_kendall_tau(order, truth_row)
            got = score(order, truth_row)
            if want is None:
                assert pairs[r] == 0 and np.isnan(taus[r]) and got is None
            else:
                assert (float(taus[r]), int(pairs[r])) == want
                assert taus[r].tobytes() == np.float64(want[0]).tobytes()  # +0.0, not -0.0
                assert (got.tau, got.evaluated_pairs) == want
                assert got.accuracy == (want[0] + 1) / 2
