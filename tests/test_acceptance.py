"""Acceptance gate: every criterion as a dedicated test at its stated
tolerance, printing one pass/fail line per criterion (run with -s or -rA to
see the lines)."""

import itertools
import json
import shutil
import time

import numpy as np

from qosrank.allocsim import AllocPolicy, allocate, synth_matrix
from qosrank.cli import main
from qosrank.errors import AllocationError
from qosrank.experiment import ExperimentConfig, run_experiment
from qosrank.matrix import QoSMatrix
from qosrank.metrics import tau_scores
from qosrank.ranker import RankerKind, greedy_orders, rank
from qosrank.seeding import derive_rng
from qosrank.similarity import similarity_block

from conftest import CONFIG_DIR, committed_scenario, random_sparse_matrix
from oracles import (
    PairNeighborhood,
    checked_preference,
    members_of,
    neighbors_of,
    one_table,
    pair_confidence,
    pair_matrix,
    pair_weights,
    top_k,
)

ALL_KINDS = (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2, RankerKind.RANDOM_BASELINE)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d} {name}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def oracle_krcc(matrix, u, v):
    """Exhaustive pair-counting oracle, written independently of similarity_block."""
    common = np.flatnonzero(matrix.observed_mask[u] & matrix.observed_mask[v]).tolist()
    if len(common) < 2:
        return 0.0
    values = matrix.values
    concordant = discordant = 0
    for i, j in itertools.combinations(common, 2):
        du = values[u, i] - values[u, j]
        dv = values[v, i] - values[v, j]
        if du == 0.0 or dv == 0.0:
            continue
        if (du > 0) == (dv > 0):
            concordant += 1
        else:
            discordant += 1
    total = len(common) * (len(common) - 1) / 2
    return (concordant - discordant) / total


def test_c01_krcc_oracle_equivalence():
    rng = derive_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        users = int(rng.integers(2, 11))
        services = int(rng.integers(2, 11))
        density = float(rng.uniform(0.5, 1.0))
        m = random_sparse_matrix(rng, users, services, density)
        sims = {}
        for u in range(users):
            column = similarity_block(m, (u,))[:, 0].tolist()
            sims.update(((u, v), s) for v, s in enumerate(column) if v != u)
        for u, v in itertools.combinations(range(users), 2):
            got = sims[(u, v)]
            assert got == oracle_krcc(m, u, v)
            assert -1.0 <= got <= 1.0
            assert got == sims[(v, u)]
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "similarity oracle equivalence",
        elapsed < 5.0,
        f"{checked} pairs, {elapsed:.2f}s < 5s",
    )


def test_c02_confidence_worked_example():
    high_pn = PairNeighborhood(pair=(1, 2), members=((4, 0.7), (5, 0.8), (6, 0.9)))
    low_pn = PairNeighborhood(pair=(0, 2), members=((1, 0.1), (2, 0.2), (3, 0.3)))
    high = pair_confidence(high_pn)
    low = pair_confidence(low_pn)
    ok = abs(high - 0.8083333333333333) < 1e-9 and abs(low - 0.23333333333333334) < 1e-9
    # the shipped table gives the same confidences on matrices realizing them
    for pn, conf in ((high_pn, high), (low_pn, low)):
        pair_m, pair_nbrs = pair_matrix(pn)
        pv = checked_preference(pair_m, 0, pair_nbrs, *pn.pair)
        ok = ok and abs(pv.confidence - conf) < 1e-12

    # full three-service construction: a,b observed by the user, c known
    # through two neighbor groups of different strength
    values = np.full((7, 3), np.nan)
    values[0] = [0.9, 0.4, np.nan]
    for idx, v in enumerate((1, 2, 3)):
        values[v] = [0.5 + 0.1 * idx, np.nan, 0.3 + 0.1 * idx]
    for idx, v in enumerate((4, 5, 6)):
        values[v] = [np.nan, 0.6 + 0.1 * idx, 0.2 + 0.1 * idx]
    m = QoSMatrix(values)
    nbrs = neighbors_of(((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.7), (5, 0.8), (6, 0.9)))
    c_ab = checked_preference(m, 0, nbrs, 0, 1).confidence
    c_ac = checked_preference(m, 0, nbrs, 0, 2).confidence
    c_bc = checked_preference(m, 0, nbrs, 1, 2).confidence
    ok = ok and c_ab == 1.0 and c_ab > c_bc > c_ac
    _report(2, "confidence worked example", ok, f"C(a,b)=1 > C(b,c)={c_bc:.5f} > C(a,c)={c_ac:.5f}")


def test_c03_antisymmetry_and_weight_normalization():
    rng = derive_rng(103)
    worst_sym = 0.0
    worst_weight = 0.0
    worst_value = 0.0
    for _ in range(1000):
        users = int(rng.integers(3, 9))
        services = int(rng.integers(2, 8))
        m = random_sparse_matrix(rng, users, services, float(rng.uniform(0.3, 0.9)))
        u = int(rng.integers(users))
        nbrs = top_k(m, u, int(rng.integers(1, 6)))
        values = one_table(m, u, nbrs, range(services))[0]
        worst_sym = max(worst_sym, float(np.abs(values + values.T).max()))
        if nbrs[0].size:
            mask = m.observed_mask
            for i, j in itertools.combinations(range(services), 2):
                members = tuple(
                    (v, s) for v, s in members_of(nbrs) if mask[v, i] and mask[v, j]
                )
                if members:
                    weights = pair_weights(PairNeighborhood((i, j), members))
                    worst_weight = max(
                        worst_weight, abs(sum(w for _, w in weights) - 1.0)
                    )
                    if not (mask[u, i] and mask[u, j]):  # implicit pair
                        gap = sum(w * (m.values[v, i] - m.values[v, j]) for v, w in weights)
                        worst_value = max(worst_value, abs(values[i, j] - gap))
    ok = worst_sym <= 1e-12 and worst_weight <= 1e-12 and worst_value <= 1e-12
    _report(
        3,
        "antisymmetry and weight normalization",
        ok,
        f"max |psi(i,j)+psi(j,i)|={worst_sym:.2e}, max |sum(w)-1|={worst_weight:.2e}, "
        f"max |table - weighted gaps|={worst_value:.2e}",
    )


def test_c04_explicit_consistency():
    rng = derive_rng(104)
    for _ in range(200):
        users = int(rng.integers(1, 6))
        services = int(rng.integers(2, 9))
        m = QoSMatrix(rng.uniform(0.0, 1.0, (users, services)))
        u = int(rng.integers(users))
        expected = tuple(np.argsort(-m.values[u], kind="stable").tolist())
        for kind in (RankerKind.CLOUDRANK1, RankerKind.CLOUDRANK2):
            got = rank(kind, m, u, 10, range(services)).order
            assert got == expected
    _report(4, "explicit consistency (fully observed users)", True, "200 instances")


def test_c05_incremental_greedy_equals_recompute():
    rng = derive_rng(105)
    for _ in range(300):
        services = int(rng.integers(2, 9))
        m = random_sparse_matrix(rng, 6, services, float(rng.uniform(0.4, 0.9)))
        u = int(rng.integers(6))
        values, confidences, _ = one_table(m, u, top_k(m, u, 4), range(services))
        for weighted in (False, True):
            effective = values if not weighted else confidences * values
            remaining = list(range(services))
            expected = []
            while remaining:  # full recomputation each round
                sums = {
                    i: sum(effective[i, j] for j in remaining if j != i)
                    for i in remaining
                }
                top = max(sums.values())
                tol = 1e-9 * max(1.0, abs(top))
                best = min(i for i in remaining if sums[i] >= top - tol)
                expected.append(best)  # candidates 0..services-1: position = id
                remaining.remove(best)
            assert greedy_orders(effective[None])[0].tolist() == expected
    _report(5, "incremental greedy equals full recompute", True, "300 instances, <=8 services")


def test_c06_ranking_quality_ordering():
    config = ExperimentConfig(
        densities=(0.1, 0.2, 0.3),
        kinds=ALL_KINDS,
        k_neighbors=10,
        active_users=20,
        trial_seeds=tuple(range(100)),
        seed=7,
        scenario=committed_scenario(),
    )
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    acc = {(s.density, s.kind): s.mean_accuracy for s in report.summaries}
    ok = elapsed < 60.0
    detail = [f"{elapsed:.1f}s < 60s"]
    for d in (0.1, 0.2, 0.3):
        cr1 = acc[(d, "cloudrank1")]
        cr2 = acc[(d, "cloudrank2")]
        rnd = acc[(d, "random-baseline")]
        ok = ok and cr2 >= cr1 - 0.01 and cr1 >= rnd + 0.10 and cr2 >= rnd + 0.10
        detail.append(f"d={d}: cr1={cr1:.3f} cr2={cr2:.3f} rnd={rnd:.3f}")
    _report(6, "ranking quality ordering", ok, "; ".join(detail))


def test_c07_random_baseline_calibration():
    rng = derive_rng(107)
    truth = {s: float(v) for s, v in enumerate(rng.uniform(0.0, 1.0, 10))}
    taus = []
    for draw in range(1000):
        order = rng.permutation(10).tolist()
        taus.append(float(tau_scores(np.array([[truth[s] for s in order]]))[0][0]))
    mean = float(np.mean(taus))
    _report(7, "random baseline calibration", -0.05 <= mean <= 0.05, f"mean tau {mean:+.4f}")


def test_c08_allocation_invariants():
    rng = derive_rng(108)
    ok = True
    # capacity safety across random instances, both policies
    for _ in range(50):
        hosts = [
            _host(float(rng.integers(500, 2000)), float(rng.integers(512, 4096)),
                  float(rng.integers(100, 1000)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        vms = [
            _vm(float(rng.integers(50, 900)), float(rng.integers(64, 2048)),
                float(rng.integers(10, 500)))
            for _ in range(int(rng.integers(2, 12)))
        ]
        for policy in AllocPolicy:
            try:
                plan = allocate(hosts, vms, policy)
            except AllocationError:
                continue
            for h, capacity in enumerate(hosts):
                resident = [vms[k] for k, hid in plan.vm_to_host.items() if hid == h]
                for dim in range(3):
                    ok = ok and sum(v[dim] for v in resident) <= capacity[dim]
    # exact reciprocal identity and policy ordering on the default scenario
    scenario = committed_scenario()
    means = {}
    for policy in AllocPolicy:
        _, plan = synth_matrix(scenario, policy)
        for service, rt in plan.response_time.items():
            ok = ok and rt * plan.throughput[service] == 1.0
        means[policy] = sum(plan.response_time.values()) / len(plan.response_time)
    bf, rr = means[AllocPolicy.BEST_FIT_DECREASING], means[AllocPolicy.ROUND_ROBIN]
    ok = ok and bf <= rr
    _report(8, "allocation invariants", ok, f"mean rt best-fit {bf:.3f} <= round-robin {rr:.3f}")


def test_c09_allocation_improves_top1_qos():
    base = dict(
        densities=(0.1, 0.2, 0.3),
        kinds=(RankerKind.CLOUDRANK2,),
        k_neighbors=10,
        active_users=20,
        trial_seeds=tuple(range(20)),
        seed=7,
        scenario=committed_scenario(),
    )
    qos_bf = run_experiment(ExperimentConfig(**base)).qos_performance
    qos_rr = run_experiment(
        ExperimentConfig(**base, policy=AllocPolicy.ROUND_ROBIN)
    ).qos_performance
    ok = True
    detail = []
    for b, r in zip(qos_bf, qos_rr):
        ok = ok and b.mean_top1_qos >= r.mean_top1_qos
        detail.append(f"d={b.density}: {b.mean_top1_qos:.3f} >= {r.mean_top1_qos:.3f}")
    _report(9, "best-fit condition improves top-1 QoS", ok, "; ".join(detail))


def test_c10_evaluate_is_byte_deterministic(tmp_path):
    shutil.copy(CONFIG_DIR / "default_scenario.json", tmp_path / "scenario.json")
    (tmp_path / "experiment.json").write_text(
        json.dumps(
            {
                "scenario": "scenario.json",
                "densities": [0.1, 0.3],
                "kinds": ["cloudrank1", "cloudrank2", "random-baseline"],
                "active_users": 10,
                "trial_seeds": list(range(5)),
                "seed": 11,
            }
        )
    )
    for out in ("a", "b"):
        code = main(
            ["evaluate", "--config", str(tmp_path / "experiment.json"), "--out", str(tmp_path / out)]
        )
        assert code == 0
    ok = True
    for name in ("report.csv", "summary.csv", "qos_performance.csv"):
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _report(10, "evaluate output is byte-identical across runs", ok)


def _host(mips, ram, bw):
    return (mips, ram, bw)


def _vm(mips, ram, bw):
    return (mips, ram, bw)
