"""Command line interface: rank | evaluate | simulate.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 allocation
failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .allocsim import AllocPolicy, load_scenario, synth_matrix, write_plan_csv
from .errors import AllocationError, ConfigError, DataError, QosRankError
from .experiment import build_matrix, load_config, run_experiment
from .matrix import save_matrix
from .metrics import write_report
from .ranker import RankerKind, rank

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALLOCATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 means data error here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qosrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="print the predicted service ranking for one user")
    p_rank.add_argument("--config", required=True, type=Path)
    p_rank.add_argument("--user", required=True, type=int)
    p_rank.add_argument(
        "--kind",
        default="cloudrank2",
        help="cloudrank1 | cloudrank2 | random-baseline (default cloudrank2)",
    )

    p_eval = sub.add_parser("evaluate", help="run the full experiment grid and write CSV reports")
    p_eval.add_argument("--config", required=True, type=Path)
    p_eval.add_argument("--out", required=True, type=Path)

    p_sim = sub.add_parser("simulate", help="synthesize a QoS matrix from a datacenter scenario")
    p_sim.add_argument("--scenario", required=True, type=Path)
    p_sim.add_argument("--out", required=True, type=Path)
    p_sim.add_argument("--policy", default=None, help="override the scenario's allocation policy")
    return parser


@contextmanager
def _writing(out: Path):
    """Create the output directory `out` for the block to write into; an
    OSError on the way, such as `out` being a file, is a ConfigError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out}: {exc}") from exc


def cmd_rank(args) -> int:
    config = load_config(args.config)
    kind = RankerKind.parse(args.kind)
    matrix = build_matrix(config)
    ranking = rank(
        kind, matrix, args.user, config.k_neighbors, matrix.observed_services(), seed=config.seed
    )
    print(" ".join(str(s) for s in ranking.order))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    with _writing(args.out):
        write_report(report, args.out)
    for s in report.summaries:
        print(
            f"density={s.density} kind={s.kind} mean_accuracy={s.mean_accuracy:.4f} "
            f"mean_tau={s.mean_tau:.4f} rows={s.trials}"
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    policy = AllocPolicy.parse(args.policy) if args.policy else scenario.policy
    matrix, plan = synth_matrix(scenario, policy)
    out: Path = args.out
    with _writing(out):
        save_matrix(matrix, out / f"qos_{policy.value}.csv")
        write_plan_csv(plan, out / f"plan_{policy.value}.csv")
    if plan.unplaced:
        print(f"warning: unplaced VMs {list(plan.unplaced)}", file=sys.stderr)
    n = len(plan.response_time)
    mean_rt = sum(rt / n for rt in plan.response_time.values())  # a sum of the times may overflow
    print(
        f"policy={policy.value} services={len(plan.response_time)} "
        f"unplaced={len(plan.unplaced)} mean_response_time={mean_rt:.4f}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"rank": cmd_rank, "evaluate": cmd_evaluate, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except AllocationError as exc:
        print(f"qosrank: allocation failure: {exc}", file=sys.stderr)
        return EXIT_ALLOCATION
    except DataError as exc:
        print(f"qosrank: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except QosRankError as exc:  # ConfigError, DomainError
        print(f"qosrank: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
