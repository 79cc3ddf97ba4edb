"""Command line entry point: `saist analyze <config.json> [options]`."""

import argparse
import json
import sys

from .driver import compute_saist, crosscheck_simulation, parse_config
from .errors import SaistError


def build_parser():
    p = argparse.ArgumentParser(prog="saist", description="Smallest average inter-sample time of PETC loops")
    sub = p.add_subparsers(dest="command", required=True)
    a = sub.add_parser("analyze", help="compute or bound the SAIST of a configured system")
    a.add_argument("config", help="path to the JSON system description")
    a.add_argument("--l-max", type=int, default=None, help="abstraction depth budget")
    a.add_argument("--mode", choices=["full", "targeted"], default=None)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--dot", metavar="OUT.dot", default=None, help="write the final abstraction digraph")
    a.add_argument("--report", metavar="OUT.json", default=None, help="write the full JSON report")
    a.add_argument(
        "--crosscheck",
        nargs=2,
        type=int,
        metavar=("TRIALS", "STEPS"),
        default=None,
        help="simulate TRIALS random trajectories of STEPS samples against the result",
    )
    return p


def main(argv=None):
    """Exit code 0 for Verified, 3 for BoundsOnly, 1 for an error; argparse
    exits with 2 on a usage error."""
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as f:
            data = json.load(f)
        overrides = {}
        if args.l_max is not None:
            overrides["l_max"] = args.l_max
        if args.mode is not None:
            overrides["mode"] = args.mode
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = parse_config(data, **overrides)
        report = compute_saist(config)
        if args.crosscheck is not None:
            trials, steps = args.crosscheck
            diag = crosscheck_simulation(config, report, trials, steps)
            print(f"crosscheck: tails {diag['tails']} witness {diag['witness_tail']}")
        if args.dot and report.dot:
            with open(args.dot, "w") as f:
                f.write(report.dot)
        if args.report:
            with open(args.report, "w") as f:
                f.write(report.to_json())
        lo = report.saist_lower
        hi = report.saist_upper
        print(f"status: {report.status}")
        print(f"saist_lower: {lo} ({float(lo):.6g} steps, {float(lo) * report.h:.6g} time)")
        if hi is not None:
            print(f"saist_upper: {hi} ({float(hi):.6g} steps, {float(hi) * report.h:.6g} time)")
        print(f"sac: {list(report.sac_word)}  l: {report.l_reached}")
        return 0 if report.verified else 3
    except (OSError, json.JSONDecodeError, SaistError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
