"""One workload in one fresh interpreter; started by run.py, not by hand.

Set-up (import saist, then parse_config and discretize each system) ends
at a CLOCK_MONOTONIC stamp that run.py compares with its own stamp, taken
just before it started this process.
Then whole rounds of `compute_saist` over every system of the workload run
until another round would pass `--seconds`; each call is timed alone, after
a `gc.collect()`. With `--trace 1` one more round runs under the
per-layer wrappers of tracer.py.

The last line of stdout is one JSON object; run.py checks the reports in
it against its own reference simulation.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def summary(report):
    """The parts of a report the reference checks read, in plain JSON."""
    def rat(x):
        return None if x is None else [x.numerator, x.denominator]

    return {
        "status": report.status,
        "lower": rat(report.saist_lower),
        "upper": rat(report.saist_upper),
        "sac": [int(k) for k in report.sac_word],
        "l": report.l_reached,
        "witness": None if report.witness is None else report.witness.tolist(),
        "dot": report.dot,
        "n_states": [it["n_states"] for it in report.iterations],
        "oracle": report.iterations[-1]["oracle"] if report.iterations else {},
    }


def fingerprint(s):
    """Digest of a summary; None (a failed analysis) stays None."""
    return None if s is None else hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()


def analyse_round(saist, configs, failures):
    """compute_saist on each config; (seconds per call, summary or None)."""
    walls, summaries = [], []
    for cfg in configs:
        gc.collect()
        t0 = time.perf_counter()
        try:
            report = saist.compute_saist(cfg)
        except Exception:  # one failed analysis is counted, the round goes on
            report = None
            failures.append(cfg)
            traceback.print_exc()
        walls.append(time.perf_counter() - t0)
        summaries.append(None if report is None else summary(report))
    return walls, summaries


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    systems = WORKLOADS[args.workload]

    import saist

    configs = [saist.parse_config(s["config"]) for s in systems]
    for cfg in configs:
        saist.discretize(cfg.system)
    setup_end = time.monotonic()

    failures = []
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(analyse_round(saist, configs, failures))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0][1]
    prints = [fingerprint(s) for s in first]
    repeats_differ = sum(
        fingerprint(s) != p for _, sums in rounds[1:] for s, p in zip(sums, prints)
    )
    wall_s = statistics.median(sum(walls) for walls, _ in rounds)
    out = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "round_walls": [walls for walls, _ in rounds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(rounds) * len(configs),
        "failed": len(failures),
        "repeats_differ": repeats_differ,
        "reports": first,
    }

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        mismatches = []
        traced_failures = []
        traced_wall = 0.0
        with tracer.installed():
            traced = []
            for cfg, spec in zip(configs, systems):
                before = tracer.snapshot()
                (wall,), (s,) = analyse_round(saist, [cfg], traced_failures)
                traced_wall += wall
                traced.append(s)
                after = tracer.snapshot()
                if s is None:
                    continue
                own = {
                    "decisions": s["oracle"].get("queries"),
                    "engine_calls": s["oracle"].get("engine_calls"),
                    "sampling_hits": s["oracle"].get("sampling_hits"),
                    "states": sum(s["n_states"]),
                }
                for key, value in own.items():
                    if after[key] - before[key] != value:
                        mismatches.append(
                            f"{spec['name']}: {key} traced {after[key] - before[key]}, "
                            f"program {value}"
                        )
        changed = sum(fingerprint(s) != p for s, p in zip(traced, prints))
        layers = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
        layers["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        layers["trace.overhead_s"] = {"value": traced_wall - wall_s, "unit": "s"}
        layers["trace.counter_mismatches"] = {"value": len(mismatches), "unit": "count"}
        out["trace"] = {
            "layers": layers,
            "mismatches": mismatches,
            "reports_changed": changed + len(traced_failures),
        }
        if args.trace_out:
            Path(args.trace_out).write_text(
                json.dumps(
                    {"workload": args.workload, "layers": layers, "call_tree": tracer.call_tree()},
                    indent=1,
                )
                + "\n"
            )

    print(json.dumps(out))


if __name__ == "__main__":
    main()
