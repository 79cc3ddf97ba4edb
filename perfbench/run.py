"""Time saist to a verdict on one workload and check every result.

    python3 perfbench/run.py --workload planar_full --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; saist is imported from ./src.
The analyses run in a child interpreter (worker.py), one after another on
one thread, with BLAS pinned to one thread. The reports are then checked
here against reference.py, which does not import saist. `--seed` seeds the
reference simulator only; saist itself runs with seed 0.

The last line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics (wall_s, setup_s, peak_rss_mb), with `--trace 1` the per-layer
metrics of an extra traced round. `--trace-out FILE` also writes the traced
call tree there.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    if not (ROOT / "src" / "saist" / "__init__.py").is_file():
        sys.exit(f"no saist sources under {ROOT / 'src'}; run from a source checkout")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    import numpy as np
    from reference import Loop, check_report

    rng = np.random.default_rng(args.seed)
    problems = []
    for spec, rep in zip(WORKLOADS[args.workload], res["reports"]):
        if rep is not None:
            problems += [f"{spec['name']}: {f}" for f in check_report(spec, rep, Loop(spec["config"]), rng)]
    if res["repeats_differ"]:
        problems.append(f"{res['repeats_differ']} reports differ between rounds")

    if args.trace:
        trace = res["trace"]
        for m in trace["mismatches"]:
            print("TRACE COUNT MISMATCH:", m, file=sys.stderr)
        if trace["reports_changed"]:
            problems.append(f"{trace['reports_changed']} reports changed under tracing")
        metrics = trace["layers"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": res["setup_end"] - t0, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    names = [spec["name"] for spec in WORKLOADS[args.workload]]
    for walls in res["round_walls"]:
        print("round:", ", ".join(f"{n} {w:.3f} s" for n, w in zip(names, walls)), file=sys.stderr)
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
