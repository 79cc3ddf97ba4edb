"""Print one digest of saist's answer per benchmark system.

    PYTHONPATH=src python3 benchmarks/answers.py [--criterion3]

Each line is a system's name and the SHA-256 of its report: the JSON of
`to_json_dict(include_timing=False)`, which holds every iteration's oracle
counters, plus the abstraction's DOT text and the verified power.  The
systems are the eight of `perfbench/workloads.py`; `--criterion3` adds the
3-D sigma = 0.8, 0.5 and 0.4 targeted runs of acceptance criterion 3.  Two
checkouts give the same answers when their outputs `diff` clean.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import PLANT_3D, WORKLOADS, system  # noqa: E402

import saist  # noqa: E402


def digest(report):
    """SHA-256 of the report without timings, its DOT text and its power."""
    blob = {
        "report": report.to_json_dict(include_timing=False),
        "dot": report.dot,
        "power": report.power,
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def systems(criterion3):
    out = [spec for specs in WORKLOADS.values() for spec in specs]
    if criterion3:
        for sigma in (0.8, 0.5, 0.4):
            out.append(system(f"3d_s{sigma}_targeted", PLANT_3D, sigma, 10, "targeted", None))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--criterion3", action="store_true", help="add criterion 3's 3-D systems")
    args = ap.parse_args()
    for spec in systems(args.criterion3):
        report = saist.compute_saist(saist.parse_config(spec["config"]))
        print(spec["name"], digest(report), flush=True)


if __name__ == "__main__":
    main()
