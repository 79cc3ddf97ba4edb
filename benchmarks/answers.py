"""Print three digests of saist's answer per benchmark system.

    PYTHONPATH=src python3 benchmarks/answers.py [--criterion3]

Each line is a system's name and the SHA-256 of its answer, of its witness
and of its counters.  The answer is the JSON of
`to_json_dict(include_timing=False)` with `witness_basis` and every
iteration's `oracle` block left out, plus the abstraction's DOT text and the
verified power; the witness is `witness_basis` at full precision, so a
last-bit change in the floats moves that column alone; the counters are the
`oracle` blocks, in order.  The systems are the eight of
`perfbench/workloads.py`; `--criterion3` adds the 3-D sigma = 0.8, 0.5 and
0.4 targeted runs of acceptance criterion 3 and the two bounds-only systems
run deep in full mode: the jet to l = 120 and 2-D sigma = 0.1 to l = 100.
Two checkouts give the same answers when the name and answer columns of
their outputs `diff` clean, the same counters when the name and counter
columns do, e.g.

    diff <(cut -d' ' -f1,2 old.txt) <(cut -d' ' -f1,2 new.txt)
    diff <(cut -d' ' -f1,4 old.txt) <(cut -d' ' -f1,4 new.txt)

and the same witnesses, to the last bit, when the whole lines do.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import PLANT_2D, PLANT_3D, PLANT_JET, WORKLOADS, system  # noqa: E402

import saist  # noqa: E402


def sha(blob):
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def digests(report):
    """(answer, witness, counters): the report without timings, witness or
    oracle blocks, with its DOT text and its power; the witness basis; then
    the oracle blocks."""
    answer = report.to_json_dict(include_timing=False)
    witness = answer.pop("witness_basis")
    counters = [it.pop("oracle") for it in answer["iterations"]]
    return sha({"report": answer, "dot": report.dot, "power": report.power}), sha(witness), sha(counters)


def systems(criterion3):
    out = [spec for specs in WORKLOADS.values() for spec in specs]
    if criterion3:
        for sigma in (0.8, 0.5, 0.4):
            out.append(system(f"3d_s{sigma}_targeted", PLANT_3D, sigma, 10, "targeted", None))
        out.append(system("jet_deep", PLANT_JET, 0.452, 120, "full", None))
        out.append(system("2d_s0.1_deep", PLANT_2D, 0.1, 100, "full", None))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--criterion3", action="store_true",
                    help="add criterion 3's 3-D systems and two deep runs")
    args = ap.parse_args()
    for spec in systems(args.criterion3):
        report = saist.compute_saist(saist.parse_config(spec["config"]))
        print(spec["name"], *digests(report), flush=True)


if __name__ == "__main__":
    main()
