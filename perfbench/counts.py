#!/usr/bin/env python3
"""Record every workload's deterministic counts in perfbench/COUNTS.json.

Usage, from the root of a source checkout:

    python3 perfbench/counts.py [--seed N]

Runs ``run.py --trace 1`` twice per workload, with the seed given and the
run length of BENCHMARK.json.  Counts are the per-layer metrics whose unit
is ``count`` or ``n3.computed``: factorization and ``expm`` calls,
doublings, Simpson panels, SVD work.  Exits with code 1, writing nothing,
unless every count repeats exactly between the two runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "n3.computed")


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run reported correct=false")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]
             if m["unit"] in COUNT_UNITS]
    record = {"seed": args.seed, "seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (traced_run(workload, args.seed, spec["run_seconds"])
                         for _ in range(2))
        counts = {name: first[name]["value"] for name in names}
        differing = [name for name in names
                     if second[name]["value"] != counts[name]]
        if differing:
            print(f"{workload}: counts differ between runs: {differing}",
                  file=sys.stderr)
            return 1
        record["workloads"][workload] = counts
    (HERE / "COUNTS.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
