"""Check that the traced run's counters repeat exactly for a seed.

    python3 perfbench/check_counters.py --seed 7 --seconds 30 [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every per-layer metric whose unit is not seconds.  Exits 1 and
names the counter when any differs, or when either run is not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=str(HERE.parent),
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run is not correct")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    bad = 0
    for w in args.workload or WORKLOADS:
        first = traced_counts(w, args.seed, args.seconds)
        second = traced_counts(w, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        bad += len(diff)
        print(f"{w}: {len(first)} counters, {'all repeat' if not diff else 'differ: ' + ', '.join(diff)}")
        for k in sorted(first):
            print(f"  {k}={first[k]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
