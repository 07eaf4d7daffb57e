"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload: the documents of a traced run are identical for the same
seed and differ for another seed, and two traced runs with the same seed
report identical count metrics.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from run import ROOT, WORKLOADS  # noqa: E402

COUNT_METRICS = (
    "game.value_den_bits",
    "game.entry_den_bits",
    "oracle.degrees_tried",
    "oracle.found_share",
    "schedule.steps",
    "arch.green_calls",
    "cli.output_bytes",
)


def documents(workload: str, seed: int) -> list:
    return [json.dumps(gen.make(workload, seed, k, ROOT / "problems"), sort_keys=True)
            for k in range(gen.TRACE_DOCS[workload])]


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    ok = True
    for w in args.workload or WORKLOADS:
        same = documents(w, args.seed) == documents(w, args.seed)
        other = documents(w, args.seed) != documents(w, args.seed + 1)
        first, second = traced_counts(w, args.seed), traced_counts(w, args.seed)
        passed = same and other and first == second
        ok &= passed
        print(f"{w:14s} same-seed documents identical: {same}; other seed differs: {other}; "
              f"counts repeat: {first == second}  {'PASS' if passed else 'FAIL'}")
        print(f"{'':14s} {first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
