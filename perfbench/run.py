"""capgame benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the code under test is that checkout's
src/ (capgame need not be installed).  The run

1. runs the workload's jobs in a worker process (worker.py), one at a
   time, for at least --seconds of busy time and at least the workload's
   MIN_JOBS, in whole cycles of size classes; between jobs it times
   `import capgame` in 15 fresh interpreters (setup_s is their median).
   Times are CPU seconds of the process doing the work, scaled to a fixed
   speed of the machine by a calibration loop timed around each of them
   (see worker.py).  The worker and its children share one vCPU,
2. checks every answer against references that do not come from capgame
   (reference.py), outside the timed span,
3. prints a table, then as its last line one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "game-wide", "oracle-deep", "schedule-long")
WORKER_TIMEOUT = 150.0
# tail percentile per workload: the highest with ten jobs beyond it at
# MIN_JOBS, the fewest jobs a run holds.  MIN_JOBS is 16-28 s of busy time
# at the baseline, above a 15 s --seconds, so at the baseline every run
# takes (nearly always) the same documents.  game-wide needs 60: at 40 its
# median fell in a gap of the latency order and spread 0.11 over ten seeds
TAIL_PCT = {"cli-cold": 84, "game-wide": 83, "oracle-deep": 66, "schedule-long": 80}
MIN_JOBS = {"cli-cold": 64, "game-wide": 60, "oracle-deep": 30, "schedule-long": 50}

SPAN_METRIC = {
    "parse_problem": "problem.parse_s",
    "arch_matrix": "arch.matrix_s",
    "nonarch_matrix": "nonarch.matrix_s",
    "assemble": "gamematrix.assemble_s",
    "game_value": "game.value_s",
    "rational_strategy": "game.strategy_s",
    "certify_rationality": "oracle.certify_s",
    "build_schedule": "schedule.build_s",
    "check_bounds": "schedule.bounds_s",
    "weighted_floor": "schedule.floor_s",
    "to_json": "cli.emit_s",
}
# the input property whose share each workload records, as a per-layer metric
PROPERTY = {
    "cli-cold": ("cli.shipped_share", lambda item: "shipped" in item["expect"]),
    "game-wide": ("game.inf_share", lambda item: item["has_inf"]),
    "oracle-deep": ("oracle.rational_share", lambda item: item["expect"]["rational"]),
    "schedule-long": ("schedule.short_period_share", lambda item: item["short_period"]),
}
LAYERS = ("cli", "problem", "arch", "nonarch", "gamematrix", "game", "oracle", "schedule")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def src_env() -> dict:
    """The environment of the worker and its children: capgame from src/,
    and one BLAS thread.  capgame's matrices are too small for BLAS to
    split, but idle BLAS threads spin on the other vCPU after each call,
    and that CPU time would count as the job's."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1")


def check_import() -> None:
    """Import capgame once (this also warms the bytecode cache) and make
    sure it comes from the checkout's src/."""
    cmd = [sys.executable, "-c", "import capgame; print(capgame.__file__)"]
    warm = subprocess.run(cmd, cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        last = (warm.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"import capgame failed: {last}")
    if not Path(warm.stdout.strip()).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"capgame imported from {warm.stdout.strip()}, not from src/")


def end_to_end(workload, recs, failures, summary):
    lat = [r["latency"] for r in recs if r["latency"] is not None]
    attempted = len(recs)
    pct = TAIL_PCT[workload]
    tail_s = sorted(lat)[math.ceil(pct / 100 * len(lat)) - 1]
    metrics = {
        "setup_s": (statistics.median(summary["setup_s"]), "s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(lat) / summary["busy_s"], "1/s"),
        "ok_share": (1 - len(failures) / attempted, "ratio"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
    }
    done = [r for r in recs if r["latency"] is not None]
    notes = {"setup_s": f"calibration loop median {statistics.median(summary['calib_s']):.4g} s",
             "job_p50_s": f"unscaled cpu {statistics.median(r['cpu'] for r in done):.4g} s, "
                          f"wall {statistics.median(r['wall'] for r in done):.4g} s",
             "job_tail_s": f"p{pct} of {len(lat)} jobs",
             "ok_share": f"failed_share {len(failures) / attempted:.4f} ({len(failures)}/{attempted})"}
    return metrics, notes


def per_layer(recs, spans, property_share):
    dur = {i: s[2] - s[1] for i, s in enumerate(spans)}
    child = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] = child.get(s[3], 0.0) + dur[i]
    values = {m: 0.0 for m in SPAN_METRIC.values()}
    values["game.value_inf_s"] = 0.0
    errors = {layer: 0 for layer in LAYERS}
    job_s = 0.0
    for i, (name, _, _, _, _, tag, err) in enumerate(spans):
        if name == "job":
            job_s += dur[i]
            continue
        metric = "game.value_inf_s" if tag == "inf" else SPAN_METRIC[name]
        values[metric] += dur[i] - child.get(i, 0.0)
        if err:
            errors[metric.split(".")[0]] += 1
    for r in recs:
        if r.get("error") or r.get("exit") != 0:
            errors["cli"] += 1
    metrics = {}
    for name, v in values.items():
        metrics[name] = (v, "s")
        metrics[name[:-2] + "_share"] = (v / job_s if job_s else 0.0, "ratio")
    counts = [r.get("counts", {}) for r in recs]
    checks = [c for c in counts if "found" in c]
    total = lambda key: sum(c.get(key, 0) for c in counts)
    overhead = sum(r["main_in_process"] for r in recs if "main_in_process" in r)
    traced = sum(r.get("traced", 0.0) for r in recs)
    untraced = sum(r.get("untraced", 0.0) for r in recs)
    metrics.update({
        "cli.process_overhead_s": (sum(r["latency"] for r in recs if "main_in_process" in r) - overhead, "s"),
        "cli.output_bytes": (total("output_bytes"), "bytes"),
        "game.value_den_bits": (max((c.get("value_den_bits", 0) for c in counts), default=0), "bits"),
        "game.entry_den_bits": (max((c.get("entry_den_bits", 0) for c in counts), default=0), "bits"),
        "oracle.degrees_tried": (total("degrees_tried"), "count"),
        "oracle.found_share": (sum(c["found"] for c in checks) / len(checks) if checks else 0.0, "ratio"),
        "schedule.steps": (total("steps"), "count"),
        "arch.green_calls": (total("green_calls"), "count"),
        "nonarch.primes": (total("primes"), "count"),
        "trace.overhead_share": ((traced - untraced) / untraced if untraced else 0.0, "ratio"),
    })
    for name, _ in PROPERTY.values():
        metrics[name] = (property_share.get(name, 0.0), "ratio")
    for layer, n in errors.items():
        metrics[f"{layer}.errors"] = (n, "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "capgame" / "__init__.py").is_file():
        return fail(f"no capgame sources under {ROOT / 'src'}")
    if not (ROOT / "problems").is_dir():
        return fail(f"no problems/ directory under {ROOT}")
    sys.path.insert(0, str(HERE))
    import gen
    import reference

    # one vCPU for the worker and every child: the calibration loop (see
    # worker.py) then runs on the vCPU it scales for.  Over five seeds this
    # halved the spread of oracle-deep's job times
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        check_import()
    except (RuntimeError, subprocess.SubprocessError) as exc:
        return fail(str(exc))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--min-jobs", str(MIN_JOBS[args.workload]), "--root", str(ROOT),
               "--work", str(work)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=src_env(), timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            return fail(f"worker exceeded {WORKER_TIMEOUT} s")
        if proc.returncode != 0:
            return fail(f"worker exited with code {proc.returncode}")
        recs = [json.loads(line) for line in (work / "jobs.jsonl").read_text().splitlines()]
        summary = json.loads((work / "summary.json").read_text())
        spans = json.loads((work / "spans.json").read_text()) if args.trace else []
        if args.trace:
            shutil.copy(work / "spans.json", work.parent / f"spans-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any(r["latency"] is not None for r in recs):
        return fail("no job completed")
    failures = []
    with_property = 0
    for r in recs:
        item = gen.make(args.workload, args.seed, r["k"], ROOT / "problems")
        with_property += bool(PROPERTY[args.workload][1](item))
        cause = reference.check_job(args.workload, item, r)
        limit = gen.TIME_LIMIT[args.workload]
        if cause is None and r.get("wall", 0.0) > limit:
            cause = f"over the {limit} s job limit"
        if cause:
            failures.append((r["k"], cause))

    property_name = PROPERTY[args.workload][0]
    property_share = with_property / len(recs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {len(recs)}  "
          f"{property_name} {property_share:.3f}")
    for k, cause in failures:
        print(f"  FAILED job {k}: {cause}")
    if args.trace:
        metrics = per_layer(recs, spans, {property_name: property_share})
        notes = {}
    else:
        metrics, notes = end_to_end(args.workload, recs, failures, summary)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(recs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
