"""Run one workload's jobs in a fresh interpreter and record the outputs.

Started by run.py with PYTHONPATH pointing at the checkout's src/, so the
code under test is the commit's own.  Jobs run one at a time (a closed loop
with one client); documents are made between jobs, outside the timed span.
Every time recorded is CPU time (user + system) of the process doing the
work: time.process_time() for in-process work and spans, the rusage of the
waited child for child processes.  The benchmark runs on virtual CPUs shared
with other machines; wall time also counts the intervals the host gives the
CPU to someone else, and CPU time does not.  Wall times are kept beside it.

The host's speed itself drifts: the same job's CPU time moved by 60% within
a minute, and a fixed loop moved with it.  So a timed run also times
calibrate(), a fixed loop of the benchmark's own, before the first job and
after every job and import sample, and scales each raw CPU time by
CALIB_REF_S over the mean of the two loop times around it.  The recorded
"latency" and setup times are these scaled seconds: seconds at the speed
at which the loop takes CALIB_REF_S.  The raw CPU time is kept as "cpu".
Each job's record goes to a JSON-lines file as soon as it ends, so the
worker's peak RSS is the program's, not the benchmark's.

With --trace 0 one untimed warm-up job runs first.  The loop then runs
until the jobs' busy time (in scaled seconds) reaches --seconds,
at least --min-jobs jobs have run and the last cycle of size classes is
complete, so every run sees the same mix.  Between jobs it times
SETUP_SAMPLES fresh interpreters running `import capgame`, spread evenly
over the busy time.  With --trace 1 it runs a fixed list of documents (so
counts repeat exactly) and, per document, times the decomposed pipeline
twice, once with spans and counters and once without, and checks it
against run_check.  cli-cold documents also run
in a child process and through main in-process, for the process overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen

import capgame as cg
import capgame.arch
import capgame.cli
import capgame.game
import capgame.oracle

SETUP_SAMPLES = 15
# CPU time of calibrate() on the baseline machine (a 2.1 GHz Xeon vCPU), as
# it took most of the time; it only sets the scale of the scaled times
CALIB_REF_S = 0.025
CALIB_STEPS = 5000


def calibrate() -> float:
    """CPU time of a fixed loop of exact-fraction and dict work, about the
    mix of capgame's own, with the garbage collector off so the heap the
    program leaves behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        acc, seen = Fraction(0), {}
        for i in range(CALIB_STEPS):
            acc += Fraction(i % 7 + 1, 2 ** (i % 40) + 1)
            seen[i & 255] = acc.numerator & 0xFF
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job, tag, error]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name, tag=None):
        rec = [name, time.process_time(), None, self._stack[-1] if self._stack else None,
               self.job, tag, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[2] = time.process_time()
            self._stack.pop()


class NullTracer:
    def span(self, name, tag=None):
        return contextlib.nullcontext()


def decomposed_check(text: str, report: dict, tr, count: bool = False) -> dict:
    """run_check as a chain of public calls, one span per call.

    Generated documents carry no tangent scalings, so the declared primes
    are all the primes and no call needs a scaling argument.  With count,
    the schedule's sequence counts the elements read from it.
    """
    with tr.span("job"):
        with tr.span("parse_problem"):
            spec = cg.parse_problem(text)
        if spec.scalings:
            raise ValueError("the decomposed pipeline expects documents without scalings")
        points, ids = spec.sorted_points(), spec.sorted_ids()
        arch = []
        for place in spec.arch_places:
            with tr.span("arch_matrix"):
                arch.append(cg.arch_matrix(place, points))
        primes = []
        for place in sorted(spec.nonarch_places, key=lambda pl: pl.p):
            with tr.span("nonarch_matrix"):
                primes.append(cg.nonarch_matrix(place, ids))
        with tr.span("assemble"):
            matrix = cg.assemble(arch, primes, [e.entries for e in spec.extra_places], ids=ids,
                                 extra_labels=[e.label for e in spec.extra_places])
        cg.a_analyticity_check(spec.nonarch_places, ids, infinite_tail=spec.infinite_tail)
        inf = any(v == float("inf") for row in matrix.entries for v in row)
        with tr.span("game_value", "inf" if inf else None):
            result = cg.game_value(matrix)
        jets = [spec.series_for(pid) for pid in ids]
        with tr.span("certify_rationality"):
            oracle = cg.certify_rationality(jets, points, spec.degree_bound)
        floor_c = None
        steps = 0
        if not result.is_infinite and result.value > 0:
            v_prime = result.value / 2
            K = report["schedule"]["K"]
            with tr.span("rational_strategy"):
                a = cg.rational_strategy(matrix, v_prime, result=result)
            with tr.span("build_schedule"):
                sched = cg.build_schedule(a, K, ids=ids)
            if count:
                sched = counted(sched)
            with tr.span("check_bounds"):
                cg.check_bounds(sched)
            with tr.span("weighted_floor"):
                floor_c = cg.weighted_floor(sched, matrix, v_prime).c
            steps = sched.sequence.reads if count else 0
        with tr.span("to_json"):
            out = capgame.cli.to_json(report)
    return {"matrix": matrix, "result": result, "oracle": oracle, "floor_c": floor_c,
            "steps": steps, "primes": len(primes), "out": out}


def mismatch(dec: dict, report: dict) -> str | None:
    """Compare the decomposed results with run_check's report."""
    result = dec["result"]
    vg = "inf" if result.is_infinite else float(result.value)
    if vg != report["V_G"]:
        return f"V_G {vg} != run_check {report['V_G']}"
    oracle = dec["oracle"].to_report()
    for key in ("status", "numerator", "denominator"):
        if capgame.cli.to_json(oracle[key]) != capgame.cli.to_json(report["oracle"][key]):
            return f"oracle {key} differs from run_check"
    want = report["schedule"]["weighted_floor_c"] if report["schedule"] else None
    if (dec["floor_c"] is None) != (want is None) or (want is not None and dec["floor_c"] != want):
        return f"weighted_floor_c {dec['floor_c']} != run_check {want}"
    return None


def check_counts(dec: dict) -> dict:
    result = dec["result"]
    entry_bits = max((v.denominator.bit_length() for row in capgame.game.rationalize_matrix(dec["matrix"])
                      for v in row if isinstance(v, Fraction)), default=0)
    return {
        "value_den_bits": 0 if result.is_infinite else result.value.denominator.bit_length(),
        "entry_den_bits": entry_bits,
        "found": dec["oracle"].status == "rational",
        "steps": dec["steps"],
        "primes": dec["primes"],
    }


class CallCounter:
    """Counts calls to module.name while installed."""

    def __init__(self, module, name):
        self.calls = 0
        self._module, self._name = module, name
        self._orig = getattr(module, name)

    def __enter__(self):
        def counting(*args, **kwargs):
            self.calls += 1
            return self._orig(*args, **kwargs)

        setattr(self._module, self._name, counting)
        return self

    def __exit__(self, *exc):
        setattr(self._module, self._name, self._orig)


class CountedSequence(tuple):
    """A schedule's sequence that counts the elements read from it."""

    def __new__(cls, items):
        seq = super().__new__(cls, items)
        seq.reads = 0
        return seq

    def __iter__(self):
        for pid in tuple.__iter__(self):
            self.reads += 1
            yield pid

    def __getitem__(self, index):
        got = tuple.__getitem__(self, index)
        self.reads += len(got) if isinstance(index, slice) else 1
        return got


def counted(sched):
    return dataclasses.replace(sched, sequence=CountedSequence(sched.sequence))


@contextlib.contextmanager
def timed(rec: dict):
    """Puts the CPU time of the block in rec["latency"], its wall time in rec["wall"]."""
    c0, w0 = time.process_time(), time.perf_counter()
    yield
    rec["latency"], rec["wall"] = time.process_time() - c0, time.perf_counter() - w0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_main_in_process(path: str, rec: dict):
    """Sets rec's latency, wall, exit and output from capgame.cli.main in-process."""
    out, err = io.StringIO(), io.StringIO()
    with timed(rec), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rec["exit"] = capgame.cli.main(["check", path])
    rec["output"] = out.getvalue()


def run_child(args: list, root: Path, limit: float, rec: dict):
    """Sets rec's latency (the child's CPU time; it is the only child
    running), wall, exit (None on timeout) and output from one child."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    c0, w0 = children_cpu(), time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                              capture_output=True, timeout=limit)
        rec["exit"], rec["output"] = proc.returncode, proc.stdout.decode()
    except subprocess.TimeoutExpired:
        rec["exit"], rec["output"] = None, ""
    rec["latency"], rec["wall"] = children_cpu() - c0, time.perf_counter() - w0


def time_import(root: Path) -> float:
    rec = {}
    run_child(["-c", "import capgame"], root, 60.0, rec)
    if rec["exit"] != 0:
        raise RuntimeError("import capgame failed in a fresh interpreter")
    return rec["latency"]


def schedule_chain(item: dict, tr, count: bool = False):
    weights = [Fraction(w) for w in item["weights"]]
    v_prime = Fraction(item["v_prime"])
    with tr.span("job"):
        with tr.span("build_schedule"):
            sched = cg.build_schedule(weights, item["K"])
        if count:
            sched = counted(sched)
        with tr.span("check_bounds"):
            bounds = cg.check_bounds(sched)
        with tr.span("weighted_floor"):
            floor = cg.weighted_floor(sched, item["matrix"], v_prime)
    return sched, bounds, floor


def schedule_record(sched, bounds, floor) -> dict:
    return {"sequence": list(sched.sequence), "max_dev": gen.fmt(bounds.max_dev),
            "min_dev": gen.fmt(bounds.min_dev), "verdict": bounds.verdict,
            "c": gen.fmt(floor.c), "precondition_ok": floor.precondition_ok}


def run_job(workload: str, item: dict, path: str, root: Path, trace: bool, tracer: Tracer) -> dict:
    """One job; returns its record (latency in s, exit code, output)."""
    limit = gen.TIME_LIMIT[workload]
    rec = {}
    if workload == "schedule-long":
        with timed(rec):
            sched, bounds, floor = schedule_chain(item, NullTracer())
        rec["exit"] = 0
        rec["result"] = schedule_record(sched, bounds, floor)
        if trace:
            start = len(tracer.spans)
            traced_sched = schedule_chain(item, tracer, count=True)[0]
            rec["traced"] = tracer.spans[start][2] - tracer.spans[start][1]
            rec["untraced"] = rec["latency"]
            rec["counts"] = {"steps": traced_sched.sequence.reads}
        return rec

    if workload == "cli-cold":
        run_child(["-m", "capgame", "check", path], root, limit, rec)
    elif not trace:
        run_main_in_process(path, rec)
    if not trace:
        return rec

    text = Path(path).read_text()
    report = cg.run_check(cg.parse_problem(text)).to_report()
    if workload == "cli-cold":
        in_process = {}
        run_main_in_process(path, in_process)
        rec["main_in_process"] = in_process["latency"]
    untraced = {}
    with timed(untraced):
        decomposed_check(text, report, NullTracer())
    rec["untraced"] = untraced["latency"]
    start = len(tracer.spans)
    with CallCounter(capgame.arch, "green") as greens, \
            CallCounter(capgame.oracle, "multipoint_reconstruct") as degrees:
        dec = decomposed_check(text, report, tracer, count=True)
    rec["traced"] = tracer.spans[start][2] - tracer.spans[start][1]
    if workload != "cli-cold":
        # in-process, main would print exactly to_json(report)
        rec.update(latency=rec["untraced"], wall=untraced["wall"], exit=0, output=dec["out"] + "\n")
    rec["mismatch"] = mismatch(dec, report)
    rec["counts"] = dict(check_counts(dec), green_calls=greens.calls, degrees_tried=degrees.calls,
                         output_bytes=len(rec["output"].encode()))
    return rec


def write_doc(item: dict, path: Path) -> str:
    """Writes the item's document, if it has one; returns its path or ""."""
    if "doc" not in item:
        return ""
    path.write_text(json.dumps(item["doc"], indent=1))
    return str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--min-jobs", type=int, default=1)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    root, work = Path(args.root), Path(args.work)
    problems = root / "problems"
    tracer = Tracer()
    trace = bool(args.trace)

    cycle = gen.CYCLE[args.workload]

    def more() -> bool:
        if trace:
            return k < gen.TRACE_DOCS[args.workload]
        return (busy < args.seconds or k < args.min_jobs or k % cycle
                or len(setup) < SETUP_SAMPLES)

    busy, k = 0.0, 0
    setup, calib = [], []

    def scale(cpu: float) -> float:
        """cpu in scaled seconds, from the loop times before and after it."""
        calib.append(calibrate())
        return cpu * CALIB_REF_S / ((calib[-2] + calib[-1]) / 2)

    # a bound on wall time, in case jobs fail without using any
    stop_at = time.perf_counter() + (120.0 if trace else 2 * args.seconds + 30)
    if not trace:
        # warm-up, untimed: document -1 is of a costly class in every
        # workload, and the first job of a size grows the heap
        warm = gen.make(args.workload, args.seed, -1, problems)
        path = write_doc(warm, work / "doc-warm.json")
        try:
            run_job(args.workload, warm, path, root, False, tracer)
        except Exception:  # the timed jobs record failures; this one is not counted
            pass
        if path:
            os.unlink(path)
        calib.append(calibrate())
    with open(work / "jobs.jsonl", "w") as log:
        while more() and time.perf_counter() < stop_at:
            due = len(setup) * args.seconds / SETUP_SAMPLES
            if not trace and len(setup) < SETUP_SAMPLES and busy >= due:
                setup.append(scale(time_import(root)))
                continue
            item = gen.make(args.workload, args.seed, k, problems)
            path = write_doc(item, work / f"doc-{k}.json")
            tracer.job = k
            try:
                rec = run_job(args.workload, item, path, root, trace, tracer)
            except Exception as exc:  # a job that raises is a failed job, not a crashed run
                rec = {"latency": None, "exit": None, "error": f"{type(exc).__name__}: {exc}"}
            if not trace and rec["latency"] is not None:
                rec["cpu"] = rec["latency"]
                rec["latency"] = scale(rec["cpu"])
            rec["k"] = k
            log.write(json.dumps(rec) + "\n")
            log.flush()
            busy += rec["latency"] or 0.0
            k += 1
            if path:
                os.unlink(path)

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    summary = {"jobs": k, "busy_s": busy, "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
               "setup_s": setup, "calib_s": calib}
    (work / "summary.json").write_text(json.dumps(summary))
    if trace:
        (work / "spans.json").write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
