#!/usr/bin/env python3
"""Closed-loop benchmark of the countsys command line.

Run from the root of a countsys checkout:

    python3 bench/run.py --workload derive-mixed --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 1

One client runs a seeded job list of `python -m countsys.cli ...` invocations
one after another (`src` on the path) for `--seconds` seconds, and checks
every job's exit code, stderr and stdout against answers computed without
countsys (see oracles.py).  Workloads are built in workloads.py.

--trace 0 prints the end-to-end metrics: jobs_per_s, job_p50_s, job_tail_s
(p68: the highest percentile with at least ten jobs beyond it in two blocks of
16 jobs), cpu_per_job_s, failed_frac, peak_rss_mb and setup_s.  The per-job
statistics use the whole blocks of the run.  The result line carries the
times divided by a reference process timed in the same run (jobs_per_ref,
job_p50_ref, job_tail_ref, cpu_per_job_ref): on a shared host the speed can
drift by tens of percent between runs, and the ratios stay steady.  For the
same reason setup_s in the result line is the median set-up time scaled by
REF_NOMINAL_S / the run's median reference time: seconds on a host where the
reference takes REF_NOMINAL_S; the raw seconds are printed as setup_raw_s.

--trace 1 runs the first block of jobs in this process through `run_cli`,
each job once untraced and once with spans recorded around every public
countsys function (tracing.py), repeats the block at least twice and while
time is left, and checks that the counts repeat exactly.  It prints per-layer
self times and counts plus the tracing overhead.  Spans are written to
.bench_out/spans-<workload>-<seed>.jsonl.

--record FILE runs both modes on every workload and writes the results, the
traffic map (which functions each command reaches) and the scales the
workloads leave out as JSON.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without a countsys source tree the run exits 2 and prints
no result.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import BLOCK, NOT_COVERED, SIZE_ORDER, WORKLOADS, build  # noqa: E402

BLOCKS = 4  # jobs prepared per run; a run that uses them all starts over
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 60
STARTUP_SAMPLES = 5
REFERENCE_EVERY = 4
# A process that does not import countsys, spawned after every
# REFERENCE_EVERY jobs.  A shared host's speed can drift by tens of percent
# over minutes; job times divided by this reference, measured in the same
# run, stay comparable between runs.
REFERENCE = "import numpy\ns = 0\nfor i in range(300000):\n    s += i * i\n"
# About the reference's median wall time on the 2-vCPU x86_64 host the
# baseline was recorded on.
REF_NOMINAL_S = 0.3
TAIL_BEYOND = 10
MIN_BLOCKS = 2
# The highest percentile with TAIL_BEYOND jobs beyond it in MIN_BLOCKS blocks,
# the least a run of the seed program measures; fixed, so that a run of more
# blocks reports the same percentile.
TAIL_PCT = 100 * (MIN_BLOCKS * BLOCK - TAIL_BEYOND) // (MIN_BLOCKS * BLOCK)


class SetupError(Exception):
    pass


class JobTimeout(Exception):
    pass


@dataclass
class Result:
    code: int | None
    out: str
    err: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    timed_out: bool = False


def verdict(job, res):
    """None when the job's output matches its oracle, else the reason."""
    if res.timed_out:
        return f"timeout after {JOB_TIMEOUT_S} s"
    return job.check(res.code, res.out, res.err)


# ------------------------------------------------------------ subprocesses


def spawn(argv, env, workdir):
    """Run one CLI invocation; wall time from spawn to exit, and the child's
    own CPU time and peak RSS from its rusage."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Result(proc.returncode, stdout, stderr, wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  state["killed"])


def cli_argv(job):
    return [sys.executable, "-m", "countsys.cli", *job.argv]


def setup(workload, seed, workdir, env):
    """Generate inputs and oracle answers, then run one untimed warm-up
    invocation; repeated, and the median time is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        start = time.perf_counter()
        jobs = build(workload, seed, BLOCKS, workdir)
        warm = jobs[SIZE_ORDER.index(0)]  # a job of the smallest size
        res = spawn(cli_argv(warm), env, workdir)
        times.append(time.perf_counter() - start)
        reason = verdict(warm, res)
        if reason is not None:
            raise SetupError(f"warm-up job {warm.argv} failed: {reason}")
    return jobs, statistics.median(times)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(1, -(-pct * len(ranked) // 100)) - 1]


def run_e2e(jobs, setup_s, seconds, env, workdir):
    """Run jobs in list order until `seconds` have passed, with a reference
    process after every REFERENCE_EVERY jobs.  Each output is checked as soon
    as its job ends and then dropped, so this process stays small (a child's
    peak RSS includes its parent's at spawn); checking and reference time are
    not job time.  Throughput counts every job; the per-job statistics use
    the whole blocks only, so that each size stratum weighs the same however
    far the last block got.  Times are reported in units of the median
    reference run, and setup_s in seconds at REF_NOMINAL_S per reference
    run."""
    runs, refs, failures = [], [], []
    idle = 0.0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        job = jobs[len(runs) % len(jobs)]
        res = spawn(cli_argv(job), env, workdir)
        runs.append(res)
        began = time.perf_counter()
        why = verdict(job, res)
        if why is not None:
            failures.append((job, why))
        res.out = res.err = None
        idle += time.perf_counter() - began
        if len(runs) % REFERENCE_EVERY == 0:
            refs.append(spawn([sys.executable, "-c", REFERENCE], env, workdir))
            idle += refs[-1].wall
    if not refs:
        refs.append(spawn([sys.executable, "-c", REFERENCE], env, workdir))
    busy = time.perf_counter() - start - idle
    whole = runs[:len(runs) // BLOCK * BLOCK] or runs
    walls = [res.wall for res in whole]
    tail = percentile(walls, TAIL_PCT)
    cpu = statistics.fmean(res.cpu for res in whole)
    ref_wall = statistics.median(r.wall for r in refs)
    ref_cpu = statistics.median(r.cpu for r in refs)
    metrics = {
        "jobs_per_ref": len(runs) / busy * ref_wall,
        "job_p50_ref": statistics.median(walls) / ref_wall,
        "job_tail_ref": tail / ref_wall,
        "cpu_per_job_ref": cpu / ref_cpu,
        "peak_rss_mb": max(res.rss_mb for res in runs),
        "setup_s": setup_s * REF_NOMINAL_S / ref_wall,
    }
    notes = {
        "jobs_per_s": f"{len(runs) / busy:.4g} 1/s",
        "job_p50_s": f"{statistics.median(walls):.4g} s",
        "job_tail_s": f"{tail:.4g} s (p{TAIL_PCT} of {len(walls)} jobs, "
                      f"{sum(w > tail for w in walls)} beyond)",
        "cpu_per_job_s": f"{cpu:.4g} s",
        "setup_raw_s": f"{setup_s:.4g} s (median of {SETUP_REPEATS})",
        "reference_s": f"{ref_wall:.4g} s wall, {ref_cpu:.4g} s CPU "
                       f"(median of {len(refs)})",
        "failed_frac": f"{len(failures) / len(runs):.4g} "
                       f"({len(failures)}/{len(runs)})",
    }
    return metrics, len(runs), failures, notes


# ---------------------------------------------------------------- in-process


def in_process(cli, job):
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    start = time.perf_counter()
    timed_out = False
    try:
        code = cli.run_cli(job.argv, out=out, err=err)
    except JobTimeout:
        code, timed_out = None, True
    except Exception as exc:  # a traceback in the subprocess; report it
        code = None
        err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Result(code, out.getvalue(), err.getvalue(), wall,
                  timed_out=timed_out)


def startup_seconds(env):
    """Median wall time of a fresh interpreter importing countsys.cli."""
    walls = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import countsys.cli"],
                       env=env, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def run_traced(jobs, seconds, env, src, spans_path):
    """Repeat the first block in this process, each job once untraced and
    once traced, at least twice (so that the counts can be compared between
    repeats) and while another repeat fits in `seconds`; per-layer metrics
    are per block.  Odd repeats run the traced job first, so that neither
    run of a job always gets the other's warm-up."""
    from tracing import FIDELITY, Tracer

    sys.path.insert(0, src)
    import countsys.cli as cli

    def on_alarm(signum, frame):
        raise JobTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    block = jobs[:BLOCK]
    tracer = Tracer()
    startup = startup_seconds(env)
    rounds, failures = [], []
    untraced = traced = 0.0
    start = time.perf_counter()
    while (len(rounds) < 2
           or (time.perf_counter() - start) * (1 + 1 / len(rounds)) < seconds):
        mark = tracer.mark()
        out_bytes = 0
        for number, job in enumerate(block):
            def traced_run():
                tracer.install((number, job.kind))
                try:
                    return in_process(cli, job)
                finally:
                    tracer.uninstall()

            if len(rounds) % 2:
                res = traced_run()
                plain = in_process(cli, job)
            else:
                plain = in_process(cli, job)
                res = traced_run()
            untraced += plain.wall
            traced += res.wall
            out_bytes += len(res.out.encode()) + len(res.err.encode())
            for r in (plain, res):
                why = verdict(job, r)
                if why is not None:
                    failures.append((job, why))
        layer = tracer.layer_metrics(mark)
        layer["cli.output_bytes"] = out_bytes
        rounds.append(layer)
    tracer.write_spans(spans_path)
    for key in FIDELITY:
        if len({r[key] for r in rounds}) != 1:
            failures.append((block[0], f"{key} differs between repeats: "
                             f"{[r[key] for r in rounds]}"))
    metrics = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        metrics[key] = values[0] if key in FIDELITY else statistics.median(values)
    metrics["cli.startup_s"] = startup * len(block)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    notes = {"rounds": f"{len(rounds)} repeats of {len(block)} jobs"}
    return metrics, 2 * len(block) * len(rounds), failures, notes, tracer


# -------------------------------------------------------------------- main


def load_units():
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload, seed, seconds, trace, root):
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src)
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        jobs, setup_s = setup(workload, seed, workdir, env)
        if trace:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
            metrics, attempted, failures, notes, tracer = run_traced(
                jobs, seconds, env, src, spans)
        else:
            metrics, attempted, failures, notes = run_e2e(
                jobs, setup_s, seconds, env, workdir)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, attempted, failures, notes, tracer


def report(workload, seed, metrics, attempted, failures, notes, units):
    print(f"{workload} (seed {seed}): {attempted} jobs attempted, "
          f"{len(failures)} failed")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:34s} {value:14.6g} {units.get(key, '')}{note}")
    for key in notes:
        if key not in metrics:
            print(f"  {key:34s} {notes[key]}")
    for job, why in failures[:10]:
        print(f"  FAILED {' '.join(job.argv)}: {why}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="write both modes' results as JSON")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "countsys", "cli.py")):
        print("error: run from the root of a countsys checkout "
              "(src/countsys/cli.py not found)", file=sys.stderr)
        return 2
    units = load_units()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.record else (args.trace,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "machine": platform.machine(),
        },
        "seed": args.seed, "seconds": args.seconds,
        "not_covered": NOT_COVERED, "workloads": {},
    }
    traffic, public = {}, []
    # in-process traced runs grow this process, so they come last
    for trace in modes:
        for workload in workloads:
            try:
                metrics, attempted, failures, notes, tracer = run_workload(
                    workload, args.seed, args.seconds, trace, root)
            except SetupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            report(workload, args.seed, metrics, attempted, failures, notes,
                   units)
            total["correct"] &= not failures
            total["attempted"] += attempted
            total["failed"] += len(failures)
            prefix = "" if len(workloads) == 1 else workload + "."
            for key, value in metrics.items():
                total["metrics"][prefix + key] = {
                    "value": value, "unit": units.get(key, "")}
            entry = record["workloads"].setdefault(workload, {})
            entry.update({k: {"value": v, "unit": units.get(k, "")}
                          for k, v in metrics.items()})
            entry.update(notes)
            if tracer is not None:
                for kind, quals in tracer.traffic().items():
                    traffic.setdefault(kind, set()).update(quals)
                public = tracer.public_names()
    if args.record:
        record["traffic"] = {k: sorted(v) for k, v in sorted(traffic.items())}
        # every subprocess job enters cli.main; the traced run calls run_cli
        reached = set().union(*traffic.values(), {"cli.main"})
        record["unreached"] = [q for q in public if q not in reached]
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    print(json.dumps(total))
    return 0


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
