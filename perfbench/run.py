"""The benchmark's entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sharded_fields --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The run generates (or reuses) the
seeded input, sets Ray up ``SETUP_REPEATS`` times with ``num_cpus`` = what
``nproc`` reports, runs one unmeasured warm-up job on a one-shard input, then
runs the workload's job back to back (closed loop, one job at a time, each
into a fresh output directory) until ``--seconds`` of job time is measured.
Every job's output is checked.

The last stdout line is one JSON object with ``correct``, ``attempted`` (jobs
run), ``failed`` (jobs whose output checks failed, that raised or that timed
out) and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass (see ``layers.py``) with ``--trace 1``.
The line before it (``# run {...}``) records the run's environment.  Exits 1
when any job failed, 2 when the program cannot be imported.

``--workload all`` runs every workload in turn, each in a fresh process, and
exits with the worst code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# Ray's session files; a short path, because Ray's socket paths under it
# must stay within 107 bytes.
RAY_DIR = os.path.join(ROOT, ".pbray")
SETUP_REPEATS = 3
MIN_JOBS = 3
# A job that has not finished by then is a stall and counts as failed.
JOB_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "docs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "out_bytes_per_doc": "B",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--docs", type=int, default=None,
                   help="input pages per job (default: the workload's size)")
    return p.parse_args(argv)


def _git_head() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def nproc() -> int:
    """The CPU count ``nproc`` reports (it honours ``OMP_NUM_THREADS``)."""
    try:
        done = subprocess.run(["nproc"], capture_output=True, text=True,
                              check=True)
        return int(done.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def set_up(cpus: int, corpus) -> tuple:
    """One set-up: ``ray.init``, worker warm-up (a task that imports the
    program in a Ray worker), input into the page cache.
    Returns (setup seconds, ray.init seconds)."""
    from harness import start_ray, warm_worker

    t0 = time.perf_counter()
    start_ray(cpus, RAY_DIR)
    t1 = time.perf_counter()
    warm_worker()
    for path in corpus.files:
        with open(path, "rb") as fh:
            while fh.read(1 << 20):
                pass
    return time.perf_counter() - t0, t1 - t0


def warm_up(workload, corpus) -> None:
    """One unmeasured job.  A session's first Ray Data execution starts Ray
    Data's helper actors (about two seconds), and the job's first run in the
    session's workers is another 10-20% slower."""
    from harness import call_with_timeout

    out = os.path.join(WORK_DIR, "out", f"{workload.name}-warm")
    shutil.rmtree(out, ignore_errors=True)
    call_with_timeout(lambda: workload.run(corpus, out, "warm"), JOB_TIMEOUT_S)
    shutil.rmtree(out, ignore_errors=True)


def run_job(workload, corpus, k: int) -> tuple:
    """Job ``k`` into a fresh output directory, then its checks.
    Returns (record, timed out)."""
    from checks import Outcome
    from harness import TIMED_OUT, PeakRss, call_with_timeout, tree_cpu_s

    out = os.path.join(WORK_DIR, "out", f"{workload.name}-{k}")
    shutil.rmtree(out, ignore_errors=True)
    with PeakRss() as rss:
        cpu0 = tree_cpu_s()
        t0 = time.perf_counter()
        error = call_with_timeout(
            lambda: workload.run(corpus, out, f"job{k}"), JOB_TIMEOUT_S)
        wall = time.perf_counter() - t0
        cpu = tree_cpu_s() - cpu0
    if error is None:
        outcome = workload.check(corpus, out)
    else:
        outcome = Outcome(missing_rows=corpus.n_docs, problems=[error])
    if error != TIMED_OUT:
        shutil.rmtree(out, ignore_errors=True)
    return ({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss.peak_mb,
             "outcome": outcome},
            error == TIMED_OUT)


def closed_loop(workload, corpus, seconds: float) -> tuple:
    """Jobs back to back until ``seconds`` of job time and at least
    ``MIN_JOBS`` jobs are measured, or one stalls.
    Returns (records, stalled)."""
    records = []
    measured = 0.0
    stalled = False
    while not stalled and (measured < seconds or len(records) < MIN_JOBS):
        record, stalled = run_job(workload, corpus, len(records))
        records.append(record)
        measured += record["wall_s"]
    return records, stalled


def end_to_end(records, setups, n_docs: int) -> dict:
    values = {
        "docs_per_s": statistics.median(n_docs / r["wall_s"] for r in records),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "out_bytes_per_doc": statistics.median(
            r["outcome"].out_bytes / max(r["outcome"].rows, 1)
            for r in records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # Ray workers import the program (and the benchmark's own UDFs) from the
    # checkout, as this process does.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.path.dirname(os.path.abspath(__file__)),
                    os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)
    try:
        import jobs
        import inputs
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # Each workload in a fresh process, one after another.
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        if args.docs:
            common += ["--docs", str(args.docs)]
        return max(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             *common]).returncode for name in jobs.WORKLOADS)
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(jobs.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = jobs.WORKLOADS[args.workload]
    n_docs = args.docs or workload.n_docs

    import pyarrow
    import ray

    cache = os.path.join(WORK_DIR, "inputs")
    corpus = inputs.load_or_generate(cache, workload.name, n_docs, args.seed,
                                     workload.dup_share)
    warm_corpus = inputs.load_or_generate(cache, workload.name,
                                          inputs.SHARD_ROWS, args.seed,
                                          workload.dup_share)
    cpus = nproc()
    # Session dirs of earlier runs (logs) are not needed again.
    shutil.rmtree(RAY_DIR, ignore_errors=True)
    setups = []
    try:
        for i in range(SETUP_REPEATS):
            if i:
                ray.shutdown()
            setups.append(set_up(cpus, corpus))
        ray_cpus = ray.cluster_resources().get("CPU", 0)
        warm_up(workload, warm_corpus)
        records, stalled = closed_loop(workload, corpus, args.seconds)
        layer_metrics = None
        if args.trace and not stalled:
            import layers

            layer_metrics = layers.traced_run(
                workload, corpus, records, setups, cpus,
                os.path.join(WORK_DIR, "trace"), args.seed)
    finally:
        ray.shutdown()

    failed = sum(not r["outcome"].ok for r in records)
    bad_rows = sum(r["outcome"].error_rows + r["outcome"].missing_rows
                   for r in records)
    error_share = bad_rows / (len(records) * corpus.n_docs)
    for k, r in enumerate(records):
        for problem in r["outcome"].problems:
            print(f"perfbench: job {k}: {problem}", file=sys.stderr)
    if not args.trace:
        metrics = end_to_end(records, setups, corpus.n_docs)
    elif layer_metrics is not None:
        metrics = {**layer_metrics,
                   "error_share": {"value": error_share, "unit": "share"}}
    else:   # a job stalled, so there was no traced pass
        metrics = {}
    info = {
        "workload": workload.name, "seed": args.seed, "input_docs": n_docs,
        "input_bytes": corpus.input_bytes, "nproc": cpus,
        "host_cpus": os.cpu_count(),
        "ray_cpus": int(ray_cpus), "git_head": _git_head(),
        "python": sys.version.split()[0], "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "jobs": len(records),
        "job_wall_s": [round(r["wall_s"], 4) for r in records],
        "job_cpu_s": [round(r["cpu_s"], 4) for r in records],
        "setup_s": [round(s, 4) for s, _ in setups],
        "error_share": error_share, "stalled": stalled,
    }
    for name, m in metrics.items():
        print(f"{name:>48} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print("# run " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}), flush=True)
    if stalled:
        # The stalled job's thread may still be inside Ray; do not wait on it.
        os._exit(1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
