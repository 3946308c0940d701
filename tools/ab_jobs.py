"""Interleaved A/B timing of two checkouts on one perfbench job stream.

Starts one worker process per checkout.  Each imports that checkout's
``src/catphase``, then ``perfbench/jobs.py`` and ``perfbench/worker.py``
beside this tool, and draws the same seeded stream,
``jobs.job_stream(workload, seed)``.  This process then has the two workers
run the stream in alternating blocks of ``BLOCK`` jobs (A then B, then B
then A, ...), so both sides see the same jobs and the same stretches of
machine speed.  Each job is timed and judged by perfbench's own
``worker.Workload``: timed alone with ``perf_counter`` around
``jobs.run_job``, then checked with ``jobs.check_job`` outside the timing;
a job that raises or fails its check counts as failed.  Each worker runs
``jobs.warmup_job`` once before its first block.

It reports for each side the jobs run, failed and refused, and perfbench's
timing metrics (``worker._timing_metrics``: jobs/s over the summed job
times, job-time p50 and p90), raw and not probe-scaled, and the ratios B/A.
Run A against A as a control: its ratios show what the box's noise alone
reads.

Usage, from the repository root (0 if no job failed on either side):

    python tools/ab_jobs.py A_ROOT B_ROOT --workload sweep --seed 71 --jobs 4000

Only ``sweep`` and ``validate`` run in process; ``cli`` jobs start a
subprocess each and are left to perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("sweep", "validate")
BLOCK = 25  # jobs per alternating block
METRICS = ("jobs_per_s", "job_s_p50", "job_s_p90")


def _serve(src: str, workload: str, seed: int) -> None:
    """Worker loop: run a block of jobs per stdin line, then print the side's summary."""
    sys.path.insert(0, str(Path(src).resolve()))
    import catphase

    if Path(catphase.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"catphase loaded from {catphase.__file__}, not from {src}")
    # worker.py puts its own tree's src on the path; catphase is loaded already.
    sys.path.insert(0, str(PERFBENCH))
    import jobs  # noqa: E402  (perfbench's, read-only)
    import worker  # noqa: E402

    wl = worker.Workload(workload, jobs)
    wl.run(jobs.warmup_job(workload))
    stream = jobs.job_stream(workload, seed)
    times, statuses = [], []
    for line in sys.stdin:
        for job in islice(stream, int(line)):
            latency, result = wl.run(job)
            times.append(latency)
            statuses.append(wl.judge(job, result))
        print(flush=True)  # block done
    passed = sum(not status.startswith("failed") for status in statuses)
    summary = {
        "jobs": len(statuses),
        "failed": len(statuses) - passed,
        "refused": sum(status.startswith("refused") for status in statuses),
        **worker._timing_metrics(times, passed),
        "failures": wl.failures[:5],
    }
    print(json.dumps(summary), flush=True)


def _start(root: str, workload: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, __file__, "--serve", str(Path(root) / "src"), workload, str(seed)]
    return subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def _died(proc: subprocess.Popen) -> RuntimeError:
    return RuntimeError(f"worker {proc.args[3]} exited {proc.wait()}")


def _block(proc: subprocess.Popen, n: int) -> None:
    with contextlib.suppress(BrokenPipeError):  # a dead worker is reported below
        proc.stdin.write(f"{n}\n")
        proc.stdin.flush()
    if not proc.stdout.readline():
        raise _died(proc)


def _finish(proc: subprocess.Popen) -> dict:
    proc.stdin.close()
    line = proc.stdout.readline()
    if not line:
        raise _died(proc)
    return json.loads(line)


def run(a_root: str, b_root: str, workload: str, seed: int, n_jobs: int) -> dict:
    """Both sides' summaries, and B/A for jobs/s, p50 and p90."""
    procs = {side: _start(root, workload, seed) for side, root in (("A", a_root), ("B", b_root))}
    try:
        for k, done in enumerate(range(0, n_jobs, BLOCK)):
            for side in ("A", "B") if k % 2 == 0 else ("B", "A"):
                _block(procs[side], min(BLOCK, n_jobs - done))
        report = {side: _finish(proc) for side, proc in procs.items()}
    finally:
        for proc in procs.values():
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.stdout.close()
            proc.wait(timeout=60)
    report["B/A"] = {name: report["B"][name] / report["A"][name] for name in METRICS}
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        _serve(argv[1], argv[2], int(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_root", help="checkout A (holds src/catphase)")
    parser.add_argument("b_root", help="checkout B")
    parser.add_argument("--workload", choices=WORKLOADS, default="sweep")
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--jobs", type=int, default=4000, help="jobs per side")
    args = parser.parse_args(argv)
    report = run(args.a_root, args.b_root, args.workload, args.seed, args.jobs)
    print(json.dumps(report, indent=2))
    return 1 if report["A"]["failed"] or report["B"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
