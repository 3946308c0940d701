"""One benchmark process: set up, then run a workload's jobs closed-loop.

    python perfbench/worker.py --workload W --seed N --seconds S --mode MODE \
        --out-dir DIR

run.py starts each worker in a fresh interpreter.  MODE is ``setup`` (import
plus the warm-up job, then stop), ``e2e`` (jobs back to back for S seconds,
untraced, with a CPU-speed probe between them) or ``trace`` (a fixed batch
of jobs run untraced and then again with boundary spans).  Traced runs write
their spans to DIR.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


class Workload:
    """Runs and checks the jobs of one workload.

    ``run`` times one job and returns (latency, raw result or exception);
    ``judge`` turns that into ``passed``, ``refused:<type>...`` (a refusal
    the reference confirms, see jobs.refusal_reason) or ``failed:<type>``,
    where the type is the exception raised, ``check`` for a wrong output or
    ``trace`` for a traced output that differs.
    """

    def __init__(self, name: str, jobs) -> None:
        self.name = name
        self.jobs = jobs
        self.env = jobs.cli_env()
        self.failures: list[str] = []

    def run(self, job: dict, traced_spans: Path | None = None):
        start = time.perf_counter()
        try:
            if self.name == "cli":
                result = self.jobs.run_cli(self.jobs.cli_argv(job), self.env, traced_spans)
            else:
                result = self.jobs.run_job(job)
        except Exception as exc:  # recorded by type, never dropped
            result = exc
        return time.perf_counter() - start, result

    def judge(self, job: dict, result) -> str:
        jobs = self.jobs
        if isinstance(result, Exception):
            name = type(result).__name__
            return self.fail(name, f"{name}: {result}")
        try:
            if self.name == "cli":
                why = jobs.check_cli(job, result, jobs.cli_reference(job))
            else:
                why = jobs.check_job(job, result)
        except Exception as exc:  # a check that cannot read the output fails the job
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            return self.fail("check", why)
        return jobs.refused_status(job, result) or "passed"

    def fail(self, kind: str, message: str) -> str:
        """Count a failure; keep the first 20 messages."""
        if len(self.failures) < 20:
            self.failures.append(message[:300])
        return f"failed:{kind}"

    def digest(self, result) -> str:
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        return self.jobs.digest(result)


def _peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _percentile(values: list[float], q: int) -> float:
    """numpy.percentile's default (linear) percentile, q a whole percent."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# The benchmark box's CPU runs up to ~1.6x slower for stretches of seconds to
# minutes (other tenants share the cores), which moved raw timings 15-25%
# between identical runs.  Every timing is therefore scaled by a fixed
# pure-Python probe run on the same CPU between jobs (and around set-up): it
# is reported as it would read on a CPU on which cpu_probe() takes
# PROBE_NOMINAL_S, which is about this box at full speed.  Raw timings are
# kept in the run record.
PROBE_NOMINAL_S = 1e-3
PROBE_EVERY_S = 0.1


def cpu_probe() -> float:
    """Best of 3 timings of a fixed pure-Python loop (about 1 ms each)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _timing_metrics(times: list[float], passed: int) -> dict:
    return {
        "jobs_per_s": passed / sum(times),
        "job_s_p50": _percentile(times, 50),
        "job_s_p90": _percentile(times, 90),
    }


def run_e2e(wl: Workload, seed: int, seconds: float) -> dict:
    stream = wl.jobs.job_stream(wl.name, seed)
    latencies, statuses, pending = [], [], []
    probes, probe_before = [cpu_probe()], []
    last_probe = start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        job = next(stream)
        latency, result = wl.run(job)
        latencies.append(latency)
        probe_before.append(len(probes) - 1)
        if wl.name == "cli":
            pending.append((job, result))  # checked after the timed window
        else:
            statuses.append(wl.judge(job, result))
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(cpu_probe())
            last_probe = time.perf_counter()
    wall = time.perf_counter() - start
    probes.append(cpu_probe())
    statuses += [wl.judge(job, result) for job, result in pending]
    counts = dict(Counter(statuses))
    passed = sum(n for status, n in counts.items() if not status.startswith("failed"))
    # Each job is scaled by the mean of the probes taken around it.
    scaled = [
        lat * 2.0 * PROBE_NOMINAL_S / (probes[k] + probes[k + 1])
        for lat, k in zip(latencies, probe_before)
    ]
    return {
        "wall_s": wall,
        "attempted": len(statuses),
        "counts": counts,
        **_timing_metrics(scaled, passed),
        "raw": _timing_metrics(latencies, passed),
        "probe_s": {"min": min(probes), "median": _percentile(probes, 50), "count": len(probes)},
        "peak_rss_mib": _peak_rss_mib(wl.name),
    }


def trace_batch_size(workload: str, seconds: float) -> int:
    """Jobs in a traced run: fixed by workload and --seconds, so counts repeat."""
    if workload == "sweep":
        return max(20, int(20 * seconds))
    return 8 * math.ceil(seconds / 16)  # whole blocks of the job mix


def run_trace(wl: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    import spans

    batch = list(islice(wl.jobs.job_stream(wl.name, seed), trace_batch_size(wl.name, seconds)))
    untraced_s, statuses, digests, output_bytes = 0.0, [], [], 0
    for job in batch:
        latency, result = wl.run(job)
        untraced_s += latency
        statuses.append(wl.judge(job, result))
        digests.append(wl.digest(result))
        if wl.name == "cli" and not isinstance(result, Exception):
            output_bytes += len(result[1])

    recorder = spans.Recorder()
    traced_s, mismatches = 0.0, 0
    child_spans = out_dir / f"child-{os.getpid()}.npz"
    with spans.installed(recorder) as absent:
        for i, job in enumerate(batch):
            recorder.begin_job(i)
            latency, result = wl.run(job, child_spans if wl.name == "cli" else None)
            traced_s += latency
            if wl.name == "cli" and child_spans.exists():
                recorder.merge(child_spans, i)
                child_spans.unlink()
            if wl.digest(result) != digests[i]:
                mismatches += 1
                statuses[i] = wl.fail("trace", f"job {i}: traced output differs from untraced")

    arrays = recorder.arrays()
    recorder.save(out_dir / f"spans-{wl.name}-s{seed}.npz")
    layers = spans.summarize(arrays, traced_s)
    layers["cli.output_bytes"] = output_bytes
    layers["trace.overhead"] = traced_s / untraced_s
    return {
        "attempted": len(batch),
        "counts": dict(Counter(statuses)),
        "trace_mismatches": mismatches,
        "absent": absent,
        "spans": int(arrays["start"].size),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "validate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "e2e", "trace"))
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    probe_before = cpu_probe()
    start = time.perf_counter()
    importlib.import_module("catphase.cli" if args.workload == "cli" else "catphase")
    import jobs

    wl = Workload(args.workload, jobs)
    _, warm = wl.run(jobs.warmup_job(args.workload))
    setup_s = time.perf_counter() - start
    probe_after = cpu_probe()
    if wl.judge(jobs.warmup_job(args.workload), warm) != "passed":
        raise SystemExit(f"warm-up job did not pass: {wl.failures or warm!r}")

    result = {
        "setup_s": setup_s * 2.0 * PROBE_NOMINAL_S / (probe_before + probe_after),
        "setup_raw_s": setup_s,
    }
    if args.mode == "e2e":
        result.update(run_e2e(wl, args.seed, args.seconds))
    elif args.mode == "trace":
        result.update(run_trace(wl, args.seed, args.seconds, args.out_dir))
    if args.mode != "setup":
        result["failures"] = wl.failures
        result["versions"] = {"python": sys.version.split()[0]}
        for package in ("numpy", "scipy"):
            try:
                result["versions"][package] = metadata.version(package)
            except metadata.PackageNotFoundError:
                result["versions"][package] = "not installed"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
