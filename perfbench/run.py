"""The catphase benchmark: one workload per call, checked outputs, JSON result.

    python3 perfbench/run.py --workload {sweep,validate,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` makes a separate traced run and
reports per-layer metrics.  Each job's output is checked.  Human-readable
lines come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(versions, counts, failures by type) is written under ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "validate", "cli")
HELD_OUT_SEED = 7919  # not used while the benchmark or any change is tuned
SETUP_PROBES = 4  # fresh-interpreter set-ups besides the measuring worker's own
IMPORT_PROBES = 3
BLAS_THREADS = "1"  # one closed-loop client on a 2-core box; at most nproc
DEADLINE_S = 170.0  # every run ends well inside 180 s
# Metric name -> unit, as listed in BENCHMARK.json.
E2E = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mib": "MiB",
}
_ORACLES = (
    "quadrature_normalization",
    "quadrature_phase_dist",
    "quadrature_one_mode",
    "fock_chi_oracle",
)
_MODULES = ("specfun", "phasedist", "states", "quasiprob", "oracle", "cli", "unspanned")
LAYERS = {
    "specfun.i_n_combo.calls": "count",
    "specfun.i_n_combo.self_s": "s",
    "specfun.i_n_combo.repeat_frac": "ratio",
    "specfun.bessel_i_ratio.calls": "count",
    "specfun.bessel_i_ratio.self_s": "s",
    "phasedist.build_spectrum.calls": "count",
    "phasedist.build_spectrum.self_s": "s",
    "phasedist.build_spectrum.errors": "count",
    "phasedist.one_mode_coefficients.calls": "count",
    "phasedist.one_mode_coefficients.self_s": "s",
    "phasedist.one_mode_coefficients.errors": "count",
    "phasedist.fourier_coefficient.calls": "count",
    "phasedist.fourier_coefficient.self_s": "s",
    "phasedist.terms": "count",
    "phasedist.wasted_frac": "ratio",
    "phasedist.trig_moments.recomputed": "count",
    "phasedist.eval.self_s": "s",
    "phasedist.eval.ops": "count",
    "phasedist.moments.self_s": "s",
    "states.normalization_constant.calls": "count",
    "states.normalization_constant.self_s": "s",
    "quasiprob.w.calls": "count",
    "quasiprob.w.points": "count",
    "quasiprob.w.self_s": "s",
    "quasiprob.w.ns_per_point": "ns",
    "quasiprob.w.errors": "count",
    "quasiprob.w_symmetrized.calls": "count",
    "quasiprob.w_symmetrized.self_s": "s",
    "quasiprob.chi.calls": "count",
    "quasiprob.chi.self_s": "s",
    **{f"oracle.{name}.calls": "count" for name in _ORACLES},
    **{f"oracle.{name}.self_s": "s" for name in _ORACLES},
    "oracle.nodes": "count",
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.numpy_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{module}.self_frac": "ratio" for module in _MODULES},
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run(cmd: list[str], env: dict, cwd: Path, deadline: float) -> subprocess.CompletedProcess:
    """Run to completion in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        process_group=0,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _worker(args, mode: str, env: dict, root: Path, out_dir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out-dir", str(out_dir),
    ]
    proc = _run(cmd, env, root, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\| ( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Import costs from ``python -X importtime`` output, in seconds.

    Each value is the cumulative time of the outermost imports of a package:
    ``import_s`` for top-level ``catphase`` imports, ``scipy_s`` and
    ``numpy_s`` for every scipy or numpy import not nested in another of the
    same package, which is what importing that package costs in this process.
    """
    out = {"import_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0}
    lines = [m.groups() for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    ancestors: list[tuple[int, str]] = []
    # The output lists each import after the imports nested in it, so reading
    # it backwards meets every parent before its children.
    for _, cum_us, indent, module in reversed(lines):
        depth = len(indent)
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = module.split(".")[0]
        outer = {pkg for _, pkg in ancestors}
        if package == "catphase" and depth == 0:
            out["import_s"] += int(cum_us) * 1e-6
        if package in ("scipy", "numpy") and package not in outer:
            out[f"{package}_s"] += int(cum_us) * 1e-6
        ancestors.append((depth, package))
    return out


def _import_probe(env: dict, root: Path, deadline: float) -> dict:
    """Import costs of the CLI, read from outside in a fresh interpreter."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import catphase.cli"]
    proc = _run(cmd, env, root, deadline)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr[-3000:]}")
    return parse_importtime(proc.stderr)


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unavailable"


def _end_to_end(args, env, root, out_dir, deadline) -> tuple[dict, dict]:
    def setup_probe() -> dict:
        return _worker(args, "setup", env, root, out_dir, deadline)

    # Half the set-up probes run before the timed worker and half after, so
    # their median spans the run rather than one moment of it.
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    res = _worker(args, "e2e", env, root, out_dir, deadline)
    setups.append(res)
    setups += [setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    res["setup_raw_samples_s"] = [s["setup_raw_s"] for s in setups]
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    metrics = {name: res[name] for name in E2E if name != "setup_s"}
    metrics["setup_s"] = statistics.median(res["setup_samples_s"])
    return res, metrics


def _per_layer(args, env, root, out_dir, deadline) -> tuple[dict, dict]:
    probes = [_import_probe(env, root, deadline) for _ in range(IMPORT_PROBES)]
    res = _worker(args, "trace", env, root, out_dir, deadline)
    metrics = dict(res["layers"])
    for key in ("import_s", "scipy_s", "numpy_s"):
        name = "cli.import_s" if key == "import_s" else f"cli.import.{key}"
        metrics[name] = statistics.median(p[key] for p in probes)
    return res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "catphase" / "__init__.py").is_file():
        print("run from the repository root: src/catphase not found", file=sys.stderr)
        return 2
    env = _child_env(root)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    # Untimed first import: compiles bytecode so no probe pays for it.
    prime = _run([sys.executable, "-c", "import catphase.cli"], env, root, deadline)
    if prime.returncode != 0:
        print(f"catphase does not import:\n{prime.stderr[-3000:]}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "load": "one closed-loop client, one job at a time",
    }
    try:
        measure = _end_to_end if args.trace == 0 else _per_layer
        res, metrics = measure(args, env, root, out_dir, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    units = E2E if args.trace == 0 else LAYERS

    counts = res["counts"]
    failed = sum(n for status, n in counts.items() if status.startswith("failed"))
    attempted = res["attempted"]
    refused = sum(n for status, n in counts.items() if status.startswith("refused"))
    correct = failed == 0
    record.update(
        versions=res["versions"],
        attempted=attempted,
        outcomes=counts,
        failed_frac=failed / attempted,
        refused_frac=refused / attempted,
        correct=correct,
        failures=res["failures"],
        metrics=metrics,
    )
    for key in (
        "wall_s",
        "raw",
        "probe_s",
        "setup_samples_s",
        "setup_raw_samples_s",
        "absent",
        "spans",
        "untraced_s",
        "traced_s",
        "trace_mismatches",
    ):
        if key in res:
            record[key] = res[key]
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} jobs, outcomes {json.dumps(counts, sort_keys=True)}"
    )
    print(
        f"  failed_frac {failed / attempted:.6g}, refused_frac {refused / attempted:.6g} "
        f"(refusals the reference confirms); correct={correct}"
    )
    if res.get("absent"):
        print(f"  absent boundaries (their metrics read 0): {', '.join(res['absent'])}")
    for metric in sorted(metrics):
        print(f"  {metric:44s} {metrics[metric]:.6g} {units.get(metric, '')}")
    for message in res["failures"]:
        print(f"  failure: {message}")
    print(f"  record: {out_dir / name}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": units[metric]}
            for metric in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
