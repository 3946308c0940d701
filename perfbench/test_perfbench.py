"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import catphase.phasedist  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from catphase.errors import DomainError, NoConvergenceError  # noqa: E402


def _first(workload, seed, n):
    return list(islice(jobs.job_stream(workload, seed), n))


def _pick(workload, predicate, seed=5):
    return next(job for job in jobs.job_stream(workload, seed) if predicate(job))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_stream_is_identical_for_a_fixed_seed(workload):
    assert _first(workload, 3, 40) == _first(workload, 3, 40)
    assert _first(workload, 3, 40) != _first(workload, 4, 40)


def test_streams_hold_the_stated_mix_in_every_block():
    for start in range(0, 80, 8):
        block = [job["kind"] for job in _first("validate", 9, 80)[start : start + 8]]
        assert sorted(block) == sorted(["phase"] * 3 + ["one_mode"] * 2 + ["chi"] * 2 + ["norm"])
    sweep = _first("sweep", 9, 100)
    for start in range(0, 100, 10):
        s_values = [job["s"] for job in sweep[start : start + 10]]
        assert sum(s >= 0.5 for s in s_values) == 3
        assert s_values.count(-1.0) == 1
    cli = _first("cli", 9, 64)
    for start in range(0, 64, 8):
        commands = [job["command"] for job in cli[start : start + 8]]
        assert sorted(commands) == sorted(jobs.CLI_COMMANDS)
    assert sorted(job["panel"] for job in cli if job["panel"]) == sorted(jobs.FIGURE_PANELS)


def _traced_digests(batch):
    recorder = spans.Recorder()
    out = []
    with spans.installed(recorder) as absent:
        assert absent == []
        for i, job in enumerate(batch):
            recorder.begin_job(i)
            out.append(jobs.digest(jobs.run_job(job)))
    return out, recorder


def test_traced_wrappers_pass_results_through_bit_for_bit():
    original = catphase.phasedist.i_n_combo
    batch = _first("sweep", 2, 3) + [
        _pick("sweep", lambda j: j["s"] >= 0.9 and j["state"]["alpha"][0] < 1.0),
        _pick("sweep", lambda j: j["s"] == -1.0),
    ]
    for kind in ("phase", "one_mode", "chi", "norm"):
        batch.append(_pick("validate", lambda j, k=kind: j["kind"] == k))
    untraced = [jobs.digest(jobs.run_job(job)) for job in batch]
    traced, recorder = _traced_digests(batch)
    assert traced == untraced
    assert catphase.phasedist.i_n_combo is original  # wrappers removed on exit
    layers = spans.summarize(recorder.arrays(), busy_s=1.0)
    assert layers["specfun.i_n_combo.calls"] > 0
    assert layers["oracle.quadrature_normalization.calls"] == 1
    assert set(layers) <= set(run.LAYERS)


def test_traced_cli_call_matches_the_plain_call(tmp_path):
    env = jobs.cli_env()
    for command in ("phase-dist", "figure"):
        job = dict(jobs.warmup_job("cli"), command=command, panel="2b")
        argv = jobs.cli_argv(job)
        plain = jobs.run_cli(argv, env)
        traced = jobs.run_cli(argv, env, tmp_path / "spans.npz")
        assert plain == traced and plain[0] == 0
        recorder = spans.Recorder()
        recorder.merge(tmp_path / "spans.npz", job=0)
        assert recorder.names[0] == "cli.main"


def test_absent_boundary_is_reported_not_fatal(monkeypatch):
    extra = (
        ("catphase.phasedist", "no_such_function", "phasedist.gone"),
        ("catphase.no_such_module", "f", "gone.f"),
    )
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + extra)
    with spans.installed(spans.Recorder()) as absent:
        assert absent == ["catphase.phasedist.no_such_function", "catphase.no_such_module.f"]


def test_self_time_excludes_child_spans():
    arrays = {
        "names": np.array(json.dumps(["phasedist.build_spectrum", "specfun.i_n_combo"])),
        "name": np.array([0, 1, 1]),
        "parent": np.array([-1, 0, 0]),
        "job": np.zeros(3, int),
        "ok": np.array([1, 1, 1], np.int8),
        "start": np.array([0.0, 2.0, 6.0]),
        "end": np.array([10.0, 5.0, 7.0]),
        "work": np.array([12.0, 0.0, 1.0]),
    }
    m = spans.summarize(arrays, busy_s=20.0)
    assert m["phasedist.build_spectrum.self_s"] == 6.0
    assert m["specfun.i_n_combo.self_s"] == 4.0
    assert m["specfun.i_n_combo.repeat_frac"] == 0.5
    assert m["phasedist.terms"] == 12
    assert m["phasedist.self_frac"] == 0.3
    assert m["unspanned.self_frac"] == 0.5


def test_sweep_check_rejects_corrupted_results():
    husimi_job = _pick("sweep", lambda j: j["s"] == -1.0)
    for job in (_first("sweep", 2, 1)[0], husimi_job):
        result = jobs.run_job(job)
        assert jobs.check_job(job, result) is None
        coeffs, sines, density = result["spectra"][1]
        bad = [(coeffs, sines, density + 1e-9)] + result["spectra"][1:]
        assert jobs.check_job(job, dict(result, spectra=bad)) is not None

    result = jobs.run_job(husimi_job)
    coeffs, sines, density = (a.copy() for a in result["spectra"][0])
    coeffs[0] = 1.5
    bad = [(coeffs, sines, density)] + result["spectra"][1:]
    assert jobs.check_job(husimi_job, dict(result, spectra=bad)) is not None
    shift = density[0] + 1e-6
    density[0] -= shift  # one negative point, same integral
    density[1] += shift
    bad = [(result["spectra"][0][0], sines, density)] + result["spectra"][1:]
    assert jobs.check_job(husimi_job, dict(result, spectra=bad)) is not None


def test_sweep_check_rejects_a_corrupted_or_early_cut_coefficient():
    high_s = _pick("sweep", lambda j: 0.9 <= j["s"] and jobs.run_job(j)["refused"] is None)
    for job in (_first("sweep", 2, 1)[0], high_s):
        result = jobs.run_job(job)
        assert jobs.check_job(job, result) is None
        for i in range(4):
            cos_c, sin_c, density = (a.copy() for a in result["spectra"][i])
            mid = len(cos_c) // 2 - 1  # c_(n_used / 2), one of the checked indices
            cos_c[mid] += 1e-9 + 1e-8 * abs(cos_c[mid])  # some are exactly 0
            spectra = list(result["spectra"])
            spectra[i] = (cos_c, sin_c, density)
            assert jobs.check_job(job, dict(result, spectra=spectra)) is not None
            # Ending the series one term early leaves a tail above 1e-14.
            cos_c, sin_c, density = result["spectra"][i]
            spectra[i] = (cos_c[:-1], sin_c[:-1], density)
            assert "cut at" in jobs.check_job(job, dict(result, spectra=spectra))
        cos_c, sin_c, density = (a.copy() for a in result["spectra"][2])
        sin_c[0] += 1e-9 + 1e-8 * abs(sin_c[0])
        spectra = result["spectra"][:2] + [(cos_c, sin_c, density)] + result["spectra"][3:]
        assert jobs.check_job(job, dict(result, spectra=spectra)) is not None


def _refusing(error, stage):
    def refuses(job):
        if job["s"] < 0.9:
            return False
        refused = jobs.run_job(job)["refused"]
        return refused is not None and refused[:2] == (error, stage)

    return _pick("sweep", refuses)


@pytest.mark.parametrize(
    "error, stage",
    [
        ("NoConvergenceError", "spectrum"),
        ("OverflowError", "spectrum"),
        ("OverflowError", "trig_moments"),
    ],
)
def test_only_refusals_the_reference_confirms_pass(error, stage):
    wl = worker.Workload("sweep", jobs)
    job = _refusing(error, stage)
    result = jobs.run_job(job)
    assert wl.judge(job, result) == f"refused:{error}:{stage}"
    # The same refusal claimed for a tame job is wrong.
    tame = _first("sweep", 2, 1)[0]
    claimed = dict(jobs.run_job(tame), refused=result["refused"])
    assert wl.judge(tame, claimed) == "failed:check"
    assert wl.failures == [jobs.check_job(tame, claimed)]


# Sweep seed 32, job 1098: c_1 of the plus spectrum is 1.22e154, so c_1^2
# fits in a float but 2 c_1^2 does not, and c_2 = -2.42e154 overflows.
RIM_JOB = {
    "workload": "sweep",
    "state": {
        "kind": "even_cat",
        "alpha": (2.5011671071051715, 5.5738351230662895),
        "beta": (2.1919091391096877, 2.822784447543621),
    },
    "s": 0.9431079340406681,
}


def test_a_refused_job_returns_only_its_refusal():
    result = jobs.run_job(RIM_JOB)
    assert result["refused"] == ("OverflowError", "trig_moments", "plus", 2)
    assert result["spectra"] == [] and result["moments"] == []
    assert worker.Workload("sweep", jobs).judge(RIM_JOB, result) == (
        "refused:OverflowError:trig_moments"
    )


@pytest.mark.xfail(
    strict=True,
    reason="catphase defect: trig_moments forms 2.0 * c_n**2, which overflows to inf "
    "when c_n^2 is within a factor 2 of the float maximum, so var_cos is -inf",
)
def test_trig_moments_variance_is_finite_when_it_fits_a_float():
    state = jobs.make_state(RIM_JOB["state"])
    sp = catphase.phasedist.build_spectrum(state, RIM_JOB["s"], "plus")
    moments = catphase.phasedist.trig_moments(sp, 1)
    assert abs(moments.mean_cos) ** 2 < sys.float_info.max
    assert np.isfinite(moments.var_cos)


def test_a_raised_error_fails_the_job():
    wl = worker.Workload("sweep", jobs)
    job = _refusing("NoConvergenceError", "spectrum")
    assert wl.judge(job, NoConvergenceError("tail")) == "failed:NoConvergenceError"
    assert wl.judge(job, OverflowError("c_n**2")) == "failed:OverflowError"
    assert wl.judge(job, DomainError("bad")) == "failed:DomainError"
    assert len(wl.failures) == 3


def test_refusal_reason_checks_the_wigner_exponent():
    state = jobs.make_state(jobs.warmup_job("cli")["state"])  # |alpha|^2 + |beta|^2 = 2
    assert jobs.refusal_reason(state, 0.9979, ("OverflowError", "w", 0.0)) is None
    assert jobs.refusal_reason(state, 0.99, ("OverflowError", "w", 0.0)) is not None
    assert jobs.refusal_reason(state, 0.99, ("DomainError", "w", 0.0)) is not None


def test_percentile_matches_numpy():
    values = [float(v) for v in np.random.default_rng(1).exponential(size=37)]
    for q in (50, 90):
        assert worker._percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


@pytest.mark.parametrize("kind", ["phase", "one_mode", "chi", "norm"])
def test_validate_check_rejects_corrupted_results(kind):
    job = _pick("validate", lambda j: j["kind"] == kind)
    result = jobs.run_job(job)
    assert jobs.check_job(job, result) is None
    tol = jobs.CHI_TOL if kind == "chi" else jobs.QUADRATURE_TOL
    series = result["series"].copy()
    series[-1] += 1.5 * tol
    assert jobs.check_job(job, dict(result, series=series)) is not None


def test_cli_check_rejects_corrupted_output():
    env = jobs.cli_env()
    job = dict(jobs.warmup_job("cli"), command="phase-dist")
    code, stdout = jobs.run_cli(jobs.cli_argv(job), env)
    reference = jobs.cli_reference(job)
    assert jobs.check_cli(job, (code, stdout), reference) is None
    lines = stdout.decode().splitlines()
    offset, density = lines[-1].split(",")
    lines[-1] = f"{offset},{float(density) * (1 + 1e-9)!r}"
    corrupted = ("\n".join(lines) + "\n").encode()
    assert jobs.check_cli(job, (code, corrupted), reference) is not None
    assert jobs.check_cli(job, (3, stdout), reference) is not None


def test_parse_importtime_takes_outermost_imports():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:        10 |         10 |       numpy.linalg",
            "import time:        50 |        200 |     scipy.special",
            "import time:        20 |        220 |   catphase.oracle",
            "import time:       300 |        300 |   numpy",
            "import time:         5 |        600 | catphase",
            "import time:         5 |          5 | catphase.cli",
        ]
    )
    out = run.parse_importtime(text)
    assert out == pytest.approx({"import_s": 605e-6, "scipy_s": 200e-6, "numpy_s": 310e-6})


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYERS
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
