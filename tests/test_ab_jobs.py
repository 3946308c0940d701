import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ab_jobs", ROOT / "tools" / "ab_jobs.py")
ab_jobs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_jobs)


@pytest.mark.parametrize("workload", ["sweep", "validate"])
def test_a_against_a_runs_and_checks_every_job(workload):
    n_jobs = ab_jobs.BLOCK + 5  # two alternating blocks, the second one short
    report = ab_jobs.run(str(ROOT), str(ROOT), workload, seed=3, n_jobs=n_jobs)
    for side in ("A", "B"):
        assert report[side]["jobs"] == n_jobs
        assert report[side]["failed"] == 0, report[side]["failures"]
        assert report[side]["jobs_per_s"] > 0.0
        assert 0.0 < report[side]["job_s_p50"] <= report[side]["job_s_p90"]
    assert report["A"]["refused"] == report["B"]["refused"]
    assert set(report["B/A"]) == {"jobs_per_s", "job_s_p50", "job_s_p90"}


def test_a_worker_that_dies_is_reported_and_both_are_waited_for(tmp_path):
    (tmp_path / "src").mkdir()  # no catphase here: that worker exits at start
    with pytest.raises(RuntimeError, match="exited 1"):
        ab_jobs.run(str(ROOT), str(tmp_path), "sweep", seed=3, n_jobs=2 * ab_jobs.BLOCK)
