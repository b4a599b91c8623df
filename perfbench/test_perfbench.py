"""Self-tests of the benchmark harness at tiny grid sizes and horizons."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from record import record_jobs  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402

harness.load_program()

SEED = 3


def _benchmark_units(section):
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload at tiny scale, untraced and traced, against a tiny reference."""
    out_dir = str(tmp_path_factory.mktemp("perfbench"))
    workdir = os.path.join(out_dir, "record")
    os.makedirs(workdir)
    runs = {}
    for workload in harness.WORKLOADS:
        jobs = harness.build_jobs(workload, SEED, harness.TINY)
        reference = harness.Reference(record_jobs(jobs, workdir))
        runs[workload] = [
            harness.run_workload(
                workload, SEED, 0.0, trace, reference, out_dir, harness.TINY, setup_probes=1
            )
            for trace in (False, True)
        ]
    return runs


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tiny_runs, workload):
    untraced, traced = tiny_runs[workload]
    for record, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        emitted = {name: entry["unit"] for name, entry in record["metrics"].items()}
        assert emitted == _benchmark_units(section)
        assert all(isinstance(entry["value"], float) for entry in record["metrics"].values())
        assert record["failed"] == 0 and record["attempted"] >= len(record["jobs"])


class _Altering:
    """Runs a job, then flips one byte of the first file it wrote."""

    def __init__(self, job):
        self.job = job
        self.key = job.key

    def run(self, workdir):
        result = self.job.run(workdir)
        path = os.path.join(workdir, sorted(os.listdir(workdir))[0])
        with open(path, "r+b") as handle:
            handle.seek(-2, os.SEEK_END)
            last = handle.read(1)[0]
            handle.seek(-2, os.SEEK_END)
            handle.write(bytes([last ^ 1]))
        return result


@pytest.mark.parametrize("workload", ["scan", "custom_plant"])
def test_altered_output_counts_as_failed(tmp_path, workload):
    job = harness.build_jobs(workload, SEED, harness.TINY)[0]
    outcome = harness.execute(job, str(tmp_path))
    reference = harness.Reference(
        {job.key: {"exit": outcome.exit, "digest": outcome.digest, "units": 1}}
    )
    tally = harness.Tally(reference)
    assert tally.record(job, outcome)
    assert not tally.record(job, harness.execute(_Altering(job), str(tmp_path)))
    assert (tally.attempted, tally.failed) == (2, 1)


class _Sleeping:
    """A job that sleeps for a fixed time and writes nothing."""

    def __init__(self, key, plant, seconds):
        self.key = key
        self.plant = plant
        self.seconds = seconds

    def run(self, workdir):
        start = time.perf_counter()
        time.sleep(self.seconds)
        return 0, time.perf_counter() - start


def test_both_plants_get_equal_measured_time(tmp_path, monkeypatch):
    monkeypatch.setattr(harness.calibration, "probe", lambda: 0.0)
    jobs = [_Sleeping("short", "pendulum", 0.01), _Sleeping("long", "bicycle", 0.04)]
    digest = harness.execute(jobs[0], str(tmp_path)).digest
    reference = harness.Reference({job.key: {"exit": 0, "digest": digest, "units": 1} for job in jobs})
    times, _, _ = harness.measure(jobs, 0.6, harness.Tally(reference), str(tmp_path))
    assert len(times["short"]) > 2 * len(times["long"]) > 0
    assert abs(sum(times["short"]) - sum(times["long"])) < 0.1


def test_seeds_fold_into_the_recorded_range():
    keys = [job.key for job in harness.build_jobs("custom_plant", SEED, harness.TINY)]
    folded = harness.build_jobs("custom_plant", SEED + harness.RECORDED_SEEDS, harness.TINY)
    assert [job.key for job in folded] == keys


def test_traced_and_untraced_runs_have_identical_digests(tmp_path):
    jobs = [job for w in harness.WORKLOADS for job in harness.build_jobs(w, SEED, harness.TINY)]
    plain = {job.key: harness.execute(job, str(tmp_path)).digest for job in jobs}
    with Tracer() as tracer:
        traced = {job.key: harness.execute(job, str(tmp_path)).digest for job in jobs}
    assert plain == traced
    assert len(tracer) > 0 and not tracer.absent


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_trace_targets_are_reported_absent(monkeypatch):
    missing = (
        ("kernels", "kernels.sim", "cbftk.no_such_module", "pend_simulate", None),
        ("kernels", "kernels.sim", "cbftk.cli", "no_such_function", None),
        ("cbf", "cbf.no_such_method", "cbftk.cbf", "CbfInstance.no_such_method", None),
    )
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + missing)
    main = sys.modules["cbftk.cli"].main
    with Tracer() as tracer:
        assert sys.modules["cbftk.cli"].main is not main
    assert tracer.absent == [
        "cbftk.no_such_module.pend_simulate",
        "cbftk.cli.no_such_function",
        "cbftk.cbf.CbfInstance.no_such_method",
    ]
    assert sys.modules["cbftk.cli"].main is main
