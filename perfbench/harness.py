"""Workloads, jobs, correctness gate and metrics of the cbftk benchmark.

One client runs one job at a time in a closed loop: each job starts when
the previous one has finished.  A job is either a CLI invocation
(``cbftk.cli.main(argv)`` in-process, writing into a scratch directory) or
a library call.  Every execution is checked against the reference recorded
in ``reference.json``: an exception, an unexpected exit code or an output
digest that differs from the reference counts as a failure.

Workloads (why each exists):

* ``scan``: ``cbftk scan`` for both plants and all four constructions at the
  published 401 x 401 grid.  CSV cell formatting dominates, then the
  grid-scan kernel.
* ``validate``: ``cbftk validate`` for the same eight pairs.  Same grid
  scans without any CSV, plus the AD-based assumption checks, so a change
  to the CSV writer must show no change here.
* ``closed_loop``: per plant ``cbftk compare`` over all four constructions,
  then ``cbftk simulate --svg`` per construction at the published horizons.
  RK4 stepping with the filter dominates and no grid scan runs.
* ``custom_plant``: library use with instances rebuilt from the public
  constructors (no kernel binding): short simulations from seeded initial
  states plus a coarse grid scan per plant and construction.  The only
  workload on the AD reference path.

Work units are evaluated states: logged integration steps plus grid nodes.
Throughput and set-up time are corrected to the reference host speed with
the probe of ``calibration.py``, which runs between every two timed jobs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import calibration
from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

PLANTS = ("pendulum", "bicycle")
KINDS = ("hocbf", "recbf", "backstepping", "abc")
WORKLOADS = ("scan", "validate", "closed_loop", "custom_plant")

# custom_plant keeps initial states inside the extended set with h >= 0.05,
# the sampling rule of the forward-invariance acceptance criterion
MIN_INITIAL_H = 0.05
CUSTOM_DT = 1e-3
# custom_plant seeds with recorded outputs; any other seed is folded into them
RECORDED_SEEDS = 100
SETUP_PROBES = 11


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``None`` keeps the published CLI defaults."""

    grid: Optional[int] = None
    horizon: Optional[float] = None
    custom_grid: int = 61
    custom_horizon: float = 0.5
    custom_states: int = 3


FULL = Scale()
TINY = Scale(grid=9, horizon=0.02, custom_grid=5, custom_horizon=0.01, custom_states=1)


def load_program(root: str = ROOT):
    """Import cbftk from ``<root>/src``; raise ImportError if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cbftk", "__init__.py")):
        raise ImportError(f"no cbftk sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("cbftk")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != src:
        raise ImportError(f"cbftk was imported from {package.__file__}, not from {src}")
    importlib.import_module("cbftk.cli")  # the package does not import its CLI
    return package


def _m(name):
    # resolve at call time so the tracer's wrappers are the ones called
    return sys.modules["cbftk." + name]


# -- jobs --------------------------------------------------------------------


@dataclass
class Outcome:
    exit: Optional[int]
    seconds: float
    digest: Optional[str] = None
    rows: int = 0  # lines of the non-SVG output files
    nbytes: int = 0  # bytes of the non-SVG output files
    error: Optional[str] = None


def read_outputs(workdir):
    """Digest of every output file, and rows and bytes of the non-SVG ones.

    Files are read in chunks so that the harness never holds a whole
    output (a 401 x 401 scan CSV is about 16 MB) in memory.
    """
    h = hashlib.sha256()
    rows = nbytes = 0
    for name in sorted(os.listdir(workdir)):
        counted = not name.endswith(".svg")
        h.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as handle:
            for chunk in iter(functools.partial(handle.read, 1 << 20), b""):
                h.update(chunk)
                if counted:
                    rows += chunk.count(b"\n")
                    nbytes += len(chunk)
        h.update(b"\0")
    return h.hexdigest()[:16], rows, nbytes


@dataclass(frozen=True)
class CliJob:
    key: str
    plant: str
    argv: tuple
    out_name: str

    def run(self, workdir):
        """Exit code and seconds of one in-process CLI invocation."""
        main = _m("cli").main
        argv = [*self.argv, "--out", os.path.join(workdir, self.out_name)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = main(argv)
            seconds = perf_counter() - start
        return code, seconds


@dataclass(frozen=True)
class LibJob:
    key: str
    plant: str
    call: Callable

    def run(self, workdir):
        """Exit code 0 and seconds of one library call; the result is
        written to ``result.txt`` as the CLI would format it."""
        start = perf_counter()
        result = self.call()
        seconds = perf_counter() - start
        with open(os.path.join(workdir, "result.txt"), "wb") as handle:
            handle.write(_render(result))
        return 0, seconds


def execute(job, workdir) -> Outcome:
    """Run one job and digest what it wrote; an exception becomes a failed outcome."""
    try:
        code, seconds = job.run(workdir)
        return Outcome(code, seconds, *read_outputs(workdir))
    except Exception:
        return Outcome(None, 0.0, error=traceback.format_exc(limit=3))
    except SystemExit as exc:
        return Outcome(None, 0.0, error=f"SystemExit({exc.code})")
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))


def _fmt(values) -> list:
    # nine significant digits, as the CLI writes its CSV cells
    return [f"{v:.9g}" for v in values]


def _render(result) -> bytes:
    """Library result as text at the CLI's nine significant digits."""
    if hasattr(result, "exit_reason"):
        columns = [result.t, *result.x.T, *result.u.T, result.h, result.psi]
        head = result.exit_reason
    else:
        columns = [*result.x.T, result.h, result.psi, result.lgh_norm, result.margin]
        columns.append(result.excluded.astype(float))
        head = f"{len(result)} nodes"
    if result.s is not None:
        columns.append(result.s)
    cells = [_fmt(column) for column in columns]
    lines = [head] + [",".join(row) for row in zip(*cells)]
    return ("\n".join(lines) + "\n").encode()


def _sized(scale: Scale, argv: tuple) -> tuple:
    extra = ()
    if scale.grid is not None:
        extra += ("--set", f"scan.resolution={scale.grid},{scale.grid}")
    if scale.horizon is not None:
        extra += ("--set", f"sim.horizon={scale.horizon}")
    return argv + extra


def build_jobs(workload: str, seed: int, scale: Scale = FULL) -> list:
    """The jobs of one pass.  Only ``custom_plant`` draws inputs from ``seed``,
    folded into the ``RECORDED_SEEDS`` whose outputs ``reference.json``
    holds, so that every run is checked against a recorded digest; the CLI
    workloads run the published configurations."""
    if workload == "custom_plant":
        return _custom_plant_jobs(np.random.default_rng(seed % RECORDED_SEEDS), scale)
    if workload in ("scan", "validate"):
        out = "scan.csv" if workload == "scan" else "report.txt"
        return [
            CliJob(
                f"{workload}/{plant}/{kind}",
                plant,
                _sized(scale, (workload, "--scenario", plant, "--cbf", kind)),
                out,
            )
            for kind in KINDS
            for plant in PLANTS
        ]
    if workload == "closed_loop":
        jobs = [
            CliJob(
                f"closed_loop/{plant}/compare",
                plant,
                _sized(scale, ("compare", "--scenario", plant, "--cbf", ",".join(KINDS))),
                "metrics.csv",
            )
            for plant in PLANTS
        ]
        jobs += [
            CliJob(
                f"closed_loop/{plant}/simulate/{kind}",
                plant,
                _sized(scale, ("simulate", "--scenario", plant, "--cbf", kind, "--svg")),
                "traj.csv",
            )
            for kind in KINDS
            for plant in PLANTS
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _rebuilt_instance(scenario, kind):
    """The published instance rebuilt with the public constructors, no kernel."""
    cbf = _m("cbf")
    base = scenario.make_cbf(kind)
    if kind == "hocbf":
        return cbf.hocbf(base.output, base.alpha)
    if kind == "recbf":
        return cbf.recbf(base.output, base.alpha, base.theta, base.epsilon)
    if kind == "backstepping":
        return cbf.backstepping(base.output, base.alpha, base.kappa, base.mu)
    return cbf.abc(base.output, base.alpha, base.kappa, base.theta)


def initial_states(scenario, instance, rng, count) -> list:
    """``count`` sampled states in the extended set with h >= MIN_INITIAL_H."""
    states = []
    while len(states) < count:
        x = scenario.sample_state(rng)
        if scenario.output.in_extended_set(x) and instance.value(x) >= MIN_INITIAL_H:
            states.append(x)
    return states


def _custom_plant_jobs(rng, scale: Scale) -> list:
    systems = _m("systems")
    spec_type = _m("safety_filter").SafetyFilterSpec
    by_plant = []
    for plant in PLANTS:
        jobs = []
        by_plant.append(jobs)
        scenario = systems.scenario_by_name(plant)
        spec = spec_type(scenario.desired, scenario.gamma, scenario.alpha_outer)
        for kind in KINDS:
            inst = _rebuilt_instance(scenario, kind)
            for x0 in initial_states(scenario, inst, rng, scale.custom_states):
                tag = hashlib.sha256(np.asarray(x0, dtype=float).tobytes()).hexdigest()[:12]

                def simulate(scenario=scenario, inst=inst, spec=spec, x0=x0):
                    return _m("sim").simulate(
                        scenario.system, inst, spec, x0, scale.custom_horizon, CUSTOM_DT
                    )

                jobs.append(LibJob(f"custom_plant/{plant}/{kind}/sim/{tag}", plant, simulate))

            def scan(scenario=scenario, inst=inst):
                return _m("analysis").grid_scan(
                    inst,
                    scenario.system,
                    scenario.window,
                    (scale.custom_grid, scale.custom_grid),
                    state_from_axes=scenario.state_from_axes,
                    alpha_outer=scenario.alpha_outer,
                )

            jobs.append(LibJob(f"custom_plant/{plant}/{kind}/scan", plant, scan))
    # both plants draw the same number of jobs; alternate them
    return [job for pair in zip(*by_plant) for job in pair]


# -- correctness gate ----------------------------------------------------------


class Reference:
    """Recorded exit code, output digest and work units per job key."""

    def __init__(self, jobs: dict):
        self.jobs = jobs

    @classmethod
    def load(cls, path: str = REFERENCE_PATH) -> "Reference":
        with open(path) as handle:
            return cls(json.load(handle)["jobs"])

    def units(self, job) -> int:
        return self.jobs[job.key]["units"]


class Tally:
    """Counts attempted and failed job executions against a reference."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, job, outcome: Outcome) -> bool:
        self.attempted += 1
        reason = self._verdict(job, outcome)
        if reason is not None:
            self.failed += 1
            self.failures.append((job.key, reason))
        return reason is None

    def _verdict(self, job, outcome) -> Optional[str]:
        if outcome.error is not None:
            return outcome.error
        entry = self.reference.jobs.get(job.key)
        if entry is None:
            return "no reference recorded for this job"
        if outcome.exit != entry["exit"]:
            return f"exit code {outcome.exit}, expected {entry['exit']}"
        if outcome.digest != entry["digest"]:
            return f"output digest {outcome.digest}, expected {entry['digest']}"
        return None


# -- measurement ---------------------------------------------------------------

def warm_up(workload, seed, workdir):
    """Run every job of the workload once at tiny size, untimed and unchecked,
    so that lazy imports and first-call costs stay out of the timed loop."""
    for job in build_jobs(workload, seed, TINY):
        execute(job, workdir)


def measure(jobs, seconds, tally, workdir):
    """Closed loop over the jobs until ``seconds`` have passed; every job runs
    at least once, and a host-speed probe runs between every two jobs.

    The next job comes from the plant that has had the least time so far,
    each plant cycling through its own jobs, so that the plant with the
    shorter jobs gets as many seconds of samples as the other.  Returns the
    successful execution times and the work units per job key, and the
    probe times."""
    cycles = {plant: [job for job in jobs if job.plant == plant] for plant in PLANTS}
    cycles = {plant: cycle for plant, cycle in cycles.items() if cycle}
    spent = dict.fromkeys(cycles, 0.0)
    runs = dict.fromkeys(cycles, 0)
    times = {job.key: [] for job in jobs}
    units = {}
    probes = [calibration.probe()]
    deadline = perf_counter() + seconds
    while True:
        # past the deadline, only plants whose first cycle is unfinished go on
        due = [p for p in cycles if perf_counter() < deadline or runs[p] < len(cycles[p])]
        if not due:
            break
        plant = min(due, key=spent.get)
        job = cycles[plant][runs[plant] % len(cycles[plant])]
        start = perf_counter()
        outcome = execute(job, workdir)
        spent[plant] += perf_counter() - start
        runs[plant] += 1
        probes.append(calibration.probe())
        if tally.record(job, outcome):
            times[job.key].append(outcome.seconds)
            units[job.key] = tally.reference.units(job)
    return times, units, probes


def pass_seconds(jobs, times) -> dict:
    """Median seconds per job key over its successful executions."""
    return {job.key: statistics.median(times[job.key]) for job in jobs if times[job.key]}


def throughput(jobs, medians, units, plant) -> float:
    """Work units per second over one plant's jobs in a pass."""
    keys = [job.key for job in jobs if job.plant == plant and job.key in medians]
    busy = sum(medians[k] for k in keys)
    return sum(units[k] for k in keys) / busy if busy > 0.0 else 0.0


def setup_seconds(root: str = ROOT, probes: int = SETUP_PROBES) -> float:
    """Median set-up time over fresh interpreters, each corrected to the
    reference host speed with the probes on either side of it; the first
    interpreter warms caches."""
    script = os.path.join(HERE, "setup_probe.py")
    samples = []
    probe_times = [calibration.probe()]
    for i in range(probes + 1):
        proc = subprocess.run(
            [sys.executable, script], cwd=root, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe_times.append(calibration.probe())
        if i > 0:
            seconds = float(proc.stdout.strip().splitlines()[-1])
            slowdown = calibration.slowdown(probe_times[-2:], calibration.SETUP_ELASTICITY)
            samples.append(seconds / slowdown)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_pass(jobs, tally, workdir):
    """Run every job once under the tracer.  Returns the tracer, the pass
    seconds per job key, and rows and bytes the CLI wrote."""
    seconds = {}
    written = {"rows": 0, "bytes": 0}
    with Tracer() as tracer:
        for index, job in enumerate(jobs):
            tracer.job_id = index
            outcome = execute(job, workdir)
            tracer.job_id = -1
            if tally.record(job, outcome):
                seconds[job.key] = outcome.seconds
            if isinstance(job, CliJob):
                written["rows"] += outcome.rows
                written["bytes"] += outcome.nbytes
    return tracer, seconds, written


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer, jobs, medians, traced, written) -> dict:
    names, layers, plants = tracer.summarize(lambda j: jobs[j].plant if j >= 0 else "")

    def stat(name, attr):
        return getattr(names[name], attr) if name in names else 0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    cli_self = layers["cli"].self_time
    put("cli.calls", stat("cli.main", "calls"), "count")
    put("cli.busy_s", stat("cli.main", "busy"), "s")
    put("cli.rows_written", written["rows"], "count")
    put("cli.bytes_written", written["bytes"], "bytes")
    put("cli.us_per_row", _ratio(cli_self, written["rows"], 1e6), "us")
    for layer in ("config", "systems", "svg"):
        put(f"{layer}.calls", layers[layer].calls, "count")
        put(f"{layer}.busy_s", layers[layer].busy, "s")
    nodes = stat("analysis.grid_scan", "count_a")
    put("analysis.grid_scan.calls", stat("analysis.grid_scan", "calls"), "count")
    put("analysis.grid_scan.busy_s", stat("analysis.grid_scan", "busy"), "s")
    put("analysis.grid_scan.nodes", nodes, "count")
    put(
        "analysis.grid_scan.ns_per_node",
        _ratio(stat("analysis.grid_scan", "busy"), nodes, 1e9),
        "ns",
    )
    put("analysis.excluded_nodes", stat("analysis.grid_scan", "count_b"), "count")
    put("analysis.validity_report.busy_s", stat("analysis.validity_report", "busy"), "s")
    for part in ("scan", "sim"):
        put(f"kernels.{part}.calls", stat(f"kernels.{part}", "calls"), "count")
        put(f"kernels.{part}.busy_s", stat(f"kernels.{part}", "busy"), "s")
    steps = stat("sim.simulate", "count_a")
    put("sim.simulate.calls", stat("sim.simulate", "calls"), "count")
    put("sim.simulate.busy_s", stat("sim.simulate", "busy"), "s")
    put("sim.steps", steps, "count")
    put("sim.us_per_step", _ratio(stat("sim.simulate", "busy"), steps, 1e6), "us")
    put("sim.truncated_runs", stat("sim.simulate", "count_b"), "count")
    put("sim.compute_metrics.busy_s", stat("sim.compute_metrics", "busy"), "s")
    calls = stat("safety_filter", "calls")
    put("safety_filter.calls", calls, "count")
    put("safety_filter.busy_s", stat("safety_filter", "busy"), "s")
    put("safety_filter.us_per_call", _ratio(stat("safety_filter", "busy"), calls, 1e6), "us")
    put("safety_filter.active_ratio", _ratio(stat("safety_filter", "count_a"), calls), "ratio")
    for name in ("cbf.value_and_gradient", "autodiff.value_and_grad"):
        put(f"{name}.calls", stat(name, "calls"), "count")
        put(f"{name}.busy_s", stat(name, "busy"), "s")
    put("cbf.recbf_validity.busy_s", stat("cbf.recbf_validity", "busy"), "s")
    put("cbf.recbf_validity.states", stat("cbf.recbf_validity", "count_a"), "count")
    put("core.assumption_checks.busy_s", stat("core.assumption_checks", "busy"), "s")
    put("core.assumption_checks.states", stat("core.assumption_checks", "count_a"), "count")
    put("svg.bytes_written", stat("svg.line_chart", "count_a") + stat("svg.cell_map", "count_a"), "bytes")
    for layer in LAYERS:
        put(f"{layer}.self_s", layers[layer].self_time, "s")
    for plant in PLANTS:
        for layer in LAYERS:
            put(f"{plant}.{layer}.self_s", plants.get((plant, layer), 0.0), "s")
    untraced = sum(medians[k] for k in traced if k in medians)
    put("trace.overhead_ratio", _ratio(sum(traced.values()), untraced) - 1.0, "ratio")
    put("trace.spans", len(tracer), "count")
    put("trace.absent_targets", len(tracer.absent), "count")
    return metrics


# -- environment and run -------------------------------------------------------


def environment(root: str = ROOT) -> dict:
    try:
        kernels = importlib.import_module("cbftk.kernels")
        numba_active = bool(getattr(kernels, "NUMBA_ENABLED", False))
    except ImportError:
        numba_active = False
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "CBFTK_DISABLE_NUMBA": os.environ.get("CBFTK_DISABLE_NUMBA"),
        "numba_active": numba_active,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Reference,
    out_dir: str,
    scale: Scale = FULL,
    setup_probes: int = SETUP_PROBES,
) -> dict:
    """Run one workload; returns the result record (metrics and details)."""
    jobs = build_jobs(workload, seed, scale)
    tally = Tally(reference)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        setup = None if trace else setup_seconds(probes=setup_probes)
        warm_up(workload, seed, workdir)
        times, units, probes = measure(jobs, seconds, tally, workdir)
        medians = pass_seconds(jobs, times)
        probe_s = statistics.median(probes)
        measured = {plant: throughput(jobs, medians, units, plant) for plant in PLANTS}
        if trace:
            tracer, traced, written = traced_pass(jobs, tally, workdir)
            metrics = layer_metrics(tracer, jobs, medians, traced, written)
            metrics["fail_ratio"] = (_ratio(tally.failed, tally.attempted), "ratio")
            spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv")
            tracer.write(spans_path)
            absent = tracer.absent
        else:
            # a slow host stretches job times by the factor, so it lowers throughput by it
            slowdown = calibration.slowdown(probes)
            metrics = {
                "setup_s": (setup, "s"),
                "pendulum_tput": (measured["pendulum"] * slowdown, "states/s"),
                "bicycle_tput": (measured["bicycle"] * slowdown, "states/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            spans_path = None
            absent = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": _ratio(tally.failed, tally.attempted),
        "probe_s": probe_s,
        "measured_tput": measured,
        "failures": tally.failures[:20],
        "absent_targets": absent,
        "spans": spans_path,
        "jobs": [
            {
                "key": job.key,
                "plant": job.plant,
                "runs": len(times[job.key]),
                "median_s": medians.get(job.key),
                "units": units.get(job.key),
            }
            for job in jobs
        ],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
