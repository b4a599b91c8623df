"""Span tracing at the public boundaries of cbftk's modules.

The tracer replaces the public functions at each layer boundary with
wrappers that record one span per call: span name, parent span, job, start,
end and two counters.  Spans stay in memory until the benchmark ends.  The
benchmark runs one job at a time in one thread, so spans nest strictly and
a span's self time is its duration minus the durations of its children
and minus the time the tracer spent counting after each child ended.

Layers are named after the modules in ``src/cbftk``.  A target that no
longer exists (for example ``kernels.*`` once that module is gone) is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "config",
    "systems",
    "analysis",
    "kernels",
    "sim",
    "safety_filter",
    "cbf",
    "core",
    "autodiff",
    "svg",
)


# -- counters: (args, kwargs, result) -> (count_a, count_b) ------------------


def _count_scan(args, kwargs, scan):
    return len(scan), int(np.count_nonzero(scan.excluded))


def _count_trajectory(args, kwargs, traj):
    return len(traj), int(traj.exit_reason != "completed")


def _count_active(args, kwargs, u):
    # the filter is active when it changed the desired input (lambda > 0)
    spec, x = args[0], args[3]
    desired = np.asarray(spec.desired(np.asarray(x, dtype=float)), dtype=float)
    return int(not np.array_equal(u, desired)), 0


def _count_checked(args, kwargs, report):
    return report.n_checked, 0


def _count_file_bytes(args, kwargs, result):
    return os.path.getsize(args[0]), 0


# (layer, span name, module, attribute path, counter)
TARGETS = (
    ("cli", "cli.main", "cbftk.cli", "main", None),
    ("config", "config.from_assignments", "cbftk.config", "ScenarioConfig.from_assignments", None),
    ("config", "config.build_scenario", "cbftk.config", "ScenarioConfig.build_scenario", None),
    ("systems", "systems.pendulum_scenario", "cbftk.systems", "pendulum_scenario", None),
    ("systems", "systems.bicycle_scenario", "cbftk.systems", "bicycle_scenario", None),
    ("systems", "systems.make_cbf", "cbftk.systems", "Scenario.make_cbf", None),
    ("systems", "systems.filter_spec", "cbftk.systems", "Scenario.filter_spec", None),
    ("analysis", "analysis.grid_scan", "cbftk.analysis", "grid_scan", _count_scan),
    ("analysis", "analysis.validity_report", "cbftk.analysis", "validity_report", None),
    ("kernels", "kernels.scan", "cbftk.kernels", "pend_scan", None),
    ("kernels", "kernels.scan", "cbftk.kernels", "bike_scan", None),
    ("kernels", "kernels.sim", "cbftk.kernels", "pend_simulate", None),
    ("kernels", "kernels.sim", "cbftk.kernels", "bike_simulate", None),
    ("sim", "sim.simulate", "cbftk.sim", "simulate", _count_trajectory),
    ("sim", "sim.compute_metrics", "cbftk.sim", "compute_metrics", None),
    ("safety_filter", "safety_filter", "cbftk.safety_filter", "safety_filter", _count_active),
    ("cbf", "cbf.value_and_gradient", "cbftk.cbf", "CbfInstance.value_and_gradient", None),
    ("cbf", "cbf.recbf_validity", "cbftk.cbf", "recbf_validity_condition", _count_checked),
    ("core", "core.assumption_checks", "cbftk.core", "check_relative_degree", _count_checked),
    ("core", "core.assumption_checks", "cbftk.core", "check_constraint_regularity", _count_checked),
    ("core", "core.assumption_checks", "cbftk.core", "check_output_consistency", _count_checked),
    ("autodiff", "autodiff.value_and_grad", "cbftk.autodiff", "value_and_grad", None),
    ("svg", "svg.line_chart", "cbftk.svg", "line_chart", _count_file_bytes),
    ("svg", "svg.cell_map", "cbftk.svg", "cell_map", _count_file_bytes),
)


def _module(name):
    # ``sys.modules`` rather than attribute access: the package attribute
    # ``cbftk.safety_filter`` is the function, which shadows the submodule
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("d")
        self.count_b = array("d")
        self.counting = array("d")  # seconds the counter took after the span ended
        self.current = -1
        self.job_id = -1
        self.absent = []
        self._restore = []

    def __len__(self):
        return len(self.start)

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for layer, span, module_name, path, counter in TARGETS:
            if not self._install(layer, span, module_name, path, counter):
                self.absent.append(f"{module_name}.{path}")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _install(self, layer, span, module_name, path, counter) -> bool:
        module = _module(module_name)
        if module is None:
            return False
        if "." not in path:
            original = getattr(module, path, None)
            if not callable(original):
                return False
            wrapper = self._wrap(layer, span, original, counter)
            # rebind every cbftk module attribute that holds the function,
            # including names imported with ``from .x import f``
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cbftk" or mod_name.startswith("cbftk.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            return True
        class_name, attr = path.split(".", 1)
        cls = getattr(module, class_name, None)
        if cls is None:
            return False
        installed = False
        for owner in _subclasses(cls):
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, span, raw.__func__, counter))
            else:
                wrapped = self._wrap(layer, span, raw, counter)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            installed = True
        return installed

    def _wrap(self, layer, span, func, counter):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self.layers.append(layer)
        name_id = self._ids[span]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.start)
            parent = self.current
            self.name.append(name_id)
            self.parent.append(parent)
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.count_a.append(0.0)
            self.count_b.append(0.0)
            self.counting.append(0.0)
            self.current = index
            self.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.current = parent
            if counter is not None:
                self.count_a[index], self.count_b[index] = counter(args, kwargs, result)
                self.counting[index] = perf_counter() - self.end[index]
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def units(self) -> int:
        """Logged steps plus grid nodes over all spans."""
        return sum(
            int(self.count_a[i])
            for i in range(len(self))
            if self.names[self.name[i]] in ("sim.simulate", "analysis.grid_scan")
        )

    def summarize(self, plant_of_job):
        """Per span name, layer and plant: calls, busy and self time, counters.

        ``busy`` counts a span only when no ancestor has the same name (for
        span names) or the same layer (for layers), so recursion and
        nested calls inside one layer are not counted twice.
        """
        n = len(self)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        name_mask = [0] * n
        layer_mask = [0] * n
        layer_index = {layer: k for k, layer in enumerate(LAYERS)}
        names = {}
        layers = {layer: _Stat() for layer in LAYERS}
        plants = {}
        for i in range(n):
            name = self.names[self.name[i]]
            layer = self.layers[self.name[i]]
            name_bit = 1 << self.name[i]
            layer_bit = 1 << layer_index[layer]
            p = self.parent[i]
            above_names = name_mask[p] if p >= 0 else 0
            above_layers = layer_mask[p] if p >= 0 else 0
            name_mask[i] = above_names | name_bit
            layer_mask[i] = above_layers | layer_bit
            if p >= 0:
                # the tracer's counting is covered like a child, so that it
                # never shows up as the parent layer's self time
                child[p] += duration[i] + self.counting[i]
            stat = names.setdefault(name, _Stat())
            stat.calls += 1
            stat.count_a += self.count_a[i]
            stat.count_b += self.count_b[i]
            if not above_names & name_bit:
                stat.busy += duration[i]
            lstat = layers[layer]
            lstat.calls += 1
            if not above_layers & layer_bit:
                lstat.busy += duration[i]
        for i in range(n):
            layer = self.layers[self.name[i]]
            own = duration[i] - child[i]
            layers[layer].self_time += own
            key = (plant_of_job(self.job[i]), layer)
            plants[key] = plants.get(key, 0.0) + own
        return names, layers, plants

    def write(self, path):
        """Spans as CSV: name, layer, parent, job, start, end, count_a, count_b."""
        with open(path, "w", newline="\n") as handle:
            handle.write("index,name,layer,parent,job,start,end,count_a,count_b\n")
            for i in range(len(self)):
                handle.write(
                    f"{i},{self.names[self.name[i]]},{self.layers[self.name[i]]},"
                    f"{self.parent[i]},{self.job[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.count_a[i]!r},{self.count_b[i]!r}\n"
                )


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "count_a", "count_b")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.count_a = 0.0
        self.count_b = 0.0
