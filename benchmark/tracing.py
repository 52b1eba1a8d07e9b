"""Outside-in tracing of multiflow's layers.

``Tracer`` wraps every public function of the package modules named in
``LAYERS``, in every ``multiflow`` module namespace that binds it (``kernel``
binds ``kummer_phi`` by name, ``dispersion`` binds ``gauss_2f1`` and
``decade_panels``, ``cli`` binds ``dispersion``, ...).  Nothing inside
``src/`` changes: wrappers are set as module attributes while a traced round
runs and are taken out afterwards.

A wrapper records calls, total time and self time (total minus the time of
traced calls made inside it).  Some calls are also split by an input class
taken from their arguments.  Everything is kept in memory and turned into
per-layer metrics by :func:`per_layer_metrics` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter

LAYERS = ("cli", "config", "csvio", "measure", "specfun", "dispersion", "spectral", "kernel", "walker")
MB = float(1 << 20)

# Per-layer metrics, name -> unit.  Every traced run reports all of them; a
# count or time reads 0 where the workload makes no such call.
PER_LAYER = {
    "import.numpy.s": "s",
    "import.scipy.s": "s",
    "import.multiflow.s": "s",
    "specfun.kummer_phi.calls": "count",
    "specfun.kummer_phi.self_s": "s",
    "specfun.kummer_phi.zpos.us_per_call": "us",
    "specfun.kummer_phi.zmid.us_per_call": "us",
    "specfun.kummer_phi.zdeep.us_per_call": "us",
    "specfun.gauss_2f1.calls": "count",
    "specfun.gauss_2f1.us_per_call": "us",
    "specfun.decade_panels.calls": "count",
    "specfun.decade_panels.us_per_call": "us",
    "specfun.gamma_fn.calls": "count",
    "dispersion.binomial_time_integral.calls": "count",
    "dispersion.binomial_time_integral.us_per_call": "us",
    "dispersion.binomial_time_integral.pole_window.calls": "count",
    "dispersion.binomial_time_integral.pole_window.us_per_call": "us",
    "dispersion.binomial_time_integral.near_one.calls": "count",
    "dispersion.binomial_time_integral.near_one.us_per_call": "us",
    "dispersion.binomial_time_integral.above_one.calls": "count",
    "dispersion.binomial_time_integral.above_one.us_per_call": "us",
    "dispersion.binomial_time_integral.below_one.calls": "count",
    "dispersion.binomial_time_integral.below_one.us_per_call": "us",
    "dispersion.self_s": "s",
    "dispersion.evals_per_flow_point": "calls/point",
    "measure.multiscale_weight.calls": "count",
    "measure.self_s": "s",
    "spectral.weighted_flow_curve.s": "s",
    "spectral.spectral_weighted_flow.calls": "count",
    "spectral.self_s": "s",
    "kernel.return_probability.calls": "count",
    "kernel.return_probability.d1.ms_per_call": "ms",
    "kernel.return_probability.d2.ms_per_call": "ms",
    "kernel.return_probability.d3.ms_per_call": "ms",
    "kernel.return_probability.multiscale_space.ms_per_call": "ms",
    "kernel.self_s": "s",
    "kernel.kummer_calls_per_trace": "calls/trace",
    "kernel.return_probability.peak_alloc_mb": "MB",
    "walker.simulate.s": "s",
    "walker.simulate.cpu_s": "s",
    "walker.simulate.ns_per_draw": "ns",
    "walker.msd.s": "s",
    "walker.fit.s": "s",
    "walker.ensemble_mb": "MB",
    "walker.simulate.peak_alloc_mb": "MB",
    "walker.msd.peak_alloc_mb": "MB",
    "csvio.write_csv.calls": "count",
    "csvio.write_csv.s": "s",
    "csvio.write_csv.mb": "MB",
    "cli.self_s": "s",
    "config.self_s": "s",
    "trace.overhead_s": "s",
}

# Removable-pole window in b = 1/(beta*-1), fixed here so that the input
# class does not follow a change of the program's own window.
_POLE_WINDOW = 1e-2
_NEAR_ONE_B = 40.0
_ZDEEP = -30.0


def _kummer_class(args, kwargs) -> str:
    z = args[2] if len(args) > 2 else kwargs["z"]
    return "zpos" if z >= 0.0 else ("zmid" if z > _ZDEEP else "zdeep")


def _binomial_class(args, kwargs) -> str:
    beta_star = args[0] if args else kwargs["beta_star"]
    b = 1.0 / (beta_star - 1.0)
    if abs(b - round(b)) < _POLE_WINDOW:
        return "pole_window"
    if b > _NEAR_ONE_B:
        return "near_one"
    return "above_one" if beta_star > 1.0 else "below_one"


def _trace_class(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return "multiscale_space" if spec.spatial_profile is not None else f"d{spec.dim}"


CLASSIFIERS = {
    "specfun.kummer_phi": _kummer_class,
    "dispersion.binomial_time_integral": _binomial_class,
    "kernel.return_probability": _trace_class,
}


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


def public_functions(package) -> dict:
    """``layer.name`` -> function, for every public function of each layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


def _bindings(package, originals: dict) -> list[tuple[object, str, str]]:
    """(module, attribute, key) for every package namespace binding a traced function."""
    by_id = {id(fn): key for key, fn in originals.items()}
    out = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package.__name__ or modname.startswith(package.__name__ + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            key = by_id.get(id(obj))
            if key is not None and originals[key] is obj:
                out.append((module, attr, key))
    return out


class Tracer:
    """Call, time and class counters of every traced function; see the module doc."""

    def __init__(self, package) -> None:
        self.originals = public_functions(package)
        self.bindings = _bindings(package, self.originals)
        self.stats: dict[str, _Stat] = {key: _Stat() for key in self.originals}
        self.class_stats: dict[str, _Stat] = {}
        self.active: Counter = Counter()
        self.kummer_in_trace = 0
        self.simulate_cpu_ns = 0
        self.draws = 0
        self.bytes_written = 0
        self.rounds = 0
        self.spans: list[dict] = []
        self._local = threading.local()
        self._wrappers = {key: self._wrap(key, fn) for key, fn in self.originals.items()}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        classify = CLASSIFIERS.get(key)
        active = self.active
        clock = time.perf_counter_ns
        is_kummer = key == "specfun.kummer_phi"
        is_simulate = key == "walker.simulate"
        is_write = key == "csvio.write_csv"
        is_main = key == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0]
            stack.append(frame)
            active[key] += 1
            if is_kummer and active["kernel.return_probability"]:
                self.kummer_in_trace += 1
            cpu0 = time.process_time_ns() if is_simulate else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[key] -= 1
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if classify is not None:
                    cstat = self.class_stats.setdefault(f"{key}.{classify(args, kwargs)}", _Stat())
                    cstat.calls += 1
                    cstat.total_ns += elapsed
                if is_simulate:
                    self.simulate_cpu_ns += time.process_time_ns() - cpu0
                    n_paths, grid, spec = args[1], args[2], args[3]
                    self.draws += n_paths * len(grid) * spec.dim
                if is_write:
                    self.bytes_written += os.path.getsize(args[0])
                if is_main:
                    self.spans.append({"round": self.rounds, "argv": list(args[0][:3]),
                                       "start_ns": start, "end_ns": start + elapsed})

        return traced

    def install(self) -> None:
        for module, attr, key in self.bindings:
            setattr(module, attr, self._wrappers[key])

    def uninstall(self) -> None:
        for module, attr, key in self.bindings:
            setattr(module, attr, self.originals[key])
        self.rounds += 1

    def summary(self) -> dict:
        """Per-function aggregates over all traced rounds, for the trace file."""
        out = {}
        for key, stat in {**self.stats, **self.class_stats}.items():
            if stat.calls:
                out[key] = {"calls": stat.calls, "total_s": stat.total_ns / 1e9,
                            "self_s": stat.self_ns / 1e9}
        return out


class AllocPeaks:
    """tracemalloc peak inside single calls of a few memory-heavy functions.

    Run in a pass of its own: tracemalloc slows Python allocation, so these
    calls are not timed.
    """

    KEYS = ("kernel.return_probability", "walker.simulate", "walker.msd")

    def __init__(self, package) -> None:
        originals = public_functions(package)
        self.originals = {key: originals[key] for key in self.KEYS}
        self.bindings = _bindings(package, self.originals)
        self.peak = {key: 0 for key in self.KEYS}
        self._wrappers = {key: self._wrap(key, fn) for key, fn in self.originals.items()}

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self.peak[key] = max(self.peak[key], peak - before)

        return measured

    def run(self, call) -> None:
        for module, attr, key in self.bindings:
            setattr(module, attr, self._wrappers[key])
        tracemalloc.start()
        try:
            call()
        finally:
            tracemalloc.stop()
            for module, attr, key in self.bindings:
                setattr(module, attr, self.originals[key])


def per_layer_metrics(tracer: Tracer, alloc: dict, jobs, plain_walls, traced_walls) -> dict:
    """Turn the tracer's counters into the per-layer metrics (per round)."""
    rounds = max(tracer.rounds, 1)
    stats = tracer.stats

    def calls(key: str) -> float:
        stat = stats.get(key) or tracer.class_stats.get(key)
        return stat.calls / rounds if stat else 0.0

    def seconds(key: str) -> float:
        stat = stats.get(key) or tracer.class_stats.get(key)
        return stat.total_ns / 1e9 / rounds if stat else 0.0

    def per_call(key: str, scale: float) -> float:
        stat = stats.get(key) or tracer.class_stats.get(key)
        return stat.total_ns / stat.calls / scale if stat and stat.calls else 0.0

    def self_s(*keys: str) -> float:
        return sum(stats[k].self_ns for k in keys) / 1e9 / rounds

    def layer_self(layer: str) -> float:
        return self_s(*(k for k in stats if k.startswith(layer + ".")))

    bti = "dispersion.binomial_time_integral"
    flow_points = sum(j.params["points"] for j in jobs
                      if j.command == "flow" and j.params["model"] in ("weighted", "ordinary"))
    traces = stats["kernel.return_probability"].calls
    ensembles = [j.params["paths"] * j.params["steps"] * j.params["dim"] * 8 / MB
                 for j in jobs if j.command == "simulate"]
    m = {
        "specfun.kummer_phi.calls": calls("specfun.kummer_phi"),
        "specfun.kummer_phi.self_s": self_s("specfun.kummer_phi"),
        "specfun.gauss_2f1.calls": calls("specfun.gauss_2f1"),
        "specfun.gauss_2f1.us_per_call": per_call("specfun.gauss_2f1", 1e3),
        "specfun.decade_panels.calls": calls("specfun.decade_panels"),
        "specfun.decade_panels.us_per_call": per_call("specfun.decade_panels", 1e3),
        "specfun.gamma_fn.calls": calls("specfun.gamma_fn"),
        f"{bti}.calls": calls(bti),
        f"{bti}.us_per_call": per_call(bti, 1e3),
        "dispersion.self_s": layer_self("dispersion"),
        "dispersion.evals_per_flow_point": calls(bti) / flow_points if flow_points else 0.0,
        "measure.multiscale_weight.calls": calls("measure.multiscale_weight"),
        "measure.self_s": layer_self("measure"),
        "spectral.weighted_flow_curve.s": seconds("spectral.weighted_flow_curve"),
        "spectral.spectral_weighted_flow.calls": calls("spectral.spectral_weighted_flow"),
        "spectral.self_s": layer_self("spectral"),
        "kernel.return_probability.calls": calls("kernel.return_probability"),
        "kernel.self_s": layer_self("kernel"),
        "kernel.kummer_calls_per_trace": tracer.kummer_in_trace / traces if traces else 0.0,
        "kernel.return_probability.peak_alloc_mb": alloc.get("kernel.return_probability", 0) / MB,
        "walker.simulate.s": seconds("walker.simulate"),
        "walker.simulate.cpu_s": tracer.simulate_cpu_ns / 1e9 / rounds,
        "walker.simulate.ns_per_draw": (
            stats["walker.simulate"].total_ns / tracer.draws if tracer.draws else 0.0),
        "walker.msd.s": seconds("walker.msd"),
        "walker.fit.s": self_s("walker.fit_scaling_exponent", "walker.fit_scaling_exponent_batched"),
        "walker.ensemble_mb": max(ensembles, default=0.0),
        "walker.simulate.peak_alloc_mb": alloc.get("walker.simulate", 0) / MB,
        "walker.msd.peak_alloc_mb": alloc.get("walker.msd", 0) / MB,
        "csvio.write_csv.calls": calls("csvio.write_csv"),
        "csvio.write_csv.s": seconds("csvio.write_csv"),
        "csvio.write_csv.mb": tracer.bytes_written / MB / rounds,
        "cli.self_s": layer_self("cli"),
        "config.self_s": layer_self("config"),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
    }
    for cls in ("zpos", "zmid", "zdeep"):
        m[f"specfun.kummer_phi.{cls}.us_per_call"] = per_call(f"specfun.kummer_phi.{cls}", 1e3)
    for cls in ("pole_window", "near_one", "above_one", "below_one"):
        m[f"{bti}.{cls}.calls"] = calls(f"{bti}.{cls}")
        m[f"{bti}.{cls}.us_per_call"] = per_call(f"{bti}.{cls}", 1e3)
    for cls in ("d1", "d2", "d3", "multiscale_space"):
        m[f"kernel.return_probability.{cls}.ms_per_call"] = per_call(
            f"kernel.return_probability.{cls}", 1e6)
    return {k: v for k, v in m.items() if math.isfinite(v)}
