"""Spans around softdyn's public functions, and the per-layer metrics they give.

The tracer replaces each public function of every softdyn module, in every
module namespace that holds it (so `regime.simulate_batch` and
`trng.poincare_sample` are wrapped as well as their originals), with a
wrapper that records a span.  Spans are kept per thread, because the sweep
runs its cells in a thread pool; a span's self time is its duration minus
that of the child spans opened in the same thread.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import inspect
import threading
import time

MODULES = ("oscillator", "trajio", "regime", "trng", "nist", "stochastic",
           "signals", "reservoir", "cli")

# Counts taken from the arguments (a) and result (r) of a traced call.
COUNTERS = {
    "oscillator.simulate_batch": lambda a, r: {
        "oscillator.traj_steps": len(r[0]) * len(r),
        # recorded q1, q2, x, y per row and step, plus t and phase per step
        "oscillator.record_bytes": 8 * len(r[0]) * (4 * len(r) + 2)},
    "oscillator.largest_lyapunov": lambda a, r: {
        "oscillator.lyapunov_periods": int(a["duration"] * a["drive"].frequency)},
    "trajio.poincare_sample": lambda a, r: {"trajio.poincare_points": len(r)},
    "regime.phase_diagram_sweep": lambda a, r: {"regime.cells": len(r)},
    "trng.whiten_blocks": lambda a, r: {
        "trng.raw_values": len(a["stream"].values),
        "trng.blocks_kept": len(set(r.block_index.tolist()))},
    "trng.combine_bitstreams": lambda a, r: {"trng.bits_harvested": len(r)},
    "trng.generate_bits": lambda a, r: {"trng.bits_out": len(r)},
    "nist.run_battery": lambda a, r: {"nist.bits_tested": len(a["bits"])},
    "signals.mackey_glass": lambda a, r: {"signals.samples": len(r)},
    "reservoir.excite_reservoir": lambda a, r: {"reservoir.points": len(a["u"])},
    "cli.Workspace.add_text": lambda a, r: {"cli.artifact_bytes": len(a["text"].encode())},
}


class Tracer:
    """Records spans and counts while installed; restores every name on uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1]["name"] if stack else None
        frame = {"name": name, "children_s": 0.0}
        stack.append(frame)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            end, cpu_end = time.perf_counter(), time.process_time()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1]["children_s"] += duration
            record = {"name": name, "parent": parent, "thread": threading.get_ident(),
                      "start": start, "end": end, "cpu_s": cpu_end - cpu,
                      "self_s": duration - frame["children_s"]}
            with self._lock:
                self.spans.append(record)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    self.counts.update(counter(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"softdyn.{name}") for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{name}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        workspace = importlib.import_module("softdyn.cli").Workspace
        self._patch(workspace, "add_text", self._wrap(workspace.add_text, "cli.Workspace.add_text"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _per(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tracer: Tracer, nist_test_s: dict) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from one traced round.

    A layer the workload does not reach reads 0.  nist_test_s holds the
    time of each battery test, measured by calling it apart, because
    run_battery reaches the tests through a tuple captured at import.
    """
    agg = collections.defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "cpu": 0.0})
    threads = collections.defaultdict(set)
    for s in tracer.spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["total"] += s["end"] - s["start"]
        a["self"] += s["self_s"]
        a["cpu"] += s["cpu_s"]
        threads[s["name"]].add(s["thread"])
    n = tracer.counts

    def self_s(name):
        return agg[name]["self"], "s"

    m = {
        "oscillator.simulate_batch.self_s": self_s("oscillator.simulate_batch"),
        "oscillator.simulate_batch.calls": (agg["oscillator.simulate_batch"]["calls"], "count"),
        "oscillator.traj_steps": (n["oscillator.traj_steps"], "count"),
        "oscillator.us_per_traj_step": (_per(agg["oscillator.simulate_batch"]["self"],
                                             n["oscillator.traj_steps"], 1e6), "us"),
        "oscillator.largest_lyapunov.ms_per_period": (
            _per(agg["oscillator.largest_lyapunov"]["self"], n["oscillator.lyapunov_periods"], 1e3), "ms"),
        "oscillator.record_bytes": (n["oscillator.record_bytes"], "B"),
        "trajio.poincare_sample.self_s": self_s("trajio.poincare_sample"),
        "trajio.poincare_points": (n["trajio.poincare_points"], "count"),
        "regime.power_spectrum.self_s": self_s("regime.power_spectrum"),
        "regime.poincare_clusters.self_s": self_s("regime.poincare_clusters"),
        "regime.classify_regime.self_s": self_s("regime.classify_regime"),
        "regime.classify_trajectory.ms_per_call": (
            _per(agg["regime.classify_trajectory"]["total"], agg["regime.classify_trajectory"]["calls"], 1e3), "ms"),
        "regime.cells": (n["regime.cells"], "count"),
        "regime.phase_diagram_sweep.cpu_per_wall": (
            _per(agg["regime.phase_diagram_sweep"]["cpu"], agg["regime.phase_diagram_sweep"]["total"]), "ratio"),
        "regime.sweep_threads": (len(threads["regime.classify_trajectory"]), "count"),
        "trng.harvest_poincare_stream.self_s": self_s("trng.harvest_poincare_stream"),
        "trng.whiten_blocks.us_per_block": (
            _per(agg["trng.whiten_blocks"]["total"], n["trng.blocks_kept"], 1e6), "us"),
        "trng.decimate_quantize.self_s": self_s("trng.decimate_quantize"),
        "trng.combine_bitstreams.self_s": self_s("trng.combine_bitstreams"),
        "trng.raw_values": (n["trng.raw_values"], "count"),
        "trng.blocks_kept": (n["trng.blocks_kept"], "count"),
        "trng.bits_harvested": (n["trng.bits_harvested"], "count"),
        "trng.bits_out": (n["trng.bits_out"], "count"),
        "trng.bits_out_per_harvested": (_per(n["trng.bits_out"], n["trng.bits_harvested"]), "ratio"),
        "stochastic.stochastic_multiply.self_s": self_s("stochastic.stochastic_multiply"),
        "nist.bits_tested": (n["nist.bits_tested"], "count"),
        "signals.mackey_glass.us_per_sample": (
            _per(agg["signals.mackey_glass"]["total"], n["signals.samples"], 1e6), "us"),
        "reservoir.excite_reservoir.us_per_point": (
            _per(agg["reservoir.excite_reservoir"]["total"], n["reservoir.points"], 1e6), "us"),
        "reservoir.lag_embed.self_s": self_s("reservoir.lag_embed"),
        "reservoir.ridge_fit.us_per_call": (
            _per(agg["reservoir.ridge_fit"]["total"], agg["reservoir.ridge_fit"]["calls"], 1e6), "us"),
        "reservoir.ridge_fit.calls": (agg["reservoir.ridge_fit"]["calls"], "count"),
        "cli.Workspace.add_text.self_s": self_s("cli.Workspace.add_text"),
        "cli.artifact_bytes": (n["cli.artifact_bytes"], "B"),
        "cli.command.self_s": self_s("cli.command"),
    }
    for test, seconds in nist_test_s.items():
        m[f"nist.{test}.s"] = (seconds, "s")
    return m


def kernel_probe(oscillator) -> dict:
    """Integrator cost per trajectory-step at batch sizes 1 to 512.

    A fixed periodic drive (0.5 mT at 4 Hz, the sweep's Periodic cell) and
    the default step; the median of 3 timings of simulate_batch.
    """
    config = oscillator.OscillatorConfig.calibrated_default()
    drive = oscillator.DriveParams(amplitude=0.5, frequency=4.0)
    dt = oscillator.default_step(config, drive)
    metrics = {}
    for batch, steps in ((1, 2000), (8, 2000), (64, 1000), (512, 500)):
        states = [[0.05, 0.0, 0.02, 0.0]] * batch
        times = []
        for _ in range(3):
            start = time.perf_counter()
            trajs = oscillator.simulate_batch(config, drive, (steps + 0.5) * dt, dt, states)
            times.append(time.perf_counter() - start)
        per_step = sorted(times)[1] / (len(trajs[0]) * batch) * 1e6
        metrics[f"oscillator.kernel.us_per_traj_step.b{batch}"] = (per_step, "us")
    return metrics
