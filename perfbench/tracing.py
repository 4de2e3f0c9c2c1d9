"""Per-layer spans recorded by wrapping ambuq's functions from the outside.

The layers are ambuq's modules. Each layer's public functions are wrapped in
the namespace of the module that calls them (``ambuq.cli``, ``ambuq.sizing``,
``ambuq.service_metrics``), so a span marks one crossing from one layer into
another and calls inside a layer are not split up. ``params`` only validates
and counts toward its callers. Spans stay in memory as (id, parent, layer,
name, start, end); self times are derived from them afterwards. Nothing is
patched unless a Tracer is installed, so untraced runs run the plain code.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import asdict, dataclass

LAYERS = ("cli", "mfpt", "sizing", "steady_state", "service_metrics", "simulate")

WRAPPED = {
    "ambuq.cli": {
        "mfpt_critical_profile": "mfpt",
        "mfpt_sweep": "mfpt",
        "write_sweep_csv": "mfpt",
        "min_fleet": "sizing",
        "stability_bound": "sizing",
        "p_occupation": "steady_state",
        "queue_conditional_pmf": "steady_state",
        "queue_stats": "steady_state",
        "stationary_profile": "steady_state",
        "write_stationary_csv": "steady_state",
        "full_report": "service_metrics",
        "mean_wait": "service_metrics",
        "simulate_hitting_time": "simulate",
        "simulate_stationary": "simulate",
    },
    "ambuq.sizing": {
        "mfpt_critical_profile": "mfpt",
        "p_occupation": "steady_state",
        "level_of_service": "service_metrics",
    },
    "ambuq.service_metrics": {
        "p_occupation": "steady_state",
        # private, but it is the stationary law that full_report and
        # p_server_busy build on; without it that work would count as
        # service_metrics
        "_occupancy_weights": "steady_state",
    },
}


@dataclass
class Span:
    sid: int
    parent: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    count: float = 0.0
    minutes: float = 0.0
    error: bool = False


def _count(name: str, args, result) -> tuple[float, float]:
    """Work done by one call, read from its positional arguments (as the
    calling modules pass them) or its result: (count, simulated minutes)."""
    if name == "mfpt_critical_profile":
        return args[0].servers + 1, 0.0
    if name == "mfpt_sweep":
        return sum(m + 1 for m in args[1]) * len(args[2]), 0.0
    if name == "min_fleet":
        lo, hi = result.scanned
        return max(hi - lo + 1, 0), 0.0
    if name == "simulate_hitting_time":
        config = args[2]
        return config.replications, result.value * config.replications
    if name == "simulate_stationary":
        config = args[1]
        if config.horizon is None:
            config = config.resolved(args[0])
        return config.replications, config.replications * config.horizon
    return 0.0, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack = [0]
        self._clock0 = time.perf_counter()

    def open(self, layer: str, name: str) -> Span:
        span = Span(len(self.spans) + 1, self._stack[-1], layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        timed_cpu = layer == "simulate"

        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            cpu0 = time.process_time() if timed_cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, error=True)
                raise
            tracer.close(span)
            if timed_cpu:
                span.cpu = time.process_time() - cpu0
            span.count, span.minutes = _count(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped function for the duration of the block."""
        saved = []
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(module_name)
                for name, layer in names.items():
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(original, layer, name))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = asdict(span)
                row["start"] -= self._clock0
                row["end"] -= self._clock0
                fh.write(json.dumps(row) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int, files: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers per traced round; ``files`` holds the runner's
    counts from the output directories (files, bytes, nonzero exits, csv rows)."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    own = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    count = {layer: 0.0 for layer in LAYERS}
    minutes = cpu = 0.0
    for s in spans:
        duration = s.end - s.start
        calls[s.layer] += 1
        busy[s.layer] += duration
        own[s.layer] += duration - child_time.get(s.sid, 0.0)
        errors[s.layer] += s.error
        count[s.layer] += s.count
        if s.layer == "simulate":
            minutes += s.minutes
            cpu += s.cpu

    per = 1.0 / rounds
    ms = 1e3 * per
    out = {
        "cli.commands": calls["cli"] * per,
        "cli.self_ms": own["cli"] * ms,
        "cli.files_written": files["files"] * per,
        "cli.bytes_written": files["bytes"] * per,
        "cli.nonzero_exits": files["nonzero_exits"] * per,
        "mfpt.calls": calls["mfpt"] * per,
        "mfpt.busy_ms": busy["mfpt"] * ms,
        "mfpt.states": count["mfpt"] * per,
        "mfpt.ns_per_state": 1e9 * _ratio(busy["mfpt"], count["mfpt"]),
        "sizing.calls": calls["sizing"] * per,
        "sizing.self_ms": own["sizing"] * ms,
        "sizing.fleets_scanned": count["sizing"] * per,
        "sizing.us_per_fleet": 1e6 * _ratio(busy["sizing"], count["sizing"]),
        "steady_state.calls": calls["steady_state"] * per,
        "steady_state.busy_ms": busy["steady_state"] * ms,
        "steady_state.csv_rows": files["csv_rows"] * per,
        "service_metrics.calls": calls["service_metrics"] * per,
        "service_metrics.busy_ms": busy["service_metrics"] * ms,
        "service_metrics.us_per_call": 1e6 * _ratio(busy["service_metrics"], calls["service_metrics"]),
        "simulate.calls": calls["simulate"] * per,
        "simulate.busy_ms": busy["simulate"] * ms,
        "simulate.replications": count["simulate"] * per,
        "simulate.sim_minutes": minutes * per,
        "simulate.us_per_replication": 1e6 * _ratio(busy["simulate"], count["simulate"]),
        "simulate.ns_per_sim_minute": 1e9 * _ratio(busy["simulate"], minutes),
        "simulate.cpu_per_wall": _ratio(cpu, busy["simulate"]),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer] * per
    return out
