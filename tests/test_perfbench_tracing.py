"""Guards for the benchmark's tracer, which wraps ambuq functions by name
and reads their arguments by position (perfbench/tracing.py). A rename or
a signature change would otherwise only show when a traced run is made.
The tracer module is loaded from its file and left as it is."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ambuq.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(tracing):
    for module_name, names in tracing.WRAPPED.items():
        module = importlib.import_module(module_name)
        for name, layer in names.items():
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            assert layer in tracing.LAYERS


BASE = ["--t-call", "15", "--t-service", "50"]


@pytest.mark.parametrize(
    "argv, name, count, minutes",
    [
        (["mfpt", *BASE, "--servers", "5,6", "--t-call-grid", "10,12"],
         "mfpt_critical_profile", 6 + 7, 0.0),
        (["mfpt", *BASE, "--servers", "5,6", "--t-call-grid", "10,12"],
         "mfpt_sweep", (6 + 7) * 2, 0.0),
        (["size", *BASE, "--servers", "1", "--occup-max", "0.15"], "min_fleet", 6 - 4 + 1, 0.0),
        (["simulate", "--mode", "hitting", *BASE, "--servers", "6", "--seed", "1",
          "--replications", "3"], "simulate_hitting_time", 3, None),
        (["simulate", *BASE, "--servers", "6", "--seed", "1", "--replications", "2",
          "--warmup", "100", "--horizon-min", "1100"], "simulate_stationary", 2, 2 * 1100.0),
    ],
)
def test_counts_read_the_arguments_the_cli_passes(tracing, tmp_path, argv, name, count, minutes):
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    spans = [s for s in tracer.spans if s.name == name]
    assert spans and not any(s.error for s in spans)
    assert sum(s.count for s in spans) == count
    total_minutes = sum(s.minutes for s in spans)
    if minutes is None:
        assert total_minutes > 0.0
    else:
        assert total_minutes == minutes
