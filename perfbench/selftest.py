#!/usr/bin/env python3
"""Self-test of the benchmark's checker, its span arithmetic and its metric names.

    python3 perfbench/selftest.py

Feeds the checker outputs that must count as failed (a NaN report.json, a
saturation time off by 1e-6 relative, a simulated estimate at z = 6) next to
the correct outputs, which must pass. Checks self times derived from a nested
set of spans, and asserts that every metric the benchmark prints is declared
in BENCHMARK.json. Needs numpy only; ambuq is not imported.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def _fails_as_wrong(verdict) -> bool:
    return not verdict.ok and verdict.wrong


def test_nan_report(tmp: Path) -> None:
    cmd = workloads.analyze(15.0, 50.0, [6], t_los=30.0, cost=2.0)
    occup = ref.erlang_c(50.0 / 15.0, [6])[6]
    report = ref.service_report(15.0, 50.0, 6, 30.0, 2.0, occup)
    _write_json(tmp / "report.json", report)
    assert check.check(cmd, 0, tmp, "").ok, "a correct report must pass"
    _write_json(tmp / "report.json", {**report, "p_busy": math.nan})
    verdict = check.check(cmd, 0, tmp, "")
    assert not verdict.ok and not verdict.wrong, verdict


def test_saturation_time_off(tmp: Path) -> None:
    cmd = workloads.mfpt(16.0, 50.0, [6])
    times = ref.saturation_times(16.0, 50.0, 6)
    profile = {"servers": 6, "times": times, "mean_time": math.fsum(times) / 7}
    _write_json(tmp / "mfpt.json", profile)
    assert check.check(cmd, 0, tmp, "").ok, "correct saturation times must pass"
    off = list(times)
    off[3] *= 1.0 + 1e-6
    _write_json(tmp / "mfpt.json", {**profile, "times": off})
    assert _fails_as_wrong(check.check(cmd, 0, tmp, ""))


def test_simulated_z6(tmp: Path) -> None:
    cmd = workloads.hitting_command(15.0, 50.0, 3, 0, 1000, 7)
    analytic = ref.saturation_times(15.0, 50.0, 3)[0]
    se = 0.03 * analytic

    def sim_json(z):
        return {
            "mode": "hitting",
            "estimates": {"hitting_time_mean": analytic + z * se},
            "std_errors": {"hitting_time_mean": se},
            "n_samples": {"hitting_time_mean": 1000},
            "config": {"seed": 7, "replications": 1000, "start_state": 0, "servers": 3,
                       "t_call_min": 15.0, "t_service_min": 50.0},
        }

    _write_json(tmp / "sim.json", sim_json(4.0))
    assert check.check(cmd, 0, tmp, "").ok, "an estimate at z = 4 must pass"
    _write_json(tmp / "sim.json", sim_json(6.0))
    assert _fails_as_wrong(check.check(cmd, 0, tmp, ""))


def test_unexpected_exit(tmp: Path) -> None:
    cmd = workloads.analyze(15.0, 50.0, [6])
    verdict = check.check(cmd, 2, tmp, "")
    assert not verdict.ok and not verdict.wrong, verdict


def _span(sid, parent, layer, start, end, count=0.0):
    return tracing.Span(sid, parent, layer, "f", start, end, count=count)


def test_self_times() -> None:
    # cli [0, 10) > sizing [2, 8) > mfpt [3, 5); then a steady_state call [8, 9)
    spans = [
        _span(1, 0, "cli", 0.000, 0.010),
        _span(2, 1, "sizing", 0.002, 0.008, count=4),
        _span(3, 2, "mfpt", 0.003, 0.005, count=7),
        _span(4, 1, "steady_state", 0.008, 0.009),
    ]
    files = {"files": 2, "bytes": 100, "nonzero_exits": 0, "csv_rows": 0}
    m = tracing.layer_metrics(spans, 1, files)
    expect = {"cli.self_ms": 3.0, "sizing.self_ms": 4.0, "mfpt.busy_ms": 2.0,
              "steady_state.busy_ms": 1.0, "sizing.us_per_fleet": 1500.0}
    for name, value in expect.items():
        assert math.isclose(m[name], value, rel_tol=1e-9), (name, m[name], value)
    assert m["mfpt.states"] == 7 and m["sizing.fleets_scanned"] == 4


def test_metric_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = run.end_to_end([0.2, 0.3], [(False, 1.0, 10.0)], [0.001] * 100)
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}, sorted(end_to_end)
    files = {"files": 0, "bytes": 0, "nonzero_exits": 0, "csv_rows": 0}
    per_layer = set(tracing.layer_metrics([], 1, files)) | {"trace.overhead_pct"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}, sorted(per_layer)


def main() -> int:
    for test in (test_nan_report, test_saturation_time_off, test_simulated_z6, test_unexpected_exit):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            test(Path(tmp))
    test_self_times()
    test_metric_names()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
