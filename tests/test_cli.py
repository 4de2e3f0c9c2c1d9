import json

import pytest

from ambuq import SystemParams, mfpt_critical_profile, stationary_profile
from ambuq.cli import main
from ambuq.mfpt import SWEEP_CSV_HEADER
from ambuq.steady_state import STATIONARY_CSV_HEADER


def run(*argv):
    return main([str(a) for a in argv])


BASE = ("--t-call", 15, "--t-service", 50)


def test_analyze_single_fleet(tmp_path, capsys):
    code = run("analyze", *BASE, "--servers", 6, "--out-dir", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(report, dict)
    assert report["p_occup"] == pytest.approx(0.1482, abs=1e-4)
    assert report["mean_wait"] == pytest.approx(18.75)
    assert report["t_los"] == 30.0
    assert "M=6" in capsys.readouterr().out


def test_analyze_fleet_grid_and_summary(tmp_path):
    code = run("analyze", *BASE, "--servers", "4..10", "--t-los", 30, "--out-dir", tmp_path)
    assert code == 0
    reports = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(reports, list) and len(reports) == 7
    lines = (tmp_path / "service_summary.csv").read_text().splitlines()
    assert lines[0] == (
        "servers,rho,p_occup,p_busy,los,one_minus_los,mean_queue_len,std_queue_len,mean_wait_min"
    )
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[6]) == pytest.approx(5.0, rel=1e-9)  # mean queue length at 4 vehicles


def test_analyze_stationary_csv(tmp_path):
    code = run("analyze", *BASE, "--servers", "5,7", "--stationary-csv", "--out-dir", tmp_path)
    assert code == 0
    for m in (5, 7):
        lines = (tmp_path / f"stationary_M{m}.csv").read_text().splitlines()
        assert lines[0] == STATIONARY_CSV_HEADER
        profile = stationary_profile(SystemParams(t_call=15, t_service=50, servers=m))
        n, pi_n = lines[1].split(",")
        assert n == "0" and float(pi_n) == pytest.approx(profile.pi(0), rel=1e-15)


def test_analyze_overload_exit_code(tmp_path, capsys):
    code = run("analyze", *BASE, "--servers", 3, "--out-dir", tmp_path)
    assert code == 3
    err = capsys.readouterr().err
    assert "1.111" in err and "minimum stable fleet is 4" in err


def test_missing_scenario_is_config_error(tmp_path):
    assert run("analyze", "--t-call", 15, "--out-dir", tmp_path) == 2


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "t_call_min": 15.0, "t_service_min": 50.0, "servers": 5, "t_los_min": 30.0,
    }))
    code = run("analyze", "--config", config, "--servers", 6, "--out-dir", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["p_occup"] == pytest.approx(0.1482, abs=1e-4)  # six servers, not five


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"t_call_min": 15, "t_service_min": 50, "fleet": 6}))
    assert run("analyze", "--config", config, "--out-dir", tmp_path) == 2


def test_mfpt_profile_and_sweep(tmp_path):
    code = run(
        "mfpt", "--t-call", 16, "--t-service", 50, "--servers", "5..9",
        "--t-call-grid", "10..40:0.2", "--out-dir", tmp_path,
    )
    assert code == 0
    profiles = json.loads((tmp_path / "mfpt.json").read_text())
    assert [p["servers"] for p in profiles] == [5, 6, 7, 8, 9]
    six = next(p for p in profiles if p["servers"] == 6)
    assert six["mean_time"] == pytest.approx(481.964, abs=1e-2)
    assert len(six["times"]) == 7
    lines = (tmp_path / "mfpt_sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + 151 * 5


def test_mfpt_single_point_grid(tmp_path):
    code = run(
        "mfpt", "--t-call", 16, "--t-service", 50, "--servers", 6,
        "--t-call-grid", "16", "--out-dir", tmp_path,
    )
    assert code == 0
    profile = json.loads((tmp_path / "mfpt.json").read_text())
    assert isinstance(profile, dict)
    lines = (tmp_path / "mfpt_sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("16,6,")


def test_mfpt_overflow_is_refused(tmp_path, capsys):
    # rho = 0.1 at M = 1000: the saturation times exceed the float range
    code = run("mfpt", "--t-call", 1, "--t-service", 100, "--servers", 1000, "--out-dir", tmp_path)
    assert code == 2
    assert "floating-point range" in capsys.readouterr().err
    assert not (tmp_path / "mfpt.json").exists()


def test_mfpt_sweep_overflow_is_refused(tmp_path, capsys):
    # the profile at t_call = 0.01 is finite; the sweep point t_call = 1 is not
    code = run(
        "mfpt", "--t-call", 0.01, "--t-service", 100, "--servers", 1000,
        "--t-call-grid", "0.01,1", "--out-dir", tmp_path,
    )
    assert code == 2
    assert "sweep mean time for servers=1000, t_call=1" in capsys.readouterr().err
    assert not (tmp_path / "mfpt.json").exists()
    assert not (tmp_path / "mfpt_sweep.csv").exists()


def test_size_stability(tmp_path):
    assert run("size", *BASE, "--servers", 1, "--stability", "--out-dir", tmp_path) == 0
    sizing = json.loads((tmp_path / "sizing.json").read_text())
    assert sizing["m"] == 4 and sizing["found"] is True
    assert sizing["kind"] == "stability"


def test_size_occupation_ceiling(tmp_path):
    assert run("size", *BASE, "--servers", 1, "--occup-max", 0.15, "--out-dir", tmp_path) == 0
    sizing = json.loads((tmp_path / "sizing.json").read_text())
    assert sizing["m"] == 6
    assert sizing["predicate_value"] == pytest.approx(0.1482, abs=1e-4)
    assert sizing["scanned_range"] == [4, 6]


def test_size_horizon(tmp_path):
    code = run(
        "size", "--t-call", 16, "--t-service", 50, "--servers", 1,
        "--horizon", 480, "--out-dir", tmp_path,
    )
    assert code == 0
    assert json.loads((tmp_path / "sizing.json").read_text())["m"] == 6


def test_size_horizon_reports_the_mfpt_mean(tmp_path):
    sized, profiled = tmp_path / "size", tmp_path / "mfpt"
    assert run(
        "size", "--t-call", 1.3, "--t-service", 130, "--servers", 1,
        "--horizon", 2000, "--out-dir", sized,
    ) == 0
    sizing = json.loads((sized / "sizing.json").read_text())
    assert run(
        "mfpt", "--t-call", 1.3, "--t-service", 130, "--servers", sizing["m"],
        "--out-dir", profiled,
    ) == 0
    profile = json.loads((profiled / "mfpt.json").read_text())
    assert sizing["predicate_value"] == profile["mean_time"]


def test_size_not_found_exit_code(tmp_path):
    code = run(
        "size", *BASE, "--servers", 1, "--los-target", 0.9999, "--m-max", 8,
        "--out-dir", tmp_path,
    )
    assert code == 4
    sizing = json.loads((tmp_path / "sizing.json").read_text())
    assert sizing["m"] is None and sizing["found"] is False
    assert sizing["predicate_value"] is not None


def test_size_requires_exactly_one_goal(tmp_path):
    assert run("size", *BASE, "--servers", 1, "--out-dir", tmp_path) == 2
    assert run(
        "size", *BASE, "--servers", 1, "--stability", "--horizon", 480, "--out-dir", tmp_path
    ) == 2


SIM_ARGS = (
    "simulate", "--t-call", 15, "--t-service", 50, "--servers", 6,
    "--seed", 42, "--warmup", 1000, "--horizon-min", 101000,
)


def test_simulate_writes_deterministic_json(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(*SIM_ARGS, "--out-dir", out_a) == 0
    assert run(*SIM_ARGS, "--out-dir", out_b) == 0
    bytes_a = (out_a / "sim.json").read_bytes()
    assert bytes_a == (out_b / "sim.json").read_bytes()
    payload = json.loads(bytes_a)
    assert payload["config"]["seed"] == 42
    assert payload["estimates"]["p_occup"] == pytest.approx(0.1482, abs=0.03)
    assert set(payload["estimates"]) == set(payload["std_errors"]) == set(payload["n_samples"])


def test_simulate_worker_count_does_not_change_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(*SIM_ARGS, "--replications", 2, "--workers", 1, "--out-dir", out_a) == 0
    assert run(*SIM_ARGS, "--replications", 2, "--workers", 3, "--out-dir", out_b) == 0
    assert (out_a / "sim.json").read_bytes() == (out_b / "sim.json").read_bytes()


def test_simulate_strict_needs_seed(tmp_path):
    code = run(
        "simulate", *BASE, "--servers", 6, "--strict", "--warmup", 100,
        "--horizon-min", 1100, "--out-dir", tmp_path,
    )
    assert code == 2


def test_simulate_unstable_gate(tmp_path, capsys):
    args = (
        "simulate", *BASE, "--servers", 3, "--seed", 1, "--warmup", 100,
        "--horizon-min", 10100, "--out-dir", tmp_path,
    )
    assert run(*args) == 3
    with pytest.warns(UserWarning):
        assert run(*args, "--allow-unstable") == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    trend = payload["batch_mean_queue_len"]
    assert trend[-1] > trend[0]
    assert "grew" in capsys.readouterr().out


def test_simulate_wait_samples(tmp_path):
    assert run(*SIM_ARGS, "--wait-samples", "--out-dir", tmp_path) == 0
    lines = (tmp_path / "sim_waits.csv").read_text().splitlines()
    assert lines[0] == "call_index,wait_min"
    assert len(lines) > 1000
    index, wait = lines[1].split(",")
    assert index == "0" and float(wait) >= 0.0


def test_simulate_compare_table(tmp_path, capsys):
    assert run(*SIM_ARGS, "--compare", "--out-dir", tmp_path) == 0
    out = capsys.readouterr().out
    assert "analytic" in out and "wait_mean_conditional" in out


def test_simulate_hitting_mode(tmp_path, capsys):
    code = run(
        "simulate", "--t-call", 16, "--t-service", 50, "--servers", 6, "--seed", 7,
        "--mode", "hitting", "--start-state", 0, "--replications", 2000,
        "--compare", "--out-dir", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    reference = mfpt_critical_profile(SystemParams(t_call=16, t_service=50, servers=6)).times[0]
    estimate = payload["estimates"]["hitting_time_mean"]
    std_error = payload["std_errors"]["hitting_time_mean"]
    assert abs(estimate - reference) < 3.0 * std_error
    assert "hitting_time_mean" in capsys.readouterr().out


def test_simulate_rejects_fleet_grid(tmp_path):
    assert run(
        "simulate", *BASE, "--servers", "5,6", "--seed", 1, "--out-dir", tmp_path
    ) == 2


def test_hours_display_flag(tmp_path, capsys):
    assert run("analyze", *BASE, "--servers", 6, "--hours", "--out-dir", tmp_path) == 0
    out = capsys.readouterr().out
    assert "0.3125 h" in out  # 18.75 minutes
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mean_wait"] == pytest.approx(18.75)  # files stay in minutes
