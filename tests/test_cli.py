import json
import math
import tracemalloc

import pytest

from ambuq import (
    ParameterError,
    SimConfig,
    SizingQuery,
    SystemParams,
    derive,
    full_report,
    mfpt_critical_profile,
    stationary_profile,
)
from ambuq import simulate
from ambuq.cli import STATIONARY_CSV_HEADER, SWEEP_CSV_HEADER, _write_lines, build_parser, main
from ambuq.params import MAX_FLEET, at_most
from ambuq.simulate import MAX_REPLICATIONS
from ambuq.steady_state import MAX_CSV_ROWS

from oracles import miss_probability_mp


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


def test_one_minus_los_keeps_its_digits_where_los_rounds_to_1(tmp_path):
    assert run("analyze", "--t-call", 1, "--t-service", 5, "--servers", "6,30,60",
               "--out-dir", tmp_path) == 0
    lines = (tmp_path / "service_summary.csv").read_text().splitlines()[1:]
    for line in lines:
        row = line.split(",")
        m, los, miss = int(row[0]), float(row[4]), float(row[5])
        # 2.04e-79 at M = 30 and 3.69e-186 at M = 60, where the LOS is 1.0
        assert miss == pytest.approx(miss_probability_mp(1, 5, m, 30.0), rel=1e-12, abs=0.0), m
        assert los == 1.0 - miss, m  # the LOS column keeps its bits
    assert len(lines) == 3


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
    # the first stable fleet is the answer, with its float rho as the value
    assert sizing["scanned_range"] == [4, 4]
    assert sizing["predicate_value"] == derive(SystemParams(t_call=15, t_service=50, servers=4)).rho


def test_stability_verdicts_at_unit_intensity(tmp_path, capsys, monkeypatch):
    # t_service = M * t_call exactly: rho is 1, though its float may round below
    exact = ("--t-call", 3, "--t-service", 45)
    assert run("analyze", *exact, "--servers", 15, "--out-dir", tmp_path / "a") == 3
    assert "minimum stable fleet is 16" in capsys.readouterr().err
    assert run("size", *exact, "--servers", 1, "--stability", "--out-dir", tmp_path / "s") == 0
    assert json.loads((tmp_path / "s" / "sizing.json").read_text())["m"] == 16

    def never(*args, **kwargs):
        raise AssertionError("simulated or forked before the stability check")

    monkeypatch.setattr("os.fork", never)
    monkeypatch.setattr("ambuq.simulate._run_fcfs_replication", never)
    out_dir = tmp_path / "sim"
    code = run("simulate", *exact, "--servers", 15, "--compare", "--seed", 1, "--workers", 2,
               "--out-dir", out_dir)
    assert code == 3
    assert written(out_dir) == []


def test_stability_is_decided_on_the_typed_decimals(tmp_path, capsys):
    # 0.11 = 11 x 0.01 and 10 = 10^4 x 1e-3 in decimal, so rho is 1, though
    # the stored 0.11 lies below 11 times the stored 0.01
    decimal = ("--t-call", "0.01", "--t-service", "0.11")
    assert run("analyze", *decimal, "--servers", 11, "--out-dir", tmp_path / "a") == 3
    assert "minimum stable fleet is 12" in capsys.readouterr().err
    assert written(tmp_path / "a") == []
    assert run("size", *decimal, "--servers", 1, "--stability", "--out-dir", tmp_path / "s") == 0
    assert json.loads((tmp_path / "s" / "sizing.json").read_text())["m"] == 12
    large = ("--t-call", "1e-3", "--t-service", 10, "--servers", 10000)
    assert run("analyze", *large, "--out-dir", tmp_path / "l") == 3
    assert "minimum stable fleet is 10001" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        # a goal flag given as 0 is given, and its target is refused by name
        pytest.param(
            ("size", *BASE, "--servers", 1, "--stability", "--horizon", 0),
            "choose exactly one of", id="size-two-goals",
        ),
        pytest.param(
            ("size", *BASE, "--servers", 1, "--los-target", 0),
            "target must be finite and > 0, got 0", id="size-los-target-0",
        ),
        pytest.param(
            ("size", *BASE, "--servers", 1, "--occup-max", 0),
            "target must be finite and > 0, got 0", id="size-occup-max-0",
        ),
        pytest.param(
            ("size", *BASE, "--servers", 1, "--horizon", 0),
            "target must be finite and > 0, got 0", id="size-horizon-0",
        ),
        # outputs past MAX_CSV_ROWS entries in all, though under it in each file
        pytest.param(
            ("analyze", "--t-call", 1, "--t-service", 1, "--servers", "2..10000", "--stationary-csv"),
            "stationary CSV rows: 50046339, more than the cap of 1000000", id="csv-rows-in-all",
        ),
        pytest.param(
            ("mfpt", "--t-call", 1, "--t-service", 20000, "--servers", "1..10000"),
            "mfpt.json saturation times: 50015000, more than the cap of 1000000",
            id="mfpt-times-in-all",
        ),
        pytest.param(
            ("mfpt", *BASE, "--servers", "1..200", "--t-call-grid", "1..10000:1"),
            "mfpt_sweep.csv rows: 2000000, more than the cap of 1000000", id="sweep-rows",
        ),
        # 10^4 rows, but (10^4 + 1) x 10^4 recurrence steps
        pytest.param(
            ("mfpt", "--t-call", 1, "--t-service", 20000, "--servers", 10000,
             "--t-call-grid", "0.0001..1:0.0001"),
            "mfpt sweep recurrence steps, (largest fleet + 1) x 10000 call spacings: "
            "100010000, more than the cap of 50000000", id="sweep-steps",
        ),
        # one case per cap, each in the budget rule's one shape
        pytest.param(
            ("analyze", *BASE, "--servers", "1..10001"),
            "entries of servers range '1..10001': 10001, more than the cap of 10000",
            id="servers-range-entries",
        ),
        pytest.param(
            ("mfpt", *BASE, "--servers", 6, "--t-call-grid", "1..1e9:1e-9"),
            "entries of t_call_grid range '1..1e9:1e-9': about 1e+18, more than the cap of 10000",
            id="grid-range-entries",
        ),
        pytest.param(
            ("analyze", "--t-call", 1, "--t-service", 1.999998, "--servers", 2, "--stationary-csv"),
            "stationary CSV for servers=2 at rho=0.999999, rows: 20723259, more than the cap of 1000000",
            id="csv-rows-near-rho-1",
        ),
        pytest.param(
            ("simulate", "--mode", "hitting", *BASE, "--servers", 13, "--seed", 1),
            "hitting-time steps from state 0, 1024 walks (whole blocks) x T(start) x "
            "(lambda + M mu): about 1.9e+08, more than the cap of 100000000", id="hitting-steps",
        ),
        pytest.param(
            ("simulate", "--t-call", 1, "--t-service", 1, "--servers", 2, "--seed", 1,
             "--warmup", 0, "--horizon-min", 1e12),
            "stationary run events: about 2e+12, more than the cap of 10000000",
            id="stationary-events",
        ),
        pytest.param(
            ("simulate", "--t-call", 1, "--t-service", 1, "--servers", 2, "--seed", 1,
             "--warmup", 0, "--horizon-min", 2e6, "--wait-samples"),
            "wait log rows: about 2e+06, more than the cap of 1000000", id="wait-log-rows",
        ),
        # refused by a budget before any profile is built, which at the fleet
        # of 999999 would take 0.3 s and about 180 MB
        pytest.param(
            ("mfpt", "--t-call", 1, "--t-service", 2e6, "--servers", 999999,
             "--t-call-grid", "0.0001..1:0.0001"),
            "mfpt sweep recurrence steps, (largest fleet + 1) x 10000 call spacings: "
            "10000000000, more than the cap of 50000000", id="sweep-steps-huge-fleet",
        ),
        pytest.param(
            ("simulate", "--mode", "hitting", "--t-call", 1, "--t-service", 1, "--servers", 999999,
             "--seed", 1),
            "hitting-time steps from state 0, 1024 walks (whole blocks) x T(start) x "
            "(lambda + M mu): about inf, more than the cap of 100000000", id="hitting-steps-inf",
        ),
        # the refusal order: every budget, in the order above, before any
        # result is checked, here a T(0) past the float range
        pytest.param(
            ("mfpt", "--t-call", 1, "--t-service", 1, "--servers", 10000,
             "--t-call-grid", "0.0001..1:0.0001"),
            "mfpt sweep recurrence steps, (largest fleet + 1) x 10000 call spacings: "
            "100010000, more than the cap of 50000000", id="sweep-steps-before-inf-time",
        ),
        pytest.param(
            ("mfpt", "--t-call", 1, "--t-service", 2e6, "--servers", "999999,999999",
             "--t-call-grid", "0.0001..1:0.0001"),
            "mfpt.json saturation times: 2000000, more than the cap of 1000000",
            id="mfpt-times-before-sweep-steps",
        ),
        # a seed keys the Philox streams in 64 bits; one outside them would
        # share its streams with a seed inside
        pytest.param(
            ("simulate", *BASE, "--servers", 6, "--seed=-1"),
            "seed must be an integer >= 0, got -1", id="seed-below-0",
        ),
        pytest.param(
            ("simulate", *BASE, "--servers", 6, "--seed", 2**64),
            "seed must be an integer <= 18446744073709551615, got 18446744073709551616",
            id="seed-2-to-64",
        ),
        # every command loads the seed by the same rule, though only
        # simulate uses it
        pytest.param(
            ("analyze", *BASE, "--servers", 6, "--seed=-1"),
            "seed must be an integer >= 0, got -1", id="analyze-seed-below-0",
        ),
        pytest.param(
            ("mfpt", *BASE, "--servers", 6, "--seed", 2**64),
            "seed must be an integer <= 18446744073709551615, got 18446744073709551616",
            id="mfpt-seed-2-to-64",
        ),
    ],
)
def test_refused_with_one_error_line_before_any_output(tmp_path, capsys, argv, message):
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert written(tmp_path) == []


def test_output_cap_admits_exactly_max_csv_rows():
    assert at_most(MAX_CSV_ROWS, MAX_CSV_ROWS, "rows") == MAX_CSV_ROWS
    with pytest.raises(
        ParameterError, match=f"^rows: {MAX_CSV_ROWS + 1}, more than the cap of {MAX_CSV_ROWS}$"
    ):
        at_most(MAX_CSV_ROWS + 1, MAX_CSV_ROWS, "rows")
    # an estimate is shown as one, and NaN counts as over
    with pytest.raises(ParameterError, match=f"^rows: about nan, more than the cap of {MAX_CSV_ROWS}$"):
        at_most(math.nan, MAX_CSV_ROWS, "rows")


@pytest.mark.parametrize(
    "argv",
    [
        ("mfpt", "--t-call", 1, "--t-service", 2e5, "--servers", 99999,
         "--t-call-grid", "0.0001..1:0.0001"),
        ("simulate", "--mode", "hitting", "--t-call", 1, "--t-service", 1, "--servers", 99999,
         "--seed", 1),
    ],
)
def test_budget_refusal_builds_no_profile(tmp_path, capsys, argv):
    # a profile of 10^5 saturation times alone peaks at about 14 MB
    build_parser()
    tracemalloc.start()
    try:
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "more than the cap of" in capsys.readouterr().err
    assert peak < 2 * 2**20
    assert written(tmp_path) == []


def test_hitting_budget_stops_at_the_first_infinite_offset(tmp_path, capsys, monkeypatch):
    # h(n) passes the float range near n = 170 here, so T(0) is inf without
    # the 10^6 later levels
    offsets = simulate._offsets
    yielded = 0

    def counted(params):
        nonlocal yielded
        for offset in offsets(params):
            yielded += 1
            yield offset

    monkeypatch.setattr(simulate, "_offsets", counted)
    assert run("simulate", "--mode", "hitting", "--t-call", 1, "--t-service", 1,
               "--servers", 999999, "--seed", 1, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err.endswith("about inf, more than the cap of 100000000\n")
    assert 0 < yielded < 1000
    assert written(tmp_path) == []


def test_analyze_stationary_csv_at_large_offered_load(tmp_path):
    # offered load 1000: unscaled weights a^n / n! exceed the float range near the mode
    code = run(
        "analyze", "--t-call", 1, "--t-service", 1000, "--servers", 1100,
        "--stationary-csv", "--out-dir", tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "stationary_M1100.csv").read_text().splitlines()
    assert lines[0] == STATIONARY_CSV_HEADER and len(lines) == 1320
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(math.isfinite(v) for v in values)
    assert sum(values) == pytest.approx(1.0, abs=1e-12)


def test_stationary_csv_row_cap(tmp_path, capsys, time_limit):
    # rho = 1 - 1e-6 would need about 2e7 rows to reach the 1e-9 tail
    out_dir = tmp_path / "out"
    with time_limit(10):
        code = run(
            "analyze", "--t-call", 1, "--t-service", 1.999998, "--servers", 2,
            "--stationary-csv", "--out-dir", out_dir,
        )
    assert code == 2
    assert "rows" in capsys.readouterr().err
    assert written(out_dir) == []


@pytest.mark.parametrize(
    "servers, code, err",
    [
        # the fleet of 2 is stable but its CSV too long; the fleet of 1 is unstable
        ("2,1", 2, "error: stationary CSV for servers=2 at rho=0.999999, rows: "
                   "20723259, more than the cap of 1000000\n"),
        ("1,2", 3, "error: no steady state for servers=1: rho=2 >= 1; "
                   "minimum stable fleet is 2\n"),
    ],
)
def test_analyze_refuses_the_first_bad_fleet_in_order(tmp_path, capsys, time_limit,
                                                      servers, code, err):
    out_dir = tmp_path / "out"
    with time_limit(10):
        assert run(
            "analyze", "--t-call", 1, "--t-service", 1.999998, "--servers", servers,
            "--stationary-csv", "--out-dir", out_dir,
        ) == code
    assert capsys.readouterr() == ("", err)
    assert written(out_dir) == []


def test_analyze_reports_equal_per_fleet_reports(tmp_path):
    # offered load 100: B underflows to 0 below the fleet of 5000, so the
    # shared Erlang-B ladder stops stepping early; the fleets come unsorted
    # and repeated
    fleets = [5000, 101, 300, 101]
    code = run(
        "analyze", "--t-call", 1, "--t-service", 100, "--servers", ",".join(map(str, fleets)),
        "--t-los", 5, "--cost", 3, "--out-dir", tmp_path,
    )
    assert code == 0
    reports = json.loads((tmp_path / "report.json").read_text())
    assert reports == [
        full_report(SystemParams(t_call=1, t_service=100, servers=m), 5.0, 3.0).to_dict()
        for m in fleets
    ]
    assert reports[0]["p_occup"] == 0.0 and reports[1]["p_occup"] > 0.0


def test_analyze_repeated_fleet_writes_identical_reports(tmp_path):
    single, double = tmp_path / "single", tmp_path / "double"
    assert run("analyze", *BASE, "--servers", 5, "--stationary-csv", "--out-dir", single) == 0
    assert run("analyze", *BASE, "--servers", "5,5", "--stationary-csv", "--out-dir", double) == 0
    reports = json.loads((double / "report.json").read_text())
    assert reports == [json.loads((single / "report.json").read_text())] * 2
    rows = (double / "service_summary.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1] == rows[2]
    # one CSV for the fleet, with the bytes the single fleet gets
    assert written(double) == ["report.json", "service_summary.csv", "stationary_M5.csv"]
    csv_bytes = [(out / "stationary_M5.csv").read_bytes() for out in (single, double)]
    assert csv_bytes[0] == csv_bytes[1]


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


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
def test_worker_count_below_one_is_refused(tmp_path, capsys, workers):
    out_dir = tmp_path / "out"
    code = run(*SIM_ARGS, "--workers", workers, "--out-dir", out_dir)
    assert code == 2
    assert "workers" in capsys.readouterr().err
    assert written(out_dir) == []


def test_simulate_real_valued_window_finishes(tmp_path, time_limit):
    # a batch edge of this window once stalled the occupancy accounting
    with time_limit(10):
        code = run(
            "simulate", *BASE, "--servers", 6, "--seed", 1, "--warmup", 1000.1,
            "--horizon-min", 20000.3, "--out-dir", tmp_path,
        )
    assert code == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["n_samples"]["p_occup"] == 20


def test_hitting_run_over_the_step_budget_exits_2(tmp_path, capsys, time_limit):
    out_dir = tmp_path / "out"
    with time_limit(10):
        code = run(
            "simulate", "--mode", "hitting", *BASE, "--servers", 20, "--seed", 1,
            "--replications", 1, "--out-dir", out_dir,
        )
    assert code == 2
    assert "steps" in capsys.readouterr().err
    assert written(out_dir) == []


UNIT = ("--t-call", 1, "--t-service", 1, "--servers", 2, "--warmup", 0)


@pytest.mark.parametrize(
    "args, message",
    [
        # about 2e12 events
        ((*UNIT, "--horizon-min", 1e12), "events"),
        ((*UNIT, "--horizon-min", 100, "--start-state", 10**9), "start_state"),
        # 2e6 wait rows from 4e6 events
        ((*UNIT, "--horizon-min", 2e6, "--wait-samples"), "rows"),
        # one walk charged as a whole block of 1024, about 1.9e8 steps
        (("--mode", "hitting", *BASE, "--servers", 13, "--replications", 1), "steps"),
    ],
)
def test_oversized_simulation_exits_2_at_once(tmp_path, capsys, time_limit, args, message):
    out_dir = tmp_path / "out"
    with time_limit(1):
        code = run("simulate", *args, "--seed", 1, "--out-dir", out_dir)
    assert code == 2
    assert message in capsys.readouterr().err
    assert written(out_dir) == []


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


@pytest.mark.parametrize(
    "t_call, t_service, servers",
    [
        # the times are finite but their squared deviations overflow
        pytest.param(1e160, 1e160, 1, id="1e160"),
        # lambda x mu overflows, so the spectrum is formed in units of lambda
        pytest.param(1e-160, 3e-160, 4, id="1e-160"),
    ],
)
def test_simulate_hitting_times_near_1e160_keep_a_finite_std_error(
    tmp_path, t_call, t_service, servers
):
    code = run(
        "simulate", "--mode", "hitting", "--t-call", t_call, "--t-service", t_service,
        "--servers", servers, "--replications", 1500, "--seed", 1, "--out-dir", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert math.isfinite(payload["estimates"]["hitting_time_mean"])
    std_error = payload["std_errors"]["hitting_time_mean"]
    assert math.isfinite(std_error) and std_error > 0.0


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


def written(out_dir):
    return sorted(p.name for p in out_dir.rglob("*")) if out_dir.exists() else []


def config_file(tmp_path, **values):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"t_call_min": 15, "t_service_min": 50, "servers": 6, **values}))
    return path


# In the config slot of the bad-input cases: --out-dir names a regular file.
OUT_DIR_IS_A_FILE = "out-dir-is-a-file"


@pytest.mark.parametrize(
    "argv, config",
    [
        (("analyze", *BASE, "--servers", "x..9"), None),
        (("mfpt", *BASE, "--servers", 6, "--t-call-grid", "abc..4"), None),
        (("analyze",), {"t_call_min": "abc"}),
        (("analyze",), {"servers": ["a"]}),
        (("analyze", "--t-call", "abc", "--t-service", 50, "--servers", 6), None),
        (("analyze", *BASE, "--servers", 6, "--seed", 2.5), None),
        # offered loads past the float range
        (("analyze", "--t-call", 1e-300, "--t-service", 1e300, "--servers", 5), None),
        (("size", "--t-call", 1e-300, "--t-service", 1e300, "--servers", 1, "--stability"), None),
        # the one integer policy: non-integral floats are refused, never truncated
        (("simulate",), {"seed": 1.7}),
        (("simulate", "--seed", 1), {"replications": 2.9}),
        (("simulate", "--seed", 1, "--mode", "hitting"), {"start_state": 1.5}),
        (("simulate", *BASE, "--servers", 6, "--seed", 1, "--workers", 0), None),
        # expansions past 10^4 entries, refused before the list is built
        (("analyze", *BASE, "--servers", "1..10001"), None),
        (("mfpt", *BASE, "--servers", 6, "--t-call-grid", "1..10001:1"), None),
        (("mfpt", *BASE, "--servers", 6, "--t-call-grid", "1..1e9:1e-9"), None),
        (("mfpt", *BASE, "--servers", 6, "--t-call-grid", "1..1e308:1e-300"), None),
        # counts past their caps, refused before any scan or replication
        (("size", "--t-call", 1, "--t-service", 1e300, "--servers", 1, "--horizon", 1e300,
          "--m-max", 1e12), None),
        (("size", *BASE, "--servers", 1, "--stability", "--m-max", 1_000_001), None),
        (("analyze", *BASE, "--servers", 1_000_001), None),
        (("mfpt", *BASE, "--servers", 1e12), None),
        (("simulate", *BASE, "--servers", 6, "--seed", 1, "--mode", "hitting",
          "--replications", 10_000_001), None),
        (("analyze", *BASE, "--servers", 6), OUT_DIR_IS_A_FILE),
        # empty ranges, and a step before the range
        (("analyze", *BASE, "--servers", "10..4"), None),
        (("mfpt", *BASE, "--servers", 6, "--t-call-grid", "4..3"), None),
        (("mfpt", *BASE, "--servers", 6, "--t-call-grid", "1:2..3"), None),
        # a config seed outside 0..2^64 - 1, refused by a command that does not use it
        (("size", "--stability"), {"seed": -1}),
    ],
)
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, config):
    out_dir = tmp_path / "out"
    if config == OUT_DIR_IS_A_FILE:
        out_dir.write_text("kept\n")
    elif config is not None:
        argv = (*argv, "--config", config_file(tmp_path, **config))
    assert run(*argv, "--out-dir", out_dir) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing is reported as done when a write then fails
    assert err.startswith("error: ")
    assert written(out_dir) == []
    if config == OUT_DIR_IS_A_FILE:
        assert str(out_dir) in err
        assert out_dir.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize(
    "argv, last",
    [
        (("simulate", *BASE, "--servers", 6, "--seed", 1, "--warmup", 100, "--horizon-min", 3100,
          "--wait-samples", "--compare"), "sim.json"),
        (("mfpt", *BASE, "--servers", 6), "mfpt.json"),
        (("simulate", *BASE, "--servers", 6, "--seed", 1, "--warmup", 100, "--horizon-min", 3100,
          "--wait-samples"), "sim.json"),
        (("mfpt", *BASE, "--servers", "6,7", "--t-call-grid", "10..12:0.5"), "mfpt_sweep.csv"),
        (("analyze", *BASE, "--servers", "5,7", "--stationary-csv"), "stationary_M7.csv"),
        (("size", *BASE, "--servers", 1, "--occup-max", 0.15), "sizing.json"),
    ],
)
def test_failed_last_write_exits_2_and_reports_nothing(tmp_path, capsys, argv, last):
    # a directory holds the last file's name, so only its final rename fails
    out_dir = tmp_path / "out"
    (out_dir / last).mkdir(parents=True)
    assert run(*argv, "--out-dir", out_dir) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {out_dir / last}")
    assert list(tmp_path.rglob("*.tmp")) == []
    assert (out_dir / last).is_dir()
    # the files renamed into place before the failure are removed again
    assert written(out_dir) == [last]


def test_main_is_reentrant(tmp_path, capsys):
    # the parser is built once per process, so no parse may leave a trace
    # in the next: each command below runs again after calls that set the
    # flags it leaves out, and must print and write the same bytes
    commands = {
        "analyze": ("analyze", *BASE, "--servers", "6,7"),
        "simulate": ("simulate", *BASE, "--servers", 6, "--seed", 1, "--warmup", 100,
                     "--horizon-min", 3100),
        "size": ("size", *BASE, "--servers", 1, "--occup-max", 0.05),
    }

    def outputs(argv, out_dir):
        assert run(*argv, "--out-dir", out_dir) == 0
        out = capsys.readouterr().out.replace(str(out_dir), "OUT")
        return out, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    first = {name: outputs(argv, tmp_path / name) for name, argv in commands.items()}
    others = tmp_path / "others"
    assert run("analyze", *BASE, "--servers", 6, "--hours", "--stationary-csv",
               "--out-dir", others) == 0
    assert run("simulate", *BASE, "--servers", 6, "--seed", 2, "--mode", "hitting",
               "--compare", "--replications", 50, "--out-dir", others) == 0
    assert run("simulate", *BASE, "--servers", 6, "--seed", 2, "--warmup", 100,
               "--horizon-min", 2100, "--compare", "--out-dir", others) == 0
    assert run("size", *BASE, "--servers", 1, "--occup-max", 0.05, "--m-max", 5,
               "--out-dir", others) == 4
    with pytest.raises(SystemExit) as refused:
        run("analyze", *BASE, "--servers", 6, "--no-such-flag", "--out-dir", others)
    assert refused.value.code == 2
    capsys.readouterr()
    for name, argv in commands.items():
        assert outputs(argv, tmp_path / f"{name}_again") == first[name]
    assert build_parser() is build_parser()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "analyze" in helps[0]


def test_writer_removes_its_temp_file_when_the_lines_fail(tmp_path):
    def lines():
        yield "first\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _write_lines(tmp_path / "out.csv", lines())
    assert written(tmp_path) == []


def test_count_caps_admit_the_cap_itself():
    # constructing the queries runs no scan and no replication
    assert SizingQuery(kind="stability", m_max=MAX_FLEET).m_max == MAX_FLEET
    assert SystemParams(t_call=15, t_service=50, servers=MAX_FLEET).servers == MAX_FLEET
    config = SimConfig(seed=1, replications=MAX_REPLICATIONS)
    assert config.replications == MAX_REPLICATIONS
    with pytest.raises(ParameterError, match="m_max must be an integer <= 1000000"):
        SizingQuery(kind="stability", m_max=MAX_FLEET + 1)
    with pytest.raises(ParameterError, match="servers must be an integer <= 1000000"):
        SystemParams(t_call=15, t_service=50, servers=MAX_FLEET + 1)
    with pytest.raises(ParameterError, match="replications must be an integer <= 10000000"):
        SimConfig(seed=1, replications=MAX_REPLICATIONS + 1)


def test_unstable_compare_is_refused_before_simulating(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulate_stationary ran")

    monkeypatch.setattr("ambuq.cli.simulate_stationary", never)
    code = run(
        "simulate", "--allow-unstable", "--compare", *BASE, "--servers", 3, "--seed", 1,
        "--warmup", 100, "--horizon-min", 5100, "--out-dir", tmp_path / "out",
    )
    assert code == 3
    assert "no steady state" in capsys.readouterr().err
    assert written(tmp_path / "out") == []


def test_unstable_hitting_compare_still_runs(tmp_path):
    code = run(
        "simulate", "--mode", "hitting", "--compare", *BASE, "--servers", 3, "--seed", 1,
        "--replications", 50, "--out-dir", tmp_path,
    )
    assert code == 0
    assert (tmp_path / "sim.json").exists()


def test_expansion_cap_admits_ten_thousand_entries(tmp_path):
    # exit 3 at the first fleet shows that the 10^4-fleet range was accepted
    assert run("analyze", *BASE, "--servers", "1..10000", "--out-dir", tmp_path) == 3
    assert run(
        "mfpt", *BASE, "--servers", 1, "--t-call-grid", "1..10000:1", "--out-dir", tmp_path
    ) == 0
    assert len((tmp_path / "mfpt_sweep.csv").read_text().splitlines()) == 1 + 10_000


def test_integral_float_seed_is_normalised(tmp_path):
    config = config_file(tmp_path, seed=3.0, warmup_min=100.0, horizon_min=2100.0)
    assert run("simulate", "--config", config, "--out-dir", tmp_path) == 0
    assert '"seed": 3,' in (tmp_path / "sim.json").read_text()


def test_size_horizon_overflow_is_refused(tmp_path, capsys):
    code = run(
        "size", "--t-call", 1, "--t-service", 1, "--servers", 1, "--horizon", 1e308,
        "--out-dir", tmp_path,
    )
    assert code == 2
    assert "floating-point range" in capsys.readouterr().err
    assert written(tmp_path) == []
