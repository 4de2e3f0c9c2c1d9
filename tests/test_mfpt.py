import math

import pytest

from ambuq import (
    ParameterError,
    RateLadder,
    SystemParams,
    UnreachableTargetError,
    mfpt_critical_profile,
    mfpt_general,
    mfpt_linear_solve,
    mfpt_sweep,
)
from ambuq.mfpt import SWEEP_CSV_HEADER, write_sweep_csv

from oracles import hitting_times_dense


def single_server(t_call, gamma):
    return SystemParams(t_call=t_call, t_service=t_call / gamma, servers=1)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t_call", [1.0, 16.0])
def test_single_server_first_step_values(gamma, t_call):
    # hand oracle: with one server the two hitting-time balance equations
    # solve to t_call*(2+gamma) from empty and t_call*(1+gamma) from busy
    params = single_server(t_call, gamma)
    ladder = RateLadder.for_fleet(params)
    assert mfpt_general(ladder, 0, 2) == pytest.approx(t_call * (2 + gamma), rel=1e-12)
    assert mfpt_general(ladder, 1, 2) == pytest.approx(t_call * (1 + gamma), rel=1e-12)


def test_single_server_profile():
    params = single_server(16.0, 0.32)
    profile = mfpt_critical_profile(params)
    assert profile.times == pytest.approx((16.0 * 2.32, 16.0 * 1.32), rel=1e-12)
    assert len(profile.times) == 2


def test_degenerate_target_rejected():
    ladder = RateLadder.for_fleet(SystemParams(t_call=15, t_service=50, servers=6))
    with pytest.raises(ParameterError):
        mfpt_general(ladder, 3, 3)
    with pytest.raises(ParameterError):
        mfpt_general(ladder, 4, 2)
    with pytest.raises(ParameterError):
        mfpt_general(ladder, -1, 2)


def test_zero_up_rate_is_unreachable():
    ladder = RateLadder(up=lambda n: 0.0 if n == 2 else 1.0, down=lambda n: 1.0)
    with pytest.raises(UnreachableTargetError):
        mfpt_general(ladder, 0, 5)


def test_reference_profile_values():
    # frozen from the dense-solve oracle in oracles.py
    profile = mfpt_critical_profile(SystemParams(t_call=16, t_service=50, servers=6))
    assert profile.times[0] == pytest.approx(586.3323110604791, rel=1e-9)
    assert profile.mean_time == pytest.approx(481.9642450856221, rel=1e-9)


@pytest.mark.parametrize("servers", [1, 2, 3, 6, 11])
@pytest.mark.parametrize("gamma", [0.1, 0.32, 1.0, 3.0])
def test_profile_matches_general_and_linear_solve(servers, gamma):
    params = SystemParams(t_call=10.0, t_service=10.0 / gamma, servers=servers)
    ladder = RateLadder.for_fleet(params)
    profile = mfpt_critical_profile(params)
    solved = mfpt_linear_solve(ladder, servers + 1)
    for n in range(servers + 1):
        reference = mfpt_general(ladder, n, servers + 1)
        assert profile.times[n] == pytest.approx(reference, rel=1e-9)
        assert solved[n] == pytest.approx(reference, rel=1e-9)


def test_linear_solve_agrees_with_dense_oracle():
    params = SystemParams(t_call=16, t_service=50, servers=6)
    ladder = RateLadder.for_fleet(params)
    dense = hitting_times_dense(ladder, 7)
    banded = mfpt_linear_solve(ladder, 7)
    assert banded == pytest.approx(dense, rel=1e-12)


def test_profile_strictly_decreasing_and_positive():
    for servers, gamma in [(1, 0.3), (4, 0.32), (9, 1.0), (6, 3.0)]:
        params = SystemParams(t_call=12.0, t_service=12.0 / gamma, servers=servers)
        times = mfpt_critical_profile(params).times
        assert all(a > b for a, b in zip(times, times[1:]))
        assert times[-1] > 0.0


def test_first_step_offset_and_mean():
    params = SystemParams(t_call=16, t_service=50, servers=6)
    profile = mfpt_critical_profile(params)
    assert profile.times[1] == pytest.approx(profile.times[0] - 16.0, rel=1e-9)
    assert profile.mean_time == pytest.approx(sum(profile.times) / 7, rel=1e-15)


def test_additivity_of_way_points():
    params = SystemParams(t_call=16, t_service=50, servers=6)
    ladder = RateLadder.for_fleet(params)
    profile = mfpt_critical_profile(params)
    for n in range(2, 7):
        assert profile.times[0] - profile.times[n] == pytest.approx(
            mfpt_general(ladder, 0, n), rel=1e-9
        )


def test_mean_time_monotone_in_t_call_and_fleet():
    means_tc = [
        mfpt_critical_profile(SystemParams(t_call=tc, t_service=50, servers=6)).mean_time
        for tc in (10, 12, 14, 16, 20, 30)
    ]
    assert all(a < b for a, b in zip(means_tc, means_tc[1:]))
    means_m = [
        mfpt_critical_profile(SystemParams(t_call=16, t_service=50, servers=m)).mean_time
        for m in range(1, 10)
    ]
    assert all(a < b for a, b in zip(means_m, means_m[1:]))


def test_linear_solve_single_forced_transition():
    ladder = RateLadder.for_fleet(SystemParams(t_call=15, t_service=50, servers=6))
    assert mfpt_linear_solve(ladder, 1)[0] == pytest.approx(15.0, rel=1e-12)
    with pytest.raises(ParameterError):
        mfpt_linear_solve(ladder, 0)


def test_sweep_thresholds_and_shape():
    rows = mfpt_sweep(50.0, [6, 7], [13.2, 16.0])
    assert len(rows) == 4
    by_key = {(m, tc): mean for tc, m, mean in rows}
    assert by_key[(6, 16.0)] == pytest.approx(480.0, rel=0.05)
    assert by_key[(7, 13.2)] == pytest.approx(480.0, rel=0.05)


def test_sweep_single_point():
    rows = mfpt_sweep(50.0, [6], [16.0])
    assert len(rows) == 1
    assert rows[0][2] == pytest.approx(481.96, rel=1e-4)


def test_sweep_rejects_empty_grids():
    with pytest.raises(ParameterError):
        mfpt_sweep(50.0, [], [16.0])
    with pytest.raises(ParameterError):
        mfpt_sweep(50.0, [6], [])


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(mfpt_sweep(50.0, [6], [13.2, 16.0]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("13.2,6,")
    assert lines[2].startswith("16,6,")
    mean = float(lines[2].split(",")[2])
    assert mean == pytest.approx(481.964, abs=5e-3)  # six significant digits


def test_large_fleet_stays_finite():
    # the recurrence never forms factorials or powers, so it stays finite
    # well past the point where raw factorials overflow
    profile = mfpt_critical_profile(SystemParams(t_call=16, t_service=50, servers=170))
    assert math.isfinite(profile.times[0])
    assert profile.times[0] > 0.0


def test_overflow_gives_inf_never_nan():
    # rho = 0.1 at M = 1000: T(0) is far beyond the float range
    profile = mfpt_critical_profile(SystemParams(t_call=1.0, t_service=100.0, servers=1000))
    assert all(t == math.inf for t in profile.times)
    assert profile.mean_time == math.inf


def test_sweep_matches_profile_means():
    fleets = [9, 1, 6, 2, 17, 6]
    grid = [8.0, 13.2, 16, 40.0]
    rows = mfpt_sweep(50.0, fleets, grid)
    assert [(tc, m) for tc, m, _ in rows] == [(float(tc), m) for m in fleets for tc in grid]
    for t_call, m, mean in rows:
        profile = mfpt_critical_profile(SystemParams(t_call=t_call, t_service=50.0, servers=m))
        assert mean == pytest.approx(profile.mean_time, rel=1e-12)


@pytest.mark.parametrize(
    "servers_list, t_call_grid",
    [
        ([6, 0], [16.0]),
        ([6, 2.5], [16.0]),
        ([6, True], [16.0]),
        ([6], [16.0, -1.0]),
        ([6], [16.0, math.nan]),
        ([6], [16.0, math.inf]),
    ],
)
def test_sweep_rejects_bad_fleet_or_grid_value(servers_list, t_call_grid):
    with pytest.raises(ParameterError):
        mfpt_sweep(50.0, servers_list, t_call_grid)
