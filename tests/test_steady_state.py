import math
import random

import pytest

from ambuq import (
    NoSteadyStateError,
    ParameterError,
    SystemParams,
    derive,
    p_occupation,
    p_occupation_by_fleet,
    queue_conditional_pmf,
    queue_stats,
    stability_bound,
    stationary_profile,
)
from ambuq.cli import STATIONARY_CSV_HEADER, _staged_writes, write_stationary_csv
from ambuq.params import read_ladder
from ambuq.steady_state import _blocking, stationary_csv_rows

from oracles import (
    RateLadder,
    erlang_b_stepwise,
    geometric_moments_truncated,
    occupation_probability_exact,
    occupation_probability_stepwise,
    stationary_general,
    suggested_truncation,
)

REFERENCE = SystemParams(t_call=15, t_service=50, servers=6)


def params_for_rho(rho, servers, t_service=50.0):
    return SystemParams(t_call=t_service / (servers * rho), t_service=t_service, servers=servers)


def test_reference_occupation_probability():
    p_occup = p_occupation(REFERENCE)
    assert p_occup == pytest.approx(0.1482, abs=1e-4)
    assert p_occup == pytest.approx(occupation_probability_exact(15, 50, 6), abs=1e-12)


def test_single_server_geometric_law():
    params = params_for_rho(0.5, 1)
    profile = stationary_profile(params)
    for n in range(12):
        assert profile.pi(n) == pytest.approx(0.5 * 0.5**n, rel=1e-12)
    # cross-check against the general product form
    general = stationary_general(RateLadder.for_fleet(params), suggested_truncation(params))
    for n in range(6):
        assert general[n] == pytest.approx(profile.pi(n), abs=1e-12)


def test_no_steady_state_at_unit_intensity():
    params = params_for_rho(1.0, 2)  # t_call = 12.5 gives rho exactly 1
    with pytest.raises(NoSteadyStateError) as excinfo:
        stationary_profile(params)
    assert excinfo.value.rho == pytest.approx(1.0)


def test_no_steady_state_above_unit_intensity():
    params = SystemParams(t_call=15, t_service=50, servers=3)
    for fn in (stationary_profile, p_occupation, queue_stats):
        with pytest.raises(NoSteadyStateError):
            fn(params)
    with pytest.raises(NoSteadyStateError):
        queue_conditional_pmf(params, 0)


@pytest.mark.parametrize("servers", [1, 2, 5, 12, 30])
@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5556, 0.8, 0.95])
def test_normalization_with_symbolic_tail(servers, rho):
    params = params_for_rho(rho, servers)
    profile = stationary_profile(params)
    tail_mass = profile.head[-1] * profile.tail_ratio / (1.0 - profile.tail_ratio)
    assert sum(profile.head) + tail_mass == pytest.approx(1.0, abs=1e-12)
    assert p_occupation(params) == pytest.approx(profile.head[-1] / (1.0 - profile.tail_ratio), abs=1e-12)


@pytest.mark.parametrize("servers", [1, 4, 9, 30, 300, 10**4])
@pytest.mark.parametrize("rho", [0.2, 0.5556, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_occupation_recurrence_matches_direct_form(servers, rho):
    params = params_for_rho(rho, servers)
    profile = stationary_profile(params)
    direct = profile.head[-1] / (1.0 - profile.tail_ratio)
    assert p_occupation(params) == pytest.approx(direct, abs=1e-12)


def test_occupation_single_server_equals_intensity():
    for rho in (0.1, 0.5, 0.9):
        assert p_occupation(params_for_rho(rho, 1)) == pytest.approx(rho, abs=1e-12)


def test_occupation_decreases_with_fleet():
    p6 = p_occupation(SystemParams(t_call=15, t_service=50, servers=6))
    p7 = p_occupation(SystemParams(t_call=15, t_service=50, servers=7))
    assert p7 < p6
    assert p7 == pytest.approx(occupation_probability_exact(15, 50, 7), abs=1e-12)


@pytest.mark.parametrize("rho", [0.3, 0.5556, 0.9])
def test_conditional_law_matches_tail(rho):
    params = params_for_rho(rho, 6)
    profile = stationary_profile(params)
    for k in range(11):
        conditional = profile.pi(6 + k) / p_occupation(params)
        assert conditional == pytest.approx(queue_conditional_pmf(params, k), abs=1e-12)


def test_conditional_pmf_values():
    assert queue_conditional_pmf(params_for_rho(0.5, 1), 0) == pytest.approx(0.5, rel=1e-12)
    assert queue_conditional_pmf(REFERENCE, 2) == pytest.approx(0.13717421124828533, rel=1e-12)
    params = params_for_rho(0.8, 3)
    total = sum(queue_conditional_pmf(params, k) for k in range(400))
    assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        queue_conditional_pmf(params, -1)


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.8333, 0.95])
def test_queue_moments_against_series_oracle(rho):
    params = params_for_rho(rho, 4)
    stats = queue_stats(params)
    mean_ref, std_ref = geometric_moments_truncated(rho)
    assert stats.mean_len == pytest.approx(mean_ref, abs=1e-9)
    assert stats.std_len == pytest.approx(std_ref, abs=1e-9)
    assert stats.std_len / stats.mean_len == pytest.approx(1.0 / math.sqrt(rho), rel=1e-9)


def test_queue_length_reference_points():
    stats4 = queue_stats(SystemParams(t_call=15, t_service=50, servers=4))
    assert stats4.mean_len == pytest.approx(5.0, rel=1e-9)
    assert stats4.std_len == pytest.approx(5.477225575051661, rel=1e-9)
    stats_mid = queue_stats(params_for_rho(0.5, 2))
    assert stats_mid.mean_len == pytest.approx(1.0, rel=1e-12)
    assert stats_mid.std_len == pytest.approx(math.sqrt(2.0), rel=1e-12)
    stats10 = queue_stats(SystemParams(t_call=15, t_service=50, servers=10))
    assert stats10.mean_len == pytest.approx(0.5, rel=1e-9)


def test_general_product_form_matches_closed_form():
    ladder = RateLadder.for_fleet(REFERENCE)
    profile = stationary_profile(REFERENCE)
    general = stationary_general(ladder, suggested_truncation(REFERENCE))
    for n in range(7):
        assert general[n] == pytest.approx(profile.head[n], abs=1e-10)
    for n in range(7, 20):
        assert general[n] == pytest.approx(profile.pi(n), abs=1e-10)


def test_general_product_form_constant_rates():
    # constant up/down rates make the law plainly geometric
    ladder = RateLadder(up=lambda n: 0.5, down=lambda n: 1.0)
    general = stationary_general(ladder, 60)
    for n in range(10):
        assert general[n] == pytest.approx(0.5 * 0.5**n, abs=1e-12)


def test_general_product_form_no_arrivals():
    ladder = RateLadder(up=lambda n: 0.0, down=lambda n: n * 0.1)
    general = stationary_general(ladder, 5)
    assert general[0] == pytest.approx(1.0, abs=1e-15)
    assert all(p == 0.0 for p in general[1:])


def test_general_product_form_divergence():
    params = SystemParams(t_call=15, t_service=50, servers=3)
    with pytest.raises(NoSteadyStateError):
        stationary_general(RateLadder.for_fleet(params), 50)


def test_general_product_form_truncation_guard():
    with pytest.raises(ParameterError):
        stationary_general(RateLadder.for_fleet(REFERENCE), 8)


def test_profile_tail_queries_on_demand():
    profile = stationary_profile(REFERENCE)
    assert profile.pi(10) == pytest.approx(profile.head[6] * profile.tail_ratio**4, rel=1e-15)
    with pytest.raises(ParameterError):
        profile.pi(-1)


def test_csv_rows_reach_small_tail(tmp_path):
    rows = stationary_csv_rows(REFERENCE)
    expected_top = 6 + math.ceil(math.log(1e-9) / math.log(5 / 9))
    assert rows[0][0] == 0 and rows[-1][0] == expected_top
    total = sum(p for _, p in rows)
    assert total == pytest.approx(1.0, abs=1e-8)
    path = tmp_path / "dist.csv"
    with _staged_writes() as write:
        write_stationary_csv(REFERENCE, path, write)
    lines = path.read_text().splitlines()
    assert lines[0] == STATIONARY_CSV_HEADER
    assert len(lines) == len(rows) + 1
    n, pi_n = lines[1].split(",")
    assert n == "0" and float(pi_n) == pytest.approx(rows[0][1], rel=1e-15)


def _underflow_fleet(a, top=10**4):
    """Smallest fleet up to ``top`` whose blocking value is exactly 0.0, or None."""
    blocking = 1.0
    for n in range(1, top + 1):
        blocking = a * blocking / (n + a * blocking)
        if blocking == 0.0:
            return n
    return None


def _fleet_list(rng, t_call, t_service):
    """Stable fleets up to 10^4, shuffled, with repeats, the stability bound
    (rho nearest 1), and fleets just below, at and past the one where B
    underflows to 0."""
    first = stability_bound(t_call, t_service)
    fleets = [first, first + 1, rng.randint(first, 10**4), 10**4]
    zero = _underflow_fleet(t_service / t_call)
    if zero is not None:
        fleets += [m for m in (zero - 1, zero, zero + 1, zero + 300) if first <= m <= 10**4]
    fleets += rng.sample(fleets, 3)
    rng.shuffle(fleets)
    return fleets


def _occupation_cases(seed, count):
    """(t_call, t_service, fleets): offered loads from 0.01 to about 10^4,
    then rho = 1 - 1e-9 at the smallest fleet."""
    rng = random.Random(seed)
    for _ in range(count):
        a = 10 ** rng.uniform(-2, math.log10(9999))
        t_call = rng.uniform(0.01, 30.0)
        yield t_call, a * t_call, _fleet_list(rng, t_call, a * t_call)
    for m in (1, 7, 300, 9999):
        t_call = 50.0 / (m * (1.0 - 1e-9))
        yield t_call, 50.0, _fleet_list(rng, t_call, 50.0)


def test_occupation_by_fleet_is_bit_identical():
    # one shared ladder, which stops stepping at the underflow, must give,
    # to the bit, what the plain recurrence gives one fleet at a time
    zeros = nonzeros = near_one = 0
    for t_call, t_service, fleets in _occupation_cases(seed=2016, count=24):
        values = p_occupation_by_fleet(t_call, t_service, fleets)
        assert len(values) == len(fleets)
        for m, value in zip(fleets, values):
            params = SystemParams(t_call=t_call, t_service=t_service, servers=m)
            assert value == p_occupation(params), (t_call, t_service, m)
            assert value == occupation_probability_stepwise(params), (t_call, t_service, m)
            zeros += value == 0.0
            nonzeros += value != 0.0
            near_one += derive(params).rho >= 1.0 - 2e-9
    assert zeros and nonzeros and near_one  # the cases reach both sides of the underflow


def test_erlang_b_pass_reads_any_fleet_order():
    a = 123.4
    fleets = [800, 0, 5, 256, 257, 800, 0, 10**4, 255, 5]
    assert _underflow_fleet(a) < 800  # so 800 and 10^4 lie past the underflow
    values = read_ladder(_blocking(a), fleets)
    assert values == [erlang_b_stepwise(a, m) for m in fleets]
    assert values[1] == values[6] == 1.0
    assert values[0] == values[7] == 0.0
    assert read_ladder(_blocking(a), []) == []
    # one read per fleet from a fresh ladder agrees with the one pass
    assert values == [read_ladder(_blocking(a), [m])[0] for m in fleets]


def test_occupation_by_fleet_refuses_as_p_occupation_does():
    assert p_occupation_by_fleet(15, 50, []) == []
    assert p_occupation_by_fleet(15, 50, [6.0]) == [p_occupation(REFERENCE)]
    # the first fleet in the order given that p_occupation refuses decides
    with pytest.raises(NoSteadyStateError, match="servers=3: rho=1.11111"):
        p_occupation_by_fleet(15, 50, [6, 3, 0])
    with pytest.raises(ParameterError, match="servers must be an integer >= 1, got 0"):
        p_occupation_by_fleet(15, 50, [6, 0, 3])
    with pytest.raises(ParameterError, match="servers must be an integer"):
        p_occupation_by_fleet(15, 50, [6, 6.5])
