import math

import numpy as np
import pytest
from scipy.integrate import quad

from ambuq import (
    NoSteadyStateError,
    ParameterError,
    SystemParams,
    cost_rate,
    derive,
    full_report,
    gamma_wait_density,
    level_of_service,
    mean_wait,
    p_occupation,
    p_server_busy,
    queue_stats,
    throughput,
    wait_density,
)

from oracles import busy_fraction_summed, wait_mixture_density

REFERENCE = SystemParams(t_call=15, t_service=50, servers=6)


def params_for_rho(rho, servers=6, t_service=50.0):
    return SystemParams(t_call=t_service / (servers * rho), t_service=t_service, servers=servers)


def test_wait_headway_density_base_case():
    alpha = 6 / 50
    for t in (0.0, 3.0, 17.5):
        assert gamma_wait_density(t, 0, REFERENCE) == pytest.approx(
            alpha * math.exp(-alpha * t), rel=1e-12
        )


def test_wait_headway_density_vanishes_at_origin_with_queue():
    assert gamma_wait_density(0.0, 1, REFERENCE) == 0.0
    assert gamma_wait_density(0.0, 4, REFERENCE) == 0.0


@pytest.mark.parametrize("k_ahead", [0, 1, 2, 5, 10, 19])
def test_wait_headway_density_normalized(k_ahead):
    total, _ = quad(gamma_wait_density, 0, np.inf, args=(k_ahead, REFERENCE), limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_wait_headway_density_mean_by_quadrature():
    alpha = 6 / 50
    mean, _ = quad(lambda t: t * gamma_wait_density(t, 2, REFERENCE), 0, np.inf, limit=200)
    assert mean == pytest.approx(3.0 / alpha, abs=1e-9)


def test_wait_headway_density_rejects_negative_time():
    with pytest.raises(ParameterError):
        gamma_wait_density(-0.1, 0, REFERENCE)
    with pytest.raises(ParameterError):
        gamma_wait_density(1.0, -1, REFERENCE)


def test_wait_density_at_origin():
    assert wait_density(0.0, REFERENCE) == pytest.approx((1 - 5 / 9) * 0.12, rel=1e-12)


def test_wait_density_normalized():
    total, _ = quad(wait_density, 0, np.inf, args=(REFERENCE,), limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("rho", [0.3, 5 / 9, 0.9])
def test_wait_density_matches_mixture(rho):
    params = params_for_rho(rho)
    grid = np.linspace(0.0, 10.0 * mean_wait(params), 50)
    for t in grid:
        assert wait_mixture_density(float(t), params) == pytest.approx(
            wait_density(float(t), params), abs=1e-10
        )


def test_mean_wait_reference():
    assert mean_wait(REFERENCE) == pytest.approx(18.75, abs=1e-12)


def test_mean_wait_idle_limit_is_service_time():
    nearly_idle = SystemParams(t_call=1e9, t_service=50, servers=1)
    assert mean_wait(nearly_idle) == pytest.approx(50.0, rel=1e-6)


@pytest.mark.parametrize("servers", [1, 4, 6, 13, 30])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.8333, 0.95])
def test_little_identity(servers, rho):
    params = params_for_rho(rho, servers)
    assert mean_wait(params) == pytest.approx(
        queue_stats(params).mean_len / params.arrival_rate, abs=1e-12
    )


def test_little_identity_reference_case():
    params = SystemParams(t_call=15, t_service=50, servers=4)
    assert queue_stats(params).mean_len / params.arrival_rate == pytest.approx(75.0, rel=1e-9)
    assert mean_wait(params) == pytest.approx(75.0, rel=1e-9)


def test_level_of_service_reference():
    assert level_of_service(REFERENCE, 30.0) == pytest.approx(0.9701, abs=1e-4)
    assert level_of_service(REFERENCE, 30.0) >= 0.90


def test_level_of_service_zero_threshold():
    assert level_of_service(REFERENCE, 0.0) == pytest.approx(
        1.0 - p_occupation(REFERENCE), abs=1e-12
    )


def test_level_of_service_monotone():
    values = [level_of_service(REFERENCE, t) for t in (0, 5, 10, 30, 60, 120)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    by_fleet = [
        level_of_service(SystemParams(t_call=15, t_service=50, servers=m), 30.0)
        for m in range(4, 11)
    ]
    assert all(a <= b for a, b in zip(by_fleet, by_fleet[1:]))
    assert all(0.0 <= v <= 1.0 for v in by_fleet)


@pytest.mark.parametrize("servers", [1, 2, 7, 19, 30])
@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5556, 0.8, 0.95])
def test_busy_probability_collapses_to_intensity(servers, rho):
    # p_server_busy returns rho itself; the summed stationary average is the check
    params = params_for_rho(rho, servers)
    assert abs(busy_fraction_summed(params) - derive(params).rho) < 1e-12


def test_busy_probability_reference_points():
    assert p_server_busy(params_for_rho(0.5, 1)) == pytest.approx(0.5, abs=1e-12)
    assert p_server_busy(REFERENCE) == pytest.approx(5 / 9, abs=1e-12)


@pytest.mark.parametrize("servers", [1, 3, 6, 30])
@pytest.mark.parametrize("rho", [0.2, 0.5556, 0.9])
def test_throughput_equals_arrival_rate(servers, rho):
    params = params_for_rho(rho, servers)
    assert abs(throughput(params) - params.arrival_rate) < 1e-12


def test_throughput_reference():
    assert throughput(REFERENCE) == pytest.approx(1 / 15, abs=1e-12)
    assert throughput(REFERENCE) * 60 == pytest.approx(4.0, abs=1e-10)


def test_cost_rate_cases():
    assert cost_rate(REFERENCE, 0.0) == 0.0
    assert cost_rate(REFERENCE, 100.0) == pytest.approx(100 * 0.02 * 5 / 9, rel=1e-12)
    single = SystemParams(t_call=2, t_service=1, servers=1)  # rho = 0.5, mu = 1
    assert cost_rate(single, 1.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ParameterError):
        cost_rate(REFERENCE, -1.0)


def test_report_composition_and_identities():
    report = full_report(REFERENCE, t_los=30.0, cost_per_attention=0.0)
    assert report.p_occup == pytest.approx(0.1482, abs=1e-4)
    assert report.mean_wait == pytest.approx(18.75, abs=1e-12)
    assert report.los == pytest.approx(0.970, abs=1e-3)
    assert report.p_busy == pytest.approx(5 / 9, abs=1e-12)
    assert report.mean_wait * report.wait_rate == pytest.approx(1.0, abs=1e-12)
    assert report.los == pytest.approx(
        1.0 - report.p_occup * math.exp(-report.wait_rate * report.t_los), abs=1e-12
    )
    assert report.throughput == pytest.approx(
        report.p_busy * 6 / 50, abs=1e-12
    )
    assert report.throughput == pytest.approx(REFERENCE.arrival_rate, abs=1e-12)
    assert report.mean_wait_unconditional == pytest.approx(
        report.p_occup * report.mean_wait, abs=1e-12
    )
    assert 0.0 <= report.los <= 1.0


def test_report_field_names():
    report = full_report(REFERENCE, t_los=30.0, cost_per_attention=2.0)
    assert set(report.to_dict()) == {
        "wait_rate", "mean_wait", "mean_wait_unconditional", "los", "t_los",
        "p_busy", "p_occup", "throughput", "cost_rate", "cost_per_attention",
    }
    assert report.cost_rate == pytest.approx(2.0 * 0.02 * 5 / 9, rel=1e-12)


def test_metrics_require_steady_state():
    overloaded = SystemParams(t_call=15, t_service=50, servers=3)
    for fn in (mean_wait, p_server_busy, throughput):
        with pytest.raises(NoSteadyStateError):
            fn(overloaded)
    with pytest.raises(NoSteadyStateError):
        wait_density(1.0, overloaded)
    with pytest.raises(NoSteadyStateError):
        level_of_service(overloaded, 30.0)
    with pytest.raises(NoSteadyStateError):
        full_report(overloaded)
