import math
from fractions import Fraction

import pytest

from ambuq import NoSteadyStateError, ParameterError, SystemParams, derive, stability_bound
from ambuq.params import as_int, as_real, is_stable, require_steady_state

from oracles import RateLadder


def test_reference_scenario_ratios():
    d = derive(SystemParams(15, 50, 6))
    assert d.gamma == pytest.approx(0.3, abs=1e-12)
    assert d.rho == pytest.approx(5 / 9, abs=1e-12)
    assert d.offered_load == pytest.approx(10 / 3, abs=1e-12)


def test_identity_rates():
    d = derive(SystemParams(1, 1, 1))
    assert (d.gamma, d.rho, d.offered_load) == (1.0, 1.0, 1.0)


def test_four_server_intensity():
    d = derive(SystemParams(15, 50, 4))
    assert d.rho == pytest.approx(0.8333, abs=5e-5)


@pytest.mark.parametrize("t_call", [0.7, 3, 15, 41.5])
@pytest.mark.parametrize("t_service", [1, 12.3, 50])
@pytest.mark.parametrize("servers", [1, 4, 9])
def test_ratio_product_identity(t_call, t_service, servers):
    d = derive(SystemParams(t_call, t_service, servers))
    assert abs(d.rho * servers * d.gamma - 1.0) < 1e-12


def test_overload_is_representable():
    params = SystemParams(15, 50, 3)
    assert derive(params).rho > 1.0
    assert params.servers == 3


def test_stability_iff_offered_load_below_servers():
    for t_call, t_service, servers in [
        (15, 50, 3), (15, 50, 4), (25, 50, 2), (25, 50, 3), (1, 1, 1), (10, 9.99, 1),
    ]:
        d = derive(SystemParams(t_call, t_service, servers))
        assert (d.rho < 1.0) == (d.offered_load < servers)


def edge_cases():
    """t_service at M * t_call and one float either side, over an integer grid
    and at times whose rates are subnormal: (t_call, t_service, servers)."""
    grid = [(t_call, servers) for t_call in range(1, 61) for servers in range(1, 40)]
    for t_call, servers in grid + [(1e308, 1), (1.7e308, 1), (5e307, 3)]:
        edge = servers * t_call
        for t_service in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            yield t_call, t_service, servers


def test_stability_is_decided_exactly_at_the_edge():
    rounded_wrong = 0
    for t_call, t_service, servers in edge_cases():
        exact = Fraction(t_service) < servers * Fraction(t_call)
        params = SystemParams(t_call, t_service, servers)
        assert is_stable(params) == exact, (t_call, t_service, servers)
        assert stability_bound(t_call, t_service) == math.floor(Fraction(t_service) / t_call) + 1
        rounded_wrong += (derive(params).rho < 1.0) != exact
    assert rounded_wrong > 0  # the float rho alone gets some of these wrong


def test_steady_state_guard_at_the_edge():
    with pytest.raises(NoSteadyStateError, match="minimum stable fleet is 16"):
        require_steady_state(SystemParams(3, 45, 15))
    # stable, but rho rounds to 1: refused as outside the supported range
    params = SystemParams(1, math.nextafter(13.0, 0.0), 13)
    assert is_stable(params) and derive(params).rho == 1.0
    with pytest.raises(ParameterError, match="only by rounding error"):
        require_steady_state(params)


def test_rate_roundtrip_from_rates():
    params = SystemParams(17.3, 42.0, 5)
    rebuilt = SystemParams(1.0 / params.arrival_rate, 1.0 / params.service_rate, 5)
    assert rebuilt.t_call == pytest.approx(17.3, rel=1e-12)
    assert rebuilt.t_service == pytest.approx(42.0, rel=1e-12)


def test_down_rate_ladder():
    params = SystemParams(t_call=15, t_service=50, servers=6)
    ladder = RateLadder.for_fleet(params)
    assert ladder.down(3) == pytest.approx(0.06)
    assert ladder.down(9) == pytest.approx(0.12)  # capped at fleet size
    assert ladder.up(100) == pytest.approx(1 / 15)


def test_down_rate_matches_min_rule_up_to_three_fleets():
    params = SystemParams(t_call=7, t_service=31, servers=5)
    ladder = RateLadder.for_fleet(params)
    mu = params.service_rate
    for n in range(1, 3 * params.servers + 1):
        assert ladder.down(n) == pytest.approx(mu * min(n, 5), rel=1e-15)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(t_call=0, t_service=50, servers=6), "t_call"),
        (dict(t_call=-3, t_service=50, servers=6), "t_call"),
        (dict(t_call=math.inf, t_service=50, servers=6), "t_call"),
        (dict(t_call=math.nan, t_service=50, servers=6), "t_call"),
        (dict(t_call=15, t_service=0, servers=6), "t_service"),
        (dict(t_call=15, t_service=-1, servers=6), "t_service"),
        (dict(t_call=15, t_service=50, servers=0), "servers"),
        (dict(t_call=15, t_service=50, servers=-2), "servers"),
        (dict(t_call=15, t_service=50, servers=2.5), "servers"),
        (dict(t_call="soon", t_service=50, servers=6), "t_call"),
        (dict(t_call=1e-300, t_service=1e300, servers=5), "t_service / t_call"),
        (dict(t_call=1e300, t_service=1e-300, servers=5), "t_service / t_call"),
        (dict(t_call=1, t_service=1e-320, servers=5), "t_service / t_call"),
    ],
)
def test_validation_names_offending_field(kwargs, field):
    with pytest.raises(ParameterError, match=field):
        SystemParams(**kwargs)


def test_integral_float_server_count_accepted():
    params = SystemParams(t_call=15, t_service=50, servers=6.0)
    assert params.servers == 6 and isinstance(params.servers, int)


def test_derived_rates_positive_and_finite():
    params = SystemParams(15, 50, 6)
    assert 0 < params.arrival_rate < math.inf
    assert 0 < params.service_rate < math.inf
    assert derive(params).rho == pytest.approx(params.arrival_rate / (6 * params.service_rate))


@pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (0, 0), (-2.0, -2)])
def test_integer_rule_accepts_integral_values(value, expected):
    result = as_int(value, "count")
    assert result == expected and type(result) is int


@pytest.mark.parametrize("value", [True, 2.5, "3", None, math.nan, math.inf, [3]])
def test_integer_rule_refuses_everything_else(value):
    with pytest.raises(ParameterError, match="count"):
        as_int(value, "count")


def test_integer_rule_lower_bound():
    assert as_int(1, "count", 1) == 1
    with pytest.raises(ParameterError, match="count"):
        as_int(0, "count", 1)


@pytest.mark.parametrize("value", [0, 0.0, 2, 1e308, 5e-324])
def test_real_rule_accepts_finite_non_negative(value):
    result = as_real(value, "x")
    assert result == value and type(result) is float


def test_real_rule_positive_bound():
    assert as_real(5e-324, "x", positive=True) == 5e-324
    with pytest.raises(ParameterError, match="x"):
        as_real(0.0, "x", positive=True)


@pytest.mark.parametrize(
    "value", [True, "1.5", None, -1e-300, math.nan, math.inf, -math.inf, 10**400]
)
def test_real_rule_refuses_everything_else(value):
    with pytest.raises(ParameterError, match="x"):
        as_real(value, "x")
