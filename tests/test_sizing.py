import math
import random
from itertools import islice, pairwise

import pytest

from ambuq import (
    ParameterError,
    SizingQuery,
    SystemParams,
    derive,
    level_of_service,
    mfpt_critical_profile,
    min_fleet,
    p_occupation,
    stability_bound,
)
from ambuq.sizing import _metric_by_fleet

from oracles import occupation_probability_stepwise


def test_stability_answer_matches_integer_bound():
    result = min_fleet(15, 50, SizingQuery(kind="stability"))
    assert result.found and result.m == 4
    assert result.m == stability_bound(15, 50)
    assert result.predicate_value == pytest.approx(0.8333, abs=5e-5)
    # one fewer vehicle is genuinely overloaded
    assert derive(SystemParams(t_call=15, t_service=50, servers=3)).rho > 1.0


def test_scans_start_at_the_exact_stability_bound():
    # t_service = 45 = 15 * 3 exactly: 15 vehicles are overloaded, whatever
    # the float rho says
    assert min_fleet(3, 45, SizingQuery(kind="stability")).m == 16
    # one float below 13 * 1: 13 vehicles are stable, though the float rho is
    # 1, so the scans start there and read its occupation as 1 and LOS as 0
    t_service = math.nextafter(13.0, 0.0)
    assert derive(SystemParams(t_call=1, t_service=t_service, servers=13)).rho == 1.0
    stable = min_fleet(1, t_service, SizingQuery(kind="stability"))
    assert (stable.m, stable.scanned) == (13, (13, 13))
    occup = min_fleet(1, t_service, SizingQuery(kind="occup_ceiling", target=0.9))
    assert (occup.m, occup.scanned) == (14, (13, 14))
    los = min_fleet(1, t_service, SizingQuery(kind="los_target", target=0.5, t_los=30, m_max=13))
    assert not los.found and los.predicate_value == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "t_call, t_service",
    [(15, 50), (25, 50), (1, 1), (7.5, 90), (40, 35)],
)
def test_stability_bound_formula(t_call, t_service):
    bound = stability_bound(t_call, t_service)
    offered = derive(SystemParams(t_call=t_call, t_service=t_service, servers=1)).offered_load
    assert bound == math.floor(offered) + 1
    assert derive(SystemParams(t_call=t_call, t_service=t_service, servers=bound)).rho < 1.0


def test_occupation_ceiling():
    result = min_fleet(15, 50, SizingQuery(kind="occup_ceiling", target=0.15))
    assert result.found and result.m == 6
    assert result.predicate_value == pytest.approx(0.1482, abs=1e-4)
    assert p_occupation(SystemParams(t_call=15, t_service=50, servers=5)) > 0.15


def test_saturation_horizon():
    result = min_fleet(16, 50, SizingQuery(kind="mfpt_horizon", target=480.0))
    assert result.found and result.m == 6
    assert result.predicate_value >= 480.0
    assert result.scanned[0] == 1
    shorter = mfpt_critical_profile(SystemParams(t_call=16, t_service=50, servers=5))
    assert shorter.mean_time < 480.0


def test_los_target():
    query = SizingQuery(kind="los_target", target=0.95, t_los=30.0)
    result = min_fleet(15, 50, query)
    assert result.found and result.m == 6
    assert result.predicate_value >= 0.95
    assert level_of_service(SystemParams(t_call=15, t_service=50, servers=5), 30.0) < 0.95


def test_answer_is_minimal():
    for query in (
        SizingQuery(kind="occup_ceiling", target=0.05),
        SizingQuery(kind="los_target", target=0.99, t_los=15.0),
        SizingQuery(kind="mfpt_horizon", target=2000.0),
    ):
        result = min_fleet(15, 50, query)
        assert result.found
        m = result.m
        if m > result.scanned[0]:
            prev = SystemParams(t_call=15, t_service=50, servers=m - 1)
            if query.kind == "occup_ceiling":
                assert p_occupation(prev) > query.target
            elif query.kind == "los_target":
                assert level_of_service(prev, query.t_los) < query.target
            else:
                assert mfpt_critical_profile(prev).mean_time < query.target


def test_not_found_carries_best_value():
    result = min_fleet(15, 50, SizingQuery(kind="los_target", target=0.9999, t_los=30.0, m_max=8))
    assert not result.found and result.m is None
    assert result.scanned == (4, 8)
    assert result.predicate_value == pytest.approx(
        level_of_service(SystemParams(t_call=15, t_service=50, servers=8), 30.0), rel=1e-12
    )


def test_scan_cap_below_stability_bound():
    result = min_fleet(15, 50, SizingQuery(kind="occup_ceiling", target=0.5, m_max=2))
    assert not result.found and result.m is None and result.predicate_value is None


def test_query_validation():
    with pytest.raises(ParameterError):
        SizingQuery(kind="cheapest")
    with pytest.raises(ParameterError):
        SizingQuery(kind="occup_ceiling", target=0.0)
    with pytest.raises(ParameterError):
        SizingQuery(kind="los_target", target=1.5, t_los=30.0)
    with pytest.raises(ParameterError):
        SizingQuery(kind="los_target", target=0.9)  # missing t_los
    with pytest.raises(ParameterError):
        SizingQuery(kind="mfpt_horizon", target=-5.0)
    with pytest.raises(ParameterError):
        SizingQuery(kind="mfpt_horizon", target=math.inf)
    with pytest.raises(ParameterError):
        SizingQuery(kind="stability", m_max=0)


def _brute_force(t_call, t_service, query):
    """min_fleet as a plain scan calling the public per-fleet functions."""
    start = 1 if query.kind == "mfpt_horizon" else stability_bound(t_call, t_service)
    best = None
    for m in range(start, query.m_max + 1):
        params = SystemParams(t_call=t_call, t_service=t_service, servers=m)
        if query.kind == "stability":
            value = derive(params).rho
            ok, better = value < 1.0, best is None or value < best
        elif query.kind == "occup_ceiling":
            value = p_occupation(params)
            ok, better = value <= query.target, best is None or value < best
        elif query.kind == "los_target":
            value = level_of_service(params, query.t_los)
            ok, better = value >= query.target, best is None or value > best
        else:
            value = mfpt_critical_profile(params).mean_time
            ok, better = value >= query.target, best is None or value > best
        if better:
            best = value
        if ok:
            return m, value, (start, m), True
    return None, best, (start, query.m_max), False


def _stepwise_metric(kind, params, t_los):
    """The occup or LOS metric at one fleet from the plain one-fleet recurrence."""
    occup = occupation_probability_stepwise(params)
    if kind == "occup_ceiling":
        return occup
    rate = (1.0 - derive(params).rho) * params.servers * params.service_rate
    return 1.0 - occup * math.exp(-rate * t_los)


def _queries(m_max):
    yield SizingQuery(kind="stability", m_max=m_max)
    for target in (0.5, 0.15, 1e-3):
        yield SizingQuery(kind="occup_ceiling", target=target, m_max=m_max)
    for target in (0.9, 0.99):
        for t_los in (0.0, 10.0, 30.0):
            yield SizingQuery(kind="los_target", target=target, t_los=t_los, m_max=m_max)
    for target in (100.0, 480.0, 5000.0):
        yield SizingQuery(kind="mfpt_horizon", target=target, m_max=m_max)


@pytest.mark.parametrize("t_call", [5.0, 15, 40.0])
@pytest.mark.parametrize("t_service", [50, 90.0])
@pytest.mark.parametrize("m_max", [8, 40])
def test_incremental_scan_matches_brute_force(t_call, t_service, m_max):
    for query in _queries(m_max):
        result = min_fleet(t_call, t_service, query)
        m, value, scanned, found = _brute_force(t_call, t_service, query)
        assert (result.m, result.scanned, result.found) == (m, scanned, found), query
        if query.kind == "mfpt_horizon":
            assert result.predicate_value == pytest.approx(value, rel=1e-12)
        else:
            assert result.predicate_value == value, query
        if result.found and query.kind in ("occup_ceiling", "los_target"):
            # the scan reads the shared Erlang-B ladder; the plain
            # recurrence must give the same value to the bit
            params = SystemParams(t_call=t_call, t_service=t_service, servers=result.m)
            assert result.predicate_value == _stepwise_metric(query.kind, params, query.t_los)


@pytest.mark.parametrize("offered_load", [7000.37, 9000.61])
def test_scan_at_large_offered_load_matches_stepwise_recurrence(offered_load):
    # the scan reads the shared Erlang-B ladder from B(start), here about
    # 9000 steps in; the answer and its value must be the plain
    # recurrence's, to the bit
    t_call, t_service = 0.02, offered_load * 0.02
    for query in (
        SizingQuery(kind="occup_ceiling", target=0.05, m_max=10**4),
        SizingQuery(kind="los_target", target=0.95, t_los=0.01, m_max=10**4),
    ):
        result = min_fleet(t_call, t_service, query)
        assert result.found and result.m > result.scanned[0], query
        at, below = (
            _stepwise_metric(
                query.kind, SystemParams(t_call=t_call, t_service=t_service, servers=m), query.t_los
            )
            for m in (result.m, result.m - 1)
        )
        assert result.predicate_value == at, query
        assert below > query.target if query.kind == "occup_ceiling" else below < query.target


def test_every_scanned_metric_is_monotone_in_the_fleet(time_limit):
    # a scan that finds no fleet reports the value at m_max as the best one
    # attained; that holds because occupation falls and LOS and the mean
    # saturation time rise with M, with no rounding break over the range
    rng = random.Random(26)
    near_one = 0
    with time_limit(2):
        for case in range(120):  # offered loads 0.01..10^4, spread evenly in log
            a = 10 ** (-2.0 + 6.0 * (case + rng.random()) / 120)
            t_call = 10 ** rng.uniform(-2, 1)
            if case % 3 == 0:  # the first stable fleet within 1e-15..1e-9 of rho = 1
                servers = math.floor(a) + 1
                t_service = servers * t_call * (1.0 - 10 ** rng.uniform(-15, -9))
            else:
                t_service = a * t_call
            start = stability_bound(t_call, t_service)
            params = SystemParams(t_call=t_call, t_service=t_service, servers=start)
            near_one += derive(params).rho > 1.0 - 2e-9
            span = 100 + 10 * math.isqrt(start)
            t_los = rng.choice([0.0, rng.uniform(0.0, 3.0) * t_service])
            occup = list(islice(_metric_by_fleet("occup_ceiling", params, None), span))
            los = list(islice(_metric_by_fleet("los_target", params, t_los), span))
            assert all(x >= y for x, y in pairwise(occup)), (t_call, t_service)
            assert all(x <= y for x, y in pairwise(los)), (t_call, t_service, t_los)
            first = SystemParams(t_call=t_call, t_service=t_service, servers=1)
            means = list(islice(_metric_by_fleet("mfpt_horizon", first, None), 2000))
            assert all(x <= y for x, y in pairwise(means)), (t_call, t_service)
    assert near_one == 40
