import bisect
import itertools
import math
import tracemalloc
import warnings
from array import array
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ambuq import (
    ParameterError,
    SimConfig,
    SystemParams,
    derive,
    mean_wait,
    mfpt_critical_profile,
    p_occupation,
    p_server_busy,
    queue_conditional_pmf,
    queue_stats,
    simulate_hitting_time,
    simulate_stationary,
    stationary_profile,
)
from ambuq.simulate import (
    FORK_MIN_EVENTS,
    HITTING_BLOCK,
    MAX_FCFS_EVENTS,
    MAX_HITTING_STEPS,
    N_BATCHES,
    SPECTRAL_MAX_LEVELS,
    SimEstimate,
    _PI_DEPTH,
    _QUEUE_DEPTH,
    _batch_edges,
    _hitting_times,
    _ladder_spectrum,
    _occupancy_estimates,
    _rate_tables,
    _reduce,
    _Replication,
    _run_fcfs_replication,
    _stream,
    compare,
)
from ambuq.steady_state import MAX_CSV_ROWS
from oracles import (
    RateLadder,
    _estimate,
    _split,
    batch_tallies,
    hitting_times_scalar,
    occupancy_estimates_per_quantity,
    passage_time_moments,
    path_departures_and_waits,
    replay_busy,
    replay_path,
    run_heap_fcfs_replication,
    simulate_heap_fcfs,
    split_histograms,
    supported_range_params,
    wait_cdf_mp,
)

REFERENCE = SystemParams(t_call=15, t_service=50, servers=6)
SHORT = SimConfig(seed=11, replications=1, warmup=2500.0, horizon=202500.0)


def zscore(estimate, reference):
    assert estimate.std_error > 0.0
    return (estimate.value - reference) / estimate.std_error


def test_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(seed=1, replications=0)
    with pytest.raises(ParameterError):
        SimConfig(seed=1, warmup=-1.0)
    with pytest.raises(ParameterError):
        SimConfig(seed=1, warmup=100.0, horizon=50.0)
    with pytest.raises(ParameterError):
        SimConfig(seed=1, start_state=-1)
    with pytest.raises(ParameterError):
        SimConfig(seed=1.5)
    with pytest.raises(ParameterError):
        SimConfig(seed=True)


def test_seed_outside_the_stream_key_is_refused():
    # a seed fills the upper 64 bits of a Philox key; one outside them
    # would draw the streams of a seed inside (1 and 2**64 + 1 did)
    for seed, bound in ((-1, ">= 0"), (2**64, "<= 18446744073709551615"), (2**64 + 1, "<=")):
        with pytest.raises(ParameterError, match=f"^seed must be an integer {bound}"):
            SimConfig(seed=seed)
    top = SimConfig(seed=2**64 - 1).seed
    assert _stream(top, 0).random() != _stream(0, 0).random()


def test_config_normalises_integral_floats():
    config = SimConfig(seed=3.0, replications=2.0, start_state=1.0, warmup=10, horizon=20)
    assert (config.seed, config.replications, config.start_state) == (3, 2, 1)
    assert all(type(v) is int for v in (config.seed, config.replications, config.start_state))
    assert (config.warmup, config.horizon) == (10.0, 20.0)


def test_config_default_resolution():
    resolved = SimConfig(seed=1).resolved(REFERENCE)
    assert resolved.warmup == pytest.approx(50.0 * 50.0)
    assert resolved.horizon == pytest.approx(2500.0 + 5000.0 * 15.0)


def test_hitting_time_single_server():
    params = SystemParams(t_call=2.0, t_service=2.0, servers=1)
    estimate = simulate_hitting_time(params, 0, SimConfig(seed=301, replications=20000))
    assert abs(zscore(estimate, 3 * 2.0)) < 3.0
    assert estimate.n_samples == 20000
    assert estimate.seed == 301


def test_hitting_time_matches_profile():
    params = SystemParams(t_call=16, t_service=50, servers=6)
    profile = mfpt_critical_profile(params)
    estimate = simulate_hitting_time(params, 3, SimConfig(seed=9, replications=4000))
    assert abs(zscore(estimate, profile.times[3])) < 3.0


def test_hitting_time_start_validation():
    with pytest.raises(ParameterError):
        simulate_hitting_time(REFERENCE, 7, SimConfig(seed=1, replications=10))
    with pytest.raises(ParameterError):
        simulate_hitting_time(REFERENCE, -1, SimConfig(seed=1, replications=10))


def test_hitting_time_deterministic_across_runs_and_workers():
    cfg = SimConfig(seed=5, replications=500)
    first = simulate_hitting_time(REFERENCE, 0, cfg)
    second = simulate_hitting_time(REFERENCE, 0, cfg)
    assert first == second
    other = simulate_hitting_time(REFERENCE, 0, SimConfig(seed=6, replications=500))
    assert other.value != first.value


def _both_routes(*cases):
    """Each case on the spectral route, under its own id, then on the
    local-time route, its id ending in -local: both are exact at any M."""
    return [
        pytest.param(*case, route, id="-".join(map(str, case)) + suffix)
        for route, suffix in (("spectral", ""), ("local", "-local"))
        for case in cases
    ]


def _take_route(monkeypatch, route, servers):
    """Send a ladder of servers + 1 levels down the named hitting-time route."""
    cap = servers + 1 if route == "spectral" else 0
    monkeypatch.setattr("ambuq.simulate.SPECTRAL_MAX_LEVELS", cap)


@pytest.mark.parametrize(
    "servers, rho, start, seed, route",
    _both_routes((1, 1.0, 0, 41), (6, 0.6, 3, 43), (12, 1.4, 6, 47)),
)
def test_level_sampler_matches_scalar_walk(monkeypatch, servers, rho, start, seed, route):
    _take_route(monkeypatch, route, servers)
    params = SystemParams(t_call=10.0, t_service=10.0 * rho * servers, servers=servers)
    replications = 3000
    kernel = simulate_hitting_time(params, start, SimConfig(seed=seed, replications=replications))
    scalar = np.array(hitting_times_scalar(params, start, seed + 1000, replications))
    scalar_se = scalar.std(ddof=1) / math.sqrt(replications)
    z = (kernel.value - scalar.mean()) / math.hypot(kernel.std_error, scalar_se)
    assert abs(z) <= 4.0


@pytest.mark.parametrize(
    "servers, rho, start, seed, route",
    # one server; rho < 1 with the levels below the start visited; rho > 1 at M = 12
    _both_routes((1, 0.8, 1, 51), (4, 0.5, 3, 53), (12, 1.2, 0, 59)),
)
def test_level_sampler_matches_scalar_walk_in_distribution(
    monkeypatch, servers, rho, start, seed, route
):
    # the two-sample Kolmogorov-Smirnov test sees the whole law, not just the mean
    _take_route(monkeypatch, route, servers)
    params = SystemParams(t_call=10.0, t_service=10.0 * rho * servers, servers=servers)
    replications = 3000
    kernel = _hitting_times(
        params.arrival_rate, params.service_rate, start, servers + 1, seed, replications
    )
    scalar = hitting_times_scalar(params, start, seed + 1000, replications)
    assert ks_2samp(kernel, scalar).pvalue > 0.01


def test_hitting_blocks_are_fixed(monkeypatch):
    # a block's walks share one stream, so only whole blocks survive a
    # change in the replication count, on either route
    params = SystemParams(t_call=16, t_service=50, servers=6)
    args = (params.arrival_rate, params.service_rate, 2, params.servers + 1, 13)
    assert HITTING_BLOCK == 1024
    for route in ("spectral", "local"):
        _take_route(monkeypatch, route, params.servers)
        full = _hitting_times(*args, HITTING_BLOCK)
        longer = _hitting_times(*args, HITTING_BLOCK + 1)
        assert np.array_equal(longer[:HITTING_BLOCK], full)
        assert not np.array_equal(_hitting_times(*args, HITTING_BLOCK - 1), full[:-1])


def test_hitting_route_switches_above_the_spectral_cap(monkeypatch):
    # SPECTRAL_MAX_LEVELS levels are drawn from the spectrum; one level more
    # takes the local-time route, which is exact there too
    def fleet(servers):  # rho = 2
        return SystemParams(t_call=10.0, t_service=20.0 * servers, servers=servers)

    def times_from_the_top(params):
        lam, mu, m = params.arrival_rate, params.service_rate, params.servers
        return _hitting_times(lam, mu, m, m + 1, 61, 500)

    at_cap, above_cap = fleet(SPECTRAL_MAX_LEVELS - 1), fleet(SPECTRAL_MAX_LEVELS)
    no_solve = mock.patch("numpy.linalg.eigvalsh", side_effect=AssertionError("spectral route"))
    with no_solve, pytest.raises(AssertionError, match="spectral route"):
        times_from_the_top(at_cap)
    with no_solve:
        above = times_from_the_top(above_cap)
    monkeypatch.setattr("ambuq.simulate.SPECTRAL_MAX_LEVELS", 0)
    assert np.array_equal(above, times_from_the_top(above_cap))
    exact = mfpt_critical_profile(above_cap).times[-1]
    assert abs(above.mean() - exact) < 4.0 * above.std(ddof=1) / math.sqrt(above.size)


@pytest.mark.parametrize("servers", [1, 2, 5, 12, 20, SPECTRAL_MAX_LEVELS - 1])
def test_spectral_moments_match_the_passage_time_recurrences(servers):
    # the law the spectral route draws, sum_j B_j E_j scale_j, has mean
    # sum_j P(B_j) scale_j and variance sum_j P(B_j) (2 - P(B_j)) scale_j^2;
    # they must match the saturation time and the independent second-moment
    # recurrence of the up-passages, at every start the step budget admits
    checked = 0
    for rho in (0.3, 0.8, 1.0, 1.5, 3.0):
        params = SystemParams(t_call=10.0, t_service=10.0 * rho * servers, servers=servers)
        lam, mu = params.arrival_rate, params.service_rate
        times = mfpt_critical_profile(params).times
        for start in range(servers + 1):
            if not HITTING_BLOCK * times[start] * (lam + servers * mu) <= MAX_HITTING_STEPS:
                continue
            scale, weight = _ladder_spectrum(lam, mu, start, servers + 1)
            assert np.all((weight >= 0.0) & (weight <= 1.0))
            kept = np.concatenate([weight, np.ones(servers + 1 - start)])
            mean = (kept * scale).sum()
            variance = (kept * (2.0 - kept) * scale**2).sum()
            ladder = RateLadder.for_fleet(params)
            _, exact_variance = passage_time_moments(ladder, start, servers + 1)
            assert mean == pytest.approx(times[start], rel=1e-9)
            assert variance == pytest.approx(exact_variance, rel=1e-9)
            checked += 1
    assert checked >= servers + 1


@pytest.mark.parametrize("factor", [1e160, 1e-160])
def test_ladder_spectrum_is_formed_in_units_of_lambda(factor):
    # lam x mu leaves the float range at these scales; the spectrum must not
    params = SystemParams(t_call=15, t_service=50, servers=6)
    lam, mu = params.arrival_rate, params.service_rate
    scale, weight = _ladder_spectrum(lam, mu, 3, 7)
    scaled, scaled_weight = _ladder_spectrum(lam * factor, mu * factor, 3, 7)
    np.testing.assert_allclose(scaled * factor, scale, rtol=1e-12)
    np.testing.assert_allclose(scaled_weight, weight, rtol=1e-12)


def test_spectral_route_sums_each_walk_level_by_level():
    # a replay of a block's draws, exponentials level-major and then the
    # coins' uniforms, summed from level 0 up: the order sum(axis=0) keeps,
    # where a matrix product's may change with the BLAS build or threads
    params = SystemParams(t_call=10.0, t_service=250.0, servers=24)
    lam, mu, start, target, size = params.arrival_rate, params.service_rate, 9, 25, 700
    scale, weight = _ladder_spectrum(lam, mu, start, target)
    gen = _stream(17, 0)
    exponentials = gen.standard_exponential((target, size))
    kept = gen.random((start, size)) < weight[:, None]
    replayed = np.zeros(size)
    for j in range(target):
        term = exponentials[j] * scale[j]
        replayed = replayed + (term * kept[j] if j < start else term)
    assert np.array_equal(_hitting_times(lam, mu, start, target, 17, size), replayed)


# the budget rule's refusals, in its one shape
HITTING_OVER = r"^hitting-time steps from state 0, .*: about .*, more than the cap of 100000000$"
EVENTS_OVER = r"^stationary run events: about .*, more than the cap of 10000000$"


def test_hitting_run_over_the_step_budget_is_refused(time_limit):
    # T(0) is about 4.3e10 minutes at M = 20, some 2e10 steps of one walk
    params = SystemParams(t_call=15, t_service=50, servers=20)
    # the budget counts every replication
    fleet = SystemParams(t_call=16, t_service=50, servers=6)
    per_walk = mfpt_critical_profile(fleet).times[0] * (1 / 16 + 6 / 50)
    too_many = math.ceil(MAX_HITTING_STEPS / per_walk) + 1
    with time_limit(10):
        with pytest.raises(ParameterError, match=HITTING_OVER):
            simulate_hitting_time(params, 0, SimConfig(seed=1, replications=1))
        with pytest.raises(ParameterError, match=HITTING_OVER):
            simulate_hitting_time(fleet, 0, SimConfig(seed=1, replications=too_many))


def test_hitting_budget_counts_whole_blocks(monkeypatch, time_limit):
    # one walk is charged as a whole block, so M = 13 is charged 1024 walks
    # of about 1.9e5 steps each and refused at once
    with time_limit(1):
        with pytest.raises(ParameterError, match="1024 walks"):
            simulate_hitting_time(
                SystemParams(t_call=15, t_service=50, servers=13), 0, SimConfig(seed=1, replications=1)
            )
    # while M = 12, charged about 4.7e7 steps, still runs
    monkeypatch.setattr("ambuq.simulate._hitting_times", lambda *args: np.ones(args[-1]))
    params = SystemParams(t_call=15, t_service=50, servers=12)
    charged = HITTING_BLOCK * mfpt_critical_profile(params).times[0] * (1 / 15 + 12 / 50)
    assert 4e7 < charged < MAX_HITTING_STEPS
    assert simulate_hitting_time(params, 0, SimConfig(seed=1, replications=1)).value == 1.0


def test_heaviest_admitted_single_walk_runs_quickly(time_limit):
    # M = 12 is charged about 4.7e7 steps for one walk of about 4.6e4 steps,
    # which the level sampler draws in 13 levels
    params = SystemParams(t_call=15, t_service=50, servers=12)
    with time_limit(1):
        estimate = simulate_hitting_time(params, 0, SimConfig(seed=1, replications=1))
    assert math.isfinite(estimate.value) and estimate.value > 0.0
    assert (estimate.std_error, estimate.n_samples) == (0.0, 1)


def test_estimate_of_values_near_1e300_has_a_finite_std_error():
    values = [1e300, 2e300, 3e300, 4e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = _reduce(["x"], [values], 1)["x"]
    assert estimate.value == 2.5e300
    expected = math.sqrt(5.0 / 3.0) * 1e300 / 2.0  # sample std 1.29e300 over sqrt(4)
    assert estimate.std_error == pytest.approx(expected, rel=1e-15)
    # an infinite value still gives a non-finite spread, for the caller to refuse
    with np.errstate(invalid="ignore"):
        assert not math.isfinite(_reduce(["x"], [[1.0, math.inf]], 1)["x"].std_error)
    # and where the plain spread is finite it is taken as before, bit for bit
    plain = np.array([1e150, 3e150, 2e150])
    assert _reduce(["x"], [plain], 1)["x"].std_error == float(plain.std(ddof=1) / math.sqrt(3))


def test_reduce_matches_the_1d_reduction_bit_for_bit():
    # numpy sums blocks of 128 pairwise, so 128 and 129 batches are inside
    rng = np.random.default_rng(7)
    for batches in range(1, 201):
        rows = [
            rng.random(batches),
            rng.exponential(1e3, batches),
            rng.normal(0.0, 1.0, batches) * 10.0 ** rng.integers(-30, 30, batches),
            np.where(rng.random(batches) < 0.5, 0.0, rng.random(batches)),
            rng.integers(0, 50, batches) / 7.0,
            rng.random(batches) * 1e160,  # squared deviations overflow: rescaled
            np.full(batches, 0.1),
            np.concatenate([rng.random(batches - 1), [math.inf]]),
        ]
        names = [f"q{i}" for i in range(len(rows))]
        with np.errstate(invalid="ignore"):
            expected = {name: _estimate(row.tolist(), 5) for name, row in zip(names, rows)}
            # quantity-major, and a batch-major table transposed, which the
            # reducer lays out C-contiguous before it reduces
            for table in (np.array(rows), np.array(rows).T.copy().T):
                estimates = _reduce(names, table, 5)
                assert list(estimates) == names
                for name in names:
                    got, want = estimates[name], expected[name]
                    assert (got.n_samples, got.seed) == (want.n_samples, want.seed) == (batches, 5)
                    assert np.array_equal(
                        [got.value, got.std_error], [want.value, want.std_error], equal_nan=True
                    ), (batches, name)
    assert _reduce(["a", "b"], np.zeros((2, 0)), 5) == {}


def test_compare_z_rule():
    params = SystemParams(t_call=15, t_service=50, servers=6)
    throughput, rho = params.arrival_rate, derive(params).rho
    estimates = {
        "throughput": SimEstimate(throughput + 0.01, 0.004, 20, 1),
        "p_busy_per_server": SimEstimate(rho, 0.0, 20, 1),  # exact: z = 0
        "pi_0": SimEstimate(0.5, 0.0, 20, 1),  # off with no spread: z = inf
        "no_analytic_value": SimEstimate(1.0, 0.1, 20, 1),
    }
    records = compare(params, estimates)
    assert [name for name, *_ in records] == ["p_busy_per_server", "pi_0", "throughput"]
    assert records[0] == ("p_busy_per_server", rho, 0.0, rho, 0.0)
    assert records[1] == ("pi_0", 0.5, 0.0, stationary_profile(params).pi(0), math.inf)
    assert records[2] == ("throughput", throughput + 0.01, 0.004, throughput,
                          (throughput + 0.01 - throughput) / 0.004)
    # names with no estimate (here every wait and queue quantity) are skipped
    assert compare(params, {}) == []


def test_compare_reads_the_public_values_to_the_bit():
    public = {
        "p_occup": p_occupation,
        "mean_queue_len_conditional": lambda params: queue_stats(params).mean_len,
        "wait_mean_conditional": mean_wait,
        "p_busy_per_server": p_server_busy,
    }
    estimates = {name: SimEstimate(0.0, 1.0, 20, 1) for name in public}
    for params in supported_range_params():
        analytic = {name: ref for name, _, _, ref, _ in compare(params, estimates)}
        assert analytic == {name: value(params) for name, value in public.items()}, params


def test_compare_wait_cdf_keeps_its_digits_at_small_thresholds():
    # formed as 1 - exp(-x), the value would keep only about 3 digits at x near 1e-13
    params = SystemParams(t_call=15, t_service=50, servers=6)
    estimates = {"wait_cdf_at_t_los": SimEstimate(0.0, 1.0, 20, 1)}
    for t_los in (1e-12, 1e-6, 30.0):
        ((_, _, _, analytic, _),) = compare(params, estimates, t_los=t_los)
        assert analytic == pytest.approx(wait_cdf_mp(15, 50, 6, t_los), rel=1e-14, abs=0.0), t_los


def test_compare_hitting_mode():
    params = SystemParams(t_call=15, t_service=50, servers=6)
    exact = mfpt_critical_profile(params).times[2]
    estimate = SimEstimate(exact * 1.01, exact * 0.005, 100, 1)
    (record,) = compare(params, {"hitting_time_mean": estimate}, mode="hitting", start_state=2)
    assert record == ("hitting_time_mean", estimate.value, estimate.std_error, exact,
                      (estimate.value - exact) / estimate.std_error)
    # the stationary names have no hitting-time counterpart, and no steady
    # state is needed: rho > 1 here
    unstable = SystemParams(t_call=15, t_service=150, servers=6)
    assert compare(unstable, {"throughput": estimate}, mode="hitting") == []
    with pytest.raises(ParameterError, match="mode"):
        compare(params, {}, mode="transient")
    for start_state in (-1, 7):  # negative or past M: no saturation time, not T(M)
        with pytest.raises(ParameterError, match="start_state"):
            compare(params, {}, mode="hitting", start_state=start_state)


def test_split_steps_past_rounded_batch_edges():
    # with this real-valued window a batch edge recomputed from the previous
    # cut rounds down to the batch before it, which once stalled the split
    warmup, horizon = 1000.1, 20000.3
    batch_len = (horizon - warmup) / N_BATCHES
    pieces = list(
        itertools.islice(_split(0.0, horizon, warmup, horizon, batch_len), N_BATCHES + 1)
    )
    assert [b for b, _ in pieces] == list(range(N_BATCHES))
    assert all(seg > 0.0 for _, seg in pieces)
    assert sum(seg for _, seg in pieces) == pytest.approx(horizon - warmup, rel=1e-15)


def near_edge_windows():
    """Measurement windows: fixed ones whose edges round awkwardly, one
    whose edges round together, and seeded random ones at many scales."""
    rng = np.random.default_rng(20)
    windows = [(1000.0, 21000.0), (1000.1, 20000.3), (3e7, 30000000.0000003)]
    for _ in range(100):
        warmup = float(rng.uniform(0.0, 10.0 ** rng.uniform(0, 7)))
        windows.append((warmup, warmup + float(10.0 ** rng.uniform(-3, 7))))
    return windows


def test_split_assigns_points_near_edges_to_the_batch_their_edges_give():
    # the eight floats around each batch edge start and end pieces; the
    # edges are the package's, so the oracle and the replications agree
    for warmup, horizon in near_edge_windows():
        batch_len = (horizon - warmup) / N_BATCHES
        edges = _batch_edges(warmup, horizon)[1:-1]
        assert edges == [warmup + k * batch_len for k in range(1, N_BATCHES)]
        points = set()
        for edge in edges:
            below = above = edge
            points.add(edge)
            for _ in range(4):
                below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                points.update((below, above))
        points = sorted(p for p in points if warmup <= p < horizon)
        for i, lo in enumerate(points):
            for hi in (math.nextafter(lo, math.inf), *points[i + 4:i + 5], horizon):
                pieces = list(_split(lo, hi, warmup, horizon, batch_len))
                batches = [b for b, _ in pieces]
                first = bisect.bisect_right(edges, lo)
                last = bisect.bisect_right(edges, math.nextafter(hi, -math.inf))
                assert batches == list(range(first, last + 1)), (warmup, horizon, lo, hi)
                assert all(seg >= 0.0 for _, seg in pieces), (warmup, horizon, lo, hi)
                assert math.fsum(seg for _, seg in pieces) == pytest.approx(
                    hi - lo, rel=1e-12, abs=0.0
                ), (warmup, horizon, lo, hi)


def on_event_times(params, seed):
    """A config whose warmup and horizon fall exactly on event times of its
    own path, 20 events apart, with no other event in the first batch: the
    event at warmup leaves its level before any time passes, so that level
    must not count in the first batch."""
    ends, _ = replay_path(params, SimConfig(seed=seed, warmup=0.0, horizon=20000.0), 0)
    i = next(
        i for i in range(100, len(ends))
        if ends[i + 1] - ends[i] > (ends[i + N_BATCHES] - ends[i]) / N_BATCHES
    )
    return SimConfig(seed=seed, warmup=ends[i], horizon=ends[i + N_BATCHES])


SLOW = SystemParams(t_call=1e5, t_service=1.5e5, servers=2)
REPLAYS = {
    "ordinary": (REFERENCE, SHORT),
    # a real-valued window and more calls than vehicles at the start
    "start above M": (REFERENCE, SimConfig(seed=5, warmup=1000.1, horizon=20000.3, start_state=40)),
    "warmup 0, start above M": (REFERENCE, SimConfig(seed=9, warmup=0.0, horizon=30000.0, start_state=20)),
    "unstable": (
        SystemParams(t_call=15, t_service=50, servers=3),
        SimConfig(seed=2, warmup=100.0, horizon=20100.0),
    ),
    "segments span batches": (
        SystemParams(t_call=3000, t_service=2000, servers=2),
        SimConfig(seed=4, warmup=1000.1, horizon=20000.3, start_state=2),
    ),
    # a window of 81 ulps: the edges round unevenly, 4 or 5 ulps apart
    "rounded edges": (SLOW, SimConfig(seed=3, warmup=3e7, horizon=30000000.0000003, start_state=3)),
    # a window of 8 ulps: the edges round onto shared floats, so some batches are empty
    "repeated edges": (SLOW, SimConfig(seed=6, warmup=3e7, horizon=3e7 + 8 * 2.0**-28, start_state=1)),
    "events on warmup and horizon": (REFERENCE, on_event_times(REFERENCE, 13)),
}


def assert_same_histograms(histograms, reference):
    """Each batch's histogram spans exactly the levels the reference batch
    spent time at and holds exactly its time at each level. (The reference
    may also hold a zero-length piece in a batch whose edges are equal.)"""
    assert len(histograms) == len(reference)
    for b, ((lo, occ), ref) in enumerate(zip(histograms, reference)):
        visited = [n for n, time in ref.items() if time > 0.0]
        assert (lo, lo + occ.size - 1) == (min(visited, default=0), max(visited, default=-1)), b
        for n in set(ref) | set(range(lo, lo + occ.size)):
            got = float(occ[n - lo]) if lo <= n < lo + occ.size else 0.0
            assert got == ref.get(n, 0.0), (b, n)


@pytest.mark.parametrize("assignment, collect_waits", [("random", False), ("least_index", True)])
@pytest.mark.parametrize("name", list(REPLAYS))
def test_replication_tallies_match_the_replayed_path(name, assignment, collect_waits):
    # the loop's own tallies against the whole path replayed from the same
    # draws and tallied afterwards: the same bits, since both add each
    # level's time, the completions and the waits in time order
    params, config = REPLAYS[name]
    cfg = config.resolved(params)
    result = _run_fcfs_replication(params, cfg, 0, 30.0, assignment, collect_waits)
    ends, levels = replay_path(params, cfg, 0)
    departures, queued = path_departures_and_waits(ends, levels, params.servers)
    assert_same_histograms(
        result.histograms, split_histograms(0.0, ends, levels, cfg.warmup, cfg.horizon)
    )
    _, completions, wait_count, wait_sum, wait_below = batch_tallies(
        ends, levels, departures, queued, cfg.warmup, cfg.horizon, 30.0
    )
    assert result.completions == completions
    assert result.wait_count == wait_count
    assert result.wait_sum == wait_sum
    assert result.wait_below == wait_below
    if collect_waits:
        # each call that arrives after warmup, in arrival order, which FCFS
        # keeps: 0.0 if a vehicle was idle, else its queued wait, up to the
        # first call still queued at the horizon
        calls = [
            0.0 if n < params.servers else None
            for t, n, after in zip(ends, levels, levels[1:])
            if after > n and t >= cfg.warmup
        ]
        initial = max(cfg.start_state - params.servers, 0)
        served = iter([wait for arrival, wait in queued[initial:] if arrival >= cfg.warmup])
        log = list(itertools.takewhile(
            lambda w: w is not None, (next(served, None) if w is None else w for w in calls)
        ))
        assert result.waits.tolist() == log
    else:
        assert len(result.waits) == 0


@pytest.mark.parametrize("assignment", ["random", "least_index"])
@pytest.mark.parametrize("name", list(REPLAYS))
def test_vehicle_busy_times_match_the_two_list_replay(name, assignment):
    # the one vehicle list and busy time booked from the warmup against two
    # lists and spans clipped to the window, on the same draws: the same bits
    params, config = REPLAYS[name]
    cfg = config.resolved(params)
    result = _run_fcfs_replication(params, cfg, 0, 30.0, assignment, False)
    assert result.busy == replay_busy(params, cfg, 0, assignment)[0]


def with_pick_scale(monkeypatch, factor):
    """The loop's pick factors times ``factor``, so that picks land at or
    past the end of their list."""

    def scaled(lam, mu, m):
        scale, p_arrival, pick_idle, pick_busy = _rate_tables(lam, mu, m)
        return scale, p_arrival, [x * factor for x in pick_idle], [x * factor for x in pick_busy]

    monkeypatch.setattr("ambuq.simulate._rate_tables", scaled)


def test_picks_at_or_past_the_list_end_take_the_last_vehicle(monkeypatch):
    params, config = REPLAYS["start above M"]
    cfg = config.resolved(params)
    # twice the factors: about half the picks land at or past the end
    with_pick_scale(monkeypatch, 2.0)
    busy = _run_fcfs_replication(params, cfg, 0, 30.0, "random", False).busy
    expected, edge_picks = replay_busy(params, cfg, 0, "random", pick_scale=2.0)
    assert busy == expected
    assert all(edge_picks[kind, where] > 0 for kind in ("idle", "busy") for where in ("at", "past"))
    # far past the end every pick takes its list's last vehicle, so both
    # lists are stacks: from a start with every vehicle busy, vehicle i is
    # the (i + 1)-th busy one, busy exactly while n > i
    with_pick_scale(monkeypatch, 2.0**40)
    busy = _run_fcfs_replication(params, cfg, 0, 30.0, "random", False).busy
    expected, edge_picks = replay_busy(params, cfg, 0, "random", pick_scale=2.0**40)
    assert busy == expected
    assert edge_picks["idle", "past"] > 100 and edge_picks["busy", "past"] > 100
    histograms = split_histograms(0.0, *replay_path(params, cfg, 0), cfg.warmup, cfg.horizon)
    m = params.servers
    for i in range(m):
        busy_while = sum(time for occ in histograms for n, time in occ.items() if n > i)
        assert busy[i] == pytest.approx(busy_while, rel=1e-12)


def with_draw_block(monkeypatch, size):
    """The loop and the replay both take their draws in blocks of ``size``."""
    monkeypatch.setattr("ambuq.simulate._DRAW_BLOCK", size)
    monkeypatch.setattr("oracles._DRAW_BLOCK", size)


@pytest.mark.parametrize("name", ["ordinary", "rounded edges", "start above M", "segments span batches"])
@pytest.mark.parametrize("size", [1, 7, 10**6])
def test_path_fold_matches_the_split_reference(monkeypatch, name, size):
    # the loop books each batch as the draws come, so where a draw block
    # ends must not show in its histograms: one draw pair a block, a block
    # that ends inside every batch, and one block for the whole path
    with_draw_block(monkeypatch, size)
    params, config = REPLAYS[name]
    cfg = config.resolved(params)
    histograms = _run_fcfs_replication(params, cfg, 0, 30.0, "random", False).histograms
    reference = split_histograms(0.0, *replay_path(params, cfg, 0), cfg.warmup, cfg.horizon)
    assert_same_histograms(histograms, reference)
    # sums over levels are taken in another order, so they may differ in the last bits
    for (lo_n, occ), ref in zip(histograms, reference):
        levels_b = np.arange(lo_n, lo_n + occ.size)
        assert occ.sum() == pytest.approx(sum(ref.values()), rel=1e-14, abs=0.0)
        assert (levels_b * occ).sum() == pytest.approx(
            sum(n * t for n, t in ref.items()), rel=1e-14, abs=0.0
        )


def test_fcfs_path_matches_the_split_reference_across_flushes(monkeypatch):
    # a real-valued window, more calls than servers at the start, and a new
    # draw block every 50 events, run through simulate_stationary; the
    # reference splits the whole replayed path in one go
    with_draw_block(monkeypatch, 50)
    results = []
    run = _run_fcfs_replication

    def recording(*args):
        results.append(run(*args))
        return results[-1]

    monkeypatch.setattr("ambuq.simulate._run_fcfs_replication", recording)
    config = SimConfig(seed=5, warmup=1000.1, horizon=20000.3, start_state=15)
    simulate_stationary(REFERENCE, config)
    (result,) = results
    ends, levels = replay_path(REFERENCE, config, 0)
    assert len(ends) > 20 * 50
    assert_same_histograms(result.histograms, split_histograms(0.0, ends, levels, 1000.1, 20000.3))
    # every departure after warmup is one completion in the batch enclosing it
    departures = [t for t, n, after in zip(ends, levels, levels[1:]) if after < n and t >= 1000.1]
    edges = _batch_edges(1000.1, 20000.3)
    expected = [sum(edges[b] <= t < edges[b + 1] for t in departures) for b in range(N_BATCHES)]
    assert result.completions == expected


@pytest.mark.parametrize(
    "servers, rho, start_state",
    # ordinary; rarely saturated, so some batches never reach M; one vehicle;
    # a queue growing far past M + 10 from a start above it
    [(6, 0.8, 0), (12, 0.3, 0), (1, 0.7, 0), (3, 1.3, 30)],
)
def test_occupancy_estimates_match_the_per_quantity_route(servers, rho, start_state):
    params = SystemParams(t_call=1.0, t_service=rho * servers, servers=servers)
    config = SimConfig(seed=91, replications=2, warmup=50.0, horizon=2050.0, start_state=start_state)
    cfg = config.resolved(params)
    results = [_run_fcfs_replication(params, cfg, rep, 30.0, "random", False) for rep in range(2)]
    batch_len = 2000.0 / N_BATCHES
    assert _occupancy_estimates(results, servers, batch_len, 91) == occupancy_estimates_per_quantity(
        results, servers, batch_len, 91
    )


def test_occupancy_estimates_match_the_per_quantity_route_on_edge_histograms():
    # a batch straddling M + 10, one wholly above it, one never occupied,
    # and histograms that never reach M at all, with no queued wait
    histograms = [
        (14, np.array([1.0, 2.0, 3.0])),
        (30, np.array([0.5, 4.0])),
        (0, np.array([7.0, 1.0])),
        (2, np.array([0.25])),
    ]
    tallies = ([3, 0, 5, 1], [2, 1, 0, 0], [7.5, 0.25, 0.0, 0.0], [1, 1, 0, 0])
    whole = _Replication(histograms, *tallies, [], array("d"))
    tail = _Replication(histograms[2:], *(tally[2:] for tally in tallies), [], array("d"))
    for results in ([whole, whole], [whole], [tail]):
        expected = occupancy_estimates_per_quantity(results, 5, 10.0, 3)
        assert _occupancy_estimates(results, 5, 10.0, 3) == expected
    # the tail has no occupied batch and no queued wait: those go unestimated
    assert "cond_queue_0" not in expected[0] and "wait_mean_conditional" not in expected[0]
    assert "cond_queue_0" in occupancy_estimates_per_quantity([whole], 5, 10.0, 3)[0]


def test_stationary_memory_does_not_grow_with_the_run():
    # tracemalloc makes each event about ten times dearer, so the runs are
    # short: 1.25e4 and 5e4 events at two events a minute
    params = SystemParams(t_call=1, t_service=5, servers=6)
    simulate_stationary(params, SimConfig(seed=1, warmup=10.0, horizon=100.0))
    peaks = []
    for horizon in (6250.0, 25000.0):
        tracemalloc.start()
        try:
            simulate_stationary(params, SimConfig(seed=1, warmup=100.0, horizon=horizon))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize(
    "servers, config, assignment",
    [
        (6, SHORT, "random"),
        (6, SHORT, "least_index"),
        (6, SimConfig(seed=31, replications=2, warmup=500.0, horizon=20500.0, start_state=15), "random"),
        (3, SimConfig(seed=2, replications=1, warmup=100.0, horizon=20100.0, start_state=1), "random"),
    ],
)
def test_server_busy_spans_match_the_occupancy_path(servers, config, assignment):
    # each server's service spans, clipped to the measurement window, add up
    # to the min(n, M) busy servers read off the occupancy histogram; the
    # last case is unstable (rho = 10/9)
    params = SystemParams(t_call=15, t_service=50, servers=servers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = simulate_stationary(params, config, t_los=30.0, assignment=assignment)
    from_spans = sum(result.per_server_busy) / servers
    assert from_spans == pytest.approx(result.estimates["p_busy_per_server"].value, rel=1e-12)


def test_stationary_run_over_the_event_budget_is_refused(time_limit):
    with time_limit(1):
        # about 2e12 events at one arrival and one departure a minute
        with pytest.raises(ParameterError, match=EVENTS_OVER):
            simulate_stationary(
                SystemParams(t_call=1, t_service=1, servers=2),
                SimConfig(seed=1, warmup=0.0, horizon=1e12),
            )
        # every initial call is one event at least
        with pytest.raises(ParameterError, match=EVENTS_OVER):
            simulate_stationary(
                REFERENCE,
                SimConfig(seed=1, replications=3, warmup=0.0, horizon=1000.0, start_state=5 * 10**6),
            )
        # and every replication one draw block and 20 M occupancy bins,
        # however short its horizon
        with pytest.raises(ParameterError, match=EVENTS_OVER):
            simulate_stationary(
                REFERENCE, SimConfig(seed=1, replications=10**7, warmup=0.0, horizon=1e-3)
            )
        with pytest.raises(ParameterError, match=EVENTS_OVER):
            simulate_stationary(
                SystemParams(t_call=1, t_service=1, servers=10**6),
                SimConfig(seed=1, warmup=0.0, horizon=10.0),
            )
        with pytest.raises(ParameterError, match="start_state"):
            SimConfig(seed=1, start_state=MAX_FCFS_EVENTS + 1)


def test_wait_log_over_the_row_cap_is_refused(time_limit):
    params = SystemParams(t_call=1, t_service=1, servers=2)
    config = SimConfig(seed=1, warmup=0.0, horizon=2 * MAX_CSV_ROWS)
    with time_limit(1):
        with pytest.raises(
            ParameterError, match=r"^wait log rows: about 2e\+06, more than the cap of 1000000$"
        ):
            simulate_stationary(params, config, collect_waits=True)


def test_window_too_short_to_batch_is_refused():
    # (5e-324 - 0) / 20 underflows to a zero batch length
    with pytest.raises(ParameterError, match="horizon must exceed warmup"):
        SimConfig(seed=1, warmup=0.0, horizon=5e-324).resolved(REFERENCE)


def test_stationary_estimates_match_analytics():
    result = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    profile = stationary_profile(REFERENCE)
    d = derive(REFERENCE)
    rate = (1.0 - d.rho) * 6 / 50
    checks = {
        "p_occup": p_occupation(REFERENCE),
        "throughput": REFERENCE.arrival_rate,
        "wait_mean_conditional": mean_wait(REFERENCE),
        "wait_cdf_at_t_los": 1.0 - math.exp(-rate * 30.0),
        "p_busy_per_server": d.rho,
        "mean_queue_len_conditional": queue_stats(REFERENCE).mean_len,
    }
    for n in range(12):
        checks[f"pi_{n}"] = profile.pi(n)
    for k in range(6):
        checks[f"cond_queue_{k}"] = queue_conditional_pmf(REFERENCE, k)
    for name, reference in checks.items():
        estimate = result.estimates[name]
        assert abs(zscore(estimate, reference)) < 3.0, name
        assert estimate.n_samples >= 2


def test_every_level_estimate_has_an_analytic_counterpart():
    result = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    levels = {name for name in result.estimates if name.startswith(("pi_", "cond_queue_"))}
    assert len(levels) == (REFERENCE.servers + _PI_DEPTH + 1) + (_QUEUE_DEPTH + 1)
    assert levels <= {name for name, *_ in compare(REFERENCE, result.estimates)}


def test_stationary_batches_and_servers():
    result = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    assert result.estimates["p_occup"].n_samples == 20
    assert len(result.per_server_busy) == 6
    assert len(result.batch_queue_means) == 20
    # all servers see statistically similar load under random assignment
    spread = max(result.per_server_busy) - min(result.per_server_busy)
    assert spread < 0.05


def test_stationary_deterministic_across_workers():
    base = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    again = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    assert base.estimates == again.estimates
    assert base.per_server_busy == again.per_server_busy
    # two replications of over 17400 events each, enough for two processes
    cfg = SimConfig(seed=7, replications=2, warmup=1000.0, horizon=131000.0)
    assert FORK_MIN_EVENTS < 131000.0 * 2 / 15
    serial = simulate_stationary(REFERENCE, cfg, workers=1)
    shared = simulate_stationary(REFERENCE, cfg, workers=2)
    assert serial.estimates == shared.estimates
    assert serial.per_server_busy == shared.per_server_busy
    assert serial.batch_queue_means == shared.batch_queue_means


def test_stationary_multi_replication_merge():
    cfg = SimConfig(seed=19, replications=3, warmup=1000.0, horizon=51000.0)
    result = simulate_stationary(REFERENCE, cfg, t_los=30.0)
    assert result.estimates["p_occup"].n_samples == 60
    again = simulate_stationary(REFERENCE, cfg, t_los=30.0)
    assert result.estimates == again.estimates


def test_least_index_policy_shares_the_occupancy_path():
    random_run = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    ranked_run = simulate_stationary(REFERENCE, SHORT, t_los=30.0, assignment="least_index")
    for n in range(12):
        assert random_run.estimates[f"pi_{n}"] == ranked_run.estimates[f"pi_{n}"]
    assert random_run.estimates["wait_mean_conditional"] == ranked_run.estimates["wait_mean_conditional"]
    # but the load concentrates on low-index servers
    assert ranked_run.per_server_busy[0] > ranked_run.per_server_busy[-1] + 0.1
    with pytest.raises(ParameterError):
        simulate_stationary(REFERENCE, SHORT, assignment="round_robin")


def test_fcfs_and_jump_chain_agree():
    # the package steps the occupancy jump chain; the oracle runs the FCFS
    # system with a heap of drawn service ends
    fcfs = simulate_heap_fcfs(REFERENCE, SimConfig(seed=23, replications=1, warmup=2500.0, horizon=202500.0))
    jump = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    for n in range(12):
        a = fcfs.estimates[f"pi_{n}"]
        b = jump.estimates[f"pi_{n}"]
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 3.0 * combined, n


def test_heap_fcfs_oracle_matches_analytics():
    heap = simulate_heap_fcfs(REFERENCE, SimConfig(seed=29, replications=1, warmup=2500.0, horizon=402500.0))
    profile = stationary_profile(REFERENCE)
    for n in range(12):
        assert abs(zscore(heap.estimates[f"pi_{n}"], profile.pi(n))) < 3.0, n


def run_recording_busy(run, params, config, **kwargs):
    """simulate_stationary with each replication run by ``run``: the result
    and each replication's per-vehicle busy fractions, one row each."""
    rows = []

    def recording(*args):
        result = run(*args)
        rows.append(result.busy)
        return result

    with mock.patch("ambuq.simulate._run_fcfs_replication", recording):
        result = simulate_stationary(params, config, **kwargs)
    cfg = config.resolved(params)
    return result, np.array(rows) / (cfg.horizon - cfg.warmup)


@pytest.mark.parametrize(
    "servers, rho, start_state, assignment",
    [
        (6, 0.5, 0, "random"),
        (6, 0.8, 0, "least_index"),
        (3, 0.9, 20, "random"),  # more calls than vehicles at the start
        (12, 0.95, 40, "least_index"),
    ],
)
def test_occupancy_chain_matches_the_heap_oracle(servers, rho, start_state, assignment):
    # the package's birth-death chain against FCFS with drawn service times
    # and a heap of service ends, on independent streams
    params = SystemParams(t_call=1.0, t_service=rho * servers, servers=servers)
    window = 1500.0 / (1.0 - rho)  # 20 batches, each about one relaxation time at rho = 0.95
    config = SimConfig(
        seed=61, replications=8, warmup=window / 10, horizon=window * 1.1, start_state=start_state
    )
    chain, chain_busy = run_recording_busy(_run_fcfs_replication, params, config, assignment=assignment)
    heap, heap_busy = run_recording_busy(
        run_heap_fcfs_replication, params, replace(config, seed=62), assignment=assignment
    )
    names = [f"pi_{n}" for n in range(servers + 6)] + ["p_occup", "wait_mean_conditional"]
    for name in names:
        a, b = chain.estimates[name], heap.estimates[name]
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.std_error, b.std_error), name
    se = np.hypot(chain_busy.std(axis=0, ddof=1), heap_busy.std(axis=0, ddof=1)) / math.sqrt(8)
    gap = np.abs(chain_busy.mean(axis=0) - heap_busy.mean(axis=0))
    assert (gap <= 3.0 * se).all(), (gap / se).round(2).tolist()
    assert chain_busy.mean(axis=0).sum() == pytest.approx(rho * servers, rel=0.05)


def test_random_assignment_matches_the_heap_oracle_from_an_empty_fleet():
    # over the first two minutes each vehicle is as likely as any other to
    # take the first calls; long-run busy times are equal by symmetry even
    # under a biased pick, so only the transient shows the pick's law
    params = SystemParams(t_call=1.0, t_service=3.0, servers=6)
    config = SimConfig(seed=81, replications=200, warmup=0.0, horizon=2.0)
    _, chain_busy = run_recording_busy(_run_fcfs_replication, params, config)
    _, heap_busy = run_recording_busy(run_heap_fcfs_replication, params, replace(config, seed=82))
    se = np.hypot(chain_busy.std(axis=0, ddof=1), heap_busy.std(axis=0, ddof=1)) / math.sqrt(200)
    gap = np.abs(chain_busy.mean(axis=0) - heap_busy.mean(axis=0))
    assert (gap <= 3.0 * se).all(), (gap / se).round(2).tolist()


def test_occupancy_chain_waits_match_the_heap_oracle_in_distribution():
    # consecutive waits are correlated, so only every 80th logged call,
    # about one relaxation time apart at rho = 0.8, enters the test
    params = SystemParams(t_call=1.0, t_service=3.2, servers=4)
    config = SimConfig(seed=71, replications=1, warmup=500.0, horizon=180500.0)
    chain = simulate_stationary(params, config, collect_waits=True)
    heap = simulate_heap_fcfs(params, replace(config, seed=72), collect_waits=True)
    chain_waits = chain.waits[::80].tolist()
    heap_waits = heap.waits[::80].tolist()
    assert min(len(chain_waits), len(heap_waits)) > 2000
    assert ks_2samp(chain_waits, heap_waits).pvalue > 0.01
    # the queued calls alone, without the atom of immediate dispatches
    queued = ks_2samp([w for w in chain_waits if w > 0.0], [w for w in heap_waits if w > 0.0])
    assert queued.pvalue > 0.01


def test_unstable_run_warns_and_grows():
    params = SystemParams(t_call=15, t_service=50, servers=3)
    cfg = SimConfig(seed=2, replications=1, warmup=100.0, horizon=20100.0)
    with pytest.warns(UserWarning, match="no steady state"):
        result = simulate_stationary(params, cfg, t_los=30.0)
    assert result.batch_queue_means[-1] > result.batch_queue_means[0]


def test_wait_collection():
    result = simulate_stationary(REFERENCE, SHORT, t_los=30.0, collect_waits=True)
    waits = result.waits
    # one 8-byte float per logged call, in call order
    assert isinstance(waits, array) and waits.typecode == "d" and len(waits) > 1000
    assert all(w >= 0.0 for w in waits)
    share_waiting = sum(1 for w in waits if w > 0.0) / len(waits)
    assert share_waiting == pytest.approx(p_occupation(REFERENCE), abs=0.02)
    plain = simulate_stationary(REFERENCE, SHORT, t_los=30.0)
    assert plain.waits is None


def test_start_state_seeding():
    cfg = SimConfig(seed=31, replications=1, warmup=500.0, horizon=50500.0, start_state=9)
    result = simulate_stationary(REFERENCE, cfg, t_los=30.0)
    assert abs(zscore(result.estimates["p_occup"], p_occupation(REFERENCE))) < 3.0
