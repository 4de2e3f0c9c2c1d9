"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed assertion shows up as the usual pytest FAILED line.
The Monte-Carlo criteria use pinned seeds and take a couple of minutes.
"""

import itertools
import math
import os

import numpy as np
import pytest

from ambuq import (
    SimConfig,
    SystemParams,
    derive,
    level_of_service,
    mean_wait,
    mfpt_critical_profile,
    mfpt_sweep,
    min_fleet,
    p_occupation,
    p_server_busy,
    queue_conditional_pmf,
    queue_stats,
    simulate_hitting_time,
    simulate_stationary,
    SizingQuery,
    stability_bound,
    stationary_profile,
    throughput,
)
from ambuq.cli import STATIONARY_CSV_HEADER, SWEEP_CSV_HEADER, main

from oracles import (
    RateLadder,
    busy_fraction_summed,
    mfpt_general,
    mfpt_linear_solve,
    saturation_times_closed_form,
    stationary_general,
    suggested_truncation,
    wait_mixture_density,
)

REFERENCE = SystemParams(t_call=15, t_service=50, servers=6)


def params_for_rho(rho, servers=6, t_service=50.0):
    return SystemParams(t_call=t_service / (servers * rho), t_service=t_service, servers=servers)


def _pass(number, message):
    print(f"\n[criterion {number}] PASS: {message}")


def test_criterion_1_occupation_probability():
    value = p_occupation(REFERENCE)
    assert abs(value - 0.1482) <= 0.0005
    _pass(1, f"P(occup) = {value:.6f} = 0.1482 +- 0.0005 at t_call=15, t_service=50, M=6")


def test_criterion_2_saturation_time_thresholds():
    rows = mfpt_sweep(50.0, [6, 7], [16.0, 13.2])
    by_key = {(m, round(tc, 6)): mean for tc, m, mean in rows}
    six = by_key[(6, 16.0)]
    seven = by_key[(7, 13.2)]
    assert 456.0 <= six <= 504.0
    assert 456.0 <= seven <= 504.0
    _pass(2, f"<T>(t_call=16, M=6) = {six:.1f} min and <T>(t_call=13.2, M=7) = {seven:.1f} min, both in [456, 504]")


def test_criterion_3_intensity_anchors_and_stability():
    rho4 = derive(SystemParams(t_call=15, t_service=50, servers=4)).rho
    rho10 = derive(SystemParams(t_call=15, t_service=50, servers=10)).rho
    assert abs(rho4 - 0.8333) <= 0.0005
    assert abs(rho10 - 0.3333) <= 0.0005
    result = min_fleet(15, 50, SizingQuery(kind="stability"))
    assert result.m == 4 == stability_bound(15, 50)
    assert derive(SystemParams(t_call=15, t_service=50, servers=3)).rho >= 1.0
    _pass(3, f"rho(M=4) = {rho4:.4f}, rho(M=10) = {rho10:.4f}, minimum stable fleet = {result.m}")


def test_criterion_4_saturation_time_oracle_equivalence():
    worst = 0.0
    for servers in range(1, 31):
        for gamma in (0.1, 0.32, 1.0, 3.0):
            params = SystemParams(t_call=10.0, t_service=10.0 / gamma, servers=servers)
            ladder = RateLadder.for_fleet(params)
            closed = saturation_times_closed_form(params)
            solved = mfpt_linear_solve(ladder, servers + 1)
            production = mfpt_critical_profile(params).times
            for n in range(servers + 1):
                general = mfpt_general(ladder, n, servers + 1)
                scale = abs(general)
                routes = (closed[n], general, solved[n], production[n])
                worst = max(
                    worst,
                    *(abs(a - b) / scale for a, b in itertools.combinations(routes, 2)),
                )
    assert worst <= 1e-9

    single = SystemParams(t_call=2.0, t_service=2.0, servers=1)
    mc_single = simulate_hitting_time(single, 0, SimConfig(seed=301, replications=100000))
    ref_single = mfpt_critical_profile(single).times[0]
    z_single = (mc_single.value - ref_single) / mc_single.std_error
    assert abs(z_single) <= 3.0

    fleet = SystemParams(t_call=16, t_service=50, servers=6)
    per_start = [
        simulate_hitting_time(fleet, n, SimConfig(seed=400 + n, replications=14286))
        for n in range(7)
    ]
    mc_mean = sum(e.value for e in per_start) / 7
    mc_se = math.sqrt(sum(e.std_error**2 for e in per_start)) / 7
    ref_mean = mfpt_critical_profile(fleet).mean_time
    z_fleet = (mc_mean - ref_mean) / mc_se
    assert abs(z_fleet) <= 3.0
    _pass(
        4,
        f"closed/general/tridiagonal/recurrence agree to {worst:.2e} rel over M=1..30 x 4 rate ratios; "
        f"Monte-Carlo z = {z_single:+.2f} (single server) and {z_fleet:+.2f} (fleet average), both within 3 SE",
    )


def test_criterion_5_stationary_oracle_equivalence():
    worst_pi = 0.0
    for servers in (1, 3, 6, 12):
        for rho in (0.3, 5 / 9, 0.9):
            params = params_for_rho(rho, servers)
            profile = stationary_profile(params)
            general = stationary_general(RateLadder.for_fleet(params), suggested_truncation(params))
            for n, value in enumerate(general):
                worst_pi = max(worst_pi, abs(value - profile.pi(n)))
    assert worst_pi <= 1e-10

    worst_occ = 0.0
    for servers in range(1, 31):
        params = SystemParams(t_call=15, t_service=50, servers=servers)
        if derive(params).rho >= 1.0:
            continue
        profile = stationary_profile(params)
        direct = profile.head[-1] / (1.0 - profile.tail_ratio)
        worst_occ = max(worst_occ, abs(p_occupation(params) - direct))
    assert worst_occ <= 1e-12

    config = SimConfig(seed=3, replications=1, warmup=5000.0, horizon=1005000.0)
    result = simulate_stationary(REFERENCE, config, t_los=30.0)
    profile = stationary_profile(REFERENCE)
    rate = (1.0 - derive(REFERENCE).rho) * 6 / 50
    targets = {f"pi_{n}": profile.pi(n) for n in range(12)}
    targets.update({f"cond_queue_{k}": queue_conditional_pmf(REFERENCE, k) for k in range(11)})
    targets["p_occup"] = profile.p_occup
    targets["wait_mean_conditional"] = mean_wait(REFERENCE)
    targets["wait_cdf_at_t_los"] = 1.0 - math.exp(-rate * 30.0)
    worst_z = 0.0
    for name, reference in targets.items():
        estimate = result.estimates[name]
        z = (estimate.value - reference) / estimate.std_error
        worst_z = max(worst_z, abs(z))
        assert abs(z) <= 3.0, (name, z)
    wait_est = result.estimates["wait_mean_conditional"]
    assert abs(wait_est.value - 18.75) <= 3.0 * wait_est.std_error
    _pass(
        5,
        f"product form vs closed form {worst_pi:.2e} abs; recurrence vs direct occupation "
        f"{worst_occ:.2e}; 1e6-minute simulation worst |z| = {worst_z:.2f} over "
        f"{len(targets)} quantities",
    )


def test_criterion_6_exact_identities():
    worst_little = worst_busy = worst_flow = 0.0
    for servers in (1, 2, 5, 9, 17, 30):
        for rho in (0.1, 0.3, 0.5556, 0.8, 0.95):
            params = params_for_rho(rho, servers)
            d = derive(params)
            worst_little = max(
                worst_little,
                abs(mean_wait(params) - queue_stats(params).mean_len / params.arrival_rate),
            )
            worst_busy = max(worst_busy, abs(busy_fraction_summed(params) - d.rho))
            worst_flow = max(worst_flow, abs(throughput(params) - params.arrival_rate))
    assert worst_little <= 1e-12
    assert worst_busy <= 1e-12
    assert worst_flow <= 1e-12
    _pass(
        6,
        f"Little identity ({worst_little:.2e}), busy fraction = intensity ({worst_busy:.2e}), "
        f"throughput = arrival rate ({worst_flow:.2e}), all within 1e-12 across the grid",
    )


def test_criterion_7_mixture_reduction():
    worst = 0.0
    for rho in (0.3, 0.5556, 0.9):
        params = params_for_rho(rho)
        grid = np.linspace(0.0, 10.0 * mean_wait(params), 50)
        rate = (1.0 - derive(params).rho) * 6 / 50
        for t in grid:
            mixture = wait_mixture_density(float(t), params, k_max=200)
            closed = rate * math.exp(-rate * float(t))
            worst = max(worst, abs(mixture - closed))
    assert worst <= 1e-10
    _pass(7, f"200-term mixture vs exponential closed form: worst |diff| = {worst:.2e} <= 1e-10")


def test_criterion_8_figure_data_regeneration(tmp_path):
    # saturation-time curves (mean time vs call spacing, one curve per fleet)
    fig2 = tmp_path / "fig2"
    assert main([
        "mfpt", "--t-call", "16", "--t-service", "50", "--servers", "5..9",
        "--t-call-grid", "10..40:0.2", "--out-dir", str(fig2),
    ]) == 0
    lines = (fig2 / "mfpt_sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + 151 * 5
    table = {}
    for line in lines[1:]:
        tc, m, mean = line.split(",")
        table[(int(m), float(tc))] = float(mean)
    assert 456.0 <= table[(6, 16.0)] <= 504.0
    assert 456.0 <= table[(7, 13.2)] <= 504.0

    # stationary occupancy dumps for five and seven vehicles
    fig3 = tmp_path / "fig3"
    assert main([
        "analyze", "--t-call", "15", "--t-service", "50", "--servers", "5,7",
        "--stationary-csv", "--out-dir", str(fig3),
    ]) == 0
    for m in (5, 7):
        rows = (fig3 / f"stationary_M{m}.csv").read_text().splitlines()
        assert rows[0] == STATIONARY_CSV_HEADER
        profile = stationary_profile(SystemParams(t_call=15, t_service=50, servers=m))
        for line in rows[1:6]:
            n, pi_n = line.split(",")
            assert float(pi_n) == pytest.approx(profile.pi(int(n)), rel=1e-12)

    # queue length, busy/occupation probabilities, and level of service vs
    # fleet size; several thresholds cover the multi-curve service figure
    los_by_threshold = {}
    for t_los in (10.0, 30.0, 60.0):
        out = tmp_path / f"fleet_tlos{int(t_los)}"
        assert main([
            "analyze", "--t-call", "15", "--t-service", "50", "--servers", "4..10",
            "--t-los", str(t_los), "--out-dir", str(out),
        ]) == 0
        lines = (out / "service_summary.csv").read_text().splitlines()
        assert lines[0] == (
            "servers,rho,p_occup,p_busy,los,one_minus_los,mean_queue_len,std_queue_len,mean_wait_min"
        )
        assert len(lines) == 8
        for line in lines[1:]:
            parts = line.split(",")
            m = int(parts[0])
            params = SystemParams(t_call=15, t_service=50, servers=m)
            stats = queue_stats(params)
            assert float(parts[1]) == pytest.approx(derive(params).rho, rel=1e-12)
            assert float(parts[2]) == pytest.approx(p_occupation(params), rel=1e-12)
            assert float(parts[3]) == pytest.approx(p_server_busy(params), rel=1e-12)
            assert float(parts[4]) == pytest.approx(level_of_service(params, t_los), rel=1e-12)
            assert float(parts[6]) == pytest.approx(stats.mean_len, rel=1e-12)
            assert float(parts[7]) == pytest.approx(stats.std_len, rel=1e-12)
            los_by_threshold[(t_los, m)] = float(parts[4])

    assert los_by_threshold[(30.0, 6)] >= 0.90
    _pass(
        8,
        "regenerated saturation sweep, occupancy dumps, and fleet-size service tables; "
        f"LOS(M=6, 30 min) = {los_by_threshold[(30.0, 6)]:.4f} >= 0.90",
    )


def test_criterion_9_simulation_determinism(tmp_path, monkeypatch):
    # four replications of about 17300 events each, so --workers 4 shares them
    # among four processes; the CPU count is pinned so that holds on any host
    args = [
        "simulate", "--t-call", "15", "--t-service", "50", "--servers", "6",
        "--seed", "42", "--replications", "4", "--warmup", "1000", "--horizon-min", "121000",
    ]
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    out_a, out_b, out_c = (tmp_path / name for name in ("a", "b", "c"))
    assert main(args + ["--workers", "1", "--out-dir", str(out_a)]) == 0
    assert main(args + ["--workers", "1", "--out-dir", str(out_b)]) == 0
    assert forks == []
    assert main(args + ["--workers", "4", "--out-dir", str(out_c)]) == 0
    assert len(forks) == 3, "--workers 4 must run three replications in forked processes"
    bytes_a = (out_a / "sim.json").read_bytes()
    assert bytes_a == (out_b / "sim.json").read_bytes(), "same seed must reproduce byte-identical JSON"
    assert bytes_a == (out_c / "sim.json").read_bytes(), "worker count must not change estimates"
    _pass(9, "repeated and differently-parallelized runs emit byte-identical sim.json")
