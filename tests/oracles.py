"""Independent reference computations used only by the tests.

Each helper deliberately takes a different route from the library code it
checks: a full dense solve instead of banded elimination, exact rational
arithmetic instead of floating recurrences, raw series summation instead
of closed forms, the nested closed form instead of the one-term recurrence,
the summed stationary average instead of the identity it collapses to,
one scalar walk per replication instead of walks run in lockstep.
"""

import math
from fractions import Fraction

import numpy as np

from ambuq import derive, gamma_wait_density, queue_conditional_pmf
from ambuq.simulate import _Draws, _stream


def hitting_times_dense(ladder, target):
    """Mean hitting times of `target` from starts 0..target-1, dense solve.

    Builds the full balance system (up_n + down_n) T(n) - up_n T(n+1)
    - down_n T(n-1) = 1 with a reflecting origin and T(target) = 0.
    """
    A = np.zeros((target, target))
    for n in range(target):
        up = ladder.up(n)
        down = ladder.down(n) if n >= 1 else 0.0
        A[n, n] = up + down
        if n + 1 < target:
            A[n, n + 1] = -up
        if n >= 1:
            A[n, n - 1] = -down
    return np.linalg.solve(A, np.ones(target))


def occupation_probability_exact(t_call, t_service, servers):
    """Probability all servers are busy, in exact rational arithmetic."""
    a = Fraction(t_service) / Fraction(t_call)
    rho = a / servers
    assert rho < 1
    total = sum(a**n / math.factorial(n) for n in range(servers))
    total += a**servers / (math.factorial(servers) * (1 - rho))
    return float((a**servers / math.factorial(servers)) / ((1 - rho) * total))


def wait_mixture_density(t, params, k_max=200):
    """Waiting-time density as the explicit queue-length mixture of
    fixed-shape waiting densities, truncated at k_max terms."""
    return sum(
        queue_conditional_pmf(params, k) * gamma_wait_density(t, k, params)
        for k in range(k_max + 1)
    )


def geometric_moments_truncated(rho, terms=10**6):
    """Mean and standard deviation of the conditional queue length by
    brute-force summation of the geometric law."""
    ks = np.arange(terms, dtype=float)
    pmf = (1.0 - rho) * rho**ks
    mean = float((ks * pmf).sum())
    var = float(((ks - mean) ** 2 * pmf).sum())
    return mean, math.sqrt(var)


def saturation_times_closed_form(params):
    """Saturation times T(0..M) from the nested closed form.

    Evaluates T(0) = t_call * ((M+1) + sum_{k<M} sum_{i=k+1}^{M} prod_{j=k+1}^{i} j*gamma)
    and each T(n) as T(0) minus the time to climb from 0 to n, advancing a
    frontier of running products one factor at a time. O(M^2).
    """
    m = params.servers
    gamma = derive(params).gamma
    t_call = params.t_call

    # row_prod[k] / row_inner[k] are the running product and partial sum
    # of prod_{j=k+1}^{i} (j*gamma) as the frontier i advances; row k only
    # starts once the frontier passes k.
    row_prod = [1.0] * m
    row_inner = [0.0] * m
    # deficit[n] = n + sum_{k=0}^{n-2} row_inner[k] at frontier n-1, the
    # amount (in units of t_call) by which T(n) trails T(0), for n >= 2.
    deficit = [0.0] * (m + 1)
    frontier = 0
    for n in range(2, m + 1):
        while frontier < n - 1:
            frontier += 1
            factor = frontier * gamma
            for k in range(frontier):
                row_prod[k] *= factor
                row_inner[k] += row_prod[k]
        acc = 0.0
        for k in range(n - 1):
            acc += row_inner[k]
        deficit[n] = n + acc
    while frontier < m:
        frontier += 1
        factor = frontier * gamma
        for k in range(frontier):
            row_prod[k] *= factor
            row_inner[k] += row_prod[k]

    full = 0.0
    for k in range(m):
        full += row_inner[k]

    times = [0.0] * (m + 1)
    times[0] = t_call * ((m + 1) + full)
    times[1] = times[0] - t_call
    for n in range(2, m + 1):
        times[n] = times[0] - t_call * deficit[n]
    return times


def busy_fraction_summed(params):
    """Per-server busy fraction averaged over the stationary law term by term:
    (1/S) (sum_{n<M} n/M * a^n/n! + a^M/(M! (1-rho)))."""
    d = derive(params)
    m = params.servers
    weights = [1.0]
    for n in range(m):
        weights.append(weights[-1] * d.offered_load / (n + 1))
    norm = 0.0
    for n in range(m):
        norm += weights[n]
    norm += weights[m] / (1.0 - d.rho)
    busy = 0.0
    for n in range(1, m):
        busy += weights[n] * n / m
    busy += weights[m] / (1.0 - d.rho)
    return busy / norm


def hitting_times_scalar(params, start_state, seed, replications):
    """First-passage times to M+1, one scalar walk per replication.

    Replication r draws from its own stream keyed by (seed, r), 1024 values
    at a time, and takes a step at n = 0 without a uniform draw.
    """
    lam = params.arrival_rate
    mu = params.service_rate
    target = params.servers + 1
    times = []
    for rep in range(replications):
        draws = _Draws(_stream(seed, rep))
        t = 0.0
        n = start_state
        while n != target:
            if n == 0:
                t += draws.exponential() / lam
                n = 1
                continue
            total = lam + mu * n
            t += draws.exponential() / total
            if draws.uniform() * total < lam:
                n += 1
            else:
                n -= 1
        times.append(t)
    return times
