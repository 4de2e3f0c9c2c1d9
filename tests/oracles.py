"""Independent reference computations used only by the tests.

Each helper deliberately takes a different route from the library code it
checks: a full dense solve instead of banded elimination, exact rational
arithmetic instead of floating recurrences, raw series summation instead
of closed forms, the nested closed form instead of the one-term recurrence,
the summed stationary average instead of the identity it collapses to,
one scalar jump-chain walk per replication instead of a sum of exponentials
at the ladder's eigenvalues or of per-level local times, the up-passages'
second-moment recurrence instead of the spectrum's moments, a drawn service
time per call and a heap of service ends instead of the occupancy chain's
one draw pair per event, and a whole recorded path tallied into batches
after the run instead of each batch tallied inside the event loop, and each
quantity's batch means reduced on their own as a 1-D array instead of row
by row from one table, 60-digit mpmath sums on the typed decimals
instead of the float recurrences for the small probabilities, and two
vehicle lists with busy spans clipped to the window instead of one vehicle
list with busy time booked from the warmup.

The reference routes for an arbitrary birth-death ladder live here as well:
the nested sum/product hitting time, the structured tridiagonal solve, the
passage time's second-moment recurrence, the truncated product-form
stationary law, the Gamma waiting-time density, the heap-driven FCFS
system, the replay of the package's occupancy chain, the two-list
vehicle bookkeeping beside the package's one vehicle list, and the
segment-by-segment batch split of an occupancy path. The package computes
each of these quantities one way only; these are the second ways.
"""

import bisect
import heapq
import itertools
import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable
from unittest import mock

import mpmath
import numpy as np

from ambuq import (
    NoSteadyStateError, ParameterError, SystemParams, derive, queue_conditional_pmf,
    simulate_stationary,
)
from ambuq.params import as_int, as_real, require_steady_state
from ambuq.simulate import (
    _DRAW_BLOCK,
    N_BATCHES,
    SimEstimate,
    _batch_edges,
    _Replication,
    _stream,
)


class UnreachableTargetError(ValueError):
    """A first-passage target cannot be reached because an upward rate vanishes."""


@dataclass(frozen=True)
class RateLadder:
    """Nearest-neighbour transition rates of the occupancy walk.

    ``up(n)`` is defined for states n >= 0 and ``down(n)`` for n >= 1; state 0
    is a reflecting boundary. Rates are evaluated on demand from the callables,
    so the ladder is exact for arbitrarily large states.
    """

    up: Callable[[int], float]
    down: Callable[[int], float]

    @classmethod
    def for_fleet(cls, params):
        """Ladder of the M-server queue: constant arrivals, service rate
        proportional to busy servers and capped at the fleet size."""
        lam = params.arrival_rate
        mu = params.service_rate
        m = params.servers
        return cls(up=lambda n: lam, down=lambda n: mu * min(n, m))


def _time_from_origin(ladder, boundary):
    # Mean hitting time of `boundary` from 0 with a reflecting origin:
    #   sum_{k<boundary} 1/up(k)
    #   + sum_{k<boundary-1} (1/up(k)) * sum_{i=k+1}^{boundary-1} prod_{j=k+1}^{i} down(j)/up(j)
    # k outer ascending, i inner ascending, product extended incrementally in i,
    # so intermediates stay representable whenever the result itself is.
    total = 0.0
    for k in range(boundary):
        up_k = ladder.up(k)
        if not up_k > 0.0:
            raise UnreachableTargetError(
                f"upward rate vanishes at state {k}; states above are unreachable"
            )
        total += 1.0 / up_k
    for k in range(boundary - 1):
        prod = 1.0
        inner = 0.0
        for i in range(k + 1, boundary):
            prod *= ladder.down(i) / ladder.up(i)
            inner += prod
        total += inner / ladder.up(k)
    return total


def mfpt_general(ladder, start, target):
    """Mean time for the walk to first reach ``target`` from ``start``,
    from the nested sum/product expression of an arbitrary ladder.

    Requires 0 <= start < target. Raises UnreachableTargetError if any
    upward rate below the target vanishes (the reflecting walk revisits
    low states, so those rates all matter).
    """
    start = as_int(start, "start", minimum=0)
    target = as_int(target, "target")
    if target <= start:
        raise ParameterError(f"need 0 <= start < target, got start={start}, target={target}")
    # Hitting times on a line are additive: time(start -> target) equals
    # time(0 -> target) minus time(0 -> start).
    return _time_from_origin(ladder, target) - _time_from_origin(ladder, start)


def mfpt_linear_solve(ladder, target):
    """Hitting times of ``target`` from every start 0..target-1, solved directly.

    The hitting times satisfy the tridiagonal balance
    (up_n + down_n) T(n) - up_n T(n+1) - down_n T(n-1) = 1 with a reflecting
    origin and T(target) = 0. Forward elimination of the subdiagonal starting
    at the reflecting row reduces row n to T(n) = T(n+1) + h(n) with strictly
    positive fill-in, so no pivoting or cancellation occurs and the solve
    stays componentwise accurate even when the times span many orders of
    magnitude (a generic pivoted solver loses everything there, since the
    matrix condition number is of the order of the solution itself).
    """
    target = as_int(target, "target", minimum=1)
    offsets = [0.0] * target
    for n in range(target):
        up = ladder.up(n)
        if not up > 0.0:
            raise UnreachableTargetError(
                f"upward rate vanishes at state {n}; the system is not solvable"
            )
        if n == 0:
            offsets[0] = 1.0 / up
        else:
            offsets[n] = (1.0 + ladder.down(n) * offsets[n - 1]) / up
    times = [0.0] * target
    times[target - 1] = offsets[target - 1]
    for n in range(target - 2, -1, -1):
        times[n] = times[n + 1] + offsets[n]
    return times


def passage_time_moments(ladder, start, target):
    """Mean and variance of the time to first reach ``target`` from ``start``,
    from the second-moment recurrence of the up-passages.

    The walk is skip-free upwards, so the time is a sum of independent
    up-passages tau_n from n to n + 1, n = start..target-1. From n the walk
    holds an Exp(up + down) time and then either steps up or steps down and
    must pass n - 1 and then n again: tau_n = H + I (tau_{n-1} + tau_n').
    Taking the first two moments gives h_n = (1 + down h_{n-1}) / up and
    s_n = (2 h_n + down (s_{n-1} + 2 h_{n-1} h_n)) / up, with down(0) = 0.
    """
    h = second = 0.0
    mean = variance = 0.0
    for n in range(target):
        up = ladder.up(n)
        down = ladder.down(n) if n >= 1 else 0.0
        below = h
        h = (1.0 + down * below) / up
        second = (2.0 * h + down * (second + 2.0 * below * h)) / up
        if n >= start:
            mean += h
            variance += second - h * h
    return mean, variance


def stationary_general(ladder, truncation):
    """Product-form stationary law of an arbitrary ladder on [0, truncation].

    The caller picks the truncation so the neglected tail mass is below
    1e-12; this is checked here with the geometric bound taken at the
    truncation point and is feasible only for ladders whose tail weight
    ratio stays below 1.
    """
    truncation = as_int(truncation, "truncation", minimum=0)
    weights = [1.0]
    for n in range(1, truncation + 1):
        down = ladder.down(n)
        if not down > 0.0:
            raise ParameterError(f"downward rate must be positive at state {n}, got {down!r}")
        weights.append(weights[-1] * ladder.up(n - 1) / down)
    total = 0.0
    for w in weights:
        total += w
    down_next = ladder.down(truncation + 1)
    if not down_next > 0.0:
        raise ParameterError(
            f"downward rate must be positive at state {truncation + 1}, got {down_next!r}"
        )
    ratio = ladder.up(truncation) / down_next
    if ratio >= 1.0:
        raise NoSteadyStateError(
            ratio,
            f"stationary weights diverge: tail weight ratio {ratio:.6g} >= 1 "
            f"at state {truncation}",
        )
    tail_bound = weights[-1] * ratio / (1.0 - ratio)
    if tail_bound > 1e-12 * total:
        raise ParameterError(
            f"truncation {truncation} too small: geometric tail bound "
            f"{tail_bound / total:.3g} of total mass exceeds 1e-12"
        )
    return [w / total for w in weights]


def suggested_truncation(params, tail_mass=1e-12):
    """Truncation for stationary_general leaving under ``tail_mass`` behind."""
    d = require_steady_state(params)
    if not 0.0 < tail_mass < 1.0:
        raise ParameterError(f"tail_mass must be in (0, 1), got {tail_mass!r}")
    # Mass above N is at most rho**(N - M) relative to the head, so walk the
    # exponent until the bound clears with a small safety margin.
    extra = math.ceil(math.log(tail_mass) / math.log(d.rho)) + 2
    return params.servers + max(extra, 1)


def gamma_wait_density(t, k_ahead, params):
    """Density of the wait given k_ahead calls already queued at arrival.

    The wait is the sum of k_ahead + 1 exponential service headways at the
    full-fleet rate M * mu, i.e. a Gamma density with integer shape. Uses a
    log-space evaluation so large shapes stay finite.
    """
    k_ahead = as_int(k_ahead, "k_ahead", minimum=0)
    t = as_real(t, "t")
    alpha = params.servers * params.service_rate
    if t == 0.0:
        return alpha if k_ahead == 0 else 0.0
    x = alpha * t
    return alpha * math.exp(k_ahead * math.log(x) - x - math.lgamma(k_ahead + 1))


def _split(t0: float, t1: float, warmup: float, horizon: float, batch_len: float):
    """Pieces of [t0, t1) clipped to the measurement window, keyed by batch.

    Batch b covers [warmup + b * batch_len, warmup + (b + 1) * batch_len),
    the last ending at the horizon. The first batch is estimated by
    division and then moved until its edges enclose ``lo``, since near an
    edge the rounded quotient can be one batch off; from there the index
    steps forward from one piece to the next, never recomputed.
    """
    lo = t0 if t0 > warmup else warmup
    hi = t1 if t1 < horizon else horizon
    if lo >= hi:
        return
    b = min(int((lo - warmup) / batch_len), N_BATCHES - 1)
    while b > 0 and lo < warmup + b * batch_len:
        b -= 1
    while b < N_BATCHES - 1 and lo >= warmup + (b + 1) * batch_len:
        b += 1
    while True:
        if b >= N_BATCHES - 1:
            yield N_BATCHES - 1, hi - lo
            return
        edge = warmup + (b + 1) * batch_len
        if hi <= edge:
            yield b, hi - lo
            return
        yield b, edge - lo
        lo = edge
        b += 1


def split_histograms(start, ends, levels, warmup, horizon):
    """Per-batch occupancy histograms {n: time} of the path that holds
    levels[i] from ends[i - 1] (``start`` for i = 0) to ends[i], added one
    segment at a time through ``_split``."""
    batch_len = (horizon - warmup) / N_BATCHES
    histograms = [{} for _ in range(N_BATCHES)]
    t = start
    for end, n in zip(ends, levels):
        for b, seg in _split(t, end, warmup, horizon, batch_len):
            occ = histograms[b]
            occ[n] = occ.get(n, 0.0) + seg
        t = end
    return histograms


class _Draws:
    """Blockwise exponential/uniform draws from one replication's stream.

    Blocks are converted to plain Python floats up front so everything
    downstream stays in native arithmetic.
    """

    __slots__ = ("_gen", "_exp", "_uni", "_ie", "_iu")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._exp = gen.standard_exponential(_DRAW_BLOCK).tolist()
        self._uni = gen.random(_DRAW_BLOCK).tolist()
        self._ie = 0
        self._iu = 0

    def exponential(self) -> float:
        if self._ie == _DRAW_BLOCK:
            self._exp = self._gen.standard_exponential(_DRAW_BLOCK).tolist()
            self._ie = 0
        value = self._exp[self._ie]
        self._ie += 1
        return value

    def uniform(self) -> float:
        if self._iu == _DRAW_BLOCK:
            self._uni = self._gen.random(_DRAW_BLOCK).tolist()
            self._iu = 0
        value = self._uni[self._iu]
        self._iu += 1
        return value


def replay_path(params, config, rep):
    """The occupancy path of ``_run_fcfs_replication``'s replication ``rep``:
    segment end times and the occupancy n during each, the last segment
    ending at the horizon.

    The same draws step the birth-death chain of n alone: no vehicles, no
    queue, since the chain does not depend on which vehicle a call takes.
    """
    m = params.servers
    lam = params.arrival_rate
    mu = params.service_rate
    draws = _Draws(_stream(config.seed, rep))
    n = config.start_state
    t = 0.0
    ends, levels = [], []
    while True:
        rate = lam + min(n, m) * mu
        t += draws.exponential() * (1.0 / rate)
        if t >= config.horizon:
            break
        ends.append(t)
        levels.append(n)
        n += 1 if draws.uniform() < lam / rate else -1
    ends.append(config.horizon)
    levels.append(n)
    return ends, levels


def replay_busy(params, config, rep, assignment, pick_scale=1.0):
    """Each vehicle's busy time in the window in ``_run_fcfs_replication``'s
    replication ``rep`` (``config`` resolved), and a Counter of the picks
    that rounded to the end of their list ("at") or past it ("past"), keyed
    by ("idle" or "busy", where).

    The same draws step the chain as in ``replay_path``, and the vehicles
    are kept in two lists: an arrival under random assignment takes
    idle[pick], with ``idle.pop()`` moved into its slot, and least_index
    takes idle[0]; a departure with no call queued takes busy_ids[pick] the
    same way and appends it to idle, or inserts it in order under
    least_index. A pick at or past its list's end takes the popped last
    vehicle. Each busy period is clipped to the window when its vehicle goes
    idle, or at the horizon. ``pick_scale`` multiplies both pick factors
    (a power of two leaves every product's rounding as it is).
    """
    m = params.servers
    lam = params.arrival_rate
    mu = params.service_rate
    draws = _Draws(_stream(config.seed, rep))
    n = config.start_state
    busy_ids = list(range(min(n, m)))
    idle = list(range(min(n, m), m))
    began = [0.0] * m
    busy = [0.0] * m
    edge_picks = Counter()

    def take(vehicles, pick, kind):
        if pick >= len(vehicles):
            edge_picks[kind, "at" if pick == len(vehicles) else "past"] += 1
        server = vehicles.pop()
        if pick < len(vehicles):
            vehicles[pick], server = server, vehicles[pick]
        return server

    def book(server, end):
        span = end - max(began[server], config.warmup)
        if span > 0.0:
            busy[server] += span

    t = 0.0
    while True:
        k = min(n, m)
        rate = lam + k * mu
        t += draws.exponential() * (1.0 / rate)
        if t >= config.horizon:
            break
        u = draws.uniform()
        p = lam / rate
        if u < p:
            n += 1
            if k < m:
                if assignment == "random":
                    server = take(idle, int(u * ((m - k) * rate / lam * pick_scale)), "idle")
                else:
                    server = idle.pop(0)
                busy_ids.append(server)
                began[server] = t
        else:
            n -= 1
            if n < m:  # no call waits, so the vehicle goes idle
                server = take(busy_ids, int((u - p) * (rate / mu * pick_scale)), "busy")
                book(server, t)
                if assignment == "random":
                    idle.append(server)
                else:
                    bisect.insort(idle, server)
    for server in busy_ids:
        book(server, config.horizon)
    return busy, edge_picks


def path_departures_and_waits(ends, levels, servers):
    """The departure times of a path from t = 0 and the (arrival, wait) of
    each queued call in the order FCFS takes them from the queue: a call
    that arrives with every vehicle busy queues, and each departure with a
    call queued serves the head. Calls queued at t = 0 arrive at 0.0."""
    queue = deque(itertools.repeat(0.0, max(levels[0] - servers, 0)))
    departures, queued = [], []
    for t, n, after in zip(ends, levels, levels[1:]):
        if after > n:
            if n >= servers:
                queue.append(t)
        else:
            departures.append(t)
            if queue:
                arrival = queue.popleft()
                queued.append((arrival, t - arrival))
    return departures, queued


def batch_tallies(ends, levels, departures, queued, warmup, horizon, t_los):
    """A replication's per-batch tallies, as in ``_Replication``, from its
    whole path (split by ``split_histograms``), its departure times, and the
    (arrival, wait) of its queued calls in the order they left the queue.
    A departure counts in its batch and a wait in its arrival's batch, each
    found by bisecting the batch edges; times before warmup count nowhere.
    """
    inner = _batch_edges(warmup, horizon)[1:-1]
    histograms = []
    for occ in split_histograms(0.0, ends, levels, warmup, horizon):
        lo, hi = min(occ, default=0), max(occ, default=-1)
        histograms.append((lo, np.array([occ.get(n, 0.0) for n in range(lo, hi + 1)])))
    completions = [0] * N_BATCHES
    for t in departures:
        if t >= warmup:
            completions[bisect.bisect_right(inner, t)] += 1
    wait_count, wait_sum, wait_below = [0] * N_BATCHES, [0.0] * N_BATCHES, [0] * N_BATCHES
    for arrival, wait in queued:
        if arrival >= warmup:
            b = bisect.bisect_right(inner, arrival)
            wait_count[b] += 1
            wait_sum[b] += wait
            wait_below[b] += wait < t_los
    return histograms, completions, wait_count, wait_sum, wait_below


def run_heap_fcfs_replication(params, config, rep, t_los, assignment, collect_waits):
    """One FCFS replication with a drawn service time per call and a heap
    of pending service ends, in place of the package's occupancy chain.

    Same signature and results as ``ambuq.simulate._run_fcfs_replication``:
    the batches, tallied from the whole path by ``batch_tallies``, each
    vehicle's busy time booked per service when it starts, and the logged
    waits in call order.
    """
    m = params.servers
    lam = params.arrival_rate
    mu = params.service_rate
    warmup = config.warmup
    horizon = config.horizon
    draws = _Draws(_stream(config.seed, rep))

    idle = list(range(m))
    busy = [0.0] * m
    departures = []  # heap of (time, server)
    queue = deque()  # (arrival time, call index)
    waits = []
    n = config.start_state
    call_index = 0
    ends, levels, done, queued = [], [], [], []

    def serve(server, start):
        end = start + draws.exponential() / mu
        heapq.heappush(departures, (end, server))
        span = (end if end < horizon else horizon) - (start if start > warmup else warmup)
        if span > 0.0:
            busy[server] += span

    # start_state calls present at t=0, the first min(start_state, m)
    # already in service on the low-index servers
    for _ in range(min(n, m)):
        serve(idle.pop(0), 0.0)
    queue.extend(itertools.repeat((0.0, -1), n - m))

    next_arrival = draws.exponential() / lam
    while True:
        t_dep = departures[0][0] if departures else math.inf
        t = next_arrival if next_arrival <= t_dep else t_dep
        if t >= horizon:
            break
        ends.append(t)
        levels.append(n)
        if next_arrival <= t_dep:
            next_arrival = t + draws.exponential() / lam
            index = call_index if t >= warmup else -1
            if t >= warmup:
                call_index += 1
            if idle:
                u = draws.uniform()
                if assignment == "random":
                    server = idle.pop(min(int(u * len(idle)), len(idle) - 1))
                else:
                    server = min(idle)
                    idle.remove(server)
                serve(server, t)
                if collect_waits and index >= 0:
                    waits.append((index, 0.0))
            else:
                queue.append((t, index))
            n += 1
        else:
            _, server = heapq.heappop(departures)
            n -= 1
            done.append(t)
            if queue:
                arrival, index = queue.popleft()
                queued.append((arrival, t - arrival))
                if collect_waits and index >= 0:
                    waits.append((index, t - arrival))
                serve(server, t)
            else:
                idle.append(server)

    ends.append(horizon)
    levels.append(n)
    tallies = batch_tallies(ends, levels, done, queued, warmup, horizon, t_los)
    waits.sort()
    return _Replication(*tallies, busy, array("d", [wait for _, wait in waits]))


def simulate_heap_fcfs(params, config, **kwargs):
    """``simulate_stationary`` with every replication run by
    ``run_heap_fcfs_replication``: same estimators, same batching."""
    with mock.patch("ambuq.simulate._run_fcfs_replication", run_heap_fcfs_replication):
        return simulate_stationary(params, config, **kwargs)


def _estimate(values, seed):
    """The batch-means estimate of one quantity from its values, reduced as
    a 1-D array on its own: the mean, and the sample std over the square
    root of the count (0 for one value), or None for no values."""
    if len(values) == 0:
        return None
    arr = np.array(values, dtype=float)
    value = float(arr.mean())
    std_error = 0.0
    if len(values) > 1:
        with np.errstate(over="ignore"):
            std = arr.std(ddof=1)
        if not math.isfinite(std) and np.isfinite(arr).all():
            # the squared deviations overflowed, not the spread: take it in
            # units of the largest magnitude
            top = np.abs(arr).max()
            std = (arr / top).std(ddof=1) * top
        std_error = float(std / math.sqrt(len(values)))
    return SimEstimate(value=value, std_error=std_error, n_samples=len(values), seed=seed)


def occupancy_estimates_per_quantity(results, servers, batch_len, seed):
    """``ambuq.simulate._occupancy_estimates`` read one quantity and one
    batch at a time, each quantity reduced on its own by ``_estimate``: each
    pi_n and cond_queue_k value is looked up in its batch's histogram on its
    own, not sliced out of one quantity x batch table."""
    m = servers
    histograms = [h for result in results for h in result.histograms]

    def at(lo, occ, n):
        return float(occ[n - lo]) if lo <= n < lo + occ.size else 0.0

    occup, queue_area, busy = [], [], []
    for lo, occ in histograms:
        levels = np.arange(lo, lo + occ.size)
        occup.append(float(occ[max(m - lo, 0):].sum()))
        queue_area.append(float((np.maximum(levels - m, 0) * occ).sum()))
        busy.append(float((np.minimum(levels, m) * occ).sum()))
    estimates = {
        f"pi_{n}": _estimate([at(lo, occ, n) / batch_len for lo, occ in histograms], seed)
        for n in range(m + 5 + 1)
    }
    estimates["p_occup"] = _estimate([t / batch_len for t in occup], seed)
    occupied = [(h, t, q) for h, t, q in zip(histograms, occup, queue_area) if t > 0.0]
    for k in range(10 + 1):
        estimates[f"cond_queue_{k}"] = _estimate(
            [at(lo, occ, m + k) / t for (lo, occ), t, _ in occupied], seed
        )
    estimates["mean_queue_len_conditional"] = _estimate([q / t for _, t, q in occupied], seed)
    estimates["p_busy_per_server"] = _estimate([b / (m * batch_len) for b in busy], seed)
    estimates["throughput"] = _estimate(
        [c / batch_len for result in results for c in result.completions], seed
    )
    waited = [
        tally
        for result in results
        for tally in zip(result.wait_count, result.wait_sum, result.wait_below)
        if tally[0] > 0
    ]
    estimates["wait_mean_conditional"] = _estimate([s / c for c, s, _ in waited], seed)
    estimates["wait_cdf_at_t_los"] = _estimate([b / c for c, _, b in waited], seed)
    observed = {name: est for name, est in estimates.items() if est is not None}
    return observed, tuple(q / batch_len for q in queue_area)


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


def supported_range_params():
    """Scenarios across the supported range: fleets 1 to 10^4, offered
    loads up to 10^4 and rho from 0.01 up to 1 - 1e-9, at two service
    times so that t_call is seldom a round number."""
    for servers in (1, 2, 7, 300, 10**4):
        for rho in (0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9):
            for t_service in (50.0, 7.3):
                yield SystemParams(
                    t_call=t_service / (servers * rho), t_service=t_service, servers=servers
                )


def occupation_probability_exact(t_call, t_service, servers):
    """Probability all servers are busy, in exact rational arithmetic."""
    a = Fraction(t_service) / Fraction(t_call)
    rho = a / servers
    assert rho < 1
    total = sum(a**n / math.factorial(n) for n in range(servers))
    total += a**servers / (math.factorial(servers) * (1 - rho))
    return float((a**servers / math.factorial(servers)) / ((1 - rho) * total))


def erlang_b_stepwise(a, servers):
    """Erlang-B blocking B(servers) from B(0) = 1 by the plain recurrence
    B(n) = a B(n-1) / (n + a B(n-1)): every step taken, one fleet per call,
    no stop where B underflows. Same floating-point operations as the
    package's Erlang-B ladder, so the two must agree bit for bit."""
    blocking = 1.0
    for n in range(1, servers + 1):
        blocking = a * blocking / (n + a * blocking)
    return blocking


def saturation_mean_stepwise(params, servers):
    """Fleet ``servers``' mean saturation time sum_{k<=M} (k+1) h(k) / (M+1)
    by the plain recurrence h(0) = t_call, h(n) = t_call (1 + n mu h(n-1)):
    every step taken, one fleet per call. Same floating-point operations as
    the package's offsets ladder, so the two must agree bit for bit."""
    t_call, mu = params.t_call, params.service_rate
    h = weighted = t_call
    for n in range(1, servers + 1):
        h = t_call * (1.0 + n * mu * h)
        weighted += (n + 1) * h
    return weighted / (servers + 1)


def occupation_probability_stepwise(params):
    """Occupation probability B(M) / (1 - rho (1 - B(M))) from
    ``erlang_b_stepwise``."""
    d = require_steady_state(params)
    blocking = erlang_b_stepwise(d.offered_load, params.servers)
    return blocking / (1.0 - d.rho * (1.0 - blocking))


def _wait_rate_mp(t_call, t_service, servers):
    """(1 - rho) M mu, that is (M t_call - t_service) / (t_call t_service),
    from the shortest decimals of the inputs, at the current mpmath precision."""
    t_call, t_service = mpmath.mpf(repr(float(t_call))), mpmath.mpf(repr(float(t_service)))
    return (servers * t_call - t_service) / (t_call * t_service)


def miss_probability_mp(t_call, t_service, servers, t_los):
    """Share of calls still waiting at t_los, p_occup exp(-rate t_los), in
    60-digit mpmath: the Erlang-C law summed term by term, not recurred."""
    with mpmath.workdps(60):
        a = mpmath.mpf(repr(float(t_service))) / mpmath.mpf(repr(float(t_call)))
        tail = a**servers / mpmath.factorial(servers) / (1 - a / servers)
        head = mpmath.fsum(a**n / mpmath.factorial(n) for n in range(servers))
        rate = _wait_rate_mp(t_call, t_service, servers)
        return float(tail / (head + tail) * mpmath.exp(-rate * t_los))


def wait_cdf_mp(t_call, t_service, servers, t):
    """P(W <= t) for a queued call, 1 - exp(-rate t), in 60-digit mpmath."""
    with mpmath.workdps(60):
        return float(-mpmath.expm1(-_wait_rate_mp(t_call, t_service, servers) * t))


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
    gamma = params.service_rate / params.arrival_rate
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
