"""Event-driven stochastic oracle for the fleet queue.

Two simulations are available: the full FCFS multi-server system
(arrivals, queue discipline, per-server assignment), whose occupancy law
must agree with the analytic one, and the occupancy walk's first passage
to saturation, whose mean must agree with the saturation time.

An FCFS replication steps the birth-death chain of the occupancy n. With
k = min(n, M) vehicles busy and exponential service, the next event comes
after an Exp(lambda + k mu) time, and it is an arrival with probability
lambda / (lambda + k mu); a departure comes from a uniformly chosen busy
vehicle. So each event takes one exponential and one uniform draw, and no
service end is drawn ahead. A departure hands the vehicle to the queue
head, if there is one; otherwise that vehicle goes idle. The loop books
each batch's tallies as the events happen: the time spent at each n (one
occupancy histogram per batch), the completions, and the count, sum and
number below t_los of the queued waits, each wait in its call's arrival
batch. An event that passes a batch edge first closes the batch with the
time up to the edge, so a run holds one open histogram and its queue of
8-byte arrival times, however long it is. Every time average is read off
the histograms. The vehicles sit in one list, the busy ones first in their
current order and the idle ones after them in reverse, so a dispatch or a
release swaps at most two entries. Each vehicle's busy time is booked per
busy period, when the vehicle goes idle or at the horizon if busy. At the
warmup the busy time booked so far is dropped and every period under way is
booked from the warmup on, so only the measurement window counts.

Every FCFS replication owns a counter-based Philox stream keyed by (seed,
replication index). Hitting-time walks are drawn HITTING_BLOCK replications
to a stream keyed by (seed, block index). On a ladder of at most
SPECTRAL_MAX_LEVELS levels, a walk's passage time is drawn as a sum of
exponentials at the ladder's eigenvalues, the first ``start`` of them each
kept by a coin: M + 1 exponentials and ``start`` uniforms per walk, however
long the walk. Above that cap walks are sampled level by level from their
local times, drawing only the levels they visit: the spectral route's M + 1
draws per walk and O(M^3) eigen solve grow with M, and the solve could not
run at all at the largest admitted fleets. Results are reduced in
replication order, each estimate a row of a quantity x batch (or
replication) table, so they depend only on the seed and the replication
count. The batches with time at n >= M and those with a queued wait give
tables of their own; compare sets each estimate beside its analytic value.

A stationary run with ``workers`` > 1 cuts its replications into contiguous
chunks, one per process: the caller runs the first chunk itself and forked
children run the others, each sending its replications' results back
through a pipe. The caller reduces them in replication order as before, so
the results are the same bits whatever the worker count. The fork is made
only when it pays: never for fewer than FORK_MIN_EVENTS events per process,
never for more processes than CPUs this process may use, and never while a
second Python thread is alive, since forking a threaded process can
deadlock. That guard counts Python threads only: once numpy is imported,
the process also holds an OpenBLAS worker thread, which
threading.active_count() does not see. The child is still safe, because
it makes no BLAS call: it draws from its own Philox streams, runs the
pure-Python event loop and pickles its results. Hitting-time runs always
run in the calling process.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import os
import pickle
import signal
import threading
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .mfpt import _offsets, mfpt_critical_profile
from .params import SystemParams, as_int, as_real, at_most, derive, is_stable
from .service_metrics import _wait_rate, mean_wait, p_server_busy
from .steady_state import MAX_CSV_ROWS
from .steady_state import p_occupation, queue_conditional_pmf, queue_stats, stationary_profile

_DRAW_BLOCK = 1024
# Largest seed: with the replication or block index it fills a 128-bit key.
MAX_SEED = 2**64 - 1
HITTING_BLOCK = 1024
MAX_REPLICATIONS = 10**7
# Most steps a hitting-time run may be expected to take: T(start) x (lambda +
# M mu) per walk, an upper bound, times the replications in whole blocks. On
# the local-time route it keeps the visit counts, and so every Poisson mean,
# far below numpy's 9.2e18. On the spectral route it bounds T(0) x (lambda +
# M mu), at most M + 1 times T(start) x (lambda + M mu) since the mean time to
# step up grows with the level, and so how far the smallest eigenvalue lies
# below the ladder's norm, which sets the solve's relative error: over every
# admitted start up to 32 levels at rho 0.3-3, the drawn law's mean is within
# 8e-12 relative of T(start).
MAX_HITTING_STEPS = 10**8
# A stationary run estimates pi_n for n = 0..M + _PI_DEPTH and cond_queue_k,
# the law of the queue length given an occupied fleet, for k = 0.._QUEUE_DEPTH.
_PI_DEPTH = 5
_QUEUE_DEPTH = 10
# Most levels (M + 1) on which hitting times are drawn from the ladder's
# spectrum; larger fleets take the local-time route. Per 1000 walks on a
# shared 2-vCPU Xeon (median of 30 alternated calls, rho 0.8, 1.5 and 3), at
# 32 levels the spectral route took 0.53-0.71 ms from start 0 or M/2 against
# 1.39-3.44 ms, and 0.73-0.89 ms from start M against 0.29-1.44 ms: there a
# walk at rho >= 1.5 seldom goes down, so the local-time route draws only a
# few levels. Past the cap that loss grows (1.70 against 0.51 ms at 40
# levels, rho 3), and the eigen solve jumps to about 8 ms on some ladders of
# 65 levels.
SPECTRAL_MAX_LEVELS = 32
# Most events a stationary run may simulate: 3.3-3.9 s at the 0.33-0.39 us
# per event measured for a 2e6-event run (M = 10, rho = 0.8; ten runs) on a
# shared 2-vCPU Xeon, and 3.2-4.4 s and 297 MB for the worst admitted run, a
# queue that reaches a new occupancy level at almost every event (one
# vehicle, t_service / t_call = 10^6, 9.9e6 events).
MAX_FCFS_EVENTS = 10**7
N_BATCHES = 20
# Fewest events of a stationary run per process it is shared by. One fork and
# its reap cost 1.6-1.9 ms in a 30 MB process and 2.9-3.2 ms in a 46 MB one
# on a shared 2-vCPU Xeon, the time of 4.1e3-9.7e3 events at 0.33-0.39 us
# each, so a child always simulates at least 1.7 times what its fork costs.
FORK_MIN_EVENTS = 1 << 14
# The FCFS queue drops its served calls once they outnumber both this and
# the calls still waiting: it holds at most this many more than twice its
# waiting calls, and a short queue is not compacted every other departure.
_QUEUE_SLACK = 64


def _stream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, replication or block index), each
    below 2**64 (SimConfig bounds the seed, MAX_REPLICATIONS the index)."""
    key = (seed << 64) | index
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for the simulator; times are minutes. The seed is an
    integer in 0..2**64 - 1.

    warmup defaults to 50 * max(t_call, t_service) and horizon to
    warmup + 5000 * t_call (about 1e4 post-warmup events) when left None.
    """

    seed: int
    replications: int = 1
    warmup: float | None = None
    horizon: float | None = None
    start_state: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", as_int(self.seed, "seed", minimum=0, maximum=MAX_SEED))
        object.__setattr__(
            self, "replications",
            as_int(self.replications, "replications", minimum=1, maximum=MAX_REPLICATIONS),
        )
        start_state = as_int(self.start_state, "start_state", minimum=0, maximum=MAX_FCFS_EVENTS)
        object.__setattr__(self, "start_state", start_state)
        if self.warmup is not None:
            object.__setattr__(self, "warmup", as_real(self.warmup, "warmup"))
        if self.horizon is not None:
            object.__setattr__(self, "horizon", as_real(self.horizon, "horizon", positive=True))
            if self.warmup is not None and self.horizon <= self.warmup:
                raise ParameterError(
                    f"horizon must exceed warmup, got horizon={self.horizon!r} warmup={self.warmup!r}"
                )

    def resolved(self, params: SystemParams) -> "SimConfig":
        """Fill defaulted warmup/horizon from the system's time scales."""
        warmup = 50.0 * max(params.t_call, params.t_service) if self.warmup is None else self.warmup
        horizon = warmup + 5000.0 * params.t_call if self.horizon is None else self.horizon
        # a window too short to cut into N_BATCHES floats is refused as well
        if not (horizon - warmup) / N_BATCHES > 0.0:
            raise ParameterError(f"horizon must exceed warmup, got horizon={horizon!r} warmup={warmup!r}")
        return replace(self, warmup=warmup, horizon=horizon)


@dataclass(frozen=True)
class SimEstimate:
    """Monte-Carlo point estimate with its standard error.

    Deterministic given the seed and the replication count; n_samples counts
    replications for hitting times and contributing batches for
    time-average quantities.
    """

    value: float
    std_error: float
    n_samples: int
    seed: int


def _ladder_spectrum(lam: float, mu: float, start_state: int, target: int):
    """(scale, weight) of a walk's passage time from ``start_state`` to
    ``target``: T = sum_j B_j E_j scale_j, with E_j standard exponentials,
    B_j = 1 for j >= start_state and B_j ~ Bernoulli(weight_j) below it.

    On levels 0..target - 1 the symmetrised generator, in units of lam, has
    diagonal 1 + n mu / lam and off-diagonal sqrt(n mu / lam) between n - 1
    and n; in these units no entry holds lam x mu, which leaves the float
    range at call spacings near 1e+-160. Its eigenvalues l_1 < ... are the
    rates, over lam, of the exponentials that sum to T(0) (Keilson 1979; Fill
    2009), so scale_j = 1 / (lam l_j). T(0) = T(0 -> start) + T(start), and
    T(0 -> start) sums exponentials at the eigenvalues v_1 < ... of the
    leading start x start block, which interlace above the l_j: so T(start)
    keeps the exponential at l_j, j < start, with probability weight_j =
    1 - l_j / v_j.
    """
    levels = np.arange(target)
    ratio = mu / lam
    # eigvalsh reads the lower triangle only: the diagonal and the one below
    ladder = np.zeros((target, target))
    ladder.flat[::target + 1] = 1.0 + levels * ratio
    ladder.flat[target::target + 1] = np.sqrt(levels[1:] * ratio)
    eig = np.linalg.eigvalsh(ladder)
    weight = 1.0 - eig[:start_state] / np.linalg.eigvalsh(ladder[:start_state, :start_state])
    return 1.0 / lam / eig, weight


def _spectral_block(lam: float, mu: float, start_state: int, target: int):
    """A sampler gen, size -> ``size`` passage times drawn from the spectrum:
    a level-major (target, size) block of exponentials, then one of
    uniforms for the coins. The walks sum down the levels with sum(axis=0),
    in a fixed order, where a matrix product's order may depend on how many
    threads BLAS runs."""
    scale, weight = (a[:, None] for a in _ladder_spectrum(lam, mu, start_state, target))

    def block(gen: np.random.Generator, size: int) -> np.ndarray:
        times = gen.standard_exponential((target, size)) * scale
        times[:start_state] *= gen.random((start_state, size)) < weight
        return times.sum(axis=0)

    return block


def _local_time_block(lam: float, mu: float, start_state: int, target: int):
    """A sampler gen, size -> ``size`` passage times drawn level by level.

    In level n's own clock, up-jumps form a rate-lam Poisson process and
    down-jumps a rate-mu n one, independent of each other and of other levels.
    So, from target - 1 down, a walk that leaves n upwards u_n times (once more
    than it comes down from n + 1 at or above the start, as often below it)
    spends tau_n = Gamma(u_n) / lam at n and comes down from it Poisson(mu n
    tau_n) times: one gamma and one Poisson draw per walk and visited level,
    not per step, down to the first level below the start no walk reaches.
    """

    def block(gen: np.random.Generator, size: int) -> np.ndarray:
        t = np.zeros(size)
        down = 0  # each walk's jumps down from the level above
        for n in range(target - 1, -1, -1):
            up = down + (n >= start_state)
            if not np.any(up):
                break
            tau = gen.standard_gamma(up, size) / lam
            t += tau
            down = gen.poisson(mu * n * tau)
        return t

    return block


def _hitting_times(
    lam: float, mu: float, start_state: int, target: int, seed: int, replications: int
) -> np.ndarray:
    """First-passage times to ``target``, one per replication, in order.

    Replications are cut into blocks of HITTING_BLOCK (the last may be
    shorter) and block b draws from the stream keyed by (seed, b), so the
    times of a whole block depend only on the seed and b. A ladder of at most
    SPECTRAL_MAX_LEVELS levels draws each walk from its spectrum
    (_spectral_block), a larger one level by level (_local_time_block).
    """
    route = _spectral_block if target <= SPECTRAL_MAX_LEVELS else _local_time_block
    block = route(lam, mu, start_state, target)
    # a time past the float range is inf, which sim.json's finite check refuses
    with np.errstate(over="ignore"):
        return np.concatenate([
            block(_stream(seed, first // HITTING_BLOCK), min(HITTING_BLOCK, replications - first))
            for first in range(0, replications, HITTING_BLOCK)
        ])


def simulate_hitting_time(
    params: SystemParams,
    start_state: int,
    config: SimConfig,
) -> SimEstimate:
    """Estimate the mean time to first enter state M+1 from ``start_state``.

    Each walk is drawn exactly, from the ladder's spectrum or from its
    local times at the levels it visits (see _hitting_times), and the
    standard error is the plain replication-variance estimate. A run whose
    expected step count may exceed MAX_HITTING_STEPS is refused before it
    starts.
    """
    m, lam, mu = params.servers, params.arrival_rate, params.service_rate
    start_state = as_int(start_state, "start_state", minimum=0)
    if start_state > m:
        raise ParameterError(
            f"start_state must be an integer in [0, {m}] (below the saturation target), "
            f"got {start_state!r}"
        )
    walks = math.ceil(config.replications / HITTING_BLOCK) * HITTING_BLOCK
    # T(start) = h(start) + ... + h(M), summed in order as the ladder streams
    # past, and only until the steps pass the cap (an inf h passes it), so a
    # refused count is a lower bound; T(start) x rate is formed first, since
    # walks x T(start) alone can pass the float range where the count does not
    rate = lam + m * mu
    t_start = 0.0
    ladder = itertools.islice(_offsets(params), start_state, m + 1)
    for level, (h, _) in enumerate(ladder, start_state):
        t_start += h
        if not walks * (t_start * rate) <= MAX_HITTING_STEPS:
            break
    at_most(
        walks * (t_start * rate), MAX_HITTING_STEPS,
        f"hitting-time steps from state {start_state}, "
        f"{walks} walks (whole blocks) x T(start) x (lambda + M mu), "
        f"a lower bound from T(start) summed to level {level}",
    )
    times = _hitting_times(lam, mu, start_state, m + 1, config.seed, config.replications)
    return _reduce(["hitting_time_mean"], times[None], config.seed)["hitting_time_mean"]


def _batch_edges(warmup: float, horizon: float) -> list[float]:
    """[warmup, the N_BATCHES - 1 inner edges warmup + b * batch_len,
    horizon]: batch b covers [edges[b], edges[b + 1]), so a time belongs to
    the batch whose edges enclose it."""
    inner = warmup + np.arange(1, N_BATCHES) * ((horizon - warmup) / N_BATCHES)
    return [warmup, *inner.tolist(), horizon]


class _Replication(NamedTuple):
    """One FCFS replication's results.

    Per batch: the occupancy histogram (lo, occ), occ[i] the time spent at
    n = lo + i for the levels the batch visited, the completions, and the
    count, sum and number below t_los of the waits of queued calls that
    arrived in it. Then each vehicle's busy time in the window and the
    logged waits in call order.
    """

    histograms: list[tuple[int, np.ndarray]]
    completions: list[int]
    wait_count: list[int]
    wait_sum: list[float]
    wait_below: list[int]
    busy: list[float]
    waits: array


def _rate_tables(lam: float, mu: float, m: int) -> tuple[list[float], ...]:
    """(scale, p_arrival, pick_idle, pick_busy), each indexed by the number
    k = 0..M of busy vehicles.

    With k vehicles busy the next event comes after an Exp(lam + k mu) time,
    scale[k] times a standard one, and is an arrival with probability
    p_arrival[k] = lam / (lam + k mu); a uniform u decides, and what is left
    of it picks the vehicle: u / p_k among the M - k idle ones on an
    arrival, (u - p_k) / (1 - p_k) among the k busy ones on a departure,
    since each busy vehicle is as likely as any other to finish first.
    pick_idle[k] = (M - k) / p_k and pick_busy[k] = k / (1 - p_k) turn
    those remainders into list indices.
    """
    rates = [lam + k * mu for k in range(m + 1)]
    return (
        [1.0 / r for r in rates],
        [lam / r for r in rates],
        [(m - k) * r / lam for k, r in enumerate(rates)],
        [r / mu for r in rates],
    )


def _run_fcfs_replication(
    params: SystemParams,
    config: SimConfig,
    rep: int,
    t_los: float,
    assignment: str,
    collect_waits: bool,
) -> _Replication:
    m = params.servers
    lam = params.arrival_rate
    warmup = config.warmup
    horizon = config.horizon
    gen = _stream(config.seed, rep)
    pick_random = assignment == "random"
    scale, p_arrival, pick_idle, pick_busy = _rate_tables(lam, params.service_rate, m)
    last = m - 1

    n = config.start_state
    k = min(n, m)
    # perm[:k] lists the busy vehicles and perm[k:] the idle ones backwards,
    # so idle vehicle i is perm[M - 1 - i] and the last idle one is perm[k];
    # least_index keeps its idle vehicles in the min-heap idle, which starts
    # sorted. The first k calls start in service on the low-index vehicles
    # at t = 0.
    perm = [*range(k), *range(last, k - 1, -1)]
    idle = list(range(k, m))
    began = [0.0] * m  # start of each busy vehicle's busy period
    busy = [0.0] * m
    queue = array("d", [0.0]) * (n - k)  # arrival times of the waiting calls: queue[head:]
    head = 0
    unlogged = n - k  # calls queued at t = 0 are never logged as waits
    waits = array("d")

    # Slot 0 is the warmup and slot b + 1 is batch b; slot s ends at
    # edges[s], and the edge past the horizon is never reached. The tallies
    # have one entry per slot, and slot 0's are dropped at the end.
    edges = [*_batch_edges(warmup, horizon), math.inf]
    histograms: list[tuple[int, np.ndarray]] = []
    completions = [0] * (N_BATCHES + 1)
    wait_count = [0] * (N_BATCHES + 1)
    wait_sum = [0.0] * (N_BATCHES + 1)
    wait_below = [0] * (N_BATCHES + 1)
    # occ[n] is the open slot's time at n so far; the levels it has visited
    # are low..high, and every other entry is 0.0
    occ = [0.0] * (n + 1)
    low = high = n
    slot = 0
    edge = edges[0]
    prev = 0.0  # start of the open segment, which holds level n
    # the slot of the last queued call taken from the queue: FCFS takes
    # them in arrival order, so it only moves forward
    wait_slot = 0
    wait_edge = edges[0]

    t = 0.0
    while slot <= N_BATCHES:
        block = zip(gen.standard_exponential(_DRAW_BLOCK).tolist(), gen.random(_DRAW_BLOCK).tolist())
        for e, u in block:
            t += e * scale[k]
            if t >= edge:
                # the segment reaches the edge: its time up to the edge
                # closes the slot, and the next slot opens at level n. A
                # repeated edge opens a slot that closes empty. An event
                # exactly on the edge leaves n before any time passes there,
                # so that slot opens with low > high, which the event's step
                # of one sets right.
                while t >= edge:
                    if prev < edge:
                        occ[n] += edge - prev
                        if slot:
                            histograms.append((low, np.array(occ[low:high + 1])))
                        occ[low:high + 1] = [0.0] * (high - low + 1)
                    elif slot:
                        histograms.append((0, np.zeros(0)))
                    prev = edge
                    slot += 1
                    edge = edges[slot]
                    low, high = (n, n) if prev < t else (n + 1, n - 1)
                    if slot == 1:
                        # busy time counts from the warmup: what was booked
                        # before is dropped, and a period under way is
                        # booked from the warmup on
                        busy = [0.0] * m
                        for server in perm[:k]:
                            began[server] = warmup
                if slot > N_BATCHES:
                    break  # the horizon came first
            occ[n] += t - prev
            prev = t
            p = p_arrival[k]
            if u < p:
                # arrival: dispatch it to an idle vehicle or queue it
                n += 1
                if n > high:
                    high = n
                    if n == len(occ):
                        occ.append(0.0)
                if k < m:
                    if pick_random:
                        # the picked idle vehicle; the last one if the
                        # pick rounds to the end of the list or past it
                        i = last - int(u * pick_idle[k])
                        if i < k:
                            i = k
                        server = perm[i]
                        perm[i] = perm[k]
                    else:
                        server = heapq.heappop(idle)
                    perm[k] = server
                    began[server] = t
                    k += 1
                    if collect_waits and slot:
                        waits.append(0.0)
                else:
                    queue.append(t)
            else:
                # departure: the queue head takes over the vehicle, or a
                # uniformly chosen busy vehicle goes idle
                n -= 1
                if n < low:
                    low = n
                completions[slot] += 1
                if n >= m:
                    # n - M calls still wait: drop the served ones once they
                    # are more, and more than a few
                    arrival = queue[head]
                    head += 1
                    if head > _QUEUE_SLACK and head > n - m:
                        del queue[:head]
                        head = 0
                    while arrival >= wait_edge:
                        wait_slot += 1
                        wait_edge = edges[wait_slot]
                    # only queued calls count toward the conditional wait
                    # statistics; immediate dispatches wait zero and appear
                    # only in the call log
                    wait = t - arrival
                    wait_count[wait_slot] += 1
                    wait_sum[wait_slot] += wait
                    if wait < t_los:
                        wait_below[wait_slot] += 1
                    if collect_waits:
                        if unlogged:
                            unlogged -= 1
                        elif wait_slot:
                            waits.append(wait)
                else:
                    # the picked busy vehicle, the last one as for an idle
                    # pick, swaps with the last busy one, which then
                    # becomes the last idle one
                    i = int((u - p) * pick_busy[k])
                    k -= 1
                    if i > k:
                        i = k
                    server = perm[i]
                    perm[i] = perm[k]
                    perm[k] = server
                    busy[server] += t - began[server]
                    if not pick_random:
                        heapq.heappush(idle, server)

    for server in perm[:k]:
        busy[server] += horizon - began[server]
    # FCFS starts services in call order, so the log is in call order
    return _Replication(
        histograms, completions[1:], wait_count[1:], wait_sum[1:], wait_below[1:], busy, waits
    )


def _process_count(workers: int, replications: int, events: float) -> int:
    """Processes to share a stationary run among: 1, the serial path, unless
    forking is available, safe and worth its cost."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, replications, cpus, int(events // FORK_MIN_EVENTS)))


def _fork_chunk(run, reps: range) -> tuple[int, int]:
    """Fork a child that pickles (True, [run(rep) for rep in reps]), or
    (False, exception), into a pipe: (child pid, read end of the pipe).

    The child never returns or raises past the fork: it always leaves by
    os._exit, so no clean-up inherited from the caller runs twice. Its
    status is 0 only once its whole report is written; a report that
    cannot be pickled leaves it at 1.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                report = (True, [run(rep) for rep in reps])
            except Exception as exc:
                report = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(report, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _unpack(pid: int, status: int, data: bytes) -> list:
    """The results in a reaped child's report, or the exception it reported."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(f"replication worker {pid} ended without its results ({how})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _run_replications(run, replications: int, processes: int) -> list:
    """[run(rep) for rep in range(replications)], the replications cut into
    ``processes`` contiguous chunks: the first runs here, each other one in
    a forked child. Whenever this returns or raises, every child has ended
    (killed if still running), been reaped and had its pipe closed.
    """
    bounds = [replications * i // processes for i in range(processes + 1)]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    reaped: set[int] = set()
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_chunk(run, range(lo, hi)))
        results = [run(rep) for rep in range(bounds[1])]
        for pid, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            results.extend(_unpack(pid, status, data))
        return results
    finally:
        for pid, read_fd in children:
            if pid not in reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            os.close(read_fd)


def _reduce(names, table, seed: int) -> dict[str, SimEstimate]:
    """One estimate per row of a quantity x batch table, named by ``names``:
    its mean and sample std over sqrt(batches) (0 for one batch), none for
    no batches. Laid C-contiguous, a row sums bit for bit as a 1-D array does."""
    table = np.ascontiguousarray(table, dtype=float)
    batches = table.shape[1]
    if batches == 0:
        return {}
    # a row holding an inf gives an inf mean and a nan std, which the JSON
    # writer refuses
    with np.errstate(over="ignore", invalid="ignore"):
        mean = table.mean(axis=1)
        std = table.std(axis=1, ddof=1) if batches > 1 else np.zeros(len(table))
    for i in np.flatnonzero(~np.isfinite(mean + std) & np.isfinite(table).all(axis=1)):
        # the sum or the squared deviations overflowed, not the values: rescale
        top = np.abs(table[i]).max()
        if not math.isfinite(mean[i]):
            mean[i] = (table[i] / top).mean() * top
        if not math.isfinite(std[i]):
            std[i] = (table[i] / top).std(ddof=1) * top
    rows = zip(names, mean.tolist(), (std / math.sqrt(batches)).tolist())
    return {name: SimEstimate(value, std_error, batches, seed) for name, value, std_error in rows}


def _occupancy_estimates(
    results: list[_Replication], m: int, batch_len: float, seed: int
) -> tuple[dict[str, SimEstimate], tuple[float, ...]]:
    """Every stationary estimate, and the batch mean queue lengths, from the
    replications' batches in order: all batches give pi_0..pi_{M +
    _PI_DEPTH}, p_occup, throughput and p_busy_per_server; those with time
    at n >= M give cond_queue_0.._QUEUE_DEPTH and mean_queue_len_conditional;
    those with a queued wait the two wait estimates. The histograms (lo,
    occ), occ[i] the time at n = lo + i, give the time averages: FCFS keeps
    min(n, M) servers busy."""
    histograms = [h for result in results for h in result.histograms]
    # time[n, b]: batch b's time at n, for the levels any estimate reads
    width = m + max(_PI_DEPTH, _QUEUE_DEPTH) + 1
    time = np.zeros((width, len(histograms)))
    occup, queue_area, busy = np.zeros((3, len(histograms)))
    for b, (lo, occ) in enumerate(histograms):
        levels = np.arange(lo, lo + occ.size)
        occup[b] = occ[max(m - lo, 0):].sum()
        queue_area[b] = (np.maximum(levels - m, 0) * occ).sum()
        busy[b] = (np.minimum(levels, m) * occ).sum()
        if lo < width:
            time[lo:lo + occ.size, b] = occ[:width - lo]
    completions, wait_count, wait_sum, wait_below = np.array(
        [(r.completions, r.wait_count, r.wait_sum, r.wait_below) for r in results]
    ).transpose(1, 0, 2).reshape(4, -1)
    table = np.vstack([time[:m + _PI_DEPTH + 1], occup, completions, busy])
    table[:-1] /= batch_len
    table[-1] /= m * batch_len
    names = [
        *(f"pi_{n}" for n in range(m + _PI_DEPTH + 1)), "p_occup", "throughput", "p_busy_per_server"
    ]
    estimates = _reduce(names, table, seed)
    occupied = occup > 0.0
    names = [*(f"cond_queue_{k}" for k in range(_QUEUE_DEPTH + 1)), "mean_queue_len_conditional"]
    queue = time[m:m + _QUEUE_DEPTH + 1, occupied]
    table = np.vstack([queue, queue_area[occupied]]) / occup[occupied]
    estimates |= _reduce(names, table, seed)
    waited = wait_count > 0
    table = np.vstack([wait_sum[waited], wait_below[waited]]) / wait_count[waited]
    estimates |= _reduce(["wait_mean_conditional", "wait_cdf_at_t_los"], table, seed)
    return estimates, tuple((queue_area / batch_len).tolist())


@dataclass(frozen=True)
class StationaryResult:
    """Batch-means estimates from the FCFS simulation plus diagnostics.

    estimates maps quantity names to SimEstimate; quantities never observed
    (for instance conditional waits in a run that never saturated) are
    omitted. batch_queue_means is the per-batch time-average queue length,
    useful for spotting the unbounded growth of an overloaded system.
    waits, when collected, holds the wait of every call that arrived after
    warmup and was dispatched before the horizon, in call order, 8 bytes
    each.
    """

    estimates: dict[str, SimEstimate]
    per_server_busy: tuple[float, ...]
    batch_queue_means: tuple[float, ...]
    waits: array | None


def simulate_stationary(
    params: SystemParams,
    config: SimConfig,
    t_los: float = 30.0,
    assignment: str = "random",
    collect_waits: bool = False,
    workers: int = 1,
) -> StationaryResult:
    """Run the FCFS multi-server simulation and estimate the steady-state map.

    Calls arrive as a Poisson stream, each service is exponential, the queue
    is first-come first-served, and arrivals finding several idle servers
    are assigned to one uniformly at random (``assignment="least_index"``
    picks the lowest index instead, for sensitivity checks; the pick takes
    no draw of its own, so the occupancy path is unchanged).

    Standard errors come from batch means over 20 equal post-warmup windows
    per replication. If rho >= 1 the run proceeds anyway with a warning;
    the estimates then describe a growing transient, not a steady state.

    Up to ``workers`` processes share the replications (see the module
    notes); the result is the same whatever ``workers`` is. A run is
    refused before it starts when it would simulate more than
    MAX_FCFS_EVENTS events or log more than MAX_CSV_ROWS waits.
    """
    if assignment not in ("random", "least_index"):
        raise ParameterError(f"assignment must be 'random' or 'least_index', got {assignment!r}")
    workers = as_int(workers, "workers", minimum=1)
    t_los = as_real(t_los, "t_los")
    cfg = config.resolved(params)
    m = params.servers
    lam = params.arrival_rate
    rate = lam + min(lam, m * params.service_rate)
    # a replication's draw block and its N_BATCHES x M occupancy bins count
    # as events too, so many short replications or a huge fleet are refused
    events = cfg.replications * (cfg.start_state + cfg.horizon * rate + _DRAW_BLOCK + N_BATCHES * m)
    at_most(events, MAX_FCFS_EVENTS, "stationary run events")
    if collect_waits:
        at_most(cfg.replications * (cfg.horizon - cfg.warmup) * lam, MAX_CSV_ROWS, "wait log rows")
    if not is_stable(params):
        warnings.warn(
            f"traffic intensity rho={derive(params).rho:.6g} >= 1: no steady state exists; "
            "the queue grows without bound and estimates describe the transient",
            stacklevel=2,
        )

    results = _run_replications(
        lambda rep: _run_fcfs_replication(params, cfg, rep, t_los, assignment, collect_waits),
        cfg.replications,
        _process_count(workers, cfg.replications, events),
    )
    per_server = [0.0] * m
    for result in results:
        per_server = [a + b for a, b in zip(per_server, result.busy)]

    batch_len = (cfg.horizon - cfg.warmup) / N_BATCHES
    estimates, batch_queue_means = _occupancy_estimates(results, m, batch_len, cfg.seed)
    waits = None
    if collect_waits:
        waits = array("d")
        for result in results:
            waits += result.waits
    return StationaryResult(
        estimates=estimates,
        per_server_busy=tuple(busy / (len(results) * N_BATCHES * batch_len) for busy in per_server),
        batch_queue_means=batch_queue_means,
        waits=waits,
    )


def compare(
    params: SystemParams, estimates: dict[str, SimEstimate], mode: str = "stationary",
    t_los: float = 30.0, start_state: int = 0,
) -> list[tuple[str, float, float, float, float]]:
    """(name, value, std_error, analytic, z) for each estimate that has an
    analytic value, in name order. z is the difference in standard errors;
    for a zero standard error, 0 where the values are equal and inf where
    not. In ``mode="hitting"`` the value is the saturation time
    T(start_state); in ``"stationary"`` it is the steady-state value (which
    needs rho < 1), the wait distribution's taken at ``t_los``."""
    if mode == "hitting":
        start_state = as_int(start_state, "start_state", minimum=0, maximum=params.servers)
        analytic = {"hitting_time_mean": mfpt_critical_profile(params).times[start_state]}
    elif mode == "stationary":
        profile = stationary_profile(params)
        analytic = {
            **{f"pi_{n}": profile.pi(n) for n in range(params.servers + _PI_DEPTH + 1)},
            **{f"cond_queue_{k}": queue_conditional_pmf(params, k) for k in range(_QUEUE_DEPTH + 1)},
            "p_occup": p_occupation(params),
            "mean_queue_len_conditional": queue_stats(params).mean_len,
            "p_busy_per_server": p_server_busy(params),
            "throughput": params.arrival_rate,
            "wait_mean_conditional": mean_wait(params),
            "wait_cdf_at_t_los": -math.expm1(-_wait_rate(params) * t_los),
        }
    else:
        raise ParameterError(f"mode must be 'stationary' or 'hitting', got {mode!r}")
    records = []
    for name in sorted(analytic.keys() & estimates.keys()):
        est, ref = estimates[name], analytic[name]
        if est.std_error > 0.0:
            z = (est.value - ref) / est.std_error
        else:
            z = 0.0 if est.value == ref else math.inf
        records.append((name, est.value, est.std_error, ref, z))
    return records
