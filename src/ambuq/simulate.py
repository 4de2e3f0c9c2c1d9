"""Event-driven stochastic oracle for the fleet queue.

Two simulations are available: the full FCFS multi-server system
(arrivals, queue discipline, per-server assignment), whose occupancy law
must agree with the analytic one, and the occupancy walk's first passage
to saturation, whose mean must agree with the saturation time.

An FCFS replication's event loop only draws, moves calls and appends to
flat buffers: the end time and occupancy n of each path segment, each
departure time after warmup, and the arrival time and wait of each queued
call. Every PATH_BLOCK events, and once more at the horizon, numpy folds
the buffers into one occupancy histogram per batch (time spent at each n)
and per-batch completion and wait tallies, so the buffers stay bounded
however long the run. Every time average is read off the histograms.
Per-server busy time comes from the service spans themselves, clipped to
the measurement window.

Every FCFS replication owns a counter-based Philox stream keyed by (seed,
replication index). Hitting-time walks run in lockstep, HITTING_BLOCK
replications to a stream keyed by (seed, block index). Per-replication
results land in slots indexed by replication and are always reduced in
index order, so estimates depend only on the seed and the replication
count.

A stationary run with ``workers`` > 1 cuts its replications into contiguous
chunks, one per process: the caller runs the first chunk itself and forked
children run the others, each sending its replications' results back
through a pipe. The caller reduces them in replication order as before, so
the results are the same bits whatever the worker count. The fork is made
only when it pays: never for fewer than FORK_MIN_EVENTS events per process,
never for more processes than CPUs this process may use, and never while a
second Python thread is alive, since forking a threaded process can
deadlock. Hitting-time runs always run in the calling process.
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
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .mfpt import mfpt_critical_profile
from .params import SystemParams, as_int, as_real, derive, is_stable
from .steady_state import MAX_CSV_ROWS

_MASK64 = (1 << 64) - 1
_DRAW_BLOCK = 1024
HITTING_BLOCK = 1024
MAX_REPLICATIONS = 10**7
# Most steps a hitting-time run may be expected to take: T(start) x (lambda +
# M mu) per walk, an upper bound, times the replications in whole blocks, as a
# block costs about the same per step (20-70 us) with one walk or 1024.
MAX_HITTING_STEPS = 10**8
# Most events a stationary run may simulate, 12-17 s at the 1.2-1.7 us per event
# measured for a 4.8e6-event run on a shared 2-vCPU Xeon.
MAX_FCFS_EVENTS = 10**7
N_BATCHES = 20
# Events an FCFS replication buffers before folding its path into the batches.
PATH_BLOCK = 1 << 16
# Fewest events of a stationary run per process it is shared by. One fork and
# its reap cost 2.3-4.2 ms in a 41-45 MB process on a shared 2-vCPU Xeon, the
# time of 2e3-3e3 events at 1.1-1.4 us each, so a child always simulates at
# least five times what its fork costs.
FORK_MIN_EVENTS = 1 << 14


def _stream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, replication or block index)."""
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


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


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for the simulator; times are minutes.

    warmup defaults to 50 * max(t_call, t_service) and horizon to
    warmup + 5000 * t_call (about 1e4 post-warmup events) when left None.
    """

    seed: int
    replications: int = 1
    warmup: float | None = None
    horizon: float | None = None
    start_state: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
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


def _hitting_times(
    lam: float, mu: float, start_state: int, target: int, seed: int, replications: int
) -> np.ndarray:
    """First-passage times to ``target``, one per replication, in order.

    Replications are cut into blocks of HITTING_BLOCK (the last may be
    shorter) and block b draws from the stream keyed by (seed, b), so the
    times of a whole block depend only on the seed and b. The walks of a
    block advance in lockstep: each step draws one exponential and then one
    uniform per walk still active, in replication order, and a walk retires
    as soon as it reaches ``target``.
    """
    times = np.empty(replications)
    for first in range(0, replications, HITTING_BLOCK):
        gen = _stream(seed, first // HITTING_BLOCK)
        slots = np.arange(first, min(first + HITTING_BLOCK, replications))
        t = np.zeros(slots.size)
        n = np.full(slots.size, start_state)
        while slots.size:
            # n <= target - 1 <= M while active, so the down rate needs no cap;
            # at n = 0 the uniform test always steps up
            total = lam + mu * n
            t += gen.standard_exponential(slots.size) / total
            n += np.where(gen.random(slots.size) * total < lam, 1, -1)
            active = n != target
            if not active.all():
                times[slots[~active]] = t[~active]
                slots, t, n = slots[active], t[active], n[active]
    return times


def simulate_hitting_time(
    params: SystemParams,
    start_state: int,
    config: SimConfig,
) -> SimEstimate:
    """Estimate the mean time to first enter state M+1 from ``start_state``.

    Simulates the occupancy jump chain directly: exponential holding times
    at the total rate out of the current state, then an up/down step with
    probability proportional to the corresponding rate. The standard error
    is the plain replication-variance estimate. A run whose expected step
    count may exceed MAX_HITTING_STEPS is refused before it starts.
    """
    m = params.servers
    start_state = as_int(start_state, "start_state", minimum=0)
    if start_state > m:
        raise ParameterError(
            f"start_state must be an integer in [0, {m}] (below the saturation target), "
            f"got {start_state!r}"
        )
    walks = math.ceil(config.replications / HITTING_BLOCK) * HITTING_BLOCK
    steps = walks * mfpt_critical_profile(params).times[start_state] * (
        params.arrival_rate + m * params.service_rate
    )
    if not steps <= MAX_HITTING_STEPS:
        raise ParameterError(
            f"hitting-time run from state {start_state} would take about {steps:.3g} steps "
            f"({walks} walks, whole blocks, x T(start) x (lambda + M mu)), "
            f"more than {MAX_HITTING_STEPS:.0e}"
        )
    times = _hitting_times(
        params.arrival_rate, params.service_rate, start_state, m + 1,
        config.seed, config.replications,
    )
    return _estimate(times, config.seed)


class _Batches:
    """Per-batch accumulators of one replication, filled block by block.

    Batch b covers [bounds[b], bounds[b + 1]): the inner edges are
    warmup + (b + 1) * batch_len and the last batch ends at the horizon. A
    time belongs to the batch whose edges enclose it, so every per-batch
    quantity follows one rule. histograms[b] is a pair (lo, occ) with
    occ[i] the time spent at occupancy n = lo + i, so a histogram spans
    only the levels its batch visited.
    """

    __slots__ = ("bounds", "histograms", "completions", "wait_count", "wait_sum", "wait_below")

    def __init__(self, warmup: float, horizon: float):
        batch_len = (horizon - warmup) / N_BATCHES
        inner = warmup + np.arange(1, N_BATCHES) * batch_len
        self.bounds = np.concatenate(([warmup], inner, [horizon]))
        self.histograms: list[tuple[int, np.ndarray]] = [(0, np.zeros(0))] * N_BATCHES
        self.completions = np.zeros(N_BATCHES, dtype=np.int64)
        self.wait_count = np.zeros(N_BATCHES, dtype=np.int64)
        self.wait_sum = np.zeros(N_BATCHES)
        self.wait_below = np.zeros(N_BATCHES, dtype=np.int64)

    def _batch_of(self, times: list[float]) -> np.ndarray:
        values = np.fromiter(times, float, len(times))
        return np.searchsorted(self.bounds[1:-1], values, side="right")

    def fold_path(self, start: float, ends: list[float], levels: list[int]) -> None:
        """Add the path that holds levels[i] from ends[i - 1] (``start`` for
        i = 0) to ends[i] to the histograms.

        The batch bounds inside the path are inserted as extra points, so no
        segment crosses one and each segment counts toward the batch its
        start lies in; segments before the warmup count nowhere. Each
        level's time accumulates in path order, continuing the sums of
        earlier blocks.
        """
        points = np.fromiter(itertools.chain((start,), ends), float, len(ends) + 1)
        n = np.fromiter(levels, np.int64, len(levels))
        inside = self.bounds[(self.bounds > points[0]) & (self.bounds < points[-1])]
        at = np.searchsorted(points, inside)
        n = np.insert(n, at, n[at - 1])
        points = np.insert(points, at, inside)
        duration = np.diff(points)
        cuts = np.searchsorted(points[:-1], self.bounds).tolist()
        for b in range(N_BATCHES):
            i, j = cuts[b], cuts[b + 1]
            if i == j:
                continue
            old_lo, old = self.histograms[b]
            low = int(n[i:j].min())
            if old.size:
                low = min(low, old_lo)
            # bincount adds in input order, so the old totals go first
            self.histograms[b] = low, np.bincount(
                np.concatenate((np.arange(old_lo - low, old_lo - low + old.size), n[i:j] - low)),
                weights=np.concatenate((old, duration[i:j])),
            )

    def fold_departures(self, times: list[float]) -> None:
        """Count completions at ``times``, all in [warmup, horizon)."""
        self.completions += np.bincount(self._batch_of(times), minlength=N_BATCHES)

    def fold_waits(self, arrivals: list[float], waits: list[float], t_los: float) -> None:
        """Add queued waits, each to the batch of its call's arrival."""
        b = self._batch_of(arrivals)
        w = np.fromiter(waits, float, len(waits))
        self.wait_count += np.bincount(b, minlength=N_BATCHES)
        self.wait_sum = np.bincount(
            np.concatenate((np.arange(N_BATCHES), b)), weights=np.concatenate((self.wait_sum, w))
        )
        self.wait_below += np.bincount(b[w < t_los], minlength=N_BATCHES)


def _run_fcfs_replication(
    params: SystemParams,
    config: SimConfig,
    rep: int,
    t_los: float,
    assignment: str,
    collect_waits: bool,
) -> tuple[_Batches, list[float], np.ndarray]:
    m = params.servers
    lam = params.arrival_rate
    mu = params.service_rate
    warmup = config.warmup
    horizon = config.horizon
    record = _Batches(warmup, horizon)
    draws = _Draws(_stream(config.seed, rep))
    block = PATH_BLOCK

    idle = list(range(m))
    busy = [0.0] * m
    departures: list[tuple[float, int]] = []  # heap of (time, server)
    queue: deque[tuple[float, int]] = deque()  # (arrival time, call index)
    waits: list[tuple[int, float]] = []
    n = config.start_state
    call_index = 0

    # The path since the last fold: segment end times and the occupancy
    # during each segment, departure times after warmup, and the arrival
    # times and waits of queued calls that arrived after warmup.
    ends: list[float] = []
    levels: list[int] = []
    done: list[float] = []
    arrivals: list[float] = []
    queued_waits: list[float] = []
    since = 0.0  # start of the first buffered segment

    def fold() -> None:
        record.fold_path(since, ends, levels)
        record.fold_departures(done)
        record.fold_waits(arrivals, queued_waits, t_los)
        for buffer in (ends, levels, done, arrivals, queued_waits):
            buffer.clear()

    def serve(server: int, start: float) -> None:
        end = start + draws.exponential() / mu
        heapq.heappush(departures, (end, server))
        span = (end if end < horizon else horizon) - (start if start > warmup else warmup)
        if span > 0.0:
            busy[server] += span

    # Seed the initial state: start_state calls present at t=0, the first
    # min(start_state, m) already in service on the low-index servers.
    for _ in range(min(n, m)):
        serve(idle.pop(0), 0.0)
    queue.extend(itertools.repeat((0.0, -1), n - m))

    next_arrival = draws.exponential() / lam
    pick_random = assignment == "random"

    while True:
        t_dep = departures[0][0] if departures else math.inf
        t = next_arrival if next_arrival <= t_dep else t_dep
        if t >= horizon:
            break
        ends.append(t)
        levels.append(n)

        if next_arrival <= t_dep:
            # arrival: schedule the next one, then dispatch or queue
            next_arrival = t + draws.exponential() / lam
            index = call_index if t >= warmup else -1
            if t >= warmup:
                call_index += 1
            if idle:
                # the assignment draw is consumed under both policies so the
                # occupancy path is identical; only the chosen server differs
                u = draws.uniform()
                if pick_random:
                    pick = int(u * len(idle))
                    if pick >= len(idle):
                        pick = len(idle) - 1
                    server = idle.pop(pick)
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
            # departure: free the server or hand it the queue head
            _, server = heapq.heappop(departures)
            n -= 1
            if t >= warmup:
                done.append(t)
            if queue:
                arrival, index = queue.popleft()
                wait = t - arrival
                # only queued calls count toward the conditional wait statistics;
                # immediate dispatches wait zero and appear only in the call log
                if arrival >= warmup:
                    arrivals.append(arrival)
                    queued_waits.append(wait)
                if collect_waits and index >= 0:
                    waits.append((index, wait))
                serve(server, t)
            else:
                idle.append(server)
        if len(ends) >= block:
            fold()
            since = t

    ends.append(horizon)
    levels.append(n)
    fold()
    # the logged waits in call order, as one array: 8 bytes a wait, where a
    # (call, wait) tuple takes about 100, also in a forked worker's report
    waits.sort()
    return record, busy, np.array([wait for _, wait in waits])


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
    if processes == 1:
        return [run(rep) for rep in range(replications)]
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


def _estimate(values, seed: int) -> SimEstimate | None:
    if len(values) == 0:
        return None
    arr = np.array(values, dtype=float)
    value = float(arr.mean())
    std_error = float(arr.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return SimEstimate(value=value, std_error=std_error, n_samples=len(values), seed=seed)


def _occupancy_estimates(
    histograms: list[tuple[int, np.ndarray]], servers: int, batch_len: float, seed: int
) -> tuple[dict[str, SimEstimate | None], tuple[float, ...]]:
    """Estimates of pi_n, p_occup, cond_queue_k, mean_queue_len_conditional
    and p_busy_per_server (None where no batch counts), and the batch mean
    queue lengths, all read off the per-batch histograms (lo, occ), occ[i]
    the time at n = lo + i: FCFS keeps min(n, M) servers busy."""
    m = servers

    def at(lo: int, occ: np.ndarray, n: int) -> float:
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
    return estimates, tuple(q / batch_len for q in queue_area)


@dataclass(frozen=True)
class StationaryResult:
    """Batch-means estimates from the FCFS simulation plus diagnostics.

    estimates maps quantity names to SimEstimate; quantities never observed
    (for instance conditional waits in a run that never saturated) are
    omitted. batch_queue_means is the per-batch time-average queue length,
    useful for spotting the unbounded growth of an overloaded system.
    """

    estimates: dict[str, SimEstimate]
    per_server_busy: tuple[float, ...]
    batch_queue_means: tuple[float, ...]
    waits: tuple[tuple[int, float], ...] | None


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
    picks the lowest index instead, for sensitivity checks; it consumes the
    same draws so the occupancy path is unchanged).

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
    if not events <= MAX_FCFS_EVENTS:
        raise ParameterError(
            f"stationary run would simulate about {events:.3g} events, more than {MAX_FCFS_EVENTS:.0e}"
        )
    rows = cfg.replications * (cfg.horizon - cfg.warmup) * lam
    if collect_waits and not rows <= MAX_CSV_ROWS:
        raise ParameterError(f"wait log would hold about {rows:.3g} rows, more than {MAX_CSV_ROWS}")
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
    records: list[_Batches] = []
    per_server = [0.0] * m
    for record, rep_busy, _ in results:
        records.append(record)
        per_server = [a + b for a, b in zip(per_server, rep_busy)]

    batch_len = (cfg.horizon - cfg.warmup) / N_BATCHES
    histograms = [h for record in records for h in record.histograms]
    estimates, batch_queue_means = _occupancy_estimates(histograms, m, batch_len, cfg.seed)
    completions = np.concatenate([record.completions for record in records])
    estimates["throughput"] = _estimate(completions / batch_len, cfg.seed)
    wait_count = np.concatenate([record.wait_count for record in records])
    waited = wait_count > 0
    wait_sum = np.concatenate([record.wait_sum for record in records])[waited]
    wait_below = np.concatenate([record.wait_below for record in records])[waited]
    estimates["wait_mean_conditional"] = _estimate(wait_sum / wait_count[waited], cfg.seed)
    estimates["wait_cdf_at_t_los"] = _estimate(wait_below / wait_count[waited], cfg.seed)
    total_time = len(histograms) * batch_len
    return StationaryResult(
        estimates={name: est for name, est in estimates.items() if est is not None},
        per_server_busy=tuple(busy / total_time for busy in per_server),
        batch_queue_means=batch_queue_means,
        waits=tuple(enumerate(np.concatenate([w for _, _, w in results]).tolist()))
        if collect_waits else None,
    )
