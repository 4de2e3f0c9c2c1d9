"""Mean first-passage times of the occupancy walk to fleet saturation.

The walk reflects at 0 and saturates on first entry into state M+1 (all
servers assigned and one call newly queued). ``_offsets`` sums the one-term
recurrence of the fleet ladder and each fleet's mean saturation time in
O(M) per call spacing, for ``mfpt_critical_profile``, ``mfpt_sweep`` and the
sizing scan; it never forms factorials or separate powers. The tests
cross-check it against the nested sum/product expression and a tridiagonal
solve, both in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, Sequence

from .errors import ParameterError
from .params import SystemParams, at_most, read_ladder

# Most recurrence steps one sweep may take, (max(fleets) + 1) per call
# spacing: 6-8 s at the 120-160 ns a step measured on a shared 2-vCPU Xeon,
# about what MAX_FCFS_EVENTS admits for a stationary simulation.
MAX_SWEEP_STEPS = 5 * 10**7


@dataclass(frozen=True)
class MfptProfile:
    """Saturation times by initial state plus their initial-state average.

    ``times[n]`` is the mean number of minutes until the walk started at n
    first enters state M+1; ``mean_time`` averages the M+1 entries.
    """

    times: tuple[float, ...]
    mean_time: float

    @property
    def servers(self) -> int:
        return len(self.times) - 1


def _offsets(params: SystemParams) -> Iterator[tuple[float, float]]:
    """Yield (h(n), fleet n's mean saturation time) for n = 0, 1, ...

    h(n), the mean time to first step from n up to n+1, is t_call at n = 0
    and t_call * (1 + n * mu * h(n-1)) after; the mean is
    sum_{k<=n} (k+1) h(k) / (n+1). Up to n = M the fleet cap on the service
    rate is not reached, so neither depends on the fleet size and one pass
    serves every fleet up to the last one read. A value past the float range
    is inf, and so is every later one.
    """
    t_call = params.t_call
    mu = params.service_rate
    h = t_call
    weighted = 0.0
    k = 1.0  # n + 1, a float: exact below 2**53, and no int is converted
    while True:
        weighted += k * h
        yield h, weighted / k
        h = t_call * (1.0 + k * mu * h)
        k += 1.0


def mfpt_critical_profile(params: SystemParams) -> MfptProfile:
    """Saturation-time profile T(0..M) for the fleet ladder.

    T(n) = sum_{k=n..M} h(k) with the one-term recurrence of ``_offsets``,
    which also gives the initial-state average. Valid for any traffic
    intensity; no steady state is required. O(M) time and memory. Every
    term is positive, so a time past the float range comes out as inf
    (never nan), as does every time before it and ``mean_time``.
    """
    m = params.servers
    steps = list(islice(_offsets(params), m + 1))
    times = list(accumulate(reversed([h for h, _ in steps])))  # T(M), ..., T(0)
    times.reverse()
    return MfptProfile(times=tuple(times), mean_time=steps[m][1])


def mfpt_sweep(
    t_service: float,
    servers_list: Sequence[int],
    t_call_grid: Sequence[float],
) -> list[tuple[float, int, float]]:
    """Average saturation time over a (fleet size, call spacing) grid.

    Returns one (t_call, servers, mean_time) row per grid point, fleet-major
    so each curve is contiguous for plotting. Each mean_time equals
    ``mfpt_critical_profile(...).mean_time`` at that point. The recurrences
    of all call spacings step together as one ladder, whose rung n holds
    every spacing's rung n, and one read at every fleet supplies them all.
    A sweep of more than MAX_SWEEP_STEPS steps is refused before the first
    step.
    """
    if not servers_list or not t_call_grid:
        raise ParameterError("servers_list and t_call_grid must be non-empty")
    fleets = [
        SystemParams(t_call=t_call_grid[0], t_service=t_service, servers=m).servers
        for m in servers_list
    ]
    at_most(
        (max(fleets) + 1) * len(t_call_grid), MAX_SWEEP_STEPS,
        f"mfpt sweep recurrence steps, (largest fleet + 1) x {len(t_call_grid)} call spacings",
    )
    grid = [SystemParams(t_call=t_call, t_service=t_service, servers=1) for t_call in t_call_grid]
    rungs = read_ladder(zip(*map(_offsets, grid)), fleets)
    return [
        (params.t_call, m, mean)
        for m, rung in zip(fleets, rungs)
        for params, (_, mean) in zip(grid, rung)
    ]
