"""Mean first-passage times of the occupancy walk to fleet saturation.

The walk reflects at 0 and saturates on first entry into state M+1 (all
servers assigned and one call newly queued). ``mfpt_critical_profile`` and
``mfpt_sweep`` sum the one-term recurrence of the fleet ladder in O(M) per
call spacing. ``mfpt_general`` evaluates the nested sum/product expression
for an arbitrary ladder, and ``mfpt_linear_solve`` an independent
tridiagonal-system oracle; both cross-check the recurrence.

The nested sums are evaluated with running products extended one factor
at a time (never factorials or separate powers), so intermediates stay
representable whenever the result itself is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .errors import ParameterError, UnreachableTargetError
from .params import RateLadder, SystemParams, as_int


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


def _time_from_origin(ladder: RateLadder, boundary: int) -> float:
    # Mean hitting time of `boundary` from 0 with a reflecting origin:
    #   sum_{k<boundary} 1/up(k)
    #   + sum_{k<boundary-1} (1/up(k)) * sum_{i=k+1}^{boundary-1} prod_{j=k+1}^{i} down(j)/up(j)
    # k outer ascending, i inner ascending, product extended incrementally in i.
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


def mfpt_general(ladder: RateLadder, start: int, target: int) -> float:
    """Mean time for the walk to first reach ``target`` from ``start``.

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


def _offsets(params: SystemParams) -> Iterator[float]:
    """Yield h(0), h(1), ...: the mean time to first step from n up to n+1.

    h(0) = t_call and h(n) = t_call * (1 + n * mu * h(n-1)). For n <= M the
    fleet cap on the service rate is not reached, so h(n) does not depend on
    the fleet size and one pass serves every fleet up to the last one read.
    A value past the float range is inf, and so is every later one.
    """
    t_call = params.t_call
    mu = params.service_rate
    h = t_call
    n = 0
    while True:
        yield h
        n += 1
        h = t_call * (1.0 + n * mu * h)


def mfpt_critical_profile(params: SystemParams) -> MfptProfile:
    """Saturation-time profile T(0..M) for the fleet ladder.

    T(n) = sum_{k=n..M} h(k) with the one-term recurrence of ``_offsets``,
    and the initial-state average is sum_k (k+1) h(k) / (M+1). Valid for any
    traffic intensity; no steady state is required. O(M) time and memory.
    Every term is positive, so a time past the float range comes out as inf
    (never nan), as does every time before it and ``mean_time``.
    """
    m = params.servers
    offsets = list(islice(_offsets(params), m + 1))
    times = [0.0] * (m + 1)
    tail = 0.0
    for n in range(m, -1, -1):
        tail += offsets[n]
        times[n] = tail
    weighted = 0.0
    for k, h in enumerate(offsets):
        weighted += (k + 1) * h
    return MfptProfile(times=tuple(times), mean_time=weighted / (m + 1))


def mfpt_linear_solve(ladder: RateLadder, target: int) -> list[float]:
    """Hitting times of ``target`` from every start 0..target-1, solved directly.

    Independent oracle: the hitting times satisfy the tridiagonal balance
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


def mfpt_sweep(
    t_service: float,
    servers_list: Sequence[int],
    t_call_grid: Sequence[float],
) -> list[tuple[float, int, float]]:
    """Average saturation time over a (fleet size, call spacing) grid.

    Returns one (t_call, servers, mean_time) row per grid point, fleet-major
    so each curve is contiguous for plotting. Each mean_time equals
    ``mfpt_critical_profile(...).mean_time`` at that point; one recurrence
    per call spacing, read at every fleet, supplies them all.
    """
    if not servers_list or not t_call_grid:
        raise ParameterError("servers_list and t_call_grid must be non-empty")
    fleets = [
        SystemParams(t_call=t_call_grid[0], t_service=t_service, servers=m).servers
        for m in servers_list
    ]
    wanted = set(fleets)
    by_t_call = []
    for t_call in t_call_grid:
        params = SystemParams(t_call=t_call, t_service=t_service, servers=1)
        means = {}
        weighted = 0.0
        for k, h in zip(range(max(fleets) + 1), _offsets(params)):
            weighted += (k + 1) * h
            if k in wanted:
                means[k] = weighted / (k + 1)
        by_t_call.append((params.t_call, means))
    return [(t_call, m, means[m]) for m in fleets for t_call, means in by_t_call]

