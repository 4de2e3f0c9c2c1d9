"""Stationary occupancy distribution, occupation probability, queue-length law.

The all-busy probability is the Erlang-C form (``_erlang_c``) of the
Erlang-B blocking. ``_blocking`` yields the blocking as a ladder over fleets
0, 1, ...: ``p_occupation`` reads it at one fleet, ``p_occupation_by_fleet``
at several in one pass, and the sizing scan at every fleet from its first.
The distribution below the fleet size is built outwards from its mode; at and
above the fleet size the tail is exactly geometric with ratio rho, so the
tail is kept symbolic as (pi_M, rho) rather than materialized; its mass
head[M] / (1 - rho) is ``p_occupation``'s value up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

from .params import SystemParams, as_int, at_most, read_ladder, require_steady_state

# Most rows a stationary CSV may hold. The tail down to 1e-9 mass takes
# about 20.7 / (1 - rho) rows, so this refuses rho within about 2e-5 of 1.
MAX_CSV_ROWS = 10**6


def _blocking(a: float) -> Iterator[float]:
    """The Erlang-B blocking B(n) at offered load a for n = 0, 1, ..., an
    endless iterator.

    B(0) = 1 and B(n) = a B(n-1) / (n + a B(n-1)). The product a B(n-1) is
    rounded once and used twice, which changes no bit of the quotient, and n
    is a float: exact below 2**53, and no int is converted. Once B is exactly
    0.0, every later value is too (a * 0.0 / (n + 0.0) = 0.0), so the ladder
    repeats 0.0 from there without stepping.
    """

    def steps():
        blocking = 1.0
        n = 1.0
        while blocking:
            yield blocking
            carried = a * blocking
            blocking = carried / (n + carried)
            n += 1.0

    return chain(steps(), repeat(0.0))


def _erlang_c(blocking: float, rho: float) -> float:
    """The queueing form B / (1 - rho (1 - B)) of the Erlang-B value B at
    traffic intensity rho: the probability that every server is busy."""
    return blocking / (1.0 - rho * (1.0 - blocking))


def _occupancy_weights(params: SystemParams) -> tuple[list[float], float]:
    """The head pi_0..pi_M and rho.

    The weights a^n / n! are scaled to 1 at the mode n = floor(a) and built
    outwards from it, times n / a going down and a / n going up. No weight
    exceeds 1, so nothing overflows at any offered load, and the mode never
    underflows; weights far from it may. The normalisation folds the
    geometric tail into the last term. Raises NoSteadyStateError when
    rho >= 1.
    """
    d = require_steady_state(params)
    m = params.servers
    a = d.offered_load
    mode = math.floor(a)  # below m, since rho < 1
    weights = [0.0] * (m + 1)
    w = 1.0
    for n in range(mode, -1, -1):
        weights[n] = w
        w = w * n / a
    w = 1.0
    for n in range(mode + 1, m + 1):
        w = w * a / n
        weights[n] = w
    norm = sum(weights[:m]) + weights[m] / (1.0 - d.rho)
    return [w / norm for w in weights], d.rho


@dataclass(frozen=True)
class StationaryProfile:
    """Long-run occupancy law: explicit head, symbolic geometric tail.

    head[n] is the probability of n calls in the system for n <= M;
    beyond M the probability is head[M] * tail_ratio**(n - M).
    """

    head: tuple[float, ...]
    tail_ratio: float

    @property
    def servers(self) -> int:
        return len(self.head) - 1

    def pi(self, n: int) -> float:
        n = as_int(n, "state", minimum=0)
        if n <= self.servers:
            return self.head[n]
        return self.head[self.servers] * self.tail_ratio ** (n - self.servers)


def stationary_profile(params: SystemParams) -> StationaryProfile:
    """Closed-form stationary distribution; requires traffic intensity < 1."""
    head, rho = _occupancy_weights(params)
    return StationaryProfile(head=tuple(head), tail_ratio=rho)


def p_occupation(params: SystemParams) -> float:
    """Probability that every server is busy (an arriving call must queue):
    the Erlang-C form of the Erlang-B recurrence B(n) = a B(n-1) / (n + a
    B(n-1)), numerically stable for any fleet size."""
    d = require_steady_state(params)
    return _erlang_c(read_ladder(_blocking(d.offered_load), [params.servers])[0], d.rho)


def p_occupation_by_fleet(
    t_call: float, t_service: float, fleets: Sequence[int]
) -> list[float]:
    """``p_occupation`` at each fleet size in ``fleets``, from one Erlang-B
    pass. Each value equals what ``p_occupation`` returns at that fleet;
    the fleets may be unsorted or repeated. The fleets are checked in the
    order given, and the first that ``p_occupation`` would refuse raises
    the same error.
    """
    servers = []
    rhos = []
    a = 0.0
    for m in fleets:
        params = SystemParams(t_call=t_call, t_service=t_service, servers=m)
        d = require_steady_state(params)
        servers.append(params.servers)
        rhos.append(d.rho)
        a = d.offered_load
    return [_erlang_c(b, rho) for b, rho in zip(read_ladder(_blocking(a), servers), rhos)]


def queue_conditional_pmf(params: SystemParams, k: int) -> float:
    """Probability of k waiting calls given all servers are busy.

    Geometric with parameter 1 - rho.
    """
    k = as_int(k, "k", minimum=0)
    d = require_steady_state(params)
    return d.rho**k * (1.0 - d.rho)


@dataclass(frozen=True)
class QueueStats:
    """Mean and standard deviation of the queue given all servers busy."""

    mean_len: float
    std_len: float


def queue_stats(params: SystemParams) -> QueueStats:
    d = require_steady_state(params)
    return QueueStats(
        mean_len=d.rho / (1.0 - d.rho),
        std_len=math.sqrt(d.rho) / (1.0 - d.rho),
    )


def stationary_csv_length(params: SystemParams) -> int:
    """Number of rows of ``stationary_csv_rows``: the head and the tail down
    to ~1e-9 mass. Raises ParameterError when that exceeds MAX_CSV_ROWS."""
    rho = require_steady_state(params).rho
    rows = params.servers + math.ceil(math.log(1e-9) / math.log(rho)) + 1
    return at_most(
        rows, MAX_CSV_ROWS, f"stationary CSV for servers={params.servers} at rho={rho:.6g}, rows"
    )


def stationary_csv_rows(params: SystemParams) -> list[tuple[int, float]]:
    """(n, pi_n) rows covering the head and the tail down to ~1e-9 mass."""
    profile = stationary_profile(params)
    return [(n, profile.pi(n)) for n in range(stationary_csv_length(params))]
