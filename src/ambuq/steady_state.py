"""Stationary occupancy distribution, occupation probability, queue-length law.

The distribution below the fleet size follows the multiplicative head
recurrence; at and above it the tail is exactly geometric with ratio rho,
so the tail is kept symbolic as (pi_M, rho) rather than materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSteadyStateError, ParameterError
from .params import RateLadder, SystemParams, as_int, require_steady_state

# rho this close to 1 still has a steady state, but queue moments blow up
# like 1/(1-rho); the profile carries a conditioning flag instead of failing.
ILL_CONDITIONING_BAND = 1e-9


def _occupancy_weights(params: SystemParams) -> tuple[list[float], float, float]:
    """Unnormalized head weights a^n / n! and the normalization constant.

    The normalization folds the whole geometric tail into the last term.
    Raises NoSteadyStateError when rho >= 1 (the tail mass diverges).
    """
    d = require_steady_state(params)
    m = params.servers
    a = d.offered_load
    weights = [1.0]
    for n in range(m):
        weights.append(weights[-1] * a / (n + 1))
    norm = 0.0
    for n in range(m):
        norm += weights[n]
    norm += weights[m] / (1.0 - d.rho)
    return weights, norm, d.rho


@dataclass(frozen=True)
class StationaryProfile:
    """Long-run occupancy law: explicit head, symbolic geometric tail.

    head[n] is the probability of n calls in the system for n <= M;
    beyond M the probability is head[M] * tail_ratio**(n - M).
    """

    head: tuple[float, ...]
    tail_ratio: float
    norm: float
    p_occup: float
    ill_conditioned: bool

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
    weights, norm, rho = _occupancy_weights(params)
    head = tuple(w / norm for w in weights)
    p_occup = weights[params.servers] / ((1.0 - rho) * norm)
    return StationaryProfile(
        head=head,
        tail_ratio=rho,
        norm=norm,
        p_occup=p_occup,
        ill_conditioned=rho >= 1.0 - ILL_CONDITIONING_BAND,
    )


def stationary_general(ladder: RateLadder, truncation: int) -> list[float]:
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


def suggested_truncation(params: SystemParams, tail_mass: float = 1e-12) -> int:
    """Truncation for stationary_general leaving under ``tail_mass`` behind."""
    d = require_steady_state(params)
    if not 0.0 < tail_mass < 1.0:
        raise ParameterError(f"tail_mass must be in (0, 1), got {tail_mass!r}")
    # Mass above N is at most rho**(N - M) relative to the head, so walk the
    # exponent until the bound clears with a small safety margin.
    extra = math.ceil(math.log(tail_mass) / math.log(d.rho)) + 2
    return params.servers + max(extra, 1)


def p_occupation(params: SystemParams) -> float:
    """Probability that every server is busy (an arriving call must queue).

    Evaluated through the blocking-probability recurrence
    B(n) = a B(n-1) / (n + a B(n-1)), then converted to the queueing form
    B(M) / (1 - rho (1 - B(M))). Numerically stable for any fleet size.
    """
    d = require_steady_state(params)
    a = d.offered_load
    blocking = 1.0
    for n in range(1, params.servers + 1):
        blocking = a * blocking / (n + a * blocking)
    return blocking / (1.0 - d.rho * (1.0 - blocking))


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


def stationary_csv_rows(params: SystemParams) -> list[tuple[int, float]]:
    """(n, pi_n) rows covering the head and the tail down to ~1e-9 mass."""
    profile = stationary_profile(params)
    rho = profile.tail_ratio
    top = params.servers + math.ceil(math.log(1e-9) / math.log(rho))
    return [(n, profile.pi(n)) for n in range(top + 1)]

