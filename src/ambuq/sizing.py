"""Inverse fleet-size queries: smallest M meeting a performance target.

Monotonicity of the probability targets in M is empirically solid but not
proven, so the search is an ascending scan that stops only at the first
fleet meeting the target. The scan is incremental: each fleet extends the
previous fleet's Erlang-B blocking value or saturation-time prefix sum, so
a fleet costs O(1). The metrics use the same expressions as
``p_occupation``, ``level_of_service`` and ``mfpt_critical_profile``, so
every value equals what those return at that fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .errors import NoSteadyStateError, ParameterError
from .mfpt import _offsets
from .params import SystemParams, derive

# The scan calls none of these; perfbench/tracing.py wraps them by name here.
from .mfpt import mfpt_critical_profile
from .service_metrics import level_of_service
from .steady_state import p_occupation

KINDS = ("stability", "los_target", "occup_ceiling", "mfpt_horizon")


@dataclass(frozen=True)
class SizingQuery:
    """What to solve for.

    kind      one of stability, los_target, occup_ceiling, mfpt_horizon
    target    min LOS / max occupation probability (in (0, 1]) or min
              average time-to-saturation in minutes; ignored for stability
    t_los     threshold minutes, required for los_target only
    m_max     scan cap; a query that fails up to here reports not-found
    """

    kind: str
    target: float | None = None
    t_los: float | None = None
    m_max: int = 1000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.m_max, int) or isinstance(self.m_max, bool) or self.m_max < 1:
            raise ParameterError(f"m_max must be an integer >= 1, got {self.m_max!r}")
        if self.kind in ("los_target", "occup_ceiling"):
            if self.target is None or not 0.0 < self.target <= 1.0:
                raise ParameterError(
                    f"target must be a probability in (0, 1] for {self.kind}, got {self.target!r}"
                )
        elif self.kind == "mfpt_horizon":
            if (
                self.target is None
                or not math.isfinite(self.target)
                or self.target <= 0.0
            ):
                raise ParameterError(
                    f"target must be a positive horizon in minutes, got {self.target!r}"
                )
        if self.kind == "los_target":
            if self.t_los is None or not math.isfinite(self.t_los) or self.t_los < 0.0:
                raise ParameterError(f"los_target requires t_los >= 0, got {self.t_los!r}")


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a scan: the fleet size found (or None) plus audit data.

    predicate_value is the metric at the answer when found, otherwise the
    best value attained over the scanned range (None if nothing was scanned).
    """

    kind: str
    m: int | None
    predicate_value: float | None
    scanned: tuple[int, int]
    found: bool


def stability_bound(t_call: float, t_service: float) -> int:
    """Smallest fleet with traffic intensity below 1: floor(offered load) + 1."""
    d = derive(SystemParams(t_call=t_call, t_service=t_service, servers=1))
    return math.floor(d.offered_load) + 1


def _metric_by_fleet(kind: str, params: SystemParams, t_los: float | None) -> Iterator[float]:
    """The query's metric at fleets params.servers, params.servers + 1, ...

    Raises NoSteadyStateError, as p_occupation does, if an occupation or LOS
    value is asked for at a fleet with traffic intensity >= 1.
    """
    a = derive(params).offered_load
    if kind == "stability":
        for m in count(params.servers):
            yield a / m
    elif kind == "mfpt_horizon":
        weighted = 0.0
        for k, h in enumerate(_offsets(params)):
            weighted += (k + 1) * h
            if k >= params.servers:
                yield weighted / (k + 1)
    else:
        mu = params.service_rate
        blocking = 1.0
        for n in range(1, params.servers):
            blocking = a * blocking / (n + a * blocking)
        for m in count(params.servers):
            blocking = a * blocking / (m + a * blocking)
            rho = a / m
            if not rho < 1.0:
                raise NoSteadyStateError(rho)
            occup = blocking / (1.0 - rho * (1.0 - blocking))
            if kind == "occup_ceiling":
                yield occup
            else:
                rate = (1.0 - rho) * m * mu
                yield 1.0 - occup * math.exp(-rate * t_los)


def min_fleet(t_call: float, t_service: float, query: SizingQuery) -> SizingResult:
    """Scan fleet sizes upward until the query's predicate first holds."""
    start = 1 if query.kind == "mfpt_horizon" else stability_bound(t_call, t_service)
    if start > query.m_max:
        return SizingResult(
            kind=query.kind, m=None, predicate_value=None,
            scanned=(start, query.m_max), found=False,
        )

    params = SystemParams(t_call=t_call, t_service=t_service, servers=start)
    values = _metric_by_fleet(query.kind, params, query.t_los)
    best = None
    for m, value in zip(range(start, query.m_max + 1), values):
        if query.kind == "stability":
            ok = value < 1.0
            better = best is None or value < best
        elif query.kind == "occup_ceiling":
            ok = value <= query.target
            better = best is None or value < best
        else:
            ok = value >= query.target
            better = best is None or value > best
        if better:
            best = value
        if ok:
            return SizingResult(
                kind=query.kind, m=m, predicate_value=value,
                scanned=(start, m), found=True,
            )
    return SizingResult(
        kind=query.kind, m=None, predicate_value=best,
        scanned=(start, query.m_max), found=False,
    )
