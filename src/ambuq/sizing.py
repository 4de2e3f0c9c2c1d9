"""Inverse fleet-size queries: smallest M meeting a performance target.

The search is an ascending scan that stops at the first fleet meeting the
target. Every scanned metric is monotone in M. Erlang C, the occupation
probability, falls as servers are added (Harel 1990, "Convexity properties
of the Erlang loss formula", Operations Research). The wait rate
M mu - lambda rises, so the LOS 1 - C exp(-(M mu - lambda) t) rises with
it. The mean saturation time is the running average of the terms
(k + 1) h(k), each positive and larger than the last, so it rises too. So
the value at m_max is the best one a scan that finds no fleet attains.

The scan reads the Erlang-B ladder or the saturation-time ladder from its
first fleet on, so a fleet costs O(1). The metrics use the same helpers as
``p_occupation``, ``level_of_service`` and ``mfpt_critical_profile``, so
every value equals what those return at that fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import ParameterError
from .mfpt import _offsets
from .params import MAX_FLEET, SystemParams, as_int, as_real, derive, stability_bound
from .service_metrics import _los, _wait_rate_at
from .steady_state import _blocking, _erlang_c

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
    m_max     scan cap, at most MAX_FLEET; a query that fails up to here
              reports not-found
    """

    kind: str
    target: float | None = None
    t_los: float | None = None
    m_max: int = 1000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(
            self, "m_max", as_int(self.m_max, "m_max", minimum=1, maximum=MAX_FLEET)
        )
        if self.kind != "stability":
            object.__setattr__(self, "target", as_real(self.target, "target", positive=True))
        if self.kind in ("los_target", "occup_ceiling") and self.target > 1.0:
            raise ParameterError(
                f"target must be a probability in (0, 1] for {self.kind}, got {self.target!r}"
            )
        if self.kind == "los_target":
            object.__setattr__(self, "t_los", as_real(self.t_los, "t_los"))


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a scan: the fleet size found (or None) plus audit data.

    predicate_value is the metric at the answer when found, otherwise at
    m_max, which is the best value scanned since the metric is monotone in
    M (None if nothing was scanned).
    """

    kind: str
    m: int | None
    predicate_value: float | None
    scanned: tuple[int, int]
    found: bool


def _metric_by_fleet(kind: str, params: SystemParams, t_los: float | None) -> Iterator[float]:
    """The query's metric at fleets params.servers, params.servers + 1, ...

    The scan starts at the exact stability bound. Where the float rho of
    that first fleet still rounds to 1, its occupation and LOS come out as
    their limits at rho = 1, within rounding: 1 and 0.
    """
    if kind == "mfpt_horizon":
        for _, mean_time in islice(_offsets(params), params.servers, None):
            yield mean_time
    else:
        a = derive(params).offered_load
        mu = params.service_rate
        for m, blocking in enumerate(islice(_blocking(a), params.servers, None), params.servers):
            rho = a / m
            occup = _erlang_c(blocking, rho)
            yield occup if kind == "occup_ceiling" else _los(occup, _wait_rate_at(rho, m, mu), t_los)


def min_fleet(t_call: float, t_service: float, query: SizingQuery) -> SizingResult:
    """Scan fleet sizes upward until the query's predicate first holds;
    for stability, the first fleet holds it."""
    start = 1 if query.kind == "mfpt_horizon" else stability_bound(t_call, t_service)
    if start > query.m_max:
        return SizingResult(
            kind=query.kind, m=None, predicate_value=None,
            scanned=(start, query.m_max), found=False,
        )

    params = SystemParams(t_call=t_call, t_service=t_service, servers=start)
    if query.kind == "stability":  # start is the exact stability bound
        return SizingResult(
            kind=query.kind, m=start, predicate_value=derive(params).rho,
            scanned=(start, start), found=True,
        )
    # a ceiling on occup is a floor on -occup (negation is exact), so one
    # comparison, in the direction of the kind, serves every goal
    sign = -1.0 if query.kind == "occup_ceiling" else 1.0
    goal = sign * query.target
    values = _metric_by_fleet(query.kind, params, query.t_los)
    for m, value in zip(range(start, query.m_max + 1), values):
        if sign * value >= goal:
            return SizingResult(
                kind=query.kind, m=m, predicate_value=value,
                scanned=(start, m), found=True,
            )
    return SizingResult(
        kind=query.kind, m=None, predicate_value=value,
        scanned=(start, query.m_max), found=False,
    )
