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

from .errors import ParameterError
from .mfpt import _offsets
from .params import MAX_FLEET, SystemParams, as_int, as_real, derive, stability_bound
from .steady_state import _erlang_b

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

    predicate_value is the metric at the answer when found, otherwise the
    best value attained over the scanned range (None if nothing was scanned).
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
        blocking = _erlang_b(a, [params.servers - 1])[0]
        for m in count(params.servers):
            blocking = a * blocking / (m + a * blocking)
            rho = a / m
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
            ok = better = True  # the scan starts at the exact stability bound
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
