"""Validated system parameters, the derived ratios and the input rules.

The canonical time unit is minutes everywhere; rates are per minute. Unit
conversion, if any, happens at the CLI boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .errors import NoSteadyStateError, ParameterError


# Largest fleet any layer accepts: 100 times the supported 10^4, so that
# no count reaches an O(M) loop or allocation without bound.
MAX_FLEET = 10**6


def as_int(value, field: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """The package's one integer rule: an int, or a float with an integral
    value (returned as int). Bools, other floats, strings and every other
    type are refused, and so is a value below ``minimum`` or above
    ``maximum`` when one is given.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{field} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{field} must be an integer >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{field} must be an integer <= {maximum}, got {value}")
    return value


def as_real(value, field: str, positive: bool = False) -> float:
    """The package's one real-number rule: an int or float that is finite and
    >= 0 (> 0 when ``positive``), returned as float. Bools, strings and every
    other type are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{field} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not (number > 0.0 if positive else number >= 0.0) or number == math.inf:
        bound = "> 0" if positive else ">= 0"
        raise ParameterError(f"{field} must be finite and {bound}, got {value!r}")
    return number


def at_most(value, limit: int, what: str):
    """The package's one budget rule: ``value`` when it is at most ``limit``.
    Otherwise, NaN included, a ParameterError names ``what``, the value (as
    an estimate when it is a float) and the cap."""
    if not value <= limit:
        shown = value if isinstance(value, int) else f"about {value:.3g}"
        raise ParameterError(f"{what}: {shown}, more than the cap of {limit}")
    return value


def read_ladder(ladder: Iterator, fleets: Sequence[int]) -> list:
    """The package's one ladder reader: the rungs of ``ladder``, an iterator
    over rungs n = 0, 1, ..., at each fleet in ``fleets``. One ascending pass
    serves them all; the fleets may be unsorted or repeated."""
    values = [None] * len(fleets)
    n = 0  # the rung that ladder yields next
    for i in sorted(range(len(fleets)), key=fleets.__getitem__):
        m = fleets[i]
        if m >= n:  # else m repeats the fleet read last
            rung = next(islice(ladder, m - n, None))
            n = m + 1
        values[i] = rung
    return values


@dataclass(frozen=True)
class SystemParams:
    """Mean minutes between calls, mean service minutes, and fleet size.

    Immutable after construction; rho >= 1 is representable here and is
    rejected only by operations that require a steady state.
    """

    t_call: float
    t_service: float
    servers: int

    def __post_init__(self):
        object.__setattr__(self, "t_call", as_real(self.t_call, "t_call", positive=True))
        object.__setattr__(self, "t_service", as_real(self.t_service, "t_service", positive=True))
        object.__setattr__(
            self, "servers", as_int(self.servers, "servers", minimum=1, maximum=MAX_FLEET)
        )
        # Every layer divides by the rates and their ratios (see derive); refuse
        # them once here when they overflow or underflow to inf, 0 or nan.
        lam, mu = self.arrival_rate, self.service_rate
        if not (0.0 < lam / mu < math.inf and 0.0 < mu / lam < math.inf):
            raise ParameterError(
                f"offered load t_service / t_call = {self.t_service!r} / {self.t_call!r} "
                "is outside the floating-point range"
            )

    @property
    def arrival_rate(self) -> float:
        """Calls per minute (reciprocal of t_call)."""
        return 1.0 / self.t_call

    @property
    def service_rate(self) -> float:
        """Completions per minute per server (reciprocal of t_service)."""
        return 1.0 / self.t_service


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless ratios derived from the primitive inputs.

    rho          traffic intensity, offered load per server
    offered_load arrival rate over service rate, the mean number of busy servers
    """

    rho: float
    offered_load: float


def derive(params: SystemParams) -> DerivedParams:
    lam = params.arrival_rate
    mu = params.service_rate
    offered = lam / mu
    return DerivedParams(rho=offered / params.servers, offered_load=offered)


# derive's rho is within a few ulps of t_service / (M t_call), even from
# subnormal rates, so farther than this from 1 it lies on the exact side.
_RHO_GUARD = 1e-12


def _min_stable_fleet(t_call: float, t_service: float) -> int:
    """The smallest M with t_service < M * t_call, exact on the shortest
    decimals that round-trip to the floats: what an operator typed."""
    return Fraction(repr(t_service)) // Fraction(repr(t_call)) + 1


def stability_bound(t_call: float, t_service: float) -> int:
    """Smallest fleet with traffic intensity below 1, floor(t_service /
    t_call) + 1, decided exactly on the decimals the floats print as."""
    params = SystemParams(t_call=t_call, t_service=t_service, servers=1)
    return _min_stable_fleet(params.t_call, params.t_service)


def is_stable(params: SystemParams) -> bool:
    """Whether rho < 1, that is t_service < M * t_call, holds exactly on the
    decimals the floats print as; ``derive``'s float rho may round either way."""
    rho = derive(params).rho
    if abs(rho - 1.0) > _RHO_GUARD:
        return rho < 1.0
    return params.servers >= _min_stable_fleet(params.t_call, params.t_service)


def require_steady_state(params: SystemParams) -> DerivedParams:
    """``derive(params)`` for an operation that needs a steady state.

    Raises NoSteadyStateError, naming the smallest stable fleet, unless the
    traffic intensity is below 1 (``is_stable``), and ParameterError if it
    is but the float rho rounds to 1, which no layer can evaluate and which
    lies far outside the supported range.
    """
    d = derive(params)
    if d.rho < 1.0 - _RHO_GUARD:
        return d
    if not is_stable(params):
        raise NoSteadyStateError(
            d.rho,
            f"no steady state for servers={params.servers}: rho={d.rho:.6g} >= 1; "
            f"minimum stable fleet is {_min_stable_fleet(params.t_call, params.t_service)}",
        )
    if not d.rho < 1.0:
        raise ParameterError(
            f"traffic intensity for servers={params.servers} is below 1 only by rounding "
            f"error (rho={d.rho!r}); the supported range ends at rho = 1 - 1e-9"
        )
    return d
