"""Patient-facing and operator-facing performance metrics.

Waiting-time quantities are conditional on arriving while every server is
busy; that is the regime in which a wait exists at all. The unconditional
mean wait (conditional mean scaled by the occupation probability) is
exposed separately in the report because conflating the two is the most
likely consumer error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SystemParams, as_real, require_steady_state
from .steady_state import p_occupation

# Not called here; perfbench/tracing.py wraps this name in this module.
from .steady_state import _occupancy_weights


@dataclass(frozen=True)
class ServiceReport:
    """One coherent snapshot of the service metrics, all in minutes.

    wait_rate is the exponential parameter of the conditional waiting time,
    (1 - rho) * M * mu; mean_wait is its reciprocal.
    """

    wait_rate: float
    mean_wait: float
    mean_wait_unconditional: float
    los: float
    t_los: float
    p_busy: float
    p_occup: float
    throughput: float
    cost_rate: float
    cost_per_attention: float

    def to_dict(self) -> dict[str, float]:
        # every field is a float, so a shallow copy is dataclasses.asdict
        return dict(self.__dict__)


def _wait_rate_at(rho: float, servers: int, service_rate: float) -> float:
    """The conditional wait's exponential rate, (1 - rho) M mu."""
    return (1.0 - rho) * servers * service_rate


def _miss(p_occup: float, wait_rate: float, t_los: float) -> float:
    """The share of calls still waiting at t_los, p_occup exp(-rate t_los):
    1 - LOS, without the cancellation of forming it from the LOS."""
    return p_occup * math.exp(-wait_rate * t_los)


def _los(p_occup: float, wait_rate: float, t_los: float) -> float:
    """The share of calls answered within t_los, 1 - ``_miss``."""
    return 1.0 - _miss(p_occup, wait_rate, t_los)


def _wait_rate(params: SystemParams) -> float:
    return _wait_rate_at(require_steady_state(params).rho, params.servers, params.service_rate)


def wait_density(t: float, params: SystemParams) -> float:
    """Density of the conditional waiting time: exponential with rate
    (1 - rho) * M * mu (the geometric queue mixture of Gamma waits collapses
    to this single exponential)."""
    t = as_real(t, "t")
    rate = _wait_rate(params)
    return rate * math.exp(-rate * t)


def mean_wait(params: SystemParams) -> float:
    """Mean conditional wait, 1 / ((1 - rho) * M * mu) minutes."""
    return 1.0 / _wait_rate(params)


def level_of_service(params: SystemParams, t_los: float) -> float:
    """Fraction of calls answered within t_los minutes.

    Calls arriving with an idle server wait zero; the rest clear the
    threshold with the exponential tail above.
    """
    t_los = as_real(t_los, "t_los")
    return _los(p_occupation(params), _wait_rate(params), t_los)


def p_server_busy(params: SystemParams) -> float:
    """Long-run fraction of time one given server is busy.

    Under random assignment among idle servers a tagged server is busy with
    probability n/M in state n < M and surely once n >= M; averaging over
    the stationary law gives (1/S) (sum_{n<M} n/M * a^n/n! + a^M/(M! (1-rho))),
    which collapses to rho. This returns the identity; the summed form is
    kept in the tests as its check.
    """
    return require_steady_state(params).rho


def throughput(params: SystemParams) -> float:
    """Completed attentions per minute, mu * M * P(busy).

    In steady state this equals the arrival rate exactly (flow balance).
    """
    return params.service_rate * params.servers * p_server_busy(params)


def cost_rate(params: SystemParams, cost_per_attention: float) -> float:
    """Operating cost per minute per ambulance: C * mu * P(busy)."""
    cost_per_attention = as_real(cost_per_attention, "cost_per_attention")
    return cost_per_attention * params.service_rate * p_server_busy(params)


def full_report(
    params: SystemParams,
    t_los: float = 30.0,
    cost_per_attention: float = 0.0,
    *,
    p_occup: float | None = None,
) -> ServiceReport:
    """Assemble every service metric into one record.

    Each quantity is computed once and reused so the cross-field identities
    (mean_wait * wait_rate = 1, throughput = mu * M * p_busy) hold exactly.
    ``p_occup``, when given, must equal ``p_occupation(params)``, as each
    value of ``p_occupation_by_fleet`` does; the recurrence is then skipped.
    """
    t_los = as_real(t_los, "t_los")
    cost_per_attention = as_real(cost_per_attention, "cost_per_attention")
    busy = require_steady_state(params).rho  # p_server_busy's value
    rate = _wait_rate_at(busy, params.servers, params.service_rate)
    occup = p_occupation(params) if p_occup is None else p_occup
    mean_wait_min = 1.0 / rate
    return ServiceReport(
        wait_rate=rate,
        mean_wait=mean_wait_min,
        mean_wait_unconditional=occup * mean_wait_min,
        los=_los(occup, rate, t_los),
        t_los=t_los,
        p_busy=busy,
        p_occup=occup,
        throughput=params.service_rate * params.servers * busy,
        cost_rate=cost_per_attention * params.service_rate * busy,
        cost_per_attention=cost_per_attention,
    )
