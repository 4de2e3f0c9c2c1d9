"""Patient-facing and operator-facing performance metrics.

Waiting-time quantities are conditional on arriving while every server is
busy; that is the regime in which a wait exists at all. The unconditional
mean wait (conditional mean scaled by the occupation probability) is
exposed separately in the report because conflating the two is the most
likely consumer error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import NoSteadyStateError, ParameterError
from .params import SystemParams, derive
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
        return asdict(self)


def _wait_rate(params: SystemParams) -> float:
    d = derive(params)
    if not d.rho < 1.0:
        raise NoSteadyStateError(d.rho)
    return (1.0 - d.rho) * params.servers * params.service_rate


def gamma_wait_density(t: float, k_ahead: int, params: SystemParams) -> float:
    """Density of the wait given k_ahead calls already queued at arrival.

    The wait is the sum of k_ahead + 1 exponential service headways at the
    full-fleet rate M * mu, i.e. a Gamma density with integer shape. Uses a
    log-space evaluation so large shapes stay finite.
    """
    if not isinstance(k_ahead, int) or isinstance(k_ahead, bool) or k_ahead < 0:
        raise ParameterError(f"k_ahead must be a non-negative integer, got {k_ahead!r}")
    if not math.isfinite(t) or t < 0.0:
        raise ParameterError(f"waiting time must be finite and >= 0, got {t!r}")
    alpha = params.servers * params.service_rate
    if t == 0.0:
        return alpha if k_ahead == 0 else 0.0
    x = alpha * t
    return alpha * math.exp(k_ahead * math.log(x) - x - math.lgamma(k_ahead + 1))


def wait_density(t: float, params: SystemParams) -> float:
    """Density of the conditional waiting time: exponential with rate
    (1 - rho) * M * mu (the geometric queue mixture of Gamma waits collapses
    to this single exponential)."""
    if not math.isfinite(t) or t < 0.0:
        raise ParameterError(f"waiting time must be finite and >= 0, got {t!r}")
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
    if not math.isfinite(t_los) or t_los < 0.0:
        raise ParameterError(f"t_los must be finite and >= 0, got {t_los!r}")
    rate = _wait_rate(params)
    return 1.0 - p_occupation(params) * math.exp(-rate * t_los)


def p_server_busy(params: SystemParams) -> float:
    """Long-run fraction of time one given server is busy.

    Under random assignment among idle servers a tagged server is busy with
    probability n/M in state n < M and surely once n >= M; averaging over
    the stationary law gives (1/S) (sum_{n<M} n/M * a^n/n! + a^M/(M! (1-rho))),
    which collapses to rho. This returns the identity; the summed form is
    kept in the tests as its check.
    """
    d = derive(params)
    if not d.rho < 1.0:
        raise NoSteadyStateError(d.rho)
    return d.rho


def throughput(params: SystemParams) -> float:
    """Completed attentions per minute, mu * M * P(busy).

    In steady state this equals the arrival rate exactly (flow balance).
    """
    return params.service_rate * params.servers * p_server_busy(params)


def cost_rate(params: SystemParams, cost_per_attention: float) -> float:
    """Operating cost per minute per ambulance: C * mu * P(busy)."""
    if not math.isfinite(cost_per_attention) or cost_per_attention < 0.0:
        raise ParameterError(
            f"cost_per_attention must be finite and >= 0, got {cost_per_attention!r}"
        )
    return cost_per_attention * params.service_rate * p_server_busy(params)


def full_report(
    params: SystemParams,
    t_los: float = 30.0,
    cost_per_attention: float = 0.0,
) -> ServiceReport:
    """Assemble every service metric into one record.

    Each quantity is computed once and reused so the cross-field identities
    (mean_wait * wait_rate = 1, throughput = mu * M * p_busy) hold exactly.
    """
    if not math.isfinite(t_los) or t_los < 0.0:
        raise ParameterError(f"t_los must be finite and >= 0, got {t_los!r}")
    if not math.isfinite(cost_per_attention) or cost_per_attention < 0.0:
        raise ParameterError(
            f"cost_per_attention must be finite and >= 0, got {cost_per_attention!r}"
        )
    rate = _wait_rate(params)
    occup = p_occupation(params)
    busy = p_server_busy(params)
    mean_wait_min = 1.0 / rate
    return ServiceReport(
        wait_rate=rate,
        mean_wait=mean_wait_min,
        mean_wait_unconditional=occup * mean_wait_min,
        los=1.0 - occup * math.exp(-rate * t_los),
        t_los=t_los,
        p_busy=busy,
        p_occup=occup,
        throughput=params.service_rate * params.servers * busy,
        cost_rate=cost_per_attention * params.service_rate * busy,
        cost_per_attention=cost_per_attention,
    )
