"""Independent numerical routes that the benchmark checks CLI outputs against.

Nothing here imports ambuq. Every quantity is recomputed from the model's
definitions with other formulas or another evaluation order:

- saturation times from the first-passage recurrence
  h(n) = t_call * (1 + n * h(n-1) / t_service), T(n) = sum_{k=n..M} h(k);
- the stationary law and the Erlang-C probability in log space, with
  log(a^k / k!) = k log a - lgamma(k + 1) shifted by its maximum;
- service metrics from their closed forms (p_busy = rho, throughput = 1/t_call).
"""

from __future__ import annotations

import math

import numpy as np


def hitting_offsets(t_call: float, t_service: float, m: int) -> list[float]:
    """h(n), n = 0..m: mean time for the walk to first go from n to n+1."""
    h = [t_call]
    for n in range(1, m + 1):
        h.append(t_call * (1.0 + n * h[-1] / t_service))
    return h


def saturation_times(t_call: float, t_service: float, m: int) -> list[float]:
    """T(n), n = 0..m: mean time from n calls until state m+1 is first entered."""
    h = hitting_offsets(t_call, t_service, m)
    times = [0.0] * (m + 1)
    acc = 0.0
    for n in range(m, -1, -1):
        acc += h[n]
        times[n] = acc
    return times


def mean_saturation_times(t_call: float, t_service: float, m_max: int) -> list[float]:
    """Initial-state average of T for every fleet 0..m_max (index = fleet).

    h(n) does not depend on the fleet for n <= M, so the average for fleet
    M is sum_{k<=M} (k+1) h(k) / (M+1) and one pass serves every fleet.
    """
    h = hitting_offsets(t_call, t_service, m_max)
    means = []
    acc = 0.0
    for k in range(m_max + 1):
        acc += (k + 1) * h[k]
        means.append(acc / (k + 1))
    return means


def sweep_mean_times(t_service: float, fleets, grid) -> dict[int, np.ndarray]:
    """Average saturation time per fleet, vectorised over a t_call grid."""
    tc = np.asarray(grid, dtype=float)
    wanted = set(fleets)
    h = tc.copy()
    acc = h.copy()
    out = {0: acc.copy()} if 0 in wanted else {}
    for k in range(1, max(wanted) + 1):
        h = tc * (1.0 + k * h / t_service)
        acc = acc + (k + 1) * h
        if k in wanted:
            out[k] = acc / (k + 1)
    return out


def _shifted_terms(a: float, m: int) -> np.ndarray:
    """a^k / k! for k = 0..m, divided by the largest of them."""
    la = math.log(a)
    logs = np.array([k * la - math.lgamma(k + 1) for k in range(m + 1)])
    return np.exp(logs - logs.max())


def erlang_c(a: float, fleets) -> dict[int, float]:
    """Probability that all M servers are busy, for each M in ``fleets`` (M > a)."""
    fleets = list(fleets)
    t = _shifted_terms(a, max(fleets))
    below = np.concatenate(([0.0], np.cumsum(t)))
    out = {}
    for m in fleets:
        tail = t[m] * m / (m - a)
        out[m] = float(tail / (below[m] + tail))
    return out


def stationary_law(a: float, m: int, n_top: int) -> list[float]:
    """pi_n for n = 0..n_top: Poisson-shaped head up to m, geometric tail after."""
    t = _shifted_terms(a, m)
    rho = a / m
    norm = float(t[:m].sum()) + float(t[m]) / (1.0 - rho)
    head = [float(x) / norm for x in t]
    return head + [head[m] * rho ** (n - m) for n in range(m + 1, n_top + 1)]


def stationary_rows(rho: float, m: int) -> int:
    """Number of rows the stationary CSV covers: the tail down to ~1e-9 mass."""
    return m + math.ceil(math.log(1e-9) / math.log(rho)) + 1


def service_report(t_call: float, t_service: float, m: int, t_los: float,
                   cost: float, p_occup: float) -> dict[str, float]:
    """Every field of the CLI's report.json, from the closed forms."""
    rho = t_service / (m * t_call)
    rate = m * (1.0 - rho) / t_service
    return {
        "wait_rate": rate,
        "mean_wait": 1.0 / rate,
        "mean_wait_unconditional": p_occup / rate,
        "los": 1.0 - p_occup * math.exp(-rate * t_los),
        "t_los": t_los,
        "p_busy": rho,
        "p_occup": p_occup,
        "throughput": 1.0 / t_call,
        "cost_rate": cost * rho / t_service,
        "cost_per_attention": cost,
    }


def level_of_service(t_call: float, t_service: float, fleets, t_los: float) -> dict[int, float]:
    """Share of calls answered within t_los minutes, for each fleet M > a."""
    a = t_service / t_call
    occup = erlang_c(a, fleets)
    return {
        m: 1.0 - c * math.exp(-(m / t_service - 1.0 / t_call) * t_los)
        for m, c in occup.items()
    }
