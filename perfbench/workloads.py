"""The benchmark's three workloads, each a round of CLI commands drawn from a seed.

A round is a fixed list of commands with a fixed number per slot and load
band; the seed moves only parameters that do not change a command's cost
much (call spacing, service time, rho inside a narrow band, sim seeds), so
the cost profile and the planning error rate are the same at every seed.

- planning: analytic commands only (analyze, mfpt, size). Work unit: commands.
- hitting: simulate --mode hitting. Work unit: replications.
- stationary: FCFS simulate. Work unit: simulated minutes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference as ref


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments (without --out-dir) and what the checker needs."""

    kind: str
    argv: tuple[str, ...]
    p: dict
    expect: int = 0
    work: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    round: tuple[Command, ...]
    warmup: tuple[Command, ...]


def _num(x: float) -> str:
    return repr(float(x))


def _servers(fleets: list[int]) -> str:
    return ",".join(str(m) for m in fleets)


def _common(tc: float, ts: float, fleets: list[int]) -> list[str]:
    return ["--t-call", _num(tc), "--t-service", _num(ts), "--servers", _servers(fleets)]


# ---------------------------------------------------------------- planning

def analyze(tc, ts, fleets, t_los=30.0, cost=0.0, csv=False, expect=0) -> Command:
    argv = ["analyze", *_common(tc, ts, fleets), "--t-los", _num(t_los), "--cost", _num(cost)]
    if csv:
        argv.append("--stationary-csv")
    p = dict(t_call=tc, t_service=ts, fleets=fleets, t_los=t_los, cost=cost, csv=csv)
    return Command("analyze", tuple(argv), p, expect)


def mfpt(tc, ts, fleets, grid=None) -> Command:
    """``grid`` is (lo, hi, step) with integer lo and hi, passed as 'lo..hi:step'."""
    argv = ["mfpt", *_common(tc, ts, fleets)]
    p = dict(t_call=tc, t_service=ts, fleets=fleets, grid=None)
    if grid is not None:
        lo, hi, step = grid
        argv += ["--t-call-grid", f"{lo}..{hi}:{step}"]
        count = int(round((hi - lo) / step)) + 1
        p["grid"] = [lo + k * step for k in range(count)]
    return Command("mfpt", tuple(argv), p)


def size(tc, ts, kind, target=None, t_los=None, m_max=None, answer=None, expect=0) -> Command:
    flag = {"stability": "--stability", "occup_ceiling": "--occup-max",
            "los_target": "--los-target", "mfpt_horizon": "--horizon"}[kind]
    argv = ["size", *_common(tc, ts, [1]), flag]
    if target is not None:
        argv.append(_num(target))
    if t_los is not None:
        argv += ["--t-los", _num(t_los)]
    if m_max is not None:
        argv += ["--m-max", str(m_max)]
    p = dict(t_call=tc, t_service=ts, kind=kind, target=target, t_los=t_los,
             m_max=1000 if m_max is None else m_max, answer=answer)
    return Command("size", tuple(argv), p, expect)


def _load(rng, whole: int) -> float:
    """An offered load whose fractional part keeps floor(a) unambiguous."""
    return whole + rng.uniform(0.1, 0.9)


def _occup_query(a: float, k: int, t_call: float) -> Command:
    """size --occup-max whose answer is floor(a) + 1 + k."""
    start = math.floor(a) + 1
    answer = start + k
    occ = ref.erlang_c(a, range(start, answer + 1))
    upper = occ[answer - 1] if k else 1.0
    target = math.sqrt(upper * occ[answer])
    return size(t_call, a * t_call, "occup_ceiling", target, m_max=answer + 1000, answer=answer)


def _los_query(rng, a: float, k: int, t_call: float) -> Command:
    """size --los-target whose answer is floor(a) + 1 + k."""
    start = math.floor(a) + 1
    answer = start + k
    ts = a * t_call
    t_los = ts / (answer - a) * rng.uniform(0.5, 1.5)
    los = ref.level_of_service(t_call, ts, range(start, answer + 1), t_los)
    miss_upper = 1.0 - los[answer - 1] if k else 1.0
    target = 1.0 - math.sqrt(miss_upper * (1.0 - los[answer]))
    return size(t_call, ts, "los_target", target, t_los=t_los, m_max=answer + 1000, answer=answer)


def _horizon_query(rng, answer: int) -> Command:
    """size --horizon whose answer is ``answer``; the scan starts at one vehicle."""
    tc = rng.uniform(0.5, 2.0)
    ts = answer * rng.uniform(0.9, 1.1) * tc
    means = ref.mean_saturation_times(tc, ts, answer)
    if any(b <= a for a, b in zip(means[1:], means[2:])):
        raise RuntimeError("mean saturation time must rise with the fleet")
    target = math.sqrt(means[answer - 1] * means[answer])
    return size(tc, ts, "mfpt_horizon", target, answer=answer)


def planning(seed: int) -> Workload:
    rng = random.Random(f"planning:{seed}")
    u = rng.uniform
    cmds: list[Command] = []

    # The paper's figure data (acceptance criterion 8), service time jittered.
    ts = 50.0 * u(0.95, 1.05)
    cmds.append(mfpt(16.0, ts, list(range(5, 10)), grid=(10, 40, 0.2)))
    cmds.append(analyze(15.0, ts, [5, 7], csv=True))
    for t_los in (10.0, 30.0, 60.0):
        cmds.append(analyze(15.0, ts, list(range(4, 11)), t_los=t_los))

    # Small commands: these make the median.
    for _ in range(20):
        m, rho = rng.randint(1, 30), u(0.3, 0.95)
        tc = u(5, 30)
        cmds.append(analyze(tc, rho * m * tc, [m], t_los=u(5, 60), cost=u(0, 100)))
    for _ in range(10):
        a = u(1, 20)
        tc = u(5, 30)
        lo = math.floor(a / 0.95) + 1
        cmds.append(analyze(tc, a * tc, list(range(lo, lo + 8)), t_los=u(5, 60)))
    for _ in range(8):
        m, rho = rng.randint(1, 30), u(0.4, 0.9)
        tc = u(5, 30)
        cmds.append(analyze(tc, rho * m * tc, [m], csv=True))
    for _ in range(12):
        m, rho = rng.randint(1, 30), u(0.6, 1.5)
        tc = u(5, 30)
        cmds.append(mfpt(tc, rho * m * tc, [m]))
    for _ in range(5):
        lo = rng.randint(3, 10)
        g0 = rng.randint(8, 20)
        cmds.append(mfpt(u(8, 26), u(40, 60), list(range(lo, lo + 3)), grid=(g0, g0 + 6, 0.2)))
    for _ in range(5):
        tc = u(5, 30)
        cmds.append(size(tc, _load(rng, rng.randint(0, 20)) * tc, "stability"))
    for _ in range(5):
        cmds.append(_occup_query(_load(rng, rng.randint(1, 20)), rng.randint(0, 4), u(5, 30)))
    for _ in range(5):
        cmds.append(_los_query(rng, _load(rng, rng.randint(1, 20)), rng.randint(0, 4), u(5, 30)))

    # Medium offered loads (50..600), fleets up to 10^4.
    for _ in range(6):
        a = u(50, 600)
        tc = u(0.05, 2)
        lo = math.floor(a / 0.95) + 1
        fleets = sorted({lo, lo + rng.randint(1, 50), 2 * lo, 1000 + rng.randint(0, 99), 10000})
        cmds.append(analyze(tc, a * tc, fleets, t_los=u(1, 30)))
    for _ in range(3):
        a = _load(rng, rng.randint(50, 600))
        cmds.append(_occup_query(a, rng.randint(5, 15), u(0.05, 2)))
        cmds.append(_los_query(rng, a, rng.randint(5, 15), u(0.05, 2)))

    # Large fleets: these make the tail.
    for _ in range(3):
        rho = u(0.9, 1.3)
        tc = u(0.2, 2)
        cmds.append(mfpt(tc, rho * 300 * tc, [300]))
    for _ in range(2):
        rho = u(0.9, 1.3)
        tc = u(0.05, 1)
        cmds.append(mfpt(tc, rho * 1000 * tc, [1000]))
    g0 = rng.randint(8, 12)
    cmds.append(mfpt(16.0 * u(0.95, 1.05), 50.0 * u(0.9, 1.1), list(range(1, 51)),
                     grid=(g0, g0 + 30, 0.2)))
    for answer in (100, 200, 300):
        cmds.append(_horizon_query(rng, answer))
    for whole, k in ((9000, 95), (9900, 100)):
        a = _load(rng, whole + rng.randint(0, 50))
        cmds.append(_occup_query(a, k + rng.randint(0, 5), u(0.01, 0.05)))
        a = _load(rng, whole + rng.randint(0, 50))
        cmds.append(_los_query(rng, a, k + rng.randint(0, 5), u(0.01, 0.05)))
    # Offered loads 10^3..9x10^3 on fixed fleets: at the seed commit these hit
    # the overflow in the stationary head weights (NaN in report.json, exit 0).
    for _ in range(4):
        tc = u(0.01, 0.1)
        cmds.append(analyze(tc, u(1000, 9000) * tc, [9400, 9600, 9800, 10000]))
    for _ in range(2):
        tc = u(0.01, 0.1)
        cmds.append(analyze(tc, u(1000, 9000) * tc, [10000]))

    # Refusals: an overloaded fleet (exit 3) and a scan cap too low (exit 4).
    for _ in range(2):
        m = rng.randint(2, 20)
        tc = u(5, 30)
        cmds.append(analyze(tc, _load(rng, m) * tc, [m], expect=3))
    a = _load(rng, rng.randint(5, 50))
    tc = u(5, 30)
    cmds.append(size(tc, a * tc, "occup_ceiling", 1e-6, m_max=math.floor(a) + 3, expect=4))

    warm = (
        analyze(15.0, 50.0, [6]),
        analyze(15.0, 50.0, [5, 7], csv=True),
        mfpt(16.0, 50.0, [6]),
        mfpt(16.0, 50.0, [5, 6], grid=(10, 12, 0.2)),
        size(15.0, 50.0, "stability"),
        size(15.0, 50.0, "occup_ceiling", 0.15, answer=6),
    )
    return Workload("planning", "commands", tuple(cmds), warm)


# ---------------------------------------------------------------- simulate

HITTING_REPLICATIONS = 1000
HITTING_SLOTS = 24
STATIONARY_SLOTS = 19          # slots 0 and 10 add --wait-samples
STATIONARY_REPLICATIONS = 2
STATIONARY_WARMUP = 10_000.0
STATIONARY_HORIZON = 200_000.0


def hitting_command(tc, ts, m, start, reps, seed) -> Command:
    argv = ("simulate", "--mode", "hitting", "--compare", "--workers", "1",
            *_common(tc, ts, [m]), "--start-state", str(start),
            "--replications", str(reps), "--seed", str(seed))
    p = dict(t_call=tc, t_service=ts, m=m, start=start, replications=reps, seed=seed)
    return Command("hitting", argv, p, work=float(reps))


def hitting(seed: int) -> Workload:
    rng = random.Random(f"hitting:{seed}")
    cmds = []
    for i in range(HITTING_SLOTS):
        m = 1 + i // 2
        start = 0 if i % 2 == 0 else (m + 1) // 2
        # rho bands are spread over the slots so that rho and M are not tied
        rho = 0.8 + 0.7 * ((i * 7) % HITTING_SLOTS + rng.random()) / HITTING_SLOTS
        tc = rng.uniform(5, 30)
        cmds.append(hitting_command(tc, rho * m * tc, m, start, HITTING_REPLICATIONS,
                                    rng.randrange(1 << 32)))
    warm = (hitting_command(15.0, 50.0, 3, 0, 100, 1),)
    return Workload("hitting", "replications", tuple(cmds), warm)


def stationary_command(tc, ts, m, seed, waits, workers=2, horizon=STATIONARY_HORIZON) -> Command:
    argv = ["simulate", "--compare", "--replications", str(STATIONARY_REPLICATIONS),
            "--workers", str(workers), *_common(tc, ts, [m]), "--seed", str(seed),
            "--warmup", _num(STATIONARY_WARMUP), "--horizon-min", _num(horizon)]
    if waits:
        argv.append("--wait-samples")
    p = dict(t_call=tc, t_service=ts, m=m, seed=seed, waits=waits,
             replications=STATIONARY_REPLICATIONS, warmup=STATIONARY_WARMUP, horizon=horizon)
    return Command("stationary", tuple(argv), p, work=STATIONARY_REPLICATIONS * horizon)


def stationary(seed: int) -> Workload:
    rng = random.Random(f"stationary:{seed}")
    cmds = []
    for i in range(STATIONARY_SLOTS):
        m = 1 + round(29 * (i + rng.random()) / STATIONARY_SLOTS)
        rho = 0.5 + 0.45 * ((i * 7) % STATIONARY_SLOTS + rng.random()) / STATIONARY_SLOTS
        tc = 15.0 * rng.uniform(0.95, 1.05)
        cmds.append(stationary_command(tc, rho * m * tc, m, rng.randrange(1 << 32),
                                       waits=i % 10 == 0))
    warm = (
        stationary_command(15.0, 60.0, 6, 1, False, horizon=30_000.0),
        stationary_command(15.0, 60.0, 6, 1, True, horizon=30_000.0),
    )
    return Workload("stationary", "sim_minutes", tuple(cmds), warm)


WORKLOADS = {"planning": planning, "hitting": hitting, "stationary": stationary}
