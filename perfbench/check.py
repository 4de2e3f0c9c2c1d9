"""Checks every command's output files against the routes in ``reference``.

A command fails when its exit code is not the expected one, when an output
file is missing or holds NaN or inf, or when a value disagrees with the
independent route. The last case is also a *wrong answer*: a finite result
the program presented as correct. Tolerances:

- saturation times: 1e-9 relative; sweep CSV values: their 6 significant digits;
- p_busy = rho and throughput = 1/t_call: 1e-12 relative;
- other analytic values (Erlang-C, waits, level of service): 1e-9 relative;
- simulated estimates: |z| <= 5 against the analytic value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import reference as ref

Z_LIMIT = 5.0
REL = 1e-9
EXACT = 1e-12
ATOL = 1e-15


class Invalid(Exception):
    """An output is missing, malformed or not finite: the command failed."""


class Mismatch(Exception):
    """A finite output disagrees with the independent route: a wrong answer."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""


def check(cmd, rc, out_dir: Path, stderr: str) -> Verdict:
    if rc != cmd.expect:
        return Verdict(False, False, f"exit {rc}, expected {cmd.expect}")
    try:
        CHECKERS[cmd.kind](cmd.p, cmd.expect, out_dir, stderr)
    except Invalid as exc:
        return Verdict(False, False, str(exc))
    except Mismatch as exc:
        return Verdict(False, True, str(exc))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return Verdict(False, True, f"malformed output: {exc!r}")
    return Verdict(True)


def _reject_constant(name):
    raise Invalid(f"non-finite value {name}")


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise Invalid(f"missing {path.name}") from None


def load_json(path: Path):
    return json.loads(_read(path), parse_constant=_reject_constant)


def load_csv(path: Path, header: str) -> list[list[str]]:
    lines = _read(path).splitlines()
    if not lines or lines[0] != header:
        raise Mismatch(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def number(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise Invalid(f"non-finite value {text!r}")
    return value


def close(name: str, value, expected: float, rtol: float = REL, atol: float = ATOL) -> None:
    value = number(value)
    if not abs(value - expected) <= rtol * abs(expected) + atol:
        raise Mismatch(f"{name} = {value!r}, expected {expected!r} (rtol {rtol:g})")


def close_6g(name: str, text: str, expected: float) -> None:
    """A value printed with 6 significant digits matches to its last digit."""
    value = number(text)
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 5)
    if not abs(value - expected) <= half_unit * (1.0 + 1e-6):
        raise Mismatch(f"{name} = {text}, expected {expected:.9g}")


def within_z(name: str, value: float, std_error: float, expected: float) -> None:
    if not std_error > 0.0:
        raise Mismatch(f"{name}: standard error {std_error!r} is not positive")
    z = (value - expected) / std_error
    if not abs(z) <= Z_LIMIT:
        raise Mismatch(f"{name} = {value!r} +- {std_error!r}, analytic {expected!r}, z = {z:.2f}")


def equal(name: str, value, expected) -> None:
    if value != expected:
        raise Mismatch(f"{name} = {value!r}, expected {expected!r}")


# ---------------------------------------------------------------- analytic

SUMMARY_HEADER = "servers,rho,p_occup,p_busy,los,one_minus_los,mean_queue_len,std_queue_len,mean_wait_min"
EXACT_FIELDS = {"p_busy", "throughput", "t_los", "cost_per_attention"}


def check_analyze(p, expect, out_dir: Path, stderr: str) -> None:
    tc, ts, fleets = p["t_call"], p["t_service"], p["fleets"]
    a = ts / tc
    if expect == 3:
        needed = f"minimum stable fleet is {math.floor(a) + 1}"
        if needed not in stderr:
            raise Mismatch(f"exit-3 message lacks {needed!r}: {stderr.strip()!r}")
        return
    doc = load_json(out_dir / "report.json")
    entries = [doc] if len(fleets) == 1 else doc
    equal("report entries", len(entries), len(fleets))
    occup = ref.erlang_c(a, fleets)
    expected = {m: ref.service_report(tc, ts, m, p["t_los"], p["cost"], occup[m]) for m in fleets}
    for m, entry in zip(fleets, entries):
        equal(f"M={m} report fields", sorted(entry), sorted(expected[m]))
        for key, want in expected[m].items():
            close(f"M={m} {key}", entry[key], want, EXACT if key in EXACT_FIELDS else REL)

    if len(fleets) > 1:
        rows = load_csv(out_dir / "service_summary.csv", SUMMARY_HEADER)
        equal("service_summary rows", len(rows), len(fleets))
        for m, row in zip(fleets, rows):
            rho = a / m
            want = expected[m]
            equal("servers", row[0], str(m))
            close(f"M={m} rho", row[1], rho, EXACT)
            close(f"M={m} p_occup", row[2], want["p_occup"])
            close(f"M={m} p_busy", row[3], rho, EXACT)
            close(f"M={m} los", row[4], want["los"])
            close(f"M={m} one_minus_los", row[5], want["p_occup"] * math.exp(-want["wait_rate"] * p["t_los"]))
            close(f"M={m} mean_queue_len", row[6], rho / (1.0 - rho))
            close(f"M={m} std_queue_len", row[7], math.sqrt(rho) / (1.0 - rho))
            close(f"M={m} mean_wait", row[8], want["mean_wait"])

    if p["csv"]:
        for m in fleets:
            rows = load_csv(out_dir / f"stationary_M{m}.csv", "n,pi_n")
            count = ref.stationary_rows(a / m, m)
            equal(f"stationary_M{m} rows", len(rows), count)
            law = ref.stationary_law(a, m, count - 1)
            for n, (n_text, pi_text) in enumerate(rows):
                equal("state", n_text, str(n))
                close(f"M={m} pi_{n}", pi_text, law[n], REL, 1e-300)


def check_mfpt(p, expect, out_dir: Path, stderr: str) -> None:
    tc, ts, fleets = p["t_call"], p["t_service"], p["fleets"]
    doc = load_json(out_dir / "mfpt.json")
    profiles = [doc] if len(fleets) == 1 else doc
    equal("profiles", len(profiles), len(fleets))
    for m, prof in zip(fleets, profiles):
        equal("servers", prof["servers"], m)
        want = ref.saturation_times(tc, ts, m)
        equal(f"M={m} states", len(prof["times"]), m + 1)
        for n, (got, exp) in enumerate(zip(prof["times"], want)):
            close(f"M={m} T({n})", got, exp)
        close(f"M={m} mean_time", prof["mean_time"], math.fsum(want) / (m + 1))

    grid = p["grid"]
    if grid is not None:
        rows = load_csv(out_dir / "mfpt_sweep.csv", "t_call_min,servers,mean_time_to_critical_min")
        equal("sweep rows", len(rows), len(fleets) * len(grid))
        means = ref.sweep_mean_times(ts, fleets, grid)
        i = 0
        for m in fleets:
            for g, mean in zip(grid, means[m]):
                t_text, m_text, mean_text = rows[i]
                equal("sweep t_call", t_text, f"{g:.6g}")
                equal("sweep servers", m_text, str(m))
                close_6g(f"sweep M={m} t_call={g:.6g}", mean_text, float(mean))
                i += 1


def check_size(p, expect, out_dir: Path, stderr: str) -> None:
    tc, ts, kind = p["t_call"], p["t_service"], p["kind"]
    a = ts / tc
    doc = load_json(out_dir / "sizing.json")
    equal("kind", doc["kind"], kind)
    equal("target", doc["target"], p["target"])
    equal("m_max", doc["m_max"], p["m_max"])
    start = 1 if kind == "mfpt_horizon" else math.floor(a) + 1
    if expect == 4:
        equal("found", doc["found"], False)
        equal("m", doc["m"], None)
        equal("scanned_range", doc["scanned_range"], [start, p["m_max"]])
        close("best attained", doc["predicate_value"], ref.erlang_c(a, [p["m_max"]])[p["m_max"]])
        return

    if kind == "stability":
        answer, value = start, a / start
    else:
        top = p["answer"]
        if kind == "occup_ceiling":
            curve = ref.erlang_c(a, range(start, top + 1))
            meets = lambda v: v <= p["target"]
        elif kind == "los_target":
            curve = ref.level_of_service(tc, ts, range(start, top + 1), p["t_los"])
            meets = lambda v: v >= p["target"]
        else:
            means = ref.mean_saturation_times(tc, ts, top)
            curve = {m: means[m] for m in range(start, top + 1)}
            meets = lambda v: v >= p["target"]
        found = [m for m in range(start, top + 1) if meets(curve[m])]
        if not found:
            raise Mismatch(f"independent scan finds no fleet up to {top}")
        answer, value = found[0], curve[found[0]]
    equal("found", doc["found"], True)
    equal("m", doc["m"], answer)
    equal("scanned_range", doc["scanned_range"], [start, answer])
    close("predicate_value", doc["predicate_value"], value, EXACT if kind == "stability" else REL)


# ---------------------------------------------------------------- simulate

def _check_config(doc, p, keys: dict[str, str]) -> None:
    """The echoed config matches the command: config key -> parameter name."""
    config = doc["config"]
    for key, name in keys.items():
        equal(f"config.{key}", config[key], p[name])
    equal("config.servers", config["servers"], p["m"])
    equal("config.t_call_min", config["t_call_min"], p["t_call"])
    equal("config.t_service_min", config["t_service_min"], p["t_service"])


def check_hitting(p, expect, out_dir: Path, stderr: str) -> None:
    doc = load_json(out_dir / "sim.json")
    equal("mode", doc["mode"], "hitting")
    _check_config(doc, p, {"seed": "seed", "replications": "replications", "start_state": "start"})
    equal("n_samples", doc["n_samples"]["hitting_time_mean"], p["replications"])
    analytic = ref.saturation_times(p["t_call"], p["t_service"], p["m"])[p["start"]]
    within_z("hitting_time_mean", doc["estimates"]["hitting_time_mean"],
             doc["std_errors"]["hitting_time_mean"], analytic)


WAITS_HEADER = "call_index,wait_min"


def check_stationary(p, expect, out_dir: Path, stderr: str) -> None:
    doc = load_json(out_dir / "sim.json")
    equal("mode", doc["mode"], "stationary")
    _check_config(doc, p, {"seed": "seed", "replications": "replications",
                           "warmup_min": "warmup", "horizon_min": "horizon"})
    m, tc, ts = p["m"], p["t_call"], p["t_service"]
    rho = ts / (m * tc)
    est, se = doc["estimates"], doc["std_errors"]
    # Only sums over every event are tested: their batch means are close to
    # independent and normal at every rho in the workload, while rare-event
    # and conditional quantities are skewed at short horizons.
    within_z("throughput", est["throughput"], se["throughput"], 1.0 / tc)
    within_z("p_busy_per_server", est["p_busy_per_server"], se["p_busy_per_server"], rho)
    busy = doc["per_server_busy"]
    equal("per_server_busy entries", len(busy), m)
    if not all(0.0 <= b <= 1.0 for b in busy):
        raise Mismatch(f"per-server busy fraction outside [0, 1]: {busy}")
    equal("batches", len(doc["batch_mean_queue_len"]), 20 * p["replications"])

    waits_path = out_dir / "sim_waits.csv"
    if not p["waits"]:
        if waits_path.exists():
            raise Mismatch("sim_waits.csv written without --wait-samples")
        return
    rows = load_csv(waits_path, WAITS_HEADER)
    for i, (index, wait) in enumerate(rows):
        if index != str(i) or not number(wait) >= 0.0:
            raise Mismatch(f"sim_waits.csv row {i}: {index},{wait}")
    # Calls arriving after warmup form a Poisson count; a few may still be
    # queued at the horizon and are not logged.
    expected = p["replications"] * (p["horizon"] - p["warmup"]) / tc
    if not abs(len(rows) - expected) <= Z_LIMIT * math.sqrt(expected) + 100:
        raise Mismatch(f"sim_waits.csv has {len(rows)} calls, expected about {expected:.0f}")


CHECKERS = {
    "analyze": check_analyze,
    "mfpt": check_mfpt,
    "size": check_size,
    "hitting": check_hitting,
    "stationary": check_stationary,
}
