"""Operator-facing command line: analyze, mfpt, size, simulate.

Scenarios come from a flat JSON config file and/or flags (flags win).
Outputs go to fixed basenames under --out-dir so downstream harnesses have
stable paths; stdout carries a human-readable summary. Exit codes:
0 success, 2 config/validation error, 3 no steady state, 4 sizing target
not met within the scan cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import NoSteadyStateError, ParameterError
from .mfpt import mfpt_critical_profile, mfpt_sweep, write_sweep_csv
from .params import SystemParams, derive
from .service_metrics import full_report, mean_wait
from .simulate import SimConfig, simulate_hitting_time, simulate_stationary
from .sizing import SizingQuery, min_fleet, stability_bound
from .steady_state import (
    p_occupation,
    queue_conditional_pmf,
    queue_stats,
    stationary_profile,
    write_stationary_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_STEADY_STATE = 3
EXIT_NOT_FOUND = 4

SERVICE_SUMMARY_HEADER = (
    "servers,rho,p_occup,p_busy,los,one_minus_los,mean_queue_len,std_queue_len,mean_wait_min"
)
WAITS_CSV_HEADER = "call_index,wait_min"

_CONFIG_KEYS = {
    "t_call_min", "t_service_min", "servers", "t_los_min", "cost_per_attention",
    "t_call_grid", "seed", "replications", "warmup_min", "horizon_min", "start_state",
}


@dataclass
class ScenarioConfig:
    """Merged scenario: config file values overridden by command-line flags."""

    t_call_min: float
    t_service_min: float
    servers: list[int]
    t_los_min: float = 30.0
    cost_per_attention: float = 0.0
    t_call_grid: list[float] | None = None
    seed: int | None = None
    replications: int = 1
    warmup_min: float | None = None
    horizon_min: float | None = None
    start_state: int = 0


def _as_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParameterError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_servers(value) -> list[int]:
    if isinstance(value, (int, float)):
        return [_as_int(value)]
    if isinstance(value, list):
        return [_as_int(v) for v in value]
    text = str(value).strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ParameterError(f"server range must ascend, got {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse servers from {text!r}") from None


def _parse_grid(value) -> list[float]:
    if isinstance(value, list):
        return [float(v) for v in value]
    text = str(value).strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        lo_text, hi_text = span.split("..", 1)
        lo, hi = float(lo_text), float(hi_text)
        step = float(step_text) if step_text else 1.0
        if step <= 0 or hi < lo:
            raise ParameterError(f"cannot parse grid from {text!r}")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + k * step for k in range(count)]
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse grid from {text!r}") from None


def _load_scenario(args) -> ScenarioConfig:
    data: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            raw = Path(config_path).read_text(encoding="utf-8")
            data = json.loads(raw)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config file must contain a flat JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag_name: str, key: str, default=None):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        return data.get(key, default)

    t_call = pick("t_call", "t_call_min")
    t_service = pick("t_service", "t_service_min")
    servers = pick("servers", "servers")
    if t_call is None or t_service is None or servers is None:
        raise ParameterError("t_call, t_service, and servers are required (flags or config file)")

    grid = pick("t_call_grid", "t_call_grid")
    seed = pick("seed", "seed")
    scenario = ScenarioConfig(
        t_call_min=float(t_call),
        t_service_min=float(t_service),
        servers=_parse_servers(servers),
        t_los_min=float(pick("t_los", "t_los_min", 30.0)),
        cost_per_attention=float(pick("cost", "cost_per_attention", 0.0)),
        t_call_grid=_parse_grid(grid) if grid is not None else None,
        seed=int(seed) if seed is not None else None,
        replications=int(pick("replications", "replications", 1)),
        warmup_min=_opt_float(pick("warmup", "warmup_min")),
        horizon_min=_opt_float(pick("horizon_min", "horizon_min")),
        start_state=int(pick("start_state", "start_state", 0)),
    )
    if not scenario.servers:
        raise ParameterError("servers list must be non-empty")
    if scenario.t_call_grid is not None and not scenario.t_call_grid:
        raise ParameterError("t_call_grid must be non-empty when given")
    return scenario


def _opt_float(value):
    return None if value is None else float(value)


def _params_for(scenario: ScenarioConfig, servers: int) -> SystemParams:
    return SystemParams(
        t_call=scenario.t_call_min, t_service=scenario.t_service_min, servers=servers
    )


def _require_stable(params: SystemParams) -> None:
    rho = derive(params).rho
    if rho >= 1.0:
        raise NoSteadyStateError(
            rho,
            f"no steady state for servers={params.servers}: rho={rho:.6g} >= 1; "
            f"minimum stable fleet is {stability_bound(params.t_call, params.t_service)}",
        )


def _write_json(path: Path, obj) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: str, rows) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    os.replace(tmp, path)


def _fmt_minutes(minutes: float, hours: bool) -> str:
    if hours:
        return f"{minutes / 60.0:.4g} h"
    return f"{minutes:.4g} min"


def _cmd_analyze(args) -> int:
    scenario = _load_scenario(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    summary_rows = []
    for m in scenario.servers:
        params = _params_for(scenario, m)
        _require_stable(params)
        report = full_report(params, scenario.t_los_min, scenario.cost_per_attention)
        reports.append(report.to_dict())
        stats = queue_stats(params)
        rho = derive(params).rho
        summary_rows.append((
            m, f"{rho!r}", f"{report.p_occup!r}", f"{report.p_busy!r}", f"{report.los!r}",
            f"{1.0 - report.los!r}", f"{stats.mean_len!r}", f"{stats.std_len!r}",
            f"{report.mean_wait!r}",
        ))
        print(
            f"M={m}: rho={rho:.6g} p_occup={report.p_occup:.6g} p_busy={report.p_busy:.6g} "
            f"LOS({scenario.t_los_min:g} min)={report.los:.6g} "
            f"mean_wait={_fmt_minutes(report.mean_wait, args.hours)} "
            f"throughput={report.throughput:.6g}/min"
        )
        if args.stationary_csv:
            write_stationary_csv(params, out_dir / f"stationary_M{m}.csv")

    _write_json(out_dir / "report.json", reports[0] if len(reports) == 1 else reports)
    if len(reports) > 1:
        _write_csv(out_dir / "service_summary.csv", SERVICE_SUMMARY_HEADER, summary_rows)
    print(f"wrote {out_dir / 'report.json'}")
    return EXIT_OK


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{what} exceeds the floating-point range ({value!r})")


def _cmd_mfpt(args) -> int:
    scenario = _load_scenario(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Everything is computed and checked before any file is written, so an
    # overflow leaves no partial output behind.
    profiles = []
    for m in scenario.servers:
        params = _params_for(scenario, m)
        profile = mfpt_critical_profile(params)
        # T(0) is the largest entry, so every time is finite when it is
        _require_finite(profile.times[0], f"saturation time T(0) for servers={m}")
        _require_finite(profile.mean_time, f"mean saturation time for servers={m}")
        profiles.append({
            "servers": m,
            "times": list(profile.times),
            "mean_time": profile.mean_time,
        })
        print(
            f"M={m}: T(0)={_fmt_minutes(profile.times[0], args.hours)} "
            f"<T>={_fmt_minutes(profile.mean_time, args.hours)}"
        )
    rows = None
    if scenario.t_call_grid is not None:
        rows = mfpt_sweep(scenario.t_service_min, scenario.servers, scenario.t_call_grid)
        for t_call, m, mean_time in rows:
            _require_finite(mean_time, f"sweep mean time for servers={m}, t_call={t_call:g}")

    _write_json(out_dir / "mfpt.json", profiles[0] if len(profiles) == 1 else profiles)
    if rows is not None:
        write_sweep_csv(rows, out_dir / "mfpt_sweep.csv")
        print(f"wrote {out_dir / 'mfpt_sweep.csv'} ({len(rows)} rows)")
    print(f"wrote {out_dir / 'mfpt.json'}")
    return EXIT_OK


def _cmd_size(args) -> int:
    scenario = _load_scenario(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    chosen = [
        name for name, val in (
            ("stability", args.stability),
            ("los_target", args.los_target),
            ("occup_ceiling", args.occup_max),
            ("mfpt_horizon", args.horizon),
        ) if val
    ]
    if len(chosen) != 1:
        raise ParameterError(
            "choose exactly one of --stability, --los-target, --occup-max, --horizon"
        )
    kind = chosen[0]
    target = {
        "stability": None,
        "los_target": args.los_target,
        "occup_ceiling": args.occup_max,
        "mfpt_horizon": args.horizon,
    }[kind]
    query = SizingQuery(
        kind=kind,
        target=target,
        t_los=scenario.t_los_min if kind == "los_target" else None,
        m_max=args.m_max,
    )
    result = min_fleet(scenario.t_call_min, scenario.t_service_min, query)

    payload = {
        "kind": result.kind,
        "target": query.target,
        "t_los_min": query.t_los,
        "m": result.m,
        "predicate_value": result.predicate_value,
        "scanned_range": list(result.scanned),
        "found": result.found,
        "m_max": query.m_max,
    }
    _write_json(out_dir / "sizing.json", payload)
    if result.found:
        print(
            f"min fleet M={result.m}: {result.kind} value {result.predicate_value:.6g}"
            + (f" (target {query.target:g})" if query.target is not None else "")
            + f", scanned {result.scanned[0]}..{result.scanned[1]}"
        )
        return EXIT_OK
    best = "none evaluated" if result.predicate_value is None else f"{result.predicate_value:.6g}"
    print(
        f"no fleet up to m_max={query.m_max} meets {result.kind}"
        + (f" target {query.target:g}" if query.target is not None else "")
        + f"; best attained: {best}"
    )
    return EXIT_NOT_FOUND


def _analytic_counterparts(params: SystemParams, t_los: float) -> dict[str, float]:
    profile = stationary_profile(params)
    d = derive(params)
    stats = queue_stats(params)
    rate = (1.0 - d.rho) * params.servers * params.service_rate
    values = {f"pi_{n}": profile.pi(n) for n in range(params.servers + 6)}
    values["p_occup"] = p_occupation(params)
    for k in range(11):
        values[f"cond_queue_{k}"] = queue_conditional_pmf(params, k)
    values["mean_queue_len_conditional"] = stats.mean_len
    values["p_busy_per_server"] = d.rho
    values["throughput"] = params.arrival_rate
    values["wait_mean_conditional"] = mean_wait(params)
    values["wait_cdf_at_t_los"] = 1.0 - math.exp(-rate * t_los)
    return values


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if len(scenario.servers) != 1:
        raise ParameterError("simulate needs a single fleet size")
    params = _params_for(scenario, scenario.servers[0])

    seed = scenario.seed
    if seed is None:
        if args.strict:
            raise ParameterError("--seed is required in --strict mode")
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"note: no seed given, using {seed}", file=sys.stderr)

    config = SimConfig(
        seed=seed,
        replications=scenario.replications,
        warmup=scenario.warmup_min,
        horizon=scenario.horizon_min,
        start_state=scenario.start_state,
    )

    rho = derive(params).rho
    if args.mode == "stationary" and rho >= 1.0 and not args.allow_unstable:
        raise NoSteadyStateError(
            rho,
            f"no steady state for servers={params.servers}: rho={rho:.6g} >= 1; "
            f"minimum stable fleet is {stability_bound(params.t_call, params.t_service)} "
            "(use --allow-unstable to simulate the transient anyway)",
        )

    payload: dict = {"mode": args.mode}
    if args.mode == "hitting":
        estimate = simulate_hitting_time(params, scenario.start_state, config, workers=args.workers)
        estimates = {"hitting_time_mean": estimate}
        resolved = config
        print(
            f"hitting time from state {scenario.start_state}: "
            f"{estimate.value:.6g} min +- {estimate.std_error:.3g} "
            f"({estimate.n_samples} replications)"
        )
        if args.compare:
            analytic = {"hitting_time_mean": mfpt_critical_profile(params).times[scenario.start_state]}
            _print_comparison(estimates, analytic)
    else:
        resolved = config.resolved(params)
        result = simulate_stationary(
            params,
            resolved,
            t_los=scenario.t_los_min,
            workers=args.workers,
            assignment=args.assignment,
            collect_waits=args.wait_samples,
        )
        estimates = result.estimates
        payload["per_server_busy"] = list(result.per_server_busy)
        payload["batch_mean_queue_len"] = list(result.batch_queue_means)
        for name in ("p_occup", "throughput", "wait_mean_conditional", "p_busy_per_server"):
            if name in estimates:
                est = estimates[name]
                print(f"{name} = {est.value:.6g} +- {est.std_error:.3g} ({est.n_samples} batches)")
        if rho >= 1.0:
            first, last = result.batch_queue_means[0], result.batch_queue_means[-1]
            print(
                f"unstable run (rho={rho:.6g}): mean queue length grew from "
                f"{first:.6g} (first batch) to {last:.6g} (last batch)"
            )
        if args.compare:
            _print_comparison(estimates, _analytic_counterparts(params, scenario.t_los_min))
        if args.wait_samples:
            _write_csv(
                out_dir / "sim_waits.csv",
                WAITS_CSV_HEADER,
                ((idx, repr(w)) for idx, w in (result.waits or ())),
            )
            print(f"wrote {out_dir / 'sim_waits.csv'}")

    payload["estimates"] = {k: est.value for k, est in sorted(estimates.items())}
    payload["std_errors"] = {k: est.std_error for k, est in sorted(estimates.items())}
    payload["n_samples"] = {k: est.n_samples for k, est in sorted(estimates.items())}
    payload["config"] = {
        "seed": seed,
        "replications": resolved.replications,
        "warmup_min": resolved.warmup,
        "horizon_min": resolved.horizon,
        "start_state": resolved.start_state,
        "t_los_min": scenario.t_los_min,
        "assignment": args.assignment if args.mode == "stationary" else None,
        "servers": params.servers,
        "t_call_min": params.t_call,
        "t_service_min": params.t_service,
    }
    _write_json(out_dir / "sim.json", payload)
    print(f"wrote {out_dir / 'sim.json'}")
    return EXIT_OK


def _print_comparison(estimates, analytic) -> None:
    print(f"{'quantity':<28} {'simulated':>12} {'std_err':>10} {'analytic':>12} {'z':>8}")
    for name in sorted(analytic):
        if name not in estimates:
            continue
        est = estimates[name]
        ref = analytic[name]
        if est.std_error > 0.0:
            z = (est.value - ref) / est.std_error
        else:
            z = 0.0 if est.value == ref else math.inf
        print(f"{name:<28} {est.value:>12.6g} {est.std_error:>10.3g} {ref:>12.6g} {z:>8.2f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambuq",
        description="Queueing analytics and fleet sizing for M-server ambulance services",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat JSON scenario file (flags override it)")
        p.add_argument("--t-call", type=float, help="mean minutes between calls")
        p.add_argument("--t-service", type=float, help="mean service minutes")
        p.add_argument("--servers", help="fleet size: '6', '5,7', or '4..10'")
        p.add_argument("--t-los", type=float, help="level-of-service threshold, minutes (default 30)")
        p.add_argument("--cost", type=float, help="cost per attention (default 0)")
        p.add_argument("--seed", type=int, help="simulation seed")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--hours", action="store_true", help="display times in hours (files stay in minutes)")

    p_analyze = sub.add_parser("analyze", help="stationary service metrics per fleet size")
    add_common(p_analyze)
    p_analyze.add_argument(
        "--stationary-csv", action="store_true",
        help="also write stationary_M{m}.csv occupancy dumps",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_mfpt = sub.add_parser("mfpt", help="mean time to fleet saturation")
    add_common(p_mfpt)
    p_mfpt.add_argument(
        "--t-call-grid", dest="t_call_grid",
        help="sweep grid: '10,12,14' or '10..40:0.2' (writes mfpt_sweep.csv)",
    )
    p_mfpt.set_defaults(func=_cmd_mfpt)

    p_size = sub.add_parser("size", help="smallest fleet meeting a target")
    add_common(p_size)
    p_size.add_argument("--stability", action="store_true", help="smallest stable fleet")
    p_size.add_argument("--los-target", type=float, help="minimum level of service in (0,1]")
    p_size.add_argument("--occup-max", type=float, help="maximum occupation probability in (0,1]")
    p_size.add_argument("--horizon", type=float, help="minimum mean time to saturation, minutes")
    p_size.add_argument("--m-max", type=int, default=1000, help="scan cap (default 1000)")
    p_size.set_defaults(func=_cmd_size)

    p_sim = sub.add_parser("simulate", help="stochastic oracle run")
    add_common(p_sim)
    p_sim.add_argument("--mode", choices=("stationary", "hitting"), default="stationary")
    p_sim.add_argument("--replications", type=int, help="independent replications")
    p_sim.add_argument("--warmup", type=float, help="warmup minutes before measurement")
    p_sim.add_argument("--horizon-min", dest="horizon_min", type=float, help="total simulated minutes")
    p_sim.add_argument("--start-state", dest="start_state", type=int, help="initial calls in system")
    p_sim.add_argument("--workers", type=int, default=1, help="parallel replication workers")
    p_sim.add_argument("--assignment", choices=("random", "least_index"), default="random")
    p_sim.add_argument("--strict", action="store_true", help="fail unless a seed is given")
    p_sim.add_argument("--allow-unstable", action="store_true", help="simulate even when rho >= 1")
    p_sim.add_argument("--compare", action="store_true", help="print analytic-vs-simulated z-scores")
    p_sim.add_argument("--wait-samples", action="store_true", help="write per-call waits CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoSteadyStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STEADY_STATE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
