"""Operator-facing command line: analyze, mfpt, size, simulate.

Scenarios come from a flat JSON config file and/or flags (flags win).
Outputs go to fixed basenames under --out-dir so downstream harnesses have
stable paths; stdout carries a human-readable summary. Exit codes:
0 success, 2 config/validation error, 3 no steady state, 4 sizing target
not met within the scan cap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import NoSteadyStateError, ParameterError
from .mfpt import mfpt_critical_profile, mfpt_sweep
from .params import SystemParams, as_int, as_real, at_most, derive, is_stable, require_steady_state
from .service_metrics import _miss, full_report
from .simulate import MAX_SEED, SimConfig, compare, simulate_hitting_time, simulate_stationary
from .sizing import SizingQuery, min_fleet
from .steady_state import MAX_CSV_ROWS
from .steady_state import p_occupation_by_fleet, queue_stats, stationary_csv_length, stationary_csv_rows

# Nothing here calls these; perfbench/tracing.py wraps them by name here.
from .service_metrics import mean_wait
from .sizing import stability_bound
from .steady_state import p_occupation, queue_conditional_pmf, stationary_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_STEADY_STATE = 3
EXIT_NOT_FOUND = 4

SERVICE_SUMMARY_HEADER = (
    "servers,rho,p_occup,p_busy,los,one_minus_los,mean_queue_len,std_queue_len,mean_wait_min"
)
SWEEP_CSV_HEADER = "t_call_min,servers,mean_time_to_critical_min"
STATIONARY_CSV_HEADER = "n,pi_n"
WAITS_CSV_HEADER = "call_index,wait_min"

# Largest list a 'lo..hi' fleet range or 'lo..hi:step' grid may expand to.
MAX_EXPANSION = 10_000
# CSV rows joined into one string per write: about 0.1 MB of the longest rows.
_CSV_CHUNK = 4096

@dataclass
class ScenarioConfig:
    """Merged scenario: config file values overridden by command-line flags."""

    t_call_min: float
    t_service_min: float
    servers: list[int]
    t_los_min: float
    cost_per_attention: float
    t_call_grid: list[float] | None
    seed: int | None
    replications: int
    warmup_min: float | None
    horizon_min: float | None
    start_state: int


_CONFIG_KEYS = {field.name for field in fields(ScenarioConfig)}


def _number(text: str):
    """Flag text as the int or float it spells; any other text is returned
    as it is, for the validators to refuse by field name."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse_list(value, field: str, rule) -> list:
    """Entries from a number, a JSON list, or text 'a,b' or 'lo..hi', each
    checked by ``rule(entry, field)``. A range of fleets (int entries) steps
    by 1, exactly at any size; one of call spacings (float entries) by 1.0
    or the step in 'lo..hi:step'. A range may expand to at most
    MAX_EXPANSION entries and is refused before any list is built."""
    if isinstance(value, str):
        text = value.strip()
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo = rule(_number(lo_text), field)
            if isinstance(lo, int):
                step = 1
                count = rule(_number(hi_text), field) - lo + 1
            else:
                hi_text, _, step_text = hi_text.partition(":")
                hi = rule(_number(hi_text), field)
                step = 1.0
                if step_text:
                    step = as_real(_number(step_text), f"{field} step", positive=True)
                steps = (hi - lo) / step + 1e-9
                # floored only once bounded, so an overflowing count is never built
                count = math.floor(steps) + 1 if steps < MAX_EXPANSION else steps + 1
            if count < 1:
                raise ParameterError(f"{field} range {text!r} expands to no entries")
            at_most(count, MAX_EXPANSION, f"entries of {field} range {text!r}")
            return [lo + k * step for k in range(count)]
        value = [_number(part) for part in text.split(",") if part.strip()]
    elif not isinstance(value, list):
        value = [value]
    return [rule(v, field) for v in value]


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
    warmup = pick("warmup", "warmup_min")
    horizon = pick("horizon_min", "horizon_min")
    scenario = ScenarioConfig(
        t_call_min=as_real(t_call, "t_call", positive=True),
        t_service_min=as_real(t_service, "t_service", positive=True),
        servers=_parse_list(servers, "servers", functools.partial(as_int, minimum=1)),
        t_los_min=as_real(pick("t_los", "t_los_min", 30.0), "t_los"),
        cost_per_attention=as_real(pick("cost", "cost_per_attention", 0.0), "cost_per_attention"),
        t_call_grid=(
            None if grid is None
            else _parse_list(grid, "t_call_grid", functools.partial(as_real, positive=True))
        ),
        seed=None if seed is None else as_int(seed, "seed", minimum=0, maximum=MAX_SEED),
        replications=as_int(pick("replications", "replications", 1), "replications", minimum=1),
        warmup_min=None if warmup is None else as_real(warmup, "warmup"),
        horizon_min=None if horizon is None else as_real(horizon, "horizon", positive=True),
        start_state=as_int(pick("start_state", "start_state", 0), "start_state", minimum=0),
    )
    if not scenario.servers:
        raise ParameterError("servers list must be non-empty")
    if scenario.t_call_grid is not None and not scenario.t_call_grid:
        raise ParameterError("t_call_grid must be non-empty when given")
    return scenario


def _params_for(scenario: ScenarioConfig, servers: int) -> SystemParams:
    return SystemParams(
        t_call=scenario.t_call_min, t_service=scenario.t_service_min, servers=servers
    )


@contextlib.contextmanager
def _staged_writes():
    """The one file writer, for every file of one command. It yields
    ``write(path, lines)``, which puts the lines in full in a sibling .tmp
    file; when the block ends, each .tmp file is renamed over its path in
    the order first written, so a reader never sees a partial file; a path
    written twice keeps its last lines. If anything fails first, in a
    write, the block or a rename, every .tmp file and every file already
    renamed is removed, so a command leaves all its files or none. An
    OSError, such as an --out-dir naming a regular file, becomes a
    ParameterError naming the path."""
    staged: dict[Path, Path] = {}  # path -> its .tmp file
    renamed: list[Path] = []
    failing = None

    def write(path: Path, lines) -> None:
        nonlocal failing
        failing = path
        # staged before the .tmp file is made, so a partial one is removed
        tmp = staged.setdefault(path, path.with_name(path.name + ".tmp"))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        failing = None

    try:
        yield write
        for path, tmp in staged.items():
            failing = path
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException as exc:
        for leftover in itertools.chain(renamed, staged.values()):
            with contextlib.suppress(OSError):
                leftover.unlink()
        if isinstance(exc, OSError) and failing is not None:
            raise ParameterError(f"cannot write {failing}: {exc}") from None
        raise


def _write_json(write, path: Path, obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ParameterError(
            f"{path.name} would hold a value that exceeds the floating-point range"
        ) from None
    write(path, (text, "\n"))


def _write_csv(write, path: Path, header: str, lines) -> None:
    """``lines`` are the formatted rows, each ending in a newline; they reach
    ``write`` joined _CSV_CHUNK at a time, one write per chunk."""
    rows = iter(lines)
    chunks = iter(lambda: "".join(itertools.islice(rows, _CSV_CHUNK)), "")
    write(path, itertools.chain((header + "\n",), chunks))


def write_sweep_csv(rows, path, write) -> None:
    """Write mfpt_sweep rows to CSV with 6 significant digits per value,
    through ``write``, the writer of a ``_staged_writes`` block."""
    _write_csv(
        write, Path(path), SWEEP_CSV_HEADER,
        (f"{t_call:.6g},{m},{mean_time:.6g}\n" for t_call, m, mean_time in rows),
    )


def write_stationary_csv(params: SystemParams, path, write) -> None:
    """Write the (n, pi_n) rows of ``stationary_csv_rows`` at full precision.
    ``write`` is as for ``write_sweep_csv``."""
    _write_csv(
        write, Path(path), STATIONARY_CSV_HEADER,
        (f"{n},{pi_n!r}\n" for n, pi_n in stationary_csv_rows(params)),
    )


def _fmt_minutes(minutes: float, hours: bool) -> str:
    if hours:
        return f"{minutes / 60.0:.4g} h"
    return f"{minutes:.4g} min"


def _cmd_analyze(args, scenario: ScenarioConfig, out_dir: Path, write) -> tuple[int, list[str]]:
    # every fleet is checked, in the order given, before any result is computed
    checked = []
    csv_rows = 0
    for m in scenario.servers:
        params = _params_for(scenario, m)
        require_steady_state(params)
        if args.stationary_csv:
            csv_rows += stationary_csv_length(params)  # refuses an over-long dump
        checked.append(params)
    at_most(csv_rows, MAX_CSV_ROWS, "stationary CSV rows")
    occups = p_occupation_by_fleet(
        scenario.t_call_min, scenario.t_service_min, scenario.servers
    )

    reports = []
    summary_lines = []
    display = []
    for m, params, occup in zip(scenario.servers, checked, occups):
        report = full_report(
            params, scenario.t_los_min, scenario.cost_per_attention, p_occup=occup
        )
        reports.append(report.to_dict())
        stats = queue_stats(params)
        miss = _miss(report.p_occup, report.wait_rate, report.t_los)
        # the rho column is p_busy, the same float
        summary_lines.append(
            f"{m},{report.p_busy!r},{report.p_occup!r},{report.p_busy!r},{report.los!r},"
            f"{miss!r},{stats.mean_len!r},{stats.std_len!r},{report.mean_wait!r}\n"
        )
        display.append(
            f"M={m}: rho={report.p_busy:.6g} p_occup={report.p_occup:.6g} "
            f"p_busy={report.p_busy:.6g} LOS({scenario.t_los_min:g} min)={report.los:.6g} "
            f"mean_wait={_fmt_minutes(report.mean_wait, args.hours)} "
            f"throughput={report.throughput:.6g}/min"
        )

    _write_json(write, out_dir / "report.json", reports[0] if len(reports) == 1 else reports)
    if len(reports) > 1:
        _write_csv(write, out_dir / "service_summary.csv", SERVICE_SUMMARY_HEADER, summary_lines)
    if args.stationary_csv:
        for params in checked:
            write_stationary_csv(params, out_dir / f"stationary_M{params.servers}.csv", write)
    display.append(f"wrote {out_dir / 'report.json'}")
    return EXIT_OK, display


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{what} exceeds the floating-point range ({value!r})")


def _cmd_mfpt(args, scenario: ScenarioConfig, out_dir: Path, write) -> tuple[int, list[str]]:
    # Every budget is checked before the first O(M) step: the output sizes,
    # then the sweep's steps, which mfpt_sweep checks before its first step,
    # so the sweep runs before the profiles.
    at_most(sum(m + 1 for m in scenario.servers), MAX_CSV_ROWS, "mfpt.json saturation times")
    rows = None
    if scenario.t_call_grid is not None:
        at_most(len(scenario.servers) * len(scenario.t_call_grid), MAX_CSV_ROWS, "mfpt_sweep.csv rows")
        rows = mfpt_sweep(scenario.t_service_min, scenario.servers, scenario.t_call_grid)
    profiles = []
    display = []
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
        display.append(
            f"M={m}: T(0)={_fmt_minutes(profile.times[0], args.hours)} "
            f"<T>={_fmt_minutes(profile.mean_time, args.hours)}"
        )
    if rows is not None:
        for t_call, m, mean_time in rows:
            if not math.isfinite(mean_time):  # checked first: the message costs more
                _require_finite(mean_time, f"sweep mean time for servers={m}, t_call={t_call:g}")

    _write_json(write, out_dir / "mfpt.json", profiles[0] if len(profiles) == 1 else profiles)
    if rows is not None:
        write_sweep_csv(rows, out_dir / "mfpt_sweep.csv", write)
        display.append(f"wrote {out_dir / 'mfpt_sweep.csv'} ({len(rows)} rows)")
    display.append(f"wrote {out_dir / 'mfpt.json'}")
    return EXIT_OK, display


def _cmd_size(args, scenario: ScenarioConfig, out_dir: Path, write) -> tuple[int, list[str]]:
    targets = {
        "los_target": args.los_target,
        "occup_ceiling": args.occup_max,
        "mfpt_horizon": args.horizon,
    }
    # a target of 0 is chosen too, for SizingQuery to refuse by name
    chosen = [kind for kind, target in targets.items() if target is not None]
    if args.stability:
        chosen.append("stability")
    if len(chosen) != 1:
        raise ParameterError(
            "choose exactly one of --stability, --los-target, --occup-max, --horizon"
        )
    kind = chosen[0]
    query = SizingQuery(
        kind=kind,
        target=targets.get(kind),
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
    _write_json(write, out_dir / "sizing.json", payload)
    if result.found:
        return EXIT_OK, [
            f"min fleet M={result.m}: {result.kind} value {result.predicate_value:.6g}"
            + (f" (target {query.target:g})" if query.target is not None else "")
            + f", scanned {result.scanned[0]}..{result.scanned[1]}"
        ]
    attained = "none evaluated" if result.predicate_value is None else f"{result.predicate_value:.6g}"
    return EXIT_NOT_FOUND, [
        f"no fleet up to m_max={query.m_max} meets {result.kind}"
        + (f" target {query.target:g}" if query.target is not None else "")
        + f"; best attained: {attained}"
    ]


def _cmd_simulate(args, scenario: ScenarioConfig, out_dir: Path, write) -> tuple[int, list[str]]:
    if len(scenario.servers) != 1:
        raise ParameterError("simulate needs a single fleet size")
    params = _params_for(scenario, scenario.servers[0])

    seed = scenario.seed
    if seed is None:
        if args.strict:
            raise ParameterError("--seed is required in --strict mode")
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"note: no seed given, using {seed}", file=sys.stderr)

    workers = as_int(args.workers, "workers", minimum=1)
    config = SimConfig(
        seed=seed,
        replications=scenario.replications,
        warmup=scenario.warmup_min,
        horizon=scenario.horizon_min,
        start_state=scenario.start_state,
    )

    # The --compare counterparts need a steady state, so an unstable
    # --compare run is refused before any replication runs.
    if args.mode == "stationary" and (args.compare or not args.allow_unstable):
        require_steady_state(params)

    payload: dict = {"mode": args.mode}
    display = []
    waits = None
    if args.mode == "hitting":
        estimate = simulate_hitting_time(params, scenario.start_state, config)
        estimates = {"hitting_time_mean": estimate}
        resolved = config
        display.append(
            f"hitting time from state {scenario.start_state}: "
            f"{estimate.value:.6g} min +- {estimate.std_error:.3g} "
            f"({estimate.n_samples} replications)"
        )
    else:
        resolved = config.resolved(params)
        result = simulate_stationary(
            params,
            resolved,
            t_los=scenario.t_los_min,
            assignment=args.assignment,
            collect_waits=args.wait_samples,
            workers=workers,
        )
        estimates = result.estimates
        payload["per_server_busy"] = list(result.per_server_busy)
        payload["batch_mean_queue_len"] = list(result.batch_queue_means)
        display.extend(
            f"{name} = {est.value:.6g} +- {est.std_error:.3g} ({est.n_samples} batches)"
            for name in ("p_occup", "throughput", "wait_mean_conditional", "p_busy_per_server")
            if (est := estimates.get(name))
        )
        if not is_stable(params):
            first, last = result.batch_queue_means[0], result.batch_queue_means[-1]
            display.append(
                f"unstable run (rho={derive(params).rho:.6g}): mean queue length grew from "
                f"{first:.6g} (first batch) to {last:.6g} (last batch)"
            )
        if args.wait_samples:
            waits = result.waits or ()
    if args.compare:
        display.append(f"{'quantity':<28} {'simulated':>12} {'std_err':>10} {'analytic':>12} {'z':>8}")
        display.extend(
            f"{name:<28} {value:>12.6g} {std_error:>10.3g} {ref:>12.6g} {z:>8.2f}"
            for name, value, std_error, ref, z in compare(
                params, estimates, args.mode, scenario.t_los_min, scenario.start_state
            )
        )

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
    if waits is not None:
        _write_csv(
            write, out_dir / "sim_waits.csv", WAITS_CSV_HEADER,
            (f"{idx},{w!r}\n" for idx, w in enumerate(waits)),
        )
        display.append(f"wrote {out_dir / 'sim_waits.csv'}")
    _write_json(write, out_dir / "sim.json", payload)
    display.append(f"wrote {out_dir / 'sim.json'}")
    return EXIT_OK, display


# Every flag each command declares (option string -> the Action that
# add_argument returned), filled by build_parser; argparse's own help flag
# is not declared there, so it is not here.
_DECLARED: dict[str, dict[str, argparse.Action]] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared by every
    later ``main`` call in the process. Sharing is safe: each parse makes
    a fresh Namespace, every default is immutable, and the _cmd_*
    functions look up what they call in this module at call time. Each
    flag is declared once, here, and recorded in ``_DECLARED``; only
    store and store_true flags, none required, are declared, since the
    table route reads no other kind."""
    parser = argparse.ArgumentParser(
        prog="ambuq",
        description="Queueing analytics and fleet sizing for M-server ambulance services",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _DECLARED.clear()

    def command(name: str, func, help: str):
        """The command ``name``, with the common flags, and a function that
        declares one more flag of it."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        flags = _DECLARED[name] = {}

        def add(*option_strings: str, **kwargs) -> None:
            action = p.add_argument(*option_strings, **kwargs)
            flags.update(dict.fromkeys(action.option_strings, action))

        add("--config", help="flat JSON scenario file (flags override it)")
        add("--t-call", type=_number, help="mean minutes between calls")
        add("--t-service", type=_number, help="mean service minutes")
        add("--servers", help="fleet size: '6', '5,7', or '4..10'")
        add("--t-los", type=_number, help="level-of-service threshold, minutes (default 30)")
        add("--cost", type=_number, help="cost per attention (default 0)")
        add("--seed", type=_number, help="simulation seed")
        add("--out-dir", default=".", help="directory for output files")
        add("--hours", action="store_true", help="display times in hours (files stay in minutes)")
        return add

    add = command("analyze", _cmd_analyze, help="stationary service metrics per fleet size")
    add(
        "--stationary-csv", action="store_true",
        help="also write stationary_M{m}.csv occupancy dumps",
    )

    add = command("mfpt", _cmd_mfpt, help="mean time to fleet saturation")
    add(
        "--t-call-grid", dest="t_call_grid",
        help="sweep grid: '10,12,14' or '10..40:0.2' (writes mfpt_sweep.csv)",
    )

    add = command("size", _cmd_size, help="smallest fleet meeting a target")
    add("--stability", action="store_true", help="smallest stable fleet")
    add("--los-target", type=_number, help="minimum level of service in (0,1]")
    add("--occup-max", type=_number, help="maximum occupation probability in (0,1]")
    add("--horizon", type=_number, help="minimum mean time to saturation, minutes")
    add("--m-max", type=_number, default=1000, help="scan cap (default 1000)")

    add = command("simulate", _cmd_simulate, help="stochastic oracle run")
    add("--mode", choices=("stationary", "hitting"), default="stationary")
    add("--replications", type=_number, help="independent replications")
    add("--warmup", type=_number, help="warmup minutes before measurement")
    add("--horizon-min", dest="horizon_min", type=_number, help="total simulated minutes")
    add("--start-state", dest="start_state", type=_number, help="initial calls in system")
    add(
        "--workers", type=_number, default=1,
        help="processes for a stationary run's replications (an integer >= 1, default 1); "
        "results are the same for every value, and hitting mode ignores it",
    )
    add("--assignment", choices=("random", "least_index"), default="random")
    add("--strict", action="store_true", help="fail unless a seed is given")
    add("--allow-unstable", action="store_true", help="simulate even when rho >= 1")
    add("--compare", action="store_true", help="print analytic-vs-simulated z-scores")
    add("--wait-samples", action="store_true", help="write per-call waits CSV")

    return parser


@functools.cache
def _flag_tables() -> dict:
    """The table route's table, built once per process: for each command,
    the flags ``build_parser`` declares (option string -> action) and the
    attributes argparse gives the command alone, every default and
    ``func`` among them."""
    parser = build_parser()
    return {name: (flags, vars(parser.parse_args([name]))) for name, flags in _DECLARED.items()}


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that ``build_parser().parse_args(argv)`` returns, when
    ``argv`` is a command and then only its flags, spelled out, each valued
    flag followed by a value that does not start with '-' and that the
    flag's type and choices take. Any other argv gives None."""
    table = _flag_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    flags, start = table
    args = argparse.Namespace()
    values = vars(args)  # filled in place: Namespace(**values) would setattr each one
    values.update(start)
    tokens = iter(argv[1:])
    for token in tokens:
        action = flags.get(token)
        if action is None:
            return None
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return args


def main(argv=None) -> int:
    """Run one command. ``main`` reads the arguments, loads the scenario and
    opens the one ``_staged_writes`` block; the command validates, computes,
    stages its files through ``write`` and returns (exit code, summary
    lines). The summary is printed only once every file is renamed into
    place, so a refusal or a failed write anywhere ends in one error line
    and no file.

    An argv entry that is not a str is refused first, with exit 2. Then an
    argv that is a command and only its flags, spelled out, each valued one
    followed by a value that does not start with '-', is read off a table
    of the flags ``build_parser`` declares (``_table_parse``) into the
    Namespace argparse would return. Every other argv, such as ``--help``,
    an abbreviation, ``--flag=value``, a value starting with '-' or any
    refusal, goes unchanged to ``build_parser().parse_args``, so argparse
    keeps its usage lines, messages and exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            print(f"error: argv[{i}] must be a str, got {type(arg).__name__}", file=sys.stderr)
            return EXIT_CONFIG
    args = _table_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        scenario = _load_scenario(args)
        with _staged_writes() as write:
            code, summary = args.func(args, scenario, Path(args.out_dir), write)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoSteadyStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STEADY_STATE
    print("\n".join(summary))
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
