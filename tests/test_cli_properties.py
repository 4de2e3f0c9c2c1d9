"""Property tests of the CLI input contract.

Whatever `analyze`, `mfpt` or `size` are given, `main` returns 0, 2, 3 or 4
without raising, and writes no JSON that needs NaN or Infinity to parse.
Fleet sizes, scan caps and grids stay small so the examples run in seconds.

`simulate` in both modes and `analyze --stationary-csv` either exit 0 with
finite files or exit 2 or 3 with no file, within a few seconds each. Their
in-budget inputs are short runs; their over-budget inputs are far over a
budget, so that a run the budgets allow but that is slow is not generated.

`main`'s table route reads an argv of spelled-out flags into the Namespace
that argparse would return, and returns nothing for any other argv.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambuq.cli import _table_parse, build_parser, main

GARBAGE = st.sampled_from(
    ["abc", "", " ", "1.5.3", "nan", "inf", "-inf", "1e400", "0x10", "True", "1,2", "3..", "..4"]
)
EXTREME = st.sampled_from(
    ["0", "-1", "5e-324", "1e-300", "1e-9", "1e9", "1e300", "1.7e308", "1" + "0" * 400]
)


def mostly(valid, other):
    """``valid`` in 17 draws of 20, so that most commands get past parsing."""
    return st.integers(0, 19).flatmap(lambda i: valid if i < 17 else other)


def real_text(lo: float, hi: float):
    return mostly(
        st.one_of(st.floats(lo, hi).map(repr), st.integers(int(lo), int(hi)).map(str)),
        st.one_of(EXTREME, GARBAGE),
    )


def count_text(lo: int, hi: int):
    """Small integers as int or integral-float text, or non-integral floats and garbage."""
    return mostly(
        st.one_of(st.integers(lo, hi).map(str), st.integers(lo, hi).map(lambda n: f"{n}.0")),
        st.one_of(st.sampled_from(["0", "-3", "2.5", "1e1"]), GARBAGE),
    )


@st.composite
def fleets(draw):
    lo = draw(st.integers(-1, 40))
    return draw(mostly(
        st.one_of(
            count_text(1, 60),
            st.lists(st.integers(1, 60), min_size=1, max_size=4).map(
                lambda ms: ",".join(map(str, ms))
            ),
            st.integers(0, 30).map(lambda k: f"{lo}..{lo + k}"),
        ),
        st.sampled_from(
            ["10000", "1..10001", "1..1000000000000", "9..5", "x..9", "1..y", ",", "1.5..4"]
        ),
    ))


@st.composite
def grids(draw):
    lo = draw(st.integers(1, 30))
    step = draw(st.sampled_from(["0.2", "0.5", "1", "2"]))
    return draw(mostly(
        st.one_of(
            st.integers(0, 40).map(lambda k: f"{lo}..{lo + k * float(step):g}:{step}"),
            st.lists(real_text(0.5, 40.0), min_size=1, max_size=4).map(",".join),
        ),
        st.sampled_from(
            ["1..1e9:1e-9", "1..1e308:1e-300", "abc..4", "1..2:0", "1..2:-1", "5..1", "1..2:x"]
        ),
    ))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["analyze", "mfpt", "size"]))
    argv = [
        command,
        f"--t-call={draw(real_text(0.01, 100.0))}",
        f"--t-service={draw(real_text(0.01, 1000.0))}",
        f"--servers={draw(fleets())}",
    ]
    for flag, values in (("--t-los", real_text(0.0, 120.0)), ("--cost", real_text(0.0, 100.0))):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if draw(st.booleans()):
        argv.append("--hours")
    if command == "mfpt" and draw(st.booleans()):
        argv.append(f"--t-call-grid={draw(grids())}")
    if command == "size":
        goal = draw(st.sampled_from(["--stability", "--los-target", "--occup-max", "--horizon"]))
        if goal == "--stability":
            argv.append(goal)
        elif goal == "--horizon":
            argv.append(f"{goal}={draw(real_text(1.0, 1e6))}")
        else:
            argv.append(f"{goal}={draw(real_text(0.0, 1.5))}")
        if draw(st.booleans()):
            argv.append(f"--m-max={draw(count_text(1, 2000))}")
    return argv


def _refuse_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(argvs())
def test_cli_exits_cleanly_and_writes_only_finite_json(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, f"--out-dir={out_dir}"])
        assert code in (0, 2, 3, 4)
        for path in out_dir.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)


@st.composite
def run_argvs(draw):
    """`analyze --stationary-csv`, or `simulate` in either mode: short runs
    with real-valued windows, one value in four replaced by an extreme or
    malformed one, and one command in four pushed far over a run budget."""
    kind = draw(st.sampled_from(["csv", "hitting", "stationary", "stationary"]))
    if kind == "csv":
        return [
            "analyze",
            "--stationary-csv",
            f"--t-call={draw(real_text(0.01, 100.0))}",
            f"--t-service={draw(real_text(0.01, 1000.0))}",
            f"--servers={draw(fleets())}",
        ]
    t_call = draw(st.floats(1.0, 50.0))
    servers = draw(st.integers(1, 6 if kind == "hitting" else 8))
    values = {"--seed": draw(st.integers(0, 2**64)), "--t-call": t_call, "--servers": servers}
    if kind == "hitting":
        values["--mode"] = "hitting"
        # rho >= 0.7 keeps the walks short
        values["--t-service"] = draw(st.floats(0.7, 2.0)) * servers * t_call
        values["--start-state"] = draw(st.integers(0, servers))
        values["--replications"] = draw(st.integers(1, 1500))
    else:
        warmup = draw(st.floats(0.0, 500.0))
        values["--t-service"] = draw(st.floats(1.0, 200.0))
        values["--start-state"] = draw(st.integers(0, 12))
        values["--replications"] = draw(st.integers(1, 3))
        values["--warmup"] = warmup
        values["--horizon-min"] = warmup + draw(st.floats(1.0, 3000.0))
    argv = ["simulate", *(f"{flag}={value!r}".replace("'", "") for flag, value in values.items())]
    if kind == "stationary":
        for flag in ("--wait-samples", "--allow-unstable", "--compare"):
            if draw(st.booleans()):
                argv.append(flag)
        argv.append(f"--assignment={draw(st.sampled_from(['random', 'least_index']))}")
    if draw(st.integers(0, 3)) == 0:
        flag = draw(st.sampled_from(sorted(set(values) - {"--mode"})))
        argv.append(f"{flag}={draw(st.one_of(EXTREME, GARBAGE))}")
    if draw(st.integers(0, 3)) == 0:
        # each of these alone puts a run far over its budget (10^7
        # replications of a short walk are within the hitting budget)
        argv += draw(st.sampled_from([
            ["--start-state=100000000"],
            ["--servers=20", f"--t-service={0.3 * 20 * t_call!r}", "--start-state=0"],
        ] if kind == "hitting" else [
            ["--t-service=1", "--warmup=0", "--wait-samples", "--allow-unstable",
             f"--horizon-min={2e6 * t_call!r}"],
            ["--horizon-min=1e12"],
            ["--start-state=100000000"],
            ["--replications=10000000"],
            ["--servers=1000000"],
        ]))
    return argv


def _finite_csv(path):
    for line in path.read_text().splitlines()[1:]:
        assert all(math.isfinite(float(field)) for field in line.split(",")), line


@settings(
    derandomize=True, deadline=None, max_examples=200, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run_argvs())
def test_simulation_and_stationary_csv_finish_cleanly(time_limit, argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings(), time_limit(5):
                warnings.simplefilter("ignore")
                code = main([*argv, f"--out-dir={out_dir}"])
        files = sorted(out_dir.glob("*")) if out_dir.exists() else []
        if code == 0:
            assert files
            for path in files:
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=_refuse_constant)
                else:
                    _finite_csv(path)
        else:
            assert code in (2, 3)
            assert files == []


# every flag of every command, read off the parser: (option, takes a value, choices)
FLAGS = {
    name: [
        (action.option_strings[-1], action.nargs is None, action.choices)
        for action in sub._actions if type(action) is not argparse._HelpAction
    ]
    for name, sub in build_parser()._actions[1].choices.items()
}
# values the route reads, and values it leaves to argparse (a leading '-')
PLAIN_VALUES = st.one_of(
    st.sampled_from(["6", "15", "0.5", "1e3", "4..10", "5,7", "10..40:0.2", "abc", "nan", "",
                     " ", " 6", "6 7", "stationary", "random", "bogus", "analyze", "x=1"]),
    st.integers(0, 10**6).map(str),
)
DASH_VALUES = st.sampled_from(["-1", "-1e5", "--", "-h", "--hours", "-"])


@st.composite
def route_argvs(draw):
    """An argv and whether the table route must read it: a command (or not)
    and flags, most spelled out with a plain value, the others as
    --flag=value, an abbreviation, a value starting with '-', an unknown
    flag, a stray value or -h, with the last token dropped now and then."""
    command = draw(st.sampled_from([*FLAGS] * 3 + ["anal", "bogus", "", "-h", "--help"]))
    flags = FLAGS.get(command, FLAGS["simulate"])
    names = {option for option, _, _ in flags}
    items = []  # (tokens, whether the route reads them)
    forms = ["spelled"] * 8 + ["equals", "abbreviation", "dash", "unknown", "stray", "help"]
    if draw(st.booleans()):  # half the argvs have only spelled-out flags
        forms = forms[:1]
    for _ in range(draw(st.integers(0, 8))):
        option, valued, choices = draw(st.sampled_from(flags))
        values = PLAIN_VALUES if choices is None else st.one_of(st.sampled_from(choices), PLAIN_VALUES)
        value = draw(values)
        tail = [value] if valued else []
        form = draw(st.sampled_from(forms))
        if form == "spelled":
            items.append(([option, *tail], choices is None or not valued or value in choices))
        elif form == "dash":
            items.append(([option, *([draw(DASH_VALUES)] if valued else [])], not valued))
        elif form == "equals":
            items.append(([f"{option}={value}"], False))
        elif form == "abbreviation":
            short = [option[:k] for k in range(3, len(option)) if option[:k] not in names]
            items.append(([draw(st.sampled_from(short)), *tail], False))
        else:
            token = {"unknown": st.sampled_from(["--no-such-flag", "-x", "--t_call", "--SERVERS"]),
                     "stray": st.sampled_from(["6", "analyze", "x"]),
                     "help": st.sampled_from(["-h", "--help"])}[form]
            items.append(([draw(token)], False))
    if items and draw(st.integers(0, 4)) == 0:  # drop the last token
        tokens = items.pop()[0][:-1]
        if tokens:  # a flag left without its value
            items.append((tokens, False))
    argv = [command, *(token for tokens, _ in items for token in tokens)]
    return argv, command in FLAGS and all(ok for _, ok in items)


def _attributes(namespace):
    # by repr, so that a nan equals a nan and 1 differs from 1.0
    return {key: repr(value) for key, value in vars(namespace).items()}


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(route_argvs())
def test_table_route_returns_argparses_namespace_or_nothing(case):
    argv, readable = case
    routed = _table_parse(list(argv))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = build_parser().parse_args(argv)
    except SystemExit:
        parsed = None
    if routed is not None:
        assert parsed is not None and _attributes(routed) == _attributes(parsed)
    assert (routed is not None) == readable
