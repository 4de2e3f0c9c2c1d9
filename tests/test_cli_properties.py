"""Property test of the CLI input contract.

Whatever `analyze`, `mfpt` or `size` are given, `main` returns 0, 2, 3 or 4
without raising, and writes no JSON that needs NaN or Infinity to parse.
Fleet sizes, scan caps and grids stay small so the examples run in seconds;
`--stationary-csv` and `simulate` are left out (the stationary law still
overflows past an offered load of about 710, and simulations are slow).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ambuq.cli import main

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
