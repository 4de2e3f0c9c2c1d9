"""Stationary runs whose replications are shared among forked processes.

Every run here is sized above FORK_MIN_EVENTS per process, so the worker
count is what decides whether a fork happens; os.fork is wrapped to count
the children each run starts.
"""

import os
import signal
import threading
import time

import pytest

from ambuq import ParameterError, SimConfig, SystemParams, simulate_stationary
from ambuq import simulate
from ambuq.cli import main
from ambuq.simulate import FORK_MIN_EVENTS

PARAMS = SystemParams(t_call=15, t_service=50, servers=6)
# 121000 min at 2/15 events per minute, plus a draw block and the bins:
# about 17300 events per replication
WARMUP, HORIZON = 1000.0, 121000.0
SIM_ARGS = (
    "simulate", "--t-call", 15, "--t-service", 50, "--servers", 6, "--seed", 7,
    "--warmup", WARMUP, "--horizon-min", HORIZON,
)


def run(*argv):
    return main([str(a) for a in argv])


def written(out_dir):
    return sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made so far in this process."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def four_cpus(monkeypatch):
    """Let runs use up to 4 processes on any host, so chunks come out uneven."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def config(replications):
    return SimConfig(seed=7, replications=replications, warmup=WARMUP, horizon=HORIZON)


def in_children_only(monkeypatch, act):
    """Make every replication that runs in a forked child call ``act`` first."""
    parent = os.getpid()
    real = simulate._run_fcfs_replication

    def replication(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(simulate, "_run_fcfs_replication", replication)


def test_runs_are_sized_above_the_fork_threshold():
    events_per_replication = HORIZON * 2 / 15 + simulate._DRAW_BLOCK + simulate.N_BATCHES * 6
    assert FORK_MIN_EVENTS < events_per_replication < 2 * FORK_MIN_EVENTS


@pytest.mark.parametrize("replications", [1, 2, 3, 5])
def test_outputs_are_byte_identical_at_any_worker_count(tmp_path, forks, four_cpus, replications):
    outputs = {}
    for workers in (1, 2, 3):
        out_dir = tmp_path / f"w{workers}"
        before = len(forks)
        code = run(*SIM_ARGS, "--replications", replications, "--workers", workers,
                   "--wait-samples", "--out-dir", out_dir)
        assert code == 0
        assert len(forks) - before == min(workers, replications) - 1
        outputs[workers] = [(out_dir / name).read_bytes() for name in ("sim.json", "sim_waits.csv")]
    assert outputs[1] == outputs[2] == outputs[3]
    if replications > 1:
        assert forks, "no run was shared among processes"


def test_a_child_exception_reaches_the_caller_with_its_type(tmp_path, capsys, monkeypatch):
    def fail():
        raise ParameterError("refused in a worker")

    in_children_only(monkeypatch, fail)
    out_dir = tmp_path / "out"
    assert run(*SIM_ARGS, "--replications", 2, "--workers", 2, "--out-dir", out_dir) == 2
    assert "refused in a worker" in capsys.readouterr().err
    assert written(out_dir) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_killed_by_a_signal_is_an_error_and_writes_nothing(tmp_path, monkeypatch):
    in_children_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    out_dir = tmp_path / "out"
    with pytest.raises(ChildProcessError, match=f"killed by signal {int(signal.SIGKILL)}"):
        run(*SIM_ARGS, "--replications", 2, "--workers", 2, "--out-dir", out_dir)
    assert written(out_dir) == []


def test_a_child_that_exits_without_reporting_names_its_status(monkeypatch):
    in_children_only(monkeypatch, lambda: os._exit(7))
    with pytest.raises(ChildProcessError, match="exit status 7"):
        simulate_stationary(PARAMS, config(2), workers=2)


def test_children_are_killed_and_reaped_when_the_caller_fails(monkeypatch, time_limit):
    parent = os.getpid()
    real = simulate._run_fcfs_replication

    def replication(*args):
        if os.getpid() == parent:
            raise ParameterError("the caller's own chunk failed")
        time.sleep(60)  # a child still running when the caller fails
        return real(*args)

    monkeypatch.setattr(simulate, "_run_fcfs_replication", replication)
    started = time.perf_counter()
    with time_limit(30), pytest.raises(ParameterError, match="own chunk"):
        simulate_stationary(PARAMS, config(2), workers=2)
    assert time.perf_counter() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_second_live_thread_forces_the_serial_path(forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        shared = simulate_stationary(PARAMS, config(2), workers=2)
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert shared == simulate_stationary(PARAMS, config(2), workers=1)


def test_no_fork_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert simulate_stationary(PARAMS, config(2), workers=2).estimates


def test_workers_beyond_the_cpus_and_replications_fork_at_most_their_minimum(tmp_path, forks):
    cpus = len(os.sched_getaffinity(0))
    assert run(*SIM_ARGS, "--replications", 3, "--workers", 1_000_000,
               "--out-dir", tmp_path) == 0
    assert len(forks) == min(3, cpus) - 1


def test_runs_below_the_threshold_stay_in_process(forks, four_cpus):
    # two replications of about 5100 events each, like the benchmark's warm-up
    short = SimConfig(seed=7, replications=2, warmup=1000.0, horizon=31000.0)
    simulate_stationary(PARAMS, short, workers=2)
    assert forks == []


@pytest.mark.parametrize("workers", [0, 1.5, True])
def test_library_worker_count_is_validated(workers):
    with pytest.raises(ParameterError, match="workers"):
        simulate_stationary(PARAMS, config(1), workers=workers)
