#!/usr/bin/env python3
"""Benchmark of the ambuq CLI on three workloads: planning, hitting, stationary.

    python3 perfbench/run.py --workload planning --seed 1 --seconds 15 --trace 0

Run it from the repository root; ambuq is imported from ./src and nowhere
else. One client calls ``ambuq.cli.main(argv)`` in this process and sends the
next command only when the previous one has returned (a closed loop, one
thread; only ``simulate --workers 2`` starts a second one). A run repeats
whole rounds of the workload (see workloads.py) until --seconds have passed
and at least 100 commands were issued. Every command's output is checked,
outside the timed region, against the independent routes in reference.py.

--trace 0 prints the end-to-end metrics:
  setup_s          median over fresh processes of the time to import ambuq,
                   generate the inputs and run one warm-up command of each kind
  work_per_s       work per second spent in main(), median over rounds; the
                   unit is commands (planning), replications (hitting) or
                   simulated minutes (stationary)
  latency_p50_ms   nearest-rank percentiles of the main() calls, file writes
  latency_p90_ms   included; at least 10 samples lie beyond p90
  peak_rss_mb      ru_maxrss of this process, which runs only this workload
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics (tracing.py) per traced round, plus trace.overhead_pct.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. ``failed`` counts commands with an unexpected exit code,
a missing or non-finite output, or a value the check rejects; ``correct`` is
false only when some finite output was wrong or the stationary determinism
check failed. Scratch output goes to .perfbench_work/ under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_COMMANDS = 100
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

# workloads, check and tracing import numpy, so they are imported only after
# ambuq: set-up time then includes numpy's import, as a user's would.


def load_cli():
    """Return ambuq.cli.main, imported from this checkout's src directory."""
    sys.path.insert(0, str(SRC))
    try:
        import ambuq.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ambuq from {SRC}: {exc}")
    if Path(ambuq.cli.__file__).resolve().parent != (SRC / "ambuq").resolve():
        raise SystemExit(f"perfbench: ambuq was imported from {ambuq.cli.__file__}, not {SRC}")
    return ambuq.cli.main


def call(main, cmd, out_dir: Path, tracer=None) -> tuple[object, float, str]:
    """Run one command in a fresh output directory: (exit code, seconds, stderr)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = [*cmd.argv, "--out-dir", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.open("cli", cmd.argv[0]) if tracer else None
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed command, not a benchmark crash
            rc, crashed = None, True
        elapsed = time.perf_counter() - t0
        if span:
            tracer.close(span, error=crashed)
        if crashed:
            traceback.print_exc()
    return rc, elapsed, err.getvalue()


def output_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.is_file()) if out_dir.is_dir() else []


def digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def end_to_end(setup: list[float], rounds: list[tuple[bool, float, float]],
               sorted_latencies: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(w / s for _, s, w in rounds),
        "latency_p50_ms": 1e3 * nearest_rank(sorted_latencies, 0.5),
        "latency_p90_ms": 1e3 * nearest_rank(sorted_latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class Run:
    """Issues rounds of one workload and keeps what the metrics need."""

    def __init__(self, main, workload, out_root: Path):
        self.main = main
        self.wl = workload
        self.out_root = out_root
        self.latencies: list[float] = []
        self.rounds: list[tuple[bool, float, float]] = []  # (traced, seconds, work)
        self.failures: list[str] = []
        self.wrong = 0
        self.verdicts: dict[tuple, object] = {}
        self.files = {"files": 0, "bytes": 0, "nonzero_exits": 0, "csv_rows": 0}
        self.slot0_sim_json: bytes | None = None

    def round(self, tracer=None) -> None:
        from check import check

        spent = work = 0.0
        for i, cmd in enumerate(self.wl.round):
            out_dir = self.out_root / f"c{i:03d}"
            rc, elapsed, stderr = call(self.main, cmd, out_dir, tracer)
            spent += elapsed
            work += cmd.work
            self.latencies.append(elapsed)
            files = output_files(out_dir)
            key = (i, rc, stderr, digest(files))
            verdict = self.verdicts.get(key)
            if verdict is None:
                verdict = self.verdicts[key] = check(cmd, rc, out_dir, stderr)
            if not verdict.ok:
                self.failures.append(f"{' '.join(cmd.argv[:1])} #{i}: {verdict.reason}")
                self.wrong += verdict.wrong
            if tracer is not None:
                self._count_files(files, rc)
            if i == 0 and self.wl.name == "stationary":
                sim_json = out_dir / "sim.json"
                self.slot0_sim_json = sim_json.read_bytes() if sim_json.exists() else None
        self.rounds.append((tracer is not None, spent, work))

    def _count_files(self, files: list[Path], rc) -> None:
        self.files["files"] += len(files)
        self.files["bytes"] += sum(p.stat().st_size for p in files)
        self.files["nonzero_exits"] += rc != 0
        for p in files:
            if p.name.startswith("stationary_M"):
                with open(p, "rb") as fh:
                    self.files["csv_rows"] += sum(1 for _ in fh) - 1

    def determinism_ok(self) -> bool:
        """Re-run slot 0 at --workers 1 and compare sim.json byte for byte."""
        cmd = self.wl.round[0]
        argv = list(cmd.argv)
        argv[argv.index("--workers") + 1] = "1"
        out_dir = self.out_root / "determinism"
        rc, _, _ = call(self.main, dataclasses.replace(cmd, argv=tuple(argv)), out_dir)
        path = out_dir / "sim.json"
        return rc == 0 and path.exists() and path.read_bytes() == self.slot0_sim_json

    def rate(self, traced: bool) -> float:
        picked = [(s, w) for t, s, w in self.rounds if t == traced]
        return sum(w for _, w in picked) / sum(s for s, _ in picked)


def measure(main, workload, seconds: float, out_root: Path, trace: bool):
    from tracing import Tracer

    run = Run(main, workload, out_root)
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    while True:
        traced = trace and len(run.rounds) % 2 == 1
        if traced:
            with tracer.installed():
                run.round(tracer)
        else:
            run.round()
        done = time.perf_counter() - t0 >= seconds and len(run.latencies) >= MIN_COMMANDS
        if done and (not trace or len(run.rounds) % 2 == 0):
            return run, tracer


def setup_probe(workload: str, seed: int) -> None:
    """Time one set-up in this fresh process and print it as JSON."""
    t0 = time.perf_counter()
    main = load_cli()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    out = WORK / f"probe-{os.getpid()}"
    for i, cmd in enumerate(wl.warmup):
        call(main, cmd, out / f"w{i}")
    elapsed = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def setup_seconds(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_facts(seed: int) -> dict:
    import numpy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    head = _read(str(ROOT / ".git" / "HEAD"))
    sha = _read(str(ROOT / ".git" / head[5:])) if head.startswith("ref: ") else head
    return {
        "nproc": os.cpu_count(), "cpu": model, **caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": sha or "unknown", "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("planning", "hitting", "stationary"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli_main = load_cli()
    from tracing import layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    out_root = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    for i, cmd in enumerate(wl.warmup):
        call(cli_main, cmd, out_root / f"warmup{i}")

    run, tracer = measure(cli_main, wl, args.seconds, out_root, bool(args.trace))
    deterministic = run.determinism_ok() if wl.name == "stationary" else True
    shutil.rmtree(out_root, ignore_errors=True)

    n = len(run.latencies)
    lat = sorted(run.latencies)
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {n} commands in "
          f"{len(run.rounds)} rounds of {len(wl.round)}; work unit: {wl.unit}")
    if args.trace:
        traced_rounds = sum(t for t, _, _ in run.rounds)
        metrics = layer_metrics(tracer.spans, traced_rounds, run.files)
        metrics["trace.overhead_pct"] = 100.0 * (run.rate(False) / run.rate(True) - 1.0)
        spans_path = WORK / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"per-layer values are per traced round ({traced_rounds} rounds); spans in {spans_path}")
    else:
        metrics = end_to_end(setup, run.rounds, lat)
        print(f"latency samples: {n}, beyond p90: {n - math.ceil(0.9 * n)}; "
              f"setup samples (s): {[round(s, 4) for s in setup]}")
        print(f"{wl.unit} per second by round: {[round(w / s, 2) for _, s, w in run.rounds]}")
    failed = len(run.failures)
    print(f"error_rate: {failed / n:.6f} ({failed} failed of {n}; {run.wrong} wrong answers)")
    for reason in sorted(set(run.failures))[:10]:
        print(f"  failed: {reason}")
    if not deterministic:
        print("determinism: sim.json differs between --workers 2 and --workers 1")
    print("machine: " + json.dumps(machine_facts(args.seed), sort_keys=True))

    declared = {m["name"]: m["unit"] for m in declared_metrics()}
    result = {
        "correct": run.wrong == 0 and deterministic,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def declared_metrics() -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"] + spec["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
