"""Benchmark of ccbound: end-to-end op metrics per workload, or a traced run.

    python3 bench/run.py --workload fluid-backlog --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the repository root is the parent of this file's
directory.  Each op runs closed loop, one at a time, from this process (for
``cli-tracking``, one child process at a time).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Times are reported at reference speed (see
reference.py).  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = False  # set-up times an import from a warm bytecode cache

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import KNOWN_DEFECT_CHECKS, WORKLOADS, child_env  # noqa: E402

BENCH_VERSION = "2"
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
MIN_RUNS = 3  # timed runs of each op, however long they take
STARTUP_REPEATS = 5


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "bench_version": BENCH_VERSION,
    }


def tail_percentile(ops: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``ops`` beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / ops))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tally:
    """Ops attempted and failed, with a count for each failed check.

    An op is one input of the run's fixed list.  It may run many times, and
    every run is checked; the op has failed if any of its runs failed.  So
    ``attempted`` and ``failed`` depend on the seed alone, not on how many
    runs fit into the timed phase.
    """

    def __init__(self, ops: int):
        self.attempted = ops
        self.runs = 0
        self.bad: list[set[str]] = [set() for _ in range(ops)]
        self.reported = set()

    def record(self, workload, op, run) -> float:
        """Run one op, check its output, and return its wall time in seconds."""
        self.runs += 1
        start = time.perf_counter()
        try:
            out = run(op)
        except Exception:  # an op that raises is a failed op, not a failed run
            elapsed = time.perf_counter() - start
            bad = ["raised"]
            self._report("raised", traceback.format_exc())
        else:
            elapsed = time.perf_counter() - start
            try:
                bad = workload.check(op, out)
            except Exception:  # unparseable output fails its checks
                bad = ["malformed_output"]
                self._report("malformed_output", traceback.format_exc())
            del out
        self.bad[op.index].update(bad)
        return elapsed

    def _report(self, kind, text):
        if kind not in self.reported:
            self.reported.add(kind)
            print(f"first {kind} op:\n{text}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(1 for bad in self.bad if bad)

    @property
    def checks(self) -> Counter:
        """Failed ops per check."""
        return Counter(name for bad in self.bad for name in bad)

    @property
    def correct(self) -> bool:
        return not (set(self.checks) - KNOWN_DEFECT_CHECKS)

    def describe(self) -> str:
        rate = self.failed / self.attempted
        counts = " ".join(f"{name}={count}" for name, count in sorted(self.checks.items()))
        return (f"error_rate {rate:.6f} ({self.failed}/{self.attempted} ops failed "
                f"over {self.runs} checked runs; failed checks: {counts or 'none'})")


def set_up(workload, seed: int) -> tuple[float, float]:
    """Set up SETUP_REPEATS times; the last set-up is kept.

    Returns the median set-up time at reference speed (see reference.py),
    and the median raw wall time.  The repeats alternate between the CPUs
    this process may use, as the timed phase does.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times, walls = [], []
    try:
        for i in range(SETUP_REPEATS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            before = reference.run()
            start = time.perf_counter()
            workload.setup(seed)
            walls.append(time.perf_counter() - start)
            times.append(reference.scaled(walls[-1], before, reference.run()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times), statistics.median(walls)


def op_figures(op_s: list[float], runs_per_op: int) -> tuple[float, float, float, int]:
    """ops_per_s, op_ms.p50, op_ms.tail and the tail's percentile.

    ``op_s`` holds one time per op, in seconds.  Every op counts as
    ``runs_per_op`` runs, whatever number fitted into the run, so the tail
    is the same order statistic on every run.
    """
    op_ms = sorted(t * 1e3 for t in op_s for _ in range(runs_per_op))
    tail_p = tail_percentile(len(op_ms))
    return len(op_s) / sum(op_s), statistics.median(op_ms), percentile(op_ms, tail_p), tail_p


def measure(workload, seed: int, seconds: float) -> dict:
    setup_s, setup_wall = set_up(workload, seed)
    ops = workload.ops
    tally = Tally(len(ops))
    # The inputs stay alive all run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    samples = []  # (op index, op wall seconds, kernel seconds right before it)
    fastest = [math.inf] * len(ops)  # each op's fastest raw wall time
    cpus = sorted(os.sched_getaffinity(0))
    runs = 0
    start = time.perf_counter()
    try:
        # Round robin, one op at a time, so each op's repeats spread over the
        # run.  Each pass moves every op to the next CPU this process may use
        # (a child inherits it), and the reference kernel runs on that CPU
        # right before the op.
        while runs < MIN_RUNS * len(ops) or time.perf_counter() - start < seconds:
            passes, i = divmod(runs, len(ops))
            os.sched_setaffinity(0, {cpus[(passes + i) % len(cpus)]})
            before = reference.run()
            wall = tally.record(workload, ops[i], workload.run)
            samples.append((i, wall, before))
            fastest[i] = min(fastest[i], wall)
            runs += 1
        elapsed = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)

    if workload.name == "cli-tracking":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # An op's time is the interquartile mean of its runs at reference speed:
    # the machine's slow phases cancel out in each run, and the runs that a
    # burst of contention hit, or that a burst in the kernel's runs flattered,
    # are left out.
    reference_s = [ref for _, _, ref in samples]
    scaled: list[list[float]] = [[] for _ in ops]
    for (i, wall, _), local in zip(samples, reference.local_times(reference_s)):
        scaled[i].append(wall / local * reference.REFERENCE_S)
    ops_per_s, p50, tail, tail_p = op_figures(
        [reference.middle_mean(times) for times in scaled], workload.runs_per_op)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.tail": (tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"workload {workload.name}: {runs} timed runs of {len(ops)} ops "
          f"({runs / len(ops):.1f} passes) in {elapsed:.3f} s wall")
    speed = reference.REFERENCE_S / statistics.median(reference_s)
    print(f"reference kernel: median {statistics.median(reference_s) * 1e3:.3f} ms a run, "
          f"{reference.REFERENCE_S * 1e3:g} ms at reference speed: machine at {speed:.3f}x; "
          f"times below are at reference speed")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_ms.p50":
            extra = f" (ops={len(ops)}, runs={runs})"
        elif name == "op_ms.tail":
            extra = f" (p{tail_p} of {len(ops)} ops x {workload.runs_per_op}, runs={runs})"
        elif name == "setup_s":
            extra = f" (median of {SETUP_REPEATS})"
        print(f"{name} {value:.6g} {unit}{extra}")
    raw_ops_per_s, raw_p50, raw_tail, _ = op_figures(fastest, workload.runs_per_op)
    print(f"raw wall, fastest run of each op: ops_per_s {raw_ops_per_s:.6g} 1/s, "
          f"op_ms.p50 {raw_p50:.6g} ms, op_ms.tail {raw_tail:.6g} ms; "
          f"setup_s {setup_wall:.6g} s (median)")
    print(tally.describe())
    return result_line(tally, metrics)


def cli_startup_s() -> float:
    """Median of ``python -c 'import ccbound.cli'`` minus ``python -c pass``."""
    env = child_env(ROOT)
    diffs = []
    for _ in range(STARTUP_REPEATS):
        walls = []
        for code in ("import ccbound.cli", "pass"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-s", "-c", code], env=env, check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            walls.append(time.perf_counter() - start)
        diffs.append(walls[0] - walls[1])
    return statistics.median(diffs)


def traced(workload, seed: int) -> dict:
    """One untraced and one traced pass over the same ops, both checked."""
    workload.setup(seed)
    tally = Tally(len(workload.ops))
    start = time.perf_counter()
    for op in workload.ops:
        tally.record(workload, op, workload.run_traced)
    untraced_s = time.perf_counter() - start

    rec = tracing.Recorder()
    rec.install(workload.mods)
    out_bytes = 0
    try:
        start = time.perf_counter()
        for op in workload.ops:
            rec.begin_op(op)
            tally.record(workload, op, workload.run_traced)
            rec.end_op()
            if "out" in op.args:
                out_bytes += op.args["out"].stat().st_size
        traced_s = time.perf_counter() - start
    finally:
        rec.uninstall()

    missing = [name for name in workload.required_calls if not rec.calls[name]]
    if missing:
        raise SystemExit(f"traced run: wrappers recorded no calls: {', '.join(missing)}")
    metrics, notes = tracing.layer_metrics(rec, traced_s, untraced_s)
    is_cli = workload.name == "cli-tracking"
    metrics["cli.startup_s"] = cli_startup_s() if is_cli else 0.0
    metrics["cli.out_bytes"] = out_bytes

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    rec.write_spans(spans_path, {"workload": workload.name, **provenance(seed)})
    print(f"workload {workload.name}: traced pass of {len(workload.ops)} ops, "
          f"spans in {spans_path.relative_to(ROOT)}")
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    named = {}
    for name, unit in units.items():
        named[name] = (metrics[name], unit)
        if name in notes:
            note = f" (absent: {notes[name]})"
        elif metrics[name] == 0:
            note = " (absent: not exercised on this workload)"
        else:
            note = ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    print(tally.describe())
    return result_line(tally, named)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in a fresh process of its own, so each owns its memory peak."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help=f"timed wall time; every op runs at least {MIN_RUNS} times")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ccbound" / "__init__.py").is_file():
        print(f"error: no ccbound source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # On SIGTERM, unwind through the finally blocks: they stop the child in
    # flight and remove the temporary files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)

    print("provenance " + json.dumps(provenance(args.seed)))
    workload = WORKLOADS[args.workload](ROOT)
    try:
        result = traced(workload, args.seed) if args.trace else measure(
            workload, args.seed, args.seconds)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
