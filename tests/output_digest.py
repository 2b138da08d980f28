"""Seeded output digests: one sha256 per layer, to compare two source trees.

Run it from the root of each tree and compare the printed lines::

    PYTHONPATH=src python3 tests/output_digest.py

A refactor that keeps every output bit prints the same lines on both
trees.  The script needs only the standard library, is not collected by
pytest, and takes well under a minute.  Every float is hashed by
``float.hex``, so one changed bit changes its layer's digest.  Layers:

- ``trace``: ``capacity_at``, ``left_limit_at``, ``integrate``,
  ``drain_time`` and ``drain_times`` (ascending, reversed and shuffled
  queries) on random traces, and drains at the row ends of steep ramps to
  tiny rates, where ``drain_times`` clamps its discriminant and its root.
- ``fluid``: every ``FluidResult`` field, its piece columns, each
  segment's ``max_on_segment`` and end value, ``fifo_delay_at`` and
  ``sample_result``, under the three fluid controllers, on random,
  near-coincident (a few ulp apart), late-start, step, ramp and tangent
  traces; a tangent trace fills a queue that a ramp then drains to zero
  just at its end, where the solver clamps the backlog at zero.
- ``packet``: ``event_log_to_csv``, the result's scalar fields and the
  bound comparison of seeded AIMD runs, and the log of a run whose window
  the ``int(cwnd + 1e-9)`` guard rounds up to a whole packet.
- ``cli``: the exit code, stdout and stderr of ``cli.main`` run in
  process: fluid CSV and JSON series at ``--sample-ms 1`` on 1,000-4,000
  breakpoint traces under the three fluid controllers, an aimd JSON run
  with every aimd flag off its default, ``bound`` from two rates with
  ``--debug-echo``, ramp sweeps, ``scenario --emit`` with every scenario
  key, and the event log alone of an aimd ``--log-out`` run.  Traces go in
  through ``--trace -``, so no path is echoed.  The layer draws from its
  own generator, so it leaves the other layers' digests as they were.

``tests/test_output_digest.py`` compares each layer's digest with the
committed ``tests/output_digests.json``.  A refactor never re-records it; a
change of model re-records the layers it moves and says why.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from ccbound import cli
from ccbound.fluid import (
    FixedRate,
    ModelViolationError,
    OracleFinal,
    OracleTracking,
    SimConfig,
    fifo_delay_at,
    sample_result,
    simulate_fluid,
)
from ccbound.packetsim import (
    AimdParams,
    PacketSimConfig,
    compare_to_bound,
    event_log_to_csv,
    simulate_packets,
)
from ccbound.trace import Breakpoint, CapacityTrace, detect_events, make_ramp_trace, make_step_trace

SEED = 20240521
TRACE_CASES = 3000
FLUID_CASES = 6000
PACKET_CASES = 40


def feed(h, value) -> None:
    """Add ``value`` to the hash ``h``: floats by ``float.hex``, containers
    item by item, anything else by ``repr``."""
    if isinstance(value, float):
        h.update(value.hex().encode())
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            feed(h, item)
        h.update(b")")
    else:
        h.update(repr(value).encode())
    h.update(b";")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def random_trace(rng: random.Random) -> CapacityTrace:
    """1-6 breakpoints 1 ms to 10 s apart at 1 kbit/s to 1 Gbit/s, hold or
    linear, and up to 5 s past the last one."""
    n = rng.randint(1, 6)
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.uniform(1e-3, 10.0))
    modes = [rng.choice(("hold", "linear")) for _ in range(n - 1)] + ["hold"]
    bps = [Breakpoint(t, log_uniform(rng, 1e3, 1e9), m) for t, m in zip(times, modes)]
    tail = rng.uniform(0.0, 5.0)
    return CapacityTrace(tuple(bps), times[-1] + tail if times[-1] + tail > 0.0 else 1.0)


def close_trace(rng: random.Random) -> CapacityTrace:
    """A random trace with up to two breakpoints added 1-4 ulp before
    existing ones."""
    trace = random_trace(rng)
    bps = list(trace.breakpoints)
    if len(bps) > 1:
        for k in sorted(rng.sample(range(1, len(bps)), min(2, len(bps) - 1)), reverse=True):
            t = bps[k].time
            for _ in range(rng.randint(1, 4)):
                t = math.nextafter(t, 0.0)
            bps.insert(k, Breakpoint(t, log_uniform(rng, 1e3, 1e9), rng.choice(("hold", "linear"))))
    return CapacityTrace(tuple(bps), trace.horizon)


def late_trace(rng: random.Random) -> CapacityTrace:
    """Breakpoints 10 us to 10 ms apart after a quiet start at 0, 10, 100
    or 1000 s, where one ulp of time is up to 1e-13 s."""
    t0 = rng.choice((0.0, 10.0, 100.0, 1000.0))
    times = [0.0] if t0 == 0.0 else [0.0, t0]
    for _ in range(rng.randint(1, 5)):
        times.append(times[-1] + rng.uniform(1e-5, 1e-2))
    modes = [rng.choice(("hold", "linear")) for _ in times[:-1]] + ["hold"]
    bps = tuple(Breakpoint(t, rng.uniform(1e7, 1e9), m) for t, m in zip(times, modes))
    return CapacityTrace(bps, times[-1] + rng.uniform(0.0, 1e-2))


def step_or_ramp_trace(rng: random.Random) -> CapacityTrace:
    pre = log_uniform(rng, 1e6, 1e9)
    post = pre / log_uniform(rng, 1.01, 100.0)
    onset = rng.uniform(0.05, 1.0)
    ramp = rng.choice((0.0, rng.uniform(0.0, 0.5)))
    horizon = onset + ramp + rng.uniform(0.01, 2.0)
    if ramp == 0.0:
        return make_step_trace(pre, post, onset, horizon)
    return make_ramp_trace(pre, post, onset, ramp, horizon)


def tangent_case(rng: random.Random) -> tuple[CapacityTrace, float]:
    """A hold at r0 that a sender at r2 > r0 fills, then a ramp from r1 >
    r2 down to r2 whose drain equals the queue: the backlog touches zero
    at the ramp's end.  Returns the trace and the sender rate r2."""
    r0 = log_uniform(rng, 1e6, 1e8)
    r2 = r0 * rng.uniform(1.1, 10.0)
    r1 = r2 * rng.uniform(1.1, 10.0)
    ramp = rng.uniform(0.1, 2.0)
    t1 = (r1 - r2) * ramp / 2.0 / (r2 - r0)
    bps = (
        Breakpoint(0.0, r0),
        Breakpoint(t1, r1, "linear"),
        Breakpoint(t1 + ramp, r2),
        Breakpoint(t1 + ramp + 1.0, r2),
    )
    return CapacityTrace(bps, t1 + ramp + 1.0), r2


def steep_ramp_trace(rng: random.Random) -> CapacityTrace:
    """A linear fall from 10 Mbit/s-1 Gbit/s to 1e-4-1e-1 bit/s over 0.1-5
    s, then a hold of 1 s."""
    ramp = rng.uniform(0.1, 5.0)
    bps = (
        Breakpoint(0.0, log_uniform(rng, 1e7, 1e9), "linear"),
        Breakpoint(ramp, log_uniform(rng, 1e-4, 1e-1)),
    )
    return CapacityTrace(bps, ramp + 1.0)


def trace_digest(rng: random.Random) -> tuple[str, int]:
    h = hashlib.sha256()
    queries = 0
    for case in range(TRACE_CASES):
        trace = (random_trace, close_trace, late_trace, steep_ramp_trace)[case % 4](rng)
        hz = trace.horizon
        ts = [*trace.times, hz, *(rng.uniform(0.0, hz) for _ in range(8))]
        feed(h, [trace.capacity_at(t) for t in ts])
        feed(h, [trace.left_limit_at(t) for t in ts])
        pairs = [sorted((rng.uniform(0.0, hz), rng.uniform(0.0, hz))) for _ in range(6)]
        pairs += [(0.0, t) for t in trace.times] + [(t, hz) for t in trace.times]
        feed(h, [trace.integrate(a, b) for a, b in pairs])
        total = trace.integrate(0.0, hz)
        drains = [(0.0, trace.integrate(0.0, t)) for t in (*trace.times, hz)]
        drains += [(t, math.nextafter(b, math.inf)) for t, b in drains[:3]]
        for _ in range(12):
            t = rng.uniform(0.0, hz)
            drains.append((t, rng.uniform(0.0, 1.2) * (total - trace.integrate(0.0, t))))
        drains.append((rng.uniform(0.0, hz), 0.0))
        feed(h, [trace.drain_time(t, b) for t, b in drains])
        shuffled = rng.sample(drains, len(drains))
        for order in (sorted(drains), sorted(drains, reverse=True), shuffled):
            feed(h, list(trace.drain_times(order)))
        queries += 2 * len(ts) + len(pairs) + 4 * len(drains)
    return h.hexdigest(), queries


def fluid_config(rng: random.Random, case: int) -> SimConfig:
    kind = case % 6
    if kind == 5:
        trace, rate = tangent_case(rng)
        return SimConfig(trace, FixedRate(rate))
    trace = (random_trace, close_trace, late_trace, step_or_ramp_trace, step_or_ramp_trace)[kind](rng)
    hz = trace.horizon
    rate = rng.choice([bp.rate for bp in trace.breakpoints])
    delay = rng.choice((0.0, hz * 10.0 ** rng.uniform(-6.0, 0.0)))
    pick = rng.randrange(5)
    if pick == 0:
        controller = FixedRate(log_uniform(rng, 1e3, 2e9))
    elif pick == 1:
        controller = FixedRate(rate)
    elif pick == 2:
        controller = FixedRate(rate * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -9.0)))
    elif pick == 3:
        controller = OracleTracking(delay)
    else:
        controller = OracleFinal(delay)
    return SimConfig(trace, controller, rng.choice((None, hz * rng.uniform(0.5, 1.0))))


def fluid_digest(rng: random.Random) -> tuple[str, int]:
    h = hashlib.sha256()
    runs = 0
    for case in range(FLUID_CASES):
        try:
            config = fluid_config(rng, case)
        except ModelViolationError as exc:  # overlapping OracleFinal signal windows
            feed(h, str(exc))
            continue
        r = simulate_fluid(config)
        runs += 1
        feed(h, [r.peak_backlog, r.peak_time, r.peak_delay_final_norm, r.peak_fifo_delay,
                 r.fifo_beyond_horizon, r.final_norm_rate, r.bits_in, r.bits_out, r.horizon])
        feed(h, [(e.onset, e.pre_rate, e.post_rate, e.ramp_duration) for e in r.events])
        feed(h, [r._t_start, r._q0, r._q1, r._q2])
        feed(h, [(*s.max_on_segment(), s.value_at(s.t_end)) for s in r.segments])
        ts = [rng.uniform(0.0, r.horizon) for _ in range(4)] + [r.peak_time, r.horizon]
        feed(h, [(r.backlog_at(t), fifo_delay_at(r, t)) for t in ts])
        step = r.horizon / rng.randint(1, 200) * rng.uniform(0.9, 1.1)
        feed(h, [tuple(sample) for sample in sample_result(r, step)])
    return h.hexdigest(), runs


def packet_digest(rng: random.Random) -> tuple[str, int]:
    h = hashlib.sha256()
    # a window 5e-11 short of 11 packets after the first ACK, which the
    # window guard counts as 11
    short = PacketSimConfig(CapacityTrace((Breakpoint(0.0, 1e8),), 0.5),
                            aimd=AimdParams(9.9999999995, 0.5), initial_window=10, mark_threshold=1.0)
    h.update(event_log_to_csv(simulate_packets(short)).encode())
    for case in range(PACKET_CASES):
        pre = log_uniform(rng, 5e6, 3e7)
        post = pre / log_uniform(rng, 1.5, 10.0)
        onset = rng.uniform(0.2, 0.6)
        ramp = rng.choice((0.0, rng.uniform(0.01, 0.2)))
        trace = make_ramp_trace(pre, post, onset, ramp, onset + ramp + rng.uniform(0.2, 0.6))
        config = PacketSimConfig(
            trace,
            packet_size=rng.choice((12000.0, 8000.0, 4321.5)),
            forward_delay=rng.uniform(0.0, 0.01),
            x_to_b_delay=rng.uniform(0.0, 0.01),
            reverse_delay=rng.uniform(0.0, 0.01),
            aimd=AimdParams(rng.uniform(0.5, 2.0), rng.uniform(0.3, 0.9)),
            mark_threshold=rng.uniform(0.005, 0.05),
            initial_window=rng.randint(1, 20),
            seed=case,
        )
        r = simulate_packets(config)
        h.update(event_log_to_csv(r).encode())
        feed(h, [r.peak_queue_delay, r.congestion_reached, r.packets_sent, r.packets_delivered])
        try:
            cmp = compare_to_bound(r, detect_events(trace)[0], config.x_to_b_delay + config.reverse_delay)
        except ValueError as exc:
            feed(h, str(exc))
            continue
        feed(h, [cmp.bound, cmp.measured_peak, cmp.ratio, cmp.slack, cmp.violation])
    return h.hexdigest(), PACKET_CASES + 1


def walk_csv(rng: random.Random, n: int) -> str:
    """The CSV of ``n`` breakpoints 0.5-1.5 ms apart whose rate walks by
    factors of 0.8-1.25 between 1 and 100 Mbit/s, each hold or linear."""
    t, rate, lines = 0.0, log_uniform(rng, 1e6, 1e8), []
    for k in range(n):
        mode = "hold" if k == n - 1 else rng.choice(("hold", "linear"))
        lines.append(f"{t!r},{rate!r},{mode}\n")
        t += rng.uniform(5e-4, 1.5e-3)
        rate = min(1e8, max(1e6, rate * rng.uniform(0.8, 1.25)))
    return "".join(lines)


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """``cli.main(argv)`` in process with ``stdin`` as its standard input:
    its exit code, stdout and stderr."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


STEP_CSV = "0,12000000,hold\n0.3,1200000,linear\n0.35,3000000,hold\n0.8,3000000,hold\n"
AIMD_FLAGS = [
    "--controller", "aimd", "--packet-bytes", "1200", "--fwd-ms", "1.5", "--xb-ms", "6.3",
    "--rev-ms", "7.1", "--ai", "1.5", "--md", "0.7", "--mark-threshold-ms", "15.7",
    "--initial-window", "7", "--seed", "3",
]
SCENARIO_PARAMS = {
    "wifi-step": ["pre_mbps=54.3", "post_mbps=6.1", "onset_ms=15.7", "horizon_ms=62.8"],
    "wifi-mcs-walk": ["rates_mbps=866.7:144.4:14.4:1.1", "dwell_ms=15.7"],
    "ramp-contention": ["pre_mbps=54.3", "c_factor=7.7", "onset_ms=15.7", "ramp_ms=62.8",
                        "horizon_ms=100.1"],
}


def cli_digest(rng: random.Random) -> tuple[str, int]:
    h = hashlib.sha256()
    runs: list[tuple[list[str], str]] = []
    for n in (1000, 4000):
        trace = walk_csv(rng, n)
        fixed = f"fixed:{log_uniform(rng, 1.0, 100.0)!r}"
        for controller in ("oracle-final", "oracle-tracking", fixed):
            flags = ["--delay-ms", "0.3" if controller == "oracle-final" else "15.7"]
            if controller.startswith("fixed:"):
                flags += ["--horizon-ms", "777.7"]
            for fmt in ("csv", "json"):
                runs.append((["simulate", "--trace", "-", "--controller", controller, *flags,
                              "--sample-ms", "1", "--format", fmt], trace))
        runs.append((["ingest", "-", "--horizon-ms", "5000.3"], trace))
    runs.append((["simulate", "--trace", "-", *AIMD_FLAGS, "--sample-ms", "1"], STEP_CSV))
    for _ in range(4):
        pre = log_uniform(rng, 1.0, 1000.0)
        post = pre / log_uniform(rng, 1.0, 100.0)
        delay, ramp = rng.uniform(0, 100), rng.uniform(0, 200)
        for fmt in ("json", "csv"):
            runs.append((["bound", "--pre-rate", repr(pre), "--post-rate", repr(post), "--delay-ms",
                          repr(delay), "--ramp-ms", repr(ramp), "--debug-echo", "--format", fmt], ""))
    ramps = ",".join(repr(rng.uniform(0.0, 300.0)) for _ in range(40))
    for fmt in ("csv", "json"):
        runs.append((["sweep", "--c-list", "1,2,5.5,10", "--delay-ms", "15.7", "--ramp-list-ms", ramps,
                      "--self-test", "--format", fmt], ""))
    for name, params in SCENARIO_PARAMS.items():
        runs.append((["scenario", "--emit", name,
                      *(arg for p in params for arg in ("--scenario-param", p))], ""))
    for argv, stdin in runs:
        feed(h, run_cli(argv, stdin))
    # the envelope echoes the log's temporary path: only the log is hashed
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "events.csv")
        run_cli(["simulate", "--trace", "-", *AIMD_FLAGS, "--log-out", log], STEP_CSV)
        with open(log, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest(), len(runs) + 1


def digests() -> dict[str, tuple[str, int]]:
    """Each layer's digest and count of queries or runs, by name."""
    rng = random.Random(SEED)
    layers = (("trace", trace_digest, rng), ("fluid", fluid_digest, rng),
              ("packet", packet_digest, rng), ("cli", cli_digest, random.Random(SEED)))
    out = {}
    for name, layer, gen in layers:
        start = time.perf_counter()
        out[name] = layer(gen)
        print(f"  {name} took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return out


def main() -> int:
    for name, (digest, count) in digests().items():
        print(f"{name} {digest} ({count} {'queries' if name == 'trace' else 'runs'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
