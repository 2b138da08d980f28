"""Traced run: wrap the library's public callables from outside and record spans.

Each public function of ``trace``, ``fluid``, ``packetsim``, ``bounds`` and
``cli`` is replaced, under every module name that refers to it, by a wrapper
that records a span: name, start, end, parent span and op id.  The capacity
queries are methods, so ``CapacityTrace`` itself is patched.  Self time is a
span's duration minus the time its child spans cover.

A fluid op makes up to millions of capacity queries, so those and the
argument validators are kept as aggregates (calls, total and self time, and
their time charged to the parent span) instead of one stored span each.
Everything else is stored span by span and written out at the end.
"""

from __future__ import annotations

import bisect
import inspect
import json
import math
import time
from collections import Counter

LAYERS = ("trace", "fluid", "packetsim", "bounds", "cli")
TRACE_METHODS = ("capacity_at", "left_limit_at", "integrate")
# Called per capacity query or per constructed value: aggregated, not stored.
AGGREGATED = frozenset(
    {f"trace.{m}" for m in TRACE_METHODS}
    | {"trace.check_seconds", "trace.check_rate", "trace.check_bits", "bounds.check_c_factor"}
)


def public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.spans: list = []
        self.stack = [[0, -1]]  # open spans: [child ns, span id]; a root sentinel
        self.op = -1
        self.op_trace_calls = 0  # trace-layer calls of the current op
        self.fluid_depth = 0
        self.fluid_trace_calls = 0  # trace-layer calls inside simulate_fluid
        self.integrate_segments = 0
        self.fluid_results = 0
        self.fluid_segments = 0
        self.fluid_censored = 0
        self.samples = 0
        self.packets = 0
        self.per_op: list[dict] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn):
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        stack, spans = self.stack, self.spans
        clock = time.perf_counter_ns
        in_trace = name.startswith("trace.")
        aggregated = name in AGGREGATED
        after = getattr(self, "_after_" + name.split(".")[1], None)
        is_solver = name == "fluid.simulate_fluid"
        rec = self

        def wrapper(*args, **kwargs):
            if in_trace:
                rec.op_trace_calls += 1
                if rec.fluid_depth:
                    rec.fluid_trace_calls += 1
            if is_solver:
                rec.fluid_depth += 1
            if aggregated:
                frame = [0, -1]
            else:
                frame = [0, len(spans)]
                spans.append(None)
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_solver:
                    rec.fluid_depth -= 1
                dur = end - start
                parent[0] += dur
                calls[name] += 1
                total_ns[name] += dur
                self_ns[name] += dur - frame[0]
                if not aggregated:
                    spans[frame[1]] = (name, start, end, parent[1], rec.op, dur - frame[0])
            if after is not None:
                after(result, args, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_integrate(self, result, args, dur):
        trace, t0, t1 = args[0], float(args[1]), float(args[2])
        if t1 > t0:
            times = trace.times
            first = bisect.bisect_right(times, t0) - 1
            last = bisect.bisect_left(times, t1) - 1
            self.integrate_segments += last - first + 1

    def _after_simulate_fluid(self, result, args, dur):
        self.fluid_results += 1
        self.fluid_segments += len(result.segments)
        self.fluid_censored += bool(result.fifo_beyond_horizon)
        self.per_op[-1]["solve_ns"] += dur

    def _after_sample_result(self, result, args, dur):
        self.samples += len(result)

    def _after_simulate_packets(self, result, args, dur):
        self.packets += result.packets_sent

    # -- patching -------------------------------------------------------

    def install(self, mods: dict) -> None:
        """Patch every public callable under each name that looks it up."""
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in public_functions(mods[layer]):
                wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        owners = [mods[layer] for layer in LAYERS]
        owners.append(__import__("ccbound"))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(owner, attr, wrappers[value])
        cls = mods["trace"].CapacityTrace
        for method in TRACE_METHODS:
            self._set(cls, method, self._wrap(f"trace.{method}", getattr(cls, method)))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- ops ------------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op.index
        self.op_trace_calls = 0
        self.per_op.append({"op": op.index, "n": op.n, "solve_ns": 0})

    def end_op(self) -> None:
        self.per_op[-1]["trace_calls"] = self.op_trace_calls
        self.op = -1

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                name, start, end, parent, op, self_ns = span
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "self_ns": self_ns}) + "\n")
            for name in sorted(AGGREGATED & set(self.calls)):
                fh.write(json.dumps({"aggregate": name, "calls": self.calls[name],
                                     "total_ns": self.total_ns[name],
                                     "self_ns": self.self_ns[name]}) + "\n")


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0 when x does not vary."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(rec: Recorder, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, and a note for each ratio that
    has no base on this workload."""
    s = 1e-9
    calls, self_ns = rec.calls, rec.self_ns

    def layer_sum(counter, layer):
        return sum(v for k, v in counter.items() if k.startswith(layer + "."))

    notes = {}
    fluid_ops = [p for p in rec.per_op if p["solve_ns"] > 0]
    if rec.fluid_segments:
        per_segment = rec.fluid_trace_calls / rec.fluid_segments
    else:
        per_segment = 0.0
        notes["trace.calls_per_fluid_segment"] = "no fluid solve on this workload"
    if fluid_ops:
        calls_exp = loglog_slope((p["n"], p["trace_calls"]) for p in fluid_ops)
        solve_exp = loglog_slope((p["n"], p["solve_ns"]) for p in fluid_ops)
    else:
        calls_exp = solve_exp = 0.0
        notes["trace.calls.exponent"] = notes["fluid.solve_s.exponent"] = (
            "ops do not vary the breakpoint count on this workload")
    metrics = {
        "trace.capacity_at.calls": calls["trace.capacity_at"],
        "trace.left_limit_at.calls": calls["trace.left_limit_at"],
        "trace.integrate.calls": calls["trace.integrate"],
        "trace.integrate.segments": rec.integrate_segments,
        "trace.calls_per_fluid_segment": per_segment,
        "trace.calls.exponent": calls_exp,
        "trace.self_s": layer_sum(self_ns, "trace") * s,
        "trace.trace_from_csv.self_s": self_ns["trace.trace_from_csv"] * s,
        "trace.detect_events.calls": calls["trace.detect_events"],
        "fluid.simulate_fluid.self_s": self_ns["fluid.simulate_fluid"] * s,
        "fluid.sample_result.self_s": self_ns["fluid.sample_result"] * s,
        "fluid.solve_s.exponent": solve_exp,
        "fluid.segments": rec.fluid_segments,
        "fluid.samples": rec.samples,
        "fluid.censored_share": rec.fluid_censored / rec.fluid_results if rec.fluid_results else 0.0,
        "packetsim.simulate_packets.self_s": self_ns["packetsim.simulate_packets"] * s,
        "packetsim.packets": rec.packets,
        "packetsim.us_per_packet": (
            rec.total_ns["packetsim.simulate_packets"] * 1e-3 / rec.packets if rec.packets else 0.0),
        "packetsim.compare_to_bound.self_s": self_ns["packetsim.compare_to_bound"] * s,
        "bounds.calls": layer_sum(calls, "bounds"),
        "cli.main.self_s": self_ns["cli.main"] * s,
        "traced_over_untraced": traced_s / untraced_s,
    }
    return metrics, notes
