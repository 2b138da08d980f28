"""Exact fluid simulation of the bottleneck queue under idealized senders.

Sender rate and capacity are both piecewise linear in time, so the backlog
is piecewise quadratic and every quantity of interest (peaks, busy/idle
transitions, served bits) is computed segment by segment in closed form.
There is no time-stepped integration anywhere in this module; queue-empty
instants are located by quadratic root-finding inside segments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple

from .trace import (
    Breakpoint,
    CapacityEvent,
    CapacityTrace,
    SegmentMode,
    check_rate,
    check_seconds,
    detect_events,
)

__all__ = [
    "ModelViolationError",
    "OracleFinal",
    "OracleTracking",
    "FixedRate",
    "ControllerSpec",
    "SimConfig",
    "BacklogSegment",
    "FluidResult",
    "FluidSample",
    "sender_rate_trace",
    "simulate_fluid",
    "fifo_delay_at",
    "sample_result",
    "result_to_json_dict",
]

# Most rows one sample_result call may build; finer steps are refused before
# anything is allocated.
MAX_SAMPLES = 1_000_000

# Sender/capacity differences below this relative level are floating-point
# dust from interpolating the same breakpoints, not a real rate mismatch.
_RATE_NOISE = 1e-12


class ModelViolationError(ValueError):
    """A configuration the model has no defined behaviour for."""


@dataclass(frozen=True)
class OracleFinal:
    """Sender that is told each reduction's final capacity the instant the
    reduction starts and applies it exactly ``signal_delay`` seconds later.

    Until the first signal lands it transmits at the initial capacity;
    afterwards it holds each event's final rate until the next signal.
    Capacity increases are never chased.
    """

    signal_delay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "signal_delay", check_seconds(self.signal_delay, "signal_delay"))


@dataclass(frozen=True)
class OracleTracking:
    """Sender whose rate always equals the capacity ``signal_delay`` seconds ago."""

    signal_delay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "signal_delay", check_seconds(self.signal_delay, "signal_delay"))


@dataclass(frozen=True)
class FixedRate:
    """Open-loop sender at a constant rate."""

    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", check_rate(self.rate, "rate"))


ControllerSpec = OracleFinal | OracleTracking | FixedRate


@dataclass(frozen=True)
class SimConfig:
    """One fluid run: a trace, a sender policy, and an optional sub-horizon."""

    trace: CapacityTrace
    controller: ControllerSpec
    horizon: float | None = None

    def __post_init__(self) -> None:
        h = self.trace.horizon if self.horizon is None else check_seconds(self.horizon, "horizon")
        if h <= 0.0:
            raise ValueError(f"horizon must be > 0, got {h!r}")
        if h > self.trace.horizon:
            raise ModelViolationError(
                f"simulation horizon {h!r} exceeds the trace horizon {self.trace.horizon!r}"
            )
        object.__setattr__(self, "horizon", h)
        if isinstance(self.controller, OracleFinal):
            d = self.controller.signal_delay
            # reductions from the horizon on never reach the sender
            events = [ev for ev in detect_events(self.trace) if ev.onset < h]
            for prev, cur in zip(events, events[1:]):
                if cur.onset < prev.onset + d:
                    raise ModelViolationError(
                        "overlapping signal windows: the reduction at "
                        f"{cur.onset!r}s starts before the signal for the one at "
                        f"{prev.onset!r}s arrives at {prev.onset + d!r}s"
                    )


def _oracle_final_trace(trace: CapacityTrace, delay: float, horizon: float) -> CapacityTrace:
    """The final rate of each of the trace's reductions, held from its onset
    plus ``delay``."""
    bps = [Breakpoint(0.0, trace.capacity_at(0.0))]
    for ev in detect_events(trace):
        t = ev.onset + delay
        if t >= horizon:
            break
        if t == bps[-1].time:
            bps[-1] = Breakpoint(t, ev.post_rate)
        else:
            bps.append(Breakpoint(t, ev.post_rate))
    return CapacityTrace(tuple(bps), horizon)


def _shifted_trace(trace: CapacityTrace, delay: float, horizon: float) -> CapacityTrace:
    """The trace delayed by ``delay`` (initial value held) and truncated."""
    bps: list[Breakpoint] = []
    if delay > 0.0:
        bps.append(Breakpoint(0.0, trace.capacity_at(0.0)))
    truncated = False
    for bp in trace.breakpoints:
        t = bp.time + delay
        if bps and t <= bps[-1].time:
            # the shift rounded a segment of a few ulp away: a hold that short
            # vanishes, but a ramp must still end on the rate it ramps toward
            if len(bps) > 1 and bps[-2].mode is SegmentMode.LINEAR:
                t = math.nextafter(bps[-1].time, math.inf)
            else:
                t = bps.pop().time
        if t > horizon:
            truncated = True
            break
        mode = bp.mode if t < horizon else SegmentMode.HOLD
        bps.append(Breakpoint(t, bp.rate, mode))
    if truncated and bps[-1].mode is SegmentMode.LINEAR:
        # a linear segment straddles the horizon: pin its value there
        bps.append(Breakpoint(horizon, trace.capacity_at(horizon - delay)))
    if bps[-1].mode is SegmentMode.LINEAR:
        bps[-1] = Breakpoint(bps[-1].time, bps[-1].rate, SegmentMode.HOLD)
    return CapacityTrace(tuple(bps), horizon)


def sender_rate_trace(config: SimConfig) -> CapacityTrace:
    """The sender's transmit rate as a piecewise-linear trace on [0, horizon]."""
    assert config.horizon is not None
    if isinstance(config.controller, FixedRate):
        return CapacityTrace((Breakpoint(0.0, config.controller.rate),), config.horizon)
    if isinstance(config.controller, OracleFinal):
        return _oracle_final_trace(config.trace, config.controller.signal_delay, config.horizon)
    return _shifted_trace(config.trace, config.controller.signal_delay, config.horizon)


@dataclass(frozen=True)
class BacklogSegment:
    """Backlog on [t_start, t_end]: b(t) = c0 + c1*dt + c2*dt^2, dt = t - t_start."""

    t_start: float
    t_end: float
    c0: float
    c1: float
    c2: float

    def value_at(self, t: float) -> float:
        dt = t - self.t_start
        v = self.c0 + (self.c1 + self.c2 * dt) * dt
        return v if v > 0.0 else 0.0

    def _interior_vertex(self) -> float | None:
        """Offset from ``t_start`` of the backlog's maximum when it lies
        strictly inside the segment, else None."""
        if self.c2 < 0.0:
            dtv = -self.c1 / (2.0 * self.c2)
            if 0.0 < dtv < self.t_end - self.t_start:
                return dtv
        return None

    def max_on_segment(self) -> tuple[float, float]:
        """(backlog, time) of the segment maximum; earliest time wins ties."""
        best_v, best_t = self.c0, self.t_start
        dtv = self._interior_vertex()
        if dtv is not None:
            vv = self.c0 + (self.c1 + self.c2 * dtv) * dtv
            if vv > best_v:
                best_v, best_t = vv, self.t_start + dtv
        end_v = self.value_at(self.t_end)
        if end_v > best_v:
            best_v, best_t = end_v, self.t_end
        return best_v, best_t


@dataclass(frozen=True)
class FluidResult:
    """Exact piecewise-quadratic backlog trajectory plus peak statistics.

    ``segments`` tile [0, horizon]: the first starts at 0, each ends where
    the next starts, and the last ends at the horizon.  Nothing is lost, so
    ``bits_in - bits_out`` equals the final backlog ``backlog_at(horizon)``
    up to rounding.  ``events`` are the trace's reductions with an onset
    before the horizon, the only ones the run simulates.

    ``peak_delay_final_norm`` is the peak backlog divided by the rate after
    the reduction that caused it (the capacity at the peak instant when no
    reduction precedes the peak), i.e. the time the final capacity would
    need to drain the peak.  ``peak_fifo_delay`` instead asks how long the
    bit arriving at the worst instant actually waits given the future
    capacity; instants whose backlog outlives the horizon cannot be
    evaluated and are skipped, with ``fifo_beyond_horizon`` set.
    """

    segments: tuple[BacklogSegment, ...]
    peak_backlog: float
    peak_time: float
    peak_delay_final_norm: float
    peak_fifo_delay: float
    fifo_beyond_horizon: bool
    final_norm_rate: float
    bits_in: float
    bits_out: float
    trace: CapacityTrace
    events: tuple[CapacityEvent, ...]
    horizon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "_starts", tuple(s.t_start for s in self.segments))

    def backlog_at(self, t: float) -> float:
        """Exact backlog in bits at ``t`` in [0, horizon]."""
        t = float(t)
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t!r} outside [0, {self.horizon!r}]")
        i = bisect_right(self._starts, t) - 1  # type: ignore[attr-defined]
        return self.segments[i].value_at(t)


def _first_zero_crossing(q0: float, q1: float, q2: float, length: float) -> float | None:
    """Smallest x in (0, length] where q0 + q1*x + q2*x^2 crosses zero from
    above (derivative negative there); None if the backlog stays positive."""
    roots: list[float] = []
    if q2 == 0.0:
        if q1 < 0.0 and q0 > 0.0:
            roots.append(-q0 / q1)
    else:
        disc = q1 * q1 - 4.0 * q2 * q0
        if disc >= 0.0:
            s = math.sqrt(disc)
            qq = -0.5 * (q1 + s) if q1 >= 0.0 else -0.5 * (q1 - s)
            roots.append(qq / q2)
            if qq != 0.0:
                roots.append(q0 / qq)
    best: float | None = None
    for x in roots:
        if 0.0 < x <= length and q1 + 2.0 * q2 * x < 0.0:
            if best is None or x < best:
                best = x
    return best


def simulate_fluid(config: SimConfig) -> FluidResult:
    """Solve b' = sender - service exactly over the configured window.

    Service equals the capacity while the queue is busy and the arrival
    rate while it is empty (nothing is ever lost: the buffer is infinite).
    Within each cell of the merged breakpoint grid the rate difference is
    linear, so the backlog is one quadratic piece per busy or idle stretch
    of a cell; a stretch that rounding shrinks to nothing lasts one ulp.
    """
    trace = config.trace
    h = config.horizon
    assert h is not None
    # reductions from the horizon on never reach the sender (SimConfig)
    events = tuple(ev for ev in detect_events(trace) if ev.onset < h)
    arrival = sender_rate_trace(config)

    cuts = {0.0, h}
    for src in (trace, arrival):
        cuts.update(t for t in src.times if 0.0 < t < h)
    grid = sorted(cuts)

    segs: list[BacklogSegment] = []
    b = 0.0
    bits_out = 0.0
    for u, v in pairwise(grid):
        width = v - u
        a0 = arrival.capacity_at(u)
        a1 = arrival.left_limit_at(v)
        c0 = trace.capacity_at(u)
        c1 = trace.left_limit_at(v)
        g = ((a1 - a0) - (c1 - c0)) / width
        noise = _RATE_NOISE * max(a0, a1, c0, c1, 1.0)
        cur = u
        while cur < v:
            f_cur = (a0 - c0) + g * (cur - u)
            if abs(f_cur) <= noise:
                f_cur = 0.0
            if b > 0.0 or f_cur > 0.0 or (f_cur == 0.0 and g > 0.0):
                # busy: the queue absorbs the arrival/capacity difference
                q0, q1, q2, served = b, f_cur, 0.5 * g, trace
                length = v - cur
                root = _first_zero_crossing(q0, q1, q2, length)
                if root is None:
                    end = v
                    b += (f_cur + 0.5 * g * length) * length
                    if b < 0.0:  # crossing missed by rounding only
                        b = 0.0
                else:
                    end = min(cur + root, v)
                    b = 0.0
            else:
                # idle: queue empty and arrival <= capacity, output = input
                end = min(cur - f_cur / g, v) if f_cur < 0.0 and g > 0.0 else v
                q0, q1, q2, served = 0.0, 0.0, 0.0, arrival
            if end <= cur:
                # the queue flips state closer to cur than one ulp: one ulp
                # in the current state carries cur past the flip, so the next
                # step sees the new state and the rest of the cell is solved
                end = math.nextafter(cur, v)
            segs.append(BacklogSegment(cur, end, q0, q1, q2))
            bits_out += served.integrate(cur, end)
            cur = end

    peak_b, peak_t = 0.0, 0.0
    for seg in segs:
        val, at = seg.max_on_segment()
        if val > peak_b:
            peak_b, peak_t = val, at

    norm_rate: float | None = None
    for ev in events:
        if ev.onset <= peak_t:
            norm_rate = ev.post_rate
    if norm_rate is None:
        norm_rate = trace.capacity_at(peak_t)

    # Candidate instants for the worst FIFO wait: segment boundaries plus
    # interior backlog maxima.  This is only a lower envelope of the true
    # peak: where later backlog cannot drain before the horizon, the worst
    # instant that still drains can lie inside a segment and is missed,
    # until each cell's wait is maximised exactly (ROADMAP, exact peak FIFO).
    peak_fifo = 0.0
    fifo_censored = False
    candidates: list[tuple[float, float]] = []
    for seg in segs:
        candidates.append((seg.t_start, seg.value_at(seg.t_start)))
        dtv = seg._interior_vertex()
        if dtv is not None:
            candidates.append((seg.t_start + dtv, seg.value_at(seg.t_start + dtv)))
    candidates.append((h, segs[-1].value_at(h)))
    for delta in trace.drain_times(candidates):  # candidates ascend in t
        if delta is None:
            fifo_censored = True
        elif delta > peak_fifo:
            peak_fifo = delta

    return FluidResult(
        segments=tuple(segs),
        peak_backlog=peak_b,
        peak_time=peak_t,
        peak_delay_final_norm=peak_b / norm_rate,
        peak_fifo_delay=peak_fifo,
        fifo_beyond_horizon=fifo_censored,
        final_norm_rate=norm_rate,
        bits_in=arrival.integrate(0.0, h),
        bits_out=bits_out,
        trace=trace,
        events=events,
        horizon=h,
    )


def fifo_delay_at(result: FluidResult, t: float) -> float | None:
    """How long the bit arriving at ``t`` waits before transmission on
    ``result.trace``.

    The horizontal deviation C^-1(C(t) + b(t)) - t of the cumulative
    capacity curve C at the backlog b(t): the smallest delta >= 0 with the
    capacity integral over [t, t + delta] covering b(t), answered by
    :meth:`CapacityTrace.drain_time` in O(log n).  None when the backlog
    cannot drain before the horizon.  :func:`sample_result` gives the same
    value for every instant of a grid in one sweep.
    """
    return result.trace.drain_time(t, result.backlog_at(t))


class FluidSample(NamedTuple):
    """One sampled point of the exact solution, fields in the CLI's column
    order; fifo_delay is NaN when the backlog at ``t`` cannot drain before
    the horizon."""

    t: float
    backlog: float
    delay_final_norm: float
    fifo_delay: float


def sample_result(result: FluidResult, step: float) -> list[FluidSample]:
    """Sample the exact solution every ``step`` seconds from 0 to horizon.

    Each sample holds ``backlog_at(t)``, that over ``final_norm_rate`` and
    ``fifo_delay_at(t)`` (NaN for None), bit for bit, from one forward
    sweep: the instants ascend, so a cursor over the backlog segments
    stands in for ``backlog_at``'s bisection, and
    :meth:`CapacityTrace.drain_times` answers the FIFO waits with
    bisections that start where the previous sample's landed and without
    the per-query checks.  Sampling is presentation only:
    peak statistics come from the segments, so a sampled maximum can only
    undershoot ``result.peak_backlog``.  A step that would yield more than
    :data:`MAX_SAMPLES` rows raises ValueError.
    """
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite value > 0 seconds, got {step!r}")
    h = result.horizon
    count = h / step + 1.0  # inf when the quotient overflows
    if not count <= MAX_SAMPLES:
        raise ValueError(
            f"sampling {h!r} s every {step!r} s takes {count:.6g} rows, "
            f"over the cap of {MAX_SAMPLES}"
        )
    ts: list[float] = []
    k = 0
    while (t := k * step) <= h:
        ts.append(t)
        k += 1
    if ts[-1] != h and t - h < step * 1e-9:  # the next grid point is the horizon
        ts.append(h)
    segs, starts = result.segments, result._starts  # type: ignore[attr-defined]
    last = len(segs) - 1
    s = 0
    backlogs: list[float] = []
    for t in ts:
        while s < last and starts[s + 1] <= t:
            s += 1
        backlogs.append(segs[s].value_at(t))
    norm = result.final_norm_rate
    delays = [b / norm for b in backlogs]
    fifos = [math.nan if f is None else f for f in result.trace.drain_times(zip(ts, backlogs))]
    return list(map(FluidSample._make, zip(ts, backlogs, delays, fifos)))


def result_to_json_dict(result: FluidResult) -> dict:
    """Peak statistics and the detected reductions in SI units.

    Each key's suffix names its unit: ``_s`` seconds, ``_bps`` bit/s,
    ``_bits`` bits.  ``peak_delay_s`` is ``peak_delay_final_norm``; the exact
    piecewise-quadratic description stays on ``result.segments``.
    """
    return {
        "peak_delay_s": result.peak_delay_final_norm,
        "peak_backlog_bits": result.peak_backlog,
        "peak_time_s": result.peak_time,
        "peak_fifo_delay_s": result.peak_fifo_delay,
        "fifo_beyond_horizon": result.fifo_beyond_horizon,
        "bits_in": result.bits_in,
        "bits_out": result.bits_out,
        "events": [
            {
                "onset_s": e.onset,
                "pre_bps": e.pre_rate,
                "post_bps": e.post_rate,
                "c_factor": e.c_factor,
                "ramp_s": e.ramp_duration,
            }
            for e in result.events
        ],
    }
