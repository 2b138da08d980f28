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
from dataclasses import dataclass, field
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

# A sender/capacity difference f within this share of the cell's top rate
# is taken as zero.  At a cell start f subtracts rates interpolated from
# breakpoints, a few ulp off (at most 1.9e-16 of the top rate over 5,000
# solver_cases draws); at a flip inside a cell it is recomputed there, off
# by the slope times the flip's rounding (up to 9.6e-13).  The snap is
# relative only, with no absolute floor, so scaling every rate by a power
# of two scales every output bit for bit.
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
            break
        mode = bp.mode if t < horizon else SegmentMode.HOLD
        bps.append(Breakpoint(t, bp.rate, mode))
    if bps[-1].mode is SegmentMode.LINEAR:
        # only a cut leaves a ramp last: it straddles the horizon, so pin its value there
        bps.append(Breakpoint(horizon, trace.capacity_at(horizon - delay)))
    return CapacityTrace(tuple(bps), horizon)


def sender_rate_trace(config: SimConfig) -> CapacityTrace:
    """The sender's transmit rate as a piecewise-linear trace on [0, horizon]."""
    assert config.horizon is not None
    if isinstance(config.controller, FixedRate):
        return CapacityTrace((Breakpoint(0.0, config.controller.rate),), config.horizon)
    if isinstance(config.controller, OracleFinal):
        return _oracle_final_trace(config.trace, config.controller.signal_delay, config.horizon)
    return _shifted_trace(config.trace, config.controller.signal_delay, config.horizon)


def _piece_value(t0: float, q0: float, q1: float, q2: float, t: float) -> float:
    """Backlog at ``t`` of the piece q0 + q1*dt + q2*dt^2, dt = t - t0,
    clamped at zero: where a piece comes back to zero at ``t`` with no
    crossing before it (tangent to zero at a cell end), q0 and the rounded
    (q1 + q2*dt)*dt cancel to an ulp or so of q0 below zero."""
    dt = t - t0
    v = q0 + (q1 + q2 * dt) * dt
    return v if v > 0.0 else 0.0


def _piece_max(t0: float, t1: float, q0: float, q1: float, q2: float) -> tuple[float, float, float | None]:
    """(backlog, time, vertex offset) of the piece's maximum on [t0, t1] over
    its start, its end and, for a concave piece, a vertex strictly inside,
    whose offset from t0 comes back too (else None); the earliest wins ties."""
    best_v, best_t = q0, t0
    dtv = -q1 / (2.0 * q2) if q2 < 0.0 else 0.0
    if 0.0 < dtv < t1 - t0:
        vv = q0 + (q1 + q2 * dtv) * dtv
        if vv > best_v:
            best_v, best_t = vv, t0 + dtv
    else:
        dtv = None
    end_v = _piece_value(t0, q0, q1, q2, t1)
    if end_v > best_v:
        best_v, best_t = end_v, t1
    return best_v, best_t, dtv


@dataclass(frozen=True)
class BacklogSegment:
    """Backlog on [t_start, t_end]: b(t) = c0 + c1*dt + c2*dt^2, dt = t - t_start."""

    t_start: float
    t_end: float
    c0: float
    c1: float
    c2: float

    def value_at(self, t: float) -> float:
        return _piece_value(self.t_start, self.c0, self.c1, self.c2, t)

    def max_on_segment(self) -> tuple[float, float]:
        """(backlog, time) of the segment maximum; earliest time wins ties."""
        return _piece_max(self.t_start, self.t_end, self.c0, self.c1, self.c2)[:2]


@dataclass(frozen=True)
class FluidResult:
    """Exact piecewise-quadratic backlog trajectory plus peak statistics.

    ``segments`` tile [0, horizon]: the first starts at 0, each ends where
    the next starts, and the last ends at the horizon.  Nothing is lost, so
    ``bits_in - bits_out`` equals the final backlog ``backlog_at(horizon)``
    up to rounding.  The pieces are stored as four float columns, start and
    coefficients, and ``segments`` builds a tuple of :class:`BacklogSegment`
    from them on each read, so a caller that walks it twice binds it once.
    ``events`` are the trace's reductions with an onset before the
    horizon, the only ones the run simulates.

    ``peak_delay_final_norm`` is the peak backlog divided by the rate after
    the reduction that caused it (the capacity at the peak instant when no
    reduction precedes the peak), i.e. the time the final capacity would
    need to drain the peak.  ``peak_fifo_delay`` instead asks how long the
    bit arriving at the worst instant actually waits given the future
    capacity; instants whose backlog outlives the horizon cannot be
    evaluated and are skipped, with ``fifo_beyond_horizon`` set.
    """

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
    # The pieces in time order; a piece's t_end is the next one's t_start.
    _t_start: tuple[float, ...] = field(repr=False)
    _q0: tuple[float, ...] = field(repr=False)
    _q1: tuple[float, ...] = field(repr=False)
    _q2: tuple[float, ...] = field(repr=False)

    @property
    def segments(self) -> tuple[BacklogSegment, ...]:
        """The backlog pieces in time order, built from the columns on each read."""
        starts = self._t_start
        return tuple(map(BacklogSegment, starts, (*starts[1:], self.horizon), self._q0, self._q1, self._q2))

    def backlog_at(self, t: float) -> float:
        """Exact backlog in bits at ``t`` in [0, horizon]."""
        t = float(t)
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t!r} outside [0, {self.horizon!r}]")
        i = bisect_right(self._t_start, t) - 1
        return _piece_value(self._t_start[i], self._q0[i], self._q1[i], self._q2[i], t)


def _first_zero_crossing(q0: float, q1: float, q2: float, length: float) -> float | None:
    """Smallest x in (0, length] where q0 + q1*x + q2*x^2 crosses zero from
    above (derivative negative there); None if the backlog stays positive."""
    if q2 == 0.0:
        x = -q0 / q1 if q1 < 0.0 and q0 > 0.0 else 0.0
        return x if 0.0 < x <= length else None
    disc = q1 * q1 - 4.0 * q2 * q0
    if not disc >= 0.0:
        return None
    s = math.sqrt(disc)
    qq = -0.5 * (q1 + s) if q1 >= 0.0 else -0.5 * (q1 - s)
    best: float | None = None
    x = qq / q2
    if 0.0 < x <= length and q1 + 2.0 * q2 * x < 0.0:
        best = x
    if qq != 0.0:
        x = q0 / qq
        if 0.0 < x <= length and q1 + 2.0 * q2 * x < 0.0 and (best is None or x < best):
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

    starts, q0s, q1s, q2s = [], [], [], []
    # Candidate instants for the worst FIFO wait: piece starts plus
    # interior backlog maxima, and the horizon.  This is only a lower
    # envelope of the true peak: where later backlog cannot drain before
    # the horizon, the worst instant that still drains can lie inside a
    # piece and is missed, until each cell's wait is maximised exactly
    # (ROADMAP, exact peak FIFO).
    candidates: list[tuple[float, float]] = []
    peak_b, peak_t = 0.0, 0.0
    b = 0.0
    bits_out = 0.0
    for u, v in pairwise(grid):
        width = v - u
        a0 = arrival.capacity_at(u)
        a1 = arrival.left_limit_at(v)
        c0 = trace.capacity_at(u)
        c1 = trace.left_limit_at(v)
        g = ((a1 - a0) - (c1 - c0)) / width
        noise = _RATE_NOISE * max(a0, a1, c0, c1)
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
                    b = _piece_value(cur, q0, q1, q2, v)
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
            starts.append(cur)
            q0s.append(q0)
            q1s.append(q1)
            q2s.append(q2)
            val, at, dtv = _piece_max(cur, end, q0, q1, q2)
            if val > peak_b:  # the earliest maximum wins ties
                peak_b, peak_t = val, at
            candidates.append((cur, q0))
            if dtv is not None:
                candidates.append((cur + dtv, _piece_value(cur, q0, q1, q2, cur + dtv)))
            bits_out += served.integrate(cur, end)
            cur = end

    norm_rate: float | None = None
    for ev in events:
        if ev.onset <= peak_t:
            norm_rate = ev.post_rate
    if norm_rate is None:
        norm_rate = trace.capacity_at(peak_t)

    peak_fifo = 0.0
    fifo_censored = False
    candidates.append((h, _piece_value(starts[-1], q0, q1, q2, h)))
    for delta in trace.drain_times(candidates):  # candidates ascend in t
        if delta is None:
            fifo_censored = True
        elif delta > peak_fifo:
            peak_fifo = delta

    return FluidResult(
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
        _t_start=tuple(starts),
        _q0=tuple(q0s),
        _q1=tuple(q1s),
        _q2=tuple(q2s),
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
    sweep: the instants ascend, so a cursor over the result's piece
    columns stands in for ``backlog_at``'s bisection (it moves to the last
    piece starting at or before each instant and reads that piece's
    coefficients, with no :class:`BacklogSegment` built), and
    :meth:`CapacityTrace.drain_times` answers the FIFO waits without the
    per-query checks, bisecting only when a sample leaves the previous
    sample's trace row or drain row.  Sampling is presentation only:
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
    starts, q0s, q1s, q2s = result._t_start, result._q0, result._q1, result._q2
    last = len(starts) - 1
    s = 0
    backlogs: list[float] = []
    for t in ts:
        while s < last and starts[s + 1] <= t:
            s += 1
        backlogs.append(_piece_value(starts[s], q0s[s], q1s[s], q2s[s], t))
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
