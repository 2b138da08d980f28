"""Piecewise-linear bottleneck capacity traces and reduction-event detection.

Everything here works in SI base units: seconds and bits per second.
Milliseconds and Mbit/s exist only at the command-line boundary.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate

__all__ = [
    "SegmentMode",
    "Breakpoint",
    "CapacityTrace",
    "CapacityEvent",
    "TraceParseError",
    "check_seconds",
    "check_rate",
    "make_step_trace",
    "make_ramp_trace",
    "detect_events",
    "trace_from_csv",
    "trace_to_csv",
]


def check_seconds(value: float, name: str = "time") -> float:
    """Validate an instant or duration: finite and >= 0 seconds."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0 seconds, got {value!r}")
    return value


def check_rate(value: float, name: str = "rate") -> float:
    """Validate a link or sender rate: finite and strictly positive bit/s.

    Zero is rejected everywhere: a reduction factor is a ratio of rates and
    is undefined for a link that is actually down.
    """
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and > 0 bit/s, got {value!r}")
    return value


class SegmentMode(enum.Enum):
    """How capacity evolves between a breakpoint and the next one."""

    HOLD = "hold"
    LINEAR = "linear"


@dataclass(frozen=True, slots=True, init=False)
class Breakpoint:
    """One (time, rate) anchor plus the behaviour of the segment it opens.

    ``time`` and ``rate`` are anything ``float()`` takes, ``mode`` is a
    :class:`SegmentMode` or its exact value string.  The fields are checked
    in order, the first bad one raising, and ``__init__`` sets each once: a
    subclass hooks ``__init__``, as no ``__post_init__`` runs.
    """

    time: float
    rate: float
    mode: SegmentMode = SegmentMode.HOLD

    def __init__(self, time: float, rate: float, mode: SegmentMode | str = SegmentMode.HOLD) -> None:
        # only a value out of range calls the check, which then raises
        time = float(time)
        _set_time(self, time if 0.0 <= time < math.inf else check_seconds(time, "breakpoint time"))
        rate = float(rate)
        _set_rate(self, rate if 0.0 < rate < math.inf else check_rate(rate, "breakpoint rate"))
        if mode.__class__ is not SegmentMode:
            try:
                mode = _MODES[mode]
            except (KeyError, TypeError):
                raise ValueError(f"unknown segment mode {mode!r} (expected 'hold' or 'linear')") from None
        _set_mode(self, mode)


_MODES = {m.value: m for m in SegmentMode}
# the slots' own setters, which the frozen class's __setattr__ does not guard
_set_time, _set_rate, _set_mode = (Breakpoint.__dict__[f].__set__ for f in ("time", "rate", "mode"))


@dataclass(frozen=True)
class CapacityTrace:
    """Bottleneck capacity as a total piecewise-linear function on [0, horizon].

    A ``hold`` segment keeps its left breakpoint's rate until the next
    breakpoint and the trace is right-continuous at the jump; a ``linear``
    segment interpolates to the next breakpoint's rate.  The segment after
    the last breakpoint always holds, so the last breakpoint's mode must be
    ``hold``.
    """

    breakpoints: tuple[Breakpoint, ...]
    horizon: float

    def __post_init__(self) -> None:
        bps = tuple(self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ValueError("a trace needs at least one breakpoint")
        if bps[0].time != 0.0:
            raise ValueError(f"first breakpoint must be at time 0, got {bps[0].time!r}")
        for prev, cur in zip(bps, bps[1:]):
            if cur.time <= prev.time:
                raise ValueError(
                    "breakpoint times must be strictly increasing "
                    f"({cur.time!r} follows {prev.time!r})"
                )
        if bps[-1].mode is not SegmentMode.HOLD:
            raise ValueError("last breakpoint must use mode 'hold' (nothing to interpolate toward)")
        horizon = check_seconds(self.horizon, "horizon")
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0 seconds, got {horizon!r}")
        if horizon < bps[-1].time:
            raise ValueError(
                f"horizon {horizon!r} lies before the last breakpoint at {bps[-1].time!r}"
            )
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "_times", tuple(bp.time for bp in bps))
        # One row per segment, (start, end, rate at start, slope, rate
        # approached at the end), read by every query; a segment ends at
        # the next breakpoint, the last one at the horizon.
        rows = [
            (a.time, b.time, a.rate, (b.rate - a.rate) / (b.time - a.time), b.rate)
            if a.mode is SegmentMode.LINEAR
            else (a.time, b.time, a.rate, 0.0, a.rate)
            for a, b in zip(bps, bps[1:])
        ]
        rows.append((bps[-1].time, horizon, bps[-1].rate, 0.0, bps[-1].rate))
        object.__setattr__(self, "_rows", tuple(rows))
        # _cum[i] = C(times[i]), the bits served at full utilisation from 0 to
        # breakpoint i, each row's _area inlined; the last entry is C(horizon).
        cum = accumulate(((e - s) * (r + 0.5 * k * (e - s)) for s, e, r, k, _ in rows), initial=0.0)
        object.__setattr__(self, "_cum", tuple(cum))
        # detect_events fills this in on first use; a slot made here keeps
        # attribute reads on the trace as fast as before it is filled
        object.__setattr__(self, "_events", None)

    @property
    def times(self) -> tuple[float, ...]:
        """Breakpoint times, ascending."""
        return self._times  # type: ignore[attr-defined]

    def capacity_at(self, t: float) -> float:
        """Exact capacity at ``t`` in [0, horizon]; right-continuous at holds."""
        t = float(t)
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t!r} outside trace domain [0, {self.horizon!r}]")
        # the bisection is inlined, so the query still makes one nested call
        return _rate_in(self._rows[bisect_right(self._times, t) - 1], t)  # type: ignore[attr-defined]

    def left_limit_at(self, t: float) -> float:
        """Capacity approaching ``t`` from below.

        Differs from :meth:`capacity_at` only at the jump instant that ends
        a hold segment.
        """
        t = float(t)
        if 0.0 < t <= self.horizon:
            i = bisect_right(self._times, t) - 1  # type: ignore[attr-defined]
            if self._times[i] == t:  # type: ignore[attr-defined]
                return self._rows[i - 1][4]  # type: ignore[attr-defined]
            # off a breakpoint, the value capacity_at would find in row i
            return _rate_in(self._rows[i], t)  # type: ignore[attr-defined]
        return self.capacity_at(t)

    def integrate(self, t0: float, t1: float) -> float:
        """Exact bits through the link at full utilisation over [t0, t1].

        C(t1) - C(t0) of the cumulative capacity C, read from the prefix
        table in O(log n).  The partial segments at both ends are added to
        the whole segments between them rather than subtracted from prefix
        values, so a short interval keeps its full relative precision.
        """
        t0 = float(t0)
        t1 = float(t1)
        if not (0.0 <= t0 <= t1 <= self.horizon):
            raise ValueError(
                f"integration interval [{t0!r}, {t1!r}] invalid for domain [0, {self.horizon!r}]"
            )
        times, rows, cum = self._times, self._rows, self._cum  # type: ignore[attr-defined]
        i, j = bisect_right(times, t0) - 1, bisect_right(times, t1) - 1
        first = rows[i]
        if i == j:
            return _area(first, t0, t1)
        last = rows[j]
        return _area(first, t0, first[1]) + (cum[j] - cum[i + 1]) + _area(last, last[0], t1)

    def drain_time(self, t: float, bits: float) -> float | None:
        """Smallest delta >= 0 with ``integrate(t, t + delta) >= bits``: the
        horizontal deviation C^-1(C(t) + bits) - t, or None when
        C(horizon) - C(t) < bits.  The query is checked, then answered as
        the one-query case of :meth:`drain_times`: at most two bisections
        and one stable quadratic root, O(log n).
        """
        t = float(t)
        bits = float(bits)
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t!r} outside trace domain [0, {self.horizon!r}]")
        if math.isnan(bits):
            raise ValueError("bits must be a number, got nan")
        return next(self.drain_times(((t, bits),)))

    def drain_times(self, queries: Iterable[tuple[float, float]]) -> Iterator[float | None]:
        """The drain time of each ``(t, bits)`` query in turn, from one
        forward sweep; :meth:`drain_time` is the one-query case.

        The sweep keeps the row of t's segment and the row of the drain
        segment between queries.  A query whose ``t`` lies in the previous
        query's segment, or whose drain instant C^-1(C(t) + bits) lies in
        the previous drain segment, makes no bisection for that row; a
        1 ms grid over 10 ms rows makes one for about every fifth sample.
        Any other row is bisected afresh, so every query lands on the row
        an unseeded bisection finds, whatever the order of the queries.
        Queries are not validated: ``t`` lies in [0, horizon] and ``bits``
        is a number.
        """
        times, cum, rows = self._times, self._cum, self._rows  # type: ignore[attr-defined]
        n, total, sqrt = len(times), cum[-1], math.sqrt
        i = j = 0
        start, end, rate, slope, _ = own = drain = rows[0]
        low, high = cum[0], cum[1]  # cum[j] and cum[j + 1]
        for t, bits in queries:
            if bits <= 0.0:
                yield 0.0
                continue
            if not start <= t < end:
                i = bisect_right(times, t) - 1
                own = rows[i]
                start, end, rate, slope, _ = own
            # _area(own, t, end), its operations in order: the same bits
            head = (end - t) * (rate + 0.5 * slope * ((t - start) + (end - start)))
            if bits <= head:
                row, at, rest = own, t, bits
            else:
                # C(t) + bits, counted from the end of t's own segment
                target = cum[i + 1] + (bits - head)
                if target > total:
                    yield None
                    continue
                # the last breakpoint at or before the drain instant; a drain
                # row at or before t's has high <= cum[i + 1] <= target, and a
                # run of equal cum entries fails the strict test: both bisect
                if not low <= target < high:
                    j = bisect_right(cum, target, i + 1, n) - 1
                    drain, low, high = rows[j], cum[j], cum[j + 1]
                row, at, rest = drain, drain[0], target - low
            # the instant the segment of row has served rest bits counted from
            # at: one stable quadratic root.  disc, the rate there squared, is
            # a difference of two terms each rounded to half an ulp of v0**2:
            # on a fall to a tiny rate it can come out negative (-16 where
            # v0**2 is 9e16), and the root can pass the row's end; both are clamped
            seg_start, seg_end, v0, k, _ = row
            v0 += k * (at - seg_start)
            disc = v0 * v0 + 2.0 * k * rest
            done = at + 2.0 * rest / (v0 + sqrt(disc if disc > 0.0 else 0.0))
            yield (seg_end if seg_end < done else done) - t


def _rate_in(row: tuple[float, ...], t: float) -> float:
    """Capacity at ``t`` inside the segment of ``row``, which starts at or
    before ``t``: its start rate, or the interpolation toward its end rate."""
    start, end, rate, _, end_rate = row
    if end_rate == rate:
        return rate
    return rate + (t - start) / (end - start) * (end_rate - rate)


def _area(row: tuple[float, ...], a: float, b: float) -> float:
    """Bits served over [a, b] inside the segment of ``row``: a rectangle
    or a trapezoid."""
    start, _, rate, slope, _ = row
    return (b - a) * (rate + 0.5 * slope * ((a - start) + (b - start)))


@dataclass(frozen=True, init=False)
class CapacityEvent:
    """One maximal capacity reduction: a step (ramp_duration 0) or a ramp.

    Each field goes through ``float()`` and is checked in order, then
    ``post_rate < pre_rate``; a subclass hooks ``__init__``, as for :class:`Breakpoint`.
    """

    onset: float
    pre_rate: float
    post_rate: float
    ramp_duration: float

    def __init__(self, onset: float, pre_rate: float, post_rate: float, ramp_duration: float) -> None:
        object.__setattr__(self, "onset", check_seconds(onset, "event onset"))
        object.__setattr__(self, "pre_rate", check_rate(pre_rate, "pre_rate"))
        object.__setattr__(self, "post_rate", check_rate(post_rate, "post_rate"))
        object.__setattr__(self, "ramp_duration", check_seconds(ramp_duration, "ramp_duration"))
        if self.post_rate >= self.pre_rate:
            raise ValueError(
                "an event is a reduction: post_rate must be < pre_rate "
                f"(got {self.pre_rate!r} -> {self.post_rate!r})"
            )

    @property
    def c_factor(self) -> float:
        """Reduction factor pre_rate / post_rate, always > 1."""
        return self.pre_rate / self.post_rate


def _check_reduction(
    kind: str, pre_rate: float, post_rate: float, onset: float, horizon: float
) -> tuple[float, float, float, float]:
    """Shared checks of the trace builders: a reduction whose onset lies
    strictly inside (0, horizon)."""
    pre_rate = check_rate(pre_rate, "pre_rate")
    post_rate = check_rate(post_rate, "post_rate")
    onset = check_seconds(onset, "onset")
    horizon = check_seconds(horizon, "horizon")
    if post_rate >= pre_rate:
        raise ValueError(
            f"a {kind} must be a reduction: post_rate < pre_rate required, got {pre_rate!r} -> {post_rate!r}"
        )
    if not 0.0 < onset < horizon:
        raise ValueError(f"onset must lie strictly inside (0, horizon), got onset={onset!r}, horizon={horizon!r}")
    return pre_rate, post_rate, onset, horizon


def make_step_trace(pre_rate: float, post_rate: float, onset: float, horizon: float) -> CapacityTrace:
    """Constant ``pre_rate``, instantaneous drop to ``post_rate`` at ``onset``."""
    pre_rate, post_rate, onset, horizon = _check_reduction("step", pre_rate, post_rate, onset, horizon)
    return CapacityTrace((Breakpoint(0.0, pre_rate), Breakpoint(onset, post_rate)), horizon)


def make_ramp_trace(
    pre_rate: float, post_rate: float, onset: float, ramp_duration: float, horizon: float
) -> CapacityTrace:
    """``pre_rate`` until ``onset``, linear decline to ``post_rate`` over
    ``ramp_duration``, then ``post_rate``.  A zero ramp (or one below the
    floating-point resolution at ``onset``) degenerates to the breakpoints
    of :func:`make_step_trace`."""
    pre_rate, post_rate, onset, horizon = _check_reduction("ramp", pre_rate, post_rate, onset, horizon)
    end = onset + check_seconds(ramp_duration, "ramp_duration")
    if end > horizon:
        raise ValueError(f"ramp ends at {end!r}, past the horizon {horizon!r}")
    ramp = (Breakpoint(onset, pre_rate, SegmentMode.LINEAR),) if end > onset else ()
    return CapacityTrace((Breakpoint(0.0, pre_rate), *ramp, Breakpoint(end, post_rate)), horizon)


def detect_events(trace: CapacityTrace) -> list[CapacityEvent]:
    """Find the maximal decreasing runs of capacity.

    Each run becomes one event: onset is the run start, pre/post rates are
    the capacity just before and at the end of the run, ramp_duration is
    the run length (0 for a pure step).  Increases and plateaus never
    produce events, and runs separated by a plateau stay separate events.
    A trace finds its events on the first call and keeps them; each call
    returns a fresh list of them.
    """
    if trace._events is not None:  # type: ignore[attr-defined]
        return list(trace._events)  # type: ignore[attr-defined]
    events: list[CapacityEvent] = []
    onset = end = None  # the open run falls from pre at onset to post at end
    bps = trace.breakpoints
    for a, b in zip(bps, bps[1:]):
        if b.rate == a.rate:
            continue
        # a hold segment drops at its right end, a linear one declines over it
        start = b.time if a.mode is SegmentMode.HOLD else a.time
        if b.rate < a.rate and start == end:  # continues the open run
            end, post = b.time, b.rate
            continue
        if onset is not None:
            events.append(CapacityEvent(onset, pre, post, end - onset))
        onset = end = None
        if b.rate < a.rate:
            onset, pre, end, post = start, a.rate, b.time, b.rate
    if onset is not None:
        events.append(CapacityEvent(onset, pre, post, end - onset))
    object.__setattr__(trace, "_events", tuple(events))
    return events


class TraceParseError(ValueError):
    """Malformed trace CSV; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no is not None else message)


_HEADER_TOKENS = {"time_s", "time", "t_s", "t"}
_ROW_FIELDS = 3


def trace_from_csv(text: str, horizon: float | None = None) -> CapacityTrace:
    """Parse ``time_s,rate_bps,mode`` rows (header optional) into a trace.

    One leading byte-order mark is skipped.  The final row's time defines
    the horizon unless one is given explicitly.  Malformed data raises
    :class:`TraceParseError`, which names the 1-based line of the row at
    fault; an input without rows or a horizon of 0 or before the last row
    names none.  A bad explicit ``horizon`` raises a plain ValueError.
    """
    bps: list[Breakpoint] = []
    header_allowed = True
    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if header_allowed and fields[0].lower() in _HEADER_TOKENS:
            header_allowed = False
            continue
        header_allowed = False
        if len(fields) != _ROW_FIELDS:
            raise TraceParseError(
                f"expected 3 comma-separated fields (time_s,rate_bps,mode), got {len(fields)}", line_no
            )
        try:
            t, r = float(fields[0]), float(fields[1])
        except ValueError:
            raise TraceParseError(f"malformed number in {line!r}", line_no) from None
        try:
            bp = Breakpoint(t, r, fields[2].lower())
        except ValueError as exc:
            raise TraceParseError(str(exc), line_no) from None
        if not bps and t != 0.0:
            raise TraceParseError(f"first breakpoint must be at time 0, got {fields[0]}", line_no)
        if bps and t <= bps[-1].time:
            raise TraceParseError(
                f"times must be strictly increasing, got {fields[0]} after {bps[-1].time!r}", line_no
            )
        bps.append(bp)
        last_line = line_no
    if not bps:
        raise TraceParseError("no data rows found")
    h = bps[-1].time if horizon is None else check_seconds(horizon, "horizon")
    try:
        return CapacityTrace(tuple(bps), h)
    except ValueError as exc:
        # of the whole-trace rules, only "the last row holds" is about a row
        row = last_line if bps[-1].mode is SegmentMode.LINEAR else None
        raise TraceParseError(str(exc), row) from None


def trace_to_csv(trace: CapacityTrace) -> str:
    """Canonical CSV: header, repr-formatted numbers, LF endings.

    When the horizon lies beyond the last breakpoint an explicit final row
    is added at the horizon (same rate, hold), so parsing the output
    reproduces both the capacity function and the horizon exactly.
    """
    lines = ["time_s,rate_bps,mode"]
    for bp in trace.breakpoints:
        lines.append(f"{bp.time!r},{bp.rate!r},{bp.mode.value}")
    if trace.horizon > trace.breakpoints[-1].time:
        lines.append(f"{trace.horizon!r},{trace.capacity_at(trace.horizon)!r},hold")
    return "\n".join(lines) + "\n"
