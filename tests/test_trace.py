"""Capacity traces: construction, evaluation, integration, events, CSV."""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound.cli import main
from ccbound.trace import (
    Breakpoint,
    CapacityTrace,
    SegmentMode,
    TraceParseError,
    detect_events,
    make_ramp_trace,
    make_step_trace,
    trace_from_csv,
    trace_to_csv,
)

MBPS = 1e6


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(
        st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n - 1, max_size=n - 1)
    )
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    rates = draw(
        st.lists(st.floats(min_value=1e3, max_value=1e9), min_size=n, max_size=n)
    )
    modes = draw(
        st.lists(st.sampled_from([SegmentMode.HOLD, SegmentMode.LINEAR]), min_size=n, max_size=n)
    )
    modes[-1] = SegmentMode.HOLD
    tail = draw(st.floats(min_value=0.0, max_value=5.0))
    bps = tuple(Breakpoint(t, r, m) for t, r, m in zip(times, rates, modes))
    return CapacityTrace(bps, times[-1] + tail if times[-1] + tail > 0 else 1.0)


@st.composite
def close_traces(draw):
    """traces() with up to two extra breakpoints, each a few ulp before an
    existing one: prefix-table entries that differ in their last bits."""
    trace = draw(traces())
    bps = list(trace.breakpoints)
    if len(bps) > 1:
        ks = draw(st.lists(st.integers(1, len(bps) - 1), unique=True, max_size=2))
        for k in sorted(ks, reverse=True):
            t = bps[k].time
            for _ in range(draw(st.integers(1, 4))):
                t = math.nextafter(t, 0.0)
            rate = draw(st.floats(min_value=1e3, max_value=1e9))
            mode = draw(st.sampled_from([SegmentMode.HOLD, SegmentMode.LINEAR]))
            bps.insert(k, Breakpoint(t, rate, mode))
    return CapacityTrace(tuple(bps), trace.horizon)


@st.composite
def late_traces(draw):
    """Breakpoints a few ms apart after a quiet start at t0 in {0, 10, 100,
    1000} s: at those times one ulp is up to 1e-13 s, so zero crossings and
    idle ends round onto the instant they are measured from."""
    t0 = draw(st.sampled_from([0.0, 10.0, 100.0, 1000.0]))
    gaps = draw(st.lists(st.floats(1e-5, 1e-2), min_size=1, max_size=5))
    times = [0.0] if t0 == 0.0 else [0.0, t0]
    for gap in gaps:
        times.append(times[-1] + gap)
    rates = draw(st.lists(st.floats(1e7, 1e9), min_size=len(times), max_size=len(times)))
    modes = draw(st.lists(st.sampled_from([SegmentMode.HOLD, SegmentMode.LINEAR]),
                          min_size=len(times), max_size=len(times)))
    modes[-1] = SegmentMode.HOLD
    horizon = times[-1] + draw(st.floats(0.0, 1e-2))
    return CapacityTrace(tuple(map(Breakpoint, times, rates, modes)), horizon)


def reference_capacity(trace, t):
    """(value, left limit) at ``t`` read off ``trace.breakpoints``: a hold
    keeps its rate, a linear segment interpolates toward the next rate, and
    at a breakpoint the left limit is the previous hold's rate, or the
    breakpoint's own rate after a linear segment."""
    bps = trace.breakpoints
    i = bisect_right([bp.time for bp in bps], t) - 1
    bp = bps[i]
    value = bp.rate
    if bp.mode is SegmentMode.LINEAR and i + 1 < len(bps):
        nxt = bps[i + 1]
        u = (t - bp.time) / (nxt.time - bp.time)
        value = bp.rate + u * (nxt.rate - bp.rate)
    if t > 0.0 and bp.time == t:
        prev = bps[i - 1]
        return value, prev.rate if prev.mode is SegmentMode.HOLD else bp.rate
    return value, value


def walk_integrate(trace, t0, t1):
    """Reference integral: walk the segments, one trapezoid each (a hold
    segment is a trapezoid with equal sides)."""
    total, cur = 0.0, t0
    for end in [x for x in trace.times if t0 < x < t1] + [t1]:
        total += 0.5 * (trace.capacity_at(cur) + trace.left_limit_at(end)) * (end - cur)
        cur = end
    return total


def walk_drain(trace, t, bits):
    """Reference drain time: walk forward segment by segment until the
    served bits cover ``bits``; None when the horizon comes first."""
    if bits <= 0.0:
        return 0.0
    cur = t
    for end in [x for x in trace.times if x > t] + [trace.horizon]:
        if end <= cur:
            continue
        v0, v1 = trace.capacity_at(cur), trace.left_limit_at(end)
        chunk = 0.5 * (v0 + v1) * (end - cur)
        if chunk >= bits:
            slope = (v1 - v0) / (end - cur)
            return (cur - t) + 2.0 * bits / (v0 + math.sqrt(max(0.0, v0 * v0 + 2.0 * slope * bits)))
        bits -= chunk
        cur = end
    return None


def reference_events(trace):
    """Reference reduction events read off the capacity values alone.

    The profile is cut into pieces: the jump at each breakpoint (left limit
    to value, zero width) and the straight piece from each breakpoint to
    the next.  A zero-width piece without change is no piece at all; a run
    is a maximal sequence of adjacent strictly decreasing pieces, so flat
    pieces of positive width and increases end it.  Returns (onset,
    pre_rate, post_rate, ramp_duration) per run.
    """
    times = trace.times
    pieces = []
    for i, t in enumerate(times):
        if i:
            pieces.append((t, t, trace.left_limit_at(t), trace.capacity_at(t)))
        if i + 1 < len(times):
            nxt = times[i + 1]
            pieces.append((t, nxt, trace.capacity_at(t), trace.left_limit_at(nxt)))
    runs, extending = [], False
    for start, end, v0, v1 in pieces:
        if start == end and v0 == v1:
            continue
        if v1 < v0 and extending:
            runs[-1][2:] = [end, v1]
        elif v1 < v0:
            runs.append([start, v0, end, v1])
        extending = v1 < v0
    return [(onset, pre, post, end - onset) for onset, pre, end, post in runs]


class TestConstruction:
    def test_step_trace_shape(self):
        t = make_step_trace(100 * MBPS, 10 * MBPS, 1.0, 5.0)
        assert t.capacity_at(0.0) == 100 * MBPS
        assert t.capacity_at(1.0 - 1e-9) == 100 * MBPS
        assert t.capacity_at(1.0) == 10 * MBPS  # right-continuous at the drop
        assert t.capacity_at(5.0) == 10 * MBPS

    def test_step_trace_single_event_with_c10(self):
        t = make_step_trace(100 * MBPS, 10 * MBPS, 1.0, 5.0)
        events = detect_events(t)
        assert len(events) == 1
        ev = events[0]
        assert ev.onset == 1.0
        assert ev.ramp_duration == 0.0
        assert ev.c_factor == pytest.approx(10.0, rel=1e-12)

    def test_step_rejects_non_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            make_step_trace(1e8, 1e8, 1.0, 5.0)
        with pytest.raises(ValueError, match="reduction"):
            make_step_trace(1e7, 1e8, 1.0, 5.0)

    def test_step_rejects_onset_outside_window(self):
        with pytest.raises(ValueError, match="onset"):
            make_step_trace(1e8, 1e7, 0.0, 5.0)
        with pytest.raises(ValueError, match="onset"):
            make_step_trace(1e8, 1e7, 5.0, 5.0)
        with pytest.raises(ValueError, match="onset"):
            make_step_trace(1e8, 1e7, 6.0, 5.0)

    def test_ramp_midpoint_interpolates(self):
        t = make_ramp_trace(100 * MBPS, 10 * MBPS, 1.0, 0.2, 5.0)
        assert t.capacity_at(1.1) == pytest.approx(55 * MBPS, rel=1e-12)

    def test_ramp_zero_duration_degenerates_to_step(self):
        ramp = make_ramp_trace(1e8, 1e7, 1.0, 0.0, 5.0)
        step = make_step_trace(1e8, 1e7, 1.0, 5.0)
        assert ramp == step

    def test_ramp_event_roundtrip(self):
        t = make_ramp_trace(100 * MBPS, 10 * MBPS, 1.0, 0.1, 5.0)
        events = detect_events(t)
        assert len(events) == 1
        ev = events[0]
        assert ev.c_factor == pytest.approx(10.0, rel=1e-12)
        assert ev.ramp_duration == pytest.approx(0.1, rel=1e-12)
        assert ev.onset == 1.0

    def test_ramp_rejects_overflowing_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            make_ramp_trace(1e8, 1e7, 4.0, 2.0, 5.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            Breakpoint(0.0, 0.0)

    def test_last_breakpoint_must_hold(self):
        with pytest.raises(ValueError, match="hold"):
            CapacityTrace((Breakpoint(0.0, 1e8, SegmentMode.LINEAR),), 5.0)

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CapacityTrace((Breakpoint(0.0, 1e8), Breakpoint(0.0, 1e7)), 5.0)


class TestCapacityAt:
    def test_linear_segment_endpoints_exact(self):
        t = make_ramp_trace(1e8, 1e7, 1.0, 0.25, 5.0)
        assert t.capacity_at(1.0) == 1e8
        assert t.capacity_at(1.25) == 1e7

    def test_three_level_mcs_trace(self):
        t = CapacityTrace(
            (Breakpoint(0.0, 144.4 * MBPS), Breakpoint(1.0, 14.4 * MBPS), Breakpoint(2.0, 144.4 * MBPS)),
            3.0,
        )
        assert t.capacity_at(1.5) == 14.4 * MBPS

    def test_out_of_domain_rejected(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        with pytest.raises(ValueError):
            t.capacity_at(-0.1)
        with pytest.raises(ValueError):
            t.capacity_at(5.1)
        with pytest.raises(ValueError):
            t.capacity_at(math.nan)

    def test_left_limit_at_step(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        assert t.left_limit_at(1.0) == 1e8
        assert t.capacity_at(1.0) == 1e7

    @given(st.one_of(close_traces(), late_traces()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_value_and_left_limit_match_the_breakpoints(self, trace, data):
        h = trace.horizon
        instants = {h}
        for t in trace.times:
            instants.update((t, math.nextafter(t, 0.0), min(math.nextafter(t, math.inf), h)))
        instants.update(data.draw(st.lists(st.floats(0.0, h), max_size=20)))
        for t in sorted(instants):
            value, left = reference_capacity(trace, t)
            assert trace.capacity_at(t).hex() == value.hex(), t
            assert trace.left_limit_at(t).hex() == left.hex(), t

    @given(traces())
    @settings(max_examples=50, deadline=None)
    def test_breakpoint_rates_reproduced(self, trace):
        for bp in trace.breakpoints:
            assert trace.capacity_at(bp.time) == bp.rate


class TestIntegrate:
    def test_empty_interval(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        assert t.integrate(2.0, 2.0) == 0.0

    def test_constant_segment(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        assert t.integrate(2.0, 3.0) == pytest.approx(1e7, rel=1e-12)

    def test_linear_drop_trapezoid_vs_riemann(self):
        # 100 -> 10 Mbit/s linearly over one second: trapezoid says 55e6 bits
        t = make_ramp_trace(100 * MBPS, 10 * MBPS, 1.0, 1.0, 5.0)
        exact = t.integrate(1.0, 2.0)
        assert exact == pytest.approx(55e6, rel=1e-12)
        n = 200_000
        dt = 1.0 / n
        riemann = sum(t.capacity_at(1.0 + (k + 0.5) * dt) for k in range(n)) * dt
        assert exact == pytest.approx(riemann, rel=1e-9)

    def test_inverted_interval_rejected(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        with pytest.raises(ValueError):
            t.integrate(3.0, 2.0)
        with pytest.raises(ValueError):
            t.integrate(0.0, 6.0)

    @given(traces(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_additive_over_adjacent_intervals(self, trace, data):
        ts = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=trace.horizon),
                    min_size=3,
                    max_size=3,
                )
            )
        )
        t0, t1, t2 = ts
        whole = trace.integrate(t0, t2)
        split = trace.integrate(t0, t1) + trace.integrate(t1, t2)
        assert math.isclose(whole, split, rel_tol=1e-12, abs_tol=1e-6)


class TestCumulativeCurve:
    """The prefix table against the segment walks it replaced."""

    @given(traces(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_segment_walk(self, trace, data):
        h = trace.horizon
        # Differences of prefix sums round to a few ulps of C(h) whatever
        # the interval, and rounding an instant costs rate * ulp(h) bits;
        # the floor covers both with a wide margin.
        rates = [bp.rate for bp in trace.breakpoints]
        floor = 1e-13 * walk_integrate(trace, 0.0, h) + 4.0 * max(rates) * math.ulp(h)
        t0, t1 = sorted(data.draw(st.lists(st.floats(0.0, h), min_size=2, max_size=2)))
        assert math.isclose(
            trace.integrate(t0, t1), walk_integrate(trace, t0, t1), rel_tol=1e-9, abs_tol=floor
        )

        t = data.draw(st.floats(0.0, h))
        avail = walk_integrate(trace, t, h)
        bits = data.draw(st.floats(0.0, 1.2)) * (avail or 1e3)
        delta = trace.drain_time(t, bits)
        if abs(avail - bits) > max(1e-9 * bits, floor):
            assert (delta is None) == (avail < bits)
        if delta is None:
            return
        assert 0.0 <= delta and t + delta <= h + 2.0 * math.ulp(h)
        served = trace.integrate(t, min(t + delta, h))
        assert math.isclose(served, bits, rel_tol=1e-9, abs_tol=floor)
        reference = walk_drain(trace, t, bits)
        if reference is not None:  # the first instant that drains ``bits``
            assert math.isclose(delta, reference, rel_tol=1e-9, abs_tol=floor / min(rates))

    @given(close_traces(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_drain_times_equal_drain_time(self, trace, data):
        # Queries aimed a few ulp either side of C at each breakpoint, in
        # ascending and descending order, and drawn ones: the seeded
        # bisections must step back as well as forward and land where the
        # unseeded ones of a one-query drain_time do.
        h = trace.horizon
        aimed = []
        for x in trace.times:
            bits = trace.integrate(0.0, x)
            for _ in range(3):
                aimed.append((0.0, bits))
                bits = math.nextafter(bits, math.inf)
        total = trace.integrate(0.0, h)
        drawn = data.draw(
            st.lists(st.tuples(st.floats(0.0, h), st.floats(0.0, 1.2 * total)), max_size=20)
        )
        for queries in (sorted(aimed), sorted(aimed, reverse=True), drawn, sorted(drawn)):
            assert list(trace.drain_times(queries)) == [trace.drain_time(*q) for q in queries]

    def test_drain_time_edges(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        assert t.drain_time(0.5, 0.0) == 0.0
        assert t.drain_time(0.5, 6e7) == pytest.approx(0.5 + 1e7 / 1e7, rel=1e-12)
        assert t.drain_time(5.0, 1.0) is None
        assert t.drain_time(4.0, 1e7) == pytest.approx(1.0, rel=1e-12)  # exactly at the horizon
        with pytest.raises(ValueError):
            t.drain_time(5.1, 1.0)
        with pytest.raises(ValueError):
            t.drain_time(1.0, math.nan)


class TestDetectEvents:
    def test_purely_increasing_yields_nothing(self):
        t = CapacityTrace((Breakpoint(0.0, 1e7), Breakpoint(1.0, 1e8)), 2.0)
        assert detect_events(t) == []

    def test_ramp_down_then_step_up(self):
        t = CapacityTrace(
            (
                Breakpoint(0.0, 1e8),
                Breakpoint(1.0, 1e8, SegmentMode.LINEAR),
                Breakpoint(1.1, 1e7),
                Breakpoint(2.0, 1e8),
            ),
            3.0,
        )
        events = detect_events(t)
        assert len(events) == 1
        assert events[0].c_factor == pytest.approx(10.0, rel=1e-12)
        assert events[0].ramp_duration == pytest.approx(0.1, rel=1e-12)

    def test_plateau_separates_events(self):
        t = CapacityTrace(
            (Breakpoint(0.0, 8e8), Breakpoint(1.0, 1e8), Breakpoint(2.0, 1e7)), 3.0
        )
        events = detect_events(t)
        assert [e.onset for e in events] == [1.0, 2.0]
        assert [e.pre_rate for e in events] == [8e8, 1e8]

    def test_contiguous_step_and_ramp_merge(self):
        # hold at 100 jumps to 50 at t=1, then declines linearly to 10 by 1.2:
        # one maximal decreasing run from just before t=1
        t = CapacityTrace(
            (
                Breakpoint(0.0, 100 * MBPS),
                Breakpoint(1.0, 50 * MBPS, SegmentMode.LINEAR),
                Breakpoint(1.2, 10 * MBPS),
            ),
            3.0,
        )
        events = detect_events(t)
        assert len(events) == 1
        ev = events[0]
        assert ev.onset == 1.0
        assert ev.pre_rate == 100 * MBPS
        assert ev.post_rate == 10 * MBPS
        assert ev.ramp_duration == pytest.approx(0.2, rel=1e-12)

    def test_adjacent_linear_declines_merge(self):
        t = CapacityTrace(
            (
                Breakpoint(0.0, 1e8),
                Breakpoint(1.0, 1e8, SegmentMode.LINEAR),
                Breakpoint(1.2, 5e7, SegmentMode.LINEAR),
                Breakpoint(1.5, 1e7),
            ),
            3.0,
        )
        events = detect_events(t)
        assert len(events) == 1
        assert events[0].ramp_duration == pytest.approx(0.5, rel=1e-12)

    @given(traces())
    @settings(max_examples=300, deadline=None)
    def test_matches_value_reference(self, trace):
        got = [(e.onset, e.pre_rate, e.post_rate, e.ramp_duration) for e in detect_events(trace)]
        assert got == reference_events(trace)

    @given(
        st.floats(min_value=1.01, max_value=1000.0),
        st.floats(min_value=1e4, max_value=1e9),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_constructor_parameters_recovered(self, c, pre, onset, ramp):
        post = pre / c
        horizon = onset + ramp + 1.0
        trace = make_ramp_trace(pre, post, onset, ramp, horizon)
        events = detect_events(trace)
        assert len(events) == 1
        ev = events[0]
        assert ev.onset == onset
        assert ev.pre_rate == pre
        assert ev.post_rate == post
        assert math.isclose(ev.ramp_duration, ramp, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(ev.c_factor, c, rel_tol=1e-12)


# One fault per case: (CSV text, explicit horizon in seconds, the line
# the error names; None for an error about the whole trace).
PARSE_ERRORS = {
    "nan_time": ("0,1e8,hold\nnan,1e7,hold\n", None, 2),
    "inf_time": ("0,1e8,hold\ninf,1e7,hold\n", None, 2),
    "negative_time": ("0,1e8,hold\n-1,1e7,hold\n", None, 2),
    "negative_first_time": ("-1,1e8,hold\n", None, 1),
    "zero_rate": ("0,1e8,hold\n1,0,hold\n", None, 2),
    "negative_rate": ("0,1e8,hold\n\n1,-5,hold\n", None, 3),
    "inf_rate": ("time_s,rate_bps,mode\n0,inf,hold\n", None, 2),
    "nan_rate": ("0,1e8,hold\n1,nan,hold\n", None, 2),
    "unknown_mode": ("0,1e8,hold\n1,1e7,step\n", None, 2),
    "two_fields": ("0,1e8,hold\n1,1e7\n", None, 2),
    "four_fields": ("0,1e8,hold,x\n", None, 1),
    "malformed_time": ("0,1e8,hold\n1s,1e7,hold\n", None, 2),
    "malformed_rate": ("0,abc,hold\n", None, 1),
    "second_header": ("time_s,rate_bps,mode\ntime_s,rate_bps,mode\n0,1e8,hold\n", None, 2),
    "first_row_not_at_zero": ("\n1,1e8,hold\n2,1e7,hold\n", None, 2),
    "equal_times": ("0,1e8,hold\n2,5e7,hold\n2,1e7,hold\n", None, 3),
    "decreasing_times": ("0,1e8,hold\n2,5e7,hold\n1,1e7,hold\n", None, 3),
    "last_row_linear": ("0,1e8,hold\n1,1e7,linear\n\n", None, 2),
    "horizon_before_last_row": ("0,1e8,hold\n2,1e7,hold\n", 1.0, None),
    "zero_horizon": ("0,1e8,hold\n2,1e7,hold\n", 0.0, None),
    "single_row_no_horizon": ("0,1e8,hold\n", None, None),
    "header_only": ("time_s,rate_bps,mode\n", None, None),
}


@pytest.mark.parametrize("text, horizon, line", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_names_its_line(text, horizon, line, tmp_path, capsys):
    with pytest.raises(TraceParseError) as info:
        trace_from_csv(text, horizon=horizon)
    assert info.value.line_no == line
    prefix = f"error: line {line}: " if line is not None else "error: "
    path = tmp_path / "bad.csv"
    path.write_text(text)
    horizon_flag = [] if horizon is None else ["--horizon-ms", repr(horizon * 1e3)]
    assert main(["ingest", str(path), *horizon_flag]) == 3
    err = capsys.readouterr().err
    assert err.startswith(prefix) and (line is not None or "line" not in err)
    if horizon is None:
        assert main(["simulate", "--trace", str(path), "--controller", "fixed:10"]) == 3
        assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
def test_bad_explicit_horizon_is_a_usage_error(horizon, tmp_path, capsys):
    # the horizon is an argument, not a row: plain ValueError, CLI exit 2
    with pytest.raises(ValueError, match="horizon") as info:
        trace_from_csv("0,1e8,hold\n1,1e7,hold\n", horizon=horizon)
    assert not isinstance(info.value, TraceParseError)
    path = tmp_path / "ok.csv"
    path.write_text("0,1e8,hold\n1,1e7,hold\n")
    assert main(["ingest", str(path), "--horizon-ms", repr(horizon)]) == 2


class TestCsv:
    def test_parse_step_trace(self):
        text = "0,100000000,hold\n1,10000000,hold\n"
        assert trace_from_csv(text, horizon=5.0) == make_step_trace(1e8, 1e7, 1.0, 5.0)

    def test_header_optional(self):
        with_header = "time_s,rate_bps,mode\n0,1e8,hold\n1,1e7,hold\n"
        without = "0,1e8,hold\n1,1e7,hold\n"
        assert trace_from_csv(with_header) == trace_from_csv(without)

    def test_horizon_defaults_to_last_row(self):
        t = trace_from_csv("0,1e8,hold\n1,1e7,hold\n4,1e7,hold\n")
        assert t.horizon == 4.0

    def test_negative_rate_names_line(self):
        with pytest.raises(TraceParseError, match="line 2"):
            trace_from_csv("0,100000000,hold\n1,-5,hold\n")

    def test_non_monotone_times_name_line(self):
        with pytest.raises(TraceParseError, match="line 3"):
            trace_from_csv("0,1e8,hold\n2,5e7,hold\n1,1e7,hold\n")

    def test_unknown_mode_token(self):
        with pytest.raises(TraceParseError, match="mode"):
            trace_from_csv("0,1e8,step\n")

    def test_malformed_number(self):
        with pytest.raises(TraceParseError, match="malformed"):
            trace_from_csv("0,abc,hold\n")

    def test_empty_input(self):
        with pytest.raises(TraceParseError, match="no data"):
            trace_from_csv("\n\n")

    def test_first_row_must_start_at_zero(self):
        with pytest.raises(TraceParseError, match="time 0"):
            trace_from_csv("1,1e8,hold\n2,1e7,hold\n")

    def test_roundtrip_canonical_identity(self):
        t = make_step_trace(1e8, 1e7, 1.0, 5.0)
        once = trace_to_csv(t)
        again = trace_to_csv(trace_from_csv(once))
        assert once == again

    def test_roundtrip_preserves_horizon_and_function(self):
        t = make_ramp_trace(1e8, 1e7, 1.0, 0.25, 5.0)
        back = trace_from_csv(trace_to_csv(t))
        assert back.horizon == t.horizon
        for k in range(51):
            x = k * 0.1
            assert back.capacity_at(x) == t.capacity_at(x)

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_trace_byte_stable(self, trace):
        once = trace_to_csv(trace)
        parsed = trace_from_csv(once)
        assert trace_to_csv(parsed) == once
        assert parsed.horizon == trace.horizon
