"""Capacity traces: construction, evaluation, integration, events, CSV."""

from __future__ import annotations

import copy
import dataclasses
import io
import math
import pickle
import sys
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccbound.bounds import (
    check_c_factor,
    peak_delay_ramp,
    peak_delay_step,
    ramp_duration_for_target,
    reduction_factor,
    sweep,
)
from ccbound.cli import main
from ccbound.fluid import FixedRate, OracleFinal, OracleTracking, SimConfig, sample_result, simulate_fluid
from ccbound.packetsim import AimdParams, PacketSimConfig, compare_to_bound, simulate_packets
from ccbound.scenarios import scenario_trace
from ccbound.trace import (
    Breakpoint,
    CapacityEvent,
    CapacityTrace,
    SegmentMode,
    TraceParseError,
    check_rate,
    check_seconds,
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


def bisected_drain(trace, t, bits):
    """Drain time by two unseeded bisections, one over the breakpoint times
    and one over the prefix table, with the area of t's row and the stable
    root of the serving row's quadratic written out."""
    if bits <= 0.0:
        return 0.0
    times, cum, rows = trace._times, trace._cum, trace._rows
    i = bisect_right(times, t) - 1
    start, end, rate, slope, _ = rows[i]
    head = (end - t) * (rate + 0.5 * slope * ((t - start) + (end - start)))
    if bits <= head:
        row, at, rest = rows[i], t, bits
    else:
        target = cum[i + 1] + (bits - head)
        if target > cum[-1]:
            return None
        if i == len(times) - 1:  # target rounds onto C(h), drained at h
            return end - t
        # the last row starting at or before the drain instant
        j = bisect_right(cum, target, 0, len(times)) - 1
        row, at, rest = rows[j], rows[j][0], target - cum[j]
    start, end, rate, slope, _ = row
    v0 = rate + slope * (at - start)
    x = 2.0 * rest / (v0 + math.sqrt(max(0.0, v0 * v0 + 2.0 * slope * rest)))
    return min(at + x, end) - t


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


# What a breakpoint or an event accepts: each argument goes through float()
# (a bool is refused; a mode is a SegmentMode or its exact value string), and the fields are
# checked in order, so the first bad one names the error.
ACCEPTED = {
    "bp_ints": (Breakpoint, (0, 1), (0.0, 1.0, SegmentMode.HOLD)),
    "bp_strings": (Breakpoint, ("1.5", " 2e6 ", "linear"), (1.5, 2e6, SegmentMode.LINEAR)),
    "bp_decimal": (Breakpoint, (Decimal("0.1"), Fraction(1), SegmentMode.LINEAR), (0.1, 1.0, SegmentMode.LINEAR)),
    "bp_negative_zero": (Breakpoint, (-0.0, 1e8, "hold"), (-0.0, 1e8, SegmentMode.HOLD)),
    "ev_ints": (CapacityEvent, (1, 200, 100, 0), (1.0, 200.0, 100.0, 0.0)),
    "ev_strings": (CapacityEvent, ("0.5", "2e8", Fraction(1, 2), "1e-3"), (0.5, 2e8, 0.5, 1e-3)),
}

REJECTED = {
    "bp_time_text": (Breakpoint, ("a", 1e8), ValueError, "could not convert string to float: 'a'"),
    "bp_time_none": (Breakpoint, (None, 1e8), TypeError,
                     "float() argument must be a string or a real number, not 'NoneType'"),
    "bp_time_negative": (Breakpoint, (-1, 1e8), ValueError,
                         "breakpoint time must be finite and >= 0 seconds, got -1.0"),
    "bp_time_nan": (Breakpoint, ("nan", 1e8), ValueError,
                    "breakpoint time must be finite and >= 0 seconds, got nan"),
    "bp_time_inf": (Breakpoint, (math.inf, 1e8), ValueError,
                    "breakpoint time must be finite and >= 0 seconds, got inf"),
    "bp_rate_text": (Breakpoint, (0.0, "1e8 bit/s"), ValueError,
                     "could not convert string to float: '1e8 bit/s'"),
    "bp_rate_zero": (Breakpoint, (0.0, 0), ValueError,
                     "breakpoint rate must be finite and > 0 bit/s, got 0.0"),
    "bp_rate_negative": (Breakpoint, (0.0, -5.0), ValueError,
                         "breakpoint rate must be finite and > 0 bit/s, got -5.0"),
    "bp_rate_nan": (Breakpoint, (0.0, math.nan), ValueError,
                    "breakpoint rate must be finite and > 0 bit/s, got nan"),
    "bp_rate_inf": (Breakpoint, (0.0, "-inf"), ValueError,
                    "breakpoint rate must be finite and > 0 bit/s, got -inf"),
    "bp_mode_unknown": (Breakpoint, (0.0, 1e8, "step"), ValueError,
                        "unknown segment mode 'step' (expected 'hold' or 'linear')"),
    "bp_mode_upper_case": (Breakpoint, (0.0, 1e8, "HOLD"), ValueError,
                           "unknown segment mode 'HOLD' (expected 'hold' or 'linear')"),
    "bp_mode_unhashable": (Breakpoint, (0.0, 1e8, ["hold"]), ValueError,
                           "unknown segment mode ['hold'] (expected 'hold' or 'linear')"),
    "bp_mode_none": (Breakpoint, (0.0, 1e8, None), ValueError,
                     "unknown segment mode None (expected 'hold' or 'linear')"),
    "bp_missing_rate": (Breakpoint, (0.0,), TypeError,
                        "Breakpoint.__init__() missing 1 required positional argument: 'rate'"),
    "bp_time_before_rate_and_mode": (Breakpoint, (-1, 0, "x"), ValueError,
                                     "breakpoint time must be finite and >= 0 seconds, got -1.0"),
    "bp_text_before_none": (Breakpoint, ("a", None, []), ValueError,
                            "could not convert string to float: 'a'"),
    "bp_rate_before_mode": (Breakpoint, (1, math.inf, "x"), ValueError,
                            "breakpoint rate must be finite and > 0 bit/s, got inf"),
    "ev_onset_negative": (CapacityEvent, (-1, 2e8, 1e8, 0), ValueError,
                          "event onset must be finite and >= 0 seconds, got -1.0"),
    "ev_onset_none": (CapacityEvent, (None, 2e8, 1e8, 0), TypeError,
                      "float() argument must be a string or a real number, not 'NoneType'"),
    "ev_pre_zero": (CapacityEvent, (1, 0, 1e8, 0), ValueError,
                    "pre_rate must be finite and > 0 bit/s, got 0.0"),
    "ev_post_nan": (CapacityEvent, (1, 2e8, "nan", 0), ValueError,
                    "post_rate must be finite and > 0 bit/s, got nan"),
    "ev_ramp_negative": (CapacityEvent, (1, 2e8, 1e8, -0.5), ValueError,
                         "ramp_duration must be finite and >= 0 seconds, got -0.5"),
    "ev_ramp_text": (CapacityEvent, (1, 2e8, 1e8, "1ms"), ValueError,
                     "could not convert string to float: '1ms'"),
    "ev_not_a_reduction": (CapacityEvent, (1, 1e8, 1e8, 0), ValueError,
                           "an event is a reduction: post_rate must be < pre_rate "
                           "(got 100000000.0 -> 100000000.0)"),
    "ev_an_increase": (CapacityEvent, (1, "1e7", 2e7, 0), ValueError,
                       "an event is a reduction: post_rate must be < pre_rate "
                       "(got 10000000.0 -> 20000000.0)"),
    "ev_missing_ramp": (CapacityEvent, (1, 2e8, 1e8), TypeError,
                        "CapacityEvent.__init__() missing 1 required positional argument: "
                        "'ramp_duration'"),
    "ev_onset_first": (CapacityEvent, ("inf", 0, None, -1), ValueError,
                       "event onset must be finite and >= 0 seconds, got inf"),
    "ev_pre_before_post": (CapacityEvent, (1, -1, 0, 0), ValueError,
                           "pre_rate must be finite and > 0 bit/s, got -1.0"),
    "ev_post_before_ramp": (CapacityEvent, (1, 1e8, 0, -1), ValueError,
                            "post_rate must be finite and > 0 bit/s, got 0.0"),
    "ev_ramp_before_reduction": (CapacityEvent, (1, 1e7, 2e7, "inf"), ValueError,
                                 "ramp_duration must be finite and >= 0 seconds, got inf"),
    "trace_without_breakpoints": (CapacityTrace, ((), 1.0), ValueError,
                                  "a trace needs at least one breakpoint"),
    "trace_starting_late": (CapacityTrace, ((Breakpoint(1.0, 1e8),), 2.0), ValueError,
                            "first breakpoint must be at time 0, got 1.0"),
}


class TestConstructionContract:
    @pytest.mark.parametrize("cls, args, fields_", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepted_arguments_are_coerced(self, cls, args, fields_):
        obj = cls(*args)
        values = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls))
        assert values == fields_
        assert all(type(v) is float for v in values if not isinstance(v, SegmentMode))
        assert [math.copysign(1.0, v) for v in values if type(v) is float] == [
            math.copysign(1.0, v) for v in fields_ if type(v) is float
        ]
        assert obj == cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), fields_)})

    @pytest.mark.parametrize("cls, args, exc, message", REJECTED.values(), ids=REJECTED)
    def test_the_first_bad_field_names_the_error(self, cls, args, exc, message):
        with pytest.raises(Exception) as info:
            cls(*args)
        assert type(info.value) is exc
        assert str(info.value) == message
        assert info.value.__cause__ is None

    def test_breakpoint_is_a_slotted_frozen_dataclass(self):
        bp = Breakpoint(1, 2e6, "linear")
        assert [f.name for f in dataclasses.fields(Breakpoint)] == ["time", "rate", "mode"]
        assert dataclasses.fields(Breakpoint)[2].default is SegmentMode.HOLD
        assert Breakpoint.__match_args__ == ("time", "rate", "mode")
        assert not hasattr(bp, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            bp.rate = 1.0  # type: ignore[misc]
        assert repr(bp) == "Breakpoint(time=1.0, rate=2000000.0, mode=<SegmentMode.LINEAR: 'linear'>)"
        assert dataclasses.asdict(bp) == {"time": 1.0, "rate": 2e6, "mode": SegmentMode.LINEAR}
        assert bp == Breakpoint(1.0, 2e6, SegmentMode.LINEAR) != Breakpoint(1.0, 2e6)
        assert hash(bp) == hash(Breakpoint(1.0, 2e6, SegmentMode.LINEAR))
        assert hash(Breakpoint(0, 1)) == hash((0.0, 1.0, SegmentMode.HOLD))
        match bp:
            case Breakpoint(t, r, SegmentMode.LINEAR):
                assert (t, r) == (1.0, 2e6)
            case _:
                pytest.fail("positional pattern did not match")

    def test_event_is_a_frozen_dataclass(self):
        ev = CapacityEvent(1, 2e8, 1e8, 0)
        assert [f.name for f in dataclasses.fields(CapacityEvent)] == [
            "onset", "pre_rate", "post_rate", "ramp_duration"]
        assert CapacityEvent.__match_args__ == ("onset", "pre_rate", "post_rate", "ramp_duration")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.onset = 2.0  # type: ignore[misc]
        assert repr(ev) == "CapacityEvent(onset=1.0, pre_rate=200000000.0, post_rate=100000000.0, ramp_duration=0.0)"
        assert dataclasses.asdict(ev) == {
            "onset": 1.0, "pre_rate": 2e8, "post_rate": 1e8, "ramp_duration": 0.0}
        assert ev == CapacityEvent(1.0, 2e8, 1e8, 0.0) != CapacityEvent(1.0, 2e8, 1e8, 0.1)
        assert hash(ev) == hash((1.0, 2e8, 1e8, 0.0))
        assert ev.c_factor == 2.0

    @pytest.mark.parametrize("obj", [Breakpoint(1, "3e6", "linear"), CapacityEvent("2", 2e8, 5e7, 1)],
                             ids=["breakpoint", "event"])
    def test_replace_checks_and_copies_round_trip(self, obj):
        name = dataclasses.fields(obj)[1].name  # a rate in both classes
        changed = dataclasses.replace(obj, **{name: "1e9"})
        assert getattr(changed, name) == 1e9 and type(changed) is type(obj)
        assert dataclasses.replace(changed, **{name: getattr(obj, name)}) == obj
        with pytest.raises(ValueError, match="> 0 bit/s, got 0.0"):
            dataclasses.replace(obj, **{name: 0})
        for copy_ in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(copy_) is type(obj) and copy_ == obj and repr(copy_) == repr(obj)


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

    @given(traces(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_left_limit_off_the_breakpoints_is_the_value(self, trace, data):
        # the two sides differ only at a breakpoint; elsewhere left_limit_at
        # answers from its own bisection, bit for bit as capacity_at does
        h = trace.horizon
        instants = data.draw(st.lists(st.floats(0.0, h), max_size=20))
        for a, b in zip(trace.times, (*trace.times[1:], h)):
            instants += [math.nextafter(a, math.inf), 0.5 * (a + b), math.nextafter(b, 0.0)]
        for t in instants:
            if 0.0 < t <= h and t not in trace.times:
                assert trace.left_limit_at(t).hex() == trace.capacity_at(t).hex(), t

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


@st.composite
def walk_cases(draw):
    """A trace, an interval [t0, t1] of it, and a drain query at t of share
    times the bits left after t (of 1000 bits when none are)."""
    trace = draw(traces())
    h = trace.horizon
    t0, t1 = sorted(draw(st.lists(st.floats(0.0, h), min_size=2, max_size=2)))
    return trace, t0, t1, draw(st.floats(0.0, h)), draw(st.floats(0.0, 1.2))


# Its last row lasts one ulp, so its area rounds away in C(h): a query at
# the horizon for 1e-12 bits, below half an ulp of C(h), found a drain row
# that starts before t.
LAST_ROW_ROUNDED = CapacityTrace((Breakpoint(0.0, 1000.0, "linear"), Breakpoint(4.889554028757022, 1164.0),
                                  Breakpoint(14.420466521675516, 1000.0)), 14.420466521675518)


class TestCumulativeCurve:
    """The prefix table against the segment walks it replaced."""

    @given(walk_cases())
    @example((LAST_ROW_ROUNDED, 0.0, 0.0, LAST_ROW_ROUNDED.horizon, 1e-15))
    @settings(max_examples=200, deadline=None)
    def test_matches_segment_walk(self, case):
        trace, t0, t1, t, share = case
        h = trace.horizon
        # Differences of prefix sums round to a few ulps of C(h) whatever
        # the interval, and rounding an instant costs rate * ulp(h) bits;
        # the floor covers both with a wide margin.
        rates = [bp.rate for bp in trace.breakpoints]
        floor = 1e-13 * walk_integrate(trace, 0.0, h) + 4.0 * max(rates) * math.ulp(h)
        assert math.isclose(
            trace.integrate(t0, t1), walk_integrate(trace, t0, t1), rel_tol=1e-9, abs_tol=floor
        )

        avail = walk_integrate(trace, t, h)
        bits = share * (avail or 1e3)
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

    @given(close_traces(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_drain_times_equal_two_bisections_bit_for_bit(self, trace, data):
        # Ascending grids of 1-50 instants per row and each row's end, each
        # with no bits, bits past the horizon, bits whose target lands on a
        # prefix entry or one ulp either side, or drawn bits: the rows a
        # query keeps from the previous one must be the rows two unseeded
        # bisections find, and the inlined arithmetic must keep every bit.
        cum = trace._cum
        rng = data.draw(st.randoms(use_true_random=False))
        instants = []
        for start, end, *_ in trace._rows:
            m = data.draw(st.integers(1, 50))
            instants += [start + (end - start) * k / m for k in range(m)] + [end]
        queries = []
        for t in instants:
            served = trace.integrate(0.0, t)
            kind = rng.randrange(4)
            if kind == 0:
                bits = 0.0
            elif kind == 1:
                bits = cum[-1] - served + rng.choice((math.ulp(cum[-1]), cum[-1]))
            elif kind == 2:
                bits = rng.choice(cum) - served
                bits = rng.choice((bits, math.nextafter(bits, math.inf), math.nextafter(bits, 0.0)))
            else:
                bits = rng.uniform(0.0, 1.2) * (cum[-1] - served)
            queries.append((t, bits))
        expected = [bisected_drain(trace, t, bits) for t, bits in queries]
        for answers in (trace.drain_times(queries), reversed(list(trace.drain_times(queries[::-1])))):
            assert [None if a is None else a.hex() for a in answers] == [
                None if e is None else e.hex() for e in expected
            ]

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


class TestDrainClamps:
    """Each clamp of drain_times on an input that takes it: the raw value,
    computed as drain_times computes it, is out of range, and the answer is
    the clamped one.  On both inputs the bits asked for are the whole area
    of a steep ramp's row, so they end on the row's end."""

    def test_negative_discriminant_is_clamped(self):
        # the discriminant is the end rate squared, 2e-7, but the rates
        # squared at the start are 9e16 and cancel to -16
        end = 2.6100289872389424
        rows = (Breakpoint(0.0, 301966391.85619664, "linear"), Breakpoint(end, 0.0004634779939054376))
        trace = CapacityTrace(rows, end + 1.0)
        bits = trace.integrate(0.0, end)
        _, _, v0, slope, _ = trace._rows[0]
        assert v0 * v0 + 2.0 * slope * bits == -16.0
        assert trace.drain_time(0.0, bits) == end

    def test_root_past_the_row_end_is_clamped(self):
        trace = trace_from_csv("0,1e8,linear\n1,1e-2,hold\n2,1e-2,hold\n")
        bits = trace.integrate(0.0, 1.0)
        _, end, v0, slope, _ = trace._rows[0]
        disc = v0 * v0 + 2.0 * slope * bits
        assert 2.0 * bits / (v0 + math.sqrt(max(disc, 0.0))) == 1.0000000001
        assert trace.drain_time(0.0, bits) == end == 1.0


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

    @pytest.mark.parametrize("text", ["time_s,rate_bps,mode\n0,1e8,hold\n1,1e7,hold\n",
                                      "0,1e8,hold\n1,1e7,hold\n"])
    def test_a_byte_order_mark_is_skipped(self, text, tmp_path, capsys, monkeypatch):
        # as spreadsheet tools save a CSV, with the header and without
        assert trace_from_csv("\ufeff" + text) == trace_from_csv(text)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["ingest", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["ingest", str(marked)]) == 0
        assert capsys.readouterr() == expected
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
        assert main(["ingest", "-"]) == 0
        assert capsys.readouterr() == expected

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


# Each domain, restated here as the reference the library's checks are held
# to: its test of a number, and its wording in a refusal.  A whole-number
# domain takes an int only, and no domain takes a bool.
REFERENCE_DOMAINS = {
    "> 0": (lambda v: math.isfinite(v) and v > 0, "be finite and > 0"),
    ">= 0": (lambda v: math.isfinite(v) and v >= 0, "be finite and >= 0"),
    "> 1": (lambda v: math.isfinite(v) and v > 1, "be finite and > 1"),
    ">= 1": (lambda v: math.isfinite(v) and v >= 1, "be finite and >= 1"),
    "(0, 1)": (lambda v: 0 < v < 1, "lie in (0, 1)"),
    "whole >= 0": (lambda v: v >= 0, "be a whole number >= 0"),
    "whole": (lambda v: True, "be a whole number"),
}

TINY, HUGE = 5e-324, sys.float_info.max
EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308,
            1e-300, 1e308, -1e308, HUGE, 0.5, 1.0, 2.0, -3.0)
# A trace at 1 bit/s whose horizon is one subnormal: any packet size in
# its domain has a finite service time that moves the clock there, and
# any sampling step makes at most two rows.
UNIT_RATE = CapacityTrace((Breakpoint(0.0, 1.0),), TINY)
UNIT_RESULT = simulate_fluid(SimConfig(UNIT_RATE, FixedRate(1.0)))
LONG = CapacityTrace((Breakpoint(0.0, 1e8),), HUGE)
PACKETS = simulate_packets(PacketSimConfig(make_step_trace(1e7, 1e6, 0.1, 0.3)))
DROP = detect_events(PACKETS.config.trace)[0]

# Every public numeric input: a call that passes the value to it, with
# valid values elsewhere; the name, domain and unit its refusal states; and,
# where a check that joins it with another value refuses some of its
# domain, the part of the domain that check lets through.
DOMAIN_CASES = {
    "check_seconds": (lambda v: check_seconds(v, "x"), "x", ">= 0", "seconds", None),
    "check_rate": (lambda v: check_rate(v, "x"), "x", "> 0", "bit/s", None),
    "check_c_factor": (lambda v: check_c_factor(v, "x"), "x", ">= 1", "", None),
    "breakpoint_time": (lambda v: Breakpoint(v, 1e8), "breakpoint time", ">= 0", "seconds", None),
    "breakpoint_rate": (lambda v: Breakpoint(0.0, v), "breakpoint rate", "> 0", "bit/s", None),
    "event_onset": (lambda v: CapacityEvent(v, 2e8, 1e8, 0.0), "event onset", ">= 0", "seconds", None),
    "event_pre_rate": (lambda v: CapacityEvent(1.0, v, TINY, 0.0), "pre_rate", "> 0", "bit/s",
                       lambda v: v > TINY),
    "event_post_rate": (lambda v: CapacityEvent(1.0, HUGE, v, 0.0), "post_rate", "> 0", "bit/s",
                        lambda v: v < HUGE),
    "event_ramp": (lambda v: CapacityEvent(1.0, 2e8, 1e8, v), "ramp_duration", ">= 0", "seconds", None),
    "trace_horizon": (lambda v: CapacityTrace((Breakpoint(0.0, 1e8),), v), "horizon", "> 0", "seconds", None),
    "csv_horizon": (lambda v: trace_from_csv("0,1e8,hold\n", horizon=v), "horizon", ">= 0", "seconds",
                    lambda v: v > 0),
    "fixed_rate": (FixedRate, "rate", "> 0", "bit/s", None),
    "oracle_final": (OracleFinal, "signal_delay", ">= 0", "seconds", None),
    "oracle_tracking": (OracleTracking, "signal_delay", ">= 0", "seconds", None),
    "sim_horizon": (lambda v: SimConfig(LONG, FixedRate(1e8), horizon=v), "horizon", "> 0", "seconds", None),
    "sample_step": (lambda v: sample_result(UNIT_RESULT, v), "step", "> 0", "seconds", None),
    "additive_increase": (lambda v: AimdParams(additive_increase=v), "additive_increase", "> 0",
                          "packets per round trip", None),
    "multiplicative_decrease": (lambda v: AimdParams(multiplicative_decrease=v),
                                "multiplicative_decrease", "(0, 1)", "", None),
    "packet_size": (lambda v: PacketSimConfig(UNIT_RATE, packet_size=v), "packet_size", "> 0", "bits", None),
    "forward_delay": (lambda v: PacketSimConfig(UNIT_RATE, forward_delay=v), "forward_delay", ">= 0",
                      "seconds", None),
    "x_to_b_delay": (lambda v: PacketSimConfig(UNIT_RATE, x_to_b_delay=v), "x_to_b_delay", ">= 0",
                     "seconds", None),
    "reverse_delay": (lambda v: PacketSimConfig(UNIT_RATE, reverse_delay=v), "reverse_delay", ">= 0",
                      "seconds", None),
    "mark_threshold": (lambda v: PacketSimConfig(UNIT_RATE, mark_threshold=v), "mark_threshold", ">= 0",
                       "seconds", None),
    "initial_window": (lambda v: PacketSimConfig(UNIT_RATE, initial_window=v), "initial_window",
                       "whole >= 0", "packets", None),
    "seed": (lambda v: PacketSimConfig(UNIT_RATE, seed=v), "seed", "whole", "", None),
    "compare_delay": (lambda v: compare_to_bound(PACKETS, DROP, v), "signal_delay", ">= 0", "seconds", None),
    "reduction_pre": (lambda v: reduction_factor(v, 1.0), "pre_rate", "> 0", "bit/s", None),
    "reduction_post": (lambda v: reduction_factor(1.0, v), "post_rate", "> 0", "bit/s", None),
    "step_c": (lambda v: peak_delay_step(v, 1.0), "c_factor", ">= 1", "", None),
    "step_delay": (lambda v: peak_delay_step(2.0, v), "signal_delay", ">= 0", "seconds", None),
    "ramp_c": (lambda v: peak_delay_ramp(v, 1.0, 1.0), "c_factor", ">= 1", "", None),
    "ramp_delay": (lambda v: peak_delay_ramp(2.0, v, 1.0), "signal_delay", ">= 0", "seconds", None),
    "ramp_duration": (lambda v: peak_delay_ramp(2.0, 1.0, v), "ramp_duration", ">= 0", "seconds", None),
    "target_c": (lambda v: ramp_duration_for_target(v, HUGE, 1.0), "c_factor", ">= 1", "",
                 lambda v: v > 1),
    "target_delay_d": (lambda v: ramp_duration_for_target(2.0, v, TINY), "signal_delay", ">= 0", "seconds",
                       lambda v: v > 0),
    "target_q": (lambda v: ramp_duration_for_target(HUGE, HUGE, v), "target_delay", "> 0", "seconds", None),
    "sweep_c": (lambda v: sweep([v], d_values=[1.0]), "c_factor", ">= 1", "", None),
    "sweep_delays": (lambda v: sweep([2.0], d_values=[v]), "signal_delay", ">= 0", "seconds", None),
    "sweep_ramps": (lambda v: sweep([2.0], d_ramp_values=[v], signal_delay=1.0), "ramp_duration", ">= 0",
                    "seconds", None),
    "sweep_fixed_delay": (lambda v: sweep([2.0], d_ramp_values=[1.0], signal_delay=v), "signal_delay",
                          ">= 0", "seconds", None),
    "wifi_step_pre": (lambda v: scenario_trace("wifi-step", pre_rate=v, post_rate=TINY), "pre_rate", "> 0",
                      "bit/s", lambda v: v > TINY),
    "wifi_step_post": (lambda v: scenario_trace("wifi-step", pre_rate=HUGE, post_rate=v), "post_rate", "> 0",
                       "bit/s", lambda v: v < HUGE),
    "wifi_step_onset": (lambda v: scenario_trace("wifi-step", onset=v, horizon=HUGE), "onset", ">= 0",
                        "seconds", lambda v: 0 < v < HUGE),
    "wifi_step_horizon": (lambda v: scenario_trace("wifi-step", onset=TINY, horizon=v), "horizon", ">= 0",
                          "seconds", lambda v: v > TINY),
    "mcs_walk_rate": (lambda v: scenario_trace("wifi-mcs-walk", rates=(v, 1.0)), "breakpoint rate", "> 0",
                      "bit/s", None),
    "mcs_walk_dwell": (lambda v: scenario_trace("wifi-mcs-walk", dwell=v), "dwell", "> 0", "seconds",
                       lambda v: math.isfinite(3 * v)),
    "contention_pre": (lambda v: scenario_trace("ramp-contention", pre_rate=v), "pre_rate", "> 0", "bit/s",
                       lambda v: v / 10 > 0),
    "contention_c": (lambda v: scenario_trace("ramp-contention", c_factor=v), "c_factor", "> 1", "", None),
    "contention_onset": (lambda v: scenario_trace("ramp-contention", onset=v, ramp_duration=0.0, horizon=HUGE),
                         "onset", ">= 0", "seconds", lambda v: 0 < v < HUGE),
    "contention_ramp": (lambda v: scenario_trace("ramp-contention", ramp_duration=v, horizon=HUGE),
                        "ramp_duration", ">= 0", "seconds", None),
    "contention_horizon": (lambda v: scenario_trace("ramp-contention", horizon=v), "horizon", ">= 0",
                           "seconds", lambda v: v >= 1.5),
}


class TestDomainTable:
    """Every public numeric input against values across the float range,
    ints and bools: a value is accepted exactly when the reference domain
    (and any check joining it with the other values) takes it, and a value
    outside the domain raises ValueError ``{name} must {wording} {unit},
    got {value!r}``, the value as the check read it."""

    @pytest.mark.parametrize("case", DOMAIN_CASES.values(), ids=DOMAIN_CASES)
    @settings(max_examples=3, deadline=None)
    @given(value=st.sampled_from(EXTREMES) | st.floats() | st.integers(-2**70, 2**70))
    @example(value=True)
    @example(value=False)
    def test_each_input_checks_its_domain(self, case, value):
        call, name, domain, unit, joint = case
        test, wording = REFERENCE_DOMAINS[domain]
        whole = domain.startswith("whole")
        if isinstance(value, bool) or (whole and not isinstance(value, int)):
            read, inside = value, False
        else:
            read = value if whole else float(value)
            inside = test(read)
        if inside and (joint is None or joint(read)):
            call(value)
        elif not inside:
            with pytest.raises(ValueError) as info:
                call(value)
            assert str(info.value) == f"{name} must {wording} {unit}".rstrip() + f", got {read!r}"
        else:  # inside the domain, refused by a check that joins values
            with pytest.raises(ValueError):
                call(value)
