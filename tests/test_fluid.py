"""Exact fluid queue simulation: rate policies, peak statistics, FIFO delay."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import pickle
import random
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_trace import close_traces, late_traces

from ccbound import fluid
from ccbound import trace as trace_module
from ccbound.bounds import peak_delay_ramp, peak_delay_step
from ccbound.cli import main
from ccbound.fluid import (
    BacklogSegment,
    FixedRate,
    ModelViolationError,
    OracleFinal,
    OracleTracking,
    SimConfig,
    fifo_delay_at,
    result_to_json_dict,
    sample_result,
    sender_rate_trace,
    simulate_fluid,
)
from ccbound.packetsim import AimdParams, PacketSimConfig, simulate_packets
from ccbound.trace import (
    Breakpoint,
    CapacityTrace,
    SegmentMode,
    detect_events,
    make_ramp_trace,
    make_step_trace,
    trace_to_csv,
)


def tracking_peak_numeric(pre, post, onset, ramp, delay, horizon, dt=1e-6):
    """Independent midpoint-Euler oracle with queue reflection at zero.

    Capacity is evaluated with np.interp straight from the ramp geometry,
    the sender is the capacity shifted by the signaling delay, and the
    clamped recursion b_k = max(0, b_{k-1} + x_k) is solved in closed form
    as S_k - min(0, min_{j<=k} S_j).
    """
    xs = [0.0, onset, onset + ramp, horizon] if ramp > 0 else [0.0, onset, onset, horizon]
    ys = [pre, pre, post, post]

    def cap(t):
        return np.interp(t, xs, ys)

    mids = np.arange(dt / 2.0, horizon, dt)
    increments = (cap(np.maximum(0.0, mids - delay)) - cap(mids)) * dt
    cum = np.cumsum(increments)
    floor = np.minimum(np.minimum.accumulate(cum), 0.0)
    backlog = cum - floor
    return float(backlog.max()) / post


# 1e8 bit/s falling linearly to 1e7 bit/s from 1 s to 1.5 s, until 4 s
RAMP_1_TO_1_5 = make_ramp_trace(1e8, 1e7, 1.0, 0.5, 4.0)


class TestSenderRate:
    def test_oracle_final_switches_at_onset_plus_delay(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        config = SimConfig(trace, OracleFinal(0.017))
        rate = sender_rate_trace(config).capacity_at
        assert rate(0.0) == 1e8
        assert rate(1.016) == 1e8  # signal still in flight
        assert rate(1.017) == 1e7
        assert rate(5.0) == 1e7

    def test_oracle_final_during_ramp_keeps_pre_rate(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.4, 5.0)
        config = SimConfig(trace, OracleFinal(0.1))
        rate = sender_rate_trace(config).capacity_at
        assert rate(1.05) == 1e8
        assert rate(1.1) == 1e7

    def test_tracking_with_zero_delay_is_capacity(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.4, 5.0)
        config = SimConfig(trace, OracleTracking(0.0))
        rate = sender_rate_trace(config).capacity_at
        for k in range(51):
            t = k * 0.1
            assert rate(t) == trace.capacity_at(t)

    def test_tracking_shifts_by_delay(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.4, 5.0)
        config = SimConfig(trace, OracleTracking(0.25))
        rate = sender_rate_trace(config).capacity_at
        assert rate(0.1) == 1e8  # before anything happened
        assert rate(1.45) == trace.capacity_at(1.2)
        assert rate(1.0) == trace.capacity_at(0.75)

    def test_tracking_merges_breakpoints_the_shift_rounds_together(self):
        # 0.01 and the float below it both land on 1.01 after a 1 s shift;
        # the one-ulp segment between them vanishes, the later rate holds
        below = math.nextafter(0.01, 0.0)
        trace = CapacityTrace(
            (Breakpoint(0.0, 1e8), Breakpoint(below, 5e7), Breakpoint(0.01, 2e7)), 2.0
        )
        config = SimConfig(trace, OracleTracking(1.0))
        shifted = sender_rate_trace(config)
        assert shifted.times == (0.0, 1.0, 1.01)
        assert (shifted.left_limit_at(1.01), shifted.capacity_at(1.01)) == (1e8, 2e7)
        assert simulate_fluid(config).peak_backlog > 0.0  # the sender lags a falling link

    def test_tracking_keeps_a_ramp_the_shift_rounds_onto_a_hold(self):
        # the ramp toward 1e6 ends one ulp before the step to 5e7; after a
        # 1 s shift both land on 1.01, and the ramp must still end at 1e6
        below = math.nextafter(0.01, 0.0)
        trace = CapacityTrace(
            (
                Breakpoint(0.0, 1e8, SegmentMode.LINEAR),
                Breakpoint(below, 1e6),
                Breakpoint(0.01, 5e7),
            ),
            2.0,
        )
        shifted = sender_rate_trace(SimConfig(trace, OracleTracking(1.0)))
        after = math.nextafter(1.01, math.inf)
        assert shifted.times == (0.0, 1.0, 1.01, after)
        assert shifted.left_limit_at(1.01) == trace.left_limit_at(below) == 1e6
        assert shifted.capacity_at(after) == trace.capacity_at(0.01) == 5e7
        assert shifted.capacity_at(1.005) == pytest.approx(trace.capacity_at(0.005))
        assert shifted.integrate(1.0, 1.5) == pytest.approx(trace.integrate(0.0, 0.5))

    @given(
        trace=st.one_of(close_traces(), late_traces()),
        share=st.floats(0.0, 0.9),
        cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    # the run ends a few ulp into the shifted ramp, 1.25 to 1.75 s
    @example(trace=RAMP_1_TO_1_5, share=0.0625, cut=math.nextafter(math.nextafter(0.3125, 1.0), 1.0))
    # the shifted ramp's start lands exactly on the run's end
    @example(trace=RAMP_1_TO_1_5, share=0.0625, cut=0.3125)
    # a delay of one ulp of zero: 5e-324 s
    @example(trace=CapacityTrace((Breakpoint(0.0, 1e8, "linear"), Breakpoint(0.5, 1e7)), 1.0),
             share=5e-324, cut=None)
    @settings(max_examples=300, deadline=None)
    def test_tracking_is_the_shifted_capacity(self, trace, share, cut):
        # c(t - d) at the middle of every segment, cut at the run's end
        # h_run, that the shift's rounding (an ulp or two at the scale of t)
        # cannot visibly move; a delay much longer than the first
        # breakpoints rounds close ones together.  Every run's end is
        # drawn: before, on and inside shifted segments, so the sender's
        # trace must end on a hold for each without a repair
        h = trace.horizon
        delay = share * h
        h_run = h if cut is None or cut * h == 0.0 else cut * h
        shifted = sender_rate_trace(SimConfig(trace, OracleTracking(delay), horizon=h_run))
        assert shifted.horizon == h_run
        top = max(bp.rate for bp in trace.breakpoints)
        ends = (*trace.times[1:], h)
        for a, b in zip(trace.times, ends):
            b = min(b, h_run - delay)
            mid = 0.5 * (a + b)
            if b - a >= 1e-8 * (h + delay) and mid + delay < h_run:
                assert shifted.capacity_at(mid + delay) == pytest.approx(
                    trace.capacity_at(mid), rel=0.0, abs=1e-6 * top
                )

    def test_fixed_rate_constant(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        config = SimConfig(trace, FixedRate(3e6))
        rate = sender_rate_trace(config).capacity_at
        assert rate(0.0) == 3e6
        assert rate(4.2) == 3e6

    def test_out_of_window_rejected(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        config = SimConfig(trace, FixedRate(3e6), horizon=2.0)
        rate = sender_rate_trace(config).capacity_at
        with pytest.raises(ValueError):
            rate(2.5)


class TestStepCase:
    def test_peak_matches_hand_integration(self):
        # queue grows at (pre - post) for exactly the signaling delay
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        assert result.peak_backlog == pytest.approx((1e8 - 1e7) * 0.017, rel=1e-12)
        assert result.peak_time == pytest.approx(1.017, rel=1e-12)
        assert result.peak_delay_final_norm == pytest.approx(9 * 0.017, rel=1e-9)
        assert result.peak_delay_final_norm == pytest.approx(
            peak_delay_step(10.0, 0.017), rel=1e-9
        )

    def test_backlog_plateaus_after_peak(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        assert result.backlog_at(2.0) == pytest.approx(result.peak_backlog, rel=1e-12)
        assert result.backlog_at(5.0) == pytest.approx(result.peak_backlog, rel=1e-12)

    @given(
        st.floats(min_value=1.1, max_value=100.0),
        st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_with_step_formula(self, c, d):
        trace = make_step_trace(1e8, 1e8 / c, 0.5, 0.5 + d + 0.2)
        result = simulate_fluid(SimConfig(trace, OracleFinal(d)))
        assert math.isclose(result.peak_delay_final_norm, peak_delay_step(c, d), rel_tol=1e-9)


class TestRampCase:
    def test_three_quarter_reduction(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.2, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        assert result.peak_delay_final_norm == pytest.approx(0.225, rel=1e-9)
        assert result.peak_time == pytest.approx(1.1, rel=1e-12)

    def test_half_reduction(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.1, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        assert result.peak_delay_final_norm == pytest.approx(0.45, rel=1e-9)

    @given(
        st.floats(min_value=1.1, max_value=50.0),
        st.floats(min_value=0.005, max_value=0.2),
        st.floats(min_value=0.1, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_with_ramp_formula(self, c, d, ramp_over_d):
        ramp = ramp_over_d * d
        trace = make_ramp_trace(1e8, 1e8 / c, 0.5, ramp, 0.5 + ramp + d + 0.2)
        result = simulate_fluid(SimConfig(trace, OracleFinal(d)))
        assert math.isclose(result.peak_delay_final_norm, peak_delay_ramp(c, d, ramp), rel_tol=1e-9)


class TestTrackingCase:
    def test_ramp_peak_ignores_ramp_duration(self):
        # a sender that merely follows delayed capacity still eats (c-1)*d
        for ramp in (0.05, 0.1, 0.4):
            trace = make_ramp_trace(1e8, 1e7, 0.5, ramp, 2.0)
            result = simulate_fluid(SimConfig(trace, OracleTracking(0.05)))
            assert result.peak_delay_final_norm == pytest.approx(9 * 0.05, rel=1e-9)
            assert result.peak_time == pytest.approx(0.5 + ramp + 0.05, rel=1e-9)

    def test_against_numeric_integration(self):
        trace = make_ramp_trace(1e8, 1e7, 0.5, 0.1, 2.0)
        result = simulate_fluid(SimConfig(trace, OracleTracking(0.05)))
        oracle = tracking_peak_numeric(1e8, 1e7, 0.5, 0.1, 0.05, 2.0)
        assert result.peak_delay_final_norm == pytest.approx(oracle, rel=1e-6)


class TestFixedRate:
    def test_below_capacity_never_queues(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, FixedRate(1e6)))
        assert result.peak_backlog == 0.0
        assert result.peak_delay_final_norm == 0.0
        assert all(s.c0 == 0.0 and s.c1 == 0.0 and s.c2 == 0.0 for s in result.segments)

    def test_at_capacity_never_queues(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, FixedRate(1e7)))
        assert result.peak_backlog == 0.0

    def test_overload_grows_linearly(self):
        trace = CapacityTrace((Breakpoint(0.0, 1e7),), 2.0)
        result = simulate_fluid(SimConfig(trace, FixedRate(2e7)))
        assert result.backlog_at(1.0) == pytest.approx(1e7, rel=1e-12)
        assert result.peak_time == pytest.approx(2.0)
        # no reduction event: normalized by the capacity at the peak instant
        assert result.peak_delay_final_norm == pytest.approx(2.0, rel=1e-12)


class TestZeroDelayOracles:
    @pytest.mark.parametrize("controller", [OracleFinal(0.0), OracleTracking(0.0)])
    def test_no_backlog_on_single_reduction(self, controller):
        for trace in (
            make_step_trace(1e8, 1e7, 1.0, 5.0),
            make_ramp_trace(1e8, 1e7, 1.0, 0.3, 5.0),
        ):
            result = simulate_fluid(SimConfig(trace, controller))
            assert result.peak_backlog == 0.0


class TestConservationAndShape:
    @pytest.mark.parametrize(
        "trace,controller",
        [
            (make_step_trace(1e8, 1e7, 1.0, 5.0), OracleFinal(0.017)),
            (make_ramp_trace(1e8, 1e7, 1.0, 0.2, 5.0), OracleFinal(0.1)),
            (make_ramp_trace(1e8, 1e7, 1.0, 0.2, 5.0), OracleTracking(0.04)),
            (make_step_trace(1e8, 1e7, 1.0, 5.0), FixedRate(5e7)),
        ],
    )
    def test_bits_in_minus_out_equals_backlog(self, trace, controller):
        result = simulate_fluid(SimConfig(trace, controller))
        lhs = result.bits_in - result.bits_out
        rhs = result.backlog_at(result.horizon)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9 * max(result.bits_in, 1.0))

    def test_backlog_continuous_and_non_negative(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.2, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleTracking(0.05)))
        scale = max(result.peak_backlog, 1.0)
        for a, b in zip(result.segments, result.segments[1:]):
            assert a.t_end == b.t_start
            assert math.isclose(a.value_at(a.t_end), b.value_at(b.t_start),
                                rel_tol=1e-9, abs_tol=1e-9 * scale)
        for k in range(501):
            assert result.backlog_at(k * 0.01) >= 0.0

    @pytest.mark.parametrize("t", [-0.5, math.nextafter(5.0, 6.0)])
    def test_backlog_outside_the_window_rejected(self, t):
        result = simulate_fluid(SimConfig(make_step_trace(1e8, 1e7, 1.0, 5.0), OracleFinal(0.017)))
        with pytest.raises(ValueError) as info:
            result.backlog_at(t)
        assert str(info.value) == f"t={t!r} outside [0, 5.0]"

    def test_segments_tile_the_window(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        assert result.segments[0].t_start == 0.0
        assert result.segments[-1].t_end == result.horizon


@st.composite
def solver_cases(draw):
    """A trace and a controller; fixed rates also sit on, or within 1e-9
    relative of, a breakpoint rate, where the queue state flips at a
    rounding distance from a cell's start."""
    trace = draw(st.one_of(close_traces(), late_traces()))
    rate = draw(st.sampled_from([bp.rate for bp in trace.breakpoints]))
    h = trace.horizon
    delay = draw(st.one_of(st.just(0.0), st.floats(-6.0, 0.0).map(lambda k: h * 10.0**k)))
    controller = draw(
        st.one_of(
            st.floats(1e3, 2e9).map(FixedRate),
            st.just(FixedRate(rate)),
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -9.0)).map(
                lambda sk: FixedRate(rate * (1.0 + sk[0] * 10.0 ** sk[1]))
            ),
            st.just(OracleTracking(delay)),
            st.just(OracleFinal(delay)),
        )
    )
    try:
        return SimConfig(trace, controller)
    except ModelViolationError:  # overlapping OracleFinal signal windows
        assume(False)


# the 4e-27 bits queued at 0.02 s drain within an ulp of it
REPRO_DROPPED_CELL = SimConfig(
    CapacityTrace(
        (
            Breakpoint(0.0, 77544275.52427314, SegmentMode.LINEAR),
            Breakpoint(0.01, 51635980.659433395),
            Breakpoint(0.02, 57593000.33364725),
        ),
        0.03,
    ),
    FixedRate(51635980.659433395),
)
# an idle stretch ends within an ulp of its start, and arrivals overtake
# the capacity right after it
REPRO_OVERLOAD_IDLED = SimConfig(
    CapacityTrace(
        (
            Breakpoint(0.0, 743035574.7279638, SegmentMode.LINEAR),
            Breakpoint(100.00313863682054, 882262814.7587273, SegmentMode.LINEAR),
            Breakpoint(100.00443168119203, 240125990.1529704),
        ),
        100.01443168119204,
    ),
    FixedRate(743035574.9881022),
)


class TestSolverInvariants:
    """Tiling, conservation, no idle overload and a bounded piece count on
    every input, including queue flips that round onto a piece's start."""

    @given(config=solver_cases())
    @example(config=REPRO_DROPPED_CELL)
    @example(config=REPRO_OVERLOAD_IDLED)
    @settings(max_examples=150, deadline=None)
    def test_segments_tile_conserve_and_never_idle_an_overload(self, config):
        result = simulate_fluid(config)
        h, segs = result.horizon, result.segments
        assert segs[0].t_start == 0.0
        assert all(a.t_end == b.t_start for a, b in zip(segs, segs[1:]))
        assert segs[-1].t_end == h
        tol = 1e-9 * result.bits_in
        assert abs(result.bits_in - result.bits_out - result.backlog_at(h)) <= tol
        arrival = sender_rate_trace(config)
        for s in segs:
            if (s.c0, s.c1, s.c2) == (0.0, 0.0, 0.0):
                served = config.trace.integrate(s.t_start, s.t_end)
                assert arrival.integrate(s.t_start, s.t_end) <= served + tol, s
        cuts = {0.0, h, *(t for t in (*config.trace.times, *arrival.times) if t < h)}
        assert len(segs) <= 8 * (len(cuts) - 1)


class TestRoundingGuards:
    """Each rounding guard of the solver on an input that takes it: the raw
    value the guard corrects, recomputed as the solver computes it, and the
    corrected output."""

    def test_backlog_clamp_where_a_ramp_drains_the_queue_at_its_end(self):
        # the sender fills the queue over the first hold, and the ramp that
        # falls to the sender's rate drains it to zero at the ramp's end: a
        # busy piece with no crossing, ending one ulp of its backlog below 0
        rate = 10026806.553005092
        bps = (
            Breakpoint(0.0, 3906739.1744284793),
            Breakpoint(0.9221828262566465, 22471213.525976375, SegmentMode.LINEAR),
            Breakpoint(1.8292282233278003, rate),
            Breakpoint(2.8292282233278003, rate),
        )
        result = simulate_fluid(SimConfig(CapacityTrace(bps, 2.8292282233278003), FixedRate(rate)))
        fill, ramp, after = result.segments
        dt = ramp.t_end - ramp.t_start
        assert ramp.c0 + (ramp.c1 + ramp.c2 * dt) * dt == -9.313225746154785e-10
        assert ramp.value_at(ramp.t_end) == 0.0 == after.c0
        assert ramp.max_on_segment() == (ramp.c0, ramp.t_start)

    def test_noise_snap_where_the_queue_starts_inside_a_cell(self):
        # the capacity falls through the sender's 2e3 bit/s; the rate
        # difference recomputed where the queue starts is 1.2e-16 of the
        # cell's top rate, and the busy piece starts with slope 0
        trace = CapacityTrace((Breakpoint(0.0, 1e9, SegmentMode.LINEAR), Breakpoint(3.0, 1e3)), 4.0)
        result = simulate_fluid(SimConfig(trace, FixedRate(2e3)))
        idle, busy, _ = result.segments
        g = ((2e3 - 2e3) - (1e3 - 1e9)) / 3.0
        f = (2e3 - 1e9) + g * (busy.t_start - 0.0)
        assert f == 1.1920928955078125e-07 <= fluid._RATE_NOISE * 1e9
        assert (idle.c0, idle.c1, idle.c2) == (0.0, 0.0, 0.0)
        assert (busy.c0, busy.c1) == (0.0, 0.0)

    def test_one_ulp_piece_where_an_idle_stretch_rounds_away(self):
        # in the cell of the last ramp the queue is idle at cur, and the
        # instant the arrivals overtake the capacity rounds onto cur
        config = REPRO_OVERLOAD_IDLED
        u, v = 100.00313863682054, 100.00443168119203
        a, c0, c1 = config.controller.rate, config.trace.capacity_at(u), config.trace.left_limit_at(v)
        g = ((a - a) - (c1 - c0)) / (v - u)
        result = simulate_fluid(config)
        pieces = [s for s in result.segments if u < s.t_start < v]
        one_ulp = [s for s in pieces if s.t_end == math.nextafter(s.t_start, v)]
        assert len(one_ulp) == 1
        cur = one_ulp[0].t_start
        f = (a - c0) + g * (cur - u)
        assert f < 0.0 < g and cur - f / g == cur
        assert (one_ulp[0].c0, one_ulp[0].c1, one_ulp[0].c2) == (0.0, 0.0, 0.0)


class TestRecoveryAndMultiEvent:
    def test_queue_drains_through_capacity_recovery(self):
        # capacity comes back up: the backlog must hit zero inside a segment
        trace = CapacityTrace(
            (Breakpoint(0.0, 1e8), Breakpoint(1.0, 1e7), Breakpoint(1.3, 1e8)), 5.0
        )
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.05)))
        assert result.peak_backlog == pytest.approx(9e7 * 0.05, rel=1e-9)
        assert result.peak_time == pytest.approx(1.05, rel=1e-12)
        drain_end = 1.3 + result.backlog_at(1.3) / 9e7
        assert result.backlog_at(drain_end - 1e-4) > 0.0
        assert result.backlog_at(drain_end + 1e-4) == 0.0
        assert result.backlog_at(5.0) == 0.0

    def test_two_reductions_accumulate(self):
        trace = CapacityTrace(
            (Breakpoint(0.0, 866.7e6), Breakpoint(1.0, 144.4e6), Breakpoint(2.0, 14.4e6)), 3.0
        )
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.01)))
        expected_bits = (866.7e6 - 144.4e6) * 0.01 + (144.4e6 - 14.4e6) * 0.01
        assert result.peak_backlog == pytest.approx(expected_bits, rel=1e-9)
        assert result.final_norm_rate == 14.4e6
        assert result.peak_delay_final_norm == pytest.approx(expected_bits / 14.4e6, rel=1e-9)

    def test_overlapping_signal_windows_rejected(self):
        trace = CapacityTrace(
            (Breakpoint(0.0, 866.7e6), Breakpoint(1.0, 144.4e6), Breakpoint(2.0, 14.4e6)), 3.0
        )
        with pytest.raises(ModelViolationError, match="overlapping"):
            SimConfig(trace, OracleFinal(1.5))

    def test_overlap_after_the_horizon_ignored(self):
        # the reductions at 1.0 s and 1.06 s overlap for d = 0.1 s, but the
        # second starts after the 1.02 s horizon and never reaches the sender
        trace = CapacityTrace(
            (
                Breakpoint(0.0, 1e8),
                Breakpoint(1.0, 1e7),
                Breakpoint(1.05, 1e8),
                Breakpoint(1.06, 1e6),
            ),
            2.0,
        )
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1), horizon=1.02))
        assert result.peak_backlog == pytest.approx(9e7 * 0.02, rel=1e-9)
        with pytest.raises(ModelViolationError, match="overlapping"):
            SimConfig(trace, OracleFinal(0.1), horizon=1.1)

    @pytest.mark.parametrize("horizon, onsets", [(0.5, []), (1.0, []), (1.01, [1.0])])
    def test_events_are_those_before_the_horizon(self, horizon, onsets):
        # a reduction from the horizon on is never simulated, so it is not
        # reported either, the rule SimConfig applies to signal windows
        trace = make_step_trace(144.4e6, 14.4e6, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017), horizon=horizon))
        assert [ev.onset for ev in result.events] == onsets
        assert [ev["onset_s"] for ev in result_to_json_dict(result)["events"]] == onsets

    def test_horizon_beyond_trace_rejected(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        with pytest.raises(ModelViolationError, match="horizon"):
            SimConfig(trace, OracleFinal(0.017), horizon=6.0)

    def test_zero_horizon_rejected(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        with pytest.raises(ValueError) as info:
            SimConfig(trace, OracleFinal(0.017), horizon=0.0)
        assert type(info.value) is ValueError
        assert str(info.value) == "horizon must be > 0, got 0.0"


class TestFifoDelay:
    def test_zero_backlog_zero_delay(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        assert fifo_delay_at(result, 0.5) == 0.0

    def test_constant_rate_drain(self):
        trace = CapacityTrace((Breakpoint(0.0, 1e7),), 2.0)
        result = simulate_fluid(SimConfig(trace, FixedRate(2e7)))
        # backlog at 0.5 s is 5e6 bits; at 10 Mbit/s that is half a second
        assert fifo_delay_at(result, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_step_peak_equals_step_floor(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        assert fifo_delay_at(result, result.peak_time) == pytest.approx(
            9 * 0.017, rel=1e-9
        )
        assert result.peak_fifo_delay == pytest.approx(9 * 0.017, rel=1e-9)
        assert result.fifo_beyond_horizon  # the late plateau outlives the trace

    def test_beyond_horizon_is_none(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 1.2)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        assert fifo_delay_at(result, 1.1) is None

    def test_drain_across_linear_segment(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.5, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        t = 1.05
        b = result.backlog_at(t)
        delta = fifo_delay_at(result, t)
        assert delta is not None
        assert trace.integrate(t, t + delta) == pytest.approx(b, rel=1e-9)


class TestQueryCount:
    """Deterministic complexity check: trace queries per solve and sampling."""

    @staticmethod
    def count_queries(n, monkeypatch):
        rng = random.Random(n)
        t, bps = 0.0, []
        for k in range(n):
            mode = rng.choice(("hold", "linear")) if k < n - 1 else "hold"
            bps.append(Breakpoint(t, rng.uniform(1e7, 1e8), mode))
            t += rng.uniform(0.005, 0.015)
        trace = CapacityTrace(tuple(bps), t)
        config = SimConfig(trace, FixedRate(2e8))  # above every rate: backlog persists
        counts = Counter()
        with monkeypatch.context() as patch:
            for name in ("capacity_at", "left_limit_at", "integrate", "drain_time"):
                method = getattr(CapacityTrace, name)

                def counted(self, *args, _name=name, _method=method):
                    counts[_name] += 1
                    return _method(self, *args)

                patch.setattr(CapacityTrace, name, counted)
            drain_times = CapacityTrace.drain_times

            def counted_answers(self, queries):
                # the FIFO candidates and the samples: one count per answer
                for answer in drain_times(self, queries):
                    counts["drain_times"] += 1
                    yield answer

            patch.setattr(CapacityTrace, "drain_times", counted_answers)
            result = simulate_fluid(config)
            sample_result(result, trace.horizon / 200)
        return counts

    def test_queries_grow_linearly_under_persistent_backlog(self, monkeypatch):
        small = self.count_queries(250, monkeypatch)
        large = self.count_queries(1000, monkeypatch)
        assert small["drain_times"] > 0 and large["drain_times"] > 0
        assert sum(large.values()) <= 4.5 * sum(small.values()), (small, large)

    def test_sampling_a_fine_grid_rarely_bisects(self, monkeypatch):
        # A 1 ms grid over 10 ms rows under a tracking sender, as the CLI
        # samples cellular-style traces: most samples lie in the previous
        # sample's row and drain in the previous drain row, so they make no
        # bisection.  Bisecting both rows of every sample is two per sample.
        rng = random.Random(22)
        n = 300
        bps = [Breakpoint(k / 100, rng.uniform(1e7, 1e8),
                          rng.choice(("hold", "linear")) if k < n - 1 else "hold")
               for k in range(n)]
        result = simulate_fluid(SimConfig(CapacityTrace(tuple(bps), n / 100), OracleTracking(0.02)))
        calls = Counter()
        bisect = trace_module.bisect_right

        def counted(*args):
            calls["bisect_right"] += 1
            return bisect(*args)

        monkeypatch.setattr(trace_module, "bisect_right", counted)
        samples = sample_result(result, 0.001)
        waits = sum(s.backlog > 0.0 for s in samples)
        assert waits > 0.9 * len(samples)
        assert calls["bisect_right"] <= 0.25 * len(samples), (calls, len(samples))

    def test_solve_and_sampling_build_no_segment_objects(self, monkeypatch):
        built = Counter()
        init = BacklogSegment.__init__

        def counted(self, *args, **kwargs):
            built["BacklogSegment"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(BacklogSegment, "__init__", counted)
        config = SimConfig(make_ramp_trace(1e8, 1e7, 1.0, 0.4, 5.0), FixedRate(5e7))
        result = simulate_fluid(config)
        sample_result(result, 0.01)
        result.backlog_at(2.5)
        assert built["BacklogSegment"] == 0
        # the counter sees the pieces once they are asked for
        segments = result.segments
        assert built["BacklogSegment"] == len(segments) > 1


def storage_configs():
    """Runs whose backlog pieces are pinned by digest: a step, a ramp, a
    300-breakpoint random walk that goes busy and idle, and ms-scale
    breakpoints at t = 1000 s, where one ulp is about 1e-13 s."""
    rng = random.Random(13)
    walk, t = [], 0.0
    for k in range(300):
        mode = rng.choice((SegmentMode.HOLD, SegmentMode.LINEAR)) if k < 299 else SegmentMode.HOLD
        walk.append(Breakpoint(t, rng.uniform(1e7, 1e8), mode))
        t += rng.uniform(0.005, 0.015)
    late = CapacityTrace((Breakpoint(0.0, 1e8), Breakpoint(1000.0, 5e7, SegmentMode.LINEAR),
                          Breakpoint(1000.003, 2e8), Breakpoint(1000.004, 1e7)), 1000.01)
    return [
        SimConfig(make_step_trace(1e8, 1e7, 1.0, 5.0), OracleFinal(0.017)),
        SimConfig(make_ramp_trace(1e8, 1e7, 1.0, 0.4, 5.0), OracleTracking(0.1)),
        SimConfig(CapacityTrace(tuple(walk), t), FixedRate(6e7)),
        SimConfig(late, OracleTracking(0.002)),
    ]


class TestResultStorage:
    """The pieces are stored as columns and built into segments when read."""

    def test_segments_equal_the_pinned_pieces(self):
        # the digest of every piece's five fields, as the solver built them
        # when it stored a BacklogSegment per piece
        digest = hashlib.sha256()
        counts = []
        for config in storage_configs():
            segments = simulate_fluid(config).segments
            assert type(segments) is tuple
            assert all(type(seg) is BacklogSegment for seg in segments)
            counts.append(len(segments))
            for seg in segments:
                fields = (seg.t_start, seg.t_end, seg.c0, seg.c1, seg.c2)
                digest.update(" ".join(map(float.hex, fields)).encode() + b"\n")
        assert counts == [3, 6, 304, 9]
        assert digest.hexdigest() == (
            "dff316d069694e8bec9e4f76ea0d9f885cdaad618ebe49766f8bb80755b320f4"
        )

    def test_result_compares_hashes_pickles_and_replaces(self):
        config = SimConfig(make_ramp_trace(1e8, 1e7, 1.0, 0.4, 5.0), OracleFinal(0.1))
        result = simulate_fluid(config)
        again = simulate_fluid(config)
        assert result == again
        assert hash(result) == hash(again)
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert restored.segments == result.segments
        replaced = dataclasses.replace(result, fifo_beyond_horizon=not result.fifo_beyond_horizon)
        assert replaced != result
        assert replaced.segments == result.segments
        assert replaced.backlog_at(1.05) == result.backlog_at(1.05)
        other = simulate_fluid(SimConfig(config.trace, OracleFinal(0.2)))
        assert other != result
        assert other.segments != result.segments


class TestEventsOnce:
    def test_a_trace_finds_its_events_once(self, monkeypatch):
        built = []

        class CountedEvent(trace_module.CapacityEvent):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(trace_module, "CapacityEvent", CountedEvent)
        # three steps down, each followed by a step back up
        rates = (1e8, 5e7, 1e8, 4e7, 1e8, 2e7)
        trace = CapacityTrace(tuple(Breakpoint(0.5 * k, r) for k, r in enumerate(rates)), 4.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        first = detect_events(trace)
        first.clear()  # the caller's list, not the trace's events
        again = detect_events(trace)
        assert len(built) == 3
        assert again == built == list(result.events)


class TestSampling:
    def test_zero_run_samples_all_zero(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, FixedRate(1e6)))
        samples = sample_result(result, 0.25)
        assert all(s.backlog == 0.0 and s.delay_final_norm == 0.0 and s.fifo_delay == 0.0
                   for s in samples)
        assert samples[0].t == 0.0
        assert samples[-1].t == pytest.approx(5.0)

    def test_sample_max_never_exceeds_peak(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.2, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        samples = sample_result(result, 0.013)
        assert max(s.backlog for s in samples) <= result.peak_backlog

    def test_refining_step_halves_the_gap(self):
        # symmetric kink peak at 1.05 (rise 90 Mbit/s, drain 90 Mbit/s); with
        # frac(peak/step) = 1/3 the nearest-sample distance halves with the
        # step, so the max-vs-peak gap halves too
        trace = CapacityTrace(
            (Breakpoint(0.0, 1e8), Breakpoint(1.0, 1e7), Breakpoint(1.05, 1e8)), 1.4
        )
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.05)))
        assert result.peak_time == pytest.approx(1.05, rel=1e-12)
        step1 = 1.05 * 3.0 / 106.0
        gaps = []
        for step in (step1, step1 / 2.0):
            samples = sample_result(result, step)
            gaps.append(result.peak_backlog - max(s.backlog for s in samples))
        assert gaps[0] > 0 and gaps[1] > 0
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.02)

    def test_rejects_non_positive_step(self):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        with pytest.raises(ValueError):
            sample_result(result, 0.0)
        with pytest.raises(ValueError):
            sample_result(result, -1.0)

    def test_rejects_more_rows_than_the_cap(self, monkeypatch):
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.017)))
        # refused before any row is built: 5e12 rows, and inf when 5 s / step overflows
        with pytest.raises(ValueError, match=r"5e\+12 rows, over the cap of 1000000"):
            sample_result(result, 1e-12)
        with pytest.raises(ValueError, match=r"inf rows, over the cap of 1000000"):
            sample_result(result, 5e-324)
        monkeypatch.setattr(fluid, "MAX_SAMPLES", 11)
        assert len(sample_result(result, 0.5)) == 11
        monkeypatch.setattr(fluid, "MAX_SAMPLES", 10)
        with pytest.raises(ValueError, match="11 rows, over the cap of 10"):
            sample_result(result, 0.5)


def sample_instants(horizon, step):
    """The sampling grid: every multiple of ``step`` up to the horizon, then
    the horizon itself when the next multiple passes it by rounding only."""
    ts, k = [], 0
    while k * step <= horizon:
        ts.append(k * step)
        k += 1
    if ts[-1] != horizon and k * step - horizon < step * 1e-9:
        ts.append(horizon)
    return ts


def assert_samples_match_queries(result, step):
    """Every sample equals the single queries it stands for, bit for bit:
    float.hex matches NaN to NaN and tells -0.0 from 0.0."""
    samples = sample_result(result, step)
    assert [s.t for s in samples] == sample_instants(result.horizon, step)
    for s in samples:
        b = result.backlog_at(s.t)
        fifo = fifo_delay_at(result, s.t)
        expected = (s.t, b, b / result.final_norm_rate, math.nan if fifo is None else fifo)
        assert tuple(map(float.hex, s)) == tuple(map(float.hex, expected)), (s, expected)
    return samples


class TestSamplingDifferential:
    """sample_result against backlog_at and fifo_delay_at, one query each."""

    @pytest.mark.parametrize("kind", [FixedRate, OracleTracking, OracleFinal])
    @given(trace=close_traces(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_samples_equal_single_queries(self, kind, trace, data):
        if kind is FixedRate:
            # above every capacity, the backlog outlives the horizon and the
            # last samples are censored (NaN)
            peak = max(bp.rate for bp in trace.breakpoints)
            controller = FixedRate(data.draw(st.floats(0.2, 2.0)) * peak)
        else:
            controller = kind(data.draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
        try:
            config = SimConfig(trace, controller)
        except ModelViolationError:  # overlapping OracleFinal signal windows
            assume(False)
        result = simulate_fluid(config)
        h = result.horizon
        # the first sample after 0 lands exactly on a capacity breakpoint or
        # a backlog-segment start; or the horizon is (or is not) a multiple
        instants = [x for x in (*trace.times, *(s.t_start for s in result.segments))
                    if 0.0 < x <= h and h / x <= 300.0]
        steps = [st.integers(1, 300).map(lambda m: h / m), st.floats(1.0, 300.0).map(lambda m: h / m)]
        if instants:
            steps.append(st.sampled_from(instants))
        step = data.draw(st.one_of(steps))
        assume(step > 0.0)  # h / m underflows on a horizon of a few subnormals
        assert_samples_match_queries(result, step)

    @pytest.mark.parametrize(
        "controller", [FixedRate(6e7), OracleTracking(0.0625), OracleFinal(0.0625)]
    )
    def test_grid_step_lands_on_every_breakpoint(self, controller):
        # dyadic instants: every breakpoint and the horizon are multiples of
        # the step, and 1.5 has a neighbour one ulp below it
        trace = CapacityTrace(
            (
                Breakpoint(0.0, 1e8),
                Breakpoint(0.5, 1e8, SegmentMode.LINEAR),
                Breakpoint(0.75, 2e7),
                Breakpoint(1.25, 5e7),
                Breakpoint(math.nextafter(1.5, 0.0), 3e7),
                Breakpoint(1.5, 4e7),
            ),
            2.0,
        )
        result = simulate_fluid(SimConfig(trace, controller))
        samples = assert_samples_match_queries(result, 0.0625)
        assert len(samples) == 33
        if isinstance(controller, FixedRate):
            assert math.isnan(samples[-1].fifo_delay)


def segment_reference(result):
    """Peak backlog, peak time, peak FIFO wait and censoring recomputed from
    ``result.segments`` alone: the earliest maximum over the segments'
    ``max_on_segment``, and the worst drain time over every segment start,
    every interior backlog maximum and the horizon."""
    segs = result.segments
    peak_b, peak_t = 0.0, 0.0
    for seg in segs:
        val, at = seg.max_on_segment()
        if val > peak_b:
            peak_b, peak_t = val, at
    candidates = []
    for seg in segs:
        candidates.append((seg.t_start, seg.value_at(seg.t_start)))
        if seg.c2 < 0.0:
            dtv = -seg.c1 / (2.0 * seg.c2)
            if 0.0 < dtv < seg.t_end - seg.t_start:
                candidates.append((seg.t_start + dtv, seg.value_at(seg.t_start + dtv)))
    candidates.append((result.horizon, segs[-1].value_at(result.horizon)))
    peak_fifo, censored = 0.0, False
    for wait in result.trace.drain_times(candidates):
        if wait is None:
            censored = True
        elif wait > peak_fifo:
            peak_fifo = wait
    return peak_b, peak_t, peak_fifo, censored


def segment_backlog(segs, t):
    """Backlog at ``t`` read off the segment that holds it."""
    return segs[bisect_right([seg.t_start for seg in segs], t) - 1].value_at(t)


class TestSegmentDifferential:
    """The statistics the solver takes as it builds each piece, and the
    reads from its columns, against the same taken from the segments."""

    @pytest.mark.parametrize("kind", [FixedRate, OracleTracking, OracleFinal])
    @given(
        trace=st.one_of(close_traces(), late_traces()),
        knob=st.floats(0.0, 1.0),
        m=st.integers(1, 300),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    # a backlog plateau over pieces in three cells: peak ties at 1.5, 2.0
    # and 2.5 s under both oracles (signal delay 0.5 s)
    @example(
        trace=CapacityTrace((Breakpoint(0.0, 1e8), Breakpoint(1.0, 5e7), Breakpoint(2.0, 5e7)), 3.0),
        knob=0.25, m=30, fractions=[],
    )
    # under FixedRate at 5e7 the backlog peaks inside its piece, where the
    # worst FIFO wait is, and drains before the ramp ends
    @example(
        trace=CapacityTrace((Breakpoint(0.0, 1e7, SegmentMode.LINEAR), Breakpoint(1.0, 1e8)), 3.0),
        knob=1 / 6, m=30, fractions=[0.1],
    )
    @settings(max_examples=60, deadline=None)
    def test_statistics_and_reads_equal_the_segment_reference(self, kind, trace, knob, m, fractions):
        if kind is FixedRate:
            peak = max(bp.rate for bp in trace.breakpoints)
            controller = FixedRate((0.2 + 1.8 * knob) * peak)
        else:
            controller = kind(2.0 * knob)
        try:
            config = SimConfig(trace, controller)
        except ModelViolationError:  # overlapping OracleFinal signal windows
            assume(False)
        result = simulate_fluid(config)
        h = result.horizon
        segs = result.segments
        got = (result.peak_backlog, result.peak_time, result.peak_fifo_delay)
        *expected, censored = segment_reference(result)
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, expected))
        assert result.fifo_beyond_horizon is censored
        instants = [0.0, h, *(seg.t_start for seg in segs), *(seg.t_end for seg in segs),
                    *(min(f * h, h) for f in fractions)]
        for t in instants:
            assert result.backlog_at(t).hex() == segment_backlog(segs, t).hex(), t
        step = h / m
        assume(step > 0.0)  # h / m underflows on a horizon of a few subnormals
        ts = sample_instants(h, step)
        backlogs = [segment_backlog(segs, t) for t in ts]
        waits = result.trace.drain_times(zip(ts, backlogs))
        reference = [
            (t, b, b / result.final_norm_rate, math.nan if w is None else w)
            for t, b, w in zip(ts, backlogs, waits)
        ]
        samples = sample_result(result, step)
        assert [tuple(map(float.hex, s)) for s in samples] == [
            tuple(map(float.hex, r)) for r in reference
        ]


class PiecewiseRate:
    """A rate on [0, horizon] given as (start, rate, slope) pieces in
    ascending start order, each running until the next one starts (a later
    piece wins a tie), with its cumulative bits and their inverse.  Written
    here from the pieces alone: no trace query is used."""

    def __init__(self, pieces, horizon):
        self.starts = [s for s, _, _ in pieces]
        self.pieces = pieces
        self.ends = [*self.starts[1:], horizon]
        self.cum = [0.0]
        for (s, r, k), e in zip(pieces, self.ends):
            self.cum.append(self.cum[-1] + (e - s) * (r + 0.5 * k * (e - s)))

    def total(self, t):
        """Bits from 0 to ``t``."""
        i = bisect_right(self.starts, t) - 1
        s, r, k = self.pieces[i]
        return self.cum[i] + (t - s) * (r + 0.5 * k * (t - s))

    def reach(self, bits):
        """The first instant at which ``total`` reaches ``bits``, or None
        when it does not by the horizon."""
        if bits > self.cum[-1]:
            return None
        i = max(bisect_left(self.cum, bits) - 1, 0)
        s, r, k = self.pieces[i]
        rest = bits - self.cum[i]
        x = 2.0 * rest / (r + math.sqrt(max(0.0, r * r + 2.0 * k * rest)))
        return min(s + x, self.ends[i])


def capacity_pieces(trace):
    """The capacity as pieces, read off the trace's breakpoints."""
    bps = trace.breakpoints
    pieces = [
        (a.time, a.rate, (b.rate - a.rate) / (b.time - a.time) if a.mode is SegmentMode.LINEAR else 0.0)
        for a, b in zip(bps, bps[1:])
    ]
    return [*pieces, (bps[-1].time, bps[-1].rate, 0.0)]


def sender_pieces(trace, controller, horizon):
    """The sender's rate as pieces, read off the controller's definition."""
    first = trace.breakpoints[0].rate
    if isinstance(controller, FixedRate):
        return [(0.0, controller.rate, 0.0)]
    d = controller.signal_delay
    if isinstance(controller, OracleFinal):
        shifted = [(ev.onset + d, ev.post_rate, 0.0) for ev in detect_events(trace)]
    else:  # OracleTracking: the capacity d seconds ago, its first rate before d
        shifted = [(s + d, r, k) for s, r, k in capacity_pieces(trace)]
    return [(0.0, first, 0.0), *(p for p in shifted if p[0] < horizon)]


def packet_reference(config, packet_bits):
    """Peak backlog and bits out by the horizon of the run's packet limit.

    Packet j (from 0) arrives when the sender's output reaches (j + 1) *
    ``packet_bits``.  A Lindley FIFO serves it from s_j = max(a_j, f_{j-1})
    to the f_j at which the capacity integral from s_j covers the packet.
    The backlog in bits, with the part of the packet in service already
    sent taken off, peaks right after an arrival.
    """
    h = config.horizon
    cap = PiecewiseRate(capacity_pieces(config.trace), h)
    sender = PiecewiseRate(sender_pieces(config.trace, config.controller, h), h)
    served_at_start = []  # C(s_j)
    finishes = []  # f_j, inf past the horizon
    finish = 0.0
    first = 0  # the first packet not finished by the latest arrival
    peak = 0.0
    while (arrival := sender.reach((len(finishes) + 1) * packet_bits)) is not None:
        start = max(arrival, finish)
        c_start = cap.total(start) if start <= h else math.inf
        end = cap.reach(c_start + packet_bits)
        finish = math.inf if end is None else end
        served_at_start.append(c_start)
        finishes.append(finish)
        while first < len(finishes) - 1 and finishes[first] <= arrival:
            first += 1
        queued = (len(finishes) - first) * packet_bits
        peak = max(peak, queued - (cap.total(arrival) - served_at_start[first]))
    done = bisect_right(finishes, h)
    bits_out = done * packet_bits
    if done < len(finishes):
        bits_out += cap.total(h) - served_at_start[done]
    return peak, bits_out

PACKETS = 4000  # packets per run of the packet-limit reference


class TestPacketLimitReference:
    """The solver's ``peak_backlog`` and ``bits_out`` against the packet
    limit of the same run (ROADMAP item 6), computed by
    :func:`packet_reference` from the trace's breakpoints and the
    controller's definition alone.

    Tolerance.  Let A and C be the cumulative sender output and capacity.
    The fluid queue starts empty and serves at full rate while busy, so its
    output is D(t) = min over s <= t of A(s) + C(t) - C(s), and its backlog
    Q = A - D.  The packet limit feeds the same server the packetized
    arrivals A_p = p * floor(A / p), and serving each packet by the exact
    capacity integral keeps it serving at full rate while any bit waits, so
    its output in bits is D_p(t) = min over s <= t of A_p(s) + C(t) - C(s),
    by the same formula.  As A - p < A_p <= A:
      * D - p < D_p <= D, so bits out by the horizon agree within one
        packet, the packet limit never ahead; and
      * A_p(t) - A_p(s) lies within p of A(t) - A(s), so Q_p = A_p - D_p
        lies within p of Q at every instant, and so do the peaks
    (the packetizer bound, Le Boudec & Thiran, Network Calculus, ch. 1).
    The rounding term adds 1e-9 of the bits sent and served, far above the
    solver's 1e-12 rate-noise floor and the binary64 error of summing a few
    thousand terms, plus four ulp of the horizon at the top rate: each
    instant is one binary64 number, and on a horizon of a few subnormals a
    packet lasts less than one ulp.
    """

    @pytest.mark.parametrize("kind", [FixedRate, OracleTracking, OracleFinal])
    @given(trace=st.one_of(close_traces(), late_traces()), knob=st.floats(0.0, 1.0))
    # a queue that peaks far above one packet: 9e6 bits under OracleFinal(0.1)
    @example(trace=make_step_trace(1e8, 1e7, 1.0, 2.0), knob=0.05)
    @settings(max_examples=30, deadline=None)
    def test_backlog_and_bits_out_match_the_packet_limit(self, kind, trace, knob):
        top = max(bp.rate for bp in trace.breakpoints)
        controller = FixedRate((0.2 + 1.8 * knob) * top) if kind is FixedRate else kind(2.0 * knob)
        try:
            config = SimConfig(trace, controller)
        except ModelViolationError:  # overlapping OracleFinal signal windows
            assume(False)
        result = simulate_fluid(config)
        h = result.horizon
        packet_bits = result.bits_in / PACKETS
        peak, bits_out = packet_reference(config, packet_bits)
        top = max(top, getattr(controller, "rate", 0.0))
        rounding = 1e-9 * (result.bits_in + trace.integrate(0.0, h)) + 4.0 * top * math.ulp(h)
        assert abs(result.peak_backlog - peak) <= packet_bits + rounding
        assert -rounding <= result.bits_out - bits_out <= packet_bits + rounding


class TestSerialization:
    def test_sampled_csv_layout(self, capsys, monkeypatch):
        # the CLI's CSV series: one row per sample, in ms, NaN written as nan
        trace = make_step_trace(1e8, 1e7, 1.0, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        samples = sample_result(result, 0.5)
        monkeypatch.setattr("sys.stdin", io.StringIO(trace_to_csv(trace)))
        argv = ["simulate", "--trace", "-", "--controller", "oracle-final", "--delay-ms", "100",
                "--sample-ms", "500", "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t_ms,backlog_bits,delay_ms,fifo_delay_ms"
        assert len(lines) == len(samples) + 1
        assert lines[-1].split(",")[-1] == "nan"  # the final plateau outlives the horizon
        t, backlog, delay, fifo = (float(x) for x in lines[-1].split(","))
        assert t == pytest.approx(5000.0)
        assert delay == pytest.approx(backlog / result.final_norm_rate * 1e3, rel=1e-12)
        assert math.isnan(fifo) and math.isnan(samples[-1].fifo_delay)

    def test_json_document_roundtrips(self):
        trace = make_ramp_trace(1e8, 1e7, 1.0, 0.2, 5.0)
        result = simulate_fluid(SimConfig(trace, OracleFinal(0.1)))
        doc = json.loads(json.dumps(result_to_json_dict(result)))
        assert set(doc) == {
            "peak_delay_s", "peak_backlog_bits", "peak_time_s", "peak_fifo_delay_s",
            "fifo_beyond_horizon", "bits_in", "bits_out", "events",
        }
        assert doc["peak_delay_s"] == pytest.approx(0.225, rel=1e-9)
        assert doc["peak_backlog_bits"] == result.peak_backlog
        assert doc["peak_time_s"] == result.peak_time
        assert doc["peak_fifo_delay_s"] == result.peak_fifo_delay
        assert doc["fifo_beyond_horizon"] is result.fifo_beyond_horizon
        assert (doc["bits_in"], doc["bits_out"]) == (result.bits_in, result.bits_out)
        (event,) = doc["events"]
        assert event == {
            "onset_s": 1.0, "pre_bps": 1e8, "post_bps": 1e7, "c_factor": 10.0,
            "ramp_s": pytest.approx(0.2, rel=1e-12),
        }
        # the exact description stays on the result
        assert result.segments[0].t_start == 0.0
        assert result.segments[-1].t_end == 5.0


@st.composite
def tangent_configs(draw):
    """A hold at r0 that a sender at r2 > r0 fills, then a ramp from r1 > r2
    down to r2 whose drain equals the queue: the backlog touches zero at the
    ramp's end, where the solver clamps it."""
    r0 = draw(st.floats(1e6, 1e8))
    r2 = r0 * draw(st.floats(1.1, 10.0))
    r1 = r2 * draw(st.floats(1.1, 10.0))
    ramp = draw(st.floats(0.1, 2.0))
    t1 = (r1 - r2) * ramp / 2.0 / (r2 - r0)
    bps = (Breakpoint(0.0, r0), Breakpoint(t1, r1, SegmentMode.LINEAR),
           Breakpoint(t1 + ramp, r2), Breakpoint(t1 + ramp + 1.0, r2))
    return SimConfig(CapacityTrace(bps, t1 + ramp + 1.0), FixedRate(r2))


def scaled_trace(trace, kt, kr):
    """``trace`` with every time times 2**kt and every rate times 2**kr."""
    bps = (Breakpoint(math.ldexp(bp.time, kt), math.ldexp(bp.rate, kr), bp.mode)
           for bp in trace.breakpoints)
    return CapacityTrace(tuple(bps), math.ldexp(trace.horizon, kt))


def scaled_config(config, kt, kr):
    controller = config.controller
    if isinstance(controller, FixedRate):
        controller = FixedRate(math.ldexp(controller.rate, kr))
    else:
        controller = type(controller)(math.ldexp(controller.signal_delay, kt))
    return SimConfig(scaled_trace(config.trace, kt, kr), controller)


def assert_scaled(got, want, k):
    """Each float of ``got`` is the one of ``want`` times 2**k, bit for bit
    (NaN as NaN); anything else is equal."""
    if isinstance(want, float):
        expected = math.ldexp(want, k)
        assert got.hex() == expected.hex() or (math.isnan(got) and math.isnan(want)), (got, want, k)
    elif isinstance(want, (tuple, list, array)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_scaled(g, w, k)
    else:
        assert got == want


class TestScaleCovariance:
    """Scaling every time by 2**kt and every rate by 2**kr is exact in binary
    floating point while nothing overflows or goes subnormal, so each output
    scales bit for bit: times by 2**kt, rates by 2**kr, bits by 2**(kt + kr).
    No reference and no tolerance; an absolute constant hidden in code whose
    inputs carry units breaks it.  The CLI's ms and Mbit/s are not powers of
    two, so this is a property of the library, not of the CLI."""

    @given(config=st.one_of(solver_cases(), tangent_configs()),
           kt=st.integers(-200, 200), kr=st.integers(-200, 200))
    @example(config=REPRO_DROPPED_CELL, kt=0, kr=-66)
    @settings(max_examples=200, deadline=None)
    def test_fluid_outputs_scale_exactly(self, config, kt, kr):
        a = simulate_fluid(config)
        b = simulate_fluid(scaled_config(config, kt, kr))
        kb = kt + kr
        for name, k in (("peak_backlog", kb), ("peak_time", kt), ("peak_delay_final_norm", kt),
                        ("peak_fifo_delay", kt), ("fifo_beyond_horizon", 0),
                        ("final_norm_rate", kr), ("bits_in", kb), ("bits_out", kb),
                        ("horizon", kt), ("_t_start", kt), ("_q0", kb), ("_q1", kr),
                        ("_q2", kr - kt)):
            assert_scaled(getattr(b, name), getattr(a, name), k)
        assert len(a.events) == len(b.events)
        for ea, eb in zip(a.events, b.events):
            for name, k in (("onset", kt), ("pre_rate", kr), ("post_rate", kr),
                            ("ramp_duration", kt)):
                assert_scaled(getattr(eb, name), getattr(ea, name), k)
        ts = [a.peak_time, a.horizon, *(a.horizon * f for f in (0.0, 0.125, 0.37, 0.5, 0.93))]
        for t in ts:
            assert_scaled(fifo_delay_at(b, math.ldexp(t, kt)), fifo_delay_at(a, t), kt)
        step = a.horizon / 7.0
        for sa, sb in zip(sample_result(a, step), sample_result(b, math.ldexp(step, kt)),
                          strict=True):
            for va, vb, k in zip(sa, sb, (kt, kb, kt, kt)):
                assert_scaled(vb, va, k)
        queries = [(t, a.bits_in * f) for t in sorted(ts) for f in (0.0, 0.01, 0.3)]
        scaled = [(math.ldexp(t, kt), math.ldexp(bits, kb)) for t, bits in queries]
        assert_scaled(list(b.trace.drain_times(scaled)), list(a.trace.drain_times(queries)), kt)

    @given(pre=st.floats(2e6, 1e7), c=st.floats(1.5, 10.0), onset=st.floats(0.02, 0.1),
           ramp=st.sampled_from((0.0, 0.03)), seed=st.integers(0, 3),
           kt=st.integers(-200, 200), kr=st.integers(-200, 200))
    @settings(max_examples=200, deadline=None)
    def test_packet_columns_scale_exactly(self, pre, c, onset, ramp, seed, kt, kr):
        trace = make_ramp_trace(pre, pre / c, onset, ramp, onset + ramp + 0.05)
        knobs = dict(packet_size=12000.0, forward_delay=0.002, x_to_b_delay=0.004,
                     reverse_delay=0.005, mark_threshold=0.01)
        ks = dict(packet_size=kt + kr, forward_delay=kt, x_to_b_delay=kt, reverse_delay=kt,
                  mark_threshold=kt)
        a = simulate_packets(PacketSimConfig(trace, aimd=AimdParams(1.5, 0.7), seed=seed, **knobs))
        b = simulate_packets(PacketSimConfig(
            scaled_trace(trace, kt, kr), aimd=AimdParams(1.5, 0.7), seed=seed,
            **{name: math.ldexp(v, ks[name]) for name, v in knobs.items()}))
        for name, k in (("_paced_times", kt), ("_dequeue_times", kt), ("_sojourns", kt),
                        ("_windows", 0), ("_codes", 0), ("_sends", 0), ("peak_queue_delay", kt),
                        ("congestion_reached", 0), ("packets_sent", 0), ("packets_delivered", 0)):
            assert_scaled(getattr(b, name), getattr(a, name), k)
