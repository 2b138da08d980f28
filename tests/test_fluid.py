"""Exact fluid queue simulation: rate policies, peak statistics, FIFO delay."""

from __future__ import annotations

import io
import json
import math
import random
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

    @given(trace=close_traces(), share=st.floats(0.0, 0.9))
    @settings(max_examples=300, deadline=None)
    def test_tracking_is_the_shifted_capacity(self, trace, share):
        # c(t - d) at the middle of every segment that the shift's rounding
        # (an ulp or two at the scale of t) cannot visibly move; a delay
        # much longer than the first breakpoints rounds close ones together
        h = trace.horizon
        delay = share * h
        shifted = sender_rate_trace(SimConfig(trace, OracleTracking(delay)))
        top = max(bp.rate for bp in trace.breakpoints)
        ends = (*trace.times[1:], h)
        for a, b in zip(trace.times, ends):
            mid = 0.5 * (a + b)
            if b - a >= 1e-8 * (h + delay) and mid + delay < h:
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


class TestEventsOnce:
    def test_a_trace_finds_its_events_once(self, monkeypatch):
        built = []

        class CountedEvent(trace_module.CapacityEvent):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

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
