"""Packet-level AIMD baseline: determinism, FIFO shape, bound dominance."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound import packetsim
from ccbound.bounds import peak_delay_step
from ccbound.packetsim import (
    AimdParams,
    PacketSimConfig,
    compare_to_bound,
    event_log_to_csv,
    simulate_packets,
)
from ccbound.trace import (
    Breakpoint,
    CapacityEvent,
    CapacityTrace,
    detect_events,
    make_ramp_trace,
    make_step_trace,
)


def saturated_step_config(pre, c, d, seed, *, fwd=0.002, pkt=12000.0, ai=2.0, md=0.5,
                          onset=0.8):
    """A step-drop run whose sender is fully loaded at every instant.

    The initial window sits at the sawtooth bottom md*(BDP + thr*pre/pkt),
    which stays above the bandwidth-delay product for thr = 1.5*rtt, so the
    bottleneck queue never empties before the drop.
    """
    post = pre / c
    rtt = fwd + d
    thr = 1.5 * rtt
    bdp_packets = pre * rtt / pkt
    w0 = int(math.ceil(1.25 * bdp_packets)) + 2
    horizon = onset + d + max((c - 1.0) * d, 2.5 * c * rtt) + 0.25
    trace = make_step_trace(pre, post, onset, horizon)
    return PacketSimConfig(
        trace,
        packet_size=pkt,
        forward_delay=fwd,
        x_to_b_delay=d / 2.0,
        reverse_delay=d / 2.0,
        aimd=AimdParams(ai, md),
        mark_threshold=thr,
        initial_window=w0,
        seed=seed,
    )


class TestBasics:
    def test_zero_traffic(self):
        trace = make_step_trace(1e7, 1e6, 1.0, 2.0)
        result = simulate_packets(PacketSimConfig(trace, initial_window=0))
        assert result.log == ()
        assert result.peak_queue_delay == 0.0
        assert result.packets_sent == 0
        assert not result.congestion_reached

    def test_underloaded_run_flagged_no_congestion(self):
        # two packets on a fat constant link never wait behind each other
        trace = CapacityTrace((Breakpoint(0.0, 1e8),), 2.0)
        result = simulate_packets(
            PacketSimConfig(trace, initial_window=2, aimd=AimdParams(0.01, 0.5),
                            mark_threshold=10.0)
        )
        assert not result.congestion_reached
        assert result.peak_queue_delay <= 2 * 12000.0 / 1e8 + 1e-9

    def test_determinism_identical_logs(self):
        cfg = saturated_step_config(12e6, 8.0, 0.02, seed=123)
        first = simulate_packets(cfg)
        second = simulate_packets(cfg)
        assert event_log_to_csv(first) == event_log_to_csv(second)
        assert first.queue_delay_series == second.queue_delay_series

    def test_different_seed_different_log(self):
        a = simulate_packets(saturated_step_config(12e6, 8.0, 0.02, seed=1))
        b = simulate_packets(saturated_step_config(12e6, 8.0, 0.02, seed=2))
        assert event_log_to_csv(a) != event_log_to_csv(b)

    def test_fifo_dequeue_order(self):
        result = simulate_packets(saturated_step_config(12e6, 5.0, 0.02, seed=3))
        dequeues = [e.packet_id for e in result.log if e.event == "dequeue"]
        enqueues = [e.packet_id for e in result.log if e.event == "enqueue"]
        assert dequeues == enqueues[: len(dequeues)]

    def test_per_packet_dequeue_after_enqueue(self):
        result = simulate_packets(saturated_step_config(12e6, 5.0, 0.02, seed=3))
        enq = {e.packet_id: e.t for e in result.log if e.event == "enqueue"}
        for e in result.log:
            if e.event == "dequeue":
                assert e.t >= enq[e.packet_id]

    def test_work_conservation(self):
        # while packets wait, consecutive departures are one service time apart
        result = simulate_packets(saturated_step_config(12e6, 5.0, 0.02, seed=4))
        config = result.config
        departs = [e.t for e in result.log if e.event == "dequeue"]
        queue_after = {e.t: e.queue_bits for e in result.log if e.event == "dequeue"}
        for t0, t1 in zip(departs, departs[1:]):
            if queue_after[t0] > 0.0:  # somebody was waiting: no idling allowed
                service = config.packet_size / config.trace.capacity_at(t0)
                assert t1 - t0 <= service * (1.0 + 1e-9)

    def test_log_is_causally_ordered(self):
        result = simulate_packets(saturated_step_config(12e6, 5.0, 0.02, seed=5))
        times = [e.t for e in result.log]
        assert times == sorted(times)


@st.composite
def aimd_configs(draw):
    """A random AIMD run across one capacity reduction, step or ramp."""
    pre = draw(st.floats(2e6, 2e7))
    c = draw(st.floats(1.5, 20.0))
    d = draw(st.floats(0.005, 0.05))
    ramp = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
    onset = 0.5
    return PacketSimConfig(
        make_ramp_trace(pre, pre / c, onset, ramp, onset + ramp + 1.0),
        forward_delay=draw(st.floats(0.001, 0.01)),
        x_to_b_delay=d / 2.0,
        reverse_delay=d / 2.0,
        aimd=AimdParams(draw(st.floats(0.5, 4.0)), draw(st.floats(0.3, 0.9))),
        mark_threshold=draw(st.floats(0.001, 0.1)),
        initial_window=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestLindleyReference:
    """The FIFO server against Lindley's recursion (Lindley 1952) replayed
    on the logged arrivals: d_k = s_k + size / c(s_k), s_k = max(a_k, d_{k-1})."""

    @given(config=aimd_configs())
    @settings(max_examples=25, deadline=None)
    def test_dequeues_and_sojourns_match_bit_for_bit(self, config):
        result = simulate_packets(config)
        arrivals = [(e.packet_id, e.t) for e in result.log if e.event == "enqueue"]
        expected = []
        depart = -math.inf
        for pid, arrived in arrivals:
            start = max(arrived, depart)
            depart = start + config.packet_size / config.trace.capacity_at(start)
            if depart > config.trace.horizon:  # the later packets stay queued
                break
            expected.append((pid, arrived, depart))
        dequeues = [(e.packet_id, e.t) for e in result.log if e.event == "dequeue"]
        assert dequeues == [(pid, depart) for pid, _, depart in expected]
        assert result.queue_delay_series == tuple(
            (depart, depart - arrived) for _, arrived, depart in expected
        )


class TestQueryCount:
    def test_one_capacity_query_per_service_start(self, monkeypatch):
        # deterministic cost check: one query per service start plus the
        # initial pacing query, so no per-packet trace work creeps in
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        capacity_at = CapacityTrace.capacity_at
        calls = 0

        def counted(self, t):
            nonlocal calls
            calls += 1
            return capacity_at(self, t)

        monkeypatch.setattr(CapacityTrace, "capacity_at", counted)
        result = simulate_packets(config)
        assert result.packets_delivered > 0
        assert calls <= result.packets_delivered + 2, (calls, result.packets_delivered)


class TestSawtooth:
    def test_converged_peak_bounded_by_threshold_plus_growth(self):
        # Constant 10 Mbit/s link.  Once the sawtooth is established, the
        # overshoot above the marking threshold is one additive-increase
        # quantum per feedback loop plus service quantization: measured
        # steady peak is thr + 0.33 serializations for this instance.
        trace = CapacityTrace((Breakpoint(0.0, 1e7),), 12.0)
        config = PacketSimConfig(
            trace,
            packet_size=12000.0,
            forward_delay=0.002,
            x_to_b_delay=0.005,
            reverse_delay=0.005,
            aimd=AimdParams(1.0, 0.5),
            mark_threshold=0.02,
            initial_window=4,
            seed=1,
        )
        result = simulate_packets(config)
        assert result.congestion_reached
        steady = [q for t, q in result.queue_delay_series if t >= 6.0]
        serialization = config.packet_size / 1e7
        growth = config.aimd.additive_increase * config.packet_size / 1e7
        assert max(steady) <= config.mark_threshold + growth + serialization
        assert max(steady) > config.mark_threshold  # marking actually engaged
        assert min(steady) < config.mark_threshold  # and the window does back off


class TestBoundComparison:
    def test_wifi_step_dominates_the_floor(self):
        config = saturated_step_config(144.4e6, 144.4 / 14.4, 0.017, seed=7)
        result = simulate_packets(config)
        event = detect_events(config.trace)[0]
        cmp = compare_to_bound(result, event, 0.017)
        assert cmp.bound == pytest.approx(peak_delay_step(144.4 / 14.4, 0.017), rel=1e-12)
        assert not cmp.violation
        assert cmp.ratio is not None and cmp.ratio > 1.0
        # the exact ratio comes from the simulation itself; pin the regime
        assert cmp.ratio == pytest.approx(1.77, abs=0.15)

    def test_violation_flag_raises_on_shortfall(self):
        config = saturated_step_config(12e6, 10.0, 0.02, seed=9)
        result = simulate_packets(config)
        event = detect_events(config.trace)[0]
        honest = compare_to_bound(result, event, 0.02)
        assert not honest.violation
        # ask for an impossible signaling delay: the measurement now falls short
        rigged = compare_to_bound(result, event, 10.0)
        assert rigged.violation
        assert rigged.measured_peak == honest.measured_peak

    def test_no_violation_without_congestion(self):
        # 1e-6-byte packets never wait behind each other before the drop: the
        # measured peak (~3e-11 s) lies far below the 153 ms floor, but the
        # comparison is vacuous, so it is no violation
        config = PacketSimConfig(make_step_trace(144.4e6, 14.4e6, 1.0, 5.0), packet_size=8e-6,
                                 x_to_b_delay=0.0085, reverse_delay=0.0085)
        result = simulate_packets(config)
        assert not result.congestion_reached
        event = detect_events(config.trace)[0]
        cmp = compare_to_bound(result, event, 0.017)
        assert cmp.measured_peak < cmp.bound - cmp.slack
        assert not cmp.violation
        pressed = dataclasses.replace(result, congestion_reached=True)
        assert compare_to_bound(pressed, event, 0.017).violation

    def test_zero_bound_never_violates(self):
        config = saturated_step_config(12e6, 10.0, 0.02, seed=9)
        result = simulate_packets(config)
        event = detect_events(config.trace)[0]
        cmp = compare_to_bound(result, event, 0.0)
        assert cmp.bound == 0.0
        assert cmp.ratio is None
        assert not cmp.violation

    def test_event_outside_simulated_range(self):
        config = saturated_step_config(12e6, 10.0, 0.02, seed=9)
        result = simulate_packets(config)
        ghost = CapacityEvent(onset=config.trace.horizon + 1.0, pre_rate=1e7,
                              post_rate=1e6, ramp_duration=0.0)
        with pytest.raises(ValueError, match="event"):
            compare_to_bound(result, ghost, 0.02)

    def test_randomized_dominance_sample(self):
        # a 15-draw slice of the acceptance-6 suite for fast feedback
        rng = random.Random(7)
        for _ in range(15):
            c = rng.uniform(2.0, 20.0)
            d = rng.uniform(0.005, 0.05)
            pre = rng.uniform(8e6, 20e6)
            config = saturated_step_config(pre, c, d, seed=rng.randrange(2**32))
            result = simulate_packets(config)
            assert result.congestion_reached
            event = detect_events(config.trace)[0]
            cmp = compare_to_bound(result, event, d)
            assert not cmp.violation, (c, d, pre, cmp)


class TestValidation:
    def test_bad_aimd_params(self):
        with pytest.raises(ValueError):
            AimdParams(additive_increase=0.0)
        with pytest.raises(ValueError):
            AimdParams(multiplicative_decrease=1.0)
        with pytest.raises(ValueError):
            AimdParams(multiplicative_decrease=0.0)

    def test_bad_config(self):
        trace = make_step_trace(1e7, 1e6, 1.0, 2.0)
        with pytest.raises(ValueError):
            PacketSimConfig(trace, packet_size=0.0)
        with pytest.raises(ValueError):
            PacketSimConfig(trace, forward_delay=-0.001)
        with pytest.raises(ValueError):
            PacketSimConfig(trace, initial_window=-1)

    @pytest.mark.parametrize("window", [2.5, math.nan, 3.0, "4"])
    def test_initial_window_must_be_a_whole_number(self, window):
        trace = make_step_trace(1e7, 1e6, 1.0, 2.0)
        with pytest.raises(ValueError, match="initial_window"):
            PacketSimConfig(trace, initial_window=window)

    def test_packet_cap(self, monkeypatch):
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        sent = simulate_packets(config).packets_sent
        monkeypatch.setattr(packetsim, "MAX_PACKETS", sent)
        assert simulate_packets(config).packets_sent == sent
        monkeypatch.setattr(packetsim, "MAX_PACKETS", sent - 1)
        with pytest.raises(ValueError, match=f"send {sent} packets, over the cap of {sent - 1}"):
            simulate_packets(config)
        big_window = PacketSimConfig(config.trace, initial_window=sent)
        with pytest.raises(ValueError, match=f"send {sent} packets"):
            simulate_packets(big_window)

    def test_log_csv_header(self):
        result = simulate_packets(saturated_step_config(12e6, 5.0, 0.02, seed=3))
        lines = event_log_to_csv(result).splitlines()
        assert lines[0] == "t_s,event_type,packet_id,queue_bits,detail"
        assert len(lines) == len(result.log) + 1
