"""Packet-level AIMD baseline: determinism, FIFO shape, bound dominance."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import pickle
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccbound import packetsim
from ccbound.bounds import peak_delay_step
from ccbound.packetsim import (
    AimdParams,
    LogEntry,
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

    def test_a_window_short_of_a_packet_by_rounding_counts_it(self):
        # the first ACK adds 9.9999999995 / 10 to a window of 10: 5e-11 short
        # of 11, within the guard's 1e-9, so the ACK sends two packets
        trace = CapacityTrace((Breakpoint(0.0, 1e8),), 0.5)
        config = PacketSimConfig(trace, aimd=AimdParams(9.9999999995, 0.5), initial_window=10,
                                 mark_threshold=1.0)
        result = simulate_packets(config)
        cwnd = result._windows[0]
        assert cwnd == 10.0 + 9.9999999995 / 10.0 and int(cwnd) == 10
        assert result._sends[0] == 2

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


# The reference's record kinds: (event type, detail written from the value)
REFERENCE_KINDS = {
    "enqueue": ("enqueue", ""),
    "dequeue": ("dequeue", ""),
    "marked dequeue": ("dequeue", "marked"),
    "mark": ("mark", "sojourn={:.6f}"),
    "ack": ("ack", "cwnd={:.3f}"),
    "marked ack": ("ack", "marked cwnd={:.3f}"),
    "window": ("window", "decrease cwnd={:.3f}"),
}


def all_heap_reference(config):
    """The event loop with every event in one heap keyed (t, seq, kind, id),
    so events at equal times run in the order they were scheduled.

    It keeps each log record whole, (t, kind, packet id, queue bits, value),
    in a list, and returns the records with the per-dequeue series and the
    scalar fields by name."""
    trace, horizon, pkt = config.trace, config.trace.horizon, config.packet_size
    fwd, xb, rev = config.forward_delay, config.x_to_b_delay, config.reverse_delay
    rng = random.Random(config.seed)
    events = detect_events(trace)
    warm_end = events[0].onset if events else horizon
    heap, seq, queue = [], itertools.count(), deque()
    queue_bits, cwnd = 0.0, float(config.initial_window)
    in_flight = next_pid = recovery_end_pid = 0
    congestion_seen = False
    records, dequeue_times, sojourns = [], [], []
    arrive, depart, ack, marked_ack = range(4)
    spacing = pkt / trace.capacity_at(0.0)
    for k in range(config.initial_window):
        t0 = k * spacing + rng.random() * spacing * 0.5
        if t0 >= horizon:
            break
        heapq.heappush(heap, (t0 + fwd, next(seq), arrive, k))
        next_pid = in_flight = k + 1
    while heap and heap[0][0] <= horizon:
        t, _, kind, pid = heapq.heappop(heap)
        if kind == arrive:
            queue.append((pid, t))
            queue_bits += pkt
            records.append((t, "enqueue", pid, queue_bits, 0.0))
            if len(queue) == 1:
                heapq.heappush(heap, (t + pkt / trace.capacity_at(t), next(seq), depart, pid))
        elif kind == depart:
            _, arrived = queue.popleft()
            queue_bits -= pkt
            sojourn = t - arrived
            dequeue_times.append(t)
            sojourns.append(sojourn)
            mark = sojourn > config.mark_threshold
            if mark:
                records.append((t, "marked dequeue", pid, queue_bits, 0.0))
                records.append((t, "mark", pid, queue_bits, sojourn))
            else:
                records.append((t, "dequeue", pid, queue_bits, 0.0))
            heapq.heappush(heap, (t + xb + rev, next(seq), marked_ack if mark else ack, pid))
            if queue:
                head, arrived = queue[0]
                service = pkt / trace.capacity_at(t)
                if t <= warm_end and t - arrived > service:
                    congestion_seen = True
                heapq.heappush(heap, (t + service, next(seq), depart, head))
        else:
            in_flight -= 1
            if kind == marked_ack:
                if pid >= recovery_end_pid:
                    cwnd = max(1.0, cwnd * config.aimd.multiplicative_decrease)
                    recovery_end_pid = next_pid
                    records.append((t, "window", pid, queue_bits, cwnd))
                records.append((t, "marked ack", pid, queue_bits, cwnd))
            else:
                cwnd += config.aimd.additive_increase / cwnd
                records.append((t, "ack", pid, queue_bits, cwnd))
            burst = int(cwnd + 1e-9) - in_flight
            if burst > 0 and t < horizon:
                for new_pid in range(next_pid, next_pid + burst):
                    heapq.heappush(heap, (t + fwd, next(seq), arrive, new_pid))
                next_pid += burst
                in_flight += burst
    return {
        "records": records,
        "queue_delay_series": tuple(zip(dequeue_times, sojourns)),
        "peak_queue_delay": max(sojourns, default=0.0),
        "congestion_reached": congestion_seen,
        "packets_sent": next_pid,
        "packets_delivered": len(sojourns),
    }


def reference_log(records):
    """The reference's records as the log entries the simulator reports."""
    entries = []
    for t, kind, pid, queue_bits, value in records:
        event, detail = REFERENCE_KINDS[kind]
        entries.append(LogEntry(t, event, pid, queue_bits, detail.format(value)))
    return tuple(entries)


def reference_csv(records):
    """The reference's records as CSV text, each float written by repr."""
    lines = ["t_s,event_type,packet_id,queue_bits,detail"]
    lines += [f"{e.t!r},{e.event},{e.packet_id},{e.queue_bits!r},{e.detail}"
              for e in reference_log(records)]
    return "\n".join(lines) + "\n"


# packet sizes of 2^12 to 2^14 bits: every running sum of them is exact
DYADIC_SIZES = st.integers(12, 14).map(lambda k: 2.0 ** k)
# packet sizes of a tenth of a bit that is not a multiple of five: no such
# size is a binary fraction, so running sums of it round
NON_DYADIC_SIZES = st.integers(40_001, 160_000).filter(lambda k: k % 5).map(lambda k: k / 10)


@st.composite
def tied_aimd_configs(draw, sizes=DYADIC_SIZES):
    """An AIMD run whose event times tie exactly.

    Rates and breakpoint times are powers of two or dyadic fractions, and
    every delay is 0 or 2^-k, so with a packet size drawn from
    DYADIC_SIZES a departure, an ACK and an ACK-clocked arrival often fall
    on the very same float.
    """
    dyadic_delay = st.sampled_from([0.0] + [2.0 ** -k for k in range(2, 9)])
    times = draw(st.lists(st.integers(1, 7), max_size=3, unique=True))
    steps = [0, *sorted(times)]
    return PacketSimConfig(
        CapacityTrace(
            tuple(Breakpoint(k / 8.0, 2.0 ** draw(st.integers(16, 19))) for k in steps), 1.0
        ),
        packet_size=draw(sizes),
        forward_delay=draw(dyadic_delay),
        x_to_b_delay=draw(dyadic_delay),
        reverse_delay=draw(dyadic_delay),
        aimd=AimdParams(draw(st.sampled_from([0.5, 1.0, 2.0])),
                        draw(st.sampled_from([0.25, 0.5, 0.75]))),
        mark_threshold=draw(dyadic_delay),
        initial_window=draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# 2^16 bit/s for 1 s
CONSTANT_2_16 = CapacityTrace((Breakpoint(0.0, 2.0**16),), 1.0)


def paced_sends(packet_size, rate, seed, n):
    """The first ``n`` send times of the initial burst, paced as the
    simulator paces them: k*s plus a seeded jitter in [0, s/2), where s is
    one packet at ``rate``, the trace's rate at 0."""
    rng = random.Random(seed)
    spacing = packet_size / rate
    return [k * spacing + rng.random() * spacing * 0.5 for k in range(n)]


def service_starts(result):
    """The instant each delivered packet's service began: its arrival, or
    the previous departure if it waited."""
    arrived = {e.packet_id: e.t for e in result.log if e.event == "enqueue"}
    starts, free = [], -math.inf
    for e in result.log:
        if e.event == "dequeue":
            starts.append(max(arrived[e.packet_id], free))
            free = e.t
    return starts


def enqueued_ids(result):
    return [e.packet_id for e in result.log if e.event == "enqueue"]


# Seed 1 draws a smaller jitter for packet 0 than for packet 1, so packet
# 0's ACK can return before packet 1 is paced out.
EDGE_SEED = 1
EDGE_FWD = 2.0**-6
# The first arrival of a 2^14-bit burst paced at 2^16 and at 201073.1 bit/s
HOLD_JUMP_AT = paced_sends(2.0**14, 2.0**16, EDGE_SEED, 1)[0] + EDGE_FWD
RAMP_END_AT = paced_sends(2.0**14, 201073.1, EDGE_SEED, 1)[0] + EDGE_FWD
# A service start on a hold breakpoint, reached across two rows at once:
# the packet must be served at the rate after the jump.
HOLD_JUMP = PacketSimConfig(
    CapacityTrace((Breakpoint(0.0, 2.0**16), Breakpoint(HOLD_JUMP_AT / 2.0, 2.0**17),
                   Breakpoint(HOLD_JUMP_AT, 2.0**18), Breakpoint(0.75, 2.0**17)), 1.0),
    packet_size=2.0**14, forward_delay=EDGE_FWD, initial_window=8, seed=EDGE_SEED)
# A service start at the end of a falling linear segment; the segment's own
# interpolation reads 70000.69999999998 there, the next row's start 70000.7.
RAMP_END = PacketSimConfig(
    CapacityTrace((Breakpoint(0.0, 201073.1, "linear"), Breakpoint(RAMP_END_AT, 70000.7, "linear"),
                   Breakpoint(0.75, 2.0**17)), 1.0),
    packet_size=2.0**14, forward_delay=EDGE_FWD, initial_window=8, seed=EDGE_SEED)
# Zero delays and no marks: packet 0's ACK, and the send it clocks, land
# before packet 1 is paced out, so the two arrival FIFOs interleave.
INTERLEAVED = PacketSimConfig(CONSTANT_2_16, packet_size=2.0**14, forward_delay=0.0,
                              x_to_b_delay=0.0, reverse_delay=0.0, mark_threshold=1.0,
                              initial_window=4, seed=EDGE_SEED)
# Packet 0's ACK returns exactly when packet 1 is paced out, so the send it
# clocks arrives one forward delay later, at the same instant as packet 1,
# while packet 1 is still pending.  The x-to-b delay is the exact gap: the
# two instants lie within a factor of two of each other.
_T0, _T1 = paced_sends(2.0**14, 2.0**16, EDGE_SEED, 2)
TIED_ARRIVALS = dataclasses.replace(
    INTERLEAVED, forward_delay=EDGE_FWD, initial_window=3,
    x_to_b_delay=_T1 - ((_T0 + EDGE_FWD) + 2.0**14 / 2.0**16))
# Zero delays and a window of one: packet 0's ACK returns the instant it
# departs and clocks out two packets that arrive at that same instant.
ARRIVAL_AT_DEPARTURE = PacketSimConfig(CONSTANT_2_16, packet_size=2.0**14, forward_delay=0.0,
                                       x_to_b_delay=0.0, reverse_delay=0.0, initial_window=1,
                                       seed=EDGE_SEED)
# The return trip is one service time (0.25 s), and seed 0 draws a smaller
# jitter for packet 1 than for packet 0, so packet 1 waits: packet 0's
# dequeue schedules its ACK and packet 1's departure for one instant.
ACK_AT_DEPARTURE = PacketSimConfig(CONSTANT_2_16, packet_size=2.0**14, forward_delay=EDGE_FWD,
                                   x_to_b_delay=0.25, reverse_delay=0.0, initial_window=2, seed=0)
# A 5*2^-39-bit packet is served in 5*2^-55 s, five eighths of an ulp of
# 1 s: above the half ulp of the horizon that a config refuses, yet close
# enough that adding the 1 s return trip rounds the paced packets' ACKs in
# twos and threes onto one instant; with no forward delay each send arrives
# then too, beside ACKs that did not send it.
SENT_AT_OTHER_ACK = PacketSimConfig(CapacityTrace((Breakpoint(0.0, 2.0**16),), 1.5),
                                    packet_size=5 * 2.0**-39, forward_delay=0.0,
                                    x_to_b_delay=2.0**-1, reverse_delay=2.0**-1, initial_window=32,
                                    seed=0)
# From half packet 0's arrival time on, the link runs at the rate that
# makes packet 0 depart at the very instant packet 1 is paced in (found by
# stepping the float rate), so a paced arrival ties with a dequeue; paced
# arrivals come first.
PACED_AT_DEPARTURE = PacketSimConfig(
    CapacityTrace((Breakpoint(0.0, 2.0**16), Breakpoint(HOLD_JUMP_AT / 2.0, 48311.33162885873)),
                  1.0),
    packet_size=2.0**14, forward_delay=EDGE_FWD, initial_window=2, seed=EDGE_SEED)

# Packets paced out 0.25 s apart from 0 take 0.5 s to reach the bottleneck,
# so the last two of the burst arrive past the 1 s horizon.
PACED_PAST_HORIZON = PacketSimConfig(CONSTANT_2_16, packet_size=2.0**14, forward_delay=0.5,
                                     initial_window=4, seed=EDGE_SEED)


def records_of(result, event):
    return [e for e in result.log if e.event == event]


def arrives_at_previous_departure(result):
    enqueues, dequeues = records_of(result, "enqueue"), records_of(result, "dequeue")
    return any(a.t == d.t for a, d in zip(enqueues[1:], dequeues))


def ack_at_next_departure(result):
    # packet k + 1 arrived before packet k departed, so dequeue k scheduled
    # its departure
    enqueues, dequeues = records_of(result, "enqueue"), records_of(result, "dequeue")
    return any(ack.t == after.t and arrived.t < before.t
               for ack, before, after, arrived in zip(
                   records_of(result, "ack"), dequeues, dequeues[1:], enqueues[1:]))


def paced_at_departure(result):
    departures = {e.t for e in records_of(result, "dequeue")}
    return any(e.packet_id < result.config.initial_window and e.t in departures
               for e in records_of(result, "enqueue"))


def sent_at_other_ack(result):
    # an ACK-clocked packet enqueued at an instant two ACKs share: at least
    # one of them did not send it
    acks = [e.t for e in records_of(result, "ack")]
    return any(e.packet_id >= result.config.initial_window and acks.count(e.t) >= 2
               for e in records_of(result, "enqueue"))


# The edge each of these examples exists for, checked on its result
EDGE_CASES = {
    HOLD_JUMP: lambda result: HOLD_JUMP_AT in service_starts(result),
    RAMP_END: lambda result: RAMP_END_AT in service_starts(result),
    INTERLEAVED: lambda result: enqueued_ids(result) != sorted(enqueued_ids(result)),
    # the paced packets' ids lie below the initial window of 3, the sent ones' not
    TIED_ARRIVALS: lambda result: any(
        a.t == b.t and (a.packet_id < 3) != (b.packet_id < 3)
        for a, b in itertools.combinations(
            [e for e in result.log if e.event == "enqueue"], 2)),
    ARRIVAL_AT_DEPARTURE: arrives_at_previous_departure,
    ACK_AT_DEPARTURE: ack_at_next_departure,
    SENT_AT_OTHER_ACK: sent_at_other_ack,
    PACED_AT_DEPARTURE: paced_at_departure,
    PACED_PAST_HORIZON: lambda result: any(
        t > result.config.trace.horizon for t in result._paced_times),
}


class TestTieOrder:
    """Events at equal times run in the order they were scheduled, as in one
    heap keyed (t, seq): checked against that heap on runs full of ties."""

    @given(config=tied_aimd_configs())
    @settings(max_examples=300, deadline=None)
    # logs of 0 and 1 records: no packet sent, and one packet whose
    # departure, 0.25 s after an arrival in [0.875, 1), falls past the horizon
    @example(config=PacketSimConfig(CONSTANT_2_16, initial_window=0))
    @example(config=PacketSimConfig(CONSTANT_2_16, packet_size=2.0**14, forward_delay=0.875,
                                    initial_window=1))
    # the row cursor and the two arrival FIFOs at their edges; see EDGE_CASES
    @example(config=HOLD_JUMP)
    @example(config=RAMP_END)
    @example(config=INTERLEAVED)
    @example(config=TIED_ARRIVALS)
    # events of two kinds at one instant, which run in the order they were
    # scheduled; see EDGE_CASES
    @example(config=ARRIVAL_AT_DEPARTURE)
    @example(config=ACK_AT_DEPARTURE)
    @example(config=SENT_AT_OTHER_ACK)
    @example(config=PACED_AT_DEPARTURE)
    # a forward delay of one service time: an ACK's sends arrive tied with a
    # dequeue after the ACK's own instant has passed
    @example(config=PacketSimConfig(CONSTANT_2_16, packet_size=2.0**12, forward_delay=2.0**-4,
                                    x_to_b_delay=0.0, reverse_delay=0.0, aimd=AimdParams(0.5, 0.25),
                                    mark_threshold=0.0, initial_window=8, seed=0))
    # a paced packet sent before the horizon that arrives after it
    @example(config=PACED_PAST_HORIZON)
    def test_log_and_fields_equal_the_all_heap_loop(self, config):
        result = simulate_packets(config)
        expected = all_heap_reference(config)
        if config in EDGE_CASES:
            assert EDGE_CASES[config](result), "the example misses its edge"
        assert result.log == reference_log(expected["records"])
        assert event_log_to_csv(result) == reference_csv(expected["records"])
        for name in ("queue_delay_series", "peak_queue_delay", "congestion_reached",
                     "packets_sent", "packets_delivered"):
            assert getattr(result, name) == expected[name], name



class TestQueueBitsReplay:
    """The log's queue bits are the loop's running sum, not a product: with
    a packet size whose sums round, each record's bits equal the all-heap
    loop's ``+=``/``-=`` count to the last bit."""

    @given(config=tied_aimd_configs(sizes=NON_DYADIC_SIZES))
    @settings(max_examples=150, deadline=None)
    def test_records_equal_the_running_sum(self, config):
        result = simulate_packets(config)
        expected = all_heap_reference(config)

        def exact(log):
            return [(e.t.hex(), e.event, e.packet_id, e.queue_bits.hex(), e.detail) for e in log]

        assert exact(result.log) == exact(reference_log(expected["records"]))
        assert event_log_to_csv(result) == reference_csv(expected["records"])


class TestQueryCount:
    def test_one_capacity_query_per_service_start(self, monkeypatch):
        # deterministic cost check: the initial pacing makes the one checked
        # query, and a service start reads at most one rate off the row
        # cursor, so no per-packet bisection creeps in
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        capacity_at, rate_in = CapacityTrace.capacity_at, packetsim._rate_in
        queries = reads = 0

        def counted_query(self, t):
            nonlocal queries
            queries += 1
            return capacity_at(self, t)

        def counted_read(row, t):
            nonlocal reads
            reads += 1
            return rate_in(row, t)

        monkeypatch.setattr(CapacityTrace, "capacity_at", counted_query)
        monkeypatch.setattr(packetsim, "_rate_in", counted_read)
        result = simulate_packets(config)
        assert result.packets_delivered > 0
        assert queries == 1
        assert reads <= result.packets_delivered + 1, (reads, result.packets_delivered)

    @staticmethod
    def recorded_reads(monkeypatch) -> list[float]:
        """The instant of every ``_rate_in`` call the packet loop makes."""
        rate_in, instants = packetsim._rate_in, []

        def recorded(row, t):
            instants.append(t)
            return rate_in(row, t)

        monkeypatch.setattr(packetsim, "_rate_in", recorded)
        return instants

    def test_held_rows_read_no_rate(self, monkeypatch):
        # a hold row and a linear row between equal rates each price their
        # service time once, on entry, so no service start reads a rate
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        step = config.trace.breakpoints
        flat = CapacityTrace(
            (Breakpoint(0.0, 12e6, "linear"), Breakpoint(0.4, 12e6), *step[1:]),
            config.trace.horizon,
        )
        instants = self.recorded_reads(monkeypatch)
        for trace in (config.trace, flat):
            result = simulate_packets(dataclasses.replace(config, trace=trace))
            assert result.packets_delivered > 0
        assert instants == []

    def test_a_ramp_row_reads_one_rate_per_service_start(self, monkeypatch):
        # the service starts follow from the log by Lindley's recursion: a
        # packet starts at its arrival or at its predecessor's departure,
        # whichever is later; the ramp row reads the rate at each start
        # inside it, in order, and no other row reads one
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        trace = make_ramp_trace(12e6, 12e6 / 5.0, 0.8, 0.1, config.trace.horizon)
        instants = self.recorded_reads(monkeypatch)
        result = simulate_packets(dataclasses.replace(config, trace=trace))
        arrivals = [e.t for e in result.log if e.event == "enqueue"]
        departures = list(result._dequeue_times)
        starts = [max(a, d) for a, d in zip(arrivals, [0.0, *departures])]
        ramp_start, ramp_end = trace.times[1], trace.times[2]
        in_ramp = [t for t in starts if ramp_start <= t < ramp_end]
        assert len(in_ramp) > 50
        assert instants == in_ramp

    def test_a_saturated_run_makes_no_heap_operations(self, monkeypatch):
        # each arrival is served as it comes, and the ACKs and both kinds of
        # arrival wait in FIFOs already in time order
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        heappush, heappop = heapq.heappush, heapq.heappop
        calls = 0

        def counted_push(heap, item):
            nonlocal calls
            calls += 1
            heappush(heap, item)

        def counted_pop(heap):
            nonlocal calls
            calls += 1
            return heappop(heap)

        monkeypatch.setattr(heapq, "heappush", counted_push)
        monkeypatch.setattr(heapq, "heappop", counted_pop)
        result = simulate_packets(config)
        assert result.packets_delivered > 0
        assert calls == 0


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

    @pytest.mark.parametrize("pre", [50e6, 200e6])
    def test_steep_ramps_near_the_floor_hold(self, pre):
        # packet-aimd's settings at both ends of its pre-drop rates, on ramps
        # of d/8, d/4 and d/2: the slack does not cover the lead that held-
        # rate service on a ramp can give packets (see compare_to_bound), yet
        # every verdict holds, the smallest margin being 12.67 ms (50 Mb/s,
        # c = 2, d = 5 ms, ramp d/4)
        fwd, pkt, onset = 0.002, 12000.0, 0.8
        margins = []
        for c, d, ramp_over_d in itertools.product(
                (2.0, 5.0, 10.0, 20.0), (0.005, 0.02, 0.05), (0.125, 0.25, 0.5)):
            rtt, ramp = fwd + d, ramp_over_d * d
            horizon = onset + ramp + d + max((c - 1.0) * d, 2.5 * c * rtt) + 0.25
            trace = make_ramp_trace(pre, pre / c, onset, ramp, horizon)
            config = PacketSimConfig(
                trace, packet_size=pkt, forward_delay=fwd,
                x_to_b_delay=d / 2.0, reverse_delay=d / 2.0,
                aimd=AimdParams(2.0, 0.5), mark_threshold=1.5 * rtt,
                initial_window=math.ceil(1.25 * pre * rtt / pkt) + 2, seed=len(margins),
            )
            result = simulate_packets(config)
            cmp = compare_to_bound(result, detect_events(trace)[0], d)
            assert result.congestion_reached and not cmp.violation, (c, d, ramp, cmp)
            margins.append(cmp.measured_peak - (cmp.bound - cmp.slack))
        # no margin lies within the 1.378 ms lead a ramp can build up
        assert min(margins) > 0.002, min(margins)

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


class TestResultStorage:
    """The log and the series are stored as typed columns and built when read."""

    def test_traced_bytes_per_packet(self):
        # 25,661 packets and 77,423 log records; a tuple per record and a
        # detail string per ACK cost about 625 bytes per packet, five floats
        # per record about 139, a time and a code per event with the other
        # columns about 63, and the columns of arrivals, dequeues and ACKs
        # about 52; with a time per paced packet in place of the arrival
        # columns, the dequeue and ACK columns cost about 35
        config = PacketSimConfig(make_step_trace(1e8, 2e7, 3.0, 6.0))
        tracemalloc.start()
        try:
            result = simulate_packets(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.packets_sent == 25_661
        assert peak / result.packets_sent <= 40, peak / result.packets_sent

    def test_result_compares_hashes_pickles_and_replaces(self):
        config = saturated_step_config(12e6, 5.0, 0.02, seed=3)
        result = simulate_packets(config)
        again = simulate_packets(config)
        assert result == again
        assert hash(result) == hash(again)
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert restored.log == result.log
        assert restored.queue_delay_series == result.queue_delay_series
        replaced = dataclasses.replace(result, congestion_reached=not result.congestion_reached)
        assert replaced != result
        assert replaced.log == result.log
        assert replaced.queue_delay_series == result.queue_delay_series
        assert result != simulate_packets(dataclasses.replace(config, seed=4))

    def test_log_entries_carry_the_detail_text(self):
        result = simulate_packets(saturated_step_config(12e6, 10.0, 0.02, seed=9))
        lines = event_log_to_csv(result).splitlines()[1:]
        assert [line.split(",")[-1] for line in lines] == [e.detail for e in result.log]
        details = {(e.event, e.detail.split("=")[0]) for e in result.log}
        assert details == {
            ("enqueue", ""), ("dequeue", ""), ("dequeue", "marked"), ("mark", "sojourn"),
            ("ack", "cwnd"), ("ack", "marked cwnd"), ("window", "decrease cwnd"),
        }


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

    def test_service_time_must_be_finite(self):
        # 12000 / 5e-324 overflows to inf, and the initial burst would start
        # at 0 * inf = NaN
        subnormal = CapacityTrace((Breakpoint(0.0, 5e-324), Breakpoint(1.0, 5e-324)), 1.0)
        with pytest.raises(ValueError, match=r"packet_size 12000\.0 .* 5e-324 bit/s"):
            PacketSimConfig(subnormal)
        # 12000 / 1e-300 is 1.2e304 s: finite, so the run is valid
        slow = CapacityTrace((Breakpoint(0.0, 1e8), Breakpoint(0.5, 1e-300)), 0.5)
        result = simulate_packets(PacketSimConfig(slow))
        assert 0 < result.packets_delivered < result.packets_sent
        assert math.isfinite(result.peak_queue_delay)

    @pytest.mark.parametrize("field", ["packet_size", "forward_delay", "x_to_b_delay",
                                       "reverse_delay", "mark_threshold"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_float_fields_refuse_a_bool(self, field, flag):
        # float() and the range checks read True as 1: 1-bit packets, 1 s delays
        trace = make_step_trace(1e7, 1e6, 1.0, 2.0)
        with pytest.raises(ValueError, match=f"{field} must be a number, got {flag}"):
            PacketSimConfig(trace, **{field: flag})

    @pytest.mark.parametrize("field", ["additive_increase", "multiplicative_decrease"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_aimd_params_refuse_a_bool(self, field, flag):
        with pytest.raises(ValueError, match=f"{field} must be a number, got {flag}"):
            AimdParams(**{field: flag})

    def test_service_must_move_the_clock_at_the_horizon(self):
        # 2^-40 bits at 2^16 bit/s is 2^-56 s, which 1.0 + 2^-56 rounds away:
        # with zero delays the run never left t = 0 and sent packets until
        # the packet cap
        with pytest.raises(ValueError, match=r"packet_size 9\.094947017729282e-13 bits .* 65536\.0 bit/s"):
            PacketSimConfig(CONSTANT_2_16, packet_size=2.0**-40, forward_delay=0.0,
                            x_to_b_delay=0.0, reverse_delay=0.0, initial_window=1)
        # the top rate sets the bound: a slow row elsewhere does not help
        fast_then_slow = CapacityTrace((Breakpoint(0.0, 2.0**16), Breakpoint(0.5, 1.0)), 1.0)
        with pytest.raises(ValueError, match="top rate 65536.0"):
            PacketSimConfig(fast_then_slow, packet_size=2.0**-37)
        # one ulp of the horizon, 2^-52 s, is served
        PacketSimConfig(CONSTANT_2_16, packet_size=2.0**-36)

    @pytest.mark.parametrize("window", [2.5, math.nan, 3.0, "4", True, False])
    def test_initial_window_must_be_a_whole_number(self, window):
        # a bool is an int to isinstance: True would run one packet
        trace = make_step_trace(1e7, 1e6, 1.0, 2.0)
        with pytest.raises(ValueError, match="initial_window"):
            PacketSimConfig(trace, initial_window=window)

    @pytest.mark.parametrize("seed", [None, 1.5, "3", True, False])
    def test_seed_must_be_a_whole_number(self, seed):
        # random.Random(None) would seed from OS entropy and break
        # repeatability; False would run seed 0
        trace = make_step_trace(1e7, 1e6, 1.0, 2.0)
        with pytest.raises(ValueError, match="seed"):
            PacketSimConfig(trace, seed=seed)

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
