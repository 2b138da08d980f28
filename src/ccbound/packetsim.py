"""ACK-clocked AIMD packet baseline over a capacity trace.

A single flow crosses one FIFO bottleneck with an infinite buffer, so
nothing is ever dropped; congestion is signaled purely by marking packets
whose queue sojourn exceeds a threshold and echoing the mark on the ACK.
On a marked ACK the sender multiplies its window once per round trip;
otherwise it grows by ``additive_increase`` packets per round trip.

The loop takes its two event sources, the paced initial burst and the
ACKs back at the sender, in time order; both are FIFOs in time order, so
none needs a heap.  A FIFO server's departures follow from its arrivals by
Lindley's recursion (D. V. Lindley, "The theory of queues with a single
server", Proc. Cambridge Phil. Soc. 48(2), 1952): a service starts at the
later of its arrival and the previous departure, and its ACK is queued for
one return trip after its departure.  Departures depend only on the order
of the arrivals, and sends arrive in the order they are made, so a send is
served when it is made.  Equal configs and seeds give bit-identical runs.
Service starts never go back in time, so a cursor that only moves forward
finds the trace row that sets each packet's rate.  A row whose rate holds
prices its packet service time once, when the cursor enters it; only a
row whose rate changes reads the rate at each service start.

A run formats nothing while it runs.  It stores what the loop decides, in
four typed columns: the arrival time of each paced packet, the dequeue
time and sojourn of each delivered packet, and the mark code of each ACK.
One reader replays each ACK's window and send count from its code with
the loop's own float operations, and the log on a (t, seq) heap; the
``log``, :func:`event_log_to_csv` and the CLI's ``--log-out`` read it.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple

from .bounds import peak_delay_ramp
from .trace import CapacityEvent, CapacityTrace, _rate_in, check, check_seconds, detect_events

__all__ = [
    "AimdParams",
    "PacketSimConfig",
    "LogEntry",
    "PacketSimResult",
    "BoundComparison",
    "simulate_packets",
    "compare_to_bound",
    "event_log_to_csv",
]

# One mark code per ACK: unmarked; marked, an echo of a mark already
# reacted to; and marked, cutting the window, which writes a window record
# before its ack record.
_ACKED, _ACKED_MARKED, _DECREASED = range(3)
# The kinds of event the log's reader replays
_ENQ, _DEQ, _ACK = range(3)

# Most packets one simulate_packets run may send; a send burst that would
# pass it is refused before any of its packets is scheduled.
MAX_PACKETS = 1_000_000


def _check_fields(config, rows: tuple[tuple[str, str, str], ...]) -> None:
    """Check each ``(field, domain, unit)`` of ``rows`` on the frozen
    ``config`` in turn, and set the field to the value checked."""
    for name, domain, unit in rows:
        object.__setattr__(config, name, check(getattr(config, name), name, domain, unit))


@dataclass(frozen=True)
class AimdParams:
    """Additive increase (packets per round trip) / multiplicative decrease."""

    additive_increase: float = 1.0
    multiplicative_decrease: float = 0.5

    def __post_init__(self) -> None:
        _check_fields(self, (("additive_increase", "> 0", "packets per round trip"),
                             ("multiplicative_decrease", "(0, 1)", "")))


@dataclass(frozen=True)
class PacketSimConfig:
    trace: CapacityTrace
    packet_size: float = 12000.0  # bits (1500-byte packets)
    forward_delay: float = 0.002  # sender -> bottleneck
    x_to_b_delay: float = 0.005  # bottleneck -> receiver
    reverse_delay: float = 0.005  # receiver -> sender (ACK path)
    aimd: AimdParams = AimdParams()
    mark_threshold: float = 0.02  # queue sojourn that gets a packet marked
    initial_window: int = 10  # packets
    seed: int = 0

    def __post_init__(self) -> None:
        # the seed is a whole number: random.Random(None) would seed from OS
        # entropy and break byte-identical logs per config
        _check_fields(self, (("packet_size", "> 0", "bits"), ("forward_delay", ">= 0", "seconds"),
                             ("x_to_b_delay", ">= 0", "seconds"), ("reverse_delay", ">= 0", "seconds"),
                             ("mark_threshold", ">= 0", "seconds"),
                             ("initial_window", "whole >= 0", "packets"), ("seed", "whole", "")))
        # no rate on the trace lies outside its breakpoint rates, so every
        # service time is finite when the slowest is, and moves the clock
        # at the horizon when the fastest does
        rates = [bp.rate for bp in self.trace.breakpoints]
        lowest, top, horizon = min(rates), max(rates), self.trace.horizon
        if not math.isfinite(self.packet_size / lowest):
            raise ValueError(
                f"packet_size {self.packet_size!r} bits has no finite service time "
                f"at the trace's lowest rate {lowest!r} bit/s"
            )
        # a service that adds nothing to the horizon can leave a run with no
        # delays at one instant, sending packets until the packet cap
        if horizon + self.packet_size / top == horizon:
            raise ValueError(
                f"packet_size {self.packet_size!r} bits is served at the trace's top rate "
                f"{top!r} bit/s in less time than the horizon {horizon!r} s can add"
            )


class LogEntry(NamedTuple):
    t: float
    event: str  # enqueue | dequeue | mark | ack | window
    packet_id: int
    queue_bits: float
    detail: str = ""


@dataclass(frozen=True)
class PacketSimResult:
    config: PacketSimConfig
    # One arrival time per paced packet, set by the seeded jitter (a sent
    # packet's follows from its ACK); one dequeue time and one sojourn per
    # delivered packet; one mark code per ACK, from which _acks replays its
    # window and send count.  Arrays are unhashable, so hash() skips them;
    # it still agrees with ==, which compares them.
    _paced_times: array = field(repr=False, hash=False)
    _dequeue_times: array = field(repr=False, hash=False)
    _sojourns: array = field(repr=False, hash=False)
    _codes: bytearray = field(repr=False, hash=False)
    peak_queue_delay: float
    congestion_reached: bool
    packets_sent: int
    packets_delivered: int

    @property
    def log(self) -> tuple[LogEntry, ...]:
        """The event log, built from the run's columns on each read."""
        return tuple(map(LogEntry._make, _records(self)))

    @property
    def queue_delay_series(self) -> tuple[tuple[float, float], ...]:
        """(dequeue time, sojourn) per delivered packet, built on each read."""
        return tuple(zip(self._dequeue_times, self._sojourns))


def _over_packet_cap(count: int) -> ValueError:
    """The error for a run that would send ``count`` packets, over the cap;
    a count past 15 digits, which a float may round, is written ``{:.6g}``."""
    text = count if count < 10**15 else f"{count:.6g}"
    return ValueError(
        f"the run would send {text} packets, over the cap of {MAX_PACKETS} "
        "(check the additive increase and the packet size)"
    )


def simulate_packets(config: PacketSimConfig) -> PacketSimResult:
    """Run the event loop up to the trace horizon.

    A packet's service time is packet_size / capacity at its service start,
    held for the whole packet.  The queue is FIFO, so each arrival is served
    as it comes, by Lindley's recursion: its service starts at the later of
    its arrival and the previous departure.  A packet that departs after the
    horizon is not delivered, and no later packet is served.  The loop
    takes one step per paced packet and one per ACK, whose send burst
    arrives whole one forward delay on and is served in that step, after
    each paced packet that arrives no later, a tie included: ACK times
    never decrease, so no later send arrives first.  An arrival past the
    horizon is not served, and the ACKs up to the horizon still run.  The
    server's state depends on the order of the arrivals alone, and the
    sender's on that of the ACKs; the log orders the events of different
    kinds at one instant when it is read.
    A run whose queue never holds a waiting packet before the first
    capacity reduction is flagged ``congestion_reached=False``: the sender
    never actually pressed against the link, so bound comparisons are
    vacuous and :func:`compare_to_bound` reports no violation for the run.
    A run that would send more than :data:`MAX_PACKETS` packets raises
    ValueError.
    """
    trace = config.trace
    horizon = trace.horizon
    pkt = config.packet_size
    fwd = config.forward_delay
    xb, rev = config.x_to_b_delay, config.reverse_delay
    threshold = config.mark_threshold
    ai = config.aimd.additive_increase
    md = config.aimd.multiplicative_decrease
    rng = random.Random(config.seed)

    events = detect_events(trace)
    warm_end = events[0].onset if events else horizon

    # The event sources, each in time order: the paced burst, (arrival time,
    # id, id + 1), and the ACKs, (time, marked, id), in departure order.
    paced: deque[tuple[float, int, int]] = deque()
    acks: deque[tuple[float, bool, int]] = deque()
    # the departure of the last packet served; once it passes the horizon,
    # nothing more is served
    free = -math.inf
    cwnd = float(config.initial_window)
    in_flight = 0
    next_pid = 0
    # One decrease per window of data: marks on packets sent before the last
    # decrease are stale echoes of the congestion already reacted to.
    recovery_end_pid = 0
    congestion_seen = False
    # Row r of the trace is the last to start at or before the latest
    # service start, where bisect_right(times, start) - 1 lands; service
    # starts never go back in time, so r only steps past next_starts[r] <=
    # start.  On a row whose two rates are equal _rate_in returns the start
    # rate, so held = pkt / rate is priced once on entering the row; held is
    # None on a row whose rate changes, which is read at each service start.
    rows = trace._rows  # type: ignore[attr-defined]
    next_starts = (*trace.times[1:], math.inf)
    r = 0
    row = rows[0]
    held = pkt / row[2] if row[4] == row[2] else None

    paced_times = array("d")
    dequeue_times, sojourns, codes = array("d"), array("d"), bytearray()

    # Initial burst, paced at the initial link rate with seeded phase jitter
    # to break synchronization artifacts while staying deterministic.
    if config.initial_window > MAX_PACKETS:
        raise _over_packet_cap(config.initial_window)
    spacing = pkt / trace.capacity_at(0.0)
    for k in range(config.initial_window):
        t0 = k * spacing + rng.random() * spacing * 0.5
        if t0 >= horizon:
            break
        paced_times.append(t0 + fwd)
        paced.append((t0 + fwd, k, k + 1))
        next_pid = in_flight = k + 1

    while True:
        # a paced packet goes first if it arrives no later than the oldest ACK's sends
        if paced and not (acks and acks[0][0] + fwd < paced[0][0]):
            t, first, end = paced.popleft()
        else:
            if not acks:
                break
            t, marked, pid = acks.popleft()
            # not "t > horizon": a NaN time ends the run as well
            if not t <= horizon:
                break
            # _acks replays this branch from the codes: keep the two bit for bit
            in_flight -= 1
            if marked:
                if pid >= recovery_end_pid:
                    cwnd = max(1.0, cwnd * md)
                    recovery_end_pid = next_pid
                    codes.append(_DECREASED)
                else:
                    codes.append(_ACKED_MARKED)
            else:
                # cwnd >= 1 here: an ACK needs initial_window >= 1, and every
                # decrease stops at 1
                cwnd += ai / cwnd
                codes.append(_ACKED)
            # cwnd sums ai / cwnd steps, each rounded: a window within 1e-9
            # below a whole number of packets counts as that number
            burst = int(cwnd + 1e-9) - in_flight
            if not (burst > 0 and t < horizon):
                continue
            first, end = next_pid, next_pid + burst
            if end > MAX_PACKETS:
                raise _over_packet_cap(end)
            next_pid, in_flight = end, in_flight + burst
            t += fwd  # the burst arrives whole one forward delay on, served now
        # no arrival past the horizon, or behind a departure past it, is served
        if not (t <= horizon and free <= horizon):
            continue
        for pid in range(first, end):
            start = free if free > t else t
            if next_starts[r] <= start:
                while next_starts[r] <= start:
                    r += 1
                row = rows[r]
                held = pkt / row[2] if row[4] == row[2] else None
            service = pkt / _rate_in(row, start) if held is None else held
            # saturated means a packet waited at least one full packet
            # behind others, not just the phase overlap of the initial burst
            if start <= warm_end and start - t > service:
                congestion_seen = True
            free = start + service
            if not free <= horizon:
                break
            sojourn = free - t
            dequeue_times.append(free)
            sojourns.append(sojourn)
            acks.append((free + xb + rev, sojourn > threshold, pid))

    return PacketSimResult(
        config=config,
        _paced_times=paced_times,
        _dequeue_times=dequeue_times,
        _sojourns=sojourns,
        _codes=codes,
        peak_queue_delay=max(sojourns, default=0.0),
        congestion_reached=congestion_seen,
        packets_sent=next_pid,
        packets_delivered=len(sojourns),
    )


def _acks(result: PacketSimResult) -> Iterator[tuple[int, float, int]]:
    """Each ACK's mark code, window and send count, the last two replayed by
    the ACK branch of :func:`simulate_packets` (``in_flight -= 1`` to
    ``in_flight + burst``) in its float operations; the two must agree bit for bit."""
    config, aimd = result.config, result.config.aimd
    xb, rev, horizon = config.x_to_b_delay, config.reverse_delay, config.trace.horizon
    cwnd, in_flight = float(config.initial_window), len(result._paced_times)
    for departure, code in zip(result._dequeue_times, result._codes):
        in_flight -= 1
        if code == _ACKED:
            cwnd += aimd.additive_increase / cwnd
        elif code == _DECREASED:
            cwnd = max(1.0, cwnd * aimd.multiplicative_decrease)
        burst = int(cwnd + 1e-9) - in_flight
        burst = burst if burst > 0 and departure + xb + rev < horizon else 0
        in_flight += burst
        yield code, cwnd, burst


@dataclass(frozen=True)
class BoundComparison:
    """Measured post-onset peak against the analytic floor for one event."""

    bound: float
    measured_peak: float
    ratio: float | None  # measured / bound; None when the bound is 0
    slack: float
    violation: bool  # congestion reached and measured < bound - slack


def compare_to_bound(
    result: PacketSimResult, event: CapacityEvent, signal_delay: float
) -> BoundComparison:
    """Compare the measured peak queue delay after ``event.onset`` with the
    closed-form floor for the event.

    The slack is one packet serialization time at the event's final rate,
    the discretization a fluid model does not see.  A measurement below
    bound - slack is flagged as a violation only when
    ``result.congestion_reached``; for a sender that never pressed against
    the link the comparison is vacuous.

    The slack does not cover the held-rate service of a falling ramp.  A
    packet is served at the rate where its service starts, held for the
    whole packet, so during a ramp packets finish ahead of the exact
    integral of the capacity, and the lead builds up over the ramp.
    12000-bit packets served back to back on ``make_ramp_trace(1e8, 1e7,
    1.0, 0.2, 5.0)`` finish 1.378 ms ahead of it by the ramp's end (t =
    1.201 s), and stay that far ahead while the server is busy, against a
    slack of 1.2 ms.  A shortfall that large can come from the
    discretization alone and still be flagged.  No verdict measured so far
    hinges on it: over acceptance criterion 6's 100 step runs and the 80
    packet-aimd benchmark ops of seeds 101-105, 60 of them ramps, the
    smallest margin ``measured_peak - (bound - slack)`` is 54.19 ms (71.16
    ms on a ramp), and no margin lies below 1.378 ms.  Steeper ramps near
    the floor keep every verdict too: on ramps of d/8, d/4 and d/2 for c in
    {2, 5, 10, 20} and d in {5, 20, 50} ms, with packet-aimd's other
    settings at pre-drop rates of 50 and 200 Mb/s, the smallest margin is
    12.67 ms (50 Mb/s, c = 2, d = 5 ms, a ramp of d/4).
    """
    d = check_seconds(signal_delay, "signal_delay")
    # dequeue times never decrease, so the dequeues at or after the onset
    # are a suffix of the series
    first = bisect_left(result._dequeue_times, event.onset)
    if first == len(result._dequeue_times):
        raise ValueError(
            f"no dequeues at or after the event onset {event.onset!r}s; "
            "the simulation does not cover the event window"
        )
    measured = max(result._sojourns[first:])
    bound = peak_delay_ramp(event.c_factor, d, event.ramp_duration)
    slack = result.config.packet_size / event.post_rate
    ratio = measured / bound if bound > 0.0 else None
    violation = result.congestion_reached and measured < bound - slack
    return BoundComparison(bound, measured, ratio, slack, violation)


def _records(result: PacketSimResult) -> Iterator[tuple[float, str, int, float, str]]:
    """The log's records in order, each ``(t, event, packet id, queue bits,
    detail)``, read from the run's columns.

    It replays the loop that also runs each departure as an event, from one
    heap keyed (t, seq), where seq ticks as each event is scheduled: events
    at one instant run in the order they were scheduled.  The paced
    enqueues are scheduled first.  An enqueue into an empty queue schedules
    its packet's departure; a dequeue its ACK, one return trip on, then the
    next departure if a packet waits; an ACK the enqueues of its sends, one
    forward delay on.  The k-th dequeue and ACK read the k-th dequeue time
    and sojourn, and what :func:`_acks` replays; no departure follows the
    last one delivered.  A sent packet arrives at ``(departure +
    x_to_b_delay + reverse_delay) + forward_delay``: the loop's own float
    operations, as are the queue bits' ``+= packet_size`` and ``-=
    packet_size``, so every record comes out bit for bit.
    """
    config = result.config
    pkt, threshold, horizon = config.packet_size, config.mark_threshold, config.trace.horizon
    fwd, xb, rev = config.forward_delay, config.x_to_b_delay, config.reverse_delay
    dequeue_times, sojourns, acks_of = result._dequeue_times, result._sojourns, _acks(result)
    delivered = len(dequeue_times)
    push, pop, tick = heapq.heappush, heapq.heappop, count().__next__
    # Events are (t, seq, kind, packet id).  Each FIFO below is scheduled in
    # (t, seq) order, so the heap holds only its oldest event, beside the
    # pending departure.
    paced = deque((t, tick(), _ENQ, pid) for pid, t in enumerate(result._paced_times))
    arrivals: deque[tuple[float, int, int, int]] = deque()  # of the sent packets
    acks: deque[tuple[float, int, int, int]] = deque()
    heap = [paced[0]] if paced else []
    queue: deque[int] = deque()  # the ids of the queued packets, head first
    npaced = next_pid = len(paced)
    bits, j = 0.0, 0  # the queue bits; j dequeues have run
    while heap and heap[0][0] <= horizon:
        t, _, kind, pid = pop(heap)
        if kind != _DEQ:  # the next event of its FIFO takes its place
            fifo = acks if kind == _ACK else paced if pid < npaced else arrivals
            fifo.popleft()
            if fifo:
                push(heap, fifo[0])
        if kind == _ENQ:
            bits += pkt
            yield t, "enqueue", pid, bits, ""
            queue.append(pid)
            if len(queue) == 1 and j < delivered:
                push(heap, (dequeue_times[j], tick(), _DEQ, pid))
        elif kind == _DEQ:
            queue.popleft()
            bits -= pkt
            sojourn = sojourns[j]
            if sojourn > threshold:
                yield t, "dequeue", pid, bits, "marked"
                yield t, "mark", pid, bits, f"sojourn={sojourn:.6f}"
            else:
                yield t, "dequeue", pid, bits, ""
            ack = (t + xb + rev, tick(), _ACK, pid)
            if not acks:
                push(heap, ack)
            acks.append(ack)
            j += 1
            if queue and j < delivered:
                push(heap, (dequeue_times[j], tick(), _DEQ, queue[0]))
        else:
            code, cwnd, sends = next(acks_of)
            if code == _ACKED:
                yield t, "ack", pid, bits, f"cwnd={cwnd:.3f}"
            else:
                if code == _DECREASED:
                    yield t, "window", pid, bits, f"decrease cwnd={cwnd:.3f}"
                yield t, "ack", pid, bits, f"marked cwnd={cwnd:.3f}"
            end, arrival = next_pid + sends, t + fwd
            for sent in range(next_pid, end):
                entry = (arrival, tick(), _ENQ, sent)
                if not arrivals:
                    push(heap, entry)
                arrivals.append(entry)
            next_pid = end


def _log_lines(result: PacketSimResult) -> Iterator[str]:
    """The lines of :func:`event_log_to_csv` in turn, the header first."""
    yield "t_s,event_type,packet_id,queue_bits,detail\n"
    # the queue bits take few distinct values, so each is repr'd once; equal
    # values share one text, as the count never reaches -0.0
    texts: dict[float, str] = {}
    for t, event, pid, bits, detail in _records(result):
        text = texts.get(bits)
        if text is None:
            text = texts[bits] = repr(bits)
        yield f"{t!r},{event},{pid},{text},{detail}\n"


def event_log_to_csv(result: PacketSimResult) -> str:
    """The event log as CSV text, one row per record; times and queue bits
    are written as ``repr`` of the float."""
    return "".join(_log_lines(result))
