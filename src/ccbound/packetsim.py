"""ACK-clocked AIMD packet baseline over a capacity trace.

A single flow crosses one FIFO bottleneck with an infinite buffer, so
nothing is ever dropped; congestion is signaled purely by marking packets
whose queue sojourn exceeds a threshold and echoing the mark on the ACK.
On a marked ACK the sender multiplies its window once per round trip;
otherwise it grows by ``additive_increase`` packets per round trip.  The
event loop is keyed by (time, sequence), so equal configs and seeds
produce bit-identical event logs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .bounds import peak_delay_ramp
from .trace import CapacityEvent, CapacityTrace, check_seconds, detect_events

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

_ARRIVE, _DEPART, _ACK, _MARKED_ACK = 0, 1, 2, 3

# Most packets one simulate_packets run may send; a send burst that would
# pass it is refused before any of its packets is scheduled.
MAX_PACKETS = 1_000_000


@dataclass(frozen=True)
class AimdParams:
    """Additive increase (packets per round trip) / multiplicative decrease."""

    additive_increase: float = 1.0
    multiplicative_decrease: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.additive_increase) and self.additive_increase > 0.0):
            raise ValueError(
                f"additive_increase must be > 0 packets per round trip, got {self.additive_increase!r}"
            )
        if not 0.0 < self.multiplicative_decrease < 1.0:
            raise ValueError(
                f"multiplicative_decrease must lie in (0, 1), got {self.multiplicative_decrease!r}"
            )


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
        if not (math.isfinite(self.packet_size) and self.packet_size > 0.0):
            raise ValueError(f"packet_size must be > 0 bits, got {self.packet_size!r}")
        check_seconds(self.forward_delay, "forward_delay")
        check_seconds(self.x_to_b_delay, "x_to_b_delay")
        check_seconds(self.reverse_delay, "reverse_delay")
        check_seconds(self.mark_threshold, "mark_threshold")
        if not isinstance(self.initial_window, int) or self.initial_window < 0:
            raise ValueError(
                f"initial_window must be a whole number >= 0 packets, got {self.initial_window!r}"
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
    log: tuple[LogEntry, ...]
    queue_delay_series: tuple[tuple[float, float], ...]  # (dequeue time, sojourn)
    peak_queue_delay: float
    congestion_reached: bool
    packets_sent: int
    packets_delivered: int


def _check_packet_count(count: int) -> None:
    if count > MAX_PACKETS:
        raise ValueError(
            f"the run would send {count} packets, over the cap of {MAX_PACKETS} "
            "(check the additive increase and the packet size)"
        )


def simulate_packets(config: PacketSimConfig) -> PacketSimResult:
    """Run the discrete-event loop up to the trace horizon.

    A packet's service time is packet_size / capacity at its service start,
    held for the whole packet; the queue is work-conserving and FIFO.  A
    run whose queue never holds a waiting packet before the first capacity
    reduction is flagged ``congestion_reached=False``: the sender never
    actually pressed against the link, so bound comparisons are vacuous and
    :func:`compare_to_bound` reports no violation for the run.
    A run that would send more than :data:`MAX_PACKETS` packets raises
    ValueError.
    """
    trace = config.trace
    horizon = trace.horizon
    pkt = config.packet_size
    fwd = config.forward_delay
    xb, rev = config.x_to_b_delay, config.reverse_delay
    ai = config.aimd.additive_increase
    md = config.aimd.multiplicative_decrease
    rng = random.Random(config.seed)

    events = detect_events(trace)
    warm_end = events[0].onset if events else horizon

    # Every packet's state lives in the heap key (t, seq, kind, packet id)
    # or in the FIFO queue; seq is unique, so ties never compare the kind.
    heap: list[tuple[float, int, int, int]] = []
    seq = itertools.count()
    # (packet id, arrival time); the head is in service while it is there
    queue: deque[tuple[int, float]] = deque()
    queue_bits = 0.0
    cwnd = float(config.initial_window)
    in_flight = 0
    next_pid = 0
    # One decrease per window of data: marks on packets sent before the last
    # decrease are stale echoes of the congestion already reacted to.
    recovery_end_pid = 0
    congestion_seen = False

    log: list[LogEntry] = []
    delays: list[tuple[float, float]] = []

    # Initial burst, paced at the initial link rate with seeded phase jitter
    # to break synchronization artifacts while staying deterministic.
    _check_packet_count(config.initial_window)
    spacing = pkt / trace.capacity_at(0.0)
    for k in range(config.initial_window):
        t0 = k * spacing + rng.random() * spacing * 0.5
        if t0 >= horizon:
            break
        heapq.heappush(heap, (t0 + fwd, next(seq), _ARRIVE, k))
        next_pid = in_flight = k + 1

    while heap and heap[0][0] <= horizon:
        t, _, kind, pid = heapq.heappop(heap)
        if kind == _ARRIVE:
            queue.append((pid, t))
            queue_bits += pkt
            log.append(LogEntry(t, "enqueue", pid, queue_bits))
            if len(queue) == 1:  # the server was idle
                heapq.heappush(heap, (t + pkt / trace.capacity_at(t), next(seq), _DEPART, pid))
        elif kind == _DEPART:
            head, arrived = queue.popleft()
            assert head == pid  # FIFO service order
            queue_bits -= pkt
            sojourn = t - arrived
            delays.append((t, sojourn))
            mark = sojourn > config.mark_threshold
            log.append(LogEntry(t, "dequeue", pid, queue_bits, "marked" if mark else ""))
            if mark:
                log.append(LogEntry(t, "mark", pid, queue_bits, f"sojourn={sojourn:.6f}"))
            ack = _MARKED_ACK if mark else _ACK
            heapq.heappush(heap, (t + xb + rev, next(seq), ack, pid))
            if queue:
                head, arrived = queue[0]
                service = pkt / trace.capacity_at(t)
                # saturated means a packet waited at least one full packet
                # behind others, not just the phase overlap of the initial burst
                if t <= warm_end and t - arrived > service:
                    congestion_seen = True
                heapq.heappush(heap, (t + service, next(seq), _DEPART, head))
        else:  # ACK back at the sender
            in_flight -= 1
            was_marked = kind == _MARKED_ACK
            if was_marked:
                if pid >= recovery_end_pid:
                    cwnd = max(1.0, cwnd * md)
                    recovery_end_pid = next_pid
                    log.append(LogEntry(t, "window", pid, queue_bits, f"decrease cwnd={cwnd:.3f}"))
            else:
                cwnd += ai / max(cwnd, 1.0)
            log.append(
                LogEntry(
                    t, "ack", pid, queue_bits,
                    ("marked " if was_marked else "") + f"cwnd={cwnd:.3f}",
                )
            )
            burst = int(cwnd + 1e-9) - in_flight
            if burst > 0 and t < horizon:
                _check_packet_count(next_pid + burst)
                for new_pid in range(next_pid, next_pid + burst):
                    heapq.heappush(heap, (t + fwd, next(seq), _ARRIVE, new_pid))
                next_pid += burst
                in_flight += burst

    return PacketSimResult(
        config=config,
        log=tuple(log),
        queue_delay_series=tuple(delays),
        peak_queue_delay=max((q for _, q in delays), default=0.0),
        congestion_reached=congestion_seen,
        packets_sent=next_pid,
        packets_delivered=len(delays),
    )


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
    """
    d = check_seconds(signal_delay, "signal_delay")
    post = [q for t, q in result.queue_delay_series if t >= event.onset]
    if not post:
        raise ValueError(
            f"no dequeues at or after the event onset {event.onset!r}s; "
            "the simulation does not cover the event window"
        )
    measured = max(post)
    bound = peak_delay_ramp(event.c_factor, d, event.ramp_duration)
    slack = result.config.packet_size / event.post_rate
    ratio = measured / bound if bound > 0.0 else None
    violation = result.congestion_reached and measured < bound - slack
    return BoundComparison(bound, measured, ratio, slack, violation)


def event_log_to_csv(result: PacketSimResult) -> str:
    lines = ["t_s,event_type,packet_id,queue_bits,detail"]
    lines += [f"{e.t!r},{e.event},{e.packet_id},{e.queue_bits!r},{e.detail}" for e in result.log]
    return "\n".join(lines) + "\n"
