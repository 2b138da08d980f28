"""Closed-form peak transient queuing delay for capacity reductions.

A bottleneck whose capacity drops by a factor ``c`` while the sender keeps
transmitting at the old rate for the signaling latency ``d`` accumulates a
queue whose peak (measured as drain time at the final capacity) depends
only on ``c``, ``d``, and how fast the capacity declines.  This module has
the exact formulas, their inverse, and grid evaluation for plot data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from .trace import check_rate, check_seconds

__all__ = [
    "check_c_factor",
    "reduction_factor",
    "peak_delay_step",
    "peak_delay_ramp",
    "ramp_duration_for_target",
    "SweepGrid",
    "sweep",
]


def check_c_factor(value: float, name: str = "c_factor") -> float:
    """Validate a reduction factor: finite and >= 1 (1 means no reduction)."""
    value = float(value)
    if not math.isfinite(value) or value < 1.0:
        raise ValueError(f"{name} must be finite and >= 1, got {value!r}")
    return value


def reduction_factor(pre_rate: float, post_rate: float) -> float:
    """Ratio of old to new capacity; > 1 iff the change is a reduction."""
    return check_rate(pre_rate, "pre_rate") / check_rate(post_rate, "post_rate")


def peak_delay_step(c_factor: float, signal_delay: float) -> float:
    """Peak queuing delay after an instantaneous reduction: (c - 1) * d.

    During the ``d`` seconds the reduction signal needs to reach the
    sender, traffic arrives ``c`` times faster than it can leave, so each
    second adds c - 1 seconds of drain time.  Independent of the absolute
    link rate.
    """
    c = check_c_factor(c_factor)
    d = check_seconds(signal_delay, "signal_delay")
    return (c - 1.0) * d


def peak_delay_ramp(c_factor: float, signal_delay: float, ramp_duration: float) -> float:
    """Peak queuing delay when capacity declines linearly over ``ramp_duration``.

    (c-1)(2d - r)/2 while the ramp is no longer than the signaling delay,
    (c-1) d^2 / (2r) otherwise.  The branches agree at r = d (the first is
    used there), r = 0 recovers the step formula, and the value is
    non-increasing in r.
    """
    c = check_c_factor(c_factor)
    d = check_seconds(signal_delay, "signal_delay")
    r = check_seconds(ramp_duration, "ramp_duration")
    if r <= d:
        return (c - 1.0) * (2.0 * d - r) / 2.0
    return (c - 1.0) * d * d / (2.0 * r)


def ramp_duration_for_target(c_factor: float, signal_delay: float, target_delay: float) -> float:
    """The unique ramp duration whose peak delay equals ``target_delay``.

    The peak is strictly decreasing in the ramp duration for c > 1 and
    d > 0, so the inverse exists for any target in (0, (c-1)*d].
    """
    c = check_c_factor(c_factor)
    d = check_seconds(signal_delay, "signal_delay")
    q = float(target_delay)
    step_q = (c - 1.0) * d
    if not (math.isfinite(q) and 0.0 < q <= step_q):
        raise ValueError(
            f"target_delay must lie in (0, (c_factor - 1) * signal_delay] = (0, {step_q!r}], got {q!r}"
        )
    if q >= step_q / 2.0:
        # at q = (c-1)*d, q / (c-1) can round an ulp above d: clamp that to 0
        return max(0.0, 2.0 * (d - q / (c - 1.0)))
    return (c - 1.0) * d * d / (2.0 * q)


@dataclass(frozen=True)
class SweepGrid:
    """Dense closed-form evaluation over a (c x time) grid.

    Kind ``step`` sweeps the signaling delay; kind ``ramp`` sweeps the ramp
    duration at a fixed signaling delay.  results[i][j] pairs c_values[i]
    with time_values[j]; every value is in seconds.
    """

    kind: Literal["step", "ramp"]
    c_values: tuple[float, ...]
    time_values: tuple[float, ...]
    signal_delay: float | None
    results: tuple[tuple[float, ...], ...]

    def rows(self) -> Iterator[tuple[float, float, float, float]]:
        """Long-form (c, d, d_ramp, q_seconds) rows in deterministic order."""
        for c, qs in zip(self.c_values, self.results):
            for t, q in zip(self.time_values, qs):
                if self.kind == "step":
                    yield (c, t, 0.0, q)
                else:
                    yield (c, self.signal_delay, t, q)  # type: ignore[misc]


def sweep(
    c_values: Sequence[float],
    d_values: Sequence[float] | None = None,
    d_ramp_values: Sequence[float] | None = None,
    signal_delay: float | None = None,
) -> SweepGrid:
    """Evaluate the closed forms over a grid.

    Pass ``d_values`` for a step sweep, or ``d_ramp_values`` together with
    the fixed ``signal_delay`` for a ramp sweep; exactly one time axis is
    allowed and both axes must be non-empty.  A step sweep takes no
    ``signal_delay``: its delays are ``d_values``.
    """
    cs = tuple(check_c_factor(c) for c in c_values)
    if not cs:
        raise ValueError("c_values must be non-empty")
    if (d_values is None) == (d_ramp_values is None):
        raise ValueError("pass exactly one of d_values / d_ramp_values")
    if d_values is not None:
        if signal_delay is not None:
            raise ValueError(
                "a step sweep takes no signal_delay (its delays are d_values), "
                f"got {signal_delay!r}"
            )
        kind, name, values, check, d = "step", "d_values", d_values, "signal_delay", None
        q = peak_delay_step
    else:
        if signal_delay is None:
            raise ValueError("a ramp sweep needs the fixed signal_delay")
        kind, name, values, check = "ramp", "d_ramp_values", d_ramp_values, "ramp_duration"
        d = check_seconds(signal_delay, "signal_delay")
        q = lambda c, r: peak_delay_ramp(c, d, r)  # noqa: E731
    ts = tuple(check_seconds(t, check) for t in values)
    if not ts:
        raise ValueError(f"{name} must be non-empty")
    return SweepGrid(kind, cs, ts, d, tuple(tuple(q(c, t) for t in ts) for c in cs))
