"""Embedded reference datasets and named trace generators.

The WiFi table lists PHY rate levels consumer access points actually step
between; the path table lists Dublin-to-New-York one-way delays (physical
limits and public measurements) together with the queuing-delay floor each
implies at a 10x capacity drop.  The floor column is always computed from
the closed form, never stored, so it cannot drift from the formula.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bounds import peak_delay_step
from .trace import Breakpoint, CapacityTrace, check, make_ramp_trace, make_step_trace

__all__ = [
    "WifiRateRow",
    "PathDelayRow",
    "wifi_rates",
    "dublin_ny_table",
    "scenario_names",
    "scenario_description",
    "scenario_params",
    "scenario_trace",
]


class WifiRateRow(NamedTuple):
    technology: str
    note: str
    rate: float  # bit/s


_WIFI_ROWS = (
    ("WiFi 802.11b", "Min rate", 1e6),
    ("WiFi 802.11b", "Max rate", 11e6),
    ("WiFi 4 (20MHz, 2x2)", "Min rate", 14.4e6),
    ("WiFi 4 (20MHz, 2x2)", "Max rate", 144.4e6),
    ("WiFi 5 (20MHz, 2x2)", "Max rate", 173.3e6),
    ("WiFi 5 (40MHz, 2x2)", "Max rate", 400e6),
    ("WiFi 5 (80MHz, 2x2)", "Max rate", 866.7e6),
)


def wifi_rates() -> list[WifiRateRow]:
    """PHY rate levels a WiFi link steps between as channel conditions change."""
    return [WifiRateRow(t, n, r) for t, n, r in _WIFI_ROWS]


class PathDelayRow(NamedTuple):
    label: str
    one_way_delay: float  # seconds
    q_at_c10: float  # seconds; computed, never a stored literal
    lower_bound: bool = False  # measured rows are floors, not exact values


_PATH_DELAYS = (
    ("Speed of light", 0.017, False),
    ("Theoretically optimal LEO satellite", 0.02007, False),
    ("Theoretical optical terrestrial cable", 0.02507, False),
    ("Internet measurements", 0.0385, True),
)


def dublin_ny_table() -> list[PathDelayRow]:
    """Dublin-to-New-York one-way delays and the delay floor at a 10x drop."""
    return [
        PathDelayRow(label, d, peak_delay_step(10.0, d), lb) for label, d, lb in _PATH_DELAYS
    ]


def _wifi_step(
    pre_rate: float = 144.4e6,
    post_rate: float = 14.4e6,
    onset: float = 1.0,
    horizon: float = 5.0,
) -> CapacityTrace:
    return make_step_trace(pre_rate, post_rate, onset, horizon)


def _wifi_mcs_walk(
    rates: Sequence[float] = (866.7e6, 144.4e6, 14.4e6), dwell: float = 1.0
) -> CapacityTrace:
    values = tuple(rates)
    if len(values) < 2:
        raise ValueError("wifi-mcs-walk needs at least two rate levels")
    dwell = check(dwell, "dwell", "> 0", "seconds")
    bps = tuple(Breakpoint(i * dwell, r) for i, r in enumerate(values))
    return CapacityTrace(bps, dwell * len(values))


def _ramp_contention(
    pre_rate: float = 1e8,
    c_factor: float = 10.0,
    onset: float = 1.0,
    ramp_duration: float = 0.5,
    horizon: float = 5.0,
) -> CapacityTrace:
    c_factor = check(c_factor, "c_factor", "> 1")
    return make_ramp_trace(pre_rate, pre_rate / c_factor, onset, ramp_duration, horizon)


_SCENARIOS = {
    "wifi-step": (_wifi_step, "instant ~10x step between the WiFi 4 max and min rates"),
    "wifi-mcs-walk": (_wifi_mcs_walk, "walk down a sequence of PHY rate levels, one per dwell"),
    "ramp-contention": (
        _ramp_contention,
        "linear capacity decline, e.g. competing traffic ramping up on a shared link",
    ),
}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def _entry(name: str) -> tuple:
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    return _SCENARIOS[name]


def scenario_description(name: str) -> str:
    return _entry(name)[1]


def scenario_params(name: str) -> tuple[str, ...]:
    """The keyword parameters a registered scenario's builder takes."""
    code = _entry(name)[0].__code__
    return code.co_varnames[: code.co_argcount]


def scenario_trace(name: str, **params: object) -> CapacityTrace:
    """Build a registered scenario's trace; unknown names or parameters raise
    ValueError."""
    builder = _entry(name)[0]
    try:
        return builder(**params)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ValueError(f"bad parameters for scenario {name!r}: {exc}") from None
