"""Transient queuing delay analysis for end-to-end congestion control.

Closed-form peak-delay floors for capacity reductions, an exact fluid
queue simulator that validates them, a packet-level AIMD baseline that
cannot beat them, and reference scenarios, behind one CLI (``ccbound``).
"""

__version__ = "0.1.0"

from .bounds import (
    SweepGrid,
    peak_delay_ramp,
    peak_delay_step,
    ramp_duration_for_target,
    reduction_factor,
    sweep,
)
from .fluid import (
    ControllerSpec,
    FixedRate,
    FluidResult,
    FluidSample,
    ModelViolationError,
    OracleFinal,
    OracleTracking,
    SimConfig,
    fifo_delay_at,
    sample_result,
    sender_rate_trace,
    simulate_fluid,
)
from .packetsim import (
    AimdParams,
    BoundComparison,
    PacketSimConfig,
    PacketSimResult,
    compare_to_bound,
    event_log_to_csv,
    simulate_packets,
)
from .scenarios import (
    PathDelayRow,
    WifiRateRow,
    dublin_ny_table,
    scenario_names,
    scenario_trace,
    wifi_rates,
)
from .trace import (
    Breakpoint,
    CapacityEvent,
    CapacityTrace,
    SegmentMode,
    TraceParseError,
    detect_events,
    make_ramp_trace,
    make_step_trace,
    trace_from_csv,
    trace_to_csv,
)

__all__ = [
    "__version__",
    "Breakpoint",
    "CapacityEvent",
    "CapacityTrace",
    "SegmentMode",
    "TraceParseError",
    "detect_events",
    "make_ramp_trace",
    "make_step_trace",
    "trace_from_csv",
    "trace_to_csv",
    "SweepGrid",
    "peak_delay_ramp",
    "peak_delay_step",
    "ramp_duration_for_target",
    "reduction_factor",
    "sweep",
    "ControllerSpec",
    "FixedRate",
    "FluidResult",
    "FluidSample",
    "ModelViolationError",
    "OracleFinal",
    "OracleTracking",
    "SimConfig",
    "fifo_delay_at",
    "sample_result",
    "sender_rate_trace",
    "simulate_fluid",
    "AimdParams",
    "BoundComparison",
    "PacketSimConfig",
    "PacketSimResult",
    "compare_to_bound",
    "event_log_to_csv",
    "simulate_packets",
    "PathDelayRow",
    "WifiRateRow",
    "dublin_ny_table",
    "scenario_names",
    "scenario_trace",
    "wifi_rates",
]
