"""Command-line front end: bounds, simulations, sweeps, scenario data, and
trace ingestion, emitting plot-ready CSV or JSON.

Flags use milliseconds and Mbit/s; conversion to the library's internal
seconds and bit/s happens here and only here.  Results are built in SI with
each key's unit as its suffix and converted on output through one table,
``_s`` -> ``_ms`` and ``_bps`` -> ``_mbps``.  Exit codes are a stable
contract: 0 success, 2 bad usage or flag values, 3 malformed input data,
4 model violation (e.g. overlapping oracle signal windows).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from operator import attrgetter, truediv

from . import __version__
from .bounds import peak_delay_ramp, peak_delay_step, reduction_factor, sweep
from .fluid import (
    FixedRate,
    ModelViolationError,
    OracleFinal,
    OracleTracking,
    SimConfig,
    result_to_json_dict,
    sample_result,
    simulate_fluid,
)
from .packetsim import (
    AimdParams,
    PacketSimConfig,
    compare_to_bound,
    event_log_to_csv,
    simulate_packets,
)
from .scenarios import (
    dublin_ny_table,
    scenario_description,
    scenario_names,
    scenario_trace,
    wifi_rates,
)
from .trace import TraceParseError, detect_events, trace_from_csv, trace_to_csv

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_MODEL = 0, 2, 3, 4

MS = 1e-3
MBPS = 1e6

UNITS = {"time": "ms", "rate": "Mbit/s", "backlog": "bits"}

# Output unit table: SI key suffix -> (CLI key suffix, divisor).
_OUT_UNITS = (("_s", "_ms", MS), ("_bps", "_mbps", MBPS))

_FLUID_SERIES = ("t_s", "backlog_bits", "delay_s", "fifo_delay_s")
_fluid_row = attrgetter("t", "backlog", "delay_final_norm", "fifo_delay")
_AIMD_SERIES = ("t_s", "queue_delay_s")

# CLI-side scenario parameter names (boundary units) -> library kwargs (SI).
_SCENARIO_KEY_MAP = {
    "pre_mbps": ("pre_rate", MBPS),
    "post_mbps": ("post_rate", MBPS),
    "onset_ms": ("onset", MS),
    "horizon_ms": ("horizon", MS),
    "ramp_ms": ("ramp_duration", MS),
    "dwell_ms": ("dwell", MS),
    "c_factor": ("c_factor", 1.0),
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _echo_params(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "format")}


def _envelope(command: str, args: argparse.Namespace, results: dict) -> str:
    doc = {
        "command": command,
        "params": _echo_params(args),
        "results": results,
        "units": UNITS,
        "version": __version__,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cli_name(key: str) -> tuple[str, float]:
    """An SI result key renamed to CLI units, and the divisor for its value."""
    for si, cli, scale in _OUT_UNITS:
        if key.endswith(si):
            return key.removesuffix(si) + cli, scale
    return key, 1.0


def _cli_units(si: dict) -> dict:
    """An SI result dict in CLI units; nested dicts and lists of dicts too."""
    out = {}
    for key, value in si.items():
        name, scale = _cli_name(key)
        if isinstance(value, dict):
            value = _cli_units(value)
        elif isinstance(value, list):
            value = [_cli_units(v) for v in value]
        elif scale != 1.0 and value is not None:
            value /= scale
        out[name] = value
    return out


def _cell(value, scale: float):
    """A reference-table cell: numbers in compact fixed point (microsecond
    precision in ms columns), flags as true/false."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value / scale:.6f}".rstrip("0").rstrip(".") or "0"
    return value


def _table_csv(columns: tuple[str, ...], rows: list[tuple]) -> str:
    names, scales = zip(*map(_cli_name, columns))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(map(_cell, row, scales) for row in rows)
    return buf.getvalue()


def _write_run(args: argparse.Namespace, summary: dict, columns: tuple[str, ...], rows) -> int:
    """Write a simulate run's SI summary and series ``rows`` (tuples in
    ``columns`` order; None for a JSON run without a series) in CLI units."""
    summary = _cli_units(summary)
    names, scales = zip(*map(_cli_name, columns))
    if args.format == "csv":
        lines = [",".join(names)]
        lines += [",".join(map(repr, map(truediv, row, scales))) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
        print(json.dumps({"summary": summary}, sort_keys=True), file=sys.stderr)
        return EXIT_OK
    results: dict = {"summary": summary}
    if rows is not None:
        results["series"] = [
            {n: None if v != v else v for n, v in zip(names, map(truediv, row, scales))}
            for row in rows
        ]
    _emit(_envelope("simulate", args, results), args.out)
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError(f"{flag} must list at least one value")
    try:
        return [float(x) for x in items]
    except ValueError:
        raise ValueError(f"{flag} contains a malformed number: {text!r}") from None


def _scenario_params(pairs: list[str]) -> dict:
    params: dict = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"scenario parameter must look like key=value, got {pair!r}")
        if key == "rates_mbps":
            params["rates"] = tuple(float(x) * MBPS for x in val.split(":") if x.strip())
            continue
        if key not in _SCENARIO_KEY_MAP:
            known = ", ".join(sorted(_SCENARIO_KEY_MAP) + ["rates_mbps"])
            raise ValueError(f"unknown scenario parameter {key!r}; known: {known}")
        dest, scale = _SCENARIO_KEY_MAP[key]
        params[dest] = float(val) * scale
    return params


def _load_trace(args: argparse.Namespace):
    if args.trace is not None and args.scenario is not None:
        raise ValueError("pass --trace or --scenario, not both")
    if args.trace is not None:
        if args.trace == "-":
            text = sys.stdin.read()
        else:
            with open(args.trace, "r", encoding="utf-8") as fh:
                text = fh.read()
        return trace_from_csv(text)
    if args.scenario is not None:
        return scenario_trace(args.scenario, **_scenario_params(args.scenario_param or []))
    raise ValueError("need a trace source: --trace <csv path> or --scenario <name>")


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.c_factor is not None:
        if args.pre_rate is not None or args.post_rate is not None:
            raise ValueError("pass either --c-factor or --pre-rate/--post-rate, not both")
        c = float(args.c_factor)
    else:
        if args.pre_rate is None or args.post_rate is None:
            raise ValueError("need --c-factor or both --pre-rate and --post-rate")
        c = reduction_factor(args.pre_rate * MBPS, args.post_rate * MBPS)
    d = args.delay_ms * MS
    if args.ramp_ms is None:
        q = peak_delay_step(c, d)
        branch = "step"
    else:
        r = args.ramp_ms * MS
        q = peak_delay_ramp(c, d, r)
        branch = "short_ramp" if r <= d else "long_ramp"
    results = _cli_units({"q_s": q, "branch": branch, "c_factor": c})
    if args.debug_echo:  # SI, past the unit table
        results["internal"] = {
            "c_factor": c,
            "signal_delay_s": d,
            "ramp_duration_s": None if args.ramp_ms is None else args.ramp_ms * MS,
        }
    if args.format == "csv":
        ramp = "" if args.ramp_ms is None else repr(float(args.ramp_ms))
        text = (
            "c_factor,delay_ms,ramp_ms,q_ms,branch\n"
            f"{c!r},{float(args.delay_ms)!r},{ramp},{results['q_ms']!r},{branch}\n"
        )
    else:
        text = _envelope("bound", args, results)
    _emit(text, args.out)
    return EXIT_OK


def _parse_fluid_controller(spec: str, delay_ms: float | None):
    if spec in ("oracle-final", "oracle-tracking"):
        if delay_ms is None:
            raise ValueError(f"--delay-ms is required for controller {spec!r}")
        d = delay_ms * MS
        return OracleFinal(d) if spec == "oracle-final" else OracleTracking(d)
    if spec.startswith("fixed:"):
        return FixedRate(float(spec.removeprefix("fixed:")) * MBPS)
    raise ValueError(
        f"unknown controller {spec!r} (oracle-final | oracle-tracking | fixed:<Mbit/s> | aimd)"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    sim_horizon = None if args.horizon_ms is None else args.horizon_ms * MS
    if args.controller == "aimd":
        return _simulate_aimd(args, trace, sim_horizon)

    controller = _parse_fluid_controller(args.controller, args.delay_ms)
    config = SimConfig(trace, controller, horizon=sim_horizon)
    result = simulate_fluid(config)
    summary = {"controller": args.controller, **result_to_json_dict(result)}
    d = None if args.delay_ms is None else args.delay_ms * MS
    for e, row in zip(result.events, summary["events"]):
        row["bound_s"] = None if d is None else peak_delay_ramp(e.c_factor, d, e.ramp_duration)

    sample_ms = args.sample_ms
    if args.format == "csv" and sample_ms is None:
        sample_ms = 10.0
    rows = None if sample_ms is None else map(_fluid_row, sample_result(result, sample_ms * MS))
    return _write_run(args, summary, _FLUID_SERIES, rows)


def _simulate_aimd(args: argparse.Namespace, trace, sim_horizon: float | None) -> int:
    if sim_horizon is not None:
        raise ValueError(
            "--horizon-ms is not supported with the aimd controller; "
            "set the trace horizon instead (scenario parameter horizon_ms or the trace CSV)"
        )
    config = PacketSimConfig(
        trace=trace,
        packet_size=args.packet_bytes * 8.0,
        forward_delay=args.fwd_ms * MS,
        x_to_b_delay=args.xb_ms * MS,
        reverse_delay=args.rev_ms * MS,
        aimd=AimdParams(args.ai, args.md),
        mark_threshold=args.mark_threshold_ms * MS,
        initial_window=args.initial_window,
        seed=args.seed,
    )
    result = simulate_packets(config)
    summary: dict = {
        "controller": "aimd",
        "peak_queue_delay_s": result.peak_queue_delay,
        "congestion_reached": result.congestion_reached,
        "packets_sent": result.packets_sent,
        "packets_delivered": result.packets_delivered,
    }
    events = detect_events(trace)
    if events:
        try:
            cmp = compare_to_bound(result, events[0], (args.xb_ms + args.rev_ms) * MS)
            summary["bound_comparison"] = {
                "bound_s": cmp.bound,
                "measured_peak_s": cmp.measured_peak,
                "ratio": cmp.ratio,
                "slack_s": cmp.slack,
                "violation": cmp.violation,
            }
        except ValueError as exc:
            summary["bound_comparison"] = {"error": str(exc)}
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(event_log_to_csv(result))

    series = args.format == "csv" or args.sample_ms is not None
    return _write_run(args, summary, _AIMD_SERIES, result.queue_delay_series if series else None)


def _self_test_grid(grid) -> None:
    # Independent re-evaluation of every cell straight from the formula.
    for c, d, r, q in grid.rows():
        expected = (c - 1.0) * (2.0 * d - r) / 2.0 if r <= d else (c - 1.0) * d * d / (2.0 * r)
        if not math.isclose(q, expected, rel_tol=1e-12, abs_tol=1e-15):
            raise RuntimeError(
                f"sweep self-test mismatch at c={c} d={d} d_ramp={r}: {q} != {expected}"
            )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.fig5 and args.fig7:
        raise ValueError("pick at most one preset (--fig5 or --fig7)")
    if args.fig5:
        grid = sweep([1.0 + i / 2.0 for i in range(19)], d_values=[j / 200.0 for j in range(21)])
    elif args.fig7:
        grid = sweep(
            [2.0, 5.0, 10.0], d_ramp_values=[i / 100.0 for i in range(51)], signal_delay=0.1
        )
    else:
        if args.c_list is None:
            raise ValueError("need --c-list (or a preset)")
        cs = _parse_float_list(args.c_list, "--c-list")
        if (args.delay_list_ms is None) == (args.ramp_list_ms is None):
            raise ValueError("pass exactly one of --delay-list-ms / --ramp-list-ms")
        if args.delay_list_ms is not None:
            ds = [x * MS for x in _parse_float_list(args.delay_list_ms, "--delay-list-ms")]
            grid = sweep(cs, d_values=ds)
        else:
            if args.delay_ms is None:
                raise ValueError("--ramp-list-ms needs the fixed --delay-ms")
            rs = [x * MS for x in _parse_float_list(args.ramp_list_ms, "--ramp-list-ms")]
            grid = sweep(cs, d_ramp_values=rs, signal_delay=args.delay_ms * MS)
    if args.self_test:
        _self_test_grid(grid)
    if args.format == "json":
        _emit(_envelope("sweep", args, grid.to_json_dict()), args.out)
    else:
        _emit(grid.to_csv(), args.out)
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        lines = [f"{name}: {scenario_description(name)}" for name in scenario_names()]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    if args.table:
        if args.table == "dublin-ny":
            text = _table_csv(
                ("label", "one_way_delay_s", "q_at_c10_s", "lower_bound"),
                [(r.label, r.one_way_delay, r.q_at_c10, r.lower_bound) for r in dublin_ny_table()],
            )
        else:  # wifi; argparse restricts the choices
            text = _table_csv(
                ("technology", "note", "rate_bps"),
                [(r.technology, r.note, r.rate) for r in wifi_rates()],
            )
        _emit(text, args.out)
        return EXIT_OK
    if args.emit:
        params = _scenario_params(args.scenario_param or [])
        _emit(trace_to_csv(scenario_trace(args.emit, **params)), args.out)
        return EXIT_OK
    raise ValueError("pass --list, --table <name>, or --emit <scenario>")


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    horizon = None if args.horizon_ms is None else args.horizon_ms * MS
    _emit(trace_to_csv(trace_from_csv(text, horizon=horizon)), args.out)
    return EXIT_OK


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=default_format,
                        help=f"output format (default {default_format})")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccbound",
        description="Transient queuing delay floors for end-to-end congestion control "
        "over piecewise-linear capacity traces.",
    )
    parser.add_argument("--version", action="version", version=f"ccbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form peak delay for one reduction")
    p.add_argument("--c-factor", type=float, help="capacity reduction factor (>= 1)")
    p.add_argument("--pre-rate", type=float, metavar="MBPS", help="capacity before the drop")
    p.add_argument("--post-rate", type=float, metavar="MBPS", help="capacity after the drop")
    p.add_argument("--delay-ms", type=float, required=True, help="one-way signaling delay")
    p.add_argument("--ramp-ms", type=float, help="linear decline duration (omit for a step)")
    p.add_argument("--debug-echo", action="store_true",
                   help="echo the internal SI-unit parameters in the output")
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("simulate", help="run a fluid or packet simulation over a trace")
    p.add_argument("--trace", metavar="PATH", help="trace CSV ('-' for stdin)")
    p.add_argument("--scenario", metavar="NAME", help="registered scenario name")
    p.add_argument("--scenario-param", action="append", metavar="KEY=VALUE",
                   help="override a scenario parameter (repeatable); units: *_ms, *_mbps")
    p.add_argument("--controller", required=True,
                   help="oracle-final | oracle-tracking | fixed:<Mbit/s> | aimd")
    p.add_argument("--delay-ms", type=float, help="signaling delay for the oracle controllers")
    p.add_argument("--sample-ms", type=float,
                   help="fluid: emit a time series sampled at this step (CSV default 10); "
                   "aimd: add the per-dequeue series to JSON output, the step value is ignored")
    p.add_argument("--horizon-ms", type=float,
                   help="simulate only the first part of the trace (fluid controllers)")
    p.add_argument("--packet-bytes", type=float, default=1500.0, help="aimd: packet size")
    p.add_argument("--fwd-ms", type=float, default=2.0, help="aimd: sender->bottleneck delay")
    p.add_argument("--xb-ms", type=float, default=8.5, help="aimd: bottleneck->receiver delay")
    p.add_argument("--rev-ms", type=float, default=8.5, help="aimd: receiver->sender delay")
    p.add_argument("--ai", type=float, default=1.0, help="aimd: packets added per round trip")
    p.add_argument("--md", type=float, default=0.5, help="aimd: window factor on a mark")
    p.add_argument("--mark-threshold-ms", type=float, default=20.0,
                   help="aimd: queue sojourn that gets packets marked")
    p.add_argument("--initial-window", type=int, default=10, help="aimd: starting window")
    p.add_argument("--seed", type=int, default=0, help="aimd: phase jitter seed")
    p.add_argument("--log-out", metavar="PATH", help="aimd: also write the event log CSV")
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="grid evaluation of the closed forms (plot data)")
    p.add_argument("--c-list", help="comma-separated reduction factors")
    p.add_argument("--delay-list-ms", help="comma-separated signaling delays (step sweep)")
    p.add_argument("--ramp-list-ms", help="comma-separated ramp durations (ramp sweep)")
    p.add_argument("--delay-ms", type=float, help="fixed signaling delay for a ramp sweep")
    p.add_argument("--fig5", action="store_true",
                   help="preset: step sweep, c 1..10 x d 0..100 ms")
    p.add_argument("--fig7", action="store_true",
                   help="preset: ramp sweep at d = 100 ms, c in {2, 5, 10}, ramp 0..500 ms")
    p.add_argument("--self-test", action="store_true",
                   help="re-check every cell against an independent re-evaluation")
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("scenario", help="list scenarios, print reference tables, emit traces")
    p.add_argument("--list", action="store_true", help="list registered scenarios")
    p.add_argument("--table", choices=("dublin-ny", "wifi"), help="print a reference table")
    p.add_argument("--emit", metavar="NAME", help="print a scenario's trace CSV")
    p.add_argument("--scenario-param", action="append", metavar="KEY=VALUE",
                   help="override a scenario parameter for --emit (repeatable)")
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("ingest", help="validate and canonicalize a trace CSV")
    p.add_argument("path", help="trace CSV path ('-' for stdin)")
    p.add_argument("--horizon-ms", type=float, help="explicit horizon (default: last row's time)")
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
