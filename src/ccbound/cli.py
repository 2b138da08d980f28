"""Command-line front end: bounds, simulations, sweeps, scenario data, and
trace ingestion, emitting plot-ready CSV or JSON.

Flags use milliseconds and Mbit/s; conversion to the library's internal
seconds and bit/s happens here and only here.  Results are built in SI with
each key's unit as its suffix and converted on output through one table,
``_s`` -> ``_ms`` and ``_bps`` -> ``_mbps``.  Every table of rows (a CSV,
a simulate run's JSON series and its summary's events) is written by one
path over named value columns: each column is formatted on its own, and the
rows are filled into one row template a block at a time and streamed to the
output, so no output text is ever held whole.  Exit codes are a stable
contract: 0 success, 2 bad usage or flag values, 3 malformed input data,
4 model violation (e.g. overlapping oracle signal windows).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import islice, repeat, tee
from operator import truediv

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
    _log_lines,
    compare_to_bound,
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
_AIMD_SERIES = ("t_s", "queue_delay_s")
_SWEEP_SERIES = ("c", "d", "d_ramp", "q_seconds")  # SI, no suffix: written as is

# How json spells the values whose repr it does not use: the summary's
# scalars, and the series, whose NaN was None in the dict form and is null.
_JSON_SCALARS = {"None": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_SERIES = {**_JSON_SCALARS, "nan": "null"}

# Rows formatted and written per piece of output: bounds the text held at once.
_BLOCK = 8192

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


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the text ``pieces`` in turn to the file at ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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


def _cli_value(value, scale: float):
    """A scalar in CLI units: a number divided by ``scale``; None, text and
    unitless values as they are."""
    return value if scale == 1.0 or value is None else value / scale


def _cli_units(si: dict) -> dict:
    """An SI result dict in CLI units, nested dicts too; a list is left as it
    is (the writer converts a list of rows column by column)."""
    out = {}
    for key, value in si.items():
        name, scale = _cli_name(key)
        out[name] = _cli_units(value) if isinstance(value, dict) else _cli_value(value, scale)
    return out


def _cell(value, scale: float):
    """A reference-table cell: numbers in compact fixed point (microsecond
    precision in ms columns), flags as true/false."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value / scale:.6f}".rstrip("0").rstrip(".") or "0"
    return value


def _field(value) -> str:
    """``value`` as ``csv.writer(lineterminator="\\n")`` writes a field: None
    empty, anything else as ``str``, quoted (quotes doubled) when it holds
    a comma, a quote or a newline."""
    if value is None:
        return ""
    text = value if isinstance(value, str) else str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _reprs(values, scale: float):
    """A float column in CLI units, each value its ``repr``: the spelling of
    csv and json alike."""
    return map(repr, map(truediv, values, repeat(scale)))


def _scalar_reprs(values, scale: float):
    """A column that may hold None, in CLI units, each value its ``repr``."""
    return map(repr, map(_cli_value, values, repeat(scale)))


def _blocks(row: str, sep: str, cells) -> Iterator[str]:
    """``row % values`` for each row of the text columns ``cells``, the rows
    joined by ``sep``, in pieces of up to ``_BLOCK`` rows with ``sep``
    between pieces too.  Only one piece is held at a time."""
    rows = zip(*cells)
    lead = ""
    while block := sep.join(map(row.__mod__, islice(rows, _BLOCK))):
        yield lead
        yield block
        lead = sep


def _csv(columns: tuple[str, ...], values, cell=None) -> Iterator[str]:
    """CSV text pieces: a header of the CLI names of the SI ``columns``,
    then one row per index of ``values`` (one value column per entry of
    ``columns``).  A value is written as its ``repr`` divided by its
    column's divisor, or, given ``cell``, as ``cell(value, divisor)``
    through :func:`_field`; either way the text is csv.writer's."""
    names, scales = zip(*map(_cli_name, columns))
    if cell is None:
        texts = list(map(_reprs, values, scales))
    else:
        texts = [map(_field, map(cell, col, repeat(s))) for col, s in zip(values, scales)]
    yield ",".join(map(_field, names)) + "\n"
    yield from _blocks(",".join(["%s"] * len(names)) + "\n", "", texts)


def _json_rows(columns: tuple[str, ...], values, level: int | None,
               spell: dict = _JSON_SERIES, text=_reprs) -> Iterator[str]:
    """Text pieces of the list that ``json.dumps(indent=2, sort_keys=True)``
    writes for one dict per row of ``values`` (one value column per SI
    ``columns`` entry) when the list's key sits at nesting ``level``; with
    ``level`` None, the list that ``json.dumps(sort_keys=True)`` writes.
    Keys are in CLI units and sorted; each value is ``text(column,
    divisor)`` and the texts json spells otherwise go through ``spell``."""
    values = list(values)
    if not values or not len(values[0]):
        yield "[]"
        return
    names, scales = zip(*map(_cli_name, columns))
    order = sorted(range(len(names)), key=names.__getitem__)
    keys = [json.dumps(names[k]) + ": %s" for k in order]
    if level is None:
        row, sep, close = "{" + ", ".join(keys) + "}", ", ", "]"
    else:
        pad = " " * (2 * level)
        row = f"{pad}  {{\n{pad}    " + f",\n{pad}    ".join(keys) + f"\n{pad}  }}"
        sep, close = ",\n", f"\n{pad}]"
    texts = [map(spell.get, *tee(text(values[k], scales[k]))) for k in order]
    yield "[" if level is None else "[\n"
    yield from _blocks(row, sep, texts)
    yield close


def _dict_rows(rows: list[dict], level: int | None) -> Iterator[str]:
    """:func:`_json_rows` of ``rows``, flat dicts with the same SI keys whose
    values may be None, spelled as json spells them (NaN, not null)."""
    keys = tuple(rows[0]) if rows else ()
    values = [[row[k] for row in rows] for k in keys]
    return _json_rows(keys, values, level, _JSON_SCALARS, _scalar_reprs)


def _spliced(text: str, lists) -> Iterator[str]:
    """``text`` in pieces, each ``"key": "rows"`` placeholder of ``lists``
    (``(key, pieces)`` pairs in the order the keys appear) replaced by its
    pieces.  Within an encoded string every quote is escaped, so a
    placeholder can only be the entry itself, whatever text a flag echo
    carries."""
    for key, pieces in lists:
        head, _, text = text.partition(f'"{key}": "rows"')
        yield head + f'"{key}": '
        yield from pieces
    yield text


def _columns(rows):
    """The columns of ``rows``, one tuple each, transposed when first read.
    A generator, so the rows and the transposing zip are freed once the
    columns are taken, not held by the caller until its writer is done."""
    yield from zip(*rows)


def _write_run(args: argparse.Namespace, summary: dict, columns: tuple[str, ...], series) -> int:
    """Write a simulate run's SI summary and ``series`` (one value sequence
    per ``columns`` entry; None for a JSON run without a series) in CLI
    units.

    The summary's ``events``, if any, is a list of flat dicts with the same
    keys.  The JSON text is byte for byte ``json.dumps(doc, indent=2,
    sort_keys=True) + "\n"`` of the envelope whose ``results.series`` holds
    one dict per row (NaN as None), but no row dict is built and the text is
    never held whole: the envelope is encoded around placeholders, and the
    series and the events are formatted column by column by
    :func:`_json_rows` and streamed in their places, a block of rows at a
    time.  The CSV is streamed the same way by :func:`_csv`, and the summary
    goes to stderr as one ``json.dumps(sort_keys=True)`` line, its events
    spliced in alike.
    """
    summary = _cli_units(summary)
    events = summary.get("events")  # a fluid run's: one flat dict per reduction
    if events is not None:
        summary["events"] = "rows"
    lists = []
    if args.format == "csv":
        _emit(_csv(columns, series), args.out)
        if events is not None:
            lists.append(("events", _dict_rows(events, None)))
        line = "".join(_spliced(json.dumps({"summary": summary}, sort_keys=True), lists))
        print(line, file=sys.stderr)
        return EXIT_OK
    results: dict = {"summary": summary}
    if series is not None:  # "series" sorts before "summary": its placeholder comes first
        results["series"] = "rows"
        lists.append(("series", _json_rows(columns, series, 2)))
    if events is not None:
        lists.append(("events", _dict_rows(events, 3)))
    _emit(_spliced(_envelope("simulate", args, results), lists), args.out)
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
        if key != "rates_mbps" and key not in _SCENARIO_KEY_MAP:
            known = ", ".join(sorted(_SCENARIO_KEY_MAP) + ["rates_mbps"])
            raise ValueError(f"unknown scenario parameter {key!r}; known: {known}")
        try:
            if key == "rates_mbps":
                params["rates"] = tuple(float(x) * MBPS for x in val.split(":") if x.strip())
            else:
                dest, scale = _SCENARIO_KEY_MAP[key]
                params[dest] = float(val) * scale
        except ValueError:
            raise ValueError(
                f"--scenario-param {key} contains a malformed number: {val!r}"
            ) from None
    return params


def _read_text(path: str) -> str:
    """The text of the file at ``path``, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_trace(args: argparse.Namespace):
    if args.trace is not None and args.scenario is not None:
        raise ValueError("pass --trace or --scenario, not both")
    if args.trace is not None:
        return trace_from_csv(_read_text(args.trace))
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
    if args.format == "csv":  # delay_ms and ramp_ms echo the flags
        columns = ("c_factor", "delay_ms", "ramp_ms", "q_s", "branch")
        values = ([c], [args.delay_ms], [args.ramp_ms], [q], [branch])
        _emit(_csv(columns, values, _cli_value), args.out)
    else:
        _emit((_envelope("bound", args, results),), args.out)
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


def _check_flag(flag: str, value: float, unit: str, zero_ok: bool) -> None:
    """Raise unless ``value`` is finite and > 0, or >= 0 when ``zero_ok``."""
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        bound = ">=" if zero_ok else ">"
        raise ValueError(f"{flag} must be finite and {bound} 0 {unit}, got {value!r}")


def _check_aimd_flags(args: argparse.Namespace) -> None:
    """Check the aimd flags by the packet config's rules under every
    controller: the JSON envelope echoes them, so a run that ignores a
    value must not accept one the aimd run would refuse."""
    for flag, value, unit, zero_ok in (
        ("--fwd-ms", args.fwd_ms, "ms", True),
        ("--xb-ms", args.xb_ms, "ms", True),
        ("--rev-ms", args.rev_ms, "ms", True),
        ("--mark-threshold-ms", args.mark_threshold_ms, "ms", True),
        ("--packet-bytes", args.packet_bytes, "bytes", False),
        ("--ai", args.ai, "packets per round trip", False),
    ):
        _check_flag(flag, value, unit, zero_ok)
    if not 0.0 < args.md < 1.0:
        raise ValueError(f"--md must lie in (0, 1), got {args.md!r}")
    if args.initial_window < 0:
        raise ValueError(f"--initial-window must be >= 0 packets, got {args.initial_window!r}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_aimd_flags(args)
    # checked whenever given, under every controller: aimd reads neither
    # value, and the JSON envelope echoes both
    if args.sample_ms is not None:
        _check_flag("--sample-ms", args.sample_ms, "ms", zero_ok=False)
    if args.delay_ms is not None:
        _check_flag("--delay-ms", args.delay_ms, "ms", zero_ok=True)
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
    series = None if sample_ms is None else _columns(sample_result(result, sample_ms * MS))
    return _write_run(args, summary, _FLUID_SERIES, series)


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
        _emit(_log_lines(result), args.log_out)

    # the stored columns: queue_delay_series would hold every row tuple at once
    wanted = args.format == "csv" or args.sample_ms is not None
    series = (result._dequeue_times, result._sojourns) if wanted else None
    return _write_run(args, summary, _AIMD_SERIES, series)


def _self_test_grid(grid) -> None:
    # Independent re-evaluation of every cell straight from the formula.
    for c, d, r, q in grid.rows():
        expected = (c - 1.0) * (2.0 * d - r) / 2.0 if r <= d else (c - 1.0) * d * d / (2.0 * r)
        if not math.isclose(q, expected, rel_tol=1e-12, abs_tol=1e-15):
            raise RuntimeError(
                f"sweep self-test mismatch at c={c} d={d} d_ramp={r}: {q} != {expected}"
            )


def _unused_delay(sweep: str) -> ValueError:
    """The error for ``--delay-ms`` on a sweep that does not read it."""
    return ValueError(
        f"--delay-ms is the fixed delay of a --ramp-list-ms sweep; {sweep} takes none"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.fig5 and args.fig7:
        raise ValueError("pick at most one preset (--fig5 or --fig7)")
    if args.delay_ms is not None and (args.fig5 or args.fig7):
        raise _unused_delay("--fig5" if args.fig5 else "--fig7")
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
            if args.delay_ms is not None:
                raise _unused_delay("--delay-list-ms")
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
        _emit((_envelope("sweep", args, dataclasses.asdict(grid)),), args.out)
    else:
        _emit(_csv(_SWEEP_SERIES, zip(*grid.rows())), args.out)
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        _emit((f"{name}: {scenario_description(name)}\n" for name in scenario_names()), args.out)
        return EXIT_OK
    if args.table:
        if args.table == "dublin-ny":
            columns, rows = ("label", "one_way_delay_s", "q_at_c10_s", "lower_bound"), dublin_ny_table()
        else:  # wifi; argparse restricts the choices
            columns, rows = ("technology", "note", "rate_bps"), wifi_rates()
        _emit(_csv(columns, zip(*rows), _cell), args.out)
        return EXIT_OK
    if args.emit:
        params = _scenario_params(args.scenario_param or [])
        _emit((trace_to_csv(scenario_trace(args.emit, **params)),), args.out)
        return EXIT_OK
    raise ValueError("pass --list, --table <name>, or --emit <scenario>")


def _cmd_ingest(args: argparse.Namespace) -> int:
    horizon = None if args.horizon_ms is None else args.horizon_ms * MS
    _emit((trace_to_csv(trace_from_csv(_read_text(args.path), horizon=horizon)),), args.out)
    return EXIT_OK


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str | None) -> None:
    """``--out``, and ``--format`` for a command with more than one output format."""
    if default_format is not None:
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
    _add_output_flags(p, None)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("ingest", help="validate and canonicalize a trace CSV")
    p.add_argument("path", help="trace CSV path ('-' for stdin)")
    p.add_argument("--horizon-ms", type=float, help="explicit horizon (default: last row's time)")
    _add_output_flags(p, None)
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
