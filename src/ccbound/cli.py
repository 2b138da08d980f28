"""Command-line front end: bounds, simulations, sweeps, scenario data, and
trace ingestion, emitting plot-ready CSV or JSON.

Flags use milliseconds and Mbit/s; they become the library's seconds and
bit/s here and only here, through one flag table (``_FLAGS``) that checks
each value in the units it was typed in.  Results are built in SI with
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
    scenario_params,
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

# One row per numeric input, keyed by its argparse dest: the flag as typed,
# its unit, its scale to SI and its domain (the library check it fronts).  A
# list flag's row holds for each item; "fixed" is the number in fixed:<Mbit/s>;
# a --scenario-param key's row also names the scenario keyword it sets.  Every
# value given is checked against its row under every command and controller,
# then echoed.  One per-command difference: ingest's zero horizon passes, for
# the trace to refuse with exit 3.
_FLAGS = {
    "c_factor": ("--c-factor", "", 1.0, ">= 1"),
    "pre_rate": ("--pre-rate", "Mbit/s", MBPS, "> 0"),
    "post_rate": ("--post-rate", "Mbit/s", MBPS, "> 0"),
    "delay_ms": ("--delay-ms", "ms", MS, ">= 0"),
    "ramp_ms": ("--ramp-ms", "ms", MS, ">= 0"),
    "sample_ms": ("--sample-ms", "ms", MS, "> 0"),
    "horizon_ms": ("--horizon-ms", "ms", MS, "> 0"),
    "ingest_horizon_ms": ("--horizon-ms", "ms", MS, ">= 0"),
    "packet_bytes": ("--packet-bytes", "bytes", 8.0, "> 0"),  # to bits
    "fwd_ms": ("--fwd-ms", "ms", MS, ">= 0"),
    "xb_ms": ("--xb-ms", "ms", MS, ">= 0"),
    "rev_ms": ("--rev-ms", "ms", MS, ">= 0"),
    "ai": ("--ai", "packets per round trip", 1.0, "> 0"),
    "md": ("--md", "", 1.0, "(0, 1)"),
    "mark_threshold_ms": ("--mark-threshold-ms", "ms", MS, ">= 0"),
    "initial_window": ("--initial-window", "packets", 1, "whole >= 0"),
    "c_list": ("--c-list", "", 1.0, ">= 1"),
    "delay_list_ms": ("--delay-list-ms", "ms", MS, ">= 0"),
    "ramp_list_ms": ("--ramp-list-ms", "ms", MS, ">= 0"),
    "fixed": ("--controller fixed:<Mbit/s>", "Mbit/s", MBPS, "> 0"),
    "scenario_param.pre_mbps": ("--scenario-param pre_mbps", "Mbit/s", MBPS, "> 0", "pre_rate"),
    "scenario_param.post_mbps": ("--scenario-param post_mbps", "Mbit/s", MBPS, "> 0", "post_rate"),
    "scenario_param.rates_mbps": ("--scenario-param rates_mbps", "Mbit/s", MBPS, "> 0", "rates"),
    "scenario_param.onset_ms": ("--scenario-param onset_ms", "ms", MS, "> 0", "onset"),
    "scenario_param.horizon_ms": ("--scenario-param horizon_ms", "ms", MS, "> 0", "horizon"),
    "scenario_param.ramp_ms": ("--scenario-param ramp_ms", "ms", MS, ">= 0", "ramp_duration"),
    "scenario_param.dwell_ms": ("--scenario-param dwell_ms", "ms", MS, "> 0", "dwell"),
    "scenario_param.c_factor": ("--scenario-param c_factor", "", 1.0, "> 1", "c_factor"),
}

# Each domain's test and its wording in a message.
_DOMAINS = {
    "> 0": (lambda v: math.isfinite(v) and v > 0.0, "be finite and > 0"),
    ">= 0": (lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0"),
    "> 1": (lambda v: math.isfinite(v) and v > 1.0, "be finite and > 1"),
    ">= 1": (lambda v: math.isfinite(v) and v >= 1.0, "be finite and >= 1"),
    "(0, 1)": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "whole >= 0": (lambda v: v >= 0, "be >= 0"),  # argparse parsed it as an int
}


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the text ``pieces`` in turn to the file at ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _envelope(command: str, args: argparse.Namespace, results: dict) -> str:
    doc = {
        "command": command,
        "params": {k: v for k, v in vars(args).items() if k not in ("func", "out", "format")},
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


def _si(key: str, typed: float | str, sep: str | None = None) -> float | list[float]:
    """``typed`` checked against the row ``key`` of ``_FLAGS`` and scaled to
    SI.  ``typed`` is a number as argparse parsed it, or text as typed: one
    number, or with ``sep`` a list of numbers, returned as a list."""
    flag, unit, scale, domain = _FLAGS[key][:4]
    values, listed = [typed], isinstance(typed, str) and sep is not None
    if isinstance(typed, str):
        items = [x.strip() for x in typed.split(sep) if x.strip()] if listed else [typed]
        if not items:
            raise ValueError(f"{flag} must list at least one value")
        try:
            values = [float(x) for x in items]
        except ValueError:
            raise ValueError(f"{flag} contains a malformed number: {typed!r}") from None
    test, wording = _DOMAINS[domain]
    for value in values:
        if not test(value):
            raise ValueError(f"{flag} must {wording} {unit}".rstrip() + f", got {value!r}")
    return [v * scale for v in values] if listed else values[0] * scale


def _given(args: argparse.Namespace) -> dict:
    """Every numeric flag given in ``args``, by dest, checked against its row
    and in SI; a text flag is a comma-separated list."""
    return {k: _si(k, v, ",") for k, v in vars(args).items() if k in _FLAGS and v is not None}


def _scenario(name: str, pairs: list[str] | None):
    """The trace of the scenario ``name``, built with the ``--scenario-param``
    ``pairs``, each checked against its row and set in SI."""
    rows = {k.partition(".")[2]: k for k in _FLAGS if k.startswith("scenario_param.")}
    kwargs: dict = {}
    for pair in pairs or ():
        key, sep, typed = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"scenario parameter must look like key=value, got {pair!r}")
        if key not in rows:
            known = ", ".join(sorted(rows))
            raise ValueError(f"unknown scenario parameter {key!r}; known: {known}")
        value = _si(rows[key], typed, ":" if key == "rates_mbps" else None)
        takes = sorted(k for k, row in rows.items() if _FLAGS[row][4] in scenario_params(name))
        if key not in takes:
            raise ValueError(
                f"scenario {name!r} takes no parameter {key!r}; it takes {', '.join(takes)}")
        kwargs[_FLAGS[rows[key]][4]] = value
    return scenario_trace(name, **kwargs)


def _read_text(path: str) -> str:
    """The text of the file at ``path``, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _unused(flag: str, what: str, mode: str) -> ValueError:
    """The error for ``flag``, which is ``what``, given to ``mode``."""
    return ValueError(f"{flag} is {what}; {mode} takes none")


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.c_factor is not None:
        if args.pre_rate is not None or args.post_rate is not None:
            raise ValueError("pass either --c-factor or --pre-rate/--post-rate, not both")
    elif args.pre_rate is None or args.post_rate is None:
        raise ValueError("need --c-factor or both --pre-rate and --post-rate")
    si = _given(args)
    if args.c_factor is None and args.post_rate > args.pre_rate:
        raise ValueError(f"--post-rate must be <= --pre-rate, got --pre-rate {args.pre_rate!r} "
                         f"and --post-rate {args.post_rate!r}")
    c = si["c_factor"] if "c_factor" in si else reduction_factor(si["pre_rate"], si["post_rate"])
    d, r = si["delay_ms"], si.get("ramp_ms")
    q = peak_delay_step(c, d) if r is None else peak_delay_ramp(c, d, r)
    branch = "step" if r is None else "short_ramp" if r <= d else "long_ramp"
    results = _cli_units({"q_s": q, "branch": branch, "c_factor": c})
    if args.debug_echo:  # SI, past the unit table
        results["internal"] = {"c_factor": c, "signal_delay_s": d, "ramp_duration_s": r}
    if args.format == "csv":  # delay_ms and ramp_ms echo the flags
        columns = ("c_factor", "delay_ms", "ramp_ms", "q_s", "branch")
        values = ([c], [args.delay_ms], [args.ramp_ms], [q], [branch])
        _emit(_csv(columns, values, _cli_value), args.out)
    else:
        _emit((_envelope("bound", args, results),), args.out)
    return EXIT_OK


def _fluid_controller(spec: str, delay: float | None):
    if spec in ("oracle-final", "oracle-tracking"):
        if delay is None:
            raise ValueError(f"--delay-ms is required for controller {spec!r}")
        return OracleFinal(delay) if spec == "oracle-final" else OracleTracking(delay)
    if spec.startswith("fixed:"):
        return FixedRate(_si("fixed", spec.removeprefix("fixed:")))
    raise ValueError(f"unknown controller {spec!r} "
                     "(oracle-final | oracle-tracking | fixed:<Mbit/s> | aimd)")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.trace is not None and args.scenario is not None:
        raise ValueError("pass --trace or --scenario, not both")
    if args.trace is None and args.scenario is None:
        raise ValueError("need a trace source: --trace <csv path> or --scenario <name>")
    if args.trace is not None and args.scenario_param:
        raise _unused("--scenario-param", "a parameter of a --scenario trace", "--trace")
    aimd = args.controller == "aimd"
    if aimd and args.horizon_ms is not None:
        raise ValueError("--horizon-ms is not supported with the aimd controller; set the trace "
                         "horizon instead (scenario parameter horizon_ms or the trace CSV)")
    if args.log_out and not aimd:
        raise _unused("--log-out", "the aimd controller's event log",
                      "--controller " + args.controller)
    si = _given(args)
    controller = None if aimd else _fluid_controller(args.controller, si.get("delay_ms"))
    trace = (trace_from_csv(_read_text(args.trace)) if args.trace is not None
             else _scenario(args.scenario, args.scenario_param))
    if aimd:
        return _simulate_aimd(args, si, trace)

    result = simulate_fluid(SimConfig(trace, controller, horizon=si.get("horizon_ms")))
    summary = {"controller": args.controller, **result_to_json_dict(result)}
    d = si.get("delay_ms")
    for e, row in zip(result.events, summary["events"]):
        row["bound_s"] = None if d is None else peak_delay_ramp(e.c_factor, d, e.ramp_duration)
    step = si.get("sample_ms", _si("sample_ms", 10.0) if args.format == "csv" else None)
    series = None if step is None else _columns(sample_result(result, step))
    return _write_run(args, summary, _FLUID_SERIES, series)


def _simulate_aimd(args: argparse.Namespace, si: dict, trace) -> int:
    config = PacketSimConfig(
        trace, packet_size=si["packet_bytes"], forward_delay=si["fwd_ms"],
        x_to_b_delay=si["xb_ms"], reverse_delay=si["rev_ms"], aimd=AimdParams(si["ai"], si["md"]),
        mark_threshold=si["mark_threshold_ms"], initial_window=si["initial_window"],
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
        # summed in ms as typed: converting each delay first moves the last bit
        round_trip = (args.xb_ms + args.rev_ms) * _FLAGS["rev_ms"][2]
        try:
            cmp = dataclasses.astuple(compare_to_bound(result, events[0], round_trip))
            keys = ("bound_s", "measured_peak_s", "ratio", "slack_s", "violation")
            summary["bound_comparison"] = dict(zip(keys, cmp))
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
            raise RuntimeError(f"sweep self-test mismatch at c={c} d={d} d_ramp={r}: "
                               f"{q} != {expected}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.fig5 and args.fig7:
        raise ValueError("pick at most one preset (--fig5 or --fig7)")
    delay_role = "the fixed delay of a --ramp-list-ms sweep"
    if args.delay_ms is not None and (args.fig5 or args.fig7):
        raise _unused("--delay-ms", delay_role, "--fig5" if args.fig5 else "--fig7")
    if not (args.fig5 or args.fig7):
        if args.c_list is None:
            raise ValueError("need --c-list (or a preset)")
        if (args.delay_list_ms is None) == (args.ramp_list_ms is None):
            raise ValueError("pass exactly one of --delay-list-ms / --ramp-list-ms")
        if args.delay_list_ms is not None and args.delay_ms is not None:
            raise _unused("--delay-ms", delay_role, "--delay-list-ms")
        if args.ramp_list_ms is not None and args.delay_ms is None:
            raise ValueError("--ramp-list-ms needs the fixed --delay-ms")
    si = _given(args)
    if args.fig5:
        grid = sweep([1.0 + i / 2.0 for i in range(19)], d_values=[j / 200.0 for j in range(21)])
    elif args.fig7:
        grid = sweep([2.0, 5.0, 10.0], d_ramp_values=[i / 100.0 for i in range(51)],
                     signal_delay=0.1)
    elif args.delay_list_ms is not None:
        grid = sweep(si["c_list"], d_values=si["delay_list_ms"])
    else:
        grid = sweep(si["c_list"], d_ramp_values=si["ramp_list_ms"], signal_delay=si["delay_ms"])
    if args.self_test:
        _self_test_grid(grid)
    if args.format == "json":
        _emit((_envelope("sweep", args, dataclasses.asdict(grid)),), args.out)
    else:
        _emit(_csv(_SWEEP_SERIES, zip(*grid.rows())), args.out)
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    mode = "--list" if args.list else "--table" if args.table else None
    if args.scenario_param and mode:
        raise _unused("--scenario-param", "a parameter of an --emit scenario", mode)
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
        _emit((trace_to_csv(_scenario(args.emit, args.scenario_param)),), args.out)
        return EXIT_OK
    raise ValueError("pass --list, --table <name>, or --emit <scenario>")


def _cmd_ingest(args: argparse.Namespace) -> int:
    horizon = _given(args).get("ingest_horizon_ms")
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
    p.add_argument("--horizon-ms", type=float, dest="ingest_horizon_ms", metavar="HORIZON_MS",
                   help="explicit horizon (default: last row's time)")
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
