"""Command-line contract: outputs, units, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import time
import tracemalloc
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound import __version__, cli, trace
from ccbound.bounds import peak_delay_ramp, peak_delay_step
from ccbound.cli import main
from ccbound.packetsim import PacketSimResult
from ccbound.trace import trace_from_csv

STEP_CSV = "0,100000000,hold\n1,10000000,hold\n5,10000000,hold\n"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_envelope(out: str) -> dict:
    doc = json.loads(out)
    assert set(doc) == {"command", "params", "results", "units", "version"}
    assert doc["units"] == {"time": "ms", "rate": "Mbit/s", "backlog": "bits"}
    return doc


def parse_csv(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


class TestBound:
    def test_step_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--c-factor", "10", "--delay-ms", "17")
        assert code == 0
        doc = parse_envelope(out)
        assert doc["results"]["q_ms"] == pytest.approx(153.0, abs=1e-9)
        assert doc["results"]["branch"] == "step"

    def test_ramp_value_and_branch(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--c-factor", "10", "--delay-ms", "100", "--ramp-ms", "200"
        )
        assert code == 0
        doc = parse_envelope(out)
        assert doc["results"]["q_ms"] == pytest.approx(225.0, abs=1e-9)
        assert doc["results"]["branch"] == "long_ramp"

    def test_no_reduction_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--c-factor", "1", "--delay-ms", "50")
        assert code == 0
        assert parse_envelope(out)["results"]["q_ms"] == 0.0

    def test_rates_instead_of_factor(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--pre-rate", "144.4", "--post-rate", "14.4", "--delay-ms", "17"
        )
        assert code == 0
        expected = peak_delay_step(144.4 / 14.4, 0.017) * 1e3
        assert parse_envelope(out)["results"]["q_ms"] == pytest.approx(expected, rel=1e-12)

    def test_debug_echo_reports_si_units(self, capsys):
        # golden unit conversion check: 17 ms at the flag is 0.017 s inside
        code, out, _ = run_cli(
            capsys, "bound", "--c-factor", "10", "--delay-ms", "17", "--debug-echo"
        )
        assert code == 0
        internal = parse_envelope(out)["results"]["internal"]
        assert internal["signal_delay_s"] == 0.017
        assert internal["c_factor"] == 10.0

    def test_missing_inputs_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--delay-ms", "17")
        assert code == 2
        assert "c-factor" in err or "c_factor" in err

    def test_both_inputs_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "bound", "--c-factor", "10", "--pre-rate", "100", "--post-rate", "10",
            "--delay-ms", "17",
        )
        assert code == 2

    def test_invalid_factor_names_invariant(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--c-factor", "0.5", "--delay-ms", "17")
        assert code == 2
        assert ">= 1" in err

    def test_deterministic_output(self, capsys):
        args = ("bound", "--c-factor", "10", "--delay-ms", "17")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSimulate:
    def test_oracle_final_on_wifi_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "oracle-final",
            "--delay-ms", "17",
        )
        assert code == 0
        summary = parse_envelope(out)["results"]["summary"]
        expected_ms = peak_delay_step(144.4 / 14.4, 0.017) * 1e3
        assert summary["peak_delay_ms"] == pytest.approx(expected_ms, rel=1e-9)
        assert summary["events"][0]["c_factor"] == pytest.approx(144.4 / 14.4, rel=1e-12)
        assert summary["events"][0]["bound_ms"] == pytest.approx(expected_ms, rel=1e-12)

    def test_sub_horizon_run_lists_no_reduction_after_it(self, capsys):
        # wifi-step drops at 1000 ms: a 500 ms run never simulates it
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "oracle-final",
            "--delay-ms", "17", "--horizon-ms", "500",
        )
        assert code == 0
        summary = parse_envelope(out)["results"]["summary"]
        assert summary["events"] == []
        assert summary["peak_delay_ms"] == 0.0

    def test_fixed_below_minimum_capacity(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "fixed:1"
        )
        assert code == 0
        assert parse_envelope(out)["results"]["summary"]["peak_delay_ms"] == 0.0

    def test_series_sampling(self, capsys, tmp_path):
        path = tmp_path / "step.csv"
        path.write_text(STEP_CSV)
        code, out, _ = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", "oracle-final",
            "--delay-ms", "17", "--sample-ms", "250",
        )
        assert code == 0
        series = parse_envelope(out)["results"]["series"]
        assert series[0]["t_ms"] == 0.0
        assert series[-1]["t_ms"] == pytest.approx(5000.0)
        assert max(row["backlog_bits"] for row in series) <= 9e7 * 0.017 + 1e-6

    def test_csv_format_emits_series_rows(self, capsys, tmp_path):
        path = tmp_path / "step.csv"
        path.write_text(STEP_CSV)
        code, out, err = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", "oracle-final",
            "--delay-ms", "17", "--format", "csv", "--sample-ms", "500",
        )
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["t_ms", "backlog_bits", "delay_ms", "fifo_delay_ms"]
        assert len(rows) == 11
        assert "summary" in err  # peak block still reaches the user

    def test_sample_cap_exit_2_names_the_count(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "oracle-final",
            "--delay-ms", "17", "--sample-ms", "1e-9",
        )
        assert code == 2
        assert out == ""
        assert "5e+12 rows" in err and "cap of 1000000" in err

    def test_aimd_packet_cap_exit_2(self, capsys):
        # the first unmarked ACK asks for ~1e11 packets at once: refused
        # before any of them is scheduled
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "aimd", "--ai", "1e12",
        )
        assert time.perf_counter() - start < 30.0
        assert code == 2
        assert out == ""
        assert "cap of 1000000" in err

    def test_aimd_tiny_packets_reach_the_cap(self, capsys, monkeypatch):
        # 1e-6-byte packets send 36,675 packets here; growth past the cap
        # is refused burst by burst
        monkeypatch.setattr("ccbound.packetsim.MAX_PACKETS", 10_000)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "aimd",
            "--packet-bytes", "1e-6",
        )
        assert code == 2
        assert out == ""
        assert "cap of 10000" in err

    def test_aimd_subnormal_link_rate_exit_2(self, capsys, tmp_path):
        # a 5e-324 b/s link serves no packet in finite time
        path = tmp_path / "subnormal.csv"
        path.write_text("0,5e-324,hold\n1,5e-324,hold\n")
        code, out, err = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", "aimd"
        )
        assert code == 2
        assert out == ""
        assert "12000.0" in err and "5e-324" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_aimd_series_is_written_from_the_columns(self, capsys, monkeypatch, fmt):
        # the writer zips the two columns; the tuple of row tuples that
        # queue_delay_series builds would double a long run's peak memory
        argv = ("simulate", "--scenario", "wifi-step", "--controller", "aimd",
                "--format", fmt, "--sample-ms", "1")
        _, expected, _ = run_cli(capsys, *argv)

        def refuse(self):
            raise AssertionError("queue_delay_series read")

        monkeypatch.setattr(PacketSimResult, "queue_delay_series", property(refuse))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected
        assert len(out.splitlines()) > 1000

    def test_aimd_without_congestion_reports_no_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "aimd",
            "--packet-bytes", "1e-6",
        )
        assert code == 0
        summary = parse_envelope(out)["results"]["summary"]
        comparison = summary["bound_comparison"]
        assert summary["congestion_reached"] is False
        assert comparison["measured_peak_ms"] < comparison["bound_ms"] - comparison["slack_ms"]
        assert comparison["violation"] is False

    def test_aimd_without_packets_reports_the_comparison_error(self, capsys):
        # no packet is ever sent, so none is dequeued after the reduction
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "aimd",
            "--initial-window", "0",
        )
        assert (code, err) == (0, "")
        summary = parse_envelope(out)["results"]["summary"]
        assert summary["packets_sent"] == 0
        assert summary["bound_comparison"] == {
            "error": "no dequeues at or after the event onset 1.0s; "
            "the simulation does not cover the event window"
        }

    def test_aimd_dominates_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "ramp-contention",
            "--scenario-param", "pre_mbps=12", "--scenario-param", "ramp_ms=0",
            "--scenario-param", "horizon_ms=2500",
            "--controller", "aimd", "--xb-ms", "8.5", "--rev-ms", "8.5",
            "--mark-threshold-ms", "30", "--initial-window", "25", "--seed", "3",
        )
        assert code == 0
        summary = parse_envelope(out)["results"]["summary"]
        comparison = summary["bound_comparison"]
        assert comparison["bound_ms"] == pytest.approx(9.0 * 17.0, rel=1e-12)
        assert not comparison["violation"]
        assert summary["peak_queue_delay_ms"] >= comparison["bound_ms"] - comparison["slack_ms"]

    def test_aimd_determinism(self, capsys):
        args = (
            "simulate", "--scenario", "ramp-contention",
            "--scenario-param", "pre_mbps=12", "--scenario-param", "ramp_ms=0",
            "--scenario-param", "horizon_ms=2000",
            "--controller", "aimd", "--seed", "11",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unknown_controller_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "bbr"
        )
        assert code == 2
        assert "controller" in err

    def test_unknown_scenario_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "nope", "--controller", "fixed:1"
        )
        assert code == 2

    def test_parse_failure_exit_3_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1e8,hold\n2,1e7,hold\n1,1e7,hold\n")
        code, _, err = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", "fixed:1"
        )
        assert code == 3
        assert "line 3" in err

    def test_overlapping_windows_exit_4(self, capsys, tmp_path):
        path = tmp_path / "double.csv"
        path.write_text("0,1e8,hold\n0.5,5e7,hold\n0.6,1e7,hold\n2,1e7,hold\n")
        code, _, err = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", "oracle-final",
            "--delay-ms", "500",
        )
        assert code == 4
        assert "overlapping" in err

    def test_oracle_requires_delay(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "wifi-step", "--controller", "oracle-final"
        )
        assert code == 2
        assert "delay-ms" in err


def dumps_again(out: str) -> str:
    """The text json.dumps writes for the document that ``out`` parses to."""
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestJsonSeries:
    """The JSON series is spliced into the envelope from the value columns;
    the text must still be json.dumps(indent=2, sort_keys=True) byte for
    byte."""

    DROP_CSV = "0,1e7,hold\n0.2,1e6,hold\n0.5,1e6,hold\n"

    @pytest.mark.parametrize(
        "trace_csv,argv,keys,rows",
        [
            # the plateau after the step outlives the horizon: null FIFO rows
            (STEP_CSV, ("oracle-final", "--delay-ms", "17"),
             {"t_ms", "backlog_bits", "delay_ms", "fifo_delay_ms"}, 21),
            (DROP_CSV, ("aimd",), {"t_ms", "queue_delay_ms"}, None),
            # the horizon ends before the first packet reaches the link
            ("0,1e8,hold\n0.001,1e8,hold\n", ("aimd",), set(), 0),
        ],
        ids=["fluid-null-fifo", "aimd", "aimd-empty"],
    )
    def test_equals_json_dumps(self, capsys, tmp_path, trace_csv, argv, keys, rows):
        path = tmp_path / "trace.csv"
        path.write_text(trace_csv)
        code, out, _ = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", *argv, "--sample-ms", "250"
        )
        assert code == 0
        assert out == dumps_again(out)
        series = parse_envelope(out)["results"]["series"]
        assert rows is None and len(series) > 1 or len(series) == rows
        assert all(set(row) == keys for row in series)
        if "fifo_delay_ms" in keys:
            assert series[-1]["fifo_delay_ms"] is None

    def test_trace_path_with_quotes_escapes_and_the_placeholder(self, capsys, tmp_path):
        path = tmp_path / 'tr"ace\\ \u00fc\u2013 "series": "rows".csv'
        path.write_text(STEP_CSV)
        code, out, _ = run_cli(
            capsys, "simulate", "--trace", str(path), "--controller", "oracle-final",
            "--delay-ms", "17", "--sample-ms", "1000",
        )
        assert code == 0
        assert out == dumps_again(out)
        doc = parse_envelope(out)
        assert doc["params"]["trace"] == str(path)
        assert len(doc["results"]["series"]) == 6

    def test_values_json_spells_differently_or_rarely(self, capsys):
        columns = ("a_bits", "b_bits")  # no unit suffix: written as they are
        values = (-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf, 1.5)
        rows = list(zip(values[0::2], values[1::2]))
        args = argparse.Namespace(format="json", out=None, trace="t.csv")
        assert cli._write_run(args, {}, columns, zip(*rows)) == 0
        series = [{k: None if v != v else v for k, v in zip(columns, row)} for row in rows]
        doc = {
            "command": "simulate",
            "params": {"trace": "t.csv"},
            "results": {"series": series, "summary": {}},
            "units": cli.UNITS,
            "version": __version__,
        }
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestEventsSpelling:
    """The summary's events are spliced in like the series but spelled as
    json.dumps spells their dict form: Infinity and NaN as such, None as
    null.  Recorded from the writer that encoded the event dicts whole."""

    # c = 1e308 / 1e-300 overflows to inf; fixed:10 has no signal delay, so
    # the event has no bound
    EXTREME = "0,1e308,linear\n1,1e-300,hold\n2,1e-300,hold\n"
    FLAT = "0,1e8,hold\n2,1e8,hold\n"

    @pytest.mark.parametrize(
        "stdin,argv,lines,sha256",
        [
            (EXTREME, ("fixed:10",),
             ('          "bound_ms": null,\n', '          "c_factor": Infinity,\n'),
             "0a792ffc4ebbdad2d56636d956dd9aa4384ff58f9d5d34b0aa848563cd19616e"),
            (FLAT, ("oracle-final", "--delay-ms", "10"), ('      "events": [],\n',),
             "1bec4d1f4f6ff139f02c6150b89c287f3b74956f52187883fc7ac9f83c5e1fd3"),
        ],
        ids=["infinity-and-null", "no-events"],
    )
    def test_json_is_pinned(self, capsys, monkeypatch, stdin, argv, lines, sha256):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, "simulate", "--trace", "-", "--controller", *argv)
        assert (code, err) == (0, "")
        assert out == dumps_again(out)
        assert all(line in out for line in lines)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    def test_csv_summary_line_is_pinned(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.EXTREME))
        code, _, err = run_cli(
            capsys, "simulate", "--trace", "-", "--controller", "fixed:10", "--format", "csv"
        )
        assert code == 0
        assert err == json.dumps(json.loads(err), sort_keys=True) + "\n"
        assert err == (
            '{"summary": {"bits_in": 20000000.0, "bits_out": 10000000.0, "controller": "fixed:10", '
            '"events": [{"bound_ms": null, "c_factor": Infinity, "onset_ms": 0.0, '
            '"post_mbps": 1e-306, "pre_mbps": 1e+302, "ramp_ms": 1000.0}], '
            '"fifo_beyond_horizon": false, "peak_backlog_bits": 10000000.0, '
            '"peak_delay_ms": Infinity, "peak_fifo_delay_ms": 0.0, "peak_time_ms": 2000.0}}\n'
        )


# SI column name -> (CLI name, divisor), as the unit table renames them
UNIT_COLUMNS = {
    "t_s": ("t_ms", 1e-3),
    "rate_bps": ("rate_mbps", 1e6),
    "backlog_bits": ("backlog_bits", 1.0),
    "c_factor": ("c_factor", 1.0),
}
ODD_FLOATS = (-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf)
floats = st.sampled_from(ODD_FLOATS) | st.floats()
scalars = floats | st.none()
texts = st.text(st.sampled_from(list('ab ,"\n\u00fc')), max_size=6)


@st.composite
def columns(draw, values):
    """2-4 of the unit columns, each of a row count around a block edge,
    filled from a few drawn values (a hypothesis list of 8k values would be
    slow to draw, and rows past the first few only need to exist)."""
    block = draw(st.sampled_from((1, 2, 3, 5)))
    n = draw(st.sampled_from((0, 1, block - 1, block, block + 1, 2 * block + 1)))
    names = draw(st.lists(st.sampled_from(sorted(UNIT_COLUMNS)), min_size=2, max_size=4,
                          unique=True))
    cols = []
    for _ in names:
        pool = draw(st.lists(values, min_size=1, max_size=5))
        cols.append([pool[i % len(pool)] for i in range(n)])
    return block, tuple(names), cols


def csv_reference(names, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(rows)
    return buf.getvalue()


def cli_rows(names, cols):
    """The rows of ``cols`` in CLI units: numbers divided, None and text kept."""
    divisors = [UNIT_COLUMNS.get(name, (name, 1.0))[1] for name in names]
    return [
        [v if v is None or isinstance(v, str) else v / d for v, d in zip(row, divisors)]
        for row in zip(*cols)
    ]


class TestWriterDifferential:
    """The column writers against the stdlib writers they replace: csv.writer
    for every CSV and json.dumps for the JSON series and events, across the
    block edges (the block patched small; one test runs the real one)."""

    @settings(max_examples=150, deadline=None)
    @given(data=columns(floats), cells=st.lists(scalars | texts, min_size=1, max_size=5))
    def test_csv_equals_csv_writer(self, data, cells):
        block, names, cols = data
        cli_names = [UNIT_COLUMNS[name][0] for name in names]
        with patch.object(cli, "_BLOCK", block):
            assert "".join(cli._csv(names, cols)) == csv_reference(cli_names, cli_rows(names, cols))
            # with text and None in a unitless column, written through _field
            label = [cells[i % len(cells)] for i in range(len(cols[0]))]
            mixed = (*names, "label")
            got = "".join(cli._csv(mixed, [*cols, label], cli._cli_value))
            assert got == csv_reference([*cli_names, "label"], cli_rows(mixed, [*cols, label]))

    @settings(max_examples=150, deadline=None)
    @given(series=columns(floats), events=columns(scalars), fmt=st.sampled_from(("json", "csv")))
    def test_run_equals_json_dumps(self, series, events, fmt):
        block, names, cols = series
        _, event_names, event_cols = events
        summary = {"peak_s": 0.5, "events": [dict(zip(event_names, row)) for row in zip(*event_cols)]}
        cli_events = [
            dict(zip((UNIT_COLUMNS[name][0] for name in event_names), row))
            for row in cli_rows(event_names, event_cols)
        ]
        cli_summary = {"peak_ms": 500.0, "events": cli_events}
        args = argparse.Namespace(format=fmt, out=None, trace="t.csv")
        out, err = io.StringIO(), io.StringIO()
        with patch.object(cli, "_BLOCK", block), redirect_stdout(out), redirect_stderr(err):
            assert cli._write_run(args, summary, names, cols) == 0
        out, err = out.getvalue(), err.getvalue()
        cli_names = [UNIT_COLUMNS[name][0] for name in names]
        if fmt == "csv":
            assert out == csv_reference(cli_names, cli_rows(names, cols))
            assert err == json.dumps({"summary": cli_summary}, sort_keys=True) + "\n"
            return
        # the series' dict form holds NaN as None
        rows = [[None if v != v else v for v in row] for row in cli_rows(names, cols)]
        doc = {
            "command": "simulate",
            "params": {"trace": "t.csv"},
            "results": {"series": [dict(zip(cli_names, row)) for row in rows],
                        "summary": cli_summary},
            "units": cli.UNITS,
            "version": __version__,
        }
        assert (out, err) == (json.dumps(doc, indent=2, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_real_block_edges(self, capsys, fmt):
        block = cli._BLOCK
        for n in (block - 1, block, block + 1):
            t = [i * 1e-3 + 1e-9 for i in range(n)]
            q = [math.nan if i % 7 == 0 else i * 1e-7 for i in range(n)]
            args = argparse.Namespace(format=fmt, out=None, trace="t.csv")
            assert cli._write_run(args, {}, cli._AIMD_SERIES, (t, q)) == 0
            out = capsys.readouterr().out
            rows = [(a / 1e-3, b / 1e-3) for a, b in zip(t, q)]
            if fmt == "csv":
                assert out == csv_reference(["t_ms", "queue_delay_ms"], rows)
            else:
                series = parse_envelope(out)["results"]["series"]
                assert out == dumps_again(out)
                assert [(r["t_ms"], r["queue_delay_ms"]) for r in series] == [
                    (a, None if b != b else b) for a, b in rows
                ]


class TestStreaming:
    """The writer holds a block of rows at a time, never the whole text."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_rows(self, tmp_path, capsys, fmt):
        peaks = []
        for n in (100_000, 400_000):
            t = array("d", range(n))
            q = array("d", range(0, 3 * n, 3))
            args = argparse.Namespace(format=fmt, out=str(tmp_path / f"out.{fmt}"), trace="t.csv")
            tracemalloc.start()
            try:
                assert cli._write_run(args, {"peak_s": 0.5}, cli._AIMD_SERIES, (t, q)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / f"out.{fmt}").stat().st_size > 4_000_000
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_event_log_is_streamed_to_its_file(self, tmp_path):
        # 77,423 records; the run's own columns take about 1.6 MB, so a
        # writer that held the whole log text, or a block of rows and their
        # line strings near one log's worth, passes the log's size
        trace = tmp_path / "step.csv"
        trace.write_text("0,1e8,hold\n3,2e7,hold\n6,2e7,hold\n")
        log = tmp_path / "events.csv"
        argv = ["simulate", "--trace", str(trace), "--controller", "aimd",
                "--log-out", str(log), "--out", str(tmp_path / "summary.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = log.stat().st_size
        assert size == 2_424_382
        assert peak < size, peak / size


class TestSweep:
    def test_single_cell_matches_bound_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--c-list", "10", "--delay-list-ms", "17", "--self-test"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["q_seconds"]) == pytest.approx(0.153, rel=1e-12)
        assert float(rows[0]["d_ramp"]) == 0.0

    def test_fig7_preset_shape(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--fig7", "--self-test")
        assert code == 0
        rows = parse_csv(out)
        assert {float(r["c"]) for r in rows} == {2.0, 5.0, 10.0}
        assert all(float(r["d"]) == 0.1 for r in rows)
        by_c: dict[float, list[tuple[float, float]]] = {}
        for r in rows:
            by_c.setdefault(float(r["c"]), []).append((float(r["d_ramp"]), float(r["q_seconds"])))
        for c, series in by_c.items():
            series.sort()
            assert series[0] == (0.0, pytest.approx((c - 1.0) * 0.1, rel=1e-12))
            qs = [q for _, q in series]
            assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_fig5_preset_reaches_several_hundred_ms(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--fig5", "--self-test")
        assert code == 0
        rows = parse_csv(out)
        big = [
            r for r in rows
            if float(r["c"]) <= 10.0 and float(r["d"]) <= 0.1 and float(r["q_seconds"]) > 0.3
        ]
        assert big

    def test_ramp_sweep_needs_fixed_delay(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--c-list", "2", "--ramp-list-ms", "0,50")
        assert code == 2
        assert "delay-ms" in err

    def test_empty_axis_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--c-list", " ", "--delay-list-ms", "17")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--c-list", "2,5", "--delay-list-ms", "10,20", "--format", "json"
        )
        assert code == 0
        doc = parse_envelope(out)
        assert doc["results"]["kind"] == "step"
        assert len(doc["results"]["results"]) == 2


class TestScenarioCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--list")
        assert code == 0
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert names == ["ramp-contention", "wifi-mcs-walk", "wifi-step"]

    def test_dublin_ny_table(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--table", "dublin-ny")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert [float(r["q_at_c10_ms"]) for r in rows] == pytest.approx(
            [153.0, 180.63, 225.63, 346.5], abs=1e-6
        )
        assert [r["lower_bound"] for r in rows] == ["false", "false", "false", "true"]

    def test_wifi_table(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--table", "wifi")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 7
        assert float(rows[0]["rate_mbps"]) == 1.0
        assert rows[2]["technology"] == "WiFi 4 (20MHz, 2x2)"

    def test_emit_trace_roundtrips(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--emit", "wifi-step")
        assert code == 0
        trace = trace_from_csv(out)
        assert trace.horizon == 5.0
        assert trace.capacity_at(0.0) == 144.4e6

    def test_emit_takes_the_mcs_walk_rates(self, capsys):
        code, out, err = run_cli(
            capsys, "scenario", "--emit", "wifi-mcs-walk",
            "--scenario-param", "rates_mbps=100:10", "--scenario-param", "dwell_ms=500",
        )
        assert (code, err) == (0, "")
        assert out == "time_s,rate_bps,mode\n0.0,100000000.0,hold\n0.5,10000000.0,hold\n1.0,10000000.0,hold\n"

    def test_unknown_table_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scenario", "--table", "mars")
        assert code == 2

    def test_unknown_emit_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scenario", "--emit", "mars")
        assert code == 2

    def test_format_is_not_a_flag(self, capsys):
        # scenario output has one format per mode, so there is nothing to pick
        code, out, err = run_cli(capsys, "scenario", "--table", "wifi", "--format", "json")
        assert code == 2
        assert out == ""
        assert "--format" in err


class TestIngest:
    def test_canonicalize_is_idempotent(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("0,1e8,hold\n1,1e7,hold\n")
        code, once, _ = run_cli(capsys, "ingest", str(raw))
        assert code == 0
        canon = tmp_path / "canon.csv"
        canon.write_text(once)
        code, twice, _ = run_cli(capsys, "ingest", str(canon))
        assert code == 0
        assert once == twice

    def test_explicit_horizon_adds_final_row(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("0,1e8,hold\n1,1e7,hold\n")
        code, out, _ = run_cli(capsys, "ingest", str(raw), "--horizon-ms", "5000")
        assert code == 0
        assert trace_from_csv(out).horizon == 5.0

    def test_error_exit_3_with_line(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("0,1e8,hold\n1,-3,hold\n")
        code, _, err = run_cli(capsys, "ingest", str(raw))
        assert code == 3
        assert "line 2" in err

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "ingest", str(tmp_path / "absent.csv"))
        assert code == 3

    def test_format_is_not_a_flag(self, capsys, tmp_path):
        # ingest always writes the canonical trace CSV
        raw = tmp_path / "raw.csv"
        raw.write_text("0,1e8,hold\n1,1e7,hold\n")
        code, out, err = run_cli(capsys, "ingest", str(raw), "--format", "json")
        assert code == 2
        assert out == ""
        assert "--format" in err


# Invocations refused before any output, each with its whole stderr; all exit 2.
USAGE_ERRORS = {
    "malformed_delay_list": (
        ["sweep", "--c-list", "2", "--delay-list-ms", "1,x"],
        "error: --delay-list-ms contains a malformed number: '1,x'\n",
    ),
    "scenario_param_without_equals": (
        ["simulate", "--scenario", "wifi-step", "--scenario-param", "onset", "--controller", "fixed:1"],
        "error: scenario parameter must look like key=value, got 'onset'\n",
    ),
    "unknown_scenario_param": (
        ["simulate", "--scenario", "wifi-step", "--scenario-param", "speed=3", "--controller", "fixed:1"],
        "error: unknown scenario parameter 'speed'; known: c_factor, dwell_ms, horizon_ms, "
        "onset_ms, post_mbps, pre_mbps, ramp_ms, rates_mbps\n",
    ),
    "scenario_param_not_a_number": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "pre_mbps=abc"],
        "error: --scenario-param pre_mbps contains a malformed number: 'abc'\n",
    ),
    "scenario_rate_not_a_number": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "rates_mbps=100:x"],
        "error: --scenario-param rates_mbps contains a malformed number: '100:x'\n",
    ),
    "one_mcs_walk_rate": (
        ["scenario", "--emit", "wifi-mcs-walk", "--scenario-param", "rates_mbps=100"],
        "error: --scenario-param rates_mbps=100: wifi-mcs-walk needs at least two rate levels\n",
    ),
    "trace_and_scenario": (
        ["simulate", "--trace", "trace.csv", "--scenario", "wifi-step", "--controller", "fixed:1"],
        "error: pass --trace or --scenario, not both\n",
    ),
    "no_trace_source": (
        ["simulate", "--controller", "fixed:1"],
        "error: need a trace source: --trace <csv path> or --scenario <name>\n",
    ),
    "aimd_with_horizon": (
        ["simulate", "--scenario", "wifi-step", "--controller", "aimd", "--horizon-ms", "1000"],
        "error: --horizon-ms is not supported with the aimd controller; set the trace horizon "
        "instead (scenario parameter horizon_ms or the trace CSV)\n",
    ),
    "two_presets": (
        ["sweep", "--fig5", "--fig7"],
        "error: pick at most one preset (--fig5 or --fig7)\n",
    ),
    "sweep_without_c_list": (
        ["sweep", "--delay-list-ms", "1"],
        "error: need --c-list (or a preset)\n",
    ),
    "both_list_flags": (
        ["sweep", "--c-list", "2", "--delay-list-ms", "1", "--ramp-list-ms", "1"],
        "error: pass exactly one of --delay-list-ms / --ramp-list-ms\n",
    ),
    "no_list_flag": (
        ["sweep", "--c-list", "2"],
        "error: pass exactly one of --delay-list-ms / --ramp-list-ms\n",
    ),
    "delay_on_step_sweep": (
        ["sweep", "--c-list", "2", "--delay-list-ms", "10", "--delay-ms", "-5"],
        "error: --delay-ms is the fixed delay of a --ramp-list-ms sweep; --delay-list-ms takes none\n",
    ),
    "nan_delay_on_step_sweep": (
        ["sweep", "--c-list", "2", "--delay-list-ms", "10", "--delay-ms", "nan", "--format", "json"],
        "error: --delay-ms is the fixed delay of a --ramp-list-ms sweep; --delay-list-ms takes none\n",
    ),
    "delay_on_fig5": (
        ["sweep", "--fig5", "--delay-ms", "inf", "--format", "json"],
        "error: --delay-ms is the fixed delay of a --ramp-list-ms sweep; --fig5 takes none\n",
    ),
    "delay_on_fig7": (
        ["sweep", "--fig7", "--delay-ms", "-1"],
        "error: --delay-ms is the fixed delay of a --ramp-list-ms sweep; --fig7 takes none\n",
    ),
    # the aimd flags are checked under every controller, as the JSON
    # envelope echoes them
    "nan_forward_delay_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--fwd-ms", "nan",
         "--format", "json"],
        "error: --fwd-ms must be finite and >= 0 ms, got nan\n",
    ),
    "nan_packet_bytes_under_oracle": (
        ["simulate", "--scenario", "wifi-step", "--controller", "oracle-final", "--delay-ms", "10",
         "--packet-bytes", "nan", "--format", "json"],
        "error: --packet-bytes must be finite and > 0 bytes, got nan\n",
    ),
    "nan_ai_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--ai", "nan",
         "--format", "json"],
        "error: --ai must be finite and > 0 packets per round trip, got nan\n",
    ),
    "negative_initial_window_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--initial-window", "-3"],
        "error: --initial-window must be a whole number >= 0 packets, got -3\n",
    ),
    "negative_xb_delay_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--xb-ms", "-1"],
        "error: --xb-ms must be finite and >= 0 ms, got -1.0\n",
    ),
    "inf_rev_delay_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--rev-ms", "inf"],
        "error: --rev-ms must be finite and >= 0 ms, got inf\n",
    ),
    "nan_mark_threshold_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--mark-threshold-ms", "nan"],
        "error: --mark-threshold-ms must be finite and >= 0 ms, got nan\n",
    ),
    "md_of_one_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--md", "1"],
        "error: --md must lie in (0, 1), got 1.0\n",
    ),
    "nan_sample_step_under_aimd": (
        ["simulate", "--scenario", "wifi-step", "--controller", "aimd", "--sample-ms", "nan",
         "--format", "json"],
        "error: --sample-ms must be finite and > 0 ms, got nan\n",
    ),
    "negative_sample_step_under_aimd": (
        ["simulate", "--scenario", "wifi-step", "--controller", "aimd", "--sample-ms", "-5",
         "--format", "json"],
        "error: --sample-ms must be finite and > 0 ms, got -5.0\n",
    ),
    "nan_delay_under_aimd": (
        ["simulate", "--scenario", "wifi-step", "--controller", "aimd", "--delay-ms", "nan",
         "--format", "json"],
        "error: --delay-ms must be finite and >= 0 ms, got nan\n",
    ),
    "nan_delay_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--delay-ms", "nan",
         "--format", "json"],
        "error: --delay-ms must be finite and >= 0 ms, got nan\n",
    ),
    # each flag is checked in the units it was typed in, so the message
    # names the flag and the value as given
    "negative_horizon_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--horizon-ms", "-5"],
        "error: --horizon-ms must be finite and > 0 ms, got -5.0\n",
    ),
    "zero_horizon_under_oracle": (
        ["simulate", "--scenario", "wifi-step", "--controller", "oracle-final", "--delay-ms", "10",
         "--horizon-ms", "0"],
        "error: --horizon-ms must be finite and > 0 ms, got 0.0\n",
    ),
    "negative_ingest_horizon": (
        ["ingest", "trace.csv", "--horizon-ms", "-5"],
        "error: --horizon-ms must be finite and >= 0 ms, got -5.0\n",
    ),
    "negative_bound_delay": (
        ["bound", "--c-factor", "10", "--delay-ms", "-5"],
        "error: --delay-ms must be finite and >= 0 ms, got -5.0\n",
    ),
    "negative_bound_ramp": (
        ["bound", "--c-factor", "10", "--delay-ms", "17", "--ramp-ms", "-5"],
        "error: --ramp-ms must be finite and >= 0 ms, got -5.0\n",
    ),
    "negative_pre_rate": (
        ["bound", "--pre-rate", "-1", "--post-rate", "1", "--delay-ms", "1"],
        "error: --pre-rate must be finite and > 0 Mbit/s, got -1.0\n",
    ),
    "nan_post_rate": (
        ["bound", "--pre-rate", "10", "--post-rate", "nan", "--delay-ms", "1"],
        "error: --post-rate must be finite and > 0 Mbit/s, got nan\n",
    ),
    "negative_ramp_sweep_delay": (
        ["sweep", "--c-list", "2", "--delay-ms", "-5", "--ramp-list-ms", "10"],
        "error: --delay-ms must be finite and >= 0 ms, got -5.0\n",
    ),
    "scenario_without_action": (
        ["scenario"],
        "error: pass --list, --table <name>, or --emit <scenario>\n",
    ),
    # list items, the fixed: rate and scenario keys go through the flag
    # table too, so no message reports a value in units the user never typed
    "negative_ramp_list_item": (
        ["sweep", "--c-list", "2", "--delay-ms", "5", "--ramp-list-ms", "-10"],
        "error: --ramp-list-ms must be finite and >= 0 ms, got -10.0\n",
    ),
    "negative_delay_list_item": (
        ["sweep", "--c-list", "2", "--delay-list-ms", "-10"],
        "error: --delay-list-ms must be finite and >= 0 ms, got -10.0\n",
    ),
    "c_list_item_below_one": (
        ["sweep", "--c-list", "2,0.5", "--delay-list-ms", "10"],
        "error: --c-list must be finite and >= 1, got 0.5\n",
    ),
    "negative_fixed_rate": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:-8"],
        "error: --controller fixed:<Mbit/s> must be finite and > 0 Mbit/s, got -8.0\n",
    ),
    "fixed_rate_not_a_number": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:abc"],
        "error: --controller fixed:<Mbit/s> contains a malformed number: 'abc'\n",
    ),
    "negative_scenario_onset": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "onset_ms=-5"],
        "error: --scenario-param onset_ms must be finite and > 0 ms, got -5.0\n",
    ),
    "negative_mcs_walk_rate": (
        ["scenario", "--emit", "wifi-mcs-walk", "--scenario-param", "rates_mbps=-1:2"],
        "error: --scenario-param rates_mbps must be finite and > 0 Mbit/s, got -1.0\n",
    ),
    "contention_c_factor_of_one": (
        ["scenario", "--emit", "ramp-contention", "--scenario-param", "c_factor=1"],
        "error: --scenario-param c_factor must be finite and > 1, got 1.0\n",
    ),
    "key_the_scenario_does_not_take": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "c_factor=2"],
        "error: scenario 'wifi-step' takes no parameter 'c_factor'; it takes horizon_ms, "
        "onset_ms, post_mbps, pre_mbps\n",
    ),
    "rates_on_wifi_step": (
        ["simulate", "--scenario", "wifi-step", "--scenario-param", "rates_mbps=1:2",
         "--controller", "fixed:8"],
        "error: scenario 'wifi-step' takes no parameter 'rates_mbps'; it takes horizon_ms, "
        "onset_ms, post_mbps, pre_mbps\n",
    ),
    "post_rate_above_pre_rate": (
        ["bound", "--pre-rate", "10", "--post-rate", "20", "--delay-ms", "1"],
        "error: --post-rate must be <= --pre-rate, got --pre-rate 10.0 and --post-rate 20.0\n",
    ),
    # a given input that the run would drop is refused, as aimd_with_horizon is
    "log_out_under_fixed": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--log-out", "events.csv"],
        "error: --log-out is the aimd controller's event log; --controller fixed:8 takes none\n",
    ),
    "scenario_param_with_trace": (
        ["simulate", "--trace", "trace.csv", "--controller", "fixed:8", "--scenario-param",
         "onset_ms=-5"],
        "error: --scenario-param is a parameter of a --scenario trace; --trace takes none\n",
    ),
    "scenario_param_with_list": (
        ["scenario", "--list", "--scenario-param", "onset_ms=5"],
        "error: --scenario-param is a parameter of an --emit scenario; --list takes none\n",
    ),
    "scenario_param_with_table": (
        ["scenario", "--table", "wifi", "--scenario-param", "onset_ms=5"],
        "error: --scenario-param is a parameter of an --emit scenario; --table takes none\n",
    ),
    # a value inside its domain as typed can leave it once scaled to SI
    "pre_rate_overflows_in_si": (
        ["bound", "--pre-rate", "1e308", "--post-rate", "1", "--delay-ms", "1"],
        "error: --pre-rate 1e+308 Mbit/s in SI units must be finite and > 0, got inf\n",
    ),
    "sample_step_underflows_in_si": (
        ["simulate", "--scenario", "wifi-step", "--controller", "fixed:8", "--sample-ms", "5e-324"],
        "error: --sample-ms 5e-324 ms in SI units must be finite and > 0, got 0.0\n",
    ),
    "scenario_onset_underflows_in_si": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "onset_ms=5e-324"],
        "error: --scenario-param onset_ms 5e-324 ms in SI units must be finite and > 0, got 0.0\n",
    ),
    # a library check that joins scenario values is named by the pairs as typed
    "scenario_onset_past_horizon": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "onset_ms=6000"],
        "error: --scenario-param onset_ms=6000: onset must lie strictly inside (0, horizon), "
        "got onset=6.0, horizon=5.0\n",
    ),
    "scenario_post_rate_above_pre_rate": (
        ["scenario", "--emit", "wifi-step", "--scenario-param", "post_mbps=200"],
        "error: --scenario-param post_mbps=200: a step must be a reduction: post_rate < pre_rate "
        "required, got 144400000.0 -> 200000000.0\n",
    ),
    "scenario_ramp_past_horizon": (
        ["scenario", "--emit", "ramp-contention", "--scenario-param", "ramp_ms=9000"],
        "error: --scenario-param ramp_ms=9000: ramp ends at 10.0, past the horizon 5.0\n",
    ),
    # a count past 15 digits is written as {:.6g}, not digit by digit
    "packet_count_over_the_cap_in_short": (
        ["simulate", "--scenario", "wifi-step", "--scenario-param", "horizon_ms=2000",
         "--scenario-param", "onset_ms=1000", "--controller", "aimd", "--ai", "1e308"],
        "error: the run would send 1e+307 packets, over the cap of 1000000 "
        "(check the additive increase and the packet size)\n",
    ),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, stderr", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_exit_2_with_the_message(self, capsys, argv, stderr):
        assert run_cli(capsys, *argv) == (2, "", stderr)


# A 12 -> 1.2 Mbit/s step at 100 ms of a 300 ms trace: an aimd run over it
# sends a few hundred packets.
SMALL = ["--scenario", "wifi-step", "--scenario-param", "pre_mbps=12", "--scenario-param",
         "post_mbps=1.2", "--scenario-param", "onset_ms=100", "--scenario-param", "horizon_ms=300"]

# Each domain of the flag table, restated from README.
IN_DOMAIN = {
    "> 0": lambda v: math.isfinite(v) and v > 0,
    ">= 0": lambda v: math.isfinite(v) and v >= 0,
    "> 1": lambda v: math.isfinite(v) and v > 1,
    ">= 1": lambda v: math.isfinite(v) and v >= 1,
    "(0, 1)": lambda v: 0 < v < 1,
    "whole >= 0": lambda v: v >= 0,
}

# The scenario that takes each --scenario-param key.
KEY_SCENARIO = {"post_mbps": "wifi-step", "rates_mbps": "wifi-mcs-walk", "dwell_ms": "wifi-mcs-walk"}

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-300, 1e308, -1e308, 1.7976931348623157e308, 0.5, 1.0, 2.0, -3.0)


def flag_argv(key: str, text: str, controller: str) -> list[str]:
    """An argv that gives the value ``text`` to the flag table's row ``key``."""
    if key.startswith("scenario_param."):
        name = key.partition(".")[2]
        value = f"100:{text}" if name == "rates_mbps" else text
        return ["simulate", "--scenario", KEY_SCENARIO.get(name, "ramp-contention"),
                "--scenario-param", f"{name}={value}", "--controller", "fixed:8", "--format", "json"]
    cases = {
        "c_factor": ["bound", f"--c-factor={text}", "--delay-ms", "17"],
        "pre_rate": ["bound", f"--pre-rate={text}", "--post-rate", "1e-3", "--delay-ms", "17"],
        "post_rate": ["bound", "--pre-rate", "1e3", f"--post-rate={text}", "--delay-ms", "17"],
        "ramp_ms": ["bound", "--c-factor", "10", "--delay-ms", "17", f"--ramp-ms={text}"],
        "c_list": ["sweep", f"--c-list=2,{text}", "--delay-list-ms", "10"],
        "delay_list_ms": ["sweep", "--c-list", "2", f"--delay-list-ms=10,{text}"],
        "ramp_list_ms": ["sweep", "--c-list", "2", "--delay-ms", "10", f"--ramp-list-ms={text}"],
        "fixed": ["simulate", *SMALL, "--controller", f"fixed:{text}"],
    }
    if key == "ingest_horizon_ms":
        return ["ingest", "-", f"--horizon-ms={text}"]
    if key in cases:
        return [*cases[key], "--format", "json"]
    if key == "horizon_ms" and controller == "aimd":
        controller = "fixed:8"
    delay = ["--delay-ms", "10"] if controller.startswith("oracle") and key != "delay_ms" else []
    flag = cli._FLAGS[key][0]
    return ["simulate", *SMALL, "--controller", controller, *delay, f"{flag}={text}",
            "--format", "json"]


class TestFlagTable:
    """Every row of the flag table, list items, fixed: and scenario keys
    included, against values across the float range: each run exits 0, 2,
    3 or 4 with no traceback, and a value outside its row's domain exits 2
    with a message naming the flag and the value as typed."""

    @settings(max_examples=300, deadline=5000)
    @given(key=st.sampled_from(sorted(cli._FLAGS)),
           number=st.sampled_from(EXTREMES) | st.floats(),
           whole=st.sampled_from((0, -1, 2**63)) | st.integers(-10**6, 10**6),
           controller=st.sampled_from(("fixed:8", "oracle-final", "oracle-tracking", "aimd")))
    def test_each_row_checks_its_domain(self, key, number, whole, controller):
        flag, _, _, domain = cli._FLAGS[key][:4]
        value = whole if domain == "whole >= 0" else number
        argv = flag_argv(key, repr(value), controller)
        out, err = io.StringIO(), io.StringIO()
        with patch("sys.stdin", io.StringIO("0,1e7,hold\n1,1e6,hold\n")), \
                patch("ccbound.packetsim.MAX_PACKETS", 20_000), \
                redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        if not IN_DOMAIN[domain](value):
            assert code == 2, (argv, err)
            assert err.startswith(f"error: {flag} must ") and err.endswith(f", got {value!r}\n"), err


# README names the two --horizon-ms rows by their command.
README_NAMES = {"simulate --horizon-ms": "horizon_ms", "ingest --horizon-ms": "ingest_horizon_ms"}


class TestReadmeFlagTable:
    """README's flag table names every row of ``cli._FLAGS``, each with its
    row's unit and a domain cell that starts with the wording of its row in
    the library's domain table, less the verb."""

    def test_table_matches_the_flag_rows(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.partition("| input | unit | domain |\n|-------|------|--------|\n")[2]
        by_name = {row[0]: key for key, row in cli._FLAGS.items() if row[0] != "--horizon-ms"}
        named = []
        for line in table.partition("\n\n")[0].splitlines():
            inputs, unit, domain = (cell.strip() for cell in line.strip("|").split("|"))
            for name in re.findall(r"`([^`]+)`", inputs):
                flag = name if name.startswith("--") else f"--scenario-param {name}"
                key = README_NAMES.get(name) or by_name[flag]
                wording = trace._DOMAINS[cli._FLAGS[key][3]][1].partition(" ")[2]
                assert (unit, domain[:len(wording)]) == (cli._FLAGS[key][1], wording), name
                named.append(key)
        assert sorted(named) == sorted(cli._FLAGS)


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2
