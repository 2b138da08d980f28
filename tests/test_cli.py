"""Command-line contract: outputs, units, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import time

import pytest

from ccbound import __version__, cli
from ccbound.bounds import peak_delay_ramp, peak_delay_step
from ccbound.cli import main
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
    """The JSON series is spliced into the envelope from the row tuples; the
    text must still be json.dumps(indent=2, sort_keys=True) byte for byte."""

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
        assert cli._write_run(args, {}, columns, iter(rows)) == 0
        series = [{k: None if v != v else v for k, v in zip(columns, row)} for row in rows]
        doc = {
            "command": "simulate",
            "params": {"trace": "t.csv"},
            "results": {"series": series, "summary": {}},
            "units": cli.UNITS,
            "version": __version__,
        }
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2
