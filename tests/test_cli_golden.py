"""Golden CLI output: the exact exit code, stdout and stderr of fixed runs.

Every command and output format is pinned byte for byte, flag echoes and
error text included, so a change to how results are built, unit-converted or
written cannot alter what a user reads.  Outputs longer than a screenful are
pinned by their sha256.  The cases include flag values such as 15.7 ms and
62.8 ms that do not survive a ms -> s -> ms round trip, and runs whose FIFO
backlog outlives the horizon (``nan`` in CSV, ``null`` in JSON).
"""

from __future__ import annotations

import hashlib
import io
from typing import NamedTuple

import pytest

from ccbound.cli import main

STEP = "time_s,rate_bps,mode\n0,1e8,hold\n1,1e7,hold\n5,1e7,hold\n"
RAMP = "0,100000000,hold\n1.0,100000000,linear\n1.0628,10000000,hold\n3.3,10000000,hold\n"
AIMD = (
    "simulate", "--scenario", "ramp-contention", "--scenario-param", "pre_mbps=12",
    "--scenario-param", "ramp_ms=0", "--scenario-param", "horizon_ms=1500",
    "--controller", "aimd", "--seed", "5",
)


class Case(NamedTuple):
    argv: tuple[str, ...]
    stdin: str | None
    code: int
    out: str
    err: str


def pinned(text: str) -> str:
    """The text itself, or its sha256 when longer than 600 characters."""
    if len(text) <= 600:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = {
    "bound_step_json": Case(
        argv=("bound", "--c-factor", "10", "--delay-ms", "17"),
        stdin=None,
        code=0,
        out=(
            "{\n"
            '  "command": "bound",\n'
            '  "params": {\n'
            '    "c_factor": 10.0,\n'
            '    "command": "bound",\n'
            '    "debug_echo": false,\n'
            '    "delay_ms": 17.0,\n'
            '    "post_rate": null,\n'
            '    "pre_rate": null,\n'
            '    "ramp_ms": null\n'
            "  },\n"
            '  "results": {\n'
            '    "branch": "step",\n'
            '    "c_factor": 10.0,\n'
            '    "q_ms": 153.00000000000003\n'
            "  },\n"
            '  "units": {\n'
            '    "backlog": "bits",\n'
            '    "rate": "Mbit/s",\n'
            '    "time": "ms"\n'
            "  },\n"
            '  "version": "0.1.0"\n'
            "}\n"
        ),
        err="",
    ),
    "bound_step_csv": Case(
        argv=("bound", "--c-factor", "10", "--delay-ms", "17", "--format", "csv"),
        stdin=None,
        code=0,
        out=(
            "c_factor,delay_ms,ramp_ms,q_ms,branch\n"
            "10.0,17.0,,153.00000000000003,step\n"
        ),
        err="",
    ),
    "bound_ramp_json": Case(
        argv=("bound", "--c-factor", "10", "--delay-ms", "15.7", "--ramp-ms", "62.8"),
        stdin=None,
        code=0,
        out=(
            "{\n"
            '  "command": "bound",\n'
            '  "params": {\n'
            '    "c_factor": 10.0,\n'
            '    "command": "bound",\n'
            '    "debug_echo": false,\n'
            '    "delay_ms": 15.7,\n'
            '    "post_rate": null,\n'
            '    "pre_rate": null,\n'
            '    "ramp_ms": 62.8\n'
            "  },\n"
            '  "results": {\n'
            '    "branch": "long_ramp",\n'
            '    "c_factor": 10.0,\n'
            '    "q_ms": 17.662499999999998\n'
            "  },\n"
            '  "units": {\n'
            '    "backlog": "bits",\n'
            '    "rate": "Mbit/s",\n'
            '    "time": "ms"\n'
            "  },\n"
            '  "version": "0.1.0"\n'
            "}\n"
        ),
        err="",
    ),
    "bound_ramp_csv": Case(
        argv=(
            "bound", "--pre-rate", "144.4", "--post-rate", "14.4", "--delay-ms", "15.7",
            "--ramp-ms", "6.28", "--format", "csv",
        ),
        stdin=None,
        code=0,
        out=(
            "c_factor,delay_ms,ramp_ms,q_ms,branch\n"
            "10.027777777777779,15.7,6.28,113.38888888888889,short_ramp\n"
        ),
        err="",
    ),
    "bound_debug_echo": Case(
        argv=(
            "bound", "--pre-rate", "144.4", "--post-rate", "14.4", "--delay-ms", "15.7",
            "--ramp-ms", "62.8", "--debug-echo",
        ),
        stdin=None,
        code=0,
        out=(
            "{\n"
            '  "command": "bound",\n'
            '  "params": {\n'
            '    "c_factor": null,\n'
            '    "command": "bound",\n'
            '    "debug_echo": true,\n'
            '    "delay_ms": 15.7,\n'
            '    "post_rate": 14.4,\n'
            '    "pre_rate": 144.4,\n'
            '    "ramp_ms": 62.8\n'
            "  },\n"
            '  "results": {\n'
            '    "branch": "long_ramp",\n'
            '    "c_factor": 10.027777777777779,\n'
            '    "internal": {\n'
            '      "c_factor": 10.027777777777779,\n'
            '      "ramp_duration_s": 0.0628,\n'
            '      "signal_delay_s": 0.0157\n'
            "    },\n"
            '    "q_ms": 17.71701388888889\n'
            "  },\n"
            '  "units": {\n'
            '    "backlog": "bits",\n'
            '    "rate": "Mbit/s",\n'
            '    "time": "ms"\n'
            "  },\n"
            '  "version": "0.1.0"\n'
            "}\n"
        ),
        err="",
    ),
    "bound_debug_echo_step": Case(
        argv=("bound", "--c-factor", "10", "--delay-ms", "15.7", "--debug-echo"),
        stdin=None,
        code=0,
        out=(
            "{\n"
            '  "command": "bound",\n'
            '  "params": {\n'
            '    "c_factor": 10.0,\n'
            '    "command": "bound",\n'
            '    "debug_echo": true,\n'
            '    "delay_ms": 15.7,\n'
            '    "post_rate": null,\n'
            '    "pre_rate": null,\n'
            '    "ramp_ms": null\n'
            "  },\n"
            '  "results": {\n'
            '    "branch": "step",\n'
            '    "c_factor": 10.0,\n'
            '    "internal": {\n'
            '      "c_factor": 10.0,\n'
            '      "ramp_duration_s": null,\n'
            '      "signal_delay_s": 0.0157\n'
            "    },\n"
            '    "q_ms": 141.29999999999998\n'
            "  },\n"
            '  "units": {\n'
            '    "backlog": "bits",\n'
            '    "rate": "Mbit/s",\n'
            '    "time": "ms"\n'
            "  },\n"
            '  "version": "0.1.0"\n'
            "}\n"
        ),
        err="",
    ),
    "bound_bad_factor": Case(
        argv=("bound", "--c-factor", "0.5", "--delay-ms", "17"),
        stdin=None,
        code=2,
        out="",
        err="error: c_factor must be finite and >= 1, got 0.5\n",
    ),
    "final_json_series": Case(
        argv=(
            "simulate", "--scenario", "wifi-step", "--controller", "oracle-final", "--delay-ms",
            "15.7", "--sample-ms", "250",
        ),
        stdin=None,
        code=0,
        out="sha256:cb012d01331d5b7be7da9a378d70e6e45069412a24e97a977f7e4c419b2bb5de",
        err="",
    ),
    "final_json_summary": Case(
        argv=(
            "simulate", "--scenario", "wifi-mcs-walk", "--controller", "oracle-final",
            "--delay-ms", "17",
        ),
        stdin=None,
        code=0,
        out="sha256:b8da67194a882ed30d7c28be7b00af43e796cdbd993c1302c3fc6573c2e92101",
        err="",
    ),
    "final_csv_default_step": Case(
        argv=(
            "simulate", "--trace", "-", "--controller", "oracle-final", "--delay-ms", "17",
            "--format", "csv",
        ),
        stdin=STEP,
        code=0,
        out="sha256:5d310f674d53a54020484755ab457325bd55b125018f9017ed07c17f431b1053",
        err=(
            '{"summary": {"bits_in": 141530000.0, "bits_out": 140000000.0, '
            '"controller": "oracle-final", "events": [{"bound_ms": 153.00000000000003, '
            '"c_factor": 10.0, "onset_ms": 1000.0, "post_mbps": 10.0, "pre_mbps": 100.0, '
            '"ramp_ms": 0.0}], "fifo_beyond_horizon": true, '
            '"peak_backlog_bits": 1529999.9999999914, "peak_delay_ms": 152.99999999999915, '
            '"peak_fifo_delay_ms": 152.99999999999915, "peak_time_ms": 1016.9999999999999}}\n'
        ),
    ),
    "tracking_csv_horizon": Case(
        argv=(
            "simulate", "--trace", "-", "--controller", "oracle-tracking", "--delay-ms", "15.7",
            "--horizon-ms", "2500", "--sample-ms", "62.8", "--format", "csv",
        ),
        stdin=RAMP,
        code=0,
        out="sha256:c03b4703a52de23b326deb0ddaeaad7b6b921c760f620c74e0dc954e33512494",
        err=(
            '{"summary": {"bits_in": 119239000.0, "bits_out": 117826000.0, '
            '"controller": "oracle-tracking", "events": [{"bound_ms": 17.66250000000001, '
            '"c_factor": 10.0, "onset_ms": 1000.0, "post_mbps": 10.0, "pre_mbps": 100.0, '
            '"ramp_ms": 62.79999999999997}], "fifo_beyond_horizon": false, '
            '"peak_backlog_bits": 1413000.000000004, "peak_delay_ms": 141.30000000000038, '
            '"peak_fifo_delay_ms": 141.3000000000004, "peak_time_ms": 1078.5}}\n'
        ),
    ),
    "tracking_json_horizon": Case(
        argv=(
            "simulate", "--trace", "-", "--controller", "oracle-tracking", "--delay-ms", "15.7",
            "--horizon-ms", "2500", "--sample-ms", "62.8",
        ),
        stdin=RAMP,
        code=0,
        out="sha256:f68d1197a74e73312faa67f9a379923871429628b3f67a6b27a84f968f90b35b",
        err="",
    ),
    "fixed_json_horizon": Case(
        argv=(
            "simulate", "--scenario", "wifi-step", "--controller", "fixed:20", "--horizon-ms",
            "1500", "--sample-ms", "100",
        ),
        stdin=None,
        code=0,
        out="sha256:cda74b945e4706793d388f7927f9ec8da5eebb3fd47c1254df075ddba0c616a6",
        err="",
    ),
    "fixed_csv": Case(
        argv=(
            "simulate", "--scenario", "wifi-mcs-walk", "--scenario-param", "dwell_ms=300",
            "--controller", "fixed:100", "--sample-ms", "15.7", "--format", "csv",
        ),
        stdin=None,
        code=0,
        out="sha256:da6fcc8ea452d15a8fff76bc9bd15c7bc3b7ec218a06e4e22fd6993105eed46e",
        err=(
            '{"summary": {"bits_in": 89999999.99999999, "bits_out": 64320000.0, '
            '"controller": "fixed:100", "events": [{"bound_ms": null, '
            '"c_factor": 6.002077562326869, "onset_ms": 300.0, "post_mbps": 144.4, '
            '"pre_mbps": 866.7, "ramp_ms": 0.0}, {"bound_ms": null, '
            '"c_factor": 10.027777777777779, "onset_ms": 600.0, "post_mbps": 14.4, '
            '"pre_mbps": 144.4, "ramp_ms": 0.0}], "fifo_beyond_horizon": true, '
            '"peak_backlog_bits": 25679999.999999993, "peak_delay_ms": 1783.3333333333328, '
            '"peak_fifo_delay_ms": 0.0, "peak_time_ms": 899.9999999999999}}\n'
        ),
    ),
    "fifo_beyond_horizon_json": Case(
        argv=(
            "simulate", "--scenario", "ramp-contention", "--controller", "oracle-tracking",
            "--delay-ms", "31.4", "--sample-ms", "15.7",
        ),
        stdin=None,
        code=0,
        out="sha256:3bb01827f6faa5b30288acb6a6bd09eb0a86b98655dd243408560426b943d265",
        err="",
    ),
    "fifo_beyond_horizon_csv": Case(
        argv=(
            "simulate", "--scenario", "ramp-contention", "--controller", "oracle-tracking",
            "--delay-ms", "31.4", "--sample-ms", "15.7", "--format", "csv",
        ),
        stdin=None,
        code=0,
        out="sha256:0b53264475798c8456d7b6e62865d02611dc3d48045a350acf042c16989acfef",
        err=(
            '{"summary": {"bits_in": 165326000.0, "bits_out": 162500000.0, '
            '"controller": "oracle-tracking", "events": [{"bound_ms": 8.873639999999998, '
            '"c_factor": 10.0, "onset_ms": 1000.0, "post_mbps": 10.0, "pre_mbps": 100.0, '
            '"ramp_ms": 500.0}], "fifo_beyond_horizon": true, '
            '"peak_backlog_bits": 2826000.000000007, "peak_delay_ms": 282.6000000000007, '
            '"peak_fifo_delay_ms": 282.60000000000065, "peak_time_ms": 1531.4}}\n'
        ),
    ),
    "aimd_json": Case(
        argv=AIMD,
        stdin=None,
        code=0,
        out="sha256:689a861a2d66043528e1746746c5331ef41d36ecd549c62ccbf35788ad9df6c6",
        err="",
    ),
    "aimd_json_series": Case(
        argv=AIMD + ("--sample-ms", "1"),
        stdin=None,
        code=0,
        out="sha256:e9ab19ddf4bbdaae74099f2ae389efb4f98b86ba6ea115364ee88d71592f9626",
        err="",
    ),
    "aimd_csv": Case(
        argv=AIMD + ("--format", "csv"),
        stdin=None,
        code=0,
        out="sha256:ee74706c574124bab0e94c3311319ec0ef65c40ecc850ff7d050217d49fcafa0",
        err=(
            '{"summary": {"bound_comparison": {"bound_ms": 153.00000000000003, '
            '"measured_peak_ms": 241.0000000000003, "ratio": 1.5751633986928124, '
            '"slack_ms": 10.0, "violation": false}, "congestion_reached": true, '
            '"controller": "aimd", "packets_delivered": 980, "packets_sent": 982, '
            '"peak_queue_delay_ms": 241.0000000000003}}\n'
        ),
    ),
    "aimd_no_event_json": Case(
        argv=("simulate", "--trace", "-", "--controller", "aimd", "--seed", "2"),
        stdin="0,2e6,hold\n0.4,2e6,hold\n",
        code=0,
        out="sha256:381a3db4418ca2b9e3a0a385e43af4bcf1583f4f0e9f678d8862af9c2b5c2786",
        err="",
    ),
    "sweep_step_csv": Case(
        argv=("sweep", "--c-list", "2,10", "--delay-list-ms", "15.7,17", "--self-test"),
        stdin=None,
        code=0,
        out=(
            "c,d,d_ramp,q_seconds\n"
            "2.0,0.0157,0.0,0.0157\n"
            "2.0,0.017,0.0,0.017\n"
            "10.0,0.0157,0.0,0.14129999999999998\n"
            "10.0,0.017,0.0,0.15300000000000002\n"
        ),
        err="",
    ),
    "sweep_ramp_json": Case(
        argv=(
            "sweep", "--c-list", "2,5", "--ramp-list-ms", "0,6.28,62.8", "--delay-ms", "15.7",
            "--format", "json",
        ),
        stdin=None,
        code=0,
        out="sha256:3a6ab5da2db7708f7dc66e9ea7afa0b5bc41fbd3ec4e221239d5f72b27b7d414",
        err="",
    ),
    "sweep_fig7": Case(
        argv=("sweep", "--fig7"),
        stdin=None,
        code=0,
        out="sha256:b93d2a4224d7111769f5c18505b53b640c8abd10feed16a131aa80782132b124",
        err="",
    ),
    "table_dublin_ny": Case(
        argv=("scenario", "--table", "dublin-ny"),
        stdin=None,
        code=0,
        out=(
            "label,one_way_delay_ms,q_at_c10_ms,lower_bound\n"
            "Speed of light,17,153,false\n"
            "Theoretically optimal LEO satellite,20.07,180.63,false\n"
            "Theoretical optical terrestrial cable,25.07,225.63,false\n"
            "Internet measurements,38.5,346.5,true\n"
        ),
        err="",
    ),
    "table_wifi": Case(
        argv=("scenario", "--table", "wifi"),
        stdin=None,
        code=0,
        out=(
            "technology,note,rate_mbps\n"
            "WiFi 802.11b,Min rate,1\n"
            "WiFi 802.11b,Max rate,11\n"
            '"WiFi 4 (20MHz, 2x2)",Min rate,14.4\n'
            '"WiFi 4 (20MHz, 2x2)",Max rate,144.4\n'
            '"WiFi 5 (20MHz, 2x2)",Max rate,173.3\n'
            '"WiFi 5 (40MHz, 2x2)",Max rate,400\n'
            '"WiFi 5 (80MHz, 2x2)",Max rate,866.7\n'
        ),
        err="",
    ),
    "scenario_list": Case(
        argv=("scenario", "--list"),
        stdin=None,
        code=0,
        out=(
            "ramp-contention: linear capacity decline, "
            "e.g. competing traffic ramping up on a shared link\n"
            "wifi-mcs-walk: walk down a sequence of PHY rate levels, one per dwell\n"
            "wifi-step: instant ~10x step between the WiFi 4 max and min rates\n"
        ),
        err="",
    ),
    "scenario_emit": Case(
        argv=(
            "scenario", "--emit", "ramp-contention", "--scenario-param", "ramp_ms=62.8",
            "--scenario-param", "onset_ms=15.7",
        ),
        stdin=None,
        code=0,
        out=(
            "time_s,rate_bps,mode\n"
            "0.0,100000000.0,hold\n"
            "0.0157,100000000.0,linear\n"
            "0.07849999999999999,10000000.0,hold\n"
            "5.0,10000000.0,hold\n"
        ),
        err="",
    ),
    "ingest_horizon": Case(
        argv=("ingest", "-", "--horizon-ms", "6283.1"),
        stdin="0,1e8,hold\n1.5,1e7,linear\n2,2e7,hold\n",
        code=0,
        out=(
            "time_s,rate_bps,mode\n"
            "0.0,100000000.0,hold\n"
            "1.5,10000000.0,linear\n"
            "2.0,20000000.0,hold\n"
            "6.2831,20000000.0,hold\n"
        ),
        err="",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, capsys, monkeypatch):
    case = CASES[name]
    monkeypatch.setattr("sys.stdin", io.StringIO(case.stdin or ""))
    code = main(list(case.argv))
    captured = capsys.readouterr()
    assert (code, pinned(captured.out), pinned(captured.err)) == (case.code, case.out, case.err)
