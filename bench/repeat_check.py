"""Exact counts of the traced run repeat bit for bit for one seed.

    python3 -m pytest -q bench/repeat_check.py

Runs the traced run of every workload twice with the same seed, each in a
fresh process, and compares the counts, the count-based ratios and the
failed-op tally.  Later changes can then cite a noise-free count beside the
wall clock.  It takes a few minutes, so it is not part of the test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7
EXACT = (
    "trace.capacity_at.calls", "trace.left_limit_at.calls", "trace.integrate.calls",
    "trace.integrate.segments", "trace.calls_per_fluid_segment", "trace.calls.exponent",
    "trace.detect_events.calls", "fluid.segments", "fluid.samples", "fluid.censored_share",
    "packetsim.packets", "bounds.calls", "cli.out_bytes",
)


def traced_run(workload: str) -> dict:
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["fluid-backlog", "cli-tracking", "packet-aimd"])
def test_counts_repeat(workload):
    first, second = traced_run(workload), traced_run(workload)
    for key in ("correct", "attempted", "failed"):
        assert first[key] == second[key], key
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
