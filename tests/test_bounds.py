"""Closed-form delay floors: values, properties, inverse, sweeps."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound.bounds import (
    peak_delay_ramp,
    peak_delay_step,
    ramp_duration_for_target,
    reduction_factor,
    sweep,
)
from ccbound.cli import main

MBPS = 1e6

c_factors = st.floats(min_value=1.000001, max_value=1e4)
delays = st.floats(min_value=1e-4, max_value=10.0)
ramps = st.floats(min_value=0.0, max_value=100.0)


class TestReductionFactor:
    def test_ten_to_one(self):
        assert reduction_factor(100 * MBPS, 10 * MBPS) == pytest.approx(10.0, rel=1e-15)

    def test_identity(self):
        assert reduction_factor(7e7, 7e7) == 1.0

    def test_wifi4_span(self):
        assert reduction_factor(144.4 * MBPS, 14.4 * MBPS) == pytest.approx(
            144.4 / 14.4, rel=1e-15
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            reduction_factor(0.0, 1e7)
        with pytest.raises(ValueError):
            reduction_factor(1e7, -1.0)


class TestStepFloor:
    @pytest.mark.parametrize(
        "d_ms,expected_ms",
        [(17.0, 153.0), (20.07, 180.63), (25.07, 225.63), (38.5, 346.5)],
    )
    def test_dublin_new_york_values(self, d_ms, expected_ms):
        assert peak_delay_step(10.0, d_ms * 1e-3) == pytest.approx(expected_ms * 1e-3, rel=1e-12)

    def test_no_reduction_no_queue(self):
        assert peak_delay_step(1.0, 0.123) == 0.0

    def test_zero_delay(self):
        assert peak_delay_step(42.0, 0.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            peak_delay_step(0.5, 0.01)
        with pytest.raises(ValueError):
            peak_delay_step(10.0, -0.01)
        with pytest.raises(ValueError):
            peak_delay_step(math.inf, 0.01)

    @given(c_factors, delays, st.floats(min_value=1e3, max_value=1e9))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, c, d, pre):
        # the floor depends only on the ratio, never on absolute throughput
        via_small = peak_delay_step(reduction_factor(pre, pre / c), d)
        via_large = peak_delay_step(reduction_factor(1000.0 * pre, 1000.0 * pre / c), d)
        assert math.isclose(via_small, via_large, rel_tol=1e-9)


class TestRampFloor:
    def test_zero_ramp_equals_step(self):
        assert peak_delay_ramp(10.0, 0.1, 0.0) == pytest.approx(0.9, rel=1e-15)
        assert peak_delay_ramp(10.0, 0.1, 0.0) == peak_delay_step(10.0, 0.1)

    def test_half_reduction_at_ramp_equal_delay(self):
        assert peak_delay_ramp(10.0, 0.1, 0.1) == pytest.approx(0.45, rel=1e-12)

    def test_three_quarter_reduction_at_double_ramp(self):
        assert peak_delay_ramp(10.0, 0.1, 0.2) == pytest.approx(0.225, rel=1e-12)

    def test_branches_agree_at_boundary(self):
        for c in (1.5, 2.0, 5.0, 10.0, 100.0):
            for d in (0.001, 0.017, 0.1, 1.0):
                short = (c - 1.0) * (2.0 * d - d) / 2.0
                long = (c - 1.0) * d * d / (2.0 * d)
                assert math.isclose(short, long, rel_tol=1e-12)
                assert math.isclose(peak_delay_ramp(c, d, d), short, rel_tol=1e-12)

    def test_zero_signal_delay_is_zero(self):
        assert peak_delay_ramp(10.0, 0.0, 0.0) == 0.0
        assert peak_delay_ramp(10.0, 0.0, 0.5) == 0.0

    @given(c_factors, delays, ramps, ramps)
    @settings(max_examples=80, deadline=None)
    def test_non_increasing_in_ramp(self, c, d, r1, r2):
        lo, hi = sorted((r1, r2))
        assert peak_delay_ramp(c, d, hi) <= peak_delay_ramp(c, d, lo) * (1 + 1e-12)

    @given(c_factors, c_factors, delays, ramps)
    @settings(max_examples=80, deadline=None)
    def test_non_decreasing_in_c(self, c1, c2, d, r):
        lo, hi = sorted((c1, c2))
        assert peak_delay_ramp(hi, d, r) >= peak_delay_ramp(lo, d, r) * (1 - 1e-12)

    @given(c_factors, delays, delays, ramps)
    @settings(max_examples=80, deadline=None)
    def test_non_decreasing_in_delay(self, c, d1, d2, r):
        lo, hi = sorted((d1, d2))
        assert peak_delay_ramp(c, hi, r) >= peak_delay_ramp(c, lo, r) * (1 - 1e-12)

    def test_long_ramp_limit_vanishes(self):
        assert peak_delay_ramp(10.0, 0.1, 1e9) < 1e-9


class TestInverse:
    def test_full_target_means_step(self):
        assert ramp_duration_for_target(10.0, 0.1, 0.9) == pytest.approx(0.0, abs=1e-15)

    def test_full_target_clamps_rounding_below_zero(self):
        # q / (c - 1) rounds to an ulp above d, so 2 (d - q / (c - 1)) < 0
        c, d = 84.15681028674481, 0.9446866269984266
        q = (c - 1.0) * d
        assert 2.0 * (d - q / (c - 1.0)) == -2.220446049250313e-16
        assert ramp_duration_for_target(c, d, q) == 0.0

    def test_half_target_means_ramp_equal_delay(self):
        assert ramp_duration_for_target(10.0, 0.1, 0.45) == pytest.approx(0.1, rel=1e-12)

    def test_quarter_target(self):
        # inverting the long-ramp branch: q = (c-1) d^2 / (2 r)  =>  r = (c-1) d^2 / (2 q)
        r = ramp_duration_for_target(10.0, 0.1, 0.225)
        assert r == pytest.approx(0.2, rel=1e-12)
        assert peak_delay_ramp(10.0, 0.1, r) == pytest.approx(0.225, rel=1e-12)

    def test_rejects_unreachable_targets(self):
        with pytest.raises(ValueError):
            ramp_duration_for_target(10.0, 0.1, 0.91)
        with pytest.raises(ValueError):
            ramp_duration_for_target(10.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            ramp_duration_for_target(1.0, 0.1, 0.1)  # step floor is 0: nothing reachable

    @given(
        st.floats(min_value=1.01, max_value=100.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, c, d, frac):
        target = frac * peak_delay_step(c, d)
        r = ramp_duration_for_target(c, d, target)
        assert math.isclose(peak_delay_ramp(c, d, r), target, rel_tol=1e-9)


class TestSweep:
    def test_single_cell_equals_direct_call(self):
        grid = sweep([10.0], d_values=[0.017])
        assert grid.results == ((peak_delay_step(10.0, 0.017),),)

    def test_ramp_sweep_matches_direct_calls(self):
        grid = sweep([2.0, 10.0], d_ramp_values=[0.0, 0.05, 0.1, 0.4], signal_delay=0.1)
        for i, c in enumerate(grid.c_values):
            for j, r in enumerate(grid.time_values):
                assert grid.results[i][j] == peak_delay_ramp(c, 0.1, r)

    def test_fig7_style_curves(self):
        ramp_values = [i / 100.0 for i in range(51)]
        grid = sweep([2.0, 5.0, 10.0], d_ramp_values=ramp_values, signal_delay=0.1)
        for i, c in enumerate(grid.c_values):
            row = grid.results[i]
            assert row[0] == pytest.approx((c - 1.0) * 0.1, rel=1e-12)
            assert all(a >= b for a, b in zip(row, row[1:]))

    def test_every_cell_matches_reevaluation(self):
        grid = sweep([1.0, 3.0, 7.5], d_ramp_values=[0.0, 0.02, 0.08, 0.3], signal_delay=0.05)
        for c, d, r, q in grid.rows():
            again = (c - 1.0) * (2.0 * d - r) / 2.0 if r <= d else (c - 1.0) * d * d / (2.0 * r)
            assert q == pytest.approx(again, rel=1e-15)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            sweep([], d_values=[0.01])
        with pytest.raises(ValueError):
            sweep([2.0], d_values=[])
        with pytest.raises(ValueError):
            sweep([2.0])
        with pytest.raises(ValueError):
            sweep([2.0], d_values=[0.01], d_ramp_values=[0.01])
        with pytest.raises(ValueError):
            sweep([2.0], d_ramp_values=[0.01])  # missing the fixed signal delay
        with pytest.raises(ValueError) as info:
            sweep([2.0], d_ramp_values=[], signal_delay=0.01)
        assert str(info.value) == "d_ramp_values must be non-empty"

    @pytest.mark.parametrize("signal_delay", [math.nan, -5.0, 0.01])
    def test_step_sweep_rejects_a_signal_delay(self, signal_delay):
        # a step sweep's delays are its d_values; a signal delay beside them
        # is refused, whatever its value, and not dropped
        with pytest.raises(ValueError, match="a step sweep takes no signal_delay"):
            sweep([2.0], d_values=[0.01], signal_delay=signal_delay)

    def test_csv_long_form(self, capsys):
        assert main(["sweep", "--c-list", "2", "--delay-list-ms", "10,20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "c,d,d_ramp,q_seconds"
        assert len(lines) == 3
        c, d, r, q = lines[1].split(",")
        assert float(c) == 2.0 and float(r) == 0.0
        assert float(q) == pytest.approx(0.01, rel=1e-12)

    def test_json_dict_shape(self):
        grid = sweep([2.0, 5.0], d_ramp_values=[0.0, 0.1], signal_delay=0.1)
        doc = dataclasses.asdict(grid)
        assert doc["kind"] == "ramp"
        assert doc["signal_delay"] == 0.1
        assert len(doc["results"]) == 2 and len(doc["results"][0]) == 2
