"""Reference tables and registered trace generators."""

from __future__ import annotations

import pytest

from ccbound.bounds import peak_delay_step
from ccbound.scenarios import (
    dublin_ny_table,
    scenario_description,
    scenario_names,
    scenario_trace,
    wifi_rates,
)
from ccbound.trace import detect_events


class TestWifiRates:
    def test_seven_rows(self):
        assert len(wifi_rates()) == 7

    def test_all_rates_positive(self):
        assert all(row.rate > 0 for row in wifi_rates())

    def test_wifi4_span_is_roughly_ten(self):
        rows = {(r.technology, r.note): r.rate for r in wifi_rates()}
        hi = rows[("WiFi 4 (20MHz, 2x2)", "Max rate")]
        lo = rows[("WiFi 4 (20MHz, 2x2)", "Min rate")]
        assert hi / lo == pytest.approx(10.03, abs=0.01)

    def test_extreme_levels(self):
        rates = sorted(r.rate for r in wifi_rates())
        assert rates[0] == 1e6
        assert rates[-1] == 866.7e6


class TestDublinNyTable:
    def test_four_rows_with_expected_delays(self):
        rows = dublin_ny_table()
        assert [row.one_way_delay for row in rows] == [0.017, 0.02007, 0.02507, 0.0385]

    @pytest.mark.parametrize(
        "index,expected_ms",
        [(0, 153.0), (1, 180.63), (2, 225.63), (3, 346.5)],
    )
    def test_floor_column_values(self, index, expected_ms):
        row = dublin_ny_table()[index]
        assert row.q_at_c10 == pytest.approx(expected_ms * 1e-3, abs=1e-8)

    def test_floor_column_is_computed_not_stored(self):
        for row in dublin_ny_table():
            assert row.q_at_c10 == peak_delay_step(10.0, row.one_way_delay)
            assert row.q_at_c10 == pytest.approx(9.0 * row.one_way_delay, rel=1e-15)

    def test_only_the_measured_row_is_a_lower_bound(self):
        rows = dublin_ny_table()
        assert [row.lower_bound for row in rows] == [False, False, False, True]
        assert rows[3].label == "Internet measurements"


class TestScenarioRegistry:
    def test_names(self):
        assert scenario_names() == ["ramp-contention", "wifi-mcs-walk", "wifi-step"]

    def test_descriptions_exist(self):
        for name in scenario_names():
            assert scenario_description(name)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_trace("wifi-warp")
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_description("wifi-warp")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            scenario_trace("wifi-step", nonsense=1.0)

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("wifi-mcs-walk", {"rates": (1e8,)}, "wifi-mcs-walk needs at least two rate levels"),
            ("wifi-mcs-walk", {"dwell": 0.0}, "dwell must be finite and > 0 seconds, got 0.0"),
            # the check is all that keeps pre_rate / 0 from raising ZeroDivisionError
            ("ramp-contention", {"c_factor": 0.0}, "c_factor must be finite and > 1, got 0.0"),
        ],
    )
    def test_out_of_range_parameter_rejected(self, name, params, message):
        with pytest.raises(ValueError) as info:
            scenario_trace(name, **params)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_wifi_step_defaults(self):
        trace = scenario_trace("wifi-step")
        events = detect_events(trace)
        assert len(events) == 1
        assert events[0].c_factor == pytest.approx(144.4 / 14.4, rel=1e-12)
        assert events[0].ramp_duration == 0.0
        assert trace.horizon == 5.0

    def test_mcs_walk_counts_reductions(self):
        trace = scenario_trace("wifi-mcs-walk", rates=(866.7e6, 144.4e6, 14.4e6))
        events = detect_events(trace)
        assert len(events) == 2
        assert events[0].pre_rate == 866.7e6
        assert events[1].post_rate == 14.4e6

    def test_ramp_contention_degenerates_to_step_shape(self):
        ramp = scenario_trace("ramp-contention", c_factor=10.0, ramp_duration=0.0)
        events = detect_events(ramp)
        assert len(events) == 1
        assert events[0].ramp_duration == 0.0
        assert events[0].c_factor == pytest.approx(10.0, rel=1e-12)

    def test_ramp_contention_default_has_ramp(self):
        events = detect_events(scenario_trace("ramp-contention"))
        assert len(events) == 1
        assert events[0].ramp_duration == pytest.approx(0.5, rel=1e-12)

    def test_every_scenario_validates_and_advertises_events(self):
        expected_events = {"wifi-step": 1, "wifi-mcs-walk": 2, "ramp-contention": 1}
        for name, count in expected_events.items():
            trace = scenario_trace(name)
            assert trace.horizon > 0
            assert len(detect_events(trace)) == count
