"""Tests for telemetry gauges and counters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pspin.telemetry import Counter, DeltaGauge, GaugeSeries, Telemetry


def test_gauge_peak_and_mean():
    g = GaugeSeries("g")
    g.record(0.0, 10.0)
    g.record(5.0, 0.0)
    assert g.peak == 10.0
    assert g.mean(until=10.0) == pytest.approx(5.0)
    assert g.current == 0.0


def test_gauge_rejects_backwards_time():
    g = GaugeSeries("g")
    g.record(5.0, 1.0)
    with pytest.raises(ValueError):
        g.record(4.0, 2.0)


def test_delta_gauge_tolerates_out_of_order_events():
    g = DeltaGauge("wm")
    g.add(10.0, +100.0)   # allocation recorded late
    g.add(0.0, +50.0)
    g.add(5.0, -50.0)
    assert g.peak == 100.0
    assert g.current == 100.0
    # Profile: 50 for t in [0,5), 0 for [5,10) -> mean over 10 = 25.
    assert g.mean() == pytest.approx(25.0)


def test_delta_gauge_cache_invalidates_on_new_events():
    g = DeltaGauge("wm")
    g.add(0.0, 10.0)
    assert g.peak == 10.0
    g.add(1.0, 20.0)
    assert g.peak == 30.0


def _loop_profile(events):
    """Reference: the sequential walk over stably time-sorted events."""
    value = peak = weighted = last_t = 0.0
    for t, d in sorted(events, key=lambda e: e[0]):
        weighted += value * (t - last_t)
        last_t = t
        value += d
        peak = max(peak, value)
    return peak, (weighted / last_t if last_t > 0 else 0.0), value


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.one_of(
                st.integers(0, 50).map(float),
                st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            ),
            st.one_of(
                st.integers(-4096, 4096),
                st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False),
            ),
        ),
        max_size=60,
    )
)
def test_property_delta_gauge_matches_sequential_walk(events):
    """The vectorized profile is bitwise the sequential walk: peak, time-
    weighted mean and final value, ties in time kept in call order."""
    g = DeltaGauge("wm")
    for t, d in events:
        g.add(t, d)
    assert (g.peak, g.mean(), g.current) == _loop_profile(events)


def test_counter_add():
    c = Counter()
    c.add(2)
    c.add(3.5)
    assert c.value == 5.5


def test_utilization_and_goodput():
    t = Telemetry()
    t.busy_cycles.add(500.0)
    t.bytes_in.add(1024)
    assert t.utilization(n_cores=10, makespan_cycles=100.0) == pytest.approx(0.5)
    # 1 KiB over 1024 cycles at 1 GHz = 1 B/ns = 8 Gb/s = 0.008 Tbps.
    assert t.achieved_tbps(1024.0) == pytest.approx(0.008)
    assert t.achieved_tbps(0.0) == 0.0
