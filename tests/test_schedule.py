import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmoments import TimeSchedule, UsageError


def test_alternating_switches_on_the_breakpoint():
    s = TimeSchedule((0.0, 2.0, 4.0), (45.0, 55.0, 45.0))
    assert s.value_at(2.0) == 55.0  # right-continuous


def test_constant_holds_forever():
    assert TimeSchedule.constant(50.0).value_at(17.0) == 50.0


def test_interval_membership():
    s = TimeSchedule((0.0, 2.0), (45.0, 55.0))
    assert s.value_at(1.999) == 45.0


def test_terminal_value_extends():
    s = TimeSchedule((0.0, 2.0), (1.0, 3.0))
    assert s.value_at(100.0) == 3.0


def test_negative_time_rejected():
    with pytest.raises(UsageError):
        TimeSchedule.constant(1.0).value_at(-0.1)


@pytest.mark.parametrize(
    "breakpoints, values",
    [
        ((1.0, 2.0), (1.0, 2.0)),  # does not start at 0
        ((0.0, 2.0, 2.0), (1.0, 2.0, 3.0)),  # not strictly increasing
        ((0.0, 1.0), (1.0,)),  # length mismatch
        ((), ()),  # empty
        ((0.0,), (float("nan"),)),  # non-finite value
    ],
)
def test_malformed_schedules_rejected(breakpoints, values):
    with pytest.raises(UsageError):
        TimeSchedule(breakpoints, values)


@pytest.mark.parametrize("end", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_end_rejected(end):
    with pytest.raises(UsageError, match="schedule end must be finite"):
        TimeSchedule((0.0,), (1.0,), end=end)


def test_alternating_builder_layout():
    s = TimeSchedule.alternating(45, 55, 2.0, 20.0)
    assert s.breakpoints == tuple(2.0 * k for k in range(10))
    assert s.values[:4] == (45.0, 55.0, 45.0, 55.0)
    assert s.end == 20.0
    assert s.covers(20.0) and not s.covers(20.5)


@pytest.mark.parametrize(
    "period, horizon, message",
    [(0.0, 20.0, "period"), (-1.0, 20.0, "period"), (2.0, 0.0, "horizon"), (2.0, -5.0, "horizon")],
)
def test_alternating_needs_positive_period_and_horizon(period, horizon, message):
    with pytest.raises(UsageError, match=f"alternation {message} must be positive"):
        TimeSchedule.alternating(45, 55, period, horizon)


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=9, max_size=9),
    st.floats(min_value=0, max_value=60),
)
def test_lookup_matches_linear_scan(gaps, values, t):
    """Bisection lookup agrees with a brute-force scan over the intervals."""
    breakpoints = [0.0]
    for g in gaps:
        breakpoints.append(breakpoints[-1] + g)
    values = values[: len(breakpoints)]
    s = TimeSchedule(tuple(breakpoints), tuple(values))
    expected = values[0]
    for b, v in zip(breakpoints, values):
        if t >= b:
            expected = v
    assert s.value_at(t) == expected
