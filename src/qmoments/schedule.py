"""Piecewise-constant functions of time.

Every time-varying parameter of a network model (arrival rates, service
rates, server counts, routing probabilities) is a :class:`TimeSchedule`.
Keeping parameters piecewise constant makes event-driven simulation exact
(rates are constant between events and breakpoints) and lets the ODE solvers
align integration steps with the breakpoints.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import UsageError


@dataclass(frozen=True)
class TimeSchedule:
    """Right-continuous step function of time.

    ``values[k]`` applies on ``[breakpoints[k], breakpoints[k+1])`` and the
    terminal value applies for all ``t >= breakpoints[-1]``.

    ``end`` optionally declares the time up to which the schedule was meant
    to be specified.  Evaluation past ``end`` still returns the terminal
    value, but model validation reports a coverage gap when ``end`` falls
    short of the model horizon (a held terminal value is usually a sign that
    the caller forgot to extend an alternating pattern).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    end: float | None = None

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "end", None if self.end is None else float(self.end))
        if not bp:
            raise UsageError("schedule needs at least one breakpoint")
        if bp[0] != 0.0:
            raise UsageError("schedule must start at time 0")
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise UsageError("schedule breakpoints must be strictly increasing")
        if len(vals) != len(bp):
            raise UsageError("schedule needs exactly one value per breakpoint")
        if not all(math.isfinite(v) for v in vals):
            raise UsageError("schedule values must be finite")
        if self.end is not None and not math.isfinite(self.end):
            raise UsageError(f"schedule end must be finite, got {self.end}")

    @classmethod
    def constant(cls, value: float) -> "TimeSchedule":
        return cls((0.0,), (float(value),))

    @classmethod
    def alternating(
        cls, first: float, second: float, period: float, horizon: float
    ) -> "TimeSchedule":
        """Alternate between two values every ``period`` time units.

        The pattern starts with ``first`` at time 0 and is spelled out up to
        ``horizon``, which is also recorded as the schedule's ``end``.
        """
        if period <= 0:
            raise UsageError("alternation period must be positive")
        if horizon <= 0:
            raise UsageError("alternation horizon must be positive")
        n = max(1, math.ceil(horizon / period - 1e-12))
        breakpoints = tuple(k * period for k in range(n))
        values = tuple(first if k % 2 == 0 else second for k in range(n))
        return cls(breakpoints, values, end=float(horizon))

    def value_at(self, t: float) -> float:
        """Value of the step function at time ``t`` (right-continuous)."""
        if t < 0:
            raise UsageError(f"schedule evaluated at negative time {t}")
        return self.values[bisect.bisect_right(self.breakpoints, t) - 1]

    def covers(self, horizon: float) -> bool:
        return self.end is None or self.end >= horizon

    def min_value(self) -> float:
        return min(self.values)


def merge_schedules(a: TimeSchedule, b: TimeSchedule, op) -> TimeSchedule:
    """Combine two schedules pointwise with ``op`` on the union of breakpoints."""
    breakpoints = sorted(set(a.breakpoints) | set(b.breakpoints))
    values = tuple(op(a.value_at(t), b.value_at(t)) for t in breakpoints)
    ends = [e for e in (a.end, b.end) if e is not None]
    return TimeSchedule(tuple(breakpoints), values, end=min(ends) if ends else None)
