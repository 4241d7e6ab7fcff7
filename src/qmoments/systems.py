"""Builders for the reference queueing systems and experiment presets.

Three systems are provided:

* retrial     multiserver queue with abandonment; abandoning customers leave
              or join an infinite-server retrial pool that feeds back.
* priority    two preemptive classes sharing one server pool; class 2 only
              sees capacity left over by class 1.
* peer        served customers turn into servers; servers cycle between
              active and inactive or leave.

Abandonment splitting is encoded as two independent transitions with
coefficients ``beta * (1 - p)`` and ``beta * p`` rather than one transition
with a routing coin, which keeps every rate a plain product of a schedule
and a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    NetworkModel,
    PositivePart,
    RateTerm,
    Transition,
)
from .schedule import TimeSchedule, merge_schedules


@dataclass(frozen=True)
class RetrialParams:
    """Multiserver queue with abandonment and retrials.

    State: (customers at the service node, customers in the retrial pool).
    ``leave_prob`` is the probability that an abandoning customer leaves for
    good; otherwise it joins the retrial pool and returns at rate
    ``retrial_rate``.
    """

    servers: TimeSchedule
    arrival: TimeSchedule
    service: TimeSchedule
    retrial_rate: TimeSchedule
    abandon: TimeSchedule
    leave_prob: TimeSchedule
    initial_state: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class PriorityParams:
    """Two customer classes, preemptive priority, shared server pool."""

    servers: TimeSchedule
    arrival_1: TimeSchedule
    arrival_2: TimeSchedule
    service_1: TimeSchedule
    service_2: TimeSchedule
    initial_state: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class PeerParams:
    """Peer network: served customers become servers.

    State: (customers, active servers, inactive servers).  Active servers
    retire at rate ``retire``, then rejoin with probability ``stay_prob``
    (after an inactive period at rate ``reactivate``) or leave the system.
    """

    arrival: TimeSchedule
    service: TimeSchedule
    retire: TimeSchedule
    reactivate: TimeSchedule
    stay_prob: TimeSchedule
    initial_state: tuple[int, int, int] = (0, 0, 0)


def _check_probability(name: str, s: TimeSchedule) -> None:
    # the model check cannot see this: at a zero rate, p = 1.5 makes a -0.0 coefficient
    if s.min_value() < 0 or max(s.values) > 1:
        raise UsageError(f"{name} must take values in [0, 1]")


def build_retrial(params: RetrialParams, horizon: float) -> NetworkModel:
    """d=2, k=5: arrivals, retrial returns, service, abandon-to-pool, abandon-and-leave."""
    _check_probability("leave_prob", params.leave_prob)
    to_pool = merge_schedules(
        params.abandon, params.leave_prob, lambda b, p: b * (1.0 - p)
    )
    to_exit = merge_schedules(params.abandon, params.leave_prob, lambda b, p: b * p)
    transitions = (
        Transition((1, 0), RateTerm(params.arrival, Constant())),
        Transition((1, -1), RateTerm(params.retrial_rate, Linear((0.0, 1.0)))),
        Transition((-1, 0), RateTerm(params.service, MinThreshold(0, params.servers))),
        Transition((-1, 1), RateTerm(to_pool, PositivePart(0, params.servers))),
        Transition((-1, 0), RateTerm(to_exit, PositivePart(0, params.servers))),
    )
    return NetworkModel(2, transitions, params.initial_state, float(horizon))


def build_priority(params: PriorityParams, horizon: float) -> NetworkModel:
    """d=2, k=4; class 2 service is capped by the capacity class 1 leaves free."""
    transitions = (
        Transition((1, 0), RateTerm(params.arrival_1, Constant())),
        Transition((0, 1), RateTerm(params.arrival_2, Constant())),
        Transition((-1, 0), RateTerm(params.service_1, MinThreshold(0, params.servers))),
        Transition((0, -1), RateTerm(params.service_2, CappedResidual(1, 0, params.servers))),
    )
    return NetworkModel(2, transitions, params.initial_state, float(horizon))


def build_peer(params: PeerParams, horizon: float) -> NetworkModel:
    """d=3, k=5; service moves a customer out and mints an active server."""
    _check_probability("stay_prob", params.stay_prob)
    go_inactive = merge_schedules(params.retire, params.stay_prob, lambda t, p: t * p)
    go_away = merge_schedules(
        params.retire, params.stay_prob, lambda t, p: t * (1.0 - p)
    )
    transitions = (
        Transition((1, 0, 0), RateTerm(params.arrival, Constant())),
        Transition((-1, 1, 0), RateTerm(params.service, MinPair(0, 1))),
        Transition((0, -1, 1), RateTerm(go_inactive, Linear((0.0, 1.0, 0.0)))),
        Transition((0, -1, 0), RateTerm(go_away, Linear((0.0, 1.0, 0.0)))),
        Transition((0, 1, -1), RateTerm(params.reactivate, Linear((0.0, 0.0, 1.0)))),
    )
    return NetworkModel(3, transitions, params.initial_state, float(horizon))


# --------------------------------------------------------------------------
# Retrial experiment presets.
#
# Columns: servers, low arrival rate, high arrival rate, service rate,
# retrial return rate, abandonment rate, leave probability, alternation
# period, horizon.  The arrival rate starts on the low value at t=0 and the
# initial state is empty; reported grids start at t=6, past the initial
# transient, so neither choice affects the comparisons.

_RETRIAL_PRESETS: dict[int, tuple] = {
    1: (50, 40, 80, 1.0, 0.2, 2.0, 0.5, 2.0, 20.0),
    2: (50, 40, 60, 1.0, 0.2, 2.0, 0.5, 2.0, 20.0),
    3: (100, 80, 120, 1.0, 0.2, 2.0, 0.7, 2.0, 20.0),
    4: (100, 90, 110, 1.0, 0.2, 2.0, 0.7, 2.0, 20.0),
    5: (50, 40, 80, 1.0, 0.2, 1.5, 0.7, 2.0, 20.0),
    6: (50, 40, 60, 1.0, 0.2, 1.5, 0.7, 2.0, 20.0),
    7: (50, 45, 55, 1.0, 0.2, 2.0, 0.5, 2.0, 20.0),
    8: (100, 95, 105, 1.0, 0.2, 2.0, 0.5, 2.0, 20.0),
    9: (150, 140, 160, 1.0, 0.2, 2.0, 0.5, 2.0, 20.0),
    10: (150, 100, 190, 1.0, 0.2, 2.0, 0.5, 2.0, 20.0),
}


def retrial_preset(preset_id: int) -> tuple[RetrialParams, float, np.ndarray]:
    """Parameters, horizon and reporting grid for one numbered experiment."""
    if preset_id not in _RETRIAL_PRESETS:
        raise UsageError(
            f"preset id must be in 1..{len(_RETRIAL_PRESETS)}, got {preset_id}"
        )
    servers, lam_lo, lam_hi, mu1, mu2, beta, p, alter, horizon = _RETRIAL_PRESETS[
        preset_id
    ]
    params = RetrialParams(
        servers=TimeSchedule.constant(servers),
        arrival=TimeSchedule.alternating(lam_lo, lam_hi, alter, horizon),
        service=TimeSchedule.constant(mu1),
        retrial_rate=TimeSchedule.constant(mu2),
        abandon=TimeSchedule.constant(beta),
        leave_prob=TimeSchedule.constant(p),
    )
    return params, horizon, np.arange(6.0, 16.0)


def reference_priority_params() -> tuple[PriorityParams, float]:
    """Two-class workload with the pool critically loaded by class 1 peaks."""
    horizon = 20.0
    params = PriorityParams(
        servers=TimeSchedule.constant(200),
        arrival_1=TimeSchedule.alternating(120, 200, 2.0, horizon),
        arrival_2=TimeSchedule.constant(20),
        service_1=TimeSchedule.constant(1.0),
        service_2=TimeSchedule.constant(1.0),
    )
    return params, horizon


def reference_peer_params() -> tuple[PeerParams, float]:
    """Bootstrap regime: ten initial servers facing a heavy arrival stream."""
    horizon = 8.0
    params = PeerParams(
        arrival=TimeSchedule.constant(400),
        service=TimeSchedule.constant(2.0),
        retire=TimeSchedule.constant(0.3),
        reactivate=TimeSchedule.constant(0.5),
        stay_prob=TimeSchedule.constant(0.9),
        initial_state=(0, 10, 0),
    )
    return params, horizon
