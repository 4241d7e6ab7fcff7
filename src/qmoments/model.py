"""Declarative description of Poisson-driven queueing network models.

A :class:`NetworkModel` is a d-dimensional counting process: the state jumps
by an integer vector whenever one of k competing transitions fires, and each
transition fires at rate ``coefficient(t) * kernel(x)``.  The kernel taxonomy
is closed on purpose: every member is built from min/max/affine pieces, so
rates are Lipschitz in the state by construction and each kernel admits
either a closed-form Gaussian expectation or a quadrature fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import UsageError
from .schedule import TimeSchedule


# --------------------------------------------------------------------------
# Kernel taxonomy


@dataclass(frozen=True)
class Constant:
    """Kernel identically 1; the whole rate sits in the coefficient."""


@dataclass(frozen=True)
class Linear:
    """Weighted sum of state components: ``w . x``."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


@dataclass(frozen=True)
class MinThreshold:
    """``min(x[index], n(t))`` with a scheduled threshold, e.g. busy servers."""

    index: int
    threshold: TimeSchedule


@dataclass(frozen=True)
class PositivePart:
    """``max(x[index] - n(t), 0)``, e.g. customers waiting beyond capacity."""

    index: int
    threshold: TimeSchedule


@dataclass(frozen=True)
class MinPair:
    """``min(x[index], x[other])``, e.g. jobs matched to available servers."""

    index: int
    other: int


@dataclass(frozen=True)
class CappedResidual:
    """``min(x[index], max(n(t) - x[other], 0))``: service limited to capacity
    left over by a higher-priority component."""

    index: int
    other: int
    threshold: TimeSchedule


Kernel = Union[Constant, Linear, MinThreshold, PositivePart, MinPair, CappedResidual]

KERNEL_TAGS: dict[type, str] = {
    Constant: "constant",
    Linear: "linear",
    MinThreshold: "min_threshold",
    PositivePart: "positive_part",
    MinPair: "min_pair",
    CappedResidual: "capped_residual",
}
_TAG_TO_KERNEL = {v: k for k, v in KERNEL_TAGS.items()}

# compiled kernel codes, numbered in KERNEL_TAGS order
CONST, LINEAR, MIN_THRESHOLD, POSITIVE_PART, MIN_PAIR, CAPPED = range(6)
_KERNEL_CODES = {kind: code for code, kind in enumerate(KERNEL_TAGS)}


def kernel_value(kernel: Kernel, t: float, x) -> float:
    """Pointwise kernel evaluation at a real-valued state.

    States are allowed to be real (not just integer) so that the same
    evaluator serves the stochastic simulator and the deterministic solvers.
    """
    if isinstance(kernel, Constant):
        return 1.0
    if isinstance(kernel, Linear):
        return float(sum(w * float(x[i]) for i, w in enumerate(kernel.weights)))
    if isinstance(kernel, MinThreshold):
        return min(float(x[kernel.index]), kernel.threshold.value_at(t))
    if isinstance(kernel, PositivePart):
        return max(float(x[kernel.index]) - kernel.threshold.value_at(t), 0.0)
    if isinstance(kernel, MinPair):
        return min(float(x[kernel.index]), float(x[kernel.other]))
    if isinstance(kernel, CappedResidual):
        residual = max(kernel.threshold.value_at(t) - float(x[kernel.other]), 0.0)
        return min(float(x[kernel.index]), residual)
    raise UsageError(f"unknown kernel type {type(kernel).__name__}")


# --------------------------------------------------------------------------
# Transitions and the network model


@dataclass(frozen=True)
class RateTerm:
    """One transition rate ``coefficient(t) * kernel(x)``.

    Composite coefficients such as ``beta * (1 - p)`` are pre-assembled into a
    single schedule by the model builders; the kernel taxonomy stays minimal.
    """

    coefficient: TimeSchedule
    kernel: Kernel


@dataclass(frozen=True)
class Transition:
    jump: tuple[int, ...]
    rate: RateTerm

    def __post_init__(self):
        object.__setattr__(self, "jump", tuple(int(j) for j in self.jump))


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network model; safe to share across workers."""

    dimension: int
    transitions: tuple[Transition, ...]
    initial_state: tuple[int, ...]
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(
            self, "initial_state", tuple(int(v) for v in self.initial_state)
        )
        if not math.isfinite(self.horizon):
            raise UsageError(f"model horizon must be finite, got {self.horizon}")

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)


def eval_rate(model: NetworkModel, i: int, t: float, x) -> float:
    """Rate of transition ``i`` at time ``t`` and state ``x``."""
    if not 0 <= i < model.num_transitions:
        raise UsageError(
            f"transition index {i} out of range [0, {model.num_transitions})"
        )
    term = model.transitions[i].rate
    return term.coefficient.value_at(t) * kernel_value(term.kernel, t, x)


def compile_term(rate: RateTerm, jump: tuple[int, ...], t: float) -> tuple:
    """One rate frozen at time ``t`` into plain values,
    ``(code, coeff, index, other, threshold, weights, jump)``; fields a kernel
    does not have read 0, 0.0 or None.  Every evaluator but the type-dispatched
    references looks its schedules up here."""
    kernel = rate.kernel
    code = _KERNEL_CODES.get(type(kernel))
    if code is None:
        raise UsageError(f"unknown kernel type {type(kernel).__name__}")
    threshold = getattr(kernel, "threshold", None)
    thr = 0.0 if threshold is None else threshold.value_at(t)
    return (code, rate.coefficient.value_at(t), getattr(kernel, "index", 0),
            getattr(kernel, "other", 0), thr, getattr(kernel, "weights", None), jump)


def compile_terms(model: NetworkModel, t: float) -> list[tuple]:
    """Every transition of the model compiled at time ``t``, in model order."""
    return [compile_term(tr.rate, tr.jump, t) for tr in model.transitions]


def compile_segments(model: NetworkModel) -> list[tuple]:
    """The model's plan: ``(start, end, terms)`` per schedule segment, with the
    terms frozen at ``start``; no schedule changes inside a segment."""
    bounds = [0.0] + model_breakpoints(model) + [float(model.horizon)]
    return [(a, b, compile_terms(model, a)) for a, b in zip(bounds[:-1], bounds[1:])]


def model_breakpoints(model: NetworkModel) -> list[float]:
    """Sorted union of all schedule breakpoints within [0, horizon)."""
    points: set[float] = set()
    for tr in model.transitions:
        points.update(tr.rate.coefficient.breakpoints)
        threshold = getattr(tr.rate.kernel, "threshold", None)
        if threshold is not None:
            points.update(threshold.breakpoints)
    return sorted(p for p in points if 0.0 < p < model.horizon)


# --------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    """Outcome of structural model checks; only :meth:`raise_if_invalid` raises."""

    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_invalid(self) -> None:
        """Raise one :class:`UsageError` naming every issue, if there are any."""
        if self.issues:
            raise UsageError("invalid model: " + "; ".join(self.issues))


def validate_model(model: NetworkModel) -> ValidationReport:
    """Structural checks: schedule coverage, sign constraints, index ranges."""
    report = ValidationReport()
    d = model.dimension
    if d < 1:
        report.issues.append(f"dimension must be >= 1, got {d}")
    if model.horizon <= 0:
        report.issues.append(f"horizon must be positive, got {model.horizon}")
    if not model.transitions:
        report.issues.append("model needs at least one transition")
    if len(model.initial_state) != d:
        report.issues.append(
            f"initial state has length {len(model.initial_state)}, expected {d}"
        )
    if any(v < 0 for v in model.initial_state):
        report.issues.append("initial state must be nonnegative")

    for i, tr in enumerate(model.transitions):
        where = f"transition {i}"
        if len(tr.jump) != d:
            report.issues.append(f"{where}: jump has length {len(tr.jump)}, expected {d}")
            continue
        if all(j == 0 for j in tr.jump):
            report.issues.append(f"{where}: jump vector is zero")
        coeff = tr.rate.coefficient
        if coeff.min_value() < 0:
            report.issues.append(f"{where}: negative coefficient value")
        if not coeff.covers(model.horizon):
            report.issues.append(
                f"{where}: coefficient schedule declared up to t={coeff.end}, "
                f"model horizon is {model.horizon}"
            )
        kernel = tr.rate.kernel
        indices = [getattr(kernel, name) for name in ("index", "other") if hasattr(kernel, name)]
        for idx in indices:
            if not 0 <= idx < d:
                report.issues.append(f"{where}: kernel index {idx} out of range [0, {d})")
        if len(indices) == 2 and indices[0] == indices[1]:
            report.issues.append(f"{where}: kernel must reference two distinct components")
        if isinstance(kernel, Linear):
            if len(kernel.weights) != d:
                report.issues.append(
                    f"{where}: linear kernel has {len(kernel.weights)} weights, expected {d}"
                )
            elif any(not np.isfinite(w) for w in kernel.weights):
                report.issues.append(f"{where}: linear kernel weights must be finite")
            elif any(w < 0 for w in kernel.weights):
                report.issues.append(
                    f"{where}: negative linear weight breaks rate nonnegativity"
                )
        threshold = getattr(kernel, "threshold", None)
        if threshold is not None:
            if threshold.min_value() < 0:
                report.issues.append(f"{where}: negative threshold value")
            if not threshold.covers(model.horizon):
                report.issues.append(
                    f"{where}: threshold schedule declared up to t={threshold.end}, "
                    f"model horizon is {model.horizon}"
                )
    return report


# --------------------------------------------------------------------------
# JSON serialization (schema documented in the README)


def _schedule_to_dict(s: TimeSchedule) -> dict:
    out = {"breakpoints": list(s.breakpoints), "values": list(s.values)}
    if s.end is not None:
        out["end"] = s.end
    return out


def _schedule_from_dict(d: dict) -> TimeSchedule:
    try:
        return TimeSchedule(
            tuple(d["breakpoints"]), tuple(d["values"]), end=d.get("end")
        )
    except KeyError as exc:
        raise UsageError(f"schedule object missing key {exc}") from exc


def _kernel_to_dict(kernel: Kernel) -> dict:
    out: dict = {"variant": KERNEL_TAGS[type(kernel)]}
    if isinstance(kernel, Linear):
        out["weights"] = list(kernel.weights)
    elif isinstance(kernel, (MinThreshold, PositivePart)):
        out["indices"] = [kernel.index]
        out["threshold"] = _schedule_to_dict(kernel.threshold)
    elif isinstance(kernel, MinPair):
        out["indices"] = [kernel.index, kernel.other]
    elif isinstance(kernel, CappedResidual):
        out["indices"] = [kernel.index, kernel.other]
        out["threshold"] = _schedule_to_dict(kernel.threshold)
    return out


def _kernel_from_dict(d: dict) -> Kernel:
    variant = d.get("variant")
    if variant not in _TAG_TO_KERNEL:
        raise UsageError(f"unknown kernel variant {variant!r}")
    indices = d.get("indices", [])
    if variant == "constant":
        return Constant()
    if variant == "linear":
        if "weights" not in d:
            raise UsageError("linear kernel requires a 'weights' list")
        return Linear(tuple(d["weights"]))
    if variant == "min_threshold":
        return MinThreshold(int(indices[0]), _schedule_from_dict(d["threshold"]))
    if variant == "positive_part":
        return PositivePart(int(indices[0]), _schedule_from_dict(d["threshold"]))
    if variant == "min_pair":
        return MinPair(int(indices[0]), int(indices[1]))
    return CappedResidual(
        int(indices[0]), int(indices[1]), _schedule_from_dict(d["threshold"])
    )


def model_to_dict(model: NetworkModel) -> dict:
    return {
        "dimension": model.dimension,
        "horizon": model.horizon,
        "initial_state": list(model.initial_state),
        "transitions": [
            {
                "jump": list(tr.jump),
                "coefficient": _schedule_to_dict(tr.rate.coefficient),
                "kernel": _kernel_to_dict(tr.rate.kernel),
            }
            for tr in model.transitions
        ],
    }


def model_from_dict(data: dict) -> NetworkModel:
    try:
        transitions = tuple(
            Transition(
                tuple(tr["jump"]),
                RateTerm(
                    _schedule_from_dict(tr["coefficient"]),
                    _kernel_from_dict(tr["kernel"]),
                ),
            )
            for tr in data["transitions"]
        )
        return NetworkModel(
            dimension=int(data["dimension"]),
            transitions=transitions,
            initial_state=tuple(data["initial_state"]),
            horizon=float(data["horizon"]),
        )
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed model document: {exc}") from exc


def save_model(model: NetworkModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> NetworkModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
