"""Declarative description of Poisson-driven queueing network models.

A :class:`NetworkModel` is a d-dimensional counting process: the state jumps
by an integer vector whenever one of k competing transitions fires, and each
transition fires at rate ``coefficient(t) * kernel(x)``.  The kernel taxonomy
is closed on purpose: every member is built from min/max/affine pieces, so
rates are Lipschitz in the state by construction and each kernel admits a
closed-form Gaussian expectation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
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
_INDEX_FIELDS = ("index", "other")  # state components a kernel reads; saved as "indices"

# compiled kernel codes, numbered in KERNEL_TAGS order
CONST, LINEAR, MIN_THRESHOLD, POSITIVE_PART, MIN_PAIR, CAPPED = range(6)
_KERNEL_CODES = {kind: code for code, kind in enumerate(KERNEL_TAGS)}


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


def compile_term(rate: RateTerm, jump: tuple[int, ...], t: float) -> tuple:
    """One rate frozen at time ``t`` into plain values,
    ``(code, coeff, index, other, threshold, weights, jump, moves)``; fields a
    kernel does not have read 0, 0.0 or None, and ``moves`` holds
    ``(a, jump[a])`` for each nonzero jump entry.  Every evaluator in the
    package looks its schedules up here."""
    kernel = rate.kernel
    code = _KERNEL_CODES.get(type(kernel))
    if code is None:
        raise UsageError(f"unknown kernel type {type(kernel).__name__}")
    threshold = getattr(kernel, "threshold", None)
    thr = 0.0 if threshold is None else threshold.value_at(t)
    moves = tuple((a, v) for a, v in enumerate(jump) if v)
    return (code, rate.coefficient.value_at(t), getattr(kernel, "index", 0),
            getattr(kernel, "other", 0), thr, getattr(kernel, "weights", None), jump, moves)


def kernel_values(term: tuple, thr, x: np.ndarray, out: np.ndarray) -> None:
    """Kernel of one compiled term at every column of ``x``, written to ``out``:
    the array kernel that the simulator and the lattice oracle both evaluate.

    ``x`` is a (d, N) array of paths or lattice points and ``thr`` is a scalar
    or a per-column array of thresholds.  Linear weights are summed in order
    with zeros skipped.  The caller scales by the coefficient; schedules are
    finite, so ``coeff * 0.0`` is the zero rate of a positive part below its
    threshold.
    """
    code, _, j, k, _, weights, _, _ = term
    if code == CONST:
        out.fill(1.0)
    elif code == LINEAR:
        out.fill(0.0)
        for i, w in enumerate(weights):
            if w:
                out += w * x[i]
    elif code == MIN_THRESHOLD:
        np.minimum(x[j], thr, out=out)
    elif code == POSITIVE_PART:
        np.maximum(np.subtract(x[j], thr, out=out), 0.0, out=out)
    elif code == MIN_PAIR:
        np.minimum(x[j], x[k], out=out)
    else:
        np.minimum(x[j], np.maximum(thr - x[k], 0.0), out=out)


def compile_terms(model: NetworkModel, t: float) -> list[tuple]:
    """Every transition of the model compiled at time ``t``, in model order."""
    return [compile_term(tr.rate, tr.jump, t) for tr in model.transitions]


def compile_segments(model: NetworkModel) -> list[tuple]:
    """The model's plan: ``(start, end, terms)`` per schedule segment, with the
    terms frozen at ``start``; no schedule changes inside a segment."""
    bounds = [0.0] + model_breakpoints(model) + [float(model.horizon)]
    return [(a, b, compile_terms(model, a)) for a, b in zip(bounds[:-1], bounds[1:])]


GRID_TOL = 1e-9  # times this close to the horizon or a solver mesh node count as on it


def checked_grid(model: NetworkModel, grid=None) -> np.ndarray:
    """The sample times every method reports at: ``grid`` as a non-empty 1-D
    float array, finite, each time more than ``GRID_TOL`` after the one before
    (closer ones would share a mesh node) and inside
    ``[0, horizon + GRID_TOL]``.  ``None`` means every whole time unit."""
    if grid is None:
        return np.arange(0.0, model.horizon + GRID_TOL, 1.0)
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or not times.size:
        raise UsageError("sample grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= GRID_TOL):
        raise UsageError(f"sample grid must be finite and increase by more than {GRID_TOL:g}")
    if times[0] < 0 or times[-1] > model.horizon + GRID_TOL:
        raise UsageError(
            f"sample grid [{times[0]}, {times[-1]}] outside model horizon [0, {model.horizon}]"
        )
    return times


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
        indices = [getattr(kernel, name) for name in _INDEX_FIELDS if hasattr(kernel, name)]
        for idx in indices:
            if not 0 <= idx < d:
                report.issues.append(f"{where}: kernel index {idx} out of range [0, {d})")
        if len(indices) == 2 and indices[0] == indices[1]:
            report.issues.append(f"{where}: kernel must reference two distinct components")
        weights = getattr(kernel, "weights", None)
        if weights is not None:
            if len(weights) != d:
                report.issues.append(
                    f"{where}: linear kernel has {len(weights)} weights, expected {d}"
                )
            elif any(not np.isfinite(w) for w in weights):
                report.issues.append(f"{where}: linear kernel weights must be finite")
            elif any(w < 0 for w in weights):
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
    """Index fields go to ``indices`` in declaration order; ``threshold`` and
    ``weights`` keep their own keys."""
    out: dict = {"variant": KERNEL_TAGS[type(kernel)]}
    for f in fields(kernel):
        value = getattr(kernel, f.name)
        if f.name in _INDEX_FIELDS:
            out.setdefault("indices", []).append(value)
        elif f.name == "threshold":
            out["threshold"] = _schedule_to_dict(value)
        else:
            out["weights"] = list(value)
    return out


def _whole(value, where: str) -> int:
    """An integral number as an int: ``2`` and ``2.0`` pass; ``2.5``, ``true``
    and ``"2"`` raise instead of truncating."""
    if value is True or value is False or int(value) != value:
        raise UsageError(f"{where}: {value!r} is not an integer")
    return int(value)


def _kernel_from_dict(d: dict, where: str) -> Kernel:
    variant = d.get("variant")
    if variant not in _TAG_TO_KERNEL:
        raise UsageError(f"unknown kernel variant {variant!r}")
    kind, args = _TAG_TO_KERNEL[variant], []
    for f in fields(kind):
        if f.name in _INDEX_FIELDS:
            args.append(_whole(d.get("indices", [])[_INDEX_FIELDS.index(f.name)], where))
        elif f.name == "threshold":
            args.append(_schedule_from_dict(d["threshold"]))
        else:
            args.append(tuple(d["weights"]))
    return kind(*args)


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
                tuple(_whole(j, f"transition {i}: jump") for j in tr["jump"]),
                RateTerm(
                    _schedule_from_dict(tr["coefficient"]),
                    _kernel_from_dict(tr["kernel"], f"transition {i}: kernel indices"),
                ),
            )
            for i, tr in enumerate(data["transitions"])
        )
        return NetworkModel(
            dimension=_whole(data["dimension"], "dimension"),
            transitions=transitions,
            initial_state=tuple(_whole(v, "initial_state") for v in data["initial_state"]),
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
