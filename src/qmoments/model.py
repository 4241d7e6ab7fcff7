"""Declarative description of Poisson-driven queueing network models.

A :class:`NetworkModel` is a d-dimensional counting process: the state jumps
by an integer vector whenever one of k competing transitions fires, and each
transition fires at rate ``coefficient(t) * kernel(x)``.  The kernel taxonomy
is closed on purpose: every member is built from min/max/affine pieces, so
rates are Lipschitz in the state by construction and each kernel admits a
closed-form Gaussian expectation.

A model is checked once, where it is built: ``NetworkModel`` runs :func:`validate_model`,
so a model that exists can be saved, compiled and evaluated without another check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
        object.__setattr__(self, "jump", tuple(map(_as_int, self.jump)))


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network model; safe to share across workers."""

    dimension: int
    transitions: tuple[Transition, ...]
    initial_state: tuple[int, ...]
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "dimension", _as_int(self.dimension))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "initial_state", tuple(map(_as_int, self.initial_state)))
        object.__setattr__(self, "horizon", _real(self.horizon, "invalid model: horizon"))
        validate_model(self)

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
    code = _KERNEL_CODES[type(kernel)]
    threshold = getattr(kernel, "threshold", None)
    thr = 0.0 if threshold is None else threshold.value_at(t)
    moves = tuple((a, v) for a, v in enumerate(jump) if v)
    return (code, rate.coefficient.value_at(t), int(getattr(kernel, "index", 0)),
            int(getattr(kernel, "other", 0)), thr, getattr(kernel, "weights", None), jump, moves)


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


GRID_TOL = 1e-9  # times this close to a stop of plan_steps count as on it


def checked_grid(model: NetworkModel, grid=None) -> np.ndarray:
    """The sample times every method reports at: ``grid`` as a non-empty 1-D
    float array, finite, each time more than ``GRID_TOL`` after the one before
    (closer ones would share a plan stop) and inside
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


def plan_steps(model: NetworkModel, grid) -> tuple[np.ndarray, list[tuple]]:
    """The sample times (``grid`` through :func:`checked_grid`) and every step
    of a deterministic method up to the last of them, as ``(t0, t1, terms,
    sample)``.

    Sample times, schedule breakpoints and the horizon are hard stops; one
    within ``GRID_TOL`` of the stop before it is merged into it.  Each gap
    between two stops is one step.  ``terms`` is the step's segment of
    :func:`compile_segments`; segments whose terms are equal hand out one
    shared list, so an evaluator may cache its work by the list's identity.
    ``sample`` is the grid index reported at ``t1``, or -1; a leading step
    from 0 to 0 reports a sample at 0.
    """
    grid = checked_grid(model, grid)
    shared: dict = {}
    segments = [(a, shared.setdefault(tuple(terms), terms))
                for a, _, terms in compile_segments(model)]
    stops = [0.0]
    for a in sorted([*(a for a, _ in segments), float(model.horizon), *grid.tolist()]):
        if a - stops[-1] > GRID_TOL:
            stops.append(a)
    steps, gi, seg = [], 0, 0
    if grid[0] <= GRID_TOL:
        steps, gi = [(0.0, 0.0, segments[0][1], 0)], 1
    for a, b in zip(stops, stops[1:]):
        if gi == len(grid):
            return grid, steps
        while seg + 1 < len(segments) and segments[seg + 1][0] <= 0.5 * (a + b):
            seg += 1
        sample = gi if abs(b - grid[gi]) <= GRID_TOL else -1
        steps.append((a, b, segments[seg][1], sample))
        gi += sample >= 0
    if gi < len(grid):
        raise UsageError("sample grid could not be aligned with the plan")
    return grid, steps


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


def validate_model(model: NetworkModel) -> None:
    """Structural checks: whole numbers, schedule coverage, sign constraints, index
    ranges and kernel types.  Raises one :class:`UsageError` naming every issue."""
    d = model.dimension
    if type(d) is not int or d < 1:  # every other check reads it
        raise UsageError(f"invalid model: dimension must be an integer >= 1, got {d!r}")
    issues = [f"initial state entry {v!r} is not an integer" for v in model.initial_state
              if type(v) is not int]
    horizon_ok = math.isfinite(model.horizon) and model.horizon > 0
    if not horizon_ok:
        issues.append(f"horizon must be positive and finite, got {model.horizon}")
    if not model.transitions:
        issues.append("model needs at least one transition")
    if len(model.initial_state) != d:
        issues.append(f"initial state has length {len(model.initial_state)}, expected {d}")
    if any(v < 0 for v in model.initial_state if type(v) is int):
        issues.append("initial state must be nonnegative")

    for i, tr in enumerate(model.transitions):
        where = f"transition {i}"
        kernel = tr.rate.kernel
        if type(kernel) not in _KERNEL_CODES:
            issues.append(f"{where}: unknown kernel type {type(kernel).__name__}")
            continue
        if len(tr.jump) != d:
            issues.append(f"{where}: jump has length {len(tr.jump)}, expected {d}")
            continue
        issues += [f"{where}: jump entry {j!r} is not an integer" for j in tr.jump
                   if type(j) is not int]
        if all(j == 0 for j in tr.jump):
            issues.append(f"{where}: jump vector is zero")
        schedules = [("coefficient", tr.rate.coefficient)]
        if hasattr(kernel, "threshold"):
            schedules.append(("threshold", kernel.threshold))
        for name, s in schedules:
            if not isinstance(s, TimeSchedule):
                issues.append(f"{where}: {name} {s!r} is not a TimeSchedule")
                continue
            if s.min_value() < 0:
                issues.append(f"{where}: negative {name} value")
            if horizon_ok and not s.covers(model.horizon):
                issues.append(f"{where}: {name} schedule declared up to t={s.end}, "
                              f"model horizon is {model.horizon}")
        indices = [_as_int(getattr(kernel, n)) for n in _INDEX_FIELDS if hasattr(kernel, n)]
        for idx in indices:
            if type(idx) is not int:
                issues.append(f"{where}: kernel index {idx!r} is not an integer")
            elif not 0 <= idx < d:
                issues.append(f"{where}: kernel index {idx} out of range [0, {d})")
        if len(indices) == 2 and indices[0] == indices[1]:
            issues.append(f"{where}: kernel must reference two distinct components")
        weights = getattr(kernel, "weights", None)
        if weights is not None:
            if len(weights) != d:
                issues.append(f"{where}: linear kernel has {len(weights)} weights, expected {d}")
            elif not all(map(math.isfinite, weights)):
                issues.append(f"{where}: linear kernel weights must be finite")
            elif any(w < 0 for w in weights):
                issues.append(f"{where}: negative linear weight breaks rate nonnegativity")
    if issues:
        raise UsageError("invalid model: " + "; ".join(issues))


# --------------------------------------------------------------------------
# JSON serialization (schema documented in the README)


def _schedule_to_dict(s: TimeSchedule) -> dict:
    out = {"breakpoints": list(s.breakpoints), "values": list(s.values)}
    if s.end is not None:
        out["end"] = s.end
    return out


def _schedule_from_dict(d: dict, where: str) -> TimeSchedule:
    try:
        return TimeSchedule(
            tuple(_real(b, f"{where} breakpoints") for b in d["breakpoints"]),
            tuple(_real(v, f"{where} values") for v in d["values"]),
            end=None if d.get("end") is None else _real(d["end"], f"{where} end"),
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


def _as_int(value):
    """``value`` as an int if it is a whole number other than a boolean (``2``,
    ``2.0``, a numpy integer); anything else as it is, never truncated."""
    try:
        return int(value) if type(value) is not bool and int(value) == value else value
    except (TypeError, ValueError, OverflowError):
        return value


def _whole(value, where: str, low: float = -math.inf) -> int:
    """An integral number ``>= low`` as an int: ``2`` and ``2.0`` pass; ``2.5``,
    ``true`` and ``"2"`` raise instead of truncating."""
    if type(_as_int(value)) is not int:
        raise UsageError(f"{where}: {value!r} is not an integer")
    if value < low:
        raise UsageError(f"{where} must be >= {low}, got {value}")
    return int(value)


def _real(value, where: str) -> float:
    """A number as a float: ``2``, ``2.5`` and numpy numbers pass; ``true`` and
    ``"2"`` raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
        raise UsageError(f"{where}: {value!r} is not a number")
    return float(value)


def _kernel_from_dict(d: dict, where: str) -> Kernel:
    variant = d.get("variant")
    if variant not in _TAG_TO_KERNEL:
        raise UsageError(f"unknown kernel variant {variant!r}")
    kind, args = _TAG_TO_KERNEL[variant], []
    for f in fields(kind):
        if f.name in _INDEX_FIELDS:
            index = d.get("indices", [])[_INDEX_FIELDS.index(f.name)]
            args.append(_whole(index, f"{where} indices"))
        elif f.name == "threshold":
            args.append(_schedule_from_dict(d["threshold"], f"{where} threshold"))
        else:
            args.append(tuple(_real(w, f"{where} weights") for w in d["weights"]))
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
    """A model from its JSON document: "malformed model document" if it cannot
    be read, :func:`validate_model`'s "invalid model" if it reads but fails."""
    try:
        transitions = tuple(
            Transition(
                tuple(_whole(j, f"transition {i}: jump") for j in tr["jump"]),
                RateTerm(
                    _schedule_from_dict(tr["coefficient"], f"transition {i}: coefficient"),
                    _kernel_from_dict(tr["kernel"], f"transition {i}: kernel"),
                ),
            )
            for i, tr in enumerate(data["transitions"])
        )
        dimension = _whole(data["dimension"], "dimension")
        initial_state = tuple(_whole(v, "initial_state") for v in data["initial_state"])
        horizon = _real(data["horizon"], "horizon")
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed model document: {exc}") from exc
    return NetworkModel(dimension, transitions, initial_state, horizon)


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``.  A file that cannot be read, is
    not UTF-8 JSON or holds anything but an object raises :class:`UsageError`
    naming ``what`` and ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"malformed {what} {path}: not a JSON object")
    return data


def write_json(data: dict, path) -> None:
    """``data`` as indented JSON with sorted keys and a final newline.  A file
    that cannot be written raises :class:`UsageError` naming ``path``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_model(model: NetworkModel, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> NetworkModel:
    return model_from_dict(read_json(path, "model document"))
