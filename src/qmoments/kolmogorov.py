"""Exact transient moments on a truncated state lattice.

For small models the forward equations ``p' = p Q(t)`` are solved directly on
the box ``{0..cap_0} x ... x {0..cap_{d-1}}``.  Jumps that would leave the box
are disabled (reflecting truncation), which conserves probability mass and
keeps the moment oracle well defined; choose caps so the boundary occupancy
is negligible.  The solve walks :func:`~qmoments.model.plan_steps`, one
interval from stop to stop (sample times and breakpoints), each with its
segment's compiled terms.  The generator is constant on a segment and is
built once per distinct list of terms, which segments with equal terms share:
a schedule that alternates between two values costs two generators however
many periods the horizon holds.  Each transition fills one rate vector over
the whole lattice through the array
kernel the simulator also runs (:func:`~qmoments.model.kernel_values`), so
this module holds no kernel rule of its own.  An interval is advanced by
uniformization: ``exp(dt Q') p = sum_k w_k P^k p`` with ``P = I + Q'/rate``,
``rate`` the largest outflow and ``w`` the Poisson(rate dt) pmf, a sum of
nonnegative terms.  ``w`` comes from the ratio recurrence outward from the
mode (Fox & Glynn 1988), each tail cut where its geometric bound drops below
``_TAIL / 4`` of the kept sum, then normalised; per interval the L1 error is
thus at most ``_TAIL`` (1e-16) plus about one machine epsilon per product
with ``P``.  Nothing is estimated or random, so repeated solves in one
environment are bitwise equal.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import dia_matrix

from .errors import NumericalError, UsageError
from .model import NetworkModel, _whole, kernel_values, plan_steps
from .model import validate_model  # noqa: F401  uncalled; perfbench/spans.py rebinds it
from .results import MomentTrajectory

STATE_LIMIT = 2_000_000
_MASS_TOL = 1e-8
_TAIL = 1e-16


def _generator_transpose(terms, coords, strides, caps):
    """Sparse Q' on the truncated lattice for one segment's compiled ``terms``
    (outward jumps disabled), in DIA format.  Each transition's rates are the
    shared array kernel (:func:`~qmoments.model.kernel_values`) on the (d, S)
    lattice, scaled by the coefficient.  A transition with jump ``j`` moves
    state ``s`` to ``s + j @ strides``, so its flows fill the diagonal at offset
    ``-(j @ strides)``.  Offsets ascend, so a product sums each row in
    ascending column order; transitions sharing a jump add up in model order."""
    size = coords.shape[0]
    diagonals = {0: np.zeros(size)}
    rate = np.empty(size)
    for term in terms:
        kernel_values(term, term[4], coords.T, rate)
        rate *= term[1]
        target = coords + np.asarray(term[6])
        inside = np.all((target >= 0) & (target <= caps), axis=1)
        flow = np.where(inside & (rate > 0.0), rate, 0.0)
        offset = -int(np.asarray(term[6]) @ strides)
        if offset in diagonals:
            diagonals[offset] += flow
        else:
            diagonals[offset] = flow
        diagonals[0] -= flow  # outflow
    offsets = sorted(diagonals)
    data = np.array([diagonals[o] for o in offsets])
    return dia_matrix((data, offsets), shape=(size, size))


def expm_multiply(step, rate: float, dt: float, p: np.ndarray) -> np.ndarray:
    """``exp(dt Q') p`` by uniformization, where ``step = I + Q'/rate``."""
    mean = rate * dt
    w, kept, lo = [1.0], 1.0, int(mean)
    while lo > 0 and (lo >= mean or w[0] * lo > 0.25 * _TAIL * (mean - lo) * kept):
        w.insert(0, w[0] * lo / mean)
        kept += w[0]
        lo -= 1
    while w[-1] * mean > 0.25 * _TAIL * (lo + len(w) - mean) * kept:
        w.append(w[-1] * mean / (lo + len(w)))
        kept += w[-1]
    for _ in range(lo):
        p = step @ p
    out = (w[0] / kept) * p
    for wk in w[1:]:
        p = step @ p
        out += (wk / kept) * p
    return out


def checked_caps(model: NetworkModel, caps) -> np.ndarray:
    """``caps`` as an integer array: one whole cap per state dimension, for a
    box of at most :data:`STATE_LIMIT` states that holds the initial state."""
    caps = np.asarray([_whole(c, "caps", 0) for c in caps])
    if caps.shape != (model.dimension,):
        raise UsageError(f"caps: need one per state dimension, got {len(caps)}")
    size = int(np.prod(caps.astype(object) + 1))  # in Python ints, which cannot wrap
    if size > STATE_LIMIT:
        raise UsageError(
            f"truncated state space has {size} states, limit is {STATE_LIMIT}"
        )
    if np.any(caps < model.initial_state):
        box = tuple(caps.tolist())
        raise UsageError(f"initial state {model.initial_state} outside caps {box}")
    return caps


def state_distributions(model: NetworkModel, caps, grid):
    """State-probability vectors at the grid times.

    Returns ``(times, coords, probs)`` where ``coords`` is the (S, d) integer
    lattice and ``probs`` is (len(grid), S).
    """
    caps = checked_caps(model, caps)
    shape = caps + 1
    size = int(np.prod(shape))
    times, steps = plan_steps(model, grid)

    coords = np.indices(shape).reshape(model.dimension, size).T
    strides = np.array(
        [int(np.prod(shape[i + 1 :])) for i in range(model.dimension)]
    )
    p = np.zeros(size)
    p[int(strides @ model.initial_state)] = 1.0

    probs = np.empty((len(times), size))
    uniformized: dict = {}  # (P, rate) by the identity of a segment's terms
    for t0, t1, terms, gi in steps:
        if t1 > t0:
            if id(terms) not in uniformized:
                step = _generator_transpose(terms, coords, strides, caps)
                rate = float(-step.diagonal().min())
                if rate > 0.0:  # P = I + Q'/rate
                    step.data *= 1 / rate
                    step.data[list(step.offsets).index(0)] += 1.0
                uniformized[id(terms)] = step, rate
            p = expm_multiply(*uniformized[id(terms)], t1 - t0, p)
        if gi >= 0:
            mass = p.sum()
            if abs(1.0 - mass) > _MASS_TOL:
                raise NumericalError(
                    f"probability mass {mass} drifted beyond tolerance at t={t1:g}")
            probs[gi] = p
    return times, coords, probs


def exact_transient_moments(model: NetworkModel, caps, grid) -> MomentTrajectory:
    """Mean and covariance of the truncated chain at the grid times."""
    times, coords, probs = state_distributions(model, caps, grid)
    fcoords = coords.astype(float)
    means = probs @ fcoords
    covs = np.empty((len(times), model.dimension, model.dimension))
    for idx in range(len(times)):  # about the mean, so nothing cancels
        dev = fcoords - means[idx]
        covs[idx] = (probs[idx, :, None] * dev).T @ dev
        covs[idx] = 0.5 * (covs[idx] + covs[idx].T)
    return MomentTrajectory("exact", times, means, covs)
