"""Exact transient moments on a truncated state lattice.

For small models the forward equations ``p' = p Q(t)`` are solved directly on
the box ``{0..cap_0} x ... x {0..cap_{d-1}}``.  Jumps that would leave the box
are disabled (reflecting truncation), which conserves probability mass and
keeps the moment oracle well defined; choose caps so the boundary occupancy
is negligible.  Within one schedule segment the generator is constant; it is
built from the model's terms compiled at the segment start
(:func:`~qmoments.model.compile_terms`), one rate vector per transition over
the whole lattice.  An interval is advanced by uniformization:
``exp(dt Q') p = sum_k w_k P^k p`` with ``P = I + Q'/rate``, ``rate`` the
largest outflow and ``w`` the Poisson(rate dt) pmf, a sum of nonnegative
terms.  ``w`` comes from the ratio recurrence outward
from the mode (Fox & Glynn 1988), each tail cut where its geometric bound drops
below ``_TAIL / 4`` of the kept sum, then normalised; per interval the L1 error
is thus at most ``_TAIL`` (1e-16) plus about one machine epsilon per product
with ``P``.  Nothing is estimated or random, so repeated solves in one
environment are bitwise equal.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, identity

from .errors import NumericalError, UsageError
from .model import (
    CONST,
    LINEAR,
    MIN_PAIR,
    MIN_THRESHOLD,
    POSITIVE_PART,
    NetworkModel,
    compile_terms,
    model_breakpoints,
    validate_model,
)
from .results import MomentTrajectory

STATE_LIMIT = 2_000_000
_MASS_TOL = 1e-8
_TAIL = 1e-16


def _lattice_rates(term: tuple, coords: np.ndarray) -> np.ndarray:
    """Rate of one compiled term at every (S, d) lattice coordinate."""
    code, coeff, j, k, n, weights, _ = term
    if code == CONST:
        kernel = np.ones(coords.shape[0])
    elif code == LINEAR:
        kernel = coords @ np.asarray(weights)
    elif code == MIN_THRESHOLD:
        kernel = np.minimum(coords[:, j], n)
    elif code == POSITIVE_PART:
        kernel = np.maximum(coords[:, j] - n, 0.0)
    elif code == MIN_PAIR:
        kernel = np.minimum(coords[:, j], coords[:, k])
    else:  # capped residual
        kernel = np.minimum(coords[:, j], np.maximum(n - coords[:, k], 0.0))
    return coeff * kernel


def _generator_transpose(model: NetworkModel, t: float, coords, strides, caps):
    """Sparse Q(t)' on the truncated lattice (outward jumps disabled)."""
    size = coords.shape[0]
    src_idx = coords @ strides
    rows, cols, vals = [], [], []
    for term in compile_terms(model, t):
        rate = _lattice_rates(term, coords)
        target = coords + np.asarray(term[6])
        inside = np.all((target >= 0) & (target <= caps), axis=1)
        active = inside & (rate > 0.0)
        if not np.any(active):
            continue
        tgt_idx = target[active] @ strides
        rows.append(tgt_idx)
        cols.append(src_idx[active])
        vals.append(rate[active])
        # diagonal outflow
        rows.append(src_idx[active])
        cols.append(src_idx[active])
        vals.append(-rate[active])
    if not rows:
        return coo_matrix((size, size)).tocsr()
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


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


def state_distributions(model: NetworkModel, caps, grid):
    """State-probability vectors at the grid times.

    Returns ``(times, coords, probs)`` where ``coords`` is the (S, d) integer
    lattice and ``probs`` is (len(grid), S).
    """
    validate_model(model).raise_if_invalid()
    caps = np.asarray([int(c) for c in caps])
    if caps.shape != (model.dimension,) or np.any(caps < 0):
        raise UsageError("need one nonnegative cap per state dimension")
    shape = caps + 1
    size = int(np.prod(shape))
    if size > STATE_LIMIT:
        raise UsageError(
            f"truncated state space has {size} states, limit is {STATE_LIMIT}"
        )
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or not times.size:
        raise UsageError("grid must be a non-empty 1-D sequence")
    if np.any(np.diff(times) < 0) or times[0] < 0 or times[-1] > model.horizon + 1e-9:
        raise UsageError("grid must be ascending within [0, horizon]")
    x0 = np.asarray(model.initial_state)
    if np.any(x0 > caps):
        raise UsageError(f"initial state {tuple(x0)} outside caps {tuple(caps)}")

    coords = np.indices(shape).reshape(model.dimension, size).T
    strides = np.array(
        [int(np.prod(shape[i + 1 :])) for i in range(model.dimension)]
    )
    p = np.zeros(size)
    p[int(x0 @ strides)] = 1.0

    boundaries = [b for b in model_breakpoints(model) if b < times[-1]]
    events = sorted(set(times.tolist()) | set(boundaries) | {0.0})
    probs = np.empty((len(times), size))
    out_i = 0
    t_now = 0.0
    for t_event in events:  # events[0] is 0.0, which builds the first step
        dt = t_event - t_now
        if dt > 0:
            p = expm_multiply(step, rate, dt, p)
        t_now = t_event
        while out_i < len(times) and times[out_i] <= t_now + 1e-12:
            mass = p.sum()
            if abs(1.0 - mass) > _MASS_TOL:
                raise NumericalError(
                    f"probability mass {mass} drifted beyond tolerance at t={t_now:g}"
                )
            probs[out_i] = p
            out_i += 1
        if t_event in boundaries or t_event == 0.0:
            step = _generator_transpose(model, t_event, coords, strides, caps)
            rate = float(-step.diagonal().min())
            step = step / rate + identity(size, format="csr") if rate > 0.0 else None
    return times, coords, probs


def exact_transient_moments(model: NetworkModel, caps, grid) -> MomentTrajectory:
    """Mean and covariance of the truncated chain at the grid times."""
    times, coords, probs = state_distributions(model, caps, grid)
    fcoords = coords.astype(float)
    means = probs @ fcoords
    covs = np.empty((len(times), model.dimension, model.dimension))
    for idx in range(len(times)):
        second = np.einsum("s,si,sj->ij", probs[idx], fcoords, fcoords)
        covs[idx] = second - np.outer(means[idx], means[idx])
        covs[idx] = 0.5 * (covs[idx] + covs[idx].T)
    return MomentTrajectory("exact", times, means, covs)
