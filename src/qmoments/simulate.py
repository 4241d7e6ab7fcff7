"""Exact event-driven simulation with replication ensembles.

Schedules are piecewise constant, so between two consecutive events (or
schedule breakpoints) every transition rate is a constant given the state.
Path generation therefore needs no thinning: the next event is the minimum
of per-transition exponentials (Gillespie's direct method), truncated at the
segment boundary, where the memoryless property justifies redrawing with the
new rates.

One engine, ``_run_path``, advances a batch of paths in lockstep: each numpy
step takes every unfinished path one event or one segment boundary further.
A path keeps its own segment, clock and Philox stream, and its own
arithmetic: rates are summed in transition order, the event is the first
transition whose running sum reaches ``u * total``, and the uniforms are used
in stream order.  So a path does not depend on the batch it runs in, and
``simulate_path`` is the batch of one.  The exponential clock uses numpy's
``log1p``, whose last bit can differ from the C library's (and between CPU
instruction sets); a recorded state changes only if an event falls within
that rounding of a sample time.

Replications use counter-style splittable randomness: path ``r`` always runs
on the Philox stream spawned for index ``r``.  Recorded states are integers,
so each batch returns exact sums of ``x`` and ``x xᵀ``; they add up in Python
ints and each moment is one correctly rounded division, so the result is
bit-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import NetworkModel, _whole, checked_grid, kernel_values
# bound under these names because perfbench/spans.py rebinds them; validate_model is uncalled
from .model import compile_segments as _compile_segments, validate_model  # noqa: F401
from .results import MomentTrajectory

_CHUNK = 64  # a batch holds a whole number of these, except the last
_BATCH = 8 * _CHUNK  # most paths one engine call advances in lockstep
_BUFFER = 256  # buffered uniforms per path, refilled from the path's own stream
_EVENT_LIMIT = 1e8  # expected events left on one path; checked at each buffer refill


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: (master seed, replication index)."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


def _refill(buf, gens, ids, at) -> int:
    """Refill, in stream order, every row with fewer than two unused uniforms.

    A row holds at most one unused draw then; it moves to the front and the
    rest of the row is drawn from the path's generator.  ``at`` holds each
    path's flat index into ``buf`` and moves back with its row.  Returns how
    many steps (at most two draws each) are safe before the next check.
    """
    cur = at - ids * _BUFFER
    low = np.flatnonzero(cur > _BUFFER - 2)
    if low.size:
        rows, used = ids[low], cur[low]
        buf[rows, 0] = buf[rows, -1]  # unused where used == _BUFFER - 1
        for row, start in zip(rows.tolist(), (_BUFFER - used).tolist()):
            gens[row].random(out=buf[row, start:])
        at[low] -= used
        cur[low] = 0
    return 1 + int(_BUFFER - 2 - cur.max()) // 2


def _run_path(segments, x0, sample_times, gens) -> np.ndarray:
    """Exact sample paths, one per generator in ``gens``, recorded at the
    requested times as a (paths, times, d) array.

    The recorded value at a sample time is the state of the right-continuous
    path there; a breakpoint coinciding with a sample applies the new
    parameter segment only after recording (the state does not jump at
    breakpoints, so both orders agree).  A path stops once every sample is
    recorded.
    """
    terms = segments[0][2]  # kernels, indices and jumps are the same in every segment
    k, d, n = len(terms), len(x0), len(sample_times)
    # A closing segment [horizon, inf) with every rate zero records the
    # samples at or after the horizon.
    coeffs = np.array([[term[1] for term in seg[2]] for seg in segments] + [[0.0] * k]).T
    thrs = np.array([[term[4] for term in seg[2]] for seg in segments] + [[0.0] * k]).T
    ends = np.array([seg[1] for seg in segments] + [np.inf])
    jumps = np.zeros((d, k + 1))  # column k: no event
    jumps[:, :k] = np.array([term[6] for term in terms]).T
    times = np.append(sample_times, np.inf)

    count = len(gens)
    out = np.empty((count, n, d), dtype=np.int64)
    buf = np.empty((count, _BUFFER))
    for gen, row in zip(gens, buf):
        gen.random(out=row)
    flat = buf.reshape(-1)
    # One column per unfinished path; compacted when paths finish.
    ids = np.arange(count)
    at = ids * _BUFFER  # flat index of the path's next unused uniform
    x = np.repeat(np.asarray(x0, dtype=float)[:, None], count, axis=1)
    t = np.full(count, float(segments[0][0]))
    seg = np.zeros(count, dtype=np.intp)
    coeff, thr, end = coeffs[:, seg], thrs[:, seg], ends[seg]
    si = np.zeros(count, dtype=np.intp)  # samples recorded so far
    nxt = np.full(count, times[0])  # time of the next sample
    budget = 0
    # Overflow is caught by the check on the total; paths with total <= 0
    # divide by it, and their result is discarded.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while ids.size:
            refilled = not budget
            if refilled:
                budget = _refill(buf, gens, ids, at)
            budget -= 1
            cum = np.empty((k, ids.size))  # rates, then their running sums in model order
            for i, term in enumerate(terms):
                kernel_values(term, thr[i], x, cum[i])
            cum *= coeff
            for i in range(1, k):
                cum[i] += cum[i - 1]
            total = cum[-1]
            if not (np.maximum.reduce(total) <= 1e15 and np.minimum.reduce(total) > -np.inf):
                bad = np.flatnonzero(~((total <= 1e15) & (total > -np.inf)))[0]
                raise NumericalError(
                    f"unusable total rate {float(total[bad])} at t={t[bad]:g}, "
                    f"state {x[:, bad].astype(np.int64).tolist()}"
                )
            # expected events still to come, checked once per refill
            if refilled and (left := total * (sample_times[-1] - t)).max() > _EVENT_LIMIT:
                bad = int(left.argmax())
                raise NumericalError(
                    f"runaway path: total rate {float(total[bad]):.6g} at t={t[bad]:g}, state "
                    f"{x[:, bad].astype(np.int64).tolist()}, means over {_EVENT_LIMIT:g} events"
                )
            live = total > 0.0  # a path without a positive total draws nothing
            t_next = np.where(live, t - np.log1p(-flat[at]) / total, end)
            leave = t_next >= end
            t = np.minimum(t_next, end)
            rec = nxt < t  # samples before t see the state before the event
            finished = False
            if rec.any():
                rows = np.flatnonzero(rec)
                lo, hi = si[rows], np.searchsorted(sample_times, t[rows])
                width = hi - lo
                path_rows = np.repeat(rows, width)
                cols = np.arange(width.sum()) + np.repeat(lo - (np.cumsum(width) - width), width)
                out[ids[path_rows], cols] = x[:, path_rows].T
                si[rows], nxt[rows] = hi, times[hi]
                finished = (hi == n).any()
            hits = flat[at + 1] * total <= cum  # running sum reaches v = u * total
            hits[-1] = True  # rounding at v ~ total picks the last transition
            event = hits.argmax(axis=0)
            if leave.any():
                moved = np.flatnonzero(leave)
                event[moved] = k
                at += live
                at += ~leave
                seg[moved] += 1
                now = seg[moved]  # clipped: paths leaving the closing segment are finished
                coeff[:, moved] = coeffs.take(now, axis=1, mode="clip")
                thr[:, moved] = thrs.take(now, axis=1, mode="clip")
                end[moved] = ends.take(now, mode="clip")
            else:
                at += 2
            x += jumps.take(event, axis=1)
            if finished:
                keep = si < n
                ids, at, x, t, seg, coeff, thr, end, si, nxt = (
                    a[..., keep] for a in (ids, at, x, t, seg, coeff, thr, end, si, nxt)
                )
    return out


def simulate_path(model: NetworkModel, rng: RngStream, sample_times) -> np.ndarray:
    """Exact sample path of the model, recorded at ``sample_times``.

    Identical ``(seed, stream)`` pairs reproduce the identical path.  The path
    runs through the lockstep engine as a batch of one, at about 35-45 us per
    event on a 2-core x86_64 VM; :func:`simulate_ensemble` advances up to 512
    paths per numpy step and is the fast way to many paths.
    """
    times = checked_grid(model, sample_times)
    segments = _compile_segments(model)
    return _run_path(segments, model.initial_state, times, [rng.generator()])[0]


def _chunk_stats(paths):
    """Exact sums ``(count, sum x, sum x xᵀ)`` per sample time over integer
    ``paths``: in int64 while ``count * max|x|**2`` fits, else in Python ints."""
    big = max(int(paths.max()), -int(paths.min()))
    if len(paths) * big * big >= 2**63:
        paths = paths.astype(object)
    return len(paths), paths.sum(0), np.einsum("rti,rtj->tij", paths, paths)


def _batch_stats(model, seed, lo, hi, sample_times):
    """Moment sums of replications [lo, hi), run as one lockstep batch."""
    gens = [RngStream(seed, r).generator() for r in range(lo, hi)]
    paths = _run_path(_compile_segments(model), model.initial_state, sample_times, gens)
    return _chunk_stats(paths)


def simulate_ensemble(
    model: NetworkModel,
    count: int,
    seed: int,
    sample_times,
    workers: int = 1,
) -> MomentTrajectory:
    """Empirical moments over ``count`` independent replications, as a
    ``"simulate"`` trajectory with that ``count``.

    Replication ``r`` always runs on stream ``r`` of ``seed``.  The batch sums
    are exact integers and add up in Python ints; the mean ``S1/N`` and the
    covariance ``(N S2 - S1 S1ᵀ) / (N (N-1))`` (unbiased) are one correctly
    rounded division per entry, so the output is bitwise independent of
    ``workers`` and the covariance is exactly symmetric.  The batch layout
    depends on ``workers`` alone; the pool runs no more processes than there
    are batches or CPUs.  The covariance is ``None`` for ``count == 1``.
    ``count``, ``seed`` and ``workers`` are checked before any path runs.
    """
    count, seed = _whole(count, "count", 1), _whole(seed, "seed", 0)
    workers = _whole(workers, "workers", 1)
    times = checked_grid(model, sample_times)
    size = _CHUNK * min(_BATCH // _CHUNK, -(-count // (_CHUNK * workers)))
    batches = [(model, seed, lo, min(lo + size, count), times) for lo in range(0, count, size)]
    procs = min(workers, len(batches), os.cpu_count() or 1)
    if procs > 1:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            stats = list(pool.map(_batch_stats, *zip(*batches)))
    else:
        stats = [_batch_stats(*batch) for batch in batches]
    total = sum(part[0] for part in stats)
    s1 = sum(part[1].astype(object) for part in stats)
    s2 = sum(part[2].astype(object) for part in stats)
    covs = None
    if total >= 2:
        scatter = total * s2 - s1[:, :, None] * s1[:, None, :]
        covs = (scatter / (total * (total - 1))).astype(float)
    return MomentTrajectory("simulate", times, (s1 / total).astype(float), covs, count=total)
