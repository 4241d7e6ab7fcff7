"""Exact event-driven simulation with replication ensembles.

Schedules are piecewise constant, so between two consecutive events (or
schedule breakpoints) every transition rate is a constant given the state.
Path generation therefore needs no thinning: the next event is the minimum
of per-transition exponentials, truncated at the segment boundary, where the
memoryless property justifies redrawing with the new rates.

Replications use counter-style splittable randomness: path ``r`` always runs
on the Philox stream spawned for index ``r``, and ensemble moments are
accumulated in fixed-size chunks merged in index order, so the result is
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .model import (
    CONST,
    LINEAR,
    MIN_PAIR,
    MIN_THRESHOLD,
    POSITIVE_PART,
    NetworkModel,
    validate_model,
)
# bound under this name because perfbench/spans.py counts compiles through it
from .model import compile_segments as _compile_segments
from .results import EnsembleStats

_CHUNK = 64  # paths per accumulator chunk; fixed so merges are worker-independent
_BUFFER = 4096  # uniform draws fetched per generator call


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: (master seed, replication index)."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


def _run_path(segments, x0, sample_times, gen) -> np.ndarray:
    """One exact sample path, recorded at the requested times.

    The recorded value at a sample time is the state of the right-continuous
    path there; a breakpoint coinciding with a sample applies the new
    parameter segment only after recording (the state does not jump at
    breakpoints, so both orders agree).
    """
    x = list(x0)
    d = len(x)
    n = len(sample_times)
    out = np.empty((n, d), dtype=np.int64)
    si = 0
    buf = gen.random(_BUFFER)
    bi = 0
    k_total = len(segments[0][2])
    rates = [0.0] * k_total
    for seg_start, seg_end, terms in segments:
        if si == n:
            break  # everything requested has been recorded
        t = seg_start
        while True:
            total = 0.0
            for i in range(k_total):
                code, coeff, j, k, thr, weights, _jump = terms[i]
                if code == CONST:
                    r = coeff
                elif code == LINEAR:
                    acc = 0.0
                    for w, xv in zip(weights, x):
                        if w:
                            acc += w * xv
                    r = coeff * acc
                elif code == MIN_THRESHOLD:
                    xv = x[j]
                    r = coeff * (xv if xv < thr else thr)
                elif code == POSITIVE_PART:
                    xv = x[j] - thr
                    r = coeff * xv if xv > 0.0 else 0.0
                else:
                    if code == MIN_PAIR:
                        cap = x[k]
                    else:
                        cap = thr - x[k]
                        if cap < 0.0:
                            cap = 0.0
                    xv = x[j]
                    r = coeff * (xv if xv < cap else cap)
                rates[i] = r
                total += r
            if not math.isfinite(total) or total > 1e15:
                raise NumericalError(
                    f"unusable total rate {total} at t={t:g}, state {x}"
                )
            if total <= 0.0:
                t_next = seg_end
            else:
                if bi == _BUFFER:
                    buf = gen.random(_BUFFER)
                    bi = 0
                t_next = t - math.log1p(-buf[bi]) / total
                bi += 1
            if t_next >= seg_end:
                while si < n and sample_times[si] < seg_end:
                    out[si] = x
                    si += 1
                break
            while si < n and sample_times[si] < t_next:
                out[si] = x
                si += 1
            if si == n:
                return out
            if bi == _BUFFER:
                buf = gen.random(_BUFFER)
                bi = 0
            v = buf[bi] * total
            bi += 1
            acc = 0.0
            jump = None
            for i in range(k_total):
                acc += rates[i]
                if v <= acc:
                    jump = terms[i][6]
                    break
            if jump is None:  # guard against rounding at v ~ total
                jump = terms[k_total - 1][6]
            for a in range(d):
                if jump[a]:
                    x[a] += jump[a]
            t = t_next
    while si < n:
        out[si] = x
        si += 1
    return out


def _check_sample_times(model: NetworkModel, sample_times) -> np.ndarray:
    times = np.asarray(sample_times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise UsageError("sample times must be a non-empty 1-D sequence")
    if np.any(np.diff(times) < 0):
        raise UsageError("sample times must be ascending")
    if times[0] < 0 or times[-1] > model.horizon + 1e-9:
        raise UsageError(
            f"sample times must lie within [0, {model.horizon}]"
        )
    return times


def simulate_path(model: NetworkModel, rng: RngStream, sample_times) -> np.ndarray:
    """Exact sample path of the model, recorded at ``sample_times``.

    Identical ``(seed, stream)`` pairs reproduce the identical path.
    """
    validate_model(model).raise_if_invalid()
    times = _check_sample_times(model, sample_times)
    segments = _compile_segments(model)
    return _run_path(segments, model.initial_state, times, rng.generator())


def _chunk_stats(model, seed, lo, hi, sample_times):
    """Streaming mean/scatter accumulator over replication indices [lo, hi)."""
    segments = _compile_segments(model)
    d = model.dimension
    n = len(sample_times)
    count = 0
    mean = np.zeros((n, d))
    m2 = np.zeros((n, d, d))
    for r in range(lo, hi):
        gen = RngStream(seed, r).generator()
        path = _run_path(segments, model.initial_state, sample_times, gen).astype(float)
        count += 1
        delta = path - mean
        mean += delta / count
        m2 += np.einsum("ti,tj->tij", delta, path - mean)
    return count, mean, m2


def _chunk_stats_star(args):
    return _chunk_stats(*args)


def _merge_stats(a, b):
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = sa + sb + np.einsum("ti,tj->tij", delta, delta) * (na * nb / n)
    return n, mean, m2


def simulate_ensemble(
    model: NetworkModel,
    count: int,
    seed: int,
    sample_times,
    workers: int = 1,
) -> EnsembleStats:
    """Empirical moments over ``count`` independent replications.

    Replication ``r`` always runs on stream ``r`` of ``seed``, and chunk
    accumulators are merged in index order, so the output is bitwise
    independent of ``workers``.  Covariance (unbiased, N-1 divisor) is
    reported only for ``count >= 2``.
    """
    if count < 1:
        raise UsageError(f"replication count must be >= 1, got {count}")
    validate_model(model).raise_if_invalid()
    times = _check_sample_times(model, sample_times)
    chunks = [
        (model, seed, lo, min(lo + _CHUNK, count), times)
        for lo in range(0, count, _CHUNK)
    ]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_chunk_stats_star, chunks, chunksize=4))
    else:
        partials = [_chunk_stats_star(c) for c in chunks]
    acc = partials[0]
    for part in partials[1:]:
        acc = _merge_stats(acc, part)
    total, mean, m2 = acc
    covs = m2 / (total - 1) if total >= 2 else None
    return EnsembleStats(times, mean, covs, total)
