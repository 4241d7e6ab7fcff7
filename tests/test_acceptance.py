"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

Monte Carlo criteria run on fixed seeds, so every run is reproducible; the
agreement bands are honest 3-sigma bounds built from exact or analytic
variances, never tuned to the observed draw.  Run with ``pytest -s`` to see
the verdict lines on success.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import qmoments as qm
import qmoments.solvers as solvers
from qmoments import MomentPoint, RateTerm, TimeSchedule
from qmoments.cli import ExperimentConfig, run_experiment
from qmoments.model import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    PositivePart,
)

from helpers import capped_residual_expect, random_moment_point, tiny_retrial_model
from oracles import quad_expected_kernel

SEED = 42
REPS = 5000
REPORT_GRID = np.arange(6.0, 16.0)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


# --------------------------------------------------------------------------
# Shared computations


@pytest.fixture(scope="module")
def preset7_runs(tmp_path_factory):
    """Full experiment runs on the headline workload at three worker counts."""
    base = tmp_path_factory.mktemp("preset7")
    runs = {}
    for workers in (1, 4, 8):
        out = base / f"workers{workers}"
        cfg = ExperimentConfig(
            methods=["adjusted", "measure-zero", "simulate"],
            out_dir=str(out),
            preset=7,
            reps=REPS,
            seed=SEED,
            grid=REPORT_GRID.copy(),
            workers=workers,
        )
        start = time.perf_counter()
        results, errors = run_experiment(cfg)
        assert not errors
        runs[workers] = {
            "dir": out,
            "results": results,
            "elapsed": time.perf_counter() - start,
        }
    return runs


@pytest.fixture(scope="module")
def preset7_dense():
    params, horizon, _ = qm.retrial_preset(7)
    model = qm.build_retrial(params, horizon)
    dense = np.round(np.arange(0.0, 20.0001, 0.05), 10)
    cfg = qm.SolverConfig(grid=dense)
    adjusted = qm.solve(model, replace(cfg, method="adjusted"))
    return dense, adjusted, qm.solve(model, replace(cfg, method="measure-zero"))


@pytest.fixture(scope="module")
def priority_bundle():
    params, horizon = qm.reference_priority_params()
    model = qm.build_priority(params, horizon)
    grid = np.arange(4.0, 21.0)
    cfg = qm.SolverConfig(grid=grid)
    adjusted = qm.solve(model, replace(cfg, method="adjusted"))
    measure_zero = qm.solve(model, replace(cfg, method="measure-zero"))
    sim = qm.simulate_ensemble(model, REPS, SEED, grid, workers=4)
    return grid, adjusted, measure_zero, sim


@pytest.fixture(scope="module")
def peer_bundle():
    params, horizon = qm.reference_peer_params()
    model = qm.build_peer(params, horizon)
    grid = np.round(np.arange(0.5, horizon + 1e-9, 0.5), 10)
    adjusted = qm.solve(model, qm.SolverConfig(method="adjusted", grid=grid))
    sim = qm.simulate_ensemble(model, REPS, SEED, grid, workers=4)
    dense = np.round(np.arange(0.5, 5.0001, 0.02), 10)
    cfg = qm.SolverConfig(grid=dense)
    adj_dense = qm.solve(model, replace(cfg, method="adjusted"))
    mz_dense = qm.solve(model, replace(cfg, method="measure-zero"))
    return grid, adjusted, sim, dense, adj_dense, mz_dense


# --------------------------------------------------------------------------
# Criteria


def test_01_closed_forms_match_quadrature():
    """Closed-form expectations vs order-64 numerical integration, 1e-8.

    The capped residual is held against nested adaptive quadrature on every
    tenth point; that oracle takes tens of milliseconds a point, so its time
    is left out of the time limit.
    """
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    oracle_time = 0.0
    worst = 0.0
    for i in range(1000):
        p = random_moment_point(rng, 2, sigma_lo=1e-3, sigma_hi=100.0)
        n = TimeSchedule.constant(rng.uniform(-20.0, 120.0))
        if i % 10 == 0:
            term = RateTerm(TimeSchedule.constant(1.0), CappedResidual(0, 1, n))
            closed = qm.expected_kernel(term, 0.0, p)
            tick = time.perf_counter()
            oracle = capped_residual_expect(p.mean, p.cov, n.value_at(0.0))
            oracle_time += time.perf_counter() - tick
            worst = max(worst, abs(closed - oracle))
        kernels = [
            Constant(),
            Linear((0.4, 1.3)),
            MinThreshold(0, n),
            PositivePart(0, n),
            MinPair(0, 1),
        ]
        for kernel in kernels:
            term = RateTerm(TimeSchedule.constant(1.0), kernel)
            closed = qm.expected_kernel(term, 0.0, p)
            quad = quad_expected_kernel(term, 0.0, p)
            worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - start - oracle_time
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _verdict(
        1, "closure vs quadrature", ok, f"worst={worst:.2e}, {elapsed:.1f}s"
    )


def test_02_threshold_decomposition_identity():
    """E[min(X, n)] + E[(X - n)^+] = E[X] to 1e-10 on 1000 random points."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        p = random_moment_point(rng, 2, sigma_lo=1e-3, sigma_hi=100.0)
        n = TimeSchedule.constant(rng.uniform(-20.0, 120.0))
        lower = qm.expected_kernel(
            RateTerm(TimeSchedule.constant(1.0), MinThreshold(0, n)), 0.0, p
        )
        upper = qm.expected_kernel(
            RateTerm(TimeSchedule.constant(1.0), PositivePart(0, n)), 0.0, p
        )
        worst = max(worst, abs(lower + upper - p.mean[0]))
    ok = worst <= 1e-10
    assert _verdict(2, "decomposition identity", ok, f"worst={worst:.2e}")


def test_03_jacobian_matches_finite_differences():
    """Analytic closed-drift Jacobians vs central differences, 1e-6 relative."""
    rng = np.random.default_rng(303)
    cases = [
        qm.build_retrial(*qm.retrial_preset(7)[:2]),
        qm.build_priority(*qm.reference_priority_params()),
        qm.build_peer(*qm.reference_peer_params()),
    ]
    step = 1e-5
    worst = 0.0
    for model in cases:
        d = model.dimension
        for _ in range(100):
            p = random_moment_point(
                rng, d, sigma_lo=0.1, sigma_hi=50.0, mean_lo=-20.0, mean_hi=400.0
            )
            t = rng.uniform(0.0, model.horizon)
            jac = solvers.closed_drift_jacobian(model, t, p)
            for b in range(d):
                up, down = p.mean.copy(), p.mean.copy()
                up[b] += step
                down[b] -= step
                fd = (
                    solvers.closed_drift(model, t, MomentPoint(up, p.cov))
                    - solvers.closed_drift(model, t, MomentPoint(down, p.cov))
                ) / (2.0 * step)
                scale = np.maximum(1.0, np.maximum(np.abs(jac[:, b]), np.abs(fd)))
                worst = max(worst, float(np.max(np.abs(jac[:, b] - fd) / scale)))
    ok = worst <= 1e-6
    assert _verdict(3, "jacobian vs finite differences", ok, f"worst={worst:.2e}")


def test_04_exactness_on_linear_models():
    """Linear rates: adjusted = fluid means; mean = variance transient law."""
    model = qm.NetworkModel(
        1,
        (
            qm.Transition((1,), RateTerm(TimeSchedule.constant(2.0), Constant())),
            qm.Transition((-1,), RateTerm(TimeSchedule.constant(1.0), Linear((1.0,)))),
        ),
        (0,),
        2.0,
    )
    grid = np.array([0.5, 1.0, 2.0])
    cfg = qm.SolverConfig(grid=grid)
    fluid = qm.solve(model, replace(cfg, method="fluid"))
    adjusted = qm.solve(model, replace(cfg, method="adjusted"))
    law = 2.0 * (1.0 - np.exp(-grid))
    gap_means = float(np.max(np.abs(fluid.means - adjusted.means)))
    gap_mean_law = float(np.max(np.abs(adjusted.means[:, 0] - law)))
    gap_var_law = float(np.max(np.abs(adjusted.covs[:, 0, 0] - law)))
    ok = gap_means <= 1e-10 and gap_mean_law <= 1e-6 and gap_var_law <= 1e-6
    assert _verdict(
        4,
        "linear exactness",
        ok,
        f"fluid gap={gap_means:.1e}, mean={gap_mean_law:.1e}, var={gap_var_law:.1e}",
    )


def test_05_simulator_agrees_with_state_space_oracle():
    """100k-replication ensemble vs truncated forward equations, 3-sigma."""
    model = tiny_retrial_model()
    grid = np.arange(1.0, 11.0)
    caps = (12, 12)
    count = 100_000
    start = time.perf_counter()
    times, coords, probs = qm.state_distributions(model, caps, grid)
    oracle = qm.exact_transient_moments(model, caps, grid)
    stats = qm.simulate_ensemble(model, count, 5, grid, workers=4)
    elapsed = time.perf_counter() - start
    lattice = coords.astype(float)
    z_mean = 0.0
    z_cov = 0.0
    for k in range(len(grid)):
        se_mean = np.sqrt(np.diag(oracle.covs[k]) / count)
        z_mean = max(
            z_mean, float(np.max(np.abs(stats.means[k] - oracle.means[k]) / se_mean))
        )
        centered = lattice - oracle.means[k]
        fourth = np.einsum("s,si,sj->ij", probs[k], centered**2, centered**2)
        se_cov = np.sqrt(np.maximum((fourth - oracle.covs[k] ** 2) / count, 1e-30))
        z_cov = max(
            z_cov, float(np.max(np.abs(stats.covs[k] - oracle.covs[k]) / se_cov))
        )
    ok = z_mean < 3.0 and z_cov < 3.0 and elapsed < 300.0
    assert _verdict(
        5,
        "simulator vs oracle",
        ok,
        f"z_mean={z_mean:.2f}, z_cov={z_cov:.2f}, {elapsed:.0f}s",
    )


def test_06_headline_workload_reproduction(preset7_runs):
    """Retrial pool mean: adjusted tracks simulation, measure-zero does not.

    Deviations are measured relative to the simulated value: the closed
    method must stay within 5 percent (and within 5 customers outright),
    the kink-ignoring baseline must be at least 40 percent off at every
    reporting time, and the error gap must exceed an order of magnitude.
    """
    run = preset7_runs[1]
    results = run["results"]
    sim = results["simulate"].means[:, 1]
    adj = results["adjusted"].means[:, 1]
    mz = results["measure-zero"].means[:, 1]
    abs_adj = np.abs(adj - sim)
    rel_adj = abs_adj / sim
    rel_mz = np.abs(mz - sim) / sim
    gap = np.mean(np.abs(mz - sim)) / np.mean(abs_adj)
    ok = (
        float(abs_adj.max()) <= 5.0
        and float(rel_adj.max()) <= 0.05
        and float(rel_mz.min()) >= 0.40
        and gap >= 10.0
        and run["elapsed"] < 600.0
    )
    assert _verdict(
        6,
        "headline workload",
        ok,
        f"adj<={abs_adj.max():.2f} cust ({100 * rel_adj.max():.1f}%), "
        f"mz>={100 * rel_mz.min():.0f}%, gap={gap:.0f}x, {run['elapsed']:.0f}s",
    )


def test_07_kink_ignoring_variance_spikes(preset7_dense):
    """Baseline variance oscillates hard at the kink crossings; adjusted is smooth.

    Every crossing of the capacity kink flips the baseline's one-sided
    Jacobian between regimes, so its variance swings between the regime
    equilibria (>= 1.5x trough to peak) while the adjusted trajectory moves
    below 25% per reporting step, with at least a 4x spikiness contrast.
    """
    dense, adjusted, measure_zero = preset7_dense
    window = dense >= 4.0
    v_adj = adjusted.covs[window, 0, 0]
    v_mz = measure_zero.covs[window, 0, 0]
    swing = float(v_mz.max() / v_mz.min())
    adj_step = float(np.max(np.abs(np.diff(v_adj) / v_adj[:-1])))

    unit = np.isin(dense, REPORT_GRID)
    v_adj_unit = adjusted.covs[unit, 0, 0]
    v_mz_unit = measure_zero.covs[unit, 0, 0]
    adj_step_unit = float(np.max(np.abs(np.diff(v_adj_unit) / v_adj_unit[:-1])))
    mz_step_unit = float(np.max(np.abs(np.diff(v_mz_unit) / v_mz_unit[:-1])))
    contrast = mz_step_unit / adj_step_unit
    ok = (
        swing >= 1.5
        and adj_step < 0.25
        and adj_step_unit < 0.25
        and contrast >= 4.0
    )
    assert _verdict(
        7,
        "variance spikes",
        ok,
        f"swing={swing:.2f}x, adj step={100 * adj_step_unit:.1f}%, "
        f"contrast={contrast:.1f}x",
    )


def test_08_priority_class_2_mean(priority_bundle):
    """Low-priority mean: adjusted within 5%, baseline beyond 5% somewhere."""
    grid, adjusted, measure_zero, sim = priority_bundle
    sim_mean = sim.means[:, 1]
    rel_adj = np.abs(adjusted.means[:, 1] - sim_mean) / sim_mean
    rel_mz = np.abs(measure_zero.means[:, 1] - sim_mean) / sim_mean
    ok = float(rel_adj.max()) <= 0.05 and float(rel_mz.max()) > 0.05
    assert _verdict(
        8,
        "priority class-2 mean",
        ok,
        f"adj<={100 * rel_adj.max():.1f}%, mz up to {100 * rel_mz.max():.1f}%",
    )


def test_09_peer_network_crossing(peer_bundle):
    """Means track simulation through the crossing; baseline spikes exactly there."""
    grid, adjusted, sim, dense, adj_dense, mz_dense = peer_bundle
    rel = np.abs(adjusted.means - sim.means) / np.maximum(np.abs(sim.means), 10.0)
    mean_ok = float(rel.max()) <= 0.03

    fluid = mz_dense.means
    balance = fluid[:, 0] - fluid[:, 1]
    cross_idx = int(np.argmax(np.sign(balance[1:]) != np.sign(balance[:-1]))) + 1
    t_cross = dense[cross_idx]
    v_mz = mz_dense.covs[:, 0, 0]
    v_adj = adj_dense.covs[:, 0, 0]
    peak_idx = int(np.argmax(v_mz))
    t_peak = dense[peak_idx]
    ratio = float(v_mz[peak_idx] / v_adj[peak_idx])
    before = v_mz[np.argmin(np.abs(dense - (t_cross - 1.0)))]
    after = v_mz[np.argmin(np.abs(dense - (t_cross + 1.0)))]
    prominence = float(min(v_mz[peak_idx] / before, v_mz[peak_idx] / after))
    spike_ok = abs(t_peak - t_cross) <= 0.1 and ratio >= 1.5 and prominence >= 5.0
    ok = mean_ok and spike_ok
    assert _verdict(
        9,
        "peer network crossing",
        ok,
        f"mean err<={100 * rel.max():.1f}%, spike at {t_peak:.2f} vs crossing "
        f"{t_cross:.2f}, ratio={ratio:.2f}x, prominence={prominence:.0f}x",
    )


def test_10_worker_count_determinism(preset7_runs):
    """Byte-identical combined CSVs across worker counts 1, 4, 8."""
    payloads = {
        workers: (run["dir"] / "combined.csv").read_bytes()
        for workers, run in preset7_runs.items()
    }
    ok = payloads[1] == payloads[4] == payloads[8]
    assert _verdict(
        10, "worker determinism", ok, f"{len(payloads[1])} bytes each"
    )
