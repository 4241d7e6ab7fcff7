"""The three workloads: model documents, the CLI jobs of one round, and checks.

Model documents are built with ``qmoments.systems`` and written with
``save_model``; every job then goes through ``qmoments run --model``.  The
only input taken from the seed is the simulation master seed.

A round runs the workload's ``jobs`` once (the pass that ``run_s`` times and
the checks read) and its ``resample`` calls around them.  A resample call
runs one method on one model again; shorter methods are repeated more often,
so that each method's time is a mean over calls spread across the whole
round.  Their CSVs must match the pass's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

import qmoments as qm

from checks import (
    Moments,
    beyond_relative,
    capped_residual_oracle,
    covariance_properties,
    diff_report_rows,
    exact_standard_errors,
    peer_agreement,
    probe_error,
    read_run,
    simulation_band,
    within_relative,
)
from spans import METHODS

ODE_METHODS = ("fluid", "adjusted", "measure-zero")


@dataclass(frozen=True)
class Job:
    """One ``qmoments run`` call (and optionally ``qmoments report``)."""

    label: str
    grid: str
    methods: tuple[str, ...]
    caps: str | None = None
    reps: int | None = None
    report: bool = False
    dt: str = "0.01"

    def argv(self, model_dir: str, out_dir: str, seed: int) -> list[str]:
        argv = ["run", "--model", os.path.join(model_dir, self.label + ".json"),
                "--methods", ",".join(self.methods), "--grid", self.grid,
                "--dt", self.dt, "--out", out_dir]
        if self.caps:
            argv += ["--caps", self.caps]
        if self.reps:
            argv += ["--reps", str(self.reps), "--seed", str(seed)]
        return argv

    def only(self, *methods: str) -> "Job":
        return replace(self, methods=methods, report=False)


def tiny_retrial_model():
    """Acceptance 05's 3-server retrial model: short paths, 169-state lattice."""
    horizon = 10.0
    params = qm.RetrialParams(
        servers=qm.TimeSchedule.constant(3),
        arrival=qm.TimeSchedule.alternating(2, 4, 2.0, horizon),
        service=qm.TimeSchedule.constant(1.0),
        retrial_rate=qm.TimeSchedule.constant(1.0),
        abandon=qm.TimeSchedule.constant(3.0),
        leave_prob=qm.TimeSchedule.constant(0.5),
    )
    return qm.build_retrial(params, horizon)


def _preset(k: int):
    params, horizon, _ = qm.retrial_preset(k)
    return qm.build_retrial(params, horizon)


MODELS = {
    **{f"preset{k}": (lambda k=k: _preset(k)) for k in range(1, 11)},
    "priority": lambda: qm.build_priority(*qm.reference_priority_params()),
    "peer": lambda: qm.build_peer(*qm.reference_peer_params()),
    "tiny": tiny_retrial_model,
}

PRESET_GRID = "6:15:1"
PRIORITY_GRID = "4:20:1"
TINY_CAPS, PRESET7_CAPS, PRIORITY_CAPS = "12,12", "130,60", "280,120"

# Loads every lazily imported module and cached quadrature rule once.
WARMUP = Job("tiny", "1:10:1", METHODS, TINY_CAPS, reps=64, report=True, dt="0.1")


def interleave(*groups: list[Job]) -> tuple[Job, ...]:
    """Merge the groups so that each one's calls spread evenly over the round."""
    placed = [((i + 0.5) / len(g), k, job) for k, g in enumerate(groups) for i, job in enumerate(g)]
    return tuple(job for _, _, job in sorted(placed, key=lambda p: p[:2]))


def grid_values(grid: str) -> np.ndarray:
    start, stop, step = (float(v) for v in grid.split(":"))
    return start + step * np.arange(int(np.floor((stop - start) / step + 1e-9)) + 1)


class Workload:
    name = ""
    jobs: tuple[Job, ...] = ()
    resample: tuple[Job, ...] = ()

    def schedule(self):
        """Yield ``(job, is_pass)``, resample jobs spread around the pass jobs."""
        groups = len(self.jobs) + 1
        extra = len(self.resample)
        for g in range(groups):
            for job in self.resample[g * extra // groups:(g + 1) * extra // groups]:
                yield job, False
            if g < len(self.jobs):
                yield self.jobs[g], True

    def models(self) -> set[str]:
        return {job.label for job in self.jobs} | {WARMUP.label}

    def write_models(self, model_dir: str) -> None:
        os.makedirs(model_dir, exist_ok=True)
        for label in sorted(self.models()):
            qm.save_model(MODELS[label](), os.path.join(model_dir, label + ".json"))

    def prepare(self) -> None:
        """Oracle data the checks need; computed once per run, never timed."""

    def check(self, outputs: dict[str, str]):
        """Check failures and probe outcomes ``(name, passed, error)`` of one pass.

        ``outputs`` maps each job label to its run directory.
        """
        raise NotImplementedError


class RetrialPresets(Workload):
    """Closed-form kernels only: ODE methods on the ten numbered presets."""

    name = "retrial-presets"
    jobs = tuple(
        Job(f"preset{k}", PRESET_GRID, METHODS, PRESET7_CAPS, reps=256)
        if k == 7
        else Job(f"preset{k}", PRESET_GRID, ODE_METHODS)
        for k in range(1, 11)
    )
    resample = interleave([jobs[6].only("simulate")] * 3, [jobs[6].only("exact")] * 3)

    def check(self, outputs):
        errors = []
        for job in self.jobs:
            if job.label not in outputs:  # a failed call is counted, not checked
                continue
            res = read_run(outputs[job.label], job.methods)
            errors += covariance_properties(job.label, res)
            if job.label != "preset7":
                continue
            exact = res["exact"]
            errors += within_relative(
                "preset7 adjusted vs exact means", res["adjusted"].means, exact.means, 0.05, 5.0
            )
            errors += beyond_relative(
                "preset7 measure-zero pool mean",
                res["measure-zero"].means[:, 1], exact.means[:, 1], 0.40, everywhere=True,
            )
            se_mean = np.sqrt(np.einsum("tii->ti", exact.covs) / job.reps)
            errors += simulation_band("preset7 simulate means", res["simulate"], exact, se_mean)
        return errors, []


class PriorityCapped(Workload):
    """The capped-residual kernel (quadrature) and the largest exact lattice."""

    name = "priority-capped"
    jobs = (Job("priority", PRIORITY_GRID, METHODS, PRIORITY_CAPS, reps=64),)
    # The 34k-state exact solve takes a third of the round; a second one at the
    # start of the round keeps exact_s from resting on one stretch of the run.
    resample = (jobs[0].only("exact"),) + interleave(
        [jobs[0].only("fluid")] * 5,
        [jobs[0].only("measure-zero")] * 5,
        [jobs[0].only("simulate")] * 3,
        [jobs[0].only("adjusted")] * 4,
    )

    def prepare(self):
        self.term = MODELS["priority"]().transitions[3].rate  # class-2 service

    def check(self, outputs):
        job = self.jobs[0]
        if job.label not in outputs:  # a failed call is counted, not checked
            return [], []
        res = read_run(outputs[job.label], job.methods)
        exact = res["exact"]
        errors = covariance_properties("priority", res)
        errors += within_relative(
            "priority class-2 adjusted vs exact", res["adjusted"].means[:, 1], exact.means[:, 1], 0.05
        )
        errors += beyond_relative(
            "priority class-2 measure-zero",
            res["measure-zero"].means[:, 1], exact.means[:, 1], 0.05, everywhere=False,
        )
        se_mean = np.sqrt(np.einsum("tii->ti", exact.covs) / job.reps)
        errors += simulation_band("priority simulate means", res["simulate"], exact, se_mean)
        return errors, self.probes(res["adjusted"])

    def probes(self, adjusted: Moments) -> list[tuple[str, bool, float]]:
        """One capped-residual accuracy probe per report time."""
        kernel = self.term.kernel
        outcomes = []
        for t, mean, cov in zip(adjusted.times, adjusted.means, adjusted.covs):
            value = qm.expected_kernel(self.term, float(t), qm.MomentPoint(mean, cov))
            oracle = self.term.coefficient.value_at(float(t)) * capped_residual_oracle(
                mean, cov, kernel.index, kernel.other, kernel.threshold.value_at(float(t))
            )
            err, ok = probe_error(value, oracle)
            outcomes.append((f"capped-residual probe t={t:g}", ok, err))
        return outcomes


class SimulateEnsembles(Workload):
    """The event loop on three path shapes: short, medium, long and event-heavy."""

    name = "simulate-ensembles"
    jobs = (
        Job("tiny", "1:10:1", METHODS, TINY_CAPS, reps=8192, report=True),
        Job("preset7", PRESET_GRID, METHODS, PRESET7_CAPS, reps=512, report=True),
        Job("peer", "0.5:8:0.5", (*ODE_METHODS, "simulate"), reps=64, report=True),
    )
    resample = interleave(
        [job.only("fluid") for job in jobs] * 3,
        [job.only("measure-zero") for job in jobs] * 2,
        [job.only("adjusted") for job in jobs] * 2,
        [job.only("simulate") for job in jobs] + [jobs[0].only("exact"), jobs[1].only("exact")],
    )

    def prepare(self):
        """Exact state distributions for the standard errors of the Monte Carlo bands."""
        self.se = {}
        for job in self.jobs:
            if "exact" not in job.methods:
                continue
            model = MODELS[job.label]()
            caps = tuple(int(c) for c in job.caps.split(","))
            _, coords, probs = qm.state_distributions(model, caps, grid_values(job.grid))
            self.se[job.label] = exact_standard_errors(probs, coords, job.reps)

    def check(self, outputs):
        errors = []
        for job in self.jobs:
            if job.label not in outputs:  # a failed call is counted, not checked
                continue
            run_dir = outputs[job.label]
            res = read_run(run_dir, job.methods)
            errors += covariance_properties(job.label, res)
            errors += diff_report_rows(run_dir, res)
            if job.label in self.se:
                se_mean, se_cov = self.se[job.label]
                errors += simulation_band(
                    f"{job.label} simulate", res["simulate"], res["exact"], se_mean, se_cov
                )
            else:
                errors += peer_agreement(res["simulate"], res["adjusted"])
        return errors, []


WORKLOADS = {w.name: w for w in (RetrialPresets, PriorityCapped, SimulateEnsembles)}
