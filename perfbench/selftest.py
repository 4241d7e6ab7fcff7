"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one pass of every workload, shows that each check accepts the real
output, then perturbs that output and shows that the same check rejects it.
Exits 0 when every check behaves, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import copy
import csv
import shutil
import sys
from pathlib import Path

import numpy as np

import worker  # sets up the import path of the checkout's qmoments
from checks import (
    beyond_relative,
    capped_residual_oracle,
    covariance_properties,
    diff_report_rows,
    family_z,
    peer_agreement,
    probe_error,
    read_run,
    repeat_agreement,
    simulation_band,
    within_relative,
)
from workloads import WARMUP, WORKLOADS

OUT = worker.ROOT / ".perfbench-out" / "selftest"


def expect(name: str, real: list[str], perturbed: list[str]) -> bool:
    ok = not real and bool(perturbed)
    verdict = perturbed[0] if perturbed else "accepted (should have been rejected)"
    real_note = "accepted" if not real else f"rejected: {real[0]}"
    print(f"{'ok  ' if ok else 'FAIL'} {name}\n       real output {real_note}\n       perturbed  {verdict}")
    return ok


def run_one_pass(name: str):
    workload = WORKLOADS[name]()
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    workload.write_models(str(out / "models"))
    worker._cli(WARMUP.argv(str(out / "models"), str(out / "warmup"), 1))
    workload.prepare()
    result = worker.run_round(workload, out, seed=1, traced=False, resample=False)
    if result["errors"]:
        print("real pass failed its checks:", *result["errors"], sep="\n  ")
    return workload, out / "runs"


def covariance_cases(label: str, res) -> list[bool]:
    verdicts = []
    bad = copy.deepcopy(res)
    cov = bad["adjusted"].covs[-1]
    cov[0, 1] = cov[1, 0] = 2.0 * np.sqrt(cov[0, 0] * cov[1, 1])
    verdicts.append(expect(f"{label}: covariances PSD", covariance_properties(label, res),
                           covariance_properties(label, bad)))
    bad = copy.deepcopy(res)
    bad["measure-zero"].covs[0, 0, 0] = np.nan
    verdicts.append(expect(f"{label}: covariances finite", [], covariance_properties(label, bad)))
    bad = copy.deepcopy(res)
    bad["fluid"].covs[-1, 0, 0] = 1e-12
    verdicts.append(expect(f"{label}: fluid covariance zero", [], covariance_properties(label, bad)))
    return verdicts


def retrial_cases() -> list[bool]:
    workload, runs = run_one_pass("retrial-presets")
    job = next(j for j in workload.jobs if j.label == "preset7")
    res = read_run(runs / "preset7", job.methods)
    exact = res["exact"]
    verdicts = covariance_cases("preset7", res) + repeat_cases(runs / "preset7")
    verdicts.append(expect(
        "preset7: adjusted means within 5% of exact",
        within_relative("adjusted", res["adjusted"].means, exact.means, 0.05, 5.0),
        within_relative("adjusted x1.06", 1.06 * res["adjusted"].means, exact.means, 0.05, 5.0),
    ))
    verdicts.append(expect(
        "preset7: measure-zero pool mean >= 40% off exact",
        beyond_relative("measure-zero", res["measure-zero"].means[:, 1], exact.means[:, 1], 0.40, True),
        beyond_relative("exact x1.3", 1.3 * exact.means[:, 1], exact.means[:, 1], 0.40, True),
    ))
    se = np.sqrt(np.einsum("tii->ti", exact.covs) / job.reps)
    shifted = copy.deepcopy(res["simulate"])
    shifted.means[4, 1] = exact.means[4, 1] + (family_z(se.size) + 0.5) * se[4, 1]
    verdicts.append(expect(
        "preset7: simulated means within the family-wise band of exact",
        simulation_band("simulate", res["simulate"], exact, se),
        simulation_band("simulate shifted", shifted, exact, se),
    ))
    return verdicts


def priority_cases() -> list[bool]:
    workload, runs = run_one_pass("priority-capped")
    job = workload.jobs[0]
    res = read_run(runs / "priority", job.methods)
    exact = res["exact"]
    verdicts = covariance_cases("priority", res)
    adj2, mz2, ex2 = res["adjusted"].means[:, 1], res["measure-zero"].means[:, 1], exact.means[:, 1]
    verdicts.append(expect(
        "priority: class-2 adjusted mean within 5% of exact",
        within_relative("adjusted", adj2, ex2, 0.05),
        within_relative("adjusted x1.06", 1.06 * adj2, ex2, 0.05),
    ))
    verdicts.append(expect(
        "priority: class-2 measure-zero beyond 5% somewhere",
        beyond_relative("measure-zero", mz2, ex2, 0.05, False),
        beyond_relative("exact x1.04", 1.04 * ex2, ex2, 0.05, False),
    ))
    se = np.sqrt(np.einsum("tii->ti", exact.covs) / job.reps)
    shifted = copy.deepcopy(res["simulate"])
    shifted.means[0, 0] = exact.means[0, 0] - (family_z(se.size) + 0.5) * se[0, 0]
    verdicts.append(expect(
        "priority: simulated means within the family-wise band of exact",
        simulation_band("simulate", res["simulate"], exact, se),
        simulation_band("simulate shifted", shifted, exact, se),
    ))
    kernel = workload.term.kernel
    t, mean, cov = res["adjusted"].times[0], res["adjusted"].means[0], res["adjusted"].covs[0]
    oracle = capped_residual_oracle(mean, cov, kernel.index, kernel.other, kernel.threshold.value_at(t))
    near, far = probe_error(oracle + 5e-9, oracle), probe_error(oracle + 2e-8, oracle)
    verdicts.append(expect(
        "priority: capped-residual probe at 1e-8",
        [] if near[1] else [f"error {near[0]:.1e} rejected"],
        [] if far[1] else [f"error {far[0]:.1e} rejected"],
    ))
    return verdicts


def simulate_cases() -> list[bool]:
    workload, runs = run_one_pass("simulate-ensembles")
    verdicts = []
    for job in workload.jobs:
        res = read_run(runs / job.label, job.methods)
        if job.label in workload.se:
            se_mean, se_cov = workload.se[job.label]
            shifted = copy.deepcopy(res["simulate"])
            bound = family_z(se_mean.size + 3 * len(se_mean))
            shifted.covs[2, 0, 1] = res["exact"].covs[2, 0, 1] + (bound + 0.5) * se_cov[2, 0, 1]
            shifted.covs[2, 1, 0] = shifted.covs[2, 0, 1]
            verdicts.append(expect(
                f"{job.label}: simulated means and covariances within the family-wise band",
                simulation_band("simulate", res["simulate"], res["exact"], se_mean, se_cov),
                simulation_band("simulate cov shifted", shifted, res["exact"], se_mean, se_cov),
            ))
        else:
            verdicts.append(expect(
                "peer: simulated means within 3% (+ MC band) of adjusted",
                peer_agreement(res["simulate"], res["adjusted"]),
                peer_agreement(res["simulate"], _scaled(res["adjusted"], 1.5)),
            ))
        verdicts.append(expect(
            f"{job.label}: diff_report rows are method minus simulate",
            diff_report_rows(runs / job.label, res),
            diff_report_rows(_nudged_report(runs / job.label), res),
        ))
    return verdicts


def repeat_cases(run_dir: Path) -> list[bool]:
    """A resample copy must match: bytes for most methods, 1e-9 for exact."""
    def scaled_copy(name: str, factor: float) -> Path:
        tag = f"{name[:-4]}-x{factor - 1.0:.0e}"
        return _copy_with(run_dir, name, 1, 3, lambda v: v * factor, tag)

    return [
        expect(
            "preset7: resample copy of fluid.csv byte-identical",
            repeat_agreement(run_dir, run_dir, ["fluid"]),
            repeat_agreement(run_dir, scaled_copy("fluid.csv", 1 + 1e-15), ["fluid"]),
        ),
        expect(
            "preset7: resample copy of exact.csv within 1e-9 (1e-13 passes, 1e-6 fails)",
            repeat_agreement(run_dir, scaled_copy("exact.csv", 1 + 1e-13), ["exact"]),
            repeat_agreement(run_dir, scaled_copy("exact.csv", 1 + 1e-6), ["exact"]),
        ),
    ]


def _scaled(moments, factor):
    out = copy.deepcopy(moments)
    out.means *= factor
    return out


def _copy_with(run_dir: Path, name: str, row: int, col: int, change, tag="perturbed") -> Path:
    """Copy of the run directory with one CSV cell changed."""
    bad = run_dir.with_name(f"{run_dir.name}-{tag}")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(run_dir, bad)
    with open(bad / name, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(change(float(rows[row][col]))))
    with open(bad / name, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return bad


def _nudged_report(run_dir: Path) -> Path:
    """Copy of the run directory with one difference moved by one ulp."""
    return _copy_with(run_dir, "diff_report.csv", 1, 6, lambda v: np.nextafter(v, np.inf))


def main() -> int:
    verdicts = retrial_cases() + priority_cases() + simulate_cases()
    print(f"{sum(verdicts)}/{len(verdicts)} checks accept the real output and reject the perturbed one")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
