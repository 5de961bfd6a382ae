"""The benchmark's workloads: one unit of work each, run through srlab's API.

A unit is what a user waits for: one transition batch, one sigma* bisection,
one per-mode variance report.  Each unit returns its outcomes digest, the
trajectories it attempted and lost, and the trajectory-steps it advanced while
those trajectories were active, and lists as ``problems`` every way its
outcomes miss references that do not depend on the seed, so any fresh seed
can confirm a later claim.  Smoke sizes skip the reference comparisons.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import srlab.mc as mc
from srlab.integrator import SimConfig
from srlab.spectral import TorusSpec

from tracer import active_steps, patched

# Two-sided z of a 99.9% interval: a correct program fails an interval
# check on about one seed in a thousand or fewer.
Z_CHECK = 3.29


@dataclass
class UnitResult:
    digest: str
    attempted: int
    failed: int
    useful_steps: int
    normals_per_step: int
    summary: dict
    problems: list = field(default_factory=list)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def captured_batches():
    """Collect ``(cfg, BatchResult)`` of every ``srlab.mc.run_batch`` call."""
    batches = []
    run_batch = mc.run_batch

    def capture(*args, **kwargs):
        result = run_batch(*args, **kwargs)
        batches.append((args[0], result))
        return result

    with patched([(mc, "run_batch", capture)]):
        yield batches


def _field_result(batches, summary) -> UnitResult:
    outcomes = [b.outcomes for _, b in batches]
    steps = sum(int(active_steps(o["tau_minus_d0"], o["failed"], cfg.t_start,
                                 cfg.dt, cfg.n_steps).sum())
                for o, (cfg, _) in zip(outcomes, batches))
    failed = sum(len(b.failures) for _, b in batches)
    return UnitResult(digest=_digest(*outcomes),
                      attempted=sum(b.n for _, b in batches), failed=failed,
                      useful_steps=steps,
                      normals_per_step=batches[0][0].spec.n_modes,
                      summary=summary,
                      problems=[f"{failed} non-finite trajectories"] if failed else [])


class Workload:
    """Sizes ``full`` or ``smoke``; ``first_batch`` names the srlab.mc
    function whose first call ends the set-up phase."""

    name: str
    full: dict
    smoke: dict
    first_batch = "run_batch"

    def __init__(self, smoke: bool):
        self.p = self.smoke if smoke else self.full
        self.is_smoke = smoke
        self.workers = self.p["workers"]


class TransitionK16(Workload):
    """The paper's central experiment: one transition batch near sigma*."""

    name = "transition_k16"
    full = dict(delta=0.04, eps=1e-3, sigma=0.087, n=512, K=16, workers=2)
    smoke = dict(delta=0.04, eps=1e-2, sigma=0.3, n=12, K=4, workers=2)
    # Pooled transition count of seeds 101-104 at the full size (2048 paths).
    reference = dict(successes=1047, n=2048)

    def run(self, seed: int) -> UnitResult:
        p = self.p
        with captured_batches() as batches:
            batch, cfg, _ = mc.transition_study(None, p["delta"], p["eps"],
                                                p["sigma"], p["n"], K=p["K"],
                                                seed=seed)
        st = mc.event_probability(batch, mc.ExitEvent.TRANSITION, cfg.t_end)
        res = _field_result(batches, {"p_hat": st.p_hat,
                                      "successes": st.successes})
        if not self.is_smoke:
            _, lo, hi = mc.wilson_interval(st.successes, st.n, Z_CHECK)
            _, rlo, rhi = mc.wilson_interval(self.reference["successes"],
                                             self.reference["n"], Z_CHECK)
            if hi < rlo or lo > rhi:
                res.problems.append(
                    f"p_hat={st.p_hat:.4f} interval [{lo:.4f}, {hi:.4f}] misses "
                    f"the reference [{rlo:.4f}, {rhi:.4f}]")
        return res


class BisectK0(Workload):
    """Many short K=0 batches: cost per step is call overhead, not arrays."""

    name = "bisect_k0"
    # tol=0.25 stops the log-sigma bisection after the same six probes for
    # every seed (tol=0.1 needs 6 to 8 depending on the seed, which makes the
    # unit's work, not the program's speed, set its wall time).
    full = dict(delta=0.02, eps=1e-3, n=400, tol=0.25, K=0, workers=1)
    smoke = dict(delta=0.04, eps=1e-2, n=16, tol=0.25, K=0, workers=1)
    # sigma* of master seed 2024; other seeds end on the same probe grid,
    # whose neighbouring points lie a factor exp(0.115) away.
    reference_sigma = 0.05963689143540134
    sigma_log_tol = 0.125

    def run(self, seed: int) -> UnitResult:
        p = self.p
        with captured_batches() as batches:
            sigma, st, probes = mc.threshold_bisect(None, p["delta"], p["eps"],
                                                    p["n"], tol=p["tol"],
                                                    master_seed=seed, K=p["K"])
        res = _field_result(batches, {"sigma_star": sigma, "p_hat": st.p_hat,
                                      "probes": len(probes)})
        res.digest = _digest(np.array([sigma]),
                             *[b.outcomes for _, b in batches])
        below = [s for s, _, ps in probes if ps.p_hat < 0.5 and s < sigma]
        above = [s for s, _, ps in probes if ps.p_hat >= 0.5 and s > sigma]
        bracket = (math.log(min(above) / max(below))
                   if below and above else math.inf)
        if not (st.ci_low <= 0.5 <= st.ci_high or bracket < p["tol"]):
            res.problems.append(
                f"sigma*={sigma:.5g}: final CI [{st.ci_low:.3f}, "
                f"{st.ci_high:.3f}] excludes 1/2 and bracket {bracket:.3f} "
                f">= tol")
        if not self.is_smoke:
            off = abs(math.log(sigma / self.reference_sigma))
            if off > self.sigma_log_tol:
                res.problems.append(
                    f"sigma*={sigma:.5g} is {off:.3f} in log from the "
                    f"reference {self.reference_sigma:.5g}")
        return res


class VarianceK8(Workload):
    """Criterion 1's per-mode variance report: 90 000 one-mode streams."""

    name = "variance_k8"
    full = dict(eps=1e-2, sigma=0.05, K=8, t_end=0.5, n=10_000, workers=1)
    smoke = dict(eps=1e-2, sigma=0.05, K=2, t_end=0.05, n=200, workers=1)
    # Criterion 1 asks for 3 SE per mode at one fixed seed.  Over 9 modes a
    # correct sampler misses that on about one seed in 40, so a gate that
    # must hold for any seed uses 4 SE (family-wise false alarm ~6e-4).
    se_bound = 4.0
    first_batch = "simulate_linear_mode"

    def run(self, seed: int) -> UnitResult:
        p = self.p
        cfg = SimConfig(eps=p["eps"], sigma=p["sigma"], dt=p["eps"] / 20,
                        spec=TorusSpec(L=1.0, K=p["K"]), t_start=0.0,
                        t_end=p["t_end"], seed=seed, record_stride=50)
        rows, c0 = mc.mode_variance_report(cfg, n=p["n"], k_max=p["K"], a=-1.0)
        keys = sorted(rows[0])
        table = np.array([[r[k] for k in keys] for r in rows] + [[c0] * len(keys)])
        pairs = p["n"] * len(rows)
        devs = [abs(r["var_final"] - r["exact_var"]) / r["se_final"]
                for r in rows]
        ratios = [r["ratio_sup"] for r in rows]
        problems = []
        if not np.all(np.isfinite(table)):
            problems.append("non-finite variance estimates")
        if not self.is_smoke:
            if max(devs) > self.se_bound:
                problems.append(f"a mode variance is {max(devs):.2f} SE from "
                                f"the exact OU value")
            if not all(ratios[k] <= 1.2 * ratios[1] for k in range(1, len(rows))):
                problems.append("the <k>^-2 envelope does not hold")
        return UnitResult(digest=_digest(table), attempted=pairs, failed=0,
                          useful_steps=pairs * cfg.n_steps, normals_per_step=1,
                          summary={"c0": c0, "max_dev_se": max(devs)},
                          problems=problems)


WORKLOADS = {w.name: w for w in (TransitionK16, BisectK0, VarianceK8)}
