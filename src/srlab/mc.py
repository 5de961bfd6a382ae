"""Monte Carlo estimation of exit/transition probabilities and scaling fits.

Batches fan trajectories out over worker processes in chunks sized by the
work per step; since every trajectory draws from its own (seed, index, mode)
streams, the outcomes are bitwise independent of chunking and worker count.
The workers form one persistent ``forkserver`` pool, made on the first batch
that needs it.  Each worker imports the main script again, so a script that
runs batches at import time must guard that code with
``if __name__ == "__main__":``, and a script read from stdin needs
SRLAB_WORKERS=1.  A batch of one chunk, or at one worker, runs in the calling
process; any other batch sends its model, frame and exit spec to the pool, so
they must pickle, as every ``DriftModel`` does.  ``ExitEvent`` is the
integrator's, re-exported.
Probabilities carry Wilson 95% intervals, which behave correctly at the
extreme rates these experiments live at.  Log-probability and log-threshold
fits are plain least squares; the concentration fit keeps only radii with at
least five successes and p_hat in (0, 1).
"""

from __future__ import annotations

import atexit
import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _streams
from .adiabatic import AdiabaticFrame
from .config import ConfigError
from .integrator import (EVENT_FIELD, TAU_COLUMN, ExitEvent, ExitSpec,
                         SimConfig, simulate_batch, simulate_linear_mode,
                         step_grid)
from .model import DriftModel, equilibrium_branches, normal_form
from .spectral import MAX_FLOAT64S, SpectralField, TorusSpec

__all__ = [
    "ExitEvent",
    "ExitStatistics",
    "BatchResult",
    "FitResult",
    "wilson_interval",
    "run_batch",
    "event_probability",
    "concentration_fit",
    "transition_probability",
    "transition_study",
    "threshold_bisect",
    "scaling_exponent",
    "mode_variance_report",
    "scalar_transition_probability",
    "fit_line",
    "DegeneratePoints",
    "BracketNotFound",
    "WORKERS_ENV_VAR",
    "CHUNK_SIZE",
]

WORKERS_ENV_VAR = "SRLAB_WORKERS"
# Target rows x modes per chunk, counting at most _CHUNK_MODES (K=16) modes:
# a step costs a fixed number of numpy calls whatever its row count, so low-K
# batches get fewer, longer chunks, while from K=16 up chunks stay 256 rows
# (smaller ones ran slower in one thread at K=32).  One worker process per
# chunk.
_CHUNK_MODES = 33
CHUNK_SIZE = 256 * _CHUNK_MODES

# (size, ProcessPoolExecutor) of the worker pool; made by _worker_pool
_pool = None

WILSON_Z = 1.96
MIN_FIT_SUCCESSES = 5
# transition_probability calls that one threshold_bisect may make
MAX_PROBES = 28


class DegeneratePoints(RuntimeError):
    """Too few usable probability points to fit a line."""


class BracketNotFound(RuntimeError):
    """No sigma bracket with p < 0.25 on one side and p > 0.75 on the other;
    ``probes`` lists every (sigma, seed, stats) evaluated in the search."""

    def __init__(self, message: str, probes: Sequence = ()):
        super().__init__(message)
        self.probes = list(probes)


@dataclass(frozen=True)
class ExitStatistics:
    """Binomial estimate with Wilson 95% confidence interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    n: int
    event: ExitEvent
    successes: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Outcomes of n independent trajectories under one configuration."""

    n: int
    outcomes: np.ndarray  # structured array, one row per trajectory
    failures: tuple = ()


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    points: tuple
    details: tuple = ()


def wilson_interval(successes: int, n: int, z: float = WILSON_Z):
    """Wilson score interval; exact-coverage behaviour near p = 0 and 1."""
    if n <= 0:
        raise ValueError("need n >= 1")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return p, max(0.0, centre - half), min(1.0, centre + half)


def _n_workers(n_workers: Optional[int]) -> int:
    """The requested worker count (default: every CPU this process may use),
    capped at that CPU count."""
    cpus = len(os.sched_getaffinity(0))
    if n_workers is not None:
        requested = int(n_workers)
    else:
        env = os.environ.get(WORKERS_ENV_VAR)
        try:
            requested = int(env) if env else cpus
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR}={env!r}: not an integer") from None
    return max(1, min(requested, cpus))


def _chunk_ranges(n: int, n_modes: int) -> list[range]:
    """Contiguous near-equal index ranges covering range(n), each holding
    about CHUNK_SIZE rows x modes, with modes counted up to _CHUNK_MODES."""
    work_rows = n * min(n_modes, _CHUNK_MODES)
    n_chunks = min(n, -(-work_rows // CHUNK_SIZE))
    return [range(n * i // n_chunks, n * (i + 1) // n_chunks)
            for i in range(n_chunks)]


def _run_chunk(cfg, model, init, exits, frame, idx_range):
    """Outcomes of the trajectories in ``idx_range``; runs in any process."""
    return simulate_batch(cfg, model, init, exits, frame,
                          traj_indices=list(idx_range), collect_series=False)


def _worker_pool(size: int):
    """The module's forkserver process pool, remade when ``size`` changes."""
    global _pool
    if _pool is None or _pool[0] != size:
        import multiprocessing.forkserver
        from concurrent.futures.process import ProcessPoolExecutor
        _close_pool()
        # Workers fork from the forkserver and inherit its environment.  The
        # workers already fill the CPUs, so each gets one OpenBLAS thread
        # unless the caller set a count: on 2 CPUs, a K=96 batch in two
        # workers with two BLAS threads each ran 4.6x slower than with one.
        blas = "OPENBLAS_NUM_THREADS"
        unset = blas not in os.environ
        if unset:
            os.environ[blas] = "1"
        try:
            multiprocessing.forkserver.ensure_running()
        finally:
            if unset:
                del os.environ[blas]
        _pool = (size, ProcessPoolExecutor(
            size, mp_context=multiprocessing.get_context("forkserver")))
    return _pool[1]


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


# shut the pool down while the interpreter is whole, not from the garbage
# collector during module teardown
atexit.register(_close_pool)


def _run_in_pool(work, chunks: list, size: int) -> list:
    from concurrent.futures.process import BrokenProcessPool
    try:
        return list(_worker_pool(size).map(work, chunks))
    except BrokenProcessPool as exc:
        _close_pool()
        raise RuntimeError(
            "a srlab worker process died.  Each worker imports the main "
            "script again, so a script that runs batches at import time must "
            "put that code under `if __name__ == \"__main__\":`; a script "
            f"read from stdin cannot be imported at all.  {WORKERS_ENV_VAR}=1 "
            "runs every batch in this process") from exc


def run_batch(cfg: SimConfig, model: DriftModel, init: SpectralField,
              exits: Optional[ExitSpec], frame: Optional[AdiabaticFrame],
              n: int, n_workers: Optional[int] = None) -> BatchResult:
    """n independent trajectories with per-trajectory derived seeds.

    Deterministic given cfg.seed: each trajectory's noise streams are keyed
    by its global index, so no chunk layout or worker count changes a bit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    chunks = _chunk_ranges(n, cfg.spec.n_modes)
    work = functools.partial(_run_chunk, cfg, model, init, exits, frame)
    workers = min(_n_workers(n_workers), len(chunks))
    if workers > 1:
        results = _run_in_pool(work, chunks, workers)
    else:
        results = [work(c) for c in chunks]

    out = np.concatenate(results)
    failures = tuple(int(i) for i in out["traj"][out["failed"]])
    return BatchResult(n=n, outcomes=out, failures=failures)


def event_probability(batch: BatchResult, event: ExitEvent,
                      horizon: float) -> ExitStatistics:
    """Fraction of trajectories with ``event``, an ``ExitEvent`` (not its
    string), before the horizon, Wilson CI."""
    o = batch.outcomes
    if event is ExitEvent.TRANSITION:
        hit = (o["tau_minus_d0"] <= horizon) & (o["tau_minus_d"] <= o["tau_minus_d0"])
    else:
        hit = o[TAU_COLUMN[EVENT_FIELD[event]]] <= horizon
    successes = int(np.count_nonzero(hit))
    p, lo, hi = wilson_interval(successes, batch.n)
    return ExitStatistics(p_hat=p, ci_low=lo, ci_high=hi, n=batch.n,
                          event=event, successes=successes)


def fit_line(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Ordinary least squares line through (x, y) with r^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise DegeneratePoints("need at least two points for a line")
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, intercept=intercept, r_squared=r2,
                     points=tuple(zip(x.tolist(), y.tolist())))


def concentration_fit(model: DriftModel, cfg_base: SimConfig,
                      exits_template: ExitSpec, h_values: Sequence[float],
                      n: int) -> FitResult:
    """Fit log p(exit from B(h)) against h^2/sigma^2; slope estimates -kappa.

    One batch per radius, all with the same master seed, so p(h) inherits the
    pathwise exit monotonicity.  Points need >= 5 successes and p_hat in
    (0, 1) to enter the fit.
    """
    if len(h_values) < 3:
        raise DegeneratePoints("need at least 3 radii")
    if max(h_values) < 2.0 * min(h_values):
        raise ValueError("h_values should span at least a factor 2")
    init = SpectralField.constant(
        cfg_base.spec, equilibrium_branches(model, cfg_base.t_start).root())
    pts, details = [], []
    for h in h_values:
        exits = replace(exits_template, h_stable=float(h))
        batch = run_batch(cfg_base, model, init, exits, None, n)
        st = event_probability(batch, ExitEvent.EXIT_B, horizon=cfg_base.t_end)
        details.append((float(h), st))
        if st.successes >= MIN_FIT_SUCCESSES and 0.0 < st.p_hat < 1.0:
            pts.append((h**2 / cfg_base.sigma**2, float(np.log(st.p_hat))))
    if len(pts) < 3:
        raise DegeneratePoints(
            f"only {len(pts)} of {len(h_values)} radii gave usable p_hat")
    fit = fit_line([p[0] for p in pts], [p[1] for p in pts])
    return replace(fit, details=tuple(details))


def _default_levels(model: DriftModel, delta: float, eps: float,
                    T0: float) -> tuple[float, float]:
    """d = half the minimal gap between the upper stable branch and an
    unstable branch below it over [-T0, T0] (sqrt(max(delta, eps)) when
    there is none), and d0 = 2d."""
    gaps = []
    for t in np.linspace(-T0, T0, 17):
        bs = equilibrium_branches(model, t)
        if bs.stable_roots():
            up = bs.root()
            below = [r for r in bs.unstable_roots() if r < up]
            if below:
                gaps.append(up - max(below))
    d = 0.5 * min(gaps) if gaps else np.sqrt(max(delta, eps))
    return d, 2.0 * d


def transition_study(model: Optional[DriftModel], delta: float, eps: float,
                     sigma: float, n: int, exits: Optional[ExitSpec] = None, *,
                     K: int = 16, L: float = 1.0, n_grid: int = 0,
                     dt: Optional[float] = None, T0: Optional[float] = None,
                     seed: int = 0, h_perp: Optional[float] = None,
                     n_workers: Optional[int] = None):
    """Run the avoided-bifurcation transition experiment; returns (batch, cfg, exits).

    The trajectory starts on the stable branch at -T0 and is integrated over
    [-T0, T0]; T0 defaults to max(0.2, 2.5 sqrt(delta v eps)) so the window
    always contains the bifurcation region.  Levels default to
    d = half the minimal branch gap, d0 = 2d; trajectories stop once -d0 is
    reached (the normal-form drift is unbounded below).  ``model=None`` runs
    ``normal_form(delta)``.
    """
    if model is None:
        model = normal_form(delta)
    if T0 is None:
        T0 = max(0.2, 2.5 * np.sqrt(max(delta, eps)))
    dt, t_end = step_grid(eps, -T0, T0, dt)
    spec = TorusSpec(L=L, K=K, n_grid=n_grid)
    cfg = SimConfig(eps=eps, sigma=sigma, dt=dt, spec=spec,
                    t_start=-T0, t_end=t_end, seed=seed)
    if exits is None:
        d, d0 = _default_levels(model, delta, eps, T0)
        exits = ExitSpec(d_level=d, d0_level=d0, h_perp=h_perp)
    init = SpectralField.constant(spec, equilibrium_branches(model, cfg.t_start).root())
    batch = run_batch(cfg, model, init, exits, None, n, n_workers)
    return batch, cfg, exits


def transition_probability(model: Optional[DriftModel], delta: float, eps: float,
                           sigma: float, n: int,
                           exits: Optional[ExitSpec] = None,
                           **kwargs) -> ExitStatistics:
    """P(phi0 crosses -d and then reaches -d0 before the end of the window)."""
    batch, cfg, _ = transition_study(model, delta, eps, sigma, n, exits,
                                     **kwargs)
    return event_probability(batch, ExitEvent.TRANSITION, horizon=cfg.t_end)


def threshold_bisect(model: Optional[DriftModel], delta: float, eps: float,
                     n: int, tol: float = 0.1,
                     sigma_lo: Optional[float] = None,
                     sigma_hi: Optional[float] = None,
                     master_seed: int = 0, **kwargs):
    """Locate sigma* with p(transition) ~ 1/2 by bisection in log sigma.

    Stops when the Wilson CI at the midpoint contains 1/2, when the log
    bracket is narrower than tol, or after MAX_PROBES probes.  Returns
    (sigma_star, stats, probes) where probes lists every (sigma, seed, stats)
    evaluated; BracketNotFound carries the probes of the failed search.
    """
    probes: list = []

    def evaluate(sig: float) -> ExitStatistics:
        probe_seed = _streams.derive_seed(master_seed, len(probes))
        st = transition_probability(model, delta, eps, sig, n,
                                    seed=probe_seed, **kwargs)
        probes.append((float(sig), int(probe_seed), st))
        return st

    sc = max(delta, eps) ** 0.75
    lo = sigma_lo if sigma_lo is not None else 0.4 * sc
    hi = sigma_hi if sigma_hi is not None else 2.5 * sc

    while (p_lo := evaluate(lo)).p_hat >= 0.25 and len(probes) < MAX_PROBES:
        lo /= 2.0
    while (p_hi := evaluate(hi)).p_hat <= 0.75 and len(probes) < MAX_PROBES:
        hi *= 2.0
    if p_lo.p_hat >= 0.25 or p_hi.p_hat <= 0.75:
        raise BracketNotFound(
            f"no bracket found for delta={delta}: p({lo:.4g})={p_lo.p_hat:.3f}, "
            f"p({hi:.4g})={p_hi.p_hat:.3f}", probes)

    st = None
    while np.log(hi / lo) >= tol and len(probes) < MAX_PROBES:
        mid = math.sqrt(lo) * math.sqrt(hi)
        st = evaluate(mid)
        if st.ci_low <= 0.5 <= st.ci_high:
            return mid, st, probes
        lo, hi = (mid, hi) if st.p_hat < 0.5 else (lo, mid)
    mid = math.sqrt(lo) * math.sqrt(hi)
    if st is None or probes[-1][0] != mid:
        st = evaluate(mid)
    return mid, st, probes


def _bisect_each(setups, eps, n, tol, master_seed, **kwargs):
    """threshold_bisect's result, or the BracketNotFound it raised, for each
    (delta, model, keywords) of ``setups`` in turn, ``kwargs`` added."""
    for i, (delta, model, delta_kwargs) in enumerate(setups):
        seed = _streams.derive_seed(master_seed, 1000 + i)
        try:
            yield threshold_bisect(model, delta, eps, n, tol=tol,
                                   master_seed=seed, **delta_kwargs, **kwargs)
        except BracketNotFound as exc:
            yield exc


def _scaling_fit(eps: float, thresholds) -> FitResult:
    """The line through (log(delta v eps), log sigma*) of each (delta, sigma*)."""
    return fit_line([math.log(max(d, eps)) for d, _ in thresholds],
                    [math.log(s) for _, s in thresholds])


def scaling_exponent(model: Optional[DriftModel], delta_values: Sequence[float],
                     eps: float, n: int, tol: float = 0.1,
                     master_seed: int = 0, **kwargs) -> FitResult:
    """Fit log sigma* against log(delta v eps); the slope estimates 3/4.

    Requires delta >= 4 eps (so delta v eps = delta) and a delta span of at
    least one decade.  ``model=None`` runs normal_form(delta) at each delta;
    a given model runs at every delta, with only T0 and the default levels
    following delta.  ``details`` keep the given order, which sets the
    seeds as in ``srlab threshold``.
    """
    deltas = [float(d) for d in delta_values]
    if len(deltas) < 3:
        raise DegeneratePoints("need at least 3 delta values")
    if min(deltas) < 4.0 * eps:
        raise ValueError("delta values must satisfy delta >= 4 eps")
    if max(deltas) < 10.0 * min(deltas):
        raise ValueError("delta values should span at least one decade")
    details = []
    setups = [(d, model, {}) for d in deltas]
    for d, result in zip(deltas, _bisect_each(setups, eps, n, tol, master_seed,
                                              **kwargs)):
        if isinstance(result, BracketNotFound):
            raise result
        sig, st, probes = result
        details.append((d, sig, st, tuple(probes)))
    fit = _scaling_fit(eps, [(d, sig) for d, sig, _, _ in details])
    return replace(fit, details=tuple(details))


def mode_variance_report(cfg: SimConfig, n: int, k_max: int, a: float = -1.0):
    """Per-mode variance table for the linear equation with the constant
    coefficient ``a``, against the <k>^-2 law.

    Uses the exact-in-distribution scalar sampler for each mode.  Returns
    (rows, c0_fit): one row per k with the stationary-variance estimate (at
    the final recorded time), its standard error, the sup over recorded
    times, and the exact Ornstein-Uhlenbeck value;
    c0_fit = max_k sup-variance * <k>^2 / sigma^2.

    Each ValueError of its rules starts with the parameter it names; a < 0
    is ``simulate_linear_mode``'s check at k = 0, made before any draw.
    """
    if n < 2:
        raise ValueError("n: a sample variance needs n >= 2 paths")
    if not 0 < cfg.sigma * cfg.sigma < np.inf:
        raise ValueError("sigma: sigma**2 must be positive and finite")
    if cfg.record_stride > cfg.n_steps:
        raise ValueError(f"record_stride: {cfg.record_stride} exceeds the "
                         f"window's {cfg.n_steps} steps, so only t_start "
                         "would be recorded")
    n_rec = cfg.n_steps // cfg.record_stride + 1
    if n * n_rec > MAX_FLOAT64S:
        raise ValueError(f"n: {n} paths of {n_rec} record times are more "
                         "float64 values than a numpy array can hold")
    a = float(a)
    rows = []
    c0 = 0.0
    for k in range(0, k_max + 1):
        mu_k = (k * np.pi / cfg.spec.L) ** 2
        paths = simulate_linear_mode(k, a, cfg, n_paths=n)
        variances = paths.var(axis=0, ddof=1)
        var_final = float(variances[-1])
        var_sup = float(variances.max())
        se_final = var_final * np.sqrt(2.0 / (n - 1))
        bracket2 = 1.0 + k * k
        ratio = var_sup * bracket2 / cfg.sigma**2
        c0 = max(c0, ratio)
        exact = cfg.sigma**2 / (2.0 * (mu_k - a))
        rows.append({"k": k, "mu_k": mu_k, "var_final": var_final,
                     "se_final": float(se_final), "var_sup": var_sup,
                     "exact_var": float(exact),
                     "ratio_sup": float(ratio)})
    for row in rows:
        row["bound"] = c0 * cfg.sigma**2 / (1.0 + row["k"] ** 2)
    return rows, float(c0)


def scalar_transition_probability(delta: float, eps: float, sigma: float,
                                  n: int, d: float, d0: float, T0: float,
                                  seed: int = 0) -> ExitStatistics:
    """Independent dense-step Euler-Maruyama reference for the K=0 reduction.

    Simulates eps dphi = (delta + t^2 - phi^2) dt + sqrt(eps) sigma dW
    from phi(-T0) on the stable branch, with its own noise streams, at the
    step eps/200 (20x the field integrator's default resolution).
    """
    dt = eps / 200.0
    n_steps = int(round(2.0 * T0 / dt))
    sqdt = np.sqrt(dt / eps)
    phi = np.full(n, float(np.sqrt(delta + T0**2)))
    crossed_d = np.zeros(n, dtype=bool)
    successes = 0
    # arrays hold the paths that have not reached -d0 yet
    noise = _streams.BlockNormals(seed, range(n), (0,), n_steps,
                                  kind=_streams.KIND_ORACLE)
    t = -T0
    for step_i in range(n_steps):
        if not phi.size:
            break
        g_t = delta + t * t
        xi = noise.draw(step_i)
        phi = phi + (dt / eps) * (g_t - phi * phi) + sigma * sqdt * xi
        crossed_d |= phi <= -d
        hit0 = crossed_d & (phi <= -d0)
        if hit0.any():
            successes += int(np.count_nonzero(hit0))
            keep = ~hit0
            phi, crossed_d = phi[keep], crossed_d[keep]
            noise.keep(keep)
        t += dt
    p, lo_ci, hi_ci = wilson_interval(successes, n)
    return ExitStatistics(p_hat=p, ci_low=lo_ci, ci_high=hi_ci, n=n,
                          event=ExitEvent.TRANSITION, successes=successes)
