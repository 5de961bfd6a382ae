"""Deterministic slow-manifold objects for the scalar mean-mode dynamics.

The spatially constant particular solutions of the deterministic equation
obey the scalar slow ODE  eps * dphi/dt = f(t, phi).  ``build_frame``
computes all of them on one uniform grid over [-T0, T0]:

* phibar(t): the solution tracking the upper stable branch, started on the
  branch at -T0 (lags the branch by O(eps/|t|) away from the bifurcation
  window and sits at O(sqrt(delta v eps)) inside it);
* phihat(t): the solution tracking the unstable branch, obtained by backward
  integration (the unstable branch attracts in reversed time); NaN when the
  model has no unstable branch at +T0;
* abar/ahat: the drift linearisations along those solutions;
* zeta(t):   the tube-width function solving eps * dzeta = 2 abar zeta + 1
  with zeta(-T0) = 1/(2 |abar(-T0)|), which stays ~ 1/|abar(t)|;
* cumulative integrals of abar/ahat for the exponential envelopes.

All scalar ODEs use a fixed-step implicit midpoint rule (A-stable and
symmetric; the stiffness ratio is 1/eps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import SimConfig, simulate_batch, step_grid
from .model import DriftModel, equilibrium_branches
from .spectral import SpectralField, TorusSpec

__all__ = [
    "AdiabaticFrame",
    "build_frame",
    "deterministic_pde_track",
    "StiffnessFailure",
    "OutOfRange",
    "FRAME_COLUMNS",
]

FRAME_COLUMNS = ("t", "phibar", "phihat", "abar", "ahat", "zeta",
                 "alphabar_cum", "alphahat_cum")


class StiffnessFailure(RuntimeError):
    """Implicit-midpoint Newton iteration failed to converge."""


class OutOfRange(ValueError):
    """Query time outside the frame grid."""


@dataclass(frozen=True)
class AdiabaticFrame:
    """Sampled deterministic objects on a uniform t-grid over [-T0, T0]."""

    t_grid: np.ndarray
    phibar: np.ndarray
    phihat: np.ndarray
    abar: np.ndarray
    ahat: np.ndarray
    zeta: np.ndarray
    alphabar_cum: np.ndarray
    alphahat_cum: np.ndarray

    def _interp(self, arr: np.ndarray, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_grid[0], self.t_grid[-1]
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise OutOfRange(f"t={t} outside frame range [{lo}, {hi}]")
        out = np.interp(t, self.t_grid, arr)
        return float(out) if out.ndim == 0 else out

    def phibar_at(self, t):
        return self._interp(self.phibar, t)

    def zeta_at(self, t):
        return self._interp(self.zeta, t)

    def columns(self) -> dict:
        """Frame columns for CSV export, in FRAME_COLUMNS order."""
        return {"t": self.t_grid,
                **{name: getattr(self, name) for name in FRAME_COLUMNS[1:]}}


@np.errstate(over="ignore")
def _implicit_midpoint(model: DriftModel, eps: float, t_grid: np.ndarray,
                       y0: float) -> np.ndarray:
    """March eps*y' = f(t, y) from y(t_grid[0]) = y0 over t_grid with the
    implicit midpoint rule; a decreasing t_grid marches backwards.  An
    overflow shows as a non-finite residual, which raises StiffnessFailure."""
    n = len(t_grid)
    y = np.empty(n)
    y[0] = y0
    for i in range(n - 1):
        h = t_grid[i + 1] - t_grid[i]  # signed step
        tm = t_grid[i] + 0.5 * h
        yi = y[i]
        z = yi + (h / eps) * float(model.f(t_grid[i], yi))  # Euler predictor
        converged = False
        for _ in range(60):
            mid = 0.5 * (yi + z)
            g = z - yi - (h / eps) * float(model.f(tm, mid))
            dg = 1.0 - (h / (2.0 * eps)) * float(model.dfdphi(tm, mid))
            if dg == 0.0 or not np.isfinite(g):
                break
            step = g / dg
            z -= step
            if abs(step) <= 1e-14 * max(1.0, abs(z)):
                converged = True
                break
        if not converged:
            mid = 0.5 * (yi + z)
            g = z - yi - (h / eps) * float(model.f(tm, mid))
            if not (np.isfinite(g) and abs(g) <= 1e-10 * max(1.0, abs(z))):
                raise StiffnessFailure(
                    f"implicit midpoint stalled at t={t_grid[i]:.6g}")
        y[i + 1] = z
    return y


def _track(model: DriftModel, eps: float, t: np.ndarray, y0: float,
           direction: int):
    """Tracking solution from y0 (at t[0] forwards, at t[-1] backwards).

    Returns the solution y, df/dphi along y and the cumulative trapezoid
    integral of df/dphi from t[0], all indexed like t.
    """
    y = _implicit_midpoint(model, eps, t[::direction], y0)[::direction]
    a = np.asarray(model.dfdphi(t, y), dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(t))))
    return y, a, cum


def _zeta(t: np.ndarray, abar: np.ndarray, eps: float) -> np.ndarray:
    """Solve eps * zeta' = 2 abar zeta + 1, zeta(t[0]) = 1/(2|abar(t[0])|).

    Implicit midpoint; for frozen abar the stationary value -1/(2 abar) is an
    exact fixed point of the update.
    """
    n = len(t)
    zeta = np.empty(n)
    zeta[0] = 1.0 / (2.0 * abs(abar[0]))
    for i in range(n - 1):
        h = t[i + 1] - t[i]
        am = 0.5 * (abar[i] + abar[i + 1])
        denom = 1.0 - (h / eps) * am
        if denom <= 0:
            raise StiffnessFailure("zeta update lost positivity margin")
        zeta[i + 1] = (zeta[i] * (1.0 + (h / eps) * am) + h / eps) / denom
    if np.any(zeta <= 0):
        raise StiffnessFailure("zeta left the positive cone")
    return zeta


def build_frame(model: DriftModel, eps: float, T0: float,
                grid_step: Optional[float] = None,
                branch: str = "upper") -> AdiabaticFrame:
    """The adiabatic frame of ``model`` on [-T0, T0] (module docstring).

    phibar starts on the ``branch`` stable root at -T0, phihat ends on the
    lower unstable root at +T0.  The grid step defaults to eps/10 and must
    not exceed eps/4.  Every column is read-only.
    """
    if not eps > 0:
        raise ValueError("eps: must be > 0")
    if not T0 > 0:
        raise ValueError("T0: must be > 0")
    grid_step = eps / 10 if grid_step is None else grid_step
    if not 0 < grid_step <= eps / 4:
        raise ValueError(f"grid_step: must lie in (0, eps/4 = {eps / 4}]")
    n_steps = int(round(2.0 * T0 / grid_step))
    if n_steps < 2:
        raise ValueError("grid_step too coarse for the interval")
    t = np.linspace(-T0, T0, n_steps + 1)
    phibar, abar, alphabar_cum = _track(
        model, eps, t, equilibrium_branches(model, t[0]).root(branch), +1)
    try:
        y0 = equilibrium_branches(model, t[-1]).root("lower", stable=False)
    except ValueError:
        phihat = ahat = alphahat_cum = np.full(len(t), np.nan)
    else:
        phihat, ahat, alphahat_cum = _track(model, eps, t, y0, -1)
    columns = (t, phibar, phihat, abar, ahat, _zeta(t, abar, eps),
               alphabar_cum, alphahat_cum)
    for arr in columns:
        arr.flags.writeable = False
    return AdiabaticFrame(*columns)


def deterministic_pde_track(model: DriftModel, eps: float, spec: TorusSpec,
                            T: float, record_stride: int = 1):
    """Deterministic (sigma=0) field trajectory from the upper stable branch
    state at t=0.

    Runs the stochastic integrator at sigma=0 and the default step from
    phi(0, .) = phi*(0) e_0 over [0, T]; returns (times, fields).  The max
    H^1 distance to the moving branch is O(eps), and the transverse part
    stays at roundoff since the constant modes form an invariant subspace of
    the deterministic flow.
    """
    init = SpectralField.constant(spec, equilibrium_branches(model, 0.0).root())
    dt, t_end = step_grid(eps, 0.0, T)
    cfg = SimConfig(eps=eps, sigma=0.0, dt=dt, spec=spec, t_start=0.0,
                    t_end=t_end, record_stride=record_stride,
                    record_fields=True)
    rec = simulate_batch(cfg, model, init, None)[0]
    return cfg.record_times(), [SpectralField(spec, c) for c in rec["fields"]]
