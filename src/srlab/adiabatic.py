"""Deterministic slow-manifold objects for the scalar mean-mode dynamics.

The spatially constant particular solutions of the deterministic equation
obey the scalar slow ODE  eps * dphi/dt = f(t, phi).  This module computes

* phibar(t): the solution tracking the upper stable branch, started on the
  branch at -T0 (lags the branch by O(eps/|t|) away from the bifurcation
  window and sits at O(sqrt(delta v eps)) inside it);
* phihat(t): the solution tracking the unstable branch, obtained by backward
  integration (the unstable branch attracts in reversed time);
* abar/ahat: the drift linearisations along those solutions;
* zeta(t):   the tube-width function solving eps * dzeta = 2 abar zeta + 1
  with zeta(-T0) = 1/(2 |abar(-T0)|), which stays ~ 1/|abar(t)|;
* cumulative integrals of abar/ahat for the exponential envelopes.

All scalar ODEs use a fixed-step implicit midpoint rule (A-stable and
symmetric; the stiffness ratio is 1/eps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import DriftModel, equilibrium_branches
from .spectral import SpectralField, TorusSpec

__all__ = [
    "AdiabaticFrame",
    "track_stable",
    "track_unstable",
    "zeta_solve",
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


@dataclass
class AdiabaticFrame:
    """Sampled deterministic objects on a uniform t-grid over [-T0, T0]."""

    model: DriftModel
    eps: float
    t_grid: np.ndarray
    phibar: Optional[np.ndarray] = None
    phihat: Optional[np.ndarray] = None
    abar: Optional[np.ndarray] = None
    ahat: Optional[np.ndarray] = None
    zeta: Optional[np.ndarray] = None
    alphabar_cum: Optional[np.ndarray] = None
    alphahat_cum: Optional[np.ndarray] = None

    def _interp(self, arr: Optional[np.ndarray], t, name: str):
        if arr is None:
            raise ValueError(f"frame column {name!r} not populated")
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_grid[0], self.t_grid[-1]
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise OutOfRange(f"t={t} outside frame range [{lo}, {hi}]")
        out = np.interp(t, self.t_grid, arr)
        return float(out) if out.ndim == 0 else out

    def phibar_at(self, t):
        return self._interp(self.phibar, t, "phibar")

    def zeta_at(self, t):
        return self._interp(self.zeta, t, "zeta")

    def freeze(self) -> "AdiabaticFrame":
        for name in ("t_grid", "phibar", "phihat", "abar", "ahat", "zeta",
                     "alphabar_cum", "alphahat_cum"):
            arr = getattr(self, name)
            if arr is not None:
                arr.flags.writeable = False
        return self

    def columns(self) -> dict:
        """Frame columns for CSV export, in fixed order (missing -> NaN)."""
        n = len(self.t_grid)
        out = {"t": self.t_grid}
        for name in FRAME_COLUMNS[1:]:
            arr = getattr(self, name)
            out[name] = arr if arr is not None else np.full(n, np.nan)
        return out


def _implicit_midpoint(model: DriftModel, eps: float, t_grid: np.ndarray,
                       y0: float, direction: int = +1) -> np.ndarray:
    """March eps*y' = f(t, y) over t_grid with the implicit midpoint rule.

    ``direction=-1`` marches from the last grid point backwards; the returned
    array is always indexed like t_grid.
    """
    n = len(t_grid)
    y = np.empty(n)
    order = range(n - 1) if direction > 0 else range(n - 1, 0, -1)
    if direction > 0:
        y[0] = y0
    else:
        y[-1] = y0
    for i in order:
        j = i + 1 if direction > 0 else i - 1
        h = t_grid[j] - t_grid[i]  # signed step
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
        y[j] = z
    return y


def _make_grid(T0: float, grid_step: float) -> np.ndarray:
    n_steps = int(round(2.0 * T0 / grid_step))
    if n_steps < 2:
        raise ValueError("grid_step too coarse for the interval")
    return np.linspace(-T0, T0, n_steps + 1)


def _check_pre(eps: float, grid_step: float):
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if grid_step > eps / 4 + 1e-15:
        raise ValueError(f"grid_step={grid_step} must be <= eps/4={eps / 4}")


def track_stable(model: DriftModel, eps: float, T0: float,
                 grid_step: Optional[float] = None,
                 branch: str = "upper") -> AdiabaticFrame:
    """Tracking solution of the stable branch: start on the branch at -T0.

    Fills phibar, abar and the cumulative integral of abar.
    """
    grid_step = eps / 10 if grid_step is None else grid_step
    _check_pre(eps, grid_step)
    t = _make_grid(T0, grid_step)
    y0 = equilibrium_branches(model, t[0]).root(branch)
    phibar = _implicit_midpoint(model, eps, t, y0, direction=+1)
    abar = np.asarray(model.dfdphi(t, phibar), dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (abar[1:] + abar[:-1]) * np.diff(t))))
    return AdiabaticFrame(model=model, eps=eps, t_grid=t, phibar=phibar,
                          abar=abar, alphabar_cum=cum).freeze()


def track_unstable(model: DriftModel, eps: float, T0: float,
                   grid_step: Optional[float] = None,
                   branch: str = "lower") -> AdiabaticFrame:
    """Tracking solution of the unstable branch via backward integration.

    The unstable branch attracts in reversed time, so the ODE is marched from
    phi(+T0) = unstable root at +T0 down to -T0; arrays are forward-indexed.
    """
    grid_step = eps / 10 if grid_step is None else grid_step
    _check_pre(eps, grid_step)
    t = _make_grid(T0, grid_step)
    y0 = equilibrium_branches(model, t[-1]).root(branch, stable=False)
    phihat = _implicit_midpoint(model, eps, t, y0, direction=-1)
    ahat = np.asarray(model.dfdphi(t, phihat), dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (ahat[1:] + ahat[:-1]) * np.diff(t))))
    return AdiabaticFrame(model=model, eps=eps, t_grid=t, phihat=phihat,
                          ahat=ahat, alphahat_cum=cum).freeze()


def zeta_solve(frame: AdiabaticFrame) -> np.ndarray:
    """Solve eps * zeta' = 2 abar zeta + 1, zeta(-T0) = 1/(2|abar(-T0)|).

    Implicit midpoint; for frozen abar the stationary value -1/(2 abar) is an
    exact fixed point of the update.
    """
    if frame.phibar is None or frame.abar is None:
        raise ValueError("zeta_solve needs phibar/abar (run track_stable first)")
    t, abar, eps = frame.t_grid, frame.abar, frame.eps
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
                branch: str = "upper", with_unstable: bool = True,
                with_zeta: bool = True) -> AdiabaticFrame:
    """Convenience: stable + unstable tracking + zeta in one frame.

    Models without an unstable branch (frozen linear drifts, supercritical
    forcing) get a frame with the phihat columns left empty.
    """
    fr = track_stable(model, eps, T0, grid_step, branch=branch)
    if with_unstable:
        try:
            fu = track_unstable(model, eps, T0, grid_step)
        except ValueError:
            fu = None
        if fu is not None:
            fr = replace(fr, phihat=fu.phihat, ahat=fu.ahat,
                         alphahat_cum=fu.alphahat_cum)
    if with_zeta:
        fr = replace(fr, zeta=zeta_solve(fr))
    return fr.freeze()


def deterministic_pde_track(model: DriftModel, eps: float, spec: TorusSpec,
                            T: float, branch: str = "upper",
                            dt: Optional[float] = None,
                            record_stride: int = 1):
    """Deterministic (sigma=0) field trajectory from the branch state at t=0.

    Runs the stochastic integrator at sigma=0 from phi(0, .) = phi*(0) e_0
    over [0, T]; returns (times, fields).  The max H^1 distance to the moving
    branch is O(eps), and the transverse part stays at roundoff since the
    constant modes form an invariant subspace of the deterministic flow.
    """
    from .integrator import SimConfig, simulate_batch

    init = SpectralField.constant(spec, equilibrium_branches(model, 0.0).root(branch))
    dt = eps / 20 if dt is None else dt
    n_steps = max(1, int(round(T / dt)))
    cfg = SimConfig(eps=eps, sigma=0.0, dt=dt, spec=spec, t_start=0.0,
                    t_end=n_steps * dt, record_stride=record_stride,
                    record_fields=True)
    rec = simulate_batch(cfg, model, init, None)[0]
    return cfg.record_times(), [SpectralField(spec, c) for c in rec["fields"]]
