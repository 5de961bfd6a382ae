"""Drift nonlinearities and their equilibrium branches.

The drifts:

* Allen-Cahn,  f(t, phi) = phi - phi^3 + A cos t, with critical forcing
  amplitude A_c = 2/(3 sqrt 3) at which a stable and the unstable branch
  collide once per period.
* bifurcation normal form,  f(t, phi) = (delta + a1 t^2) - phi^2 - cubic phi^3,
  an avoided transcritical point at the origin with gap ~ sqrt(delta).
* linear drift  f(t, phi) = a phi + c  for frozen-coefficient studies.

A ``DriftModel`` is plain data, a drift kind and its parameters: ``f`` and
``dfdphi`` dispatch to the kind's module-level functions, so two models with
the same parameters compare equal and every model pickles.  ``DriftKind``'s
values are the ``[model] kind`` strings of a run configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DriftKind",
    "DriftModel",
    "BranchSet",
    "Stability",
    "allen_cahn",
    "normal_form",
    "linear_drift",
    "equilibrium_branches",
    "ALLEN_CAHN_CRITICAL",
    "RootBracketExhausted",
]

ALLEN_CAHN_CRITICAL = 2.0 / (3.0 * np.sqrt(3.0))

# equilibrium_branches looks for roots in [-ROOT_BRACKET, ROOT_BRACKET]
ROOT_BRACKET = 3.0

# Roots closer than this are reported as one double root; avoids spurious
# stability flips at (avoided) transcritical points.
DOUBLE_ROOT_TOL = 1e-7


class RootBracketExhausted(RuntimeError):
    """No root could be located/polished inside the configured bracket."""


class DriftKind(enum.Enum):
    ALLEN_CAHN = "allen-cahn"
    NORMAL_FORM = "normal-form"
    LINEAR = "linear"


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


def _allen_cahn_f(t, p, amplitude):
    return p - p**3 + amplitude * np.cos(t)


def _allen_cahn_dfdphi(t, p, amplitude):
    return 1.0 - 3.0 * p**2


def _normal_form_f(t, p, delta, cubic, a1):
    if cubic == 0.0:
        return (delta + a1 * t * t) - p * p
    return (delta + a1 * t * t) - p**2 - cubic * p**3


def _normal_form_dfdphi(t, p, delta, cubic, a1):
    if cubic == 0.0:
        return -2.0 * p
    return -2.0 * p - 3.0 * cubic * p**2


def _linear_f(t, p, a, c):
    return a * p + c


def _linear_dfdphi(t, p, a, c):
    return a * np.ones_like(np.asarray(p, dtype=float))


# (f, df/dphi) of each kind, called as fn(t, phi, **params)
_DRIFTS = {
    DriftKind.ALLEN_CAHN: (_allen_cahn_f, _allen_cahn_dfdphi),
    DriftKind.NORMAL_FORM: (_normal_form_f, _normal_form_dfdphi),
    DriftKind.LINEAR: (_linear_f, _linear_dfdphi),
}


@dataclass(frozen=True)
class DriftModel:
    """Time-dependent scalar drift f(t, phi) and its phi-derivative,
    evaluated from the kind's functions with ``params``."""

    kind: DriftKind
    params: dict = field(default_factory=dict)

    def f(self, t: float, phi):
        return _DRIFTS[self.kind][0](t, phi, **self.params)

    def dfdphi(self, t: float, phi):
        return _DRIFTS[self.kind][1](t, phi, **self.params)


def allen_cahn(amplitude: float) -> DriftModel:
    """Slow-time Allen-Cahn drift f(t, phi) = phi - phi^3 + A cos t."""
    if amplitude < 0:
        raise ValueError("forcing amplitude must be >= 0")
    return DriftModel(DriftKind.ALLEN_CAHN, {"amplitude": float(amplitude)})


def normal_form(delta: float, cubic: float = 0.0, a1: float = 1.0) -> DriftModel:
    """Avoided-transcritical normal form f = (delta + a1 t^2) - phi^2 - cubic phi^3.

    The O(t^3), O(t phi^2), O(t^2 phi) remainders of the general local form
    are fixed to zero: the near-origin scalings are insensitive to them and a
    concrete representative keeps runs reproducible.
    """
    if delta < 0:
        raise ValueError("branch gap delta must be >= 0")
    if a1 <= 0:
        raise ValueError("quadratic-time coefficient a1 must be > 0")
    return DriftModel(DriftKind.NORMAL_FORM, {
        "delta": float(delta), "cubic": float(cubic), "a1": float(a1)})


def linear_drift(a: float, c: float = 0.0) -> DriftModel:
    """Frozen linear drift f(t, phi) = a phi + c (stable for a < 0)."""
    return DriftModel(DriftKind.LINEAR, {"a": float(a), "c": float(c)})


@dataclass(frozen=True)
class BranchSet:
    """Equilibria of phi -> f(t, phi) at one time, sorted ascending."""

    t: float
    roots: tuple
    stability: tuple
    a_values: tuple          # linearisation df/dphi at each root

    def stable_roots(self) -> list[float]:
        return [r for r, s in zip(self.roots, self.stability) if s is Stability.STABLE]

    def unstable_roots(self) -> list[float]:
        return [r for r, s in zip(self.roots, self.stability) if s is Stability.UNSTABLE]

    def root(self, branch: str = "upper", stable: bool = True) -> float:
        """The upper or lower stable (or unstable) root; ValueError if none."""
        roots = self.stable_roots() if stable else self.unstable_roots()
        if not roots:
            kind = "stable" if stable else "unstable"
            raise ValueError(f"no {kind} equilibrium at t={self.t}")
        return max(roots) if branch == "upper" else min(roots)


def _polish_root(g, lo: float, hi: float, maxit: int = 80) -> float:
    """Bisection to near-convergence, then secant steps; g(lo), g(hi) straddle 0."""
    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        fm = g(mid)
        if fm == 0.0 or hi - lo < 1e-13 * max(1.0, abs(mid)):
            lo = hi = mid
            break
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    x0, x1 = lo, hi if hi != lo else lo + 1e-13
    f0, f1 = g(x0), g(x1)
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x0, f0, x1, f1 = x1, f1, x2, g(x2)
    return x1 if abs(g(x1)) <= abs(g(0.5 * (lo + hi))) else 0.5 * (lo + hi)


def equilibrium_branches(model: DriftModel, t: float) -> BranchSet:
    """All real roots of f(t, .) in [-ROOT_BRACKET, ROOT_BRACKET] with
    stability labels.

    Sign-scan on 2001 points plus bisection/secant polishing; tangential
    double roots are caught through the critical points of f and reported
    once, as MARGINAL.  Residuals are <= 1e-10.
    """
    g = lambda p: float(model.f(t, p))
    xs = np.linspace(-ROOT_BRACKET, ROOT_BRACKET, 2001)
    sign = np.sign(np.asarray(model.f(t, xs), dtype=float))
    # scan points where f is exactly 0, then the brackets where it changes sign
    roots: list[float] = xs[sign == 0].tolist()
    roots += [_polish_root(g, float(xs[i]), float(xs[i + 1]))
              for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]

    # tangencies: critical points of f where f itself vanishes (double roots)
    dg = lambda p: float(model.dfdphi(t, p))
    dsign = np.sign(np.asarray(model.dfdphi(t, xs), dtype=float))
    for i in np.flatnonzero(dsign[:-1] * dsign[1:] < 0):
        xc = _polish_root(dg, float(xs[i]), float(xs[i + 1]))
        if abs(g(xc)) <= 1e-8 and all(abs(xc - r) > DOUBLE_ROOT_TOL
                                      for r in roots):
            roots.append(xc)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) < DOUBLE_ROOT_TOL:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)
    if not merged:
        raise RootBracketExhausted(
            f"no root of f({t}, .) found in [-{ROOT_BRACKET}, {ROOT_BRACKET}]")

    out_stab, out_a = [], []
    for r in merged:
        res = abs(g(r))
        if res > 1e-10:
            raise RootBracketExhausted(
                f"root polishing stalled at phi={r} (residual {res:.2e})")
        a = dg(r)
        if a < -1e-9:
            stab = Stability.STABLE
        elif a > 1e-9:
            stab = Stability.UNSTABLE
        else:
            stab = Stability.MARGINAL
        out_stab.append(stab)
        out_a.append(a)
    return BranchSet(t=float(t), roots=tuple(merged), stability=tuple(out_stab),
                     a_values=tuple(out_a))
