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

Each drift is, at fixed t, a polynomial in phi of degree <= 3, and each kind
lists its coefficients beside ``f`` and ``dfdphi``.  ``equilibrium_branches``
takes the real roots of that polynomial, wherever on the real line they lie.
"""

from __future__ import annotations

import enum
import math
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
]

ALLEN_CAHN_CRITICAL = 2.0 / (3.0 * np.sqrt(3.0))

# Roots closer than this are reported as one double root; avoids spurious
# stability flips at (avoided) transcritical points.
DOUBLE_ROOT_TOL = 1e-7


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


# (f, df/dphi, the coefficients of f(t, .) as a polynomial in phi, highest
# power first) of each kind, called as fn(t, [phi,] **params)
_DRIFTS = {
    DriftKind.ALLEN_CAHN: (_allen_cahn_f, _allen_cahn_dfdphi,
                           lambda t, amplitude:
                           [-1.0, 0.0, 1.0, amplitude * np.cos(t)]),
    DriftKind.NORMAL_FORM: (_normal_form_f, _normal_form_dfdphi,
                            lambda t, delta, cubic, a1:
                            [-cubic, -1.0, 0.0, delta + a1 * t * t]),
    DriftKind.LINEAR: (_linear_f, _linear_dfdphi, lambda t, a, c: [a, c]),
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


def _quadratic(a, b, c) -> list:
    """Real roots of a x^2 + b x + c, a != 0; a complex pair closer than
    DOUBLE_ROOT_TOL is a double real root, as a real pair that close is."""
    h, q = -0.5 * b / a, c / a
    disc = h * h - q
    if disc < -0.25 * DOUBLE_ROOT_TOL**2:
        return []
    r = math.sqrt(max(disc, 0.0))
    return [h - r, h + r]


def _newton(x, g, dg):
    """x after up to two Newton steps on g, each kept only if it lowers |g|."""
    for _ in range(2):
        gx = g(x)
        y = x - gx / dg(x)
        if not abs(g(y)) < abs(gx):
            break
        x = y
    return x


def _real_roots(c: np.ndarray, g, dg) -> list:
    """Real roots of the polynomial ``c`` (highest power first, degree <= 3)
    that g and dg evaluate.

    A leading coefficient that is zero, or so small that the others overflow
    when divided by it, has no finite root and is dropped.  A cubic divides
    its largest real root from np.roots out from the constant term up (stable
    for that root), after Newton steps on it, and polishes the roots of the
    quadratic left the same way: np.roots alone loses roots far smaller than
    the largest one.
    """
    while len(c) > 1 and not np.isfinite(c[1:] / c[0]).all():
        c = c[1:]
    if len(c) == 3:
        return _quadratic(*c)
    if len(c) < 3:
        return [-c[1] / c[0]] if len(c) == 2 else []
    z = np.roots(c)
    real = z.real[z.imag == 0]
    r = _newton(real[np.argmax(abs(real))], g, dg)
    q0 = -c[3] / r
    q1 = (q0 - c[2]) / r
    return [r] + [_newton(x, g, dg)
                  for x in _quadratic((q1 - c[1]) / r, q1, q0)]


@np.errstate(all="ignore")
def equilibrium_branches(model: DriftModel, t: float) -> BranchSet:
    """All real roots of f(t, .), the polynomial in phi that the drift is at
    t, with stability labels.

    Roots closer than DOUBLE_ROOT_TOL are reported once, at their mean, so a
    double root is one root, labelled MARGINAL.  A drift constant in phi
    (linear with a = 0) has no isolated root: the set is empty.  The
    quadratic normal form's roots are -+sqrt(delta + a1 t^2) exactly.
    """
    g = lambda p: model.f(t, np.float64(p))
    dg = lambda p: model.dfdphi(t, np.float64(p))
    coeffs = np.array(_DRIFTS[model.kind][2](t, **model.params), dtype=float)
    merged: list[float] = []
    for r in sorted(float(r) + 0.0 for r in _real_roots(coeffs, g, dg)
                    if math.isfinite(r)):    # + 0.0 turns -0.0 into 0.0
        if merged and r - merged[-1] < DOUBLE_ROOT_TOL:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)
    a_values = tuple(float(dg(r)) for r in merged)
    stability = tuple(Stability.STABLE if a < -1e-9 else
                      Stability.UNSTABLE if a > 1e-9 else Stability.MARGINAL
                      for a in a_values)
    return BranchSet(t=float(t), roots=tuple(merged), stability=stability,
                     a_values=a_values)
