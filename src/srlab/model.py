"""Drift nonlinearities, equilibrium branches, and the bifurcation split system.

Built-in drifts:

* Allen-Cahn,  f(t, phi) = phi - phi^3 + A cos t, with critical forcing
  amplitude A_c = 2/(3 sqrt 3) at which a stable and the unstable branch
  collide once per period.
* bifurcation normal form,  f(t, phi) = (delta + a1 t^2) - phi^2 - cubic phi^3,
  an avoided transcritical point at the origin with gap ~ sqrt(delta).
* linear / custom drifts for frozen-coefficient studies.

The mean/transverse decomposition phi = phi0 e_0 + phi_perp turns the normal
form SPDE into a scalar equation for phi0 coupled to a zero-mean equation for
phi_perp, with nonlocal remainders b0, b_perp and transverse linearisation
a(t, phi0); ``perp_remainders`` evaluates those and ``drift_apply`` the plain
pointwise drift (the two agree when recombined on the unit-length torus).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral import SpectralField, batch_from_physical, from_physical, to_physical

__all__ = [
    "DriftKind",
    "DriftModel",
    "BranchSet",
    "Stability",
    "allen_cahn",
    "normal_form",
    "linear_drift",
    "custom_drift",
    "equilibrium_branches",
    "linearization",
    "critical_amplitude",
    "perp_remainders",
    "drift_apply",
    "recentre_allen_cahn",
    "ALLEN_CAHN_CRITICAL",
    "RootBracketExhausted",
    "UnsupportedModel",
]

ALLEN_CAHN_CRITICAL = 2.0 / (3.0 * np.sqrt(3.0))

# Roots closer than this are reported as one double root; avoids spurious
# stability flips at (avoided) transcritical points.
DOUBLE_ROOT_TOL = 1e-7


class RootBracketExhausted(RuntimeError):
    """No root could be located/polished inside the configured bracket."""


class UnsupportedModel(ValueError):
    """Operation needs analytic structure this drift kind does not carry."""


class DriftKind(enum.Enum):
    ALLEN_CAHN = "allen-cahn"
    NORMAL_FORM = "normal-form"
    CUSTOM = "custom"


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class DriftModel:
    """Time-dependent scalar drift f(t, phi) with phi-derivatives.

    ``degree`` is the polynomial degree of f in phi (2 p0 - 1 for a potential
    of degree 2 p0); ``bound_m`` bounds the non-polynomial part.  For custom
    drifts the growth/boundedness assumptions are a caller obligation.
    """

    kind: DriftKind
    params: dict = field(default_factory=dict)
    degree: int = 3
    bound_m: float = 0.0
    _f: Callable = field(repr=False, default=None)
    _dfdphi: Callable = field(repr=False, default=None)
    _d2fdphi2: Callable = field(repr=False, default=None)
    _potential: Optional[Callable] = field(repr=False, default=None)
    # remainder part b(t, phi) of the normal form drift and its derivatives
    _b: Optional[Callable] = field(repr=False, default=None)
    _dbdphi: Optional[Callable] = field(repr=False, default=None)
    _d2bdphi2: Optional[Callable] = field(repr=False, default=None)

    def f(self, t: float, phi):
        return self._f(t, phi)

    def dfdphi(self, t: float, phi):
        return self._dfdphi(t, phi)

    def d2fdphi2(self, t: float, phi):
        return self._d2fdphi2(t, phi)

    def potential(self, t: float, phi):
        if self._potential is None:
            raise UnsupportedModel(f"{self.kind.value} drift carries no potential")
        return self._potential(t, phi)

    def digest_payload(self) -> dict:
        """Stable description for hashing into batch digests."""
        return {"kind": self.kind.value,
                "params": {k: self.params[k] for k in sorted(self.params)},
                "degree": self.degree, "bound_m": self.bound_m}


def allen_cahn(amplitude: float) -> DriftModel:
    """Slow-time Allen-Cahn drift f(t, phi) = phi - phi^3 + A cos t."""
    if amplitude < 0:
        raise ValueError("forcing amplitude must be >= 0")
    A = float(amplitude)
    return DriftModel(
        kind=DriftKind.ALLEN_CAHN,
        params={"amplitude": A},
        degree=3,
        _f=lambda t, p: p - p**3 + A * np.cos(t),
        _dfdphi=lambda t, p: 1.0 - 3.0 * p**2,
        _d2fdphi2=lambda t, p: -6.0 * p,
        _potential=lambda t, p: 0.25 * p**4 - 0.5 * p**2 - A * np.cos(t) * p,
    )


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
    d, c, a1 = float(delta), float(cubic), float(a1)
    if c == 0.0:
        f = lambda t, p: (d + a1 * t * t) - p * p
        dfdphi = lambda t, p: -2.0 * p
        d2fdphi2 = lambda t, p: -2.0 + 0.0 * np.asarray(p, dtype=float)
    else:
        f = lambda t, p: (d + a1 * t * t) - p**2 - c * p**3
        dfdphi = lambda t, p: -2.0 * p - 3.0 * c * p**2
        d2fdphi2 = lambda t, p: -2.0 - 6.0 * c * p
    return DriftModel(
        kind=DriftKind.NORMAL_FORM,
        params={"delta": d, "cubic": c, "a1": a1},
        degree=3 if c != 0.0 else 2,
        _f=f,
        _dfdphi=dfdphi,
        _d2fdphi2=d2fdphi2,
        _potential=lambda t, p: -((d + a1 * t**2) * p - p**3 / 3.0 - c * p**4 / 4.0),
        _b=lambda t, p: c * p**3,
        _dbdphi=lambda t, p: 3.0 * c * p**2,
        _d2bdphi2=lambda t, p: 6.0 * c * p,
    )


def linear_drift(a: float, c: float = 0.0) -> DriftModel:
    """Frozen linear drift f(t, phi) = a phi + c (stable for a < 0)."""
    a, c = float(a), float(c)
    return DriftModel(
        kind=DriftKind.CUSTOM,
        params={"a": a, "c": c},
        degree=1,
        _f=lambda t, p: a * p + c,
        _dfdphi=lambda t, p: a * np.ones_like(np.asarray(p, dtype=float)),
        _d2fdphi2=lambda t, p: np.zeros_like(np.asarray(p, dtype=float)),
        _potential=lambda t, p: -(0.5 * a * p**2 + c * p),
    )


def custom_drift(f: Callable, dfdphi: Callable = None, d2fdphi2: Callable = None,
                 potential: Callable = None, degree: int = 3,
                 bound_m: float = 0.0, params: dict = None) -> DriftModel:
    """Wrap a user drift; derivatives default to central finite differences.

    The polynomial-plus-bounded structure (degree, bounds) is asserted by the
    caller, not verified.
    """
    if dfdphi is None:
        h = 1e-6
        dfdphi = lambda t, p: (f(t, p + h) - f(t, p - h)) / (2 * h)
    if d2fdphi2 is None:
        h = 1e-5
        d2fdphi2 = lambda t, p: (f(t, p + h) - 2.0 * f(t, p) + f(t, p - h)) / h**2
    return DriftModel(kind=DriftKind.CUSTOM, params=dict(params or {}),
                      degree=degree, bound_m=bound_m,
                      _f=f, _dfdphi=dfdphi, _d2fdphi2=d2fdphi2,
                      _potential=potential)


@dataclass(frozen=True)
class BranchSet:
    """Equilibria of phi -> f(t, phi) at one time, sorted ascending."""

    t: float
    roots: tuple
    stability: tuple
    a_values: tuple          # linearisation df/dphi at each root
    multiplicity: tuple

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


def equilibrium_branches(model: DriftModel, t: float, bracket: float = 3.0,
                         n_scan: int = 2001) -> BranchSet:
    """All real roots of f(t, .) in [-bracket, bracket] with stability labels.

    Sign-scan plus bisection/secant polishing; tangential double roots are
    caught through the critical points of f.  Residuals are <= 1e-10.
    """
    g = lambda p: float(model.f(t, p))
    xs = np.linspace(-bracket, bracket, n_scan)
    fs = np.asarray(model.f(t, xs), dtype=float)
    roots: list[tuple[float, int]] = []
    sign = np.sign(fs)
    for i in range(len(xs) - 1):
        if sign[i] == 0.0:
            roots.append((float(xs[i]), 1))
        elif sign[i] * sign[i + 1] < 0:
            roots.append((_polish_root(g, float(xs[i]), float(xs[i + 1])), 1))
    if sign[-1] == 0.0:
        roots.append((float(xs[-1]), 1))

    # tangencies: critical points of f where f itself vanishes (double roots)
    dg = lambda p: float(model.dfdphi(t, p))
    dfs = np.asarray(model.dfdphi(t, xs), dtype=float)
    dsign = np.sign(dfs)
    for i in range(len(xs) - 1):
        if dsign[i] * dsign[i + 1] < 0:
            xc = _polish_root(dg, float(xs[i]), float(xs[i + 1]))
            if abs(g(xc)) <= 1e-8 and all(abs(xc - r) > DOUBLE_ROOT_TOL
                                          for r, _ in roots):
                roots.append((xc, 2))

    roots.sort()
    merged: list[tuple[float, int]] = []
    for r, m0 in roots:
        if merged and abs(r - merged[-1][0]) < DOUBLE_ROOT_TOL:
            prev, m = merged[-1]
            merged[-1] = (0.5 * (prev + r), m + m0)
        else:
            merged.append((r, m0))
    if not merged:
        raise RootBracketExhausted(
            f"no root of f({t}, .) found in [-{bracket}, {bracket}]")

    out_roots, out_stab, out_a, out_mult = [], [], [], []
    for r, m in merged:
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
            if m == 1:  # tangency: f keeps its sign across the root
                probe = 1e-4 * max(1.0, abs(r))
                if g(r - probe) * g(r + probe) > 0:
                    m = 2
        out_roots.append(r)
        out_stab.append(stab)
        out_a.append(a)
        out_mult.append(m)
    return BranchSet(t=float(t), roots=tuple(out_roots), stability=tuple(out_stab),
                     a_values=tuple(out_a), multiplicity=tuple(out_mult))


def linearization(model: DriftModel, t: float, phi: float) -> float:
    """a = df/dphi at (t, phi)."""
    return float(model.dfdphi(t, phi))


def critical_amplitude(model: DriftModel) -> float:
    """Forcing value at which stable and unstable branches collide."""
    if model.kind is DriftKind.ALLEN_CAHN:
        return ALLEN_CAHN_CRITICAL
    if model.kind is DriftKind.NORMAL_FORM:
        return 0.0  # branches collide iff delta = 0 (at t = 0)
    raise UnsupportedModel("no analytic branch-collision data for custom drift")


def drift_apply(model: DriftModel, t: float, fld: SpectralField) -> SpectralField:
    """Spectral coefficients of x -> f(t, phi(x)), truncated to the cutoff.

    Pointwise evaluation on the physical grid; the default grid size (4K)
    dealiases the cubic built-in drifts.
    """
    vals = model.f(t, to_physical(fld))
    return from_physical(np.asarray(vals, dtype=float), fld.spec)


def perp_remainders(model: DriftModel, t: float, phi0: float,
                    phiperp: SpectralField) -> tuple[float, float, SpectralField]:
    """Remainders (b0, a, b_perp) of the mean/transverse split system.

    With phi = phi0 e_0 + phi_perp the drift splits into

        dphi0   ~ g(t) - phi0^2 - b(t, phi0 e_0) + b0(t, phi0, phi_perp)
        dphiperp~ Lap phi_perp + a(t, phi0) phi_perp + b_perp(...)

    where, writing R for the cubic-and-higher Taylor remainder of b around
    the constant state,

        b0     = -(1 + d2b/(2L)) ||phi_perp||_{L^2}^2 - <e_0, R>/sqrt(L)
        a      = -2 phi0 - db/sqrt(L)
        b_perp = -sqrt(L) (1 + d2b/(2L)) (phi_perp^2 - ||phi_perp||^2/L)
                 - R/sqrt(L) + <e_0, R>/L .

    On the unit-length torus this is the exact orthogonal projection of the
    pointwise drift (recombination reproduces ``drift_apply``).
    """
    if model.kind is not DriftKind.NORMAL_FORM:
        raise UnsupportedModel(
            "perp_remainders needs the normal form (recentre Allen-Cahn first)")
    spec = phiperp.spec
    L = spec.L
    e0 = 1.0 / np.sqrt(L)
    v0 = phi0 * e0  # pointwise value of the constant part

    b = model._b
    db = model._dbdphi
    d2b = model._d2bdphi2

    a = -2.0 * phi0 - db(t, v0) / np.sqrt(L)

    w = to_physical(phiperp)
    l2sq = float(np.sum(phiperp.coeffs**2))  # Parseval
    # Taylor remainder of b beyond second order, evaluated exactly pointwise
    rvals = b(t, v0 + w) - b(t, v0) - db(t, v0) * w - 0.5 * d2b(t, v0) * w**2
    e0_r = spec.quad_weight * float(np.sum(rvals)) * e0

    curv = 1.0 + d2b(t, v0) / (2.0 * L)
    b0 = -curv * l2sq - e0_r / np.sqrt(L)

    bp_vals = (-np.sqrt(L) * curv * (w**2 - l2sq / L)
               - rvals / np.sqrt(L) + e0_r / L)
    bp = batch_from_physical(bp_vals, spec)
    bp[spec.index_of(0)] = 0.0  # zero-mean analytically; kill roundoff
    return float(b0), float(a), SpectralField(spec, bp)


def recentre_allen_cahn(amplitude: float) -> dict:
    """Normal-form data for the Allen-Cahn avoided bifurcation at (t, phi) = (pi, 1/sqrt 3).

    Affine change of variables t = pi + alpha*tbar, phi = 1/sqrt(3) + gamma*phibar
    (no space rescaling, beta = 1) chosen so the scaled drift reads
    (delta + tbar^2) - phibar^2 - cubic*phibar^3 with the same epsilon.
    Returns the scaling constants for the run manifest.
    """
    A = float(amplitude)
    if not 0.0 < A < ALLEN_CAHN_CRITICAL:
        raise UnsupportedModel("recentring needs 0 < A < A_c")
    # local expansion f(pi+s, phi_c+u) = delta_raw + (A/2) s^2 - sqrt(3) u^2 - u^3
    delta_raw = ALLEN_CAHN_CRITICAL - A
    q = np.sqrt(3.0)                      # -f_phiphi/2 at the centre
    gamma = (A / (6.0 * np.sqrt(3.0))) ** 0.25
    alpha = 1.0 / (np.sqrt(3.0) * gamma)  # keeps epsilon unchanged
    delta = delta_raw / (q * gamma**2)
    cubic = gamma / q
    sigma_scale = np.sqrt(alpha) / gamma  # sigma_bar = sigma_scale * sigma
    return {
        "t_center": np.pi,
        "phi_center": 1.0 / np.sqrt(3.0),
        "alpha": float(alpha),
        "beta": 1.0,
        "gamma": float(gamma),
        "delta": float(delta),
        "cubic": float(cubic),
        "a1": 1.0,
        "eps_scale": 1.0,
        "sigma_scale": float(sigma_scale),
    }
