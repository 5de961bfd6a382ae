"""Real Fourier fields on the torus, fractional Sobolev norms, Laplacian data.

The basis is the real trigonometric family

    e_k(x) = sqrt(2/L) cos(k pi x / L)    k > 0
    e_0(x) = 1 / sqrt(L)
    e_k(x) = sqrt(2/L) sin(k pi x / L)    k < 0

with -Laplacian eigenvalues mu_k = k^2 pi^2 / L^2.  These functions have
fundamental period 2L in x; they are orthonormal for the quadrature inner
product with weight L/n_grid on the uniform grid x_j = 2L j / n_grid covering
one full period.  All physical-space sampling below uses that grid, which
makes projection exact on the cutoff space whenever n_grid >= 2K+1.

Grid transforms (``batch_to_physical``, ``batch_from_physical``) multiply a
``_block_buffer`` stack, one field per row, by the cached real basis matrices
``TorusSpec.synthesis`` (e_k(x_j)) and ``TorusSpec.analysis`` (its
quadrature-weighted transpose) and fill another such stack.
``integrator.simulate_batch`` runs both on every step, in the process that
runs the chunk (see ``srlab.mc``); the benchmark traces them there, so they
stay module attributes outside ``__all__``.  A row costs O(n_modes * n_grid)
against the FFT's O(n_grid log n_grid): on transition batches with the
default grid, faster than numpy's rfft/irfft pair up to K = 32, about even at
K = 48 and slower from K = 64 on.  Every block has DENSE_BLOCK rows, zero
past the last field, so every row goes through the same gemm kernel and its
bits do not depend on how many rows share the call.  They do depend on the
BLAS build and the CPU: reproducible on one machine, not across machines.

The H^s norm is ||phi||_{H^s}^2 = sum_k <k>^{2s} phi_k^2 with the Japanese
bracket <k> = (1 + k^2)^{1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "TorusSpec",
    "SpectralField",
    "hs_norm",
    "hs_weights",
]

# Rows per gemm call in the grid transforms, a multiple of the row tiles of
# x86 dgemm kernels, so every row of a block takes the same kernel path
# (checked row by row in tests/test_spectral.py).
DENSE_BLOCK = 16
# the most float64 values one numpy array holds (intp.max bytes)
MAX_FLOAT64S = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class TorusSpec:
    """Spectral discretisation: torus length L, cutoff K, physical grid size.

    Modes k in {-K, ..., K}.  Projecting a degree-p polynomial of a cutoff-K
    field onto the modes is exact when n_grid >= (p+1)K + 1.  ``n_grid``
    defaults to 1 at K = 0, where every field is constant, and to
    max(4K, 8) for K >= 1: that dealiases quadratic drifts, but for K >= 2
    it aliases a cubic term into the modes +-K.  The (n_modes, n_grid)
    basis matrices must fit in one array.
    """

    L: float
    K: int
    n_grid: int = 0

    def __post_init__(self):
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"L: must be positive and finite, got {self.L}")
        if self.K < 0:
            raise ValueError(f"K: must be >= 0, got {self.K}")
        with np.errstate(over="ignore"):    # mu_K, the largest eigenvalue
            mu_max = (np.float64(self.K) * np.pi / self.L) ** 2
        if not np.isfinite(mu_max):
            raise ValueError(f"L: {self.L} makes (K pi / L)^2 overflow at K = {self.K}")
        default_grid = self.n_grid == 0
        if default_grid:
            object.__setattr__(self, "n_grid", max(4 * self.K, 8) if self.K else 1)
        if self.n_grid < self.n_modes:
            raise ValueError(f"n_grid: must be 0 or >= 2K+1 = {self.n_modes}, "
                             f"got {self.n_grid}")
        # K is at fault when it set the grid or when even 2K+1 points are too many
        if self.n_modes * self.n_grid > MAX_FLOAT64S:
            name = "K" if default_grid or self.n_modes**2 > MAX_FLOAT64S else "n_grid"
            raise ValueError(f"{name}: a ({self.n_modes}, {self.n_grid}) basis "
                             "matrix holds more values than an array holds")

    @property
    def n_modes(self) -> int:
        return 2 * self.K + 1

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Mode indices in storage order, k = -K..K."""
        k = np.arange(-self.K, self.K + 1)
        k.flags.writeable = False
        return k

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """mu_k = k^2 pi^2 / L^2 in storage order."""
        mu = (self.wavenumbers * np.pi / self.L) ** 2
        mu.flags.writeable = False
        return mu

    @cached_property
    def grid(self) -> np.ndarray:
        """Physical sample points x_j = 2L j / n_grid over one basis period."""
        x = 2.0 * self.L * np.arange(self.n_grid) / self.n_grid
        x.flags.writeable = False
        return x

    @property
    def quad_weight(self) -> float:
        """Quadrature weight making the discrete basis inner product delta_jk."""
        return self.L / self.n_grid

    @cached_property
    def synthesis(self) -> np.ndarray:
        """(n_modes, n_grid) matrix of e_k(x_j); coeffs @ synthesis samples a field."""
        k = self.wavenumbers[:, None]
        j = np.arange(self.n_grid)
        # k pi x_j / L = 2 pi k j / n_grid, reduced exactly in integers
        angle = 2.0 * np.pi * ((k * j) % self.n_grid) / self.n_grid
        m = np.where(k > 0, np.cos(angle), np.sin(angle)) * np.sqrt(2.0 / self.L)
        m[self.K] = 1.0 / np.sqrt(self.L)
        m.flags.writeable = False
        return m

    @cached_property
    def analysis(self) -> np.ndarray:
        """(n_grid, n_modes) quadrature projection; values @ analysis = coeffs."""
        m = np.ascontiguousarray(self.synthesis.T * self.quad_weight)
        m.flags.writeable = False
        return m

    def index_of(self, k: int) -> int:
        if not -self.K <= k <= self.K:
            raise ValueError(f"mode {k} outside cutoff K={self.K}")
        return k + self.K


@dataclass(frozen=True)
class SpectralField:
    """Truncated real field phi = sum_k coeffs[k] e_k, coeffs in k=-K..K order."""

    spec: TorusSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.spec.n_modes,):
            raise ValueError(
                f"expected {self.spec.n_modes} coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient in spectral field")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def coeff(self, k: int) -> float:
        return float(self.coeffs[self.spec.index_of(k)])

    @classmethod
    def zero(cls, spec: TorusSpec) -> "SpectralField":
        return cls(spec, np.zeros(spec.n_modes))

    @classmethod
    def basis(cls, spec: TorusSpec, k: int, amplitude: float = 1.0) -> "SpectralField":
        c = np.zeros(spec.n_modes)
        c[spec.index_of(k)] = amplitude
        return cls(spec, c)

    @classmethod
    def constant(cls, spec: TorusSpec, value: float) -> "SpectralField":
        """Field identically equal to ``value`` (coefficient value*sqrt(L) at k=0)."""
        return cls.basis(spec, 0, value * np.sqrt(spec.L))

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.spec != self.spec:
            raise ValueError("field specs differ")
        return SpectralField(self.spec, self.coeffs - other.coeffs)


def hs_weights(spec: TorusSpec, s: float) -> np.ndarray:
    """Weights <k>^{2s} in storage order."""
    return (1.0 + spec.wavenumbers.astype(float) ** 2) ** s


def hs_norm(fld: SpectralField, s: float) -> float:
    """Fractional Sobolev norm, ||phi||_{ H^s } = (sum <k>^{2s} phi_k^2)^{1/2}."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    w = hs_weights(fld.spec, s)
    return float(np.sqrt(np.sum(w * fld.coeffs**2)))


def _block_buffer(n: int, width: int) -> np.ndarray:
    """Zeroed (blocks, DENSE_BLOCK, width) buffer with room for n rows.

    The grid transforms take and fill such block stacks, with the rows in
    use leading and zeros after them, so that each row goes through the
    same gemm kernel whatever the row count.  BLAS rounds a row differently
    depending on the product's shape: numpy sends one row to gemv, and
    gemm's kernels treat edge rows and large products differently.
    """
    return np.zeros((-(-n // DENSE_BLOCK), DENSE_BLOCK, width))


def batch_to_physical(blocks, spec: TorusSpec, out=None) -> np.ndarray:
    """Sample each field of a ``_block_buffer`` stack on the grid, into
    ``out`` if given: (blocks, DENSE_BLOCK, 2K+1) -> (..., n_grid).  Exact
    up to roundoff, since the grid resolves the full basis period."""
    return np.matmul(blocks, spec.synthesis, out=out)


def batch_from_physical(blocks, spec: TorusSpec, out=None) -> np.ndarray:
    """Project each row of grid samples of a ``_block_buffer`` stack onto the
    basis, into ``out`` if given: (blocks, DENSE_BLOCK, n_grid) -> (..., 2K+1).
    Quadrature with weight L/n_grid, exact on the cutoff space."""
    return np.matmul(blocks, spec.analysis, out=out)
