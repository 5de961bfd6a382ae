"""Sample paths of the slow-time stochastic PDE via per-mode exponential Euler.

The slow-time equation

    dphi = (1/eps) [Lap phi + f(t, phi)] dt + (sigma/sqrt(eps)) dW

is advanced mode by mode: the heat factor exp(-mu_k dt/eps) and the linear
stochastic convolution are applied exactly, the reaction term f explicitly,

    c_k  <-  exp(-mu_k dt/eps) c_k + psi_k(dt) F_k(t, state) + eta_k ,

with psi_k(dt) = (1 - exp(-mu_k dt/eps)) / mu_k (limit dt/eps at k = 0), F the
spectral projection of the pointwise drift, and eta_k a centred Gaussian with
the exact stochastic-convolution standard deviation of one step; the three
per-mode factors are computed once per run by ``_step_factors``.  Noise is
space-time white truncated to the resolved modes: independent Wiener processes
drive every mode, one normal draw per mode per step from the trajectory's
dedicated counter-based stream, read through ``_streams.BlockNormals``.
``step_grid`` is the one place that sets and checks a run's step (dt = eps /
STEPS_PER_EPS when left unset) and snaps its window to whole steps.

Exit sets are monitored online after every step; crossing times are resolved
at the midpoint of the bracketing step.  ``TAU_COLUMN`` maps each ``ExitSpec``
field to the hitting-time column its monitor sets; an unset field switches
its monitor off and leaves the column at inf; ``EVENT_FIELD`` names the
field whose monitor records each ``ExitEvent`` but the transition.  A
trajectory that stops at -d0 or fails (non-finite) leaves the batch's working
set after that step, and its noise streams are not advanced further.  Each
stream belongs to one (trajectory, mode) pair and every row's update is
independent of the other rows, so this cannot change any other trajectory's
bits.

``simulate_batch`` is the one engine and its structured array the one outcome
record, one row per trajectory: ``traj`` (global index), the hitting times
``tau_b0, tau_bperp, tau_b, tau_minus_d, tau_minus_d0`` (inf when not hit),
``failed`` (non-finite) and ``terminal_phi0`` (the last finite mean-mode
value).  With ``collect_series`` a row also carries ``phi0`` and ``perp_hs``
at ``SimConfig.record_times()``, and ``fields`` (coefficients per recorded
time) with ``record_fields``.  A single path is ``traj_indices=(i,)``, row 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _streams
from .model import DriftModel
from .spectral import (DENSE_BLOCK, MAX_FLOAT64S, SpectralField, TorusSpec,
                       _block_buffer, batch_from_physical, batch_to_physical,
                       hs_weights)

__all__ = [
    "SimConfig",
    "ExitSpec",
    "NonFinite",
    "simulate_batch",
    "simulate_linear_mode",
]


# The default time step is eps / STEPS_PER_EPS wherever a run leaves dt unset.
STEPS_PER_EPS = 20


def step_grid(eps: float, t_start: float, t_end: float,
              dt: Optional[float] = None) -> tuple[float, float]:
    """(dt, t_end) of a run on [t_start, t_end]: dt defaults to
    eps / STEPS_PER_EPS, and t_end moves to t_start + n dt for the nearest
    whole number of steps n >= 1.  It owns the step's rules, which SimConfig
    checks through it; each ValueError starts with the parameter it names."""
    if not eps > 0:
        raise ValueError("eps: must be > 0")
    dt = eps / STEPS_PER_EPS if dt is None else dt
    if not 0 < dt <= eps:
        raise ValueError("dt: must satisfy 0 < dt <= eps")
    if not t_start < t_end:
        raise ValueError(f"t_end: must exceed t_start = {t_start}")
    steps = (t_end - t_start) / dt
    if not steps < MAX_FLOAT64S:   # SimConfig.times() holds n + 1 of them
        raise ValueError(f"dt: {dt:g} cuts [{t_start:g}, {t_end:g}] into "
                         f"{steps:.3g} steps, more times than an array holds")
    n = max(1, int(round(steps)))
    return dt, t_start + n * dt


# the hitting-time column that the monitor of each ExitSpec field sets
TAU_COLUMN = {"h": "tau_b0", "h_perp": "tau_bperp", "h_stable": "tau_b",
              "d_level": "tau_minus_d", "d0_level": "tau_minus_d0"}


class ExitEvent(enum.Enum):
    EXIT_B = "exit-b"
    EXIT_B0 = "exit-b0"
    EXIT_BPERP = "exit-bperp"
    CROSS_MINUS_D = "cross-minus-d"
    REACH_MINUS_D0 = "reach-minus-d0"
    TRANSITION = "transition"


# the ExitSpec field that switches on the monitor of each non-transition event
EVENT_FIELD = {
    ExitEvent.EXIT_B: "h_stable",
    ExitEvent.EXIT_B0: "h",
    ExitEvent.EXIT_BPERP: "h_perp",
    ExitEvent.CROSS_MINUS_D: "d_level",
    ExitEvent.REACH_MINUS_D0: "d0_level",
}


class NonFinite(RuntimeError):
    """A spectral coefficient became non-finite (trajectory blow-up)."""


@dataclass(frozen=True)
class SimConfig:
    """Integration setup for one family of trajectories; ``step_grid`` checks
    its step and window, and each ValueError starts with its parameter."""

    eps: float
    sigma: float
    dt: float
    spec: TorusSpec
    t_start: float
    t_end: float
    s_monitor: float = 0.4
    seed: int = 0
    record_stride: int = 1
    record_fields: bool = False

    def __post_init__(self):
        step_grid(self.eps, self.t_start, self.t_end, self.dt)
        if self.sigma < 0:
            raise ValueError("sigma: must be >= 0")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")
        if not 0.0 < self.s_monitor < 0.5:
            raise ValueError("s_monitor: must lie in (0, 1/2)")
        if self.record_stride < 1:
            raise ValueError("record_stride: must be >= 1")
        n = (self.t_end - self.t_start) / self.dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError("t_end: t_end - t_start must be a whole number "
                             "of steps dt")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def record_times(self) -> np.ndarray:
        """Times of the recorded series: every ``record_stride``-th step time."""
        return self.times()[::self.record_stride]


@dataclass(frozen=True)
class ExitSpec:
    """Exit-set radii and crossing levels; absent entries are not monitored.

    h        half-width of the mean-mode tube |phi0 - phibar(t)| < h sqrt(zeta(t))
    h_perp   H^s radius of the transverse tube ||phi_perp|| < h_perp
    h_stable H^s radius of the tube around the deterministic solution: the
             constant field phibar(t) with a frame, the initial mean mode
             without one (the transverse reference is zero either way)
    d_level / d0_level   downward crossing levels for phi0 (d0 > d)
    """

    h: Optional[float] = None
    h_perp: Optional[float] = None
    h_stable: Optional[float] = None
    d_level: Optional[float] = None
    d0_level: Optional[float] = None

    def __post_init__(self):
        for name in TAU_COLUMN:
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when given")
        if self.d_level is not None and self.d0_level is not None:
            if not self.d0_level > self.d_level:
                raise ValueError("d0_level must exceed d_level")


_OUTCOME_FIELDS = ([("traj", np.int64)]
                   + [(name, np.float64) for name in TAU_COLUMN.values()]
                   + [("failed", np.bool_), ("terminal_phi0", np.float64)])


def _step_factors(cfg: SimConfig):
    """(decay, psi, noise_std) arrays over modes for one step of size dt.

    noise_std is the exact one-step std of mode k's pure-heat stochastic
    convolution, sigma sqrt((1 - exp(-2 mu_k dt/eps)) / (2 mu_k)), with the
    Brownian limit sigma sqrt(dt/eps) at mu_k = 0.
    """
    mu = cfg.spec.eigenvalues
    theta = cfg.dt / cfg.eps
    decay = np.exp(-mu * theta)
    # 2 mu overflows when mu is within a factor 2 of the float64 maximum;
    # such a mode then gets var = 0, its limit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        psi = np.where(mu > 0, -np.expm1(-mu * theta) / np.where(mu > 0, mu, 1.0),
                       theta)
        var = np.where(mu > 0, -np.expm1(-2.0 * mu * theta) / np.where(mu > 0, 2.0 * mu, 1.0),
                       theta)
    return decay, psi, cfg.sigma * np.sqrt(var)


def simulate_batch(cfg: SimConfig, model: DriftModel, init: SpectralField,
                   exits: Optional[ExitSpec], frame=None,
                   traj_indices: Sequence[int] = (0,),
                   collect_series: bool = True) -> np.ndarray:
    """Vectorised integration of several trajectories (identical initial data).

    Per-trajectory noise comes from streams keyed by (cfg.seed, trajectory
    index, mode), so the result does not depend on how trajectories are
    grouped into batches.  The working arrays hold active trajectories only:
    a row that reaches -d0 or blows up leaves them after that step, and each
    working row writes its outcomes back to its original position.  The
    state lives in the leading rows of a zero-padded block buffer
    (``spectral._block_buffer``).  Each step runs ``batch_to_physical`` and
    ``batch_from_physical``, this module's attributes, which the benchmark
    patches, into block buffers made once per call.  Returns
    the outcome record (module docstring), one row per entry of
    ``traj_indices``, with the series when ``collect_series``.
    """
    spec = cfg.spec
    if init.spec != spec:
        raise ValueError("initial field does not match the torus spec")
    exits = exits or ExitSpec()
    K = spec.K
    i0 = K
    sqrt_l = np.sqrt(spec.L)
    n_traj = len(traj_indices)
    n_steps = cfg.n_steps
    times = cfg.times()

    w_perp = hs_weights(spec, cfg.s_monitor).copy()
    w_perp[i0] = 0.0

    decay, psi, noise_std = _step_factors(cfg)

    monitor_b0 = exits.h is not None
    if monitor_b0:
        if frame is None:
            raise ValueError("B0 monitoring needs an adiabatic frame")
        phibar_steps = np.asarray(frame.phibar_at(times))
        thr_b0 = exits.h * np.sqrt(np.asarray(frame.zeta_at(times)))
    monitor_b = exits.h_stable is not None
    if monitor_b:
        if frame is not None:
            ref0_steps = np.asarray(frame.phibar_at(times)) * sqrt_l
        else:
            ref0_steps = np.full(n_steps + 1, init.coeffs[i0])

    series = []
    if collect_series:
        n_rec = n_steps // cfg.record_stride + 1
        series = [("phi0", np.float64, (n_rec,)), ("perp_hs", np.float64, (n_rec,))]
        if cfg.record_fields:
            series.append(("fields", np.float64, (n_rec, spec.n_modes)))
    # the loop writes through views of these columns; every row is either
    # retired or still working at the end, so terminal_phi0 is always set
    out = np.zeros(n_traj, dtype=_OUTCOME_FIELDS + series)
    out["traj"] = traj_indices
    for name in TAU_COLUMN.values():
        out[name] = np.inf
    for name, _, _ in series:
        out[name] = np.nan
    tau_b0, tau_bperp, tau_b, tau_d, tau_d0 = (out[c] for c in TAU_COLUMN.values())
    failed, terminal_phi0 = out["failed"], out["terminal_phi0"]

    # rows past the working ones stay zero (see retire)
    state_buf = _block_buffer(n_traj, spec.n_modes)
    grid_buf = np.empty(state_buf.shape[:2] + (spec.n_grid,))
    drift_buf = np.empty_like(state_buf)
    noise_buf = np.empty((n_traj, spec.n_modes))
    state_rows = state_buf.reshape(-1, spec.n_modes)
    drift_rows = drift_buf.reshape(-1, spec.n_modes)

    def working_views(n_rows):
        """(state, drift, noise) rows and (state, grid, drift) blocks in use."""
        b = -(-n_rows // DENSE_BLOCK)
        return (state_rows[:n_rows], drift_rows[:n_rows], noise_buf[:n_rows],
                state_buf[:b], grid_buf[:b], drift_buf[:b])

    state, drift, noise_term, state_blk, grid_blk, drift_blk = working_views(n_traj)
    state[:] = init.coeffs
    rows = np.arange(n_traj)   # original position of each working row
    v0 = state[:, i0] / sqrt_l

    if collect_series:
        rec_phi0, rec_perp = out["phi0"], out["perp_hs"]
        rec_phi0[:, 0] = v0
        rec_perp[:, 0] = np.sqrt(np.sum(w_perp * state**2, axis=-1))
        if cfg.record_fields:
            rec_fields = out["fields"]
            rec_fields[:, 0, :] = state

    noise = (_streams.BlockNormals(cfg.seed, traj_indices, spec.wavenumbers,
                                   n_steps) if cfg.sigma > 0 else None)

    monitor_perp = exits.h_perp is not None
    # an unset level is -inf, which no finite phi0 reaches
    d_low = -np.inf if exits.d_level is None else -exits.d_level
    d0_low = -np.inf if exits.d0_level is None else -exits.d0_level
    watch_levels = exits.d_level is not None or exits.d0_level is not None
    # transverse norm is needed every step only when a norm monitor is active
    perp_every_step = monitor_perp or monitor_b
    perp_sq = None

    def mark(tau, hit):
        """Set t_cross as the hitting time of working rows hit for the first time."""
        if hit.any():
            idx = rows[hit]
            tau[idx[np.isinf(tau[idx])]] = t_cross

    def retire(gone, last_v0):
        """Drop the working rows in ``gone``; their terminal phi0 is last_v0."""
        nonlocal state, drift, noise_term, state_blk, grid_blk, drift_blk
        nonlocal v0, perp_sq, rows
        terminal_phi0[rows[gone]] = last_v0[gone]
        keep = ~gone
        kept = state[keep]
        n_old = len(state)
        state, drift, noise_term, state_blk, grid_blk, drift_blk = \
            working_views(len(kept))
        state[:] = kept
        state_rows[len(kept):n_old] = 0.0
        v0, rows = v0[keep], rows[keep]
        if perp_sq is not None:
            perp_sq = perp_sq[keep]
        if noise is not None:
            noise.keep(keep)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            if not rows.size:
                break
            t_n = times[n]
            batch_to_physical(state_blk, spec, out=grid_blk)
            batch_from_physical(model.f(t_n, grid_blk), spec, out=drift_blk)
            # in place, but in the order of decay*state + psi*drift + noise
            state *= decay
            drift *= psi
            state += drift
            if noise is not None:
                np.multiply(noise_std, noise.draw(n).reshape(state.shape),
                            out=noise_term)
                state += noise_term

            # a row fails when its row sum is not finite; any such row makes
            # the total non-finite, so only then is the row mask built
            row_sums = state.sum(axis=1)
            if not math.isfinite(row_sums.sum()):
                bad = ~np.isfinite(row_sums)
                failed[rows[bad]] = True
                retire(bad, v0)   # v0 still holds the last finite step
                if not rows.size:
                    break

            t_cross = t_n + 0.5 * cfg.dt
            c0 = state[:, i0]
            v0 = c0 / sqrt_l
            record_now = collect_series and (n + 1) % cfg.record_stride == 0
            perp_sq = (np.sum(w_perp * state**2, axis=-1)
                       if perp_every_step or record_now else None)

            # a radius whose square overflows squares to inf: never reached
            if monitor_perp:
                mark(tau_bperp, perp_sq >= np.float64(exits.h_perp) ** 2)
            if monitor_b0:
                dev = np.abs(v0 - phibar_steps[n + 1])
                mark(tau_b0, dev >= thr_b0[n + 1])
            if monitor_b:
                norm_b = perp_sq + (c0 - ref0_steps[n + 1]) ** 2
                mark(tau_b, norm_b >= np.float64(exits.h_stable) ** 2)
            # the downward levels test masks only once the lowest row is down
            v_min = v0.min() if watch_levels else np.inf
            if v_min <= d_low:
                mark(tau_d, v0 <= d_low)
            if v_min <= d0_low:
                hit = v0 <= d0_low
                mark(tau_d0, hit)
                retire(hit, v0)

            if record_now:
                ridx = (n + 1) // cfg.record_stride
                rec_phi0[rows, ridx] = v0
                rec_perp[rows, ridx] = np.sqrt(perp_sq)
                if cfg.record_fields:
                    rec_fields[rows, ridx, :] = state
    terminal_phi0[rows] = v0
    return out


def simulate_linear_mode(k: int, a: float, cfg: SimConfig,
                         n_paths: int = 1, psi0: float = 0.0) -> np.ndarray:
    """Exact-in-distribution sampling of the scalar linear mode equation

        d psi_k = (1/eps)(-mu_k + a) psi_k dt + (sigma/sqrt(eps)) dW_k

    with a constant coefficient ``a``.  The mode is an Ornstein-Uhlenbeck
    process, so it is advanced exactly over any interval: each update
    jumps from one record time to the next (``h = dt * record_stride``),
    multiplying by the exact decay factor over ``h`` and adding a Gaussian
    increment of the closed-form variance over ``h``.  One normal per path
    per record interval, none after the last record time; ``dt`` only
    places the record times.  Returns paths sampled at the record times,
    shape (n_paths, n_rec).
    """
    mu_k = (k * np.pi / cfg.spec.L) ** 2
    abar = -mu_k + float(a)
    if not abar < 0:
        raise ValueError(f"a: mode {k} contracts only when a < {mu_k:g}")
    h = cfg.dt * cfg.record_stride
    dalpha = abar * h
    m = np.exp(dalpha / cfg.eps)
    rate = -dalpha / h
    std = np.sqrt(cfg.sigma**2 * (-np.expm1(2.0 * dalpha / cfg.eps)
                                  / (2.0 * rate)))

    n_rec = cfg.n_steps // cfg.record_stride + 1
    out = np.empty((n_paths, n_rec))
    psi = np.full(n_paths, float(psi0))
    out[:, 0] = psi
    noise = _streams.BlockNormals(cfg.seed, range(n_paths), (k,), n_rec - 1)
    for r in range(1, n_rec):
        psi = m * psi + std * noise.draw(r - 1)
        out[:, r] = psi
    return out
