"""srlab: spectral Monte Carlo laboratory for slowly forced bistable SPDEs.

Simulates  dphi = (1/eps)[Lap phi + f(t, phi)] dt + (sigma/sqrt(eps)) dW  on
the one-dimensional torus with space-time white noise, tracks concentration
of sample paths around adiabatic solutions, and estimates the critical noise
intensity separating rare from near-certain transitions between equilibrium
branches.
"""

from .spectral import SpectralField, TorusSpec, hs_norm
from .model import (BranchSet, DriftKind, DriftModel, Stability, allen_cahn,
                    equilibrium_branches, linear_drift, normal_form)
from .adiabatic import AdiabaticFrame, build_frame, deterministic_pde_track
from .integrator import ExitSpec, NonFinite, SimConfig, simulate_linear_mode
from .mc import (BatchResult, ExitEvent, ExitStatistics, FitResult,
                 concentration_fit, event_probability, mode_variance_report,
                 run_batch, scaling_exponent, threshold_bisect,
                 transition_probability, wilson_interval)

__version__ = "0.1.0"
