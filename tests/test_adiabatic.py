"""Adiabatic frames: branch tracking, zeta, cumulative integrals."""

import numpy as np
import pytest

from srlab.adiabatic import OutOfRange, build_frame, deterministic_pde_track
from srlab.model import (DriftKind, DriftModel, allen_cahn, linear_drift,
                         normal_form)
from srlab.spectral import SpectralField, TorusSpec, hs_norm


def frozen_affine():
    # f(t, phi) = -phi + 1: fixed point at 1 with linearisation -1
    return linear_drift(-1.0, 1.0)


def frozen_quadratic(delta):
    # f(t, phi) = delta - phi^2; normal_form() rejects a1 = 0
    return DriftModel(DriftKind.NORMAL_FORM,
                      {"delta": delta, "cubic": 0.0, "a1": 0.0})


class ReversedNormalForm(DriftModel):
    """The normal form run backwards in time: f(t, phi) = -f_nf(-t, phi)."""

    def f(self, t, phi):
        return -super().f(-t, phi)

    def dfdphi(self, t, phi):
        return -super().dfdphi(-t, phi)


class TestTrackStable:
    def test_frozen_fixed_point(self):
        fr = build_frame(frozen_affine(), eps=1e-2, T0=0.2, grid_step=1e-3)
        np.testing.assert_allclose(fr.phibar, 1.0, atol=1e-12)
        np.testing.assert_allclose(fr.abar, -1.0)

    def test_normal_form_center_value(self):
        # phibar(0) within [1, 3] x sqrt(delta v eps), loosely per asymptotics
        delta, eps = 0.04, 1e-3
        fr = build_frame(normal_form(delta), eps, T0=0.2)
        scale = np.sqrt(max(delta, eps))
        v = fr.phibar_at(0.0)
        assert scale <= v <= 3.0 * scale

    def test_gap_halves_with_eps(self):
        model = normal_form(0.04)

        def gap(eps):
            fr = build_frame(model, eps, T0=0.2)
            t = -0.1
            return fr.phibar_at(t) - np.sqrt(0.04 + t * t)

        ratio = gap(1e-3) / gap(5e-4)
        assert 1.4 <= ratio <= 2.6

    def test_grid_step_precondition(self):
        with pytest.raises(ValueError):
            build_frame(normal_form(0.04), eps=1e-3, T0=0.2, grid_step=1e-3)

    @pytest.mark.parametrize("grid_step", [0.0, -1e-4, 1e-3])
    def test_grid_step_outside_range_names_grid_step(self, grid_step):
        with pytest.raises(ValueError, match="^grid_step: "):
            build_frame(normal_form(0.04), eps=1e-3, T0=0.2, grid_step=grid_step)

    def test_abar_negative_everywhere(self):
        fr = build_frame(normal_form(0.04), 1e-3, T0=0.2)
        assert np.max(fr.abar) < 0.0

    def test_alphabar_nonincreasing(self):
        fr = build_frame(normal_form(0.04), 1e-3, T0=0.2)
        assert np.all(np.diff(fr.alphabar_cum) <= 0.0)


class TestTrackUnstable:
    def test_frozen_quadratic_fixed_point(self):
        fr = build_frame(frozen_quadratic(0.04), eps=1e-2, T0=0.2, grid_step=1e-3)
        np.testing.assert_allclose(fr.phihat, -0.2, atol=1e-10)
        np.testing.assert_allclose(fr.ahat, 0.4, atol=1e-10)

    def test_normal_form_signs_and_scale(self):
        delta, eps = 0.04, 1e-3
        fr = build_frame(normal_form(delta), eps, T0=0.2)
        v = float(np.interp(0.0, fr.t_grid, fr.phihat))
        scale = np.sqrt(max(delta, eps))
        assert v < 0.0
        assert scale <= -v <= 3.0 * scale
        assert np.min(fr.ahat) > 0.0

    def test_time_reversal_oracle(self):
        # phibar of the time-reversed drift reproduces phihat
        delta, eps = 0.04, 1e-3
        nf = normal_form(delta)
        fr_hat = build_frame(nf, eps, T0=0.2)
        reversed_model = ReversedNormalForm(nf.kind, nf.params)
        fr_rev = build_frame(reversed_model, eps, T0=0.2, branch="lower")
        np.testing.assert_allclose(fr_rev.phibar[::-1], fr_hat.phihat, atol=1e-8)


class TestZeta:
    def test_frozen_unit_rate(self):
        fr = build_frame(frozen_affine(), 1e-2, T0=0.2, grid_step=1e-3)
        np.testing.assert_allclose(fr.zeta, 0.5, atol=1e-12)

    def test_frozen_rate_two(self):
        fr = build_frame(linear_drift(-2.0), 1e-2, T0=0.2, grid_step=1e-3)
        np.testing.assert_allclose(fr.zeta, 0.25, atol=1e-12)

    def test_frozen_stationarity_residual(self):
        fr = build_frame(frozen_affine(), 1e-2, T0=0.3, grid_step=1e-3)
        assert np.max(np.abs(2.0 * fr.abar * fr.zeta + 1.0)) <= 1e-8

    def test_normal_form_ratio(self):
        frame = build_frame(normal_form(0.04), 1e-3, T0=0.2)
        ratio = frame.zeta * np.abs(frame.abar)
        assert np.all(frame.zeta > 0)
        assert 0.2 <= ratio.min() and ratio.max() <= 5.0

    def test_initial_condition(self):
        frame = build_frame(normal_form(0.04), 1e-3, T0=0.2)
        assert frame.zeta[0] == pytest.approx(1.0 / (2.0 * abs(frame.abar[0])))


class TestAlphaIntegral:
    """The cumulative columns alphabar_cum/alphahat_cum written by
    ``srlab adiabatic``: the trapezoidal integral of abar/ahat from -T0."""

    @pytest.fixture
    def frame(self):
        return build_frame(normal_form(0.04), 1e-3, T0=0.2)

    def test_degenerate_interval(self, frame):
        assert frame.alphabar_cum[0] == 0.0 and frame.alphahat_cum[0] == 0.0

    def test_frozen_value(self):
        fr = build_frame(frozen_affine(), 1e-2, T0=0.3, grid_step=1e-3)
        i = int(np.argmin(np.abs(fr.t_grid - 0.2)))
        assert fr.alphabar_cum[i] == pytest.approx(-0.5, rel=1e-12)

    def test_matches_direct_quadrature(self, frame):
        direct = np.trapezoid(frame.abar, frame.t_grid)
        assert frame.alphabar_cum[-1] == pytest.approx(direct, rel=1e-10)

    def test_hat_variant(self, frame):
        assert frame.alphahat_cum[-1] > 0.0

    def test_out_of_range(self, frame):
        with pytest.raises(OutOfRange):
            frame.phibar_at(0.3)


class TestDeterministicTrack:
    def test_frozen_drift_is_stationary(self):
        spec = TorusSpec(1.0, 4)
        times, fields = deterministic_pde_track(frozen_affine(), 1e-2, spec, T=0.1)
        ref = SpectralField.constant(spec, 1.0)
        for f in fields:
            assert hs_norm(f - ref, 1.0) <= 1e-10

    def test_transverse_part_stays_zero(self):
        spec = TorusSpec(1.0, 8)
        _, fields = deterministic_pde_track(allen_cahn(0.2), 1e-2, spec, T=1.0,
                                            record_stride=50)
        for f in fields:
            perp = f.coeffs.copy()
            perp[spec.index_of(0)] = 0.0
            assert np.max(np.abs(perp)) <= 1e-8

    def test_gap_scales_linearly_in_eps(self):
        spec = TorusSpec(1.0, 8)
        model = allen_cahn(0.2)

        def max_gap(eps):
            from srlab.model import Stability, equilibrium_branches
            times, fields = deterministic_pde_track(model, eps, spec, T=2 * np.pi,
                                                    record_stride=40)
            gaps = []
            for t, f in zip(times, fields):
                bs = equilibrium_branches(model, float(t))
                root = max(r for r, s in zip(bs.roots, bs.stability)
                           if s is Stability.STABLE)
                gaps.append(hs_norm(f - SpectralField.constant(spec, root), 1.0))
            return max(gaps)

        ratio = max_gap(1e-2) / max_gap(5e-3)
        assert 1.4 <= ratio <= 2.6
