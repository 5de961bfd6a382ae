"""Drift models: branches, linearisations, pointwise application, pickling."""

import pickle

import numpy as np
import pytest

from srlab.model import (ALLEN_CAHN_CRITICAL, DriftKind, Stability,
                         allen_cahn, equilibrium_branches, linear_drift,
                         normal_form)
from srlab.spectral import (SpectralField, TorusSpec, _block_buffer,
                            batch_from_physical, batch_to_physical, hs_norm)


def in_blocks(fld):
    """The field as the one row of a _block_buffer stack, as the integrator
    lays out its state."""
    blocks = _block_buffer(1, fld.spec.n_modes)
    blocks[0, 0] = fld.coeffs
    return blocks


def projected_drift(model, t, fld):
    """Spectral coefficients of x -> f(t, phi(x)), as the integrator forms them."""
    values = model.f(t, batch_to_physical(in_blocks(fld), fld.spec))
    return SpectralField(fld.spec, batch_from_physical(values, fld.spec)[0, 0])


def cubic_roots_oracle(A):
    """Real roots of phi - phi^3 + A via numpy's eigenvalue solver."""
    r = np.roots([-1.0, 0.0, 1.0, A])
    return sorted(float(x.real) for x in r if abs(x.imag) < 1e-9)


class TestAllenCahn:
    def test_unforced_roots(self):
        bs = equilibrium_branches(allen_cahn(0.0), t=0.0)
        np.testing.assert_allclose(bs.roots, [-1.0, 0.0, 1.0], atol=1e-10)
        assert [s.value for s in bs.stability] == ["stable", "unstable", "stable"]

    def test_quarter_period_forcing_vanishes(self):
        bs = equilibrium_branches(allen_cahn(0.2), t=np.pi / 2)
        np.testing.assert_allclose(bs.roots, [-1.0, 0.0, 1.0], atol=1e-10)

    def test_roots_match_cubic_solver(self):
        model = allen_cahn(0.3)
        bs = equilibrium_branches(model, t=0.0)
        assert len(bs.roots) == 3
        np.testing.assert_allclose(bs.roots, cubic_roots_oracle(0.3), atol=1e-9)
        assert bs.stability[1] is Stability.UNSTABLE

    def test_double_root_at_critical_amplitude(self):
        bs = equilibrium_branches(allen_cahn(ALLEN_CAHN_CRITICAL), t=0.0)
        # the colliding pair merges into one marginal root beside the
        # simple stable root 2/sqrt(3)
        assert len(bs.roots) == 2
        assert bs.roots[0] == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-6)
        assert bs.stability == (Stability.MARGINAL, Stability.STABLE)

    def test_discriminant_vanishes_at_critical(self):
        # disc(-phi^3 + phi + A) = 4 - 27 A^2
        A = ALLEN_CAHN_CRITICAL
        assert 4.0 - 27.0 * A**2 == pytest.approx(0.0, abs=1e-12)

    def test_residuals(self):
        model = allen_cahn(0.25)
        for t in (0.0, 1.0, 2.5):
            bs = equilibrium_branches(model, t)
            for r in bs.roots:
                assert abs(model.f(t, r)) <= 1e-10


class TestNormalForm:
    def test_small_gap_roots(self):
        bs = equilibrium_branches(normal_form(0.01), t=0.0)
        np.testing.assert_allclose(bs.roots, [-0.1, 0.1], atol=1e-10)

    def test_transcritical_double_root(self):
        bs = equilibrium_branches(normal_form(0.0), t=0.0)
        assert bs.roots == (0.0,)
        assert bs.stability == (Stability.MARGINAL,)

    def test_time_dependence(self):
        bs = equilibrium_branches(normal_form(0.01), t=0.3)
        np.testing.assert_allclose(bs.roots, [-np.sqrt(0.10), np.sqrt(0.10)],
                                   atol=1e-10)

    def test_stability_labels(self):
        bs = equilibrium_branches(normal_form(0.04), t=0.0)
        assert [s.value for s in bs.stability] == ["unstable", "stable"]

    def test_branch_asymptotics(self):
        # phi*_+(t) = sqrt(delta + t^2), pinched between (sqrt(d)+|t|)/sqrt(2)
        # and sqrt(d)+|t|
        delta = 0.04
        model = normal_form(delta)
        for t in np.linspace(-0.3, 0.3, 13):
            bs = equilibrium_branches(model, float(t))
            up = max(bs.roots)
            assert up == pytest.approx(np.sqrt(delta + t * t), abs=1e-9)
            envelope = np.sqrt(delta) + abs(t)
            assert envelope / np.sqrt(2.0) <= up <= envelope

    def test_linearisation_signs_at_branches(self):
        model = normal_form(0.09)
        for t in (-0.2, 0.0, 0.15):
            bs = equilibrium_branches(model, t)
            a_by_root = dict(zip(bs.roots, bs.a_values))
            assert a_by_root[max(bs.roots)] < 0 < a_by_root[min(bs.roots)]


class TestLinearization:
    def test_allen_cahn_values(self):
        m = allen_cahn(0.7)
        assert m.dfdphi(0.3, 0.0) == pytest.approx(1.0)
        assert m.dfdphi(0.1, 1.0) == pytest.approx(-2.0)

    def test_normal_form_value(self):
        assert normal_form(0.5).dfdphi(0.0, 0.4) == pytest.approx(-0.8)

    @pytest.mark.parametrize("model", [allen_cahn(0.3), normal_form(0.02, cubic=0.5),
                                       linear_drift(-0.7, 0.2)])
    def test_derivatives_match_finite_differences(self, model):
        h = 1e-5
        for t in (-0.1, 0.0, 0.8):
            for p in (-1.2, -0.3, 0.0, 0.5, 1.1):
                fd1 = (model.f(t, p + h) - model.f(t, p - h)) / (2 * h)
                assert model.dfdphi(t, p) == pytest.approx(fd1, rel=1e-6, abs=1e-6)


class TestDriftApply:
    def test_linear_drift_is_diagonal(self):
        spec = TorusSpec(1.0, 5)
        rng = np.random.default_rng(2)
        f = SpectralField(spec, rng.standard_normal(spec.n_modes))
        out = projected_drift(linear_drift(-1.0), 0.0, f)
        np.testing.assert_allclose(out.coeffs, -f.coeffs, atol=1e-12)

    def test_constant_equilibrium_maps_to_zero(self):
        spec = TorusSpec(1.0, 4)
        f = SpectralField.constant(spec, 1.0)
        out = projected_drift(allen_cahn(0.0), 0.0, f)
        np.testing.assert_allclose(out.coeffs, 0.0, atol=1e-12)

    def test_constant_half(self):
        spec = TorusSpec(2.0, 4)
        out = projected_drift(allen_cahn(0.0), np.pi / 2, SpectralField.constant(spec, 0.5))
        assert out.coeff(0) == pytest.approx(0.375 * np.sqrt(2.0), abs=1e-12)
        assert hs_norm(out, 0.0) == pytest.approx(abs(out.coeff(0)), abs=1e-12)

    def test_pointwise_application(self):
        # f(0, phi) = -phi^2 for the gapless normal form
        spec = TorusSpec(1.0, 4)
        f = SpectralField.constant(spec, 3.0)
        out = projected_drift(normal_form(0.0), 0.0, f)
        np.testing.assert_allclose(batch_to_physical(in_blocks(out), spec)[0, 0],
                                   -9.0, atol=1e-10)


def grid_values(model, t, x):
    return np.asarray(model.f(t, x)), np.asarray(model.dfdphi(t, x))


@pytest.mark.parametrize("model", [allen_cahn(0.3), normal_form(0.04),
                                   normal_form(0.04, cubic=0.5),
                                   linear_drift(-0.7, 0.2)])
def test_builtin_models_pickle(model):
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    x = np.linspace(-1.5, 1.5, 41)
    for t in (-0.3, 0.0, 1.1):
        for a, b in zip(grid_values(copy, t, x), grid_values(model, t, x)):
            assert a.tobytes() == b.tobytes()


def test_linear_drift_has_its_own_kind():
    assert linear_drift(-1.0).kind is DriftKind.LINEAR


@pytest.mark.parametrize("c", [-3.0, 0.0, 3.0])
def test_root_on_a_scan_point_is_found_once(c):
    # f = c - phi vanishes exactly at a scan point: an end of the root
    # bracket or its centre
    bs = equilibrium_branches(linear_drift(-1.0, c), 0.0)
    assert bs.roots == (c,)
    assert bs.stability == (Stability.STABLE,)
