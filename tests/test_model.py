"""Drift models: branches, linearisations, pointwise application, pickling."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.model import (ALLEN_CAHN_CRITICAL, DOUBLE_ROOT_TOL, DriftKind,
                         Stability, allen_cahn, equilibrium_branches,
                         linear_drift, normal_form)
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0.0, 100.0), st.floats(1e-3, 10.0), st.floats(-10.0, 10.0))
    def test_quadratic_roots_are_the_closed_form(self, delta, a1, t):
        bs = equilibrium_branches(normal_form(delta, a1=a1), t)
        s = delta + a1 * t * t
        if 2.0 * math.sqrt(s) >= DOUBLE_ROOT_TOL:
            assert bs.roots == (-math.sqrt(s), math.sqrt(s))
        else:
            assert bs.roots == (0.0,)

    @pytest.mark.parametrize("delta, t", [(16.0, 0.0), (10.0, 2.0), (0.04, -3.0)])
    def test_roots_past_three(self, delta, t):
        bs = equilibrium_branches(normal_form(delta), t)
        assert bs.roots == (-math.sqrt(delta + t * t), math.sqrt(delta + t * t))
        assert bs.root() > 3.0

    def test_small_cubic_keeps_the_small_roots(self):
        # np.roots alone gives -1e50, 0, 0 here, and f'(0) = 0
        bs = equilibrium_branches(normal_form(0.04, cubic=1e-50), 0.0)
        assert len(bs.roots) == 3
        assert bs.roots[0] == pytest.approx(-1e50, rel=1e-12)
        np.testing.assert_allclose(bs.roots[1:], [-0.2, 0.2], rtol=0, atol=1e-10)
        assert bs.stability[1:] == (Stability.UNSTABLE, Stability.STABLE)

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
    # f = c - phi vanishes at c, once
    bs = equilibrium_branches(linear_drift(-1.0, c), 0.0)
    assert bs.roots == (c,)
    assert bs.stability == (Stability.STABLE,)


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_drift_constant_in_phi_has_no_root(c):
    # f = c: no isolated root, whether it vanishes everywhere or nowhere
    bs = equilibrium_branches(linear_drift(0.0, c), 0.0)
    assert bs.roots == bs.stability == bs.a_values == ()
    with pytest.raises(ValueError, match="no stable equilibrium"):
        bs.root()


def phi_polynomial(model, t):
    """Coefficients of f(t, .) in phi, highest power first, written out from
    the drift formulas in the model's docstrings."""
    p = model.params
    if model.kind is DriftKind.ALLEN_CAHN:
        return [-1.0, 0.0, 1.0, p["amplitude"] * math.cos(t)]
    if model.kind is DriftKind.NORMAL_FORM:
        return [-p["cubic"], -1.0, 0.0, p["delta"] + p["a1"] * t * t]
    return [p["a"], p["c"]]


def sign_changes(model, t, bs):
    """Sign changes of f(t, .) over the Cauchy bound of its polynomial: on a
    uniform and a geometric grid, plus points a quarter of the way to the
    next reported root on each side of every reported root.  The scan skips
    the DOUBLE_ROOT_TOL window of a double root, which may be a merged pair
    of real roots."""
    roots = bs.roots
    c = np.trim_zeros(np.array(phi_polynomial(model, t)), "f")
    if len(c) < 2:
        return 0
    bound = 1.0 + np.max(np.abs(c[1:] / c[0]))
    geometric = np.geomspace(1e-12, bound, 4001)
    xs = [np.linspace(-bound, bound, 4001), geometric, -geometric, [0.0]]
    for i, r in enumerate(roots):
        rho = 0.25 * min((abs(r - o) for j, o in enumerate(roots) if j != i),
                         default=1.0)
        xs.append([r - rho, r + rho])
    xs = np.unique(np.concatenate(xs))
    for r, stab in zip(roots, bs.stability):
        if stab is Stability.MARGINAL:
            xs = xs[abs(xs - r) >= DOUBLE_ROOT_TOL]
    with np.errstate(all="ignore"):
        signs = np.sign(model.f(t, xs))
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def nonzero(lo, hi, smallest):
    """0, or a float in [lo, hi] of magnitude at least ``smallest``."""
    return st.one_of(st.just(0.0), st.floats(lo, hi).filter(
        lambda v: abs(v) >= smallest))


DRIFTS = st.one_of(
    st.builds(allen_cahn, st.floats(0.0, 100.0)),
    st.builds(normal_form, st.floats(0.0, 100.0),
              st.one_of(nonzero(-10.0, 10.0, 1e-60),
                        st.sampled_from([1e-50, -1e-50, 1e-9])),
              st.floats(1e-3, 10.0)),
    st.builds(linear_drift, nonzero(-10.0, 10.0, 1e-6), st.floats(-10.0, 10.0)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(DRIFTS, st.floats(-50.0, 50.0))
def test_branches_are_every_root_of_the_polynomial(model, t):
    bs = equilibrium_branches(model, t)
    coeffs = phi_polynomial(model, t)[::-1]    # coeffs[i] multiplies phi^i
    assert list(bs.roots) == sorted(bs.roots)
    for r, stab, a in zip(bs.roots, bs.stability, bs.a_values):
        scale = (max(abs(ci) * abs(r) ** i for i, ci in enumerate(coeffs))
                 if abs(r) > 3 else 1.0)
        assert abs(model.f(t, r)) <= 1e-10 * scale
        assert a == model.dfdphi(t, r)
        assert stab is (Stability.STABLE if a < -1e-9 else
                        Stability.UNSTABLE if a > 1e-9 else Stability.MARGINAL)
    # a simple root changes the sign of f, a double (MARGINAL) one does not
    simple = sum(s is not Stability.MARGINAL for s in bs.stability)
    assert sign_changes(model, t, bs) == simple
