"""Spectral layer: basis values, norms, transforms, and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.spectral import (SpectralField, TorusSpec, batch_from_physical,
                            batch_to_physical, hs_norm)


@pytest.fixture
def spec():
    return TorusSpec(L=1.0, K=6)


def basis_values(spec, k):
    """e_k sampled on spec.grid."""
    return batch_to_physical(SpectralField.basis(spec, k).coeffs, spec)


def sup_norm(fld):
    return float(np.max(np.abs(batch_to_physical(fld.coeffs, fld.spec))))


def random_field(spec, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return SpectralField(spec, scale * rng.standard_normal(spec.n_modes))


class TestBasis:
    def test_constant_mode(self):
        np.testing.assert_allclose(basis_values(TorusSpec(1.0, 2), 0), 1.0)
        np.testing.assert_allclose(basis_values(TorusSpec(4.0, 2), 0), 0.5)

    def test_cosine_at_zero(self):
        assert basis_values(TorusSpec(2.0, 2), 1)[0] == pytest.approx(1.0)

    def test_sine_at_zero(self):
        assert basis_values(TorusSpec(3.0, 2), -1)[0] == 0.0

    def test_shapes(self):
        sp = TorusSpec(1.0, 3)
        vals = basis_values(sp, 2)
        assert vals.shape == sp.grid.shape
        np.testing.assert_allclose(vals, np.sqrt(2.0) * np.cos(2 * np.pi * sp.grid),
                                   atol=1e-14)


class TestEigenvalues:
    @staticmethod
    def mu(k, spec):
        return spec.eigenvalues[spec.index_of(k)]

    def test_zero_mode(self):
        assert self.mu(0, TorusSpec(2.0, 2)) == 0.0

    def test_first_mode_unit_torus(self):
        assert self.mu(1, TorusSpec(1.0, 2)) == pytest.approx(np.pi**2)

    def test_sign_and_length(self):
        assert self.mu(-2, TorusSpec(np.pi, 4)) == pytest.approx(4.0)


class TestHsNorm:
    def test_basis_vector_l2(self, spec):
        assert hs_norm(SpectralField.basis(spec, 3), 0.0) == pytest.approx(1.0)

    def test_basis_vector_h1(self, spec):
        assert hs_norm(SpectralField.basis(spec, 3), 1.0) == pytest.approx(np.sqrt(10.0))

    def test_zero_field(self, spec):
        assert hs_norm(SpectralField.zero(spec), 0.4) == 0.0

    def test_parseval(self, spec):
        f = random_field(spec, seed=5)
        assert hs_norm(f, 0.0) ** 2 == pytest.approx(np.sum(f.coeffs**2), rel=1e-12)

    def test_s_out_of_range(self, spec):
        with pytest.raises(ValueError):
            hs_norm(SpectralField.zero(spec), 1.5)


class TestTransforms:
    def test_zero_field(self, spec):
        assert np.all(batch_to_physical(np.zeros(spec.n_modes), spec) == 0.0)

    def test_constant_mode(self):
        sp = TorusSpec(4.0, 3)
        vals = 2.0 * basis_values(sp, 0)
        np.testing.assert_allclose(vals, 1.0)  # 2 * e_0 = 2/sqrt(4)

    def test_pointwise_matches_direct_evaluation(self):
        sp = TorusSpec(1.0, 2, 8)
        vals = basis_values(sp, 1)
        expect = np.sqrt(2.0) * np.cos(np.pi * sp.grid)
        np.testing.assert_allclose(vals, expect, atol=1e-12)

    @pytest.mark.parametrize("k", [-5, -1, 0, 2, 6])
    def test_every_basis_vector_roundtrips(self, spec, k):
        c = SpectralField.basis(spec, k).coeffs
        back = batch_from_physical(batch_to_physical(c, spec), spec)
        np.testing.assert_allclose(back, c, atol=1e-12)

    def test_roundtrip_random_field(self, spec):
        f = random_field(spec, seed=1)
        c = f.coeffs / hs_norm(f, 0.0)
        back = batch_from_physical(batch_to_physical(c, spec), spec)
        np.testing.assert_allclose(back, c, atol=1e-10)

    def test_quadrature_exact_at_cutoff(self):
        sp = TorusSpec(1.0, 5, 11)  # minimal grid n = 2K+1
        c = SpectralField.basis(sp, 5).coeffs
        back = batch_from_physical(batch_to_physical(c, sp), sp)
        np.testing.assert_allclose(back, c, atol=1e-10)

    def test_length_mismatch(self, spec):
        with pytest.raises(ValueError):
            batch_from_physical(np.zeros(spec.n_grid + 1), spec)

    def test_constant_samples(self):
        sp = TorusSpec(2.0, 3)
        f = SpectralField(sp, batch_from_physical(np.full(sp.n_grid, 0.7), sp))
        assert f.coeff(0) == pytest.approx(0.7 * np.sqrt(2.0))
        others = [f.coeff(k) for k in range(-3, 4) if k != 0]
        np.testing.assert_allclose(others, 0.0, atol=1e-14)

    def test_discrete_orthonormality(self, spec):
        G = batch_to_physical(np.eye(spec.n_modes), spec)
        gram = G @ G.T * spec.quad_weight
        np.testing.assert_allclose(gram, np.eye(spec.n_modes), atol=1e-10)


class TestAliasing:
    """Projecting a degree-p polynomial of a cutoff-K field is exact when
    n_grid >= (p+1)K + 1, and aliases the top modes at n_grid = (p+1)K."""

    @staticmethod
    def projected_power(coeffs, K, n_grid, p):
        sp = TorusSpec(1.0, K, n_grid)
        return batch_from_physical(batch_to_physical(coeffs, sp) ** p, sp)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("K", [2, 4, 16])
    def test_power_is_exact_from_p_plus_one_K_plus_one(self, K, p):
        coeffs = np.random.default_rng(K).standard_normal(2 * K + 1)
        fine = self.projected_power(coeffs, K, 8 * K + 8, p)
        scale = np.abs(fine).max()
        exact = self.projected_power(coeffs, K, (p + 1) * K + 1, p)
        assert np.abs(exact - fine).max() <= 1e-12 * scale
        # for p = 3 this is the default grid, 4K
        aliased = self.projected_power(coeffs, K, (p + 1) * K, p)
        err = np.abs(aliased - fine)
        assert err[[0, -1]].max() > 1e-6 * scale   # modes -K and K
        assert err[1:-1].max() <= 1e-12 * scale

    def test_every_default_grid_dealiases_quadratic_drifts(self):
        assert all(TorusSpec(1.0, K).n_grid >= 3 * K + 1 for K in range(257))

    @pytest.mark.parametrize("L", [1.0, 2.0, 3.7])
    def test_one_point_grid_projects_a_constant_field_as_eight_do(self, L):
        # K = 0 fields are constant, so the default grid is one point
        assert TorusSpec(L, 0).n_grid == 1
        c = np.random.default_rng(7).standard_normal((1000, 1))
        one = self.projected_power(c, 0, 1, 2)
        eight = self.projected_power(c, 0, 8, 2)
        np.testing.assert_allclose(one, eight, rtol=4 * np.finfo(float).eps)


def _irfft_synthesis(coeffs, spec):
    """FFT reference for batch_to_physical: pack the coefficients, one irfft."""
    K, n, L = spec.K, spec.n_grid, spec.L
    spec_c = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spec_c[..., 0] = coeffs[..., K] * (n / np.sqrt(L))
    if K >= 1:
        amp = 0.5 * n * np.sqrt(2.0 / L)
        spec_c[..., 1:K + 1] = amp * (coeffs[..., K + 1:] + 1j * coeffs[..., K - 1::-1])
    return np.fft.irfft(spec_c, n=n, axis=-1)


def _rfft_analysis(values, spec):
    """FFT reference for batch_from_physical: one rfft, unpack the coefficients."""
    K, n, L = spec.K, spec.n_grid, spec.L
    spec_c = np.fft.rfft(values, axis=-1)
    coeffs = np.empty(values.shape[:-1] + (spec.n_modes,))
    coeffs[..., K] = spec_c[..., 0].real * (np.sqrt(L) / n)
    if K >= 1:
        amp = np.sqrt(2.0 * L) / n
        coeffs[..., K + 1:] = amp * spec_c[..., 1:K + 1].real
        coeffs[..., K - 1::-1] = amp * spec_c[..., 1:K + 1].imag
    return coeffs


class TestBatchTransforms:
    """Dense basis-matrix transforms: row independence and the FFT reference."""

    # transform, its basis matrix, its FFT form
    DIRECTIONS = {"to": (batch_to_physical, "synthesis", _irfft_synthesis),
                  "from": (batch_from_physical, "analysis", _rfft_analysis)}
    # (K, n_grid): default grids, odd and oversized grids, and a spec whose
    # 16-row gemm is large enough for BLAS to split it across threads
    SPECS = [(0, 0), (4, 0), (32, 0), (4, 9), (16, 509), (64, 0)]

    def batch(self, spec, direction, rows=256, seed=0):
        width = spec.n_modes if direction == "to" else spec.n_grid
        rng = np.random.default_rng(seed)
        # magnitudes over several decades, so rounding differences show
        return rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4, (rows, width))

    @pytest.mark.parametrize("direction", ["to", "from"])
    @pytest.mark.parametrize("K, n_grid", SPECS)
    def test_row_bits_do_not_depend_on_row_count(self, K, n_grid, direction):
        sp = TorusSpec(1.0, K, n_grid)
        transform = self.DIRECTIONS[direction][0]
        data = self.batch(sp, direction)
        full = transform(data, sp)
        for n in (1, 2, 3, 7, 17, 64, 190, 256):
            assert transform(data[:n], sp).tobytes() == full[:n].tobytes(), n
            assert transform(data[-n:], sp).tobytes() == full[-n:].tobytes(), n
        assert transform(np.asfortranarray(data[5:22]), sp).tobytes() == full[5:22].tobytes()
        for i in (0, 100, 255):
            assert transform(data[i], sp).tobytes() == full[i].tobytes(), i
        assert transform(data.reshape(16, 16, -1), sp).tobytes() == full.tobytes()

    @pytest.mark.parametrize("direction", ["to", "from"])
    @pytest.mark.parametrize("K, n_grid", [(0, 0), (4, 0), (16, 0)] + SPECS[2:])
    def test_dense_matches_fft_reference(self, K, n_grid, direction):
        sp = TorusSpec(1.0, K, n_grid)
        transform, matrix, reference = self.DIRECTIONS[direction]
        data = self.batch(sp, direction, seed=K + 1)
        # float64 bound on a row's length-m sums of products, taken row-wise
        # (the FFT mixes every input into every output): m * eps * max|b| *
        # sum |a_i|, with a factor 4 for the two paths' rounding together
        m = data.shape[1]
        scale = np.abs(getattr(sp, matrix)).max() * np.abs(data).sum(axis=1, keepdims=True)
        bound = 4 * m * np.finfo(float).eps * scale
        err = np.abs(transform(data, sp) - reference(data, sp))
        assert np.all(err <= bound)

    def test_basis_matrices_are_readonly(self, spec):
        for m in (spec.synthesis, spec.analysis):
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


class TestSplitAndSup:
    """The sup norm of a field over the physical grid."""

    def test_sup_constant(self):
        sp = TorusSpec(4.0, 2)
        assert sup_norm(SpectralField.basis(sp, 0, -3.0)) == pytest.approx(1.5)

    def test_sup_cosine(self):
        sp = TorusSpec(1.0, 1, 64)
        assert sup_norm(SpectralField.basis(sp, 1)) == pytest.approx(
            np.sqrt(2.0), abs=1e-2)

    def test_sup_zero(self, spec):
        assert sup_norm(SpectralField.zero(spec)) == 0.0

    def test_empirical_sobolev_embedding(self, spec):
        # ratio sup/H^1 stays bounded: no outlier above 2x the 99th percentile
        rng = np.random.default_rng(123)
        ratios = []
        for _ in range(1000):
            f = SpectralField(spec, rng.standard_normal(spec.n_modes))
            ratios.append(sup_norm(f) / hs_norm(f, 1.0))
        ratios = np.array(ratios)
        assert np.max(ratios) <= 2.0 * np.percentile(ratios, 99)


class TestValidation:
    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            TorusSpec(L=-1.0, K=2)
        with pytest.raises(ValueError):
            TorusSpec(L=1.0, K=4, n_grid=7)

    def test_nonfinite_coefficients(self, spec):
        c = np.zeros(spec.n_modes)
        c[0] = np.inf
        with pytest.raises(ValueError):
            SpectralField(spec, c)

    def test_coeffs_readonly(self, spec):
        f = SpectralField.zero(spec)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0


coeff_arrays = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=13,
    max_size=13).map(lambda v: np.array(v))


@settings(max_examples=50, deadline=None)
@given(coeff_arrays)
def test_roundtrip_property(coeffs):
    sp = TorusSpec(1.0, 6)
    back = batch_from_physical(batch_to_physical(coeffs, sp), sp)
    np.testing.assert_allclose(back, coeffs, atol=1e-10 * (1 + np.abs(coeffs).max()))


@settings(max_examples=50, deadline=None)
@given(coeff_arrays, st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_hs_monotone_in_s_property(coeffs, s1, s2):
    sp = TorusSpec(1.0, 6)
    f = SpectralField(sp, coeffs)
    lo, hi = min(s1, s2), max(s1, s2)
    assert hs_norm(f, lo) <= hs_norm(f, hi) * (1 + 1e-12)
