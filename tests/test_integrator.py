"""Integrator: exponential Euler stepping, noise law, exit detection."""

import collections
import warnings

import numpy as np
import pytest
from scipy import stats

from srlab import _streams, integrator
from srlab.adiabatic import deterministic_pde_track
from srlab.config import parse_config_text, sim_config
from srlab.integrator import (ExitSpec, SimConfig, _step_factors, simulate_batch,
                              simulate_linear_mode)
from srlab.mc import transition_study
from srlab.model import DriftKind, DriftModel, linear_drift, normal_form
from srlab.spectral import SpectralField, TorusSpec, hs_weights


def zero_drift():
    return linear_drift(0.0)


class CubicDrift(DriftModel):
    """The linear drift of ``params`` plus 4 phi^3, which no drift kind has."""

    def f(self, t, phi):
        return super().f(t, phi) + 4.0 * phi**3

    def dfdphi(self, t, phi):
        return super().dfdphi(t, phi) + 12.0 * phi**2


# f(t, phi) = -phi + 4 phi^3: stable at 0, escapes past |phi| = 1/2
STEEP_CUBIC = CubicDrift(DriftKind.LINEAR, linear_drift(-1.0).params)


def make_cfg(spec, **kw):
    base = dict(eps=1e-2, sigma=0.05, dt=5e-4, spec=spec, t_start=0.0,
                t_end=0.5, seed=0, record_stride=1)
    base.update(kw)
    return SimConfig(**base)


class TestNoiseIncrementStd:
    """The per-mode noise std of one step, ``_step_factors(cfg)[2]``."""

    @staticmethod
    def noise_std(k, dt, eps, sigma, L=1.0):
        spec = TorusSpec(L, max(k, 1))
        cfg = make_cfg(spec, dt=dt, eps=eps, sigma=sigma, t_end=dt)
        return _step_factors(cfg)[2][spec.index_of(k)]

    def test_brownian_mode(self):
        assert self.noise_std(0, 5e-4, 1e-2, 0.3) == pytest.approx(
            0.3 * np.sqrt(0.05))

    def test_stationary_limit(self):
        # mu dt/eps -> infinity saturates at sigma / sqrt(2 mu); dt <= eps,
        # so the limit is reached through a large mu (a short torus)
        L = 0.01
        mu = (3 * np.pi / L) ** 2
        val = self.noise_std(3, 1e-2, 1e-2, 0.2, L=L)
        assert val == pytest.approx(0.2 / np.sqrt(2.0 * mu), rel=1e-12)

    def test_log2_plugin(self):
        # mu_1 = 1 on the torus of length pi
        assert self.noise_std(1, np.log(2.0), 1.0, 1.0, L=np.pi) == \
            pytest.approx(np.sqrt(3.0 / 8.0))

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            make_cfg(TorusSpec(1.0, 0), dt=-1.0)

    def test_largest_finite_eigenvalue_warns_nothing(self):
        # mu_2 ~ 1.5e308 is finite, 2 mu_2 is not: the mode's variance is 0
        spec = TorusSpec(5.1e-154, 2)
        assert np.isfinite(spec.eigenvalues).all()
        cfg = make_cfg(spec, eps=0.05, dt=0.05 / 20, t_end=0.05 / 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decay, psi, noise_std = _step_factors(cfg)
        assert noise_std[spec.index_of(2)] == 0.0
        assert np.isfinite(decay).all() and np.isfinite(psi).all()


class TestStepGrid:
    def test_window_snaps_to_whole_steps(self):
        assert integrator.step_grid(1e-2, -0.2, 0.2) == (5e-4, -0.2 + 800 * 5e-4)
        # a window shorter than half a step still runs one step
        assert integrator.step_grid(1e-2, 0.0, 1e-4, dt=1e-3) == (1e-3, 1e-3)

    @pytest.mark.parametrize("args,name", [
        ((0.0, 0.0, 1.0), "eps"),
        ((1e-2, 0.0, 1.0, 0.0), "dt"),
        ((1e-2, 0.0, 1.0, 2e-2), "dt"),
        ((1e-2, 1.0, 1.0), "t_end"),
        # 3e18 float64 step times are more bytes than intp.max
        ((1e-2, 0.0, 0.3, 1e-19), "dt"),
    ], ids=["eps-zero", "dt-zero", "dt-above-eps", "empty-window",
            "times-past-array"])
    def test_each_rule_names_its_parameter(self, args, name):
        with pytest.raises(ValueError, match=f"^{name}: "):
            integrator.step_grid(*args)
        # 3e17 step times are within the bound; nothing is allocated here
        assert integrator.step_grid(1e-2, 0.0, 0.3, 1e-18)[0] == 1e-18

    def test_every_default_step_follows_steps_per_eps(self, monkeypatch):
        # the CLI, the transition study and the deterministic track all take
        # their default step from integrator.STEPS_PER_EPS
        monkeypatch.setattr(integrator, "STEPS_PER_EPS", 8)
        eps = 1e-2
        _, study, _ = transition_study(None, 0.04, eps, 0.0, n=1, K=0, T0=0.1)
        cfg = parse_config_text(f"[torus]\nK = 0\n\n[sim]\nepsilon = {eps}\n")
        times, _ = deterministic_pde_track(linear_drift(-1.0, 0.5), eps,
                                           TorusSpec(1.0, 0), T=0.05)
        assert study.dt == sim_config(cfg).dt == times[1] == eps / 8


class TestStep:
    """Single exponential Euler steps, as 1-3 step runs of the batch engine."""

    def test_pure_heat_decay(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.0, t_end=5e-4, record_fields=True)
        rec = simulate_batch(cfg, zero_drift(), SpectralField.basis(spec, 1), None)[0]
        assert rec["fields"][-1, spec.index_of(1)] == pytest.approx(
            np.exp(-np.pi**2 * cfg.dt / cfg.eps))

    def test_scalar_exponential_one_step(self):
        # k=0 mode of f=-phi: update 1 + a dt/eps matches exp within O((dt/eps)^2)
        spec = TorusSpec(1.0, 0, 8)
        cfg = make_cfg(spec, sigma=0.0, dt=2e-4, t_end=2e-4, record_fields=True)
        rec = simulate_batch(cfg, linear_drift(-1.0), SpectralField.basis(spec, 0),
                             None)[0]
        theta = cfg.dt / cfg.eps
        assert abs(rec["fields"][-1, spec.index_of(0)] - np.exp(-theta)) <= 0.6 * theta**2

    def test_nonfinite_marks_failed(self):
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.0, t_end=2 * 5e-4)
        # step 1 takes phi from 1 to ~5e298; step 2's drift overflows under
        # any exact transform
        blow = linear_drift(1e300)
        rec = simulate_batch(cfg, blow, SpectralField.constant(spec, 1.0), None)[0]
        assert rec["failed"]
        assert np.isfinite(rec["terminal_phi0"])

    def test_single_steps_match_stride_bitwise(self):
        # recording after every step must not change the arithmetic: the
        # first step equals a 1-step run, and the third a stride-3 run
        spec = TorusSpec(1.0, 4)
        model = normal_form(0.04)
        init = SpectralField.constant(spec, 0.2)

        def run(n_steps, stride):
            cfg = make_cfg(spec, sigma=0.08, t_end=n_steps * 5e-4,
                           record_stride=stride, record_fields=True)
            return simulate_batch(cfg, model, init, None)[0]

        every = run(3, 1)
        for one, step_i in ((run(1, 1), 1), (run(3, 3), 3)):
            assert one["phi0"][-1] == every["phi0"][step_i]
            assert one["fields"][-1].tobytes() == every["fields"][step_i].tobytes()
        assert every["terminal_phi0"] == every["phi0"][3]


class TestStationaryVariance:
    def test_heat_mode_variance_matches_closed_form(self):
        # f = 0: the discrete chain is the exact stochastic convolution
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.06, t_end=0.3, seed=42, record_stride=600)
        n = 4000
        for k in (1, 2):
            paths = simulate_linear_mode(k, 0.0, cfg, n_paths=n)
            v = paths[:, -1].var(ddof=1)
            exact = cfg.sigma**2 / (2.0 * (k * np.pi) ** 2)
            se = exact * np.sqrt(2.0 / (n - 1))
            assert abs(v - exact) <= 3.0 * se

    def test_mean_square_consistency_at_every_recorded_time(self):
        # f = 0: the engine's chain is the exact stochastic convolution, so
        # each mode has mean 0 and the closed-form variance at every sample
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.06, dt=2e-4, t_end=0.06, seed=13,
                       record_stride=30, record_fields=True)
        n = 2000
        res = simulate_batch(cfg, zero_drift(), SpectralField.zero(spec),
                             None, None, traj_indices=range(n))
        fields = res["fields"]  # (n, n_rec, modes)
        t_rec = cfg.record_times()
        for k in (0, 1, 2):
            mu = (k * np.pi) ** 2
            idx = spec.index_of(k)
            for j in range(1, len(t_rec)):
                samples = fields[:, j, idx]
                if mu > 0:
                    exact = cfg.sigma**2 * (1 - np.exp(-2 * mu * t_rec[j] / cfg.eps)) / (2 * mu)
                else:
                    exact = cfg.sigma**2 * t_rec[j] / cfg.eps
                se_mean = np.sqrt(exact / n)
                assert abs(samples.mean()) <= 3.0 * se_mean
                se_var = exact * np.sqrt(2.0 / (n - 1))
                assert abs(samples.var(ddof=1) - exact) <= 3.0 * se_var

    def test_full_engine_matches_linear_sampler_statistically(self):
        # same stationary law through the exponential-Euler field path, f = a phi
        spec = TorusSpec(1.0, 1)
        a = -1.0
        cfg = make_cfg(spec, sigma=0.05, dt=1e-4, t_end=0.3, seed=7,
                       record_stride=3000)
        res = simulate_batch(cfg, linear_drift(a), SpectralField.zero(spec),
                             None, None, traj_indices=range(3000))
        v = np.nanvar(res["phi0"][:, -1], ddof=1)
        exact = cfg.sigma**2 / (2.0 * abs(a))
        se = exact * np.sqrt(2.0 / 2999)
        # dt-bias of the explicit reaction term is O(dt/eps) = 1%
        assert abs(v - exact) <= 3.0 * se + 0.015 * exact


class TestSimulateExits:
    def test_deterministic_run_never_exits(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.0, t_end=0.2)
        rec = simulate_batch(cfg, linear_drift(-1.0), SpectralField.zero(spec),
                             ExitSpec(h_perp=1.0, h_stable=1.0, d_level=0.5,
                                      d0_level=1.0))[0]
        assert np.isinf([rec["tau_bperp"], rec["tau_b"], rec["tau_minus_d"],
                         rec["tau_minus_d0"]]).all()
        assert not rec["failed"]

    def test_tiny_transverse_tube_exits_immediately(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.05)
        rec = simulate_batch(cfg, zero_drift(), SpectralField.zero(spec),
                             ExitSpec(h_perp=1e-8))[0]
        assert rec["tau_bperp"] <= cfg.t_start + 5 * cfg.dt

    def test_exit_probability_decreases_with_radius(self):
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.1, t_end=0.1, seed=3, record_stride=10 ** 9)
        model = linear_drift(-1.0)
        init = SpectralField.zero(spec)

        def n_exits(h):
            res = simulate_batch(cfg, model, init, ExitSpec(h_stable=h), None,
                                 traj_indices=range(500), collect_series=False)
            return np.isfinite(res["tau_b"]).sum()

        assert n_exits(0.30) < n_exits(0.15)

    def test_pathwise_exit_monotonicity(self):
        # same seed: enlarging a radius never decreases the hitting time
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.1, t_end=0.2, seed=15, record_stride=10 ** 9)
        model = linear_drift(-1.0)
        init = SpectralField.zero(spec)
        for small, large in [(0.05, 0.08), (0.02, 0.2)]:
            r1 = simulate_batch(cfg, model, init, ExitSpec(h_stable=small,
                                                           h_perp=small),
                                None, traj_indices=range(64),
                                collect_series=False)
            r2 = simulate_batch(cfg, model, init, ExitSpec(h_stable=large,
                                                           h_perp=large),
                                None, traj_indices=range(64),
                                collect_series=False)
            assert np.all(r2["tau_b"] >= r1["tau_b"])
            assert np.all(r2["tau_bperp"] >= r1["tau_bperp"])

    def test_hit_time_consistent_with_observables(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.05, t_end=0.2, record_stride=1)
        h = 0.04
        rec = simulate_batch(cfg, zero_drift(), SpectralField.zero(spec),
                             ExitSpec(h_perp=h))[0]
        if np.isfinite(rec["tau_bperp"]):
            before = cfg.record_times() < rec["tau_bperp"] - cfg.dt / 2
            assert np.all(rec["perp_hs"][before] < h)

    def test_b0_monitor_requires_frame(self):
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec)
        with pytest.raises(ValueError):
            simulate_batch(cfg, linear_drift(-1.0), SpectralField.zero(spec),
                           ExitSpec(h=1.0), frame=None)


class TestBatchDeterminism:
    def test_single_equals_batch_member(self):
        spec = TorusSpec(1.0, 6)
        cfg = make_cfg(spec, sigma=0.1, t_end=0.1, seed=77, record_stride=20)
        model = normal_form(0.04)
        init = SpectralField.constant(spec, 0.2)
        ex = ExitSpec(d_level=0.2, d0_level=0.4, h_perp=2.0)
        single = simulate_batch(cfg, model, init, ex, None, traj_indices=[9])
        batch = simulate_batch(cfg, model, init, ex, None, traj_indices=range(32))
        np.testing.assert_array_equal(single["phi0"][0], batch["phi0"][9])
        np.testing.assert_array_equal(single["perp_hs"][0], batch["perp_hs"][9])
        for name in ("tau_bperp", "tau_minus_d", "tau_minus_d0"):
            assert single[name][0] == batch[name][9]

    def test_mixed_batch_matches_single_runs_bitwise(self):
        self.check_mixed_batch(K=2, n=24)

    def test_mixed_k0_batch_across_blocks_matches_single_runs_bitwise(self):
        # the default one-point grid; 21 of the 40 rows leave, so the
        # working rows shrink across the 16-row blocks of the engine's buffer
        self.check_mixed_batch(K=0, n=40)

    @staticmethod
    def check_mixed_batch(K, n):
        # rows stop at -d0, blow up or run to the end, and so leave the
        # batch's working set at different steps; each row's outcome and
        # series must still be those of the same index simulated alone
        spec = TorusSpec(1.0, K)
        cfg = make_cfg(spec, sigma=0.25, t_end=0.15, seed=4, record_stride=6,
                       record_fields=True)
        model = STEEP_CUBIC
        init = SpectralField.zero(spec)
        ex = ExitSpec(d_level=0.5, d0_level=0.8, h_perp=0.3, h_stable=0.4)
        batch = simulate_batch(cfg, model, init, ex, None, traj_indices=range(n))
        stopped = np.isfinite(batch["tau_minus_d0"])
        failed = batch["failed"]
        ran = ~stopped & ~failed
        assert stopped.any() and failed.any() and ran.any()
        assert not (stopped & failed).any()
        terminal = batch["terminal_phi0"]
        assert np.all(terminal[stopped] <= -ex.d0_level)
        assert np.all(np.isfinite(terminal[failed]))
        np.testing.assert_array_equal(terminal[ran], batch["phi0"][ran, -1])
        names = ("tau_b0", "tau_bperp", "tau_b", "tau_minus_d",
                 "tau_minus_d0", "failed", "terminal_phi0", "phi0",
                 "perp_hs", "fields")
        for i in range(n):
            single = simulate_batch(cfg, model, init, ex, None, traj_indices=[i])
            for name in names:
                assert single[name][0].tobytes() == batch[name][i].tobytes(), \
                    f"{name} of trajectory {i}"

    def test_deterministic_rerun_is_bitwise(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.07, t_end=0.2, seed=5, record_stride=40)
        model = normal_form(0.02)
        init = SpectralField.constant(spec, 0.15)
        a = simulate_batch(cfg, model, init, None, None, traj_indices=range(8))
        b = simulate_batch(cfg, model, init, None, None, traj_indices=range(8))
        np.testing.assert_array_equal(a["phi0"], b["phi0"])


class TestLinearModeSampler:
    def test_sigma_zero_exponential_decay(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.0, t_end=0.1)
        paths = simulate_linear_mode(2, -1.0, cfg, n_paths=1, psi0=1.0)
        mu2 = (2 * np.pi) ** 2
        expect = np.exp(-(mu2 + 1.0) * 0.1 / cfg.eps)
        assert paths[0, -1] == pytest.approx(expect, rel=1e-10)

    def test_requires_contraction(self):
        spec = TorusSpec(1.0, 1)
        cfg = make_cfg(spec)
        with pytest.raises(ValueError):
            simulate_linear_mode(0, 2.0, cfg)

    def test_stride_one_is_the_recursion_over_the_stream(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.3, t_end=0.05, seed=17)
        k, a = 3, -1.0
        paths = simulate_linear_mode(k, a, cfg, n_paths=3, psi0=0.2)
        dalpha = (-(k * np.pi) ** 2 + a) * cfg.dt
        m = np.exp(dalpha / cfg.eps)
        std = np.sqrt(cfg.sigma**2 * (-np.expm1(2.0 * dalpha / cfg.eps)
                                      / (2.0 * (-dalpha / cfg.dt))))
        for i in range(3):
            key = _streams.stream_keys(cfg.seed, [i], (k,))[0]
            z = _streams.mode_stream(key).standard_normal(cfg.n_steps)
            psi, expect = 0.2, [0.2]
            for zn in z:
                psi = m * psi + std * zn
                expect.append(psi)
            assert paths[i].tobytes() == np.array(expect).tobytes()

    @pytest.mark.parametrize("stride", [2, 7, 50])
    def test_stride_s_is_stride_one_at_s_times_dt(self, stride):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.3, dt=1e-4, t_end=0.07, seed=9,
                       record_stride=stride)
        coarse = make_cfg(spec, sigma=0.3, dt=1e-4 * stride, t_end=0.07,
                          seed=9)
        for k in (0, 2):
            a = simulate_linear_mode(k, -1.0, cfg, n_paths=5, psi0=-0.1)
            b = simulate_linear_mode(k, -1.0, coarse, n_paths=5, psi0=-0.1)
            assert a.shape == (5, 700 // stride + 1)
            assert a.tobytes() == b.tobytes()

    def test_variance_bound_envelope(self):
        # sup_t Var(psi_k) <= C0 sigma^2 / <k>^2 with fitted C0 <= 2 L^2/pi^2 + 1
        spec = TorusSpec(1.0, 8)
        cfg = make_cfg(spec, sigma=0.05, t_end=0.3, seed=8, record_stride=20)
        c0 = 0.0
        for k in range(1, 9):
            paths = simulate_linear_mode(k, 0.0, cfg, n_paths=2000)
            var_sup = paths.var(axis=0, ddof=1).max()
            c0 = max(c0, var_sup * (1.0 + k * k) / cfg.sigma**2)
        assert c0 <= 2.0 / np.pi**2 + 1.0


class TestModeZeroMarginal:
    def test_kolmogorov_smirnov_against_scalar_euler(self):
        # K=0 field simulation vs a direct scalar Euler-Maruyama at dt/10
        delta, eps, sigma = 0.04, 1e-3, 0.02
        T0 = 0.2
        spec = TorusSpec(1.0, 0, 8)
        n = 1000
        cfg = SimConfig(eps=eps, sigma=sigma, dt=eps / 20, spec=spec,
                        t_start=-T0, t_end=T0, seed=1234,
                        record_stride=10 ** 9)
        model = normal_form(delta)
        init = SpectralField.constant(spec, np.sqrt(delta + T0 * T0))
        res = simulate_batch(cfg, model, init, None, None, traj_indices=range(n))
        end_field = res["terminal_phi0"]

        rng = np.random.default_rng(999)
        dt = eps / 200
        steps = int(round(2 * T0 / dt))
        phi = np.full(n, np.sqrt(delta + T0 * T0))
        t = -T0
        for _ in range(steps):
            xi = rng.standard_normal(n)
            phi = phi + (dt / eps) * (delta + t * t - phi**2) \
                + sigma * np.sqrt(dt / eps) * xi
            t += dt
        p = stats.ks_2samp(end_field, phi).pvalue
        assert p > 0.01


class TestTruncationCoupling:
    def test_shared_modes_make_truncation_effect_exact(self):
        # per-(trajectory, mode) streams: a K=16 run and a K=32 run share the
        # noise of their common modes, so for diagonal (linear) drift the
        # difference is exactly the tail-mode field, whose H^s size matches
        # the closed-form stationary sum
        a = -1.0
        s = 0.4
        sigma = 0.1
        n = 256
        out = {}
        for K in (16, 32):
            spec = TorusSpec(1.0, K, 96)
            cfg = SimConfig(eps=1e-2, sigma=sigma, dt=5e-4, spec=spec,
                            t_start=0.0, t_end=0.3, seed=22, record_stride=600,
                            s_monitor=s)
            res = simulate_batch(cfg, linear_drift(a), SpectralField.zero(spec),
                                 None, None, traj_indices=range(n))
            out[K] = res["perp_hs"][:, -1] ** 2
        diff = np.mean(out[32] - out[16])
        mu = lambda k: (k * np.pi) ** 2
        tail = 2 * sum((1 + k * k) ** s * sigma**2 / (2 * (mu(k) - a))
                       for k in range(17, 33))
        assert diff == pytest.approx(tail, rel=0.25)
        # H^s truncation decays like K^{2s-1}: slow but visibly subdominant
        assert diff <= 0.2 * np.mean(out[16])


class _CountedStream:
    """A Generator proxy that adds the normals it draws to ``counts[key]``."""

    def __init__(self, gen, counts, key):
        self._gen, self._counts, self._key = gen, counts, key

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._counts[self._key] += np.size(out)
        return out


class TestNoiseCount:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Normals drawn per (trajectory, mode) stream.

        Each stream is named by its key, looked up among the keys of
        trajectories 0..29 and modes -2..2 at the seeds these tests use.
        """
        drawn = collections.Counter()
        make = _streams.mode_stream
        names = [(i, k) for i in range(30) for k in range(-2, 3)]
        stream_of = {}
        for seed in (0, 4):
            keys = _streams.stream_keys(seed, range(30), range(-2, 3))
            stream_of.update(zip(map(tuple, keys), names))

        def counted(key, *args):
            return _CountedStream(make(key, *args), drawn,
                                  stream_of[tuple(key)])

        monkeypatch.setattr(_streams, "mode_stream", counted)
        return drawn

    def test_no_stopping_draws_exactly_every_step(self, counts, monkeypatch):
        # 20 streams in blocks of 50 steps: 130 steps end in a partial block
        monkeypatch.setattr(_streams, "BLOCK_NORMALS", 20 * 50)
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.05, t_end=0.065)
        simulate_batch(cfg, linear_drift(-1.0), SpectralField.zero(spec),
                       None, None, traj_indices=range(4), collect_series=False)
        assert len(counts) == 4 * spec.n_modes
        assert set(counts.values()) == {cfg.n_steps}

    def test_one_mode_sampler_draws_exactly_every_step(self, counts,
                                                       monkeypatch):
        monkeypatch.setattr(_streams, "BLOCK_NORMALS", 30 * 50)
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.05, t_end=0.065)
        simulate_linear_mode(1, -1.0, cfg, n_paths=30)
        assert len(counts) == 30
        assert set(counts.values()) == {cfg.n_steps}

    @pytest.mark.parametrize("stride", [3, 50, 130])
    def test_one_mode_sampler_draws_once_per_record(self, counts, monkeypatch,
                                                    stride):
        # 130 steps: 43, 2 and 1 whole record intervals, in blocks of at
        # most 20 draws; no draw for the steps after the last record
        monkeypatch.setattr(_streams, "BLOCK_NORMALS", 30 * 20)
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.05, t_end=0.065, record_stride=stride)
        simulate_linear_mode(1, -1.0, cfg, n_paths=30)
        assert len(counts) == 30
        assert set(counts.values()) == {cfg.n_steps // stride}

    def test_stopped_rows_draw_nothing_after_their_block(self, counts,
                                                         monkeypatch):
        # a cap of 50 steps cuts the 130 steps into blocks of 44, 44 and 42
        monkeypatch.setattr(_streams, "BLOCK_NORMALS", 24 * 5 * 50)
        made = []

        class Recorded(_streams.BlockNormals):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(_streams, "BlockNormals", Recorded)
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.25, t_end=0.065, seed=4)
        res = simulate_batch(cfg, STEEP_CUBIC, SpectralField.zero(spec),
                             ExitSpec(d0_level=0.8), None,
                             traj_indices=range(24), collect_series=False)
        block = _streams._block_steps(cfg.n_steps, 24 * spec.n_modes)
        assert len(made) == 1 and made[0]._store.size <= 24 * 5 * block
        tau = res["tau_minus_d0"]
        stopped = np.isfinite(tau)
        assert stopped.any() and res["failed"].any()
        assert (~stopped & ~res["failed"]).any()
        last = np.full(24, cfg.n_steps - 1)
        last[stopped] = np.rint((tau[stopped] - cfg.t_start) / cfg.dt - 0.5)
        for i in range(24):
            if res["failed"][i]:
                continue
            expect = min((last[i] // block + 1) * block, cfg.n_steps)
            for k in spec.wavenumbers:
                assert counts[(i, k)] == expect
