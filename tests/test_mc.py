"""Monte Carlo layer: estimators, fits, thresholds, variance report."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import srlab.mc as mc
from srlab import integrator
from srlab.config import ConfigError
from srlab.integrator import ExitSpec, SimConfig, simulate_batch
from srlab.mc import (BracketNotFound, DegeneratePoints, ExitEvent,
                      ExitStatistics, concentration_fit,
                      event_probability, fit_line, mode_variance_report,
                      run_batch, scaling_exponent, scalar_transition_probability,
                      threshold_bisect, transition_probability, transition_study,
                      wilson_interval)
from srlab.model import linear_drift
from srlab.spectral import SpectralField, TorusSpec


def make_cfg(spec, **kw):
    base = dict(eps=1e-2, sigma=0.05, dt=5e-4, spec=spec, t_start=0.0,
                t_end=0.1, seed=0, record_stride=10 ** 9)
    base.update(kw)
    return SimConfig(**base)


class TestWilson:
    def test_all_hit(self):
        p, lo, hi = wilson_interval(50, 50)
        assert p == 1.0 and hi == 1.0 and lo < 1.0

    def test_none_hit_n100(self):
        p, lo, hi = wilson_interval(0, 100)
        assert p == 0.0 and lo == 0.0
        assert hi == pytest.approx(0.037, abs=0.002)

    def test_interval_shrinks_with_n(self):
        # quadrupling n roughly halves the width at fixed empirical rate
        for rate in (0.1, 0.5, 0.9):
            _, lo1, hi1 = wilson_interval(int(rate * 400), 400)
            _, lo2, hi2 = wilson_interval(int(rate * 1600), 1600)
            ratio = (hi2 - lo2) / (hi1 - lo1)
            assert 0.4 <= ratio <= 0.6

    def test_contains_p_hat(self):
        for s, n in [(3, 17), (0, 9), (9, 9), (250, 1000)]:
            p, lo, hi = wilson_interval(s, n)
            assert lo <= p <= hi


class TestRunBatch:
    @pytest.fixture
    def setup(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.08, seed=21)
        model = linear_drift(-1.0)
        init = SpectralField.zero(spec)
        exits = ExitSpec(h_stable=0.12, h_perp=0.5)
        return cfg, model, init, exits

    def test_single_trajectory_matches_simulate(self, setup):
        cfg, model, init, exits = setup
        batch = run_batch(cfg, model, init, exits, None, n=1)
        rec = simulate_batch(cfg, model, init, exits, None, traj_indices=(0,),
                             collect_series=False)
        assert batch.outcomes["tau_b"][0] == rec["tau_b"][0]
        assert batch.outcomes["tau_bperp"][0] == rec["tau_bperp"][0]
        assert batch.outcomes["terminal_phi0"][0] == rec["terminal_phi0"][0]
        # the batch outcome is the engine's record itself
        assert batch.outcomes.tobytes() == rec.tobytes()

    def test_worker_count_invariance(self, setup):
        cfg, model, init, exits = setup
        a = run_batch(cfg, model, init, exits, None, n=300, n_workers=1)
        b = run_batch(cfg, model, init, exits, None, n=300, n_workers=3)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_worker_count_invariance_over_chunks(self, setup):
        # n=1000 at K=4 is two default chunks, so 3 workers run two processes
        cfg, model, init, exits = setup
        assert -(-1000 * cfg.spec.n_modes // mc.CHUNK_SIZE) == 2
        a = run_batch(cfg, model, init, exits, None, n=1000, n_workers=1)
        b = run_batch(cfg, model, init, exits, None, n=1000, n_workers=3)
        assert a.outcomes.tobytes() == b.outcomes.tobytes()

    def test_worker_env_var_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, "abc")
        with pytest.raises(ConfigError, match="SRLAB_WORKERS='abc'"):
            mc._n_workers(None)
        # an explicit count is the caller's argument, not a config value
        with pytest.raises(ValueError) as info:
            mc._n_workers("x")
        assert not isinstance(info.value, ConfigError)

    def test_chunk_size_invariance(self, monkeypatch):
        # K=16 transition batch in which about 60% of the paths stop at -d0:
        # rows leave their chunk's working set at different steps, and the
        # outcomes must not depend on which rows shared a chunk
        def outcomes(chunk, workers):
            monkeypatch.setattr(mc, "CHUNK_SIZE", chunk)
            batch, _, _ = transition_study(None, 0.04, 1e-2, 0.15, 120, K=16,
                                           T0=0.25, seed=8, n_workers=workers)
            return batch.outcomes

        ref = outcomes(256, 1)
        stopped = np.isfinite(ref["tau_minus_d0"])
        assert 0 < stopped.sum() < len(ref)
        for chunk in (17, 64, 256, 512):
            for workers in (1, 2):
                assert ref.tobytes() == outcomes(chunk, workers).tobytes(), \
                    f"CHUNK_SIZE={chunk}, {workers} workers"

    def test_chunk_size_invariance_in_rows_times_modes(self, monkeypatch):
        # the batch above with CHUNK_SIZE counted in rows x 33 modes: one
        # 120-row chunk, 2 x 60 and 3 x 40 rows (several 16-row dense
        # blocks each) and 8 chunks of 15 rows
        def outcomes(rows, workers):
            monkeypatch.setattr(mc, "CHUNK_SIZE", rows * 33)
            batch, _, _ = transition_study(None, 0.04, 1e-2, 0.15, 120, K=16,
                                           T0=0.25, seed=8, n_workers=workers)
            return batch.outcomes

        ref = outcomes(256, 1)
        for rows in (17, 40, 64, 120):
            for workers in (1, 2):
                assert ref.tobytes() == outcomes(rows, workers).tobytes(), \
                    f"CHUNK_SIZE={rows}*33, {workers} workers"

    @pytest.mark.parametrize("K,n,chunk,sizes", [
        (0, 400, None, [400]),            # a K=0 sigma*-probe: one step loop
        (16, 512, None, [256, 256]),      # the K=16 transition batch
        (16, 400, None, [200, 200]),
        (32, 200, None, [200]),           # from K=16 up, modes count as 33
        (64, 300, None, [150, 150]),
        (4, 11, 20, [2, 2, 2, 2, 3]),     # ceil(11 * 9 / 20) = 5 chunks
        (16, 7, 17, [1] * 7),             # capped at one row per chunk
    ])
    def test_chunk_plan(self, monkeypatch, K, n, chunk, sizes):
        # the plan is computed in the calling process, so it is read there;
        # the chunks themselves may run in worker processes
        if chunk is not None:
            monkeypatch.setattr(mc, "CHUNK_SIZE", chunk)
        spec = TorusSpec(1.0, K)
        plan = mc._chunk_ranges(n, spec.n_modes)
        assert [len(c) for c in plan] == sizes
        modes = min(spec.n_modes, 33)
        assert len(plan) == min(n, -(-n * modes // mc.CHUNK_SIZE))
        assert all(c.step == 1 for c in plan)
        assert all(a.stop == b.start for a, b in zip(plan, plan[1:]))
        assert [i for c in plan for i in c] == list(range(n))
        cfg = make_cfg(spec, sigma=0.08, seed=21)
        batches = [run_batch(cfg, linear_drift(-1.0), SpectralField.zero(spec),
                             ExitSpec(h_stable=0.12, h_perp=0.5), None, n,
                             n_workers=workers) for workers in (1, 2)]
        assert batches[0].outcomes["traj"].tolist() == list(range(n))
        assert batches[0].outcomes.tobytes() == batches[1].outcomes.tobytes()

    def test_worker_count_is_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        monkeypatch.delenv(mc.WORKERS_ENV_VAR, raising=False)
        assert mc._n_workers(None) == 3
        assert [mc._n_workers(w) for w in (64, 3, 2, 0)] == [3, 3, 2, 1]
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, "64")
        assert mc._n_workers(None) == 3
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, "2")
        assert mc._n_workers(None) == 2

    def test_digest_stable_across_reruns(self, setup):
        cfg, model, init, exits = setup
        a = run_batch(cfg, model, init, exits, None, n=4)
        b = run_batch(cfg, model, init, exits, None, n=4)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_sigma_zero_degenerates(self, setup):
        cfg, model, init, exits = setup
        cfg0 = make_cfg(cfg.spec, sigma=0.0, seed=21)
        batch = run_batch(cfg0, model, init, exits, None, n=8)
        o = batch.outcomes
        for name in ("tau_b", "tau_bperp", "terminal_phi0"):
            assert len(set(o[name].tolist())) == 1


_SCRIPT_BATCH = """\
batch, _, _ = mc.transition_study(None, 0.04, 1e-2, 0.15, 300, K=16, T0=0.05,
                                  seed=8, n_workers=2)
print(len(mc._chunk_ranges(300, 33)), batch.n)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="two worker processes need two usable CPUs")
def test_script_without_main_guard_gets_an_actionable_error(tmp_path):
    # worker processes import the main script again; unguarded, its batch
    # runs in each worker at import, and the workers die
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop(mc.WORKERS_ENV_VAR, None)
    guarded = 'if __name__ == "__main__":\n' + "".join(
        "    " + line for line in _SCRIPT_BATCH.splitlines(keepends=True))
    runs = {}
    for name, body in (("unguarded", _SCRIPT_BATCH), ("guarded", guarded)):
        script = tmp_path / f"{name}.py"
        script.write_text("import srlab.mc as mc\n" + body)
        runs[name] = subprocess.run([sys.executable, str(script)], env=env,
                                    capture_output=True, text=True,
                                    timeout=300)
    bad, good = runs["unguarded"], runs["guarded"]
    assert bad.returncode != 0
    # multiprocessing's own message quotes '__main__' in single quotes
    assert 'if __name__ == "__main__":' in bad.stderr
    assert "SRLAB_WORKERS=1" in bad.stderr
    assert good.returncode == 0, good.stderr
    assert good.stdout.split() == ["2", "300"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="two worker processes need two usable CPUs")
def test_pool_workers_get_one_blas_thread_unless_set():
    # the workers fill the CPUs; BLAS threads of their own would oversubscribe
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    seen = mc._worker_pool(2).submit(os.getenv, "OPENBLAS_NUM_THREADS").result(
        timeout=120)
    assert seen == (before if before is not None else "1")
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before


class TestEventProbability:
    def test_generous_radius_never_exits(self):
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.01, seed=2)
        batch = run_batch(cfg, linear_drift(-1.0), SpectralField.zero(spec),
                          ExitSpec(h_stable=5.0), None, n=100)
        st = event_probability(batch, ExitEvent.EXIT_B, cfg.t_end)
        assert st.p_hat == 0.0 and st.ci_high < 0.05

    def test_tiny_radius_always_exits(self):
        spec = TorusSpec(1.0, 2)
        cfg = make_cfg(spec, sigma=0.05, seed=2)
        batch = run_batch(cfg, linear_drift(-1.0), SpectralField.zero(spec),
                          ExitSpec(h_perp=1e-9), None, n=50)
        st = event_probability(batch, ExitEvent.EXIT_BPERP, cfg.t_end)
        assert st.p_hat == 1.0 and st.ci_high == 1.0


class TestFitLine:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 4.0, 7.5])
        fit = fit_line(x, -2.0 * x)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(DegeneratePoints):
            fit_line([1.0], [2.0])


class TestConcentrationFit:
    def test_frozen_linear_scalar_reduction(self):
        # K = 0 scalar exit: negative slope, high r^2 (seed-checked)
        model = linear_drift(-0.7)
        spec = TorusSpec(1.0, 0, 8)
        cfg = make_cfg(spec, sigma=0.08, t_end=0.02, seed=5150)
        fit = concentration_fit(model, cfg, ExitSpec(),
                                h_values=[0.08, 0.11, 0.16, 0.22], n=800)
        assert fit.slope < 0
        assert fit.r_squared >= 0.9

    def test_transverse_modes_do_not_break_fit(self):
        model = linear_drift(-0.7)
        spec = TorusSpec(1.0, 8)
        cfg = make_cfg(spec, sigma=0.08, t_end=0.02, seed=5150)
        fit = concentration_fit(model, cfg, ExitSpec(),
                                h_values=[0.08, 0.11, 0.16, 0.22], n=800)
        assert fit.slope < 0 and fit.r_squared >= 0.9

    def test_degenerate_when_all_saturate(self):
        model = linear_drift(-0.7)
        spec = TorusSpec(1.0, 0, 8)
        cfg = make_cfg(spec, sigma=0.5, t_end=0.05, seed=1)
        with pytest.raises(DegeneratePoints):
            concentration_fit(model, cfg, ExitSpec(),
                              h_values=[0.01, 0.02, 0.04], n=200)

    def test_h_span_validated(self):
        model = linear_drift(-1.0)
        spec = TorusSpec(1.0, 0, 8)
        cfg = make_cfg(spec)
        with pytest.raises(ValueError):
            concentration_fit(model, cfg, ExitSpec(), h_values=[0.1, 0.12, 0.15],
                              n=10)


def logistic_transition(monkeypatch, sigma_star, sharpness=8.0):
    """Make mc.transition_probability the exact logistic curve in sigma with
    midpoint sigma_star(delta, eps); returns the list of its calls."""
    calls = []

    def prob(model, delta, eps, sigma, n, exits=None, **kwargs):
        calls.append(kwargs["seed"])
        p = 1.0 / (1.0 + (sigma_star(delta, eps) / sigma) ** sharpness)
        return ExitStatistics(p_hat=p, ci_low=p, ci_high=p, n=0,
                              event=ExitEvent.TRANSITION)

    monkeypatch.setattr(mc, "transition_probability", prob)
    return calls


class TestThresholdBisect:
    def test_synthetic_logistic(self, monkeypatch):
        tol = 0.05
        logistic_transition(monkeypatch, lambda d, e: 0.1)
        sig, st, probes = threshold_bisect(None, 0.04, 1e-3, n=100, tol=tol)
        assert abs(np.log(sig / 0.1)) <= tol

    def test_bracket_not_found(self, monkeypatch):
        calls = logistic_transition(monkeypatch, lambda d, e: 1e9)
        with pytest.raises(BracketNotFound) as info:
            threshold_bisect(None, 0.04, 1e-3, n=10, tol=0.1)
        # the failed search still reports every probe it ran
        assert len(info.value.probes) == len(calls) == mc.MAX_PROBES
        assert [s for _, s, _ in info.value.probes] == calls

    def test_bracket_whose_product_overflows(self, monkeypatch):
        # sigma_lo * sigma_hi = 1e310 is past the float range; the midpoint
        # sqrt(lo) sqrt(hi) is not
        logistic_transition(monkeypatch, lambda d, e: 1e160, sharpness=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sig, _, probes = threshold_bisect(None, 0.04, 1e-3, n=10, tol=0.1,
                                              sigma_lo=1e10, sigma_hi=1e300)
        assert 1e10 < sig < 1e300
        assert abs(math.log(sig / 1e160)) <= 0.1
        assert all(0.0 < s < math.inf for s, _, _ in probes)

    def test_probes_are_recorded_with_seeds(self, monkeypatch):
        logistic_transition(monkeypatch, lambda d, e: 0.09)
        _, _, probes = threshold_bisect(None, 0.04, 1e-3, n=10, tol=0.2,
                                        master_seed=4)
        assert len(probes) >= 3
        seeds = [s for _, s, _ in probes]
        assert len(set(seeds)) == len(seeds)


class TestScalingExponent:
    def test_synthetic_exact_power_law(self, monkeypatch):
        logistic_transition(monkeypatch, lambda d, e: max(d, e) ** 0.75,
                            sharpness=64.0)
        fit = scaling_exponent(None, [0.01, 0.02, 0.04, 0.08, 0.16], 1e-3,
                               n=10, tol=0.01)
        assert fit.slope == pytest.approx(0.75, abs=0.01)
        assert fit.r_squared >= 0.999

    def test_preconditions(self):
        with pytest.raises(ValueError):
            scaling_exponent(None, [0.001, 0.01, 0.1], 1e-3, n=10)
        with pytest.raises(ValueError):
            scaling_exponent(None, [0.02, 0.04, 0.08], 1e-3, n=10)


class TestModeVarianceReport:
    def test_matches_exact_ou_variance(self):
        spec = TorusSpec(1.0, 4)
        cfg = make_cfg(spec, sigma=0.05, eps=1e-2, dt=5e-4, t_end=0.4,
                       seed=77, record_stride=40)
        rows, c0 = mode_variance_report(cfg, n=4000, k_max=4, a=-1.0)
        assert c0 > 0 and np.isfinite(c0)
        for r in rows:
            assert abs(r["var_final"] - r["exact_var"]) <= 3.0 * r["se_final"]

    @pytest.mark.parametrize("name,kw,n,a", [
        ("record_stride", {}, 10, -1.0),   # 10**9 > the window's 200 steps
        ("sigma", dict(sigma=0.0, record_stride=1), 10, -1.0),
        ("sigma", dict(sigma=1e-300, record_stride=1), 10, -1.0),
        ("sigma", dict(sigma=1e300, record_stride=1), 10, -1.0),
        ("n", dict(record_stride=1), 1, -1.0),
        ("a", dict(record_stride=1), 10, 0.0),
        # 1e18 steps: two paths of their record times fit in no array
        ("n", dict(dt=1e-19, record_stride=1), 2, -1.0),
    ], ids=["stride-past-window", "sigma-zero", "sigma-square-underflows",
            "sigma-square-overflows", "n-one", "a-zero", "paths-past-array"])
    def test_rejects_what_it_cannot_report(self, name, kw, n, a):
        cfg = make_cfg(TorusSpec(1.0, 2), **kw)
        with pytest.raises(ValueError, match=f"^{name}: "):
            mode_variance_report(cfg, n=n, k_max=2, a=a)

    def test_sigma_scaling_is_exact_pathwise(self):
        # same seed, doubled sigma: every variance scales by exactly 4
        spec = TorusSpec(1.0, 2)
        base = dict(eps=1e-2, dt=5e-4, spec=spec, t_start=0.0, t_end=0.2,
                    seed=5, record_stride=20)
        r1, _ = mode_variance_report(SimConfig(sigma=0.04, **base), 500, 3)
        r2, _ = mode_variance_report(SimConfig(sigma=0.08, **base), 500, 3)
        for a, b in zip(r1, r2):
            assert b["var_sup"] == pytest.approx(4.0 * a["var_sup"], rel=1e-12)

    def test_envelope_nonincreasing_beyond_first_mode(self):
        spec = TorusSpec(1.0, 8)
        cfg = make_cfg(spec, sigma=0.05, eps=1e-2, t_end=0.4, seed=3,
                       record_stride=40)
        rows, _ = mode_variance_report(cfg, n=3000, k_max=8, a=-1.0)
        ratios = [r["ratio_sup"] for r in rows]
        for k in range(2, 9):
            assert ratios[k] <= 1.2 * ratios[1]


class TestTransitionProbability:
    def test_sigma_zero_is_deterministic_zero(self):
        st = transition_probability(None, 0.04, 1e-3, 0.0, n=64, K=2)
        assert st.p_hat == 0.0 and st.n == 64

    def test_regime_monotonicity_in_sigma(self):
        delta, eps = 0.04, 1e-3
        sc = delta**0.75
        stats = [transition_probability(None, delta, eps, m * sc, n=150,
                                        K=4, seed=11)
                 for m in (0.5, 0.8, 1.1, 1.6)]
        for lo, hi in zip(stats, stats[1:]):
            # nondecreasing up to CI overlap
            assert hi.ci_high >= lo.ci_low

    def test_k0_matches_scalar_oracle(self):
        delta, eps = 0.04, 1e-3
        sigma = delta**0.75
        T0, d = 0.5, np.sqrt(delta)
        st = transition_probability(None, delta, eps, sigma, n=300, K=0,
                                    T0=T0, seed=314)
        oracle = scalar_transition_probability(delta, eps, sigma, 300, d,
                                               2 * d, T0, seed=2718)
        assert st.ci_low <= oracle.ci_high and oracle.ci_low <= st.ci_high

    def test_default_step_bias_at_k0(self):
        # criterion 7's setting at sigma = delta^(3/4), where p ~ 0.52: the
        # default step against one 4x finer, n = 4000 each on its own seed,
        # so the SE of the difference is ~sqrt(2 * 0.25 / 4000) ~ 0.011
        delta, eps, n = 0.04, 1e-3, 4000
        d = np.sqrt(delta)
        exits = ExitSpec(d_level=d, d0_level=2 * d)
        fine_dt = eps / (4 * integrator.STEPS_PER_EPS)
        default, fine = (transition_probability(None, delta, eps, delta**0.75,
                                                n, exits, K=0, T0=0.5,
                                                dt=dt, seed=seed)
                         for dt, seed in ((None, 27), (fine_dt, 28)))
        se = math.sqrt(sum(st.p_hat * (1 - st.p_hat) / n
                           for st in (default, fine)))
        assert abs(default.p_hat - fine.p_hat) <= 3 * se
