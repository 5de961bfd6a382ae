"""CLI: config round trip, subcommands, manifests, resume, reproducibility."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srlab.mc as mc
from srlab._streams import derive_seed
from srlab.cli import _COMMANDS, Manifest, main
from srlab.config import (ConfigError, RunConfig, parse_config_text,
                          serialize_config)
from srlab.integrator import TAU_COLUMN, ExitEvent, ExitSpec
from srlab.mc import transition_probability
from srlab.model import DriftKind, normal_form
from test_mc import logistic_transition

BASE = """
[torus]
K = 4

[model]
kind = normal-form
delta = 0.04

[sim]
epsilon = 0.001
sigma = 0.05
seed = 4242

[adiabatic]
t0 = 0.2
t_points = 21
"""


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


UNMONITORED = BASE.replace("K = 4", "K = 2").replace(
    "epsilon = 0.001", "epsilon = 0.01").replace(
    "sigma = 0.05", "sigma = 0.3") + "\n[mc]\nn = 20\nevent = {event}\n"
UNMONITORED_EVENTS = [("cross-minus-d", "d_level"), ("exit-bperp", "h_perp"),
                      ("exit-b", "h_stable"), ("exit-b0", "h"),
                      ("reach-minus-d0", "d0_level")]
TINY_DT = BASE.replace("K = 4", "K = 2").replace(
    "epsilon = 0.001", "epsilon = 0.01\ndt = 1e-300")

# every (section, key) of a run configuration, and values for any of them
CONFIG_KEYS = [(s.name, f.name) for s in dataclasses.fields(RunConfig)
               for f in dataclasses.fields(getattr(RunConfig(), s.name))]
CONFIG_VALUES = (["", "0", "1", "-1", "2", "0.25", "1e-4", "1e300", "-1e300",
                  "1e-300", "nan", "inf", "-inf", "banana", "0.1, 0.2",
                  "1, -1, 1e300", ", 1"]
                 + [k.value for k in DriftKind] + [e.value for e in ExitEvent]
                 + ["branch", "adiabatic", "zero", "const:0.5", "const:nan",
                    "upper", "lower"])

# the linear drift f = 5 - phi, whose one root lies past 3
LINEAR_PAST_THREE = "[model]\nkind = linear\na = -1.0\nc = 5.0\n"
# the linear drift f = 0
LINEAR_CONSTANT = {("model", "kind"): "linear", ("model", "a"): "0",
                   ("model", "c"): "0"}

# the default configuration at sizes that run in well under a second
SMALL = RunConfig()
SMALL.torus.K = 2
SMALL.model.delta = 0.01
SMALL.sim.epsilon = 0.05
SMALL.adiabatic.t0 = 0.1
SMALL.adiabatic.t_points = 5
SMALL.mc.n = 8
SMALL.mc.k_max = 2
SMALL.threshold.delta_values = (0.01,)
SMALL.threshold.n = 8
# the same on the linear model, the one variance-check runs
SMALL_LINEAR = dataclasses.replace(
    SMALL, model=dataclasses.replace(SMALL.model, kind="linear"))
# the linear model on [0, 0.3] at epsilon = 0.01, cut into 0.3 / dt steps
def linear_window(dt, n=8):
    return config_text({("sim", "epsilon"): "0.01", ("sim", "t_end"): "0.3",
                        ("sim", "dt"): dt, ("mc", "n"): n}, SMALL_LINEAR)


# the keys variance-check reads
VARIANCE_CHECK_KEYS = [("torus", "L"), ("torus", "K"), ("torus", "n_grid"),
                       ("model", "a"), ("sim", "epsilon"), ("sim", "sigma"),
                       ("sim", "dt"), ("sim", "t_start"), ("sim", "t_end"),
                       ("sim", "seed"), ("sim", "record_stride"),
                       ("mc", "n"), ("mc", "k_max")]


def config_text(entries, base=None):
    """The text of ``base`` (the default configuration) with every key
    present and the values of ``entries`` put in."""
    lines, section = [], None
    for line in serialize_config(base or RunConfig()).splitlines():
        key = line.split(" = ")[0]
        if line.startswith("["):
            section = line[1:-1]
        elif (section, key) in entries:
            line = f"{key} = {entries[section, key]}"
        lines.append(line)
    return "\n".join(lines)


class TestConfig:
    def test_round_trip_identity(self):
        cfg = parse_config_text(BASE)
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg
        # serialising the reparse reproduces the text exactly
        assert serialize_config(parse_config_text(text)) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[torus]\nQ = 3\n")

    @pytest.mark.parametrize("section,line", [
        ("sim", "stop_on_d0 = false"),
        ("threshold", "synthetic = logistic:prefactor=1.0")],
        ids=["stop_on_d0", "synthetic"])
    def test_removed_keys_are_unknown(self, section, line):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"[{section}]\n{line}\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[quantum]\nfoo = 1\n")

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match=r"\[sim\] epsilon"):
            parse_config_text("[sim]\nepsilon = banana\n")

    def test_bad_enum_values(self):
        with pytest.raises(ConfigError, match=r"\[model\] kind"):
            parse_config_text("[model]\nkind = pitchfork\n")
        with pytest.raises(ConfigError, match=r"\[mc\] event"):
            parse_config_text("[mc]\nevent = nope\n")
        # the enums are the lists of valid values
        for kind in DriftKind:
            assert parse_config_text(f"[model]\nkind = {kind.value}\n"
                                     ).model.kind == kind.value
        for event in ExitEvent:
            assert parse_config_text(f"[mc]\nevent = {event.value}\n"
                                     ).mc.event == event.value

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS),
                           st.sampled_from(CONFIG_VALUES), max_size=3))
    def test_any_text_parses_or_is_a_config_error(self, entries):
        try:
            cfg = parse_config_text(config_text(entries))
        except ConfigError:
            return
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_optional_blank_is_none(self):
        cfg = parse_config_text("[sim]\ndt =\n")
        assert cfg.sim.dt is None

    def test_record_stride_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"\[sim\] record_stride"):
            parse_config_text("[sim]\nrecord_stride = 0\n")

    def test_tuple_values(self):
        cfg = parse_config_text("[sweep]\nsigma_values = 0.1, 0.2, 0.4\n")
        assert cfg.sweep.sigma_values == (0.1, 0.2, 0.4)

    def test_readme_example_parses(self):
        # a key removed from the schema cannot linger in the README example
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        cfg = parse_config_text(blocks[0], source="README.md")
        assert cfg.model.kind == "normal-form" and cfg.torus.K == 16


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[torus]\nbogus = 1\n")
        assert main(["branches", "--config", path, "--out", str(tmp_path)]) == 1

    def test_missing_file_is_1(self, tmp_path):
        assert main(["branches", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path)]) == 1

    def test_blowup_is_2(self, tmp_path, capsys):
        # strong noise, no d0 level to stop at: the quadratic drift escapes
        # to -infinity
        text = BASE + """
[exits]

[sweep]
"""
        cfg = parse_config_text(text)
        cfg.sim.sigma = 0.6
        cfg.sim.record_stride = 50
        path = write_cfg(tmp_path, serialize_config(cfg))
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2

    def test_largest_finite_eigenvalue_is_2_without_warnings(self, tmp_path,
                                                             capsys):
        # (2 pi / L)^2 ~ 1.5e308 passes the config check, and the mean mode's
        # noise of size 1/sqrt(L) blows the run up
        text = BASE.replace("K = 4", "K = 2\nL = 5.1e-154").replace(
            "epsilon = 0.001", "epsilon = 0.05")
        path = write_cfg(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", path, "--out",
                         str(tmp_path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_dt_above_epsilon_is_1(self, tmp_path, capsys, command):
        text = SWEEP.replace("epsilon = 0.001", "epsilon = 0.001\ndt = 0.01")
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "[sim] dt" in err and "Traceback" not in err

    def test_branch_init_without_stable_root_is_1(self, tmp_path, capsys):
        # f = phi has one, unstable, equilibrium
        path = write_cfg(tmp_path, "[model]\nkind = linear\na = 1.0\n")
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
        assert "no stable equilibrium" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "adiabatic"])
    def test_frame_without_stable_root_is_1(self, tmp_path, capsys, command):
        # [exits] h needs the adiabatic frame; f = phi has no stable branch
        text = ("[model]\nkind = linear\na = 1.0\n\n[sim]\ninit = zero\n\n"
                "[exits]\nh = 1.0\n\n[mc]\nn = 4\nevent = exit-b0\n")
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "no stable equilibrium" in err and "adiabatic frame" in err
        assert "[model]" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("grid_step", ["0.01", "0.0"])
    def test_grid_step_outside_range_is_1(self, tmp_path, capsys, grid_step):
        text = BASE + f"grid_step = {grid_step}\n"   # BASE ends in [adiabatic]
        path = write_cfg(tmp_path, text)
        assert main(["adiabatic", "--config", path, "--out", str(tmp_path)]) == 1
        assert "[adiabatic] grid_step" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,field", [
        ("sweep", BASE.replace("delta = 0.04", "delta = -1.0"), "[model] delta"),
        ("sweep", BASE + "\n[sweep]\ndelta_values = 0.04, -0.01\n",
         "[sweep] delta_values"),
        ("threshold", BASE + "\n[threshold]\ndelta_values = -0.01\n",
         "[threshold] delta_values")], ids=["model", "sweep", "threshold"])
    def test_negative_delta_is_1(self, tmp_path, capsys, command, text, field):
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("command,text,args,field", [
        ("simulate", BASE.replace("seed = 4242", "seed = -3"), [], "[sim] seed"),
        ("simulate", BASE, ["--seed", "-1"], "--seed"),
        ("simulate", BASE.replace("K = 4", "K = 4\nL = 0.0"), [], "[torus] L"),
        ("simulate", BASE.replace("K = 4", "K = 4\nn_grid = 3"), [],
         "[torus] n_grid"),
        # the largest eigenvalue (K pi / L)^2 overflows
        ("simulate", BASE.replace("K = 4", "K = 4\nL = 1e-300"), [],
         "[torus] L"),
        ("sweep", BASE + "\n[mc]\nn = 0\n", [], "[mc] n"),
        ("threshold", BASE + "\n[threshold]\ndelta_values = 0.04\nn = 0\n", [],
         "[threshold] n"),
        ("simulate", BASE.replace("epsilon = 0.001", "epsilon = inf"), [],
         "[sim] epsilon"),
        ("sweep", BASE + "\n[sweep]\nsigma_values = -0.1, 0.05\n", [],
         "[sweep] sigma_values"),
        ("simulate", BASE + "\n[exits]\nh_perp = -1.0\n", [], "[exits]"),
        ("simulate", BASE + "\n[exits]\nd_level = 0.3\nd0_level = 0.2\n", [],
         "[exits] d0_level"),
        ("simulate", BASE.replace("seed = 4242", "seed = 4242\ninit = const:inf"),
         [], "[sim] init"),
        ("threshold", BASE + "\n[threshold]\ndelta_values = 0.04\n"
         "sigma_lo = -0.1\n", [], "[threshold] sigma_lo"),
        # transition runs build no frame, so B0 cannot be monitored
        ("sweep", BASE + "\n[exits]\nd_level = 0.1\nd0_level = 0.3\nh = 0.5\n",
         [], "[exits] h"),
        ("threshold", BASE + "\n[exits]\nh = 0.5\n"
         "\n[threshold]\ndelta_values = 0.04\n", [], "[exits] h"),
        # the transition event is d_level crossed, then d0_level reached:
        # one level alone cannot define it
        ("sweep", BASE + "\n[exits]\nd_level = 0.1\n", [], "[exits] d_level"),
        ("threshold", BASE + "\n[exits]\nd0_level = 0.3\n"
         "\n[threshold]\ndelta_values = 0.04\n", [], "d0_level"),
        ("variance-check", BASE.replace("K = 4", "K = 2").replace(
            "normal-form", "linear\na = -1.0").replace(
            "epsilon = 0.001", "epsilon = 0.01\nt_end = 0.1").replace(
            "sigma = 0.05", "sigma = 0.0") + "\n[mc]\nn = 20\nk_max = 2\n",
         [], "[sim] sigma"),
        # more steps than a numpy array can index
        ("simulate", TINY_DT, [], "[sim] dt"),
        ("sweep", TINY_DT + "\n[mc]\nn = 4\n", [], "[sim] dt"),
        ("threshold", TINY_DT.replace("K = 2", "K = 0")
         + "\n[threshold]\ndelta_values = 0.04\nn = 4\n", [], "[sim] dt"),
        # the manifest keys each delta's probes by its value
        ("threshold", BASE + "\n[threshold]\ndelta_values = 0.02, 0.02, 0.04\n",
         [], "[threshold] delta_values"),
        # the normal form needs a1 > 0; allen-cahn a forcing >= 0
        ("simulate", BASE.replace("delta = 0.04", "delta = 0.04\na1 = 0.0"),
         [], "[model] normal-form"),
        ("adiabatic", BASE.replace("normal-form", "allen-cahn\namplitude = -1"),
         [], "[model] allen-cahn"),
        # no sample variance from one path
        ("variance-check", config_text({("mc", "n"): "1"}, SMALL_LINEAR), [],
         "[mc] n"),
        # sigma**2 underflows to 0 or overflows, and the report divides by it
        ("variance-check", config_text({("sim", "sigma"): "1e-300"},
                                       SMALL_LINEAR), [], "[sim] sigma"),
        ("variance-check", config_text({("sim", "sigma"): "1e300"},
                                       SMALL_LINEAR), [], "[sim] sigma"),
        # mode 0 does not contract
        ("variance-check", config_text({("model", "a"): "0"}, SMALL_LINEAR),
         [], "[model] a"),
        # 3e18 step times: more float64 bytes than a numpy array can hold
        ("simulate", linear_window("1e-19"), [], "[sim] dt"),
        ("variance-check", linear_window("1e-19"), [], "[sim] dt"),
        # 3e17 step times fit in one array, but 8 paths of them do not
        ("variance-check", linear_window("1e-18"), [], "[mc] n"),
        # a (2K+1, n_grid) basis matrix with more values than an array holds
        ("simulate", BASE.replace("K = 4", "K = 10000000000000000000"), [],
         "[torus] K"),
        ("sweep", BASE.replace("K = 4", "K = 10000000000000000000")
         + "\n[mc]\nn = 4\n", [], "[torus] K"),
        ("simulate", BASE.replace("K = 4", "K = 2\nn_grid = 10000000000000000000"),
         [], "[torus] n_grid"),
        # the normal form's default window and the frame are [-t0, t0]
        ("simulate", BASE.replace("t0 = 0.2", "t0 = 0"), [], "[adiabatic] t0"),
        ("adiabatic", BASE.replace("t0 = 0.2", "t0 = -1").replace(
            "seed = 4242", "seed = 4242\nt_start = -0.2\nt_end = 0.2"), [],
         "[adiabatic] t0"),
        # f = s - phi^2 + 100 phi^3 has one, unstable, equilibrium
        ("sweep", BASE.replace("delta = 0.04", "delta = 0.04\ncubic = -100")
         + "\n[mc]\nn = 4\n", [], "[model] cubic"),
        ("threshold", BASE.replace("delta = 0.04", "delta = 0.04\ncubic = -100")
         + "\n[threshold]\ndelta_values = 0.04\nn = 4\n", [], "[model] cubic"),
    ], ids=["seed", "seed-override", "L", "n_grid", "L-eigenvalue-overflow",
            "mc-n", "threshold-n", "epsilon-inf", "sigma-values-negative",
            "exit-radius", "exit-levels",
            "init-inf", "sigma-lo-negative", "transition-sweep-h",
            "transition-threshold-h", "transition-d-level-alone",
            "transition-d0-level-alone", "variance-check-sigma-zero",
            "simulate-dt-tiny", "sweep-dt-tiny", "threshold-dt-tiny",
            "threshold-delta-repeated",
            "a1-zero", "amplitude-negative", "variance-check-n-one",
            "variance-check-sigma-square-underflows",
            "variance-check-sigma-square-overflows", "variance-check-a-zero",
            "simulate-dt-times-past-array", "variance-check-dt-times-past-array",
            "variance-check-paths-past-array", "K-basis-past-array",
            "sweep-K-basis-past-array", "n_grid-basis-past-array", "t0-zero",
            "t0-negative-with-window", "sweep-no-stable-branch",
            "threshold-no-stable-branch"])
    def test_invalid_value_is_1_not_a_traceback(self, tmp_path, capsys, command,
                                                 text, args, field):
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path)] + args) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command,n", [("simulate", 8),
                                           ("variance-check", 2)])
    def test_run_past_memory_is_1_in_one_line(self, tmp_path, capsys, command,
                                              n):
        # 3e17 steps pass every bound, and their 2.4e18 bytes of step times
        # (of paths, for variance-check) exceed any address space
        path = write_cfg(tmp_path, linear_window("1e-18", n))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("srlab: out of memory:") and err.count("\n") == 1

    @pytest.mark.parametrize("command,text,field", [
        ("simulate", BASE.replace("sigma = 0.05", "sigma = nan"), "[sim] sigma"),
        ("sweep", BASE + "\n[sweep]\nsigma_values = 0.05, inf\n",
         "[sweep] sigma_values"),
        ("simulate", BASE.replace("seed = 4242",
                                  "seed = 4242\nt_start = 1.0\nt_end = 0.5"),
         "[sim] t_end"),
        ("adiabatic", BASE + "branch = middle\n", "[adiabatic] branch"),
        ("variance-check", BASE.replace("normal-form", "linear")
         + "\n[mc]\nk_max = -1\n", "[mc] k_max"),
        ("sweep", BASE + "\n[sweep]\nmax_cells = -1\n", "[sweep] max_cells"),
        ("branches", BASE.replace("t_points = 21", "t_points = 0"),
         "[adiabatic] t_points"),
        ("threshold", BASE + "\n[threshold]\ndelta_values = 0.04\n"
         "sigma_lo = 0.5\nsigma_hi = 0.1\n", "[threshold] sigma_lo"),
        # h_values set no radius of a level-crossing event
        ("sweep", BASE.replace("K = 4", "K = 2").replace(
            "epsilon = 0.001", "epsilon = 0.01") + "\n[mc]\nn = 40\n"
         "event = cross-minus-d\n\n[sweep]\nh_values = 0.1, 0.5\n",
         "[sweep] h_values: [mc] event = cross-minus-d"),
        # no event can come before the run starts (-T0 = -0.5 here, and
        # [sim] t_start = -[adiabatic] t0 = -0.2 off the transition): p_hat = 0
        ("sweep", UNMONITORED.format(event="transition") + "horizon = -5.0\n",
         "[mc] horizon"),
        ("sweep", UNMONITORED.format(event="exit-bperp") + "horizon = -0.2\n"
         "\n[exits]\nh_perp = 0.3\n", "[mc] horizon"),
        # a stride past the window's 400 steps records only t_start: every
        # variance, its SE and c0_fit read 0
        ("variance-check", config_text({("sim", "record_stride"): "100000"},
                                       SMALL_LINEAR), "[sim] record_stride"),
        # an event whose [exits] field is unset has no monitor: p_hat = 0
    ] + [("sweep", UNMONITORED.format(event=event),
          f"[exits] {field}: [mc] event = {event}")
         for event, field in UNMONITORED_EVENTS],
        ids=["sigma-nan", "sigma-values-inf", "t-end-before-t-start",
             "branch-middle", "k-max-negative", "max-cells-negative",
             "t-points-zero", "sigma-lo-above-hi", "h-values-without-radius",
             "horizon-before-transition", "horizon-at-start",
             "variance-check-stride-past-window"]
        + [f"unmonitored-{event}" for event, _ in UNMONITORED_EVENTS])
    def test_value_that_ran_silently_is_1(self, tmp_path, capsys, command, text,
                                          field):
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        assert field in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=600, deadline=None, derandomize=True)
    # a drift constant in phi (linear, a = 0) has no equilibrium
    @example("branches", LINEAR_CONSTANT)
    @example("simulate", LINEAR_CONSTANT)
    @example("branches", {**LINEAR_CONSTANT, ("model", "c"): "1"})
    @example("simulate", {**LINEAR_CONSTANT, ("model", "c"): "1"})
    # sigma_lo * sigma_hi overflows: the bisection must not probe sigma = inf
    @example("threshold", {("sim", "epsilon"): "1e300",
                           ("threshold", "sigma_lo"): "1"})
    @given(st.sampled_from(sorted(_COMMANDS)),
           st.dictionaries(st.sampled_from(CONFIG_KEYS),
                           st.sampled_from(CONFIG_VALUES), min_size=1,
                           max_size=3))
    def test_any_config_gives_an_exit_code_not_a_traceback(self, command,
                                                           entries):
        # every command, in-process, on the small configuration with up to
        # three values from the pool put in
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "run.ini"
            path.write_text(config_text(entries, SMALL))
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out", out])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.dictionaries(st.sampled_from(VARIANCE_CHECK_KEYS),
                           st.sampled_from(CONFIG_VALUES), min_size=1,
                           max_size=3))
    def test_any_linear_config_gives_variance_check_an_exit_code(self, entries):
        # the fuzz above stops variance-check at "needs the linear model";
        # this one starts from the linear model and varies only what the
        # report reads
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "run.ini"
            path.write_text(config_text(entries, SMALL_LINEAR))
            with contextlib.redirect_stderr(err):
                code = main(["variance-check", "--config", str(path),
                             "--out", out])
            if code == 0:
                # a report that exits 0 saw spread at its final record time
                _, rows = read_csv(Path(out) / "variance.csv")
                assert all(0 < float(r[3]) < math.inf for r in rows)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("field", ["h_perp", "h_stable"])
    def test_radius_whose_square_overflows_is_never_reached(self, tmp_path,
                                                            field):
        text = BASE + f"\n[exits]\n{field} = 1e300\n"
        path = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        extras = json.loads((tmp_path / "simulate_manifest.json").read_text())[
            "extras"]
        assert math.isinf(extras["hitting_times"][TAU_COLUMN[field]])

    def test_negative_delta_is_a_label_off_the_normal_form(self):
        text = BASE.replace("normal-form", "linear").replace("delta = 0.04",
                                                              "delta = -1.0")
        assert parse_config_text(text).model.delta == -1.0

    def test_non_integer_worker_env_is_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SRLAB_WORKERS", "abc")
        path = write_cfg(tmp_path, SWEEP)
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 1
        assert "SRLAB_WORKERS='abc'" in capsys.readouterr().err

    def test_branches_past_three_are_0(self, tmp_path):
        # the branches +-sqrt(delta + t^2) of delta = 10 lie past +-3
        path = write_cfg(tmp_path, BASE.replace("delta = 0.04", "delta = 10.0"))
        assert main(["branches", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "branches.csv")
        assert len(rows) == 21
        for row in rows:
            t = float(row[0])
            assert float(row[1]) == -math.sqrt(10.0 + t * t)
            assert float(row[4]) == math.sqrt(10.0 + t * t)
            assert (row[2], row[5], row[7]) == ("unstable", "stable", "")

    @pytest.mark.parametrize("command, text", [
        ("branches", LINEAR_PAST_THREE), ("simulate", LINEAR_PAST_THREE),
        # the upper branch at t = -3 is sqrt(9.04)
        ("simulate", BASE.replace("K = 4", "K = 2").replace(
            "epsilon = 0.001", "epsilon = 0.01").replace("t0 = 0.2", "t0 = 3")),
    ], ids=["branches-linear", "simulate-linear", "simulate-normal-form-t0-3"])
    def test_root_past_three_is_0(self, tmp_path, capsys, command, text):
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("c", ["0.0", "1.0"])
    def test_drift_constant_in_phi(self, tmp_path, capsys, c):
        # f = c has no isolated root: branches writes empty root columns,
        # and a run that starts on a branch has none to start on
        text = f"[model]\nkind = linear\na = 0.0\nc = {c}\n"
        path = write_cfg(tmp_path, text)
        assert main(["branches", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "branches.csv")
        assert rows and all(row[1:] == [""] * 9 for row in rows)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "[sim] init: no stable equilibrium" in err
        assert "Traceback" not in err

    def test_bracket_failure_is_3(self, tmp_path, monkeypatch):
        calls = logistic_transition(monkeypatch, lambda d, e: 1e9)
        text = BASE + """
[threshold]
delta_values = 0.04
"""
        path = write_cfg(tmp_path, text)
        assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == 3
        # the failed search is recorded: every probe it ran, and their count
        _, rows = read_csv(tmp_path / "threshold.csv")
        assert len(calls) == 28 and rows[0][6] == "28"
        man = json.loads((tmp_path / "threshold_manifest.json").read_text())
        probes = man["extras"]["bisection_probes"]["0.04"]
        assert [p["seed"] for p in probes] == calls


class TestBranchesCommand:
    def test_constant_rows_for_unforced_allen_cahn(self, tmp_path):
        text = """
[model]
kind = allen-cahn
amplitude = 0.0

[sim]
t_start = 0.0
t_end = 1.0

[adiabatic]
t_points = 5
"""
        path = write_cfg(tmp_path, text)
        assert main(["branches", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "branches.csv")
        assert header[:4] == ["t", "root_1", "stab_1", "a_1"]
        for row in rows:
            assert float(row[1]) == pytest.approx(-1.0, abs=1e-9)
            assert float(row[4]) == pytest.approx(0.0, abs=1e-9)
            assert float(row[7]) == pytest.approx(1.0, abs=1e-9)
            assert row[2] == "stable" and row[5] == "unstable"

    def test_normal_form_roots_closed_form(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        assert main(["branches", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "branches.csv")
        for row in rows:
            t = float(row[0])
            expect = math.sqrt(0.04 + t * t)
            assert float(row[1]) == pytest.approx(-expect, abs=1e-9)
            assert float(row[4]) == pytest.approx(expect, abs=1e-9)
            assert row[7] == ""  # only two branches: third columns blank

    def test_supercritical_forcing_single_root(self, tmp_path):
        text = """
[model]
kind = allen-cahn
amplitude = 0.5

[sim]
t_start = 0.0
t_end = 0.1

[adiabatic]
t_points = 3
"""
        path = write_cfg(tmp_path, text)
        assert main(["branches", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "branches.csv")
        # above critical forcing the cubic has a single (stable) real root
        assert rows[0][4] == "" and rows[0][2] == "stable"
        disc = 4.0 - 27.0 * 0.5**2
        assert disc < 0


class TestAdiabaticCommand:
    def test_columns_and_rerun_bitwise(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["adiabatic", "--config", path, "--out", str(out1)]) == 0
        assert main(["adiabatic", "--config", path, "--out", str(out2)]) == 0
        b1 = (out1 / "adiabatic.csv").read_bytes()
        b2 = (out2 / "adiabatic.csv").read_bytes()
        assert b1 == b2
        header, rows = read_csv(out1 / "adiabatic.csv")
        assert header == ["t", "phibar", "phihat", "abar", "ahat", "zeta",
                          "alphabar_cum", "alphahat_cum"]
        zeta = np.array([float(r[5]) for r in rows])
        assert np.all(zeta > 0)

    def test_frozen_drift_gives_constant_columns(self, tmp_path):
        text = """
[model]
kind = linear
a = -1.0
c = 0.5

[sim]
epsilon = 0.01

[adiabatic]
t0 = 0.2
"""
        path = write_cfg(tmp_path, text)
        assert main(["adiabatic", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "adiabatic.csv")
        phibar = {float(r[1]) for r in rows}
        zeta = {float(r[5]) for r in rows}
        assert phibar == {0.5}
        assert zeta == {0.5}

    def test_manifest_digest_matches_file(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        assert main(["adiabatic", "--config", path, "--out", str(tmp_path)]) == 0
        man = json.loads((tmp_path / "adiabatic_manifest.json").read_text())
        import hashlib
        digest = hashlib.sha256((tmp_path / "adiabatic.csv").read_bytes()).hexdigest()
        assert man["outputs"]["adiabatic.csv"] == digest


class TestSimulateCommand:
    def test_deterministic_run_matches_adiabatic_phibar(self, tmp_path):
        cfg = parse_config_text(BASE)
        cfg.sim.sigma = 0.0
        cfg.sim.init = "adiabatic"
        cfg.sim.record_stride = 100
        path = write_cfg(tmp_path, serialize_config(cfg))
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        assert main(["adiabatic", "--config", path, "--out", str(tmp_path)]) == 0
        _, traj = read_csv(tmp_path / "trajectory.csv")
        _, frame = read_csv(tmp_path / "adiabatic.csv")
        ft = np.array([float(r[0]) for r in frame])
        fphi = np.array([float(r[1]) for r in frame])
        for row in traj:
            t, phi0 = float(row[0]), float(row[1])
            assert phi0 == pytest.approx(np.interp(t, ft, fphi), abs=5e-4)

    def test_fixed_seed_bitwise_and_hit_sidecar(self, tmp_path):
        cfg = parse_config_text(BASE)
        cfg.sim.record_stride = 50
        cfg.exits = dataclasses.replace(cfg.exits, d_level=0.2, d0_level=0.4)
        path = write_cfg(tmp_path, serialize_config(cfg))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()
        man = json.loads((out1 / "simulate_manifest.json").read_text())
        assert "tau_minus_d" in man["extras"]["hitting_times"]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = parse_config_text(BASE)
        cfg.sim.record_stride = 50
        path = write_cfg(tmp_path, serialize_config(cfg))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", path, "--out", str(out1),
                     "--seed", "7"]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out2 / "trajectory.csv").read_bytes()


SWEEP = BASE + """
[mc]
n = 40
event = transition

[sweep]
sigma_values = 0.04, 0.09, 0.2
"""


class TestSweepCommand:
    def test_monotone_in_sigma_and_columns(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP)
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["delta", "eps", "sigma", "h", "h_perp", "n", "p_hat",
                          "ci_low", "ci_high", "event"]
        assert len(rows) == 3
        ps = [float(r[6]) for r in rows]
        los = [float(r[7]) for r in rows]
        his = [float(r[8]) for r in rows]
        for i in range(2):
            assert his[i + 1] >= los[i]  # nondecreasing up to CI overlap
        assert ps[0] <= 0.2 and ps[-1] >= 0.8

    def test_resume_completes_missing_cells_bitwise(self, tmp_path):
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        path_full = write_cfg(tmp_path, SWEEP, "full.ini")
        assert main(["sweep", "--config", path_full, "--out", str(full_dir)]) == 0
        interrupted = SWEEP + "max_cells = 1\n"
        path_part = write_cfg(tmp_path, interrupted, "part.ini")
        assert main(["sweep", "--config", path_part, "--out", str(part_dir)]) == 0
        man = json.loads((part_dir / "sweep_manifest.json").read_text())
        assert len(man["extras"]["completed_cells"]) == 1
        path_resume = write_cfg(tmp_path, SWEEP, "resume.ini")
        assert main(["sweep", "--config", path_resume, "--out", str(part_dir),
                     "--resume"]) == 0
        assert (part_dir / "sweep.csv").read_bytes() == \
            (full_dir / "sweep.csv").read_bytes()
        man = json.loads((part_dir / "sweep_manifest.json").read_text())
        assert man["extras"]["all_done"] is True

    def test_resume_drops_row_written_after_last_manifest(self, tmp_path):
        # a run killed between appending a row and rewriting the manifest
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        path_full = write_cfg(tmp_path, SWEEP, "full.ini")
        assert main(["sweep", "--config", path_full, "--out", str(full_dir)]) == 0
        path_part = write_cfg(tmp_path, SWEEP + "max_cells = 1\n", "part.ini")
        assert main(["sweep", "--config", path_part, "--out", str(part_dir)]) == 0
        with open(part_dir / "sweep.csv", "a") as fh:
            fh.write("0.04,stray,row\n")
        assert main(["sweep", "--config", path_full, "--out", str(part_dir),
                     "--resume"]) == 0
        assert (part_dir / "sweep.csv").read_bytes() == \
            (full_dir / "sweep.csv").read_bytes()

    def test_resume_with_truncated_manifest_is_1(self, tmp_path, capsys):
        path_part = write_cfg(tmp_path, SWEEP + "max_cells = 1\n", "part.ini")
        assert main(["sweep", "--config", path_part, "--out", str(tmp_path)]) == 0
        man_path = tmp_path / "sweep_manifest.json"
        text = man_path.read_text()
        man_path.write_text(text[:len(text) // 2])
        assert main(["sweep", "--config", path_part, "--out", str(tmp_path),
                     "--resume"]) == 1
        err = capsys.readouterr().err
        assert "--resume" in err and "Traceback" not in err

    def test_manifest_write_is_atomic(self, tmp_path, monkeypatch):
        # a write that dies before the rename leaves the old manifest whole
        path = tmp_path / "m.json"
        manifest = Manifest("sweep", parse_config_text(SWEEP))
        manifest.write(path)
        before = path.read_bytes()

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        manifest.data["extras"]["completed_cells"] = ["x" * 10000]
        with pytest.raises(KeyboardInterrupt):
            manifest.write(path)
        assert path.read_bytes() == before
        assert json.loads(before)["command"] == "sweep"

    def test_transition_cells_monitor_h_perp_without_levels(self, tmp_path):
        # [exits] h_perp alone goes with the default levels: sweep.csv
        # echoes it, and p_hat is the same as without it
        plain = tmp_path / "plain"
        perp = tmp_path / "perp"
        assert main(["sweep", "--config", write_cfg(tmp_path, SWEEP, "a.ini"),
                     "--out", str(plain)]) == 0
        text = SWEEP + "\n[exits]\nh_perp = 0.5\n"
        assert main(["sweep", "--config", write_cfg(tmp_path, text, "b.ini"),
                     "--out", str(perp)]) == 0
        header, rows = read_csv(perp / "sweep.csv")
        _, plain_rows = read_csv(plain / "sweep.csv")
        col = header.index("h_perp")
        assert [float(r[col]) for r in rows] == [0.5] * 3
        assert [r[:col] + r[col + 1:] for r in rows] == \
            [r[:col] + r[col + 1:] for r in plain_rows]

    @pytest.mark.parametrize("levels", ["", "d_level = 0.15\nd0_level = 0.35\n"],
                             ids=["default-levels", "exits-levels"])
    def test_transition_cells_hand_the_engine_only_levels(self, tmp_path,
                                                          monkeypatch, levels):
        # no transition output reads a radius, so [exits] h_perp and
        # h_stable reach no batch; sweep.csv still echoes h_perp
        seen = []
        run_batch = mc.run_batch

        def spy(cfg, model, init, exits, *args):
            seen.append(exits)
            return run_batch(cfg, model, init, exits, *args)

        monkeypatch.setattr(mc, "run_batch", spy)
        text = SWEEP + "\n[exits]\n" + levels
        assert main(["sweep", "--config", write_cfg(tmp_path, text, "a.ini"),
                     "--out", str(tmp_path / "plain")]) == 0
        plain_exits, seen[:] = list(seen), []
        text += "h_perp = 0.3\nh_stable = 0.5\n"
        assert main(["sweep", "--config", write_cfg(tmp_path, text, "b.ini"),
                     "--out", str(tmp_path / "radii")]) == 0
        assert len(seen) == 3 and seen == plain_exits
        assert all(e.h is None and e.h_perp is None and e.h_stable is None
                   for e in seen)
        if levels:
            assert {(e.d_level, e.d0_level) for e in seen} == {(0.15, 0.35)}
        header, rows = read_csv(tmp_path / "radii" / "sweep.csv")
        _, plain_rows = read_csv(tmp_path / "plain" / "sweep.csv")
        col = header.index("h_perp")
        assert [float(r[col]) for r in rows] == [0.3] * 3
        assert [r[:col] + r[col + 1:] for r in rows] == \
            [r[:col] + r[col + 1:] for r in plain_rows]

    def test_worker_env_does_not_change_results(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, SWEEP)
        monkeypatch.setenv("SRLAB_WORKERS", "1")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "w1")]) == 0
        monkeypatch.setenv("SRLAB_WORKERS", "4")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "w4")]) == 0
        assert (tmp_path / "w1" / "sweep.csv").read_bytes() == \
            (tmp_path / "w4" / "sweep.csv").read_bytes()

    def test_module_entry_point_same_bytes_at_one_and_two_workers(self,
                                                                   tmp_path):
        # the worker pool as a user starts it, through `python -m srlab.cli`:
        # n=300 at K=16 is two chunks, which run in two worker processes
        assert len(mc._chunk_ranges(300, 33)) == 2
        text = BASE.replace("K = 4", "K = 16").replace(
            "epsilon = 0.001", "epsilon = 0.01") + """
[mc]
n = 300
event = transition

[sweep]
sigma_values = 0.15
"""
        path = write_cfg(tmp_path, text)
        src = str(Path(mc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            env["SRLAB_WORKERS"] = workers
            proc = subprocess.run(
                [sys.executable, "-m", "srlab.cli", "sweep", "--config", path,
                 "--out", str(out)], env=env, capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2


class TestThresholdCommand:
    def test_synthetic_exact_scaling(self, tmp_path, monkeypatch):
        logistic_transition(monkeypatch, lambda d, e: 0.9 * max(d, e) ** 0.75,
                            sharpness=32.0)
        text = BASE + """
[threshold]
delta_values = 0.01, 0.02, 0.04, 0.08, 0.16
tol = 0.005
"""
        path = write_cfg(tmp_path, text)
        assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "threshold.csv")
        for row in rows:
            delta, sig = float(row[0]), float(row[1])
            assert sig == pytest.approx(0.9 * delta**0.75, rel=0.01)
        header, fit_rows = read_csv(tmp_path / "threshold_fit.csv")
        fit = fit_rows[0]
        assert fit[0] == "fit"
        assert float(fit[1]) == pytest.approx(0.75, abs=0.01)
        assert float(fit[3]) >= 0.999
        # every bisection probe seed is recorded
        man = json.loads((tmp_path / "threshold_manifest.json").read_text())
        probes = man["extras"]["bisection_probes"]
        assert set(probes) == {"0.01", "0.02", "0.04", "0.08", "0.16"}
        assert all("seed" in p for plist in probes.values() for p in plist)

    def test_unsorted_deltas_keep_config_order_and_seeds(self, tmp_path,
                                                         monkeypatch):
        # the i-th listed delta bisects from derive_seed(seed, 1000 + i) in
        # config order, as in mc.scaling_exponent
        logistic_transition(monkeypatch, lambda d, e: 0.9 * max(d, e) ** 0.75)
        text = BASE + "\n[threshold]\ndelta_values = 0.02, 0.01\n"
        path = write_cfg(tmp_path, text)
        assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "threshold.csv")
        assert [float(r[0]) for r in rows] == [0.02, 0.01]
        man = json.loads((tmp_path / "threshold_manifest.json").read_text())
        probes = man["extras"]["bisection_probes"]
        for i, delta in enumerate(["0.02", "0.01"]):
            seed_d = derive_seed(4242, 1000 + i)
            assert [p["seed"] for p in probes[delta]] == [
                derive_seed(seed_d, j) for j in range(len(probes[delta]))]

    @pytest.mark.parametrize("deltas", [(0.01, 0.04, 0.16), (0.16, 0.01, 0.04)],
                             ids=["sorted", "unsorted"])
    def test_scaling_exponent_gives_each_delta_the_same_bisection(
            self, tmp_path, monkeypatch, deltas):
        logistic_transition(monkeypatch, lambda d, e: 0.9 * max(d, e) ** 0.75)
        text = BASE + "\n[threshold]\ndelta_values = {}\n".format(
            ", ".join(map(str, deltas)))
        path = write_cfg(tmp_path, text)
        assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "threshold.csv")
        man = json.loads((tmp_path / "threshold_manifest.json").read_text())
        probes = man["extras"]["bisection_probes"]
        fit = mc.scaling_exponent(None, deltas, 1e-3, n=400, tol=0.1,
                                  master_seed=4242)
        assert [d for d, _, _, _ in fit.details] == list(deltas)
        for row, (delta, sig, _, detail_probes) in zip(rows, fit.details):
            assert float(row[0]) == delta and float(row[1]) == sig
            assert [(p["sigma"], p["seed"]) for p in probes[str(delta)]] == [
                (s, seed) for s, seed, _ in detail_probes]

    def test_bad_late_delta_is_1_before_any_probe(self, tmp_path, monkeypatch,
                                                  capsys):
        # every delta's run is set up, and checked, before the first probe
        calls = logistic_transition(monkeypatch, lambda d, e: 0.1)
        text = BASE + "\n[threshold]\ndelta_values = 0.02, 1e300\n"
        path = write_cfg(tmp_path, text)
        assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == 1
        assert "[sim] dt" in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.glob("*.csv"))

    def test_uses_configured_model_and_levels(self, tmp_path):
        # each probe is the transition_probability of the configured normal
        # form (a1 = 2) with the [exits] levels, as in a sweep cell
        text = BASE.replace("K = 4", "K = 0").replace(
            "epsilon = 0.001", "epsilon = 0.01").replace(
            "delta = 0.04", "delta = 0.04\na1 = 2.0") + """
[exits]
d_level = 0.15
d0_level = 0.35

[threshold]
delta_values = 0.04
n = 40
tol = 1.0
sigma_lo = 0.13
sigma_hi = 0.5
"""
        path = write_cfg(tmp_path, text)
        # one delta gives no fit line: exit 3, probes still recorded
        assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == 3
        man = json.loads((tmp_path / "threshold_manifest.json").read_text())
        probe = man["extras"]["bisection_probes"]["0.04"][0]
        st = transition_probability(
            normal_form(0.04, a1=2.0), 0.04, 0.01, probe["sigma"], 40,
            ExitSpec(d_level=0.15, d0_level=0.35), K=0, T0=0.5,
            seed=probe["seed"])
        assert probe["sigma"] == 0.13
        assert probe["p_hat"] == st.p_hat


class TestVarianceCheckCommand:
    CFG = """
[torus]
K = 8

[model]
kind = linear
a = -1.0

[sim]
epsilon = 0.01
sigma = 0.05
t_start = 0.0
t_end = 0.4
seed = 99
record_stride = 40

[mc]
n = 2000
k_max = 8
"""

    def test_table_and_exact_agreement(self, tmp_path):
        path = write_cfg(tmp_path, self.CFG)
        assert main(["variance-check", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "variance.csv")
        assert header == ["k", "mu_k", "var_final", "se_final", "var_sup",
                          "exact_var", "ratio_sup", "bound", "c0_fit"]
        assert len(rows) == 9
        for row in rows:
            var_f, se, exact = float(row[2]), float(row[3]), float(row[5])
            assert abs(var_f - exact) <= 3.0 * se
            assert float(row[8]) > 0
        man = json.loads((tmp_path / "variance_manifest.json").read_text())
        assert man["extras"]["c0_fit"] > 0

    def test_requires_linear_model(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        assert main(["variance-check", "--config", path,
                     "--out", str(tmp_path)]) == 1
