"""Command-line front end: subcommands, reproducible manifests, CSV emission.

Subcommands: branches | adiabatic | simulate | sweep | threshold |
variance-check.  Every command reads one config file, writes CSVs with a
fixed column order and locale-independent full-precision formatting, and
drops a JSON manifest holding the config text, master seed, and output
digests; re-running with the same config reproduces every CSV bitwise
(worker count never affects results; SRLAB_WORKERS bounds the worker
processes, and 1 runs every batch in-process).

Exit codes: 0 success, 1 config error (a run too large for memory is one),
2 numerical failure, 3 bracket or fit failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._streams import derive_seed
from .adiabatic import FRAME_COLUMNS, StiffnessFailure, build_frame
from .config import (ConfigError, RunConfig, _parameter_errors, parse_config,
                     serialize_config, sim_config)
from .integrator import (EVENT_FIELD, TAU_COLUMN, ExitEvent, ExitSpec,
                         NonFinite, SimConfig, simulate_batch, step_grid)
from .mc import (BracketNotFound, DegeneratePoints, _bisect_each, _scaling_fit,
                 event_probability, mode_variance_report, run_batch,
                 transition_study)
from .model import (DriftModel, RootBracketExhausted, allen_cahn,
                    equilibrium_branches, linear_drift, normal_form)
from .spectral import SpectralField

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_BRACKET = 3


def _fmt(v) -> str:
    """Locale-independent cell formatting; floats in full-precision scientific."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17e")
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``path`` atomically: a temporary file beside it, then os.replace."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, cfg: RunConfig):
        self.data = {
            "tool": "srlab",
            "tool_version": __version__,
            "command": command,
            "master_seed": cfg.sim.seed,
            "config_text": serialize_config(cfg),
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "finished_at": None,
            "outputs": {},
            "extras": {},
        }

    def add_output(self, path: Path):
        self.data["outputs"][path.name] = _sha256(path)

    def write(self, path: Path):
        self.data["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                 time.gmtime())
        text = json.dumps(self.data, indent=2, sort_keys=True) + "\n"
        _replace_file(path, text.encode("utf-8"))


def build_model(cfg: RunConfig, delta: Optional[float] = None) -> DriftModel:
    """The configured drift; ``delta`` overrides [model] delta, which only
    the normal form reads."""
    m = cfg.model
    try:
        if m.kind == "allen-cahn":
            return allen_cahn(m.amplitude)
        if m.kind == "normal-form":
            return normal_form(m.delta if delta is None else delta, m.cubic,
                               m.a1)
        return linear_drift(m.a, m.c)
    except ValueError as exc:
        raise ConfigError(f"[model] {m.kind}: {exc}") from None


def _needs_frame(cfg: RunConfig, exits: ExitSpec) -> bool:
    return exits.h is not None or cfg.sim.init == "adiabatic"


def _build_frame(cfg: RunConfig, model: DriftModel,
                 sim: Optional[SimConfig] = None):
    """The adiabatic frame on [-t0, t0], widened to cover ``sim``'s times."""
    T0 = cfg.adiabatic.t0
    if sim is not None:
        T0 = max(T0, abs(sim.t_start), abs(sim.t_end))
    try:
        return build_frame(model, cfg.sim.epsilon, T0,
                           grid_step=cfg.adiabatic.grid_step,
                           branch=cfg.adiabatic.branch)
    except ValueError as exc:
        raise ConfigError(f"[model], [adiabatic]: {exc} for the adiabatic "
                          "frame") from None


def _init_field(cfg: RunConfig, model: DriftModel, sim: SimConfig,
                frame) -> SpectralField:
    init, spec = cfg.sim.init, sim.spec
    if init == "zero":
        return SpectralField.zero(spec)
    if init.startswith("const:"):
        return SpectralField.constant(spec, float(init[6:]))
    if init == "adiabatic":
        return SpectralField.constant(spec, frame.phibar_at(sim.t_start))
    try:
        root = equilibrium_branches(model, sim.t_start).root(cfg.adiabatic.branch)
    except ValueError as exc:
        raise ConfigError(f"[sim] init: {exc} for init=branch") from None
    return SpectralField.constant(spec, root)


def _field_setup(cfg: RunConfig, delta: Optional[float], exits: ExitSpec):
    """(model, sim, frame, init) of a field run at ``delta`` that monitors
    ``exits``; the frame is None when nothing needs it."""
    model = build_model(cfg, delta)
    sim = sim_config(cfg)
    frame = _build_frame(cfg, model, sim) if _needs_frame(cfg, exits) else None
    return model, sim, frame, _init_field(cfg, model, sim, frame)


def cmd_branches(cfg: RunConfig, out_dir: Path, resume: bool) -> int:
    model = build_model(cfg)
    sim = sim_config(cfg)
    ts = np.linspace(sim.t_start, sim.t_end, cfg.adiabatic.t_points)
    rows = []
    for t in ts:
        bs = equilibrium_branches(model, float(t))
        row = [t]
        for i in range(3):
            if i < len(bs.roots):
                row += [bs.roots[i], bs.stability[i].value, bs.a_values[i]]
            else:
                row += [None, None, None]
        rows.append(row)
    path = out_dir / "branches.csv"
    _write_csv(path, ["t", "root_1", "stab_1", "a_1", "root_2", "stab_2",
                      "a_2", "root_3", "stab_3", "a_3"], rows)
    manifest = Manifest("branches", cfg)
    manifest.add_output(path)
    manifest.write(out_dir / "branches_manifest.json")
    return EXIT_OK


def cmd_adiabatic(cfg: RunConfig, out_dir: Path, resume: bool) -> int:
    frame = _build_frame(cfg, build_model(cfg))
    cols = frame.columns()
    rows = zip(*[cols[name] for name in FRAME_COLUMNS])
    path = out_dir / "adiabatic.csv"
    _write_csv(path, list(FRAME_COLUMNS), rows)
    manifest = Manifest("adiabatic", cfg)
    manifest.add_output(path)
    manifest.write(out_dir / "adiabatic_manifest.json")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: Path, resume: bool) -> int:
    exits = cfg.exits
    model, sim, frame, init = _field_setup(cfg, None, exits)
    rec = simulate_batch(sim, model, init, exits, frame)[0]
    path = out_dir / "trajectory.csv"
    _write_csv(path, ["t", "phi0", "perp_hs"],
               zip(sim.record_times(), rec["phi0"], rec["perp_hs"]))
    manifest = Manifest("simulate", cfg)
    manifest.add_output(path)
    extras = manifest.data["extras"]
    extras["hitting_times"] = {name: float(rec[name])
                               for name in TAU_COLUMN.values()}
    extras["failed"] = bool(rec["failed"])
    extras["terminal_phi0"] = float(rec["terminal_phi0"])
    manifest.write(out_dir / "simulate_manifest.json")
    if rec["failed"]:
        raise NonFinite("trajectory blew up; observables written up to failure")
    return EXIT_OK


_SWEEP_HEADER = ["delta", "eps", "sigma", "h", "h_perp", "n", "p_hat",
                 "ci_low", "ci_high", "event"]

def _sweep_cells(cfg: RunConfig):
    """The (delta, sigma, h) grid and the setup of each delta.

    A transition setup is ``_transition_setup``'s, any other a
    ``_field_setup``; building them all here reports their config errors
    before any output.  Every non-transition event needs its [exits] field,
    which a [sweep] h_values entry supplies for the radii, and [mc] horizon
    must follow the start of every cell.
    """
    event = ExitEvent(cfg.mc.event)
    field = EVENT_FIELD.get(event)
    if cfg.sweep.h_values:
        if field is None or field.endswith("_level"):
            raise ConfigError(f"[sweep] h_values: [mc] event = {cfg.mc.event} "
                              "has no radius to vary; leave h_values unset")
    elif field is not None and getattr(cfg.exits, field) is None:
        raise ConfigError(f"[exits] {field}: [mc] event = {cfg.mc.event} is "
                          f"recorded only when {field} is set")
    deltas = cfg.sweep.delta_values or (cfg.model.delta,)
    sigmas = cfg.sweep.sigma_values or (cfg.sim.sigma,)
    hs = cfg.sweep.h_values or (None,)
    setups = {}
    for d in deltas:
        if event is ExitEvent.TRANSITION:
            # a transition run starts at -T0 (transition_study)
            setups[d] = _transition_setup(cfg, d)
            start = -setups[d][1]["T0"]
        else:
            # every h of the grid needs the frame, or none does
            setups[d] = _field_setup(cfg, d, _cell_exits(cfg, event, hs[0]))
            start = setups[d][1].t_start
        if cfg.mc.horizon is not None and cfg.mc.horizon <= start:
            raise ConfigError(f"[mc] horizon: must exceed the start time "
                              f"{start:g} of the cells at delta = {d:g}")
    return [(d, s, h) for d in deltas for s in sigmas for h in hs], setups


def _cell_exits(cfg: RunConfig, event: ExitEvent,
                h: Optional[float]) -> ExitSpec:
    """[exits], with ``h`` as the radius of ``event`` when a grid sets one."""
    if h is None:
        return cfg.exits
    return dataclasses.replace(cfg.exits, **{EVENT_FIELD[event]: float(h)})


def _transition_setup(cfg: RunConfig, delta: float):
    """(model, transition_study keywords) of the avoided-bifurcation run at
    ``delta``: the configured normal form, and as ``exits`` an ExitSpec of
    the [exits] levels when both are set (None, the study's default levels,
    otherwise).  No transition output reads a radius, so none is monitored."""
    if cfg.model.kind != "normal-form":
        raise ConfigError("[model] kind: transition runs need the normal form")
    exits = cfg.exits
    if exits.h is not None:
        raise ConfigError("[exits] h: transition runs build no adiabatic "
                          "frame, so they cannot monitor B0; leave h unset")
    if (exits.d_level is None) != (exits.d0_level is None):
        raise ConfigError("[exits] d_level, d0_level: transition runs need "
                          "both levels or neither")
    T0 = max(cfg.adiabatic.t0, 2.5 * np.sqrt(max(delta, cfg.sim.epsilon)))
    with _parameter_errors():   # transition_study's grid, checked for [sim] dt
        step_grid(cfg.sim.epsilon, -T0, T0, cfg.sim.dt)
    levels = (None if exits.d_level is None else
              ExitSpec(d_level=exits.d_level, d0_level=exits.d0_level))
    return build_model(cfg, delta), {
        "exits": levels, "K": cfg.torus.K, "L": cfg.torus.L,
        "n_grid": cfg.torus.n_grid, "dt": cfg.sim.dt, "T0": T0}


def _sweep_cell_stats(cfg: RunConfig, setup, delta: float, sigma: float,
                      h: Optional[float], seed: int):
    """The event statistics of one cell; ``setup`` is its delta's from
    ``_sweep_cells``."""
    event = ExitEvent(cfg.mc.event)
    n = cfg.mc.n
    if event is ExitEvent.TRANSITION:
        model, kwargs = setup
        batch, sim, _ = transition_study(model, delta, cfg.sim.epsilon,
                                         sigma, n, seed=seed, **kwargs)
    else:
        model, sim, frame, init = setup
        sim = dataclasses.replace(sim, sigma=sigma, seed=seed)
        exits = _cell_exits(cfg, event, h)
        batch = run_batch(sim, model, init, exits, frame, n)
    horizon = cfg.mc.horizon if cfg.mc.horizon is not None else sim.t_end
    return event_probability(batch, event, horizon)


def cmd_sweep(cfg: RunConfig, out_dir: Path, resume: bool) -> int:
    cells, setups = _sweep_cells(cfg)
    keys = [f"{idx}:{_fmt(delta)}|{_fmt(sigma)}|{_fmt(h)}"
            for idx, (delta, sigma, h) in enumerate(cells)]
    path = out_dir / "sweep.csv"
    man_path = out_dir / "sweep_manifest.json"
    manifest = Manifest("sweep", cfg)
    completed: list = []
    cell_seeds: dict = {}
    if resume and man_path.exists() and path.exists():
        try:
            old = json.loads(man_path.read_text(encoding="utf-8"))
            completed = list(old.get("extras", {}).get("completed_cells", []))
            cell_seeds = dict(old.get("extras", {}).get("cell_seeds", {}))
        except (OSError, ValueError, AttributeError, TypeError) as exc:
            raise ConfigError(f"--resume: cannot read {man_path}: {exc}") from None
        if (old.get("master_seed") != cfg.sim.seed
                or completed != keys[:len(completed)]):
            raise ConfigError("--resume manifest does not match this run")
        manifest.data["started_at"] = old.get("started_at",
                                              manifest.data["started_at"])
        # a run killed between appending a row and rewriting the manifest
        # left rows of cells the manifest does not list; drop them
        lines = path.read_bytes().splitlines(keepends=True)
        if len(lines) < 1 + len(completed):
            raise ConfigError(f"--resume: {path} has fewer rows than the manifest")
        _replace_file(path, b"".join(lines[:1 + len(completed)]))
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(_SWEEP_HEADER)

    extras = manifest.data["extras"]
    extras["completed_cells"] = completed
    extras["cell_seeds"] = cell_seeds
    budget = cfg.sweep.max_cells
    end = len(cells) if budget is None else min(len(cells), len(completed) + budget)
    for idx in range(len(completed), end):
        delta, sigma, h = cells[idx]
        cell_seed = derive_seed(cfg.sim.seed, idx)
        stats = _sweep_cell_stats(cfg, setups[delta], float(delta),
                                  float(sigma), h, cell_seed)
        exits = _cell_exits(cfg, stats.event, h)  # h_perp echoed, monitored or not
        with open(path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow([_fmt(v) for v in (
                delta, cfg.sim.epsilon, sigma, h, exits.h_perp, stats.n,
                stats.p_hat, stats.ci_low, stats.ci_high, stats.event.value)])
        completed.append(keys[idx])
        cell_seeds[keys[idx]] = cell_seed
        manifest.add_output(path)
        manifest.write(man_path)

    extras["all_done"] = len(completed) == len(cells)
    manifest.add_output(path)
    manifest.write(man_path)
    return EXIT_OK


def cmd_threshold(cfg: RunConfig, out_dir: Path, resume: bool) -> int:
    th, eps = cfg.threshold, cfg.sim.epsilon
    if not th.delta_values:
        raise ConfigError("[threshold] delta_values: must be non-empty")
    setups = [(d, *_transition_setup(cfg, d))
              for d in map(float, th.delta_values)]
    results = _bisect_each(setups, eps, th.n, th.tol, cfg.sim.seed,
                           sigma_lo=th.sigma_lo, sigma_hi=th.sigma_hi)
    rows, fitted, probes_extras = [], [], {}
    for delta, result in zip(th.delta_values, results):
        if isinstance(result, BracketNotFound):
            print(f"srlab threshold: delta={delta}: {result}", file=sys.stderr)
            probes, cells = result.probes, [None] * 4 + [th.n]
        else:
            sig, st, probes = result
            cells = [sig, st.p_hat, st.ci_low, st.ci_high, st.n]
            fitted.append((delta, sig))
        rows.append([delta, *cells, len(probes)])
        probes_extras[str(delta)] = [
            {"sigma": s, "seed": sd, "p_hat": p.p_hat} for s, sd, p in probes]
    path = out_dir / "threshold.csv"
    _write_csv(path, ["delta", "sigma_star", "p_hat", "ci_low", "ci_high",
                      "n", "n_probes"], rows)
    manifest = Manifest("threshold", cfg)
    manifest.add_output(path)
    manifest.data["extras"]["bisection_probes"] = probes_extras

    fit_rows = []
    if len(fitted) >= 2:
        fit = _scaling_fit(eps, fitted)
        manifest.data["extras"]["fit"] = {
            k: getattr(fit, k) for k in ("slope", "intercept", "r_squared")}
        fit_rows = [["fit", fit.slope, fit.intercept, fit.r_squared, None, None]]
        fit_rows += [["point", None, None, None, x, y] for x, y in fit.points]
    fit_path = out_dir / "threshold_fit.csv"
    _write_csv(fit_path, ["kind", "slope", "intercept", "r_squared",
                          "log_delta", "log_sigma_star"], fit_rows)
    manifest.add_output(fit_path)
    manifest.write(out_dir / "threshold_manifest.json")
    return EXIT_OK if fit_rows else EXIT_BRACKET


def cmd_variance_check(cfg: RunConfig, out_dir: Path, resume: bool) -> int:
    if cfg.model.kind != "linear":
        raise ConfigError("[model] kind: variance-check needs the linear model")
    with _parameter_errors():
        rows, c0 = mode_variance_report(sim_config(cfg), cfg.mc.n,
                                        cfg.mc.k_max, a=cfg.model.a)
    path = out_dir / "variance.csv"
    _write_csv(path, ["k", "mu_k", "var_final", "se_final", "var_sup",
                      "exact_var", "ratio_sup", "bound", "c0_fit"],
               [[r["k"], r["mu_k"], r["var_final"], r["se_final"],
                 r["var_sup"], r["exact_var"], r["ratio_sup"], r["bound"], c0]
                for r in rows])
    manifest = Manifest("variance-check", cfg)
    manifest.add_output(path)
    manifest.data["extras"]["c0_fit"] = c0
    manifest.write(out_dir / "variance_manifest.json")
    return EXIT_OK


_COMMANDS = {
    "branches": cmd_branches,
    "adiabatic": cmd_adiabatic,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "variance-check": cmd_variance_check,
}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="srlab",
        description="Spectral Monte Carlo laboratory for slowly forced "
                    "bistable SPDEs on the torus.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed from the config")
    p.add_argument("--resume", action="store_true",
                   help="skip grid cells already present in the manifest")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep 0 for --help
        return 0 if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = parse_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be >= 0")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.seed is not None:
            cfg.sim.seed = args.seed
        return _COMMANDS[args.command](cfg, out_dir, args.resume)
    except ConfigError as exc:
        print(f"srlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"srlab: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFinite, StiffnessFailure) as exc:
        print(f"srlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BracketNotFound, DegeneratePoints, RootBracketExhausted) as exc:
        print(f"srlab: {exc}", file=sys.stderr)
        return EXIT_BRACKET


if __name__ == "__main__":
    sys.exit(main())
