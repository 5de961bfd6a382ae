"""Run configuration: one INI-style file fully determines a run.

Sections mirror the module split (torus, model, sim, exits, adiabatic, mc,
sweep, threshold); the [exits] section is the engine's ``ExitSpec``, so its
own checks decide what a valid [exits] is, as ``TorusSpec``'s, ``step_grid``'s
and ``SimConfig``'s do for [torus] and [sim] through ``sim_config``, and
[model] kind and [mc] event are values of ``model.DriftKind`` and
``integrator.ExitEvent``.  Parsing is strict: unknown sections or keys and
malformed values raise ConfigError with the offending section/field named.
The serialised form emits every field, so parse -> serialize -> parse is the
identity on configurations.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_args, get_origin

from .integrator import ExitEvent, ExitSpec, SimConfig, step_grid
from .model import DriftKind
from .spectral import TorusSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text",
           "serialize_config", "sim_config"]


class ConfigError(ValueError):
    pass


# The [section] key of each parameter that a ValueError of TorusSpec,
# step_grid, SimConfig or mc.mode_variance_report starts with.
_CONFIG_KEY = {"L": "[torus] L", "K": "[torus] K", "n_grid": "[torus] n_grid",
               "eps": "[sim] epsilon", "sigma": "[sim] sigma",
               "dt": "[sim] dt", "t_end": "[sim] t_end",
               "s_monitor": "[sim] s_monitor",
               "record_stride": "[sim] record_stride", "seed": "[sim] seed",
               "n": "[mc] n", "a": "[model] a"}


@contextlib.contextmanager
def _parameter_errors():
    """Re-raise a ValueError that starts with a parameter of _CONFIG_KEY as
    the ConfigError of its [section] key; any other passes unchanged."""
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(": ")
        if name not in _CONFIG_KEY:
            raise
        raise ConfigError(f"{_CONFIG_KEY[name]}: {rest}") from None


@dataclass
class TorusSection:
    L: float = 1.0
    K: int = 32
    n_grid: int = 0  # 0 -> 1 at K = 0, else max(4K, 8) (TorusSpec)


@dataclass
class ModelSection:
    kind: str = "normal-form"  # a DriftKind value
    delta: float = 0.04
    cubic: float = 0.0
    a1: float = 1.0
    amplitude: float = 0.2    # allen-cahn forcing
    a: float = -1.0           # linear drift coefficient
    c: float = 0.0            # linear drift offset


@dataclass
class SimSection:
    epsilon: float = 1e-3
    sigma: float = 0.1
    dt: Optional[float] = None          # default epsilon/integrator.STEPS_PER_EPS
    t_start: Optional[float] = None     # default -T0 (normal form) or 0
    t_end: Optional[float] = None       # default +T0 or 1
    s_monitor: float = 0.4
    seed: int = 12345
    record_stride: int = 1
    init: str = "branch"                # branch | adiabatic | zero | const:<v>


@dataclass
class AdiabaticSection:
    t0: float = 0.2
    grid_step: Optional[float] = None   # default epsilon/10
    branch: str = "upper"
    t_points: int = 201                 # branch-scan resolution for CSV output


@dataclass
class McSection:
    n: int = 200
    event: str = "transition"  # an ExitEvent value
    horizon: Optional[float] = None
    k_max: int = 8


@dataclass
class SweepSection:
    sigma_values: tuple = ()
    delta_values: tuple = ()
    h_values: tuple = ()
    max_cells: Optional[int] = None


@dataclass
class ThresholdSection:
    delta_values: tuple = ()
    n: int = 400
    tol: float = 0.1
    sigma_lo: Optional[float] = None
    sigma_hi: Optional[float] = None


@dataclass
class RunConfig:
    torus: TorusSection = field(default_factory=TorusSection)
    model: ModelSection = field(default_factory=ModelSection)
    sim: SimSection = field(default_factory=SimSection)
    exits: ExitSpec = field(default_factory=ExitSpec)
    adiabatic: AdiabaticSection = field(default_factory=AdiabaticSection)
    mc: McSection = field(default_factory=McSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    threshold: ThresholdSection = field(default_factory=ThresholdSection)


def _coerce(section: str, key: str, text: str, ftype):
    text = text.strip()
    origin = get_origin(ftype)
    if origin is not None and type(None) in get_args(ftype):  # Optional[...]
        if text == "":
            return None
        ftype = next(a for a in get_args(ftype) if a is not type(None))
    try:
        if ftype is float:
            return float(text)
        if ftype is int:
            return int(text)
        if ftype is str:
            return text
        if ftype is tuple:
            if text == "":
                return ()
            return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    raise ConfigError(f"[{section}] {key}: unsupported field type {ftype}")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (torus K vs model k)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    cfg = RunConfig()
    section_names = {f.name for f in fields(RunConfig)}
    for section in cp.sections():
        if section not in section_names:
            raise ConfigError(f"{source}: unknown section [{section}]")
        target = getattr(cfg, section)
        # resolve "from __future__ import annotations" string types
        hints = typing.get_type_hints(type(target))
        values = {}
        for key, value in cp.items(section):
            if key not in hints:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
            values[key] = _coerce(section, key, value, hints[key])
        try:
            setattr(cfg, section, replace(target, **values))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    _validate(cfg)
    return cfg


def sim_config(cfg: RunConfig) -> SimConfig:
    """The engine setup of a run from [torus] and [sim], its window snapped
    to whole steps (``step_grid``).  The window defaults to the normal
    form's [-t0, t0] and to [0, 1] for the other drifts.  TorusSpec,
    step_grid and SimConfig own the rules; ConfigError names the key."""
    s, t0 = cfg.sim, cfg.adiabatic.t0
    lo, hi = (-t0, t0) if cfg.model.kind == "normal-form" else (0.0, 1.0)
    t_start = lo if s.t_start is None else s.t_start
    with _parameter_errors():
        spec = TorusSpec(cfg.torus.L, cfg.torus.K, cfg.torus.n_grid)
        dt, t_end = step_grid(s.epsilon, t_start,
                              hi if s.t_end is None else s.t_end, s.dt)
        return SimConfig(eps=s.epsilon, sigma=s.sigma, dt=dt, spec=spec,
                         t_start=t_start, t_end=t_end, s_monitor=s.s_monitor,
                         seed=s.seed, record_stride=s.record_stride)


def _validate(cfg: RunConfig):
    for sf in fields(RunConfig):
        section = getattr(cfg, sf.name)
        for f in fields(section):
            v = getattr(section, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ConfigError(f"[{sf.name}] {f.name}: must be finite")
    for where, enum_type, value in (("[model] kind", DriftKind, cfg.model.kind),
                                    ("[mc] event", ExitEvent, cfg.mc.event)):
        try:
            enum_type(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    # delta is a branch gap only in the normal form; elsewhere it is a label
    for where, deltas in (("[model] delta", (cfg.model.delta,)),
                          ("[sweep] delta_values", cfg.sweep.delta_values),
                          ("[threshold] delta_values", cfg.threshold.delta_values)):
        if cfg.model.kind == "normal-form" and min(deltas, default=0) < 0:
            raise ConfigError(f"{where}: branch gaps must be >= 0")
    if len(set(cfg.threshold.delta_values)) < len(cfg.threshold.delta_values):
        raise ConfigError("[threshold] delta_values: a delta is listed twice, "
                          "but the manifest keys probes by delta")
    sim_config(cfg)   # the rules of TorusSpec, step_grid and SimConfig
    if min(cfg.sweep.sigma_values, default=0.0) < 0:
        raise ConfigError("[sweep] sigma_values: must be >= 0")
    # build_frame's rule, checked here because only some commands build one
    step = cfg.adiabatic.grid_step
    if step is not None and not 0.0 < step <= cfg.sim.epsilon / 4:
        raise ConfigError("[adiabatic] grid_step: must satisfy 0 < grid_step <= epsilon/4")
    if cfg.adiabatic.branch not in ("upper", "lower"):
        raise ConfigError(f"[adiabatic] branch: must be upper or lower, "
                          f"got {cfg.adiabatic.branch!r}")
    if min(cfg.mc.n, cfg.threshold.n) < 1:
        raise ConfigError("[mc] n, [threshold] n: must be >= 1")
    if cfg.mc.k_max < 0:
        raise ConfigError("[mc] k_max: must be >= 0")
    if cfg.sweep.max_cells is not None and cfg.sweep.max_cells < 1:
        raise ConfigError("[sweep] max_cells: must be >= 1 when given")
    if cfg.adiabatic.t_points < 2:
        raise ConfigError("[adiabatic] t_points: must be >= 2")
    lo, hi = cfg.threshold.sigma_lo, cfg.threshold.sigma_hi
    if min([v for v in (lo, hi) if v is not None], default=1.0) <= 0:
        raise ConfigError("[threshold] sigma_lo, sigma_hi: must be > 0")
    if lo is not None and hi is not None and lo >= hi:
        raise ConfigError("[threshold] sigma_lo: must be below sigma_hi")
    if min(cfg.sweep.h_values, default=1.0) <= 0:
        raise ConfigError("[sweep] h_values: must be > 0")
    init = cfg.sim.init
    if init not in ("branch", "adiabatic", "zero") and not init.startswith("const:"):
        raise ConfigError(f"[sim] init: unknown initial condition {init!r}")
    if init.startswith("const:"):
        try:
            finite = math.isfinite(float(init[6:]))
        except ValueError:
            finite = False
        if not finite:
            raise ConfigError(f"[sim] init: bad constant in {init!r}")


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    for f in fields(RunConfig):
        section = getattr(cfg, f.name)
        out.write(f"[{f.name}]\n")
        for sf in fields(section):
            out.write(f"{sf.name} = {_format_value(getattr(section, sf.name))}\n")
        out.write("\n")
    return out.getvalue()


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=path)
