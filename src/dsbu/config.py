"""Plain key = value run configuration.

One config file fully determines a run: '#' starts a comment, keys are
validated against the chosen mode, unknown or duplicate keys and non-finite
floats are rejected with their line number, and grid-derived defaults (dt0,
guard, sampling interval) are resolved at parse time so the returned
RunConfig is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .evolution import grid_defaults

MODES = ("ground-state", "evolve", "analyze", "verify")
IC_KINDS = ("gaussian", "snapshot", "standing_wave", "pc_blowup")
TRACE_KINDS = ("disk", "square")


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    mode: str
    # grid and operator
    n: int = 256
    box_length: float = 20.0
    nu: int = 1
    gamma: float = 1.0
    output_dir: str = "out"
    # ground-state mode
    tol: float = 1e-10
    max_iter: int = 2000
    init_amplitude: float = 2.0
    # evolve mode
    t_end: float | None = None
    ic: str = "gaussian"
    amplitude: float = 2.0
    width: float = 1.0
    aspect: float = 1.0
    snapshot_path: str | None = None
    profile_path: str | None = None
    pc_start_time: float = -1.0
    dt0: float | None = None
    adaptive: bool = False
    c_adapt: float = 0.1
    sample_interval: float | None = None
    guard: float | None = None
    # analyze mode
    snapshot_dir: str | None = None
    trace: str = "disk"
    epsilon: float = 0.1
    c_side: float = 10.0
    eta: float = 0.1
    t_star: float | None = None
    c_opt: float | None = None


_BOOL = {"true": True, "false": False}

# key -> (type tag, applicable modes); 'all' keys are valid everywhere.
_KEYS = {
    "mode": ("str", "all"),
    "n": ("int", "all"),
    "box_length": ("float", "all"),
    "nu": ("int", "all"),
    "gamma": ("float", "all"),
    "output_dir": ("str", "all"),
    "tol": ("float", ("ground-state",)),
    "max_iter": ("int", ("ground-state",)),
    "init_amplitude": ("float", ("ground-state",)),
    "t_end": ("float", ("evolve",)),
    "ic": ("str", ("evolve",)),
    "amplitude": ("float", ("evolve",)),
    "width": ("float", ("evolve",)),
    "aspect": ("float", ("evolve",)),
    "snapshot_path": ("str", ("evolve",)),
    "profile_path": ("str", ("evolve",)),
    "pc_start_time": ("float", ("evolve",)),
    "dt0": ("float", ("evolve",)),
    "adaptive": ("bool", ("evolve",)),
    "c_adapt": ("float", ("evolve",)),
    "sample_interval": ("float", ("evolve",)),
    "guard": ("float", ("evolve",)),
    "snapshot_dir": ("str", ("analyze",)),
    "trace": ("str", ("analyze",)),
    "epsilon": ("float", ("analyze",)),
    "c_side": ("float", ("analyze",)),
    "eta": ("float", ("analyze",)),
    "t_star": ("float", ("analyze",)),
    "c_opt": ("float", ("analyze",)),
}


def _convert(key: str, raw: str, line: int):
    kind = _KEYS[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(line, f"{key} must be finite, got {raw!r}")
            return value
        if kind == "bool":
            if raw.lower() not in _BOOL:
                raise ValueError
            return _BOOL[raw.lower()]
        return raw
    except ValueError:
        raise ConfigError(line, f"cannot parse {key} = {raw!r} as {kind}") from None


def _validate(cfg: RunConfig, lines: dict[str, int]) -> None:
    def fail(key: str, message: str):
        raise ConfigError(lines.get(key, 0), message)

    if cfg.mode not in MODES:
        fail("mode", f"mode must be one of {', '.join(MODES)}, got {cfg.mode!r}")
    if cfg.n < 8 or cfg.n % 2 != 0:
        fail("n", f"n must be even and >= 8, got {cfg.n}")
    if not cfg.box_length > 0:
        fail("box_length", "box_length must be positive")
    if cfg.nu not in (-1, 1):
        fail("nu", "nu must be ±1")
    if not cfg.gamma > 0:
        fail("gamma", "gamma must be positive")
    if not cfg.tol > 0:
        fail("tol", "tol must be positive")
    if cfg.max_iter < 1:
        fail("max_iter", "max_iter must be at least 1")

    if cfg.mode == "evolve":
        if cfg.t_end is None:
            fail("mode", "evolve mode requires t_end")
        if not cfg.t_end > 0:
            fail("t_end", "t_end must be positive")
        if cfg.ic not in IC_KINDS:
            fail("ic", f"ic must be one of {', '.join(IC_KINDS)}")
        if cfg.ic == "snapshot" and cfg.snapshot_path is None:
            fail("ic", "ic = snapshot requires snapshot_path")
        if cfg.ic in ("standing_wave", "pc_blowup") and cfg.profile_path is None:
            fail("ic", f"ic = {cfg.ic} requires profile_path")
        if cfg.ic == "pc_blowup" and not (-1.0 <= cfg.pc_start_time < 0.0):
            fail("pc_start_time", "pc_start_time must lie in [-1, 0)")
        if not cfg.amplitude > 0:
            fail("amplitude", "amplitude must be positive")
        if not cfg.width > 0:
            fail("width", "width must be positive")
        if not cfg.aspect > 0:
            fail("aspect", "aspect must be positive")
        if cfg.dt0 is not None and not cfg.dt0 > 0:
            fail("dt0", "dt0 must be positive")
        if not cfg.c_adapt > 0:
            fail("c_adapt", "c_adapt must be positive")
        if cfg.sample_interval is not None and not cfg.sample_interval > 0:
            fail("sample_interval", "sample_interval must be positive")
        if cfg.guard is not None and not cfg.guard > 0:
            fail("guard", "guard must be positive")

    if cfg.mode == "analyze":
        if cfg.snapshot_dir is None:
            fail("mode", "analyze mode requires snapshot_dir")
        if cfg.trace not in TRACE_KINDS:
            fail("trace", f"trace must be one of {', '.join(TRACE_KINDS)}")
        if not 0.0 < cfg.epsilon < 0.5:
            fail("epsilon", "epsilon must lie in (0, 1/2)")
        if not cfg.c_side > 0:
            fail("c_side", "c_side must be positive")
        if not cfg.eta > 0:
            fail("eta", "eta must be positive")
        if cfg.trace == "disk" and cfg.c_opt is None:
            fail("trace", "trace = disk requires c_opt (from a ground-state report)")
        if cfg.c_opt is not None and not cfg.c_opt > 0:
            fail("c_opt", "c_opt must be positive")


def parse_config(text: str) -> RunConfig:
    """Parse and validate key = value config text.

    Raises ConfigError carrying the line number of the first problem.
    """
    values: dict[str, object] = {}
    lines_seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key = value, got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ConfigError(lineno, f"duplicate key {key!r}")
        if not raw:
            raise ConfigError(lineno, f"empty value for {key!r}")
        values[key] = _convert(key, raw, lineno)
        lines_seen[key] = lineno

    if "mode" not in values:
        raise ConfigError(0, "missing required key 'mode'")
    mode = values["mode"]
    for key, lineno in lines_seen.items():
        allowed = _KEYS[key][1]
        if allowed != "all" and mode not in allowed:
            raise ConfigError(lineno, f"key {key!r} does not apply to mode {mode!r}")

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    _validate(cfg, lines_seen)

    if cfg.mode == "evolve":
        dt0, guard, sample_interval = grid_defaults(cfg.box_length / cfg.n, cfg.t_end)
        if cfg.dt0 is None:
            cfg.dt0 = dt0
        if cfg.guard is None:
            cfg.guard = guard
        if cfg.sample_interval is None:
            cfg.sample_interval = sample_interval
    return cfg


def config_summary(cfg: RunConfig) -> str:
    """Canonical one-line-per-key rendering of a resolved config."""
    parts = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        parts.append(f"{f.name} = {value}")
    return "\n".join(parts)
