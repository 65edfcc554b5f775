"""Plain key = value run configuration.

One config file fully determines a run: '#' starts a comment, keys are
validated against the chosen mode, unknown or duplicate keys and non-finite
floats are rejected with their line number, and grid-derived defaults (dt0,
guard, sampling interval) are resolved at parse time, by
``EvolveConfig.resolved``, so the returned RunConfig is complete.

Each value rule lives in the object that uses the value: ``Grid2D`` (n,
box_length), ``OperatorParams`` (nu, gamma), ``GroundStateConfig`` (tol,
max_iter, init_amplitude), ``EvolveConfig`` (dt0, c_adapt, sample_interval,
guard) and ``LambdaSchedule`` (epsilon). The parser builds these objects
through the same ``RunConfig`` methods the CLI runs with, and reports an
object's error on the line of the key it names. It states only the rules
no object owns (mode, required keys, ic and trace kinds, paths, the
Gaussian's amplitude, width and aspect, t_end > 0, eta, c_opt) and two whose
owners run only after input files are read and fail with exit 1:
pc_start_time (``eval_pc_blowup``) and c_side
(``square_concentration_trace``). A key's type is its RunConfig annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .concentration import PARABOLIC_MINUS_EPS, LambdaSchedule
from .errors import ConfigError, DsbuError
from .evolution import EvolveConfig
from .ground_state import GroundStateConfig
from .spectral import Grid2D, OperatorParams

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
    tol: float = GroundStateConfig.tol
    max_iter: int = GroundStateConfig.max_iter
    init_amplitude: float = GroundStateConfig.init_amplitude
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
    adaptive: bool = EvolveConfig.adaptive
    c_adapt: float = EvolveConfig.c_adapt
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

    def operator_params(self) -> OperatorParams:
        return OperatorParams(self.nu, self.gamma)

    def ground_state_config(self) -> GroundStateConfig:
        return GroundStateConfig(self.tol, self.max_iter, self.init_amplitude)

    def evolve_config(self) -> EvolveConfig:
        """Run controls; the CLI's sink writes a snapshot at every record."""
        return EvolveConfig(
            t_end=self.t_end,
            dt0=self.dt0,
            adaptive=self.adaptive,
            c_adapt=self.c_adapt,
            guard=self.guard,
            sample_interval=self.sample_interval,
        )

    def lambda_schedule(self, t_star: float) -> LambdaSchedule:
        return LambdaSchedule(PARABOLIC_MINUS_EPS, self.epsilon, t_star)


_BOOL = {"true": True, "false": False}
_TYPES = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}

# The keys of one mode; every other RunConfig field is a key of all modes.
_MODE_KEYS = {
    "ground-state": ("tol", "max_iter", "init_amplitude"),
    "evolve": ("t_end", "ic", "amplitude", "width", "aspect", "snapshot_path", "profile_path",
               "pc_start_time", "dt0", "adaptive", "c_adapt", "sample_interval", "guard"),
    "analyze": ("snapshot_dir", "trace", "epsilon", "c_side", "eta", "t_star", "c_opt"),
}


def _applies(key: str, mode: str) -> bool:
    """Whether ``key`` is a key of ``mode``: a shared key or one of that mode's own."""
    return not any(key in keys for other, keys in _MODE_KEYS.items() if other != mode)


def _convert(key: str, raw: str, line: int):
    kind = _TYPES[key]
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
    """Raise ConfigError for the first rule the config breaks, in a fixed order."""

    def fail(key: str | None, message: str):
        raise ConfigError(lines.get(key, 0), message)

    def build(owner, *args):
        try:
            owner(*args)
        except DsbuError as exc:
            fail(exc.key, str(exc))

    if cfg.mode not in MODES:
        fail("mode", f"mode must be one of {', '.join(MODES)}, got {cfg.mode!r}")
    build(Grid2D.check, cfg.n, cfg.box_length)
    build(cfg.operator_params)
    if cfg.mode == "ground-state":
        build(cfg.ground_state_config)

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
        for key in ("amplitude", "width", "aspect"):
            if not getattr(cfg, key) > 0:
                fail(key, f"{key} must be positive")
        build(cfg.evolve_config)

    if cfg.mode == "analyze":
        if cfg.snapshot_dir is None:
            fail("mode", "analyze mode requires snapshot_dir")
        if cfg.trace not in TRACE_KINDS:
            fail("trace", f"trace must be one of {', '.join(TRACE_KINDS)}")
        build(cfg.lambda_schedule, 0.0)  # the rule is on epsilon; t_star may come later
        for key in ("c_side", "eta"):
            if not getattr(cfg, key) > 0:
                fail(key, f"{key} must be positive")
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
        if key not in _TYPES:
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
        if not _applies(key, mode):
            raise ConfigError(lineno, f"key {key!r} does not apply to mode {mode!r}")

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    _validate(cfg, lines_seen)

    if cfg.mode == "evolve":
        ev = cfg.evolve_config().resolved(cfg.box_length / cfg.n, cfg.t_end)
        cfg.dt0, cfg.guard, cfg.sample_interval = ev.dt0, ev.guard, ev.sample_interval
    return cfg


def config_summary(cfg: RunConfig) -> str:
    """Canonical one-line-per-key rendering of a resolved config.

    It holds the set keys of ``cfg.mode``, so ``parse_config`` reads it back
    to ``cfg``.
    """
    pairs = ((f.name, getattr(cfg, f.name)) for f in fields(cfg) if _applies(f.name, cfg.mode))
    return "\n".join(f"{key} = {value}" for key, value in pairs if value is not None)
