"""Command-line surface: ground-state, evolve, analyze, verify.

Each invocation runs one mode from one config file (see ``config``).
Outputs land in the config's output_dir, overridable with the
DSBU_OUTPUT_DIR environment variable. Exit codes: 0 success, 1 domain
errors (including failed verify checks), 2 usage errors. Reruns of the
same config with the same build produce byte-identical CSV and snapshot
files; nothing is randomized.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import fields
from fnmatch import fnmatch

import numpy as np

from .concentration import disk_concentration_trace, square_concentration_trace
from .config import RunConfig, config_summary, parse_config
from .errors import DomainError, DsbuError, GridMismatchError, UsageError
from .evolution import ConservationRecord, SimulationState, estimate_t_star, run
from .exact import eval_pc_blowup, eval_standing_wave, pde_residual
from .ground_state import solve_ground_state
from .snapshot_io import SnapshotMeta, atomic_write, read_header, read_snapshot, write_snapshot
from .spectral import (
    Field,
    Grid2D,
    OperatorParams,
    Quarter,
    apply_b,
    apply_l,
    full_field,
    gradient_norm_sq,
    mass,
)

USAGE = """usage: dsbu <command> [config]

commands:
  ground-state <config>   compute the standing-wave profile and c_opt
  evolve <config>         time-step an initial condition, emit records + snapshots
  analyze <config>        windowed-mass concentration trace over saved snapshots
  verify [config]         run the exact-solution oracle battery
"""

#: records.csv header: one column per ConservationRecord field, in field order.
RECORD_COLUMNS = "t,mass,energy,grad_sq,second_moment,moment_valid,sup_abs,l4_accum,dt"
_RECORD_FIELDS = [f.name for f in fields(ConservationRecord)]
ANALYSIS_COLUMNS = "t,lambda,best_mass,yx,yy,rho,rescaled_energy,rescaled_quartic"
#: The snapshot files that evolve writes (snap_000000.dsbu, ...) and analyze reads.
_SNAPSHOT_FILES = "snap_*.dsbu"


def _fmt(x: float | None) -> str:
    """A number to 17 significant digits, which round-trips a float64; None as nan."""
    return "nan" if x is None else f"{x:.17g}"


def _csv(header: str, rows) -> str:
    """The text of a CSV file: ``header``, then each row's cells through ``_fmt``."""
    return "".join([f"{header}\n", *(",".join(map(_fmt, row)) + "\n" for row in rows)])


def _report(path: str | None, pairs: list[tuple[str, object]]) -> None:
    """Print ``key = value`` lines, one per pair, and write them to ``path`` if given.

    Floats (np.float64 too) are written with ``_fmt``, every other value with str.
    """
    text = "".join(f"{key} = {_fmt(v) if isinstance(v, float) else v}\n" for key, v in pairs)
    if path is not None:
        atomic_write(path, text)
    print(text, end="")


def _output_dir(cfg: RunConfig) -> str:
    """The output directory, made if missing, with the run's resolved config written there."""
    out = os.environ.get("DSBU_OUTPUT_DIR", cfg.output_dir)
    with _writing("output_dir", out):
        os.makedirs(out, exist_ok=True)
    # resolved-config record: one config fully determines a run
    atomic_write(os.path.join(out, "run_config.txt"), config_summary(cfg) + "\n")
    return out


def _records_csv(records: list[ConservationRecord]) -> str:
    # moment_valid, a bool, formats as 1 or 0
    return _csv(RECORD_COLUMNS, ([getattr(r, name) for name in _RECORD_FIELDS] for r in records))


def _read_records_csv(path: str) -> list[ConservationRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if not lines or lines[0] != RECORD_COLUMNS:
        raise DomainError(f"{path}: unrecognized records schema")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(_RECORD_FIELDS):
                raise ValueError(f"{len(cells)} columns, expected {len(_RECORD_FIELDS)}")
            row = dict(zip(_RECORD_FIELDS, map(float, cells)))
        except ValueError as exc:
            raise DomainError(f"{path}: line {lineno}: malformed record: {exc}") from None
        row["moment_valid"] = row["moment_valid"] == 1.0
        records.append(ConservationRecord(**row))
    return records


@contextmanager
def _reading(what: str, path: str):
    """An input the block cannot read (any OSError) is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def _writing(what: str, path: str):
    """An output the block cannot make (any OSError) is a usage error naming it; a
    file that ``atomic_write`` cannot write is one already."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {what} {path}: {exc}") from exc


def _load_config(path: str) -> RunConfig:
    with _reading("config", path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text)


def _initial_state(cfg: RunConfig) -> SimulationState:
    params = cfg.operator_params()
    if cfg.ic == "gaussian":
        grid = Grid2D(cfg.n, cfg.box_length)
        # amplitude * exp(-(x1^2 + (aspect x2)^2) / (2 width^2)), from the
        # broadcast axes and in place on the real part of the field
        values = np.zeros(grid.shape, dtype=np.complex128)
        e = values.real
        np.add(grid.x[:, None] ** 2, (cfg.aspect * grid.x[None, :]) ** 2, out=e)
        np.negative(e, out=e)
        e /= 2 * cfg.width**2
        np.exp(e, out=e)
        e *= cfg.amplitude
        return SimulationState.initial(Field(grid, values), params)
    key = "snapshot_path" if cfg.ic == "snapshot" else "profile_path"
    path = getattr(cfg, key)
    with _reading(key, path):
        (values, space), meta = read_snapshot(path)
    u0 = full_field(values, space)
    # run_config.txt records the config's couplings; the run must use them
    if (meta.nu, meta.gamma) != (cfg.nu, cfg.gamma):
        raise UsageError(
            f"{key} {path} carries nu = {meta.nu}, gamma = {meta.gamma} "
            f"but the config sets nu = {cfg.nu}, gamma = {cfg.gamma}; set nu and "
            "gamma to the file's couplings"
        )
    if cfg.ic == "standing_wave":
        u0 = eval_standing_wave(u0, 0.0)
    elif cfg.ic == "pc_blowup":
        u0 = eval_pc_blowup(u0, cfg.pc_start_time, Grid2D(cfg.n, cfg.box_length))
    # dt0, guard and run_config.txt were resolved from the config's grid.
    if (u0.grid.n, u0.grid.box_length) != (cfg.n, cfg.box_length):
        raise GridMismatchError(
            f"initial field is on {u0.grid} but the config describes "
            f"Grid2D(n={cfg.n}, box_length={cfg.box_length}); set n and box_length "
            "to the field's grid"
        )
    return SimulationState.initial(u0, params)


def _cmd_ground_state(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    grid = Grid2D(cfg.n, cfg.box_length)
    gs = solve_ground_state(grid, cfg.operator_params(), cfg.ground_state_config())
    snap_path = os.path.join(out, "ground_state.dsbu")
    write_snapshot(snap_path, gs.profile, SnapshotMeta(0.0, cfg.nu, cfg.gamma))
    _report(os.path.join(out, "ground_state_report.txt"), [
        ("mass", gs.mass),
        ("c_opt", gs.c_opt),
        ("residual", gs.residual),
        ("iterations", gs.iterations),
        ("safeguarded_steps", gs.safeguarded_steps),
        ("sharpness_ratio", gs.sharpness_ratio),
        ("profile", snap_path),
    ])
    return 0


class _SnapshotWriter:
    """The sink of ``dsbu evolve``: clears ``out`` of an earlier run's files, then
    writes each snapshot there as soon as it is kept, from the samples on the run's
    space (an even field's quarter as it is, ``write_snapshot``'s format 2). ``run``
    calls it on the calling thread, one call at a time."""

    def __init__(self, cfg: RunConfig):
        self.out, self.couplings, self.written = _output_dir(cfg), (cfg.nu, cfg.gamma), 0
        # analyze would read what an earlier run left here as part of this one
        with _writing("output_dir", self.out):
            for name in os.listdir(self.out):
                if name in ("records.csv", "blowup.txt") or fnmatch(name, _SNAPSHOT_FILES):
                    os.remove(os.path.join(self.out, name))

    def __call__(self, t: float, values: np.ndarray, space) -> None:
        path = os.path.join(self.out, f"snap_{self.written:06d}.dsbu")
        write_snapshot(path, (values, space), SnapshotMeta(t, *self.couplings))
        self.written += 1


def _cmd_evolve(cfg: RunConfig) -> int:
    # Arguments are made in order: the initial state is built and checked
    # before the writer touches the output directory, and no name here keeps
    # it, so ``run`` can let the initial field go after the first snapshot.
    result = run(_initial_state(cfg), cfg.evolve_config(), write := _SnapshotWriter(cfg))
    out = write.out
    atomic_write(os.path.join(out, "records.csv"), _records_csv(result.records))
    _report(None, [
        ("stop_reason", result.stop_reason),
        ("steps", result.state.step_index),
        ("t_final", result.state.t),
    ])
    est = result.blowup
    if est is not None:
        _report(os.path.join(out, "blowup.txt"), [
            ("t_star_estimate", est.t_star_estimate),
            ("fit_window", f"{_fmt(est.fit_window[0])} .. {_fmt(est.fit_window[1])}"),
            ("fit_residual", est.fit_residual),
            ("method", est.method),
        ])
    return 0


class _SnapshotFiles(Sequence):
    """The named snapshots of ``directory`` as a sequence of (t, values, space), the
    samples as ``read_snapshot`` gives them, on the space the file holds (an even
    field's quarter as it is stored). Item i is read from its file when asked for, so
    the trace holds only the field it is measuring; as a sequence it may be traced on
    two processes, each reading its own half of the files."""

    def __init__(self, directory: str, names: list[str]):
        self.directory, self.names = directory, names

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> tuple[float, np.ndarray, Grid2D | Quarter]:
        with _reading("snapshot_dir", self.directory):
            (values, space), meta = read_snapshot(os.path.join(self.directory, self.names[i]))
        return meta.t, values, space


def _cmd_analyze(cfg: RunConfig) -> int:
    # Every input is read before any output is written: the snapshot headers
    # here, each field inside the trace, which runs before _output_dir.
    with _reading("snapshot_dir", cfg.snapshot_dir):
        names = sorted(f for f in os.listdir(cfg.snapshot_dir) if fnmatch(f, _SNAPSHOT_FILES))
        if not names:
            raise DomainError(f"no {_SNAPSHOT_FILES} files in {cfg.snapshot_dir}")
        metas = {f: read_header(os.path.join(cfg.snapshot_dir, f)) for f in names}
        names.sort(key=lambda f: metas[f].t)
        couplings = {(meta.nu, meta.gamma) for meta in metas.values()}
        if len(couplings) > 1:
            raise DomainError(f"{cfg.snapshot_dir}: snapshots carry mixed operator couplings")
        params = OperatorParams(*couplings.pop())

        t_star = cfg.t_star
        if t_star is None:
            records_path = os.path.join(cfg.snapshot_dir, "records.csv")
            if not os.path.exists(records_path):
                raise DomainError(
                    "analyze needs t_star in the config or records.csv next to the snapshots"
                )
            t_star = estimate_t_star(_read_records_csv(records_path)).t_star_estimate
    snapshots = _SnapshotFiles(cfg.snapshot_dir, names)

    if cfg.trace == "disk":
        records, summary = disk_concentration_trace(
            snapshots, cfg.lambda_schedule(t_star), cfg.c_opt, params
        )
        verdicts = [
            ("threshold_mass", summary.threshold_mass),
            ("terminal_min_mass", summary.terminal_min_mass),
            ("terminal_final_mass", summary.terminal_final_mass),
            ("min_ratio", summary.min_ratio),
            ("final_ratio", summary.final_ratio),
            ("lambda_grad_growing", summary.lambda_grad_growing),
            ("energy_trend_ok", summary.energy_trend_ok),
            ("terminal_quartic_dev", summary.terminal_quartic_dev),
            ("sensitivity", summary.sensitivity),
        ]
    else:
        records, summary = square_concentration_trace(snapshots, cfg.c_side, t_star, cfg.eta)
        verdicts = [
            ("max_sqrt_mass", summary.max_sqrt_mass),
            ("terminal_min_sqrt_mass", summary.terminal_min_sqrt_mass),
            ("terminal_max_sqrt_mass", summary.terminal_max_sqrt_mass),
            ("eta", summary.eta),
            ("above_eta", summary.above_eta),
        ]
    out = _output_dir(cfg)

    rows = ([r.t, r.window.size, r.best_mass, *r.best_center, r.rho, r.rescaled_energy,
             r.rescaled_quartic] for r in records)
    atomic_write(os.path.join(out, "analysis.csv"), _csv(ANALYSIS_COLUMNS, rows))
    _report(os.path.join(out, "analysis_summary.txt"), [
        ("trace", cfg.trace),
        ("t_star", t_star),
        *verdicts,
        ("skipped", summary.skipped_times),
    ])
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    n, box, gamma = cfg.n, cfg.box_length, cfg.gamma
    grid = Grid2D(n, box)
    params = cfg.operator_params()
    checks: list[tuple[str, float, float]] = []  # (name, value, bound)

    x1, x2 = grid.coords()
    gauss = Field(grid, np.exp(-(x1**2 + x2**2) / 2))
    checks.append(("gaussian mass vs pi", abs(mass(gauss) - np.pi) / np.pi, 1e-10))

    a = 2 * np.pi * round(0.2 * box) / box
    cc = Field(grid, np.cos(a * x1) * np.cos(a * x2) + 0j)
    dev = np.max(np.abs(apply_b(cc).values - 0.5 * cc.values))
    checks.append(("B on cos*cos equals f/2", float(dev), 1e-12))

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        f = Field(grid, rng.standard_normal((n, n)) + 0j)
        ratio = np.linalg.norm(apply_l(f, params).values) / np.linalg.norm(f.values)
        worst = max(worst, ratio / (1 + gamma))
    checks.append(("operator bound ||Lf|| <= (1+gamma)||f||", worst, 1.0 + 1e-12))

    gs = solve_ground_state(grid, params)
    checks.append(("ground-state residual", gs.residual, 1e-10))
    checks.append(
        ("sharpness ratio deviation", abs(gs.sharpness_ratio - gs.c_opt) / gs.c_opt, 1e-4)
    )

    h = 1e-4
    sw = [eval_standing_wave(gs.profile, 1.0 + k * h) for k in (-1, 0, 1)]
    checks.append(("standing-wave residual", pde_residual(sw[0], sw[1], sw[2], h, params), 1e-6))

    m_ref = mass(gs.profile)
    worst_dev = 0.0
    for t in (-1.0, -0.5, -0.25):
        target = Grid2D(n, box * abs(t))
        worst_dev = max(
            worst_dev, abs(mass(eval_pc_blowup(gs.profile, t, target)) - m_ref) / m_ref
        )
    checks.append(("pc-solution mass invariance", worst_dev, 1e-8))

    ts = -np.geomspace(0.05, 0.5, 8)
    grads = [
        gradient_norm_sq(eval_pc_blowup(gs.profile, float(t), Grid2D(n, box * abs(t))))
        for t in ts
    ]
    slope = float(np.polyfit(np.log(1.0 / np.abs(ts)), np.log(grads), 1)[0])
    checks.append(("pc gradient log-log slope vs 2", abs(slope - 2.0), 0.05))

    hh = 1e-5
    t0 = -0.5
    target = Grid2D(n, box * (abs(t0) - 2 * hh))
    slices = [eval_pc_blowup(gs.profile, t0 + k * hh, target) for k in (-1, 0, 1)]
    clean = pde_residual(slices[0], slices[1], slices[2], hh, params)
    checks.append(("pc-solution equation residual", clean, 5e-2))
    corrupted = Field(target, slices[1].values * 1.01)
    neg = pde_residual(slices[0], corrupted, slices[2], hh, params)
    checks.append(("corrupted-field residual exceeds 1e-2 (negative control)",
                   1e-2 / neg, 1.0))

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, value, bound in checks:
        ok = value <= bound
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  value={value:.3e}  bound={bound:.3e}")
    return 0 if all_ok else 1


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse instead of returning it.

    A time step makes and frees about ten n x n temporaries. By default glibc
    gives the freed top of the heap back to the OS and faults it in again on
    the next step, about 2000 minor faults per step at n = 512, unless
    something long-lived (such as a held snapshot) happens to sit above them.
    A forked worker (``run``'s stepper, a trace's later half) inherits the
    setting. Without glibc this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: keep up to 1 GiB of freed heap
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0 if argv else 2
    command, *rest = argv
    commands = {"ground-state": _cmd_ground_state, "evolve": _cmd_evolve,
                "analyze": _cmd_analyze, "verify": _cmd_verify}
    if command not in commands:
        print(USAGE, file=sys.stderr)
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        optional = command == "verify"  # the battery has a default grid
        if len(rest) > 1 or not (rest or optional):
            count = "at most" if optional else "exactly"
            raise UsageError(f"{command} takes {count} one config argument")
        cfg = _load_config(rest[0]) if rest else RunConfig("verify")
        if cfg.mode != command:
            raise UsageError(f"config mode is {cfg.mode!r}, expected {command!r}")
        _keep_freed_memory()
        return commands[command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DsbuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
