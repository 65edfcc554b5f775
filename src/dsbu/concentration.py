"""Windowed-mass functionals and rescaled-snapshot diagnostics.

``windowed_mass_sup`` maximizes, over all grid centers y, the mass captured
by a disk or square window around y. The map y -> captured mass is the
periodic convolution of |u|^2 with the window indicator, evaluated for all
centers at once through the convolution theorem with real transforms (both
factors are real); a cell belongs to the window iff its center does, which
keeps the FFT path identical to the brute-force definition.

``rescaled_snapshot`` produces v(x) = rho * u(rho x) with
rho = 1/||grad u||_2 on a grid scaled by rho, so that mass(v) = mass(u) and
||grad v||_2 = 1 hold exactly. Along a blow-up run, the energy of v decays
like rho^2 and its interaction term approaches 2, since
quartic(v) = 2 ||grad v||^2 - 4 E(v) and the rescaled energy vanishes.

The two trace drivers turn a snapshot sequence into concentration records:
disk windows follow a shrinking schedule lambda(t) toward the blow-up time
(mass captured must approach at least 2/c_opt), square windows have
sidelength C*sqrt(t_star - t) and track the captured L2 norm. The disk
trace walks the snapshots once for its schedule and the two t_star-shifted
sensitivity schedules. It builds no rescaled field: B's symbol is
homogeneous of degree 0, so the scaling identities ||grad v||^2 = 1 and
quartic(v) = rho^2 quartic(u) give E(v) = 1/2 - quartic(v)/4 from u alone.
Each kept snapshot's |u|^2 is transformed once, and that half spectrum is
shared by quartic(u) and every window of the three schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .spectral import (
    PHYSICAL,
    Field,
    FieldTerms,
    Grid2D,
    OperatorParams,
    gradient_norm_sq,
    hamiltonian,
)

DISK = "disk"
SQUARE = "square"


@dataclass(frozen=True)
class WindowSpec:
    """Window shape and size: radius for disks, sidelength for squares."""

    shape: str
    size: float

    def __post_init__(self):
        if self.shape not in (DISK, SQUARE):
            raise DomainError(f"unknown window shape {self.shape!r}")
        if not self.size > 0:
            raise DomainError(f"window size must be positive, got {self.size}")


class WindowedMass(NamedTuple):
    """Best captured mass, its maximizing center, and a whole-box flag."""

    best_mass: float
    best_center: tuple[float, float]
    clamped: bool


def _periodic_offsets(grid: Grid2D) -> np.ndarray:
    """Signed periodic displacement for each index offset, wrapped to [-L/2, L/2)."""
    off = grid.dx * np.arange(grid.n)
    return np.where(off < grid.box_length / 2, off, off - grid.box_length)


def _window_kernel(grid: Grid2D, w: WindowSpec) -> np.ndarray:
    off = _periodic_offsets(grid)
    d1 = off[:, None]
    d2 = off[None, :]
    if w.shape == DISK:
        return (d1**2 + d2**2 <= w.size**2).astype(float)
    half = w.size / 2
    return ((np.abs(d1) <= half) & (np.abs(d2) <= half)).astype(float)


def windowed_mass_sup(u: Field, w: WindowSpec, w_half: np.ndarray | None = None) -> WindowedMass:
    """Maximize the window-captured mass over all grid centers.

    Ties break toward the lexicographically smallest index. A window at
    least as large as the box captures everything; the result is then the
    total mass with ``clamped`` set. ``w_half`` is ``FieldTerms.rho_half``
    of u when the caller already has it (the disk trace shares one per
    snapshot across its windows); the result is bitwise the same either way.
    """
    grid = u.grid
    if not w.size > grid.dx:
        raise DomainError(f"window size {w.size} must exceed one cell (dx={grid.dx})")
    kernel = _window_kernel(grid, w)
    if w_half is None:
        w_half = FieldTerms.of(u).rho_half
    captured = np.fft.irfft2(w_half * np.fft.rfft2(kernel), s=kernel.shape)
    captured *= grid.dx**2
    idx = np.unravel_index(np.argmax(captured), captured.shape)
    return WindowedMass(
        best_mass=float(captured[idx]),
        best_center=(float(grid.x[idx[0]]), float(grid.x[idx[1]])),
        clamped=bool(kernel.all()),
    )


def _unit_gradient_scale(grad: float) -> float:
    """rho = 1/||grad u|| from grad = gradient_norm_sq(u): the unit-gradient scale."""
    if grad <= 0.0:
        raise DomainError("rescaled snapshot undefined for gradient-free fields")
    return grad**-0.5


def rescaled_snapshot(u: Field) -> tuple[Field, float]:
    """Unit-gradient rescaling v(x) = rho * u(rho x), rho = 1/||grad u||.

    The rescaled field lives on a grid with box_length / rho and the same n,
    where the sample points coincide with the originals, so mass(v) = mass(u)
    and gradient_norm_sq(v) = 1 hold to roundoff.
    """
    rho = _unit_gradient_scale(gradient_norm_sq(u))
    v_grid = Grid2D(u.grid.n, u.grid.box_length / rho)
    return Field(v_grid, rho * u.to_physical().values, PHYSICAL), rho


PARABOLIC_MINUS_EPS = "parabolic_minus_eps"
CONIC = "conic"


@dataclass(frozen=True)
class LambdaSchedule:
    """Shrinking window-radius schedule toward t_star.

    parabolic_minus_eps: lambda(t) = (t_star - t)^(1/2 - epsilon); combined
    with the blow-up rate bound this guarantees lambda * ||grad u|| grows.
    conic: lambda(t) = (t_star - t)^(1 - epsilon), the narrower window that
    the minimal-mass solution still concentrates in.
    """

    kind: str
    epsilon: float
    t_star: float

    def __post_init__(self):
        if self.kind not in (PARABOLIC_MINUS_EPS, CONIC):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in (0, 1/2), got {self.epsilon}", key="epsilon")

    def __call__(self, t: float) -> float:
        gap = self.t_star - t
        if gap <= 0.0:
            return 0.0
        exponent = 0.5 - self.epsilon if self.kind == PARABOLIC_MINUS_EPS else 1.0 - self.epsilon
        return float(gap**exponent)


@dataclass(frozen=True)
class ConcentrationRecord:
    """Windowed-mass measurement of one snapshot.

    The ``WindowedMass`` fields follow t and window. The rescaled diagnostics
    are filled by the disk trace (they need the operator parameters); the
    square trace leaves them None.
    """

    t: float
    window: WindowSpec
    best_mass: float
    best_center: tuple[float, float]
    clamped: bool = False
    rho: float | None = None
    rescaled_quartic: float | None = None
    rescaled_energy: float | None = None


@dataclass
class DiskTraceSummary:
    """Terminal-segment digest of a disk concentration trace.

    The terminal segment holds the records within the last decade of
    gradient growth (||grad u|| within 10x of its maximum); liminf-style
    statements are read off min/final over that segment. ``threshold_mass``
    is 2/c_opt, the mass the theory guarantees in the shrinking windows.
    """

    threshold_mass: float
    terminal_min_mass: float
    terminal_final_mass: float
    min_ratio: float
    final_ratio: float
    lambda_grad_products: list[float]
    lambda_grad_growing: bool
    energy_trend_ok: bool
    terminal_quartic_dev: float
    final_quartic_dev: float
    final_rescaled_energy: float
    sensitivity: dict
    skipped_times: list[float] = field(default_factory=list)


def _terminal_segment(records: list[ConcentrationRecord]) -> list[ConcentrationRecord]:
    rho_min = min(r.rho for r in records)
    return [r for r in records if r.rho <= 10.0 * rho_min]


def _mass_ratios(terminal: list[ConcentrationRecord], threshold: float) -> dict:
    return {
        "min_ratio": min(r.best_mass for r in terminal) / threshold,
        "final_ratio": terminal[-1].best_mass / threshold,
    }


def disk_concentration_trace(
    snapshots: list[tuple[float, Field]],
    schedule: LambdaSchedule,
    c_opt: float,
    params: OperatorParams,
) -> tuple[list[ConcentrationRecord], DiskTraceSummary]:
    """Disk-window concentration measurements along a blow-up run.

    Snapshots with a nonpositive or sub-cell schedule value are skipped and
    reported. The summary compares captured mass against 2/c_opt over the
    terminal segment, checks that lambda * ||grad u|| grows (the window
    hypothesis), that |rescaled energy| decays to zero up to 5% ripple, and
    how far the terminal interaction term sits from 2. Sensitivity of the
    mass ratios to the extrapolated t_star is reported from two schedules
    with t_star shifted by +-2% of the trace span, traced in the same pass.
    The rescaled diagnostics do not depend on the schedule: each snapshot's
    are computed once, when the first schedule keeps it, from the scaling
    identities and the ``FieldTerms`` of u, whose one transform of |u|^2 its
    windows share.
    """
    if not snapshots:
        raise DomainError("no snapshots to trace")
    snapshots = sorted(snapshots, key=lambda pair: pair[0])
    span = schedule.t_star - snapshots[0][0]
    schedules = {"main": schedule}
    for tag, shift in (("minus_2pct", -0.02 * span), ("plus_2pct", 0.02 * span)):
        schedules[tag] = LambdaSchedule(schedule.kind, schedule.epsilon, schedule.t_star + shift)
    rows: dict[str, list[ConcentrationRecord]] = {tag: [] for tag in schedules}
    skipped: list[float] = []
    for t, u in snapshots:
        terms = None
        for tag, sched in schedules.items():
            lam = sched(t)
            if lam <= u.grid.dx:
                if tag == "main":
                    skipped.append(t)
                continue
            if terms is None:
                terms = FieldTerms.of(u)
                rho = _unit_gradient_scale(terms.grad)
                quartic = rho**2 * terms.quartic(params)
                en = hamiltonian(1.0, quartic)
            window = WindowSpec(DISK, lam)
            wm = windowed_mass_sup(u, window, terms.rho_half)
            rows[tag].append(ConcentrationRecord(t, window, *wm, rho, quartic, en))
    records = rows.pop("main")
    if not records:
        raise DomainError("every snapshot was skipped by the schedule")
    threshold = 2.0 / c_opt
    terminal = _terminal_segment(records)
    products = [r.window.size / r.rho for r in records]
    energies = [abs(r.rescaled_energy) for r in terminal]
    # decay up to 5% ripple; values three decades below the trace maximum
    # count as converged to zero (discretization floor)
    floor = 1e-3 * max(abs(r.rescaled_energy) for r in records)
    trend_ok = all(
        later <= earlier * 1.05 + floor
        for earlier, later in zip(energies, energies[1:])
    )
    quartic_dev = max(abs(r.rescaled_quartic - 2.0) / 2.0 for r in terminal)
    sensitivity = {
        tag: _mass_ratios(_terminal_segment(recs), threshold) if recs else None
        for tag, recs in rows.items()
    }

    summary = DiskTraceSummary(
        threshold_mass=threshold,
        terminal_min_mass=min(r.best_mass for r in terminal),
        terminal_final_mass=terminal[-1].best_mass,
        **_mass_ratios(terminal, threshold),
        lambda_grad_products=products,
        lambda_grad_growing=products[-1] > products[0],
        energy_trend_ok=trend_ok,
        terminal_quartic_dev=quartic_dev,
        final_quartic_dev=abs(records[-1].rescaled_quartic - 2.0) / 2.0,
        final_rescaled_energy=records[-1].rescaled_energy,
        sensitivity=sensitivity,
        skipped_times=skipped,
    )
    return records, summary


@dataclass
class SquareTraceSummary:
    """Digest of a square-window trace: captured L2 norms near t_star.

    The terminal decade holds the snapshots with t_star - t within 10x of
    its smallest value; the limsup-style statement is the max over it, and
    ``above_eta`` reports whether even the min clears the threshold.
    """

    max_sqrt_mass: float
    terminal_min_sqrt_mass: float
    terminal_max_sqrt_mass: float
    eta: float | None
    above_eta: bool | None
    skipped_times: list[float] = field(default_factory=list)


def square_concentration_trace(
    snapshots: list[tuple[float, Field]],
    c_side: float,
    t_star: float,
    eta: float | None = None,
) -> tuple[list[ConcentrationRecord], SquareTraceSummary]:
    """Square-window trace with sidelength c_side * sqrt(t_star - t).

    Needs no gradient data (suits mass-only runs). Snapshots at or beyond
    t_star, or with sub-cell windows, are skipped with their times reported.
    """
    if not c_side > 0:
        raise DomainError(f"c_side must be positive, got {c_side}")
    snapshots = sorted(snapshots, key=lambda pair: pair[0])
    records: list[ConcentrationRecord] = []
    skipped: list[float] = []
    for t, u in snapshots:
        if t >= t_star:
            skipped.append(t)
            continue
        side = c_side * np.sqrt(t_star - t)
        if side <= u.grid.dx:
            skipped.append(t)
            continue
        window = WindowSpec(SQUARE, side)
        records.append(ConcentrationRecord(t, window, *windowed_mass_sup(u, window)))
    if not records:
        raise DomainError("every snapshot was skipped (t_star too early or windows sub-cell)")
    gaps = np.array([t_star - r.t for r in records])
    terminal = [r for r, gap in zip(records, gaps) if gap <= 10.0 * gaps.min()]
    sqrts = [np.sqrt(r.best_mass) for r in records]
    term_sqrts = [np.sqrt(r.best_mass) for r in terminal]
    summary = SquareTraceSummary(
        max_sqrt_mass=float(max(sqrts)),
        terminal_min_sqrt_mass=float(min(term_sqrts)),
        terminal_max_sqrt_mass=float(max(term_sqrts)),
        eta=eta,
        above_eta=None if eta is None else bool(min(term_sqrts) > eta),
        skipped_times=skipped,
    )
    return records, summary
