"""Strang-split time evolution with conservation monitors and blow-up diagnostics.

One step of size dt composes three exact flows,

    u <- Lin(dt/2) o Nonlin(dt) o Lin(dt/2) u,

where Lin(tau) multiplies the spectrum by exp(-i|xi|^2 tau) (free flow) and
Nonlin(tau) multiplies pointwise by exp(i tau L(|u|^2)) (the modulus is
unchanged by a real phase, so the nonlinear flow is exact as well). Both
substeps are unimodular, so mass is conserved to roundoff and the overall
scheme is second order and time reversible.

A simulation is driven by ``run``, which records conserved quantities at a
sampling cadence, stops on resolution guards (blow-up cannot be resolved to
the critical time on a fixed grid), and extrapolates the blow-up time from
the terminal gradient growth via the linear model 1/||grad u||^2 ~ a(T*-t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BlowupOverflowError,
    DomainError,
    NoBlowupError,
    UsageError,
)
from .spectral import (
    PHYSICAL,
    Field,
    Grid2D,
    OperatorParams,
    energy,
    gradient_norm_sq,
    interaction_potential,
    l4_norm_4,
    mass,
    second_moment,
)


@dataclass
class SimulationState:
    """Field, clock, and the accumulated space-time L4 integral of a run."""

    t: float
    u: Field
    params: OperatorParams
    step_index: int = 0
    l4_accum: float = 0.0
    l4_last: float | None = None  # cached integral of |u|^4 at time t

    @classmethod
    def initial(cls, u: Field, params: OperatorParams, t: float = 0.0):
        return cls(t=t, u=u.to_physical(), params=params, l4_last=l4_norm_4(u))


@dataclass(frozen=True)
class ConservationRecord:
    """Diagnostics sampled at one instant of a run."""

    t: float
    mass: float
    energy: float
    gradient_norm_sq: float
    second_moment: float
    moment_valid: bool
    sup_abs_u: float
    l4_accum: float
    dt_used: float


@dataclass(frozen=True)
class BlowupEstimate:
    """Extrapolated blow-up time from a least-squares fit of 1/grad_sq vs t."""

    t_star_estimate: float
    method: str
    fit_window: tuple[float, float]
    fit_residual: float

    def __post_init__(self):
        if not self.t_star_estimate > self.fit_window[1]:
            raise DomainError(
                f"blow-up estimate {self.t_star_estimate} not beyond the "
                f"fit window {self.fit_window}"
            )


def strang_step(
    state: SimulationState,
    dt: float,
    _lin_half: np.ndarray | None = None,
) -> SimulationState:
    """Advance one Strang step of size dt (dt may be negative for reversal).

    Raises BlowupOverflowError carrying the last finite state if the step
    produces non-finite values. ``_lin_half`` lets ``run`` reuse the
    half-step linear multiplier exp(-i|xi|^2 dt/2) whenever dt equals dt0.
    """
    if dt == 0.0:
        raise UsageError("dt must be nonzero")
    u = state.u.to_physical()
    grid = u.grid
    p = state.params
    if _lin_half is None:
        _lin_half = np.exp(-1j * grid.ksq * (dt / 2))

    vals = np.fft.ifft2(_lin_half * np.fft.fft2(u.values))
    vals = vals * np.exp(1j * dt * interaction_potential(np.abs(vals) ** 2, grid, p))
    vals = np.fft.ifft2(_lin_half * np.fft.fft2(vals))

    if not np.all(np.isfinite(vals)):
        raise BlowupOverflowError(
            f"non-finite values after step to t={state.t + dt}", state
        )

    u_new = Field(grid, vals, PHYSICAL)
    l4_new = l4_norm_4(u_new)
    l4_prev = state.l4_last if state.l4_last is not None else l4_norm_4(u)
    return SimulationState(
        t=state.t + dt,
        u=u_new,
        params=p,
        step_index=state.step_index + 1,
        l4_accum=state.l4_accum + 0.5 * dt * (l4_prev + l4_new),
        l4_last=l4_new,
    )


@dataclass(frozen=True)
class EvolveConfig:
    """Controls for ``run``; None fields resolve to ``grid_defaults``.

    With ``adaptive`` the step is min(dt0, c_adapt / max|L(|u|^2)|). Snapshots
    (deep field copies) are kept either at the sampling cadence or, with
    ``snapshot_mode='grad_ladder'``, whenever gradient_norm_sq has grown by
    another factor ``snapshot_grad_ratio`` -- the natural cadence for
    blow-up runs, where everything happens in the last few per cent of the
    lifespan.
    """

    t_end: float
    dt0: float | None = None
    adaptive: bool = False
    c_adapt: float = 0.1
    guard: float | None = None
    sample_interval: float | None = None
    keep_snapshots: bool = False
    snapshot_mode: str = "interval"  # or "grad_ladder"
    snapshot_grad_ratio: float = math.sqrt(2.0)


@dataclass
class RunResult:
    """Final state plus everything measured along the way."""

    state: SimulationState
    records: list[ConservationRecord]
    stop_reason: str  # t_end | sup_guard | grad_guard | non_finite
    blowup: BlowupEstimate | None = None
    snapshots: list[tuple[float, Field]] = field(default_factory=list)


def grid_defaults(dx: float, span: float) -> tuple[float, float, float]:
    """Grid-derived defaults (dt0, guard, sample_interval) of a run.

    dt0 = dx^2/4, the resolution guard 0.5/dx, and 50 records over the
    span. The config parser and ``run`` both resolve their None values here.
    """
    return 0.25 * dx**2, 0.5 / dx, span / 50


def _record(state: SimulationState, dt_used: float) -> ConservationRecord:
    sm = second_moment(state.u)
    return ConservationRecord(
        t=state.t,
        mass=mass(state.u),
        energy=energy(state.u, state.params),
        gradient_norm_sq=gradient_norm_sq(state.u),
        second_moment=sm.value,
        moment_valid=sm.boundary_ok,
        sup_abs_u=float(np.abs(state.u.values).max()),
        l4_accum=state.l4_accum,
        dt_used=dt_used,
    )


def run(state0: SimulationState, cfg: EvolveConfig) -> RunResult:
    """Step from state0 until t_end or until a stop criterion fires.

    Stop criteria: sup|u| above the resolution guard (checked every step),
    gradient_norm_sq above guard^2 (checked at the sampling cadence), or
    non-finite values. Guard terminations are normal blow-up outcomes and
    come back with a BlowupEstimate when the records support one.
    """
    state = state0
    grid = state.u.grid
    if not cfg.t_end > state.t:
        raise UsageError("t_end must exceed the initial time")
    dt0, guard, sample_dt = grid_defaults(grid.dx, cfg.t_end - state.t)
    dt0 = cfg.dt0 if cfg.dt0 is not None else dt0
    guard = cfg.guard if cfg.guard is not None else guard
    sample_dt = cfg.sample_interval if cfg.sample_interval is not None else sample_dt
    # Built once; reused by every step whose dt equals dt0, adaptive or not.
    lin_half = np.exp(-1j * grid.ksq * (dt0 / 2))

    records = [_record(state, 0.0)]
    snapshots: list[tuple[float, Field]] = []
    grad_ladder_next = None
    if cfg.keep_snapshots:
        snapshots.append((state.t, state.u.copy()))
        if cfg.snapshot_mode == "grad_ladder":
            grad_ladder_next = records[0].gradient_norm_sq * cfg.snapshot_grad_ratio
    next_sample = state.t + sample_dt
    stop_reason = "t_end"
    t_eps = 1e-12 * max(1.0, abs(cfg.t_end))

    while state.t < cfg.t_end - t_eps:
        if cfg.adaptive:
            phase = interaction_potential(np.abs(state.u.values) ** 2, grid, state.params)
            rate = float(np.abs(phase).max())
            dt = min(dt0, cfg.c_adapt / rate) if rate > 0 else dt0
        else:
            dt = dt0
        dt = min(dt, cfg.t_end - state.t)
        reuse = lin_half if dt == dt0 else None

        try:
            state = strang_step(state, dt, _lin_half=reuse)
        except BlowupOverflowError as exc:
            state = exc.last_state
            records.append(_record(state, dt))
            stop_reason = "non_finite"
            break

        sup = float(np.abs(state.u.values).max())
        if sup > guard:
            records.append(_record(state, dt))
            stop_reason = "sup_guard"
            break

        if cfg.keep_snapshots and cfg.snapshot_mode == "grad_ladder":
            grad_now = gradient_norm_sq(state.u)
            if grad_now >= grad_ladder_next:
                snapshots.append((state.t, state.u.copy()))
                while grad_ladder_next <= grad_now:
                    grad_ladder_next *= cfg.snapshot_grad_ratio
            if grad_now > guard**2:
                records.append(_record(state, dt))
                stop_reason = "grad_guard"
                break

        if state.t >= next_sample - t_eps or state.t >= cfg.t_end - t_eps:
            rec = _record(state, dt)
            records.append(rec)
            if cfg.keep_snapshots and cfg.snapshot_mode == "interval":
                snapshots.append((state.t, state.u.copy()))
            next_sample += sample_dt
            if rec.gradient_norm_sq > guard**2:
                stop_reason = "grad_guard"
                break

    if cfg.keep_snapshots and state.t > snapshots[-1][0]:
        snapshots.append((state.t, state.u.copy()))

    estimate = None
    if stop_reason != "t_end":
        try:
            estimate = estimate_t_star(records)
        except NoBlowupError:
            estimate = None
    return RunResult(
        state=state,
        records=records,
        stop_reason=stop_reason,
        blowup=estimate,
        snapshots=snapshots,
    )


def estimate_t_star(records: list[ConservationRecord]) -> BlowupEstimate:
    """Extrapolate the blow-up time from terminal gradient growth.

    Precondition: at least 8 records with gradient_norm_sq grown by 10x over
    the first record. The fit runs over the last half decade of gradient
    growth (grad_sq within sqrt(10) of its maximum) using the linear model
    1/grad_sq ~ a(T* - t), the borderline rate compatible with the lower
    bound ||grad u(t)|| >= C/sqrt(T*-t); for faster-than-borderline blow-up
    1/grad_sq is convex, so a short terminal window keeps the extrapolated
    root close to the true critical time.
    """
    if not records:
        raise NoBlowupError("no records")
    g0 = records[0].gradient_norm_sq
    grown = [r for r in records if r.gradient_norm_sq >= 10.0 * g0]
    if len(grown) < 8:
        raise NoBlowupError(
            f"no blow-up regime detected: {len(grown)} records with 10x "
            "gradient growth, need 8"
        )
    gmax = max(r.gradient_norm_sq for r in grown)
    window = [r for r in grown if r.gradient_norm_sq >= gmax / np.sqrt(10.0)]
    if len(window) < 5:
        window = grown[-min(5, len(grown)):]
    t = np.array([r.t for r in window])
    y = np.array([1.0 / r.gradient_norm_sq for r in window])
    design = np.column_stack([np.ones_like(t), t])
    (alpha, beta), *_ = np.linalg.lstsq(design, y, rcond=None)
    if beta >= 0:
        raise NoBlowupError("terminal 1/grad_sq is not decreasing")
    resid = float(np.sqrt(np.mean((y - design @ [alpha, beta]) ** 2)) / np.mean(y))
    return BlowupEstimate(
        t_star_estimate=float(-alpha / beta),
        method="linear_inverse_gradient",
        fit_window=(float(t[0]), float(t[-1])),
        fit_residual=resid,
    )


class VirialFit(NamedTuple):
    """Quadratic fit of the second moment: coeffs (c2, c1, c0) in t."""

    coeffs: tuple[float, float, float]
    leading_coeff_error: float


def virial_check(
    records: list[ConservationRecord], e0: float, eps: float = 1e-12
) -> VirialFit:
    """Fit second_moment(t) by a quadratic in t and report the coefficients.

    While the field stays contained the flow satisfies

        second_moment(t) = 8 E(u0) t^2 + c t + second_moment(0)

    (the free limit pins the lead: for amplitude -> 0 it is exactly
    4 ||grad u0||^2 = 8 E). ``leading_coeff_error`` is the relative deviation
    of the fitted lead ``coeffs[0]`` from 8*e0, the denominator floored at
    ``eps`` so that e0 = 0 stays finite. Every record in the window must carry
    a valid moment flag.
    """
    for r in records:
        if not r.moment_valid:
            raise DomainError(
                f"boundary-contaminated second moment at t={r.t}; virial fit invalid"
            )
    if len(records) < 5:
        raise DomainError(f"need at least 5 records for the virial fit, got {len(records)}")
    t = np.array([r.t for r in records])
    v = np.array([r.second_moment for r in records])
    design = np.column_stack([t**2, t, np.ones_like(t)])
    coeffs, *_ = np.linalg.lstsq(design, v, rcond=None)
    lead = float(coeffs[0])
    err = abs(lead - 8.0 * e0) / max(abs(8.0 * e0), eps)
    return VirialFit(tuple(float(c) for c in coeffs), float(err))


def negative_energy_gaussian(
    grid: Grid2D,
    p: OperatorParams,
    width: float = 1.0,
    aspects: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
    max_amplitude: float = 64.0,
) -> Field:
    """Construct well-localized data with negative energy, or prove it impossible.

    Scans amplitude over Gaussians exp(-(x1^2 + (a x2)^2) / (2 width^2)) for
    each aspect a. Radial data alone cannot reach E < 0 in the whole range
    -nu < gamma (the interaction average of B over radial fields is 1/2, so
    they need nu + gamma/2 > 0); squeezing the spectrum onto the xi1 axis by
    elongating along x2 pushes that average toward 1, which is what makes the
    full range reachable. For -nu >= gamma the pointwise bound m <= 1 forces
    the quartic term nonpositive and E >= 0 for every field, so the builder
    refuses.
    """
    if -p.nu >= p.gamma:
        raise DomainError(
            f"negative-energy data require -nu < gamma; got nu={p.nu}, "
            f"gamma={p.gamma} (energy is nonnegative for every field)"
        )
    x1, x2 = grid.coords()
    for aspect in aspects:
        base = np.exp(-(x1**2 + (aspect * x2) ** 2) / (2 * width**2))
        amp = 1.0
        while amp <= max_amplitude:
            u = Field(grid, amp * base, PHYSICAL)
            if energy(u, p) < 0:
                return u
            amp *= 1.25
    raise DomainError(
        "no negative-energy Gaussian found on this grid; enlarge the box or "
        "extend the aspect ladder"
    )
