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

``run`` carries the step-boundary field in both spaces, u and u_hat, so a
step never transforms a field it already holds in the other space:

    v = ifft2(E u_hat),  v *= exp(i dt L(|v|^2)),  u_hat = E fft2(v),  u = ifft2(u_hat)

with E = exp(-i|xi|^2 dt/2) = e(k1) e(k2) applied as two broadcast
multiplies, all in place on u_hat and on the buffer of the replaced field.
On the full grid that is 3 complex transforms plus the real pair inside L:
4 complex-FFT-equivalents per step, 5 with the adaptive rate L(|u|^2), and
one more per run for the spectrum of the initial field. The adaptive rate's
pair is skipped on a step where the bound max|u|^2 + gamma*sqrt(sum |u|^4)
of max|L(|u|^2)|, which needs no transform, already gives dt0
(``FieldTerms.potential_bound``); the step is then the exact rule's dt0.

A field even in x1 and in x2 about the grid origin stays even under the
flow (|xi|^2 and the symbol of B are even in each component of xi), so
``run`` steps such a field on its quarter, indices 0..n/2 of each axis,
through ``spectral.Quarter``: every transform above takes two passes of
n/2+1 lines instead of two of n, about half an FFT-equivalent, so a step
costs about 2.3 FFT-equivalents (3 adaptive) on a quarter of the memory.
Each step boundary is one ``spectral.FieldTerms`` of u and the loop's u_hat,
on the grid or on the quarter: the sup guard, the L4 trapezoid, the
adaptive rate L(|u|^2) and the diagnostic record all read it. A record's
one transform, the half spectrum of |u|^2 for the interaction term, is
shared with the adaptive rate. ``strang_step`` is the same scheme one step
at a time on a physical state of the full grid; it is the reference oracle
that the spectral-state loop is tested against, on either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    BlowupOverflowError,
    DomainError,
    NoBlowupError,
    UsageError,
)
from .spectral import (
    Field,
    FieldTerms,
    Grid2D,
    OperatorParams,
    Quarter,
    density,
    energy,
    interaction_potential,
    l4_norm_4,
)


@dataclass
class SimulationState:
    """Field, clock, and the accumulated space-time L4 integral of a run; ``advanced`` steps it."""

    t: float
    u: Field
    params: OperatorParams
    l4_last: float  # integral of |u|^4 at time t
    step_index: int
    l4_accum: float

    @classmethod
    def initial(cls, u: Field, params: OperatorParams):
        return cls(t=0.0, u=u, params=params, l4_last=l4_norm_4(u), step_index=0, l4_accum=0.0)

    def advanced(self, u: Field, dt: float, l4: float) -> SimulationState:
        """The state dt later, with field u of |u|^4 integral l4, and the L4 trapezoid added."""
        return replace(self, t=self.t + dt, u=u, l4_last=l4, step_index=self.step_index + 1,
                       l4_accum=self.l4_accum + 0.5 * dt * (self.l4_last + l4))


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
    produces non-finite values. ``_lin_half`` is the n x n half-step linear
    multiplier exp(-i|xi|^2 dt/2), for callers that repeat one dt.

    This is the reference form of the scheme, from and to a physical state
    (two transform round trips per step). ``run`` takes the same steps in
    its spectral-state loop and is tested against repeated calls of this
    function; both build the next state with ``SimulationState.advanced``.
    """
    if dt == 0.0:
        raise UsageError("dt must be nonzero")
    u = state.u
    grid = u.grid
    p = state.params
    if _lin_half is None:
        _lin_half = np.exp(-1j * grid.ksq * (dt / 2))

    vals = np.fft.ifft2(_lin_half * np.fft.fft2(u.values))
    vals = vals * np.exp(1j * dt * interaction_potential(density(vals), grid, p))
    vals = np.fft.ifft2(_lin_half * np.fft.fft2(vals))

    if not np.all(np.isfinite(vals)):
        raise BlowupOverflowError(
            f"non-finite values after step to t={state.t + dt}", state
        )

    u_new = Field(grid, vals)
    return state.advanced(u_new, dt, l4_norm_4(u_new))


@dataclass(frozen=True)
class EvolveConfig:
    """Controls for ``run``; None fields take their grid defaults through ``resolved``.

    With ``adaptive`` the step is min(dt0, c_adapt / max|L(|u|^2)|); the
    maximum is not formed where a bound that needs no transform gives dt0. A
    snapshot is kept at every record, or, with ``snapshot_grad_ratio``,
    whenever gradient_norm_sq has grown by another factor of it -- the
    natural cadence for blow-up runs, where everything happens in the last
    few per cent of the lifespan. The initial field and the run's last
    state are kept as well. Values on which ``run`` would hang raise
    UsageError at construction.
    """

    t_end: float
    dt0: float | None = None
    adaptive: bool = False
    c_adapt: float = 0.1
    guard: float | None = None
    sample_interval: float | None = None
    snapshot_grad_ratio: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.t_end):
            raise UsageError(f"t_end must be finite, got {self.t_end}", key="t_end")
        for name in ("dt0", "c_adapt", "sample_interval", "guard"):
            value = getattr(self, name)
            if (value is not None or name == "c_adapt") and not value > 0:
                raise UsageError(f"{name} must be positive, got {value}", key=name)
        ratio = self.snapshot_grad_ratio
        if ratio is not None and not ratio > 1:
            raise UsageError(
                f"snapshot_grad_ratio must exceed 1, got {ratio}", key="snapshot_grad_ratio"
            )

    def resolved(self, dx: float, span: float) -> EvolveConfig:
        """This config with each None among dt0, guard and sample_interval set, for
        grid spacing dx and a run over ``span``, to dx^2/4, 0.5/dx and span/50."""
        return replace(
            self,
            dt0=0.25 * dx**2 if self.dt0 is None else self.dt0,
            guard=0.5 / dx if self.guard is None else self.guard,
            sample_interval=span / 50 if self.sample_interval is None else self.sample_interval,
        )


@dataclass
class RunResult:
    """Final state plus everything measured along the way (snapshots go to ``run``'s sink)."""

    state: SimulationState
    records: list[ConservationRecord]
    stop_reason: str  # t_end | sup_guard | grad_guard | non_finite
    blowup: BlowupEstimate | None
    # Nothing in dsbu fills this list; the benchmark harness reads it, and its
    # rewrite (ROADMAP item 1) deletes it together with PHYSICAL.
    snapshots: list[tuple[float, Field]] = field(default_factory=list)


def _record(
    state: SimulationState, dt_used: float, terms: FieldTerms | None = None
) -> ConservationRecord:
    """Diagnostics of ``state``; ``terms`` are its field terms when ``run`` has them."""
    if terms is None:
        terms = FieldTerms.of(state.u)
    return ConservationRecord(
        state.t, terms.mass, terms.energy(state.params), terms.grad, *terms.second_moment,
        terms.sup, state.l4_accum, dt_used,
    )


def _half_step_factor(space: Grid2D | Quarter, dt: float) -> np.ndarray:
    """e(k) = exp(-i k^2 dt/2) on an axis of ``space``; the half-step multiplier is e(k1) e(k2)."""
    return np.exp(-1j * space.k**2 * (dt / 2))


def _spectral_step(
    uhat: np.ndarray, u_out: np.ndarray, dt: float, e: np.ndarray, space: Grid2D | Quarter,
    p: OperatorParams,
) -> np.ndarray:
    """One Strang step: advances ``uhat`` in place and writes the next u into ``u_out``.

    Both arrays have the shape of ``space``, the grid or the quarter of an
    even field, whose transforms the step calls. ``uhat`` holds the
    half-step field between its two linear stages, and ``u_out`` holds the
    phase exp(i dt L(|v|^2)) until it receives u, so a step allocates no
    complex array of the field's size.
    """
    uhat *= e[:, None]
    uhat *= e
    v = space.ifft_in_place(uhat)
    theta = interaction_potential(density(v), space, p)
    theta *= dt
    np.cos(theta, out=u_out.real)
    np.sin(theta, out=u_out.imag)
    v *= u_out
    space.fft(v, out=uhat)
    uhat *= e[:, None]
    uhat *= e
    np.copyto(u_out, uhat)
    return space.ifft_in_place(u_out)


def run(state0: SimulationState, cfg: EvolveConfig, on_snapshot=None) -> RunResult:
    """Step from state0 until t_end or until a stop criterion fires.

    Stop criteria, in the order each step tests them: non-finite values,
    which record the last finite state; sup|u| above the resolution guard;
    gradient_norm_sq above guard^2, read where the step knows the gradient
    anyway: at a record, and on every step of the snapshot ladder. A
    non-finite initial field raises DomainError, and so does a gradient-free
    one on the ladder, whose rungs would all be 0. After the stop reason the
    step has one record site and one snapshot site. Guard terminations are
    normal blow-up outcomes and come back with a BlowupEstimate when the
    records support one.

    Each kept snapshot -- the initial field, each record step (or rung of
    the ladder) and the stop or final step -- is handed, in time order, to
    ``on_snapshot(t, u)`` with the run's live field u, whose buffer the next
    step may reuse: a sink that keeps the samples past the call must copy
    them. With no sink, ``run`` keeps and copies nothing; a
    ``snapshot_grad_ratio`` then still has the gradient guard read on every
    step.

    The loop is the spectral-state form of ``strang_step`` described in the
    module docstring: it keeps u_hat from step to step, transforms the
    initial field once, and agrees with repeated ``strang_step`` to roundoff.
    The half-step factor e(k) for dt0 is built once; any other dt (adaptive
    or the last, clipped step) costs one n-point exponential. Step k writes
    into ``buffers[k % 2]``, one of two allocated up front: never the buffer
    of the field it steps from, and never the caller's initial field.

    An initial field equal sample for sample to its mirrors in x1 and in x2
    (u[i, j] = u[(n-i) mod n, j] = u[i, (n-j) mod n]) is stepped on its
    quarter (``spectral.Quarter``), any other field on the full grid; no
    setting chooses. On the quarter the steps, the boundaries and the
    records all stay there, and the run's states carry one n x n field,
    ``live``, into which the quarter is unfolded only where a full field is
    read: before the sink is handed it and, since the last state is always
    the last one kept, in the result. ``run`` drops its references to the
    caller's field once the sink has had it, and only then makes ``live``
    and the step buffers.
    """
    state = state0
    del state0
    grid = state.u.grid
    p = state.params
    if not cfg.t_end > state.t:
        raise UsageError("t_end must exceed the initial time")
    cfg = cfg.resolved(grid.dx, cfg.t_end - state.t)

    u = state.u.values
    if not np.all(np.isfinite(u)):
        raise DomainError("run: initial field contains non-finite values")
    space = grid.quarter if Quarter.holds(u) else grid
    if space is not grid:
        u = u[: space.shape[0], : space.shape[1]].copy()
    e_dt0 = _half_step_factor(space, cfg.dt0)
    terms = FieldTerms(u, space, space.fft(u, np.empty_like(u)))
    # The first L4 trapezoid starts from the sum of the step's own space.
    state = replace(state, l4_last=terms.l4)
    ladder = cfg.snapshot_grad_ratio
    if ladder is not None:
        if not terms.grad > 0.0:
            raise DomainError("run: snapshot ladder undefined for gradient-free fields")
        rung = terms.grad * ladder
    records = [_record(state, 0.0, terms)]
    if on_snapshot is None:
        on_snapshot = lambda t, u: None
    on_snapshot(state.t, state.u)
    live = None
    if space is not grid:
        state = replace(state, u=None)  # the caller's field goes before ``live`` is made
        live = Field(grid, space.unfold(u, np.empty(grid.shape, dtype=np.complex128)))
        state = replace(state, u=live)  # the initial field, bitwise
    buffers = (np.empty_like(u), np.empty_like(u))
    kept_t = state.t
    next_sample = state.t + cfg.sample_interval
    stop = None
    t_eps = 1e-12 * max(1.0, abs(cfg.t_end))

    while state.t < cfg.t_end - t_eps:
        # The rate max|L(|u|^2)| is formed only when its free bound cannot
        # prove that c_adapt / rate >= dt0; the margin covers the rounding.
        if cfg.adaptive and terms.potential_bound(p) * (1 + 1e-8) > cfg.c_adapt / cfg.dt0:
            rate = float(np.abs(terms.potential(p)).max())
            dt = min(cfg.dt0, cfg.c_adapt / rate) if rate > 0 else cfg.dt0
        else:
            dt = cfg.dt0
        dt = min(dt, cfg.t_end - state.t)
        e = e_dt0 if dt == cfg.dt0 else _half_step_factor(space, dt)

        # The step advances uhat in place; the spent terms are dropped
        # first so that their density is not held through the step.
        uhat, terms = terms.uhat, None
        stepped = _spectral_step(uhat, buffers[state.step_index % 2], dt, e, space, p)
        finite = np.all(np.isfinite(stepped))
        if finite:
            u = stepped
            terms = FieldTerms(u, space, uhat)
            state = state.advanced(Field(grid, u) if live is None else live, dt, terms.l4)
        end = state.t >= cfg.t_end - t_eps
        due = end or state.t >= next_sample - t_eps
        # Stop reason, record, then snapshot: the sink runs after the record's temporaries.
        if not finite:
            stop = "non_finite"  # state and u stay the last finite ones
            terms = FieldTerms(u, space)  # whose spectrum the step spent
        elif terms.sup > cfg.guard:
            stop = "sup_guard"
        elif (due or ladder is not None) and terms.grad > cfg.guard**2:
            stop = "grad_guard"
        if stop or due:
            records.append(_record(state, dt, terms))
            next_sample += cfg.sample_interval
        if stop or end:
            keep = state.t > kept_t
        elif ladder is None:
            keep = due
        else:
            keep = terms.grad >= rung
            while rung <= terms.grad:
                rung *= ladder
        if keep:
            if live is not None:
                space.unfold(u, live.values)
            on_snapshot(state.t, state.u)
            kept_t = state.t
        if stop:
            break

    estimate = None
    if stop:
        try:
            estimate = estimate_t_star(records)
        except NoBlowupError:
            estimate = None
    return RunResult(
        state=state,
        records=records,
        stop_reason=stop or "t_end",
        blowup=estimate,
    )


def estimate_t_star(records: list[ConservationRecord]) -> BlowupEstimate:
    """Extrapolate the blow-up time from terminal gradient growth.

    Precondition: at least 8 records with gradient_norm_sq grown by 10x over
    the first record. The fit runs over the last half decade of gradient
    growth (grad_sq within sqrt(10) of its maximum) using the linear model
    1/grad_sq ~ a(T* - t), the borderline rate compatible with the lower
    bound ||grad u(t)|| >= C/sqrt(T*-t); for faster-than-borderline blow-up
    1/grad_sq is convex, so a short terminal window keeps the extrapolated
    root close to the true critical time. A root that is not beyond the
    window is no estimate either: NoBlowupError, as for too little growth.
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
    t_star, fit_window = float(-alpha / beta), (float(t[0]), float(t[-1]))
    if not t_star > fit_window[1]:
        raise NoBlowupError(f"blow-up estimate {t_star} not beyond the fit window {fit_window}")
    resid = float(np.sqrt(np.mean((y - design @ [alpha, beta]) ** 2)) / np.mean(y))
    return BlowupEstimate(
        t_star_estimate=t_star,
        method="linear_inverse_gradient",
        fit_window=fit_window,
        fit_residual=resid,
    )


class VirialFit(NamedTuple):
    """Quadratic fit of the second moment: coeffs (c2, c1, c0) in t."""

    coeffs: tuple[float, float, float]
    leading_coeff_error: float


def virial_check(records: list[ConservationRecord], e0: float) -> VirialFit:
    """Fit second_moment(t) by a quadratic in t and report the coefficients.

    While the field stays contained the flow satisfies

        second_moment(t) = 8 E(u0) t^2 + c t + second_moment(0)

    (the free limit pins the lead: for amplitude -> 0 it is exactly
    4 ||grad u0||^2 = 8 E). ``leading_coeff_error`` is the relative deviation
    of the fitted lead ``coeffs[0]`` from 8*e0, the denominator floored at
    1e-12 so that e0 = 0 stays finite. Every record in the window must carry
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
    err = abs(lead - 8.0 * e0) / max(abs(8.0 * e0), 1e-12)
    return VirialFit(tuple(float(c) for c in coeffs), float(err))


def negative_energy_gaussian(grid: Grid2D, p: OperatorParams) -> Field:
    """Construct well-localized data with negative energy, or prove it impossible.

    Scans amplitude from 1 to 64 over Gaussians exp(-(x1^2 + (a x2)^2) / 2)
    for each aspect a in 1, 1/2, 1/4, 1/8. Radial data alone cannot reach E < 0 in the whole range
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
    for aspect in (1.0, 0.5, 0.25, 0.125):
        base = np.exp(-(x1**2 + (aspect * x2) ** 2) / 2)
        amp = 1.0
        while amp <= 64.0:
            u = Field(grid, amp * base)
            if energy(u, p) < 0:
                return u
            amp *= 1.25
    raise DomainError(
        "no negative-energy Gaussian found on this grid; enlarge the box or "
        "extend the aspect ladder"
    )
