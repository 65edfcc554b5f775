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

``run`` merges the last half-step of one step with the first of the next
(the first-same-as-last property of a symmetric splitting): it carries
w_hat, the spectrum after the nonlinear substep, and a step of size dt
after one of size dt_prev is

    v = ifft2(E((dt_prev + dt)/2) w_hat),  w_hat = fft2(exp(i dt L(|v|^2)) v)

with E(tau) = exp(-i|xi|^2 tau) = e(k1) e(k2) applied as two broadcast
multiplies. The boundary field u = ifft2(E(dt/2) w_hat) is formed only where
it is read: at a record, a snapshot, a stop and the last step. On the full
grid a step is 2 complex transforms plus the real pair inside L, 3
complex-FFT-equivalents, plus 1 for each boundary formed and one pair per
run for the adaptive rate of the initial field. What the loop reads
between those points costs no transform: the sup guard reads sup|v|, the
adaptive rate is the step's own max|L(|v|^2)|, the L4 integral is the
midpoint sum of dt times the integral of |v|^4, and the gradient (for the
guard and the snapshot ladder) comes from |w_hat|^2, equal to |u_hat|^2
since E is unimodular.

A field even in x1 and in x2 about the grid origin stays even under the
flow (|xi|^2 and the symbol of B are even in each component of xi), so
``run`` steps such a field on its quarter, indices 0..n/2 of each axis,
through ``spectral.Quarter``: a complex transform takes two passes of n/2+1
lines instead of two of n, and the real pair two real ones, so a step
costs 3c FFT-equivalents, c = (n/2+1)/n, about 1.5, on a quarter of the
memory. Each boundary that is read is one ``spectral.FieldTerms`` of u and
w_hat, on the grid or on the quarter, which the record reads; ``run``
forms u, builds the record and hands the snapshot to its sink in the
calling process, while a forked stepper process takes the next steps.
``strang_step`` is the same scheme one step at a time on a physical state
of the full grid, with the L4 trapezoid; it is the reference oracle that
``run`` is tested against, on either path.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._fork import Worker, may_fork
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
    full_field,
    interaction_potential,
    l4_norm_4,
    on_its_space,
)


@dataclass
class SimulationState:
    """Field, clock, and the accumulated space-time L4 integral of a run; ``advanced`` steps it."""

    t: float
    u: Field
    params: OperatorParams
    l4_last: float  # integral of |u|^4 at time t (in ``run``'s states, of the last mid-step field)
    step_index: int
    l4_accum: float

    @classmethod
    def initial(cls, u: Field, params: OperatorParams):
        return cls(t=0.0, u=u, params=params, l4_last=l4_norm_4(u), step_index=0, l4_accum=0.0)

    def advanced(self, u: Field, dt: float, l4: float, l4_step: float) -> SimulationState:
        """The state dt later, with field u of |u|^4 integral l4, and ``l4_step`` added to
        the L4 integral: ``strang_step``'s trapezoid, or ``run``'s midpoint term."""
        return replace(self, t=self.t + dt, u=u, l4_last=l4, step_index=self.step_index + 1,
                       l4_accum=self.l4_accum + l4_step)


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
    l4 = l4_norm_4(u_new)
    return state.advanced(u_new, dt, l4, 0.5 * dt * (state.l4_last + l4))


@dataclass(frozen=True)
class EvolveConfig:
    """Controls for ``run``; None fields take their grid defaults through ``resolved``.

    With ``adaptive`` the step is min(dt0, c_adapt / max|L(|v|^2)|), with v
    the mid-step field of the step before, whose phase that step formed (the
    initial field for the first step). A snapshot is kept at every record,
    or, with ``snapshot_grad_ratio``, whenever gradient_norm_sq has grown by
    another factor of it -- the natural cadence for blow-up runs, where
    everything happens in the last few per cent of the lifespan. The initial
    field and the run's last state are kept as well. Values on which ``run``
    would hang raise UsageError at construction.
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


def _flowed(
    what: np.ndarray, e: np.ndarray, out: np.ndarray, space: Grid2D | Quarter
) -> np.ndarray:
    """ifft(e(k1) e(k2) what) written into ``out``: the field of spectrum ``what`` after
    the free flow exp(-i|xi|^2 tau), whose factor on an axis of ``space`` is e(k)."""
    np.multiply(what, e[:, None], out=out)
    out *= e
    return space.ifft_in_place(out)


def _spectral_step(
    what: np.ndarray, out: np.ndarray, v: np.ndarray, e: np.ndarray, dt: float,
    space: Grid2D | Quarter, p: OperatorParams,
) -> tuple[float, float, float]:
    """One Strang step from the spectrum ``what`` to ``out``, through the mid-step field in ``v``.

    ``what`` is the spectrum after the last nonlinear substep, and ``e`` the
    axis factor of the free flow over that step's second half and this
    step's first. The step forms v = ifft(e(k1) e(k2) what), multiplies it
    by exp(i dt L(|v|^2)), built in ``out``, and transforms it into ``out``;
    ``what`` is left as it was. All three arrays have the shape of
    ``space``. Returns sup|v|, the integral of |v|^4 and the rate
    max|L(|v|^2)|, which is not finite when v or L(|v|^2) is not.
    """
    _flowed(what, e, v, space)
    mid = FieldTerms(v, space)
    sup, l4 = mid.sup, mid.l4
    theta = interaction_potential(mid.rho, space, p)
    del mid
    rate = max(-theta.min(), theta.max())  # max|L(|v|^2)|; a NaN in theta gives NaN
    theta *= dt
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    v *= out
    space.fft(v, out)
    return sup, l4, float(rate)


def _steps(
    state: SimulationState, what: np.ndarray, rate: float, rung: float, cfg: EvolveConfig,
    space: Grid2D | Quarter, flow, at_boundary,
) -> str | None:
    """``run``'s time loop from ``state``, of spectrum ``what``, to its stop reason (None at t_end).

    ``rate`` is the first step's adaptive rate and ``rung`` the ladder's
    first. At each boundary after the initial one the loop calls
    ``at_boundary(state, dt_used, dt_prev, terms, record, keep)``, where
    ``terms.uhat`` is the spectrum, which owes the free flow of dt_prev / 2,
    and the loop overwrites it two steps later.
    """
    p = state.params
    spare, v = np.empty_like(what), np.empty_like(what)
    ladder = cfg.snapshot_grad_ratio
    dt_prev = 0.0  # the free flow that ``what`` has yet to take: E(dt_prev/2)
    kept_t = state.t
    next_sample = state.t + cfg.sample_interval
    stop = None
    t_eps = 1e-12 * max(1.0, abs(cfg.t_end))
    while state.t < cfg.t_end - t_eps:
        dt = min(cfg.dt0, cfg.c_adapt / rate) if cfg.adaptive and rate > 0 else cfg.dt0
        dt = min(dt, cfg.t_end - state.t)
        sup, l4, rate = _spectral_step(what, spare, v, flow((dt_prev + dt) / 2), dt, space, p)
        finite = math.isfinite(rate)
        if finite:
            what, spare, dt_prev = spare, what, dt
            state = state.advanced(None, dt, l4, dt * l4)
        end = state.t >= cfg.t_end - t_eps
        due = end or state.t >= next_sample - t_eps
        # The boundary's terms; the gradient reads |what|^2, the rest the
        # field, which the boundary forms where something reads it.
        terms = FieldTerms(None, space, what)
        if not finite:
            stop = "non_finite"  # state and what stay the last finite ones
        elif sup > cfg.guard:
            stop = "sup_guard"
        elif (due or ladder is not None) and terms.grad > cfg.guard**2:
            stop = "grad_guard"
        if stop or end:
            keep = state.t > kept_t
        elif ladder is None:
            keep = due
        else:
            keep = terms.grad >= rung
            while rung <= terms.grad:
                rung *= ladder
        if stop or due or keep:
            at_boundary(state, dt, dt_prev, terms, bool(stop or due), keep)
        if stop or due:
            next_sample += cfg.sample_interval
        if keep:
            kept_t = state.t
        if stop:
            break
    return stop


def _stepper(steps, hat: np.ndarray, send, wait) -> tuple:
    """The work of ``run``'s stepper process: ``steps(at_boundary)``, to (stop, error).

    At each boundary it waits for a release, copies the spectrum into the
    shared ``hat`` and sends (state, dt used, dt_prev, record, keep); it
    waits once more after ``steps`` returns, so that the caller's release of
    the last boundary finds this end open. The caller releases once before
    the first boundary and once after working each.
    """

    def at_boundary(state, dt_used, dt_prev, terms, record, keep) -> None:
        wait()
        np.copyto(hat, terms.uhat)
        send((state, dt_used, dt_prev, record, keep))

    try:
        outcome = steps(at_boundary), None
    except Exception as exc:
        outcome = None, exc
    wait()
    return outcome


def run(state0: SimulationState, cfg: EvolveConfig, on_snapshot=None) -> RunResult:
    """Step from state0 until t_end or until a stop criterion fires.

    Stop criteria, in the order each step tests them: non-finite values,
    which record the last finite state; sup|v| of the step's mid-step field
    above the resolution guard; gradient_norm_sq above guard^2, read where
    the step knows the gradient anyway: at a record, and on every step of
    the snapshot ladder. A non-finite initial field raises DomainError, and
    so does a gradient-free one on the ladder, whose rungs would all be 0.
    After the stop reason the step has one record site and one snapshot
    site. Guard terminations are normal blow-up outcomes and come back with
    a BlowupEstimate when the records support one.

    Each kept snapshot -- the initial field, each record step (or rung of
    the ladder) and the stop or final step -- is handed, in time order, to
    ``on_snapshot(t, values, space)`` on the calling thread: the field's
    samples on the space the run steps on, the grid or the ``Quarter`` of
    an even field, in a buffer that later boundaries overwrite (a sink that
    keeps them copies them). (values, space) is the form that
    ``snapshot_io.write_snapshot`` takes, and (t, values, space) an item of
    the concentration traces. With no sink ``run`` keeps and copies nothing;
    a ``snapshot_grad_ratio`` then still has the gradient guard read on
    every step.

    The loop (``_steps``) is the merged form of ``strang_step`` described
    in the module docstring: it carries the spectrum after the nonlinear
    substep from step to step, in one of two spectrum buffers, and each
    step and boundary builds its free-flow factor, one n-point exponential.
    A non-finite step leaves the spectrum it started from as it was, so
    the last finite state is formed from it. The loop agrees with repeated
    ``strang_step`` to roundoff, except ``l4_accum``, the midpoint sum of
    the mid-step integrals of |v|^4, where ``strang_step`` accumulates the
    trapezoid.

    Each boundary -- a record, a snapshot, a stop or the last step -- is
    worked in the calling process: it forms the field
    u = ifft(E(dt/2) w_hat), builds the record and calls the sink. Where
    ``_fork.may_fork`` allows it, the loop runs in a forked stepper process
    (a ``_fork.Worker``) while this one works the boundaries; each process
    runs one thread. The two share one boundary spectrum (an anonymous
    shared mapping), which the stepper fills only once this process has
    released it (see ``_stepper``), and then sends the boundary's state; at
    the end it sends its stop reason, or its error, which ``run`` raises
    after the boundaries before it; a stepper that dies instead is a
    ``RuntimeError`` naming its exit code. After a sink error the stepper is
    killed and no later snapshot is taken; the stepper is reaped on every
    path. So hooks in this process (a profiler, a test's counter) see the
    boundaries but not the steps, and a monkeypatch made before ``run``
    holds in both processes. Elsewhere the loop and the boundaries take
    turns in the calling thread, with the same bits.

    An initial field equal sample for sample to its mirrors in x1 and in x2
    (u[i, j] = u[(n-i) mod n, j] = u[i, (n-j) mod n]) is stepped on its
    quarter (``spectral.Quarter``), any other field on the full grid, as
    ``spectral.on_its_space`` decides; no setting chooses. On the quarter
    the steps, the boundaries, the records and the snapshots all stay there;
    ``run`` lets go of the caller's field once it has the quarter's copy.
    The states of the loop carry no field; the last one is unfolded once,
    into the result's state.
    """
    state = state0
    del state0
    grid = state.u.grid
    p = state.params
    if not cfg.t_end > state.t:
        raise UsageError("t_end must exceed the initial time")
    cfg = cfg.resolved(grid.dx, cfg.t_end - state.t)

    if not np.all(np.isfinite(state.u.values)):
        raise DomainError("run: initial field contains non-finite values")
    u, space = on_its_space(state.u)
    if space is not grid:
        u = u.copy()
    state = replace(state, u=None)
    # The loop's spectrum; the boundaries' field (on the quarter, the initial field's copy).
    what = space.fft(u, np.empty_like(u))
    boundary = u if space is not grid else np.empty_like(u)
    terms = FieldTerms(u, space, what)
    # The first step's rate is the initial field's; each later one the last mid-step field's.
    rate = float(np.abs(terms.potential(p)).max()) if cfg.adaptive else 0.0
    rung = 0.0
    if cfg.snapshot_grad_ratio is not None:
        if not terms.grad > 0.0:
            raise DomainError("run: snapshot ladder undefined for gradient-free fields")
        rung = terms.grad * cfg.snapshot_grad_ratio
    k_sq = space.k**2

    def flow(tau: float) -> np.ndarray:
        """The axis factor e(k) = exp(-i k^2 tau) of the free flow over tau."""
        return np.exp(-1j * k_sq * tau)

    records, last = [], u  # the last field formed is the run's last state

    def work(now, dt_used, dt_prev, terms, record, keep) -> None:
        """The boundary of state ``now``, in this process: where ``terms`` hold no field it
        forms u = ifft(E(dt_prev/2) terms.uhat) into ``boundary``; it appends the record if
        ``record`` is set, then hands u on its space to the sink if ``keep`` is. ``now`` is
        the run's state and u its last field from here on."""
        nonlocal state, last
        state = now
        if terms.values is None:
            terms.values = _flowed(terms.uhat, flow(dt_prev / 2), boundary, space)
        if record:
            records.append(_record(state, dt_used, terms))
        if keep and on_snapshot is not None:
            on_snapshot(state.t, terms.values, space)
        last = terms.values

    steps = partial(_steps, state, what, rate, rung, cfg, space, flow)
    if not may_fork():
        work(state, 0.0, 0.0, terms, True, True)
        del terms, u
        stop = steps(work)
    else:
        hat = np.frombuffer(mmap.mmap(-1, what.nbytes), dtype=what.dtype).reshape(what.shape)
        with Worker(partial(_stepper, steps, hat), "the run's stepper") as worker:
            worker.release()  # the slot is free for the first boundary
            work(state, 0.0, 0.0, terms, True, True)
            del terms, u
            for now, dt_used, dt_prev, record, keep in worker.messages():
                work(now, dt_used, dt_prev, FieldTerms(None, space, hat), record, keep)
                worker.release()
            stop, error = worker.outcome()
        if error is not None:
            raise error
    state = replace(state, u=full_field(last, space))

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
