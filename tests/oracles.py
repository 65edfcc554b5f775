"""Independent oracles used by the tests.

Everything here deliberately avoids the package's FFT paths: direct O(n^4)
transforms, quadrature by 1-D product rules, brute-force window scans, and
a radial ODE shooting solver for the cubic focusing ground state. Expected
values asserted in the tests are computed by these routines (or frozen from
them), never by the code under test.

Three exceptions reuse package code as a reference for a faster rewrite of
it. ``reference_run`` is the run driver as a plain loop of the reference
stepper ``strang_step`` and whole-field diagnostics, against which the
merged-step loop of ``evolution.run`` is checked. ``reference_disk_trace``
is the disk concentration trace as three separate passes, one per schedule,
that rescale every kept snapshot anew; the one-pass
``concentration.disk_concentration_trace`` must reproduce it exactly.
``reference_ground_state`` is the spectral renormalization loop on the full
n x n grid with complex transforms, against which the quarter loop of
``ground_state.solve_ground_state`` is checked.

Two tools of the physics tests live here as well, since only tests use
them: ``virial_check``, the quadratic fit of a run's second moment against
its virial lead 8 E0, and ``negative_energy_gaussian``, a builder of
negative-energy data.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from dsbu.concentration import (
    DISK,
    ConcentrationRecord,
    DiskTraceSummary,
    LambdaSchedule,
    WindowSpec,
    rescaled_snapshot,
    windowed_mass_sup,
)
from dsbu.errors import BlowupOverflowError, DomainError, NoBlowupError, NonConvergenceError
from dsbu.evolution import (
    ConservationRecord,
    RunResult,
    estimate_t_star,
    strang_step,
)
from dsbu.ground_state import GroundStateConfig, GroundStateResult
from dsbu.spectral import (
    Field,
    FieldTerms,
    Grid2D,
    OperatorParams,
    Quarter,
    energy,
    gradient_norm_sq,
    interaction_potential,
    mass,
    quartic_term,
    second_moment,
)


def direct_b_multiplier(values: np.ndarray, box_length: float) -> np.ndarray:
    """Apply the xi1^2/|xi|^2 multiplier via explicit DFT matrices.

    O(n^4) work: forward transform, multiplier loop, inverse transform, all
    built from first principles (no FFT). The zero mode carries the origin
    cell average of the symbol, 1/2.
    """
    n = values.shape[0]
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    idft = np.exp(2j * np.pi * np.outer(j, j) / n) / n
    fhat = dft @ values @ dft.T
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers in fft order
    for a in range(n):
        for b in range(n):
            k1 = k[a]
            k2 = k[b]
            if k1 == 0 and k2 == 0:
                m = 0.5
            else:
                m = k1**2 / (k1**2 + k2**2)
            fhat[a, b] *= m
    return idft @ fhat @ idft.T


def direct_quartic(values: np.ndarray, box_length: float, nu: int, gamma: float) -> float:
    """Quadratic-form evaluation of the interaction term by direct DFT."""
    n = values.shape[0]
    dx = box_length / n
    w = np.abs(values) ** 2
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    what = dft @ w @ dft.T
    k = np.fft.fftfreq(n, d=1.0 / n)
    total = 0.0
    for a in range(n):
        for b in range(n):
            k1, k2 = k[a], k[b]
            m = 0.5 if (k1 == 0 and k2 == 0) else k1**2 / (k1**2 + k2**2)
            total += m * abs(what[a, b]) ** 2
    return float(nu * dx**2 * np.sum(w * w) + gamma * dx**2 * total / n**2)


def brute_force_windowed_mass(values, box_length, shape, size):
    """Scan every center and every cell; returns (best_mass, best_index)."""
    n = values.shape[0]
    dx = box_length / n
    x = -box_length / 2 + dx * np.arange(n)
    dens = np.abs(values) ** 2
    best = -np.inf
    best_idx = (0, 0)
    for i in range(n):
        for j in range(n):
            d1 = (x[:, None] - x[i] + box_length / 2) % box_length - box_length / 2
            d2 = (x[None, :] - x[j] + box_length / 2) % box_length - box_length / 2
            if shape == "disk":
                inside = d1**2 + d2**2 <= size**2
            else:
                inside = (np.abs(d1) <= size / 2) & (np.abs(d2) <= size / 2)
            tot = dx**2 * float(dens[inside].sum())
            if tot > best + 1e-15:
                best = tot
                best_idx = (i, j)
    return best, best_idx


def gauss_quad_radial(f, r_max: float = 40.0, n: int = 200_000) -> float:
    """2 pi * integral of f(r) r dr by the trapezoid rule on [0, r_max]."""
    r = np.linspace(0.0, r_max, n)
    return float(2 * np.pi * np.trapezoid(f(r) * r, r))


def townes_mass(shoot_tol: float = 1e-12, r_max: float = 18.0) -> float:
    """Mass of the cubic focusing ground state by radial ODE shooting.

    Solves Q'' + Q'/r - Q + Q^3 = 0, Q'(0) = 0, bisecting on Q(0) between
    decay-to-zero and the two failure modes (sign crossing vs re-growth),
    and integrates 2 pi r Q^2 alongside.
    """

    def rhs(r, y):
        q, dq, _ = y
        ddq = q - q**3 - (dq / r if r > 0 else 0.0)
        return [dq, ddq, 2 * np.pi * r * q * q]

    def classify(a: float) -> str:
        eps = 1e-6
        q0 = a + (a - a**3) * eps**2 / 4
        dq0 = (a - a**3) * eps / 2
        crossed = lambda r, y: y[0]
        crossed.terminal = True
        grew = lambda r, y: y[0] - 1.5 * a
        grew.terminal = True
        sol = solve_ivp(rhs, (eps, r_max), [q0, dq0, 0.0], rtol=1e-11, atol=1e-12,
                        events=[crossed, grew], dense_output=False)
        if sol.t_events[0].size:
            return "crossed"
        if sol.t_events[1].size:
            return "grew"
        return "decayed"

    lo, hi = 2.0, 2.5
    assert classify(lo) != classify(hi), "bracket does not straddle the ground state"
    low_kind = classify(lo)
    while hi - lo > shoot_tol:
        mid = 0.5 * (lo + hi)
        if classify(mid) == low_kind:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)

    eps = 1e-6
    q0 = a + (a - a**3) * eps**2 / 4
    dq0 = (a - a**3) * eps / 2
    small = lambda r, y: abs(y[0]) - 1e-9
    small.terminal = True
    sol = solve_ivp(rhs, (eps, r_max), [q0, dq0, 0.0], rtol=1e-11, atol=1e-13,
                    events=[small])
    return float(sol.y[2, -1]), float(a)


def reference_record(state, dt_used, l4_accum):
    """Diagnostics of a state from the public whole-field functionals."""
    sm = second_moment(state.u)
    return ConservationRecord(
        t=state.t,
        mass=mass(state.u),
        energy=energy(state.u, state.params),
        gradient_norm_sq=gradient_norm_sq(state.u),
        second_moment=sm.value,
        moment_valid=sm.boundary_ok,
        sup_abs_u=float(np.abs(state.u.values).max()),
        l4_accum=l4_accum,
        dt_used=dt_used,
    )


def full_field(values, space):
    """A new n x n ``Field`` of the samples ``values`` on ``space``: a copy on a
    ``Grid2D``, the unfolded field on a ``Quarter``."""
    if isinstance(space, Quarter):
        return Field(space.grid, space.unfold(values, np.empty(space.grid.shape, complex)))
    return Field(space, values.copy())


class SnapshotList(list):
    """A sink for ``evolution.run``: keeps each snapshot it is handed, samples on the
    run's space, as (t, u) with u its own n x n ``Field`` (``full_field``)."""

    def __call__(self, t, values, space):
        self.append((t, full_field(values, space)))


@dataclass
class ReferenceRun(RunResult):
    """``reference_run``'s result: its records carry the midpoint L4 sum, as ``run``'s do,
    and ``l4_trapezoid`` holds ``strang_step``'s trapezoid at each record."""

    l4_trapezoid: list = field(default_factory=list)


def reference_run(state0, cfg):
    """``evolution.run`` as repeated ``strang_step`` calls, one record at a time.

    Same stop rules, sampling and snapshots as ``run``, with the field
    transformed to and from physical space in every step and every
    diagnostic recomputed from the physical field. Before each step the
    oracle forms its own mid-step field v = ifft2(E(dt/2) fft2(u)) on the
    full grid: the sup guard reads sup|v| after the step, the next step's
    adaptive rate is max|L(|v|^2)| (the initial field's for the first step),
    and the records' ``l4_accum`` is the midpoint sum of dt times the
    integral of |v|^4. The snapshots that ``run`` hands its sink come back
    in ``RunResult.snapshots``.
    """
    state = state0
    grid = state.u.grid
    p = state.params
    cfg = cfg.resolved(grid.dx, cfg.t_end - state.t)
    dt0, guard, sample_dt = cfg.dt0, cfg.guard, cfg.sample_interval
    lin_half = np.exp(-1j * grid.ksq * (dt0 / 2))

    def max_potential(values):
        return float(np.abs(interaction_potential(np.abs(values) ** 2, grid, p)).max())

    midpoint = 0.0
    records = [reference_record(state, 0.0, midpoint)]
    trapezoid = [state.l4_accum]
    snapshots = [(state.t, state.u.copy())]
    ratio = cfg.snapshot_grad_ratio
    if ratio is not None:
        grad_ladder_next = records[0].gradient_norm_sq * ratio
    rate = max_potential(state.u.values)
    next_sample = state.t + sample_dt
    stop_reason = "t_end"
    t_eps = 1e-12 * max(1.0, abs(cfg.t_end))

    def record(state, dt):
        records.append(reference_record(state, dt, midpoint))
        trapezoid.append(state.l4_accum)
        return records[-1]

    while state.t < cfg.t_end - t_eps:
        dt = min(dt0, cfg.c_adapt / rate) if cfg.adaptive and rate > 0 else dt0
        dt = min(dt, cfg.t_end - state.t)
        reuse = lin_half if dt == dt0 else None
        half = reuse if reuse is not None else np.exp(-1j * grid.ksq * (dt / 2))
        mid = np.fft.ifft2(half * np.fft.fft2(state.u.values))

        try:
            state = strang_step(state, dt, _lin_half=reuse)
        except BlowupOverflowError as exc:
            state = exc.last_state
            record(state, dt)
            stop_reason = "non_finite"
            break
        rate = max_potential(mid)
        midpoint += dt * grid.dx**2 * float(np.sum(np.abs(mid) ** 4))

        if float(np.abs(mid).max()) > guard:
            record(state, dt)
            stop_reason = "sup_guard"
            break

        if ratio is not None:
            grad_now = gradient_norm_sq(state.u)
            if grad_now >= grad_ladder_next:
                snapshots.append((state.t, state.u.copy()))
                while grad_ladder_next <= grad_now:
                    grad_ladder_next *= ratio
            if grad_now > guard**2:
                record(state, dt)
                stop_reason = "grad_guard"
                break

        if state.t >= next_sample - t_eps or state.t >= cfg.t_end - t_eps:
            rec = record(state, dt)
            if ratio is None:
                snapshots.append((state.t, state.u.copy()))
            next_sample += sample_dt
            if rec.gradient_norm_sq > guard**2:
                stop_reason = "grad_guard"
                break

    if state.t > snapshots[-1][0]:
        snapshots.append((state.t, state.u.copy()))

    estimate = None
    if stop_reason != "t_end":
        try:
            estimate = estimate_t_star(records)
        except NoBlowupError:
            estimate = None
    return ReferenceRun(state=state, records=records, stop_reason=stop_reason,
                        blowup=estimate, snapshots=snapshots, l4_trapezoid=trapezoid)


def full_spectrum_quartic(u, p):
    """Interaction functional with the full fft2 spectrum of |u|^2."""
    g = u.grid
    w = np.abs(u.values) ** 2
    what = np.fft.fft2(w)
    b_part = np.sum(g.b_symbol * np.abs(what) ** 2) / g.n**2
    return float(g.dx**2 * (p.nu * np.sum(w * w) + p.gamma * b_part))


def meshgrid_second_moment(u):
    """Integral of |x|^2 |u|^2 with the n x n coordinate meshgrid."""
    g = u.grid
    x1, x2 = g.coords()
    return float(g.dx**2 * np.sum((x1**2 + x2**2) * np.abs(u.values) ** 2))


def _reference_disk_records(snapshots, schedule, params):
    records = []
    skipped = []
    for t, u in snapshots:
        lam = schedule(t)
        if lam <= u.grid.dx:
            skipped.append(t)
            continue
        wm = windowed_mass_sup(u, WindowSpec(DISK, lam))
        v, rho = rescaled_snapshot(u)
        records.append(
            ConcentrationRecord(
                t=t,
                window=WindowSpec(DISK, lam),
                best_mass=wm.best_mass,
                best_center=wm.best_center,
                clamped=wm.clamped,
                rho=rho,
                rescaled_quartic=quartic_term(v, params),
                rescaled_energy=energy(v, params),
            )
        )
    return records, skipped


def _reference_terminal_segment(records):
    rho_min = min(r.rho for r in records)
    return [r for r in records if r.rho <= 10.0 * rho_min]


def reference_disk_trace(snapshots, schedule, c_opt, params):
    """``disk_concentration_trace`` as one full pass per schedule.

    The main schedule is traced first; the sensitivity entries rerun the
    whole trace with t_star shifted by -2% and +2% of the trace span.
    """
    if not snapshots:
        raise DomainError("no snapshots to trace")
    snapshots = sorted(snapshots, key=lambda pair: pair[0])
    records, skipped = _reference_disk_records(snapshots, schedule, params)
    if not records:
        raise DomainError("every snapshot was skipped by the schedule")
    threshold = 2.0 / c_opt
    terminal = _reference_terminal_segment(records)
    products = [r.window.size / r.rho for r in records]
    energies = [abs(r.rescaled_energy) for r in terminal]
    floor = 1e-3 * max(abs(r.rescaled_energy) for r in records)
    trend_ok = all(
        later <= earlier * 1.05 + floor
        for earlier, later in zip(energies, energies[1:])
    )
    quartic_dev = max(abs(r.rescaled_quartic - 2.0) / 2.0 for r in terminal)

    sensitivity = {}
    span = schedule.t_star - min(t for t, _ in snapshots)
    for tag, shift in (("minus_2pct", -0.02 * span), ("plus_2pct", 0.02 * span)):
        shifted = LambdaSchedule(schedule.kind, schedule.epsilon, schedule.t_star + shift)
        recs, _ = _reference_disk_records(snapshots, shifted, params)
        if recs:
            term = _reference_terminal_segment(recs)
            sensitivity[tag] = {
                "min_ratio": min(r.best_mass for r in term) / threshold,
                "final_ratio": term[-1].best_mass / threshold,
            }
        else:
            sensitivity[tag] = None

    summary = DiskTraceSummary(
        threshold_mass=threshold,
        terminal_min_mass=min(r.best_mass for r in terminal),
        terminal_final_mass=terminal[-1].best_mass,
        min_ratio=min(r.best_mass for r in terminal) / threshold,
        final_ratio=terminal[-1].best_mass / threshold,
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


def reference_ground_state(grid, p, cfg=None):
    """``ground_state.solve_ground_state`` on the full n x n grid.

    The spectral renormalization loop with complex ``fft2``/``ifft2`` of the
    whole iterate, plain sums for the quotient and ``np.linalg.norm`` for the
    Parseval residual, starting from the Gaussian on ``grid.coords()``.
    """
    cfg = cfg or GroundStateConfig()
    if p.nu != 1:
        raise DomainError("ground state requires the focusing sign nu = +1")

    x1, x2 = grid.coords()
    r = cfg.init_amplitude * np.exp(-(x1**2 + x2**2) / 2)
    denom = 1.0 + grid.ksq
    history: list[float] = []

    for iteration in range(cfg.max_iter + 1):
        rhat = np.fft.fft2(r)
        nhat = np.fft.fft2(interaction_potential(r * r, grid, p) * r)
        if iteration > 0:
            history.append(grid.dx / grid.n * float(np.linalg.norm(nhat - denom * rhat)))
            if history[-1] < cfg.tol:
                break
        if iteration == cfg.max_iter:
            raise NonConvergenceError(
                f"no convergence after {cfg.max_iter} iterations "
                f"(last residual {history[-1]:.3e})",
                history,
            )
        s_num = float(np.sum(denom * np.abs(rhat) ** 2))
        s_den = float(np.real(np.sum(nhat * np.conj(rhat))))
        if s_den <= 0.0:
            raise NonConvergenceError(
                "spectral renormalization degenerated (nonpositive quotient)", history
            )
        s = s_num / s_den
        r = np.fft.ifft2(s**1.5 * nhat / denom).real

    # Sign-normalize and recenter the peak at the origin (both are exact
    # symmetries of the lattice equation, so the residual is unchanged).
    peak = np.unravel_index(np.argmax(np.abs(r)), r.shape)
    if r[peak] < 0:
        r = -r
    center = grid.n // 2
    r = np.roll(r, (center - peak[0], center - peak[1]), axis=(0, 1))

    profile = Field(grid, r)
    terms = FieldTerms.of(profile)
    grad, m = terms.grad, terms.mass  # the gradient's transform is freed before rho is made
    return GroundStateResult(
        profile=profile,
        mass=m,
        c_opt=2.0 / m,
        residual=history[-1],
        iterations=iteration,
        sharpness_ratio=terms.quartic(p) / (grad * m),
        residual_history=history,
        safeguarded_steps=0,
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
