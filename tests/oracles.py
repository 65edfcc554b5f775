"""Independent oracles used by the tests.

Everything here deliberately avoids the package's FFT paths: direct O(n^4)
transforms, quadrature by 1-D product rules, brute-force window scans, and
a radial ODE shooting solver for the cubic focusing ground state. Expected
values asserted in the tests are computed by these routines (or frozen from
them), never by the code under test.

Two exceptions reuse package code as a reference for a faster rewrite of
it. ``reference_run`` is the run driver as a plain loop of the reference
stepper ``strang_step`` and whole-field diagnostics, against which the
spectral-state loop of ``evolution.run`` is checked. ``reference_disk_trace``
is the disk concentration trace as three separate passes, one per schedule,
that rescale every kept snapshot anew; the one-pass
``concentration.disk_concentration_trace`` must reproduce it exactly.
"""

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
from dsbu.errors import BlowupOverflowError, DomainError, NoBlowupError
from dsbu.evolution import (
    ConservationRecord,
    RunResult,
    estimate_t_star,
    grid_defaults,
    strang_step,
)
from dsbu.spectral import (
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


def reference_record(state, dt_used):
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
        l4_accum=state.l4_accum,
        dt_used=dt_used,
    )


class SnapshotList(list):
    """A sink for ``evolution.run``: keeps each snapshot it is handed as (t, u.copy())."""

    def __call__(self, t, u):
        self.append((t, u.copy()))


def reference_run(state0, cfg):
    """``evolution.run`` as repeated ``strang_step`` calls, one record at a time.

    Same stop rules, sampling, snapshots and adaptive rate max|L(|u|^2)| as
    ``run``, with the field transformed to and from physical space in every
    step and every diagnostic recomputed from the physical field. The
    snapshots that ``run`` hands its sink come back in ``RunResult.snapshots``.
    """
    state = state0
    grid = state.u.grid
    dt0, guard, sample_dt = grid_defaults(grid.dx, cfg.t_end - state.t)
    dt0 = cfg.dt0 if cfg.dt0 is not None else dt0
    guard = cfg.guard if cfg.guard is not None else guard
    sample_dt = cfg.sample_interval if cfg.sample_interval is not None else sample_dt
    lin_half = np.exp(-1j * grid.ksq * (dt0 / 2))

    records = [reference_record(state, 0.0)]
    snapshots = [(state.t, state.u.copy())]
    ratio = cfg.snapshot_grad_ratio
    if ratio is not None:
        grad_ladder_next = records[0].gradient_norm_sq * ratio
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
            records.append(reference_record(state, dt))
            stop_reason = "non_finite"
            break

        sup = float(np.abs(state.u.values).max())
        if sup > guard:
            records.append(reference_record(state, dt))
            stop_reason = "sup_guard"
            break

        if ratio is not None:
            grad_now = gradient_norm_sq(state.u)
            if grad_now >= grad_ladder_next:
                snapshots.append((state.t, state.u.copy()))
                while grad_ladder_next <= grad_now:
                    grad_ladder_next *= ratio
            if grad_now > guard**2:
                records.append(reference_record(state, dt))
                stop_reason = "grad_guard"
                break

        if state.t >= next_sample - t_eps or state.t >= cfg.t_end - t_eps:
            rec = reference_record(state, dt)
            records.append(rec)
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
    return RunResult(state=state, records=records, stop_reason=stop_reason,
                     blowup=estimate, snapshots=snapshots)


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
