"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 4 is
expected to fail: its pinned 1e-5 standing-wave tolerance asks for more
than a second-order splitting gives. The Strang error is C*dt^2 with a
measured C ~ 13.9, so the error at dt = 2^-10 is 1.33e-5; meeting 1e-5
there would need C <= 10.5, and the other Strang ordering gives C ~ 13.7.
It is asserted as stated anyway; the printed line carries the measured
numbers.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from dsbu import (
    Field,
    Grid2D,
    OperatorParams,
    apply_b,
    apply_l,
    energy,
    gradient_norm_sq,
    l4_norm_4,
    mass,
    second_moment,
)
from dsbu.cli import main
from dsbu.concentration import (
    CONIC,
    PARABOLIC_MINUS_EPS,
    SQUARE,
    LambdaSchedule,
    WindowSpec,
    disk_concentration_trace,
    square_concentration_trace,
    windowed_mass_sup,
)
from dsbu.errors import DomainError, SnapshotFormatError
from dsbu.evolution import (
    ConservationRecord,
    EvolveConfig,
    SimulationState,
    estimate_t_star,
    run,
    strang_step,
)
from dsbu.exact import eval_pc_blowup, pde_residual
from dsbu.ground_state import solve_ground_state
from dsbu.snapshot_io import read_snapshot, write_snapshot

from oracles import (
    SnapshotList,
    brute_force_windowed_mass,
    direct_b_multiplier,
    negative_energy_gaussian,
    townes_mass,
    virial_check,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def run_cli_config(name: str, out_dir, extra_env=None) -> Path:
    env_before = os.environ.get("DSBU_OUTPUT_DIR")
    os.environ["DSBU_OUTPUT_DIR"] = str(out_dir)
    try:
        code = main(["evolve", str(CONFIGS / name)])
    finally:
        if env_before is None:
            os.environ.pop("DSBU_OUTPUT_DIR", None)
        else:
            os.environ["DSBU_OUTPUT_DIR"] = env_before
    assert code == 0, f"CLI run of {name} failed"
    return Path(out_dir)


def read_records(dirpath: Path):
    from dsbu.cli import _read_records_csv

    return _read_records_csv(str(dirpath / "records.csv"))


@pytest.fixture(scope="module")
def conservation_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("conservation")
    return run_cli_config("conservation.cfg", out)


@pytest.fixture(scope="module")
def big_blowup_run():
    """Criterion 7c/8 dynamics: negative-energy collapse, ladder snapshots.

    The data are a fast dyadic rescaling of a near-critical Gaussian
    (2.2 e^{-|x|^2/(2*0.9^2)} sped up 16x): the window schedule
    (T*-t)^0.4 is not scale invariant, so the same collapse resolved at
    the same relative depth captures more mass when it runs fast; see the
    repository notes.
    """
    grid = Grid2D(512, 2.5)
    p = OperatorParams(1, 1.0)
    x1, x2 = grid.coords()
    u0 = Field(grid, 8.8 * np.exp(-(x1**2 + x2**2) / (2 * 0.225**2)))
    assert energy(u0, p) < 0
    snapshots = SnapshotList()
    result = run(
        SimulationState.initial(u0, p),
        EvolveConfig(
            t_end=1.0,
            adaptive=True,
            sample_interval=6.25e-5,
            snapshot_grad_ratio=2**0.25,
        ),
        snapshots,
    )
    return u0, p, result, snapshots


@pytest.fixture(scope="module")
def identity_grade_gs():
    """gamma = 1 profile on the grid where the optimizer identities resolve."""
    return solve_ground_state(Grid2D(512, 56.0), OperatorParams(1, 1.0))


def test_criterion_01_operator_oracle():
    grid = Grid2D(16, 5.0)
    rng = np.random.default_rng(101)
    worst_dev = 0.0
    for _ in range(5):
        vals = rng.standard_normal((16, 16))
        got = apply_b(Field(grid, vals + 0j)).values
        want = direct_b_multiplier(vals.astype(complex), grid.box_length)
        worst_dev = max(worst_dev, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    bound_ok = True
    worst_ratio = 0.0
    g2 = Grid2D(64, 10.0)
    for gamma in (0.5, 1.0, 3.0):
        p = OperatorParams(1, gamma)
        for _ in range(34):
            f = Field(g2, rng.standard_normal((64, 64)) + 0j)
            ratio = float(
                np.linalg.norm(apply_l(f, p).values)
                / ((1 + gamma) * np.linalg.norm(f.values))
            )
            worst_ratio = max(worst_ratio, ratio)
            bound_ok &= ratio <= 1 + 1e-12
    ok = worst_dev <= 1e-10 and bound_ok
    report(1, ok, f"brute-force dev {worst_dev:.2e} (<=1e-10); "
                  f"max ||Lf||/((1+g)||f||) = {worst_ratio:.12f} over 102 fields")
    assert worst_dev <= 1e-10
    assert bound_ok


def test_criterion_02_conservation(conservation_run, tmp_path):
    records = read_records(conservation_run)
    assert len(records) >= 40
    m0, e0 = records[0].mass, records[0].energy
    mass_drift = max(abs(r.mass - m0) / m0 for r in records)
    energy_drift = max(abs(r.energy - e0) / abs(e0) for r in records)
    half_dir = run_cli_config("conservation_half_dt.cfg", tmp_path / "half")
    records_half = read_records(half_dir)
    eh = records_half[0].energy
    energy_drift_half = max(abs(r.energy - eh) / abs(eh) for r in records_half)
    ratio = energy_drift / energy_drift_half
    ok = mass_drift <= 1e-10 and energy_drift <= 1e-6 and 3.5 <= ratio <= 4.5
    report(2, ok, f"mass drift {mass_drift:.2e} (<=1e-10), energy drift "
                  f"{energy_drift:.2e} (<=1e-6), halving ratio {ratio:.2f} in [3.5,4.5]")
    assert mass_drift <= 1e-10
    assert energy_drift <= 1e-6
    assert 3.5 <= ratio <= 4.5


def test_criterion_03_ground_state_and_sharp_constant(identity_grade_gs):
    gs = identity_grade_gs
    p = OperatorParams(1, 1.0)
    sharp_dev = abs(gs.sharpness_ratio - gs.c_opt) / gs.c_opt
    e_over_grad = abs(energy(gs.profile, p)) / gradient_norm_sq(gs.profile)
    oracle_mass, _ = townes_mass(shoot_tol=1e-10)
    townes = solve_ground_state(Grid2D(256, 20.0), OperatorParams(1, 1e-12))
    townes_dev = abs(mass(townes.profile) - oracle_mass) / oracle_mass
    ok = (
        gs.residual <= 1e-10
        and sharp_dev <= 1e-6
        and e_over_grad <= 1e-6
        and townes_dev <= 5e-3
    )
    report(3, ok, f"residual {gs.residual:.2e} (<=1e-10), sharpness dev {sharp_dev:.2e} "
                  f"(<=1e-6), |E(R)|/grad {e_over_grad:.2e} (<=1e-6), "
                  f"critical-mass dev {townes_dev:.2e} (<=5e-3, oracle {oracle_mass:.6f})")
    assert gs.residual <= 1e-10
    assert sharp_dev <= 1e-6
    assert e_over_grad <= 1e-6
    assert townes_dev <= 5e-3


def test_criterion_04_standing_wave_propagation(ground_state_256, params_focusing):
    r = ground_state_256.profile
    errors = {}
    for steps in (512, 1024):
        dt = 1.0 / steps
        state = SimulationState.initial(r, params_focusing)
        lin = np.exp(-1j * r.grid.ksq * (dt / 2))
        for _ in range(steps):
            state = strang_step(state, dt, _lin_half=lin)
        target = r.values * np.exp(1j)
        errors[steps] = float(
            np.linalg.norm(state.u.values - target) / np.linalg.norm(r.values)
        )
    ratio = errors[512] / errors[1024]
    ok = errors[1024] <= 1e-5 and 3.5 <= ratio <= 4.5
    report(4, ok, f"error at dt=2^-10: {errors[1024]:.3e} (<=1e-5 pinned; measured floor "
                  f"C*dt^2, C~13.9), halving ratio {ratio:.2f} in [3.5,4.5]")
    assert 3.5 <= ratio <= 4.5
    assert errors[1024] <= 1e-5  # defective pinned tolerance; see module docstring


def test_criterion_05_virial_identity():
    grid = Grid2D(256, 20.0)
    p = OperatorParams(1, 1.0)
    x1, x2 = grid.coords()
    u0 = Field(grid, 2.0 * np.exp(-(x1**2 + x2**2) / 2))
    e0 = energy(u0, p)
    result = run(
        SimulationState.initial(u0, p),
        EvolveConfig(t_end=0.2, dt0=5e-4, sample_interval=0.01),
    )
    fit = virial_check(result.records, e0)
    lead = fit.coeffs[0]
    true_dev = abs(lead - 8 * e0) / abs(8 * e0)
    ok = fit.leading_coeff_error <= 0.01
    report(5, ok, f"lead {lead:.4f} vs 8E0 {8 * e0:.4f}: reported deviation "
                  f"{fit.leading_coeff_error:.2e} (<=0.01), recomputed {true_dev:.2e}")
    assert true_dev <= 0.01  # the dynamics satisfy V(t) = 8 E0 t^2 + c t + V(0)
    assert fit.leading_coeff_error <= 0.01  # virial_check reports the same deviation


def test_criterion_06_exact_blowup_solution(ground_state_256, params_focusing):
    p = params_focusing
    deep = solve_ground_state(Grid2D(512, 32.0), p)
    t0, h = -0.5, 1e-5
    target = Grid2D(512, 15.98)
    slices = [eval_pc_blowup(deep.profile, t0 + k * h, target) for k in (-1, 0, 1)]
    residual = pde_residual(slices[0], slices[1], slices[2], h, p)

    r = ground_state_256.profile
    m_ref = mass(r)
    mass_dev = 0.0
    for t in (-1.0, -0.5, -0.25):
        matched = Grid2D(r.grid.n, r.grid.box_length * abs(t))
        mass_dev = max(mass_dev, abs(mass(eval_pc_blowup(r, t, matched)) - m_ref) / m_ref)

    ts = -np.geomspace(0.02, 0.2, 12)
    grads = {}
    for t in ts:
        matched = Grid2D(r.grid.n, r.grid.box_length * abs(t))
        grads[float(t)] = gradient_norm_sq(eval_pc_blowup(r, float(t), matched))
    slope = float(np.polyfit(np.log(1 / np.abs(ts)), np.log([grads[float(t)] for t in ts]), 1)[0])

    trace_ts = -np.geomspace(1.0, 0.02, 40)
    records = []
    l4_accum, prev = 0.0, None
    for t in trace_ts:
        matched = Grid2D(r.grid.n, r.grid.box_length * abs(t))
        u = eval_pc_blowup(r, float(t), matched)
        l4 = l4_norm_4(u)
        if prev is not None:
            l4_accum += 0.5 * (float(t) - prev[0]) * (l4 + prev[1])
        sm = second_moment(u)
        records.append(ConservationRecord(
            t=float(t), mass=mass(u), energy=energy(u, p),
            gradient_norm_sq=gradient_norm_sq(u), second_moment=sm.value,
            moment_valid=sm.boundary_ok, sup_abs_u=float(np.abs(u.values).max()),
            l4_accum=l4_accum, dt_used=0.0))
        prev = (float(t), l4)
    est = estimate_t_star(records)
    t_star_err = abs(est.t_star_estimate - 0.0)

    ok = residual <= 1e-4 and mass_dev <= 1e-8 and abs(slope - 2) <= 0.05 and t_star_err <= 0.02
    report(6, ok, f"pc residual {residual:.2e} (<=1e-4), mass dev {mass_dev:.2e} (<=1e-8), "
                  f"slope {slope:.4f} (2±0.05), T* error {t_star_err:.4f} (<=0.02)")
    assert residual <= 1e-4
    assert mass_dev <= 1e-8
    assert abs(slope - 2) <= 0.05
    assert t_star_err <= 0.02


def test_criterion_07_blowup_trichotomy(tmp_path, big_blowup_run):
    # (a) -nu >= gamma: global orbit to t = 5 with bounded gradient
    out = run_cli_config("global_defocusing.cfg", tmp_path / "global")
    records = read_records(out)
    grads = [r.gradient_norm_sq for r in records]
    global_ok = records[-1].t >= 5.0 - 1e-9 and max(grads) <= 4.0 * grads[0]

    # (b) negative-energy data exist iff -nu < gamma
    g = Grid2D(128, 20.0)
    feasible_ok = True
    for nu, gamma in [(1, 0.5), (1, 1.0), (1, 2.0), (-1, 1.5), (-1, 3.0)]:
        u = negative_energy_gaussian(g, OperatorParams(nu, gamma))
        feasible_ok &= energy(u, OperatorParams(nu, gamma)) < 0
    infeasible_ok = True
    for nu, gamma in [(-1, 0.5), (-1, 1.0)]:
        try:
            negative_energy_gaussian(g, OperatorParams(nu, gamma))
            infeasible_ok = False
        except DomainError:
            pass

    # (c) negative-energy Gaussian hits the resolution guard in finite time
    _u0, _p, result, _snapshots = big_blowup_run
    guard_ok = result.stop_reason in ("grad_guard", "sup_guard") and result.state.t < 2.0

    ok = global_ok and feasible_ok and infeasible_ok and guard_ok
    report(7, ok, f"(a) global to t=5, grad growth x{max(grads)/grads[0]:.2f}; "
                  f"(b) scan matches -nu<gamma iff; "
                  f"(c) guard '{result.stop_reason}' at t={result.state.t:.3f} < t_end")
    assert global_ok
    assert feasible_ok and infeasible_ok
    assert guard_ok


def test_criterion_08_disk_concentration(big_blowup_run, ground_state_256, params_focusing):
    _u0, p, result, snapshots = big_blowup_run
    assert result.blowup is not None, "blow-up run must support a T* estimate"
    t_star = result.blowup.t_star_estimate
    schedule = LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, t_star)  # lambda = (T*-t)^0.4
    records, summary = disk_concentration_trace(
        snapshots, schedule, ground_state_256.c_opt, p
    )
    final_ratio = summary.final_ratio
    l4s = [r.l4_accum for r in result.records]
    l4_growing = all(b >= a for a, b in zip(l4s, l4s[1:])) and l4s[-1] > l4s[0]
    energy_decayed = abs(summary.final_rescaled_energy) <= 0.2 * max(
        abs(rec.rescaled_energy) for rec in records
    )
    ok = (
        final_ratio >= 0.9
        and summary.energy_trend_ok
        and energy_decayed
        and summary.final_quartic_dev <= 0.1
        and summary.lambda_grad_growing
        and l4_growing
    )
    report(8, ok, f"T*={t_star:.4f}, terminal mass ratio {final_ratio:.3f} (>=0.9), "
                  f"rescaled energy decays to {summary.final_rescaled_energy:.2e}: "
                  f"{summary.energy_trend_ok}, terminal quartic dev "
                  f"{summary.final_quartic_dev:.3f} (<=0.1), "
                  f"lambda*grad grows: {summary.lambda_grad_growing}")
    assert final_ratio >= 0.9
    assert summary.energy_trend_ok and energy_decayed
    assert summary.final_quartic_dev <= 0.1
    assert summary.lambda_grad_growing
    assert l4_growing


def test_criterion_09_square_concentration():
    # the windows C*sqrt(t_star - t) with C = 10 need boxes that hold them
    # while staying inside one period of the rescaled profile, hence the
    # wide-box source: box_target <= |t| * box_source keeps images out
    wide = solve_ground_state(Grid2D(512, 40.0), OperatorParams(1, 1.0))
    r = wide.profile
    snaps = []
    for t in -np.geomspace(1.0, 0.1, 8):
        at = abs(float(t))
        box = min(36.0 * at, 12.0)
        snaps.append((float(t), eval_pc_blowup(r, float(t), Grid2D(512, box))))
    records, summary = square_concentration_trace(snaps, c_side=10.0, t_star=0.0, eta=1.0)
    eta_ok = bool(summary.above_eta) and not any(rec.clamped for rec in records)
    sane = summary.max_sqrt_mass <= np.sqrt(mass(r)) * (1 + 1e-8)

    grid = Grid2D(16, 8.0)
    rng = np.random.default_rng(909)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    got = windowed_mass_sup(Field(grid, vals), WindowSpec(SQUARE, 2.7))
    want, _ = brute_force_windowed_mass(vals, 8.0, "square", 2.7)
    brute_dev = abs(got.best_mass - want) / want

    ok = eta_ok and sane and brute_dev <= 1e-10
    report(9, ok, f"terminal min sqrt(mass) {summary.terminal_min_sqrt_mass:.3f} > eta=1.0 "
                  f"across the terminal decade; brute-force window dev {brute_dev:.2e} (<=1e-10)")
    assert eta_ok and sane
    assert brute_dev <= 1e-10


def test_criterion_10_determinism_and_io(conservation_run, tmp_path):
    rerun = run_cli_config("conservation.cfg", tmp_path / "rerun")
    base_records = (conservation_run / "records.csv").read_bytes()
    identical = base_records == (rerun / "records.csv").read_bytes()
    snaps = sorted(p.name for p in conservation_run.glob("snap_*.dsbu"))
    for name in snaps:
        identical &= (conservation_run / name).read_bytes() == (rerun / name).read_bytes()

    field, meta = read_snapshot(str(conservation_run / snaps[0]))
    copy_path = tmp_path / "roundtrip.dsbu"
    write_snapshot(str(copy_path), field, meta)
    roundtrip_ok = copy_path.read_bytes() == (conservation_run / snaps[0]).read_bytes()

    blob = bytearray(copy_path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    bad_path = tmp_path / "corrupt.dsbu"
    bad_path.write_bytes(bytes(blob))
    try:
        read_snapshot(str(bad_path))
        corrupt_rejected = False
    except SnapshotFormatError:
        corrupt_rejected = True

    ok = identical and roundtrip_ok and corrupt_rejected
    report(10, ok, f"bitwise rerun over records + {len(snaps)} snapshots: {identical}; "
                   f"round-trip bitwise: {roundtrip_ok}; corrupted snapshot rejected: "
                   f"{corrupt_rejected}")
    assert identical
    assert roundtrip_ok
    assert corrupt_rejected
