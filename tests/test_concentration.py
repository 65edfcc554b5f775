"""Windowed-mass and rescaled-snapshot diagnostics tests."""

from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest

from dsbu import Field, Grid2D, OperatorParams, concentration, gradient_norm_sq, mass, quartic_term
from dsbu.concentration import (
    CONIC,
    DISK,
    PARABOLIC_MINUS_EPS,
    SQUARE,
    DiskTraceSummary,
    LambdaSchedule,
    WindowSpec,
    disk_concentration_trace,
    rescaled_snapshot,
    square_concentration_trace,
    windowed_mass_sup,
)
from dsbu.errors import DomainError
from dsbu.spectral import FieldTerms, density
from dsbu.exact import eval_pc_blowup, eval_standing_wave

from oracles import brute_force_windowed_mass, reference_disk_trace


def bump(grid, center, width=0.4, amplitude=1.0):
    x1, x2 = grid.coords()
    return amplitude * np.exp(
        -((x1 - center[0]) ** 2 + (x2 - center[1]) ** 2) / (2 * width**2)
    )


class TestWindowedMassSup:
    def test_single_bump_captured(self):
        g = Grid2D(64, 16.0)
        u = Field(g, bump(g, (1.0, -2.0)))
        wm = windowed_mass_sup(u, WindowSpec(DISK, 3.0))
        assert wm.best_mass == pytest.approx(mass(u), rel=1e-8)
        assert abs(wm.best_center[0] - 1.0) <= 3.0 * g.dx
        assert abs(wm.best_center[1] + 2.0) <= 3.0 * g.dx

    def test_two_far_bumps_window_takes_one(self):
        g = Grid2D(128, 32.0)
        u = Field(g, bump(g, (-8.0, 0.0)) + bump(g, (8.0, 0.0)))
        wm = windowed_mass_sup(u, WindowSpec(DISK, 4.0))
        assert wm.best_mass == pytest.approx(mass(u) / 2, rel=1e-6)

    @pytest.mark.parametrize("shape,size", [(DISK, 1.7), (SQUARE, 2.3)])
    def test_brute_force_agreement(self, shape, size):
        g = Grid2D(16, 8.0)
        rng = np.random.default_rng(7)
        u = Field(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        got = windowed_mass_sup(u, WindowSpec(shape, size))
        want, want_idx = brute_force_windowed_mass(u.values, 8.0, shape, size)
        assert abs(got.best_mass - want) <= 1e-10 * want
        assert got.best_center == (g.x[want_idx[0]], g.x[want_idx[1]])

    def test_window_clamps_to_whole_box(self):
        g = Grid2D(32, 8.0)
        rng = np.random.default_rng(9)
        u = Field(g, rng.standard_normal((32, 32)) + 0j)
        wm = windowed_mass_sup(u, WindowSpec(SQUARE, 9.0))
        assert wm.clamped
        assert wm.best_mass == pytest.approx(mass(u), rel=1e-12)

    def test_monotone_in_window_size(self):
        g = Grid2D(32, 8.0)
        rng = np.random.default_rng(11)
        u = Field(g, rng.standard_normal((32, 32)) + 0j)
        masses = [
            windowed_mass_sup(u, WindowSpec(DISK, s)).best_mass
            for s in (0.5, 1.0, 2.0, 3.5, 6.0)
        ]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(masses, masses[1:]))
        assert all(m <= mass(u) * (1 + 1e-12) for m in masses)

    def test_translation_equivariance(self):
        g = Grid2D(64, 16.0)
        u = Field(g, bump(g, (0.0, 0.0)) + 0.3 * bump(g, (3.0, 1.0), width=0.8))
        w = WindowSpec(DISK, 1.2)
        base = windowed_mass_sup(u, w)
        shift = (7, -5)
        moved = Field(g, np.roll(u.values, shift, axis=(0, 1)))
        wm = windowed_mass_sup(moved, w)
        assert wm.best_mass == pytest.approx(base.best_mass, rel=1e-12)

        def wrap(c, d):
            val = c + d * g.dx
            half = g.box_length / 2
            return (val + half) % g.box_length - half

        assert wm.best_center[0] == pytest.approx(wrap(base.best_center[0], shift[0]))
        assert wm.best_center[1] == pytest.approx(wrap(base.best_center[1], shift[1]))

    @pytest.mark.parametrize("shape,size", [(DISK, 1.3), (SQUARE, 2.1)])
    def test_shared_half_spectrum_gives_the_same_bits(self, shape, size):
        g = Grid2D(64, 12.0)
        u = Field(g, bump(g, (0.7, -1.1)) + 0.5j * bump(g, (-2.0, 1.5), width=0.8))
        w = WindowSpec(shape, size)
        shared = windowed_mass_sup(u, w, w_half=np.fft.rfft2(density(u.values)))
        assert shared == windowed_mass_sup(u, w)

    def test_sub_cell_window_rejected(self):
        g = Grid2D(32, 8.0)
        u = Field(g, np.ones((32, 32)))
        with pytest.raises(DomainError):
            windowed_mass_sup(u, WindowSpec(DISK, 0.1))

    def test_bad_window_specs(self):
        with pytest.raises(DomainError):
            WindowSpec("hexagon", 1.0)
        with pytest.raises(DomainError):
            WindowSpec(DISK, 0.0)


class TestRescaledSnapshot:
    def test_unit_gradient_is_identity(self):
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        base = Field(g, np.exp(-(x1**2 + x2**2) / 2))
        scale = 1.0 / np.sqrt(gradient_norm_sq(base))
        u = Field(g, scale * base.values)
        v, rho = rescaled_snapshot(u)
        assert rho == pytest.approx(1.0, rel=1e-12)
        assert v.grid.box_length == pytest.approx(g.box_length, rel=1e-12)
        np.testing.assert_allclose(v.values, u.values, rtol=1e-12)

    def test_mass_and_gradient_postconditions(self):
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        a = 2 * np.pi * 4 / 12.0
        u = Field(g, np.exp(1j * a * x1) * np.exp(-(x1**2 + x2**2) / 3))
        v, rho = rescaled_snapshot(u)
        assert rho == pytest.approx(1.0 / np.sqrt(gradient_norm_sq(u)), rel=1e-12)
        assert mass(v) == pytest.approx(mass(u), rel=1e-6)
        assert gradient_norm_sq(v) == pytest.approx(1.0, rel=1e-6)

    def test_quartic_consistency_both_routes(self, params_focusing):
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        u = Field(g, 1.7 * np.exp(-(x1**2 + x2**2) / 2.3))
        v, rho = rescaled_snapshot(u)
        direct = quartic_term(v, params_focusing)
        via_scaling = rho**2 * quartic_term(u, params_focusing)
        assert direct == pytest.approx(via_scaling, rel=1e-6)

    def test_zero_gradient_rejected(self):
        g = Grid2D(32, 8.0)
        with pytest.raises(DomainError):
            rescaled_snapshot(Field(g, np.ones((32, 32))))


class TestLambdaSchedule:
    def test_parabolic_and_conic_values(self):
        par = LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, 1.0)
        assert par(0.0) == pytest.approx(1.0)
        assert par(0.96) == pytest.approx(0.04**0.4)
        con = LambdaSchedule(CONIC, 0.1, 0.0)
        assert con(-0.5) == pytest.approx(0.5**0.9)
        assert con(0.5) == 0.0  # beyond t_star

    def test_epsilon_range_enforced(self):
        for eps in (0.0, 0.5, 0.7):
            with pytest.raises(DomainError):
                LambdaSchedule(PARABOLIC_MINUS_EPS, eps, 1.0)


class TestDiskTrace:
    def test_standing_wave_whole_box_window(self, ground_state_256, params_focusing):
        # a window at least the box captures exactly the conserved mass,
        # which for the optimizer is the concentration threshold 2/c_opt
        gs = ground_state_256
        r = gs.profile
        for t in (0.0, 0.7):
            u = eval_standing_wave(r, t)
            wm = windowed_mass_sup(u, WindowSpec(DISK, r.grid.box_length))
            assert wm.clamped
            assert wm.best_mass == pytest.approx(2.0 / gs.c_opt, rel=1e-12)

    def test_pc_snapshots_concentrate_with_conic_schedule(
        self, ground_state_256, params_focusing
    ):
        gs = ground_state_256
        r = gs.profile
        snaps = []
        for t in -np.geomspace(0.4, 0.002, 10):
            target = Grid2D(r.grid.n, r.grid.box_length * abs(t))
            snaps.append((float(t), eval_pc_blowup(r, float(t), target)))
        schedule = LambdaSchedule(CONIC, 0.1, 0.0)
        records, summary = disk_concentration_trace(
            snaps, schedule, gs.c_opt, params_focusing
        )
        assert summary.final_ratio >= 0.9
        assert summary.lambda_grad_growing
        assert summary.energy_trend_ok
        assert summary.terminal_quartic_dev <= 0.1
        ratios = [rec.best_mass / summary.threshold_mass for rec in records]
        assert ratios == sorted(ratios)  # monotone concentration along this family
        assert summary.sensitivity["minus_2pct"] is not None

    def test_schedule_skips_flagged(self, ground_state_256, params_focusing):
        gs = ground_state_256
        r = gs.profile
        snaps = [(0.5, eval_standing_wave(r, 0.5))]  # beyond t_star = 0
        schedule = LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, 0.0)
        with pytest.raises(DomainError):
            disk_concentration_trace(snaps, schedule, gs.c_opt, params_focusing)


# t_star = 1 over a trace starting at t = 0, so the sensitivity schedules
# shift t_star by -0.02 and +0.02. On Grid2D(32, 8.0) (dx = 0.25) the
# parabolic schedule with epsilon = 0.1 keeps t iff t_star - t > 0.25**2.5.
EDGE_GRID = Grid2D(32, 8.0)
EDGE_TIMES = (0.0, 0.3, 0.6, 0.8, 0.9, 0.955, 0.975, 0.995, 1.01)
EDGE_SCHEDULE = LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, 1.0)


def edge_snapshots():
    snaps = []
    for t in EDGE_TIMES:
        width = 0.3 + (1.0 - t)
        snaps.append((t, Field(EDGE_GRID, bump(EDGE_GRID, (0.5 * t, -0.25), width, 1.0 / width))))
    return snaps


#: Fields of a record and of the summary that the trace computes from the
#: scaling identities instead of from a rescaled field (``assert_same_trace``).
RESCALED_RECORD = ("rescaled_quartic", "rescaled_energy")
RESCALED_SUMMARY = ("terminal_quartic_dev", "final_quartic_dev", "final_rescaled_energy")


def assert_same_trace(got, want, rel=1e-13):
    """The one-pass trace against the per-schedule reference.

    Window, best mass, center, clamp flag and rho come from the same
    ``windowed_mass_sup`` and gradient calls in both (a shared half spectrum
    gives the same bits as none), so they, the skipped times, the products
    lambda/rho, the sensitivity ratios and every verdict are compared with ==.

    The rescaled functionals are not. The trace takes quartic(v) =
    rho^2 quartic(u) on u's grid and E(v) = 1/2 - quartic(v)/4; the reference
    builds v on the grid scaled by 1/rho and evaluates ``quartic_term(v)`` and
    ``energy(v)``. The identities hold for the discrete sums too (B's symbol is
    homogeneous of degree 0 and v's samples are rho times u's), so the routes
    differ only by rounding: of the symbol at scaled wavenumbers, of rho^2
    and dx^2, and of the product order, a few ulp of each term. With nu = +1
    every term of the quartic is nonnegative, so it is held to ``rel`` of
    itself (measured: 3.3e-16), and a quartic deviation |q/2 - 1| to ``rel``
    of q/2 <= 1 + deviation. The energy adds the rounding of
    gradient_norm_sq(v) = 1 in the reference; E(v) tends to 0 along a blow-up
    while its terms do not, so it is held to ``rel`` of its terms
    1/2 + |quartic|/4, not of |E| (measured: 4.5e-16).
    """
    records, summary = got
    ref_records, ref_summary = want
    assert len(records) == len(ref_records)
    for r, ref in zip(records, ref_records):
        for f in fields(r):
            if f.name not in RESCALED_RECORD:
                assert getattr(r, f.name) == getattr(ref, f.name), (f.name, r.t)
        assert abs(r.rescaled_quartic - ref.rescaled_quartic) <= rel * abs(ref.rescaled_quartic)
        terms = 0.5 + 0.25 * abs(ref.rescaled_quartic)
        assert abs(r.rescaled_energy - ref.rescaled_energy) <= rel * terms, r.t
    for f in fields(DiskTraceSummary):
        if f.name not in RESCALED_SUMMARY:
            assert getattr(summary, f.name) == getattr(ref_summary, f.name), f.name
    for name in ("terminal_quartic_dev", "final_quartic_dev"):
        got_dev, ref_dev = getattr(summary, name), getattr(ref_summary, name)
        assert abs(got_dev - ref_dev) <= rel * (1.0 + ref_dev), name
    last_terms = 0.5 + 0.25 * abs(ref_records[-1].rescaled_quartic)
    assert abs(summary.final_rescaled_energy - ref_summary.final_rescaled_energy) <= (
        rel * last_terms)


class TestDiskTraceOnePass:
    """The one-pass trace against the three-pass reference (``assert_same_trace``)."""

    def test_pc_conic_family_matches_reference(self, ground_state_256, params_focusing):
        gs = ground_state_256
        r = gs.profile
        snaps = []
        for t in -np.geomspace(0.4, 0.002, 10):
            target = Grid2D(r.grid.n, r.grid.box_length * abs(t))
            snaps.append((float(t), eval_pc_blowup(r, float(t), target)))
        schedule = LambdaSchedule(CONIC, 0.1, 0.0)
        assert_same_trace(
            disk_concentration_trace(snaps, schedule, gs.c_opt, params_focusing),
            reference_disk_trace(snaps, schedule, gs.c_opt, params_focusing),
        )

    def test_shifted_schedules_keep_and_skip_other_snapshots(self):
        dx = EDGE_GRID.dx
        span = EDGE_SCHEDULE.t_star - min(EDGE_TIMES)
        minus, plus = (
            LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, EDGE_SCHEDULE.t_star + s * 0.02 * span)
            for s in (-1, 1)
        )
        kept = lambda sched: {t for t in EDGE_TIMES if sched(t) > dx}
        # the case set exercises both directions
        assert kept(plus) - kept(EDGE_SCHEDULE) == {0.975}
        assert kept(EDGE_SCHEDULE) - kept(minus) == {0.955}
        params = OperatorParams(1, 1.0)
        got = disk_concentration_trace(edge_snapshots(), EDGE_SCHEDULE, 0.26, params)
        assert_same_trace(got, reference_disk_trace(edge_snapshots(), EDGE_SCHEDULE, 0.26, params))
        assert got[1].skipped_times == [0.975, 0.995, 1.01]
        assert set(got[1].sensitivity) == {"minus_2pct", "plus_2pct"}

    def test_unsorted_input_matches_reference(self):
        params = OperatorParams(1, 1.0)
        snaps = edge_snapshots()
        # the earliest snapshot, which sets the trace span, not in front
        shuffled = [snaps[i] for i in (4, 0, 7, 2, 8, 1, 6, 3, 5)]
        got = disk_concentration_trace(shuffled, EDGE_SCHEDULE, 0.26, params)
        assert_same_trace(got, reference_disk_trace(shuffled, EDGE_SCHEDULE, 0.26, params))
        assert got == disk_concentration_trace(snaps, EDGE_SCHEDULE, 0.26, params)

    def test_no_grid_and_one_gradient_per_kept_snapshot(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the disk trace built a grid")

        grads = []

        class CountingTerms(FieldTerms):
            @cached_property
            def grad(self):
                grads.append(id(self.values))
                return FieldTerms.grad.func(self)

        snaps = edge_snapshots()
        monkeypatch.setattr(Grid2D, "__init__", no_grid)
        monkeypatch.setattr(concentration, "FieldTerms", CountingTerms)
        disk_concentration_trace(snaps, EDGE_SCHEDULE, 0.26, OperatorParams(1, 1.0))
        # every snapshot kept by some schedule (all but t = 0.995 and 1.01), once
        assert sorted(grads) == sorted(id(u.values) for t, u in snaps if t < 0.99)


class TestSquareTrace:
    def test_pc_snapshots_keep_l2_above_threshold(self, ground_state_256):
        gs = ground_state_256
        r = gs.profile
        snaps = []
        for t in -np.geomspace(0.5, 0.01, 8):
            target = Grid2D(r.grid.n, r.grid.box_length * abs(t))
            snaps.append((float(t), eval_pc_blowup(r, float(t), target)))
        records, summary = square_concentration_trace(snaps, c_side=10.0, t_star=0.0, eta=0.5)
        assert summary.above_eta
        assert summary.terminal_min_sqrt_mass > 0.5
        assert summary.max_sqrt_mass <= np.sqrt(mass(r)) * (1 + 1e-8)
        # on these matched boxes the late windows exceed the box and clamp
        # to the whole-box mass, flagged per record
        assert any(rec.clamped for rec in records)
        for rec in records:
            if rec.clamped:
                assert rec.best_mass == pytest.approx(mass(r), rel=1e-6)

    def test_dispersed_field_tiny_window_vanishes(self):
        # Hoelder: captured L2 norm <= sup|u| * (side + dx); the O(dx) slack
        # is the cell-center membership rule
        g = Grid2D(64, 16.0)
        u = Field(g, 1e-3 * np.ones((64, 64)))
        snaps = [(0.0, u)]
        norms = []
        for side in (2.0, 1.0, 0.5):
            records, summary = square_concentration_trace(
                snaps, c_side=side, t_star=1.0
            )
            bound = 1e-3 * (records[0].window.size + g.dx)
            assert summary.max_sqrt_mass <= bound * (1 + 1e-12)
            norms.append(summary.max_sqrt_mass)
        assert norms == sorted(norms, reverse=True)

    def test_late_snapshots_skipped(self, ground_state_256):
        r = ground_state_256.profile
        snaps = [(0.2, eval_standing_wave(r, 0.2)), (-1.0, eval_pc_blowup(r, -1.0, r.grid))]
        records, summary = square_concentration_trace(snaps, c_side=3.0, t_star=0.0)
        assert summary.skipped_times == [0.2]
        assert len(records) == 1

    def test_all_skipped_rejected(self, ground_state_256):
        r = ground_state_256.profile
        snaps = [(0.2, eval_standing_wave(r, 0.2))]
        with pytest.raises(DomainError):
            square_concentration_trace(snaps, c_side=3.0, t_star=0.0)
