"""Windowed-mass and rescaled-snapshot diagnostics tests."""

import hashlib
import os
import pickle
import signal
import threading
from collections.abc import Sequence
from dataclasses import fields, replace
from functools import cached_property, partial
from types import SimpleNamespace

import numpy as np
import pytest

from dsbu import Field, Grid2D, OperatorParams, concentration, gradient_norm_sq, mass, quartic_term
from dsbu.concentration import (
    CONIC,
    DISK,
    PARABOLIC_MINUS_EPS,
    SQUARE,
    ConcentrationRecord,
    DiskTraceSummary,
    KernelSpectra,
    LambdaSchedule,
    WindowSpec,
    disk_concentration_trace,
    rescaled_snapshot,
    square_concentration_trace,
    windowed_mass_sup,
)
from dsbu.errors import DomainError, SnapshotFormatError
from dsbu.spectral import FieldTerms, Quarter, density, on_its_space
from dsbu.exact import eval_pc_blowup, eval_standing_wave

from oracles import brute_force_windowed_mass, reference_disk_trace
from test_evolution import FFTCounter, assert_no_child_left, in_one_process, open_fds


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
        terms = FieldTerms(u.values, g)
        np.testing.assert_array_equal(terms.rho_half, np.fft.rfft2(density(u.values)))
        shared = windowed_mass_sup(terms, w)
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


def even_field(grid, f):
    """The field f(x1, x2) made on the grid's quarter and unfolded: equal to its mirrors."""
    q = grid.quarter
    x1, x2 = np.meshgrid(q.x, q.x, indexing="ij")
    values = np.asarray(f(x1, x2), dtype=complex)
    return Field(grid, q.unfold(values, np.empty(grid.shape, dtype=complex)))


def quarter_terms(u):
    q = u.grid.quarter
    h = q.shape[0]
    return FieldTerms(u.values[:h, :h], q)


EVEN_FIELDS = {
    # peak at the origin, index (n/2, n/2), with an elongated complex halo
    "origin": lambda x1, x2: np.exp(-(x1**2 + 2 * x2**2) / 2)
    + 0.3j * np.exp(-((np.abs(x1) - 2.5) ** 2 + x2**2)),
    # peak on the box edge x1 = -L/2, index 0, its own mirror
    "edge": lambda x1, x2: np.exp(-((x1 + 6.0) ** 2 + x2**2) / 0.8)
    + 0.2 * np.exp(-(x1**2 + x2**2)),
}


class TestWindowedMassOnTheQuarter:
    """``windowed_mass_sup`` with terms on the ``Quarter`` of an even field."""

    @pytest.mark.parametrize("name", sorted(EVEN_FIELDS))
    @pytest.mark.parametrize("shape,size", [(DISK, 1.3), (DISK, 3.1), (SQUARE, 2.1), (SQUARE, 13.0)])
    def test_matches_the_full_grid(self, name, shape, size):
        u = even_field(Grid2D(64, 12.0), EVEN_FIELDS[name])
        w = WindowSpec(shape, size)
        full = windowed_mass_sup(u, w)
        got = windowed_mass_sup(quarter_terms(u), w)
        assert got.best_mass == pytest.approx(full.best_mass, rel=1e-13, abs=0)
        assert got.best_center == full.best_center
        assert got.clamped == full.clamped == (size > 12.0)

    def test_tie_at_mirrored_centres_takes_the_first(self):
        # equal bumps at x1 = -4 and x1 = +4: the first maximum in C order
        # is the window at -4 (row 8 of 32), which the quarter holds
        g = Grid2D(32, 16.0)
        u = even_field(g, lambda x1, x2: np.exp(-((np.abs(x1) - 4.0) ** 2 + x2**2) / 1.3))
        want, want_idx = brute_force_windowed_mass(u.values, 16.0, DISK, 2.1)
        assert want_idx == (8, 16)
        got = windowed_mass_sup(quarter_terms(u), WindowSpec(DISK, 2.1))
        assert got.best_center == (g.x[8], g.x[16]) == (-4.0, 0.0)
        assert abs(got.best_mass - want) <= 1e-13 * want
        full = windowed_mass_sup(u, WindowSpec(DISK, 2.1))
        assert full.best_center in ((-4.0, 0.0), (4.0, 0.0))
        assert full.best_mass == pytest.approx(got.best_mass, rel=1e-13, abs=0)

    def test_fft_budget(self, monkeypatch):
        # the window's quarter transform and the inverse, each two real passes
        # of n/2+1 lines: 1/2 of (n/2+1)/n FFT-equivalents each, as on the grid
        u = even_field(Grid2D(64, 12.0), EVEN_FIELDS["origin"])
        terms = quarter_terms(u)
        terms.rho_half  # made once per snapshot, outside the call
        counter = FFTCounter(monkeypatch)
        windowed_mass_sup(terms, WindowSpec(DISK, 1.3))
        assert counter.total == pytest.approx(2 * 0.5 * (64 // 2 + 1) / 64, rel=1e-12)


def random_even_field(grid, seed):
    """A random complex field equal to its mirrors in x1 and x2."""
    rng = np.random.default_rng(seed)
    return even_field(grid, lambda x1, x2: rng.standard_normal(x1.shape)
                      + 1j * rng.standard_normal(x1.shape))


#: Window sizes shrinking by 5% a step on a grid of dx = 0.5: neighbours often
#: hold the same lattice points, so the kept spectra are hit and evicted.
SIZE_LADDER = tuple(4.0 * 0.95**k for k in range(30))


def reuse_distance(keys):
    """The largest number of distinct keys used from one use of a key to its next, that
    key included: the fewest least-recently-used entries that miss each key only once."""
    largest, recent = 0, []
    for key in keys:
        if key in recent:
            largest = max(largest, len(recent) - recent.index(key))
            recent.remove(key)
        recent.append(key)
    return largest


class TestKernelSpectra:
    """``windowed_mass_sup`` with kept kernel spectra against fresh transforms and brute force."""

    @pytest.mark.parametrize("space", ["grid", "quarter"])
    @pytest.mark.parametrize("shape", [DISK, SQUARE])
    def test_shrinking_ladder_matches_fresh_calls_and_brute_force(self, shape, space):
        g = Grid2D(16, 8.0)
        u = random_even_field(g, 21)
        terms = quarter_terms(u) if space == "quarter" else FieldTerms.of(u)
        kernels = concentration.KernelSpectra()
        keys = set()
        for size in SIZE_LADDER:
            if size <= g.dx:
                continue
            w = WindowSpec(shape, size)
            got = windowed_mass_sup(terms, w, kernels)
            assert len(kernels) <= kernels.size
            assert got == windowed_mass_sup(terms, w)
            want, want_idx = brute_force_windowed_mass(u.values, g.box_length, shape, size)
            assert abs(got.best_mass - want) <= 1e-10 * want
            # on the quarter the first maximum of an even map may be the mirror's
            mirror = tuple(abs(g.x[i]) for i in want_idx)
            assert tuple(map(abs, got.best_center)) == mirror
            keys.add(int(np.count_nonzero(
                concentration._window_kernel(concentration._space_offsets(g), w))))
        assert len(keys) < sum(size > g.dx for size in SIZE_LADDER)  # the ladder repeats kernels
        # every kernel is kept while they fit (an even kernel is fixed by its quarter)
        assert len(kernels) == min(len(keys), kernels.size)

    @pytest.mark.parametrize("space", ["grid", "quarter"])
    @pytest.mark.parametrize("shape", [DISK, SQUARE])
    def test_table_count_is_the_kernel_count(self, shape, space):
        # dx = 1/8, so the offsets and the sizes below are exact: a size on a lattice
        # distance is a tie of the <= test, and the next floats either side are not
        g = Grid2D(16, 2.0)
        on = g.quarter if space == "quarter" else g
        kernels = concentration.KernelSpectra()
        lattice = [g.dx * k for k in (1, 2, 3, 5)]
        if shape == SQUARE:
            lattice = [2 * size for size in lattice]  # the half side on the lattice
        sizes = [1.3 * g.dx, 0.37 * g.box_length, g.box_length, 3.0 * g.box_length]
        for size in lattice:
            sizes += [size, np.nextafter(size, 0.0), np.nextafter(size, np.inf)]
        for size in sizes:
            w = WindowSpec(shape, size)
            kernel = concentration._window_kernel(concentration._space_offsets(on), w)
            assert kernels.count(on, w) == np.count_nonzero(kernel), size
        whole = WindowSpec(shape, g.box_length)  # clamped: every point of the space
        assert kernels.count(on, whole) == on.shape[0] * on.shape[1]

    @pytest.mark.parametrize("space", ["grid", "quarter"])
    @pytest.mark.parametrize("shape", [DISK, SQUARE])
    def test_no_kernels_is_a_fresh_cache_and_an_empty_one_is_filled(self, shape, space):
        # an empty KernelSpectra is falsy (its __len__), yet the one passed in is the one used
        g = Grid2D(32, 8.0)
        u = random_even_field(g, 5)
        terms = quarter_terms(u) if space == "quarter" else FieldTerms.of(u)
        w = WindowSpec(shape, 2.3)
        kernels = KernelSpectra()
        assert not kernels
        got = windowed_mass_sup(terms, w, kernels)
        assert len(kernels) == 1
        assert got == windowed_mass_sup(terms, w)
        if space == "grid":
            assert windowed_mass_sup(u, w) == windowed_mass_sup(u, w, KernelSpectra())

    @pytest.mark.parametrize("space", ["grid", "quarter"])
    @pytest.mark.parametrize("shape", [DISK, SQUARE])
    def test_ties_and_the_whole_box_match_fresh_calls(self, shape, space):
        g = Grid2D(16, 2.0)
        u = random_even_field(g, 8)
        terms = quarter_terms(u) if space == "quarter" else FieldTerms.of(u)
        kernels = concentration.KernelSpectra()
        half = 1 if shape == DISK else 2
        for size in (3 * half * g.dx, np.nextafter(3 * half * g.dx, 0.0), g.box_length):
            w = WindowSpec(shape, size)
            got = windowed_mass_sup(terms, w, kernels)
            assert got == windowed_mass_sup(terms, w)
        assert got.clamped and got.best_mass == pytest.approx(mass(u), rel=1e-12)

    def test_a_three_schedule_ladder_transforms_each_kernel_once(
            self, monkeypatch, in_one_process):
        # The disk trace's main and +-2% schedules walk one shrinking ladder of
        # kernels at staggered times. While the kernels used between two uses of
        # one (its reuse distance) fit the kept spectra, each is built and
        # transformed once; the old size of 4 built some of them again.
        g = Grid2D(32, 2.0)
        q = g.quarter
        values = np.exp(-(q.x[:, None] ** 2 + q.x**2) / 2).astype(complex)
        snaps = [(1.0 - 0.5 * 0.9**k, values, q) for k in range(60)]
        schedule = LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, 1.0)
        windows, built = [], []
        measure, make = windowed_mass_sup, concentration._window_kernel
        monkeypatch.setattr(concentration, "windowed_mass_sup",
                            lambda terms, w, kernels: windows.append(w) or measure(terms, w, kernels))
        monkeypatch.setattr(concentration, "_window_kernel",
                            lambda off, w: built.append(w) or make(off, w))
        kept = []
        monkeypatch.setattr(concentration, "KernelSpectra",
                            lambda: kept.append(KernelSpectra()) or kept[-1])
        records, _ = disk_concentration_trace(snaps, schedule, 0.26, OperatorParams(1, 1.0))
        keys = [int(np.count_nonzero(make(concentration._space_offsets(q), w))) for w in windows]
        assert len(windows) > 2 * len(records)  # the shifted schedules measure too
        assert len(set(keys)) > KernelSpectra.size  # more kernels than are kept at once
        assert reuse_distance(keys) <= KernelSpectra.size
        assert len(built) == len(set(keys))
        assert len(kept) == 1 and len(kept[0]) == KernelSpectra.size
        monkeypatch.setattr(KernelSpectra, "size", 4)
        built.clear()
        disk_concentration_trace(snaps, schedule, 0.26, OperatorParams(1, 1.0))
        assert len(built) > len(set(keys))
        assert len(kept[-1]) <= 4

    @pytest.mark.parametrize("space", ["grid", "quarter"])
    def test_a_kept_kernel_costs_one_transform(self, monkeypatch, space):
        g = Grid2D(64, 12.0)
        u = even_field(g, EVEN_FIELDS["origin"])
        terms = quarter_terms(u) if space == "quarter" else FieldTerms.of(u)
        terms.rho_half
        kernels = concentration.KernelSpectra()
        first = windowed_mass_sup(terms, WindowSpec(DISK, 1.3), kernels)
        counter = FFTCounter(monkeypatch)
        # a radius with the same lattice points reuses the kept spectrum
        again = windowed_mass_sup(terms, WindowSpec(DISK, 1.31), kernels)
        one = 0.5 * (g.n // 2 + 1) / g.n if space == "quarter" else 0.5
        assert counter.total == pytest.approx(one, rel=1e-12)
        assert again == first


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

    def test_unsorted_input_rejected(self):
        # Both traces walk their input once, in the order given: a t that
        # does not increase is an error, not a re-sort. Any iterable will do.
        params = OperatorParams(1, 1.0)
        snaps = edge_snapshots()
        shuffled = [snaps[i] for i in (4, 0, 7, 2, 8, 1, 6, 3, 5)]
        repeated = [snaps[0], snaps[1], snaps[1], snaps[2]]
        for bad in (shuffled, repeated):
            with pytest.raises(DomainError, match="traces need increasing t"):
                disk_concentration_trace(bad, EDGE_SCHEDULE, 0.26, params)
            with pytest.raises(DomainError, match="traces need increasing t"):
                square_concentration_trace(bad, c_side=3.0, t_star=1.0, eta=0.1)
        for trace, args in ((disk_concentration_trace, (EDGE_SCHEDULE, 0.26, params)),
                            (square_concentration_trace, (3.0, 1.0, 0.1))):
            assert trace(iter(snaps), *args) == trace(snaps, *args)
            with pytest.raises(DomainError, match="no snapshots"):
                trace(iter([]), *args)

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
        # an iterator is walked in this process, where the counter sees every call
        disk_concentration_trace(iter(snaps), EDGE_SCHEDULE, 0.26, OperatorParams(1, 1.0))
        # every snapshot kept by some schedule (all but t = 0.995 and 1.01), once
        assert sorted(grads) == sorted(id(u.values) for t, u in snaps if t < 0.99)


def even_snapshots():
    """Shrinking even bumps on two grids, as from a run on even data (not bitwise radial)."""
    snaps = []
    for t, grid in zip(EDGE_TIMES[:6], [EDGE_GRID] * 3 + [Grid2D(32, 6.0)] * 3):
        width = 0.3 + (1.0 - t)
        snaps.append((t, even_field(grid, lambda x1, x2: np.exp(
            -((x1 / width) ** 2 + (0.8 * x2 / width) ** 2) / 2) / width)))
    return snaps


@pytest.fixture
def quarter_use(monkeypatch):
    """``made``: the grids of the ``Quarter`` objects made, in order; ``spaces``: the
    spaces of the ``FieldTerms`` that ``concentration`` makes, in order."""
    use = SimpleNamespace(made=[], spaces=[])
    init = Quarter.__init__

    def counting_init(self, grid):
        use.made.append(grid)
        init(self, grid)

    class RecordingTerms(FieldTerms):
        def __init__(self, values, space, uhat=None):
            use.spaces.append(space)
            super().__init__(values, space, uhat)

    monkeypatch.setattr(Quarter, "__init__", counting_init)
    monkeypatch.setattr(concentration, "FieldTerms", RecordingTerms)
    return use


def assert_measured_on_the_grids_quarters(snaps, use):
    """No ``Quarter`` was made since ``use.made`` was cleared, and each even snapshot
    was measured on its grid's ``quarter``."""
    assert use.made == []
    assert {id(space) for space in use.spaces} == {id(u.grid.quarter) for _, u in snaps}


class TestTracesOnTheQuarter:
    def test_disk_trace_matches_reference_with_one_quarter_per_grid(self, quarter_use):
        params = OperatorParams(1, 1.0)
        snaps = even_snapshots()  # which make their grids' quarters
        quarter_use.made.clear()
        # walked in this process (an iterator), so the recorder sees every snapshot
        records, summary = disk_concentration_trace(iter(snaps), EDGE_SCHEDULE, 0.26, params)
        assert_measured_on_the_grids_quarters(snaps, quarter_use)
        ref_records, ref_summary = reference_disk_trace(snaps, EDGE_SCHEDULE, 0.26, params)
        assert len(records) == len(ref_records) == 6
        for r, ref in zip(records, ref_records):
            assert (r.t, r.window, r.best_center, r.clamped) == (
                ref.t, ref.window, ref.best_center, ref.clamped)
            for name in ("best_mass", "rho", "rescaled_quartic"):
                assert getattr(r, name) == pytest.approx(getattr(ref, name), rel=1e-13, abs=0)
        assert summary.lambda_grad_growing == ref_summary.lambda_grad_growing
        assert summary.min_ratio == pytest.approx(ref_summary.min_ratio, rel=1e-13, abs=0)

    def test_square_trace_matches_the_full_grid(self, quarter_use):
        snaps = even_snapshots()
        quarter_use.made.clear()
        records, _ = square_concentration_trace(iter(snaps), c_side=3.0, t_star=1.0, eta=0.1)
        assert_measured_on_the_grids_quarters(snaps, quarter_use)
        assert len(records) == 6
        for (t, u), r in zip(snaps, records):
            full = windowed_mass_sup(u, r.window)
            assert r.best_center == full.best_center and r.clamped == full.clamped
            assert r.best_mass == pytest.approx(full.best_mass, rel=1e-13, abs=0)

    @pytest.mark.parametrize("trace", ["disk", "square"])
    def test_a_given_parity_is_taken_without_a_scan(self, trace, monkeypatch):
        # (t, values, space) items, the samples on their space as analyze
        # reads them and run hands its sink, give the bits of (t, u) pairs,
        # whose space is found by Quarter.holds, and never call it
        snaps = even_snapshots() + [(2.0, edge_snapshots()[0][1])]
        traced = {
            "disk": lambda items: disk_concentration_trace(
                items, replace(EDGE_SCHEDULE, t_star=2.5), 0.26, OperatorParams(1, 1.0)),
            "square": lambda items: square_concentration_trace(
                items, c_side=3.0, t_star=2.5, eta=0.1),
        }[trace]
        # walked in this process (iterators), so the counter sees every snapshot
        want = traced(iter(snaps))
        items = [(t, *on_its_space(u)) for t, u in snaps]
        assert [space is space.grid for _, _, space in items] == [False] * (len(snaps) - 1) + [True]
        scans = []
        monkeypatch.setattr(Quarter, "holds", lambda u: scans.append(1))
        got = traced(iter(items))
        assert scans == []
        assert repr(got) == repr(want)

    def test_fields_that_are_not_even_keep_the_full_grid_bytes(self):
        # sha256 of the records of both traces on a Gaussian shifted in x1,
        # made before the traces took the quarter (numpy 2.4.6 on x86-64;
        # other FFT builds may round differently and so give other digests)
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        snaps = [(t, Field(g, np.exp(-((x1 - 0.7) ** 2 + x2**2) / (2 * (1.0 - t) ** 2)) / (1.0 - t)))
                 for t in (0.0, 0.3, 0.6, 0.8, 0.9)]
        assert not any(Quarter.holds(u.values) for _, u in snaps)
        schedule = LambdaSchedule(PARABOLIC_MINUS_EPS, 0.1, 1.0)
        disk, _ = disk_concentration_trace(snaps, schedule, 0.26, OperatorParams(1, 1.0))
        square, _ = square_concentration_trace(snaps, c_side=3.0, t_star=1.0, eta=0.1)
        assert len(disk) == len(square) == 5
        digest = hashlib.sha256(repr(disk + square).encode()).hexdigest()
        assert digest == "175d7bca8a9822bbd1a380af925a284267f907d04045eff18c046901413751df"


def sequential_rows(work, snaps):
    """The per-snapshot function over the (t, u) pairs ``snaps`` in a plain loop on this
    thread, each u's samples on the space that ``on_its_space`` finds, as the traces do."""
    return [work(t, *on_its_space(u)) for t, u in snaps]


def assert_same_records(got, want):
    assert len(got) == len(want)
    for r, ref in zip(got, want):
        for f in fields(ConcentrationRecord):
            assert getattr(r, f.name) == getattr(ref, f.name), f.name


class LoggedSnapshots(Sequence):
    """A snapshot list that appends "<pid> read <i>" to ``log`` (a file, so that a forked
    child's reads show too) for each item read, and raises ``SnapshotFormatError`` on
    reading the items of ``corrupt``."""

    def __init__(self, snaps, log, corrupt=()):
        self.snaps, self.log, self.corrupt = snaps, log, corrupt

    def __len__(self):
        return len(self.snaps)

    def __getitem__(self, i):
        item = self.snaps[i]  # an IndexError, which ends iteration, is not a read
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()} read {i}\n")
        if i in self.corrupt:
            raise SnapshotFormatError(f"snapshot {i}: truncated payload")
        return item


def split_of(snaps):
    """The first item of the child's half of a split walk of ``snaps``."""
    return (len(snaps) + 1) // 2


class TestTracesOnTwoProcesses:
    """A sequence of snapshots is traced on two processes, a sequential walk's outcome."""

    SNAPSHOT_SETS = {"even": even_snapshots, "full grid": edge_snapshots}
    TRACES = {
        "disk": lambda snaps: disk_concentration_trace(
            snaps, EDGE_SCHEDULE, 0.26, OperatorParams(1, 1.0)),
        "square": lambda snaps: square_concentration_trace(snaps, c_side=3.0, t_star=1.0, eta=0.1),
    }

    @pytest.fixture(autouse=True)
    def nothing_left_open(self):
        assert_no_child_left()
        fds = open_fds()
        yield
        assert_no_child_left(fds)

    @pytest.mark.parametrize("name", SNAPSHOT_SETS)
    def test_disk_trace_equals_a_sequential_walk(self, name):
        snaps = self.SNAPSHOT_SETS[name]()
        params = OperatorParams(1, 1.0)
        work = partial(concentration._disk_rows,
                       concentration._shifted_schedules(EDGE_SCHEDULE, snaps[0][0]), params,
                       concentration.KernelSpectra())
        want = sequential_rows(work, snaps)
        assert list(concentration._traced_in_order(snaps, lambda t0: work)) == want
        records, summary = self.TRACES["disk"](snaps)
        assert_same_records(records, [rec for _, _, rows in want for tag, rec in rows
                                      if tag == "main"])
        assert repr((records, summary)) == repr(self.TRACES["disk"](iter(snaps)))

    @pytest.mark.parametrize("name", SNAPSHOT_SETS)
    def test_square_trace_equals_a_sequential_walk(self, name):
        snaps = self.SNAPSHOT_SETS[name]()
        work = partial(concentration._square_rows, 3.0, 1.0, concentration.KernelSpectra())
        want = sequential_rows(work, snaps)
        assert list(concentration._traced_in_order(snaps, lambda t0: work)) == want
        records, summary = self.TRACES["square"](snaps)
        assert_same_records(records, [rec for _, _, rows in want for rec in rows])
        assert repr((records, summary)) == repr(self.TRACES["square"](iter(snaps)))

    def test_work_made_once_and_each_item_read_once(self, tmp_path):
        log = tmp_path / "log"
        snaps = LoggedSnapshots(edge_snapshots(), log)
        work = partial(concentration._square_rows, 3.0, 1.0, concentration.KernelSpectra())

        def work_for(t0):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} work_for {t0}\n")
            return work

        got = list(concentration._traced_in_order(snaps, work_for))
        assert got == sequential_rows(work, edge_snapshots())
        lines = [line.split() for line in log.read_text().splitlines()]
        me = str(os.getpid())
        assert lines[0] == [me, "read", "0"] and lines[1] == [me, "work_for", "0.0"]
        reads = {int(i): pid for pid, what, i in lines if what == "read"}
        assert sum(what == "work_for" for _, what, _ in lines) == 1
        assert len(reads) == sum(what == "read" for _, what, _ in lines) == len(snaps)
        m = split_of(snaps)
        assert {reads[i] for i in range(m)} == {me}
        child = {reads[i] for i in range(m, len(snaps))}
        assert len(child) == 1 and me not in child

    # On the 9 edge snapshots, split at 5: the t given to some items, the
    # items made gradient-free (which the disk trace rejects where a schedule
    # keeps them, at any t below 0.99), the items whose read fails, and the
    # error that a sequential walk meets first.
    CASES = {
        "parent's half": ({}, (1,), (6,), "gradient-free"),
        "parent's half before the child's t order": ({7: 0.9}, (3,), (), "gradient-free"),
        "child's half, a read": ({}, (), (6,), "snapshot 6: truncated payload"),
        "child's half, a measurement": ({}, (5,), (7,), "gradient-free"),
        "child's half, a t order": ({7: 0.9}, (), (), "t = 0.9 follows t = 0.975"),
        "at the split, t equal": ({5: 0.9}, (), (), "t = 0.9 follows t = 0.9"),
        "at the split, t below": ({5: 0.3}, (), (6,), "t = 0.3 follows t = 0.9"),
        "at the split, before a measurement error": (
            {5: 0.3}, (5,), (), "t = 0.3 follows t = 0.9"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_the_first_error_in_time_order_comes_out(self, case, tmp_path):
        times, flats, corrupt, message = self.CASES[case]
        snaps = edge_snapshots()
        assert split_of(snaps) == 5
        for i, t in times.items():
            snaps[i] = t, snaps[i][1]
        for i in flats:
            snaps[i] = snaps[i][0], Field(EDGE_GRID, np.zeros(EDGE_GRID.shape))
        logged = LoggedSnapshots(snaps, tmp_path / "log", corrupt)
        errors = []
        for items in (logged, iter(logged)):  # split, then sequential
            with pytest.raises(DomainError) as caught:
                self.TRACES["disk"](items)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert message in errors[0][1]

    def test_an_error_that_does_not_pickle_comes_as_a_domain_error(self):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        parent = os.getpid()
        work = partial(concentration._square_rows, 3.0, 1.0, concentration.KernelSpectra())

        def failing(t, values, space):
            if os.getpid() != parent and t > 0.95:
                raise LocalError(f"bad snapshot at {t}")
            return work(t, values, space)

        traced = concentration._traced_in_order(edge_snapshots(), lambda t0: failing)
        with pytest.raises(DomainError, match="^LocalError: bad snapshot at 0.955$"):
            list(traced)

    def test_a_child_that_sends_nothing_is_an_error(self):
        parent = os.getpid()

        def exiting(t, values, space):
            if os.getpid() != parent:
                raise SystemExit(3)
            return t

        traced = concentration._traced_in_order(edge_snapshots(), lambda t0: exiting)
        with pytest.raises(RuntimeError,
                           match=r"snapshots 5\.\.8 ended without its result \(exit code 1\)"):
            list(traced)

    def test_a_child_killed_while_it_sends_is_an_error(self, monkeypatch):
        # the child writes the start of a whole payload to its pipe end, then dies
        pipes, make_pipe = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(make_pipe()) or pipes[-1])
        parent = os.getpid()

        def dying(t, values, space):
            if os.getpid() != parent:
                os.write(pipes[-1][1], pickle.dumps((True, ((t, [t] * 100), None)))[:40])
                os.kill(os.getpid(), signal.SIGKILL)
            return t

        traced = concentration._traced_in_order(edge_snapshots(), lambda t0: dying)
        with pytest.raises(RuntimeError,
                           match=r"snapshots 5\.\.8 ended without its result \(exit code -9\)"):
            list(traced)

    @pytest.mark.parametrize("reason", ["no fork", "another thread"])
    def test_walked_here_where_a_fork_is_unsafe(self, reason, tmp_path, monkeypatch):
        log = tmp_path / "log"
        snaps = edge_snapshots()
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if reason == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            other.start()
        try:
            got = self.TRACES["disk"](LoggedSnapshots(snaps, log))
        finally:
            stop.set()
            if other.is_alive():
                other.join()
        assert repr(got) == repr(self.TRACES["disk"](iter(snaps)))
        me = str(os.getpid())
        assert log.read_text().splitlines() == [f"{me} read {i}" for i in range(len(snaps))]

    @pytest.mark.parametrize("end", ["return", "parent's error", "child's error", "close"])
    def test_no_child_outlives_the_trace(self, end):
        # the fixture checks that no child is left, running or unreaped, and no
        # file descriptor open
        snaps = edge_snapshots()
        flat = Field(EDGE_GRID, np.zeros(EDGE_GRID.shape))
        if end == "return":
            self.TRACES["disk"](snaps)
        elif end == "close":
            work = partial(concentration._square_rows, 3.0, 1.0, concentration.KernelSpectra())
            traced = concentration._traced_in_order(snaps, lambda t0: work)
            assert next(traced)[0] == snaps[0][0]
            traced.close()
        else:
            i = 1 if end == "parent's error" else 6
            snaps[i] = snaps[i][0], flat
            with pytest.raises(DomainError, match="gradient-free"):
                self.TRACES["disk"](snaps)


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
                snaps, c_side=side, t_star=1.0, eta=0.1
            )
            bound = 1e-3 * (records[0].window.size + g.dx)
            assert summary.max_sqrt_mass <= bound * (1 + 1e-12)
            norms.append(summary.max_sqrt_mass)
        assert norms == sorted(norms, reverse=True)

    def test_late_snapshots_skipped(self, ground_state_256):
        r = ground_state_256.profile
        snaps = [(-1.0, eval_pc_blowup(r, -1.0, r.grid)), (0.2, eval_standing_wave(r, 0.2))]
        records, summary = square_concentration_trace(snaps, c_side=3.0, t_star=0.0, eta=0.1)
        assert summary.skipped_times == [0.2]
        assert len(records) == 1

    def test_all_skipped_rejected(self, ground_state_256):
        r = ground_state_256.profile
        snaps = [(0.2, eval_standing_wave(r, 0.2))]
        with pytest.raises(DomainError):
            square_concentration_trace(snaps, c_side=3.0, t_star=0.0, eta=0.1)
