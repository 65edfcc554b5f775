"""Ground-state solver and sharp-constant tests.

The gamma -> 0 limit is checked against an independent radial shooting
oracle for the cubic focusing profile; its output is frozen below and the
oracle itself is re-run to guard the frozen number.
"""

import warnings
from collections import deque

import numpy as np
import pytest

from dsbu import Field, Grid2D, OperatorParams, energy, gradient_norm_sq, mass, quartic_term
from dsbu import ground_state
from dsbu.errors import DomainError, NonConvergenceError, UsageError
from dsbu.ground_state import GroundStateConfig, solve_ground_state
from dsbu.spectral import Quarter, interaction_potential

from oracles import reference_ground_state, townes_mass
from test_evolution import FFTCounter

# Frozen from oracles.townes_mass() (radial shooting, rtol 1e-11): the
# profile peaks at 2.2062008646 and carries squared L2 norm:
TOWNES_MASS = 11.70089652544347

# Regression anchor, not a truth claim: mass of the computed gamma = 1
# branch on (256, 20). No independent reference value exists.
GAMMA1_MASS_ANCHOR = 7.69295653


class TestSolver:
    def test_converges_with_small_residual(self, ground_state_256):
        gs = ground_state_256
        assert gs.residual <= 1e-10
        assert gs.iterations < 2000
        assert gs.residual_history[-1] <= 1e-10

    def test_residual_is_physical_space_residual(self, ground_state_256, params_focusing):
        # the Parseval residual reported for the returned profile against
        # dx * ||Lap R - R + L(R^2) R|| evaluated on the grid
        gs = ground_state_256
        g = gs.profile.grid
        r = gs.profile.values.real
        lap = np.fft.ifft2(-g.ksq * np.fft.fft2(r)).real
        physical = g.dx * np.linalg.norm(
            lap - r + interaction_potential(r * r, g, params_focusing) * r
        )
        assert abs(gs.residual - physical) <= 1e-13
        assert len(gs.residual_history) == gs.iterations
        assert gs.residual == gs.residual_history[-1]

    def test_profile_positive_everywhere(self, ground_state_256):
        values = ground_state_256.profile.values.real
        assert values.min() > 0.0

    def test_profile_peak_centered(self, ground_state_256):
        g = ground_state_256.profile.grid
        peak = np.unravel_index(
            np.argmax(ground_state_256.profile.values.real),
            (g.n, g.n),
        )
        assert peak == (g.n // 2, g.n // 2)

    def test_c_opt_is_two_over_mass(self, ground_state_256):
        gs = ground_state_256
        assert gs.c_opt == pytest.approx(2.0 / mass(gs.profile), rel=1e-14)

    def test_sharpness_ratio_matches_c_opt(self, ground_state_256, params_focusing):
        # equality in the interaction inequality at the optimizer; the
        # box correction at (256, 20) sits below 1e-4
        gs = ground_state_256
        assert abs(gs.sharpness_ratio - gs.c_opt) / gs.c_opt <= 1e-4

    def test_energy_vanishes_at_optimizer(self, ground_state_256, params_focusing):
        gs = ground_state_256
        e = energy(gs.profile, params_focusing)
        assert abs(e) <= 1e-4 * gradient_norm_sq(gs.profile)

    def test_reflection_symmetry_both_axes(self, ground_state_256):
        r = ground_state_256.profile.values.real
        norm = np.linalg.norm(r)
        for axis in (0, 1):
            mirrored = np.roll(np.flip(r, axis=axis), 1, axis=axis)
            assert np.linalg.norm(r - mirrored) <= 1e-6 * norm

    def test_townes_limit_mass(self):
        oracle_mass, oracle_peak = townes_mass(shoot_tol=1e-10)
        assert oracle_mass == pytest.approx(TOWNES_MASS, rel=1e-6)
        assert oracle_peak == pytest.approx(2.2062008646, rel=1e-6)
        gs = solve_ground_state(Grid2D(256, 20.0), OperatorParams(1, 1e-12))
        assert mass(gs.profile) == pytest.approx(TOWNES_MASS, rel=5e-3)

    def test_gamma1_mass_regression_anchor(self, ground_state_256):
        assert mass(ground_state_256.profile) == pytest.approx(
            GAMMA1_MASS_ANCHOR, rel=1e-6
        )
        # the two branches genuinely differ
        assert abs(mass(ground_state_256.profile) - TOWNES_MASS) > 1.0

    def test_defocusing_sign_rejected(self):
        with pytest.raises(DomainError):
            solve_ground_state(Grid2D(64, 20.0), OperatorParams(-1, 1.0))

    def test_nonconvergence_carries_history(self):
        cfg = GroundStateConfig(tol=1e-30, max_iter=5)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_ground_state(Grid2D(64, 20.0), OperatorParams(1, 1.0), cfg)
        assert len(excinfo.value.residual_history) == 5

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(UsageError, match="tol must be positive"):
            GroundStateConfig(tol=tol)

    @pytest.mark.parametrize("amplitude", [0.0, np.inf, -np.inf, np.nan])
    def test_zero_or_non_finite_init_amplitude_rejected(self, amplitude):
        with pytest.raises(UsageError, match="init_amplitude must be nonzero and finite"):
            GroundStateConfig(init_amplitude=amplitude)
        assert GroundStateConfig(init_amplitude=-2.0).init_amplitude == -2.0

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(UsageError, match="max_iter"):
            GroundStateConfig(max_iter=max_iter)


#: Absolute rounding floor of a residual entry, about 16 ulp of ||R||_2 = 2.77:
#: the residual is a Parseval norm of N_hat - (1 + |xi|^2) R_hat, whose terms
#: cancel to 1e-10 near convergence, so two loops that round differently
#: agree on it to a few ulp of those terms, not to a relative 1e-6 of it
#: (measured: 6.4e-15 at n = 256, 4.9e-15 beyond 1e-6 relative).
RESIDUAL_FLOOR = 1e-14


#: Relative agreement of the accelerated and the plain loop's fixed points. Both
#: stop at a residual below 1e-10 at different iterates, so they agree to the
#: order of that residual, not to roundoff (measured: profile 3.3e-12 of its
#: peak, c_opt 4.6e-12, sharpness_ratio 4.4e-16 at n = 128 and 256).
FIXED_POINT_RTOL = 1e-10


class TestQuarterSolve:
    """The quarter loop against the full-grid loop of ``oracles.reference_ground_state``."""

    @pytest.mark.parametrize("n", [128, 256])
    def test_matches_full_grid_oracle(self, n, params_focusing):
        # Anderson mixing takes other iterates than the plain map, to the same
        # fixed point; its first step has no history, so it is the plain map's.
        grid = Grid2D(n, 20.0)
        got = solve_ground_state(grid, params_focusing)
        want = reference_ground_state(grid, params_focusing)
        assert got.iterations < want.iterations
        r, r_ref = got.profile.values.real, want.profile.values.real
        assert np.abs(r - r_ref).max() <= FIXED_POINT_RTOL * np.abs(r_ref).max()
        assert got.c_opt == pytest.approx(want.c_opt, rel=FIXED_POINT_RTOL, abs=0)
        assert got.sharpness_ratio == pytest.approx(
            want.sharpness_ratio, rel=FIXED_POINT_RTOL, abs=0)
        res, ref = got.residual_history[0], want.residual_history[0]
        assert abs(res - ref) <= 1e-6 * ref + RESIDUAL_FLOOR, (res, ref)

    def test_profile_is_even_and_real(self, ground_state_256):
        values = ground_state_256.profile.values
        assert Quarter.holds(values)
        assert not values.imag.any()

    def test_nonconvergence_history_matches_oracle(self, params_focusing):
        grid, cfg = Grid2D(64, 20.0), GroundStateConfig(tol=1e-30, max_iter=5)
        with pytest.raises(NonConvergenceError, match="no convergence after 5") as got:
            solve_ground_state(grid, params_focusing, cfg)
        with pytest.raises(NonConvergenceError) as want:
            reference_ground_state(grid, params_focusing, cfg)
        got_history, want_history = got.value.residual_history, want.value.residual_history
        assert len(got_history) == len(want_history) == 5
        assert got_history[0] == pytest.approx(want_history[0], rel=1e-12)

    def test_nonpositive_quotient_on_the_quarter(self, params_focusing):
        # r * r underflows to zero, so N = L(r^2) r and the quotient's denominator vanish
        cfg = GroundStateConfig(init_amplitude=1e-200)
        for solve in (solve_ground_state, reference_ground_state):
            with pytest.raises(NonConvergenceError, match="nonpositive quotient") as exc:
                solve(Grid2D(64, 20.0), params_focusing, cfg)
            assert exc.value.residual_history == []

    def test_overflowing_quotient_stops_at_the_first_sweep(self, params_focusing):
        # r * r * r overflows, so the quotient is not finite: the loop stops at
        # once rather than running every sweep on NaN, and the typed error is
        # all a caller sees (``dsbu ground-state`` prints no numpy warning)
        cfg = GroundStateConfig(init_amplitude=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="nonpositive quotient") as exc:
                solve_ground_state(Grid2D(64, 20.0), params_focusing, cfg)
        assert len(exc.value.residual_history) <= 1

    def test_fft_budget_per_iteration(self, monkeypatch, params_focusing):
        # Four quarter transforms of the real pair per iteration (r from its kept
        # spectrum, the pair inside L and N), each two real passes of n/2+1 lines,
        # 1/2 of (n/2+1)/n FFT-equivalents, and one for the initial spectrum; the
        # full grid's complex loop takes 4.
        counter = FFTCounter(monkeypatch)
        grid = Grid2D(64, 20.0)
        counts = []
        for max_iter in (5, 6):
            before = counter.total
            with pytest.raises(NonConvergenceError):
                solve_ground_state(grid, params_focusing,
                                   GroundStateConfig(tol=1e-30, max_iter=max_iter))
            counts.append(counter.total - before)
        c = (grid.n // 2 + 1) / grid.n
        assert counts[1] - counts[0] == pytest.approx(4 * 0.5 * c, rel=1e-12)
        assert counts[0] == pytest.approx((1 + 5 * 4 + 3) * 0.5 * c, rel=1e-12)


class TestAndersonMixing:
    """The accelerated loop's safeguard: a degenerate or failing history gives the plain step."""

    def test_converges_in_at_most_twenty_iterations(self, ground_state_256):
        assert ground_state_256.iterations <= 20

    def test_degenerate_history_takes_the_plain_step(self, monkeypatch, params_focusing):
        # with every history refused the loop is the plain map of the oracle
        monkeypatch.setattr(ground_state, "_mixing_coefficients", lambda q, d_f, f: None)
        grid = Grid2D(128, 20.0)
        got = solve_ground_state(grid, params_focusing)
        want = reference_ground_state(grid, params_focusing)
        assert got.residual < 1e-10
        assert got.iterations == want.iterations
        assert got.safeguarded_steps == got.iterations - 1
        r, r_ref = got.profile.values.real, want.profile.values.real
        assert np.abs(r - r_ref).max() <= 1e-13 * np.abs(r_ref).max()
        for res, ref in zip(got.residual_history, want.residual_history):
            assert abs(res - ref) <= 1e-6 * ref + RESIDUAL_FLOOR, (res, ref)

    def test_collinear_or_vanishing_differences_are_degenerate(self):
        q = Quarter(Grid2D(32, 20.0))
        rng = np.random.default_rng(3)
        a, f = rng.standard_normal(q.shape), rng.standard_normal(q.shape)
        assert ground_state._mixing_coefficients(q, deque([a, 2.0 * a]), f) is None
        assert ground_state._mixing_coefficients(q, deque([np.zeros(q.shape)]), f) is None
        assert ground_state._mixing_coefficients(q, deque([a, np.full(q.shape, np.nan)]), f) is None

    def test_coefficients_are_the_full_grid_least_squares(self):
        # the quarter-weighted normal equations solve the least squares of the unfolded arrays
        grid = Grid2D(32, 20.0)
        q = Quarter(grid)
        rng = np.random.default_rng(5)
        d_f = deque(rng.standard_normal(q.shape) for _ in range(ground_state.ANDERSON_DEPTH))
        f = rng.standard_normal(q.shape)
        full = lambda a: Quarter.unfold(a, np.empty(grid.shape)).ravel()
        want = np.linalg.lstsq(np.stack([full(a) for a in d_f], axis=1), full(f), rcond=None)[0]
        np.testing.assert_allclose(ground_state._mixing_coefficients(q, d_f, f), want, rtol=1e-10)

    def test_growing_residual_drops_the_history(self, monkeypatch, params_focusing):
        # one extrapolation blown up 20-fold raises the residual: the next step
        # is plain, without consulting the history, and the loop still converges
        solve = ground_state._mixing_coefficients
        calls = []

        def overshoot_once(q, d_f, f):
            calls.append(len(d_f))
            gamma = solve(q, d_f, f)
            return [20.0 * c for c in gamma] if len(calls) == 4 else gamma

        monkeypatch.setattr(ground_state, "_mixing_coefficients", overshoot_once)
        grid = Grid2D(64, 20.0)
        got = solve_ground_state(grid, params_focusing)
        history = got.residual_history
        rises = [k for k in range(1, len(history)) if history[k] > history[k - 1]]
        assert rises == [4]
        assert got.safeguarded_steps == 1
        assert len(calls) == got.iterations - 2  # none before any history, none at the rise
        assert calls[4] == 1  # the history restarts from one difference
        assert got.residual < 1e-10
        want = reference_ground_state(grid, params_focusing)
        assert got.c_opt == pytest.approx(want.c_opt, rel=FIXED_POINT_RTOL, abs=0)


def sharp_ratio(u, gs, p):
    """The interaction quotient over its sharp bound: quartic / (c_opt * grad * mass)."""
    return quartic_term(u, p) / (gs.c_opt * gradient_norm_sq(u) * mass(u))


class TestSharpInequality:
    def test_optimizer_saturates(self, ground_state_256, params_focusing):
        ratio = sharp_ratio(ground_state_256.profile, ground_state_256, params_focusing)
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_strictly_below(self, ground_state_256, params_focusing):
        g = ground_state_256.profile.grid
        x1, x2 = g.coords()
        trial = Field(g, np.exp(-(x1**2 + x2**2) / 2))
        assert 0.0 < sharp_ratio(trial, ground_state_256, params_focusing) < 1.0

    def test_phase_tilt_decreases_ratio(self, ground_state_256, params_focusing):
        gs = ground_state_256
        g = gs.profile.grid
        x1, _ = g.coords()
        a = 2 * np.pi * 4 / g.box_length
        tilted = Field(g, gs.profile.values * np.exp(1j * a * x1))
        assert quartic_term(tilted, params_focusing) == pytest.approx(
            quartic_term(gs.profile, params_focusing), rel=1e-12
        )
        base = sharp_ratio(gs.profile, gs, params_focusing)
        assert sharp_ratio(tilted, gs, params_focusing) < base

    def test_ratio_scale_invariance(self, ground_state_256, params_focusing):
        gs = ground_state_256
        g = gs.profile.grid
        x1, x2 = g.coords()
        trial = Field(g, (1.1 + 0.4j) * np.exp(-(x1**2 + x2**2) / 1.7))
        base = sharp_ratio(trial, gs, params_focusing)
        scaled_amp = Field(g, 3.7 * trial.values)
        assert sharp_ratio(scaled_amp, gs, params_focusing) == pytest.approx(base, rel=1e-10)
        rho = 2.0
        dil_grid = Grid2D(g.n, g.box_length / rho)
        dilated = Field(dil_grid, rho * trial.values)
        assert sharp_ratio(dilated, gs, params_focusing) == pytest.approx(base, rel=1e-10)

    def test_random_battery_stays_below_one(self, ground_state_256, params_focusing):
        g = ground_state_256.profile.grid
        x1, x2 = g.coords()
        envelope = np.exp(-(x1**2 + x2**2) / 8)
        rng = np.random.default_rng(17)
        for _ in range(10):
            vals = envelope * (
                rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
            )
            ratio = sharp_ratio(Field(g, vals), ground_state_256, params_focusing)
            assert ratio <= 1.0 + 1e-6
