"""Closed-form solution evaluation and equation-residual tests."""

import numpy as np
import pytest

from dsbu import Field, Grid2D, gradient_norm_sq, mass
from dsbu.errors import DomainError, ResolutionError
from dsbu.exact import (
    eval_pc_blowup,
    eval_standing_wave,
    pde_residual,
)


def reflect(values):
    out = values
    for axis in (0, 1):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


class TestStandingWave:
    def test_t_zero_is_profile(self, ground_state_256):
        r = ground_state_256.profile
        out = eval_standing_wave(r, 0.0)
        np.testing.assert_array_equal(out.values, r.values)

    def test_t_pi_is_negated(self, ground_state_256):
        r = ground_state_256.profile
        out = eval_standing_wave(r, np.pi)
        assert np.max(np.abs(out.values + r.values)) <= 1e-12 * np.abs(r.values).max()

    def test_mass_invariant(self, ground_state_256):
        r = ground_state_256.profile
        m = mass(r)
        for t in (0.3, 1.7, 12.0):
            assert mass(eval_standing_wave(r, t)) == pytest.approx(m, rel=1e-13)


class TestPcBlowup:
    def test_t_minus_one_phase_and_reflection(self, ground_state_256):
        r = ground_state_256.profile
        out = eval_pc_blowup(r, -1.0, r.grid)
        x1, x2 = r.grid.coords()
        expected = np.exp(-1j * (x1**2 + x2**2) / 4 + 1j) * reflect(r.values)
        assert np.max(np.abs(out.values - expected)) <= 1e-11 * np.abs(r.values).max()

    def test_mass_invariance_on_matched_grids(self, ground_state_256):
        r = ground_state_256.profile
        m = mass(r)
        for t in (-1.0, -0.5, -0.25):
            target = Grid2D(r.grid.n, r.grid.box_length * abs(t))
            assert abs(mass(eval_pc_blowup(r, t, target)) - m) <= 1e-8 * m

    def test_gradient_growth_with_bounded_phase_correction(self, ground_state_256):
        # grad(t) = ||grad R||^2 / t^2 + (second moment of R^2)/4; deep in
        # the blow-up regime the constant term is a 5% correction at most
        r = ground_state_256.profile
        values = []
        for t in (-0.2, -0.1, -0.05):
            target = Grid2D(r.grid.n, r.grid.box_length * abs(t))
            values.append(gradient_norm_sq(eval_pc_blowup(r, t, target)) * t**2)
        assert max(values) - min(values) <= 0.05 * min(values)

    def test_gradient_log_log_slope(self, ground_state_256):
        r = ground_state_256.profile
        ts = -np.geomspace(0.02, 0.2, 10)
        grads = [
            gradient_norm_sq(
                eval_pc_blowup(r, float(t), Grid2D(r.grid.n, r.grid.box_length * abs(t)))
            )
            for t in ts
        ]
        slope = np.polyfit(np.log(1 / np.abs(ts)), np.log(grads), 1)[0]
        assert abs(slope - 2.0) <= 0.05

    def test_resolution_guard(self, ground_state_256):
        r = ground_state_256.profile
        with pytest.raises(ResolutionError) as excinfo:
            eval_pc_blowup(r, -0.5, r.grid)
        assert excinfo.value.min_abs_t == pytest.approx(1.0)
        fine = Grid2D(r.grid.n, r.grid.box_length / 4)
        eval_pc_blowup(r, -0.5, fine)  # dx_target = dx/4 <= 0.5 dx: admissible

    def test_validity_interval(self, ground_state_256):
        r = ground_state_256.profile
        for t in (-1.5, 0.0, 0.2):
            with pytest.raises(DomainError):
                eval_pc_blowup(r, t, r.grid)


class TestPdeResidual:
    def test_standing_wave_residual_small(self, ground_state_256, params_focusing):
        r = ground_state_256.profile
        h = 1e-4
        slices = [eval_standing_wave(r, 1.0 + k * h) for k in (-1, 0, 1)]
        res = pde_residual(slices[0], slices[1], slices[2], h, params_focusing)
        assert res <= 1e-6

    def test_h_squared_convergence(self, ground_state_256, params_focusing):
        r = ground_state_256.profile
        res = {}
        for h in (1e-2, 1e-3):
            slices = [eval_standing_wave(r, 1.0 + k * h) for k in (-1, 0, 1)]
            res[h] = pde_residual(slices[0], slices[1], slices[2], h, params_focusing)
        assert res[1e-2] / res[1e-3] == pytest.approx(100.0, rel=0.05)

    def test_pc_solution_residual(self, ground_state_256, params_focusing):
        # box-edge phase seam limits the floor on this small source grid;
        # the acceptance suite checks the 1e-4 level on a deeper-tail source
        r = ground_state_256.profile
        t, h = -0.5, 1e-5
        target = Grid2D(r.grid.n, r.grid.box_length * (abs(t) - 2 * h))
        slices = [eval_pc_blowup(r, t + k * h, target) for k in (-1, 0, 1)]
        res = pde_residual(slices[0], slices[1], slices[2], h, params_focusing)
        assert res <= 5e-2

    def test_corrupted_field_detected(self, ground_state_256, params_focusing):
        r = ground_state_256.profile
        h = 1e-4
        slices = [eval_standing_wave(r, 1.0 + k * h) for k in (-1, 0, 1)]
        bad = Field(r.grid, slices[1].values * 1.01)
        res = pde_residual(slices[0], bad, slices[2], h, params_focusing)
        assert res > 1e-2

    def test_rejects_bad_h_and_zero_center(self, ground_state_256, params_focusing):
        r = ground_state_256.profile
        u = eval_standing_wave(r, 0.0)
        with pytest.raises(DomainError):
            pde_residual(u, u, u, 0.0, params_focusing)
        zero = Field(r.grid, np.zeros((r.grid.n, r.grid.n)))
        with pytest.raises(DomainError):
            pde_residual(u, zero, u, 1e-4, params_focusing)
