"""Closed-form reference solutions used as oracles.

Two families are evaluated pointwise, never by time stepping:

* the standing wave R(x) e^{it}, and
* its pseudo-conformal image

      e^{+i|x|^2/(4t) - i/t} (1/|t|) R(x/t),   t in [-1, 0),

  the minimal-mass blow-up solution: mass is t-independent and the gradient
  norm grows like 1/|t| as t -> 0. The quadratic phase carries the sign of
  the free propagator e^{i|x|^2/4t} (the one satisfying the eikonal identity
  phase_t + |grad phase|^2 = 0); the equation residual diagnostic below
  verifies the choice directly.

``pde_residual`` measures how well three time slices satisfy the equation
i u_t + Lap u + L(|u|^2) u = 0 with a centered difference in time and the
spectral Laplacian in space; exact solutions sit at the h^2 + discretization
floor, corrupted fields do not.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GridMismatchError, ResolutionError
from .spectral import (
    Field,
    Grid2D,
    OperatorParams,
    density,
    interaction_potential,
    sample_scaled,
)


def eval_standing_wave(profile: Field, t: float) -> Field:
    """Standing wave profile * e^{it} on the profile's own grid."""
    return Field(profile.grid, profile.values * np.exp(1j * t))


def eval_pc_blowup(profile: Field, t: float, target_grid: Grid2D) -> Field:
    """Minimal-mass blow-up snapshot at time t in [-1, 0) on a target grid.

    The rescaled profile R(x/t) is sampled by band-limited interpolation, so
    the target grid must resolve it: dx_target <= |t| * dx_profile. A grid
    with box_length = |t| * profile box and the same n hits that bound
    exactly and makes the mass quadrature exact.
    """
    if not (-1.0 <= t < 0.0):
        raise DomainError(f"pseudo-conformal snapshot needs t in [-1, 0), got {t}")
    min_abs_t = target_grid.dx / profile.grid.dx
    if abs(t) < min_abs_t * (1 - 1e-12):
        raise ResolutionError(
            f"target grid too coarse at t={t}: needs |t| >= {min_abs_t:.6g} "
            f"(dx_target <= |t| * dx_profile)",
            min_abs_t,
        )
    rescaled = sample_scaled(profile, target_grid, 1.0 / t)
    x1, x2 = target_grid.coords()
    phase = np.exp(1j * (x1**2 + x2**2) / (4 * t) - 1j / t)
    return Field(target_grid, phase * rescaled / abs(t))


def pde_residual(
    u_minus: Field,
    u_center: Field,
    u_plus: Field,
    h: float,
    p: OperatorParams,
) -> float:
    """Relative equation residual from three time slices spaced by h.

    Returns ||i (u(t+h) - u(t-h)) / 2h + Lap u(t) + L(|u(t)|^2) u(t)||_2
    normalized by ||u(t)||_2.
    """
    if u_minus.grid != u_center.grid or u_plus.grid != u_center.grid:
        raise GridMismatchError("time slices live on different grids")
    if not h > 0:
        raise DomainError(f"slice spacing must be positive, got h={h}")
    grid = u_center.grid
    uc = u_center.values
    du_dt = (u_plus.values - u_minus.values) / (2 * h)
    lap = np.fft.ifft2(-grid.ksq * np.fft.fft2(uc))
    nonlin = interaction_potential(density(uc), grid, p) * uc
    num = np.linalg.norm(1j * du_dt + lap + nonlin)
    den = np.linalg.norm(uc)
    if den == 0.0:
        raise DomainError("center slice is identically zero")
    return float(num / den)
