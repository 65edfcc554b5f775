"""Positive standing-wave profiles and the sharp interaction constant.

The profile R solves the lattice Euler-Lagrange equation

    Lap R - R + L(R^2) R = 0,

computed by spectral renormalization: iterate on the Fourier side

    R_hat <- S^(3/2) * F[L(R^2) R] / (1 + |xi|^2),

where S is the Rayleigh-type quotient <(1+|xi|^2) R_hat, R_hat> /
<F[L(R^2) R], R_hat>; the stabilization exponent 3/2 = p/(p-1) for the cubic
degree p = 3 makes the nontrivial fixed point attracting. Convergence is
certified by the equation residual, not by iterate differences; the residual
comes by Parseval from the same two transforms that the update uses.

The converged profile optimizes the interaction inequality

    integral L(|u|^2)|u|^2 <= C_opt * ||grad u||_2^2 * ||u||_2^2

with C_opt = 2 / mass(R). Uniqueness of the positive profile is open, so
C_opt is defined operationally from the computed branch and cross-checked by
``verify_sharp_inequality`` on trial fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonConvergenceError, UsageError
from .spectral import (
    PHYSICAL,
    Field,
    FieldTerms,
    Grid2D,
    OperatorParams,
    interaction_potential,
)


@dataclass(frozen=True)
class GroundStateConfig:
    """Iteration controls for the spectral renormalization loop."""

    tol: float = 1e-10
    max_iter: int = 2000
    init_amplitude: float = 2.0

    def __post_init__(self):
        if not self.tol > 0:
            raise UsageError(f"tol must be positive, got {self.tol}", key="tol")
        if self.max_iter < 1:
            raise UsageError(f"max_iter must be at least 1, got {self.max_iter}", key="max_iter")
        if not 0 < abs(self.init_amplitude) < np.inf:
            msg = f"init_amplitude must be nonzero and finite, got {self.init_amplitude}"
            raise UsageError(msg, key="init_amplitude")


@dataclass
class GroundStateResult:
    """Converged profile with the derived sharp-constant data.

    ``residual`` is the L2 norm of Lap R - R + L(R^2) R, computed by
    Parseval from the transforms of R and L(R^2) R that the update uses;
    ``residual_history`` holds it after each of the ``iterations`` updates,
    and ``residual`` is its last entry. ``c_opt`` equals 2/mass(R) by
    construction; ``sharpness_ratio`` is the interaction quotient
    quartic / (grad * mass), which matches c_opt at the optimizer.
    """

    profile: Field
    c_opt: float
    residual: float
    iterations: int
    sharpness_ratio: float
    residual_history: list = field(default_factory=list, repr=False)


def solve_ground_state(
    grid: Grid2D,
    p: OperatorParams,
    cfg: GroundStateConfig | None = None,
) -> GroundStateResult:
    """Compute the positive even-symmetric profile on the given grid.

    Requires the focusing sign nu = +1; the grid should contain the profile
    comfortably (box_length >= 20 and n >= 256 are safe defaults). Each sweep
    transforms r and N = L(r^2) r once; the quotient, the update and the
    Parseval residual dx/n * ||N_hat - (1 + |xi|^2) r_hat|| of r all come from
    those two transforms. Raises NonConvergenceError with the residual
    history if the residual is not below ``cfg.tol`` within ``cfg.max_iter``
    updates.
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
        peak = np.unravel_index(np.argmax(np.abs(r)), r.shape)
    center = grid.n // 2
    r = np.roll(r, (center - peak[0], center - peak[1]), axis=(0, 1))

    profile = Field(grid, r, PHYSICAL)
    terms = FieldTerms.of(profile)
    grad, m = terms.grad, terms.mass  # the gradient's transform is freed before rho is made
    return GroundStateResult(
        profile=profile,
        c_opt=2.0 / m,
        residual=history[-1],
        iterations=iteration,
        sharpness_ratio=terms.quartic(p) / (grad * m),
        residual_history=history,
    )


class SharpInequalityReport(NamedTuple):
    """Both sides of the interaction inequality for a trial field."""

    lhs: float
    rhs: float
    ratio: float


def verify_sharp_inequality(
    u: Field, gs: GroundStateResult, p: OperatorParams
) -> SharpInequalityReport:
    """Evaluate the interaction inequality on a trial field.

    Returns lhs = integral L(|u|^2)|u|^2, rhs = c_opt * grad * mass and their
    ratio, which lies in (0, 1] up to discretization noise and equals 1 for
    the optimizer itself.
    """
    if p.nu != 1:
        raise DomainError("the sharp inequality is stated for nu = +1")
    terms = FieldTerms.of(u)
    grad, m = terms.grad, terms.mass
    if m == 0.0:
        raise DomainError("trial field is identically zero")
    lhs = terms.quartic(p)
    rhs = gs.c_opt * grad * m
    return SharpInequalityReport(lhs, rhs, lhs / rhs)
