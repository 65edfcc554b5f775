"""Positive standing-wave profiles and the sharp interaction constant.

The profile R solves the lattice Euler-Lagrange equation

    Lap R - R + L(R^2) R = 0,

computed by spectral renormalization: iterate on the Fourier side

    R_hat <- S^(3/2) * F[L(R^2) R] / (1 + |xi|^2),

where S is the Rayleigh-type quotient <(1+|xi|^2) R_hat, R_hat> /
<F[L(R^2) R], R_hat>; the stabilization exponent 3/2 = p/(p-1) for the cubic
degree p = 3 makes the nontrivial fixed point attracting. Convergence is
certified by the equation residual, not by iterate differences; the residual
comes by Parseval from the spectra that the update uses.

This map G converges linearly (45 iterations at n = 512), so the loop
accelerates it by type-II Anderson mixing of depth m = ``ANDERSON_DEPTH`` = 3
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011): with f = G(r) - r and dF_j,
dG_j the differences of f and of G(r) between the last m + 1 iterates, the
next iterate is G(r) - sum_j gamma_j dG_j, where gamma minimizes
||f - sum_j gamma_j dF_j||. The loop keeps r_hat from sweep to sweep and
mixes spectra, so the step costs no transform; by Parseval their weighted
inner products are the fields' times one constant, so gamma is unchanged.
Safeguard: when the differences are nearly collinear or not finite, or the
residual grew, the history is dropped and the step is the plain G(r), as the
first step is; the result counts these steps. The residual certifies the
returned iterate however it was reached.

The iterate is real and even in x1 and in x2 (the initial Gaussian is, and
the map keeps it: |xi|^2 and the symbol of B are even in each component of
xi), so the loop runs on its quarter, indices 0..n/2 of each axis, through
``spectral.Quarter``: the real pair of transforms, and quarter sums weighted
1 at indices 0 and n/2 and 2 elsewhere for the sums. A sweep makes 4 real
quarter transforms: r from r_hat, the pair inside L(r^2), and N = L(r^2) r.
The profile is unfolded to the full grid once, at the end.

The converged profile optimizes the interaction inequality

    integral L(|u|^2)|u|^2 <= C_opt * ||grad u||_2^2 * ||u||_2^2

with C_opt = 2 / mass(R). Uniqueness of the positive profile is open, so
C_opt is defined operationally from the computed branch; the report's
``sharpness_ratio`` is the quotient at R, which matches C_opt there.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError, UsageError
from .spectral import (
    Field,
    FieldTerms,
    Grid2D,
    OperatorParams,
    Quarter,
    density,
    interaction_potential,
)

#: Anderson depth: the number of kept differences of G(r) and of G(r) - r.
ANDERSON_DEPTH = 3
#: Smallest accepted squared sine between a difference of f and the span of the earlier ones.
ANDERSON_MIN_SINE_SQ = 1e-10


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
    Parseval from the spectra of R and L(R^2) R that the update uses;
    ``residual_history`` holds it after each of the ``iterations`` updates,
    and ``residual`` is its last entry. ``mass`` is that of R, and ``c_opt``
    equals 2/``mass`` by construction; ``sharpness_ratio`` is the interaction
    quotient quartic / (grad * mass), which matches c_opt at the optimizer.
    ``safeguarded_steps`` counts the updates where the safeguard dropped the
    Anderson history and took the plain map step.
    """

    profile: Field
    mass: float
    c_opt: float
    residual: float
    iterations: int
    sharpness_ratio: float
    residual_history: list = field(repr=False)
    safeguarded_steps: int


def _mixing_coefficients(q: Quarter, d_f: deque, f: np.ndarray) -> list[float] | None:
    """The gamma minimizing ||f - sum_j gamma_j d_f[j]||, or None for a degenerate history.

    Cholesky-solves the normal equations of the quarter-weighted inner
    products, in plain floats: numpy.linalg would have the BLAS set up its
    buffers, about 1.2 MiB of resident memory, for an m x m system. Pivot j
    over gram[j][j] is the squared sine between d_f[j] and the span of the
    earlier differences; the history is degenerate when one falls below
    ``ANDERSON_MIN_SINE_SQ`` or is not finite.
    """
    m = len(d_f)
    gram = [[q.total(a * b) for b in d_f] for a in d_f]
    low = [[0.0] * m for _ in range(m)]  # gram = low low^T
    for j in range(m):
        pivot = gram[j][j] - sum(low[j][k] ** 2 for k in range(j))
        if not ANDERSON_MIN_SINE_SQ * gram[j][j] < pivot < math.inf:
            return None
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
    y = [0.0] * m  # low y = rhs
    for i, a in enumerate(d_f):
        y[i] = (q.total(a * f) - sum(low[i][k] * y[k] for k in range(i))) / low[i][i]
    gamma = [0.0] * m  # low^T gamma = y
    for i in reversed(range(m)):
        gamma[i] = (y[i] - sum(low[k][i] * gamma[k] for k in range(i + 1, m))) / low[i][i]
    return gamma


class _AndersonMixing:
    """Type-II Anderson mixing of depth ``ANDERSON_DEPTH`` with its safeguard (module docstring).

    ``d_f`` and ``d_g`` hold the differences of f = G(r) - r and of G(r)
    between successive iterates; ``safeguarded`` counts the plain steps taken
    in place of a mixing step.
    """

    def __init__(self, q: Quarter):
        self.q = q
        self.d_f: deque = deque(maxlen=ANDERSON_DEPTH)
        self.d_g: deque = deque(maxlen=ANDERSON_DEPTH)
        self.f_prev = self.g_prev = None
        self.safeguarded = 0

    def next_iterate(self, r: np.ndarray, g: np.ndarray, residuals: list[float]) -> np.ndarray:
        """The iterate after r, given g = G(r) and the residuals up to r's."""
        grew = len(residuals) > 1 and residuals[-1] > residuals[-2]
        f = g - r
        if self.f_prev is not None:
            self.d_f.append(f - self.f_prev)
            self.d_g.append(g - self.g_prev)
        self.f_prev, self.g_prev = f, g
        gamma = None if grew or not self.d_f else _mixing_coefficients(self.q, self.d_f, f)
        if gamma is None:
            self.safeguarded += bool(self.d_f)
            self.d_f.clear()
            self.d_g.clear()
            return g
        return g - sum(c * dg for c, dg in zip(gamma, self.d_g))


def solve_ground_state(
    grid: Grid2D,
    p: OperatorParams,
    cfg: GroundStateConfig | None = None,
) -> GroundStateResult:
    """Compute the positive even-symmetric profile on the given grid.

    Requires the focusing sign nu = +1; the grid should contain the profile
    comfortably (box_length >= 20 and n >= 256 are safe defaults). The
    iterate r lives on the quarter of the grid (``spectral.Quarter``), where
    the initial Gaussian is built, so it is even by construction for any box.
    Each sweep forms r from its kept spectrum r_hat and transforms
    N = L(r^2) r with the quarter's real pair; the quotient, the map G(r)
    and the Parseval residual dx/n * ||N_hat - (1 + |xi|^2) r_hat|| of r all
    come from r_hat and N_hat, summed with the quarter's weights, and the
    Anderson step mixes G(r) with the kept differences, all spectra. The
    report's terms (mass, gradient and quartic) are those of the converged r
    on the quarter, and r is then unfolded to the n x n profile; the loop's
    arrays and the mixing history are freed first, and the grid's n x n
    multipliers are never built. Raises NonConvergenceError with the
    residual history if the residual is not below ``cfg.tol`` within
    ``cfg.max_iter`` updates, or at the first sweep whose quotient is not a
    finite positive number.
    """
    cfg = cfg or GroundStateConfig()
    if p.nu != 1:
        raise DomainError("ground state requires the focusing sign nu = +1")

    q = grid.quarter
    r = cfg.init_amplitude * np.exp(-(q.x[:, None] ** 2 + q.x**2) / 2)
    denom = 1.0 + q.k[:, None] ** 2 + q.k**2
    history: list[float] = []
    mixing = _AndersonMixing(q)

    rhat = q.rfft(r)
    for iteration in range(cfg.max_iter + 1):
        nhat = q.rfft(interaction_potential(r * r, q, p) * r)
        if iteration > 0:
            defect = q.total(density(nhat - denom * rhat))
            history.append(grid.dx / grid.n * float(np.sqrt(defect)))
            if history[-1] < cfg.tol:
                break
        if iteration == cfg.max_iter:
            raise NonConvergenceError(
                f"no convergence after {cfg.max_iter} iterations "
                f"(last residual {history[-1]:.3e})",
                history,
            )
        s_num = float(q.total(denom * density(rhat)))
        s_den = float(q.total(nhat * rhat))
        s = s_num / s_den if s_den > 0.0 else 0.0
        if not 0.0 < s < math.inf:
            raise NonConvergenceError(
                "spectral renormalization degenerated (nonpositive quotient, or not finite)",
                history,
            )
        nhat *= s**1.5
        nhat /= denom
        rhat = mixing.next_iterate(rhat, nhat, history)
        r = q.irfft(rhat)

    safeguarded = mixing.safeguarded
    del rhat, nhat, denom, mixing  # the report holds the profile and its own terms only

    # Sign-normalize and recenter the peak at the origin (both are exact
    # symmetries of the lattice equation, so the residual is unchanged). The
    # first maximum of the unfolded field in C order lies on the quarter.
    peak = np.unravel_index(np.argmax(np.abs(r)), r.shape)
    if r[peak] < 0:
        r = -r
    # The report's terms are taken on the quarter; the shift leaves them as they are.
    terms = FieldTerms(r, q)
    m, grad, quartic = terms.mass, terms.grad, terms.quartic(p)
    del terms
    r = Quarter.unfold(r, np.empty(grid.shape, dtype=np.complex128))
    center = grid.n // 2
    r = np.roll(r, (center - peak[0], center - peak[1]), axis=(0, 1))
    return GroundStateResult(
        profile=Field(grid, r),
        mass=m,
        c_opt=2.0 / m,
        residual=history[-1],
        iterations=iteration,
        sharpness_ratio=quartic / (grad * m),
        residual_history=history,
        safeguarded_steps=safeguarded,
    )
