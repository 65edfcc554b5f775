"""Periodic pseudo-spectral core: grid, fields, nonlocal operators, functionals.

The computational domain is the periodic square [-L/2, L/2)^2 sampled on an
n x n lattice, standing in for the plane; validity of that substitution is
monitored through boundary-decay checks on the second moment. Conventions
used throughout the package:

* array axis 0 is x1, axis 1 is x2 (x2 varies fastest in memory),
* wavenumbers are xi_k = 2*pi*k/L in numpy fft ordering,
* the forward transform is the unnormalized ``numpy.fft.fft2``,
* integrals are rectangle-rule quadratures dx^2 * sum, which is spectrally
  accurate for smooth periodic integrands.

The nonlocal operator ``B`` is the Fourier multiplier xi1^2/(xi1^2 + xi2^2).
The symbol has no limit at the origin; the zero mode is assigned the exact
average of the symbol over the origin cell (1/2 by symmetry), which is the
unique constant for which box quadratures of <B w, w> converge to their
plane values at fourth order in 1/box_length instead of second. ``L = nu*I
+ gamma*B`` acts on the real field |u|^2 inside the cubic nonlinearity;
``interaction_potential`` is its one implementation, with real transforms.
``FieldTerms`` is the one implementation of the functionals of a field; the
module-level functionals read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError

PHYSICAL = "physical"
SPECTRAL = "spectral"

#: Relative magnitude of the imaginary part above which a field no longer
#: counts as real-valued input to B and L.
REALITY_TOL = 1e-12

#: Relative boundary amplitude below which the box is considered to contain
#: the field (second-moment validity).
BOUNDARY_DECAY_TOL = 1e-10


class Grid2D:
    """Uniform n x n grid on the periodic square [-L/2, L/2)^2.

    Coordinates are x_i = -L/2 + i*dx with dx = L/n; wavenumbers are
    xi_k = 2*pi*k/L for k in [-n/2, n/2). Coordinate and multiplier arrays
    are precomputed once and read-only, so a grid may be shared freely
    between fields and threads.
    """

    def __init__(self, n: int, box_length: float):
        self.check(n, box_length)
        self.n = int(n)
        self.box_length = float(box_length)
        self.dx = self.box_length / self.n
        self.x = -self.box_length / 2 + self.dx * np.arange(self.n)
        self.k = 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k1_sq = self.k[:, None] ** 2
        self.ksq = k1_sq + self.k[None, :] ** 2
        ksq_safe = self.ksq.copy()
        ksq_safe[0, 0] = 1.0
        self.b_symbol = k1_sq / ksq_safe
        # Zero mode carries the exact origin-cell average of the symbol; any
        # other constant leaves an O(1/L^2) rank-one defect in <B w, w>.
        self.b_symbol[0, 0] = 0.5
        # Grids are shared (snapshot reads on one grid get one object).
        for a in (self.x, self.k, self.ksq, self.b_symbol):
            a.flags.writeable = False

    @staticmethod
    def check(n: int, box_length: float) -> None:
        """The grid rule, n even and >= 8 and box_length finite and > 0; builds no array."""
        if n < 8 or n % 2 != 0:
            raise UsageError(f"grid size must be even and >= 8, got n={n}", key="n")
        if not 0 < box_length < math.inf:
            raise UsageError(
                f"box_length must be positive and finite, got {box_length}", key="box_length"
            )

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) of physical coordinates, 'ij' indexing."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid2D)
            and self.n == other.n
            and self.box_length == other.box_length
        )

    def __hash__(self):
        return hash((self.n, self.box_length))

    def __repr__(self):
        return f"Grid2D(n={self.n}, box_length={self.box_length})"


@dataclass
class Field:
    """Complex samples of a field on a grid, tagged physical or spectral.

    Spectral values follow the unnormalized fft2 convention, so the
    round trip physical -> spectral -> physical is exact to roundoff.
    """

    grid: Grid2D
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise UsageError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if self.space not in (PHYSICAL, SPECTRAL):
            raise UsageError(f"unknown space tag {self.space!r}")

    def to_physical(self) -> "Field":
        if self.space == PHYSICAL:
            return self
        return Field(self.grid, np.fft.ifft2(self.values), PHYSICAL)

    def to_spectral(self) -> "Field":
        if self.space == SPECTRAL:
            return self
        return Field(self.grid, np.fft.fft2(self.values), SPECTRAL)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.space)


@dataclass(frozen=True)
class OperatorParams:
    """Couplings of the nonlocal operator L = nu*I + gamma*B."""

    nu: int
    gamma: float

    def __post_init__(self):
        if self.nu not in (-1, 1):
            raise UsageError(f"nu must be ±1, got {self.nu}", key="nu")
        if not 0 < self.gamma < math.inf:
            raise UsageError(f"gamma must be positive and finite, got {self.gamma}", key="gamma")


def _check_real(values: np.ndarray, what: str) -> None:
    norm = np.linalg.norm(values)
    if norm == 0.0:
        return
    imag = np.linalg.norm(values.imag)
    if imag > REALITY_TOL * norm:
        raise DomainError(
            f"{what} expects a real-valued field; relative imaginary part "
            f"{imag / norm:.3e} exceeds {REALITY_TOL:.0e}"
        )


def _b_action(w_hat: np.ndarray, grid: Grid2D) -> np.ndarray:
    """B w from the half spectrum ``w_hat`` = rfft2(w) of a real w, scaled in place.

    The symbol is even in xi1 and in xi2, so keeping its columns
    0..n/2 with ``rfft2``/``irfft2`` is exact and the result is real.
    """
    w_hat *= grid.b_symbol[:, : grid.n // 2 + 1]
    return np.fft.irfft2(w_hat, s=(grid.n, grid.n))


def _l_from_b(w: np.ndarray, b_w: np.ndarray, p: OperatorParams) -> np.ndarray:
    """L(w) = nu*w + gamma*B w, written over ``b_w`` = B w."""
    b_w *= p.gamma
    if p.nu == 1:  # nu is +1 or -1
        b_w += w
    else:
        b_w -= w
    return b_w


def interaction_potential(w: np.ndarray, grid: Grid2D, p: OperatorParams) -> np.ndarray:
    """L(w) = nu*w + gamma*B w for a real array w; the result is real.

    This is the one kernel for L: the Strang nonlinear phase L(|u|^2), the
    ground-state equation L(R^2) R and the equation residuals all call it,
    and ``FieldTerms.potential`` is the same kernel on a shared half spectrum.
    """
    return _l_from_b(w, _b_action(np.fft.rfft2(w), grid), p)


def apply_b(f: Field) -> Field:
    """Apply the multiplier B with symbol xi1^2/|xi|^2 to a real field.

    Input must be physical and real up to roundoff (B acts on |u|^2 in the
    evolution, which is real); the output is real because the symbol is real
    and even in each wavenumber.
    """
    f = f.to_physical()
    _check_real(f.values, "apply_b")
    return Field(f.grid, _b_action(np.fft.rfft2(f.values.real), f.grid), PHYSICAL)


def apply_l(f: Field, p: OperatorParams) -> Field:
    """Apply L = nu*I + gamma*B to a real field."""
    f = f.to_physical()
    _check_real(f.values, "apply_l")
    return Field(f.grid, interaction_potential(f.values.real, f.grid, p), PHYSICAL)


def density(values: np.ndarray) -> np.ndarray:
    """|u|^2 of complex samples, as re^2 + im^2."""
    rho = np.square(values.real)
    rho += np.square(values.imag)
    return rho


def hamiltonian(grad_sq: float, quartic: float) -> float:
    """Energy from its terms: (1/2) ``gradient_norm_sq`` - (1/4) ``quartic_term``."""
    return 0.5 * grad_sq - 0.25 * quartic


class SecondMoment(NamedTuple):
    """Second-moment value with a boundary-decay validity flag."""

    value: float
    boundary_ok: bool


class FieldTerms:
    """The functionals of one field u, each computed on first use and cached.

    ``values`` are u's physical samples and ``uhat`` its spectrum fft2(u)
    when the caller holds it (``run`` keeps it from step to step); without
    it the gradient transforms u and keeps no spectrum. The density
    rho = re^2 + im^2 gives the mass, sup|u|, the L4 integral and the second
    moment; its half spectrum rfft2(rho), made once, gives the interaction
    term and the potential L(rho); the gradient comes from the spectrum by
    Parseval. These are the package's only formulas for those quantities:
    the functionals below, the records and step boundaries of ``run``, the
    ground-state report and the concentration trace all read them here.
    """

    def __init__(self, values: np.ndarray, grid: Grid2D, uhat: np.ndarray | None = None):
        self.values = values
        self.grid = grid
        self.uhat = uhat

    @classmethod
    def of(cls, u: Field) -> "FieldTerms":
        """The terms of a field; a spectral field's values are its uhat."""
        return cls(u.to_physical().values, u.grid, u.values if u.space == SPECTRAL else None)

    @cached_property
    def rho(self) -> np.ndarray:
        return density(self.values)

    @cached_property
    def rho_half(self) -> np.ndarray:
        """rfft2(rho), shared by the interaction term, L(rho) and windowed masses."""
        return np.fft.rfft2(self.rho)

    @cached_property
    def mass(self) -> float:
        """Squared L2 norm: integral of |u|^2, as dx^2 sum rho."""
        total = self.rho.sum()
        if not np.isfinite(total):
            raise DomainError("mass: field contains non-finite values")
        return float(self.grid.dx**2 * total)

    @cached_property
    def sup(self) -> float:
        return math.sqrt(self.rho.max())

    @cached_property
    def _rho_sq_sum(self) -> float:
        return float(np.sum(np.square(self.rho)))

    @property
    def l4(self) -> float:
        """Integral of |u|^4, as dx^2 sum rho^2."""
        return self.grid.dx**2 * self._rho_sq_sum

    @cached_property
    def grad(self) -> float:
        """Integral of |grad u|^2, as dx^2/n^2 sum |xi|^2 |u_hat|^2.

        |xi|^2 = k1^2 + k2^2 is summed axis by axis against the row and
        column sums of |u_hat|^2, so no n x n weight array is formed.
        """
        g = self.grid
        a = density(np.fft.fft2(self.values) if self.uhat is None else self.uhat)
        k_sq = g.k**2
        return float(g.dx**2 / g.n**2 * (k_sq @ a.sum(axis=1) + k_sq @ a.sum(axis=0)))

    @cached_property
    def second_moment(self) -> SecondMoment:
        """Integral of |x|^2 |u|^2 with centered coordinates, and the boundary flag.

        The value is only meaningful while the field is contained well inside
        the box (|x|^2 is not periodic); ``boundary_ok`` is False once the
        amplitude on the outermost cells exceeds 1e-10 of its maximum. |x|^2 =
        x1^2 + x2^2 is summed axis by axis against the row and column sums of rho.
        """
        g, rho = self.grid, self.rho
        edge = math.sqrt(max(rho[0, :].max(), rho[-1, :].max(), rho[:, 0].max(), rho[:, -1].max()))
        ok = bool(self.sup == 0.0 or edge <= BOUNDARY_DECAY_TOL * self.sup)
        x_sq = g.x**2
        value = float(g.dx**2 * (x_sq @ rho.sum(axis=1) + x_sq @ rho.sum(axis=0)))
        return SecondMoment(value, ok)

    def quartic(self, p: OperatorParams) -> float:
        """Integral of L(rho) rho, as nu*sum rho^2 + gamma*sum m(xi)|rho_hat|^2.

        The form is manifestly real and keeps the gamma part inside
        [0, gamma * integral of |u|^4] (the symbol is bounded by [0, 1]). The
        B part is summed over the half spectrum: each column 1..n/2-1 stands
        for itself and its Hermitian mirror, so it counts twice; columns 0
        and n/2 once.
        """
        g, n = self.grid, self.grid.n
        s = g.b_symbol[:, : n // 2 + 1] * density(self.rho_half)
        b_part = (2.0 * s.sum() - s[:, 0].sum() - s[:, n // 2].sum()) / n**2
        return float(g.dx**2 * (p.nu * self._rho_sq_sum + p.gamma * b_part))

    def energy(self, p: OperatorParams) -> float:
        return hamiltonian(self.grad, self.quartic(p))

    def potential(self, p: OperatorParams) -> np.ndarray:
        """L(rho), from a copy of the shared half spectrum."""
        return _l_from_b(self.rho, _b_action(self.rho_half.copy(), self.grid), p)


def mass(u: Field) -> float:
    """Squared L2 norm: integral of |u|^2 over the box."""
    return FieldTerms.of(u).mass


def gradient_norm_sq(u: Field) -> float:
    """Integral of |grad u|^2, by Parseval from the spectrum of u."""
    return FieldTerms.of(u).grad


def quartic_term(u: Field, p: OperatorParams) -> float:
    """Interaction functional: integral of L(|u|^2) |u|^2."""
    return FieldTerms.of(u).quartic(p)


def energy(u: Field, p: OperatorParams) -> float:
    """Hamiltonian: (1/2) integral |grad u|^2 - (1/4) integral L(|u|^2)|u|^2."""
    return FieldTerms.of(u).energy(p)


def second_moment(u: Field) -> SecondMoment:
    """Integral of |x|^2 |u|^2 with centered coordinates, and its boundary flag."""
    return FieldTerms.of(u).second_moment


def l4_norm_4(u: Field) -> float:
    """Integral of |u|^4 over the box."""
    return FieldTerms.of(u).l4


def sample_scaled(field: Field, target_grid: Grid2D, scale: float) -> np.ndarray:
    """Evaluate the band-limited extension of ``field`` at scale*x on a target grid.

    Returns the trigonometric interpolant of the source samples evaluated at
    the points scale * x_target (scale may be negative). The Nyquist mode is
    symmetrized (split between +/- n/2) so real sources give real values up to
    roundoff; at source grid points the interpolant reproduces the samples
    exactly. Points outside the source box see its periodic extension.
    """
    src = field.to_spectral()
    g = src.grid
    coeff = src.values / g.n**2
    # DFT phases are anchored at the first sample point x0 = -L/2.
    shifted = scale * target_grid.x - g.x[0]
    phase = np.exp(1j * np.outer(shifted, g.k))
    nyq = g.n // 2
    phase[:, nyq] = np.cos(abs(g.k[nyq]) * shifted)
    return phase @ coeff @ phase.T
