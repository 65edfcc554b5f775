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
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError

PHYSICAL = "physical"

#: Relative magnitude of the imaginary part above which a field no longer
#: counts as real-valued input to B and L.
REALITY_TOL = 1e-12

#: Relative boundary amplitude below which the box is considered to contain
#: the field (second-moment validity).
BOUNDARY_DECAY_TOL = 1e-10


class Grid2D:
    """Uniform n x n grid on the periodic square [-L/2, L/2)^2.

    Coordinates are x_i = -L/2 + i*dx with dx = L/n; wavenumbers are
    xi_k = 2*pi*k/L for k in [-n/2, n/2). The 1-D arrays ``x`` and ``k`` are
    built with the grid; on first use ``ksq``, its only n x n multiplier, and
    B's symbol ``b_half`` on the columns that ``rfft`` keeps, neither made for
    a field on its quarter, and ``quarter``, the grid's one ``Quarter``, which
    builds its own symbol. Every array is read-only, so a grid may be shared
    freely between fields. dsbu runs one thread per process, but a grid stays
    safe to read from several threads: ``functools.cached_property`` builds
    each cached value under its lock (Python 3.11), and every build gives the
    same read-only bits.
    """

    def __init__(self, n: int, box_length: float):
        self.check(n, box_length)
        self.n = int(n)
        self.box_length = float(box_length)
        self.dx = self.box_length / self.n
        self.x = -self.box_length / 2 + self.dx * np.arange(self.n)
        self.k = 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        # Grids are shared (snapshot reads on one grid get one object).
        self.x.flags.writeable = self.k.flags.writeable = False

    @cached_property
    def ksq(self) -> np.ndarray:
        """|xi|^2 = xi1^2 + xi2^2 on the n x n lattice."""
        ksq = self.k[:, None] ** 2 + self.k**2
        ksq.flags.writeable = False
        return ksq

    @cached_property
    def b_half(self) -> np.ndarray:
        """The symbol of B on the columns 0..n/2 that ``rfft`` keeps."""
        return _b_symbol(self.k, self.k[: self.n // 2 + 1])

    @cached_property
    def quarter(self) -> "Quarter":
        """The transform object of the grid's fields even in x1 and in x2."""
        return Quarter(self)

    @property
    def grid(self) -> "Grid2D":
        """The grid itself, as a ``Quarter``'s ``grid`` is the grid it is the quarter of."""
        return self

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

    # The grid is the transform object of the full n x n array; ``Quarter``
    # is the same interface on the quarter of a field even in x1 and x2.
    edge = -1  # index of the last row and column

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def fft(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """fft2(v) written into ``out``, which may be v."""
        return np.fft.fft2(v, out=out)

    def ifft_in_place(self, a: np.ndarray) -> np.ndarray:
        """ifft2 written over ``a`` (numpy's 1-D ifft honours out=, its ifft2 does not)."""
        np.fft.ifft(a, axis=1, out=a)
        return np.fft.ifft(a, axis=0, out=a)

    def rfft(self, w: np.ndarray) -> np.ndarray:
        """The half spectrum rfft2(w) of a real w."""
        return np.fft.rfft2(w)

    def irfft(self, s: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(s, s=self.shape)

    def total(self, a: np.ndarray) -> float:
        """Sum over the grid of a field given on this object."""
        return a.sum()

    def half_total(self, s: np.ndarray) -> float:
        """Sum over the full spectrum of s given on ``rfft``'s half, for s even under
        the Hermitian mirror: columns 1..n/2-1 count twice, columns 0 and n/2 once."""
        return 2.0 * s.sum() - s[:, 0].sum() - s[:, self.n // 2].sum()

    def moment(self, a: np.ndarray, c: np.ndarray) -> float:
        """Sum over the grid of (c_i + c_j) a_ij, for c given along one axis."""
        return c @ a.sum(axis=1) + c @ a.sum(axis=0)

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


def _b_symbol(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """B's one builder: xi1^2/|xi|^2 on the lattice ``k1`` x ``k2`` (0 first), new, read-only;
    elementwise, so on cuts of a grid's ``k`` it is bitwise that corner of the symbol on ``k``."""
    k1_sq = k1[:, None] ** 2
    ksq = k1_sq + k2**2
    ksq[0, 0] = 1.0
    b = np.divide(k1_sq, ksq, out=ksq)
    # Zero mode carries the exact origin-cell average of the symbol; any
    # other constant leaves an O(1/L^2) rank-one defect in <B w, w>.
    b[0, 0] = 0.5
    b.flags.writeable = False
    return b


def _mirror(a: np.ndarray, out: np.ndarray) -> None:
    """out[i] = a[min(i, n-i)] along axis 0, for ``a`` of indices 0..n/2 and ``out`` of n."""
    h = a.shape[0]
    out[:h] = a
    out[h:] = a[h - 2 : 0 : -1]


class Quarter:
    """The transform object of a grid's fields that are even in x1 and in x2.

    A field with u[i, j] = u[(n-i) mod n, j] = u[i, (n-j) mod n] -- even about
    the grid origin, which is evenness about x = 0 as well -- has a spectrum
    even in the same way, so indices 0..n/2 of each axis, (n/2+1)^2 points,
    carry it whole in both spaces. This object has the interface of the full
    grid's (``Grid2D``) on that quarter:

    * ``x`` and ``k`` are the grid's cut to the quarter, and ``b_half`` is
      the symbol of B built on the quarter's own ``k`` x ``k``, bitwise the
      corner of the grid's, which the real pair keeps as well;
    * the complex pair ``fft``/``ifft_in_place`` mirrors its input into a
      buffer of its own, (n/2+1) n complex values seen as rows (n/2+1, n) or
      columns (n, n/2+1), and transforms one axis at a time, rows then
      columns as ``fft2`` does, so that it returns bitwise the quarter of
      the full transform of the mirrored array;
    * the real pair ``rfft``/``irfft`` serves real fields, whose spectrum is
      real and even as well: each axis is a real transform of the mirrored
      lines (``numpy.fft.rfft``/``irfft``), whose roundoff imaginary part
      is dropped, so both take and return real quarters, equal to the
      corner of ``rfft2``/``irfft2`` of the mirrored array to a few ulps of
      its maximum;
    * a sum weighs indices 0 and n/2 of each axis once and every other index
      twice, for itself and its mirror, in both spaces.

    Like a ``Grid2D``, a ``Quarter`` holds read-only arrays only, and each
    transform makes its own buffers, so one object, the grid's ``quarter``,
    is shared by every caller, and stays safe to call from several threads.
    Its ``grid`` is that grid, of the n x n fields that ``unfold`` makes.
    """

    edge = 1  # the full grid's last row and column, index n-1, mirror index 1

    def __init__(self, grid: Grid2D):
        n, h = grid.n, grid.n // 2 + 1
        self.grid, self.n, self.dx, self.shape = grid, n, grid.dx, (h, h)
        self.x, self.k = grid.x[:h], grid.k[:h]
        self.b_half = _b_symbol(self.k, self.k)
        self.weight = np.full(h, 2.0)
        self.weight[[0, -1]] = 1.0
        self.weight.flags.writeable = False

    @staticmethod
    def holds(u: np.ndarray) -> bool:
        """Whether the n x n samples u equal their mirrors in x1 and in x2, each one."""
        return np.array_equal(u[1:], u[:0:-1]) and np.array_equal(u[:, 1:], u[:, :0:-1])

    @staticmethod
    def unfold(q: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The full n x n field of the quarter q, written into ``out``."""
        h = q.shape[0]
        _mirror(q.T, out[:h].T)
        _mirror(out[:h], out)
        return out

    def _pass(self, a: np.ndarray, out: np.ndarray, transform) -> np.ndarray:
        """One complex transform through a buffer of its own, seen as rows and as columns
        (numpy copies the source of the row-to-column step, which overlaps its target)."""
        h, n = self.shape[0], self.n
        buffer = np.empty(h * n, dtype=np.complex128)
        rows, cols = buffer.reshape(h, n), buffer.reshape(n, h)
        _mirror(a.T, rows.T)
        transform(rows, axis=1, out=rows)
        cols[:h] = rows[:, :h]
        _mirror(cols[:h], cols)
        transform(cols, axis=0, out=cols)
        out[...] = cols[:h]
        return out

    def fft(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._pass(v, out, np.fft.fft)

    def ifft_in_place(self, a: np.ndarray) -> np.ndarray:
        return self._pass(a, a, np.fft.ifft)

    def _real_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """A real transform's line buffer, (n/2+1) n reals seen as rows and as columns;
        its half lines, (n/2+1)^2 complex values, are a buffer of their own."""
        h, n = self.shape[0], self.n
        lines = np.empty(h * n)
        return lines.reshape(h, n), lines.reshape(n, h)

    def rfft(self, w: np.ndarray) -> np.ndarray:
        """The real spectrum quarter of a real quarter w."""
        (rows, cols), half = self._real_lines(), np.empty(self.shape, dtype=np.complex128)
        _mirror(w.T, rows.T)
        np.fft.rfft(rows, axis=1, out=half)
        _mirror(half.real, cols)
        np.fft.rfft(cols, axis=0, out=half)
        return half.real.copy()

    def irfft(self, s: np.ndarray) -> np.ndarray:
        """The real quarter of a real spectrum quarter s."""
        (rows, cols), half = self._real_lines(), np.zeros(self.shape, dtype=np.complex128)
        h = self.shape[0]
        half.real = s  # the imaginary parts stay 0
        np.fft.irfft(half, n=self.n, axis=0, out=cols)
        half.real = cols[:h]
        np.fft.irfft(half, n=self.n, axis=1, out=rows)
        return rows[:, :h].copy()

    def total(self, a: np.ndarray) -> float:
        return self.weight @ a @ self.weight

    half_total = total

    def moment(self, a: np.ndarray, c: np.ndarray) -> float:
        cw = self.weight * c
        return cw @ (a @ self.weight) + cw @ (self.weight @ a)


@dataclass
class Field:
    """Complex physical samples of a field on a grid.

    The optional third argument ``space`` is taken at construction and not
    stored; only ``PHYSICAL`` is accepted, so the call form
    ``Field(grid, values, PHYSICAL)`` keeps working. The benchmark-harness
    rewrite (ROADMAP item 1) deletes both the argument and the constant.
    """

    grid: Grid2D
    values: np.ndarray
    space: InitVar[str] = PHYSICAL

    def __post_init__(self, space: str):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise UsageError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if space != PHYSICAL:
            raise UsageError(f"a Field holds physical samples only, got space {space!r}")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def on_its_space(u: Field) -> tuple[np.ndarray, Grid2D | Quarter]:
    """u's samples on the space that holds them whole, (values, space): a view of the
    quarter and the grid's ``quarter`` where u equals its mirrors in x1 and in x2, else
    u's values and its grid. The package's one test of a field's parity: ``run``, the
    snapshot files and the concentration traces put a ``Field`` on its space here."""
    grid = u.grid
    if not Quarter.holds(u.values):
        return u.values, grid
    h = grid.quarter.shape[0]
    return u.values[:h, :h], grid.quarter


def full_field(values: np.ndarray, space: Grid2D | Quarter) -> Field:
    """The ``Field`` of the samples ``values`` on ``space``, the inverse of ``on_its_space``:
    a quarter unfolded into a new n x n array, samples on the grid as they are."""
    grid = space.grid
    if space is not grid:
        values = space.unfold(values, np.empty(grid.shape, dtype=np.complex128))
    return Field(grid, values)


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


def _b_action(w_hat: np.ndarray, space: Grid2D | Quarter) -> np.ndarray:
    """B w from ``w_hat`` = ``space.rfft(w)`` of a real w, scaled in place.

    The symbol is even in xi1 and in xi2, so keeping its columns 0..n/2 with
    the real pair (and its rows 0..n/2 on the quarter) is exact and the
    result is real.
    """
    w_hat *= space.b_half
    return space.irfft(w_hat)


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
    ``grid`` may be a ``Quarter`` holding w's quarter, as in ``run``'s step.
    """
    return _l_from_b(w, _b_action(grid.rfft(w), grid), p)


def apply_b(f: Field) -> Field:
    """Apply the multiplier B with symbol xi1^2/|xi|^2 to a real field.

    Input must be real up to roundoff (B acts on |u|^2 in the evolution,
    which is real); the output is real because the symbol is real and even
    in each wavenumber.
    """
    _check_real(f.values, "apply_b")
    return Field(f.grid, _b_action(f.grid.rfft(f.values.real), f.grid))


def apply_l(f: Field, p: OperatorParams) -> Field:
    """Apply L = nu*I + gamma*B to a real field."""
    _check_real(f.values, "apply_l")
    return Field(f.grid, interaction_potential(f.values.real, f.grid, p))


def density(values: np.ndarray) -> np.ndarray:
    """|u|^2 of samples, as re^2 + im^2 (re^2 for real ones)."""
    rho = np.square(values.real)
    if np.iscomplexobj(values):
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

    ``values`` are u's samples on ``space`` -- the grid, or the ``Quarter``
    of a field even in x1 and x2 -- and ``uhat`` its spectrum
    ``space.fft(u)``, or any array of the same modulus, when the caller
    holds one (``run`` keeps the spectrum before the last free half-step);
    without it the gradient transforms u and keeps no spectrum. ``run`` sets
    ``values`` after construction, where the samples are read at all. The
    density rho = re^2 + im^2 gives the mass, sup|u|, the L4 integral and
    the second moment; its half spectrum ``space.rfft(rho)``, made once,
    gives the interaction term and the potential L(rho); the gradient comes
    from the spectrum by Parseval. Every sum is the space's: plain on the
    grid, and on the quarter weighted by 1 at indices 0 and n/2 of an axis
    and 2 elsewhere, so both give the integral over the whole box. These are
    the package's only formulas for those quantities: the functionals below,
    the records and step boundaries of ``run``, the ground-state report and
    the concentration trace all read them here.
    """

    def __init__(self, values: np.ndarray, space: Grid2D | Quarter,
                 uhat: np.ndarray | None = None):
        self.values = values
        self.space = space
        self.uhat = uhat

    @classmethod
    def of(cls, u: Field) -> "FieldTerms":
        """The terms of a field, with no spectrum held."""
        return cls(u.values, u.grid)

    @cached_property
    def rho(self) -> np.ndarray:
        return density(self.values)

    @cached_property
    def rho_half(self) -> np.ndarray:
        """rfft(rho), shared by the interaction term, L(rho) and windowed masses."""
        return self.space.rfft(self.rho)

    @cached_property
    def mass(self) -> float:
        """Squared L2 norm: integral of |u|^2, as dx^2 sum rho."""
        total = self.space.total(self.rho)
        if not np.isfinite(total):
            raise DomainError("mass: field contains non-finite values")
        return float(self.space.dx**2 * total)

    @cached_property
    def sup(self) -> float:
        return math.sqrt(self.rho.max())

    @cached_property
    def _rho_sq_sum(self) -> float:
        return float(self.space.total(np.square(self.rho)))

    @property
    def l4(self) -> float:
        """Integral of |u|^4, as dx^2 sum rho^2."""
        return self.space.dx**2 * self._rho_sq_sum

    @cached_property
    def grad(self) -> float:
        """Integral of |grad u|^2, as dx^2/n^2 sum |xi|^2 |u_hat|^2.

        |xi|^2 = k1^2 + k2^2 is summed axis by axis against the row and
        column sums of |u_hat|^2, so no n x n weight array is formed.
        """
        g = self.space
        uhat = self.uhat
        if uhat is None:
            uhat = g.fft(self.values, np.empty(g.shape, dtype=np.complex128))
        a = density(uhat)
        return float(g.dx**2 / g.n**2 * g.moment(a, g.k**2))

    @cached_property
    def second_moment(self) -> SecondMoment:
        """Integral of |x|^2 |u|^2 with centered coordinates, and the boundary flag.

        The value is only meaningful while the field is contained well inside
        the box (|x|^2 is not periodic); ``boundary_ok`` is False once the
        amplitude on the outermost cells exceeds 1e-10 of its maximum. |x|^2 =
        x1^2 + x2^2 is summed axis by axis against the row and column sums of rho.
        """
        g, rho, e = self.space, self.rho, self.space.edge
        edge = math.sqrt(max(rho[0, :].max(), rho[e, :].max(), rho[:, 0].max(), rho[:, e].max()))
        ok = bool(self.sup == 0.0 or edge <= BOUNDARY_DECAY_TOL * self.sup)
        value = float(g.dx**2 * g.moment(rho, g.x**2))
        return SecondMoment(value, ok)

    def quartic(self, p: OperatorParams) -> float:
        """Integral of L(rho) rho, as nu*sum rho^2 + gamma*sum m(xi)|rho_hat|^2.

        The form is manifestly real and keeps the gamma part inside
        [0, gamma * integral of |u|^4] (the symbol is bounded by [0, 1]). The
        B part is summed over the real pair's spectrum by ``half_total``: on
        the grid each column 1..n/2-1 stands for itself and its Hermitian
        mirror, so it counts twice, columns 0 and n/2 once; on the quarter
        the weights are those of its physical sums.
        """
        g = self.space
        s = g.b_half * density(self.rho_half)
        b_part = g.half_total(s) / g.n**2
        return float(g.dx**2 * (p.nu * self._rho_sq_sum + p.gamma * b_part))

    def energy(self, p: OperatorParams) -> float:
        return hamiltonian(self.grad, self.quartic(p))

    def potential(self, p: OperatorParams) -> np.ndarray:
        """L(rho), from a copy of the shared half spectrum."""
        return _l_from_b(self.rho, _b_action(self.rho_half.copy(), self.space), p)


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
    g = field.grid
    coeff = np.fft.fft2(field.values) / g.n**2
    # DFT phases are anchored at the first sample point x0 = -L/2.
    shifted = scale * target_grid.x - g.x[0]
    phase = np.exp(1j * np.outer(shifted, g.k))
    nyq = g.n // 2
    phase[:, nyq] = np.cos(abs(g.k[nyq]) * shifted)
    return phase @ coeff @ phase.T
